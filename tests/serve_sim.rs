//! Seeded adversarial schedules against the `diq serve` scheduling core.
//!
//! Each schedule drives one [`Core`] on a virtual clock: workers join,
//! leave, crash mid-lease and heartbeat late; results arrive duplicated,
//! stale, from the wrong worker or for the wrong key; the same spec and
//! overlapping specs are submitted while earlier jobs are in flight. Then
//! every other worker goes away or falls silent, one healthy worker stays,
//! and the schedule runs until every job is done. Schedule `seed` draws
//! from its own stream, `derive_seed(seed, "adversarial")`, so a failing
//! seed replays exactly.
//!
//! After every step the actions are checked against six invariants:
//!
//! 1. **At most once:** a key is written at most once, and only after the
//!    worker holding its live lease delivered it.
//! 2. **JIQ:** an `Assign` goes only to a worker that said `Idle` while
//!    holding no lease, and has not been assigned since.
//! 3. **Per-job grid order:** each job writes the keys it claimed in its
//!    grid order.
//! 4. **Manifest after records:** a manifest names only keys already in the
//!    store, and a job is done exactly when its last key is stored.
//! 5. **Progress under churn:** once one healthy worker stays, every job is
//!    done within a bound of virtual time.
//! 6. **Store bytes:** when every job submits the same spec, the written
//!    lines are a prefix of (and end equal to) `diq sweep --threads 1` on
//!    that spec.

use diq::exp::{fnv1a64, sweep, ExperimentSpec, Point, PointRecord, ResultStore, RunManifest};
use diq::serve::core::{Action, Core, Event};
use diq::serve::protocol::FromServer;
use proptest::rng::TestRng;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Overlapping grids of 300-instruction points: the same keys in
/// different grid orders, a one-point subset, and a grid that names a
/// point twice.
const SPECS: [&str; 4] = [
    r#"{"name":"sim-grid","instructions":[300],
        "schemes":["MB_distr","IQ_64_64"],"workloads":["gzip","swim","mcf"]}"#,
    r#"{"name":"sim-rev","instructions":[300],
        "schemes":["IQ_64_64","MB_distr"],"workloads":["mcf","swim"]}"#,
    r#"{"name":"sim-one","instructions":[300],
        "schemes":["MB_distr"],"workloads":["swim"]}"#,
    r#"{"name":"sim-dup","instructions":[300],
        "schemes":["MB_distr"],"workloads":["gzip","swim","gzip"]}"#,
];

const LEASE: Duration = Duration::from_secs(10);
/// How long the healthy worker takes per point.
const WORK: Duration = Duration::from_secs(1);

/// One submittable spec, expanded as the server's reader thread would.
struct Grid {
    points: Vec<Point>,
    keys: Vec<String>,
    manifest: RunManifest,
}

/// Everything the schedules share, computed once per test process.
struct Universe {
    grids: Vec<Grid>,
    /// The real record of every distinct point.
    records: HashMap<String, PointRecord>,
    /// The distinct keys, sorted.
    keys: Vec<String>,
    /// `store.jsonl` after a one-thread sweep of `SPECS[0]` into an empty
    /// store.
    sweep_bytes: Vec<u8>,
}

fn universe() -> &'static Universe {
    static UNIVERSE: OnceLock<Universe> = OnceLock::new();
    UNIVERSE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("diq-serve-sim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let mut grids = Vec::new();
        let mut sweep_bytes = Vec::new();
        // Sweeping every spec into one store executes each distinct point
        // exactly once; the first sweep's bytes are the byte reference.
        for (i, json) in SPECS.iter().enumerate() {
            let spec = ExperimentSpec::from_json(json).unwrap();
            sweep(&spec, &store, 1).unwrap();
            if i == 0 {
                sweep_bytes = store.raw_bytes().unwrap();
            }
            let points = spec.expand().unwrap();
            let keys = Point::keys(&points);
            let manifest = RunManifest::from_points(spec.name, spec.description, &points, &keys);
            grids.push(Grid {
                points,
                keys,
                manifest,
            });
        }
        let records = store.load().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let mut keys: Vec<String> = records.keys().cloned().collect();
        keys.sort();
        Universe {
            grids,
            records,
            keys,
            sweep_bytes,
        }
    })
}

fn derive_seed(seed: u64, profile: &str) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(profile.as_bytes());
    fnv1a64(&bytes)
}

/// A worker as the schedule plays it: what it holds, not what the core
/// thinks of it.
struct SimWorker {
    conn: u64,
    /// Hung up, or hung up on: it may still send stale frames.
    gone: bool,
    /// The lease it is computing, with the key it was assigned.
    lease: Option<(u64, String)>,
    /// Its last delivered result, for duplicates.
    last: Option<(u64, PointRecord)>,
}

/// The model a correct core must agree with.
struct SimJob {
    name: String,
    /// Distinct grid keys.
    keys: Vec<String>,
    /// Keys this job claimed, in grid order.
    owned: Vec<String>,
    /// How many of `owned` have been written.
    written: usize,
    done: bool,
}

struct LiveLease {
    worker: u64,
    key: String,
    deadline: Duration,
}

struct Sim {
    seed: u64,
    u: &'static Universe,
    core: Core,
    now: Duration,
    next_conn: u64,
    client: u64,
    workers: Vec<SimWorker>,
    jobs: Vec<SimJob>,
    /// Keys in the store: seeded ones, then every written one.
    stored: HashSet<String>,
    /// The lines written to `store.jsonl`, in order.
    lines: Vec<u8>,
    /// Claimed keys not yet written, and the job that claimed each.
    claims: HashMap<String, usize>,
    /// Workers that said Idle while holding no lease and have not been
    /// assigned since.
    idle: HashSet<u64>,
    registered: HashSet<u64>,
    leases: HashMap<u64, LiveLease>,
    /// Keys delivered under a live lease by its holder.
    delivered: HashSet<String>,
    /// Every job submits `SPECS[0]` into an empty store.
    same_spec: bool,
}

impl Sim {
    fn new(seed: u64, same_spec: bool, seeded: HashSet<String>) -> Self {
        Sim {
            seed,
            u: universe(),
            core: Core::new(LEASE, PathBuf::from("sim-store"), seeded.clone()),
            now: Duration::ZERO,
            next_conn: 1,
            client: 0,
            workers: Vec::new(),
            jobs: Vec::new(),
            stored: seeded,
            lines: Vec::new(),
            claims: HashMap::new(),
            idle: HashSet::new(),
            registered: HashSet::new(),
            leases: HashMap::new(),
            delivered: HashSet::new(),
            same_spec,
        }
    }

    fn fail(&self, what: &str) -> ! {
        panic!("seed {}: at {:?}: {what}", self.seed, self.now)
    }

    fn held_by(&self, conn: u64) -> Option<u64> {
        self.leases
            .iter()
            .find(|(_, l)| l.worker == conn)
            .map(|(id, _)| *id)
    }

    fn worker_gone(&mut self, conn: u64) {
        if let Some(id) = self.held_by(conn) {
            self.leases.remove(&id);
        }
        self.idle.remove(&conn);
        self.registered.remove(&conn);
        if let Some(w) = self.workers.iter_mut().find(|w| w.conn == conn) {
            w.gone = true;
        }
    }

    /// Delivers one event, updates the model and checks every action.
    fn step(&mut self, event: Event) {
        // The model's half of the event: what a correct core must make of
        // it, before the core answers.
        match &event {
            Event::Hello { conn, .. } => {
                self.registered.insert(*conn);
            }
            Event::Idle { conn } => {
                if self.registered.contains(conn) && self.held_by(*conn).is_none() {
                    self.idle.insert(*conn);
                }
            }
            Event::Heartbeat { conn } => {
                if let Some(id) = self.held_by(*conn) {
                    self.leases.get_mut(&id).unwrap().deadline = self.now + LEASE;
                }
            }
            Event::Result {
                conn,
                lease,
                record,
            } => {
                if self.leases.get(lease).is_some_and(|l| l.worker == *conn) {
                    let live = self.leases.remove(lease).unwrap();
                    if live.key == record.key {
                        self.delivered.insert(live.key);
                    }
                }
            }
            Event::Submit { keys, manifest, .. } => {
                let job = self.jobs.len();
                let mut distinct = Vec::new();
                let mut owned = Vec::new();
                for key in keys {
                    if distinct.contains(key) {
                        continue;
                    }
                    distinct.push(key.clone());
                    if !self.stored.contains(key) && !self.claims.contains_key(key) {
                        self.claims.insert(key.clone(), job);
                        owned.push(key.clone());
                    }
                }
                self.jobs.push(SimJob {
                    name: manifest.name.clone(),
                    keys: distinct,
                    owned,
                    written: 0,
                    done: false,
                });
            }
            Event::Disconnect { conn } => self.worker_gone(*conn),
            Event::Status { .. } | Event::Tick => {}
        }
        // The workers a Tick must drop: those whose lease is due.
        let due: HashSet<u64> = match event {
            Event::Tick => self
                .leases
                .values()
                .filter(|l| l.deadline <= self.now)
                .map(|l| l.worker)
                .collect(),
            _ => HashSet::new(),
        };
        let submitted = match &event {
            Event::Submit { keys, .. } => Some(keys.clone()),
            _ => None,
        };
        let mut dropped = HashSet::new();
        for action in self.core.handle(self.now, event) {
            match action {
                Action::Send { conn, frame } => self.check_frame(conn, frame, submitted.as_deref()),
                Action::WriteRecord(record) => self.check_record(record),
                Action::WriteManifest(manifest) => self.check_manifest(&manifest),
                Action::DropWorker { conn } => {
                    dropped.insert(conn);
                    self.worker_gone(conn);
                }
                Action::Log(_) => {}
            }
        }
        if dropped != due {
            self.fail(&format!("dropped workers {dropped:?}, expected {due:?}"));
        }
        self.check_jobs();
    }

    fn check_frame(&mut self, conn: u64, frame: FromServer, submitted: Option<&[String]>) {
        match frame {
            FromServer::Assign { lease, point } => {
                if !self.idle.remove(&conn) {
                    self.fail(&format!(
                        "JIQ: assigned to worker {conn}, which is not idle"
                    ));
                }
                if self.held_by(conn).is_some() {
                    self.fail(&format!("JIQ: worker {conn} already holds a lease"));
                }
                let key = point.key();
                if !self.claims.contains_key(&key) {
                    self.fail(&format!("assigned {key}, which no job awaits"));
                }
                self.leases.insert(
                    lease,
                    LiveLease {
                        worker: conn,
                        key: key.clone(),
                        deadline: self.now + LEASE,
                    },
                );
                if let Some(w) = self.workers.iter_mut().find(|w| w.conn == conn) {
                    w.lease = Some((lease, key));
                }
            }
            FromServer::Accepted { job, view } => {
                let j = job as usize;
                let keys = submitted.expect("Accepted answers a Submit");
                if j + 1 != self.jobs.len() {
                    self.fail(&format!(
                        "job {job} accepted as submission {}",
                        self.jobs.len()
                    ));
                }
                let owned = &self.jobs[j].owned;
                let computed = keys.iter().filter(|k| owned.contains(k)).count();
                if (view.total, view.computed) != (keys.len(), computed) {
                    self.fail(&format!(
                        "job {job} counts {view:?}, expected {computed} computed"
                    ));
                }
                self.check_view(j, view.done, view.remaining);
            }
            FromServer::JobStatus(view) => {
                self.check_view(view.job as usize, view.done, view.remaining)
            }
            FromServer::Registered { .. } | FromServer::Error { .. } => {}
            other => self.fail(&format!("unexpected frame {other:?}")),
        }
    }

    fn check_view(&self, job: usize, done: bool, remaining: usize) {
        let j = &self.jobs[job];
        let left = j.keys.iter().filter(|k| !self.stored.contains(*k)).count();
        if done != j.done || remaining != left {
            self.fail(&format!(
                "job {job} reports done={done} remaining={remaining}; \
                 the store says done={} remaining={left}",
                j.done
            ));
        }
    }

    fn check_record(&mut self, record: PointRecord) {
        let key = record.key.clone();
        if !self.stored.insert(key.clone()) {
            self.fail(&format!("at most once: {key} written twice"));
        }
        if !self.delivered.contains(&key) {
            self.fail(&format!(
                "at most once: {key} written without a live delivery"
            ));
        }
        if record != self.u.records[&key] {
            self.fail(&format!("{key} written with another point's record"));
        }
        let Some(owner) = self.claims.remove(&key) else {
            self.fail(&format!("{key} written, but no job claimed it"));
        };
        let job = &self.jobs[owner];
        let next = job.owned.get(job.written);
        if next != Some(&key) {
            self.fail(&format!(
                "grid order: job {owner} wrote {key}, expected {next:?}"
            ));
        }
        self.jobs[owner].written += 1;
        self.lines
            .extend_from_slice(serde_json::to_string(&record).unwrap().as_bytes());
        self.lines.push(b'\n');
        if self.same_spec && !self.u.sweep_bytes.starts_with(&self.lines) {
            self.fail("store bytes: written lines diverge from `diq sweep --threads 1`");
        }
    }

    fn check_manifest(&mut self, manifest: &RunManifest) {
        if let Some(key) = manifest
            .points
            .iter()
            .find(|p| !self.stored.contains(&p.key))
        {
            self.fail(&format!(
                "manifest `{}` names {} before its record",
                manifest.name, key.key
            ));
        }
        let stored = &self.stored;
        let Some(job) = self.jobs.iter_mut().find(|j| {
            !j.done && j.name == manifest.name && j.keys.iter().all(|k| stored.contains(k))
        }) else {
            self.fail(&format!("manifest `{}` for no finished job", manifest.name));
        };
        job.done = true;
    }

    /// A job is done exactly when its last key is stored.
    fn check_jobs(&self) {
        for (id, job) in self.jobs.iter().enumerate() {
            if !job.done && job.keys.iter().all(|k| self.stored.contains(k)) {
                self.fail(&format!("job {id} is stored in full but not done"));
            }
        }
    }

    fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.done)
    }

    fn join(&mut self) -> usize {
        let conn = self.next_conn;
        self.next_conn += 1;
        self.workers.push(SimWorker {
            conn,
            gone: false,
            lease: None,
            last: None,
        });
        self.step(Event::Hello {
            conn,
            name: format!("w{conn}"),
        });
        self.workers.len() - 1
    }

    fn submit(&mut self, grid: usize) {
        let g = &self.u.grids[grid];
        self.step(Event::Submit {
            conn: self.client,
            points: g.points.clone(),
            keys: g.keys.clone(),
            manifest: g.manifest.clone(),
        });
    }

    /// Worker `w` delivers the record of `key` under `lease`.
    fn deliver(&mut self, w: usize, lease: u64, key: &str) {
        let record = self.u.records[key].clone();
        let conn = self.workers[w].conn;
        self.workers[w].last = Some((lease, record.clone()));
        if self.workers[w]
            .lease
            .as_ref()
            .is_some_and(|(l, _)| *l == lease)
        {
            self.workers[w].lease = None;
        }
        self.step(Event::Result {
            conn,
            lease,
            record,
        });
    }

    /// Moves the clock and, like the server's event loop, ticks when a
    /// deadline has passed.
    fn advance(&mut self, by: Duration) {
        self.now += by;
        if self.core.next_deadline().is_some_and(|d| d <= self.now) {
            self.step(Event::Tick);
        }
    }

    /// One adversarial step.
    fn chaos(&mut self, rng: &mut TestRng) {
        let any_worker = |rng: &mut TestRng, sim: &Sim| {
            (!sim.workers.is_empty()).then(|| rng.below(sim.workers.len() as u64) as usize)
        };
        match rng.below(100) {
            0..=7 => {
                let grid = if self.same_spec {
                    0
                } else {
                    rng.below(SPECS.len() as u64) as usize
                };
                self.submit(grid);
            }
            8..=15 => {
                self.join();
            }
            16..=35 => {
                if let Some(w) = any_worker(rng, self) {
                    let conn = self.workers[w].conn;
                    self.step(Event::Idle { conn });
                }
            }
            36..=43 => {
                // A heartbeat, possibly late (after its lease expired) or
                // from a worker that was hung up on.
                if let Some(w) = any_worker(rng, self) {
                    let conn = self.workers[w].conn;
                    self.step(Event::Heartbeat { conn });
                }
            }
            44..=63 => {
                // The worker finishes its point, maybe after its lease
                // expired, and announces idleness again.
                if let Some(w) = any_worker(rng, self) {
                    if let Some((lease, key)) = self.workers[w].lease.clone() {
                        self.deliver(w, lease, &key);
                        let conn = self.workers[w].conn;
                        self.step(Event::Idle { conn });
                    }
                }
            }
            64..=68 => {
                // A duplicate of the worker's last result.
                if let Some(w) = any_worker(rng, self) {
                    if let Some((lease, record)) = self.workers[w].last.clone() {
                        let conn = self.workers[w].conn;
                        self.step(Event::Result {
                            conn,
                            lease,
                            record,
                        });
                    }
                }
            }
            69..=71 => {
                // The right lease, the wrong point's record.
                if let Some(w) = any_worker(rng, self) {
                    if let Some((lease, key)) = self.workers[w].lease.take() {
                        let other = self.u.keys.iter().find(|k| **k != key).unwrap().clone();
                        self.deliver(w, lease, &other);
                    }
                }
            }
            72..=74 => {
                // Another worker's lease, from a worker that does not
                // hold it.
                if let (Some(a), Some(b)) = (any_worker(rng, self), any_worker(rng, self)) {
                    if let Some((lease, key)) = self.workers[b].lease.clone() {
                        if a != b {
                            let record = self.u.records[&key].clone();
                            let conn = self.workers[a].conn;
                            self.step(Event::Result {
                                conn,
                                lease,
                                record,
                            });
                        }
                    }
                }
            }
            75..=81 => {
                // A crash: the connection drops, mid-lease or not.
                if let Some(w) = any_worker(rng, self) {
                    let conn = self.workers[w].conn;
                    self.step(Event::Disconnect { conn });
                }
            }
            82..=85 => {
                if !self.jobs.is_empty() {
                    let job = rng.below(self.jobs.len() as u64);
                    self.step(Event::Status {
                        conn: self.client,
                        job,
                    });
                }
            }
            86..=88 => self.step(Event::Tick),
            _ => {
                // Time passes, up to one and a half leases.
                let by = Duration::from_millis(rng.below(LEASE.as_millis() as u64 * 3 / 2));
                self.advance(by);
            }
        }
    }

    /// Every other worker leaves or falls silent, one healthy worker
    /// stays, and every job must finish within the bound.
    fn drain(&mut self, rng: &mut TestRng) {
        let mut silent = 0u32;
        for w in 0..self.workers.len() {
            if self.workers[w].gone {
                continue;
            }
            if rng.below(2) == 0 {
                let conn = self.workers[w].conn;
                self.step(Event::Disconnect { conn });
            } else {
                silent += 1;
            }
        }
        // Each silent worker can swallow one point for one lease; every
        // point costs the healthy worker one unit of work.
        let points = self.u.records.len() as u32;
        let bound = LEASE * (silent + 1) + WORK * (points + 1);
        let start = self.now;
        let h = self.join();
        let conn = self.workers[h].conn;
        self.step(Event::Idle { conn });
        while !self.all_done() {
            if self.now - start > bound {
                self.fail(&format!(
                    "progress: jobs unfinished {bound:?} after churn stopped"
                ));
            }
            if let Some((lease, key)) = self.workers[h].lease.clone() {
                self.advance(WORK);
                self.step(Event::Heartbeat { conn });
                self.deliver(h, lease, &key);
                self.step(Event::Idle { conn });
            } else {
                let Some(deadline) = self.core.next_deadline() else {
                    self.fail("progress: jobs unfinished with nothing leased");
                };
                self.advance(deadline.saturating_sub(self.now));
            }
        }
        if self.same_spec && self.lines != self.u.sweep_bytes {
            self.fail("store bytes: the written lines differ from `diq sweep --threads 1`");
        }
    }
}

fn run_schedule(seed: u64, same_spec: bool) {
    let u = universe();
    let mut rng = TestRng::new(derive_seed(seed, "adversarial"));
    // Overlapping schedules start from a store that already holds some
    // keys; same-spec schedules start empty, as the sweep they match.
    let seeded: HashSet<String> = if same_spec {
        HashSet::new()
    } else {
        u.keys
            .iter()
            .filter(|_| rng.below(4) == 0)
            .cloned()
            .collect()
    };
    let mut sim = Sim::new(seed, same_spec, seeded);
    let steps = 40 + rng.below(120);
    for _ in 0..steps {
        sim.chaos(&mut rng);
    }
    if sim.jobs.is_empty() {
        sim.submit(0);
    }
    sim.drain(&mut rng);
}

#[test]
fn same_spec_schedules_keep_every_invariant() {
    for seed in 0..800 {
        run_schedule(seed, true);
    }
}

#[test]
fn overlapping_spec_schedules_keep_every_invariant() {
    for seed in 0..1200 {
        run_schedule(seed, false);
    }
}
