//! The sweep service's scheduling core: every decision `diq serve` makes,
//! with no sockets, threads, clocks or files.
//!
//! [`Core::handle`] takes the time since the server started and one
//! [`Event`] (a decoded frame, a hang-up, or a lease deadline passing) and
//! returns the [`Action`]s that carry the decision out: frames to send,
//! records and manifests to write, workers to hang up on. The server's
//! event loop is the only caller in production; `tests/serve_sim.rs`
//! drives the same core through seeded adversarial schedules on a virtual
//! clock.
//!
//! The core keeps these invariants:
//!
//! * **At most once.** A point key is claimed by the first job to
//!   subscribe to it; later jobs subscribe to its completion and share the
//!   execution. A result is accepted only from the worker that holds its
//!   lease while the lease is live, so a reassigned point is recorded once.
//! * **Join-the-idle-queue.** A point is assigned only to a worker that
//!   announced `Idle` and holds no lease; the core never queues work onto a
//!   busy worker.
//! * **Grid-ordered records, manifests last.** A job's records are written
//!   in its grid order (a finished record waits for its predecessors). A
//!   key counts as stored, and the jobs waiting on it advance, only when
//!   its record is written, so a manifest names only keys already in the
//!   store and the store matches a single-process `diq sweep` byte for
//!   byte.

use crate::protocol::{FromServer, JobView};
use diq_exp::{Point, PointRecord, RunManifest, SweepSummary};
use std::collections::{hash_map::Entry, BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::time::Duration;

/// Something that happened to the server. `conn` names the connection it
/// arrived on; a worker is known by the connection it registered on.
// A `Result` carries a whole point record, but each event is handled once
// and dropped — boxing would buy nothing (the protocol enums do the same).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Event {
    /// A connection registered as a worker.
    Hello {
        /// The worker's connection.
        conn: u64,
        /// Display name (diagnostics only).
        name: String,
    },
    /// A worker announced idleness.
    Idle {
        /// The worker's connection.
        conn: u64,
    },
    /// A worker is alive: its lease's deadline moves out.
    Heartbeat {
        /// The worker's connection.
        conn: u64,
    },
    /// A worker delivered a record under a lease.
    Result {
        /// The worker's connection.
        conn: u64,
        /// The lease it says it fulfils.
        lease: u64,
        /// The computed record.
        record: PointRecord,
    },
    /// A client submitted a spec, already expanded: `keys[i]` is the store
    /// key of `points[i]`, and `manifest` is the run's manifest.
    Submit {
        /// The client's connection (the reply goes there).
        conn: u64,
        /// The grid, in grid order.
        points: Vec<Point>,
        /// The grid's store keys.
        keys: Vec<String>,
        /// The manifest to write once every key is stored.
        manifest: RunManifest,
    },
    /// A client polled a job.
    Status {
        /// The client's connection (the reply goes there).
        conn: u64,
        /// The job polled.
        job: u64,
    },
    /// A connection closed.
    Disconnect {
        /// The closed connection.
        conn: u64,
    },
    /// Time passed; leases whose deadline is not after `now` expire.
    Tick,
}

/// What the server must do to carry out a decision, in order.
#[allow(clippy::large_enum_variant)] // same rationale as `Event`
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Send a frame to a connection.
    Send {
        /// The connection.
        conn: u64,
        /// The frame.
        frame: FromServer,
    },
    /// Append a record to `store.jsonl`.
    WriteRecord(PointRecord),
    /// Write a run manifest.
    WriteManifest(RunManifest),
    /// Hang up on a worker whose lease expired.
    DropWorker {
        /// The worker's connection.
        conn: u64,
    },
    /// A line for the server log.
    Log(String),
}

/// A point claimed by a job: queued, or leased to a worker.
struct Claim {
    key: String,
    point: Point,
    job: u64,
}

struct Lease {
    claim: Claim,
    worker: u64,
    deadline: Duration,
}

/// A submitted job. Its manifest lists every grid point, duplicates
/// included (sweep semantics).
struct Job {
    /// Grid points whose key this job claimed (it executes them).
    computed: usize,
    /// Distinct keys not yet in the store; the job is done at zero.
    remaining: usize,
    /// Keys this job claimed, in grid order: the write sequence.
    owned: Vec<String>,
    /// Cursor into `owned`: everything before it has been written.
    written: usize,
    /// Finished records waiting for their predecessors in `owned`.
    results: HashMap<String, PointRecord>,
    manifest: RunManifest,
}

/// The scheduling state of one server: jobs, workers, leases, the idle
/// queue, the pending points and the stored keys.
pub struct Core {
    lease: Duration,
    store: PathBuf,
    next_lease: u64,
    /// Indexed by job id.
    jobs: Vec<Job>,
    /// Registered workers and the lease each holds. A held lease is live.
    workers: HashMap<u64, Option<u64>>,
    /// Lease-free workers that announced idleness, in announcement order.
    idle: VecDeque<u64>,
    /// Claimed points no idle worker was free for, FIFO; reassigned points
    /// re-enter at the front.
    pending: VecDeque<Claim>,
    /// Ordered by id so that expiry, and hence every schedule, is
    /// deterministic.
    leases: BTreeMap<u64, Lease>,
    /// Keys whose record is in the store.
    stored: HashSet<String>,
    /// Jobs waiting on each claimed key, claiming job first. A key has an
    /// entry from the submission that claims it until its record is
    /// written.
    subscribers: HashMap<String, Vec<u64>>,
}

impl Core {
    /// A core over the store rooted at `store` (named in job summaries),
    /// whose records hold the keys in `stored`. A lease expires `lease`
    /// after its assignment or its worker's last heartbeat.
    #[must_use]
    pub fn new(lease: Duration, store: PathBuf, stored: HashSet<String>) -> Self {
        Core {
            lease,
            store,
            next_lease: 0,
            jobs: Vec::new(),
            workers: HashMap::new(),
            idle: VecDeque::new(),
            pending: VecDeque::new(),
            leases: BTreeMap::new(),
            stored,
            subscribers: HashMap::new(),
        }
    }

    /// Results accepted so far: one per distinct executed point, written
    /// or waiting for its predecessors.
    #[must_use]
    pub fn results_accepted(&self) -> u64 {
        let per_job = self.jobs.iter().map(|j| j.written + j.results.len());
        per_job.sum::<usize>() as u64
    }

    /// The earliest lease deadline, when a [`Event::Tick`] is next due.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Duration> {
        self.leases.values().map(|l| l.deadline).min()
    }

    /// Applies one event at time `now` (since the server started) and
    /// returns what the server must do, in order.
    pub fn handle(&mut self, now: Duration, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Hello { conn, name } => {
                out.push(Action::Log(format!("worker {conn} ({name}) registered")));
                self.workers.insert(conn, None);
                let frame = FromServer::Registered { worker: conn };
                out.push(Action::Send { conn, frame });
            }
            Event::Idle { conn } => self.idle(now, conn, &mut out),
            Event::Heartbeat { conn } => {
                if let Some(Some(id)) = self.workers.get(&conn) {
                    self.leases
                        .get_mut(id)
                        .expect("a held lease is live")
                        .deadline = now + self.lease;
                }
            }
            Event::Result {
                conn,
                lease,
                record,
            } => self.result(now, conn, lease, record, &mut out),
            Event::Submit {
                conn,
                points,
                keys,
                manifest,
            } => {
                let job = self.submit(now, &points, &keys, manifest, &mut out);
                let view = self.view(job);
                let frame = FromServer::Accepted { job, view };
                out.push(Action::Send { conn, frame });
            }
            Event::Status { conn, job } => {
                let frame = if job < self.jobs.len() as u64 {
                    FromServer::JobStatus(self.view(job))
                } else {
                    let message = format!("no job {job}");
                    FromServer::Error { message }
                };
                out.push(Action::Send { conn, frame });
            }
            Event::Disconnect { conn } => self.worker_lost(now, conn, "disconnected", &mut out),
            // Each pass drops one worker for good, so the loop ends even if
            // a reassigned point's new lease is already due.
            Event::Tick => {
                while let Some(l) = self.leases.values().find(|l| l.deadline <= now) {
                    let conn = l.worker;
                    self.worker_lost(now, conn, "lease expired", &mut out);
                    out.push(Action::DropWorker { conn });
                }
            }
        }
        out
    }

    /// The externally visible view of job `id`.
    fn view(&self, id: u64) -> JobView {
        let job = &self.jobs[id as usize];
        let run = job.manifest.name.clone();
        let total = job.manifest.points.len();
        let cached = total - job.computed;
        let done = job.remaining == 0;
        JobView {
            job: id,
            summary: done
                .then(|| SweepSummary::new(run.clone(), job.computed, cached, &self.store)),
            run,
            done,
            total,
            computed: job.computed,
            cached,
            remaining: job.remaining,
        }
    }

    /// Decomposes a submission: dedups every grid key against the store
    /// and the keys in flight, claims the rest and dispatches it.
    fn submit(
        &mut self,
        now: Duration,
        points: &[Point],
        keys: &[String],
        manifest: RunManifest,
        out: &mut Vec<Action>,
    ) -> u64 {
        let id = self.jobs.len() as u64;
        let mut claims: Vec<Claim> = Vec::new();
        let mut remaining = 0usize;
        for (point, key) in points.iter().zip(keys) {
            if self.stored.contains(key) {
                continue;
            }
            match self.subscribers.entry(key.clone()) {
                // Named earlier in this grid.
                Entry::Occupied(waiters) if waiters.get().last() == Some(&id) => continue,
                // A peer job computes it: subscribing is the share.
                Entry::Occupied(mut waiters) => waiters.get_mut().push(id),
                // Nobody does: this job executes the point.
                Entry::Vacant(slot) => {
                    slot.insert(vec![id]);
                    claims.push(Claim {
                        key: key.clone(),
                        point: point.clone(),
                        job: id,
                    });
                }
            }
            remaining += 1;
        }
        // Sweep counting: every grid position whose key this job claimed
        // counts as computed (duplicates follow their key); the rest are
        // store hits and peer-shared keys.
        let claimed = |k: &String| self.subscribers.get(k).is_some_and(|w| w[0] == id);
        let computed = keys.iter().filter(|k| claimed(k)).count();
        out.push(Action::Log(format!(
            "job {id} `{}`: {} points, {computed} to compute, {} scheduled",
            manifest.name,
            keys.len(),
            claims.len()
        )));
        self.jobs.push(Job {
            computed,
            remaining,
            owned: claims.iter().map(|c| c.key.clone()).collect(),
            written: 0,
            results: HashMap::new(),
            manifest,
        });
        if remaining == 0 {
            self.finish(id, out);
        }
        for claim in claims {
            self.dispatch(now, claim, false, out);
        }
        id
    }

    /// Leases `claim` to the longest-idle worker, or queues it: at the back
    /// for a new point, at the front for a reassigned one (a lost point
    /// should not wait out the whole backlog again).
    fn dispatch(&mut self, now: Duration, claim: Claim, front: bool, out: &mut Vec<Action>) {
        match self.idle.pop_front() {
            Some(worker) => self.assign(now, worker, claim, out),
            None if front => self.pending.push_front(claim),
            None => self.pending.push_back(claim),
        }
    }

    /// Leases `claim` to `worker`, which is registered and holds no lease.
    fn assign(&mut self, now: Duration, worker: u64, claim: Claim, out: &mut Vec<Action>) {
        let lease = self.next_lease;
        self.next_lease += 1;
        self.workers.insert(worker, Some(lease));
        let point = claim.point.clone();
        out.push(Action::Send {
            conn: worker,
            frame: FromServer::Assign { lease, point },
        });
        self.leases.insert(
            lease,
            Lease {
                claim,
                worker,
                deadline: now + self.lease,
            },
        );
    }

    /// A worker announced idleness: give it the oldest pending point, or
    /// park it. A worker that still holds a lease is not idle, whatever it
    /// says.
    fn idle(&mut self, now: Duration, conn: u64, out: &mut Vec<Action>) {
        if self.workers.get(&conn) != Some(&None) || self.idle.contains(&conn) {
            return;
        }
        match self.pending.pop_front() {
            Some(claim) => self.assign(now, conn, claim, out),
            None => self.idle.push_back(conn),
        }
    }

    /// A worker delivered a record. It counts only under the lease that
    /// worker holds; anything else (a late result for an expired lease, a
    /// duplicate, another worker's lease) is dropped, so recording stays at
    /// most once.
    fn result(
        &mut self,
        now: Duration,
        conn: u64,
        lease: u64,
        record: PointRecord,
        out: &mut Vec<Action>,
    ) {
        if self.workers.get(&conn) != Some(&Some(lease)) {
            out.push(Action::Log(format!(
                "worker {conn}: stale result for lease {lease}, dropped"
            )));
            return;
        }
        self.workers.insert(conn, None);
        let claim = self
            .leases
            .remove(&lease)
            .expect("a held lease is live")
            .claim;
        if record.key != claim.key {
            // A worker computing the wrong point is a protocol bug: requeue
            // rather than corrupt the store.
            out.push(Action::Log(format!(
                "worker {conn}: lease {lease} returned key {} != {}, requeued",
                record.key, claim.key
            )));
            self.dispatch(now, claim, true, out);
            return;
        }
        let job = &mut self.jobs[claim.job as usize];
        job.results.insert(claim.key, record);
        // Grid-order release: a record is written only once every
        // predecessor of its job has been.
        let mut released = Vec::new();
        while let Some(rec) = job
            .owned
            .get(job.written)
            .and_then(|k| job.results.remove(k))
        {
            job.written += 1;
            released.push(rec);
        }
        for rec in released {
            self.store(rec, out);
        }
    }

    /// Writes a record, marks its key stored and advances every job waiting
    /// on it, finishing those that drain.
    fn store(&mut self, record: PointRecord, out: &mut Vec<Action>) {
        let waiters = self.subscribers.remove(&record.key).unwrap_or_default();
        self.stored.insert(record.key.clone());
        out.push(Action::WriteRecord(record));
        for id in waiters {
            let job = &mut self.jobs[id as usize];
            job.remaining -= 1;
            if job.remaining == 0 {
                self.finish(id, out);
            }
        }
    }

    /// Completes a job: writes its manifest.
    fn finish(&mut self, id: u64, out: &mut Vec<Action>) {
        let job = &self.jobs[id as usize];
        let (name, computed) = (&job.manifest.name, job.computed);
        out.push(Action::Log(format!(
            "job {id} `{name}` complete: {computed} computed, {} cached",
            job.manifest.points.len() - computed
        )));
        out.push(Action::WriteManifest(job.manifest.clone()));
    }

    /// A worker is gone (hung up, or its lease expired): forget it and
    /// reassign the point it held.
    fn worker_lost(&mut self, now: Duration, conn: u64, why: &str, out: &mut Vec<Action>) {
        let Some(held) = self.workers.remove(&conn) else {
            return; // a client, or a worker already dropped
        };
        self.idle.retain(|w| *w != conn);
        out.push(Action::Log(format!(
            "worker {conn} {why}, held lease {held:?}"
        )));
        if let Some(lease) = held.and_then(|id| self.leases.remove(&id)) {
            self.dispatch(now, lease.claim, true, out);
        }
    }
}
