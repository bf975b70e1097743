//! The sweep service: job decomposition, join-the-idle-queue dispatch,
//! leases, and the single-writer store thread.
//!
//! # Architecture
//!
//! ```text
//!  submit clients ──┐                 ┌── worker conns (push: Assign/Close)
//!                   ▼                 ▼
//!            accept loop ── connection threads
//!                   │                 │
//!                   ▼                 ▼
//!              ServerState (one mutex): jobs, leases,
//!              idle-worker queue, pending points, stored keys
//!                   │
//!                   ▼
//!            writer thread — the only place store.jsonl is written
//! ```
//!
//! Three invariants, enforced here and asserted by `tests/serve_e2e.rs`:
//!
//! * **At-most-once execution.** A point key is claimed in the
//!   [`InflightRegistry`] before it is scheduled; concurrent submissions of
//!   the same grid share the claim winner's execution. A result is accepted
//!   only if its lease is still live, so a crashed worker's reassigned point
//!   is recorded exactly once.
//! * **Join-the-idle-queue dispatch.** Workers announce idleness; points are
//!   assigned only in response. The server never queues work onto a busy
//!   worker — a slow worker holds back exactly the one point it leased,
//!   never a shard of the grid (contrast round-robin sharding, where the
//!   slowest shard gates the sweep).
//! * **Single-writer, grid-ordered store.** All appends funnel through one
//!   writer thread, and each job's records are released to it in the job's
//!   grid order (a completed record waits for its predecessors). The final
//!   `store.jsonl` is byte-identical to a single-process `diq sweep`.

use crate::protocol::{read_frame, write_frame, FromServer, JobView, ToServer, PROTOCOL_VERSION};
use crossbeam::channel::{self, Sender};
use diq_exp::{
    validate_run_name, ExperimentSpec, InflightRegistry, ManifestEntry, Point, PointRecord,
    ResultStore, RunManifest, SweepSummary,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration. All fields public; `Default` gives an ephemeral
/// loopback port, `results/` store, 30-second leases.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Result-store directory (shared with `diq sweep`).
    pub store_dir: PathBuf,
    /// Lease deadline: a point whose worker neither heartbeats nor delivers
    /// within this window is presumed lost and reassigned.
    pub lease: Duration,
    /// How often the reaper scans for expired leases.
    pub reap_every: Duration,
    /// Suppress per-event stderr logging.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: PathBuf::from("results"),
            lease: Duration::from_secs(30),
            reap_every: Duration::from_millis(100),
            quiet: false,
        }
    }
}

impl ServeConfig {
    /// Binds, seeds the stored-key index from the store, and starts the
    /// accept loop, writer thread and lease reaper.
    ///
    /// # Errors
    ///
    /// Bind and store-open failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        Server::spawn(self)
    }
}

/// A point owned (claimed) by a job, waiting for or holding a lease.
struct OwnedPoint {
    key: String,
    point: Point,
    job: u64,
}

/// An outstanding assignment.
struct Lease {
    key: String,
    point: Point,
    job: u64,
    worker: u64,
    deadline: Instant,
}

/// A registered worker connection.
struct Worker {
    name: String,
    tx: Sender<FromServer>,
    leases: HashSet<u64>,
    alive: bool,
}

/// One submitted job.
struct Job {
    run: String,
    /// Grid points, duplicates included (sweep semantics).
    total: usize,
    /// Grid points whose key this job claimed (it executes them).
    computed: usize,
    /// `total - computed`: store hits, peer-shared keys, intra-job dupes.
    cached: usize,
    /// Distinct keys not yet in the store.
    remaining: usize,
    /// Keys this job claimed, in grid order — the write sequence.
    owned: Vec<String>,
    /// Cursor into `owned`: everything before it has been written.
    written: usize,
    /// Completed-but-not-yet-writable records (waiting on predecessors).
    results: HashMap<String, PointRecord>,
    /// The manifest to write on completion (prepared at submit).
    manifest: RunManifest,
    done: bool,
}

/// Commands for the single writer thread.
// A `Record` carries a whole point record, but each value only crosses the
// channel once on its way to disk — boxing would buy nothing (the same
// call the protocol enums make).
#[allow(clippy::large_enum_variant)]
enum WriterCmd {
    Record(PointRecord),
    Manifest(RunManifest),
    Stop,
}

#[derive(Default)]
struct State {
    next_job: u64,
    next_lease: u64,
    next_worker: u64,
    jobs: HashMap<u64, Job>,
    workers: HashMap<u64, Worker>,
    /// Workers that announced idleness, in announcement order (JIQ).
    idle: VecDeque<u64>,
    /// Claimed points with no idle worker at claim time, FIFO; reassigned
    /// points re-enter at the front.
    pending: VecDeque<OwnedPoint>,
    leases: HashMap<u64, Lease>,
    /// Keys with a completed record in the store (seeded at startup,
    /// updated as results land).
    stored: HashSet<String>,
    /// Jobs waiting on each in-flight key (owners subscribe too).
    subscribers: HashMap<String, Vec<u64>>,
    /// Socket clones for shutdown.
    conns: Vec<TcpStream>,
}

struct Shared {
    cfg: ServeConfig,
    store: ResultStore,
    inflight: InflightRegistry,
    state: Mutex<State>,
    writer_tx: Sender<WriterCmd>,
    stop_tx: Sender<()>,
    running: AtomicBool,
    /// Results accepted (lease validated) — the at-most-once counter.
    results_accepted: AtomicU64,
}

impl Shared {
    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.cfg.quiet {
            eprintln!("[serve] {msg}");
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`shutdown`](ServerHandle::shutdown) (tests) or
/// [`wait`](ServerHandle::wait) (the CLI, which blocks until a client sends
/// [`ToServer::Shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop_rx: channel::Receiver<()>,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

struct Server;

impl Server {
    fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let store = ResultStore::open(&cfg.store_dir)?;
        let stored: HashSet<String> = store.load()?.into_keys().collect();
        let mut writer = store.writer()?;
        let (writer_tx, writer_rx) = channel::unbounded::<WriterCmd>();
        let (stop_tx, stop_rx) = channel::unbounded::<()>();

        let shared = Arc::new(Shared {
            cfg,
            store,
            inflight: InflightRegistry::new(),
            state: Mutex::new(State {
                stored,
                ..State::default()
            }),
            writer_tx,
            stop_tx,
            running: AtomicBool::new(true),
            results_accepted: AtomicU64::new(0),
        });
        shared.log(format_args!(
            "listening on {addr}, store {}, lease {:?}",
            shared.store.root().display(),
            shared.cfg.lease
        ));

        // The single writer: every store.jsonl byte the service ever writes
        // goes through this thread, in the order commands were enqueued
        // under the state lock.
        let writer_shared = Arc::clone(&shared);
        let writer_thread = std::thread::spawn(move || {
            for cmd in writer_rx.iter() {
                let outcome = match cmd {
                    WriterCmd::Record(rec) => writer.append_one(&rec),
                    WriterCmd::Manifest(m) => writer_shared.store.write_manifest(&m),
                    WriterCmd::Stop => break,
                };
                if let Err(e) = outcome {
                    writer_shared.log(format_args!("store write failed: {e}"));
                }
            }
        });

        // The lease reaper: expired leases mean a dead or wedged worker.
        let reaper_shared = Arc::clone(&shared);
        let reaper_thread = std::thread::spawn(move || {
            while reaper_shared.running.load(Ordering::SeqCst) {
                std::thread::sleep(reaper_shared.cfg.reap_every);
                reap_expired(&reaper_shared);
            }
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));

        Ok(ServerHandle {
            addr,
            shared,
            stop_rx,
            accept: Some(accept_thread),
            writer: Some(writer_thread),
            reaper: Some(reaper_thread),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves `:0` ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Results accepted so far across all jobs — each increments exactly
    /// once per distinct executed point (the at-most-once counter the e2e
    /// test asserts on).
    #[must_use]
    pub fn results_accepted(&self) -> u64 {
        self.shared.results_accepted.load(Ordering::SeqCst)
    }

    /// Blocks until a client requests shutdown, then cleans up.
    ///
    /// # Errors
    ///
    /// Propagates cleanup I/O failures.
    pub fn wait(mut self) -> io::Result<()> {
        let _ = self.stop_rx.recv();
        self.cleanup()
    }

    /// Stops the server now: closes the listener and every connection,
    /// notifies workers with [`FromServer::Close`], and joins all threads.
    ///
    /// # Errors
    ///
    /// Propagates cleanup I/O failures.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.cleanup()
    }

    fn cleanup(&mut self) -> io::Result<()> {
        self.shared.running.store(false, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let _ = self.shared.writer_tx.send(WriterCmd::Stop);
        if let Some(t) = self.writer.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper.take() {
            let _ = t.join();
        }
        self.shared.log(format_args!("shut down"));
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut children: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Ok(clone) = stream.try_clone() {
            shared.state.lock().conns.push(clone);
        }
        let conn_shared = Arc::clone(shared);
        children.push(std::thread::spawn(move || {
            connection_loop(stream, &conn_shared);
        }));
    }
    // Clean farewell: Close to every worker (their push threads flush it
    // and hang up), then force every socket shut so readers unblock.
    {
        let mut state = shared.state.lock();
        for worker in state.workers.values() {
            let _ = worker.tx.send(FromServer::Close);
        }
        state.workers.clear();
        state.idle.clear();
        for conn in state.conns.drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
    for child in children {
        let _ = child.join();
    }
}

/// Per-connection reader. The first frame fixes the role: `Register` makes
/// this a worker connection (pushes flow through its channel/writer thread),
/// anything else a strict request/reply client connection.
fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut worker_id: Option<u64> = None;
    let mut push_thread: Option<JoinHandle<()>> = None;

    // EOF or a corrupt stream ends the loop: hang up.
    while let Ok(msg) = read_frame::<ToServer, _>(&mut stream) {
        match (msg, worker_id) {
            (ToServer::Register { name, protocol }, None) => {
                if protocol != PROTOCOL_VERSION {
                    let _ = write_frame(
                        &mut stream,
                        &FromServer::Error {
                            message: format!(
                                "protocol {protocol} != server protocol {PROTOCOL_VERSION}"
                            ),
                        },
                    );
                    break;
                }
                let Ok(sock) = stream.try_clone() else { break };
                let (wid, rx) = {
                    let mut state = shared.state.lock();
                    let wid = state.next_worker;
                    state.next_worker += 1;
                    let (tx, rx) = channel::unbounded();
                    state.workers.insert(
                        wid,
                        Worker {
                            name: name.clone(),
                            tx,
                            leases: HashSet::new(),
                            alive: true,
                        },
                    );
                    (wid, rx)
                };
                // The push half: the only thread that writes this socket.
                push_thread = Some(std::thread::spawn(move || {
                    let mut sock = sock;
                    while let Ok(m) = rx.recv() {
                        let closing = matches!(m, FromServer::Close);
                        if write_frame(&mut sock, &m).is_err() || closing {
                            break;
                        }
                    }
                    let _ = sock.shutdown(std::net::Shutdown::Both);
                }));
                worker_id = Some(wid);
                shared.log(format_args!("worker {wid} ({name}) registered"));
                let state = shared.state.lock();
                if let Some(w) = state.workers.get(&wid) {
                    let _ = w.tx.send(FromServer::Registered { worker: wid });
                }
            }
            (ToServer::Idle, Some(wid)) => handle_idle(shared, wid),
            (ToServer::Heartbeat, Some(wid)) => handle_heartbeat(shared, wid),
            (ToServer::Result { lease, record }, Some(wid)) => {
                handle_result(shared, wid, lease, record);
            }
            (
                ToServer::Submit {
                    spec_json,
                    run_name,
                },
                None,
            ) => {
                let reply = match handle_submit(shared, &spec_json, run_name.as_deref()) {
                    Ok((job, view)) => FromServer::Accepted { job, view },
                    Err(message) => FromServer::Error { message },
                };
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
            (ToServer::Status { job }, None) => {
                let reply = match shared.state.lock().jobs.get(&job) {
                    Some(j) => FromServer::JobStatus(job_view(shared, job, j)),
                    None => FromServer::Error {
                        message: format!("no job {job}"),
                    },
                };
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
            (ToServer::Shutdown, None) => {
                let _ = write_frame(&mut stream, &FromServer::ShuttingDown);
                shared.log(format_args!("shutdown requested"));
                let _ = shared.stop_tx.send(());
                break;
            }
            (other, _) => {
                // Role violation (e.g. a worker submitting, a client
                // heartbeating): refuse and hang up.
                shared.log(format_args!("protocol misuse: {other:?}"));
                break;
            }
        }
    }

    if let Some(wid) = worker_id {
        worker_death(shared, wid);
    }
    if let Some(t) = push_thread {
        let _ = t.join();
    }
}

/// Builds the externally visible view of a job. Caller holds the lock.
fn job_view(shared: &Shared, id: u64, job: &Job) -> JobView {
    let summary = job.done.then(|| SweepSummary {
        run: job.run.clone(),
        total: job.total,
        computed: job.computed,
        cached: job.cached,
        cache_hit_pct: if job.total == 0 {
            0.0
        } else {
            100.0 * job.cached as f64 / job.total as f64
        },
        store: shared.store.root().display().to_string(),
    });
    JobView {
        job: id,
        run: job.run.clone(),
        done: job.done,
        total: job.total,
        computed: job.computed,
        cached: job.cached,
        remaining: job.remaining,
        summary,
    }
}

/// Decomposes a submitted spec: dedups every grid key against the store and
/// the in-flight registry, claims the remainder, and dispatches claimed
/// points to idle workers.
fn handle_submit(
    shared: &Arc<Shared>,
    spec_json: &str,
    run_name: Option<&str>,
) -> Result<(u64, JobView), String> {
    let spec = ExperimentSpec::from_json(spec_json)?;
    let run = run_name.map_or_else(|| spec.name.clone(), str::to_string);
    validate_run_name(&run)?;
    let points = spec.expand()?;
    let keys = Point::keys(&points);

    let manifest = RunManifest {
        name: run.clone(),
        description: spec.description.clone(),
        points: points
            .iter()
            .zip(&keys)
            .map(|(p, key)| ManifestEntry {
                key: key.clone(),
                scheme: p.scheme.label(),
                benchmark: p.benchmark().to_string(),
                instructions: p.instructions,
                machine: p.machine_label.clone(),
            })
            .collect(),
    };

    let mut state = shared.state.lock();
    let job_id = state.next_job;
    state.next_job += 1;

    let mut owned: Vec<String> = Vec::new();
    let mut to_dispatch: Vec<OwnedPoint> = Vec::new();
    let mut owned_set: HashSet<&str> = HashSet::new();
    let mut seen: HashSet<&str> = HashSet::new();
    let mut remaining = 0usize;
    for (point, key) in points.iter().zip(&keys) {
        if !seen.insert(key) || state.stored.contains(key) {
            continue; // intra-job duplicate, or already persisted
        }
        remaining += 1;
        state
            .subscribers
            .entry(key.clone())
            .or_default()
            .push(job_id);
        if shared.inflight.claim(key) {
            // This job executes the point (and writes its record).
            owned_set.insert(key);
            owned.push(key.clone());
            to_dispatch.push(OwnedPoint {
                key: key.clone(),
                point: point.clone(),
                job: job_id,
            });
        }
        // else: a peer job is computing it — the subscription above is the
        // share; nothing to schedule.
    }

    // Sweep counting semantics: every grid position whose key this job
    // computes counts as computed (duplicates follow their key); the rest —
    // store hits, peer-shared keys — are the cache/dedup win.
    let computed = keys
        .iter()
        .filter(|k| owned_set.contains(k.as_str()))
        .count();
    let total = points.len();
    let job = Job {
        run: run.clone(),
        total,
        computed,
        cached: total - computed,
        remaining,
        owned,
        written: 0,
        results: HashMap::new(),
        manifest,
        done: false,
    };
    shared.log(format_args!(
        "job {job_id} `{run}`: {total} points, {computed} to compute, {} cached/shared, {} scheduled",
        total - computed,
        to_dispatch.len()
    ));
    state.jobs.insert(job_id, job);
    if remaining == 0 {
        finalize_job(shared, &mut state, job_id);
    }
    for owned_point in to_dispatch {
        dispatch(shared, &mut state, owned_point);
    }
    let view = job_view(shared, job_id, &state.jobs[&job_id]);
    Ok((job_id, view))
}

/// Hands a claimed point to an idle worker, or queues it. Caller holds the
/// lock.
fn dispatch(shared: &Shared, state: &mut State, owned: OwnedPoint) {
    while let Some(wid) = state.idle.pop_front() {
        if try_assign(shared, state, wid, &owned) {
            return;
        }
    }
    state.pending.push_back(owned);
}

/// As [`dispatch`], but a reassigned point goes to the *front* of the
/// queue — a crashed point should not wait out the whole backlog again.
fn redispatch(shared: &Shared, state: &mut State, owned: OwnedPoint) {
    while let Some(wid) = state.idle.pop_front() {
        if try_assign(shared, state, wid, &owned) {
            return;
        }
    }
    state.pending.push_front(owned);
}

/// Leases `owned` to worker `wid` if it is alive. Caller holds the lock.
fn try_assign(shared: &Shared, state: &mut State, wid: u64, owned: &OwnedPoint) -> bool {
    let lease_id = state.next_lease;
    let deadline = Instant::now() + shared.cfg.lease;
    let Some(worker) = state.workers.get_mut(&wid) else {
        return false;
    };
    if !worker.alive {
        return false;
    }
    let sent = worker
        .tx
        .send(FromServer::Assign {
            lease: lease_id,
            point: owned.point.clone(),
        })
        .is_ok();
    if !sent {
        return false;
    }
    worker.leases.insert(lease_id);
    state.next_lease += 1;
    state.leases.insert(
        lease_id,
        Lease {
            key: owned.key.clone(),
            point: owned.point.clone(),
            job: owned.job,
            worker: wid,
            deadline,
        },
    );
    true
}

/// A worker announced idleness: assign the oldest pending point, or park
/// the worker in the idle queue.
fn handle_idle(shared: &Arc<Shared>, wid: u64) {
    let mut state = shared.state.lock();
    if let Some(owned) = state.pending.pop_front() {
        if try_assign(shared, &mut state, wid, &owned) {
            return;
        }
        state.pending.push_front(owned);
        return;
    }
    if !state.idle.contains(&wid) {
        state.idle.push_back(wid);
    }
}

/// Extends the deadlines of every lease the worker holds.
fn handle_heartbeat(shared: &Arc<Shared>, wid: u64) {
    let mut state = shared.state.lock();
    let deadline = Instant::now() + shared.cfg.lease;
    let lease_ids: Vec<u64> = state
        .workers
        .get(&wid)
        .map(|w| w.leases.iter().copied().collect())
        .unwrap_or_default();
    for id in lease_ids {
        if let Some(lease) = state.leases.get_mut(&id) {
            lease.deadline = deadline;
        }
    }
}

/// A worker delivered a result. Accepted only when the lease is still
/// live and owned by that worker — a result for an expired-and-reassigned
/// lease is dropped, preserving at-most-once recording.
fn handle_result(shared: &Arc<Shared>, wid: u64, lease_id: u64, record: PointRecord) {
    let mut state = shared.state.lock();
    let valid = state.leases.get(&lease_id).is_some_and(|l| l.worker == wid);
    if !valid {
        shared.log(format_args!(
            "worker {wid}: stale result for lease {lease_id}, dropped"
        ));
        return;
    }
    let lease = state.leases.remove(&lease_id).expect("validated above");
    if let Some(worker) = state.workers.get_mut(&wid) {
        worker.leases.remove(&lease_id);
    }
    if record.key != lease.key {
        // A worker computing the wrong point is a protocol bug; requeue the
        // lease rather than corrupt the store.
        shared.log(format_args!(
            "worker {wid}: lease {lease_id} returned key {} != {}, requeued",
            record.key, lease.key
        ));
        let owned = OwnedPoint {
            key: lease.key,
            point: lease.point,
            job: lease.job,
        };
        redispatch(shared, &mut state, owned);
        return;
    }
    shared.results_accepted.fetch_add(1, Ordering::SeqCst);
    complete_key(shared, &mut state, &lease.key, lease.job, record);
}

/// Marks a key complete: releases the in-flight claim, releases the owner
/// job's record to the writer in grid order, and advances every subscribed
/// job (finalizing those that drain).
fn complete_key(shared: &Shared, state: &mut State, key: &str, owner: u64, record: PointRecord) {
    state.stored.insert(key.to_string());
    shared.inflight.release(key);

    if let Some(job) = state.jobs.get_mut(&owner) {
        job.results.insert(key.to_string(), record);
        // Grid-order release: a record reaches the writer only once every
        // predecessor of its job has.
        while job.written < job.owned.len() {
            let next = &job.owned[job.written];
            let Some(rec) = job.results.remove(next) else {
                break;
            };
            let _ = shared.writer_tx.send(WriterCmd::Record(rec));
            job.written += 1;
        }
    }

    let waiters = state.subscribers.remove(key).unwrap_or_default();
    for job_id in waiters {
        let Some(job) = state.jobs.get_mut(&job_id) else {
            continue;
        };
        job.remaining = job.remaining.saturating_sub(1);
        if job.remaining == 0 && !job.done {
            finalize_job(shared, state, job_id);
        }
    }
}

/// Completes a job: writes its manifest through the writer thread and
/// freezes its summary. Caller holds the lock.
fn finalize_job(shared: &Shared, state: &mut State, job_id: u64) {
    let Some(job) = state.jobs.get_mut(&job_id) else {
        return;
    };
    job.done = true;
    let _ = shared
        .writer_tx
        .send(WriterCmd::Manifest(job.manifest.clone()));
    shared.log(format_args!(
        "job {job_id} `{}` complete: {} computed, {} cached",
        job.run, job.computed, job.cached
    ));
}

/// A worker died (socket EOF, channel failure, or expired lease): remove it
/// everywhere and reassign every lease it held.
fn worker_death(shared: &Arc<Shared>, wid: u64) {
    let mut state = shared.state.lock();
    let Some(worker) = state.workers.get_mut(&wid) else {
        return;
    };
    if !worker.alive {
        return;
    }
    worker.alive = false;
    let name = worker.name.clone();
    let lease_ids: Vec<u64> = worker.leases.drain().collect();
    state.idle.retain(|w| *w != wid);
    state.workers.remove(&wid);
    if !lease_ids.is_empty() {
        shared.log(format_args!(
            "worker {wid} ({name}) lost with {} lease(s), reassigning",
            lease_ids.len()
        ));
    } else {
        shared.log(format_args!("worker {wid} ({name}) disconnected"));
    }
    for id in lease_ids {
        if let Some(lease) = state.leases.remove(&id) {
            let owned = OwnedPoint {
                key: lease.key,
                point: lease.point,
                job: lease.job,
            };
            redispatch(shared, &mut state, owned);
        }
    }
}

/// Reaper pass: any expired lease marks its whole worker dead (no
/// heartbeat means no liveness), which requeues everything it held.
fn reap_expired(shared: &Arc<Shared>) {
    let now = Instant::now();
    let dead: Vec<u64> = {
        let state = shared.state.lock();
        state
            .leases
            .values()
            .filter(|l| l.deadline < now)
            .map(|l| l.worker)
            .collect()
    };
    for wid in dead {
        shared.log(format_args!("lease expired on worker {wid}"));
        worker_death(shared, wid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::worker::{run_worker, WorkerOptions};
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("diq-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const SPEC: &str = r#"{"name":"serve-unit","instructions":[300],
        "schemes":["MB_distr"],"workloads":["gzip","swim"]}"#;

    fn test_config(store: PathBuf) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: store,
            lease: Duration::from_secs(5),
            reap_every: Duration::from_millis(25),
            quiet: true,
        }
    }

    #[test]
    fn submit_executes_then_resubmit_is_all_cache_hits() {
        let dir = tmp_dir("basic");
        let handle = test_config(dir.clone()).spawn().unwrap();
        let addr = handle.addr().to_string();

        let worker = std::thread::spawn({
            let addr = addr.clone();
            move || run_worker(&addr, &WorkerOptions::default()).unwrap()
        });

        let mut client = Client::connect(&addr).unwrap();
        let summary = client
            .submit_and_watch(SPEC, None, Duration::from_millis(20))
            .unwrap();
        assert_eq!((summary.total, summary.computed, summary.cached), (2, 2, 0));

        // Same spec again: nothing executes, everything is a store hit.
        let summary2 = client
            .submit_and_watch(SPEC, None, Duration::from_millis(20))
            .unwrap();
        assert_eq!((summary2.computed, summary2.cached), (0, 2));
        assert!((summary2.cache_hit_pct - 100.0).abs() < 1e-12);
        assert_eq!(handle.results_accepted(), 2);

        client.shutdown_server().unwrap();
        handle.wait().unwrap();
        assert_eq!(worker.join().unwrap().executed, 2);

        // The manifest landed like a sweep's would.
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.load().unwrap().len(), 2);
        assert_eq!(store.read_manifest("serve-unit").unwrap().points.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_reassigns_to_a_live_worker() {
        let dir = tmp_dir("lease");
        let mut cfg = test_config(dir.clone());
        cfg.lease = Duration::from_millis(150);
        let handle = cfg.spawn().unwrap();
        let addr = handle.addr().to_string();

        // A "worker" that takes one lease and silently wedges: registers,
        // announces idle, receives its assignment, then never heartbeats.
        let mut wedged = TcpStream::connect(&addr).unwrap();
        write_frame(
            &mut wedged,
            &ToServer::Register {
                name: "wedged".into(),
                protocol: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        let FromServer::Registered { .. } = read_frame(&mut wedged).unwrap() else {
            panic!("expected Registered");
        };
        write_frame(&mut wedged, &ToServer::Idle).unwrap();

        let mut client = Client::connect(&addr).unwrap();
        let (_, view) = client.submit(SPEC, None).unwrap();
        assert_eq!(view.computed, 2);

        // The wedged worker got one point...
        let FromServer::Assign { .. } = read_frame(&mut wedged).unwrap() else {
            panic!("expected Assign");
        };

        // ...then a live worker joins and must end up computing all of it
        // once the wedged lease expires.
        let worker = std::thread::spawn({
            let addr = addr.clone();
            move || run_worker(&addr, &WorkerOptions::default()).unwrap()
        });
        let summary = client.watch(view.job, Duration::from_millis(20)).unwrap();
        assert_eq!(summary.computed, 2);
        assert_eq!(handle.results_accepted(), 2, "each point recorded once");

        drop(wedged);
        client.shutdown_server().unwrap();
        handle.wait().unwrap();
        assert_eq!(worker.join().unwrap().executed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_submissions_are_refused_with_reasons() {
        let dir = tmp_dir("refuse");
        let handle = test_config(dir.clone()).spawn().unwrap();
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();

        let err = client.submit("not json", None).unwrap_err().to_string();
        assert!(err.contains("spec parse"), "{err}");
        let err = client
            .submit(SPEC, Some("../escape"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("run name"), "{err}");
        let err = client.status(999).unwrap_err().to_string();
        assert!(err.contains("no job"), "{err}");

        // The connection survives refusals: a good submit still works.
        let (_, view) = client.submit(SPEC, Some("ok-name")).unwrap();
        assert_eq!(view.total, 2);

        client.shutdown_server().unwrap();
        handle.wait().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
