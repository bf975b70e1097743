//! The sweep service's I/O shell: sockets, threads, the clock and the
//! store, around the scheduling [`Core`].
//!
//! # Architecture
//!
//! ```text
//!  submit clients ──┐                   ┌── workers
//!                   ▼                   ▼
//!            accept thread ── per connection, a reader thread: decodes
//!                   │         frames into events, expands submitted specs
//!                   │                   │ Input (mpsc)
//!                   ▼                   ▼
//!            event loop thread: owns the Core, the clock, store.jsonl
//!            and runs/; sleeps until the next lease deadline (Tick)
//!                   │ frames (one outbox channel per connection)
//!                   ▼
//!            per connection, a push thread: the only writer of its
//!            socket (replies, Registered, Assign, Close)
//! ```
//!
//! Every scheduling decision, and every invariant it keeps (at-most-once
//! recording, join-the-idle-queue dispatch, grid-ordered records with
//! manifests last), lives in [`crate::core`]. The shell adds two of its
//! own:
//!
//! * **Single writer.** The event loop carries out every action, so it is
//!   the only code that appends to `store.jsonl` or writes a manifest, and
//!   the only code that reads the clock.
//! * **No socket stalls the loop.** The loop never reads or writes a
//!   socket: it hands frames to unbounded per-connection channels. A client
//!   or worker that stops reading blocks only its own push thread. The one
//!   socket call the loop makes is the hang-up on a worker whose lease
//!   expired, a `shutdown`, which does not block; it ends that
//!   connection's reader and push threads, and the worker sees EOF.

use crate::core::{Action, Core, Event};
use crate::protocol::{read_frame, write_frame, FromServer, ToServer, PROTOCOL_VERSION};
use diq_exp::{validate_run_name, ExperimentSpec, Point, ResultStore, RunManifest, StoreWriter};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
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
    /// Suppress per-event stderr logging.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: PathBuf::from("results"),
            lease: Duration::from_secs(30),
            quiet: false,
        }
    }
}

impl ServeConfig {
    /// Binds, seeds the stored-key index from the store, and starts the
    /// accept thread and the event loop.
    ///
    /// # Errors
    ///
    /// Bind and store-open failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.addr)?;
        let addr = listener.local_addr()?;
        let store = ResultStore::open(&self.store_dir)?;
        let stored = store.load()?.into_keys().collect();
        let writer = store.writer()?;
        let (root, quiet) = (store.root().to_path_buf(), self.quiet);
        let line = format!(
            "listening on {addr}, store {}, lease {:?}",
            root.display(),
            self.lease
        );
        log(quiet, line);
        let core = Core::new(self.lease, root, stored);
        let (inbox, inputs) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel();
        let event_loop =
            std::thread::spawn(move || event_loop(core, &inputs, &store, writer, quiet));
        let accept = std::thread::spawn({
            let inbox = inbox.clone();
            move || accept_loop(&listener, &inbox, &stop_tx, quiet)
        });
        Ok(ServerHandle {
            addr,
            inbox,
            stop_rx,
            event_loop,
            accept,
        })
    }
}

/// What reaches the event loop.
// An `Event` can carry a whole record, but each input crosses the channel
// once — boxing would buy nothing (the same call the protocol enums make).
#[allow(clippy::large_enum_variant)]
enum Input {
    /// A new connection, the outbox its frames go to, and a handle to hang
    /// it up with.
    Open(u64, Sender<FromServer>, TcpStream),
    Core(Event),
    /// [`ServerHandle::results_accepted`]'s question.
    ResultsAccepted(Sender<u64>),
    /// Say farewell to the workers and end the loop.
    Stop,
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`shutdown`](ServerHandle::shutdown) (tests) or
/// [`wait`](ServerHandle::wait) (the CLI, which blocks until a client sends
/// [`ToServer::Shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    inbox: Sender<Input>,
    stop_rx: Receiver<()>,
    event_loop: JoinHandle<()>,
    accept: JoinHandle<()>,
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
        let (reply, answer) = mpsc::channel();
        let _ = self.inbox.send(Input::ResultsAccepted(reply));
        answer
            .recv()
            .expect("the event loop runs until the handle stops it")
    }

    /// Blocks until a client requests shutdown, then cleans up.
    ///
    /// # Errors
    ///
    /// Propagates cleanup I/O failures.
    pub fn wait(self) -> io::Result<()> {
        let _ = self.stop_rx.recv();
        self.shutdown()
    }

    /// Stops the server now: notifies workers with [`FromServer::Close`],
    /// closes the listener and every connection, and joins all threads.
    ///
    /// # Errors
    ///
    /// Propagates cleanup I/O failures.
    pub fn shutdown(self) -> io::Result<()> {
        let _ = self.inbox.send(Input::Stop);
        let _ = self.event_loop.join();
        // The loop has dropped its receiver, so the accept thread stops at
        // its next connection: make one.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        Ok(())
    }
}

fn log(quiet: bool, msg: impl std::fmt::Display) {
    if !quiet {
        eprintln!("[serve] {msg}");
    }
}

/// The one thread that owns the core: it turns inputs and lease deadlines
/// into events and carries out every action the core returns.
fn event_loop(
    mut core: Core,
    inputs: &Receiver<Input>,
    store: &ResultStore,
    mut writer: StoreWriter,
    quiet: bool,
) {
    let start = Instant::now();
    let mut outboxes: HashMap<u64, (Sender<FromServer>, TcpStream)> = HashMap::new();
    loop {
        let input = match core.next_deadline() {
            Some(deadline) => inputs.recv_timeout(deadline.saturating_sub(start.elapsed())),
            None => inputs.recv().map_err(RecvTimeoutError::from),
        };
        let event = match input {
            Ok(Input::Core(event)) => {
                if let Event::Disconnect { conn } = event {
                    outboxes.remove(&conn);
                }
                event
            }
            Err(RecvTimeoutError::Timeout) => Event::Tick,
            Ok(Input::Open(conn, outbox, sock)) => {
                outboxes.insert(conn, (outbox, sock));
                continue;
            }
            Ok(Input::ResultsAccepted(reply)) => {
                let _ = reply.send(core.results_accepted());
                continue;
            }
            Ok(Input::Stop) | Err(RecvTimeoutError::Disconnected) => break,
        };
        for action in core.handle(start.elapsed(), event) {
            let written = match action {
                Action::WriteRecord(record) => writer.append_one(&record),
                Action::WriteManifest(manifest) => store.write_manifest(&manifest),
                Action::Send { conn, frame } => {
                    if let Some((outbox, _)) = outboxes.get(&conn) {
                        let _ = outbox.send(frame);
                    }
                    continue;
                }
                // The connection's reader thread holds an outbox too, so
                // dropping ours alone would leave the worker connected:
                // shut the socket, which ends the reader, then the push
                // thread, and shows the worker EOF.
                Action::DropWorker { conn } => {
                    if let Some((_, sock)) = outboxes.remove(&conn) {
                        let _ = sock.shutdown(Shutdown::Both);
                    }
                    continue;
                }
                Action::Log(line) => {
                    log(quiet, line);
                    continue;
                }
            };
            if let Err(e) = written {
                log(quiet, format_args!("store write failed: {e}"));
            }
        }
    }
    // Clean farewell: each worker's push thread flushes Close and hangs up.
    for (outbox, _) in outboxes.values() {
        let _ = outbox.send(FromServer::Close);
    }
    log(quiet, "shut down");
}

/// `stop` tells [`ServerHandle::wait`] that a client asked for shutdown.
fn accept_loop(listener: &TcpListener, inbox: &Sender<Input>, stop: &Sender<()>, quiet: bool) {
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for (conn, stream) in (0..).zip(listener.incoming()) {
        let Ok(stream) = stream else { continue };
        let (Ok(shut), Ok(sock), Ok(hangup)) =
            (stream.try_clone(), stream.try_clone(), stream.try_clone())
        else {
            continue;
        };
        let (outbox, frames) = mpsc::channel();
        if inbox
            .send(Input::Open(conn, outbox.clone(), hangup))
            .is_err()
        {
            break; // the event loop has stopped
        }
        let (inbox, stop) = (inbox.clone(), stop.clone());
        let push = std::thread::spawn(move || push_loop(sock, &frames));
        let reader = std::thread::spawn(move || {
            connection_loop(conn, stream, &inbox, &outbox, &stop, quiet);
            drop(outbox);
            let _ = push.join();
        });
        // A finished connection's clone is its last open descriptor.
        conns.retain(|(_, reader)| !reader.is_finished());
        conns.push((shut, reader));
    }
    // Force every socket shut so blocked readers and push threads return.
    for (sock, reader) in conns {
        let _ = sock.shutdown(Shutdown::Both);
        let _ = reader.join();
    }
}

/// Per-connection reader: decodes frames into core events until the
/// connection ends. The first frame fixes the role: `Register` makes this a
/// worker connection, anything else a strict request/reply client
/// connection. Frames back, the core's and this thread's alike, go through
/// `outbox` to the connection's push thread, the only writer of its socket.
fn connection_loop(
    conn: u64,
    mut stream: TcpStream,
    inbox: &Sender<Input>,
    outbox: &Sender<FromServer>,
    stop: &Sender<()>,
    quiet: bool,
) {
    let _ = stream.set_nodelay(true);
    let mut worker = false;
    // EOF or a corrupt stream ends the loop: hang up.
    while let Ok(msg) = read_frame::<ToServer, _>(&mut stream) {
        let event = match (msg, worker) {
            (ToServer::Register { name, protocol }, false) => {
                if protocol != PROTOCOL_VERSION {
                    let message =
                        format!("protocol {protocol} != server protocol {PROTOCOL_VERSION}");
                    let _ = outbox.send(FromServer::Error { message });
                    break;
                }
                worker = true;
                Event::Hello { conn, name }
            }
            (ToServer::Idle, true) => Event::Idle { conn },
            (ToServer::Heartbeat, true) => Event::Heartbeat { conn },
            (ToServer::Result { lease, record }, true) => Event::Result {
                conn,
                lease,
                record,
            },
            (
                ToServer::Submit {
                    spec_json,
                    run_name,
                },
                false,
            ) => match expand(conn, &spec_json, run_name.as_deref()) {
                Ok(event) => event,
                Err(message) => {
                    let _ = outbox.send(FromServer::Error { message });
                    continue;
                }
            },
            (ToServer::Status { job }, false) => Event::Status { conn, job },
            (ToServer::Shutdown, false) => {
                let _ = outbox.send(FromServer::ShuttingDown);
                log(quiet, "shutdown requested");
                let _ = stop.send(());
                break;
            }
            (other, _) => {
                // Role violation (e.g. a worker submitting, a client
                // heartbeating): refuse and hang up.
                log(quiet, format_args!("protocol misuse: {other:?}"));
                break;
            }
        };
        if inbox.send(Input::Core(event)).is_err() {
            break;
        }
    }
    let _ = inbox.send(Input::Core(Event::Disconnect { conn }));
}

/// A connection's writer: forwards its outbox until both the event loop and
/// the reader have dropped it, or the server says Close; then hangs up.
fn push_loop(mut sock: TcpStream, frames: &Receiver<FromServer>) {
    while let Ok(frame) = frames.recv() {
        let closing = matches!(frame, FromServer::Close);
        if write_frame(&mut sock, &frame).is_err() || closing {
            break;
        }
    }
    let _ = sock.shutdown(Shutdown::Both);
}

/// Parses and expands a submitted spec into the core's `Submit` event.
/// Expansion happens here, off the event loop, because a `trace:` workload
/// reads its file.
fn expand(conn: u64, spec_json: &str, run_name: Option<&str>) -> Result<Event, String> {
    let spec = ExperimentSpec::from_json(spec_json)?;
    let run = run_name.map_or_else(|| spec.name.clone(), str::to_string);
    validate_run_name(&run)?;
    let points = spec.expand()?;
    let keys = Point::keys(&points);
    let manifest = RunManifest::from_points(run, spec.description, &points, &keys);
    Ok(Event::Submit {
        conn,
        points,
        keys,
        manifest,
    })
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

    /// Two submissions of one grid before any worker exists: the first
    /// claims every key, the second subscribes to them, and one worker
    /// then computes each point once for both jobs.
    #[test]
    fn concurrent_submissions_share_one_execution() {
        let dir = tmp_dir("share");
        let handle = test_config(dir.clone()).spawn().unwrap();
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();

        let (first, view) = client.submit(SPEC, None).unwrap();
        assert_eq!((view.computed, view.cached), (2, 0));
        let (second, view) = client.submit(SPEC, None).unwrap();
        assert_eq!((view.computed, view.cached), (0, 2));

        let worker = std::thread::spawn({
            let addr = addr.clone();
            move || run_worker(&addr, &WorkerOptions::default()).unwrap()
        });
        let poll = Duration::from_millis(20);
        assert_eq!(client.watch(first, poll).unwrap().computed, 2);
        assert_eq!(client.watch(second, poll).unwrap().cached, 2);
        assert_eq!(handle.results_accepted(), 2, "each point executed once");

        client.shutdown_server().unwrap();
        handle.wait().unwrap();
        assert_eq!(worker.join().unwrap().executed, 2);
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

        // The server has hung up on the wedged worker: its next read ends
        // at once instead of waiting for an Assign that never comes.
        wedged
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match read_frame::<FromServer, _>(&mut wedged) {
            Ok(FromServer::Close) => {}
            Err(e)
                if !matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            other => panic!("expired worker still connected: {other:?}"),
        }

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
