//! The worker half of the farm: connect, announce idleness, compute leases.
//!
//! A worker is deliberately stateless — it holds no queue and no store
//! handle. It registers, says [`Idle`](crate::protocol::ToServer::Idle),
//! executes whatever single point it is assigned, streams the record back
//! under its lease, and says `Idle` again. All dedup, ordering and
//! persistence live server-side, so killing a worker at any instant loses at
//! most the lease it was computing (which the server reassigns on expiry).

use crate::protocol::{read_frame, write_frame, FromServer, ToServer, PROTOCOL_VERSION};
use diq_exp::{PointRecord, PointResult};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// Worker tuning.
pub struct WorkerOptions {
    /// Display name reported at registration (diagnostics only).
    pub name: String,
    /// Heartbeat period while connected; must be comfortably under the
    /// server's lease deadline.
    pub heartbeat: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: format!("worker-{}", std::process::id()),
            heartbeat: Duration::from_secs(1),
        }
    }
}

/// What a worker did before the server closed the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerReport {
    /// Points executed (and delivered) by this worker.
    pub executed: usize,
}

/// Runs one worker against the server at `addr` until the server closes the
/// connection (clean [`FromServer::Close`] or socket EOF).
///
/// The socket is shared by two writers — the main loop (results, idleness)
/// and the heartbeat thread — through a mutex, so frames never interleave.
///
/// # Errors
///
/// Connection setup failures and protocol violations. A server that simply
/// goes away while the worker is *idle* is a clean exit — the worker held
/// nothing. Losing the connection **mid-point** is an error: the worker
/// computed a result it could not deliver (its lease has likely expired and
/// been reassigned), and a zero exit here would let smoke tests green-wash
/// a crashed farm. The same applies when the heartbeat thread dies while a
/// point is executing — the lease stopped being renewed long before the
/// result was ready.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> io::Result<WorkerReport> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let writer = Arc::new(Mutex::new(stream.try_clone()?));

    send(
        &writer,
        &ToServer::Register {
            name: opts.name.clone(),
            protocol: PROTOCOL_VERSION,
        },
    )?;
    match read_frame::<FromServer, _>(&mut stream)? {
        FromServer::Registered { .. } => {}
        FromServer::Error { message } => {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, message));
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Registered, got {other:?}"),
            ));
        }
    }

    // The heartbeat thread shares the write half; it stops when the channel
    // disconnects (we drop `stop_tx` on the way out) or the socket dies —
    // and flags its death so the main loop knows the lease stopped being
    // renewed while it was busy computing.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let hb_writer = Arc::clone(&writer);
    let hb_period = opts.heartbeat;
    let hb_dead = Arc::new(AtomicBool::new(false));
    let hb_dead_flag = Arc::clone(&hb_dead);
    let heartbeat = std::thread::spawn(move || {
        while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(hb_period) {
            if send(&hb_writer, &ToServer::Heartbeat).is_err() {
                hb_dead_flag.store(true, Ordering::Release);
                break;
            }
        }
    });

    let mut executed = 0usize;
    let outcome = match send(&writer, &ToServer::Idle) {
        Err(e) => Err(e),
        Ok(()) => loop {
            match read_frame::<FromServer, _>(&mut stream) {
                Ok(FromServer::Assign { lease, point }) => {
                    let record = PointRecord {
                        key: point.key(),
                        result: PointResult::from_stats(&point, &point.execute()),
                    };
                    executed += 1;
                    if hb_dead.load(Ordering::Acquire) {
                        break Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "heartbeat thread died while a point was executing; \
                             the lease has likely expired",
                        ));
                    }
                    // Result then Idle: the server sees the completion before
                    // the availability, so progress counters never run ahead.
                    if let Err(e) = send(&writer, &ToServer::Result { lease, record }) {
                        break Err(io::Error::new(
                            e.kind(),
                            format!("computed a point but could not deliver it: {e}"),
                        ));
                    }
                    if send(&writer, &ToServer::Idle).is_err() {
                        // The result above was delivered; losing the
                        // connection while re-announcing idleness loses
                        // nothing.
                        break Ok(());
                    }
                }
                Ok(FromServer::Close) => break Ok(()),
                Ok(_) => {} // unexpected but harmless push; ignore
                // A vanished server is a clean retirement for an idle worker.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => break Ok(()),
                Err(e) => break Err(e),
            }
        },
    };

    // Stop and join the heartbeat BEFORE tearing the socket down (every
    // exit path funnels through here — no early returns above): a
    // heartbeat mid-write into a socket we are closing turns a clean
    // disconnect into a spurious ConnectionReset on the server side.
    drop(stop_tx); // disconnects the heartbeat channel → thread exits
    let _ = heartbeat.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    outcome.map(|()| WorkerReport { executed })
}

/// Writes one frame under the socket lock. The lock keeps no data of its
/// own, only the order of whole frames, so a poisoned lock is still safe
/// to take.
fn send(writer: &Mutex<TcpStream>, msg: &ToServer) -> io::Result<()> {
    write_frame(
        &mut *writer.lock().unwrap_or_else(PoisonError::into_inner),
        msg,
    )
}
