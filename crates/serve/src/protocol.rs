//! The wire protocol shared by `diq serve`, `diq worker` and `diq submit`.
//!
//! Frames are length-delimited JSON: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON, one message per frame. JSON
//! keeps the protocol debuggable (`nc` + a hex dump reads it) and reuses the
//! store's serialization for [`Point`]s and [`PointRecord`]s, so a record
//! that crossed the wire is byte-identical to one computed in-process.
//!
//! Every connection speaks [`ToServer`] frames at the server and receives
//! [`FromServer`] frames back. The first message decides the connection's
//! role: [`ToServer::Register`] makes it a worker connection (the server
//! pushes [`FromServer::Assign`] frames to it), anything else makes it a
//! client connection (strict request/reply).

use diq_exp::{Point, PointRecord, SweepSummary};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Protocol version, checked at worker registration so a stale worker
/// binary fails loudly instead of mis-parsing frames.
///
/// v2: points carry a `WorkloadSource` (generated spec or trace reference)
/// instead of a bare `WorkloadSpec`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame payload (16 MiB). A length prefix beyond this is
/// treated as a corrupt stream, not an allocation request.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Everything a connection can say to the server.
// Variant sizes vary widely (a `Result` carries a whole record), but each
// value exists only briefly on its way to/from the serializer — boxing the
// big variants would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ToServer {
    /// Client: submit an experiment spec as a job. The server expands the
    /// grid, dedups against the store and against points already in flight,
    /// and schedules only the remainder.
    Submit {
        /// The `ExperimentSpec` JSON text (parsed and validated server-side).
        spec_json: String,
        /// Optional run-name override (the manifest key), as `sweep --name`.
        run_name: Option<String>,
    },
    /// Client: poll one job's progress.
    Status {
        /// Job id from [`FromServer::Accepted`].
        job: u64,
    },
    /// Client: ask the server to shut down cleanly (used by tests and CI).
    Shutdown,
    /// Worker: join the farm under a display name.
    Register {
        /// Worker display name (diagnostics only).
        name: String,
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Worker: announce idleness — the join-the-idle-queue signal. The
    /// server only ever assigns work in response to this announcement, so
    /// work never queues behind a busy worker.
    Idle,
    /// Worker: liveness signal while computing; extends the deadlines of
    /// the worker's active leases.
    Heartbeat,
    /// Worker: a finished point. `lease` names the assignment being
    /// fulfilled; a stale lease (expired and reassigned) is dropped by the
    /// server rather than double-recorded.
    Result {
        /// The lease being fulfilled.
        lease: u64,
        /// The computed record, exactly as the store will persist it.
        record: PointRecord,
    },
}

/// One job's externally visible progress.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id.
    pub job: u64,
    /// Run name (manifest key).
    pub run: String,
    /// Whether every grid point is available in the store.
    pub done: bool,
    /// Grid points in the job (duplicates included, as in a sweep).
    pub total: usize,
    /// Grid points this job executes itself (its claimed keys).
    pub computed: usize,
    /// Grid points served by the store or by another job's in-flight
    /// execution — the dedup win.
    pub cached: usize,
    /// Distinct keys still being computed (by this job or a peer).
    pub remaining: usize,
    /// The sweep-shaped summary, present once `done`.
    pub summary: Option<SweepSummary>,
}

/// Everything the server can say back.
#[allow(clippy::large_enum_variant)] // same rationale as `ToServer`
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FromServer {
    /// Reply to [`ToServer::Submit`]: the job was accepted and decomposed.
    Accepted {
        /// Job id for [`ToServer::Status`] polls.
        job: u64,
        /// Immediate progress snapshot (already-done jobs report
        /// `done: true` here, with the summary).
        view: JobView,
    },
    /// Reply to [`ToServer::Status`].
    JobStatus(JobView),
    /// Reply to [`ToServer::Register`].
    Registered {
        /// The server-assigned worker id (diagnostics only).
        worker: u64,
    },
    /// Push to an idle worker: compute this point under a lease.
    Assign {
        /// Lease id to echo in [`ToServer::Result`].
        lease: u64,
        /// The fully-resolved point to execute.
        point: Point,
    },
    /// Push to workers on clean server shutdown: finish nothing further and
    /// disconnect.
    Close,
    /// Reply to [`ToServer::Shutdown`].
    ShuttingDown,
    /// Any request that could not be honored, with the reason.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// Writes one length-delimited JSON frame.
///
/// # Errors
///
/// Socket I/O failures, or a message over [`MAX_FRAME_BYTES`].
pub fn write_frame<T: Serialize, W: Write>(w: &mut W, msg: &T) -> io::Result<()> {
    let json = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode frame: {e}")))?;
    let payload = json.as_bytes();
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES} cap",
                payload.len()
            ),
        ));
    }
    // One buffer, one write: the length prefix and payload always land
    // together, so a reader never blocks holding half a header.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-delimited JSON frame.
///
/// # Errors
///
/// Socket I/O failures (including clean EOF, surfaced as
/// [`io::ErrorKind::UnexpectedEof`]), oversized frames, and malformed JSON.
pub fn read_frame<T: Deserialize, R: Read>(r: &mut R) -> io::Result<T> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES} cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("decode frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_core::SchedulerConfig;
    use diq_exp::PointResult;
    use diq_isa::ProcessorConfig;
    use diq_workload::suite;

    fn sample_point() -> Point {
        Point::new(
            ProcessorConfig::hpca2004(),
            SchedulerConfig::mb_distr(),
            suite::by_name("gzip").unwrap(),
            400,
        )
    }

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        assert_eq!(
            u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize,
            buf.len() - 4
        );
        let back: T = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn frames_round_trip_every_message_shape() {
        round_trip(&ToServer::Submit {
            spec_json: r#"{"name":"x"}"#.into(),
            run_name: Some("override".into()),
        });
        round_trip(&ToServer::Status { job: 3 });
        round_trip(&ToServer::Shutdown);
        round_trip(&ToServer::Register {
            name: "w0".into(),
            protocol: PROTOCOL_VERSION,
        });
        round_trip(&ToServer::Idle);
        round_trip(&ToServer::Heartbeat);

        let point = sample_point();
        let record = PointRecord {
            key: point.key(),
            result: PointResult::from_stats(&point, &point.execute()),
        };
        round_trip(&ToServer::Result {
            lease: 17,
            record: record.clone(),
        });
        round_trip(&FromServer::Assign { lease: 17, point });
        round_trip(&FromServer::Close);
        round_trip(&FromServer::Error {
            message: "nope".into(),
        });
        round_trip(&FromServer::JobStatus(JobView {
            job: 1,
            run: "r".into(),
            done: false,
            total: 8,
            computed: 5,
            cached: 3,
            remaining: 2,
            summary: None,
        }));
    }

    #[test]
    fn assigned_points_rebuild_the_same_store_key() {
        // The dedup invariant rides on this: the worker-side key of a wire
        // point equals the server-side key of the original.
        let point = sample_point();
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &FromServer::Assign {
                lease: 1,
                point: point.clone(),
            },
        )
        .unwrap();
        let FromServer::Assign { point: back, .. } = read_frame(&mut buf.as_slice()).unwrap()
        else {
            panic!("wrong frame")
        };
        assert_eq!(back.key(), point.key());
        assert_eq!(back, point);
    }

    #[test]
    fn oversized_and_truncated_frames_error_cleanly() {
        // A corrupt length prefix must not trigger a giant allocation.
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_be_bytes());
        bad.extend_from_slice(b"junk");
        let err = read_frame::<ToServer, _>(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A frame cut mid-payload is an UnexpectedEof, not a hang or panic.
        let mut buf = Vec::new();
        write_frame(&mut buf, &ToServer::Idle).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_frame::<ToServer, _>(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn deeply_nested_frames_are_rejected_without_crashing() {
        // Well under the frame cap, yet deep enough to overflow the stack
        // of a parser that recursed without a limit.
        let payload = vec![b'['; 1 << 20];
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let err = read_frame::<ToServer, _>(&mut frame.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}
