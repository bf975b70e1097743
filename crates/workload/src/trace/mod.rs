//! The `.diqt` on-disk instruction-trace format.
//!
//! A `.diqt` file stores a dynamic instruction stream so runs can replay
//! recorded (or externally ingested) traces instead of generating them. The
//! format is built for the simulator's access pattern — strictly forward
//! streaming with occasional short seeks back to a mispredicted branch:
//!
//! ```text
//! magic "DIQT" | u32 version
//! blocks:   [u32 raw_len][u32 comp_len][u64 checksum][comp bytes]   × N
//! footer:   u32 meta_len | meta JSON | index: [u64 offset][u64 first] × N
//! trailer:  u64 footer_offset | u32 block_count | magic "TQIX"
//! ```
//!
//! * Each block encodes [`BLOCK_INSTRS`] instructions (the last may be
//!   short) as delta/varint records compressed with the vendored
//!   [`lzblock`] codec. Delta state resets at block boundaries, so
//!   any block decodes independently — that is what makes checkpoint/
//!   restore by (block, offset) possible.
//! * `checksum` is FNV-1a over the *raw* (encoded, uncompressed) block
//!   bytes; corruption is caught before instructions reach the pipeline.
//! * The footer's meta JSON ([`TraceMeta`]) records the content hash and
//!   the maximum raw/compressed block sizes, so a reader allocates its two
//!   block buffers exactly once at open and never again.
//! * The trailer is fixed-size and lives at the end: opening a trace reads
//!   the 8-byte head, the 16-byte trailer and the footer — O(1) in the
//!   trace length.
//!
//! * Identity is the content hash over the raw bytes, never the
//!   compressed ones. [`lzblock::compress`] may pick other matches in
//!   another build, so two files of one stream can differ byte for byte
//!   while their content hash and block checksums agree. Store keys carry
//!   only the content hash.
//!
//! [`TraceWriter`] records, [`TraceReader`] streams in O(1) memory, and
//! [`ingest_text`] converts a simple external text/CSV schema into `.diqt`.
//!
//! [`record`] runs in two overlapped stages. A scoped producer thread
//! drains the instruction source into [`BLOCK_INSTRS`]-sized batches; the
//! calling thread encodes, compresses, hashes and writes each batch, with
//! the content hash and the block checksum folded in one pass over the
//! raw bytes. The file is byte for byte what a serial [`TraceWriter::push`]
//! loop writes.

mod encode;
mod ingest;
mod reader;
mod writer;

pub use ingest::{ingest_text, IngestReport};
pub use reader::{SynthState, TracePos, TraceReader};
pub use writer::{record, TraceWriter};

use serde::{Deserialize, Serialize};
use std::fmt;

/// Leading file magic.
pub const MAGIC: [u8; 4] = *b"DIQT";
/// Trailing file magic (end of the fixed-size trailer).
pub const TRAILER_MAGIC: [u8; 4] = *b"TQIX";
/// Format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Instructions per block. Blocks are the checkpoint and compression
/// granularity: small enough that a restore re-decode is cheap, large
/// enough that the codec sees real redundancy.
pub const BLOCK_INSTRS: u32 = 4096;
/// Size of the fixed trailer at the end of the file.
pub const TRAILER_BYTES: u64 = 16;
/// Size of a per-block header (`raw_len`, `comp_len`, `checksum`).
pub const BLOCK_HEADER_BYTES: u64 = 16;

/// Trace metadata, stored as JSON in the footer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Workload name the trace was recorded from (or given at ingest).
    pub name: String,
    /// Seed of the recording generator (0 for ingested traces).
    pub seed: u64,
    /// Human-readable provenance (source URI or ingest file name).
    pub source: String,
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Number of blocks.
    pub blocks: u64,
    /// Instructions per block when recorded (always [`BLOCK_INSTRS`] today;
    /// stored so a future version can change it without breaking readers).
    pub block_instrs: u32,
    /// FNV-1a hash over all raw encoded block bytes — the trace's content
    /// identity, independent of file name and compression.
    pub content: u64,
    /// Largest raw (encoded, uncompressed) block in bytes.
    pub max_raw_block: u32,
    /// Largest compressed block in bytes.
    pub max_comp_block: u32,
}

/// Any way reading or writing a trace can fail.
///
/// `Clone` because the streaming reader retains the first error it hits:
/// the pipeline's `fill` has no error channel, so the reader ends the
/// stream and [`TraceReader::error`] reports what happened after the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Underlying file I/O failed (rendered message; the live
    /// `std::io::Error` is not cloneable).
    Io(String),
    /// The file is not a `.diqt` trace, or its structure is inconsistent
    /// (bad magic, unsupported version, truncated footer, bad offsets).
    Format(String),
    /// A block failed its checksum or did not decode.
    Corrupt {
        /// Block number (0-based).
        block: u64,
        /// What went wrong.
        detail: String,
    },
    /// An instruction could not be encoded (malformed per-class fields) or
    /// an ingested line did not parse.
    Invalid(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O: {e}"),
            TraceError::Format(m) => write!(f, "trace format: {m}"),
            TraceError::Corrupt { block, detail } => {
                write!(f, "trace corrupt in block {block}: {detail}")
            }
            TraceError::Invalid(m) => write!(f, "invalid instruction: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e.to_string())
    }
}

/// FNV-1a folding used for block checksums and the content hash; the
/// experiment store's point keys (`diq_exp::fnv1a64`) fold from
/// [`FNV_OFFSET`] with it too.
#[must_use]
pub fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds `bytes` into two independent FNV-1a chains in one pass:
/// `(fnv1a64(a, bytes), fnv1a64(b, bytes))`. Each chain is a serial
/// multiply per byte, so running two side by side costs about what one
/// costs; the writer uses it for the content hash and the block checksum.
#[must_use]
pub(crate) fn fnv1a64_pair(a: u64, b: u64, bytes: &[u8]) -> (u64, u64) {
    bytes.iter().fold((a, b), |(a, b), &x| {
        let x = u64::from(x);
        (
            (a ^ x).wrapping_mul(0x0000_0100_0000_01b3),
            (b ^ x).wrapping_mul(0x0000_0100_0000_01b3),
        )
    })
}

/// FNV-1a offset basis — the starting value for [`fnv1a64`] chains.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Reads just the metadata of a trace file (O(1) in trace length).
///
/// # Errors
///
/// Anything [`TraceReader::open`] reports: I/O failures or a malformed
/// file.
pub fn read_meta(path: &str) -> Result<TraceMeta, TraceError> {
    Ok(TraceReader::open(path)?.meta().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paired_fold_is_two_independent_chains() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        for (a, b) in [
            (FNV_OFFSET, FNV_OFFSET),
            (0x1234, FNV_OFFSET),
            (0, u64::MAX),
        ] {
            assert_eq!(
                fnv1a64_pair(a, b, &bytes),
                (fnv1a64(a, &bytes), fnv1a64(b, &bytes))
            );
        }
    }
}
