//! Streaming `.diqt` reader with checkpoint/restore and wrong-path
//! synthesis.

use super::encode::{decode_inst, DeltaState};
use super::{
    fnv1a64, fnv1a64_pair, TraceError, TraceMeta, BLOCK_HEADER_BYTES, FNV_OFFSET, FORMAT_VERSION,
    MAGIC, TRAILER_BYTES, TRAILER_MAGIC,
};
use diq_isa::{ArchReg, Inst};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Wrong-path synthesizer state.
///
/// A recorded trace only knows the correct path, but wrong-path runs must
/// keep fetching *something* after a mispredicted branch. The reader
/// synthesizes deterministic filler instructions from a splitmix64 stream
/// seeded by (trace content hash, redirect PC, stream position) — the same
/// mispredict always fetches the same wrong path, so replays stay
/// reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SynthState {
    /// Next wrong-path fetch PC.
    pub pc: u64,
    /// splitmix64 RNG state.
    pub rng: u64,
}

/// A resumable position in the trace: the absolute instruction index
/// (block = index / `block_instrs`, offset = index % `block_instrs`) plus
/// the wrong-path synthesizer state when checkpointed off the recorded
/// path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TracePos {
    /// Absolute index of the next instruction to read.
    pub index: u64,
    /// Wrong-path synthesizer state, when the position is off-trace.
    pub synth: Option<SynthState>,
}

impl TracePos {
    /// The start of the recorded stream.
    #[must_use]
    pub fn start() -> Self {
        TracePos::default()
    }
}

const NO_BLOCK: u64 = u64::MAX;

/// Streams instructions from a `.diqt` file in O(1) memory.
///
/// The reader holds exactly one decoded block; both block buffers are
/// sized from the footer metadata at open, so the steady-state read loop
/// allocates nothing regardless of trace length. Restores re-decode at
/// most one block.
pub struct TraceReader {
    file: File,
    path: String,
    meta: TraceMeta,
    index_off: u64,
    footer_off: u64,
    /// Decoded (encoded-form, uncompressed) bytes of the current block.
    raw: Vec<u8>,
    /// Compressed-bytes scratch buffer.
    comp: Vec<u8>,
    /// Byte cursor into `raw` for the next instruction.
    cursor: usize,
    state: DeltaState,
    /// Current block number, or [`NO_BLOCK`].
    cur_block: u64,
    /// Absolute index of the current block's first instruction.
    block_first: u64,
    /// Instructions in the current block.
    block_len: u64,
    /// File offset of the block after the current one (sequential path).
    next_block_off: u64,
    /// Absolute index of the next instruction to return.
    next_index: u64,
    speculative: bool,
    synth: Option<SynthState>,
    error: Option<TraceError>,
    /// Correct-path instruction budget; the stream ends once `next_index`
    /// reaches it (non-speculative sources must bound themselves).
    limit: u64,
    /// Latched once the correct-path stream reports end-of-stream. Raising
    /// the limit afterwards must NOT resurrect a drained source (the run
    /// loop treats `None` as final); only an explicit [`seek`] — a
    /// deliberate reposition — re-arms the stream.
    ///
    /// [`seek`]: TraceReader::seek
    ended: bool,
}

impl TraceReader {
    /// Opens a trace, reading only head, trailer and footer — O(1) in the
    /// trace length.
    ///
    /// # Errors
    ///
    /// I/O failures, a non-`.diqt` file, an unsupported version, or an
    /// inconsistent footer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path_str = path.as_ref().display().to_string();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let head_len = 8u64;
        if file_len < head_len + TRAILER_BYTES {
            return Err(TraceError::Format(format!(
                "{path_str}: {file_len} bytes is too short for a trace file"
            )));
        }

        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if head[..4] != MAGIC {
            return Err(TraceError::Format(format!(
                "{path_str}: bad magic (not a .diqt trace)"
            )));
        }
        let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(TraceError::Format(format!(
                "{path_str}: format version {version}, this build reads {FORMAT_VERSION}"
            )));
        }

        let mut trailer = [0u8; TRAILER_BYTES as usize];
        file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        file.read_exact(&mut trailer)?;
        if trailer[12..16] != TRAILER_MAGIC {
            return Err(TraceError::Format(format!(
                "{path_str}: bad trailer magic (truncated or not a trace)"
            )));
        }
        let footer_off = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        let blocks = u64::from(u32::from_le_bytes(trailer[8..12].try_into().unwrap()));
        if footer_off < head_len || footer_off + 4 > file_len - TRAILER_BYTES {
            return Err(TraceError::Format(format!(
                "{path_str}: footer offset {footer_off} out of bounds"
            )));
        }

        file.seek(SeekFrom::Start(footer_off))?;
        let mut len4 = [0u8; 4];
        file.read_exact(&mut len4)?;
        let meta_len = u64::from(u32::from_le_bytes(len4));
        let index_off = footer_off + 4 + meta_len;
        if index_off + blocks * 16 + TRAILER_BYTES != file_len {
            return Err(TraceError::Format(format!(
                "{path_str}: footer layout inconsistent with file length"
            )));
        }
        let mut meta_json = vec![0u8; meta_len as usize];
        file.read_exact(&mut meta_json)?;
        let meta_text = std::str::from_utf8(&meta_json)
            .map_err(|e| TraceError::Format(format!("{path_str}: meta not UTF-8: {e}")))?;
        let meta: TraceMeta = serde_json::from_str(meta_text)
            .map_err(|e| TraceError::Format(format!("{path_str}: meta: {e}")))?;

        if meta.blocks != blocks {
            return Err(TraceError::Format(format!(
                "{path_str}: meta claims {} blocks, trailer {blocks}",
                meta.blocks
            )));
        }
        if meta.block_instrs == 0 {
            return Err(TraceError::Format(format!(
                "{path_str}: zero instructions per block"
            )));
        }
        let expect_blocks = meta.instructions.div_ceil(u64::from(meta.block_instrs));
        if expect_blocks != blocks {
            return Err(TraceError::Format(format!(
                "{path_str}: {} instructions need {expect_blocks} blocks, file has {blocks}",
                meta.instructions
            )));
        }

        // The only buffer allocations the reader ever makes: block size is
        // bounded by the recorded maxima, so the read loop is allocation-
        // free from here on.
        let raw = Vec::with_capacity(meta.max_raw_block as usize);
        let comp = Vec::with_capacity(meta.max_comp_block as usize);
        Ok(TraceReader {
            file,
            path: path_str,
            meta,
            index_off,
            footer_off,
            raw,
            comp,
            cursor: 0,
            state: DeltaState::default(),
            cur_block: NO_BLOCK,
            block_first: 0,
            block_len: 0,
            next_block_off: head_len,
            next_index: 0,
            speculative: false,
            synth: None,
            error: None,
            limit: u64::MAX,
            ended: false,
        })
    }

    /// The trace metadata from the footer.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The path the trace was opened from.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Whether this reader advertises wrong-path capability to the
    /// pipeline (set from the machine's speculation mode before a run).
    #[must_use]
    pub fn is_speculative(&self) -> bool {
        self.speculative
    }

    /// Enables or disables wrong-path (speculative) replay.
    pub fn set_speculative(&mut self, on: bool) {
        self.speculative = on;
    }

    /// Caps the correct-path stream at `n` instructions (wrong-path synth
    /// is not counted). Non-speculative workloads must bound themselves:
    /// the run loop drains whatever the source yields past its commit
    /// target.
    ///
    /// Changing the limit re-bounds *future* reads only. Tightening it
    /// below the current position ends the stream on the next read;
    /// loosening it after the stream has already reported end-of-stream
    /// does **not** resurrect it — a drained source stays drained until an
    /// explicit [`seek`](TraceReader::seek) repositions it.
    pub fn set_limit(&mut self, n: u64) {
        self.limit = n;
    }

    /// The first error the stream hit, if any. A reader with an error set
    /// ends its stream early; callers that care must check after a run.
    #[must_use]
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// The current position (for checkpointing). O(1), no I/O.
    #[must_use]
    pub fn pos(&self) -> TracePos {
        TracePos {
            index: self.next_index,
            synth: self.synth,
        }
    }

    /// Returns the next instruction, `None` at end of trace.
    ///
    /// # Errors
    ///
    /// I/O failures and corruption ([`TraceError::Corrupt`] on checksum or
    /// decode failures). The first error is retained (see
    /// [`TraceReader::error`]) and returned again on later calls.
    pub fn try_next(&mut self) -> Result<Option<Inst>, TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.advance() {
            Ok(x) => Ok(x),
            Err(e) => {
                self.error = Some(e.clone());
                Err(e)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<Inst>, TraceError> {
        if self.synth.is_some() {
            return Ok(Some(self.synth_next()));
        }
        if self.ended || self.next_index >= self.meta.instructions.min(self.limit) {
            self.ended = true;
            return Ok(None);
        }
        // Outside the loaded block? A range test, not a division per
        // instruction.
        if self.cur_block == NO_BLOCK
            || self.next_index < self.block_first
            || self.next_index >= self.block_first + self.block_len
        {
            let block = self.next_index / u64::from(self.meta.block_instrs);
            let off = if self.cur_block != NO_BLOCK && self.cur_block + 1 == block {
                self.next_block_off
            } else if self.cur_block == NO_BLOCK && block == 0 {
                8
            } else {
                self.index_entry(block)?
            };
            self.load_block(block, off, None)?;
        }
        let inst = decode_inst(&self.raw, &mut self.cursor, &mut self.state).map_err(|detail| {
            TraceError::Corrupt {
                block: self.cur_block,
                detail,
            }
        })?;
        self.next_index += 1;
        if self.next_index == self.block_first + self.block_len && self.cursor != self.raw.len() {
            return Err(TraceError::Corrupt {
                block: self.cur_block,
                detail: format!(
                    "{} trailing bytes after last instruction",
                    self.raw.len() - self.cursor
                ),
            });
        }
        Ok(Some(inst))
    }

    /// Seeks to a previously captured position.
    ///
    /// Within the current block this re-decodes at most `block_instrs`
    /// instructions; otherwise it reads the block's offset from the index
    /// footer (O(1)) and decodes one block. No allocation either way.
    ///
    /// # Errors
    ///
    /// I/O failures and corruption, as [`TraceReader::try_next`].
    pub fn seek(&mut self, pos: TracePos) -> Result<(), TraceError> {
        let target = pos.index.min(self.meta.instructions);
        self.synth = pos.synth;
        // Re-arm a drained stream *before* the same-position fast path: a
        // restore to the exact index where the stream ended must still read
        // against the current budget, not stay latched shut.
        self.ended = false;
        if target == self.next_index {
            return Ok(());
        }
        if target == self.meta.instructions {
            // End of stream: no block state needed.
            self.next_index = target;
            return Ok(());
        }
        let bi = u64::from(self.meta.block_instrs);
        let block = target / bi;
        let skip = if block == self.cur_block && target >= self.next_index {
            // Forward within the loaded block: decode from the cursor.
            target - self.next_index
        } else {
            if block == self.cur_block {
                // Backward within the loaded block: restart its decode.
                self.cursor = 0;
                self.state = DeltaState::default();
            } else {
                let off = self.index_entry(block)?;
                self.load_block(block, off, None)?;
            }
            target - self.block_first
        };
        for _ in 0..skip {
            decode_inst(&self.raw, &mut self.cursor, &mut self.state).map_err(|detail| {
                TraceError::Corrupt {
                    block: self.cur_block,
                    detail,
                }
            })?;
        }
        self.next_index = target;
        Ok(())
    }

    /// Redirects the stream to a synthesized wrong path starting at `pc`.
    ///
    /// The stream returns to the recorded trace on the next
    /// [`TraceReader::seek`] to an on-trace position (which is how the
    /// pipeline recovers from the mispredict that sent us here).
    pub fn enter_wrong_path(&mut self, pc: u64) {
        self.synth = Some(SynthState {
            pc,
            rng: self.meta.content
                ^ pc.rotate_left(17)
                ^ self.next_index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
    }

    fn synth_next(&mut self) -> Inst {
        let s = self.synth.as_mut().expect("synth active");
        // splitmix64 step.
        s.rng = s.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let r = z ^ (z >> 31);

        let pc = s.pc;
        let ri = |n: u64| ArchReg::int(8 + (n % 8) as u8);
        let rf = |n: u64| ArchReg::fp(8 + (n % 8) as u8);
        let inst = match r % 100 {
            0..=54 => {
                s.pc = pc.wrapping_add(4);
                Inst::int_alu(ri(r >> 8), ri(r >> 16), ri(r >> 24))
            }
            55..=69 => {
                s.pc = pc.wrapping_add(4);
                let addr = 0x1000_0000 + ((r >> 16) & 0x000f_ffff & !7);
                Inst::load(ri(r >> 8), ri(r >> 12), addr, 8)
            }
            70..=77 => {
                s.pc = pc.wrapping_add(4);
                let addr = 0x1000_0000 + ((r >> 16) & 0x000f_ffff & !7);
                Inst::store(ri(r >> 8), ri(r >> 12), addr, 8)
            }
            78..=89 => {
                s.pc = pc.wrapping_add(4);
                Inst::fp_add(rf(r >> 8), rf(r >> 16), rf(r >> 24))
            }
            _ => {
                // A branch somewhere nearby; wrong-path fetch follows it.
                let span = ((r >> 24) % 128) as i64 - 64;
                let target = pc.wrapping_add(4).wrapping_add((span * 4) as u64);
                let taken = r & (1 << 40) != 0;
                s.pc = if taken { target } else { pc.wrapping_add(4) };
                Inst::branch(ri(r >> 8), taken, target)
            }
        };
        inst.at(pc)
    }

    fn index_entry(&mut self, block: u64) -> Result<u64, TraceError> {
        let mut entry = [0u8; 16];
        self.file
            .seek(SeekFrom::Start(self.index_off + block * 16))?;
        self.file.read_exact(&mut entry)?;
        let off = u64::from_le_bytes(entry[..8].try_into().unwrap());
        let first = u64::from_le_bytes(entry[8..16].try_into().unwrap());
        if first != block * u64::from(self.meta.block_instrs) {
            return Err(TraceError::Format(format!(
                "{}: index entry {block} claims first instruction {first}",
                self.path
            )));
        }
        if off < 8 || off + BLOCK_HEADER_BYTES > self.footer_off {
            return Err(TraceError::Format(format!(
                "{}: index entry {block} offset {off} out of bounds",
                self.path
            )));
        }
        Ok(off)
    }

    /// Reads, decompresses and checksums block `block` at `off`. With
    /// `content`, the same pass over the raw bytes also folds them into
    /// that content-hash chain (`verify`); replay passes `None`.
    fn load_block(
        &mut self,
        block: u64,
        off: u64,
        content: Option<&mut u64>,
    ) -> Result<(), TraceError> {
        let mut hdr = [0u8; BLOCK_HEADER_BYTES as usize];
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut hdr)?;
        let raw_len = u32::from_le_bytes(hdr[..4].try_into().unwrap());
        let comp_len = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        let checksum = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        if raw_len > self.meta.max_raw_block || comp_len > self.meta.max_comp_block {
            return Err(TraceError::Corrupt {
                block,
                detail: format!("block header sizes {raw_len}/{comp_len} exceed recorded maxima"),
            });
        }
        if off + BLOCK_HEADER_BYTES + u64::from(comp_len) > self.footer_off {
            return Err(TraceError::Corrupt {
                block,
                detail: "block extends past the footer".into(),
            });
        }
        self.comp.resize(comp_len as usize, 0);
        self.file.read_exact(&mut self.comp)?;
        self.raw.clear();
        lzblock::decompress(&self.comp, raw_len as usize, &mut self.raw).map_err(|e| {
            TraceError::Corrupt {
                block,
                detail: e.to_string(),
            }
        })?;
        let sum = match content {
            Some(chain) => {
                let (sum, chained) = fnv1a64_pair(FNV_OFFSET, *chain, &self.raw);
                *chain = chained;
                sum
            }
            None => fnv1a64(FNV_OFFSET, &self.raw),
        };
        if sum != checksum {
            return Err(TraceError::Corrupt {
                block,
                detail: "checksum mismatch".into(),
            });
        }
        let bi = u64::from(self.meta.block_instrs);
        self.cur_block = block;
        self.block_first = block * bi;
        self.block_len = bi.min(self.meta.instructions - self.block_first);
        self.next_block_off = off + BLOCK_HEADER_BYTES + u64::from(comp_len);
        self.cursor = 0;
        self.state = DeltaState::default();
        Ok(())
    }

    /// Fully scans the trace: every block's checksum, every instruction's
    /// decode, and the footer's content hash. Restores the prior position.
    ///
    /// # Errors
    ///
    /// The first inconsistency found, as a [`TraceError`].
    pub fn verify(&mut self) -> Result<(), TraceError> {
        let saved = self.pos();
        let mut content = FNV_OFFSET;
        let mut off = 8u64;
        let mut counted = 0u64;
        for block in 0..self.meta.blocks {
            let indexed = self.index_entry(block)?;
            if indexed != off {
                return Err(TraceError::Format(format!(
                    "{}: index entry {block} points at {indexed}, block is at {off}",
                    self.path
                )));
            }
            self.load_block(block, off, Some(&mut content))?;
            for _ in 0..self.block_len {
                decode_inst(&self.raw, &mut self.cursor, &mut self.state)
                    .map_err(|detail| TraceError::Corrupt { block, detail })?;
                counted += 1;
            }
            if self.cursor != self.raw.len() {
                return Err(TraceError::Corrupt {
                    block,
                    detail: "trailing bytes after last instruction".into(),
                });
            }
            off = self.next_block_off;
        }
        if counted != self.meta.instructions {
            return Err(TraceError::Format(format!(
                "{}: decoded {counted} instructions, meta claims {}",
                self.path, self.meta.instructions
            )));
        }
        if content != self.meta.content {
            return Err(TraceError::Format(format!(
                "{}: content hash mismatch (file edited in place?)",
                self.path
            )));
        }
        // The scan left block/cursor state mid-file; rebuild it.
        self.cur_block = NO_BLOCK;
        self.next_index = 0;
        self.seek(saved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::writer::record;
    use crate::{suite, TraceGenerator};
    use std::path::PathBuf;

    fn tmp_trace(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("diqt-reader-{tag}-{}.diqt", std::process::id()))
    }

    fn record_workload(tag: &str, name: &str, n: u64) -> (PathBuf, TraceMeta) {
        let path = tmp_trace(tag);
        let spec = suite::by_name(name).unwrap();
        let meta = record(
            &path,
            name,
            spec.seed,
            "test",
            TraceGenerator::new(&spec),
            n,
        )
        .unwrap();
        (path, meta)
    }

    fn drain(r: &mut TraceReader) -> Vec<Inst> {
        let mut v = Vec::new();
        while let Some(i) = r.try_next().unwrap() {
            v.push(i);
        }
        v
    }

    #[test]
    fn round_trips_across_block_boundaries() {
        // 10_000 instructions spans three blocks (4096 each).
        let (path, meta) = record_workload("roundtrip", "gzip", 10_000);
        assert_eq!(meta.instructions, 10_000);
        assert_eq!(meta.blocks, 3);
        let spec = suite::by_name("gzip").unwrap();
        let want = spec.generate(10_000);
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.meta(), &meta);
        assert_eq!(drain(&mut r), want);
        // Drained reader stays drained.
        assert_eq!(r.try_next().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_single_block_traces_work() {
        let (path, meta) = record_workload("tiny", "swim", 17);
        assert_eq!(meta.blocks, 1);
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(drain(&mut r).len(), 17);
        std::fs::remove_file(&path).ok();

        let path = tmp_trace("empty");
        let meta = record(&path, "none", 0, "test", std::iter::empty(), 0).unwrap();
        assert_eq!(meta.instructions, 0);
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.try_next().unwrap(), None);
        r.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seek_restores_any_position() {
        let (path, _) = record_workload("seek", "mcf", 9_000);
        let mut r = TraceReader::open(&path).unwrap();
        let all = drain(&mut r);
        // Backward into an earlier block, forward within a block, to the
        // exact end, and back to the start.
        for target in [5000u64, 5001, 4095, 4096, 0, 8999, 9000, 42] {
            r.seek(TracePos {
                index: target,
                synth: None,
            })
            .unwrap();
            let rest = drain(&mut r);
            assert_eq!(rest.len() as u64, 9000 - target, "seek {target}");
            assert_eq!(rest[..], all[target as usize..], "seek {target}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_path_is_deterministic_and_resumable() {
        let (path, _) = record_workload("wrongpath", "gzip", 6_000);
        let mut r = TraceReader::open(&path).unwrap();
        for _ in 0..100 {
            r.try_next().unwrap();
        }
        let at_branch = r.pos();
        r.enter_wrong_path(0x51_0000);
        let wp1: Vec<Inst> = (0..40).map(|_| r.try_next().unwrap().unwrap()).collect();
        for i in &wp1 {
            i.validate().unwrap();
        }
        // A checkpoint taken *on* the wrong path resumes the same stream.
        let mid = r.pos();
        assert!(mid.synth.is_some());
        let tail1: Vec<Inst> = (0..20).map(|_| r.try_next().unwrap().unwrap()).collect();
        r.seek(mid).unwrap();
        let tail2: Vec<Inst> = (0..20).map(|_| r.try_next().unwrap().unwrap()).collect();
        assert_eq!(tail1, tail2);
        // Recovery returns to the recorded stream where we left it.
        r.seek(at_branch).unwrap();
        let back = r.try_next().unwrap().unwrap();
        let mut fresh = TraceReader::open(&path).unwrap();
        fresh
            .seek(TracePos {
                index: at_branch.index,
                synth: None,
            })
            .unwrap();
        assert_eq!(back, fresh.try_next().unwrap().unwrap());
        // Same mispredict, same wrong path.
        let mut r2 = TraceReader::open(&path).unwrap();
        for _ in 0..100 {
            r2.try_next().unwrap();
        }
        r2.enter_wrong_path(0x51_0000);
        let wp2: Vec<Inst> = (0..40).map(|_| r2.try_next().unwrap().unwrap()).collect();
        assert_eq!(wp1, wp2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_passes_on_good_traces_and_catches_corruption() {
        let (path, _) = record_workload("verify", "equake", 12_000);
        let mut r = TraceReader::open(&path).unwrap();
        r.verify().unwrap();
        drop(r);

        // Flip one byte in the middle of the first block's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let mut hit_error = false;
        loop {
            match r.try_next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    assert!(matches!(e, TraceError::Corrupt { .. }), "{e}");
                    hit_error = true;
                    break;
                }
            }
        }
        assert!(hit_error, "corruption must surface as an error");
        assert!(r.error().is_some());
        drop(r);
        let mut r = TraceReader::open(&path).unwrap();
        let e = r.verify().unwrap_err();
        assert!(matches!(e, TraceError::Corrupt { block: 0, .. }), "{e}");
        drop(r);

        // Restore the payload, then change one digit of the footer's
        // recorded content hash in place: every block checksum still
        // holds, so only the content chain can catch it.
        bytes[40] ^= 0xff;
        let key = b"\"content\":";
        let at = bytes
            .windows(key.len())
            .position(|w| w == key)
            .expect("footer records the content hash")
            + key.len();
        let end = at
            + bytes[at..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
        let last = &mut bytes[end - 1];
        *last = if *last > b'0' { *last - 1 } else { *last + 1 };
        std::fs::write(&path, &bytes).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        match r.verify().unwrap_err() {
            TraceError::Format(m) => assert!(m.contains("content hash mismatch"), "{m}"),
            e => panic!("expected a content hash mismatch, got {e}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_and_junk_files_fail_to_open() {
        let (path, _) = record_workload("trunc", "gzip", 5_000);
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                TraceReader::open(&path).is_err(),
                "{keep}-byte prefix must not open"
            );
        }
        std::fs::write(&path, b"not a trace file at all, but long enough to check").unwrap();
        assert!(TraceReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
        assert!(TraceReader::open("/nonexistent/definitely.diqt").is_err());
    }

    #[test]
    fn open_reads_o1_not_the_whole_file() {
        // Not a true I/O count, but: open must succeed even when every
        // block payload is garbage, because it only touches head, trailer
        // and footer.
        let (path, _) = record_workload("lazyopen", "swim", 20_000);
        let mut bytes = std::fs::read(&path).unwrap();
        for b in bytes.iter_mut().skip(100).take(1000) {
            *b = 0xaa;
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut r = TraceReader::open(&path).expect("open is O(1) and must not see block bytes");
        assert!(r.try_next().is_err(), "reading must hit the corruption");
        std::fs::remove_file(&path).ok();
    }
}
