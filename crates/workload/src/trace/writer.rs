//! Recording `.diqt` traces.

use super::encode::{encode_inst, DeltaState};
use super::{
    fnv1a64_pair, TraceError, TraceMeta, BLOCK_INSTRS, FNV_OFFSET, FORMAT_VERSION, MAGIC,
    TRAILER_MAGIC,
};
use diq_isa::Inst;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};

/// Streams instructions into a `.diqt` file.
///
/// Push instructions with [`TraceWriter::push`], then call
/// [`TraceWriter::finish`] to write the footer — a dropped writer leaves a
/// truncated file that readers reject cleanly. Memory use is one block
/// (raw + compressed), independent of trace length.
pub struct TraceWriter {
    out: BufWriter<File>,
    name: String,
    seed: u64,
    source: String,
    raw: Vec<u8>,
    comp: Vec<u8>,
    block_in: u32,
    state: DeltaState,
    index: Vec<(u64, u64)>,
    offset: u64,
    content: u64,
    instructions: u64,
    max_raw: u32,
    max_comp: u32,
}

impl TraceWriter {
    /// Creates a trace file and writes its head.
    ///
    /// `name` is the workload name replays will report, `seed` the
    /// recording generator's seed (0 when not applicable), and `source` a
    /// free-form provenance string (e.g. the workload source URI).
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        seed: u64,
        source: &str,
    ) -> Result<Self, TraceError> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(TraceWriter {
            out,
            name: name.to_string(),
            seed,
            source: source.to_string(),
            raw: Vec::new(),
            comp: Vec::new(),
            block_in: 0,
            state: DeltaState::default(),
            index: Vec::new(),
            offset: 8,
            content: FNV_OFFSET,
            instructions: 0,
            max_raw: 0,
            max_comp: 0,
        })
    }

    /// Appends one instruction.
    ///
    /// # Errors
    ///
    /// An instruction violating its class invariants
    /// ([`TraceError::Invalid`]), or file I/O failures when a full block
    /// flushes.
    pub fn push(&mut self, inst: &Inst) -> Result<(), TraceError> {
        encode_inst(&mut self.raw, inst, &mut self.state).map_err(TraceError::Invalid)?;
        self.instructions += 1;
        self.block_in += 1;
        if self.block_in == BLOCK_INSTRS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        if self.block_in == 0 {
            return Ok(());
        }
        let first = self.instructions - u64::from(self.block_in);
        self.index.push((self.offset, first));
        let (content, checksum) = fnv1a64_pair(self.content, FNV_OFFSET, &self.raw);
        self.content = content;

        self.comp.clear();
        lzblock::compress(&self.raw, &mut self.comp);
        let raw_len = self.raw.len() as u32;
        let comp_len = self.comp.len() as u32;
        self.max_raw = self.max_raw.max(raw_len);
        self.max_comp = self.max_comp.max(comp_len);

        self.out.write_all(&raw_len.to_le_bytes())?;
        self.out.write_all(&comp_len.to_le_bytes())?;
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.write_all(&self.comp)?;
        self.offset += 16 + u64::from(comp_len);

        self.raw.clear();
        self.block_in = 0;
        self.state = DeltaState::default();
        Ok(())
    }

    /// Flushes the last block, writes footer and trailer, and returns the
    /// recorded metadata.
    ///
    /// # Errors
    ///
    /// File write failures.
    pub fn finish(mut self) -> Result<TraceMeta, TraceError> {
        self.flush_block()?;
        let meta = TraceMeta {
            name: self.name.clone(),
            seed: self.seed,
            source: self.source.clone(),
            instructions: self.instructions,
            blocks: self.index.len() as u64,
            block_instrs: BLOCK_INSTRS,
            content: self.content,
            max_raw_block: self.max_raw,
            max_comp_block: self.max_comp,
        };
        let footer_off = self.offset;
        let meta_json = serde_json::to_string(&meta)
            .map_err(|e| TraceError::Format(format!("encode meta: {e}")))?;
        self.out
            .write_all(&(meta_json.len() as u32).to_le_bytes())?;
        self.out.write_all(meta_json.as_bytes())?;
        for &(off, first) in &self.index {
            self.out.write_all(&off.to_le_bytes())?;
            self.out.write_all(&first.to_le_bytes())?;
        }
        self.out.write_all(&footer_off.to_le_bytes())?;
        self.out
            .write_all(&(self.index.len() as u32).to_le_bytes())?;
        self.out.write_all(&TRAILER_MAGIC)?;
        self.out.flush()?;
        Ok(meta)
    }
}

/// Records `n` instructions from an iterator into a `.diqt` file.
///
/// Used by `diq trace record` and the tests. Recording runs in two
/// overlapped stages: a scoped producer thread drains `insts` into
/// [`BLOCK_INSTRS`]-sized batches, and the calling thread encodes,
/// compresses, hashes and writes each batch while the next one is
/// generated. At most two full batches wait between the stages, and
/// drained buffers go back to the producer, so memory stays a few blocks
/// whatever `n` is. The file is byte for byte what a serial
/// [`TraceWriter::push`] loop writes.
///
/// # Errors
///
/// Anything [`TraceWriter`] reports. Recording fewer than `n` instructions
/// (iterator exhausted) is not an error; the metadata reports the actual
/// count.
pub fn record<I>(
    path: impl AsRef<Path>,
    name: &str,
    seed: u64,
    source: &str,
    insts: I,
    n: u64,
) -> Result<TraceMeta, TraceError>
where
    I: IntoIterator<Item = Inst>,
    I::IntoIter: Send,
{
    let mut w = TraceWriter::create(path, name, seed, source)?;
    let insts = insts.into_iter().take(n as usize);
    let (full_tx, full) = sync_channel(2);
    let (spent, spent_rx) = channel();
    std::thread::scope(|s| {
        s.spawn(move || produce(insts, &full_tx, &spent_rx));
        // `full` moves into `consume`, so an error drops it before the
        // scope joins the producer: a blocked `send` then fails instead of
        // waiting forever.
        consume(&mut w, full, &spent)
    })?;
    w.finish()
}

/// Producer stage: cuts `insts` into block-sized batches, reusing the
/// buffers the consumer sends back. Stops at the end of `insts` or once
/// the consumer has gone.
fn produce(
    mut insts: impl Iterator<Item = Inst>,
    full: &SyncSender<Vec<Inst>>,
    spent: &Receiver<Vec<Inst>>,
) {
    let block = BLOCK_INSTRS as usize;
    loop {
        let mut batch = spent
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(block));
        batch.clear();
        batch.extend(insts.by_ref().take(block));
        let last = batch.len() < block;
        if batch.is_empty() || full.send(batch).is_err() || last {
            return;
        }
    }
}

/// Consumer stage: pushes each batch through `w` in order and hands the
/// buffer back.
fn consume(
    w: &mut TraceWriter,
    full: Receiver<Vec<Inst>>,
    spent: &Sender<Vec<Inst>>,
) -> Result<(), TraceError> {
    for batch in full {
        for inst in &batch {
            w.push(inst)?;
        }
        // The producer may already have finished; the buffer is then freed.
        let _ = spent.send(batch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceReader;
    use crate::{profiles, suite, TraceGenerator, WorkloadSpec};
    use std::path::PathBuf;

    fn tmp_trace(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("diqt-writer-{tag}-{}.diqt", std::process::id()))
    }

    fn record_spec(tag: &str, spec: &WorkloadSpec, n: u64) -> (PathBuf, TraceMeta) {
        let path = tmp_trace(tag);
        let meta = record(
            &path,
            &spec.name,
            spec.seed,
            "test",
            TraceGenerator::new(spec),
            n,
        )
        .unwrap();
        (path, meta)
    }

    /// The content hash is the trace's identity in every store key: these
    /// two pin it (the README's sample and the benchmark's replay trace),
    /// whatever the compressor picks.
    #[test]
    fn content_hashes_are_pinned() {
        let cases = [
            (
                suite::by_name("gzip").unwrap(),
                50_000,
                0xadc4_04aa_ea42_34be_u64,
            ),
            (
                profiles::resolve_profiled("gzip/stress@2").unwrap(),
                250_000,
                0x74b0_b63e_9978_0614,
            ),
        ];
        for (spec, n, content) in cases {
            let (path, meta) = record_spec("pinned", &spec, n);
            assert_eq!(meta.instructions, n);
            assert_eq!(meta.content, content, "{} at {n}", spec.name);
            TraceReader::open(&path).unwrap().verify().unwrap();
            std::fs::remove_file(&path).ok();
        }
    }

    /// The two-stage `record` writes exactly the bytes of a serial push
    /// loop, here across two full blocks and a short third.
    #[test]
    fn record_matches_a_serial_push_loop() {
        let spec = suite::by_name("mcf").unwrap();
        let n = 9_000;
        let (piped, meta) = record_spec("piped", &spec, n);
        assert_eq!(meta.blocks, 3);

        let serial = tmp_trace("serial");
        let mut w = TraceWriter::create(&serial, &spec.name, spec.seed, "test").unwrap();
        for inst in TraceGenerator::new(&spec).take(n as usize) {
            w.push(&inst).unwrap();
        }
        assert_eq!(w.finish().unwrap(), meta);
        assert_eq!(
            std::fs::read(&piped).unwrap(),
            std::fs::read(&serial).unwrap()
        );
        std::fs::remove_file(&piped).ok();
        std::fs::remove_file(&serial).ok();
    }

    /// A write error ends the recording with `TraceError::Io` while the
    /// producer still has instructions to hand over; it must not wait on
    /// a consumer that has gone.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_fails_cleanly_without_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        let recorder = std::thread::spawn(move || {
            let spec = suite::by_name("gzip").unwrap();
            let gen = TraceGenerator::new(&spec);
            tx.send(record("/dev/full", "gzip", spec.seed, "test", gen, 1 << 20))
                .unwrap();
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("recording to /dev/full hung");
        recorder.join().unwrap();
        assert!(matches!(got, Err(TraceError::Io(_))), "{got:?}");
    }
}
