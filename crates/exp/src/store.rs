//! The persistent, content-addressed result store.
//!
//! Layout under the store root (default `results/`):
//!
//! ```text
//! results/
//!   store.jsonl        one PointRecord per line, append-only, keyed by the
//!                      FNV-1a hash of the full point identity
//!   runs/<name>.json   one RunManifest per named run: the grid in order,
//!                      as store keys plus human-readable coordinates
//! ```
//!
//! The store file is shared by every run: two specs that touch the same
//! (scheme, workload, count, machine) point share one record, and re-running
//! any spec recomputes only keys not yet present.

use crate::point::{Point, PointResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// One line of `store.jsonl`: a point's key and its flattened result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PointRecord {
    /// Content hash of the point identity (16 hex digits).
    pub key: String,
    /// The stored result.
    pub result: PointResult,
}

/// One grid coordinate of a run manifest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Store key of the point.
    pub key: String,
    /// Scheme label.
    pub scheme: String,
    /// Workload name.
    pub benchmark: String,
    /// Instructions simulated.
    pub instructions: u64,
    /// Machine override label.
    pub machine: String,
}

/// A named run: the expanded grid of one sweep, in grid order, referencing
/// store records by key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Run name (the spec's `name` unless overridden on the CLI).
    pub name: String,
    /// The spec's free-form description.
    #[serde(default)]
    pub description: Option<String>,
    /// The grid, in deterministic grid order.
    pub points: Vec<ManifestEntry>,
}

impl RunManifest {
    /// The manifest of run `name` over an expanded grid: `keys[i]` is the
    /// store key of `points[i]` (as [`Point::keys`] returns them).
    #[must_use]
    pub fn from_points(
        name: String,
        description: Option<String>,
        points: &[Point],
        keys: &[String],
    ) -> Self {
        RunManifest {
            name,
            description,
            points: points
                .iter()
                .zip(keys)
                .map(|(p, key)| ManifestEntry {
                    key: key.clone(),
                    scheme: p.scheme.label(),
                    benchmark: p.benchmark().to_string(),
                    instructions: p.instructions,
                    machine: p.machine_label.clone(),
                })
                .collect(),
        }
    }
}

/// A directory-backed result store.
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("runs"))?;
        Ok(ResultStore { root })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn store_file(&self) -> PathBuf {
        self.root.join("store.jsonl")
    }

    fn manifest_file(&self, run: &str) -> PathBuf {
        self.root.join("runs").join(format!("{run}.json"))
    }

    /// Loads the full store index: key → record.
    ///
    /// A *final* line with no trailing newline that fails to parse is the
    /// signature of a write torn by a kill mid-sweep; it is skipped (the
    /// point recomputes) rather than poisoning the store, whatever bytes it
    /// holds — a tear can split a multi-byte character. Corruption anywhere
    /// else, invalid UTF-8 included, is still an error.
    ///
    /// # Errors
    ///
    /// I/O failures; a corrupt non-final line is reported with its line
    /// number.
    pub fn load(&self) -> io::Result<HashMap<String, PointRecord>> {
        let path = self.store_file();
        let mut index = HashMap::new();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(index),
            Err(e) => return Err(e),
        };
        let corrupt = |line: usize, e: &dyn std::fmt::Display| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{line}: {e}", path.display()),
            )
        };
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let (body, tail) = bytes.split_at(complete);
        let text = std::str::from_utf8(body).map_err(|e| {
            let line = body[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            corrupt(line + 1, &e)
        })?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec: PointRecord = serde_json::from_str(line).map_err(|e| corrupt(i + 1, &e))?;
            index.insert(rec.key.clone(), rec);
        }
        // The unterminated tail is kept only when it is a whole record.
        if let Some(rec) = std::str::from_utf8(tail)
            .ok()
            .and_then(|line| serde_json::from_str::<PointRecord>(line).ok())
        {
            index.insert(rec.key.clone(), rec);
        }
        Ok(index)
    }

    /// Appends records to `store.jsonl`, one compact-JSON line each, in the
    /// order given. Callers pass records in grid order so the store's bytes
    /// are independent of worker-thread interleaving. Convenience wrapper
    /// over [`writer`](Self::writer) + [`StoreWriter::append`] for callers
    /// that append in bursts (the in-process sweep runner).
    ///
    /// The store assumes a **single writer at a time** — `diq sweep`
    /// processes sharing one store directory must not run concurrently (the
    /// torn-tail repair cannot tell a dead writer's debris from a live
    /// writer's in-flight line). Concurrent *readers* (`compare`, `export`)
    /// are fine. `diq serve` provides the multi-client story: every client
    /// funnels through the server's one writer thread.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn append(&self, records: &[PointRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.writer()?.append(records)
    }

    /// Opens the long-lived single-writer append handle: repairs any torn
    /// tail once, then hands out a [`StoreWriter`] that appends one complete
    /// line per write. This is the concurrent-append split `diq serve` is
    /// built on — the server owns exactly one `StoreWriter` on a dedicated
    /// thread and every result funnels through it.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn writer(&self) -> io::Result<StoreWriter> {
        self.repair_torn_tail()?;
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.store_file())?;
        Ok(StoreWriter { file })
    }

    /// Truncates an unterminated final line (the debris of a sweep killed
    /// mid-write) so appends never extend half a record.
    fn repair_torn_tail(&self) -> io::Result<()> {
        let path = self.store_file();
        if !path.exists() {
            return Ok(());
        }
        let mut f = fs::OpenOptions::new()
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let len = f.metadata()?.len();
        if len == 0 {
            return Ok(());
        }
        f.seek(SeekFrom::End(-1))?;
        let mut last = [0u8; 1];
        f.read_exact(&mut last)?;
        if last != [b'\n'] {
            let mut all = Vec::with_capacity(len as usize);
            f.seek(SeekFrom::Start(0))?;
            f.read_to_end(&mut all)?;
            let keep = all.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            f.set_len(keep as u64)?;
        }
        Ok(())
    }

    /// Reads the raw bytes of `store.jsonl` (empty when absent) — what the
    /// byte-identity tests and the serve e2e proof compare.
    ///
    /// # Errors
    ///
    /// I/O failures other than the file not existing yet.
    pub fn raw_bytes(&self) -> io::Result<Vec<u8>> {
        match fs::read(self.store_file()) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Writes (replacing) a run manifest.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_manifest(&self, manifest: &RunManifest) -> io::Result<()> {
        let mut text = serde_json::to_string_pretty(manifest).expect("manifests serialize");
        text.push('\n');
        fs::write(self.manifest_file(&manifest.name), text)
    }

    /// Reads the manifest of a named run.
    ///
    /// # Errors
    ///
    /// A missing run lists the runs that do exist.
    pub fn read_manifest(&self, run: &str) -> io::Result<RunManifest> {
        let path = self.manifest_file(run);
        if !path.exists() {
            let known = self.run_names()?.join(", ");
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no run `{run}` in {} (known runs: {})",
                    self.root.display(),
                    if known.is_empty() { "none" } else { &known }
                ),
            ));
        }
        let text = fs::read_to_string(&path)?;
        serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// The names of all runs with a manifest, sorted.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn run_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(self.root.join("runs"))? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".json") {
                names.push(stem.to_string());
            }
        }
        names.sort();
        Ok(names)
    }
}

/// The single-writer half of the store's concurrent-append split.
///
/// Crash-safety contract: each record is rendered to one `"{json}\n"` buffer
/// and lands in a **single `O_APPEND` write, flushed before the next**, so a
/// writer killed between records leaves only whole lines behind. A kill *in
/// the middle* of a write can still leave one torn trailing line — that line
/// has no terminating newline, which is exactly the signature
/// [`ResultStore::load`] skips and [`ResultStore::writer`] truncates away on
/// the next open. Either way the store never silently loses or duplicates a
/// completed record: a torn line drops (its point recomputes), a flushed
/// line survives.
pub struct StoreWriter {
    file: fs::File,
}

impl StoreWriter {
    /// Appends one record as one complete, flushed line.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn append_one(&mut self, record: &PointRecord) -> io::Result<()> {
        let mut line = serde_json::to_string(record).expect("records serialize");
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }

    /// Appends records in order, each as its own complete line.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn append(&mut self, records: &[PointRecord]) -> io::Result<()> {
        for rec in records {
            self.append_one(rec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("diq-exp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    fn record(key: &str) -> PointRecord {
        PointRecord {
            key: key.to_string(),
            result: PointResult {
                scheme: "MB_distr".into(),
                benchmark: "gzip".into(),
                instructions: 1000,
                machine: "table1".into(),
                seed: 42,
                ipc: 2.5,
                cycles: 400,
                committed: 1000,
                issued: 1000,
                dispatch_stall_cycles: 3,
                mispredict_redirects: 1,
                branch_accuracy: 0.97,
                dl1_miss_rate: 0.02,
                l2_miss_rate: 0.3,
                energy_pj: 123.5,
                energy_breakdown: vec![("fifo".into(), 100.0), ("select".into(), 23.5)],
                lsq_forwards: 7,
                checker_violations: 0,
                wrong_path_issued: 0,
                wrong_path_squashed: 0,
                replayed: 0,
                replay_cycles_lost: 0,
                resize_events: 0,
                gated_bank_cycles: 0,
            },
        }
    }

    #[test]
    fn append_load_round_trip() {
        let store = tmp_store("round-trip");
        assert!(store.load().unwrap().is_empty());
        store.append(&[record("aa"), record("bb")]).unwrap();
        store.append(&[record("cc")]).unwrap();
        let index = store.load().unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(index["bb"], record("bb"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn torn_tail_is_tolerated_and_repaired() {
        let store = tmp_store("torn");
        store.append(&[record("aa")]).unwrap();
        // Simulate a write torn by a kill mid-append: a record prefix with
        // no trailing newline.
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(store.root().join("store.jsonl"))
            .unwrap();
        use std::io::Write as _;
        f.write_all(b"{\"key\":\"bb\",\"res").unwrap();
        drop(f);

        // load() skips the torn tail instead of poisoning the store...
        let index = store.load().unwrap();
        assert_eq!(index.len(), 1);
        assert!(index.contains_key("aa"));

        // ...and the next append truncates it, so nothing concatenates.
        store.append(&[record("cc")]).unwrap();
        let index = store.load().unwrap();
        assert_eq!(index.len(), 2);
        assert!(index.contains_key("cc"));
        let text = fs::read_to_string(store.root().join("store.jsonl")).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().count(), 2, "{text}");

        // Corruption that is not a torn tail still errors.
        fs::write(
            store.root().join("store.jsonl"),
            "not json\n{\"also\":\"bad\"}\n",
        )
        .unwrap();
        assert!(store.load().is_err());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_mid_line_store_reloads_without_the_torn_record() {
        // The kill-a-worker story: a store truncated at an arbitrary byte
        // boundary (as a dying writer leaves it) must reload cleanly with
        // every complete line intact and the torn one dropped.
        let store = tmp_store("truncate");
        store
            .append(&[record("aa"), record("bb"), record("cc")])
            .unwrap();
        let path = store.root().join("store.jsonl");
        let full = fs::read(&path).unwrap();
        let second_line_end = full
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        // Cut in the middle of the third record.
        let cut = second_line_end + 1 + (full.len() - second_line_end - 1) / 2;
        assert!(cut > second_line_end + 1 && cut < full.len());
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let index = store.load().unwrap();
        assert_eq!(index.len(), 2, "complete lines survive");
        assert!(index.contains_key("aa") && index.contains_key("bb"));
        assert!(!index.contains_key("cc"), "the torn record drops");

        // A fresh writer truncates the debris, and appends stay one clean
        // line each.
        let mut w = store.writer().unwrap();
        w.append_one(&record("cc")).unwrap();
        w.append_one(&record("dd")).unwrap();
        drop(w);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.ends_with('\n'));
        assert_eq!(store.load().unwrap().len(), 4);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn manifest_round_trip_and_missing_run() {
        let store = tmp_store("manifest");
        let m = RunManifest {
            name: "demo".into(),
            description: Some("d".into()),
            points: vec![ManifestEntry {
                key: "aa".into(),
                scheme: "MB_distr".into(),
                benchmark: "gzip".into(),
                instructions: 1000,
                machine: "table1".into(),
            }],
        };
        store.write_manifest(&m).unwrap();
        assert_eq!(store.read_manifest("demo").unwrap(), m);
        assert_eq!(store.run_names().unwrap(), ["demo"]);
        let err = store.read_manifest("ghost").unwrap_err().to_string();
        assert!(err.contains("known runs: demo"), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }
}
