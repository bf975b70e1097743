//! The deterministic parallel runner.

use crate::store::{PointRecord, ResultStore, RunManifest};
use crate::{ExpError, ExperimentSpec, Point, PointResult};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `jobs` independent tasks on up to `threads` workers and returns
/// their results in job order, regardless of scheduling. The shared
/// worklist pattern the paper harness uses, factored out so sweeps and
/// figures share one execution path.
pub fn run_indexed<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, jobs);
    if threads == 1 {
        return (0..jobs).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                *slots[i].lock() = Some(f(i));
            });
        }
    })
    .expect("simulation worker panicked");
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job index was claimed"))
        .collect()
}

/// What one sweep did: the run's records in grid order plus the
/// computed/cached split that makes resume visible.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Run name (the manifest written).
    pub run: String,
    /// Points simulated by this invocation.
    pub computed: usize,
    /// Points served from the store.
    pub cached: usize,
    /// Every point of the grid, in grid order.
    pub records: Vec<PointRecord>,
    /// Aligned with `records`: `true` where this invocation simulated the
    /// point, `false` where the store served it.
    pub fresh: Vec<bool>,
}

/// The machine-readable counters of one sweep invocation — what
/// `diq sweep --summary-json` emits so CI can assert on parsed fields
/// instead of grepping human-readable output.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Run name.
    pub run: String,
    /// Total grid points.
    pub total: usize,
    /// Points simulated by this invocation.
    pub computed: usize,
    /// Points served from the store.
    pub cached: usize,
    /// `100 * cached / total`.
    pub cache_hit_pct: f64,
    /// Store directory the results landed in.
    pub store: String,
}

impl SweepOutcome {
    /// Total grid points.
    #[must_use]
    pub fn total(&self) -> usize {
        self.computed + self.cached
    }

    /// Percentage of the grid served from the store.
    #[must_use]
    pub fn cache_hit_pct(&self) -> f64 {
        hit_pct(self.cached, self.total())
    }

    /// The machine-readable summary (see [`SweepSummary`]).
    #[must_use]
    pub fn summary(&self, store: &ResultStore) -> SweepSummary {
        SweepSummary::new(self.run.clone(), self.computed, self.cached, store.root())
    }
}

fn hit_pct(cached: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * cached as f64 / total as f64
    }
}

impl SweepSummary {
    /// The summary of run `run` over `computed + cached` grid points, whose
    /// results landed in the store rooted at `store`.
    #[must_use]
    pub fn new(run: String, computed: usize, cached: usize, store: &Path) -> Self {
        let total = computed + cached;
        SweepSummary {
            run,
            total,
            computed,
            cached,
            cache_hit_pct: hit_pct(cached, total),
            store: store.display().to_string(),
        }
    }

    /// Pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("summaries serialize");
        s.push('\n');
        s
    }

    /// Parses an emitted summary (tests and tooling assert on the typed
    /// fields rather than grepping sweep output).
    ///
    /// # Errors
    ///
    /// Malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, ExpError> {
        serde_json::from_str(json).map_err(|e| ExpError::Spec(format!("sweep summary: {e}")))
    }
}

/// Executes a spec against a store: expands the grid, serves every
/// already-stored point from `store.jsonl`, simulates the missing points on
/// `threads` workers, appends the new records in grid order (so the store's
/// bytes are independent of thread count), and (re)writes the run manifest.
///
/// # Errors
///
/// Spec/axis problems and store I/O.
pub fn sweep(
    spec: &ExperimentSpec,
    store: &ResultStore,
    threads: usize,
) -> Result<SweepOutcome, ExpError> {
    sweep_as(spec, spec.name.clone(), store, threads)
}

/// [`sweep`], recording the run under `run_name` instead of the spec's name.
///
/// # Errors
///
/// Spec/axis problems and store I/O.
pub fn sweep_as(
    spec: &ExperimentSpec,
    run_name: String,
    store: &ResultStore,
    threads: usize,
) -> Result<SweepOutcome, ExpError> {
    // `--name` overrides bypass the spec's own validation, and the name
    // becomes a file name under runs/ — hold it to the same alphabet.
    crate::spec::validate_run_name(&run_name)?;
    let points = spec.expand()?;
    let keys = Point::keys(&points);
    let mut index = store.load()?;

    // A spec can name the same point twice (e.g. a workload listed both by
    // name and via its group); simulate each distinct key once.
    let mut claimed = HashSet::new();
    let missing: Vec<usize> = (0..points.len())
        .filter(|&i| !index.contains_key(&keys[i]) && claimed.insert(keys[i].as_str()))
        .collect();
    // Simulate in grid-order chunks, appending after each: an interrupted
    // sweep persists every completed chunk (resume skips it), while the
    // store's bytes stay independent of thread count and chunk size.
    for chunk in missing.chunks(threads.max(1) * 4) {
        let results = run_indexed(chunk.len(), threads, |j| {
            let point = &points[chunk[j]];
            PointResult::from_stats(point, &point.execute())
        });
        let records: Vec<PointRecord> = chunk
            .iter()
            .zip(results)
            .map(|(&i, result)| PointRecord {
                key: keys[i].clone(),
                result,
            })
            .collect();
        store.append(&records)?;
        index.extend(records.into_iter().map(|r| (r.key.clone(), r)));
    }

    // `claimed` holds exactly the keys this invocation simulated.
    let fresh: Vec<bool> = keys.iter().map(|k| claimed.contains(k.as_str())).collect();
    // Each record moves out of the index into the run; only a key the spec
    // names again is cloned, from the record its first occurrence took.
    let mut first_at: HashMap<&str, usize> = HashMap::new();
    let mut records: Vec<PointRecord> = Vec::with_capacity(points.len());
    for (point, k) in points.iter().zip(&keys) {
        let mut rec = match index.remove(k) {
            Some(rec) => {
                first_at.insert(k.as_str(), records.len());
                rec
            }
            None => {
                let first = first_at.get(k.as_str());
                records[*first.expect("every key is stored or freshly computed")].clone()
            }
        };
        // The stored record carries the machine label of whichever spec
        // computed it first; this run's view uses its own label.
        rec.result.machine.clone_from(&point.machine_label);
        records.push(rec);
    }

    let manifest =
        RunManifest::from_points(run_name.clone(), spec.description.clone(), &points, &keys);
    store.write_manifest(&manifest)?;

    // Counts are over grid points: `fresh` marks the ones this invocation
    // simulated (an intra-spec duplicate counts with its first occurrence).
    let computed = fresh.iter().filter(|f| **f).count();
    Ok(SweepOutcome {
        run: run_name,
        computed,
        cached: points.len() - computed,
        records,
        fresh,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::from_json(
            r#"{"name":"tiny","instructions":[400],
                "schemes":["MB_distr","IQ_64_64"],
                "workloads":["gzip","swim"]}"#,
        )
        .unwrap()
    }

    fn tmp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("diq-exp-run-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn run_indexed_preserves_order() {
        for threads in [1, 4] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn second_sweep_is_all_cache_hits() {
        let store = tmp_store("resume");
        let spec = tiny_spec();
        let first = sweep(&spec, &store, 2).unwrap();
        assert_eq!((first.computed, first.cached), (4, 0));
        let second = sweep(&spec, &store, 2).unwrap();
        assert_eq!((second.computed, second.cached), (0, 4));
        assert!((second.cache_hit_pct() - 100.0).abs() < 1e-12);
        assert_eq!(second.records, first.records, "grid order is stable");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn run_name_override_is_validated() {
        let store = tmp_store("badname");
        let err = sweep_as(&tiny_spec(), "../../evil".into(), &store, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("run name"), "{err}");
        assert!(sweep_as(&tiny_spec(), String::new(), &store, 1).is_err());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn intra_spec_duplicates_count_as_computed_on_cold_store() {
        let store = tmp_store("dup");
        // gzip appears by name and again inside the "int" group: 13 grid
        // points, 12 distinct simulations — but a cold store reports no
        // cache hits.
        let spec = ExperimentSpec::from_json(
            r#"{"name":"dup","instructions":[300],
                "schemes":["MB_distr"],"workloads":["gzip","int"]}"#,
        )
        .unwrap();
        let out = sweep(&spec, &store, 2).unwrap();
        assert_eq!((out.computed, out.cached), (13, 0));
        assert_eq!(store.load().unwrap().len(), 12, "one record per key");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn machine_labels_are_run_local() {
        let store = tmp_store("label");
        let named = ExperimentSpec::from_json(
            r#"{"name":"named","instructions":[300],"schemes":["MB_distr"],
                "workloads":["gzip"],
                "machines":[{"label":"narrow","rob_entries":128}]}"#,
        )
        .unwrap();
        let derived = ExperimentSpec::from_json(
            r#"{"name":"derived","instructions":[300],"schemes":["MB_distr"],
                "workloads":["gzip"],"machines":[{"rob_entries":128}]}"#,
        )
        .unwrap();
        let first = sweep(&named, &store, 1).unwrap();
        // Same knobs, different label: served from cache, but the second
        // run's manifest and records must carry *its* label.
        let second = sweep(&derived, &store, 1).unwrap();
        assert_eq!((second.computed, second.cached), (0, 1));
        assert_eq!(first.records[0].result.machine, "narrow");
        assert_eq!(second.records[0].result.machine, "rob=128");
        assert_eq!(
            store.read_manifest("derived").unwrap().points[0].machine,
            "rob=128"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn overlapping_specs_share_points() {
        let store = tmp_store("overlap");
        let spec = tiny_spec();
        sweep(&spec, &store, 2).unwrap();
        // Same grid plus one extra workload: only the new points simulate.
        let wider = ExperimentSpec::from_json(
            r#"{"name":"tiny-wider","instructions":[400],
                "schemes":["MB_distr","IQ_64_64"],
                "workloads":["gzip","swim","mcf"]}"#,
        )
        .unwrap();
        let out = sweep(&wider, &store, 2).unwrap();
        assert_eq!((out.computed, out.cached), (2, 4));
        assert_eq!(store.run_names().unwrap(), ["tiny", "tiny-wider"]);
        let _ = fs::remove_dir_all(store.root());
    }
}
