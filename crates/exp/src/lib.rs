//! Experiment orchestration: declarative sweeps over (scheme × workload ×
//! instruction count × machine) grids with a persistent, resumable result
//! store.
//!
//! The paper's evaluation is a matrix of simulation points. This crate turns
//! one-shot simulation into orchestrated experiments:
//!
//! * [`ExperimentSpec`] — a JSON-loadable description of a parameter grid:
//!   schemes (registered labels or inline [`diq_core::SchedulerConfig`]
//!   objects), workloads (suite names, suite groups, or inline custom
//!   [`diq_workload::WorkloadSpec`]s), instruction counts (`"100k"`-style
//!   suffixes allowed) and machine-knob overrides;
//! * [`sweep`] — a deterministic parallel runner over the expanded grid.
//!   Results land in a content-addressed [`ResultStore`] (JSONL under
//!   `results/`), so re-running a spec recomputes only missing points and a
//!   completed sweep is 100% cache hits;
//! * [`RunSummary`] / [`Comparison`] — the aggregation layer: geomean and
//!   harmonic-mean IPC, energy breakdowns, and per-point IPC/energy deltas
//!   between two named runs with a regression threshold (`diq compare`
//!   exits non-zero when it is crossed).
//!
//! The store is keyed by an FNV-1a hash of the *full* point identity
//! (scheme config + workload spec + instruction count + processor config),
//! so any knob change is a new key and stale results are never reused.
//!
//! # Example
//!
//! ```no_run
//! use diq_exp::{sweep, ExperimentSpec, ResultStore};
//!
//! let spec = ExperimentSpec::from_json(
//!     r#"{"name":"demo","instructions":["10k"],
//!         "schemes":["MB_distr","IQ_64_64"],"workloads":["swim"]}"#,
//! )
//! .unwrap();
//! let store = ResultStore::open("results").unwrap();
//! let outcome = sweep(&spec, &store, 4).unwrap();
//! println!("{} computed, {} cached", outcome.computed, outcome.cached);
//! ```

#![deny(missing_docs)]

mod compare;
mod point;
mod runner;
mod spec;
mod store;

pub use compare::{Comparison, PointDelta, RunSummary};
pub use point::{fnv1a64, Point, PointResult};
pub use runner::{run_indexed, sweep, sweep_as, SweepOutcome, SweepSummary};
pub use spec::{
    validate_run_name, ExperimentSpec, InstrCount, MachineKnobs, SchemeSel, WorkloadSel,
};
pub use store::{ManifestEntry, PointRecord, ResultStore, RunManifest, StoreWriter};

use std::fmt;

/// Default instructions per point when a spec omits the axis (matches the
/// paper harness's per-benchmark default).
pub const DEFAULT_INSTRUCTIONS: u64 = 100_000;

/// Default simulation worker count: the machine's available parallelism
/// (4 when it cannot be queried). Shared by the sweep CLI and the figure
/// harness.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(4)
}

/// Parses an instruction count with an optional magnitude suffix:
/// `"250000"`, `"100k"`, `"5M"`, `"1G"`. Underscore separators are allowed
/// (`"1_000_000"`); overflow returns `None`.
///
/// # Example
///
/// ```
/// assert_eq!(diq_exp::parse_count("100k"), Some(100_000));
/// assert_eq!(diq_exp::parse_count("5M"), Some(5_000_000));
/// assert_eq!(diq_exp::parse_count("2_500"), Some(2_500));
/// assert_eq!(diq_exp::parse_count("12kb"), None);
/// ```
#[must_use]
pub fn parse_count(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1_000),
        'm' | 'M' => (&s[..s.len() - 1], 1_000_000),
        'g' | 'G' => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    let cleaned: String = digits.chars().filter(|c| *c != '_').collect();
    if cleaned.is_empty() || !cleaned.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    cleaned.parse::<u64>().ok()?.checked_mul(mult)
}

/// An experiment-layer failure: a malformed spec, a missing run, or store
/// I/O.
#[derive(Debug)]
pub enum ExpError {
    /// The spec (or a CLI argument standing in for one) is invalid.
    Spec(String),
    /// The result store could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Spec(msg) => write!(f, "{msg}"),
            ExpError::Io(e) => write!(f, "result store I/O: {e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> Self {
        ExpError::Io(e)
    }
}

impl From<String> for ExpError {
    fn from(msg: String) -> Self {
        ExpError::Spec(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::parse_count;

    #[test]
    fn plain_and_suffixed_counts() {
        assert_eq!(parse_count("0"), Some(0));
        assert_eq!(parse_count("250000"), Some(250_000));
        assert_eq!(parse_count(" 100k "), Some(100_000));
        assert_eq!(parse_count("100K"), Some(100_000));
        assert_eq!(parse_count("5m"), Some(5_000_000));
        assert_eq!(parse_count("2G"), Some(2_000_000_000));
        assert_eq!(parse_count("1_000_000"), Some(1_000_000));
        assert_eq!(parse_count("1_0k"), Some(10_000));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "k", "_k", "12kb", "1.5M", "-3", "1e6", "12 000"] {
            assert_eq!(parse_count(bad), None, "{bad:?} should not parse");
        }
        // Overflow is an error, not a wrap.
        assert_eq!(parse_count("99999999999999999999G"), None);
        assert_eq!(parse_count("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_count("18446744073709551616"), None);
    }
}
