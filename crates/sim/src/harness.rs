//! Parallel, cached simulation runner.

use diq_core::SchedulerConfig;
use diq_exp::Point;
use diq_isa::ProcessorConfig;
use diq_pipeline::SimStats;
use diq_workload::WorkloadSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Runs (scheme × benchmark) simulations, in parallel, caching results so
/// every figure that needs the same run pays for it once.
///
/// # Example
///
/// ```no_run
/// use diq_core::SchedulerConfig;
/// use diq_sim::Harness;
/// use diq_workload::suite;
///
/// let h = Harness::new();
/// let stats = h.run(&SchedulerConfig::mb_distr(), &suite::by_name("swim").unwrap());
/// println!("swim under MB_distr: IPC {:.2}", stats.ipc());
/// ```
pub struct Harness {
    cfg: ProcessorConfig,
    instructions: u64,
    cache: Mutex<HashMap<(String, String), Arc<SimStats>>>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness over the paper's Table 1 machine, simulating
    /// [`DEFAULT_INSTRUCTIONS`](crate::DEFAULT_INSTRUCTIONS) per benchmark
    /// (override with the `DIQ_INSTRS` environment variable;
    /// `100k`/`5M`-style suffixes accepted).
    ///
    /// # Panics
    ///
    /// If `DIQ_INSTRS` is set but not a positive count — a typo silently
    /// producing figures at the wrong fidelity would be worse. Use
    /// [`Harness::from_env`] to get the message as an error instead.
    #[must_use]
    pub fn new() -> Self {
        Self::from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Harness::new`], reporting a bad `DIQ_INSTRS` as an error.
    ///
    /// # Errors
    ///
    /// `DIQ_INSTRS` is set but not a positive count; the message names the
    /// variable and its value.
    pub fn from_env() -> Result<Self, String> {
        let instructions = match std::env::var("DIQ_INSTRS") {
            Ok(s) => diq_exp::parse_count(&s).filter(|&n| n > 0).ok_or_else(|| {
                format!("DIQ_INSTRS=`{s}` is not a valid instruction count (try 250000 or 100k)")
            })?,
            Err(_) => crate::DEFAULT_INSTRUCTIONS,
        };
        Ok(Self::with_instructions(instructions))
    }

    /// A harness simulating `instructions` per benchmark (tests use small
    /// counts).
    #[must_use]
    pub fn with_instructions(instructions: u64) -> Self {
        Harness {
            cfg: ProcessorConfig::hpca2004(),
            instructions,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The machine configuration in use.
    #[must_use]
    pub fn config(&self) -> &ProcessorConfig {
        &self.cfg
    }

    /// Instructions simulated per benchmark.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Runs (or returns the cached result of) one scheme on one benchmark.
    ///
    /// Execution goes through [`diq_exp::Point`] — the same path `diq sweep`
    /// uses — so paper artifacts and ad-hoc experiment grids cannot drift
    /// apart.
    pub fn run(&self, sched: &SchedulerConfig, bench: &WorkloadSpec) -> Arc<SimStats> {
        let key = (sched.label(), bench.name.clone());
        // The lock is held only across one map lookup or insert, so the
        // cache is whole even if a thread panicked while holding it.
        let cache = || self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache().get(&key) {
            return Arc::clone(hit);
        }
        let point = Point::new(self.cfg, sched.clone(), bench.clone(), self.instructions);
        let stats = Arc::new(point.execute());
        cache().insert(key, Arc::clone(&stats));
        stats
    }

    /// Runs one scheme over a whole suite, in parallel; results are in
    /// benchmark order.
    pub fn run_suite(&self, sched: &SchedulerConfig, suite: &[WorkloadSpec]) -> Vec<Arc<SimStats>> {
        self.run_matrix(std::slice::from_ref(sched), suite)
            .pop()
            .expect("one scheme requested")
    }

    /// Runs a scheme × benchmark matrix in parallel. Output is
    /// `result[scheme][benchmark]`.
    pub fn run_matrix(
        &self,
        scheds: &[SchedulerConfig],
        suite: &[WorkloadSpec],
    ) -> Vec<Vec<Arc<SimStats>>> {
        let threads = diq_exp::default_threads();
        let jobs: Vec<(usize, usize)> = (0..scheds.len())
            .flat_map(|s| (0..suite.len()).map(move |b| (s, b)))
            .collect();
        diq_exp::run_indexed(jobs.len(), threads, |i| {
            let (s, b) = jobs[i];
            let _ = self.run(&scheds[s], &suite[b]);
        });
        scheds
            .iter()
            .map(|s| suite.iter().map(|b| self.run(s, b)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_workload::suite;

    #[test]
    fn cache_returns_same_arc() {
        let h = Harness::with_instructions(500);
        let b = suite::by_name("gzip").unwrap();
        let a1 = h.run(&SchedulerConfig::mb_distr(), &b);
        let a2 = h.run(&SchedulerConfig::mb_distr(), &b);
        assert!(Arc::ptr_eq(&a1, &a2));
    }

    #[test]
    fn matrix_is_scheme_major() {
        let h = Harness::with_instructions(300);
        let suite: Vec<_> = ["gzip", "swim"]
            .iter()
            .map(|n| suite::by_name(n).unwrap())
            .collect();
        let m = h.run_matrix(
            &[SchedulerConfig::iq_64_64(), SchedulerConfig::if_distr()],
            &suite,
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert_eq!(m[0][0].scheme, "IQ_64_64");
        assert_eq!(m[0][1].benchmark, "swim");
        assert_eq!(m[1][0].scheme, "IF_distr");
    }
}
