//! Per-stage wall-clock profiling of the cycle loop.
//!
//! Compiled in only under the `profile` cargo feature: each pipeline stage
//! call in [`Simulator::run_workload`] is bracketed by an rdtsc-style
//! timestamp and the deltas accumulate into a [`StageProfile`]. With the
//! feature off the sampling code vanishes entirely (the timer type is a
//! ZST and every lap is a no-op), so the default build pays nothing.
//!
//! The profile is *not* part of [`SimStats`](crate::SimStats) — statistics
//! are bit-identical across scan/event scheduler implementations and must
//! not depend on host timing. Read it with
//! [`Simulator::take_stage_profile`](crate::Simulator::take_stage_profile)
//! after a run.

/// Stage slots of a [`StageProfile`], in front-to-back pipeline order.
///
/// Rename and dispatch are one stage on this machine (renaming happens in
/// the dispatch stage), so they share a slot.
pub mod stage {
    /// Fetch (I-cache probe, branch prediction, batch refill).
    pub const FETCH: usize = 0;
    /// Rename + dispatch (one pipeline stage on this machine).
    pub const RENAME_DISPATCH: usize = 1;
    /// Wakeup/select in the issue queues.
    pub const ISSUE: usize = 2;
    /// LSQ disambiguation and D-cache access initiation.
    pub const MEMORY: usize = 3;
    /// Completion-event drain, recovery, replay cancels.
    pub const WRITEBACK: usize = 4;
    /// In-order retirement.
    pub const COMMIT: usize = 5;
    /// Display names, indexed by the constants above.
    pub const NAMES: [&str; 6] = [
        "fetch",
        "rename_dispatch",
        "issue",
        "memory",
        "writeback",
        "commit",
    ];
}

/// Accumulated per-stage wall-clock ticks for one run.
///
/// Ticks are rdtsc cycles on x86-64 (wall nanoseconds elsewhere); only the
/// *shares* are meaningful across machines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageProfile {
    /// Accumulated ticks per stage, indexed by the [`stage`] constants.
    pub ticks: [u64; 6],
    /// Simulated cycles the ticks were collected over.
    pub cycles: u64,
}

impl StageProfile {
    /// Whether the build actually samples (the `profile` cargo feature).
    pub const ENABLED: bool = cfg!(feature = "profile");

    /// Total ticks across all stages.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ticks.iter().sum()
    }

    /// Fraction of total ticks per stage (zeros when nothing was sampled).
    #[must_use]
    pub fn shares(&self) -> [f64; 6] {
        let total = self.total();
        if total == 0 {
            return [0.0; 6];
        }
        self.ticks.map(|t| t as f64 / total as f64)
    }

    /// `(stage name, share)` pairs in pipeline order.
    pub fn named_shares(&self) -> impl Iterator<Item = (&'static str, f64)> {
        stage::NAMES.into_iter().zip(self.shares())
    }
}

#[cfg(feature = "profile")]
#[inline]
fn now_ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc is unprivileged and side-effect-free.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static BASE: OnceLock<Instant> = OnceLock::new();
        BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Brackets the stage calls inside one simulated cycle. A ZST no-op unless
/// the `profile` feature is enabled.
pub(crate) struct StageTimer {
    #[cfg(feature = "profile")]
    last: u64,
}

impl StageTimer {
    #[inline]
    pub(crate) fn start() -> Self {
        StageTimer {
            #[cfg(feature = "profile")]
            last: now_ticks(),
        }
    }

    /// Charges the ticks since the previous lap to `stage`.
    #[inline]
    pub(crate) fn lap(&mut self, _profile: &mut StageProfile, _stage: usize) {
        #[cfg(feature = "profile")]
        {
            let t = now_ticks();
            _profile.ticks[_stage] += t.wrapping_sub(self.last);
            self.last = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_when_sampled() {
        let p = StageProfile {
            ticks: [10, 20, 30, 15, 15, 10],
            cycles: 5,
        };
        let sum: f64 = p.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(p.total(), 100);
        let names: Vec<_> = p.named_shares().map(|(n, _)| n).collect();
        assert_eq!(names, stage::NAMES);
    }

    #[test]
    fn empty_profile_has_zero_shares() {
        let p = StageProfile::default();
        assert_eq!(p.shares(), [0.0; 6]);
        assert_eq!(p.total(), 0);
    }
}
