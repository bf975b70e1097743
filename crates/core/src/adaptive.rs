//! Adaptive queue geometry: the bank power-gating controller that turns the
//! banked CAM baseline into `IQ_64_64_adapt`.
//!
//! The static schemes of the paper fix their geometry at design time; this
//! scheme keeps the `IQ_64_64` hardware but lets a small controller decide,
//! at epoch boundaries, how many of the banks are *powered*. Dispatch is
//! gated to the powered capacity (`powered_banks × bank_entries`), and the
//! energy meter charges per-cycle retention only for powered banks
//! ([`Component::BankIdle`](diq_power::Component::BankIdle)) — so shrinking
//! the queue trades IPC (dispatch stalls arrive earlier) for gated-bank
//! energy, the Pareto axis the static geometries cannot reach.
//!
//! There is no separate adaptive queue: each side of a
//! [`CamIssueQueue`](crate::CamIssueQueue), and of its scan twin in
//! [`reference`](crate::reference), carries an optional [`BankController`].
//! `None` is the static scheme; a disabled [`AdaptiveConfig`] builds `None`.
//!
//! The controller observes only model-independent signals — per-cycle
//! occupancy, load-hit-speculation cancels, and squash-removed entry counts
//! — and uses pure integer arithmetic, so the event-driven queue and the
//! scan twin (which run the literal same [`BankController`] code) make
//! bit-identical decisions.
//!
//! **Shrink safety:** power-gating is a *capacity limit*, not a slot
//! migration. No entry ever moves or is dropped by a resize, and a shrink
//! is deferred until current occupancy fits the smaller capacity — so a
//! shrink can never strand a listed wakeup waiter or a held replay entry
//! (the property `tests/proptest_resize.rs` hammers).

use serde::{Deserialize, Serialize};

fn default_true() -> bool {
    true
}
fn default_epoch() -> u64 {
    256
}
fn default_grow() -> u32 {
    70
}
fn default_shrink() -> u32 {
    35
}
fn default_hysteresis() -> u32 {
    2
}
fn default_min_banks() -> usize {
    1
}
fn default_guard() -> u64 {
    16
}

/// Knobs of the bank-autoscaling controller. All integer-valued so scheme
/// configs stay `Eq`/hashable and the controller is bit-deterministic; a
/// sweep grids aggressiveness by listing several configs on the scheme
/// axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Master switch. `false` builds no controller, so the scheme is its
    /// static parent byte for byte (no gating, no retention energy, no
    /// resize stats) — the golden tests pin this.
    #[serde(default = "default_true")]
    pub enabled: bool,
    /// Cycles per controller epoch (decisions happen at epoch boundaries).
    #[serde(default = "default_epoch")]
    pub epoch_cycles: u64,
    /// Grow when mean occupancy exceeds this percentage of the powered
    /// capacity (pressure also counts replay/squash feedback, below).
    #[serde(default = "default_grow")]
    pub grow_occupancy_pct: u32,
    /// Shrink when mean occupancy falls below this percentage of the
    /// powered capacity.
    #[serde(default = "default_shrink")]
    pub shrink_occupancy_pct: u32,
    /// Consecutive agreeing epochs required before a resize fires — the
    /// hysteresis that keeps the controller from thrashing on bursty
    /// phases.
    #[serde(default = "default_hysteresis")]
    pub hysteresis_epochs: u32,
    /// Floor on powered banks (never gate below this).
    #[serde(default = "default_min_banks")]
    pub min_banks: usize,
    /// Replay-cancel + squash-removed events per epoch above which the
    /// window is "noisy": a shrink is vetoed and the pressure votes to
    /// grow (replayed and re-fetched work wants queue space).
    #[serde(default = "default_guard")]
    pub feedback_guard: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: default_true(),
            epoch_cycles: default_epoch(),
            grow_occupancy_pct: default_grow(),
            shrink_occupancy_pct: default_shrink(),
            hysteresis_epochs: default_hysteresis(),
            min_banks: default_min_banks(),
            feedback_guard: default_guard(),
        }
    }
}

impl AdaptiveConfig {
    /// A controller that never acts — the scheme then *is* its static
    /// parent.
    #[must_use]
    pub fn disabled() -> Self {
        AdaptiveConfig {
            enabled: false,
            ..AdaptiveConfig::default()
        }
    }
}

/// Per-side bank autoscaling state of an enabled [`AdaptiveConfig`]. Shared
/// verbatim by the event-driven [`CamIssueQueue`](crate::CamIssueQueue) and
/// the scan twin in [`reference`](crate::reference), so the two models
/// cannot diverge on a decision.
#[derive(Clone, Debug)]
pub(crate) struct BankController {
    cfg: AdaptiveConfig,
    /// Physical banks (the ceiling).
    banks: usize,
    bank_entries: usize,
    /// Physical entry capacity (powered capacity is clamped to it).
    capacity: usize,
    /// Banks currently powered.
    powered: usize,
    cycle_in_epoch: u64,
    occ_sum: u64,
    /// Cancels + squash-removed entries this epoch.
    feedback: u64,
    grow_streak: u32,
    shrink_streak: u32,
    resize_events: u64,
    gated_bank_cycles: u64,
}

impl BankController {
    pub(crate) fn new(cfg: AdaptiveConfig, capacity: usize, banks: usize) -> Self {
        let mut cfg = cfg;
        cfg.min_banks = cfg.min_banks.clamp(1, banks);
        cfg.epoch_cycles = cfg.epoch_cycles.max(1);
        cfg.hysteresis_epochs = cfg.hysteresis_epochs.max(1);
        BankController {
            cfg,
            banks,
            bank_entries: capacity.div_ceil(banks),
            capacity,
            powered: banks,
            cycle_in_epoch: 0,
            occ_sum: 0,
            feedback: 0,
            grow_streak: 0,
            shrink_streak: 0,
            resize_events: 0,
            gated_bank_cycles: 0,
        }
    }

    /// Entries dispatch may currently use.
    pub(crate) fn effective_capacity(&self) -> usize {
        (self.powered * self.bank_entries).min(self.capacity)
    }

    /// Banks currently powered.
    pub(crate) fn powered(&self) -> usize {
        self.powered
    }

    /// `(resize_events, gated_bank_cycles)` so far.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.resize_events, self.gated_bank_cycles)
    }

    /// Records replay/squash feedback (cancels and squash-removed entries).
    pub(crate) fn note_feedback(&mut self, events: u64) {
        self.feedback += events;
    }

    /// Ticks that can pass before the next one ends an epoch: the most
    /// cycles [`tick_idle`](Self::tick_idle) may cover at once.
    pub(crate) fn ticks_before_boundary(&self) -> u64 {
        self.cfg.epoch_cycles - 1 - self.cycle_in_epoch
    }

    /// `cycles` ticks at an unchanged occupancy `len`, none of which ends
    /// an epoch (`cycles <= ticks_before_boundary()`): exactly the state
    /// `cycles` calls of [`tick`](Self::tick) leave, in integer arithmetic.
    pub(crate) fn tick_idle(&mut self, len: usize, cycles: u64) {
        debug_assert!(
            cycles <= self.ticks_before_boundary(),
            "idle ticks cross an epoch"
        );
        self.gated_bank_cycles += cycles * (self.banks - self.powered) as u64;
        self.occ_sum += cycles * len as u64;
        self.cycle_in_epoch += cycles;
    }

    /// One cycle's controller update with the side's current occupancy.
    /// Called exactly once per `issue_cycle`; at an epoch boundary it may
    /// grow or (if occupancy already fits) shrink the powered-bank count.
    pub(crate) fn tick(&mut self, len: usize) {
        self.gated_bank_cycles += (self.banks - self.powered) as u64;
        self.occ_sum += len as u64;
        self.cycle_in_epoch += 1;
        if self.cycle_in_epoch < self.cfg.epoch_cycles {
            return;
        }
        // Epoch boundary. Everything below is integer arithmetic on
        // model-independent quantities: both simulation models run the
        // identical update and land on the identical powered-bank count.
        let cap = self.effective_capacity() as u128;
        let occ = self.occ_sum as u128 * 100;
        let epoch = u128::from(self.cycle_in_epoch);
        let noisy = self.feedback > self.cfg.feedback_guard;
        if occ >= u128::from(self.cfg.grow_occupancy_pct) * cap * epoch || noisy {
            self.grow_streak = self.grow_streak.saturating_add(1);
            self.shrink_streak = 0;
        } else if occ <= u128::from(self.cfg.shrink_occupancy_pct) * cap * epoch {
            self.shrink_streak = self.shrink_streak.saturating_add(1);
            self.grow_streak = 0;
        } else {
            self.grow_streak = 0;
            self.shrink_streak = 0;
        }
        if self.grow_streak >= self.cfg.hysteresis_epochs && self.powered < self.banks {
            self.powered += 1;
            self.resize_events += 1;
            self.grow_streak = 0;
        } else if self.shrink_streak >= self.cfg.hysteresis_epochs
            && self.powered > self.cfg.min_banks
            && len <= (self.powered - 1) * self.bank_entries
        {
            // Shrink-safety: the gate is a capacity limit, and it only
            // tightens when current occupancy already fits — no live entry,
            // listed waiter or held replay entry is ever displaced. If
            // occupancy doesn't fit yet, the saturated streak retries at
            // the next boundary.
            self.powered -= 1;
            self.resize_events += 1;
            self.shrink_streak = 0;
        }
        self.cycle_in_epoch = 0;
        self.occ_sum = 0;
        self.feedback = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_ticks_equal_single_ticks() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 16,
            hysteresis_epochs: 1,
            ..AdaptiveConfig::default()
        };
        for (warm, len) in [(0, 0), (5, 3), (21, 7), (40, 1)] {
            let mut single = BankController::new(cfg, 64, 8);
            for _ in 0..warm {
                single.tick(len);
            }
            let mut bulk = single.clone();
            let k = bulk.ticks_before_boundary();
            bulk.tick_idle(len, k);
            for _ in 0..k {
                single.tick(len);
            }
            assert_eq!(format!("{bulk:?}"), format!("{single:?}"), "warm {warm}");
            assert_eq!(bulk.ticks_before_boundary(), 0);
        }
    }
}
