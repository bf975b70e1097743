//! Activity-based energy accounting (the Wattch role).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::AddAssign;

/// The issue-logic components whose energy the paper's Figures 9–11 break
/// down.
///
/// Not every scheme uses every component: the CAM baseline has
/// [`Component::Wakeup`] but no [`Component::Qrename`]; the FIFO schemes
/// are the other way around. A shared enum keeps the meters comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Component {
    /// CAM tag broadcast + match (conventional wakeup).
    Wakeup,
    /// Out-of-order buffer RAM read/write (baseline payload, MixBUFF FP
    /// buffers).
    Buff,
    /// FIFO queue RAM read/write (IssueFIFO/LatFIFO queues, MixBUFF INT
    /// side).
    Fifo,
    /// Selection logic.
    Select,
    /// Chain latency tables (MixBUFF only).
    Chains,
    /// Ready-bit scoreboard reads/writes (`regs_ready`).
    RegsReady,
    /// Logical-register → queue(/chain) mapping table.
    Qrename,
    /// Latch holding each queue's selected instruction (MixBUFF only).
    Reg,
    /// Crossbar to integer ALUs.
    MuxIntAlu,
    /// Crossbar to integer mul/div units.
    MuxIntMul,
    /// Crossbar to FP adders.
    MuxFpAlu,
    /// Crossbar to FP mul/div units.
    MuxFpMul,
    /// Per-cycle retention/clock energy of powered issue-queue banks
    /// (adaptive bank-gating schemes only; appended last so the existing
    /// discriminants — and every stored meter — keep their indices).
    BankIdle,
}

/// All components in display order (the paper's stacking order).
pub const ALL_COMPONENTS: [Component; 13] = [
    Component::Wakeup,
    Component::Buff,
    Component::Fifo,
    Component::Select,
    Component::Chains,
    Component::RegsReady,
    Component::Qrename,
    Component::Reg,
    Component::MuxIntAlu,
    Component::MuxIntMul,
    Component::MuxFpAlu,
    Component::MuxFpMul,
    Component::BankIdle,
];

impl Component {
    /// `ALL_COMPONENTS` lists the variants in declaration order, so the
    /// discriminant doubles as the meter index (asserted in the tests
    /// below). `meter.add` sits on the per-event hot path of every scheme;
    /// a search here is measurable.
    #[inline]
    fn idx(self) -> usize {
        self as usize
    }

    /// The label used in the paper's figures.
    #[must_use]
    pub fn paper_label(self) -> &'static str {
        match self {
            Component::Wakeup => "wakeup",
            Component::Buff => "buff",
            Component::Fifo => "fifo",
            Component::Select => "select",
            Component::Chains => "chains",
            Component::RegsReady => "regs_ready",
            Component::Qrename => "Qrename",
            Component::Reg => "reg",
            Component::MuxIntAlu => "MuxIntALU",
            Component::MuxIntMul => "MuxIntMUL",
            Component::MuxFpAlu => "MuxFPALU",
            Component::MuxFpMul => "MuxFPMUL",
            Component::BankIdle => "bank_idle",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_label())
    }
}

/// Accumulates picojoules per [`Component`].
///
/// # Example
///
/// ```
/// use diq_power::{Component, EnergyMeter};
///
/// let mut m = EnergyMeter::new();
/// m.add(Component::Wakeup, 12.5);
/// m.add(Component::Select, 2.5);
/// assert_eq!(m.total_pj(), 15.0);
/// let wk = m.fraction(Component::Wakeup);
/// assert!((wk - 12.5 / 15.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    pj: [f64; ALL_COMPONENTS.len()],
}

impl EnergyMeter {
    /// A meter with all components at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `pj` picojoules to `component`.
    #[inline]
    pub fn add(&mut self, component: Component, pj: f64) {
        debug_assert!(pj >= 0.0, "negative energy");
        self.pj[component.idx()] += pj;
    }

    /// Adds `events × pj_per_event` to `component`.
    #[inline]
    pub fn add_events(&mut self, component: Component, events: u64, pj_per_event: f64) {
        self.add(component, events as f64 * pj_per_event);
    }

    /// Adds each value of `pjs` to `component`, in order — bit-identical
    /// to one [`add`](Self::add) per value, with the running sum held in a
    /// register between the adds.
    #[inline]
    pub fn add_each(&mut self, component: Component, pjs: impl IntoIterator<Item = f64>) {
        let mut acc = self.pj[component.idx()];
        for pj in pjs {
            debug_assert!(pj >= 0.0, "negative energy");
            acc += pj;
        }
        self.pj[component.idx()] = acc;
    }

    /// Adds each value of `per_cycle` to `component`, in order, and repeats
    /// that `cycles` times — bit-identical to `cycles × per_cycle.len()`
    /// calls of [`add`](Self::add), because the additions happen one by
    /// one in the same order (floating-point addition does not
    /// reassociate, so this is never `cycles × sum`). The sum stays in a
    /// register instead of round-tripping through memory per add.
    pub fn add_cycles(&mut self, component: Component, per_cycle: &[f64], cycles: u64) {
        let mut acc = self.pj[component.idx()];
        for _ in 0..cycles {
            for &pj in per_cycle {
                debug_assert!(pj >= 0.0, "negative energy");
                acc += pj;
            }
        }
        self.pj[component.idx()] = acc;
    }

    /// Energy of one component (pJ).
    #[must_use]
    pub fn get(&self, component: Component) -> f64 {
        self.pj[component.idx()]
    }

    /// Total energy across all components (pJ).
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.pj.iter().sum()
    }

    /// Fraction of the total contributed by `component` (0.0 for an empty
    /// meter).
    #[must_use]
    pub fn fraction(&self, component: Component) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            0.0
        } else {
            self.get(component) / total
        }
    }

    /// Non-zero `(component, pJ)` pairs in display order.
    pub fn breakdown(&self) -> impl Iterator<Item = (Component, f64)> + '_ {
        ALL_COMPONENTS
            .iter()
            .copied()
            .map(|c| (c, self.get(c)))
            .filter(|&(_, e)| e > 0.0)
    }
}

impl AddAssign<&EnergyMeter> for EnergyMeter {
    fn add_assign(&mut self, rhs: &EnergyMeter) {
        for (a, b) in self.pj.iter_mut().zip(rhs.pj.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_components_is_in_discriminant_order() {
        // `Component::idx` relies on this: the display order of
        // ALL_COMPONENTS must stay the declaration order of the enum.
        for (i, &c) in ALL_COMPONENTS.iter().enumerate() {
            assert_eq!(c as usize, i, "{c} out of order in ALL_COMPONENTS");
        }
    }

    #[test]
    fn breakdown_skips_zero_components() {
        let mut m = EnergyMeter::new();
        m.add(Component::Fifo, 1.0);
        let v: Vec<_> = m.breakdown().collect();
        assert_eq!(v, [(Component::Fifo, 1.0)]);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = EnergyMeter::new();
        a.add(Component::Buff, 1.0);
        let mut b = EnergyMeter::new();
        b.add(Component::Buff, 2.0);
        b.add(Component::Reg, 3.0);
        a += &b;
        assert_eq!(a.get(Component::Buff), 3.0);
        assert_eq!(a.total_pj(), 6.0);
    }

    #[test]
    fn add_events_multiplies() {
        let mut m = EnergyMeter::new();
        m.add_events(Component::Select, 10, 0.5);
        assert_eq!(m.get(Component::Select), 5.0);
    }

    #[test]
    fn add_cycles_is_bit_identical_to_single_adds() {
        // Values whose sums round differently depending on grouping.
        let per_cycle = [0.1, 1e-3, 7.7e5, 0.3];
        let mut single = EnergyMeter::new();
        let mut replayed = EnergyMeter::new();
        for m in [&mut single, &mut replayed] {
            m.add(Component::RegsReady, 1.0 / 3.0);
        }
        for _ in 0..1000 {
            for &pj in &per_cycle {
                single.add(Component::RegsReady, pj);
            }
        }
        replayed.add_cycles(Component::RegsReady, &per_cycle, 1000);
        assert_eq!(
            replayed.get(Component::RegsReady).to_bits(),
            single.get(Component::RegsReady).to_bits()
        );
        // Multiplying out is not the same sum — the reason to replay.
        let mut multiplied = EnergyMeter::new();
        multiplied.add(Component::RegsReady, 1.0 / 3.0);
        multiplied.add(Component::RegsReady, 1000.0 * per_cycle.iter().sum::<f64>());
        assert_ne!(
            multiplied.get(Component::RegsReady).to_bits(),
            single.get(Component::RegsReady).to_bits()
        );
    }

    #[test]
    fn paper_labels_unique() {
        let mut labels: Vec<_> = ALL_COMPONENTS.iter().map(|c| c.paper_label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ALL_COMPONENTS.len());
    }
}
