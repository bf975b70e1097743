//! Precomputed per-event energies for each scheme's hardware structures.
//!
//! Schemes count *events* (a dispatch write, a tag broadcast, a head check…)
//! and charge them at the per-access energies computed here from
//! `diq-power`'s array models. Everything is evaluated once at construction.

use crate::fifo::Entry;
use crate::fu::FuTopology;
use crate::DispatchInst;
use diq_isa::{FuKind, OpClass};
use diq_power::{CamSpec, Component, EnergyMeter, MuxSpec, RamSpec, SelectSpec, TechParams};

/// Payload bits of one issue-queue entry (opcode, physical register tags,
/// ROB index, control bits) — the RAM half of the paper's Figure 1.
pub(crate) const ENTRY_BITS: usize = 72;

/// Physical-register tag width (160 registers → 8 bits).
pub(crate) const TAG_BITS: usize = 8;

/// Per-event energies of the mux/crossbar driving issued instructions to
/// functional units, per unit kind.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MuxEnergy {
    int_alu: f64,
    int_mul: f64,
    fp_alu: f64,
    fp_mul: f64,
}

impl MuxEnergy {
    pub(crate) fn new(topology: &FuTopology, tech: &TechParams) -> Self {
        let drive = |kind: FuKind| {
            let span = topology.mux_span(kind);
            if topology.is_distributed() {
                MuxSpec::distributed(span, tech).drive_energy_pj(tech)
            } else {
                MuxSpec::shared(span, tech).drive_energy_pj(tech)
            }
        };
        MuxEnergy {
            int_alu: drive(FuKind::IntAlu),
            int_mul: drive(FuKind::IntMulDiv),
            fp_alu: drive(FuKind::FpAdd),
            fp_mul: drive(FuKind::FpMulDiv),
        }
    }

    /// `(component, pJ)` for one issued instruction of class `op`.
    pub(crate) fn event(&self, op: OpClass) -> (Component, f64) {
        match op.fu_kind() {
            FuKind::IntAlu => (Component::MuxIntAlu, self.int_alu),
            FuKind::IntMulDiv => (Component::MuxIntMul, self.int_mul),
            FuKind::FpAdd => (Component::MuxFpAlu, self.fp_alu),
            FuKind::FpMulDiv => (Component::MuxFpMul, self.fp_mul),
        }
    }
}

/// Per-event energies of the conventional CAM/RAM issue queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CamEnergy {
    /// Tag-line drive across one bank (both operand comparator columns).
    pub bank_broadcast: f64,
    /// One entry's match-line evaluation.
    pub matchline: f64,
    /// Payload write at dispatch (banked RAM).
    pub entry_write: f64,
    /// Payload read at issue.
    pub entry_read: f64,
    /// Selection-tree energy per active candidate.
    pub select: SelectSpec,
    /// Per-cycle retention energy of one powered bank (only the adaptive
    /// bank-gating scheme charges this; the static CAM ignores it).
    pub bank_idle: f64,
    pub mux: MuxEnergy,
}

impl CamEnergy {
    pub(crate) fn new(
        entries: usize,
        banks: usize,
        topology: &FuTopology,
        tech: &TechParams,
    ) -> Self {
        let bank_entries = entries.div_ceil(banks.max(1));
        let cam = CamSpec {
            entries: bank_entries,
            // Each entry has comparators for both operands: the broadcast
            // drives both tag columns.
            tag_bits: 2 * TAG_BITS,
        };
        let payload = RamSpec {
            entries: bank_entries,
            bits: ENTRY_BITS,
            // 8-wide dispatch + 8-wide issue spread over the banks: each
            // bank still needs several ports.
            ports: 4,
        };
        CamEnergy {
            bank_broadcast: cam.broadcast_energy_pj(tech, 0),
            matchline: cam.broadcast_energy_pj(tech, 1) - cam.broadcast_energy_pj(tech, 0),
            entry_write: payload.ported_write_energy_pj(tech),
            entry_read: payload.ported_read_energy_pj(tech),
            select: SelectSpec {
                candidates: entries,
            },
            bank_idle: cam.idle_energy_pj(tech),
            mux: MuxEnergy::new(topology, tech),
        }
    }
}

/// Per-event energies of the FIFO-based schemes (also MixBUFF's integer
/// side).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FifoEnergy {
    /// One steering-table (Qrename) read.
    pub qrename_read: f64,
    /// One steering-table write.
    pub qrename_write: f64,
    /// One FIFO entry write (dispatch).
    pub fifo_write: f64,
    /// One FIFO entry read (issue).
    pub fifo_read: f64,
    /// One ready-bit read (head check, per operand).
    pub regs_ready_read: f64,
    /// One ready-bit write (result).
    pub regs_ready_write: f64,
    pub mux: MuxEnergy,
}

impl FifoEnergy {
    pub(crate) fn new(
        queue_entries: usize,
        n_queues: usize,
        topology: &FuTopology,
        tech: &TechParams,
    ) -> Self {
        // The ready-bit scoreboard is sized by the paper's Table 1 register
        // file (160 per class), as its power model was.
        let phys_regs = diq_isa::TABLE1_REGISTERS;
        // Steering table: one entry per architectural register, holding a
        // queue id (and for MixBUFF a chain id — one extra bit rounds it).
        let qrename = RamSpec {
            entries: diq_isa::ARCH_REGS_PER_CLASS,
            bits: (n_queues.max(2)).ilog2() as usize + 4,
            ports: 4,
        };
        let fifo = RamSpec {
            entries: queue_entries,
            bits: ENTRY_BITS,
            ports: 2,
        };
        let ready = RamSpec {
            entries: phys_regs,
            bits: 1,
            ports: 2,
        };
        FifoEnergy {
            qrename_read: qrename.ported_read_energy_pj(tech),
            qrename_write: qrename.ported_write_energy_pj(tech),
            fifo_write: fifo.ported_write_energy_pj(tech),
            fifo_read: fifo.ported_read_energy_pj(tech),
            regs_ready_read: ready.ported_read_energy_pj(tech),
            regs_ready_write: ready.ported_write_energy_pj(tech),
            mux: MuxEnergy::new(topology, tech),
        }
    }
}

/// Additional per-event energies of MixBUFF's FP buffers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MixEnergy {
    /// Buffer entry write (dispatch).
    pub buff_write: f64,
    /// Buffer entry read (issue).
    pub buff_read: f64,
    /// Per-queue selection pass (2-bit code ∥ age comparison tree).
    pub select: SelectSpec,
    /// Chain latency table: whole-table read + write, once per cycle per
    /// queue ("Every cycle the entire table is read and written").
    pub chains_cycle: f64,
    /// Latch of the selected instruction.
    pub reg_write: f64,
}

impl MixEnergy {
    pub(crate) fn new(queue_entries: usize, chains_per_queue: usize, tech: &TechParams) -> Self {
        let buff = RamSpec {
            entries: queue_entries,
            bits: ENTRY_BITS,
            ports: 2,
        };
        // Chain latency table: one 5-bit saturating counter per chain
        // (largest latency 20 ⇒ 5 bits).
        let chains = RamSpec {
            entries: chains_per_queue.max(1),
            bits: 5,
            ports: 2,
        };
        let latch = RamSpec {
            entries: 1,
            bits: ENTRY_BITS,
            ports: 1,
        };
        MixEnergy {
            buff_write: buff.ported_write_energy_pj(tech),
            buff_read: buff.ported_read_energy_pj(tech),
            select: SelectSpec {
                candidates: queue_entries,
            },
            chains_cycle: chains.ported_read_energy_pj(tech) + chains.ported_write_energy_pj(tech),
            reg_write: latch.write_energy_pj(tech),
        }
    }
}

/// The energy adds of one quiescent cycle, for charging the cycles the
/// pipeline skips ([`Scheduler::idle_until`](crate::Scheduler::idle_until)).
///
/// Replay repeats the adds one by one, cycle after cycle, in the order the
/// cycle made them. Floating-point addition is not associative, so adding
/// `k × x` once would not be bit-equal to adding `x` k times; replaying is.
/// Each component is a separate sum, so only the order *within* a
/// component matters: the adds are kept in one lane per component and
/// each lane replays into its own running sum
/// ([`EnergyMeter::add_cycles`]). Lanes are sized at construction, so the
/// idle path never allocates.
#[derive(Clone, Debug)]
pub(crate) struct IdleCharge {
    lanes: Vec<(Component, Vec<f64>)>,
}

impl IdleCharge {
    /// Lanes for the components an idle cycle of the scheme charges, each
    /// with room for its most adds per cycle.
    pub(crate) fn new(lanes: &[(Component, usize)]) -> Self {
        IdleCharge {
            lanes: lanes
                .iter()
                .map(|&(c, adds)| (c, Vec::with_capacity(adds)))
                .collect(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.lanes.iter_mut().for_each(|(_, adds)| adds.clear());
    }

    /// Appends one add of the idle cycle, in the cycle's own order. A zero
    /// add is dropped: the sums are never negative, and `x + 0.0 == x`
    /// for every `x >= +0.0`.
    pub(crate) fn push(&mut self, component: Component, pj: f64) {
        if pj == 0.0 {
            return;
        }
        let (_, adds) = self
            .lanes
            .iter_mut()
            .find(|(c, _)| *c == component)
            .expect("idle-charge lane declared at construction");
        adds.push(pj);
    }

    /// The add `EnergyMeter::add_events(component, events, pj)` makes.
    pub(crate) fn push_events(&mut self, component: Component, events: u64, pj: f64) {
        self.push(component, events as f64 * pj);
    }

    /// One cycle's head polls of a FIFO array, as the selection pass
    /// charges them: a `regs_ready` read per present operand of every
    /// unheld head.
    pub(crate) fn push_head_polls(
        &mut self,
        heads: impl Iterator<Item = (usize, Entry)>,
        em: &FifoEnergy,
    ) {
        for (_, e) in heads {
            self.push_events(Component::RegsReady, e.nsrc(), em.regs_ready_read);
        }
    }

    /// The steering-table reads a FIFO-steered scheme charges for a
    /// dispatch attempt of `d` — made even when `d` is rejected, since the
    /// table is read during rename.
    pub(crate) fn push_steering_reads(&mut self, d: &DispatchInst, em: &[FifoEnergy; 2]) {
        let reads = d.src_arch.iter().flatten().count() as u64;
        self.push_events(Component::Qrename, reads, em[d.side().index()].qrename_read);
    }

    /// Charges `cycles` more copies of the recorded cycle to `meter`.
    pub(crate) fn replay(&self, meter: &mut EnergyMeter, cycles: u64) {
        for (component, adds) in &self.lanes {
            if !adds.is_empty() {
                meter.add_cycles(*component, adds, cycles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_isa::FuPoolConfig;

    fn tech() -> TechParams {
        TechParams::um100()
    }

    fn shared() -> FuTopology {
        FuTopology::Shared {
            pool: FuPoolConfig::default(),
        }
    }

    #[test]
    fn cam_wakeup_per_result_exceeds_fifo_bookkeeping() {
        let t = tech();
        let cam = CamEnergy::new(64, 8, &shared(), &t);
        let fifo = FifoEnergy::new(8, 8, &shared(), &t);
        // One result broadcast across 8 banks with ~16 unready operands
        // listening, versus one ready-bit write.
        let wakeup = 8.0 * cam.bank_broadcast + 16.0 * cam.matchline;
        assert!(
            wakeup > 4.0 * fifo.regs_ready_write,
            "wakeup {wakeup} vs ready write {}",
            fifo.regs_ready_write
        );
    }

    #[test]
    fn distributed_mux_is_negligible() {
        let t = tech();
        let shared_mux = MuxEnergy::new(&shared(), &t);
        let distr_mux = MuxEnergy::new(
            &FuTopology::Distributed {
                int_queues: 8,
                fp_queues: 8,
            },
            &t,
        );
        let (_, s) = shared_mux.event(OpClass::IntAlu);
        let (_, d) = distr_mux.event(OpClass::IntAlu);
        assert!(s > 20.0 * d);
    }

    #[test]
    fn chains_table_is_cheap() {
        let t = tech();
        let mix = MixEnergy::new(16, 8, &t);
        assert!(mix.chains_cycle < mix.buff_write);
    }
}
