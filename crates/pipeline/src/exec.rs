//! Execution resources: functional-unit state, the per-cycle issue sink,
//! and the completion event queue.

use diq_core::{FuTopology, IssueSink, Side};
use diq_isa::{Cycle, InstId, LatencyConfig, OpClass, PhysReg};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::rename::RenameState;

/// Persistent functional-unit occupancy (unpipelined units block), plus the
/// per-cycle "granted this cycle" scratch flags (reused, not reallocated).
#[derive(Clone, Debug)]
pub(crate) struct FuState {
    busy_until: Vec<Cycle>,
    unit_used: Vec<bool>,
}

impl FuState {
    pub(crate) fn new(topology: &FuTopology) -> Self {
        let units = topology.units().len();
        FuState {
            busy_until: vec![0; units],
            unit_used: vec![false; units],
        }
    }

    /// The earliest cycle `>= from` at which an unpipelined unit that is
    /// busy before `from` frees — when an instruction blocked on it could
    /// issue. `None` if no unit is busy at `from - 1`.
    pub(crate) fn next_free(&self, from: Cycle) -> Option<Cycle> {
        self.busy_until.iter().copied().filter(|&t| t >= from).min()
    }

    /// Resets the per-cycle grant flags.
    fn begin_cycle(&mut self) {
        self.unit_used.fill(false);
    }
}

/// One accepted issue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Issued {
    pub id: InstId,
    pub op: OpClass,
}

/// The per-cycle [`IssueSink`]: enforces per-side issue width and
/// functional-unit availability under the scheme's topology, and records
/// what was accepted into a caller-owned scratch buffer (no per-cycle
/// allocation). Latencies come from the [`LatencyConfig`] held by value —
/// a direct table lookup, not a dynamic call, on the issue hot path.
pub(crate) struct CycleSink<'a> {
    now: Cycle,
    rename: &'a RenameState,
    topology: &'a FuTopology,
    fu: &'a mut FuState,
    width_left: [usize; 2],
    lat: LatencyConfig,
    pub accepted: &'a mut Vec<Issued>,
}

impl<'a> CycleSink<'a> {
    pub(crate) fn new(
        now: Cycle,
        rename: &'a RenameState,
        topology: &'a FuTopology,
        fu: &'a mut FuState,
        width: (usize, usize),
        lat: LatencyConfig,
        accepted: &'a mut Vec<Issued>,
    ) -> Self {
        fu.begin_cycle();
        accepted.clear();
        CycleSink {
            now,
            rename,
            topology,
            fu,
            width_left: [width.0, width.1],
            lat,
            accepted,
        }
    }
}

impl IssueSink for CycleSink<'_> {
    fn is_ready(&self, r: PhysReg) -> bool {
        self.rename.is_ready(r, self.now)
    }

    fn is_spec_ready(&self, r: PhysReg) -> bool {
        self.rename.is_spec(r)
    }

    fn try_issue(&mut self, inst: InstId, op: OpClass, queue: Option<(Side, usize)>) -> bool {
        let side = Side::of(op);
        if self.width_left[side.index()] == 0 {
            return false;
        }
        let reachable = self.topology.reachable_range(op, queue);
        let Some(unit) = reachable
            .into_iter()
            .find(|&u| !self.fu.unit_used[u] && self.fu.busy_until[u] <= self.now)
        else {
            return false;
        };
        self.fu.unit_used[unit] = true;
        if op.is_unpipelined() {
            self.fu.busy_until[unit] = self.now + self.lat.for_op(op);
        }
        self.width_left[side.index()] -= 1;
        self.accepted.push(Issued { id: inst, op });
        true
    }
}

/// Completion-event kinds.
///
/// The derived `Ord` (declaration order) is part of the same-cycle,
/// same-instruction drain order: `SpecMiss` must sort *before* `Complete`
/// so that when a miss is detected the same cycle the line fills (an
/// L2-hit with `l2.latency == 1`), the cancel runs before the true
/// broadcast. The relative order of the three pre-speculation kinds is
/// unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// Load-hit speculation: the access turned out to miss — un-ready the
    /// speculatively woken register and replay its consumers.
    SpecMiss,
    /// Result available / instruction complete.
    Complete,
    /// Branch outcome known (possible fetch redirect).
    BranchResolve,
    /// Load address generation finished: enter the memory phase.
    LoadAddrDone,
    /// Load-hit speculation: broadcast the load's tag at the predicted
    /// L1-hit latency (the access's real outcome is not known yet).
    SpecWakeup,
}

/// The same-cycle drain order `(id, kind, token)` as one integer: the id
/// and kind share the high word (ids stay far below 2^61), the token fills
/// the low word.
fn drain_key(id: InstId, kind: EventKind, token: u64) -> u128 {
    debug_assert!(id.0 < 1 << 61, "instruction id overflows the drain key");
    (u128::from(id.0 << 3 | kind as u64) << 64) | u128::from(token)
}

/// Calendar slots: must exceed the longest completion latency the machine
/// schedules (worst main-memory access); rarer, farther events overflow
/// into a heap.
const WHEEL_SLOTS: usize = 1024;

/// A wheel-slot event node: the event payload plus the index of the next
/// node in the same slot's list (or [`NIL`]). Free nodes reuse `next` to
/// chain the free list.
#[derive(Clone, Copy, Debug)]
struct EventNode {
    id: u64,
    token: u64,
    kind: EventKind,
    next: u32,
}

/// Sentinel "no node" index for [`EventNode::next`] and the slot heads.
const NIL: u32 = u32::MAX;

/// Words of the slot-occupancy bitmap (one bit per wheel slot).
const OCCUPANCY_WORDS: usize = WHEEL_SLOTS / 64;

/// A time-ordered completion event queue.
///
/// Implemented as a calendar wheel: events land in the slot of their due
/// cycle (O(1) schedule), and each simulated cycle drains exactly one slot
/// (O(events) — a per-slot sort restores the global `(cycle, id, kind,
/// token)` order a binary heap would produce; a slot with one event needs
/// none). Events farther out than the wheel go to a small overflow heap.
///
/// Slots are intrusive linked lists over one shared node arena rather than
/// 1024 separate `Vec`s: per-slot vectors each ratchet up to their own
/// all-time peak of "events due in a single cycle", so a long run keeps
/// reallocating as rare spikes set new per-slot records. The arena only
/// grows to the peak number of *live* events — bounded by the in-flight
/// window — after which scheduling allocates nothing (asserted by
/// `tests/alloc_steady_state.rs`). Drain order of a list is
/// insertion-reversed, which is fine: every drained cycle is sorted into
/// `(id, kind, token)` order below.
///
/// Each event carries the dispatch `token` of the instruction it belongs
/// to. A wrong-path squash cannot reach into the wheel to cancel events; it
/// instead truncates the instruction window, and the drain consumer
/// compares the token against the window — a mismatch means the event's
/// instruction was squashed (and its id possibly reissued to a correct-path
/// successor), so the event is dead. Without speculation every token matches and the
/// behaviour is exactly the pre-token queue's.
///
/// A one-bit-per-slot occupancy bitmap makes [`next_at`](Self::next_at) a
/// scan of 16 words rather than of the wheel: the quiescent-cycle
/// fast-forward asks for the next event once per skip.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Head node index per wheel slot ([`NIL`] when the slot is empty).
    heads: Box<[u32; WHEEL_SLOTS]>,
    /// Bit `s` set iff wheel slot `s` holds at least one event.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Shared node arena; grows to the peak live-event count, then stops.
    nodes: Vec<EventNode>,
    /// Head of the intrusive free list threaded through `nodes[..].next`.
    free: u32,
    /// Every event before this cycle has been drained.
    floor: Cycle,
    len: usize,
    overflow: BinaryHeap<Reverse<(Cycle, u64, EventKind, u64)>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            heads: Box::new([NIL; WHEEL_SLOTS]),
            occupied: [0; OCCUPANCY_WORDS],
            nodes: Vec::new(),
            free: NIL,
            floor: 0,
            len: 0,
            overflow: BinaryHeap::new(),
        }
    }
}

impl EventQueue {
    /// A queue whose node arena is pre-sized for `live_events` concurrent
    /// events, so reaching that high-water mark never allocates mid-run.
    /// An issued instruction holds at most two pending events (a speculated
    /// load's wakeup + miss check), so `2 * rob_entries` covers any
    /// schedule — including ones whose issue dynamics keep shifting deep
    /// into a run (adaptive geometry), where the arena would otherwise
    /// ratchet up long after warm-up.
    pub(crate) fn with_capacity(live_events: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(live_events),
            ..Self::default()
        }
    }

    pub(crate) fn schedule(&mut self, at: Cycle, id: InstId, token: u64, kind: EventKind) {
        debug_assert!(at >= self.floor, "event scheduled in the past");
        self.len += 1;
        if (at - self.floor) < WHEEL_SLOTS as u64 {
            let slot = (at as usize) % WHEEL_SLOTS;
            let node = EventNode {
                id: id.0,
                token,
                kind,
                next: self.heads[slot],
            };
            let idx = if self.free == NIL {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let idx = self.free;
                self.free = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            };
            self.heads[slot] = idx;
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.push(Reverse((at, id.0, kind, token)));
        }
    }

    /// Pops every event due at or before `now` into `out` (cleared first),
    /// in `(cycle, id, kind)` order — callers hand back the same scratch
    /// buffer every cycle.
    pub(crate) fn drain_due(&mut self, now: Cycle, out: &mut Vec<(InstId, u64, EventKind)>) {
        out.clear();
        while self.floor <= now {
            let t = self.floor;
            let start = out.len();
            let slot = (t as usize) % WHEEL_SLOTS;
            let mut idx = self.heads[slot];
            self.heads[slot] = NIL;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            while idx != NIL {
                let node = self.nodes[idx as usize];
                out.push((InstId(node.id), node.token, node.kind));
                self.nodes[idx as usize].next = self.free;
                self.free = idx;
                idx = node.next;
            }
            while let Some(&Reverse((at, id, kind, token))) = self.overflow.peek() {
                if at > t {
                    break;
                }
                self.overflow.pop();
                out.push((InstId(id), token, kind));
            }
            if out.len() - start > 1 {
                out[start..].sort_unstable_by_key(|&(id, token, kind)| drain_key(id, kind, token));
            }
            self.floor += 1;
        }
        self.len -= out.len();
    }

    /// Earliest pending event time: the first occupied wheel slot at or
    /// after the floor (a circular scan of the occupancy bitmap), or the
    /// overflow heap's minimum, whichever is sooner.
    pub(crate) fn next_at(&self) -> Option<Cycle> {
        let overflow = self.overflow.peek().map(|Reverse((at, _, _, _))| *at);
        let start = (self.floor as usize) % WHEEL_SLOTS;
        let first = start / 64;
        // The start word masked to slots >= start, every other word, then
        // the start word again masked to slots < start (the wrapped tail).
        let wheel = (0..=OCCUPANCY_WORDS).find_map(|i| {
            let w = (first + i) % OCCUPANCY_WORDS;
            let bits = match i {
                0 => self.occupied[w] & (!0u64 << (start % 64)),
                OCCUPANCY_WORDS => self.occupied[w] & ((1u64 << (start % 64)) - 1),
                _ => self.occupied[w],
            };
            (bits != 0).then(|| {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                self.floor + ((slot + WHEEL_SLOTS - start) % WHEEL_SLOTS) as u64
            })
        });
        match (wheel, overflow) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Moves the floor to `to` without walking the slots in between. The
    /// caller guarantees nothing is due before `to` (`next_at() >= to`), so
    /// every wheel event stays within `[to, to + WHEEL_SLOTS)` and its slot
    /// still names its cycle.
    pub(crate) fn advance_to(&mut self, to: Cycle) {
        debug_assert!(self.next_at().is_none_or(|t| t >= to), "skipped an event");
        self.floor = self.floor.max(to);
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_isa::{FuPoolConfig, ProcessorConfig};

    #[test]
    fn event_queue_orders_by_time() {
        let mut q = EventQueue::default();
        let mut due = Vec::new();
        q.schedule(5, InstId(1), 0, EventKind::Complete);
        q.schedule(3, InstId(2), 0, EventKind::Complete);
        q.drain_due(2, &mut due);
        assert!(due.is_empty());
        q.drain_due(5, &mut due);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].0, InstId(2));
        assert!(q.is_empty());
    }

    /// Same-cycle events drain in `(id, kind, token)` order whatever the
    /// order they were scheduled in, wheel and overflow alike: by id first,
    /// then `SpecMiss` before `Complete` for one id, then by token for
    /// equal `(id, kind)` pairs.
    #[test]
    fn same_cycle_events_drain_in_id_kind_token_order() {
        use EventKind::{BranchResolve, Complete, LoadAddrDone, SpecMiss, SpecWakeup};
        let expected = vec![
            (InstId(3), 0, SpecMiss),
            (InstId(3), 7, Complete),
            (InstId(3), 9, Complete),
            (InstId(4), 2, BranchResolve),
            (InstId(5), 1, LoadAddrDone),
            (InstId(5), 1, SpecWakeup),
            (InstId(1 << 40), 0, Complete),
            (InstId(1 << 40), u64::MAX, Complete),
        ];
        for at in [10, 4_000] {
            let mut q = EventQueue::default();
            for &(id, token, kind) in expected.iter().rev() {
                q.schedule(at, id, token, kind);
            }
            // The next cycle, scheduled out of order.
            q.schedule(at + 1, InstId(9), 5, Complete);
            q.schedule(at + 1, InstId(2), 5, Complete);
            q.schedule(at + 1, InstId(2), 4, Complete);
            let mut due = Vec::new();
            q.drain_due(at, &mut due);
            assert_eq!(due, expected, "due at {at}");
            q.drain_due(at + 1, &mut due);
            assert_eq!(
                due,
                vec![
                    (InstId(2), 4, Complete),
                    (InstId(2), 5, Complete),
                    (InstId(9), 5, Complete),
                ]
            );
            assert!(q.is_empty());
        }
    }

    #[test]
    fn next_at_finds_the_wheel_event_across_wrap_around() {
        let mut q = EventQueue::default();
        let mut due = Vec::new();
        // Floor near the end of the wheel; the event's slot wraps to the
        // front (slot 6 is numerically below the floor's slot 1020).
        q.drain_due(1019, &mut due);
        q.schedule(1030, InstId(1), 0, EventKind::Complete);
        assert_eq!(q.next_at(), Some(1030));
        // A later event further round the wheel (slot 1016) loses.
        q.schedule(2040, InstId(2), 0, EventKind::Complete);
        assert_eq!(q.next_at(), Some(1030));
        q.drain_due(1030, &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(q.next_at(), Some(2040));
        q.drain_due(2040, &mut due);
        assert_eq!(q.next_at(), None);
        // The slot just below the floor's (the last of the lap) is found.
        q.schedule(2041 + 1023, InstId(3), 0, EventKind::Complete);
        assert_eq!(q.next_at(), Some(2041 + 1023));
    }

    #[test]
    fn next_at_sees_an_event_only_in_the_overflow_heap() {
        let mut q = EventQueue::default();
        q.schedule(5_000, InstId(1), 0, EventKind::Complete);
        assert_eq!(q.next_at(), Some(5_000), "beyond the wheel: overflow only");
        let mut due = Vec::new();
        q.drain_due(4_999, &mut due);
        assert!(due.is_empty());
        q.drain_due(5_000, &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn next_at_takes_the_earlier_of_wheel_and_overflow() {
        let mut q = EventQueue::default();
        q.schedule(3_000, InstId(1), 0, EventKind::Complete); // overflow
        q.schedule(700, InstId(2), 0, EventKind::Complete); // wheel
        assert_eq!(q.next_at(), Some(700));
        let mut due = Vec::new();
        q.drain_due(2_500, &mut due);
        assert_eq!(due.len(), 1);
        // Now the overflow event is within a wheel lap but still in the
        // heap, and a later wheel event exists: the heap's wins.
        q.schedule(3_100, InstId(3), 0, EventKind::Complete);
        assert_eq!(q.next_at(), Some(3_000));
    }

    #[test]
    fn advance_to_skips_empty_slots_and_keeps_order() {
        let mut q = EventQueue::default();
        let mut due = Vec::new();
        q.schedule(900, InstId(1), 0, EventKind::Complete);
        q.schedule(1500, InstId(2), 0, EventKind::Complete); // overflow
        q.advance_to(900);
        q.drain_due(900, &mut due);
        assert_eq!(due.len(), 1);
        q.advance_to(1500);
        q.drain_due(1500, &mut due);
        assert_eq!(due, vec![(InstId(2), 0, EventKind::Complete)]);
        assert!(q.is_empty());
    }

    #[test]
    fn sink_enforces_width_and_units() {
        let cfg = ProcessorConfig::hpca2004();
        let rename = RenameState::new(&cfg);
        let topo = FuTopology::Shared {
            pool: FuPoolConfig::default(),
        };
        let mut fu = FuState::new(&topo);
        let mut accepted = Vec::new();
        let mut sink = CycleSink::new(0, &rename, &topo, &mut fu, (2, 8), cfg.lat, &mut accepted);
        assert!(sink.try_issue(InstId(1), OpClass::IntAlu, None));
        assert!(sink.try_issue(InstId(2), OpClass::IntAlu, None));
        // Integer width (2) exhausted.
        assert!(!sink.try_issue(InstId(3), OpClass::IntAlu, None));
        // FP width independent.
        assert!(sink.try_issue(InstId(4), OpClass::FpAdd, None));
    }

    #[test]
    fn unpipelined_divide_blocks_its_unit() {
        let cfg = ProcessorConfig::hpca2004();
        let rename = RenameState::new(&cfg);
        let topo = FuTopology::Distributed {
            int_queues: 2,
            fp_queues: 2,
        };
        let mut fu = FuState::new(&topo);
        let mut accepted = Vec::new();
        {
            let mut sink =
                CycleSink::new(0, &rename, &topo, &mut fu, (8, 8), cfg.lat, &mut accepted);
            assert!(sink.try_issue(InstId(1), OpClass::IntDiv, Some((Side::Int, 0))));
        }
        {
            // Next cycle: queues 0 and 1 share the divider, still busy.
            let mut sink =
                CycleSink::new(1, &rename, &topo, &mut fu, (8, 8), cfg.lat, &mut accepted);
            assert!(!sink.try_issue(InstId(2), OpClass::IntDiv, Some((Side::Int, 1))));
            // But the ALU of queue 1 is free.
            assert!(sink.try_issue(InstId(3), OpClass::IntAlu, Some((Side::Int, 1))));
        }
        {
            // After the 20-cycle divide, the unit frees.
            let mut sink =
                CycleSink::new(20, &rename, &topo, &mut fu, (8, 8), cfg.lat, &mut accepted);
            assert!(sink.try_issue(InstId(4), OpClass::IntDiv, Some((Side::Int, 1))));
        }
    }

    #[test]
    fn pipelined_units_accept_one_per_cycle() {
        let cfg = ProcessorConfig::hpca2004();
        let rename = RenameState::new(&cfg);
        let topo = FuTopology::Distributed {
            int_queues: 2,
            fp_queues: 2,
        };
        let mut fu = FuState::new(&topo);
        let mut accepted = Vec::new();
        let mut sink = CycleSink::new(0, &rename, &topo, &mut fu, (8, 8), cfg.lat, &mut accepted);
        // FP queue pair (0,1) shares one adder: second add this cycle fails.
        assert!(sink.try_issue(InstId(1), OpClass::FpAdd, Some((Side::Fp, 0))));
        assert!(!sink.try_issue(InstId(2), OpClass::FpAdd, Some((Side::Fp, 1))));
        // The pair's multiplier is separate.
        assert!(sink.try_issue(InstId(3), OpClass::FpMul, Some((Side::Fp, 1))));
    }
}
