//! Load/store queue: program-order memory disambiguation with
//! store-to-load forwarding.
//!
//! Loads are split into address generation (issued by the scheduler onto an
//! integer ALU) and the memory access, which may start only once every
//! older store's address is known — the conservative policy the paper's
//! `AllStoreAddr` estimation mirrors. A load whose address matches an older
//! store forwards the store's data instead of accessing the cache.
//!
//! [`Lsq::push`] hands back the entry's sequence number, and the per-entry
//! updates take it: entries are allocated and retired in program order, so
//! an entry sits at `seq - base` in the queue and its store-mirror copy at
//! `store - store_base`, and no update searches.

use diq_isa::InstId;
use std::collections::VecDeque;

/// Word granularity used for matching (8-byte aligned, as the synthetic
/// traces issue 8-byte accesses).
fn dword(addr: u64) -> u64 {
    addr >> 3
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemState {
    /// Waiting for issue / address generation.
    WaitAddr,
    /// (Loads) address known; waiting for disambiguation, a port, or data.
    WaitMem,
    /// Access in flight or complete.
    Done,
}

#[derive(Clone, Copy, Debug)]
struct LsqEntry {
    id: InstId,
    is_store: bool,
    addr: u64,
    state: MemState,
    /// Store address generation finished (younger loads may disambiguate).
    addr_known: bool,
    /// Store data value available (younger loads may forward).
    data_ready: bool,
    /// (Stores) sequence number in the store mirror.
    store: u64,
}

/// A store's disambiguation-relevant state, mirrored from its entry so the
/// per-cycle load scan touches stores only (not every queue entry).
#[derive(Clone, Copy, Debug)]
struct StoreInfo {
    id: InstId,
    dw: u64,
    addr_known: bool,
    data_ready: bool,
}

/// The load/store queue.
#[derive(Clone, Debug, Default)]
pub struct Lsq {
    entries: VecDeque<LsqEntry>,
    /// Sequence number of `entries[0]`.
    base: u64,
    /// Stores still in the queue, program order (mirror of `entries`).
    stores: VecDeque<StoreInfo>,
    /// Store-mirror sequence number of `stores[0]`.
    store_base: u64,
    /// Loads in the memory phase `(id, dword)`, program order.
    pending: Vec<(InstId, u64)>,
    /// Per-cycle scratch: `dword -> all matching older stores data-ready`.
    match_scratch: Vec<(u64, bool)>,
    /// Cached non-`Wait` actions for the current queue state; valid while
    /// `actions_dirty` is false. Disambiguation outcomes only change when
    /// an entry changes state, which is a per-instruction event — stalled
    /// cycles reuse the cache instead of re-walking the queue.
    cached_actions: Vec<(InstId, LoadAction)>,
    actions_dirty: bool,
    /// Forwarding statistics.
    pub forwards: u64,
}

/// What a load in the memory phase should do this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadAction {
    /// Blocked: an older store's address is unknown, or a matching older
    /// store's data is not complete yet.
    Wait,
    /// Forward from a completed matching store: result next cycle, no cache
    /// access.
    Forward,
    /// Access the data cache.
    Access,
}

impl Lsq {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `capacity` in-flight memory
    /// operations reserved up front, so queue growth and the per-cycle
    /// scratch never allocate mid-run (the in-flight window bounds all of
    /// them).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Lsq {
            entries: VecDeque::with_capacity(capacity),
            stores: VecDeque::with_capacity(capacity),
            pending: Vec::with_capacity(capacity),
            match_scratch: Vec::with_capacity(capacity),
            cached_actions: Vec::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// Allocates an entry at dispatch (program order) and returns its
    /// sequence number, the handle the per-entry updates take.
    pub fn push(&mut self, id: InstId, is_store: bool, addr: u64) -> u64 {
        let seq = self.base + self.entries.len() as u64;
        let store = self.store_base + self.stores.len() as u64;
        self.entries.push_back(LsqEntry {
            id,
            is_store,
            addr,
            state: MemState::WaitAddr,
            addr_known: false,
            data_ready: false,
            store,
        });
        self.actions_dirty = true;
        if is_store {
            self.stores.push_back(StoreInfo {
                id,
                dw: dword(addr),
                addr_known: false,
                data_ready: false,
            });
        }
        seq
    }

    /// The entry `push` numbered `seq`. A number that no live entry has —
    /// already popped or squashed, or the pipeline's no-entry sentinel —
    /// lands outside the queue and panics.
    fn entry_mut(&mut self, seq: u64) -> &mut LsqEntry {
        &mut self.entries[(seq - self.base) as usize]
    }

    fn store_mut(&mut self, store: u64) -> &mut StoreInfo {
        &mut self.stores[(store - self.store_base) as usize]
    }

    /// A store finished address generation: younger loads can disambiguate
    /// against it.
    pub fn store_addr_done(&mut self, seq: u64) {
        let e = self.entry_mut(seq);
        debug_assert!(e.is_store);
        e.addr_known = true;
        if e.data_ready {
            e.state = MemState::Done;
        }
        let store = e.store;
        self.store_mut(store).addr_known = true;
        self.actions_dirty = true;
    }

    /// A store's data value became available: younger matching loads can
    /// forward from it.
    pub fn store_data_ready(&mut self, seq: u64) {
        let e = self.entry_mut(seq);
        debug_assert!(e.is_store);
        e.data_ready = true;
        if e.addr_known {
            e.state = MemState::Done;
        }
        let store = e.store;
        self.store_mut(store).data_ready = true;
        self.actions_dirty = true;
    }

    /// A load finished address generation: it enters the memory phase.
    pub fn load_addr_done(&mut self, seq: u64) {
        let e = self.entry_mut(seq);
        debug_assert!(!e.is_store);
        e.state = MemState::WaitMem;
        let (id, dw) = (e.id, dword(e.addr));
        let pos = self.pending.partition_point(|&(pid, _)| pid < id);
        self.pending.insert(pos, (id, dw));
        self.actions_dirty = true;
    }

    /// Loads currently in the memory phase, oldest first.
    #[must_use]
    pub fn pending_loads(&self) -> Vec<InstId> {
        self.pending.iter().map(|&(id, _)| id).collect()
    }

    /// Decides what load `id` may do this cycle, by scanning every older
    /// queue entry — the straightforward reference form of the
    /// disambiguation rules. The simulator uses the equivalent (and much
    /// cheaper) [`pending_load_actions_into`](Self::pending_load_actions_into);
    /// unit tests below and a property test (`tests/proptest_structures.rs`)
    /// assert the two agree, so keep them in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a load in the memory phase.
    #[must_use]
    pub fn load_action(&self, id: InstId) -> LoadAction {
        let pos = self
            .entries
            .iter()
            .position(|e| e.id == id)
            .expect("load in LSQ");
        let load = &self.entries[pos];
        assert!(!load.is_store && load.state == MemState::WaitMem);
        let mut forward = false;
        for e in self.entries.iter().take(pos) {
            if !e.is_store {
                continue;
            }
            if !e.addr_known {
                // Unknown older store address: conservative wait.
                return LoadAction::Wait;
            }
            if dword(e.addr) == dword(load.addr) {
                if !e.data_ready {
                    // The matching store's value does not exist yet.
                    return LoadAction::Wait;
                }
                forward = true; // youngest older match wins; keep scanning
            }
        }
        if forward {
            LoadAction::Forward
        } else {
            LoadAction::Access
        }
    }

    /// Marks a load's access as started (it will complete via the event
    /// queue) and counts forwarding.
    pub fn load_started(&mut self, seq: u64, forwarded: bool) {
        if forwarded {
            self.forwards += 1;
        }
        let e = self.entry_mut(seq);
        e.state = MemState::Done;
        let id = e.id;
        let pos = self.pending.partition_point(|&(pid, _)| pid < id);
        debug_assert_eq!(self.pending.get(pos).map(|&(pid, _)| pid), Some(id));
        self.pending.remove(pos);
        self.actions_dirty = true;
    }

    /// Wrong-path squash: removes every entry with `id >= from` (a suffix —
    /// entries are pushed in program order) from the queue, the store
    /// mirror, and the pending-load set. Forwarding that already happened
    /// to/from wrong-path entries stays counted: the speculative work was
    /// really performed.
    pub fn squash(&mut self, from: InstId) {
        while self.entries.back().is_some_and(|e| e.id >= from) {
            self.entries.pop_back();
        }
        while self.stores.back().is_some_and(|s| s.id >= from) {
            self.stores.pop_back();
        }
        self.pending.retain(|&(id, _)| id < from);
        self.actions_dirty = true;
    }

    /// Removes the (oldest) entry at commit.
    pub fn pop(&mut self, id: InstId) {
        debug_assert_eq!(self.entries.front().map(|e| e.id), Some(id));
        let e = self.entries.pop_front().expect("LSQ entry at commit");
        self.base += 1;
        if e.is_store {
            debug_assert_eq!(self.stores.front().map(|s| s.id), Some(id));
            self.stores.pop_front();
            self.store_base += 1;
            self.actions_dirty = true;
        }
    }

    /// This cycle's `Forward`/`Access` actions (loads that can do work —
    /// `Wait`s are omitted), oldest first, into a reused buffer (cleared
    /// first).
    ///
    /// Equivalent to calling [`load_action`](Self::load_action) per pending
    /// load, but computed in one merge walk over the pending loads and the
    /// store mirror — O(loads + stores) instead of O(loads x queue length)
    /// — and cached across cycles: outcomes only change when an entry
    /// changes state, so stalled cycles cost O(actionable loads).
    pub fn pending_load_actions_into(&mut self, out: &mut Vec<(InstId, LoadAction)>) {
        out.clear();
        if !self.actions_dirty && self.cached_actions.is_empty() {
            return;
        }
        if self.actions_dirty {
            self.recompute_actions();
            self.actions_dirty = false;
        }
        out.extend_from_slice(&self.cached_actions);
    }

    fn recompute_actions(&mut self) {
        self.cached_actions.clear();
        if self.pending.is_empty() {
            return;
        }
        self.match_scratch.clear();
        let mut unknown = false;
        let mut si = 0;
        for &(lid, ldw) in &self.pending {
            // Fold in stores older than this load: one pass total, since
            // both lists are in program order. Once an unknown store
            // address is crossed, every younger load waits — stop early.
            while si < self.stores.len() && self.stores[si].id < lid {
                let st = self.stores[si];
                if !st.addr_known {
                    unknown = true;
                    break;
                }
                match self.match_scratch.iter_mut().find(|(dw, _)| *dw == st.dw) {
                    Some((_, all_ready)) => *all_ready &= st.data_ready,
                    None => self.match_scratch.push((st.dw, st.data_ready)),
                }
                si += 1;
            }
            if unknown {
                // An older store's address is unknown: conservative wait
                // for this and every younger load.
                break;
            }
            match self
                .match_scratch
                .iter()
                .find(|&&(dw, _)| dw == ldw)
                .map(|&(_, all_ready)| all_ready)
            {
                // A matching older store with its value: forward. Any
                // matching older store still missing its value: wait.
                Some(true) => self.cached_actions.push((lid, LoadAction::Forward)),
                Some(false) => {}
                None => self.cached_actions.push((lid, LoadAction::Access)),
            }
        }
    }

    /// Live entries (diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_waits_for_older_store_address() {
        let mut lsq = Lsq::new();
        let st = lsq.push(InstId(1), true, 0x100);
        let ld = lsq.push(InstId(2), false, 0x200);
        lsq.load_addr_done(ld);
        assert_eq!(lsq.load_action(InstId(2)), LoadAction::Wait);
        lsq.store_addr_done(st);
        assert_eq!(lsq.load_action(InstId(2)), LoadAction::Access);
    }

    #[test]
    fn matching_store_forwards() {
        let mut lsq = Lsq::new();
        let st = lsq.push(InstId(1), true, 0x100);
        let ld = lsq.push(InstId(2), false, 0x100);
        lsq.store_addr_done(st);
        lsq.load_addr_done(ld);
        // Address known but data still pending: the load must wait…
        assert_eq!(lsq.load_action(InstId(2)), LoadAction::Wait);
        lsq.store_data_ready(st);
        // …then forward once the value exists.
        assert_eq!(lsq.load_action(InstId(2)), LoadAction::Forward);
        lsq.load_started(ld, true);
        assert_eq!(lsq.forwards, 1);
    }

    #[test]
    fn younger_stores_do_not_affect_loads() {
        let mut lsq = Lsq::new();
        let ld = lsq.push(InstId(1), false, 0x100);
        lsq.push(InstId(2), true, 0x100); // younger store
        lsq.load_addr_done(ld);
        assert_eq!(lsq.load_action(InstId(1)), LoadAction::Access);
    }

    #[test]
    fn word_granularity_matching() {
        let mut lsq = Lsq::new();
        let st = lsq.push(InstId(1), true, 0x100);
        let same = lsq.push(InstId(2), false, 0x104); // same 8-byte word
        let next = lsq.push(InstId(3), false, 0x108); // next word
        lsq.store_addr_done(st);
        lsq.store_data_ready(st);
        lsq.load_addr_done(same);
        lsq.load_addr_done(next);
        assert_eq!(lsq.load_action(InstId(2)), LoadAction::Forward);
        assert_eq!(lsq.load_action(InstId(3)), LoadAction::Access);
    }

    #[test]
    fn commit_pops_in_order() {
        let mut lsq = Lsq::new();
        let st = lsq.push(InstId(1), true, 0x100);
        let ld = lsq.push(InstId(2), false, 0x200);
        lsq.store_addr_done(st);
        lsq.store_data_ready(st);
        lsq.pop(InstId(1));
        assert_eq!(lsq.len(), 1);
        // A handle taken before the pop still names its entry.
        let st2 = lsq.push(InstId(3), true, 0x200);
        lsq.load_addr_done(ld);
        assert_eq!(lsq.load_action(InstId(2)), LoadAction::Access);
        lsq.store_addr_done(st2);
        assert_eq!(lsq.load_action(InstId(2)), LoadAction::Access);
    }

    #[test]
    fn pending_loads_in_program_order() {
        let mut lsq = Lsq::new();
        let a = lsq.push(InstId(3), false, 0x1);
        let b = lsq.push(InstId(5), false, 0x2);
        lsq.load_addr_done(b);
        lsq.load_addr_done(a);
        assert_eq!(lsq.pending_loads(), vec![InstId(3), InstId(5)]);
    }

    #[test]
    #[should_panic(expected = "Out of bounds")]
    fn a_number_no_entry_has_panics_instead_of_updating_another() {
        let mut lsq = Lsq::new();
        lsq.push(InstId(1), true, 0x100);
        // The pipeline's sentinel for instructions without an entry.
        lsq.store_addr_done(u64::MAX);
    }

    /// The per-cycle merge walk must agree with the reference
    /// `load_action` scan: same actions, `Wait`s omitted, program order.
    fn assert_actions_match_reference(lsq: &mut Lsq) {
        let expected: Vec<(InstId, LoadAction)> = lsq
            .pending_loads()
            .into_iter()
            .map(|id| (id, lsq.load_action(id)))
            .filter(|&(_, a)| a != LoadAction::Wait)
            .collect();
        let mut actual = Vec::new();
        lsq.pending_load_actions_into(&mut actual);
        assert_eq!(actual, expected);
    }

    #[test]
    fn merge_walk_matches_reference_scan_through_a_store_lifecycle() {
        let mut lsq = Lsq::new();
        // Stores at two dwords bracketing three loads, plus an aliasing
        // younger store that must not matter.
        let st1 = lsq.push(InstId(1), true, 0x100); // matches load 3
        let st2 = lsq.push(InstId(2), true, 0x200); // unknown addr blocks loads 4, 6
        let ld3 = lsq.push(InstId(3), false, 0x104); // same dword as store 1
        let ld4 = lsq.push(InstId(4), false, 0x300); // independent
        let ld6 = lsq.push(InstId(6), false, 0x200); // matches store 2
        lsq.push(InstId(7), true, 0x300); // younger than every load
        for ld in [ld3, ld4, ld6] {
            lsq.load_addr_done(ld);
        }
        // Store 1 known but unready; store 2 fully unknown: everything
        // after store 1's match check still waits on store 2's address.
        lsq.store_addr_done(st1);
        assert_actions_match_reference(&mut lsq);
        // Store 2's address arrives: load 4 can access, load 6 still waits
        // for store 2's data, load 3 for store 1's.
        lsq.store_addr_done(st2);
        assert_actions_match_reference(&mut lsq);
        let mut actions = Vec::new();
        lsq.pending_load_actions_into(&mut actions);
        assert_eq!(actions, vec![(InstId(4), LoadAction::Access)]);
        // Data arrives: both matched loads forward.
        lsq.store_data_ready(st1);
        lsq.store_data_ready(st2);
        assert_actions_match_reference(&mut lsq);
        let mut actions = Vec::new();
        lsq.pending_load_actions_into(&mut actions);
        assert_eq!(
            actions,
            vec![
                (InstId(3), LoadAction::Forward),
                (InstId(4), LoadAction::Access),
                (InstId(6), LoadAction::Forward),
            ]
        );
    }

    #[test]
    fn any_unready_matching_store_blocks_even_with_a_ready_younger_match() {
        // Two stores to the same dword: the older one has no data yet. The
        // reference scan aborts at the first unready match; the merge
        // walk's all-matches-ready AND must agree (Wait, not Forward).
        let mut lsq = Lsq::new();
        let st1 = lsq.push(InstId(1), true, 0x100);
        let st2 = lsq.push(InstId(2), true, 0x100);
        let ld = lsq.push(InstId(3), false, 0x100);
        lsq.store_addr_done(st1);
        lsq.store_addr_done(st2);
        lsq.store_data_ready(st2);
        lsq.load_addr_done(ld);
        assert_eq!(lsq.load_action(InstId(3)), LoadAction::Wait);
        assert_actions_match_reference(&mut lsq);
        let mut actions = Vec::new();
        lsq.pending_load_actions_into(&mut actions);
        assert!(actions.is_empty(), "blocked load must not surface");
    }

    #[test]
    fn action_cache_invalidates_on_every_state_change() {
        let mut lsq = Lsq::new();
        let st = lsq.push(InstId(1), true, 0x100);
        let ld = lsq.push(InstId(2), false, 0x100);
        lsq.load_addr_done(ld);
        let mut actions = Vec::new();
        // Unknown store address: nothing actionable (and now cached).
        lsq.pending_load_actions_into(&mut actions);
        assert!(actions.is_empty());
        lsq.pending_load_actions_into(&mut actions);
        assert!(actions.is_empty(), "cached answer is stable");
        // Each mutation must be visible through the cache.
        lsq.store_addr_done(st);
        assert_actions_match_reference(&mut lsq);
        lsq.store_data_ready(st);
        lsq.pending_load_actions_into(&mut actions);
        assert_eq!(actions, vec![(InstId(2), LoadAction::Forward)]);
        lsq.load_started(ld, true);
        lsq.pending_load_actions_into(&mut actions);
        assert!(actions.is_empty(), "started load leaves the pending set");
        // Committing the store invalidates too (no stale match survives).
        lsq.pop(InstId(1));
        let ld9 = lsq.push(InstId(9), false, 0x100);
        lsq.load_addr_done(ld9);
        lsq.pending_load_actions_into(&mut actions);
        assert_eq!(actions, vec![(InstId(9), LoadAction::Access)]);
    }
}
