//! Property tests of the substrate data structures: caches, BTB, the
//! load/store queue, issue-time estimation, selection keys, and the
//! statistics helpers.

use diq::branch::Btb;
use diq::isa::{ArchReg, CacheGeometry, Cycle, Inst, InstId, LatencyConfig};
use diq::mem::Cache;
use diq::pipeline::{LoadAction, Lsq};
use diq::sched::select::{selection_key, LatencyCode};
use diq::sched::IssueTimeEstimator;
use diq::stats::{harmonic_mean, Histogram};
use proptest::prelude::*;

/// The test's own view of one LSQ entry, in program order.
struct LsqModel {
    id: InstId,
    seq: u64,
    store: bool,
    addr_done: bool,
    data_ready: bool,
    started: bool,
}

impl LsqModel {
    /// Whether commit may retire it (the simulator's completion rule).
    fn done(&self) -> bool {
        if self.store {
            self.addr_done && self.data_ready
        } else {
            self.started
        }
    }
}

/// Applies one random operation through the position API. `kind` picks the
/// operation, `pick` the entry it applies to (ignored when none qualifies).
fn lsq_step(
    lsq: &mut Lsq,
    model: &mut Vec<LsqModel>,
    next_id: &mut u64,
    forwards: &mut u64,
    (kind, pick, flag, addr): (u8, usize, bool, u8),
) {
    let nth = |model: &[LsqModel], want: &dyn Fn(&LsqModel) -> bool| {
        let hits: Vec<usize> = (0..model.len()).filter(|&i| want(&model[i])).collect();
        (!hits.is_empty()).then(|| hits[pick % hits.len()])
    };
    match kind {
        0 | 1 => {
            let id = InstId(*next_id);
            *next_id += 1 + (pick % 3) as u64;
            // Four addresses over two dwords: most accesses alias.
            let seq = lsq.push(id, flag, 0x100 + u64::from(addr % 4) * 4);
            model.push(LsqModel {
                id,
                seq,
                store: flag,
                addr_done: false,
                data_ready: false,
                started: false,
            });
        }
        2 => {
            if let Some(i) = nth(model, &|e| e.store && !e.addr_done) {
                lsq.store_addr_done(model[i].seq);
                model[i].addr_done = true;
            }
        }
        3 => {
            if let Some(i) = nth(model, &|e| e.store && !e.data_ready) {
                lsq.store_data_ready(model[i].seq);
                model[i].data_ready = true;
            }
        }
        4 => {
            if let Some(i) = nth(model, &|e| !e.store && !e.addr_done) {
                lsq.load_addr_done(model[i].seq);
                model[i].addr_done = true;
            }
        }
        5 => {
            let ready = |e: &LsqModel| {
                !e.store && e.addr_done && !e.started && lsq.load_action(e.id) != LoadAction::Wait
            };
            if let Some(i) = nth(model, &ready) {
                let forwarded = lsq.load_action(model[i].id) == LoadAction::Forward;
                lsq.load_started(model[i].seq, forwarded);
                model[i].started = true;
                *forwards += u64::from(forwarded);
            }
        }
        6 => {
            if model.first().is_some_and(LsqModel::done) {
                lsq.pop(model.remove(0).id);
            }
        }
        _ => {
            // Wrong-path squash: ids rewind, so the next pushes reuse them.
            if let Some(i) = nth(model, &|_| true) {
                let from = model[i].id;
                lsq.squash(from);
                model.truncate(i);
                *next_id = from.0;
            }
        }
    }
}

proptest! {
    /// Random push, address-done, data-ready, load-started, pop and squash
    /// sequences through the position API: after every step the cached
    /// merge walk equals the per-load `load_action` scan, and the queue
    /// holds exactly the model's entries and pending loads.
    #[test]
    fn lsq_merge_walk_matches_the_scan_oracle(
        ops in proptest::collection::vec((0u8..8, 0usize..64, any::<bool>(), any::<u8>()), 1..160)
    ) {
        let mut lsq = Lsq::new();
        let mut model = Vec::new();
        let (mut next_id, mut forwards) = (0, 0);
        let mut actions = Vec::new();
        for op in ops {
            lsq_step(&mut lsq, &mut model, &mut next_id, &mut forwards, op);
            let pending: Vec<InstId> = model
                .iter()
                .filter(|e| !e.store && e.addr_done && !e.started)
                .map(|e| e.id)
                .collect();
            prop_assert_eq!(lsq.pending_loads(), pending.clone());
            let expected: Vec<(InstId, LoadAction)> = pending
                .iter()
                .map(|&id| (id, lsq.load_action(id)))
                .filter(|&(_, a)| a != LoadAction::Wait)
                .collect();
            lsq.pending_load_actions_into(&mut actions);
            prop_assert_eq!(&actions, &expected, "after {:?}", op);
            // A second call is served from the cache and must not drift.
            lsq.pending_load_actions_into(&mut actions);
            prop_assert_eq!(&actions, &expected, "cached, after {:?}", op);
            prop_assert_eq!(lsq.len(), model.len());
            prop_assert_eq!(lsq.forwards, forwards);
        }
    }

    /// A cache hit is guaranteed immediately after an access to the same
    /// line, regardless of the access history.
    #[test]
    fn cache_hits_after_fill(addrs in proptest::collection::vec(0u64..1 << 16, 1..200)) {
        let mut c = Cache::new(CacheGeometry {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 32,
            latency: 1,
            ports: 0,
        });
        for &a in &addrs {
            let _ = c.access(a);
            prop_assert!(c.probe(a), "line just filled must be resident");
            prop_assert!(c.access(a), "re-access must hit");
        }
        prop_assert_eq!(c.stats().accesses, 2 * addrs.len() as u64);
    }

    /// LRU never evicts the most recently used line.
    #[test]
    fn cache_mru_survives(next in 0u64..1 << 14, hot in 0u64..1 << 14) {
        let mut c = Cache::new(CacheGeometry {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 32,
            latency: 1,
            ports: 0,
        });
        c.access(hot);
        c.access(next);
        c.access(hot); // hot is MRU now
        c.access(next ^ 0x1000); // may evict something — never `hot`'s line?
        // `hot` can only be evicted if the new access mapped to its set and
        // the set held {hot, other} with hot LRU — impossible: hot is MRU.
        prop_assert!(c.probe(hot));
    }

    /// The BTB returns exactly what was last stored per PC.
    #[test]
    fn btb_last_write_wins(ops in proptest::collection::vec((0u64..4096, 0u64..1 << 20), 1..128)) {
        let mut btb = Btb::new(64, 4);
        let mut last = std::collections::HashMap::new();
        for &(pc, target) in &ops {
            btb.update(pc, target);
            last.insert(pc, target);
            // Whatever the eviction pattern, a present entry must be the
            // most recent value for that pc.
            if let Some(t) = btb.lookup(pc) {
                prop_assert_eq!(t, *last.get(&pc).unwrap());
            }
        }
    }

    /// The issue-time estimator is monotone: an instruction never gets an
    /// estimate earlier than `now + 1`, and a consumer's estimate is never
    /// earlier than its producer's completion estimate.
    #[test]
    fn estimator_respects_dependences(lat_seed in 0u64..3, now in 0u64..1000u64) {
        let lat = LatencyConfig::default();
        let mut est = IssueTimeEstimator::new(lat, 2 + lat_seed);
        let producer = Inst::fp_mul(ArchReg::fp(1), ArchReg::fp(2), ArchReg::fp(3));
        let p_issue = est.estimate(&producer, now);
        prop_assert!(p_issue > now);
        let p_done: Cycle = est.operand_cycle(ArchReg::fp(1));
        prop_assert_eq!(p_done, p_issue + lat.fp_mul);
        let consumer = Inst::fp_add(ArchReg::fp(4), ArchReg::fp(1), ArchReg::fp(1));
        let c_issue = est.estimate(&consumer, now);
        prop_assert!(c_issue >= p_done, "consumer {c_issue} before producer done {p_done}");
    }

    /// Selection keys: the 2-bit class always dominates age, and within a
    /// class, age orders.
    #[test]
    fn selection_key_ordering(age_a in 0u64..1 << 40, age_b in 0u64..1 << 40) {
        let fresh = selection_key(LatencyCode::FinishingNow, age_a.max(age_b));
        let delayed = selection_key(LatencyCode::Finished, age_a.min(age_b));
        prop_assert!(fresh < delayed, "freshly-ready must beat delayed regardless of age");
        if age_a != age_b {
            let older = selection_key(LatencyCode::Finished, age_a.min(age_b));
            let younger = selection_key(LatencyCode::Finished, age_a.max(age_b));
            prop_assert!(older < younger);
        }
    }

    /// Histogram totals are conserved and the mean is exact.
    #[test]
    fn histogram_conserves(samples in proptest::collection::vec(0u64..500, 1..100)) {
        let mut h = Histogram::new(64);
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let expect = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((h.mean() - expect).abs() < 1e-9);
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
    }

    /// The harmonic mean is bounded by min and max of its inputs.
    #[test]
    fn harmonic_mean_bounds(xs in proptest::collection::vec(0.01f64..100.0, 1..30)) {
        let hm = harmonic_mean(xs.iter().copied()).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(hm >= lo - 1e-9 && hm <= hi + 1e-9);
    }
}
