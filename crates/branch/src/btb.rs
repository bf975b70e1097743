//! Branch target buffer.

/// A set-associative branch target buffer with LRU replacement
/// (Table 1: 2048 entries, 4-way).
///
/// # Example
///
/// ```
/// use diq_branch::Btb;
///
/// let mut btb = Btb::new(2048, 4);
/// assert_eq!(btb.lookup(0x40), None);
/// btb.update(0x40, 0x1000);
/// assert_eq!(btb.lookup(0x40), Some(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    /// `(tag = pc, target)` entries: `assoc` ways per set, set after set,
    /// each set most recent first. Only the first `fill[set]` ways of a
    /// set are valid; every `pc` is a possible tag, so there is no
    /// sentinel.
    ways: Box<[(u64, u64)]>,
    /// Valid ways per set.
    fill: Box<[u32]>,
    assoc: usize,
}

impl Btb {
    /// Builds a BTB with `entries` total entries and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `assoc`, or the set
    /// count is not a power of two.
    #[must_use]
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(assoc > 0 && entries > 0 && entries.is_multiple_of(assoc));
        assert!(u32::try_from(assoc).is_ok());
        let nsets = entries / assoc;
        assert!(
            nsets.is_power_of_two(),
            "BTB set count must be a power of two"
        );
        Btb {
            // Two allocations for the whole buffer, not one per set.
            ways: vec![(0, 0); entries].into_boxed_slice(),
            fill: vec![0; nsets].into_boxed_slice(),
            assoc,
        }
    }

    /// Set index of `pc`, its ways and its valid-way count.
    fn set_mut(&mut self, pc: u64) -> (&mut [(u64, u64)], &mut u32) {
        let idx = ((pc >> 2) as usize) & (self.fill.len() - 1);
        let base = idx * self.assoc;
        (&mut self.ways[base..base + self.assoc], &mut self.fill[idx])
    }

    /// Looks up the predicted target for the branch at `pc`, refreshing LRU
    /// state on a hit.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let (set, fill) = self.set_mut(pc);
        let pos = set[..*fill as usize]
            .iter()
            .position(|&(tag, _)| tag == pc)?;
        let entry = set[pos];
        set.copy_within(..pos, 1);
        set[0] = entry;
        Some(entry.1)
    }

    /// Installs or refreshes the target of the taken branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let (set, fill) = self.set_mut(pc);
        let n = *fill as usize;
        // Every way in front of the refreshed entry — or, on a miss, every
        // valid way, the LRU one falling off a full set — moves back one.
        let shift = match set[..n].iter().position(|&(tag, _)| tag == pc) {
            Some(pos) => pos,
            None if n < set.len() => {
                *fill += 1;
                n
            }
            None => n - 1,
        };
        set.copy_within(..shift, 1);
        set[0] = (pc, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_within_a_set() {
        let mut btb = Btb::new(8, 2); // 4 sets, 2 ways
                                      // Three branches mapping to the same set (stride = 4 * nsets = 16).
        let (a, b, c) = (0x10u64, 0x10 + 16, 0x10 + 32);
        btb.update(a, 1);
        btb.update(b, 2);
        btb.update(c, 3); // evicts a (LRU)
        assert_eq!(btb.lookup(a), None);
        assert_eq!(btb.lookup(b), Some(2));
        assert_eq!(btb.lookup(c), Some(3));
    }

    #[test]
    fn lookup_refreshes_lru() {
        let mut btb = Btb::new(8, 2);
        let (a, b, c) = (0x10u64, 0x10 + 16, 0x10 + 32);
        btb.update(a, 1);
        btb.update(b, 2);
        assert_eq!(btb.lookup(a), Some(1)); // a becomes MRU
        btb.update(c, 3); // evicts b
        assert_eq!(btb.lookup(a), Some(1));
        assert_eq!(btb.lookup(b), None);
    }

    #[test]
    fn update_overwrites_target() {
        let mut btb = Btb::new(8, 2);
        btb.update(0x40, 0x100);
        btb.update(0x40, 0x200);
        assert_eq!(btb.lookup(0x40), Some(0x200));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_geometry() {
        let _ = Btb::new(10, 4);
    }

    /// The nested-`Vec` BTB this one replaced: one `Vec` per set, most
    /// recent first, `remove` + `insert(0)` on a refresh, `pop` on an
    /// eviction.
    struct NestedBtb {
        sets: Vec<Vec<(u64, u64)>>,
        assoc: usize,
    }

    impl NestedBtb {
        fn new(entries: usize, assoc: usize) -> Self {
            NestedBtb {
                sets: vec![Vec::new(); entries / assoc],
                assoc,
            }
        }

        fn set_idx(&self, pc: u64) -> usize {
            ((pc >> 2) as usize) & (self.sets.len() - 1)
        }

        fn lookup(&mut self, pc: u64) -> Option<u64> {
            let idx = self.set_idx(pc);
            let set = &mut self.sets[idx];
            let pos = set.iter().position(|&(tag, _)| tag == pc)?;
            let entry = set.remove(pos);
            set.insert(0, entry);
            Some(entry.1)
        }

        fn update(&mut self, pc: u64, target: u64) {
            let idx = self.set_idx(pc);
            let assoc = self.assoc;
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&(tag, _)| tag == pc) {
                set.remove(pos);
            } else if set.len() == assoc {
                set.pop();
            }
            set.insert(0, (pc, target));
        }
    }

    /// SplitMix64: a seeded stream, so every case is reproducible.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn flat_sets_match_the_nested_vec_lru() {
        for (entries, assoc) in [(8, 1), (16, 2), (64, 8), (8, 8)] {
            for seed in 0..32u64 {
                let mut flat = Btb::new(entries, assoc);
                let mut nested = NestedBtb::new(entries, assoc);
                let mut rng = seed;
                // Word-aligned pcs in a window a few times the capacity,
                // plus pcs and targets at the ends of the u64 range (a
                // zero pc must not hit an empty way).
                let window = 16 * entries as u64;
                for step in 0..2_000 {
                    let r = splitmix(&mut rng);
                    let pc = match r % 16 {
                        0 => u64::MAX - (r >> 60),
                        1 => r >> 60,
                        _ => (r >> 8) % window,
                    };
                    if r & (1 << 7) == 0 {
                        let target = splitmix(&mut rng);
                        flat.update(pc, target);
                        nested.update(pc, target);
                    } else {
                        assert_eq!(
                            flat.lookup(pc),
                            nested.lookup(pc),
                            "{entries}x{assoc} seed {seed} step {step}: lookup {pc:#x}"
                        );
                    }
                }
                for pc in 0..window {
                    assert_eq!(flat.lookup(pc), nested.lookup(pc), "final {pc:#x}");
                }
            }
        }
    }
}
