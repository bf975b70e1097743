//! A set-associative cache with true-LRU replacement.

use diq_isa::CacheGeometry;

/// Hit/miss statistics of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio (0.0 when never accessed).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, true-LRU, write-allocate cache model.
///
/// Only tags are stored — the simulator never needs data values. Every miss
/// fills the line (unlimited MSHRs).
///
/// # Example
///
/// ```
/// use diq_isa::CacheGeometry;
/// use diq_mem::Cache;
///
/// let mut c = Cache::new(CacheGeometry {
///     size_bytes: 1024, assoc: 2, line_bytes: 32, latency: 1, ports: 0,
/// });
/// assert!(!c.access(0x40));      // cold miss
/// assert!(c.access(0x40));       // now a hit
/// assert!(c.access(0x5f));       // same 32-byte line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    /// `assoc` ways per set, set after set, each set most-recently-used
    /// first. Only the first `fill[set]` ways of a set are valid: there is
    /// no sentinel tag, since with 1-byte lines every `u64` is a tag.
    tags: Box<[u64]>,
    /// Valid ways per set.
    fill: Box<[u32]>,
    stats: CacheStats,
    line_shift: u32,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size or set count).
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(geom.line_bytes.is_power_of_two() && geom.line_bytes > 0);
        assert!(geom.assoc > 0 && u32::try_from(geom.assoc).is_ok());
        let sets = geom.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            geom,
            // Two allocations for the whole array, not one per set.
            tags: vec![0; sets * geom.assoc].into_boxed_slice(),
            fill: vec![0; sets].into_boxed_slice(),
            stats: CacheStats::default(),
            line_shift: geom.line_bytes.trailing_zeros(),
        }
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let idx = (line as usize) & (self.fill.len() - 1);
        (idx, line)
    }

    /// The valid ways of set `idx`, MRU first.
    fn set(&self, idx: usize) -> &[u64] {
        let base = idx * self.geom.assoc;
        &self.tags[base..base + self.fill[idx] as usize]
    }

    /// Accesses `addr`: returns `true` on a hit. Misses fill the line,
    /// evicting the LRU way if the set is full.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let (idx, tag) = self.index_and_tag(addr);
        let assoc = self.geom.assoc;
        let n = self.fill[idx] as usize;
        let set = &mut self.tags[idx * assoc..(idx + 1) * assoc];
        // A hit moves its way to the front; a miss shifts every valid way
        // back by one (the LRU way falls off a full set) and fills way 0.
        let (hit, shift) = match set[..n].iter().position(|&t| t == tag) {
            Some(pos) => (true, pos),
            None if n < assoc => {
                self.fill[idx] += 1;
                (false, n)
            }
            None => (false, assoc - 1),
        };
        set.copy_within(..shift, 1);
        set[0] = tag;
        self.stats.hits += u64::from(hit);
        hit
    }

    /// Checks residency without updating LRU state or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        self.set(idx).contains(&tag)
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Geometry this cache was built from.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheGeometry {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 32,
            latency: 1,
            ports: 0,
        }) // 4 sets
    }

    #[test]
    fn line_granularity() {
        let mut c = small();
        assert!(!c.access(0x00));
        assert!(c.access(0x1f)); // same line
        assert!(!c.access(0x20)); // next line
    }

    #[test]
    fn lru_within_set() {
        let mut c = small();
        // 4 sets of 32-byte lines: stride 128 maps to the same set.
        let (a, b, d) = (0x000, 0x080, 0x100);
        c.access(a);
        c.access(b);
        c.access(a); // refresh a
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    /// Miss fills insert at MRU, so under LRU replacement the eviction
    /// order of untouched lines is exactly their fill order.
    #[test]
    fn fills_insert_at_mru_and_evict_in_fill_order() {
        let mut c = small(); // 2-way, 4 sets; stride 128 => same set
        let (a, b, d, e) = (0x000u64, 0x080, 0x100, 0x180);
        assert!(!c.access(a)); // fill a
        assert!(!c.access(b)); // fill b; set order (MRU..LRU) = [b, a]
        assert!(!c.access(d)); // evicts a (the older fill), not b
        assert!(!c.probe(a));
        assert!(c.probe(b));
        assert!(c.probe(d));
        assert!(!c.access(e)); // evicts b next — fill order again
        assert!(!c.probe(b));
        assert!(c.probe(d));
        assert!(c.probe(e));
    }

    /// A hit refreshes recency: after touching the older line, the
    /// *newer-filled but less recently used* line is the eviction victim.
    #[test]
    fn hit_recency_overrides_fill_order() {
        let mut c = small();
        let (a, b, d) = (0x000u64, 0x080, 0x100);
        c.access(a);
        c.access(b); // [b, a]
        assert!(c.access(a)); // hit: [a, b]
        c.access(d); // evicts b, though b was filled after a
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_is_pure() {
        let c = small();
        assert!(!c.probe(0x40));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits never misses after warm-up; one that
        // doesn't fit keeps missing (capacity misses with LRU + cyclic scan).
        let mut c = small(); // 256 bytes
        let fits: Vec<u64> = (0..8).map(|i| i * 32).collect(); // exactly 256 B
        for &a in &fits {
            c.access(a);
        }
        let before = c.stats();
        for &a in &fits {
            assert!(c.access(a), "warm access to {a:#x} should hit");
        }
        assert_eq!(c.stats().hits - before.hits, 8);

        let mut c2 = small();
        let too_big: Vec<u64> = (0..16).map(|i| i * 32).collect(); // 512 B
        for _round in 0..4 {
            for &a in &too_big {
                c2.access(a);
            }
        }
        assert!(
            c2.stats().miss_rate() > 0.9,
            "cyclic scan over 2x capacity should thrash LRU, got {}",
            c2.stats().miss_rate()
        );
    }

    #[test]
    fn miss_rate_of_empty_cache_is_zero() {
        assert_eq!(small().stats().miss_rate(), 0.0);
    }

    /// The nested-`Vec` LRU this cache replaced: one `Vec` per set, MRU
    /// first, `remove` + `insert(0)` on a hit, `pop` + `insert(0)` on a
    /// miss into a full set. The flat cache must agree with it access by
    /// access.
    struct NestedLru {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        line_shift: u32,
        stats: CacheStats,
    }

    impl NestedLru {
        fn new(geom: CacheGeometry) -> Self {
            NestedLru {
                sets: vec![Vec::new(); geom.sets()],
                assoc: geom.assoc,
                line_shift: geom.line_bytes.trailing_zeros(),
                stats: CacheStats::default(),
            }
        }

        fn index_and_tag(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.line_shift;
            ((line as usize) & (self.sets.len() - 1), line)
        }

        fn access(&mut self, addr: u64) -> bool {
            self.stats.accesses += 1;
            let (idx, tag) = self.index_and_tag(addr);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.insert(0, t);
                self.stats.hits += 1;
                true
            } else {
                if set.len() == self.assoc {
                    set.pop();
                }
                set.insert(0, tag);
                false
            }
        }

        fn probe(&self, addr: u64) -> bool {
            let (idx, tag) = self.index_and_tag(addr);
            self.sets[idx].contains(&tag)
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
        let geometries = [
            (64, 1, 8),   // direct-mapped
            (256, 2, 32), // 2-way
            (512, 8, 16), // 8-way
            (16, 8, 1),   // 8-way, 1-byte lines: every u64 is a tag
            (8, 1, 1),    // direct-mapped, 1-byte lines
            (16, 2, 1),   // 2-way, 1-byte lines
        ];
        for (size_bytes, assoc, line_bytes) in geometries {
            let geom = CacheGeometry {
                size_bytes,
                assoc,
                line_bytes,
                latency: 1,
                ports: 0,
            };
            for seed in 0..32u64 {
                let mut flat = Cache::new(geom);
                let mut nested = NestedLru::new(geom);
                let mut rng = seed;
                // Mostly a window a few times the capacity (hits, misses
                // and evictions), with tags at the ends of the u64 range.
                let window = 4 * size_bytes as u64;
                for step in 0..2_000 {
                    let r = splitmix(&mut rng);
                    let addr = match r % 16 {
                        0 => u64::MAX - (r >> 60),
                        1 => r >> 60,
                        2 => r,
                        _ => (r >> 8) % window,
                    };
                    if r & (1 << 7) == 0 {
                        assert_eq!(
                            flat.access(addr),
                            nested.access(addr),
                            "{geom:?} seed {seed} step {step}: access {addr:#x}"
                        );
                    } else {
                        assert_eq!(
                            flat.probe(addr),
                            nested.probe(addr),
                            "{geom:?} seed {seed} step {step}: probe {addr:#x}"
                        );
                    }
                }
                assert_eq!(flat.stats(), nested.stats, "{geom:?} seed {seed}");
            }
        }
    }
}
