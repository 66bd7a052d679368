//! Set-associative cache model with true-LRU replacement.
//!
//! Used for both the per-SM L1 data cache and the shared L2 (paper Table I:
//! 16 KB L1/core, 768 KB L2). The model is a tag store only — data never
//! moves, we simulate timing. Write policy is write-through/no-write-allocate
//! for stores (GPGPU-Sim's L1D default for global stores), allocate-on-read
//! for loads.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent (allocated now if a load).
    Miss,
}

/// A set-associative, true-LRU tag store.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`; larger = more recent.
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    line_bytes: u64,
    tick: u64,
    /// Load hits.
    pub hits: u64,
    /// Load misses.
    pub misses: u64,
}

impl Cache {
    /// Build a cache of `bytes` capacity, `ways` associativity and
    /// `line_bytes` lines. Capacity is rounded down to a whole number of
    /// sets; at least one set is always provisioned.
    pub fn new(bytes: u64, ways: u32, line_bytes: u64) -> Self {
        let ways = ways.max(1) as usize;
        let lines = (bytes / line_bytes).max(ways as u64) as usize;
        let sets = (lines / ways).max(1);
        Cache {
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            sets,
            ways,
            line_bytes,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets (for tests).
    pub fn sets(&self) -> usize {
        self.sets
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.sets as u64) as usize
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes / self.sets as u64
    }

    /// Access `addr` as a **load**: returns hit/miss and allocates the line
    /// with LRU replacement on a miss.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.tick;
                self.hits += 1;
                return CacheOutcome::Hit;
            }
        }
        self.misses += 1;
        // Victim = invalid way if any, else LRU.
        let mut victim = 0;
        let mut best = u64::MAX;
        for way in 0..self.ways {
            if self.tags[base + way] == u64::MAX {
                victim = way;
                break;
            }
            if self.stamps[base + way] < best {
                best = self.stamps[base + way];
                victim = way;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.tick;
        CacheOutcome::Miss
    }

    /// Access `addr` as a **store**: write-through, no allocate; updates LRU
    /// on hit. Returns the outcome for bandwidth accounting but does not
    /// count in hit/miss statistics (matching GPGPU-Sim's L1D global-store
    /// handling).
    pub fn access_store(&mut self, addr: u64) -> CacheOutcome {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.tick;
                return CacheOutcome::Hit;
            }
        }
        CacheOutcome::Miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> u64 {
        n * 128
    }

    #[test]
    fn geometry() {
        // 16 KB, 4-way, 128 B lines → 128 lines, 32 sets.
        let c = Cache::new(16 * 1024, 4, 128);
        assert_eq!(c.sets(), 32);
    }

    #[test]
    fn second_access_hits() {
        let mut c = Cache::new(16 * 1024, 4, 128);
        assert_eq!(c.access(line(5)), CacheOutcome::Miss);
        assert_eq!(c.access(line(5)), CacheOutcome::Hit);
        assert_eq!(c.access(line(5) + 64), CacheOutcome::Hit); // same line
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-mapped-to-one-set scenario: 4 ways, addresses all in set 0.
        let mut c = Cache::new(4 * 128, 4, 128); // 1 set, 4 ways
        assert_eq!(c.sets(), 1);
        for i in 0..4 {
            assert_eq!(c.access(line(i)), CacheOutcome::Miss);
        }
        // Touch line 0 to make line 1 the LRU, then insert line 4.
        assert_eq!(c.access(line(0)), CacheOutcome::Hit);
        assert_eq!(c.access(line(4)), CacheOutcome::Miss);
        assert_eq!(c.access(line(1)), CacheOutcome::Miss); // evicted
        assert_eq!(c.access(line(0)), CacheOutcome::Hit); // survived
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(16 * 1024, 4, 128); // 128 lines

        // Stream 256 distinct lines twice: second pass still misses (LRU).
        for pass in 0..2 {
            for i in 0..256u64 {
                let out = c.access(line(i));
                assert_eq!(out, CacheOutcome::Miss, "pass {pass} line {i}");
            }
        }
    }

    #[test]
    fn working_set_that_fits_stops_missing() {
        let mut c = Cache::new(16 * 1024, 4, 128);
        for i in 0..64u64 {
            c.access(line(i));
        }
        let misses_before = c.misses;
        for _ in 0..10 {
            for i in 0..64u64 {
                assert_eq!(c.access(line(i)), CacheOutcome::Hit);
            }
        }
        assert_eq!(c.misses, misses_before);
    }

    #[test]
    fn stores_do_not_allocate() {
        let mut c = Cache::new(16 * 1024, 4, 128);
        assert_eq!(c.access_store(line(9)), CacheOutcome::Miss);
        assert_eq!(c.access(line(9)), CacheOutcome::Miss); // still absent
        assert_eq!(c.access_store(line(9)), CacheOutcome::Hit); // now cached
    }
}
