//! Set-associative LRU last-level-cache simulator.
//!
//! The paper's Figures 3(b,c), 13, and 14 report hardware LLC counters
//! (misses, misses-per-instruction, bytes swapped into the LLC). We have no
//! hardware counters here, so the engines replay their address streams
//! through this simulator instead. Addresses are synthetic: every buffer is
//! placed in a distinct range by [`crate::addrspace::AddrSpace`], so N
//! private copies of a graph partition (scheme `-C`) conflict in the cache
//! exactly as N distinct physical allocations would, while the single shared
//! copy (scheme `-M`) hits.

/// Geometry of the simulated LLC.
#[derive(Clone, Copy, Debug)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
}

impl LlcConfig {
    /// Number of sets (`capacity / (ways * line)`), at least 1.
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.ways * self.line_bytes)).max(1)
    }

    /// Scaled default matching `graphm_graph::MemoryProfile::DEFAULT`
    /// (not linkable from here — cachesim sits below the graph crate):
    /// 2 MB, 8-way, 64-byte lines.
    pub const DEFAULT: LlcConfig = LlcConfig { capacity_bytes: 2 << 20, ways: 8, line_bytes: 64 };
}

impl Default for LlcConfig {
    fn default() -> Self {
        LlcConfig::DEFAULT
    }
}

/// Counters accumulated by the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LlcStats {
    /// Line-granular accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and filled a line).
    pub misses: u64,
    /// Bytes brought into the cache (`misses * line_bytes`): the paper's
    /// "volume of data swapped into the LLC" (Figure 14).
    pub fill_bytes: u64,
}

impl LlcStats {
    /// Miss rate in `[0, 1]`; 0 for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &LlcStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.fill_bytes += other.fill_bytes;
    }
}

const EMPTY: u64 = u64::MAX;

/// The simulator. Single-writer by design: GraphM's fine-grained
/// synchronization serializes chunk processing across jobs (§3.4.2 —
/// "the jobs are triggered to handle the loaded data in a round-robin
/// way"), so the metric replay is deterministic and needs no locking.
pub struct Llc {
    cfg: LlcConfig,
    sets: usize,
    /// `sets * ways` tags; `EMPTY` marks an invalid way.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
    /// Running counters.
    pub stats: LlcStats,
}

impl Llc {
    /// Creates an empty cache.
    pub fn new(cfg: LlcConfig) -> Llc {
        let sets = cfg.num_sets();
        Llc {
            cfg,
            sets,
            tags: vec![EMPTY; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            tick: 0,
            stats: LlcStats::default(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// Touches the line containing `addr`; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes as u64;
        self.access_line(line)
    }

    /// Touches a specific line number; returns `true` on hit.
    pub fn access_line(&mut self, line: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = (line % self.sets as u64) as usize;
        let base = set * self.cfg.ways;
        let ways = &mut self.tags[base..base + self.cfg.ways];
        // Hit?
        for (w, tag) in ways.iter().enumerate() {
            if *tag == line {
                self.stamps[base + w] = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: fill into the invalid or least-recently-used way.
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for w in 0..self.cfg.ways {
            if self.tags[base + w] == EMPTY {
                victim = w;
                break;
            }
            if self.stamps[base + w] < victim_stamp {
                victim_stamp = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        self.stats.misses += 1;
        self.stats.fill_bytes += self.cfg.line_bytes as u64;
        false
    }

    /// Touches every line overlapping `[addr, addr + len)`; returns the
    /// number of misses. This is the bulk call the engines use per edge
    /// record / per vertex-state access.
    pub fn access_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let lb = self.cfg.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + len as u64 - 1) / lb;
        let mut misses = 0;
        for line in first..=last {
            if !self.access_line(line) {
                misses += 1;
            }
        }
        misses
    }

    /// Invalidates every line (keeps counters).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 4 sets * 2 ways * 64B = 512B cache.
        Llc::new(LlcConfig { capacity_bytes: 512, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn geometry() {
        let c = LlcConfig { capacity_bytes: 512, ways: 2, line_bytes: 64 };
        assert_eq!(c.num_sets(), 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut llc = tiny();
        assert!(!llc.access(0));
        assert!(llc.access(0));
        assert!(llc.access(63), "same line");
        assert!(!llc.access(64), "next line");
        assert_eq!(llc.stats.misses, 2);
        assert_eq!(llc.stats.hits, 2);
        assert_eq!(llc.stats.fill_bytes, 128);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut llc = tiny();
        // Lines 0, 4, 8 all map to set 0 (line % 4 == 0); 2 ways.
        let line = |i: u64| i * 4 * 64; // line numbers 0, 4, 8 → addresses
        assert!(!llc.access(line(0)));
        assert!(!llc.access(line(1)));
        assert!(llc.access(line(0)), "refresh line 0");
        assert!(!llc.access(line(2)), "evicts line 4 (LRU)");
        assert!(llc.access(line(0)), "line 0 survived");
        assert!(!llc.access(line(1)), "line 4 was evicted");
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut llc = Llc::new(LlcConfig { capacity_bytes: 4096, ways: 4, line_bytes: 64 });
        for round in 0..3 {
            for addr in (0..4096u64).step_by(64) {
                let hit = llc.access(addr);
                if round > 0 {
                    assert!(hit, "addr {addr} round {round}");
                }
            }
        }
        assert_eq!(llc.stats.misses, 64);
    }

    #[test]
    fn access_range_counts_lines() {
        let mut llc = tiny();
        assert_eq!(llc.access_range(0, 1), 1);
        assert_eq!(llc.access_range(0, 64), 0, "already resident");
        assert_eq!(llc.access_range(60, 8), 1, "straddles into second line");
        assert_eq!(llc.access_range(0, 0), 0);
    }

    #[test]
    fn flush_invalidates() {
        let mut llc = tiny();
        llc.access(0);
        assert_eq!(llc.resident_lines(), 1);
        llc.flush();
        assert_eq!(llc.resident_lines(), 0);
        assert!(!llc.access(0));
    }

    #[test]
    fn miss_rate() {
        let mut llc = tiny();
        assert_eq!(llc.stats.miss_rate(), 0.0);
        llc.access(0);
        llc.access(0);
        assert!((llc.stats.miss_rate() - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// hits + misses == accesses, and fill bytes track misses exactly.
        #[test]
        fn accounting_invariant(addrs in proptest::collection::vec(0u64..1u64 << 20, 0..2000)) {
            let mut llc = Llc::new(LlcConfig { capacity_bytes: 8192, ways: 4, line_bytes: 64 });
            for a in addrs {
                llc.access(a);
            }
            prop_assert_eq!(llc.stats.hits + llc.stats.misses, llc.stats.accesses);
            prop_assert_eq!(llc.stats.fill_bytes, llc.stats.misses * 64);
            prop_assert!(llc.resident_lines() <= 8192 / 64);
        }

        /// A larger cache never misses more than a smaller one on the same
        /// sequential stream (no Belady anomaly for LRU on streams).
        #[test]
        fn bigger_cache_fewer_misses_on_scan(lines in 1usize..512, rounds in 1usize..4) {
            let mut small = Llc::new(LlcConfig { capacity_bytes: 4096, ways: 4, line_bytes: 64 });
            let mut big = Llc::new(LlcConfig { capacity_bytes: 16384, ways: 4, line_bytes: 64 });
            for _ in 0..rounds {
                for l in 0..lines {
                    small.access_line(l as u64);
                    big.access_line(l as u64);
                }
            }
            prop_assert!(big.stats.misses <= small.stats.misses);
        }
    }
}
