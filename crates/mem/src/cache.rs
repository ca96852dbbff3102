//! Set-associative cache hierarchy model.
//!
//! Mirrors the paper's FPGA platform (§5): split 32-KiB L1 instruction and
//! data caches and a shared 256-KiB L2, all set-associative with true-LRU
//! replacement and no prefetching. Latencies are charged per access and
//! accumulated into [`MemStats`].

use crate::stats::MemStats;

/// What kind of access is being performed (instruction fetches go through
/// the L1I, everything else through the L1D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store (write-allocate).
    Store,
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// 32-KiB, 4-way, 64-byte lines: the paper's L1.
    #[must_use]
    pub fn l1_default() -> CacheConfig {
        CacheConfig {
            size: 32 * 1024,
            line: 64,
            ways: 4,
        }
    }

    /// 256-KiB, 8-way, 64-byte lines: the paper's shared L2.
    #[must_use]
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            size: 256 * 1024,
            line: 64,
            ways: 8,
        }
    }

    fn num_sets(&self) -> usize {
        (self.size / self.line) as usize / self.ways
    }
}

/// One set-associative cache with LRU replacement.
#[derive(Clone, Debug)]
struct Cache {
    cfg: CacheConfig,
    /// Whether line size and set count are both powers of two (true for
    /// every geometry the paper uses), letting the hot path shift and
    /// mask instead of divide.
    pow2: bool,
    /// `log2(line)` when `pow2`.
    line_shift: u32,
    /// `num_sets - 1` when `pow2`.
    set_mask: u64,
    /// `sets[s]` holds line tags in LRU order (front = most recent).
    sets: Vec<Vec<u64>>,
}

impl Cache {
    fn new(cfg: CacheConfig) -> Cache {
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            pow2: cfg.line.is_power_of_two() && num_sets.is_power_of_two(),
            line_shift: cfg.line.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            sets: vec![Vec::new(); num_sets],
        }
    }

    /// Returns `true` on hit; always installs the line.
    fn access(&mut self, paddr: u64) -> bool {
        let (line, set_idx) = if self.pow2 {
            let line = paddr >> self.line_shift;
            (line, (line & self.set_mask) as usize)
        } else {
            let line = paddr / self.cfg.line;
            (line, (line as usize) % self.sets.len())
        };
        let ways = self.cfg.ways;
        let set = &mut self.sets[set_idx];
        // Hot loops hammer the most-recently-used line: a hit at the LRU
        // front needs no reordering at all.
        if set.first() == Some(&line) {
            return true;
        }
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            set.insert(0, line);
            true
        } else {
            set.insert(0, line);
            set.truncate(ways);
            false
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// L1I + L1D + shared L2 with simple additive latencies.
///
/// ```
/// use cheri_mem::{CacheHierarchy, AccessKind};
/// let mut h = CacheHierarchy::fpga_default();
/// let cold = h.access(0x1000, AccessKind::Load);
/// let warm = h.access(0x1000, AccessKind::Load);
/// assert!(cold > warm);
/// assert_eq!(h.stats().l1d_hits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    stats: MemStats,
    /// Cycles for an L1 hit.
    pub lat_l1: u64,
    /// Additional cycles for an L2 hit.
    pub lat_l2: u64,
    /// Additional cycles for a DRAM access.
    pub lat_mem: u64,
}

impl CacheHierarchy {
    /// The paper's FPGA configuration: 32-KiB L1s, 256-KiB shared L2.
    #[must_use]
    pub fn fpga_default() -> CacheHierarchy {
        CacheHierarchy::new(CacheConfig::l1_default(), CacheConfig::l2_default())
    }

    /// Builds a hierarchy from explicit level configurations.
    #[must_use]
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> CacheHierarchy {
        CacheHierarchy {
            l1i: Cache::new(l1),
            l1d: Cache::new(l1),
            l2: Cache::new(l2),
            stats: MemStats::default(),
            lat_l1: 1,
            lat_l2: 10,
            lat_mem: 68,
        }
    }

    /// Performs an access and returns the stall cycles it cost (0 for an L1
    /// hit — the pipeline's base cost covers it).
    pub fn access(&mut self, paddr: u64, kind: AccessKind) -> u64 {
        let l1 = match kind {
            AccessKind::Fetch => &mut self.l1i,
            AccessKind::Load | AccessKind::Store => &mut self.l1d,
        };
        let l1_hit = l1.access(paddr);
        let (hit_ctr, miss_ctr) = match kind {
            AccessKind::Fetch => (&mut self.stats.l1i_hits, &mut self.stats.l1i_misses),
            _ => (&mut self.stats.l1d_hits, &mut self.stats.l1d_misses),
        };
        if l1_hit {
            *hit_ctr += 1;
            return 0;
        }
        *miss_ctr += 1;
        let mut cycles = self.lat_l2;
        if self.l2.access(paddr) {
            self.stats.l2_hits += 1;
        } else {
            self.stats.l2_misses += 1;
            cycles += self.lat_mem;
        }
        self.stats.stall_cycles += cycles;
        cycles
    }

    /// Performs `n` consecutive accesses to the *same cache line*
    /// (identified by any `paddr` within it) with no other access in
    /// between, and returns their total stall cycles. `n` 0 does nothing.
    ///
    /// The template tier charges its instruction fetches this way. It is
    /// byte-identical to `n` calls of [`CacheHierarchy::access`]: after
    /// the first access the line sits at the MRU front of its L1 set, and
    /// a same-line re-access takes the front fast path in `Cache::access`
    /// (no LRU reorder, no L2 involvement, 0 stall cycles), so only the
    /// L1 hit counter advances.
    pub fn access_run(&mut self, paddr: u64, kind: AccessKind, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let cycles = self.access(paddr, kind);
        let hit_ctr = match kind {
            AccessKind::Fetch => &mut self.stats.l1i_hits,
            _ => &mut self.stats.l1d_hits,
        };
        *hit_ctr += n - 1;
        cycles
    }

    /// The L1 line size in bytes — the coalescing granularity for
    /// [`CacheHierarchy::access_run`]. Both L1s share one geometry.
    #[must_use]
    pub fn l1_line(&self) -> u64 {
        self.l1i.cfg.line
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Clears counters (between benchmark phases) without flushing lines.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Flushes all cache contents (e.g. simulating a cold start).
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut h = CacheHierarchy::fpga_default();
        assert!(h.access(0x40, AccessKind::Load) > 0);
        assert_eq!(h.access(0x40, AccessKind::Load), 0);
        assert_eq!(h.access(0x41, AccessKind::Load), 0, "same line");
        assert_eq!(h.stats().l1d_hits, 2);
        assert_eq!(h.stats().l1d_misses, 1);
        assert_eq!(h.stats().l2_misses, 1);
    }

    #[test]
    fn l1_eviction_falls_to_l2() {
        let mut h = CacheHierarchy::fpga_default();
        let cfg = CacheConfig::l1_default();
        let stride = cfg.size / cfg.ways as u64; // maps to the same set
        for i in 0..=cfg.ways as u64 {
            h.access(i * stride, AccessKind::Load);
        }
        // First line was evicted from L1 but still lives in L2.
        let cost = h.access(0, AccessKind::Load);
        assert_eq!(cost, h.lat_l2);
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn fetch_and_data_use_separate_l1s() {
        let mut h = CacheHierarchy::fpga_default();
        h.access(0x100, AccessKind::Fetch);
        let cost = h.access(0x100, AccessKind::Load);
        assert!(cost > 0, "data access must miss its own L1");
        assert_eq!(cost, h.lat_l2, "but hit the shared L2");
    }

    #[test]
    fn bigger_footprint_more_l2_misses() {
        // The Figure 4 mechanism: doubling the stride footprint past L2
        // capacity produces more misses for the same access count.
        let count = 8192u64;
        let mut small = CacheHierarchy::fpga_default();
        for i in 0..count {
            small.access((i * 8) % (128 * 1024), AccessKind::Load);
        }
        let mut big = CacheHierarchy::fpga_default();
        for i in 0..count {
            big.access((i * 16) % (1024 * 1024), AccessKind::Load);
        }
        assert!(big.stats().l2_misses > small.stats().l2_misses);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut h = CacheHierarchy::fpga_default();
        h.access(0x40, AccessKind::Load);
        h.flush();
        assert!(h.access(0x40, AccessKind::Load) > 0);
    }

    /// The template tier's coalescing contract: `access_run(pa, k, n)`
    /// leaves exactly the state and stalls of `n` single `access` calls —
    /// across cold lines, warm lines, and interleaved data traffic.
    #[test]
    fn access_run_equals_single_accesses() {
        let line = CacheConfig::l1_default().line;
        // (start paddr, kind, run length); runs stay within one line.
        let runs = [
            (0x1000, AccessKind::Fetch, 16),
            (0x1000 + line, AccessKind::Fetch, 5),
            (0x8000, AccessKind::Load, 3),
            (0x1000, AccessKind::Fetch, 16), // warm re-run
            (0x8004, AccessKind::Store, 2),
            (0x1000 + line, AccessKind::Fetch, 1),
            (0x9000, AccessKind::Load, 0),
        ];

        let mut single = CacheHierarchy::fpga_default();
        let mut single_stalls = 0;
        for &(pa, kind, n) in &runs {
            for i in 0..n {
                // Walk within the line like a fetch stream does.
                single_stalls += single.access(pa + (i % (line / 4)) * 4, kind);
            }
        }

        let mut run = CacheHierarchy::fpga_default();
        let mut run_stalls = 0;
        for &(pa, kind, n) in &runs {
            run_stalls += run.access_run(pa, kind, n);
        }

        assert_eq!(run_stalls, single_stalls);
        assert_eq!(run.stats(), single.stats());
        assert_eq!(run.l1_line(), line);
    }
}
