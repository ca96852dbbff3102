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

    /// The set `paddr`'s line maps to.
    #[must_use]
    pub fn set_of(&self, paddr: u64) -> u64 {
        paddr / self.line % self.num_sets() as u64
    }
}

/// Marks an unused way: no line tag reaches it (see `Cache::access`).
const EMPTY: u32 = u32::MAX;

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
    /// Number of sets.
    num_sets: usize,
    /// `ways` line tags per set, set after set: each set in LRU order
    /// (first = most recent), unused ways [`EMPTY`] at the end.
    lines: Vec<u32>,
}

impl Cache {
    fn new(cfg: CacheConfig) -> Cache {
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            pow2: cfg.line.is_power_of_two() && num_sets.is_power_of_two(),
            line_shift: cfg.line.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            num_sets,
            lines: vec![EMPTY; num_sets * cfg.ways],
        }
    }

    /// The 32-bit tag and the set index of `paddr`'s line, and whether it
    /// is the set's most recent line: a hit that needs no reordering.
    #[inline(always)]
    fn lookup(&self, paddr: u64) -> (u32, usize, bool) {
        let (line, set_idx) = if self.pow2 {
            let line = paddr >> self.line_shift;
            (line, (line & self.set_mask) as usize)
        } else {
            let line = paddr / self.cfg.line;
            (line, (line as usize) % self.num_sets)
        };
        // Tags are 32 bits to halve the arrays. Frames are handed out in
        // ascending id order, so a 64-byte line past 2^32 would take
        // 256 GiB of allocated guest memory; the check keeps a wider
        // address from aliasing instead of trusting that.
        let tag = u32::try_from(line)
            .ok()
            .filter(|&t| t != EMPTY)
            .expect("physical line fits a 32-bit tag");
        (tag, set_idx, self.lines[set_idx * self.cfg.ways] == tag)
    }

    /// Returns `true` on hit; always installs the line.
    #[inline]
    fn access(&mut self, paddr: u64) -> bool {
        let (tag, set_idx, front) = self.lookup(paddr);
        front || self.access_lru(set_idx, tag)
    }

    /// [`Cache::access`] past the MRU front: finds `tag` deeper in set
    /// `set_idx` and moves it to the front, or installs it there. One pass
    /// shifts each more recent way back by one until it reaches `tag`'s
    /// way, which the shift overwrites; on a miss the least recent way (or
    /// an unused one) falls off the end.
    fn access_lru(&mut self, set_idx: usize, tag: u32) -> bool {
        let ways = self.cfg.ways;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];
        let mut carry = tag;
        for way in set {
            let was = std::mem::replace(way, carry);
            if was == tag {
                return true;
            }
            carry = was;
        }
        false
    }

    fn flush(&mut self) {
        self.lines.fill(EMPTY);
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
    /// hit — the pipeline's base cost covers it). Hot loops hammer the
    /// most recent line of a set: that hit is inlined into the caller, and
    /// everything else (the LRU walk, the L2) stays out of line.
    #[inline(always)]
    pub fn access(&mut self, paddr: u64, kind: AccessKind) -> u64 {
        let (l1, hits) = match kind {
            AccessKind::Fetch => (&self.l1i, &mut self.stats.l1i_hits),
            AccessKind::Load | AccessKind::Store => (&self.l1d, &mut self.stats.l1d_hits),
        };
        let (tag, set_idx, front) = l1.lookup(paddr);
        if front {
            *hits += 1;
            return 0;
        }
        self.access_past_front(paddr, kind, tag, set_idx)
    }

    /// [`CacheHierarchy::access`] of a line that is not the most recent
    /// of its L1 set (`set_idx`, where it has tag `tag`).
    #[inline(never)]
    fn access_past_front(&mut self, paddr: u64, kind: AccessKind, tag: u32, set_idx: usize) -> u64 {
        let l1 = match kind {
            AccessKind::Fetch => &mut self.l1i,
            AccessKind::Load | AccessKind::Store => &mut self.l1d,
        };
        let l1_hit = l1.access_lru(set_idx, tag);
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
    #[inline]
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

    /// The L1 geometry (both L1s share it); its line size is the
    /// coalescing granularity for [`CacheHierarchy::access_run`].
    #[must_use]
    pub fn l1_config(&self) -> CacheConfig {
        self.l1i.cfg
    }

    /// Whether a fetch of `paddr` would hit the L1I's most recent line of
    /// its set: a hit that changes no state and reaches no other level. A
    /// read-only probe; the template tier's debug assertions use it.
    #[must_use]
    pub fn l1i_front_hit(&self, paddr: u64) -> bool {
        self.l1i.lookup(paddr).2
    }

    /// Counts a fetch of `paddr` that is known to hit the L1I's most
    /// recent line of its set: all [`CacheHierarchy::access`] would change
    /// for it is this counter. The stepper's fetch window serves such
    /// fetches.
    #[inline]
    pub fn count_fetch_front_hit(&mut self, paddr: u64) {
        debug_assert!(
            self.l1i_front_hit(paddr),
            "a counted front hit at {paddr:#x} is not the L1I's most recent line"
        );
        self.stats.l1i_hits += 1;
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
    fn front_probe_reads_without_touching_state() {
        let cfg = CacheConfig {
            size: 2 * 64 * 2,
            line: 64,
            ways: 2,
        };
        let mut h = CacheHierarchy::new(cfg, CacheConfig::l2_default());
        // Sets of 0x0 and 0x80 coincide; 0x40 has the other set.
        assert_eq!(cfg.set_of(0x0), cfg.set_of(0x80));
        assert_ne!(cfg.set_of(0x0), cfg.set_of(0x40));
        assert!(!h.l1i_front_hit(0x0), "cold");
        h.access(0x0, AccessKind::Fetch);
        h.access(0x40, AccessKind::Fetch);
        h.access(0x10, AccessKind::Load);
        assert!(h.l1i_front_hit(0x3f) && h.l1i_front_hit(0x40));
        h.access(0x80, AccessKind::Fetch);
        // 0x0 is still resident, but no longer its set's most recent line.
        let before = h.stats();
        assert!(!h.l1i_front_hit(0x0) && h.l1i_front_hit(0x80));
        assert_eq!(h.stats(), before, "probing changes no counter");
        assert_eq!(h.access(0x0, AccessKind::Fetch), 0, "an LRU hit");
        assert!(h.l1i_front_hit(0x0) && !h.l1i_front_hit(0x80));
    }

    /// The `rotate_right` LRU update that `Cache::access_lru` replaced.
    fn rotate_model(set: &mut [u32], tag: u32) -> bool {
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set[..=pos].rotate_right(1);
            true
        } else {
            set.rotate_right(1);
            set[0] = tag;
            false
        }
    }

    proptest::proptest! {
        /// The in-place shift of `access_lru` against the rotate model it
        /// replaced, over random access streams and geometries with one
        /// way, a power of two and not.
        #[test]
        fn in_place_lru_matches_rotate_model(
            ways in 1usize..=9,
            sets in 1usize..=5,
            stream in proptest::collection::vec(0u64..48, 0..400),
        ) {
            let cfg = CacheConfig { size: 64 * (ways * sets) as u64, line: 64, ways };
            let mut cache = Cache::new(cfg);
            let mut reference = cache.lines.clone();
            for &line in &stream {
                let (tag, set_idx, front) = cache.lookup(line * cfg.line);
                let model = rotate_model(&mut reference[set_idx * ways..(set_idx + 1) * ways], tag);
                let hit = front || cache.access_lru(set_idx, tag);
                proptest::prop_assert_eq!(hit, model);
                proptest::prop_assert_eq!(&cache.lines, &reference);
            }
        }
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
        assert_eq!(run.l1_config().line, line);
    }
}
