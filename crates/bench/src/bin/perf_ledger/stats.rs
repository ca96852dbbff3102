//! Order statistics and hashing shared by the parent and the child.

/// Percentiles the ledger may report, in per mille, lowest first: p50,
/// p90, p99, p99.9. Integers keep the rank arithmetic exact.
const LADDER: [u64; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it is worth reporting:
/// with fewer, one outlier moves it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank position (0-based) of the `per_mille` percentile in `n`
/// sorted samples (`n > 0`).
fn rank(n: usize, per_mille: u64) -> usize {
    let n64 = n as u64;
    ((per_mille * n64).div_ceil(1000).clamp(1, n64) - 1) as usize
}

/// Whether the `per_mille` percentile of `n` samples has at least
/// [`TAIL_SAMPLES`] samples beyond it.
pub fn reportable(n: usize, per_mille: u64) -> bool {
    n > 0 && n - 1 - rank(n, per_mille) >= TAIL_SAMPLES
}

/// The highest percentile of the ladder that has at least
/// [`TAIL_SAMPLES`] samples beyond it, in per mille.
pub fn highest_reportable(n: usize) -> Option<u64> {
    LADDER.iter().rev().copied().find(|&p| reportable(n, p))
}

/// The metric-name label of a per-mille percentile: `p90`, `p99.9`.
pub fn label(per_mille: u64) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// Nearest-rank `per_mille` percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], per_mille: u64) -> f64 {
    sorted[rank(sorted.len(), per_mille)]
}

/// Median of `xs`, or `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut xs = xs.to_vec();
    (!xs.is_empty()).then(|| cheri_bench::median(&mut xs))
}

/// SplitMix64: the ledger's only source of seeded choices.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Digest of a sweep: FNV-1a over its per-case line hashes in spec order.
pub fn digest(hashes: &[u64]) -> u64 {
    let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    cheriabi::json::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(highest_reportable(0), None);
        assert_eq!(highest_reportable(5), None);
        assert_eq!(highest_reportable(20), Some(500));
        assert_eq!(highest_reportable(99), Some(500));
        assert_eq!(highest_reportable(100), Some(900));
        assert_eq!(highest_reportable(108), Some(900));
        assert_eq!(highest_reportable(999), Some(900));
        assert_eq!(highest_reportable(1000), Some(990));
        assert_eq!(highest_reportable(3492), Some(990));
        assert_eq!(highest_reportable(10_000), Some(999));
        // p90 of 1..=100 is 90, with exactly ten samples (91..=100) beyond.
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(label(900), "p90");
        assert_eq!(label(999), "p99.9");
    }

    #[test]
    fn median_and_digest() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_eq!(digest(&[7, 9]), digest(&[7, 9]));
    }
}
