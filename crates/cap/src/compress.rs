//! CHERI-Concentrate-style bounds compression for the 128-bit format.
//!
//! The 128-bit capability format cannot store two full 64-bit bounds plus an
//! address; instead it stores an exponent `E` and two truncated mantissas of
//! [`MANTISSA_WIDTH`] bits. The consequences modelled here are exactly those
//! the paper leans on (§2 footnote 2):
//!
//! * bounds of large regions are **rounded** — base down, top up — to
//!   multiples of `2^E`;
//! * allocators must **pad and align** allocations so that rounded bounds do
//!   not leak neighbouring memory ([`representable_length`] /
//!   [`representable_alignment_mask`] are the `CRRL`/`CRAM` instructions
//!   CheriBSD's jemalloc uses for this);
//! * a capability's address may roam only a bounded distance outside its
//!   bounds (the *representable window*) before the tag is lost.
//!
//! The 256-bit format stores bounds exactly and has none of these effects.

/// Number of mantissa bits available for each bound in the 128-bit format.
pub const MANTISSA_WIDTH: u32 = 14;

/// One plus the largest address: the top of a maximally wide capability.
pub const ADDRESS_SPACE_TOP: u128 = 1u128 << 64;

/// Smallest exponent `E` such that a region of `len` bytes *could* be encoded
/// (ignoring alignment of its actual bounds).
#[must_use]
pub fn exponent_for_length(len: u64) -> u32 {
    let mut e = 0;
    while (len >> e) >= (1u64 << MANTISSA_WIDTH) {
        e += 1;
    }
    e
}

/// Rounds `(base, base + len)` outward to the nearest bounds representable in
/// the compressed encoding. Returns `(decoded_base, decoded_top, exponent)`.
///
/// The result always covers the requested region and never exceeds the
/// address space.
#[must_use]
pub fn round_bounds(base: u64, len: u64) -> (u64, u128, u32) {
    let top = base as u128 + len as u128;
    debug_assert!(top <= ADDRESS_SPACE_TOP);
    let mut e = exponent_for_length(len);
    loop {
        let align = 1u128 << e;
        let b = (base as u128) & !(align - 1);
        let t = top
            .checked_add(align - 1)
            .map(|x| x & !(align - 1))
            .unwrap_or(ADDRESS_SPACE_TOP);
        let t = t.min(ADDRESS_SPACE_TOP);
        if ((t - b) >> e) < (1u128 << MANTISSA_WIDTH) {
            return (b as u64, t, e);
        }
        e += 1;
    }
}

/// `true` if the exact bounds `[base, base + len)` survive compression
/// unchanged.
#[must_use]
pub fn is_exactly_representable(base: u64, len: u64) -> bool {
    let (b, t, _) = round_bounds(base, len);
    b == base && t == base as u128 + len as u128
}

/// CRRL: the representable length — the smallest length `>= len` such that a
/// suitably aligned region of that length is exactly representable.
///
/// ```
/// use cheri_cap::compress::representable_length;
/// assert_eq!(representable_length(100), 100);         // small: exact
/// let big = (1 << 20) + 1;
/// let rounded = representable_length(big);
/// assert!(rounded >= big);
/// assert_eq!(representable_length(rounded), rounded); // idempotent
/// ```
#[must_use]
pub fn representable_length(len: u64) -> u64 {
    let mut l = len;
    loop {
        let e = exponent_for_length(l);
        if e == 0 {
            return l;
        }
        let align = 1u64 << e;
        let rounded = match l.checked_add(align - 1) {
            Some(x) => x & !(align - 1),
            // Lengths within `align` of 2^64: the only representable cover is
            // the full address space, whose length does not fit in u64; we
            // saturate to the largest aligned length below 2^64.
            None => !(align - 1),
        };
        if rounded == l {
            return l;
        }
        l = rounded;
    }
}

/// CRAM: alignment mask required for a region of `len` bytes to be exactly
/// representable. A base address must satisfy `base & !mask == 0`... i.e.
/// `base & mask == base`.
#[must_use]
pub fn representable_alignment_mask(len: u64) -> u64 {
    let e = exponent_for_length(representable_length(len));
    !((1u64 << e) - 1)
}

/// The representable address window for decoded bounds `(base, top)` encoded
/// with exponent `e`: addresses inside the window keep the tag when installed
/// with `CSetAddr`/`CIncOffset`; outside it the tag is lost.
///
/// Modelled as `base - S .. top + S` with `S = 2^(e + MANTISSA_WIDTH - 2)`,
/// one quarter of the encodable space, matching CHERI Concentrate's choice of
/// placing the bounds in the middle half of the encodable region.
#[must_use]
#[inline]
pub fn representable_window(base: u64, top: u128, e: u32) -> (u64, u128) {
    let shift = e + MANTISSA_WIDTH - 2;
    if shift >= 64 {
        return (0, ADDRESS_SPACE_TOP);
    }
    let slack = 1u128 << shift;
    let lo = (base as u128).saturating_sub(slack) as u64;
    let hi = (top + slack).min(ADDRESS_SPACE_TOP);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_regions_are_exact() {
        for len in [0u64, 1, 7, 64, 4096, (1 << MANTISSA_WIDTH) - 1] {
            for base in [0u64, 3, 0x1234, u64::MAX - len] {
                assert!(
                    is_exactly_representable(base, len),
                    "base={base:#x} len={len:#x}"
                );
            }
        }
    }

    #[test]
    fn exponent_grows_with_length() {
        assert_eq!(exponent_for_length(0), 0);
        assert_eq!(exponent_for_length((1 << MANTISSA_WIDTH) - 1), 0);
        assert_eq!(exponent_for_length(1 << MANTISSA_WIDTH), 1);
        assert!(exponent_for_length(u64::MAX) > 40);
    }

    #[test]
    fn rounding_covers_request() {
        let cases = [
            (0x1000u64, 1u64 << 20),
            (0x1001, 1 << 20),
            (0xdead_beef, 0x1234_5678),
            (0, u64::MAX),
            (u64::MAX - 0x10000, 0x10000),
        ];
        for (base, len) in cases {
            let (b, t, _) = round_bounds(base, len);
            assert!(b <= base);
            assert!(t >= base as u128 + len as u128);
            assert!(t <= ADDRESS_SPACE_TOP);
        }
    }

    #[test]
    fn misaligned_large_region_rounds() {
        let base = 0x1001;
        let len = 1 << 20;
        assert!(!is_exactly_representable(base, len));
        let (b, t, e) = round_bounds(base, len);
        assert!(e > 0);
        assert_eq!(b % (1 << e), 0);
        assert_eq!(t % (1 << e), 0);
    }

    #[test]
    fn crrl_idempotent_and_padded_alloc_is_exact() {
        for len in [1u64, 100, 1 << 14, (1 << 20) + 3, (1 << 33) + 12345] {
            let l = representable_length(len);
            assert!(l >= len);
            assert_eq!(representable_length(l), l);
            let mask = representable_alignment_mask(len);
            let base = 0x4000_0000u64 & mask;
            assert!(
                is_exactly_representable(base, l),
                "len={len} l={l} mask={mask:#x}"
            );
        }
    }

    #[test]
    fn full_address_space_representable() {
        let (b, t, _) = round_bounds(0, u64::MAX);
        assert_eq!(b, 0);
        assert_eq!(t, ADDRESS_SPACE_TOP);
    }

    #[test]
    fn window_contains_bounds() {
        let (b, t, e) = round_bounds(0x10000, 1 << 20);
        let (lo, hi) = representable_window(b, t, e);
        assert!(lo <= b);
        assert!(hi >= t);
    }

    #[test]
    fn window_is_finite_for_small_caps() {
        let (b, t, e) = round_bounds(0x10000, 64);
        let (lo, hi) = representable_window(b, t, e);
        assert_eq!(e, 0);
        assert_eq!(lo, 0x10000 - (1 << (MANTISSA_WIDTH - 2)));
        assert_eq!(hi, (0x10000 + 64 + (1 << (MANTISSA_WIDTH - 2))) as u128);
    }
}
