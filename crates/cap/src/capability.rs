//! The architectural capability type and its (monotonic) derivation algebra.

use crate::compress;
use crate::{CapFault, CapSource, OType, Perms, PrincipalId, Provenance};
use std::fmt;

/// Alignment and granularity of tagged memory: one tag bit guards each
/// 16-byte, 16-byte-aligned granule of physical memory.
pub const TAG_GRANULE: u64 = 16;

/// In-memory size of a 128-bit (compressed) capability.
pub const CAP_SIZE_C128: u64 = 16;

/// In-memory size of a 256-bit (exact) capability.
pub const CAP_SIZE_C256: u64 = 32;

/// The capability encoding in use.
///
/// The paper benchmarks the 128-bit compressed format ("its lower overheads
/// make it a more realistic candidate for commercial adoption", §5) and the
/// repository's `ablation_capfmt` bench compares the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CapFormat {
    /// 128-bit capability with CHERI-Concentrate-style compressed bounds.
    #[default]
    C128,
    /// 256-bit capability with exact 64-bit base and length.
    C256,
}

impl CapFormat {
    /// Bytes a pointer of this format occupies in memory.
    #[must_use]
    pub fn in_memory_size(self) -> u64 {
        match self {
            CapFormat::C128 => CAP_SIZE_C128,
            CapFormat::C256 => CAP_SIZE_C256,
        }
    }

    /// CRRL for this format: the length an allocator must pad to so bounds
    /// are exact. The 256-bit format never needs padding.
    #[must_use]
    pub fn representable_length(self, len: u64) -> u64 {
        match self {
            CapFormat::C128 => compress::representable_length(len),
            CapFormat::C256 => len,
        }
    }

    /// CRAM for this format: required base alignment mask for `len`.
    #[must_use]
    pub fn representable_alignment_mask(self, len: u64) -> u64 {
        match self {
            CapFormat::C128 => compress::representable_alignment_mask(len),
            CapFormat::C256 => u64::MAX,
        }
    }
}

/// A CHERI capability: a tagged, bounded, permission-carrying pointer.
///
/// All derivation methods are monotonic — they can only narrow bounds and
/// permissions — and operations the architecture forbids either return a
/// [`CapFault`] (for instructions that trap) or clear the tag (for
/// operations defined to de-tag, such as moving the address outside the
/// representable window).
///
/// ```
/// use cheri_cap::{Capability, CapFormat, CapSource, Perms, PrincipalId};
/// # fn main() -> Result<(), cheri_cap::CapFault> {
/// let root = Capability::root(CapFormat::C128, PrincipalId::from_raw(1), CapSource::Exec);
/// let buf = root.with_addr(0x8000).set_bounds(64, true)?;
/// assert!(buf.check_access(0x8000, 8, Perms::LOAD).is_ok());
/// assert!(buf.check_access(0x8040, 1, Perms::LOAD).is_err()); // one past the end
/// # Ok(())
/// # }
/// ```
///
/// The value is 48 bytes, so registers, memory slabs and template
/// operands move it cheaply: the exclusive top is a `u64` plus
/// `top_hi`, its bit 64 (a top never exceeds `2 * (2^64 - 1)`), which
/// drops the 16-byte alignment a `u128` field would impose, and the
/// object type, exponent, format and provenance are stored unboxed. Every
/// encoding is canonical, so the derived `Eq` and `Hash` compare exactly
/// the abstract fields the getters return.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    addr: u64,
    base: u64,
    /// Low 64 bits of the exclusive upper bound.
    top: u64,
    principal: PrincipalId,
    perms: Perms,
    /// The object type's value when sealed, [`UNSEALED`] otherwise.
    otype: u32,
    /// Encoding exponent of the (compressed) bounds; 0 in C256.
    exp: u8,
    fmt: CapFormat,
    source: CapSource,
    tag: bool,
    /// Bit 64 of the exclusive upper bound.
    top_hi: bool,
}

/// [`Capability::otype`]'s encoding of "not sealed": no object type
/// reaches it (see [`OType::MAX`]).
const UNSEALED: u32 = u32::MAX;
const _: () = assert!(OType::MAX < UNSEALED);

impl Capability {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// The NULL capability: untagged, zero everywhere. This is the value
    /// CheriABI installs in DDC so that every legacy load/store traps.
    #[must_use]
    pub const fn null(fmt: CapFormat) -> Capability {
        Capability {
            addr: 0,
            base: 0,
            top: 0,
            principal: PrincipalId::KERNEL,
            perms: Perms::NONE,
            otype: UNSEALED,
            exp: 0,
            fmt,
            source: CapSource::Boot,
            tag: false,
            top_hi: false,
        }
    }

    /// A maximally permissive root capability covering the whole address
    /// space, as provided to boot code at CPU reset (§3 "CPU reset") or
    /// re-rooted by the kernel for a fresh principal.
    #[must_use]
    pub fn root(fmt: CapFormat, principal: PrincipalId, source: CapSource) -> Capability {
        let (base, top, exp) = match fmt {
            CapFormat::C128 => compress::round_bounds(0, u64::MAX),
            CapFormat::C256 => (0, compress::ADDRESS_SPACE_TOP, 0),
        };
        let mut c = Capability {
            perms: Perms::ALL,
            principal,
            source,
            tag: true,
            ..Capability::null(fmt)
        };
        c.set_bounds_raw(base, top, exp);
        c
    }

    /// Installs decoded bounds `[base, top)` with exponent `exp`.
    fn set_bounds_raw(&mut self, base: u64, top: u128, exp: u32) {
        self.base = base;
        self.top = top as u64;
        self.top_hi = top >> 64 != 0;
        debug_assert!(top >> 65 == 0 && exp <= u32::from(u8::MAX));
        self.exp = exp as u8;
    }

    // ------------------------------------------------------------------
    // Getters
    // ------------------------------------------------------------------

    /// Whether the capability is valid (tag set).
    #[must_use]
    #[inline]
    pub fn tag(&self) -> bool {
        self.tag
    }

    /// The address (cursor) the capability currently points at.
    #[must_use]
    #[inline]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Lower bound (inclusive).
    #[must_use]
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Upper bound (exclusive); may be `2^64`, hence `u128`.
    #[must_use]
    #[inline]
    pub fn top(&self) -> u128 {
        u128::from(self.top) | u128::from(self.top_hi) << 64
    }

    /// `top - base`, saturating at `u64::MAX` for the full address space.
    #[must_use]
    pub fn length(&self) -> u64 {
        u64::try_from(self.top().saturating_sub(self.base as u128)).unwrap_or(u64::MAX)
    }

    /// `addr - base` (may be "negative", i.e. wrap, when out of bounds).
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.addr.wrapping_sub(self.base)
    }

    /// The permission set.
    #[must_use]
    #[inline]
    pub fn perms(&self) -> Perms {
        self.perms
    }

    /// Object type, if sealed.
    #[must_use]
    pub fn otype(&self) -> Option<OType> {
        (self.otype != UNSEALED).then(|| OType::from_valid(self.otype))
    }

    /// Whether the capability is sealed.
    #[must_use]
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.otype != UNSEALED
    }

    /// Encoding format.
    #[must_use]
    #[inline]
    pub fn format(&self) -> CapFormat {
        self.fmt
    }

    /// Abstract-capability metadata (principal and derivation source).
    #[must_use]
    pub fn provenance(&self) -> Provenance {
        Provenance::new(self.principal, self.source)
    }

    /// `true` if `addr` lies within `[base, top)`.
    #[must_use]
    pub fn addr_in_bounds(&self) -> bool {
        let top = self.top();
        self.addr >= self.base
            && (self.addr as u128) < top.max(self.base as u128 + 1)
            && (self.addr as u128) < top
    }

    /// Whether this capability's bounds and permissions are a subset of
    /// `other`'s (ignores addresses, tags and seals).
    #[must_use]
    pub fn is_subset_of(&self, other: &Capability) -> bool {
        self.base >= other.base && self.top() <= other.top() && self.perms.is_subset_of(other.perms)
    }

    // ------------------------------------------------------------------
    // Derivation (monotonic)
    // ------------------------------------------------------------------

    /// `CSetAddr`: returns a copy pointing at `addr`.
    ///
    /// Setting the address of a sealed capability, or moving outside the
    /// representable window of a compressed capability, clears the tag —
    /// it does not trap (matching CHERI's fast-path pointer arithmetic).
    #[must_use]
    #[inline]
    pub fn with_addr(&self, addr: u64) -> Capability {
        let mut c = *self;
        c.addr = addr;
        if c.is_sealed() {
            c.tag = false;
            return c;
        }
        if c.tag && c.fmt == CapFormat::C128 {
            let (lo, hi) = compress::representable_window(c.base, c.top(), u32::from(c.exp));
            if addr < lo || (addr as u128) >= hi {
                c.tag = false;
            }
        }
        c
    }

    /// `CIncOffset` / C pointer arithmetic: advances the address by `delta`
    /// bytes (wrapping), leaving bounds and permissions untouched (§3
    /// "C pointer arithmetic").
    #[must_use]
    #[inline]
    pub fn inc_addr(&self, delta: i64) -> Capability {
        self.with_addr(self.addr.wrapping_add(delta as u64))
    }

    /// `CSetBounds` (`exact = false`) / `CSetBoundsExact` (`exact = true`):
    /// narrows bounds to `[addr, addr + len)`.
    ///
    /// # Errors
    ///
    /// * [`CapFault::TagViolation`] if untagged,
    /// * [`CapFault::SealViolation`] if sealed,
    /// * [`CapFault::LengthViolation`] if the requested (or, for the
    ///   compressed format, the *rounded*) bounds exceed the source bounds,
    /// * [`CapFault::RepresentabilityViolation`] if `exact` and the bounds
    ///   cannot be encoded exactly.
    pub fn set_bounds(&self, len: u64, exact: bool) -> Result<Capability, CapFault> {
        if !self.tag {
            return Err(CapFault::TagViolation);
        }
        if self.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        let req_base = self.addr;
        let req_top = req_base as u128 + len as u128;
        if (req_base as u128) < self.base as u128 || req_top > self.top() {
            return Err(CapFault::LengthViolation);
        }
        let (base, top, exp) = match self.fmt {
            CapFormat::C256 => (req_base, req_top, 0),
            CapFormat::C128 => {
                let (b, t, e) = compress::round_bounds(req_base, len);
                if exact && (b != req_base || t != req_top) {
                    return Err(CapFault::RepresentabilityViolation);
                }
                // The rounded bounds must still be authorised by the source
                // capability; otherwise narrowing would turn into widening.
                if (b as u128) < self.base as u128 || t > self.top() {
                    return Err(CapFault::LengthViolation);
                }
                (b, t, e)
            }
        };
        let mut c = *self;
        c.set_bounds_raw(base, top, exp);
        Ok(c)
    }

    /// **Test-only deliberate bug** backing the `--weaken-sem` oracle
    /// self-test: sets bounds to `[addr, addr + len)` with *no*
    /// monotonicity check and no representability rounding, so a derived
    /// capability can silently widen. Never reachable outside a weakened
    /// run; exists so the differential oracle can prove it detects exactly
    /// this class of fast-path bug.
    #[doc(hidden)]
    #[must_use]
    pub fn set_bounds_weakened(&self, len: u64) -> Capability {
        let mut c = *self;
        c.set_bounds_raw(self.addr, self.addr as u128 + len as u128, 0);
        c
    }

    /// `CAndPerm`: intersects permissions with `mask`. Sealed capabilities
    /// lose their tag instead of trapping.
    #[must_use]
    pub fn and_perms(&self, mask: Perms) -> Capability {
        let mut c = *self;
        if c.is_sealed() {
            c.tag = false;
        }
        c.perms = c.perms & mask;
        c
    }

    /// `CClearTag`: returns an untagged copy.
    #[must_use]
    pub fn clear_tag(&self) -> Capability {
        let mut c = *self;
        c.tag = false;
        c
    }

    /// `CSeal`: seals `self` with the object type named by `sealer`'s
    /// address.
    ///
    /// # Errors
    ///
    /// Faults if either capability is untagged or already sealed, if
    /// `sealer` lacks [`Perms::SEAL`], if `sealer.addr()` is out of its
    /// bounds, or if the address is not a valid object type.
    pub fn seal(&self, sealer: &Capability) -> Result<Capability, CapFault> {
        if !self.tag || !sealer.tag {
            return Err(CapFault::TagViolation);
        }
        if self.is_sealed() || sealer.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if !sealer.perms.contains(Perms::SEAL) {
            return Err(CapFault::PermitSealViolation);
        }
        if !sealer.addr_in_bounds() {
            return Err(CapFault::LengthViolation);
        }
        let otype = OType::new(sealer.addr).ok_or(CapFault::TypeViolation)?;
        let mut c = *self;
        c.otype = otype.value();
        Ok(c)
    }

    /// `CUnseal`: unseals `self` using `unsealer`.
    ///
    /// # Errors
    ///
    /// Faults on tag/seal/permission mismatches or if `unsealer`'s address
    /// does not name `self`'s object type.
    pub fn unseal(&self, unsealer: &Capability) -> Result<Capability, CapFault> {
        if !self.tag || !unsealer.tag {
            return Err(CapFault::TagViolation);
        }
        let otype = self.otype().ok_or(CapFault::SealViolation)?;
        if unsealer.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if !unsealer.perms.contains(Perms::UNSEAL) {
            return Err(CapFault::PermitUnsealViolation);
        }
        if !unsealer.addr_in_bounds() {
            return Err(CapFault::LengthViolation);
        }
        if unsealer.addr != u64::from(otype.value()) {
            return Err(CapFault::TypeViolation);
        }
        let mut c = *self;
        c.otype = UNSEALED;
        Ok(c)
    }

    // ------------------------------------------------------------------
    // Access checking
    // ------------------------------------------------------------------

    /// Checks that this capability authorises an access of `size` bytes at
    /// virtual address `vaddr` with the permissions in `need`.
    ///
    /// # Errors
    ///
    /// Returns the CHERI exception cause the access would raise: tag, seal,
    /// permission (mapped to the specific missing permission), or length.
    #[inline]
    pub fn check_access(&self, vaddr: u64, size: u64, need: Perms) -> Result<(), CapFault> {
        if !self.tag {
            return Err(CapFault::TagViolation);
        }
        if self.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if !self.perms.contains(need) {
            return Err(Self::missing_perm_fault(self.perms, need));
        }
        let end = vaddr as u128 + size as u128;
        if vaddr < self.base || end > self.top() {
            return Err(CapFault::LengthViolation);
        }
        Ok(())
    }

    /// Convenience: checks an access at the capability's own address.
    ///
    /// # Errors
    ///
    /// As for [`Capability::check_access`].
    pub fn check_deref(&self, size: u64, need: Perms) -> Result<(), CapFault> {
        self.check_access(self.addr, size, need)
    }

    fn missing_perm_fault(have: Perms, need: Perms) -> CapFault {
        let missing = need - have;
        if missing.contains(Perms::LOAD) {
            CapFault::PermitLoadViolation
        } else if missing.contains(Perms::STORE) {
            CapFault::PermitStoreViolation
        } else if missing.contains(Perms::EXECUTE) {
            CapFault::PermitExecuteViolation
        } else if missing.contains(Perms::LOAD_CAP) {
            CapFault::PermitLoadCapViolation
        } else if missing.contains(Perms::STORE_CAP) {
            CapFault::PermitStoreCapViolation
        } else if missing.contains(Perms::STORE_LOCAL_CAP) {
            CapFault::PermitStoreLocalCapViolation
        } else if missing.contains(Perms::SYSTEM_REGS) {
            CapFault::AccessSystemRegsViolation
        } else {
            CapFault::UserPermViolation
        }
    }

    // ------------------------------------------------------------------
    // Trusted-runtime operations (not available to guest code)
    // ------------------------------------------------------------------

    /// Rebinds the derivation-source tag. Used by trusted runtime layers at
    /// the derivation points of §3 (e.g. malloc retagging a capability it
    /// derived from an `mmap` region), never by guest code.
    #[must_use]
    pub fn with_source(&self, source: CapSource) -> Capability {
        let mut c = *self;
        c.source = source;
        c
    }

    /// Rederives this (possibly untagged) capability's authority from
    /// `root`, re-establishing the tag — the swap-in / debugger-injection
    /// path of §3 ("the swap-in code derives a new architectural capability
    /// from the saved values and an appropriate root capability").
    ///
    /// The abstract capability is preserved: bounds, permissions, address,
    /// format and seal are copied from `self`; the principal is taken from
    /// `root`, and the operation fails unless `self`'s authority is a subset
    /// of `root`'s.
    ///
    /// # Errors
    ///
    /// * [`CapFault::TagViolation`] if `root` is untagged,
    /// * [`CapFault::MonotonicityViolation`] if `self`'s bounds or
    ///   permissions exceed `root`'s.
    pub fn rederive(&self, root: &Capability) -> Result<Capability, CapFault> {
        if !root.tag {
            return Err(CapFault::TagViolation);
        }
        if !self.is_subset_of(root) {
            return Err(CapFault::MonotonicityViolation);
        }
        let mut c = *self;
        c.tag = true;
        c.fmt = root.fmt;
        c.principal = root.principal;
        Ok(c)
    }
}

impl Default for Capability {
    fn default() -> Self {
        Capability::null(CapFormat::C128)
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cap{{{} addr={:#x} [{:#x},{:#x}) {:?}{} {} {}}}",
            if self.tag { "v" } else { "-" },
            self.addr,
            self.base,
            self.top(),
            self.perms,
            match self.otype() {
                Some(o) => format!(" sealed:{o}"),
                None => String::new(),
            },
            self.principal,
            self.source,
        )
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user_root() -> Capability {
        Capability::root(CapFormat::C128, PrincipalId::from_raw(1), CapSource::Exec)
    }

    #[test]
    fn null_is_untagged_and_empty() {
        let n = Capability::null(CapFormat::C128);
        assert!(!n.tag());
        assert_eq!(n.length(), 0);
        assert!(n.check_deref(1, Perms::LOAD).is_err());
    }

    #[test]
    fn root_covers_everything() {
        let r = user_root();
        assert!(r.tag());
        assert_eq!(r.base(), 0);
        assert_eq!(r.top(), compress::ADDRESS_SPACE_TOP);
        assert!(r
            .check_access(u64::MAX, 1, Perms::LOAD | Perms::STORE)
            .is_ok());
    }

    #[test]
    fn set_bounds_narrows() {
        let c = user_root()
            .with_addr(0x1000)
            .set_bounds(0x100, true)
            .unwrap();
        assert_eq!(c.base(), 0x1000);
        assert_eq!(c.length(), 0x100);
        assert!(c.check_access(0x10ff, 1, Perms::LOAD).is_ok());
        assert_eq!(
            c.check_access(0x1100, 1, Perms::LOAD),
            Err(CapFault::LengthViolation)
        );
    }

    #[test]
    fn set_bounds_cannot_widen() {
        let small = user_root()
            .with_addr(0x1000)
            .set_bounds(0x100, true)
            .unwrap();
        assert_eq!(
            small.with_addr(0x1000).set_bounds(0x200, false),
            Err(CapFault::LengthViolation)
        );
        // Rounding of a misaligned child stays within the parent: because a
        // stored parent is always representable, its bounds are aligned at
        // least as coarsely as any child's exponent.
        let parent = user_root()
            .with_addr(0x10000)
            .set_bounds(0x10000, true)
            .unwrap();
        let child = parent.with_addr(0x10001).set_bounds(0xffff, false).unwrap();
        assert!(child.base() >= parent.base());
        assert!(child.top() <= parent.top());
    }

    #[test]
    fn weakened_set_bounds_widens_and_keeps_tag() {
        // The deliberate bug the oracle self-test injects: widening a
        // narrow capability succeeds and the result is *not* a subset of
        // its parent — the exact invariant breach lockstep must flag.
        let narrow = user_root()
            .with_addr(0x1000)
            .set_bounds(0x10, true)
            .unwrap();
        assert_eq!(
            narrow.set_bounds(0x100, false),
            Err(CapFault::LengthViolation)
        );
        let widened = narrow.set_bounds_weakened(0x100);
        assert!(widened.tag());
        assert_eq!(widened.length(), 0x100);
        assert!(!widened.is_subset_of(&narrow));
    }

    #[test]
    fn and_perms_only_removes() {
        let c = user_root().and_perms(Perms::LOAD | Perms::STORE);
        assert!(!c.perms().contains(Perms::EXECUTE));
        let c2 = c.and_perms(Perms::ALL);
        assert_eq!(c2.perms(), c.perms(), "ALL mask must not add bits back");
    }

    #[test]
    fn out_of_window_arithmetic_clears_tag() {
        let c = user_root()
            .with_addr(0x10_0000)
            .set_bounds(64, true)
            .unwrap();
        assert!(c.inc_addr(8).tag());
        assert!(
            c.inc_addr(100).tag(),
            "slightly past end stays representable"
        );
        let far = c.inc_addr(1 << 40);
        assert!(!far.tag(), "far out of bounds must de-tag");
        // De-tagged pointers cannot be brought back.
        assert!(!far.inc_addr(-(1i64 << 40)).tag());
    }

    #[test]
    fn c256_arithmetic_never_detags() {
        let r = Capability::root(CapFormat::C256, PrincipalId::from_raw(1), CapSource::Exec);
        let c = r.with_addr(0x1000).set_bounds(16, true).unwrap();
        assert!(c.inc_addr(1 << 40).tag());
        assert!(c.inc_addr(1 << 40).check_deref(1, Perms::LOAD).is_err());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let r = user_root();
        let sealer = r
            .with_addr(42)
            .and_perms(Perms::SEAL | Perms::UNSEAL | Perms::GLOBAL);
        let sealer = sealer.with_addr(42);
        let data = r.with_addr(0x2000).set_bounds(32, true).unwrap();
        let sealed = data.seal(&sealer).unwrap();
        assert!(sealed.is_sealed());
        assert_eq!(
            sealed.check_deref(1, Perms::LOAD),
            Err(CapFault::SealViolation)
        );
        assert_eq!(sealed.set_bounds(8, false), Err(CapFault::SealViolation));
        assert!(!sealed.with_addr(0).tag(), "mutating a sealed cap de-tags");
        let unsealed = sealed.unseal(&sealer).unwrap();
        assert_eq!(unsealed, data);
    }

    #[test]
    fn unseal_requires_matching_otype() {
        let r = user_root();
        let s42 = r.with_addr(42);
        let s43 = r.with_addr(43);
        let sealed = r
            .with_addr(0x2000)
            .set_bounds(32, true)
            .unwrap()
            .seal(&s42)
            .unwrap();
        assert_eq!(sealed.unseal(&s43), Err(CapFault::TypeViolation));
    }

    #[test]
    fn missing_perm_faults_are_specific() {
        let ro = user_root().and_perms(Perms::LOAD);
        assert_eq!(
            ro.check_access(0, 1, Perms::STORE),
            Err(CapFault::PermitStoreViolation)
        );
        assert_eq!(
            ro.check_access(0, 1, Perms::EXECUTE),
            Err(CapFault::PermitExecuteViolation)
        );
    }

    #[test]
    fn rederive_restores_tag_within_root() {
        let root = user_root();
        let c = root
            .with_addr(0x3000)
            .set_bounds(0x80, true)
            .unwrap()
            .inc_addr(8);
        let stripped = c.clear_tag();
        let again = stripped.rederive(&root).unwrap();
        assert!(again.tag());
        assert_eq!(again.addr(), c.addr());
        assert_eq!(again.base(), c.base());
        assert_eq!(again.top(), c.top());
        assert_eq!(again.perms(), c.perms());
    }

    #[test]
    fn rederive_rejects_excess_authority() {
        let root = user_root();
        let narrow = root.with_addr(0x4000).set_bounds(0x1000, true).unwrap();
        // A capability wider than the root is refused.
        assert_eq!(
            root.clear_tag().rederive(&narrow),
            Err(CapFault::MonotonicityViolation)
        );
    }

    #[test]
    fn rederive_rebinds_principal() {
        let root_a = Capability::root(CapFormat::C128, PrincipalId::from_raw(1), CapSource::Exec);
        let root_b = Capability::root(CapFormat::C128, PrincipalId::from_raw(2), CapSource::Exec);
        let c = root_a.with_addr(0x5000).set_bounds(64, true).unwrap();
        let injected = c.clear_tag().rederive(&root_b).unwrap();
        assert_eq!(injected.provenance().principal, PrincipalId::from_raw(2));
    }

    /// The packed layout: at most 48 bytes, and the same `Debug` text and
    /// `Eq` verdicts as the unpacked one (these strings were printed by
    /// the 80-byte layout, which stored `top` as a `u128`).
    #[test]
    fn packed_layout_keeps_debug_text_and_equality() {
        assert!(std::mem::size_of::<Capability>() <= 48);
        let root = user_root();
        let sealer = root
            .with_addr(42)
            .and_perms(Perms::SEAL | Perms::UNSEAL | Perms::GLOBAL);
        let data = root.with_addr(0x2000).set_bounds(32, true).unwrap();
        let sealed = data.seal(&sealer).unwrap();
        let c256 = Capability::root(CapFormat::C256, PrincipalId::from_raw(7), CapSource::Malloc);
        let c256_derived = c256
            .with_addr(0x1000)
            .set_bounds(0x30, true)
            .unwrap()
            .inc_addr(0x10)
            .with_source(CapSource::Stack);
        // A top past 2^64: only the weakened bounds setter makes one.
        let past_top = root.with_addr(u64::MAX - 7).set_bounds_weakened(16);
        let untagged = root
            .with_addr(0x10_0000)
            .set_bounds(1 << 40, false)
            .unwrap()
            .clear_tag();
        let null = Capability::null(CapFormat::C128);
        let full = "[0x0,0x10000000000000000) Perms[GXRWrwlSIU$MK]";
        for (c, text) in [
            (null, "Cap{- addr=0x0 [0x0,0x0) Perms[] Principal(kernel) boot}".to_string()),
            (root, format!("Cap{{v addr=0x0 {full} Principal(1) exec}}")),
            (
                sealed,
                "Cap{v addr=0x2000 [0x2000,0x2020) Perms[GXRWrwlSIU$MK] sealed:0x2a Principal(1) exec}"
                    .to_string(),
            ),
            (c256, format!("Cap{{v addr=0x0 {full} Principal(7) malloc}}")),
            (
                c256_derived,
                "Cap{v addr=0x1010 [0x1000,0x1030) Perms[GXRWrwlSIU$MK] Principal(7) stack}"
                    .to_string(),
            ),
            (
                past_top,
                "Cap{v addr=0xfffffffffffffff8 [0xfffffffffffffff8,0x10000000000000008) Perms[GXRWrwlSIU$MK] Principal(1) exec}"
                    .to_string(),
            ),
            (
                untagged,
                "Cap{- addr=0x100000 [0x0,0x10008000000) Perms[GXRWrwlSIU$MK] Principal(1) exec}"
                    .to_string(),
            ),
        ] {
            assert_eq!(format!("{c:?}"), text);
        }
        assert_eq!(root.top(), compress::ADDRESS_SPACE_TOP);
        assert_eq!(past_top.top(), compress::ADDRESS_SPACE_TOP + 8);
        assert_eq!(sealed.otype(), OType::new(42));
        assert_eq!(sealed.unseal(&sealer).unwrap().otype(), None);
        // Equal values built two ways are equal; one differing field,
        // format, source, seal, tag or bit 64 of the top, is not.
        assert_eq!(sealed, data.seal(&sealer.with_addr(42)).unwrap());
        assert_eq!(c256_derived.provenance().source, CapSource::Stack);
        assert_ne!(null, Capability::null(CapFormat::C256));
        assert_ne!(root, c256.with_source(CapSource::Exec));
        assert_ne!(root, root.with_source(CapSource::Stack));
        assert_ne!(sealed, data);
        assert_ne!(untagged, untagged.rederive(&root).unwrap());
        let low_top = root.with_addr(u64::MAX - 7).set_bounds(8, true).unwrap();
        assert_eq!(low_top.top(), compress::ADDRESS_SPACE_TOP);
        assert_ne!(low_top, past_top);
        assert_eq!(
            root.with_addr(u64::MAX - 7).set_bounds_weakened(16),
            past_top
        );
    }

    #[test]
    fn offset_tracks_addr() {
        let c = user_root()
            .with_addr(0x1000)
            .set_bounds(0x100, true)
            .unwrap();
        assert_eq!(c.offset(), 0);
        assert_eq!(c.inc_addr(0x10).offset(), 0x10);
    }
}
