//! # cheri-alloc — the userspace allocator (jemalloc stand-in)
//!
//! CheriBSD's `malloc` is "a lightly modified version of JEMalloc" (§4):
//! it returns capabilities **bounded to the requested allocation**, with the
//! `VMMAP` permission stripped (so heap pointers cannot be used to remap the
//! memory under the allocator) and never executable. This crate reproduces
//! that capability flow over the simulated VM:
//!
//! * arenas are grown with anonymous `mmap`-style mappings whose
//!   capabilities carry [`cheri_cap::CapSource::Syscall`] provenance;
//! * allocation sizes are padded with CRRL and aligned with CRAM so that
//!   compressed bounds are **exact** — the paper's footnote-2 requirement
//!   that "memory allocators and stack layout must pad allocation sizes";
//! * returned capabilities are retagged [`cheri_cap::CapSource::Malloc`]
//!   (the Figure 5 "malloc" series);
//! * `free`/`realloc` use the *presented* capability only to look up the
//!   allocator's internal capability, which is then discarded or rederived
//!   (§3 "Memory allocation") — a forged or out-of-bounds pointer cannot
//!   free anything;
//! * an AddressSanitizer mode adds 16-byte redzones and poisons the shadow
//!   map, the software baseline of Tables 1 and 3.
//!
//! ## The allocation ledger and the hardened membrane
//!
//! All bookkeeping lives in an explicit [`Ledger`]: the live map, the
//! per-size-class free lists, and the quarantine. Two policies sit on top:
//!
//! * **strict** (the default) recycles a freed slot immediately — the
//!   ABI-conformant behaviour every Table 1/2 golden pins;
//! * **hardened** ([`Allocator::set_hardened`]) is the deterministic-repair
//!   membrane: frees are *quarantined* instead of recycled, and when the
//!   quarantine crosses a slot- or byte-threshold a revocation sweep
//!   ([`Allocator::revoke`]) walks the whole space — resident pages *and*
//!   swap slots, via [`cheri_vm::Vm::revoke_ranges`] — killing every
//!   capability derived from a freed region before its memory can be
//!   reused. Every repair action is recorded in auditable
//!   [`AllocEvidence`] counters that the kernel drains alongside cycle
//!   charges.
//!
//! Each operation accumulates a representative cycle cost in
//! [`Allocator::take_charges`], which the kernel drains into the CPU's
//! cycle counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cheri_cap::{CapFault, CapSource, Capability, Perms};
use cheri_mem::IntMap;
use cheri_vm::{AsId, Backing, Prot, Vm, VmError};
use std::error::Error;
use std::fmt;

/// Base of the AddressSanitizer shadow region (mirrors
/// `cheri_isa::codegen::ASAN_SHADOW_BASE`; duplicated to avoid a dependency
/// cycle and checked equal in the kernel's tests).
pub const ASAN_SHADOW_BASE: u64 = 0x2000_0000_0000;

/// Allocation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// The heap could not grow.
    OutOfMemory,
    /// `free`/`realloc` called with a pointer that is not a live allocation
    /// base (or whose capability failed validation).
    BadFree,
    /// The presented capability was untagged or sealed.
    BadCapability(CapFault),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "out of memory"),
            AllocError::BadFree => write!(f, "invalid free"),
            AllocError::BadCapability(c) => write!(f, "bad capability: {c}"),
        }
    }
}

impl Error for AllocError {}

impl From<VmError> for AllocError {
    fn from(_: VmError) -> AllocError {
        AllocError::OutOfMemory
    }
}

/// Auditable evidence counters for the hardened membrane: every
/// deterministic repair leaves a trace here, so an attack-outcome table can
/// show not just *that* an exploit died but *what the membrane did*.
/// Deterministic by construction (no wall time, no addresses), so the
/// counters ride byte-identical report lines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct AllocEvidence {
    /// Deterministic repairs performed (absorbed double-frees, realloc
    /// fallbacks, clamped re-derivations).
    pub repairs: u64,
    /// Capabilities killed by revocation sweeps.
    pub swept_caps: u64,
    /// Cumulative bytes that entered quarantine (slot sizes).
    pub quarantine_bytes: u64,
}

impl AllocEvidence {
    /// Folds another evidence block into this one.
    pub fn absorb(&mut self, other: AllocEvidence) {
        self.repairs += other.repairs;
        self.swept_caps += other.swept_caps;
        self.quarantine_bytes += other.quarantine_bytes;
    }

    /// Whether any counter is non-zero.
    #[must_use]
    pub fn any(&self) -> bool {
        self.repairs != 0 || self.swept_caps != 0 || self.quarantine_bytes != 0
    }
}

/// One live allocation in the ledger.
#[derive(Clone, Copy, Debug)]
struct LedgerEntry {
    /// The allocator's internal capability for the padded region.
    cap: Capability,
    /// The user-requested length.
    req_len: u64,
    /// Padded (representable) length.
    padded: u64,
}

/// One freed-but-not-yet-reusable region awaiting a revocation sweep.
#[derive(Clone, Copy, Debug)]
struct QuarantineEntry {
    /// User-visible base (past the left redzone in asan mode).
    user_base: u64,
    /// Padded user length — the range a sweep revokes.
    padded: u64,
    /// Slot base (including redzones), what returns to the free list.
    slot_base: u64,
    /// Slot size class (including redzones).
    slot_size: u64,
}

/// The explicit allocation ledger: every byte the allocator has carved is
/// in exactly one of these maps — live, free, or quarantined.
#[derive(Clone, Default)]
struct Ledger {
    /// Live allocations by user base address.
    live: IntMap<u64, LedgerEntry>,
    /// Free lists per size class (slot size -> slot base addresses).
    free_lists: IntMap<u64, Vec<u64>>,
    /// Freed regions held back from reuse until the next sweep.
    quarantine: Vec<QuarantineEntry>,
    /// Bytes currently in quarantine (slot sizes).
    quarantined_bytes: u64,
}

impl Ledger {
    /// Pops a reusable slot of exactly `slot_size`, if one exists.
    fn reserve(&mut self, slot_size: u64) -> Option<u64> {
        self.free_lists.get_mut(&slot_size).and_then(Vec::pop)
    }

    /// Returns a slot to its free list.
    fn release(&mut self, slot_base: u64, slot_size: u64) {
        self.free_lists
            .entry(slot_size)
            .or_default()
            .push(slot_base);
    }

    /// Moves a freed slot into quarantine.
    fn sequester(&mut self, entry: QuarantineEntry) {
        self.quarantined_bytes += entry.slot_size;
        self.quarantine.push(entry);
    }

    /// Drains the quarantine back into the free lists (post-sweep), in
    /// quarantine order. Returns how many slots were recycled.
    fn recycle_quarantine(&mut self) -> u64 {
        let recycled = self.quarantine.len() as u64;
        for q in std::mem::take(&mut self.quarantine) {
            self.release(q.slot_base, q.slot_size);
        }
        self.quarantined_bytes = 0;
        recycled
    }
}

/// Allocation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Bytes currently live (padded sizes).
    pub live_bytes: u64,
    /// Arena chunks mapped.
    pub chunks: u64,
}

/// The per-process allocator state.
#[derive(Clone)]
pub struct Allocator {
    space: AsId,
    asan: bool,
    /// The allocation ledger: live map, free lists, quarantine.
    ledger: Ledger,
    /// Current bump chunk: (cap, next offset, end offset).
    chunk: Option<(Capability, u64, u64)>,
    /// Guest-requested temporal-safety mode (`RtSetTemporal`): freed
    /// regions quarantine until an explicit `RtRevoke` sweep.
    temporal: bool,
    /// Kernel-armed hardened membrane: quarantine plus *automatic* sweeps
    /// at the `SWEEP_SLOTS`/`SWEEP_BYTES` thresholds, with evidence.
    hardened: bool,
    /// Test-only: disable the quarantine so freed slots recycle
    /// immediately even in hardened mode (reuse-after-free allowed). The
    /// escape hatch the attack-table self-test demands: with it armed, at
    /// least one `Defeated` verdict must flip to `Escaped`, proving the
    /// table actually measures the membrane. No real experiment sets it.
    weaken_quarantine: bool,
    /// Evidence accumulated since the last [`Allocator::take_evidence`].
    evidence: AllocEvidence,
    /// Accumulated runtime cost not yet charged to the CPU.
    pending_cycles: u64,
    pending_instrs: u64,
    /// Statistics.
    pub stats: AllocStats,
}

impl fmt::Debug for Allocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Allocator{{space={:?}, {:?}}}", self.space, self.stats)
    }
}

const CHUNK_SIZE: u64 = 256 * 1024;
const REDZONE: u64 = 16;
/// Hardened-mode sweep thresholds: a revocation pass runs when the
/// quarantine reaches this many slots…
const SWEEP_SLOTS: usize = 32;
/// …or this many bytes, whichever comes first. Small enough that attack
/// probes exercise the sweep, large enough that ordinary churn amortises.
const SWEEP_BYTES: u64 = 16 * 1024;

impl Allocator {
    /// Creates the allocator for address space `space`.
    #[must_use]
    pub fn new(space: AsId, asan: bool) -> Allocator {
        Allocator {
            space,
            asan,
            ledger: Ledger::default(),
            chunk: None,
            temporal: false,
            hardened: false,
            weaken_quarantine: false,
            evidence: AllocEvidence::default(),
            pending_cycles: 0,
            pending_instrs: 0,
            stats: AllocStats::default(),
        }
    }

    /// Clones this allocator's state for a forked child whose address space
    /// is a COW copy of the parent's (identical heap layout, new space id).
    /// The membrane mode travels with the ledger; pending evidence does
    /// not (the parent's syscall already drained it, and a fresh child
    /// must not double-report).
    #[must_use]
    pub fn retarget(&self, space: AsId) -> Allocator {
        let mut a = self.clone();
        a.space = space;
        a.evidence = AllocEvidence::default();
        a
    }

    /// Enables/disables temporal-safety mode (quarantine + revocation, the
    /// paper's §6 "work on a CHERI-aware temporally-safe allocator is
    /// ongoing"). CHERI provides exactly the needed infrastructure:
    /// "atomic pointer updates and the precise identification of pointers".
    pub fn set_temporal(&mut self, on: bool) {
        self.temporal = on;
    }

    /// Whether temporal-safety mode is active.
    #[must_use]
    pub fn temporal(&self) -> bool {
        self.temporal
    }

    /// Arms the hardened membrane: quarantine instead of reuse, automatic
    /// revocation sweeps at the free thresholds, evidence counters. Set by
    /// the kernel at spawn; the mode is immutable for the process's life
    /// (fork inherits it through the clone).
    pub fn set_hardened(&mut self, on: bool) {
        self.hardened = on;
    }

    /// Whether the hardened membrane is armed.
    #[must_use]
    pub fn hardened(&self) -> bool {
        self.hardened
    }

    /// Test-only: see the field documentation.
    pub fn set_weaken_quarantine(&mut self, on: bool) {
        self.weaken_quarantine = on;
    }

    /// Whether the quarantine is active for frees right now.
    fn quarantine_active(&self) -> bool {
        (self.temporal || self.hardened) && !self.weaken_quarantine
    }

    /// Records one deterministic repair (used by the kernel's syscall
    /// membrane for absorbed double-frees and clamped re-derivations).
    pub fn note_repair(&mut self) {
        self.evidence.repairs += 1;
    }

    /// Drains the evidence accumulated since the last call, for the kernel
    /// to fold into its per-run membrane block.
    pub fn take_evidence(&mut self) -> AllocEvidence {
        std::mem::take(&mut self.evidence)
    }

    /// The regions currently in quarantine, as `(base, len)` pairs.
    #[must_use]
    pub fn quarantined_ranges(&self) -> Vec<(u64, u64)> {
        self.ledger
            .quarantine
            .iter()
            .map(|q| (q.user_base, q.padded))
            .collect()
    }

    /// Revocation sweep: kills every capability in the space — resident
    /// pages *and* pages sitting in swap, via [`Vm::revoke_ranges`] —
    /// derived from a quarantined region, then returns the quarantined
    /// slots to the free lists. Returns `(capabilities revoked, regions
    /// recycled)`.
    ///
    /// This is precise revocation in the style the paper's future-work
    /// section anticipates: tags make every pointer identifiable, so a
    /// sweep can kill all stale references before memory is reused.
    ///
    /// # Errors
    ///
    /// Propagates VM failures as [`AllocError::OutOfMemory`].
    pub fn revoke(&mut self, vm: &mut Vm) -> Result<(u64, u64), AllocError> {
        if self.ledger.quarantine.is_empty() {
            return Ok((0, 0));
        }
        let ranges = self.quarantined_ranges();
        let (swept, pages) = vm
            .revoke_ranges(self.space, &ranges)
            .map_err(|_| AllocError::OutOfMemory)?;
        self.charge(pages * 50 + 100);
        self.evidence.swept_caps += swept;
        let recycled = self.ledger.recycle_quarantine();
        Ok((swept, recycled))
    }

    /// Drains the accumulated (instructions, cycles) cost of allocator work
    /// so the kernel can charge it to the CPU.
    pub fn take_charges(&mut self) -> (u64, u64) {
        let out = (self.pending_instrs, self.pending_cycles);
        self.pending_instrs = 0;
        self.pending_cycles = 0;
        out
    }

    fn charge(&mut self, instrs: u64) {
        self.pending_instrs += instrs;
        // In-order core: roughly 1.2 cycles per runtime instruction.
        self.pending_cycles += instrs + instrs / 5;
    }

    /// The padded size class for a request (CRRL plus a capability-size
    /// floor, so every slot can hold aligned capabilities).
    #[must_use]
    pub fn padded_size(&self, vm: &Vm, len: u64) -> u64 {
        let fmt = vm.space_format(self.space);
        let unit = fmt.in_memory_size().max(16);
        let len = len.max(1).div_ceil(unit) * unit;
        fmt.representable_length(len)
    }

    /// Allocates `len` bytes; returns a capability bounded to the padded
    /// request with `VMMAP` and `EXECUTE` stripped and `Malloc` provenance.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if the heap cannot grow.
    pub fn malloc(&mut self, vm: &mut Vm, len: u64) -> Result<Capability, AllocError> {
        self.charge(60);
        let padded = self.padded_size(vm, len);
        let with_rz = if self.asan {
            padded + 2 * REDZONE
        } else {
            padded
        };
        let base = match self.ledger.reserve(with_rz) {
            Some(b) => b,
            None => self.carve(vm, with_rz)?,
        };
        let user_base = if self.asan { base + REDZONE } else { base };
        let root = vm.space(self.space).root;
        // "We install bounds matching the requested allocation before
        // return" (§4): the capability is bounded to the *request*, not the
        // slot; only representability (CRRL) can force it wider.
        let req = len.max(1);
        let cap = root
            .with_addr(user_base)
            .set_bounds(req, true)
            .or_else(|_| {
                root.with_addr(user_base)
                    .set_bounds(vm.space_format(self.space).representable_length(req), true)
            })
            .map_err(AllocError::BadCapability)?
            .and_perms(Perms::user_data() - Perms::VMMAP)
            .with_source(CapSource::Malloc);
        self.ledger.live.insert(
            user_base,
            LedgerEntry {
                cap,
                req_len: len,
                padded,
            },
        );
        self.stats.allocs += 1;
        self.stats.live_bytes += padded;
        if self.asan {
            self.poison(vm, base, REDZONE, 0xfa)?; // left redzone
            self.unpoison_object(vm, user_base, len)?;
            self.poison(vm, user_base + padded, REDZONE, 0xfb)?; // right
            self.charge(40);
        }
        Ok(cap)
    }

    fn carve(&mut self, vm: &mut Vm, size: u64) -> Result<u64, AllocError> {
        // Align the carve point so compressed bounds of `size` are exact
        // and capability stores within the slot are aligned.
        let fmt = vm.space_format(self.space);
        let unit = fmt.in_memory_size().max(16);
        let mask = fmt.representable_alignment_mask(size) & !(unit - 1);
        loop {
            if let Some((cap, next, end)) = &mut self.chunk {
                let aligned = (*next + !mask) & mask;
                if aligned + size <= *end {
                    *next = aligned + size;
                    let base = cap.base() + aligned;
                    return Ok(base);
                }
            }
            // Grow: "each allocator maintains a set of architectural
            // capabilities to regions allocated by mmap" (§3).
            self.charge(300);
            let want = CHUNK_SIZE.max(size.next_power_of_two());
            let start = vm.map(self.space, None, want, Prot::rw(), Backing::Zero, "heap")?;
            if self.asan {
                // Real ASan keeps unallocated arena memory poisoned; fresh
                // chunks start fully poisoned and malloc unpoisons objects.
                self.poison(vm, start, want, 0xfa)?;
                self.charge(want / 256);
            }
            let root = vm.space(self.space).root;
            let chunk_cap = root
                .with_addr(start)
                .set_bounds(want, false)
                .map_err(AllocError::BadCapability)?
                .and_perms(Prot::rw().as_cap_perms())
                .with_source(CapSource::Syscall);
            self.stats.chunks += 1;
            self.chunk = Some((chunk_cap, 0, want));
        }
    }

    /// Frees an allocation. Under CheriABI the caller presents its
    /// capability: it must be tagged, unsealed, and point at the base of a
    /// live allocation; the allocator then discards its internal capability.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadCapability`] for untagged/sealed capabilities,
    /// [`AllocError::BadFree`] for pointers that are not live bases.
    pub fn free(&mut self, vm: &mut Vm, user_cap: &Capability) -> Result<(), AllocError> {
        if !user_cap.tag() {
            return Err(AllocError::BadCapability(CapFault::TagViolation));
        }
        if user_cap.is_sealed() {
            return Err(AllocError::BadCapability(CapFault::SealViolation));
        }
        self.free_addr(vm, user_cap.addr())
    }

    /// Legacy-ABI free: only an address is presented.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] if `addr` is not a live allocation base.
    pub fn free_addr(&mut self, vm: &mut Vm, addr: u64) -> Result<(), AllocError> {
        self.charge(40);
        let meta = self.ledger.live.remove(&addr).ok_or(AllocError::BadFree)?;
        let with_rz = if self.asan {
            meta.padded + 2 * REDZONE
        } else {
            meta.padded
        };
        let slot_base = if self.asan { addr - REDZONE } else { addr };
        if self.asan {
            self.poison(vm, addr, meta.padded, 0xfd)?; // freed-memory poison
            self.charge(20);
        }
        if self.quarantine_active() {
            // Quarantine until a revocation sweep: the slot cannot be
            // reused while stale capabilities to it may still be live.
            self.ledger.sequester(QuarantineEntry {
                user_base: addr,
                padded: meta.padded,
                slot_base,
                slot_size: with_rz,
            });
            self.evidence.quarantine_bytes += with_rz;
        } else {
            self.ledger.release(slot_base, with_rz);
        }
        self.stats.frees += 1;
        self.stats.live_bytes -= meta.padded;
        // The hardened membrane sweeps on its own once the quarantine is
        // heavy enough; temporal mode waits for an explicit RtRevoke.
        if self.hardened
            && self.quarantine_active()
            && (self.ledger.quarantine.len() >= SWEEP_SLOTS
                || self.ledger.quarantined_bytes >= SWEEP_BYTES)
        {
            self.revoke(vm)?;
        }
        Ok(())
    }

    /// Reallocates: allocates the new size, copies `min(old, new)` bytes
    /// **capability-preservingly** (16-byte granules move as tagged loads
    /// and stores), frees the old region, and returns the new capability
    /// rederived from the allocator's internal state.
    ///
    /// # Errors
    ///
    /// As for [`Allocator::malloc`] and [`Allocator::free`].
    pub fn realloc(
        &mut self,
        vm: &mut Vm,
        user_cap: &Capability,
        new_len: u64,
    ) -> Result<Capability, AllocError> {
        if !user_cap.tag() {
            return Err(AllocError::BadCapability(CapFault::TagViolation));
        }
        let old = *self
            .ledger
            .live
            .get(&user_cap.addr())
            .ok_or(AllocError::BadFree)?;
        let new_cap = self.malloc(vm, new_len)?;
        let n = old.req_len.min(new_len);
        self.charge(n / 8 + 20);
        // Tag-preserving copy, granule by granule.
        let mut off = 0;
        while off + 16 <= n {
            match vm.load_cap(self.space, old.cap.base() + off)? {
                Some(c) => vm.store_cap(self.space, new_cap.base() + off, c)?,
                None => {
                    let mut buf = [0u8; 16];
                    vm.read_bytes(self.space, old.cap.base() + off, &mut buf)?;
                    vm.write_bytes(self.space, new_cap.base() + off, &buf)?;
                }
            }
            off += 16;
        }
        if off < n {
            let mut buf = vec![0u8; (n - off) as usize];
            vm.read_bytes(self.space, old.cap.base() + off, &mut buf)?;
            vm.write_bytes(self.space, new_cap.base() + off, &buf)?;
        }
        self.free_addr(vm, old.cap.base())?;
        Ok(new_cap)
    }

    /// Looks up the live allocation containing `addr` (diagnostics).
    #[must_use]
    pub fn allocation_at(&self, addr: u64) -> Option<(u64, u64)> {
        self.ledger
            .live
            .iter()
            .find(|(base, m)| addr >= **base && addr < **base + m.padded)
            .map(|(base, m)| (*base, m.req_len))
    }

    // ---- asan shadow helpers ----

    fn poison(&mut self, vm: &mut Vm, start: u64, len: u64, val: u8) -> Result<(), AllocError> {
        let s0 = ASAN_SHADOW_BASE + start / 8;
        let s1 = ASAN_SHADOW_BASE + (start + len) / 8;
        let buf = vec![val; (s1 - s0) as usize];
        vm.write_bytes(self.space, s0, &buf)?;
        Ok(())
    }

    fn unpoison_object(&mut self, vm: &mut Vm, start: u64, len: u64) -> Result<(), AllocError> {
        debug_assert_eq!(start % 8, 0);
        let full = len / 8;
        let buf = vec![0u8; full as usize];
        vm.write_bytes(self.space, ASAN_SHADOW_BASE + start / 8, &buf)?;
        if !len.is_multiple_of(8) {
            vm.write_bytes(
                self.space,
                ASAN_SHADOW_BASE + start / 8 + full,
                &[(len % 8) as u8],
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::{CapFormat, PrincipalId};

    fn setup(asan: bool) -> (Vm, Allocator) {
        let mut vm = Vm::new(1024);
        let id = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
        if asan {
            // Kernel maps the (lazily populated) shadow region covering the
            // whole low user range for asan processes.
            vm.map(
                id,
                Some(ASAN_SHADOW_BASE),
                1 << 41,
                Prot::rw(),
                Backing::Zero,
                "shadow",
            )
            .unwrap();
        }
        (vm, Allocator::new(id, asan))
    }

    #[test]
    fn malloc_returns_bounded_unmappable_cap() {
        let (mut vm, mut a) = setup(false);
        let c = a.malloc(&mut vm, 100).unwrap();
        assert!(c.tag());
        assert_eq!(c.length(), 100, "bounds match the request exactly");
        assert!(!c.perms().contains(Perms::VMMAP));
        assert!(!c.perms().contains(Perms::EXECUTE));
        assert!(c.perms().contains(Perms::LOAD | Perms::STORE));
        assert_eq!(c.provenance().source, CapSource::Malloc);
        assert!(c.check_access(c.base() + 99, 1, Perms::LOAD).is_ok());
        assert!(c.check_access(c.base() + 100, 1, Perms::LOAD).is_err());
    }

    #[test]
    fn large_allocations_have_exact_compressed_bounds() {
        let (mut vm, mut a) = setup(false);
        for len in [100u64, 5000, 70_000, (1 << 20) + 7] {
            let c = a.malloc(&mut vm, len).unwrap();
            assert!(c.length() >= len);
            assert_eq!(c.base() % 16, 0);
            // Bounds are the request, or its CRRL rounding when the
            // compressed format cannot represent it exactly.
            assert!(c.length() <= a.padded_size(&vm, len), "len={len}");
        }
    }

    #[test]
    fn free_requires_live_base() {
        let (mut vm, mut a) = setup(false);
        let c = a.malloc(&mut vm, 64).unwrap();
        // Interior pointer is rejected.
        assert_eq!(a.free(&mut vm, &c.inc_addr(8)), Err(AllocError::BadFree));
        // Untagged pointer is rejected.
        assert_eq!(
            a.free(&mut vm, &c.clear_tag()),
            Err(AllocError::BadCapability(CapFault::TagViolation))
        );
        assert!(a.free(&mut vm, &c).is_ok());
        // Double free rejected.
        assert_eq!(a.free(&mut vm, &c), Err(AllocError::BadFree));
    }

    #[test]
    fn freed_memory_is_recycled() {
        let (mut vm, mut a) = setup(false);
        let c1 = a.malloc(&mut vm, 64).unwrap();
        let b1 = c1.base();
        a.free(&mut vm, &c1).unwrap();
        let c2 = a.malloc(&mut vm, 64).unwrap();
        assert_eq!(c2.base(), b1, "same size class reuses the slot");
    }

    #[test]
    fn realloc_preserves_data_and_tags() {
        let (mut vm, mut a) = setup(false);
        let c = a.malloc(&mut vm, 64).unwrap();
        vm.write_u64(a.space, c.base(), 0x1122).unwrap();
        let inner = a.malloc(&mut vm, 16).unwrap();
        vm.store_cap(a.space, c.base() + 16, inner).unwrap();
        let bigger = a.realloc(&mut vm, &c, 256).unwrap();
        assert_eq!(vm.read_u64(a.space, bigger.base()).unwrap(), 0x1122);
        let moved = vm.load_cap(a.space, bigger.base() + 16).unwrap();
        assert_eq!(moved, Some(inner), "capability moved with its tag");
        assert!(bigger.length() >= 256);
    }

    #[test]
    fn asan_mode_poisons_redzones() {
        let (mut vm, mut a) = setup(true);
        let space = a.space;
        let c = a.malloc(&mut vm, 24).unwrap();
        let shadow = move |vm: &mut Vm, addr: u64| {
            let mut b = [0u8; 1];
            vm.read_bytes(space, ASAN_SHADOW_BASE + addr / 8, &mut b)
                .unwrap();
            b[0]
        };
        assert_eq!(shadow(&mut vm, c.base() - 8), 0xfa, "left redzone");
        assert_eq!(shadow(&mut vm, c.base()), 0, "object valid");
        assert_eq!(shadow(&mut vm, c.base() + 32), 0xfb, "right redzone");
        a.free(&mut vm, &c).unwrap();
        assert_eq!(shadow(&mut vm, c.base()), 0xfd, "freed poison");
    }

    #[test]
    fn charges_accumulate_and_drain() {
        let (mut vm, mut a) = setup(false);
        let _ = a.malloc(&mut vm, 64).unwrap();
        let (i, c) = a.take_charges();
        assert!(i > 0 && c >= i);
        assert_eq!(a.take_charges(), (0, 0));
    }

    // ---- the hardened membrane ----

    #[test]
    fn hardened_quarantines_then_reuses_only_after_sweep() {
        let (mut vm, mut a) = setup(false);
        a.set_hardened(true);
        let c1 = a.malloc(&mut vm, 64).unwrap();
        let b1 = c1.base();
        a.free(&mut vm, &c1).unwrap();
        // Quarantined, not on a free list: the next allocation must come
        // from fresh arena memory.
        let c2 = a.malloc(&mut vm, 64).unwrap();
        assert_ne!(c2.base(), b1, "quarantine blocks reuse before a sweep");
        assert_eq!(a.quarantined_ranges(), vec![(b1, 64)]);
        // After an explicit sweep the slot is reusable again.
        a.revoke(&mut vm).unwrap();
        let c3 = a.malloc(&mut vm, 64).unwrap();
        assert_eq!(c3.base(), b1, "sweep recycles the quarantined slot");
    }

    #[test]
    fn sweep_is_idempotent() {
        let (mut vm, mut a) = setup(false);
        a.set_hardened(true);
        let holder = a.malloc(&mut vm, 32).unwrap();
        let victim = a.malloc(&mut vm, 64).unwrap();
        vm.store_cap(a.space, holder.base(), victim).unwrap();
        a.free(&mut vm, &victim).unwrap();
        let (swept, recycled) = a.revoke(&mut vm).unwrap();
        assert_eq!((swept, recycled), (1, 1), "stale holder killed once");
        let (swept2, recycled2) = a.revoke(&mut vm).unwrap();
        assert_eq!((swept2, recycled2), (0, 0), "second sweep is a no-op");
        assert_eq!(a.take_evidence().swept_caps, 1);
    }

    #[test]
    fn hardened_autosweeps_at_byte_threshold() {
        let (mut vm, mut a) = setup(false);
        a.set_hardened(true);
        let holder = a.malloc(&mut vm, 32).unwrap();
        let victim = a.malloc(&mut vm, 512).unwrap();
        vm.store_cap(a.space, holder.base(), victim).unwrap();
        a.free(&mut vm, &victim).unwrap();
        // Churn enough bytes through quarantine to cross SWEEP_BYTES; the
        // membrane must sweep on its own, killing the stale holder cap.
        for _ in 0..(SWEEP_BYTES / 512 + 1) {
            let t = a.malloc(&mut vm, 512).unwrap();
            a.free(&mut vm, &t).unwrap();
        }
        assert_eq!(
            vm.load_cap(a.space, holder.base()).unwrap(),
            None,
            "auto-sweep revoked the stale capability"
        );
        let ev = a.take_evidence();
        assert!(ev.swept_caps >= 1, "sweep evidence recorded: {ev:?}");
        assert!(ev.quarantine_bytes > SWEEP_BYTES);
        assert_eq!(ev.repairs, 0);
    }

    #[test]
    fn weaken_quarantine_allows_reuse_after_free() {
        let (mut vm, mut a) = setup(false);
        a.set_hardened(true);
        a.set_weaken_quarantine(true);
        let c1 = a.malloc(&mut vm, 64).unwrap();
        let b1 = c1.base();
        a.free(&mut vm, &c1).unwrap();
        let c2 = a.malloc(&mut vm, 64).unwrap();
        assert_eq!(c2.base(), b1, "weakened membrane recycles immediately");
        assert_eq!(a.take_evidence(), AllocEvidence::default());
    }

    #[test]
    fn temporal_mode_quarantines_without_autosweep() {
        let (mut vm, mut a) = setup(false);
        a.set_temporal(true);
        let caps: Vec<Capability> = (0..SWEEP_SLOTS as u64 + 4)
            .map(|_| a.malloc(&mut vm, 512).unwrap())
            .collect();
        for c in &caps {
            a.free(&mut vm, c).unwrap();
        }
        // Past both thresholds, yet temporal mode waits for RtRevoke.
        assert_eq!(
            a.quarantined_ranges().len(),
            caps.len(),
            "no automatic sweep outside hardened mode"
        );
        let (_, recycled) = a.revoke(&mut vm).unwrap();
        assert_eq!(recycled, caps.len() as u64);
    }

    #[test]
    fn evidence_drains_once() {
        let (mut vm, mut a) = setup(false);
        a.set_hardened(true);
        let c = a.malloc(&mut vm, 64).unwrap();
        a.free(&mut vm, &c).unwrap();
        a.note_repair();
        let ev = a.take_evidence();
        assert_eq!(ev.repairs, 1);
        assert_eq!(ev.quarantine_bytes, 64);
        assert_eq!(a.take_evidence(), AllocEvidence::default());
    }
}
