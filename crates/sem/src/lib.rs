//! # cheri-sem — the shared architectural step semantics
//!
//! The per-instruction semantics of the simulated CHERI-MIPS core, as a
//! *pure* layer: every handler in [`ops`] is generic over a minimal
//! [`MemoryPort`]/[`TrapPort`] surface and depends only on the capability
//! algebra (`cheri-cap`) and the instruction set (`cheri-isa`). Three
//! machines consume it:
//!
//! * the stepper in `cheri-cpu`, which plugs in its TLB and decode-once
//!   regions behind the port traits;
//! * the deliberately simple reference interpreter (also in `cheri-cpu`),
//!   which plugs in direct VM walks — no TLB, no resident region, no
//!   dispatch table; and
//! * the template tier in `cheri-cpu`, which runs hot loops over
//!   register-resident locals. It does not call the handlers, but it
//!   computes every integer result and branch decision through the same
//!   kernels they do: [`Alu`] and [`Cond`] are the one home of integer
//!   semantics, and [`alu_form`] maps each ALU instruction onto them. Its
//!   data accesses run the same checks ([`check_data`] and friends).
//!
//! Because the machines execute the *same* semantics, any observable
//! difference between them is a bug in the machinery around the semantics,
//! not in the semantics themselves — exactly the property the `--oracle`
//! harness mode checks (see DESIGN.md, "The oracle plane").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alu;
mod effects;
pub mod ops;
mod regfile;

pub use alu::{alu_form, Alu, Cond, Src};
pub use effects::{eff, RegEffects, RegSet};
pub use regfile::RegFile;

use cheri_cap::{CapFault, Capability, Perms};
use cheri_isa::Width;

/// Why a step left the run loop (the architectural exits; traps travel as
/// the port's fault type instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SemExit {
    /// The guest executed `syscall`; `rf.pc` already points at the next
    /// instruction, the syscall number is in `$v0`.
    Syscall,
    /// The guest executed `break` (abort / sanitizer trap); `rf.pc` still
    /// points at the `break` itself.
    Break,
}

/// What one instruction produces: `Ok(None)` to continue, `Ok(Some(exit))`
/// to leave the run loop, `Err(fault)` on a trap (with `rf.pc` still at
/// the faulting instruction).
pub type OpResult<F> = Result<Option<SemExit>, F>;

/// Per-instruction execution context handed to op handlers: the register
/// file, the instruction's own `pc`, the fall-through successor in `next`
/// (handlers overwrite it to branch), and the enclosing code region's
/// start for resolving static branch targets.
pub struct StepCtx<'a> {
    /// Architectural register file.
    pub rf: &'a mut RegFile,
    /// Address of the executing instruction.
    pub pc: u64,
    /// Successor address; `pc + 4` unless a handler branches.
    pub next: u64,
    /// Start address of the enclosing code region.
    pub rstart: u64,
}

/// Trap construction and accounting: the non-memory half of what a machine
/// lends the step semantics.
pub trait TrapPort {
    /// The machine's trap representation (e.g. `TrapInfo` in `cheri-cpu`).
    type Fault;

    /// Builds the machine's fault value for a failed capability check at
    /// `pc`, optionally naming the data address involved.
    fn cap_fault(&mut self, pc: u64, fault: CapFault, vaddr: Option<u64>) -> Self::Fault;

    /// Charges extra cycles (legacy unaligned-access fix-up cost).
    fn charge_cycles(&mut self, _cycles: u64) {}

    /// Counts one retired `syscall` instruction.
    fn count_syscall(&mut self) {}

    /// Records a bounds/permission-deriving instruction retiring (the
    /// Figure 5 derivation trace).
    fn record_derivation(&mut self, _cap: &Capability) {}

    /// Test-only semantic weakening: when true, `csetbounds` (register
    /// form) skips the monotonicity check. Exists solely so the oracle
    /// self-test can prove divergences are detected; every real machine
    /// except the deliberately weakened fast path returns false.
    fn weaken_sem(&self) -> bool {
        false
    }
}

/// The memory surface a machine lends the step semantics. All addresses
/// are virtual; implementations perform translation, cache-event
/// accounting and the actual byte/granule transfer. Capability checks
/// (bounds, permissions, alignment) stay on the semantics side.
pub trait MemoryPort: TrapPort {
    /// Reads `size` bytes at `vaddr`, little-endian into the low bytes of
    /// the result. No capability checks; `pc` is for fault attribution.
    ///
    /// # Errors
    ///
    /// Translation or access failure, as the machine's fault type.
    fn read_raw(&mut self, vaddr: u64, size: u64, pc: u64) -> Result<u64, Self::Fault>;

    /// Writes the low `size` bytes of `value` at `vaddr`, little-endian.
    ///
    /// # Errors
    ///
    /// Translation or access failure, as the machine's fault type.
    fn write_raw(&mut self, vaddr: u64, size: u64, value: u64, pc: u64) -> Result<(), Self::Fault>;

    /// Reads one capability granule at `vaddr` (already alignment- and
    /// bounds-checked): `Some` if the granule holds a tagged capability,
    /// `None` if it holds plain data.
    ///
    /// # Errors
    ///
    /// Translation or access failure, as the machine's fault type.
    fn read_granule(&mut self, vaddr: u64, pc: u64) -> Result<Option<Capability>, Self::Fault>;

    /// Stores `value` into the capability granule at `vaddr` (already
    /// alignment-, bounds- and store-permission-checked).
    ///
    /// # Errors
    ///
    /// Translation or access failure, as the machine's fault type.
    fn write_granule(&mut self, vaddr: u64, value: Capability, pc: u64) -> Result<(), Self::Fault>;
}

/// The capability checks of a `size`-byte data access at `vaddr` through
/// `cap` (`size` a power of two, a [`Width`]'s bytes), in handler order: alignment (when required), then tag, seal,
/// permission `need` and bounds. The handlers and the template tier's
/// in-trace guards both call it, so they cannot disagree about which
/// accesses pass.
///
/// # Errors
///
/// The first failed check.
#[inline]
pub fn check_data(
    cap: &Capability,
    vaddr: u64,
    size: u64,
    need: Perms,
    aligned_required: bool,
) -> Result<(), CapFault> {
    debug_assert!(size.is_power_of_two());
    if aligned_required && vaddr & (size - 1) != 0 {
        return Err(CapFault::UnalignedDataAccess);
    }
    cap.check_access(vaddr, size, need)
}

/// The checks of a capability-width access (`clc`/`csc`) at `vaddr`
/// through `cap`: granule alignment, then tag, seal, permission `need` and
/// bounds.
///
/// # Errors
///
/// The first failed check.
#[inline]
pub fn check_cap_access(cap: &Capability, vaddr: u64, need: Perms) -> Result<(), CapFault> {
    let size = cap.format().in_memory_size();
    if vaddr & (size - 1) != 0 {
        return Err(CapFault::UnalignedCapAccess);
    }
    cap.check_access(vaddr, size, need)
}

/// The extra checks of `csc` storing `value` through `cap`: a tagged value
/// needs `STORE_CAP`, and a non-global one also `STORE_LOCAL_CAP`.
///
/// # Errors
///
/// The first failed check.
#[inline]
pub fn check_cap_store(cap: &Capability, value: &Capability) -> Result<(), CapFault> {
    if value.tag() {
        if !cap.perms().contains(Perms::STORE_CAP) {
            return Err(CapFault::PermitStoreCapViolation);
        }
        if !value.perms().contains(Perms::GLOBAL) && !cap.perms().contains(Perms::STORE_LOCAL_CAP) {
            return Err(CapFault::PermitStoreLocalCapViolation);
        }
    }
    Ok(())
}

/// What `clc` through `cap` writes for a tagged granule holding `c`:
/// loading through a capability without `LOAD_CAP` strips the tag.
#[must_use]
#[inline]
pub fn loaded_cap(cap: &Capability, c: Capability) -> Capability {
    if cap.perms().contains(Perms::LOAD_CAP) {
        c
    } else {
        c.clear_tag()
    }
}

/// The destination value of a `w`-wide load that read `raw` (the low
/// bytes): sign-extended when `signed`, else as read.
#[must_use]
#[inline]
pub fn extend(raw: u64, w: Width, signed: bool) -> u64 {
    if !signed {
        return raw;
    }
    match w {
        Width::B => raw as u8 as i8 as i64 as u64,
        Width::H => raw as u16 as i16 as i64 as u64,
        Width::W => raw as u32 as i32 as i64 as u64,
        Width::D => raw,
    }
}

/// Checked data read: [`check_data`] with `LOAD`, raw read, sign
/// extension.
///
/// # Errors
///
/// Capability faults from the checks, or the port's translation/access
/// fault.
pub fn data_read<P: MemoryPort>(
    p: &mut P,
    cap: &Capability,
    vaddr: u64,
    w: Width,
    signed: bool,
    aligned_required: bool,
    pc: u64,
) -> Result<u64, P::Fault> {
    let size = w.bytes();
    check_data(cap, vaddr, size, Perms::LOAD, aligned_required)
        .map_err(|f| p.cap_fault(pc, f, Some(vaddr)))?;
    let raw = p.read_raw(vaddr, size, pc)?;
    Ok(extend(raw, w, signed))
}

/// Checked data write: [`check_data`] with `STORE`, raw write.
///
/// # Errors
///
/// Capability faults from the checks, or the port's translation/access
/// fault.
pub fn data_write<P: MemoryPort>(
    p: &mut P,
    cap: &Capability,
    vaddr: u64,
    w: Width,
    value: u64,
    aligned_required: bool,
    pc: u64,
) -> Result<(), P::Fault> {
    let size = w.bytes();
    check_data(cap, vaddr, size, Perms::STORE, aligned_required)
        .map_err(|f| p.cap_fault(pc, f, Some(vaddr)))?;
    p.write_raw(vaddr, size, value, pc)
}

/// The authorizing capability for a legacy (non-capability) access: DDC,
/// which is NULL under CheriABI so every legacy access traps.
///
/// # Errors
///
/// [`CapFault::DdcNull`] (as the port's fault type) when DDC is untagged.
pub fn legacy_cap<P: TrapPort>(p: &mut P, rf: &RegFile, pc: u64) -> Result<Capability, P::Fault> {
    if !rf.ddc.tag() {
        Err(p.cap_fault(pc, CapFault::DdcNull, None))
    } else {
        Ok(rf.ddc)
    }
}
