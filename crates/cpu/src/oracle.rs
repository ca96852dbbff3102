//! The lockstep oracle: a side-effect-free shadow of every dispatched
//! instruction.
//!
//! After the fast machine executes an instruction, the shadow re-executes
//! the *same* semantics handler (from [`cheri_sem::ops`]) against the
//! pre-instruction register file, with memory observed read-only through
//! the VM's peek interface — no faults taken, no statistics touched, no
//! cache events emitted. Any difference between the shadow's outcome and
//! the fast machine's (exit kind, successor pc, full register file, or
//! what a store actually left in memory) is recorded as a [`Divergence`].
//!
//! Because both sides run the same handler bodies, a clean run proves the
//! stepper's machinery (TLB, decode-once regions, resident region, flat
//! op table) is observationally equivalent to plain semantics — and the
//! `--weaken-sem` self-test proves the comparison actually has teeth.

use cheri_cap::{CapFault, Capability};
use cheri_isa::Instr;
use cheri_sem::{MemoryPort, RegFile, SemExit, StepCtx, TrapPort};
use cheri_vm::{Access, AsId, Vm};

use crate::cpu::{TrapCause, TrapInfo};

/// A detected fast-vs-shadow divergence: the `--oracle` diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Address of the diverging instruction.
    pub pc: u64,
    /// Instructions retired (fast machine) when the divergence was seen.
    pub instret: u64,
    /// Human-readable description of what differed.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at pc={:#x} instret={}: {}",
            self.pc, self.instret, self.detail
        )
    }
}

/// Armed lockstep state on a [`crate::Cpu`].
pub(crate) struct LockstepState {
    /// Check cadence: every N retired instructions (1 = every step). Trap
    /// and run-exit boundaries are always checked regardless.
    pub every: u64,
    /// Steps until the next cadence-driven check.
    pub countdown: u64,
    /// Whether to verify store contents against memory after the fact.
    /// Disabled while a fault plan is armed: injected bit-flips corrupt
    /// granules behind the architecture's back, which is exactly the
    /// non-architectural behaviour the fault plane exists to create.
    pub verify_stores: bool,
    /// First divergence observed; checking stops once one is recorded.
    pub divergence: Option<Divergence>,
}

/// The shadow's trap representation: enough to match against the fast
/// machine's [`TrapInfo`] without the shadow having to reproduce the VM's
/// exact error (the shadow cannot fault pages in, so any non-resident
/// access maps to [`ShadowFault::Mem`]).
#[derive(Clone, Copy, Debug)]
enum ShadowFault {
    /// A capability check failed, with the data address involved.
    Cap(CapFault, Option<u64>),
    /// A memory access the shadow could not service read-only — the fast
    /// machine must have taken a VM fault at the same address.
    Mem(u64),
}

/// Read-only semantics port over the post-instruction VM: observes memory
/// via peeks, never mutates anything, never counts anything.
struct ShadowPorts<'v> {
    vm: &'v Vm,
    id: AsId,
    verify_stores: bool,
    store_mismatch: Option<String>,
}

impl TrapPort for ShadowPorts<'_> {
    type Fault = ShadowFault;

    fn cap_fault(&mut self, _pc: u64, fault: CapFault, vaddr: Option<u64>) -> ShadowFault {
        ShadowFault::Cap(fault, vaddr)
    }
}

impl MemoryPort for ShadowPorts<'_> {
    fn read_raw(&mut self, vaddr: u64, size: u64, _pc: u64) -> Result<u64, ShadowFault> {
        let mut buf = [0u8; 8];
        self.vm
            .peek_bytes(self.id, vaddr, &mut buf[..size as usize])
            .ok_or(ShadowFault::Mem(vaddr))?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_raw(
        &mut self,
        vaddr: u64,
        size: u64,
        value: u64,
        _pc: u64,
    ) -> Result<(), ShadowFault> {
        // The fast machine ran first: if the page is not writable now, its
        // store must have trapped (a successful store leaves the page
        // resident, COW-resolved and writable).
        if self.vm.lookup(self.id, vaddr, Access::Write).is_none() {
            return Err(ShadowFault::Mem(vaddr));
        }
        if self.verify_stores && self.store_mismatch.is_none() {
            let mut buf = [0u8; 8];
            match self
                .vm
                .peek_bytes(self.id, vaddr, &mut buf[..size as usize])
            {
                None => return Err(ShadowFault::Mem(vaddr)),
                Some(()) => {
                    let got = u64::from_le_bytes(buf);
                    let want = if size == 8 {
                        value
                    } else {
                        value & ((1u64 << (size * 8)) - 1)
                    };
                    if got != want {
                        self.store_mismatch = Some(format!(
                            "store of {size} bytes at {vaddr:#x}: memory holds {got:#x}, semantics wrote {want:#x}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn read_granule(&mut self, vaddr: u64, _pc: u64) -> Result<Option<Capability>, ShadowFault> {
        self.vm
            .peek_cap(self.id, vaddr)
            .ok_or(ShadowFault::Mem(vaddr))
    }

    fn write_granule(
        &mut self,
        vaddr: u64,
        value: Capability,
        _pc: u64,
    ) -> Result<(), ShadowFault> {
        if self.vm.lookup(self.id, vaddr, Access::Write).is_none() {
            return Err(ShadowFault::Mem(vaddr));
        }
        if self.verify_stores && self.store_mismatch.is_none() {
            match self.vm.peek_cap(self.id, vaddr) {
                None => return Err(ShadowFault::Mem(vaddr)),
                Some(stored) => {
                    if value.tag() {
                        if stored != Some(value) {
                            self.store_mismatch = Some(format!(
                                "capability store at {vaddr:#x} did not round-trip: memory holds {stored:?}, semantics stored {value:?}"
                            ));
                        }
                    } else if stored.is_some() {
                        self.store_mismatch = Some(format!(
                            "untagged capability store at {vaddr:#x} left the granule tagged"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Re-executes one instruction in the shadow and compares every observable
/// outcome against the fast machine's. Returns `Some(detail)` on mismatch.
///
/// `post`/`post_next` are the fast machine's register file and successor
/// address *after* the handler ran (pc not yet committed); `pre` is a clone
/// taken just before dispatch. `res` is the fast handler's raw result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_step(
    vm: &Vm,
    id: AsId,
    pre: &RegFile,
    post: &RegFile,
    post_next: u64,
    pc: u64,
    rstart: u64,
    instr: Instr,
    res: &Result<Option<SemExit>, TrapInfo>,
    verify_stores: bool,
) -> Option<String> {
    let mut srf = pre.clone();
    let snext;
    let mut sp = ShadowPorts {
        vm,
        id,
        verify_stores,
        store_mismatch: None,
    };
    let sres = {
        let mut scx = StepCtx {
            rf: &mut srf,
            pc,
            next: pc.wrapping_add(4),
            rstart,
        };
        let r = cheri_sem::ops::step_instr(&mut sp, &mut scx, instr);
        snext = scx.next;
        r
    };
    match (res, sres) {
        (Ok(fast), Ok(shadow)) => {
            if *fast != shadow {
                return Some(format!("exit mismatch: fast {fast:?}, shadow {shadow:?}"));
            }
            if post_next != snext {
                return Some(format!(
                    "successor pc mismatch: fast {post_next:#x}, shadow {snext:#x}"
                ));
            }
            if let Some(m) = sp.store_mismatch {
                return Some(m);
            }
            if *post != srf {
                return Some(regfile_delta(post, &srf));
            }
            None
        }
        (Err(t), Err(sf)) => match sf {
            ShadowFault::Cap(fault, vaddr) => {
                if t.cause == TrapCause::Cap(fault) && t.vaddr == vaddr {
                    None
                } else {
                    Some(format!(
                        "trap mismatch: fast {t:?}, shadow capability fault {fault:?} at {vaddr:?}"
                    ))
                }
            }
            // The shadow cannot reproduce the VM's exact error kind, so any
            // VM-classified fast trap matches a shadow memory refusal.
            ShadowFault::Mem(va) => {
                if matches!(t.cause, TrapCause::Vm(_)) {
                    None
                } else {
                    Some(format!(
                        "trap mismatch: fast {t:?}, shadow memory fault at {va:#x}"
                    ))
                }
            }
        },
        (Ok(fast), Err(sf)) => Some(format!(
            "fast machine continued ({fast:?}) where the shadow faulted ({sf:?})"
        )),
        (Err(t), Ok(shadow)) => Some(format!(
            "fast machine trapped ({t:?}) where the shadow continued ({shadow:?})"
        )),
    }
}

/// Lists every architectural register that differs between the fast and
/// shadow post-states.
fn regfile_delta(fast: &RegFile, shadow: &RegFile) -> String {
    let mut diffs = Vec::new();
    for i in 0..32 {
        if fast.gpr[i] != shadow.gpr[i] {
            diffs.push(format!(
                "r{i}: fast {:#x}, shadow {:#x}",
                fast.gpr[i], shadow.gpr[i]
            ));
        }
    }
    for i in 0..32 {
        if fast.caps[i] != shadow.caps[i] {
            diffs.push(format!(
                "c{i}: fast {:?}, shadow {:?}",
                fast.caps[i], shadow.caps[i]
            ));
        }
    }
    if fast.pcc != shadow.pcc {
        diffs.push(format!("pcc: fast {:?}, shadow {:?}", fast.pcc, shadow.pcc));
    }
    if fast.ddc != shadow.ddc {
        diffs.push(format!("ddc: fast {:?}, shadow {:?}", fast.ddc, shadow.ddc));
    }
    if fast.pc != shadow.pc {
        diffs.push(format!("pc: fast {:#x}, shadow {:#x}", fast.pc, shadow.pc));
    }
    format!("register state diverged: {}", diffs.join("; "))
}
