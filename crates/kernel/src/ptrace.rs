//! `ptrace` debugging (§3 "Debugging", §4 "Debugging").
//!
//! "Two processes are involved in debugging — the debugger and the target —
//! and hence two different principal IDs. Abstract capabilities belong to
//! one or the other, and must not be propagated between them. The debugger
//! process may inspect capabilities from, or inject capabilities into, the
//! target memory or register file; these capabilities are derived from an
//! appropriate extant target or root architectural capability."
//!
//! Concretely:
//!
//! * **inspection** returns capability *fields* (address, base, length,
//!   permissions, tag) as plain integers — the debugger never receives a
//!   tagged capability for the target's address space;
//! * **injection** names the desired authority (base, length, permissions)
//!   and the kernel derives the capability from the **target's root**; a
//!   request exceeding the target's authority fails with `EPROT`.

use crate::abi::Errno;
use crate::kernel::Kernel;
use crate::process::{Pid, ProcState, WaitReason};
use cheri_cap::Perms;

/// `ptrace` request codes (`$a0` of the syscall).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u64)]
pub enum PtraceOp {
    /// Attach to a target pid; it stops at its next scheduling point.
    Attach = 1,
    /// Detach and resume the target.
    Detach = 2,
    /// Read 8 bytes of target memory.
    PeekData = 3,
    /// Write 8 bytes of target memory (tags in the granule are cleared —
    /// data pokes cannot forge capabilities).
    PokeData = 4,
    /// Read an integer register.
    GetReg = 5,
    /// Read a capability register's address field.
    GetCapAddr = 6,
    /// Read a capability register's base.
    GetCapBase = 7,
    /// Read a capability register's length.
    GetCapLen = 8,
    /// Read a capability register's permission bits.
    GetCapPerms = 9,
    /// Read a capability register's tag.
    GetCapTag = 10,
    /// Inject a capability into target memory, rederived from the target's
    /// root: `a2` = target store address, `a3` = base, `a4` = length,
    /// `a5` = permission bits.
    WriteCap = 11,
    /// Resume the target.
    Continue = 12,
}

impl PtraceOp {
    /// Decodes a request code.
    #[must_use]
    pub fn from_u64(v: u64) -> Option<PtraceOp> {
        Some(match v {
            1 => PtraceOp::Attach,
            2 => PtraceOp::Detach,
            3 => PtraceOp::PeekData,
            4 => PtraceOp::PokeData,
            5 => PtraceOp::GetReg,
            6 => PtraceOp::GetCapAddr,
            7 => PtraceOp::GetCapBase,
            8 => PtraceOp::GetCapLen,
            9 => PtraceOp::GetCapPerms,
            10 => PtraceOp::GetCapTag,
            11 => PtraceOp::WriteCap,
            12 => PtraceOp::Continue,
            _ => return None,
        })
    }
}

impl Kernel {
    /// Public entry point for driving `ptrace` requests from host-side test
    /// harnesses (arguments are read from the tracer's registers exactly as
    /// for the guest syscall).
    ///
    /// # Errors
    ///
    /// As for the guest syscall: `EINVAL`, `ESRCH`, `EPERM`, `EBUSY`,
    /// `EFAULT` or `EPROT`.
    pub fn sys_ptrace_public(&mut self, tracer: Pid) -> Result<u64, Errno> {
        self.sys_ptrace(tracer)
    }

    /// Implements the `ptrace` syscall for `tracer`.
    pub(crate) fn sys_ptrace(&mut self, tracer: Pid) -> Result<u64, Errno> {
        let op = PtraceOp::from_u64(self.user_val(tracer, 0)).ok_or(Errno::EINVAL)?;
        let target = Pid(self.user_val(tracer, 1));
        if self.procs.get(target).is_none() || target == tracer {
            return Err(Errno::ESRCH);
        }
        // Except for Attach, the tracer must already be attached.
        if op != PtraceOp::Attach && self.process(target).traced_by != Some(tracer) {
            return Err(Errno::EPERM);
        }
        match op {
            PtraceOp::Attach => {
                if self.process(target).traced_by.is_some() {
                    return Err(Errno::EBUSY);
                }
                let t = self.process_mut(target);
                t.traced_by = Some(tracer);
                if matches!(t.state, ProcState::Runnable) {
                    t.state = ProcState::Blocked(WaitReason::Traced);
                }
                Ok(0)
            }
            PtraceOp::Detach => {
                let t = self.process_mut(target);
                t.traced_by = None;
                if matches!(t.state, ProcState::Blocked(WaitReason::Traced)) {
                    t.state = ProcState::Runnable;
                }
                if !self.runq.contains(&target) {
                    self.runq.push_back(target);
                }
                Ok(0)
            }
            PtraceOp::Continue => {
                let t = self.process_mut(target);
                if matches!(t.state, ProcState::Blocked(WaitReason::Traced)) {
                    t.state = ProcState::Runnable;
                    if !self.runq.contains(&target) {
                        self.runq.push_back(target);
                    }
                }
                Ok(0)
            }
            PtraceOp::PeekData => {
                let addr = self.user_val(tracer, 2);
                let space = self.process(target).space;
                self.vm.read_u64(space, addr).map_err(|_| Errno::EFAULT)
            }
            PtraceOp::PokeData => {
                let addr = self.user_val(tracer, 2);
                let val = self.user_val(tracer, 3);
                let space = self.process(target).space;
                self.vm
                    .write_u64(space, addr, val)
                    .map(|()| 0)
                    .map_err(|_| Errno::EFAULT)
            }
            PtraceOp::GetReg => {
                let r = self.user_val(tracer, 2) as u8;
                if r >= 32 {
                    return Err(Errno::EINVAL);
                }
                Ok(self.process(target).regs.r(cheri_isa::IReg(r)))
            }
            PtraceOp::GetCapAddr
            | PtraceOp::GetCapBase
            | PtraceOp::GetCapLen
            | PtraceOp::GetCapPerms
            | PtraceOp::GetCapTag => {
                let r = self.user_val(tracer, 2) as u8;
                if r >= 32 {
                    return Err(Errno::EINVAL);
                }
                let c = self.process(target).regs.c(cheri_isa::CReg(r));
                Ok(match op {
                    PtraceOp::GetCapAddr => c.addr(),
                    PtraceOp::GetCapBase => c.base(),
                    PtraceOp::GetCapLen => c.length(),
                    PtraceOp::GetCapPerms => u64::from(c.perms().bits()),
                    PtraceOp::GetCapTag => u64::from(c.tag()),
                    _ => unreachable!(),
                })
            }
            PtraceOp::WriteCap => {
                let store_at = self.user_val(tracer, 2);
                let base = self.user_val(tracer, 3);
                let len = self.user_val(tracer, 4);
                let perms = Perms::from_bits_truncate(self.user_val(tracer, 5) as u32);
                let space = self.process(target).space;
                let root = self.vm.space(space).root;
                // Derivation from the TARGET's root: the injected
                // capability carries the target's principal, and the
                // request must be within the target's authority.
                let cap = root
                    .with_addr(base)
                    .set_bounds(len, false)
                    .map_err(|_| Errno::EPROT)?
                    .and_perms(perms);
                if !perms.is_subset_of(root.perms()) {
                    return Err(Errno::EPROT);
                }
                let injected = cap.with_source(cheri_cap::CapSource::Debugger);
                self.vm
                    .store_cap(space, store_at, injected)
                    .map(|()| 0)
                    .map_err(|_| Errno::EFAULT)
            }
        }
    }
}
