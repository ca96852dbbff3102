//! The process table entry.

use crate::abi::AbiMode;
use cheri_alloc::Allocator;
use cheri_cap::{Capability, PrincipalId};
use cheri_cpu::{RegFile, TrapCause};
use cheri_mem::IntMap;
use cheri_rtld::LoadedProgram;
use cheri_vm::AsId;
use std::collections::VecDeque;
use std::fmt;

/// Process identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Why a process finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitStatus {
    /// Voluntary `exit(code)`.
    Code(i64),
    /// Killed by an unhandled trap (the CheriABI `SIGPROT` path records the
    /// capability fault that raised it).
    Fault(TrapCause),
    /// Killed by an unhandled signal.
    Signaled(u8),
    /// The AddressSanitizer instrumentation aborted the program (`break`).
    SanitizerAbort,
    /// The kernel's per-process instruction budget ran out (runaway guard).
    BudgetExhausted,
}

impl ExitStatus {
    /// True if the process was stopped by a memory-safety detector
    /// (capability fault or sanitizer abort) — the Table 3 "detected"
    /// predicate.
    #[must_use]
    pub fn is_safety_stop(self) -> bool {
        matches!(self, ExitStatus::Fault(_) | ExitStatus::SanitizerAbort)
    }
}

/// What a blocked process is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitReason {
    /// Readable data (or EOF) on a pipe.
    PipeReadable(u64),
    /// Buffer space (or reader loss) on a pipe.
    PipeWritable(u64),
    /// Exit of a child (or any child if `None`).
    Child(Option<Pid>),
    /// A registered kevent to fire.
    Kevent,
    /// Readiness of any read-set fd in a `select` call (bitmap of fds).
    Select(u64),
    /// Stopped by a tracer (`ptrace` attach).
    Traced,
}

/// Scheduling state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Eligible to run.
    Runnable,
    /// Waiting; the pending syscall is retried when the condition holds.
    Blocked(WaitReason),
    /// Finished.
    Exited(ExitStatus),
}

/// An open file description.
#[derive(Clone, Debug)]
pub enum FileDesc {
    /// Process stdout/stderr; bytes are captured per process.
    Console,
    /// Read end of a pipe.
    PipeRead(u64),
    /// Write end of a pipe.
    PipeWrite(u64),
    /// A memory-filesystem file and cursor.
    File {
        /// Path key in the kernel's memfs.
        path: String,
        /// Read/write cursor.
        pos: u64,
        /// Opened writable.
        writable: bool,
    },
}

/// A registered kevent (the paper's example of a syscall that stores user
/// pointers in kernel structures: "we have modified the kernel structures
/// to store capabilities").
#[derive(Clone, Copy, Debug)]
pub struct KqEntry {
    /// Identifier (an fd).
    pub ident: u64,
    /// User data pointer, stored as a full capability so the tag survives
    /// the round trip through the kernel.
    pub udata: Capability,
    /// Whether the event has fired and awaits collection.
    pub fired: bool,
}

/// One simulated process (single-threaded).
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent, if any.
    pub parent: Option<Pid>,
    /// ABI this process runs under.
    pub abi: AbiMode,
    /// Its address space.
    pub space: AsId,
    /// Its abstract principal (== address-space principal).
    pub principal: PrincipalId,
    /// Saved architectural registers.
    pub regs: RegFile,
    /// Scheduling state.
    pub state: ProcState,
    /// Userspace allocator state (runtime service).
    pub allocator: Allocator,
    /// File descriptor table.
    pub fds: Vec<Option<FileDesc>>,
    /// Signal handlers: signal -> handler function address.
    pub sighandlers: IntMap<u8, u64>,
    /// Signals queued for delivery.
    pub pending_signals: VecDeque<u8>,
    /// Stack of signal-frame addresses (for nested delivery/sigreturn).
    pub signal_frames: Vec<u64>,
    /// Captured console output.
    pub console: Vec<u8>,
    /// The loaded program image (symbols, trampoline, TLS).
    pub loaded: LoadedProgram,
    /// Trampoline page PC for signal return.
    pub trampoline_pc: u64,
    /// kevent registrations.
    pub kq: Vec<KqEntry>,
    /// Children.
    pub children: Vec<Pid>,
    /// Exited children awaiting `waitpid`.
    pub zombies: Vec<(Pid, ExitStatus)>,
    /// Tracer process, if being debugged.
    pub traced_by: Option<Pid>,
    /// Pending swap-I/O retry site `(pc, vaddr)`: set after the first
    /// `SwapIo` trap at that site so a repeat becomes SIGBUS instead of an
    /// unbounded retry loop. Cleared whenever a slice ends without one.
    pub swap_retry: Option<(u64, u64)>,
    /// Instruction budget left (runaway guard).
    pub instr_budget: u64,
    /// Guest cycles this process has consumed (scheduler-maintained ledger;
    /// includes kernel work performed on its behalf during its slices).
    pub cycles: u64,
    /// Whether the process was built with asan instrumentation.
    pub asan: bool,
    /// Top of the stack mapping.
    pub stack_top: u64,
    /// Size of the stack mapping.
    pub stack_size: u64,
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Process{{{} {} {:?}}}", self.pid, self.abi, self.state)
    }
}

impl Process {
    /// Allocates the lowest free fd slot.
    pub fn install_fd(&mut self, desc: FileDesc) -> u64 {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(desc);
                return i as u64;
            }
        }
        self.fds.push(Some(desc));
        self.fds.len() as u64 - 1
    }

    /// Looks up an fd.
    #[must_use]
    pub fn fd(&self, fd: u64) -> Option<&FileDesc> {
        self.fds.get(fd as usize).and_then(Option::as_ref)
    }

    /// The captured console output as UTF-8 (lossy).
    #[must_use]
    pub fn console_string(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_status_safety_classification() {
        use cheri_cap::CapFault;
        assert!(ExitStatus::Fault(TrapCause::Cap(CapFault::LengthViolation)).is_safety_stop());
        assert!(ExitStatus::SanitizerAbort.is_safety_stop());
        assert!(!ExitStatus::Code(0).is_safety_stop());
        assert!(!ExitStatus::Signaled(9).is_safety_stop());
    }
}
