//! # cheri-kernel — the CheriBSD-like kernel
//!
//! The substrate the CheriABI paper adapts: a UNIX-style kernel with
//! processes, `execve`, a syscall layer, signals, `fork`, pipes, a memory
//! file system, System-V shared memory, `kevent`, and `ptrace` debugging —
//! all implemented over the simulated CPU/VM and restructured around the
//! paper's two principles:
//!
//! * **Least privilege**: `execve` subdivides a fresh per-principal root
//!   capability into per-mapping capabilities (Figure 1); `mmap`/`shmat`
//!   return capabilities bounded to the allocation with permissions derived
//!   from the page protection; `munmap`/`shmdt`/fixed `mmap` demand the
//!   software-defined `VMMAP` permission.
//! * **Intentional use**: when serving a CheriABI process, every kernel
//!   access to user memory goes through the *user-provided* capability
//!   ([`Kernel`]'s copyin/copyout, Figure 3) — an out-of-bounds syscall
//!   buffer faults with `EFAULT` instead of becoming a confused-deputy
//!   write. Tags are stripped on ordinary copies; only designated
//!   interfaces (`kevent` udata, signal frames) preserve capabilities.
//!
//! Both process ABIs of §4 are supported side by side: **legacy mips64**
//! (pointers are integers, DDC spans the address space) and **CheriABI**
//! (DDC is NULL, all pointers are capabilities).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abi;
mod costs;
mod exec;
mod kernel;
mod process;
mod ptrace;
mod signal;
mod syscall;

pub use abi::{AbiMode, Errno, Sys};
pub use cheri_alloc::AllocEvidence;
pub use exec::SpawnOpts;
pub use kernel::{
    Kernel, KernelConfig, KernelStats, RunOutcome, SyscallCounts, SyscallFaultSpec, SyscallFaults,
};
pub use process::{ExitStatus, Pid, ProcState, Process, WaitReason};
pub use ptrace::PtraceOp;
pub use signal::{Signal, SIGBUS, SIGPROT};
