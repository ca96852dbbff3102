//! Process ABIs, syscall numbers and error codes.

use std::fmt;

/// The two process ABIs CheriBSD supports side by side (§4: "We continue to
/// support the large suite of 'legacy' mips64 userspace applications that
/// adhere to the SysV ABI, alongside CheriABI userspace programs").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbiMode {
    /// Legacy SysV ABI: integer pointers, DDC spans the address space.
    Mips64,
    /// CheriABI: capability pointers everywhere, DDC = NULL.
    CheriAbi,
}

impl AbiMode {
    /// In-memory pointer size under this ABI (128-bit capabilities).
    #[must_use]
    pub fn ptr_size(self) -> u64 {
        match self {
            AbiMode::Mips64 => 8,
            AbiMode::CheriAbi => 16,
        }
    }

    /// The matching code-generation ABI.
    #[must_use]
    pub fn codegen_abi(self) -> cheri_isa::codegen::Abi {
        match self {
            AbiMode::Mips64 => cheri_isa::codegen::Abi::Mips64,
            AbiMode::CheriAbi => cheri_isa::codegen::Abi::PureCap,
        }
    }
}

impl fmt::Display for AbiMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbiMode::Mips64 => "mips64",
            AbiMode::CheriAbi => "cheriabi",
        })
    }
}

/// System-call numbers (loaded into `$v0` before `syscall`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(i64)]
#[allow(missing_docs)] // names mirror the POSIX calls they model
pub enum Sys {
    Exit = 1,
    Write = 2,
    Read = 3,
    Open = 4,
    Close = 5,
    Pipe = 6,
    Getpid = 7,
    Fork = 8,
    Waitpid = 9,
    Mmap = 10,
    Munmap = 11,
    Shmget = 12,
    Shmat = 13,
    Shmdt = 14,
    Sigaction = 15,
    Sigreturn = 16,
    Kill = 17,
    Select = 18,
    KeventRegister = 19,
    KeventWait = 20,
    Ptrace = 21,
    /// Deliberately unsupported: "we have excluded sbrk as a matter of
    /// principle" (§4); always returns `ENOSYS`.
    Sbrk = 22,
    Ioctl = 23,
    Sysctl = 24,
    Unlink = 25,
    /// Test/benchmark hook: force pages of the calling process to swap.
    Swapctl = 26,
    /// Runtime services (userspace malloc implemented as a trusted runtime;
    /// see DESIGN.md §3 — capability flow matches the paper's jemalloc).
    RtMalloc = 40,
    RtFree = 41,
    RtRealloc = 42,
    /// Temporal safety: enable/disable allocator quarantine (a0 = 0/1).
    RtSetTemporal = 43,
    /// Temporal safety: revocation sweep; returns revoked-capability count.
    RtRevoke = 44,
    /// `mprotect(addr/cap, len, prot)`.
    Mprotect = 27,
    /// Reads the deterministic guest cycle clock (scenario latency stamps).
    Cycles = 28,
}

impl Sys {
    /// The largest syscall number.
    pub(crate) const MAX_NUMBER: u64 = Sys::RtRevoke as u64;

    /// Decodes a syscall number.
    #[must_use]
    pub fn from_number(n: u64) -> Option<Sys> {
        Some(match n {
            1 => Sys::Exit,
            2 => Sys::Write,
            3 => Sys::Read,
            4 => Sys::Open,
            5 => Sys::Close,
            6 => Sys::Pipe,
            7 => Sys::Getpid,
            8 => Sys::Fork,
            9 => Sys::Waitpid,
            10 => Sys::Mmap,
            11 => Sys::Munmap,
            12 => Sys::Shmget,
            13 => Sys::Shmat,
            14 => Sys::Shmdt,
            15 => Sys::Sigaction,
            16 => Sys::Sigreturn,
            17 => Sys::Kill,
            18 => Sys::Select,
            19 => Sys::KeventRegister,
            20 => Sys::KeventWait,
            21 => Sys::Ptrace,
            22 => Sys::Sbrk,
            23 => Sys::Ioctl,
            24 => Sys::Sysctl,
            25 => Sys::Unlink,
            26 => Sys::Swapctl,
            27 => Sys::Mprotect,
            28 => Sys::Cycles,
            40 => Sys::RtMalloc,
            41 => Sys::RtFree,
            42 => Sys::RtRealloc,
            43 => Sys::RtSetTemporal,
            44 => Sys::RtRevoke,
            _ => return None,
        })
    }
}

/// POSIX-style error numbers returned (negated) in `$v0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(i64)]
#[allow(missing_docs)]
pub enum Errno {
    EPERM = 1,
    ENOENT = 2,
    ESRCH = 3,
    /// Interrupted call. With kernel restart semantics (the default here)
    /// user code never observes it; the fault-injection plane uses it to
    /// exercise the restart path.
    EINTR = 4,
    EBADF = 9,
    ECHILD = 10,
    ENOMEM = 12,
    EFAULT = 14,
    EBUSY = 16,
    EEXIST = 17,
    EINVAL = 22,
    ENOSYS = 78,
    /// Capability permission missing (CheriBSD's `EPROT`).
    EPROT = 96,
}

impl Errno {
    /// The value placed in `$v0`: `-errno`.
    #[must_use]
    pub fn as_ret(self) -> u64 {
        (-(self as i64)) as u64
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_numbers_roundtrip() {
        for n in 1..=44 {
            if let Some(s) = Sys::from_number(n) {
                assert_eq!(s as i64 as u64, n, "{s:?}");
            }
        }
        assert!(Sys::from_number(0).is_none());
        assert!(Sys::from_number(999).is_none());
    }

    #[test]
    fn errno_encoding_is_negative() {
        assert_eq!(Errno::EFAULT.as_ret() as i64, -14);
    }

    #[test]
    fn ptr_sizes() {
        assert_eq!(AbiMode::Mips64.ptr_size(), 8);
        assert_eq!(AbiMode::CheriAbi.ptr_size(), 16);
    }
}
