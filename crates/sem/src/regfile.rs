//! Per-thread architectural register state.

use cheri_cap::{CapFormat, Capability};
use cheri_isa::{CReg, IReg};

/// The architectural state the kernel saves and restores on context switch
/// (§3 "Context switching": "the kernel saves and restores user-thread
/// register capability state").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegFile {
    /// Integer registers; index 0 reads as zero.
    pub gpr: [u64; 32],
    /// Capability registers; index 0 is the NULL capability by convention.
    pub caps: [Capability; 32],
    /// Program-counter capability: all fetches are checked against it.
    pub pcc: Capability,
    /// Current program counter (the address within PCC's bounds).
    pub pc: u64,
    /// Default data capability for legacy loads/stores. NULL under
    /// CheriABI.
    pub ddc: Capability,
}

impl RegFile {
    /// A zeroed register file with NULL capabilities of the given format.
    #[must_use]
    pub fn new(fmt: CapFormat) -> RegFile {
        RegFile {
            gpr: [0; 32],
            caps: [Capability::null(fmt); 32],
            pcc: Capability::null(fmt),
            pc: 0,
            ddc: Capability::null(fmt),
        }
    }

    /// Reads an integer register (`$0` is always 0).
    #[must_use]
    pub fn r(&self, r: IReg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.gpr[r.0 as usize]
        }
    }

    /// Writes an integer register (writes to `$0` are discarded).
    pub fn w(&mut self, r: IReg, v: u64) {
        if r.0 != 0 {
            self.gpr[r.0 as usize] = v;
        }
    }

    /// Reads a capability register (`$c0` always reads NULL).
    #[must_use]
    #[inline]
    pub fn c(&self, r: CReg) -> Capability {
        *self.cap(r)
    }

    /// [`RegFile::c`] by reference, for checks that only inspect it.
    #[must_use]
    #[inline]
    pub fn cap(&self, r: CReg) -> &Capability {
        const NULL_C128: Capability = Capability::null(CapFormat::C128);
        const NULL_C256: Capability = Capability::null(CapFormat::C256);
        if r.0 == 0 {
            match self.pcc.format() {
                CapFormat::C128 => &NULL_C128,
                CapFormat::C256 => &NULL_C256,
            }
        } else {
            &self.caps[usize::from(r.0) & 31]
        }
    }

    /// Writes a capability register (writes to `$c0` are discarded).
    #[inline]
    pub fn wc(&mut self, r: CReg, v: Capability) {
        if r.0 != 0 {
            self.caps[usize::from(r.0) & 31] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::{CapSource, PrincipalId};
    use cheri_isa::{creg, ireg};

    #[test]
    fn zero_register_is_hardwired() {
        let mut rf = RegFile::new(CapFormat::C128);
        rf.w(ireg::ZERO, 99);
        assert_eq!(rf.r(ireg::ZERO), 0);
        rf.w(ireg::V0, 7);
        assert_eq!(rf.r(ireg::V0), 7);
    }

    #[test]
    fn cnull_is_hardwired() {
        let mut rf = RegFile::new(CapFormat::C128);
        let root = Capability::root(CapFormat::C128, PrincipalId::KERNEL, CapSource::Boot);
        rf.wc(creg::CNULL, root);
        assert!(!rf.c(creg::CNULL).tag());
        rf.wc(creg::C3, root);
        assert!(rf.c(creg::C3).tag());
        assert_eq!(rf.cap(creg::CNULL), &Capability::null(CapFormat::C128));
        rf.pcc = Capability::null(CapFormat::C256);
        assert_eq!(rf.cap(creg::CNULL).format(), CapFormat::C256);
    }
}
