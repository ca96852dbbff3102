//! Register names for the integer and capability register files.

use std::fmt;

/// An integer (general-purpose) register, `$0`–`$31`; `$0` is hardwired to
/// zero as on MIPS.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IReg(pub u8);

/// A capability register, `$c0`–`$c31` (DDC and PCC are separate special
/// registers on the CPU, not part of this file).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CReg(pub u8);

impl fmt::Debug for IReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl fmt::Debug for CReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$c{}", self.0)
    }
}

/// Integer-register names following the simulated ABI.
pub mod ireg {
    use super::IReg;

    /// Hardwired zero.
    pub const ZERO: IReg = IReg(0);
    /// Assembler temporary / codegen scratch.
    pub const AT: IReg = IReg(1);
    /// Return value 0; also the syscall number on entry to `syscall`.
    pub const V0: IReg = IReg(2);
    /// Return value 1 / scratch.
    pub const V1: IReg = IReg(3);
    /// First integer argument register; a0–a7 are `IReg(4)`–`IReg(11)`.
    pub const A0: IReg = IReg(4);
    /// Second argument register.
    pub const A1: IReg = IReg(5);
    /// Third argument register.
    pub const A2: IReg = IReg(6);
    /// Fourth argument register.
    pub const A3: IReg = IReg(7);
    /// Fifth argument register.
    pub const A4: IReg = IReg(8);
    /// Sixth argument register.
    pub const A5: IReg = IReg(9);
    /// Seventh argument register.
    pub const A6: IReg = IReg(10);
    /// Eighth argument register.
    pub const A7: IReg = IReg(11);
    /// First temporary; t0–t7 are `IReg(12)`–`IReg(19)`.
    pub const T0: IReg = IReg(12);
    /// Second temporary.
    pub const T1: IReg = IReg(13);
    /// Third temporary.
    pub const T2: IReg = IReg(14);
    /// Fourth temporary.
    pub const T3: IReg = IReg(15);
    /// First saved register; s0–s7 are `IReg(20)`–`IReg(27)`.
    pub const S0: IReg = IReg(20);
    /// Global pointer: base of the GOT in the legacy ABI.
    pub const GP: IReg = IReg(28);
    /// Stack pointer (legacy ABI; pure-capability code uses `$csp`).
    pub const SP: IReg = IReg(29);
    /// Frame pointer.
    pub const FP: IReg = IReg(30);
    /// Return address (legacy ABI; pure-capability code uses `$cra`).
    pub const RA: IReg = IReg(31);

    /// The `i`-th integer argument register (0-based, up to 8).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn arg(i: u8) -> IReg {
        assert!(i < 8, "only 8 integer argument registers");
        IReg(4 + i)
    }

    /// The `i`-th integer temporary (0-based, up to 8).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn temp(i: u8) -> IReg {
        assert!(i < 8, "only 8 temporaries");
        IReg(12 + i)
    }

    /// The `i`-th saved register (0-based, up to 8).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn saved(i: u8) -> IReg {
        assert!(i < 8, "only 8 saved registers");
        IReg(20 + i)
    }
}

/// Capability-register names following the simulated CheriABI calling
/// convention (§5.3 "calling convention": pointer arguments travel in the
/// capability register file, separate from integers).
pub mod creg {
    use super::CReg;

    /// Always-NULL capability register.
    pub const CNULL: CReg = CReg(0);
    /// Capability return value and first capability argument; c3–c10 carry
    /// capability arguments 0–7.
    pub const C3: CReg = CReg(3);
    /// Stack capability.
    pub const CSP: CReg = CReg(11);
    /// Indirect-jump target scratch register.
    pub const CJ: CReg = CReg(12);
    /// First allocatable pointer register; `CReg(13)`–`CReg(25)`.
    pub const CP0: CReg = CReg(13);
    /// Invoked-data capability (sealed-pair invocation).
    pub const IDC: CReg = CReg(26);
    /// Codegen scratch 0.
    pub const CT0: CReg = CReg(27);
    /// Codegen scratch 1.
    pub const CT1: CReg = CReg(28);
    /// Capability global pointer: base of the capability GOT.
    pub const CGP: CReg = CReg(29);
    /// Capability return address.
    pub const CRA: CReg = CReg(30);
    /// Thread-local-storage base capability.
    pub const CTLS: CReg = CReg(31);

    /// The `i`-th capability argument register (0-based, up to 8).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn arg(i: u8) -> CReg {
        assert!(i < 8, "only 8 capability argument registers");
        CReg(3 + i)
    }

    /// The `i`-th allocatable pointer register (0-based, up to 13).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 13`.
    #[must_use]
    pub fn ptr(i: u8) -> CReg {
        assert!(i < 13, "only 13 allocatable pointer registers");
        CReg(13 + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_maps_do_not_collide() {
        // Argument, temp and saved integer registers are disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..8 {
            assert!(seen.insert(ireg::arg(i)));
        }
        for i in 0..8 {
            assert!(seen.insert(ireg::temp(i)));
        }
        for i in 0..8 {
            assert!(seen.insert(ireg::saved(i)));
        }
        for r in [
            ireg::ZERO,
            ireg::AT,
            ireg::V0,
            ireg::V1,
            ireg::GP,
            ireg::SP,
            ireg::FP,
            ireg::RA,
        ] {
            assert!(seen.insert(r), "{r:?} collides");
        }
    }

    #[test]
    fn cap_register_maps_do_not_collide() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..8 {
            assert!(seen.insert(creg::arg(i)));
        }
        for i in 0..13 {
            assert!(
                seen.insert(creg::ptr(i)),
                "ptr({i}) collides with an arg reg"
            );
        }
        for r in [
            creg::CNULL,
            creg::CSP,
            creg::CJ,
            creg::IDC,
            creg::CT0,
            creg::CT1,
            creg::CGP,
            creg::CRA,
            creg::CTLS,
        ] {
            assert!(seen.insert(r), "{r:?} collides");
        }
    }

    #[test]
    #[should_panic(expected = "argument registers")]
    fn arg_out_of_range_panics() {
        let _ = creg::arg(8);
    }
}
