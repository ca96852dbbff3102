//! The simulated CHERI-MIPS instruction set.

use crate::{CReg, IReg};

/// Access width of a scalar load or store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl Width {
    /// Size of the access in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            Width::B => 1,
            Width::H => 2,
            Width::W => 4,
            Width::D => 8,
        }
    }
}

/// One machine instruction.
///
/// The set is CHERI-MIPS-flavoured: a 64-bit MIPS-like integer core whose
/// *legacy* loads, stores and jumps are checked against **DDC** (so they all
/// trap once CheriABI installs a NULL DDC), plus the capability register
/// file and manipulation instructions of §2. Branch/jump targets are
/// *instruction indices* within the enclosing object's code segment,
/// resolved by the [`crate::Assembler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings follow MIPS conventions: rd/cd dest, rs/rt/cb/ct sources
pub enum Instr {
    // ---- constants and moves ----
    /// Load a 64-bit immediate (macro-expanded `lui`/`ori` chain on real
    /// hardware; 1 instruction here for both ABIs, so it cancels out).
    Li {
        rd: IReg,
        imm: i64,
    },
    Move {
        rd: IReg,
        rs: IReg,
    },

    // ---- three-register ALU ----
    Add {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Sub {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Mul {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    DivU {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    DivS {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    RemU {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    And {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Or {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Xor {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Nor {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Sllv {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Srlv {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Srav {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Slt {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },
    Sltu {
        rd: IReg,
        rs: IReg,
        rt: IReg,
    },

    // ---- immediate ALU ----
    AddI {
        rd: IReg,
        rs: IReg,
        imm: i64,
    },
    AndI {
        rd: IReg,
        rs: IReg,
        imm: u64,
    },
    OrI {
        rd: IReg,
        rs: IReg,
        imm: u64,
    },
    XorI {
        rd: IReg,
        rs: IReg,
        imm: u64,
    },
    SllI {
        rd: IReg,
        rs: IReg,
        sh: u8,
    },
    SrlI {
        rd: IReg,
        rs: IReg,
        sh: u8,
    },
    SraI {
        rd: IReg,
        rs: IReg,
        sh: u8,
    },
    SltI {
        rd: IReg,
        rs: IReg,
        imm: i64,
    },
    SltuI {
        rd: IReg,
        rs: IReg,
        imm: u64,
    },

    // ---- control flow ----
    Beq {
        rs: IReg,
        rt: IReg,
        target: u32,
    },
    Bne {
        rs: IReg,
        rt: IReg,
        target: u32,
    },
    Blez {
        rs: IReg,
        target: u32,
    },
    Bgtz {
        rs: IReg,
        target: u32,
    },
    Bltz {
        rs: IReg,
        target: u32,
    },
    Bgez {
        rs: IReg,
        target: u32,
    },
    J {
        target: u32,
    },
    /// Call within the current object (PC-relative; legal under a bounded
    /// PCC in both ABIs). Stores the return continuation in `$ra` (legacy)
    /// or `$cra` (CheriABI) according to the process ABI.
    Jal {
        target: u32,
    },
    Jr {
        rs: IReg,
    },
    Jalr {
        rd: IReg,
        rs: IReg,
    },
    Syscall,
    Break,
    Nop,

    // ---- legacy (DDC-relative) memory ----
    Load {
        rd: IReg,
        base: IReg,
        off: i32,
        w: Width,
        signed: bool,
    },
    Store {
        rs: IReg,
        base: IReg,
        off: i32,
        w: Width,
    },

    // ---- capability-relative memory ----
    CLoad {
        rd: IReg,
        cb: CReg,
        off: i32,
        w: Width,
        signed: bool,
    },
    CStore {
        rs: IReg,
        cb: CReg,
        off: i32,
        w: Width,
    },
    /// Capability load (CLC). The hardware immediate field is narrow; see
    /// [`crate::codegen::CodegenOpts::clc_large_imm`] for the paper's
    /// large-immediate extension, modelled at code generation time.
    Clc {
        cd: CReg,
        cb: CReg,
        off: i32,
    },
    /// Capability store (CSC).
    Csc {
        cs: CReg,
        cb: CReg,
        off: i32,
    },

    // ---- capability inspection ----
    CGetAddr {
        rd: IReg,
        cb: CReg,
    },
    CGetBase {
        rd: IReg,
        cb: CReg,
    },
    CGetLen {
        rd: IReg,
        cb: CReg,
    },
    CGetPerm {
        rd: IReg,
        cb: CReg,
    },
    CGetTag {
        rd: IReg,
        cb: CReg,
    },
    CGetOffset {
        rd: IReg,
        cb: CReg,
    },
    CGetType {
        rd: IReg,
        cb: CReg,
    },

    // ---- capability manipulation (monotonic) ----
    CSetAddr {
        cd: CReg,
        cb: CReg,
        rs: IReg,
    },
    CIncOffset {
        cd: CReg,
        cb: CReg,
        rs: IReg,
    },
    CIncOffsetImm {
        cd: CReg,
        cb: CReg,
        imm: i64,
    },
    CSetBounds {
        cd: CReg,
        cb: CReg,
        rs: IReg,
    },
    CSetBoundsImm {
        cd: CReg,
        cb: CReg,
        imm: u64,
    },
    CSetBoundsExact {
        cd: CReg,
        cb: CReg,
        rs: IReg,
    },
    CAndPerm {
        cd: CReg,
        cb: CReg,
        rs: IReg,
    },
    CClearTag {
        cd: CReg,
        cb: CReg,
    },
    CMove {
        cd: CReg,
        cb: CReg,
    },
    /// CRepresentableLength: round a length up for exact bounds (CRRL).
    CRrl {
        rd: IReg,
        rs: IReg,
    },
    /// CRepresentableAlignmentMask (CRAM).
    CRam {
        rd: IReg,
        rs: IReg,
    },
    CSub {
        rd: IReg,
        cb: CReg,
        ct: CReg,
    },
    /// Construct a capability from `cb` with address `rs`; `rs == 0` yields
    /// NULL (the C `(void *)(intptr_t)x` idiom).
    CFromPtr {
        cd: CReg,
        cb: CReg,
        rs: IReg,
    },
    /// Extract an address relative to `ct`'s base; NULL cap gives 0.
    CToPtr {
        rd: IReg,
        cb: CReg,
        ct: CReg,
    },
    CSeal {
        cd: CReg,
        cs: CReg,
        ct: CReg,
    },
    CUnseal {
        cd: CReg,
        cs: CReg,
        ct: CReg,
    },
    CTestSubset {
        rd: IReg,
        cb: CReg,
        ct: CReg,
    },

    // ---- capability control flow ----
    CJr {
        cb: CReg,
    },
    CJalr {
        cd: CReg,
        cb: CReg,
    },
    CGetPcc {
        cd: CReg,
    },
    /// Read DDC (unprivileged, as via CReadHwr on CHERI-MIPS).
    CGetDdc {
        cd: CReg,
    },
}

impl Instr {
    /// Base pipeline cost in cycles, before memory-system stalls: the
    /// in-order single-issue model of the paper's FPGA core.
    #[must_use]
    pub fn base_cycles(&self) -> u64 {
        match self {
            Instr::Mul { .. } => 3,
            Instr::DivU { .. } | Instr::DivS { .. } | Instr::RemU { .. } => 20,
            Instr::Syscall => 1,
            _ => 1,
        }
    }

    /// Whether this instruction performs a data-memory access.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::CLoad { .. }
                | Instr::CStore { .. }
                | Instr::Clc { .. }
                | Instr::Csc { .. }
        )
    }

    /// Whether this instruction may transfer control (branches, jumps,
    /// traps into the kernel).
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Beq { .. }
                | Instr::Bne { .. }
                | Instr::Blez { .. }
                | Instr::Bgtz { .. }
                | Instr::Bltz { .. }
                | Instr::Bgez { .. }
                | Instr::J { .. }
                | Instr::Jal { .. }
                | Instr::Jr { .. }
                | Instr::Jalr { .. }
                | Instr::Syscall
                | Instr::Break
                | Instr::CJr { .. }
                | Instr::CJalr { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{creg, ireg};

    #[test]
    fn widths() {
        assert_eq!(Width::B.bytes(), 1);
        assert_eq!(Width::D.bytes(), 8);
    }

    #[test]
    fn cost_model_orders_instructions() {
        let add = Instr::Add {
            rd: ireg::V0,
            rs: ireg::A0,
            rt: ireg::A1,
        };
        let mul = Instr::Mul {
            rd: ireg::V0,
            rs: ireg::A0,
            rt: ireg::A1,
        };
        let div = Instr::DivU {
            rd: ireg::V0,
            rs: ireg::A0,
            rt: ireg::A1,
        };
        assert!(add.base_cycles() < mul.base_cycles());
        assert!(mul.base_cycles() < div.base_cycles());
    }

    #[test]
    fn control_classification() {
        assert!(Instr::Beq {
            rs: ireg::V0,
            rt: ireg::V1,
            target: 7
        }
        .is_control());
        assert!(Instr::Syscall.is_control());
        assert!(Instr::CJr { cb: creg::CRA }.is_control());
        assert!(!Instr::Nop.is_control());
    }

    #[test]
    fn memory_classification() {
        assert!(Instr::Clc {
            cd: creg::C3,
            cb: creg::CGP,
            off: 0
        }
        .is_memory());
        assert!(!Instr::CMove {
            cd: creg::C3,
            cb: creg::CGP
        }
        .is_memory());
    }
}
