//! The integer kernels: every ALU result and every branch predicate of the
//! core, as pure functions of operand values.
//!
//! The ALU and conditional-branch handlers in [`crate::ops`] compute
//! through these kernels, and so does the template tier in `cheri-cpu`,
//! which lowers each ALU instruction with [`alu_form`] to one op per
//! form listed by [`for_each_alu!`](crate::for_each_alu) and evaluates it
//! over register-resident locals. The wrapping, zero-divisor and
//! shift-mask rules therefore exist once, and no two machines can
//! disagree about them.

use cheri_isa::{IReg, Instr};

/// A two-operand integer operation. Register and immediate instruction
/// forms share one kernel: `addi` is [`Alu::Add`] with the immediate as
/// its second operand (see [`alu_form`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alu {
    /// `a + b`, wrapping.
    Add,
    /// `a - b`, wrapping.
    Sub,
    /// `a * b`, wrapping (low 64 bits).
    Mul,
    /// `a / b` unsigned; 0 when `b` is 0.
    DivU,
    /// `a / b` signed; 0 when `b` is 0, and `i64::MIN / -1` wraps to
    /// `i64::MIN`.
    DivS,
    /// `a % b` unsigned; 0 when `b` is 0.
    RemU,
    /// `a & b`
    And,
    /// `a | b`
    Or,
    /// `a ^ b`
    Xor,
    /// `!(a | b)`
    Nor,
    /// `a << (b & 63)`
    Sll,
    /// `a >> (b & 63)`, logical.
    Srl,
    /// `a >> (b & 63)`, arithmetic.
    Sra,
    /// `(a as i64) < (b as i64)` as 0 or 1.
    Slt,
    /// `a < b` as 0 or 1.
    Sltu,
}

impl Alu {
    /// The result for operand values `a`, `b`.
    #[must_use]
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            Alu::Add => a.wrapping_add(b),
            Alu::Sub => a.wrapping_sub(b),
            Alu::Mul => a.wrapping_mul(b),
            Alu::DivU => a.checked_div(b).unwrap_or(0),
            Alu::DivS if b == 0 => 0,
            Alu::DivS => (a as i64).wrapping_div(b as i64) as u64,
            Alu::RemU => a.checked_rem(b).unwrap_or(0),
            Alu::And => a & b,
            Alu::Or => a | b,
            Alu::Xor => a ^ b,
            Alu::Nor => !(a | b),
            Alu::Sll => a << (b & 63),
            Alu::Srl => a >> (b & 63),
            Alu::Sra => ((a as i64) >> (b & 63)) as u64,
            Alu::Slt => u64::from((a as i64) < (b as i64)),
            Alu::Sltu => u64::from(a < b),
        }
    }
}

/// Calls the macro `$m` with every ALU instruction form, as
/// `reg [K, ...] imm [F = K, ...]`: the kernels `K` of the three-register
/// forms (every [`Alu`] kernel has one), then the name `F` and kernel `K`
/// of each immediate form [`alu_form`] produces. The template tier
/// generates one compiled-op variant per form, and the executor arm that
/// calls `Alu::K.eval`, from this list, so one dispatch reaches the kernel
/// and no integer rule is written a second time. An [`Alu`] kernel
/// missing from `reg` fails to compile (a test matches the list
/// exhaustively), and an immediate form of [`alu_form`] whose kernel is
/// missing from `imm` fails `effects_clauses_match_pure_handler_behaviour`.
#[macro_export]
macro_rules! for_each_alu {
    ($m:ident) => {
        $m! {
            reg [Add, Sub, Mul, DivU, DivS, RemU, And, Or, Xor, Nor, Sll, Srl, Sra, Slt, Sltu]
            imm [
                AddI = Add,
                AndI = And,
                OrI = Or,
                XorI = Xor,
                SllI = Sll,
                SrlI = Srl,
                SraI = Sra,
                SltI = Slt,
                SltuI = Sltu
            ]
        }
    };
}

/// A conditional-branch predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `(a as i64) <= 0`
    Lez,
    /// `(a as i64) > 0`
    Gtz,
    /// `(a as i64) < 0`
    Ltz,
    /// `(a as i64) >= 0`
    Gez,
}

impl Cond {
    /// Whether the branch is taken for operand values `a`, `b` (`b` is
    /// ignored by the compares against zero).
    #[must_use]
    #[inline(always)]
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lez => (a as i64) <= 0,
            Cond::Gtz => (a as i64) > 0,
            Cond::Ltz => (a as i64) < 0,
            Cond::Gez => (a as i64) >= 0,
        }
    }
}

/// The second operand of an ALU instruction form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// A register.
    Reg(IReg),
    /// An immediate, already cast as the handler casts it: `imm as u64`
    /// for the `i64` immediates, `u64::from(sh)` for shift amounts.
    Imm(u64),
}

/// The kernel, destination, first source and second operand of an ALU
/// instruction; `None` for every other instruction.
#[must_use]
pub fn alu_form(i: &Instr) -> Option<(Alu, IReg, IReg, Src)> {
    use Src::{Imm, Reg};
    Some(match *i {
        Instr::Add { rd, rs, rt } => (Alu::Add, rd, rs, Reg(rt)),
        Instr::Sub { rd, rs, rt } => (Alu::Sub, rd, rs, Reg(rt)),
        Instr::Mul { rd, rs, rt } => (Alu::Mul, rd, rs, Reg(rt)),
        Instr::DivU { rd, rs, rt } => (Alu::DivU, rd, rs, Reg(rt)),
        Instr::DivS { rd, rs, rt } => (Alu::DivS, rd, rs, Reg(rt)),
        Instr::RemU { rd, rs, rt } => (Alu::RemU, rd, rs, Reg(rt)),
        Instr::And { rd, rs, rt } => (Alu::And, rd, rs, Reg(rt)),
        Instr::Or { rd, rs, rt } => (Alu::Or, rd, rs, Reg(rt)),
        Instr::Xor { rd, rs, rt } => (Alu::Xor, rd, rs, Reg(rt)),
        Instr::Nor { rd, rs, rt } => (Alu::Nor, rd, rs, Reg(rt)),
        Instr::Sllv { rd, rs, rt } => (Alu::Sll, rd, rs, Reg(rt)),
        Instr::Srlv { rd, rs, rt } => (Alu::Srl, rd, rs, Reg(rt)),
        Instr::Srav { rd, rs, rt } => (Alu::Sra, rd, rs, Reg(rt)),
        Instr::Slt { rd, rs, rt } => (Alu::Slt, rd, rs, Reg(rt)),
        Instr::Sltu { rd, rs, rt } => (Alu::Sltu, rd, rs, Reg(rt)),
        Instr::AddI { rd, rs, imm } => (Alu::Add, rd, rs, Imm(imm as u64)),
        Instr::AndI { rd, rs, imm } => (Alu::And, rd, rs, Imm(imm)),
        Instr::OrI { rd, rs, imm } => (Alu::Or, rd, rs, Imm(imm)),
        Instr::XorI { rd, rs, imm } => (Alu::Xor, rd, rs, Imm(imm)),
        Instr::SllI { rd, rs, sh } => (Alu::Sll, rd, rs, Imm(u64::from(sh))),
        Instr::SrlI { rd, rs, sh } => (Alu::Srl, rd, rs, Imm(u64::from(sh))),
        Instr::SraI { rd, rs, sh } => (Alu::Sra, rd, rs, Imm(u64::from(sh))),
        Instr::SltI { rd, rs, imm } => (Alu::Slt, rd, rs, Imm(imm as u64)),
        Instr::SltuI { rd, rs, imm } => (Alu::Sltu, rd, rs, Imm(imm)),
        _ => return None,
    })
}

/// The kernels of [`for_each_alu!`]'s lists: every kernel once
/// (`reg`; the match is exhaustive, so a kernel missing from the list
/// does not compile), then those of the immediate forms (`imm`).
#[cfg(test)]
pub(crate) fn listed_kernels() -> (Vec<Alu>, Vec<Alu>) {
    macro_rules! lists {
        (reg [$($r:ident),*] imm [$($i:ident = $k:ident),*]) => {{
            for op in [$(Alu::$r),*] {
                match op {
                    $(Alu::$r)|* => {}
                }
            }
            (vec![$(Alu::$r),*], vec![$(Alu::$k),*])
        }};
    }
    crate::for_each_alu!(lists)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The edge cases, pinned as values: the handlers and the template
    /// tier both compute through these kernels, so only a fixed table can
    /// catch a change to the rules themselves.
    #[test]
    fn kernels_keep_the_wrapping_zero_divisor_and_shift_rules() {
        let min = i64::MIN as u64;
        let m1 = u64::MAX;
        for (op, a, b, want) in [
            (Alu::Add, m1, 2, 1),
            (Alu::Sub, 0, 1, m1),
            (Alu::Mul, min, 2, 0),
            (Alu::DivU, 7, 0, 0),
            (Alu::DivU, m1, 2, m1 / 2),
            (Alu::DivS, 7, 0, 0),
            (Alu::DivS, min, m1, min),
            (Alu::DivS, -7i64 as u64, 2, -3i64 as u64),
            (Alu::RemU, 7, 0, 0),
            (Alu::RemU, 7, 3, 1),
            (Alu::Nor, 0, 0, m1),
            (Alu::Sll, 1, 64, 1),
            (Alu::Sll, 1, 127, 1 << 63),
            (Alu::Srl, min, 127, 1),
            (Alu::Sra, min, 127, m1),
            (Alu::Sra, min, 64, min),
            (Alu::Slt, m1, 0, 1),
            (Alu::Sltu, m1, 0, 0),
        ] {
            assert_eq!(op.eval(a, b), want, "{op:?}({a:#x}, {b:#x})");
        }
        for (cond, a, b, want) in [
            (Cond::Eq, 3, 3, true),
            (Cond::Ne, 3, 3, false),
            (Cond::Lez, 0, 9, true),
            (Cond::Gtz, min, 0, false),
            (Cond::Ltz, m1, 0, true),
            (Cond::Gez, 0, 0, true),
        ] {
            assert_eq!(cond.taken(a, b), want, "{cond:?}({a:#x}, {b:#x})");
        }
    }
}
