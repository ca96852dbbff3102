//! Decode-once code regions.
//!
//! A [`DecodedRegion`] is built exactly once per registration and then
//! shared immutably (`Arc`) between the per-space region map and the
//! core's resident region — registration, fork and fetch all stop copying
//! instruction vectors. Each instruction carries its pre-resolved dispatch
//! index into the flat op table (threaded dispatch) and its base cycle
//! cost.

use crate::ops;
use cheri_isa::Instr;
use std::sync::Arc;

/// One pre-decoded instruction: the instruction itself plus everything the
/// hot loop would otherwise recompute per execution.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedInstr {
    /// The architectural instruction.
    pub instr: Instr,
    /// Pre-resolved index into [`ops::OP_TABLE`].
    pub op: u8,
    /// Pre-resolved [`Instr::base_cycles`] (fits in a byte for every op).
    pub base_cycles: u8,
}

/// An immutable, decode-once code region.
#[derive(Debug)]
pub struct DecodedRegion {
    start: u64,
    end: u64,
    code: Vec<DecodedInstr>,
}

impl DecodedRegion {
    /// Decodes `code` (to be mapped at virtual address `start`) into a
    /// shareable region: dispatch indices resolved, base cycles cached.
    #[must_use]
    pub fn decode(start: u64, code: &[Instr]) -> Arc<DecodedRegion> {
        let decoded = code
            .iter()
            .map(|&instr| DecodedInstr {
                instr,
                op: ops::dispatch_index(&instr),
                base_cycles: u8::try_from(instr.base_cycles()).expect("base cycles fit in u8"),
            })
            .collect();
        Arc::new(DecodedRegion {
            start,
            end: start + code.len() as u64 * 4,
            code: decoded,
        })
    }

    /// First virtual address of the region.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last virtual address of the region.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the region holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Whether `pc` falls inside the region.
    #[inline]
    pub(crate) fn contains(&self, pc: u64) -> bool {
        pc >= self.start && pc < self.end
    }

    /// Instruction index for an in-region `pc`.
    #[inline]
    pub(crate) fn index_of(&self, pc: u64) -> usize {
        ((pc - self.start) / 4) as usize
    }

    /// The decoded instruction at `idx`.
    #[inline]
    pub(crate) fn instr_at(&self, idx: usize) -> DecodedInstr {
        self.code[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::ireg;

    #[test]
    fn region_spans_its_instructions() {
        let code = vec![Instr::Nop, Instr::Syscall];
        let r = DecodedRegion::decode(0x10000, &code);
        assert_eq!(r.start(), 0x10000);
        assert_eq!(r.end(), 0x10000 + 2 * 4);
        assert_eq!(r.len(), 2);
        assert!(r.contains(0x10004) && !r.contains(0x10008));
        assert_eq!(r.index_of(0x10004), 1);
    }

    #[test]
    fn decoded_instrs_carry_dispatch_and_cycles() {
        let code = vec![
            Instr::Nop,
            Instr::Mul {
                rd: ireg::T0,
                rs: ireg::T1,
                rt: ireg::T2,
            },
        ];
        let r = DecodedRegion::decode(0, &code);
        assert_eq!(r.instr_at(0).instr, Instr::Nop);
        assert_eq!(u64::from(r.instr_at(1).base_cycles), code[1].base_cycles());
        assert_ne!(r.instr_at(0).op, r.instr_at(1).op);
    }
}
