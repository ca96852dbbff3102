//! The per-instruction step semantics, one generic handler per
//! [`Instr`] variant.
//!
//! Every handler is generic over a [`MemoryPort`] implementation, so the
//! same bodies execute under the stepper, the reference
//! interpreter and the lockstep shadow in `cheri-cpu`. The handler list is
//! defined exactly once; [`with_op_list!`](with_op_list) re-exports it so
//! consumers can build flat dispatch tables that cannot drift from
//! [`dispatch_index`], and [`step_instr`] dispatches directly for callers
//! without a table.

#![allow(clippy::unnecessary_wraps)] // handlers share one fallible signature

use crate::effects::{eff, RegEffects};
use crate::{MemoryPort, OpResult, SemExit, StepCtx};
use cheri_cap::{CapFault, Capability, Perms};
use cheri_isa::{Instr, Width};

macro_rules! define_ops {
    ($( $name:ident : $pat:pat => [$eff:expr] |$p:ident, $cx:ident| $body:block )+) => {
        $(
            #[doc = concat!("Step semantics for `", stringify!($pat), "`.")]
            ///
            /// # Errors
            ///
            /// The port's fault type on any failed capability or memory
            /// check.
            pub fn $name<P: MemoryPort>(
                $p: &mut P,
                $cx: &mut StepCtx<'_>,
                instr: Instr,
            ) -> OpResult<P::Fault> {
                let $pat = instr else {
                    unreachable!("op table and dispatch index out of sync")
                };
                $body
            }
        )+

        /// The ordered handler-name list, as emitted by `define_ops!`.
        /// Exists solely so a test can assert [`with_op_list!`](crate::with_op_list)
        /// has not drifted from the handler definitions.
        #[doc(hidden)]
        pub static OP_NAMES: &[&str] = &[$(stringify!($name)),+];

        /// Resolves an instruction to its handler slot. Called once per
        /// instruction at decode time, never in a hot loop.
        #[must_use]
        #[allow(unused_variables, unused_assignments)]
        pub fn dispatch_index(i: &Instr) -> u8 {
            let mut idx: u8 = 0;
            $(
                if matches!(i, $pat) {
                    return idx;
                }
                idx += 1;
            )+
            unreachable!("instruction missing from op table")
        }

        /// Executes one instruction by direct dispatch (no table): the
        /// entry point for the reference interpreter and the lockstep
        /// shadow, where per-call scan cost is irrelevant.
        ///
        /// # Errors
        ///
        /// The port's fault type on any failed capability or memory check.
        #[allow(unused_variables)]
        pub fn step_instr<P: MemoryPort>(
            p: &mut P,
            cx: &mut StepCtx<'_>,
            instr: Instr,
        ) -> OpResult<P::Fault> {
            $(
                if matches!(instr, $pat) {
                    return $name(p, cx, instr);
                }
            )+
            unreachable!("instruction missing from op table")
        }

        /// The statically declared [`RegEffects`] of an instruction, from
        /// the effects clause on the same `define_ops!` entry as its
        /// handler body. The template compiler in `cheri-cpu` plans
        /// register residency from these sets; the drift-guard test below
        /// checks them against the handlers' observable behaviour.
        #[must_use]
        #[allow(unused_variables)]
        pub fn reg_effects(i: &Instr) -> RegEffects {
            match *i {
                $( $pat => $eff, )+
            }
        }
    };
}

/// Invokes the given macro with the complete, ordered handler-name list.
/// Consumers use this to build concrete dispatch tables that are, by
/// construction, in [`ops::dispatch_index`](crate::ops::dispatch_index)
/// order. The list is literal (a `macro_rules!` macro cannot be exported
/// from inside another macro's expansion), so a test in [`crate::ops`]
/// asserts it matches the `define_ops!` handler list exactly.
#[macro_export]
macro_rules! with_op_list {
    ($m:ident) => {
        $m! {
            op_li, op_move, op_add, op_sub, op_mul, op_divu, op_divs,
            op_remu, op_and, op_or, op_xor, op_nor, op_sllv, op_srlv,
            op_srav, op_slt, op_sltu, op_addi, op_andi, op_ori, op_xori,
            op_slli, op_srli, op_srai, op_slti, op_sltui, op_beq, op_bne,
            op_blez, op_bgtz, op_bltz, op_bgez, op_j, op_jal, op_jr,
            op_jalr, op_syscall, op_break, op_nop, op_load, op_store,
            op_cload, op_cstore, op_clc, op_csc, op_cgetaddr, op_cgetbase,
            op_cgetlen, op_cgetperm, op_cgettag, op_cgetoffset, op_cgettype,
            op_csetaddr, op_cincoffset, op_cincoffsetimm, op_csetbounds,
            op_csetboundsimm, op_csetboundsexact, op_candperm, op_ccleartag,
            op_cmove, op_crrl, op_cram, op_csub, op_cfromptr, op_ctoptr,
            op_cseal, op_cunseal, op_ctestsubset, op_cjr, op_cjalr,
            op_cgetpcc, op_cgetddc
        }
    };
}

define_ops! {
    op_li: Instr::Li { rd, imm } => [eff().wi(rd)] |_p, cx| {
        cx.rf.w(rd, imm as u64);
        Ok(None)
    }
    op_move: Instr::Move { rd, rs } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs));
        Ok(None)
    }
    op_add: Instr::Add { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs).wrapping_add(cx.rf.r(rt)));
        Ok(None)
    }
    op_sub: Instr::Sub { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs).wrapping_sub(cx.rf.r(rt)));
        Ok(None)
    }
    op_mul: Instr::Mul { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs).wrapping_mul(cx.rf.r(rt)));
        Ok(None)
    }
    op_divu: Instr::DivU { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        let d = cx.rf.r(rt);
        cx.rf.w(rd, cx.rf.r(rs).checked_div(d).unwrap_or(0));
        Ok(None)
    }
    op_divs: Instr::DivS { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        let d = cx.rf.r(rt) as i64;
        let n = cx.rf.r(rs) as i64;
        cx.rf.w(rd, if d == 0 { 0 } else { n.wrapping_div(d) as u64 });
        Ok(None)
    }
    op_remu: Instr::RemU { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        let d = cx.rf.r(rt);
        cx.rf.w(rd, if d == 0 { 0 } else { cx.rf.r(rs) % d });
        Ok(None)
    }
    op_and: Instr::And { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) & cx.rf.r(rt));
        Ok(None)
    }
    op_or: Instr::Or { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) | cx.rf.r(rt));
        Ok(None)
    }
    op_xor: Instr::Xor { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) ^ cx.rf.r(rt));
        Ok(None)
    }
    op_nor: Instr::Nor { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, !(cx.rf.r(rs) | cx.rf.r(rt)));
        Ok(None)
    }
    op_sllv: Instr::Sllv { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) << (cx.rf.r(rt) & 63));
        Ok(None)
    }
    op_srlv: Instr::Srlv { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) >> (cx.rf.r(rt) & 63));
        Ok(None)
    }
    op_srav: Instr::Srav { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, ((cx.rf.r(rs) as i64) >> (cx.rf.r(rt) & 63)) as u64);
        Ok(None)
    }
    op_slt: Instr::Slt { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, u64::from((cx.rf.r(rs) as i64) < (cx.rf.r(rt) as i64)));
        Ok(None)
    }
    op_sltu: Instr::Sltu { rd, rs, rt } => [eff().ri(rs).ri(rt).wi(rd)] |_p, cx| {
        cx.rf.w(rd, u64::from(cx.rf.r(rs) < cx.rf.r(rt)));
        Ok(None)
    }
    op_addi: Instr::AddI { rd, rs, imm } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs).wrapping_add(imm as u64));
        Ok(None)
    }
    op_andi: Instr::AndI { rd, rs, imm } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) & imm);
        Ok(None)
    }
    op_ori: Instr::OrI { rd, rs, imm } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) | imm);
        Ok(None)
    }
    op_xori: Instr::XorI { rd, rs, imm } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) ^ imm);
        Ok(None)
    }
    op_slli: Instr::SllI { rd, rs, sh } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) << (sh & 63));
        Ok(None)
    }
    op_srli: Instr::SrlI { rd, rs, sh } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, cx.rf.r(rs) >> (sh & 63));
        Ok(None)
    }
    op_srai: Instr::SraI { rd, rs, sh } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, ((cx.rf.r(rs) as i64) >> (sh & 63)) as u64);
        Ok(None)
    }
    op_slti: Instr::SltI { rd, rs, imm } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, u64::from((cx.rf.r(rs) as i64) < imm));
        Ok(None)
    }
    op_sltui: Instr::SltuI { rd, rs, imm } => [eff().ri(rs).wi(rd)] |_p, cx| {
        cx.rf.w(rd, u64::from(cx.rf.r(rs) < imm));
        Ok(None)
    }
    op_beq: Instr::Beq { rs, rt, target } => [eff().ri(rs).ri(rt).ctl()] |_p, cx| {
        if cx.rf.r(rs) == cx.rf.r(rt) {
            cx.next = cx.rstart + u64::from(target) * 4;
        }
        Ok(None)
    }
    op_bne: Instr::Bne { rs, rt, target } => [eff().ri(rs).ri(rt).ctl()] |_p, cx| {
        if cx.rf.r(rs) != cx.rf.r(rt) {
            cx.next = cx.rstart + u64::from(target) * 4;
        }
        Ok(None)
    }
    op_blez: Instr::Blez { rs, target } => [eff().ri(rs).ctl()] |_p, cx| {
        if (cx.rf.r(rs) as i64) <= 0 {
            cx.next = cx.rstart + u64::from(target) * 4;
        }
        Ok(None)
    }
    op_bgtz: Instr::Bgtz { rs, target } => [eff().ri(rs).ctl()] |_p, cx| {
        if (cx.rf.r(rs) as i64) > 0 {
            cx.next = cx.rstart + u64::from(target) * 4;
        }
        Ok(None)
    }
    op_bltz: Instr::Bltz { rs, target } => [eff().ri(rs).ctl()] |_p, cx| {
        if (cx.rf.r(rs) as i64) < 0 {
            cx.next = cx.rstart + u64::from(target) * 4;
        }
        Ok(None)
    }
    op_bgez: Instr::Bgez { rs, target } => [eff().ri(rs).ctl()] |_p, cx| {
        if (cx.rf.r(rs) as i64) >= 0 {
            cx.next = cx.rstart + u64::from(target) * 4;
        }
        Ok(None)
    }
    op_j: Instr::J { target } => [eff().ctl()] |_p, cx| {
        cx.next = cx.rstart + u64::from(target) * 4;
        Ok(None)
    }
    op_jal: Instr::Jal { target } => [eff().wi(cheri_isa::ireg::RA).caps().ctl()] |_p, cx| {
        // Return continuation in both files: $ra for legacy code, $cra
        // (PCC-derived, hence bounded) for pure-capability code.
        cx.rf.w(cheri_isa::ireg::RA, cx.next);
        cx.rf.wc(cheri_isa::creg::CRA, cx.rf.pcc.with_addr(cx.next));
        cx.next = cx.rstart + u64::from(target) * 4;
        Ok(None)
    }
    op_jr: Instr::Jr { rs } => [eff().ri(rs).ctl()] |_p, cx| {
        cx.next = cx.rf.r(rs);
        Ok(None)
    }
    op_jalr: Instr::Jalr { rd, rs } => [eff().ri(rs).wi(rd).ctl()] |_p, cx| {
        cx.rf.w(rd, cx.next);
        cx.next = cx.rf.r(rs);
        Ok(None)
    }
    op_syscall: Instr::Syscall => [eff().exit()] |p, cx| {
        p.count_syscall();
        cx.rf.pc = cx.next;
        Ok(Some(SemExit::Syscall))
    }
    op_break: Instr::Break => [eff().exit()] |_p, cx| {
        cx.rf.pc = cx.pc;
        Ok(Some(SemExit::Break))
    }
    op_nop: Instr::Nop => [eff()] |_p, _cx| {
        Ok(None)
    }
    op_load: Instr::Load { rd, base, off, w, signed } => [eff().ri(base).wi(rd).mem().caps()] |p, cx| {
        let ddc = crate::legacy_cap(p, cx.rf, cx.pc)?;
        let vaddr = cx.rf.r(base).wrapping_add(off as u64);
        // Legacy unaligned access is fixed up by the kernel on FreeBSD/MIPS
        // at significant cost; emulate that.
        if !vaddr.is_multiple_of(w.bytes()) {
            p.charge_cycles(50);
        }
        let v = crate::data_read(p, &ddc, vaddr, w, signed, false, cx.pc)?;
        cx.rf.w(rd, v);
        Ok(None)
    }
    op_store: Instr::Store { rs, base, off, w } => [eff().ri(rs).ri(base).mem().caps()] |p, cx| {
        let ddc = crate::legacy_cap(p, cx.rf, cx.pc)?;
        let vaddr = cx.rf.r(base).wrapping_add(off as u64);
        if !vaddr.is_multiple_of(w.bytes()) {
            p.charge_cycles(50);
        }
        let v = cx.rf.r(rs);
        crate::data_write(p, &ddc, vaddr, w, v, false, cx.pc)?;
        Ok(None)
    }
    op_cload: Instr::CLoad { rd, cb, off, w, signed } => [eff().wi(rd).mem().caps()] |p, cx| {
        let cap = cx.rf.c(cb);
        let vaddr = cap.addr().wrapping_add(off as u64);
        let v = crate::data_read(p, &cap, vaddr, w, signed, true, cx.pc)?;
        cx.rf.w(rd, v);
        Ok(None)
    }
    op_cstore: Instr::CStore { rs, cb, off, w } => [eff().ri(rs).mem().caps()] |p, cx| {
        let cap = cx.rf.c(cb);
        let vaddr = cap.addr().wrapping_add(off as u64);
        let v = cx.rf.r(rs);
        crate::data_write(p, &cap, vaddr, w, v, true, cx.pc)?;
        Ok(None)
    }
    op_clc: Instr::Clc { cd, cb, off } => [eff().mem().caps()] |p, cx| {
        let cap = cx.rf.c(cb);
        let vaddr = cap.addr().wrapping_add(off as u64);
        let size = cap.format().in_memory_size();
        if !vaddr.is_multiple_of(size) {
            return Err(p.cap_fault(cx.pc, CapFault::UnalignedCapAccess, Some(vaddr)));
        }
        cap.check_access(vaddr, size, Perms::LOAD)
            .map_err(|f| p.cap_fault(cx.pc, f, Some(vaddr)))?;
        let loaded = p.read_granule(vaddr, cx.pc)?;
        let value = match loaded {
            Some(c) => {
                if cap.perms().contains(Perms::LOAD_CAP) {
                    c
                } else {
                    // Loading through a no-LOAD_CAP capability strips the
                    // tag.
                    c.clear_tag()
                }
            }
            None => {
                let raw = crate::data_read(p, &cap, vaddr, Width::D, false, true, cx.pc)?;
                Capability::null(cap.format()).with_addr(raw)
            }
        };
        cx.rf.wc(cd, value);
        Ok(None)
    }
    op_csc: Instr::Csc { cs, cb, off } => [eff().mem().caps()] |p, cx| {
        let cap = cx.rf.c(cb);
        let value = cx.rf.c(cs);
        let vaddr = cap.addr().wrapping_add(off as u64);
        let size = cap.format().in_memory_size();
        if !vaddr.is_multiple_of(size) {
            return Err(p.cap_fault(cx.pc, CapFault::UnalignedCapAccess, Some(vaddr)));
        }
        cap.check_access(vaddr, size, Perms::STORE)
            .map_err(|f| p.cap_fault(cx.pc, f, Some(vaddr)))?;
        if value.tag() {
            if !cap.perms().contains(Perms::STORE_CAP) {
                return Err(p.cap_fault(cx.pc, CapFault::PermitStoreCapViolation, Some(vaddr)));
            }
            if !value.perms().contains(Perms::GLOBAL)
                && !cap.perms().contains(Perms::STORE_LOCAL_CAP)
            {
                return Err(p.cap_fault(
                    cx.pc,
                    CapFault::PermitStoreLocalCapViolation,
                    Some(vaddr),
                ));
            }
        }
        p.write_granule(vaddr, value, cx.pc)?;
        Ok(None)
    }
    op_cgetaddr: Instr::CGetAddr { rd, cb } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf.w(rd, cx.rf.c(cb).addr());
        Ok(None)
    }
    op_cgetbase: Instr::CGetBase { rd, cb } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf.w(rd, cx.rf.c(cb).base());
        Ok(None)
    }
    op_cgetlen: Instr::CGetLen { rd, cb } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf.w(rd, cx.rf.c(cb).length());
        Ok(None)
    }
    op_cgetperm: Instr::CGetPerm { rd, cb } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf.w(rd, u64::from(cx.rf.c(cb).perms().bits()));
        Ok(None)
    }
    op_cgettag: Instr::CGetTag { rd, cb } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf.w(rd, u64::from(cx.rf.c(cb).tag()));
        Ok(None)
    }
    op_cgetoffset: Instr::CGetOffset { rd, cb } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf.w(rd, cx.rf.c(cb).offset());
        Ok(None)
    }
    op_cgettype: Instr::CGetType { rd, cb } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf.w(
            rd,
            cx.rf.c(cb).otype().map_or(u64::MAX, |t| u64::from(t.value())),
        );
        Ok(None)
    }
    op_csetaddr: Instr::CSetAddr { cd, cb, rs } => [eff().ri(rs).caps()] |_p, cx| {
        cx.rf.wc(cd, cx.rf.c(cb).with_addr(cx.rf.r(rs)));
        Ok(None)
    }
    op_cincoffset: Instr::CIncOffset { cd, cb, rs } => [eff().ri(rs).caps()] |_p, cx| {
        cx.rf.wc(cd, cx.rf.c(cb).inc_addr(cx.rf.r(rs) as i64));
        Ok(None)
    }
    op_cincoffsetimm: Instr::CIncOffsetImm { cd, cb, imm } => [eff().caps()] |_p, cx| {
        cx.rf.wc(cd, cx.rf.c(cb).inc_addr(imm));
        Ok(None)
    }
    op_csetbounds: Instr::CSetBounds { cd, cb, rs } => [eff().ri(rs).caps()] |p, cx| {
        let len = cx.rf.r(rs);
        let c = if p.weaken_sem() {
            // Test-only deliberate bug (`--weaken-sem`): bounds are set
            // without the monotonicity check, so a derived capability can
            // widen. The oracle self-test proves this is caught.
            cx.rf.c(cb).set_bounds_weakened(len)
        } else {
            cx.rf
                .c(cb)
                .set_bounds(len, false)
                .map_err(|f| p.cap_fault(cx.pc, f, None))?
        };
        p.record_derivation(&c);
        cx.rf.wc(cd, c);
        Ok(None)
    }
    op_csetboundsimm: Instr::CSetBoundsImm { cd, cb, imm } => [eff().caps()] |p, cx| {
        let c = cx
            .rf
            .c(cb)
            .set_bounds(imm, false)
            .map_err(|f| p.cap_fault(cx.pc, f, None))?;
        p.record_derivation(&c);
        cx.rf.wc(cd, c);
        Ok(None)
    }
    op_csetboundsexact: Instr::CSetBoundsExact { cd, cb, rs } => [eff().ri(rs).caps()] |p, cx| {
        let c = cx
            .rf
            .c(cb)
            .set_bounds(cx.rf.r(rs), true)
            .map_err(|f| p.cap_fault(cx.pc, f, None))?;
        p.record_derivation(&c);
        cx.rf.wc(cd, c);
        Ok(None)
    }
    op_candperm: Instr::CAndPerm { cd, cb, rs } => [eff().ri(rs).caps()] |p, cx| {
        let c = cx
            .rf
            .c(cb)
            .and_perms(Perms::from_bits_truncate(cx.rf.r(rs) as u32));
        p.record_derivation(&c);
        cx.rf.wc(cd, c);
        Ok(None)
    }
    op_ccleartag: Instr::CClearTag { cd, cb } => [eff().caps()] |_p, cx| {
        cx.rf.wc(cd, cx.rf.c(cb).clear_tag());
        Ok(None)
    }
    op_cmove: Instr::CMove { cd, cb } => [eff().caps()] |_p, cx| {
        cx.rf.wc(cd, cx.rf.c(cb));
        Ok(None)
    }
    op_crrl: Instr::CRrl { rd, rs } => [eff().ri(rs).wi(rd).caps()] |_p, cx| {
        cx.rf
            .w(rd, cx.rf.pcc.format().representable_length(cx.rf.r(rs)));
        Ok(None)
    }
    op_cram: Instr::CRam { rd, rs } => [eff().ri(rs).wi(rd).caps()] |_p, cx| {
        cx.rf
            .w(rd, cx.rf.pcc.format().representable_alignment_mask(cx.rf.r(rs)));
        Ok(None)
    }
    op_csub: Instr::CSub { rd, cb, ct } => [eff().wi(rd).caps()] |_p, cx| {
        cx.rf
            .w(rd, cx.rf.c(cb).addr().wrapping_sub(cx.rf.c(ct).addr()));
        Ok(None)
    }
    op_cfromptr: Instr::CFromPtr { cd, cb, rs } => [eff().ri(rs).caps()] |p, cx| {
        let v = cx.rf.r(rs);
        let c = if v == 0 {
            Capability::null(cx.rf.pcc.format())
        } else {
            cx.rf.c(cb).with_addr(v)
        };
        p.record_derivation(&c);
        cx.rf.wc(cd, c);
        Ok(None)
    }
    op_ctoptr: Instr::CToPtr { rd, cb, ct } => [eff().wi(rd).caps()] |_p, cx| {
        let c = cx.rf.c(cb);
        let _ = ct;
        cx.rf.w(rd, if c.tag() { c.addr() } else { 0 });
        Ok(None)
    }
    op_cseal: Instr::CSeal { cd, cs, ct } => [eff().caps()] |p, cx| {
        let c = cx
            .rf
            .c(cs)
            .seal(&cx.rf.c(ct))
            .map_err(|f| p.cap_fault(cx.pc, f, None))?;
        cx.rf.wc(cd, c);
        Ok(None)
    }
    op_cunseal: Instr::CUnseal { cd, cs, ct } => [eff().caps()] |p, cx| {
        let c = cx
            .rf
            .c(cs)
            .unseal(&cx.rf.c(ct))
            .map_err(|f| p.cap_fault(cx.pc, f, None))?;
        cx.rf.wc(cd, c);
        Ok(None)
    }
    op_ctestsubset: Instr::CTestSubset { rd, cb, ct } => [eff().wi(rd).caps()] |_p, cx| {
        let a = cx.rf.c(cb);
        let b = cx.rf.c(ct);
        cx.rf.w(rd, u64::from(a.tag() && b.tag() && b.is_subset_of(&a)));
        Ok(None)
    }
    op_cjr: Instr::CJr { cb } => [eff().caps().ctl()] |p, cx| {
        let t = cx.rf.c(cb);
        t.check_access(t.addr(), 4, Perms::EXECUTE)
            .map_err(|f| p.cap_fault(cx.pc, f, Some(t.addr())))?;
        cx.rf.pcc = t;
        cx.next = t.addr();
        Ok(None)
    }
    op_cjalr: Instr::CJalr { cd, cb } => [eff().caps().ctl()] |p, cx| {
        let t = cx.rf.c(cb);
        t.check_access(t.addr(), 4, Perms::EXECUTE)
            .map_err(|f| p.cap_fault(cx.pc, f, Some(t.addr())))?;
        cx.rf.wc(cd, cx.rf.pcc.with_addr(cx.next));
        cx.rf.pcc = t;
        cx.next = t.addr();
        Ok(None)
    }
    op_cgetpcc: Instr::CGetPcc { cd } => [eff().caps()] |_p, cx| {
        cx.rf.wc(cd, cx.rf.pcc.with_addr(cx.pc));
        Ok(None)
    }
    op_cgetddc: Instr::CGetDdc { cd } => [eff().caps()] |_p, cx| {
        cx.rf.wc(cd, cx.rf.ddc);
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::{creg, ireg};

    macro_rules! names_arr {
        ($($name:ident),+ $(,)?) => {
            &[$(stringify!($name)),+] as &[&str]
        };
    }

    /// `with_op_list!` is hand-written (see its doc comment); this pins it
    /// to the `define_ops!` handler list, order included.
    #[test]
    fn with_op_list_matches_the_handler_definitions() {
        let listed: &[&str] = crate::with_op_list!(names_arr);
        assert_eq!(listed, OP_NAMES, "with_op_list! drifted from define_ops!");
    }

    /// One exemplar per variant, in declaration order. The compiler cannot
    /// enforce completeness of a value list, so this doubles as the check
    /// that [`dispatch_index`] assigns every variant a distinct,
    /// contiguous slot.
    fn exemplars() -> Vec<Instr> {
        let rd = ireg::T0;
        let rs = ireg::T1;
        let rt = ireg::T2;
        let base = ireg::T3;
        let cd = creg::ptr(0);
        let cb = creg::ptr(1);
        let cs = creg::ptr(2);
        let ct = creg::ptr(3);
        vec![
            Instr::Li { rd, imm: 0 },
            Instr::Move { rd, rs },
            Instr::Add { rd, rs, rt },
            Instr::Sub { rd, rs, rt },
            Instr::Mul { rd, rs, rt },
            Instr::DivU { rd, rs, rt },
            Instr::DivS { rd, rs, rt },
            Instr::RemU { rd, rs, rt },
            Instr::And { rd, rs, rt },
            Instr::Or { rd, rs, rt },
            Instr::Xor { rd, rs, rt },
            Instr::Nor { rd, rs, rt },
            Instr::Sllv { rd, rs, rt },
            Instr::Srlv { rd, rs, rt },
            Instr::Srav { rd, rs, rt },
            Instr::Slt { rd, rs, rt },
            Instr::Sltu { rd, rs, rt },
            Instr::AddI { rd, rs, imm: 0 },
            Instr::AndI { rd, rs, imm: 0 },
            Instr::OrI { rd, rs, imm: 0 },
            Instr::XorI { rd, rs, imm: 0 },
            Instr::SllI { rd, rs, sh: 0 },
            Instr::SrlI { rd, rs, sh: 0 },
            Instr::SraI { rd, rs, sh: 0 },
            Instr::SltI { rd, rs, imm: 0 },
            Instr::SltuI { rd, rs, imm: 0 },
            Instr::Beq { rs, rt, target: 0 },
            Instr::Bne { rs, rt, target: 0 },
            Instr::Blez { rs, target: 0 },
            Instr::Bgtz { rs, target: 0 },
            Instr::Bltz { rs, target: 0 },
            Instr::Bgez { rs, target: 0 },
            Instr::J { target: 0 },
            Instr::Jal { target: 0 },
            Instr::Jr { rs },
            Instr::Jalr { rd, rs },
            Instr::Syscall,
            Instr::Break,
            Instr::Nop,
            Instr::Load {
                rd,
                base,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Store {
                rs,
                base,
                off: 0,
                w: Width::D,
            },
            Instr::CLoad {
                rd,
                cb,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::CStore {
                rs,
                cb,
                off: 0,
                w: Width::D,
            },
            Instr::Clc { cd, cb, off: 0 },
            Instr::Csc { cs, cb, off: 0 },
            Instr::CGetAddr { rd, cb },
            Instr::CGetBase { rd, cb },
            Instr::CGetLen { rd, cb },
            Instr::CGetPerm { rd, cb },
            Instr::CGetTag { rd, cb },
            Instr::CGetOffset { rd, cb },
            Instr::CGetType { rd, cb },
            Instr::CSetAddr { cd, cb, rs },
            Instr::CIncOffset { cd, cb, rs },
            Instr::CIncOffsetImm { cd, cb, imm: 0 },
            Instr::CSetBounds { cd, cb, rs },
            Instr::CSetBoundsImm { cd, cb, imm: 0 },
            Instr::CSetBoundsExact { cd, cb, rs },
            Instr::CAndPerm { cd, cb, rs },
            Instr::CClearTag { cd, cb },
            Instr::CMove { cd, cb },
            Instr::CRrl { rd, rs },
            Instr::CRam { rd, rs },
            Instr::CSub { rd, cb, ct },
            Instr::CFromPtr { cd, cb, rs },
            Instr::CToPtr { rd, cb, ct },
            Instr::CSeal { cd, cs, ct },
            Instr::CUnseal { cd, cs, ct },
            Instr::CTestSubset { rd, cb, ct },
            Instr::CJr { cb },
            Instr::CJalr { cd, cb },
            Instr::CGetPcc { cd },
            Instr::CGetDdc { cd },
        ]
    }

    #[test]
    fn every_variant_gets_a_distinct_contiguous_slot() {
        let all = exemplars();
        assert_eq!(all.len(), OP_NAMES.len(), "exemplar list out of date");
        for (i, instr) in all.iter().enumerate() {
            assert_eq!(
                usize::from(dispatch_index(instr)),
                i,
                "dispatch order diverged at {instr:?}"
            );
        }
    }

    /// A port that panics on any memory or capability-fault use: the
    /// drift-guard below only runs handlers whose effects clause declares
    /// them pure, so reaching the port at all is itself a drift.
    struct PureProbePort;

    impl crate::TrapPort for PureProbePort {
        type Fault = ();
        fn cap_fault(
            &mut self,
            _pc: u64,
            _fault: cheri_cap::CapFault,
            _vaddr: Option<u64>,
        ) -> Self::Fault {
            panic!("pure-declared handler raised a capability fault")
        }
    }

    impl MemoryPort for PureProbePort {
        fn read_raw(&mut self, _v: u64, _s: u64, _pc: u64) -> Result<u64, ()> {
            panic!("pure-declared handler read memory")
        }
        fn write_raw(&mut self, _v: u64, _s: u64, _val: u64, _pc: u64) -> Result<(), ()> {
            panic!("pure-declared handler wrote memory")
        }
        fn read_granule(&mut self, _v: u64, _pc: u64) -> Result<Option<Capability>, ()> {
            panic!("pure-declared handler read a granule")
        }
        fn write_granule(&mut self, _v: u64, _c: Capability, _pc: u64) -> Result<(), ()> {
            panic!("pure-declared handler wrote a granule")
        }
    }

    fn seeded_regfile(seed: u64) -> crate::RegFile {
        let mut rf = crate::RegFile::new(cheri_cap::CapFormat::C128);
        let mut x = seed | 1;
        for i in 1..32 {
            // Deterministic xorshift; small values keep shift/branch
            // operands interesting.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rf.gpr[i] = if i % 3 == 0 { x % 7 } else { x };
        }
        rf
    }

    /// Drift guard for the effects clauses: for every handler declared
    /// pure-integer, (a) perturbing registers *outside* the declared read
    /// set never changes what it computes, and (b) it never modifies a
    /// register outside the declared write set. A handler that secretly
    /// reads or writes more than its clause admits fails here — which is
    /// what keeps the template compiler in `cheri-cpu` honest.
    #[test]
    fn effects_clauses_match_pure_handler_behaviour() {
        for (case, instr) in exemplars().iter().enumerate() {
            let e = reg_effects(instr);
            if !e.is_pure_int() {
                continue;
            }
            for seed in [3u64, 0x9e3779b97f4a7c15, u64::MAX / 5] {
                let base = seeded_regfile(seed);
                let mut perturbed = base.clone();
                for i in 1..32 {
                    if e.int_reads & (1 << i) == 0 {
                        perturbed.gpr[i] ^= 0xdead_beef_0bad_f00d ^ (case as u64) << 32;
                    }
                }
                let run = |rf: &crate::RegFile| {
                    let mut rf = rf.clone();
                    let next = {
                        let mut cx = StepCtx {
                            rf: &mut rf,
                            pc: 0x1000,
                            next: 0x1004,
                            rstart: 0x1000,
                        };
                        let out = step_instr(&mut PureProbePort, &mut cx, *instr)
                            .expect("pure-declared handler trapped");
                        assert!(out.is_none(), "pure-declared handler exited: {instr:?}");
                        cx.next
                    };
                    (rf, next)
                };
                let (out_a, next_a) = run(&base);
                let (out_b, next_b) = run(&perturbed);
                for i in 0..32 {
                    if e.int_writes & (1 << i) != 0 {
                        // Declared writes must be a pure function of the
                        // declared reads — identical under perturbation.
                        assert_eq!(
                            out_a.gpr[i], out_b.gpr[i],
                            "{instr:?}: write ${i} depends on an undeclared read"
                        );
                    } else {
                        // Everything else must be untouched.
                        assert_eq!(
                            out_a.gpr[i], base.gpr[i],
                            "{instr:?}: wrote ${i} outside its declared write set"
                        );
                    }
                }
                // Control decisions (branch direction, jump-register
                // targets) must also be a pure function of the declared
                // reads: the perturbation never touches those, so `next`
                // must come out identical.
                assert_eq!(
                    next_a, next_b,
                    "{instr:?}: control depends on an undeclared read"
                );
            }
        }
    }

    /// Classification cross-check: the effects clauses must agree with the
    /// `Instr` classification helpers.
    #[test]
    fn effects_clauses_agree_with_instr_classification() {
        for instr in exemplars() {
            let e = reg_effects(&instr);
            assert_eq!(
                e.mem,
                instr.is_memory(),
                "{instr:?}: mem flag disagrees with Instr::is_memory"
            );
            if instr.is_control() {
                assert!(e.control, "{instr:?}: control op lacks ctl() clause");
            }
            if e.exit {
                assert!(
                    matches!(instr, Instr::Syscall | Instr::Break),
                    "{instr:?}: only syscall/break exit the run loop"
                );
            }
        }
    }
}
