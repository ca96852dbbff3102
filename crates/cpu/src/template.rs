//! Trace templates: the register-allocating execution tier.
//!
//! The stepper looks every taken control-transfer target up in a small
//! hot-pc table. When one keeps hitting (the guard — same pc, same
//! translation epoch, same exact PCC — keeps passing), the target is
//! *promoted*: starting from it, the compiler walks the decoded region
//! forward through fall-through control flow and compiles the longest
//! prefix of **pure-integer** instructions (per the static
//! [`cheri_sem::RegEffects`] metadata declared beside every handler) into
//! a [`Template`] — a closure-free straight-line plan in which every hot
//! guest register lives in a dense local slot for the whole trace.
//!
//! A conditional branch does not end the trace. The not-taken path
//! continues in the trace; the taken path becomes a *side exit* carrying
//! the exact retired-instruction count, base-cycle prefix and fetch prefix
//! for a departure at that instruction. An unconditional jump back to the
//! trace entry (or a conditional backedge as the final instruction) turns
//! the template into an *internal loop*: guest registers stay resident in
//! locals across iterations and the per-instruction fetch, dispatch,
//! `StepCtx` setup and port construction of the stepper are all folded
//! away.
//!
//! Soundness leans on one fact: an instruction whose effects clause says
//! [`is_pure_int`](cheri_sem::RegEffects::is_pure_int) touches no memory
//! and no capability state, so it can neither trap nor observe anything
//! outside the integer register file. The entry guard (pc/epoch/PCC) is
//! therefore checked once per template entry and remains valid for the
//! whole execution, however many iterations run. Anything the guard can't
//! cover — a memory access, a capability op, `syscall`/`break` — ends the
//! trace at compile time and returns to the stepper at runtime.
//!
//! Templates are a pure accelerant: retired instructions, base cycles and
//! fetches (charged in cache-line runs, see
//! [`cheri_mem::CacheHierarchy::access_run`]) are accounted exactly as
//! stepping would, so guest-visible metrics are byte-identical across all
//! tiers — which `interp_throughput` and the cpu-level mode-matrix test
//! enforce.

use crate::region::DecodedRegion;
use cheri_isa::{IReg, Instr};
use cheri_mem::FRAME_SIZE;
use cheri_sem::ops::reg_effects;

/// Local slot count: the two pseudo-slots below plus up to 31 guest
/// registers (`$0` never takes a slot).
pub(crate) const MAX_LOCALS: usize = 34;
/// Local slot that always reads 0 (`$zero` reads land here; never written).
const ZERO: u8 = 0;
/// Local slot that swallows writes to `$zero` (never flushed).
const SCRATCH: u8 = 1;
/// First local slot available to real guest registers.
const FIRST_REG_LOCAL: u8 = 2;

/// Trace length cap, in instructions. Generous: a trace is also clamped
/// to the page boundary and the PCC top, and ends at the first
/// non-pure-int instruction anyway.
const MAX_TRACE: usize = 64;
/// Non-looping traces shorter than this are not worth the entry/exit
/// load/flush traffic; looping traces always qualify.
const MIN_TRACE: usize = 3;
/// Guard hits on one hot-pc slot before its target is promoted.
pub(crate) const PROMOTE_THRESHOLD: u32 = 16;

/// Branch condition, evaluated over locals.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cond {
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
    /// Whether the branch is taken for operand values `a`, `b` — the
    /// exact predicates of the `op_beq`..`op_bgez` handlers.
    #[inline]
    pub(crate) fn taken(self, a: u64, b: u64) -> bool {
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

/// One compiled trace instruction. Operands are local-slot indices, not
/// guest register numbers; immediates are pre-converted to the exact
/// form the corresponding semantics handler uses (e.g. `li`'s `i64`
/// immediate is already `as u64`, shift amounts already `& 63`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum TOp {
    /// Retires and charges a cycle, nothing else.
    Nop,
    /// `d = imm`
    Li { d: u8, imm: u64 },
    /// `d = s`
    Mov { d: u8, s: u8 },
    /// `d = a (op) b` — the three-register ALU group, with the precise
    /// wrapping / zero-divisor behaviour of the handlers.
    Add { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Sub { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Mul { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    DivU { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    DivS { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    RemU { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    And { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Or { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Xor { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Nor { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Sllv { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Srlv { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Srav { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Slt { d: u8, a: u8, b: u8 },
    /// See [`TOp::Add`].
    Sltu { d: u8, a: u8, b: u8 },
    /// `d = s + imm` (wrapping; `imm` pre-cast to `u64`).
    AddI { d: u8, s: u8, imm: u64 },
    /// `d = s & imm`
    AndI { d: u8, s: u8, imm: u64 },
    /// `d = s | imm`
    OrI { d: u8, s: u8, imm: u64 },
    /// `d = s ^ imm`
    XorI { d: u8, s: u8, imm: u64 },
    /// `d = s << sh` (`sh` pre-masked).
    SllI { d: u8, s: u8, sh: u8 },
    /// `d = s >> sh` (logical).
    SrlI { d: u8, s: u8, sh: u8 },
    /// `d = s >> sh` (arithmetic).
    SraI { d: u8, s: u8, sh: u8 },
    /// `d = (s as i64) < imm`
    SltI { d: u8, s: u8, imm: i64 },
    /// `d = s < imm`
    SltuI { d: u8, s: u8, imm: u64 },
    /// A mid-trace conditional branch: not taken falls through to the
    /// next trace instruction; taken is a **side exit** to `taken_next`
    /// with metrics for exactly the instructions up to and including
    /// this one (index `k` in the ops vector, so `k + 1` retired,
    /// `cum_cycles[k]` base cycles, `k + 1` fetch events).
    Branch {
        /// Condition over `a`, `b`.
        cond: Cond,
        /// First operand local (the sole operand for zero-compares).
        a: u8,
        /// Second operand local ([`ZERO`] for zero-compares).
        b: u8,
        /// Absolute successor pc when taken.
        taken_next: u64,
    },
}

/// How a full pass over the trace ends.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TTerm {
    /// Unconditional jump back to the trace entry: continue iterating
    /// without leaving the template (registers stay in locals).
    Loop,
    /// Conditional backedge as the final instruction: taken continues
    /// iterating, not-taken exits to the trace's fall-through pc.
    CondLoop {
        /// Condition over `a`, `b`.
        cond: Cond,
        /// First operand local.
        a: u8,
        /// Second operand local ([`ZERO`] for zero-compares).
        b: u8,
    },
    /// Unconditional jump elsewhere: single pass, exit to the target.
    Jump(u64),
    /// `jr`: single pass, exit to the address in local `s`.
    Jr {
        /// Local holding the jump target.
        s: u8,
    },
    /// `jalr`: writes the fall-through pc to `d` *then* jumps to `s`
    /// (handler order — `d == s` jumps to the link address).
    Jalr {
        /// Link-destination local.
        d: u8,
        /// Local holding the jump target (read after the link write).
        s: u8,
    },
    /// The trace was truncated (non-pure-int successor, page/PCC/length
    /// clamp): single pass, exit to the fall-through pc.
    Fallthrough,
}

/// A compiled trace template. All metric data needed for both complete
/// passes and side exits is precomputed so the executor never touches
/// the decoded region.
#[derive(Clone, Debug)]
pub(crate) struct Template {
    /// Instructions per complete pass (terminator included).
    pub(crate) n_trace: u32,
    /// Base cycles per complete pass.
    pub(crate) cycles_total: u64,
    /// Inclusive base-cycle prefix sums, one per trace instruction:
    /// `cum_cycles[k]` is what a departure after instruction `k` charges.
    pub(crate) cum_cycles: Vec<u32>,
    /// Entry loads: `(guest reg, local)` for every allocated register —
    /// the full read∪write set, so flushing the whole write set is exact
    /// on *any* exit (an unwritten local still holds the entry value).
    pub(crate) init: Vec<(u8, u8)>,
    /// Exit flushes: `(local, guest reg)` for the write set.
    pub(crate) flush: Vec<(u8, u8)>,
    /// The straight-line plan, one entry per non-terminator instruction.
    pub(crate) ops: Vec<TOp>,
    /// What the final instruction does (or [`TTerm::Fallthrough`] if the
    /// trace was truncated and every instruction is in `ops`).
    pub(crate) term: TTerm,
    /// Fetch events of one complete pass, coalesced to cache-line runs:
    /// `(first physical address of run, fetches in run)`. Counts sum to
    /// `n_trace`. Single-run traces additionally merge across loop
    /// iterations (same line throughout).
    pub(crate) fetch_runs: Vec<(u64, u64)>,
    /// Virtual entry address of the trace (where [`TTerm::Loop`] /
    /// [`TTerm::CondLoop`] resume when the budget expires mid-loop).
    pub(crate) entry_pc: u64,
    /// Virtual fall-through successor of the whole trace.
    pub(crate) fall_pc: u64,
}

impl Template {
    /// Whether the terminator re-enters the trace ([`TTerm::Loop`] /
    /// [`TTerm::CondLoop`]): registers stay resident in locals across
    /// iterations.
    #[cfg(test)]
    pub(crate) fn looping(&self) -> bool {
        matches!(self.term, TTerm::Loop | TTerm::CondLoop { .. })
    }
}

/// Promotion state of one hot-pc slot.
#[derive(Clone, Debug)]
pub(crate) enum TmplState {
    /// Counting guard hits toward [`PROMOTE_THRESHOLD`].
    Cold(u32),
    /// Compilation was attempted and declined (trace too short or the
    /// entry instruction is not pure-int); don't retry on this entry.
    Rejected,
    /// Compiled and executable.
    Hot(Box<Template>),
}

impl Default for TmplState {
    fn default() -> TmplState {
        TmplState::Cold(0)
    }
}

/// How the trace walk ended (pre-lowering form of [`TTerm`]).
enum End {
    Loop,
    CondLoop(Instr),
    Jump(u64),
    Jr(IReg),
    Jalr(IReg, IReg),
    Fall,
}

/// Dense local allocation for one trace: guest register → local slot.
struct Locals {
    map: [u8; 32],
    next: u8,
}

impl Locals {
    fn new() -> Locals {
        Locals {
            map: [0; 32],
            next: FIRST_REG_LOCAL,
        }
    }

    /// Local for reading guest register `r` (`$0` reads the pinned
    /// [`ZERO`] slot).
    fn read(&mut self, r: IReg) -> u8 {
        if r.0 == 0 {
            ZERO
        } else {
            self.slot(r)
        }
    }

    /// Local for writing guest register `r` (`$0` writes are discarded
    /// into [`SCRATCH`], matching `RegFile::w`).
    fn write(&mut self, r: IReg) -> u8 {
        if r.0 == 0 {
            SCRATCH
        } else {
            self.slot(r)
        }
    }

    fn slot(&mut self, r: IReg) -> u8 {
        let i = r.0 as usize & 31;
        if self.map[i] == 0 {
            self.map[i] = self.next;
            self.next += 1;
        }
        self.map[i]
    }
}

/// Compiles the trace starting at (`pc0`, `pa0`) = instruction `idx` of
/// `region`, entered under a PCC with `pcc_rem` fetchable instructions
/// remaining and an L1 line size of `line` bytes. Returns `None` when no
/// worthwhile trace exists (see [`MIN_TRACE`]).
pub(crate) fn compile(
    region: &DecodedRegion,
    idx: usize,
    pc0: u64,
    pa0: u64,
    pcc_rem: usize,
    line: u64,
) -> Option<Template> {
    let rstart = region.start();
    // The contiguous-pa argument (pa = pa0 + 4k) only holds within the
    // entry's page, and every fetch must sit below the PCC top the guard
    // validated.
    let page_rem = ((FRAME_SIZE - pc0 % FRAME_SIZE) / 4) as usize;
    let cap = MAX_TRACE.min(page_rem).min(pcc_rem).min(region.len() - idx);

    // Pass 1: walk forward through fall-through control flow, collecting
    // pure-int instructions until a terminator or a clamp.
    let mut trace: Vec<Instr> = Vec::new();
    let mut end = End::Fall;
    while trace.len() < cap {
        let instr = region.instr_at(idx + trace.len()).instr;
        if !reg_effects(&instr).is_pure_int() {
            break;
        }
        match instr {
            Instr::J { target } => {
                trace.push(instr);
                let t = rstart + u64::from(target) * 4;
                end = if t == pc0 { End::Loop } else { End::Jump(t) };
                break;
            }
            Instr::Jr { rs } => {
                trace.push(instr);
                end = End::Jr(rs);
                break;
            }
            Instr::Jalr { rd, rs } => {
                trace.push(instr);
                end = End::Jalr(rd, rs);
                break;
            }
            Instr::Beq { target, .. }
            | Instr::Bne { target, .. }
            | Instr::Blez { target, .. }
            | Instr::Bgtz { target, .. }
            | Instr::Bltz { target, .. }
            | Instr::Bgez { target, .. }
                if rstart + u64::from(target) * 4 == pc0 =>
            {
                // A conditional backedge: end the trace here so taken
                // iterates inside the template instead of side-exiting
                // and re-entering through the guard every iteration.
                trace.push(instr);
                end = End::CondLoop(instr);
                break;
            }
            _ => trace.push(instr),
        }
    }
    let n = trace.len();
    let looping = matches!(end, End::Loop | End::CondLoop(_));
    if n == 0 || (!looping && n < MIN_TRACE) {
        return None;
    }

    // Pass 2: lower to local-slot form.
    let mut locals = Locals::new();
    let n_ops = if matches!(end, End::Fall) { n } else { n - 1 };
    let mut ops = Vec::with_capacity(n_ops);
    for &instr in &trace[..n_ops] {
        ops.push(lower(instr, &mut locals, rstart));
    }
    let term = match end {
        End::Fall => TTerm::Fallthrough,
        End::Loop | End::Jump(_) => match end {
            End::Loop => TTerm::Loop,
            End::Jump(t) => TTerm::Jump(t),
            _ => unreachable!(),
        },
        End::CondLoop(instr) => {
            let (cond, a, b) = lower_cond(instr, &mut locals);
            TTerm::CondLoop { cond, a, b }
        }
        End::Jr(rs) => TTerm::Jr { s: locals.read(rs) },
        End::Jalr(rd, rs) => {
            // Handler order: the link write happens before the target
            // read, so allocate (and later execute) in that order.
            let d = locals.write(rd);
            let s = locals.read(rs);
            TTerm::Jalr { d, s }
        }
    };
    debug_assert!((locals.next as usize) <= MAX_LOCALS);

    // Entry loads cover every allocated register — reads *and* writes —
    // so the unconditional full-write-set flush on any exit path always
    // stores either the template's value or the untouched entry value.
    let mut init = Vec::new();
    let mut flush = Vec::new();
    for r in 1..32u8 {
        let l = locals.map[r as usize];
        if l != 0 {
            init.push((r, l));
            if trace
                .iter()
                .any(|i| reg_effects(i).int_writes & (1 << r) != 0)
            {
                flush.push((l, r));
            }
        }
    }

    // Metrics: base-cycle prefix sums and line-coalesced fetch runs.
    let mut cum_cycles = Vec::with_capacity(n);
    let mut total = 0u32;
    for k in 0..n {
        total += u32::from(region.instr_at(idx + k).base_cycles);
        cum_cycles.push(total);
    }
    let mut fetch_runs: Vec<(u64, u64)> = Vec::new();
    for k in 0..n as u64 {
        let pa = pa0 + 4 * k;
        match fetch_runs.last_mut() {
            Some((first, count)) if pa / line == *first / line => *count += 1,
            _ => fetch_runs.push((pa, 1)),
        }
    }

    Some(Template {
        n_trace: n as u32,
        cycles_total: u64::from(total),
        cum_cycles,
        init,
        flush,
        ops,
        term,
        fetch_runs,
        entry_pc: pc0,
        fall_pc: pc0 + 4 * n as u64,
    })
}

/// Lowers a straight-line (or mid-trace branch) instruction to a [`TOp`].
/// Immediates are pre-converted to exactly what the handler computes.
fn lower(instr: Instr, l: &mut Locals, rstart: u64) -> TOp {
    // Allocation order mirrors handler evaluation order (reads before
    // the write) — irrelevant for correctness, kept for readability of
    // the dense mapping.
    match instr {
        Instr::Nop => TOp::Nop,
        Instr::Li { rd, imm } => TOp::Li {
            d: l.write(rd),
            imm: imm as u64,
        },
        Instr::Move { rd, rs } => TOp::Mov {
            s: l.read(rs),
            d: l.write(rd),
        },
        Instr::Add { rd, rs, rt } => TOp::Add {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Sub { rd, rs, rt } => TOp::Sub {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Mul { rd, rs, rt } => TOp::Mul {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::DivU { rd, rs, rt } => TOp::DivU {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::DivS { rd, rs, rt } => TOp::DivS {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::RemU { rd, rs, rt } => TOp::RemU {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::And { rd, rs, rt } => TOp::And {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Or { rd, rs, rt } => TOp::Or {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Xor { rd, rs, rt } => TOp::Xor {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Nor { rd, rs, rt } => TOp::Nor {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Sllv { rd, rs, rt } => TOp::Sllv {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Srlv { rd, rs, rt } => TOp::Srlv {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Srav { rd, rs, rt } => TOp::Srav {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Slt { rd, rs, rt } => TOp::Slt {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::Sltu { rd, rs, rt } => TOp::Sltu {
            a: l.read(rs),
            b: l.read(rt),
            d: l.write(rd),
        },
        Instr::AddI { rd, rs, imm } => TOp::AddI {
            s: l.read(rs),
            d: l.write(rd),
            imm: imm as u64,
        },
        Instr::AndI { rd, rs, imm } => TOp::AndI {
            s: l.read(rs),
            d: l.write(rd),
            imm,
        },
        Instr::OrI { rd, rs, imm } => TOp::OrI {
            s: l.read(rs),
            d: l.write(rd),
            imm,
        },
        Instr::XorI { rd, rs, imm } => TOp::XorI {
            s: l.read(rs),
            d: l.write(rd),
            imm,
        },
        Instr::SllI { rd, rs, sh } => TOp::SllI {
            s: l.read(rs),
            d: l.write(rd),
            sh: sh & 63,
        },
        Instr::SrlI { rd, rs, sh } => TOp::SrlI {
            s: l.read(rs),
            d: l.write(rd),
            sh: sh & 63,
        },
        Instr::SraI { rd, rs, sh } => TOp::SraI {
            s: l.read(rs),
            d: l.write(rd),
            sh: sh & 63,
        },
        Instr::SltI { rd, rs, imm } => TOp::SltI {
            s: l.read(rs),
            d: l.write(rd),
            imm,
        },
        Instr::SltuI { rd, rs, imm } => TOp::SltuI {
            s: l.read(rs),
            d: l.write(rd),
            imm,
        },
        Instr::Beq { target, .. }
        | Instr::Bne { target, .. }
        | Instr::Blez { target, .. }
        | Instr::Bgtz { target, .. }
        | Instr::Bltz { target, .. }
        | Instr::Bgez { target, .. } => {
            let (cond, a, b) = lower_cond(instr, l);
            TOp::Branch {
                cond,
                a,
                b,
                taken_next: rstart + u64::from(target) * 4,
            }
        }
        // The walk in `compile` never lets anything else through: J/Jr/
        // Jalr end the trace as terminators, non-pure-int ops end it
        // before inclusion.
        other => unreachable!("non-templatable instruction in trace: {other:?}"),
    }
}

/// Lowers a conditional branch's predicate to (condition, operand locals).
fn lower_cond(instr: Instr, l: &mut Locals) -> (Cond, u8, u8) {
    match instr {
        Instr::Beq { rs, rt, .. } => (Cond::Eq, l.read(rs), l.read(rt)),
        Instr::Bne { rs, rt, .. } => (Cond::Ne, l.read(rs), l.read(rt)),
        Instr::Blez { rs, .. } => (Cond::Lez, l.read(rs), ZERO),
        Instr::Bgtz { rs, .. } => (Cond::Gtz, l.read(rs), ZERO),
        Instr::Bltz { rs, .. } => (Cond::Ltz, l.read(rs), ZERO),
        Instr::Bgez { rs, .. } => (Cond::Gez, l.read(rs), ZERO),
        other => unreachable!("not a conditional branch: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::ireg;

    const LINE: u64 = 64;

    /// The spin inner loop as `spec.rs` lowers it, entered at the `top`
    /// label (index 1): li, sub, beqz(done), addi, j top.
    fn spin_body() -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: 1000,
            },
            Instr::Sub {
                rd: ireg::T1,
                rs: ireg::T0,
                rt: ireg::T1,
            },
            Instr::Beq {
                rs: ireg::T1,
                rt: ireg::ZERO,
                target: 6,
            },
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            },
            Instr::J { target: 1 },
            Instr::Syscall,
        ]
    }

    #[test]
    fn spin_loop_compiles_to_internal_loop() {
        let r = DecodedRegion::decode(0x10000, &spin_body());
        // Enter at `top` (index 1).
        let t = compile(&r, 1, 0x10004, 0x5004, 1 << 20, LINE).unwrap();
        assert_eq!(t.n_trace, 5, "li, sub, beqz, addi, j");
        assert!(matches!(t.term, TTerm::Loop));
        assert!(t.looping());
        assert_eq!(t.ops.len(), 4, "terminator j carries no op");
        assert!(
            matches!(t.ops[2], TOp::Branch { taken_next, .. } if taken_next == 0x10018),
            "beqz is a side exit to `done`"
        );
        // T0 is read and written, T1 written then read: both resident,
        // both flushed; nothing else allocated.
        assert_eq!(t.init.len(), 2);
        assert_eq!(t.flush.len(), 2);
        // 5 instructions, one cycle each.
        assert_eq!(t.cycles_total, 5);
        assert_eq!(t.cum_cycles, vec![1, 2, 3, 4, 5]);
        // 20 bytes from 0x5004: one line run.
        assert_eq!(t.fetch_runs, vec![(0x5004, 5)]);
    }

    #[test]
    fn trace_ends_before_non_pure_instruction() {
        // li, li, add, syscall: the trace must stop before the syscall.
        let code = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 1,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: 2,
            },
            Instr::Add {
                rd: ireg::T2,
                rs: ireg::T0,
                rt: ireg::T1,
            },
            Instr::Syscall,
        ];
        let r = DecodedRegion::decode(0, &code);
        let t = compile(&r, 0, 0, 0, 1 << 20, LINE).unwrap();
        assert_eq!(t.n_trace, 3);
        assert!(matches!(t.term, TTerm::Fallthrough));
        assert!(!t.looping());
        assert_eq!(t.fall_pc, 12);
    }

    #[test]
    fn short_straight_line_traces_are_rejected() {
        let code = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 1,
            },
            Instr::Syscall,
        ];
        let r = DecodedRegion::decode(0, &code);
        assert!(compile(&r, 0, 0, 0, 1 << 20, LINE).is_none());
        // A non-pure entry instruction rejects immediately.
        assert!(compile(&r, 1, 4, 4, 1 << 20, LINE).is_none());
    }

    #[test]
    fn conditional_backedge_becomes_cond_loop() {
        // top: addi t0, t0, -1 ; bgtz t0, top ; syscall
        let code = vec![
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: -1,
            },
            Instr::Bgtz {
                rs: ireg::T0,
                target: 0,
            },
            Instr::Syscall,
        ];
        let r = DecodedRegion::decode(0, &code);
        let t = compile(&r, 0, 0, 0, 1 << 20, LINE).unwrap();
        assert_eq!(t.n_trace, 2);
        assert!(matches!(
            t.term,
            TTerm::CondLoop {
                cond: Cond::Gtz,
                ..
            }
        ));
        assert!(t.looping());
        assert_eq!(t.fall_pc, 8);
    }

    #[test]
    fn trace_clamps_to_page_and_pcc() {
        let code = vec![
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            };
            64
        ];
        let r = DecodedRegion::decode(0x10000, &code);
        // PCC allows only 4 more instructions.
        let t = compile(&r, 0, 0x10000, 0, 4, LINE).unwrap();
        assert_eq!(t.n_trace, 4);
        // Entry 8 bytes before a page boundary: 2 instructions fit.
        let near_end = FRAME_SIZE - 8;
        let code2 = vec![
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            };
            8
        ];
        let r2 = DecodedRegion::decode(near_end, &code2);
        assert!(
            compile(&r2, 0, near_end, near_end, 1 << 20, LINE).is_none(),
            "2-instruction straight-line trace is below MIN_TRACE"
        );
    }

    #[test]
    fn fetch_runs_split_at_line_boundaries() {
        // 20 instructions starting 8 bytes before a line boundary:
        // 2 fetches in the first line, 16 in the next, 2 in the third.
        let code = vec![
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            };
            20
        ];
        let r = DecodedRegion::decode(0x10000, &code);
        let t = compile(&r, 0, 0x10000, LINE - 8, 1 << 20, LINE).unwrap();
        assert_eq!(t.fetch_runs, vec![(LINE - 8, 2), (LINE, 16), (2 * LINE, 2)]);
        assert_eq!(t.fetch_runs.iter().map(|r| r.1).sum::<u64>(), 20);
    }

    #[test]
    fn zero_register_maps_to_pinned_slots() {
        // add t0, $0, $0 ; move $0, t0 ; j 0 — reads of $0 use the ZERO
        // local, the write to $0 lands in SCRATCH and is never flushed.
        let code = vec![
            Instr::Add {
                rd: ireg::T0,
                rs: ireg::ZERO,
                rt: ireg::ZERO,
            },
            Instr::Move {
                rd: ireg::ZERO,
                rs: ireg::T0,
            },
            Instr::J { target: 0 },
        ];
        let r = DecodedRegion::decode(0, &code);
        let t = compile(&r, 0, 0, 0, 1 << 20, LINE).unwrap();
        assert!(matches!(t.term, TTerm::Loop));
        assert!(matches!(t.ops[0], TOp::Add { a: 0, b: 0, .. }));
        assert!(matches!(t.ops[1], TOp::Mov { d: 1, .. }));
        assert_eq!(t.flush.len(), 1, "only t0 flushes");
    }
}
