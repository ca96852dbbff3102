//! Trace templates: the register-allocating execution tier.
//!
//! The stepper looks every taken control-transfer target up in a small
//! hot-pc table. When one keeps hitting (the guard — same pc, same
//! translation epoch, same exact PCC — keeps passing), the target is
//! *promoted*: starting from it, the compiler walks the decoded region
//! forward through fall-through control flow and compiles the longest
//! prefix of instructions it can run in-trace into a [`Template`] — a
//! closure-free straight-line plan in which every hot guest register lives
//! in a dense local slot for the whole trace. In-trace instructions are the
//! **pure-integer** ones (per the static [`cheri_sem::RegEffects`]
//! metadata declared beside every handler; their results come from
//! `cheri-sem`'s [`Alu`] and [`Cond`] kernels), the data accesses of
//! [`MemOp`] (legacy loads and stores through DDC, `cload`/`cstore`,
//! `clc`/`csc`) and the capability-register ops of [`CapOp`]
//! (`cincoffset`, `cmove`, `cgettag`, `cgetaddr`).
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
//! Soundness rests on two rules. **Every guard precedes every side
//! effect:** a data access first checks, with no effect at all, everything
//! that could make the stepper do something other than its plain fast
//! path — the capability checks ([`cheri_sem::check_data`] and friends,
//! the same functions the handlers call; for a legacy access that includes
//! the DDC tag), alignment (an unaligned legacy access, which the stepper
//! fixes up at a 50-cycle charge, counts as a failed guard; an aligned
//! access never crosses a page), and a TLB hit for its access kind. The
//! TLB is only valid under the epoch it was filled in, and the entry guard
//! checks that epoch once: nothing in a trace calls into the VM, so
//! nothing can bump it mid-trace. Pure-integer and capability-register
//! ops have no guard because they cannot trap. **A failed guard exits
//! precisely before its instruction:** the write set is flushed, exactly
//! the prefix is retired and charged, and the stepper re-executes the
//! instruction, taking the trap, the VM walk, the copy-on-write break or
//! the page-straddle fallback itself.
//!
//! An unconditional jump to an address on the entry's page does not end
//! the trace either: the walk follows it, so a `continue` block that jumps
//! back to its loop head compiles into the same trace as the loop body.
//!
//! Templates are a pure accelerant: retired instructions, base cycles and
//! fetches (charged in cache-line runs, see
//! [`cheri_mem::CacheHierarchy::access_run`]) are accounted exactly as
//! stepping would. Each data access is charged in place, after the first
//! fetch of every line up to its own, so the shared L2 sees stepping's
//! access order; the other fetches hit the L1I's most recent line, which
//! data accesses never displace, and land at exit. When the trace's lines
//! fall in distinct L1I sets, every head fetch after the first pass is
//! such a hit too, and lands at exit with them ([`Template::settled`]).
//! Guest-visible metrics are therefore byte-identical across all tiers —
//! which `interp_throughput` and the cpu-level mode-matrix test enforce.

use crate::region::DecodedRegion;
use cheri_isa::{CReg, IReg, Instr, Width};
use cheri_mem::{CacheConfig, FRAME_SIZE};
use cheri_sem::ops::reg_effects;
use cheri_sem::{alu_form, Alu, Cond, Src};
use std::ops::{Index, IndexMut};

/// Local slot count: the two pseudo-slots below plus up to 31 guest
/// registers (`$0` never takes a slot).
pub(crate) const MAX_LOCALS: usize = 34;
/// Local slot that always reads 0 (`$zero` reads land here; never written).
const ZERO: u8 = 0;
/// Local slot that swallows writes to `$zero` (never flushed).
const SCRATCH: u8 = 1;
/// First local slot available to real guest registers.
const FIRST_REG_LOCAL: u8 = 2;

/// Size of the executor's slot array: a power of two at least
/// [`MAX_LOCALS`], so masking a slot number keeps it in bounds.
const SLOTS: usize = 64;
const _: () = assert!(SLOTS.is_power_of_two() && MAX_LOCALS <= SLOTS);

/// The executor's locals. A slot number is masked to the array's size
/// (a no-op for every number [`compile`] hands out), so the compiler
/// proves every access in bounds and emits no check.
pub(crate) struct Slots([u64; SLOTS]);

impl Slots {
    /// All slots 0, [`ZERO`] included.
    pub(crate) fn new() -> Slots {
        Slots([0; SLOTS])
    }
}

impl Index<u8> for Slots {
    type Output = u64;

    #[inline(always)]
    fn index(&self, slot: u8) -> &u64 {
        &self.0[usize::from(slot) % SLOTS]
    }
}

impl IndexMut<u8> for Slots {
    #[inline(always)]
    fn index_mut(&mut self, slot: u8) -> &mut u64 {
        &mut self.0[usize::from(slot) % SLOTS]
    }
}

/// Trace length cap, in instructions. Generous: a trace is also clamped
/// to the entry's page and the PCC bounds, and ends at the first
/// instruction that cannot run in-trace anyway.
const MAX_TRACE: usize = 64;
/// Non-looping traces shorter than this are not worth the entry/exit
/// load/flush traffic; looping traces always qualify.
const MIN_TRACE: usize = 3;
/// Guard hits on one hot-pc slot before its target is promoted.
pub(crate) const PROMOTE_THRESHOLD: u32 = 16;

/// Defines [`TOp`] from [`cheri_sem::for_each_alu!`]'s list of ALU forms.
macro_rules! define_top {
    (reg [$($r:ident),*] imm [$($i:ident = $k:ident),*]) => {
        /// One compiled trace instruction. Operands are local-slot indices,
        /// not guest register numbers. Each ALU instruction form has its
        /// own variant, so the executor's one `match` on the op reaches
        /// the kernel directly: integer results and branch decisions come
        /// from `cheri-sem`'s kernels ([`Alu`], [`Cond`]), the same ones
        /// the handlers call, and the template tier holds no integer
        /// semantics of its own.
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum TOp {
            /// Retires and charges a cycle, nothing else.
            Nop,
            /// `d = imm` (`li`'s `i64` immediate already `as u64`).
            Li { d: u8, imm: u64 },
            /// `d = s`
            Mov { d: u8, s: u8 },
            $(
                #[doc = concat!("`d = Alu::", stringify!($r), "(a, b)`")]
                $r { d: u8, a: u8, b: u8 },
            )*
            $(
                #[doc = concat!("`d = Alu::", stringify!($k), "(s, imm)`, `imm` cast as [`alu_form`] casts it")]
                $i { d: u8, s: u8, imm: u64 },
            )*
            /// A mid-trace conditional branch: not taken falls through to
            /// the next trace instruction; taken is a **side exit** to
            /// `taken_next` with metrics for exactly the instructions up to
            /// and including this one (index `k` in the ops vector, so
            /// `k + 1` retired, `cum_cycles[k + 1]` base cycles, `k + 1`
            /// fetch events).
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
            /// A guarded data access.
            Mem(MemOp),
            /// A capability-register op.
            Cap(CapOp),
        }

        impl TOp {
            /// The three-register ALU op `d = op(a, b)`.
            fn alu(op: Alu, d: u8, a: u8, b: u8) -> TOp {
                match op {
                    $(Alu::$r => TOp::$r { d, a, b },)*
                }
            }

            /// The immediate ALU op `d = op(s, imm)`. A `cheri-sem` test
            /// holds every immediate form of [`alu_form`] to a kernel in
            /// the list.
            fn alu_imm(op: Alu, d: u8, s: u8, imm: u64) -> TOp {
                match op {
                    $(Alu::$k => TOp::$i { d, s, imm },)*
                    other => unreachable!("no immediate form of {other:?}"),
                }
            }
        }
    };
}
cheri_sem::for_each_alu!(define_top);

/// A data access compiled into a trace. Each one checks its guards before
/// any side effect and exits the template just before itself when one
/// fails (see the module docs). Capability registers are read from and
/// written to the register file in program order; integer operands are
/// locals.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MemOp {
    /// Legacy load through DDC: `d = [base + off]`.
    Load {
        d: u8,
        base: u8,
        off: i32,
        w: Width,
        signed: bool,
    },
    /// Legacy store through DDC: `[base + off] = s`.
    Store { s: u8, base: u8, off: i32, w: Width },
    /// `cload`: `d = [cb.addr + off]`.
    CLoad {
        d: u8,
        cb: CReg,
        off: i32,
        w: Width,
        signed: bool,
    },
    /// `cstore`: `[cb.addr + off] = s`.
    CStore { s: u8, cb: CReg, off: i32, w: Width },
    /// `clc`: `cd = [cb.addr + off]`, a capability-width granule.
    Clc { cd: CReg, cb: CReg, off: i32 },
    /// `csc`: `[cb.addr + off] = cs`.
    Csc { cs: CReg, cb: CReg, off: i32 },
}

/// A capability-register op compiled into a trace: it touches no memory
/// and cannot trap, so it needs no guard.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CapOp {
    /// `cincoffset`: `cd = cb` advanced by local `s`.
    IncOffset { cd: CReg, cb: CReg, s: u8 },
    /// `cincoffset` with an immediate.
    IncOffsetImm { cd: CReg, cb: CReg, imm: i64 },
    /// `cmove`: `cd = cb`.
    Move { cd: CReg, cb: CReg },
    /// `cgettag`: `d = cb.tag`.
    GetTag { d: u8, cb: CReg },
    /// `cgetaddr`: `d = cb.addr`.
    GetAddr { d: u8, cb: CReg },
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
    /// The trace was truncated (a successor that cannot run in-trace, or
    /// a page/PCC/length clamp): single pass, exit to the fall-through pc.
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
    /// Base-cycle prefix sums, `n_trace + 1` of them: `cum_cycles[r]` is
    /// what a departure after the first `r` instructions of a pass
    /// charges.
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
    /// The index in `fetch_runs` of each instruction's run.
    pub(crate) run_of: Vec<u8>,
    /// Virtual address of each trace instruction (where a failed guard
    /// exits). Consecutive within the page, except after a followed jump.
    pub(crate) pcs: Vec<u64>,
    /// Virtual entry address of the trace (where [`TTerm::Loop`] /
    /// [`TTerm::CondLoop`] resume when the budget expires mid-loop).
    pub(crate) entry_pc: u64,
    /// Virtual fall-through successor of the last trace instruction.
    pub(crate) fall_pc: u64,
    /// Whether the trace's distinct fetch lines all fall in distinct L1I
    /// sets. Only fetches change the L1I (data accesses use the L1D, and
    /// the L2 does not back-invalidate), so after one full pass every
    /// line is the most recent of its set and stays so: each later head
    /// fetch is a front hit, which changes no state and reaches no other
    /// level. The executor then charges passes after the first no
    /// per-line access, and the exit settlement counts those fetches as
    /// the hits they are. A single-line trace always settles.
    pub(crate) settled: bool,
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
    /// entry instruction cannot run in-trace); don't retry on this entry.
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

/// Compiles the trace entered at `pc0` in `region`, whose page the TLB
/// maps to the frame holding `pa0`, under a PCC that lets it fetch from
/// `pcc_base` up to `pcc_top`, for a core whose L1 geometry is `l1`.
/// Returns `None` when no worthwhile trace exists (see [`MIN_TRACE`]).
pub(crate) fn compile(
    region: &DecodedRegion,
    pc0: u64,
    pa0: u64,
    pcc_base: u64,
    pcc_top: u64,
    l1: CacheConfig,
) -> Option<Template> {
    let line = l1.line;
    let rstart = region.start();
    let target = |t: u32| rstart + u64::from(t) * 4;
    // Every fetch comes from the entry's page, the one translation the
    // guard validated, and lies within the PCC bounds and the region.
    let fetchable = |pc: u64| {
        pc / FRAME_SIZE == pc0 / FRAME_SIZE
            && pc >= pcc_base
            && pc.saturating_add(4) <= pcc_top
            && region.contains(pc)
    };

    // Pass 1: walk forward through fall-through control flow and
    // unconditional jumps, collecting in-trace instructions until a
    // terminator or a clamp.
    let mut trace: Vec<(u64, Instr)> = Vec::new();
    let mut end = End::Fall;
    let mut pc = pc0;
    while trace.len() < MAX_TRACE && fetchable(pc) {
        let instr = region.instr_at(region.index_of(pc)).instr;
        if !in_trace(&instr) {
            break;
        }
        trace.push((pc, instr));
        match instr {
            Instr::J { target: t } => {
                let t = target(t);
                if t == pc0 {
                    end = End::Loop;
                    break;
                }
                // A jump within the page continues the trace at its
                // target, unless the trace already holds it (a loop the
                // entry does not head).
                if fetchable(t) && trace.iter().all(|&(p, _)| p != t) {
                    pc = t;
                    continue;
                }
                end = End::Jump(t);
                break;
            }
            Instr::Jr { rs } => {
                end = End::Jr(rs);
                break;
            }
            Instr::Jalr { rd, rs } => {
                end = End::Jalr(rd, rs);
                break;
            }
            Instr::Beq { target: t, .. }
            | Instr::Bne { target: t, .. }
            | Instr::Blez { target: t, .. }
            | Instr::Bgtz { target: t, .. }
            | Instr::Bltz { target: t, .. }
            | Instr::Bgez { target: t, .. }
                if target(t) == pc0 =>
            {
                // A conditional backedge: end the trace here so taken
                // iterates inside the template instead of side-exiting
                // and re-entering through the guard every iteration.
                end = End::CondLoop(instr);
                break;
            }
            _ => {}
        }
        pc += 4;
    }
    // A trace cut right after a jump it followed leaves through the jump.
    if let (End::Fall, Some(&(_, Instr::J { target: t }))) = (&end, trace.last()) {
        end = End::Jump(target(t));
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
    for &(_, instr) in &trace[..n_ops] {
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
                .any(|(_, i)| reg_effects(i).int_writes & (1 << r) != 0)
            {
                flush.push((l, r));
            }
        }
    }

    // Metrics: base-cycle prefix sums and line-coalesced fetch runs.
    let mut cum_cycles = Vec::with_capacity(n + 1);
    let mut total = 0u32;
    cum_cycles.push(total);
    for &(pc, _) in &trace {
        total += u32::from(region.instr_at(region.index_of(pc)).base_cycles);
        cum_cycles.push(total);
    }
    let frame = pa0 - pc0 % FRAME_SIZE;
    let mut fetch_runs: Vec<(u64, u64)> = Vec::new();
    let mut run_of = Vec::with_capacity(n);
    for &(pc, _) in &trace {
        let pa = frame + pc % FRAME_SIZE;
        match fetch_runs.last_mut() {
            Some((first, count)) if pa / line == *first / line => *count += 1,
            _ => fetch_runs.push((pa, 1)),
        }
        run_of.push((fetch_runs.len() - 1) as u8);
    }
    // Distinct lines sorted by set: a set holding two of them shows up as
    // two neighbours with one set.
    let mut lines: Vec<(u64, u64)> = fetch_runs
        .iter()
        .map(|&(pa, _)| (l1.set_of(pa), pa / line))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let settled = lines.windows(2).all(|w| w[0].0 != w[1].0);

    Some(Template {
        n_trace: n as u32,
        cycles_total: u64::from(total),
        cum_cycles,
        init,
        flush,
        ops,
        term,
        fetch_runs,
        run_of,
        pcs: trace.iter().map(|&(pc, _)| pc).collect(),
        entry_pc: pc0,
        fall_pc: trace[n - 1].0 + 4,
        settled,
    })
}

/// Whether `instr` can run in-trace: a pure-integer instruction, a data
/// access with in-trace guards ([`MemOp`]) or a capability-register op
/// that cannot trap ([`CapOp`]). Every pure-integer instruction is `li`,
/// `move`, `nop`, a jump (`j`, `jr`, `jalr`), a conditional branch
/// ([`Cond`]) or has an [`alu_form`] ([`Alu`]); a `cheri-sem` test holds
/// each new one to that, so [`lower`] never meets a pure instruction it
/// cannot compile. `csetbounds`, `candperm` and the other capability ops
/// end a trace: they can trap or record derivations, and they are rare in
/// hot loops.
fn in_trace(instr: &Instr) -> bool {
    reg_effects(instr).is_pure_int()
        || matches!(
            instr,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::CLoad { .. }
                | Instr::CStore { .. }
                | Instr::Clc { .. }
                | Instr::Csc { .. }
                | Instr::CIncOffset { .. }
                | Instr::CIncOffsetImm { .. }
                | Instr::CMove { .. }
                | Instr::CGetTag { .. }
                | Instr::CGetAddr { .. }
        )
}

/// Lowers a straight-line (or mid-trace branch) instruction to a [`TOp`].
fn lower(instr: Instr, l: &mut Locals, rstart: u64) -> TOp {
    // Allocation order mirrors handler evaluation order (reads before
    // the write) — irrelevant for correctness, kept for readability of
    // the dense mapping.
    if let Some((op, rd, rs, src)) = alu_form(&instr) {
        let a = l.read(rs);
        return match src {
            Src::Reg(rt) => {
                let b = l.read(rt);
                TOp::alu(op, l.write(rd), a, b)
            }
            Src::Imm(imm) => TOp::alu_imm(op, l.write(rd), a, imm),
        };
    }
    match instr {
        // A jump the walk followed: the trace goes on at its target.
        Instr::Nop | Instr::J { .. } => TOp::Nop,
        Instr::Li { rd, imm } => TOp::Li {
            d: l.write(rd),
            imm: imm as u64,
        },
        Instr::Move { rd, rs } => TOp::Mov {
            s: l.read(rs),
            d: l.write(rd),
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
        Instr::Load {
            rd,
            base,
            off,
            w,
            signed,
        } => TOp::Mem(MemOp::Load {
            base: l.read(base),
            d: l.write(rd),
            off,
            w,
            signed,
        }),
        Instr::Store { rs, base, off, w } => TOp::Mem(MemOp::Store {
            s: l.read(rs),
            base: l.read(base),
            off,
            w,
        }),
        Instr::CLoad {
            rd,
            cb,
            off,
            w,
            signed,
        } => TOp::Mem(MemOp::CLoad {
            d: l.write(rd),
            cb,
            off,
            w,
            signed,
        }),
        Instr::CStore { rs, cb, off, w } => TOp::Mem(MemOp::CStore {
            s: l.read(rs),
            cb,
            off,
            w,
        }),
        Instr::Clc { cd, cb, off } => TOp::Mem(MemOp::Clc { cd, cb, off }),
        Instr::Csc { cs, cb, off } => TOp::Mem(MemOp::Csc { cs, cb, off }),
        Instr::CIncOffset { cd, cb, rs } => TOp::Cap(CapOp::IncOffset {
            cd,
            cb,
            s: l.read(rs),
        }),
        Instr::CIncOffsetImm { cd, cb, imm } => TOp::Cap(CapOp::IncOffsetImm { cd, cb, imm }),
        Instr::CMove { cd, cb } => TOp::Cap(CapOp::Move { cd, cb }),
        Instr::CGetTag { rd, cb } => TOp::Cap(CapOp::GetTag { d: l.write(rd), cb }),
        Instr::CGetAddr { rd, cb } => TOp::Cap(CapOp::GetAddr { d: l.write(rd), cb }),
        // The walk in `compile` never lets anything else through: J/Jr/
        // Jalr end the trace as terminators, instructions `in_trace`
        // refuses end it before inclusion.
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
    /// The paper's L1: 32 KiB, 4-way, 64-byte lines.
    const L1: CacheConfig = CacheConfig {
        size: 32 * 1024,
        line: LINE,
        ways: 4,
    };

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
        let t = compile(&r, 0x10004, 0x5004, 0, u64::MAX, L1).unwrap();
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
        assert_eq!(t.cum_cycles, vec![0, 1, 2, 3, 4, 5]);
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
        let t = compile(&r, 0, 0, 0, u64::MAX, L1).unwrap();
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
        assert!(compile(&r, 0, 0, 0, u64::MAX, L1).is_none());
        // An entry instruction that cannot run in-trace rejects at once.
        assert!(compile(&r, 4, 4, 0, u64::MAX, L1).is_none());
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
        let t = compile(&r, 0, 0, 0, u64::MAX, L1).unwrap();
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
        let t = compile(&r, 0x10000, 0, 0x10000, 0x10000 + 16, L1).unwrap();
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
            compile(&r2, near_end, near_end, 0, u64::MAX, L1).is_none(),
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
        let t = compile(&r, 0x10000, LINE - 8, 0, u64::MAX, L1).unwrap();
        assert_eq!(t.fetch_runs, vec![(LINE - 8, 2), (LINE, 16), (2 * LINE, 2)]);
        assert_eq!(t.fetch_runs.iter().map(|r| r.1).sum::<u64>(), 20);
        assert!(t.settled, "three lines in three of the L1's 128 sets");
        // A direct-mapped two-set L1 puts the first and third lines in
        // one set: they evict each other, so no pass settles.
        let tiny = CacheConfig {
            size: 2 * LINE,
            line: LINE,
            ways: 1,
        };
        let t = compile(&r, 0x10000, LINE - 8, 0, u64::MAX, tiny).unwrap();
        assert_eq!(t.fetch_runs.len(), 3);
        assert!(!t.settled);
        // One line always settles, even in a one-set cache.
        let one_set = CacheConfig { size: LINE, ..tiny };
        let t = compile(&r, 0x10000, 0, 0, 0x10000 + 48, one_set).unwrap();
        assert_eq!(t.fetch_runs.len(), 1);
        assert!(t.settled);
    }

    #[test]
    fn traces_follow_jumps_within_the_page() {
        // 0: addi t0 ; 1: j 3 ; 2: syscall ; 3: addi t1 ; 4: bne t0, t2, 0
        // ; 5: j 2. From 0 the walk follows `j 3` and ends at the
        // conditional backedge; from 3 it follows nothing, as `j 2` lands
        // on a syscall, and leaves through that jump.
        let code = vec![
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            },
            Instr::J { target: 3 },
            Instr::Syscall,
            Instr::AddI {
                rd: ireg::T1,
                rs: ireg::T1,
                imm: 2,
            },
            Instr::Bne {
                rs: ireg::T0,
                rt: ireg::T2,
                target: 0,
            },
            Instr::J { target: 2 },
        ];
        let r = DecodedRegion::decode(0x10000, &code);
        let t = compile(&r, 0x10000, 0x5000, 0, u64::MAX, L1).unwrap();
        assert!(matches!(t.term, TTerm::CondLoop { cond: Cond::Ne, .. }));
        assert_eq!(t.pcs, vec![0x10000, 0x10004, 0x1000c, 0x10010]);
        assert!(matches!(t.ops[1], TOp::Nop), "the followed jump");
        assert_eq!(t.fall_pc, 0x10014);
        assert_eq!(t.fetch_runs, vec![(0x5000, 4)]);
        assert_eq!(t.cum_cycles, vec![0, 1, 2, 3, 4]);

        let t = compile(&r, 0x1000c, 0x500c, 0, u64::MAX, L1).unwrap();
        assert!(matches!(t.term, TTerm::Jump(0x10008)));
        assert_eq!(t.pcs, vec![0x1000c, 0x10010, 0x10014]);
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
        let t = compile(&r, 0, 0, 0, u64::MAX, L1).unwrap();
        assert!(matches!(t.term, TTerm::Loop));
        assert!(matches!(t.ops[0], TOp::Add { a: 0, b: 0, .. }));
        assert!(matches!(t.ops[1], TOp::Mov { d: 1, .. }));
        assert_eq!(t.flush.len(), 1, "only t0 flushes");
    }
}
