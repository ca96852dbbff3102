//! The fetch/decode/execute core.

use crate::ops::{self, CpuPorts, RefPorts};
use crate::oracle::{self, Divergence, LockstepState};
use crate::region::{DecodedInstr, DecodedRegion};
use crate::template::{self, CapOp, MemOp, Slots, TOp, TTerm, Template, TmplState};
use crate::{DerivationTrace, RegFile};
use cheri_cap::{CapFault, Capability, Perms};
use cheri_isa::Instr;
use cheri_mem::{AccessKind, CacheHierarchy, PAddr, PhysMem, FRAME_SIZE};
use cheri_sem::{Alu, SemExit, StepCtx};
use cheri_vm::{Access, AsId, Shootdown, Vm, VmError, USER_TOP};
use std::fmt;
use std::sync::Arc;

/// Why execution stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Exit {
    /// The guest executed `syscall`; `pc` already points at the next
    /// instruction, the syscall number is in `$v0`.
    Syscall,
    /// The guest executed `break` (abort / sanitizer trap).
    Break,
    /// A trap: capability fault, VM fault, or fetch error. `pc` still
    /// points at the faulting instruction.
    Trap(TrapInfo),
    /// The instruction budget given to [`Cpu::run`] was exhausted.
    InstrLimit,
}

/// Details of a trap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrapInfo {
    /// Cause classification.
    pub cause: TrapCause,
    /// Faulting instruction address.
    pub pc: u64,
    /// Data address involved, if any.
    pub vaddr: Option<u64>,
}

/// Trap cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapCause {
    /// A capability check failed (the CHERI exception vector).
    Cap(CapFault),
    /// A virtual-memory fault the kernel could not transparently service.
    Vm(VmError),
    /// PC does not fall within any registered code region.
    NoCode,
}

/// Retired-instruction and cycle counters (the Figure 4 metrics), plus
/// host-side fast-path efficacy counters.
///
/// Equality compares **guest-visible** fields only (`instret`, `cycles`,
/// `syscalls`): the TLB, resident-region and template counters describe
/// how the simulator got there, differ legitimately between the
/// execution tiers, and must never participate in the metric-equivalence
/// gates.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuStats {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles consumed (pipeline base + memory stalls + runtime charges).
    pub cycles: u64,
    /// `syscall` instructions retired.
    pub syscalls: u64,
    /// Host-side: translations served from the TLB.
    pub tlb_hits: u64,
    /// Host-side: translations that took the full VM walk.
    pub tlb_misses: u64,
    /// Host-side: fetches served by the resident code region.
    pub sb_hits: u64,
    /// Host-side: fetches that re-scanned the region map.
    pub sb_misses: u64,
    /// Host-side: hot branch targets compiled to a trace template.
    pub tmpl_compiles: u64,
    /// Host-side: template executions (each may run many loop
    /// iterations).
    pub tmpl_hits: u64,
    /// Host-side: instructions retired inside templates (a share of
    /// `instret`: the template tier's coverage).
    pub tmpl_instrs: u64,
}

impl PartialEq for CpuStats {
    fn eq(&self, other: &CpuStats) -> bool {
        (self.instret, self.cycles, self.syscalls) == (other.instret, other.cycles, other.syscalls)
    }
}

impl Eq for CpuStats {}

/// Direct-mapped TLB geometry: sets per access kind. Must be a power of
/// two — the set index is `(vpn ^ space offset) & (TLB_SETS - 1)`.
const TLB_SETS: usize = 256;
/// Read / Write / Exec each get their own way so that a page readable and
/// executable at different physical rights never aliases.
const TLB_KINDS: usize = 3;
/// Bits of a user virtual page number: every user address lies below
/// [`USER_TOP`]. A TLB tag holds the vpn in these low bits and the
/// address space above them.
const VPN_BITS: u32 = (USER_TOP / FRAME_SIZE).trailing_zeros();
const _: () = assert!((USER_TOP / FRAME_SIZE).is_power_of_two());
/// Address-space ids that fit the tag field above the vpn. The all-ones
/// field is left to [`TLB_INVALID`]; a space with a larger id is tagged 0
/// and flushes the TLB whenever it is switched to or from.
const TAGGED_SPACES: u64 = (1 << (64 - VPN_BITS)) - 1;
/// Sentinel tag marking an empty TLB slot: its space field is all ones,
/// which no space is tagged with.
const TLB_INVALID: u64 = u64::MAX;

/// The TLB set offset of space `id` (see `Cpu::tlb_index`): Fibonacci
/// hashing, the top bits of the product pick it.
fn tlb_set_offset(id: AsId) -> usize {
    (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TLB_SETS.trailing_zeros())) as usize
}

/// Whether space `id` is too large for the TLB tag field (see
/// [`TAGGED_SPACES`]).
fn untagged(id: AsId) -> bool {
    id.0 >= TAGGED_SPACES
}

/// The TLB tag bits of space `id`, above the vpn.
fn space_tag(id: AsId) -> u64 {
    if untagged(id) {
        0
    } else {
        id.0 << VPN_BITS
    }
}

/// The [`Cpu`] code-table slot of space `id`: ids are handed out densely
/// from 1 by [`Vm`] and never reused, so slot 0 stays empty.
fn code_slot(id: AsId) -> usize {
    usize::try_from(id.0).expect("address-space ids are dense")
}

/// One direct-mapped TLB slot: the tag of the translation it holds (the
/// space's tag above the virtual page number) and the physical frame base
/// it maps to. Folding the space into the vpn word keeps the slot at 16
/// bytes.
#[derive(Clone, Copy)]
struct TlbEntry {
    tag: u64,
    base: u64,
}

/// Hot-pc table geometry: direct-mapped on the branch-target pc. Must be
/// a power of two. A loop nest has a handful of taken-branch targets, so
/// a small table captures them without thrashing.
const HOT_SLOTS: usize = 64;

/// Promotion state of one taken-branch target. Valid only while the
/// address space, the VM translation epoch and the exact PCC still match
/// — the same monotone-epoch argument that makes the TLB sound — and
/// until a shootdown names a page of its space, which drops the entry.
/// Every demotion is therefore free: a guard miss (epoch bump from mmap,
/// mprotect or fork; PCC change; slot reuse) refills the slot, and its
/// template state resets to cold with it.
struct HotEntry {
    /// The branch-target pc.
    pc: u64,
    /// The address space the entry was filled in.
    space: AsId,
    /// VM translation epoch the entry was filled under.
    epoch: u64,
    /// The exact PCC the entry was filled under.
    pcc: Capability,
    /// Guard hits so far, or the compiled template.
    tmpl: TmplState,
}

/// The code of one address space in [`Cpu`]'s code table.
#[derive(Default)]
struct SpaceCode {
    /// Its registered regions.
    regions: Vec<Arc<DecodedRegion>>,
    /// While another space is current: the resident region it left, which
    /// its next context switch resumes.
    parked: Option<Arc<DecodedRegion>>,
}

/// The stepper's checked fetch window: the pcs `lo..lo + len` that the
/// last slow-path fetch found inside the resident region, inside PCC's
/// bounds with `EXECUTE`, and on the page the TLB translated (`pc + delta`
/// is the physical address). Until the next slow fetch, PCC write,
/// template run, run entry or invalidation, a fetch there needs none of
/// those checks, only the cache model. And a fetch of the L1I line the
/// window fetched last (`line..line + line_len`, physical) needs not even
/// that: it is an L1I front hit, as no other fetch has reached the L1I
/// since.
#[derive(Clone, Copy)]
struct FetchWindow {
    lo: u64,
    len: u64,
    delta: u64,
    line: u64,
    line_len: u64,
}

impl FetchWindow {
    const EMPTY: FetchWindow = FetchWindow {
        lo: 0,
        len: 0,
        delta: 0,
        line: 0,
        line_len: 0,
    };
}

/// The simulated core: caches, counters, registered code regions, and a
/// direct-mapped, address-space-tagged TLB that keeps itself exact by
/// following the VM's translation epoch and shootdown queue (no kernel
/// flush calls required, and no flush on a context switch).
///
/// Three machines share it: the reference interpreter (fast path off),
/// the TLB stepper, and trace templates the stepper promotes from hot
/// branch targets. All three charge every cache access at its exact
/// program point, so guest-visible results are identical by construction.
pub struct Cpu {
    /// Cache hierarchy (shared by fetch and data sides, as on the FPGA).
    pub caches: CacheHierarchy,
    /// Performance counters.
    pub stats: CpuStats,
    /// Derivation tracing for Figure 5.
    pub trace: DerivationTrace,
    /// Registered code regions of each address space, indexed by
    /// [`AsId`] (ids are dense and never reused, so this is a table, not a
    /// map); a space without code has an empty slot.
    code: Vec<SpaceCode>,
    cur_as: Option<AsId>,
    /// The TLB tag bits of `cur_as` (see [`VPN_BITS`]).
    cur_tag: u64,
    /// The set offset of `cur_as`: XORed into the set index so that spaces
    /// with the same layout (a forked server and its clients) spread over
    /// different sets instead of evicting each other.
    cur_set: usize,
    /// Direct-mapped translation cache, `TLB_KINDS * TLB_SETS` slots.
    /// An entry serves only its own space (the tag), and only after the
    /// VM's invalidations since its fill were applied (see
    /// [`Cpu::sync_tlb`]): an epoch bump resets the whole cache, a
    /// shootdown the entries of one page of one space.
    tlb: Vec<TlbEntry>,
    /// The [`cheri_vm::Vm::epoch`] value the TLB contents were filled
    /// under.
    seen_epoch: u64,
    /// The [`cheri_vm::Vm::invalidations`] count the TLB has applied.
    seen_invalidations: u64,
    /// The code region the last fetch hit: straight-line fetch and branch
    /// target resolution stay inside it without touching the region map.
    /// Belongs to `cur_as`, so a context switch parks it (see
    /// [`SpaceCode::parked`]).
    cur_code: Option<Arc<DecodedRegion>>,
    /// The fetch window, inside `cur_code`.
    win: FetchWindow,
    /// Template promotion state of taken-branch targets, direct-mapped
    /// on the target pc ([`HOT_SLOTS`] slots).
    hot: Vec<Option<HotEntry>>,
    /// Whether `hot` may hold an entry: false from a reset until the next
    /// fill, so invalidations skip the table while no template tier runs.
    hot_used: bool,
    /// When false, `run` takes the reference interpreter instead of the
    /// stepper: per-step fetch through the full VM walk and region scan,
    /// direct semantics dispatch — no TLB, no resident region, no
    /// templates. Guest-visible behaviour is identical by construction;
    /// only speed differs.
    fast_path: bool,
    /// When false, hot branch targets are never promoted to trace
    /// templates: the `--exec-mode superblock` point (plain stepping).
    templates: bool,
    /// Test-only residency weakening (`--weaken-flush`): the first
    /// template execution skips its exit write-set flush, silently
    /// dropping every register the trace computed. One-shot, so the
    /// guest still terminates; exists solely so the cross-tier
    /// determinism gates can prove they catch a residency bug.
    weaken_flush: bool,
    /// Whether the one-shot weakened flush already fired.
    flush_weakened: bool,
    /// Holds the core on plain stepping (no templates). Armed fault plans
    /// and scenarios set this so every trigger point and mid-run cycle
    /// stamp falls between two single instructions.
    exact_events: bool,
    /// Test-only semantic weakening (`--weaken-sem`): when set,
    /// `csetbounds` (register form) skips its monotonicity check. Exists
    /// solely so the oracle self-test can prove divergences are detected.
    weaken_sem: bool,
    /// Armed lockstep oracle, if any (see [`crate::oracle`]).
    lockstep: Option<LockstepState>,
}

/// Converts a semantics-level exit into the machine-level [`Exit`].
fn sem_exit(e: SemExit) -> Exit {
    match e {
        SemExit::Syscall => Exit::Syscall,
        SemExit::Break => Exit::Break,
    }
}

/// In-order fetch accounting of a template. Only the first fetch of each
/// line run can miss the L1I and reach the shared L2, so only these *head*
/// fetches are charged in program order, before the data accesses that
/// follow them. Every other fetch is of the line fetched just before it,
/// the L1I's most recent line, which data accesses never displace: it is
/// a hit wherever it lands, and all of them land at exit. A
/// [`Template::settled`] trace charges heads in its first pass only.
#[derive(Default)]
struct HeadFetches {
    /// Line runs of the current pass whose head fetch is charged.
    charged: usize,
    /// Head fetches charged as real accesses so far.
    real: u64,
}

/// The direction of an in-trace integer data access.
#[derive(Clone, Copy)]
enum Data {
    /// Into local `d`, sign-extended when `signed`.
    Load { d: u8, signed: bool },
    /// Of this value.
    Store(u64),
}

/// How a template execution left off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Left {
    /// At a control transfer (a side exit, the terminator, or the budget
    /// at the loop head): the next pc may enter a template.
    Transfer,
    /// Before a data access whose guard failed: the stepper executes it.
    Guard,
}

/// What one in-trace op leaves its pass to do.
enum Flow {
    /// Go on with the next op.
    Next,
    /// Leave through a taken side exit to this pc.
    Taken(u64),
    /// Leave before this op: its guard failed.
    Guard,
}

/// Executes an in-trace capability-register op, with the handler's
/// semantics: capability registers in the register file, integer ones in
/// the locals.
#[inline]
fn cap_op(op: CapOp, l: &mut Slots, rf: &mut RegFile) {
    match op {
        CapOp::IncOffset { cd, cb, s } => {
            let c = rf.cap(cb).inc_addr(l[s] as i64);
            rf.wc(cd, c);
        }
        CapOp::IncOffsetImm { cd, cb, imm } => {
            let c = rf.cap(cb).inc_addr(imm);
            rf.wc(cd, c);
        }
        CapOp::Move { cd, cb } => rf.wc(cd, rf.c(cb)),
        CapOp::GetTag { d, cb } => l[d] = u64::from(rf.cap(cb).tag()),
        CapOp::GetAddr { d, cb } => l[d] = rf.cap(cb).addr(),
    }
}

/// Defines [`Cpu::exec_op`] from [`cheri_sem::for_each_alu!`]'s list of
/// ALU forms: one arm per [`TOp`] variant, so an ALU op is one dispatch
/// straight into its kernel.
macro_rules! define_exec_op {
    (reg [$($r:ident),*] imm [$($i:ident = $k:ident),*]) => {
        impl Cpu {
            /// Executes op `k` of the current pass of `t`.
            #[allow(clippy::too_many_arguments)]
            #[inline(always)]
            fn exec_op(
                &mut self,
                op: TOp,
                t: &Template,
                k: usize,
                heads: &mut HeadFetches,
                l: &mut Slots,
                rf: &mut RegFile,
                phys: &mut PhysMem,
            ) -> Flow {
                match op {
                    TOp::Nop => {}
                    TOp::Li { d, imm } => l[d] = imm,
                    TOp::Mov { d, s } => l[d] = l[s],
                    $(TOp::$r { d, a, b } => l[d] = Alu::$r.eval(l[a], l[b]),)*
                    $(TOp::$i { d, s, imm } => l[d] = Alu::$k.eval(l[s], imm),)*
                    TOp::Branch {
                        cond,
                        a,
                        b,
                        taken_next,
                    } => {
                        if cond.taken(l[a], l[b]) {
                            return Flow::Taken(taken_next);
                        }
                    }
                    TOp::Mem(m) => {
                        if !self.tmpl_access(m, t, k, heads, l, rf, phys) {
                            return Flow::Guard;
                        }
                    }
                    TOp::Cap(c) => cap_op(c, l, rf),
                }
                Flow::Next
            }
        }
    };
}
cheri_sem::for_each_alu!(define_exec_op);

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cpu{{{:?}}}", self.stats)
    }
}

type StepResult = Result<Option<Exit>, TrapInfo>;

impl Cpu {
    /// A fresh core with the paper's FPGA cache geometry.
    #[must_use]
    pub fn new() -> Cpu {
        Cpu {
            caches: CacheHierarchy::fpga_default(),
            stats: CpuStats::default(),
            trace: DerivationTrace::new(),
            code: Vec::new(),
            cur_as: None,
            cur_tag: 0,
            cur_set: 0,
            tlb: vec![
                TlbEntry {
                    tag: TLB_INVALID,
                    base: 0,
                };
                TLB_KINDS * TLB_SETS
            ],
            seen_epoch: 0,
            seen_invalidations: 0,
            cur_code: None,
            win: FetchWindow::EMPTY,
            hot: (0..HOT_SLOTS).map(|_| None).collect(),
            hot_used: false,
            fast_path: true,
            templates: true,
            weaken_flush: false,
            flush_weakened: false,
            exact_events: false,
            weaken_sem: false,
            lockstep: None,
        }
    }

    /// Selects the stepper (`true`, the default) or the reference
    /// interpreter (`false`, `--exec-mode single`). Guest-visible
    /// behaviour is identical in both modes; only speed differs.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
        self.reset_tlb();
    }

    /// Enables or disables the template tier (promotion of hot branch
    /// targets to compiled trace templates — plain stepping when
    /// disabled). Guest-visible behaviour is identical in both modes.
    /// Disabling discards every compiled template.
    pub fn set_templates(&mut self, on: bool) {
        self.templates = on;
        self.reset_hot();
    }

    /// Enables the test-only deliberate residency bug (`--weaken-flush`):
    /// the first template execution skips its exit write-set flush. The
    /// guest's register file silently loses everything the trace
    /// computed, so guest metrics and outcomes diverge from the other
    /// tiers — which the cross-tier determinism gates must catch. The
    /// self-test that proves the gates actually cover register
    /// residency.
    pub fn set_weaken_flush(&mut self, on: bool) {
        self.weaken_flush = on;
        self.flush_weakened = false;
    }

    /// Holds the core on plain stepping (no template promotion). Every
    /// cache access is charged at its exact program point in every mode,
    /// a template's data accesses go through the same `PhysMem` entry
    /// points as the stepper's, and a template never traps or calls into
    /// the VM (a failed guard hands the instruction back to the stepper),
    /// so this is not needed for exactness: guest bytes are the same with
    /// and without it. It is a speed feature: fault plans and scenarios
    /// set it because templates reach little of a scenario. A slice
    /// executes ~14 instructions and ends in a syscall, and calls and
    /// returns end traces too: without the hold, templates retire 5.3 % of
    /// server-sched's instructions (388 compiles of 38 hits each per
    /// sweep), which does not repay their compiles (EXPERIMENTS.md,
    /// "Syscall slices at stepper speed").
    pub fn set_exact_mem_events(&mut self, on: bool) {
        self.exact_events = on;
    }

    /// Enables the test-only deliberate semantics bug (`--weaken-sem`):
    /// `csetbounds` (register form) skips its monotonicity check in the
    /// stepper, so a derived capability can widen. The lockstep shadow never weakens,
    /// so the oracle must report a divergence — the self-test that proves
    /// the oracle plane actually detects semantic drift.
    pub fn set_weaken_sem(&mut self, on: bool) {
        self.weaken_sem = on;
    }

    /// Whether the test-only semantics weakening is active.
    #[must_use]
    pub fn weaken_sem(&self) -> bool {
        self.weaken_sem
    }

    /// Arms the lockstep oracle: every `every`-th dispatched instruction —
    /// and every trap/exit boundary — is re-executed by a side-effect-free
    /// shadow interpreter and the full architectural state compared.
    /// `verify_stores` additionally checks what stores left in memory;
    /// disable it when a fault plan is armed (injected corruption is
    /// deliberately non-architectural). Only the stepper is shadowed: the
    /// reference interpreter runs the shadow's own semantics.
    pub fn set_lockstep(&mut self, every: u64, verify_stores: bool) {
        let every = every.max(1);
        self.lockstep = Some(LockstepState {
            every,
            countdown: every,
            verify_stores,
            divergence: None,
        });
    }

    /// Takes the first divergence the lockstep oracle observed, if any.
    pub fn take_divergence(&mut self) -> Option<Divergence> {
        self.lockstep.as_mut().and_then(|l| l.divergence.take())
    }

    /// Invalidates every TLB slot of every address space, the resident
    /// code region and the hot-pc table: on an epoch bump, a fast-path
    /// toggle, or a switch to or from a space too large to tag. A context
    /// switch between tagged spaces keeps them.
    fn reset_tlb(&mut self) {
        for e in &mut self.tlb {
            e.tag = TLB_INVALID;
        }
        self.drop_resident();
        self.reset_hot();
    }

    /// Drops the resident code region and the fetch window inside it.
    fn drop_resident(&mut self) {
        self.cur_code = None;
        self.win = FetchWindow::EMPTY;
    }

    /// Brings the TLB up to date with the VM's invalidations. The check is
    /// one compare; [`Cpu::apply_invalidations`] does the work.
    #[inline]
    fn sync_tlb(&mut self, vm: &mut Vm) {
        if vm.invalidations() != self.seen_invalidations {
            self.apply_invalidations(vm);
        }
    }

    /// An epoch bump resets everything; otherwise each queued shootdown
    /// drops the entries it names and its space's hot-pc entries (a
    /// template holds the physical address of its code). Either way the
    /// fetch window goes.
    #[inline(never)]
    fn apply_invalidations(&mut self, vm: &mut Vm) {
        let epoch = vm.epoch();
        if epoch == self.seen_epoch {
            for s in vm.drain_shootdowns() {
                match s {
                    Shootdown::Page(id, vpn) => self.shoot_down_page(id, vpn),
                    Shootdown::Space(id) => self.shoot_down_space(id),
                }
            }
            self.win = FetchWindow::EMPTY;
        } else {
            vm.drain_shootdowns();
            self.reset_tlb();
            self.seen_epoch = epoch;
        }
        self.seen_invalidations = vm.invalidations();
    }

    /// Drops the entries of page `vpn` of space `id`, one slot per access
    /// kind, and the space's hot-pc entries.
    fn shoot_down_page(&mut self, id: AsId, vpn: u64) {
        let tag = space_tag(id) | vpn;
        let set = (vpn as usize ^ tlb_set_offset(id)) & (TLB_SETS - 1);
        for kind in 0..TLB_KINDS {
            let e = &mut self.tlb[kind * TLB_SETS + set];
            if e.tag == tag {
                e.tag = TLB_INVALID;
            }
        }
        self.drop_hot_of(id);
    }

    /// Drops every entry of space `id` (an untagged space shares tag 0 with
    /// the others, so all of theirs go too) and its hot-pc entries.
    fn shoot_down_space(&mut self, id: AsId) {
        let space = space_tag(id) >> VPN_BITS;
        for e in &mut self.tlb {
            if e.tag != TLB_INVALID && e.tag >> VPN_BITS == space {
                e.tag = TLB_INVALID;
            }
        }
        self.drop_hot_of(id);
    }

    /// Drops the hot-pc entries (and templates) of space `id`.
    fn drop_hot_of(&mut self, id: AsId) {
        if !self.hot_used {
            return;
        }
        for e in &mut self.hot {
            if e.as_ref().is_some_and(|e| e.space == id) {
                *e = None;
            }
        }
    }

    /// Invalidates the hot-pc table (and with it every template).
    fn reset_hot(&mut self) {
        if !self.hot_used {
            return;
        }
        for e in &mut self.hot {
            *e = None;
        }
        self.hot_used = false;
    }

    /// Registers a pre-decoded, immutable code region (done by the loader
    /// / RTLD when mapping an object's text segment). The region is shared
    /// by reference: registration, fork and residency never copy it.
    pub fn register_region(&mut self, id: AsId, region: Arc<DecodedRegion>) {
        self.space_code(id).regions.push(region);
        self.forget_resident(id);
        self.reset_hot();
    }

    /// Decodes and registers a code region in one step. Convenience
    /// wrapper over [`DecodedRegion::decode`] + [`Cpu::register_region`]
    /// for callers that don't retain the decoded form.
    pub fn register_code(&mut self, id: AsId, start: u64, code: Arc<Vec<Instr>>) {
        self.register_region(id, DecodedRegion::decode(start, &code));
    }

    /// Forgets all code regions of an address space (process teardown).
    pub fn clear_code(&mut self, id: AsId) {
        if let Some(code) = self.code.get_mut(code_slot(id)) {
            code.regions = Vec::new();
        }
        self.forget_resident(id);
        self.reset_hot();
    }

    /// Copies the code map of `from` to `to` (fork: the child shares the
    /// parent's text mappings). Regions are immutable and `Arc`-shared, so
    /// this bumps reference counts instead of cloning instruction vectors.
    pub fn clone_code(&mut self, from: AsId, to: AsId) {
        let shared = match self.code.get(code_slot(from)) {
            Some(code) if !code.regions.is_empty() => code.regions.clone(),
            _ => return,
        };
        self.space_code(to).regions = shared;
        self.forget_resident(to);
        self.reset_hot();
    }

    /// The code of space `id`, growing the table to reach it.
    fn space_code(&mut self, id: AsId) -> &mut SpaceCode {
        let slot = code_slot(id);
        if self.code.len() <= slot {
            self.code.resize_with(slot + 1, SpaceCode::default);
        }
        &mut self.code[slot]
    }

    /// Forgets the resident region of space `id`, current or parked: its
    /// region list changed.
    fn forget_resident(&mut self, id: AsId) {
        if self.cur_as == Some(id) {
            self.drop_resident();
        } else if let Some(code) = self.code.get_mut(code_slot(id)) {
            code.parked = None;
        }
    }

    /// Charges the cost of work performed by a trusted runtime service on
    /// behalf of the guest (allocator internals, RTLD, kernel copies).
    pub fn charge(&mut self, instrs: u64, cycles: u64) {
        self.stats.instret += instrs;
        self.stats.cycles += cycles;
    }

    /// Makes `id` the translation context. TLB and hot-pc entries carry
    /// the space they were filled in, so other spaces' entries stay warm
    /// across the switch and are never served to `id`. The resident code
    /// region is per space: the old space's is parked in its code-table
    /// slot, and `id`'s parked one resumes (moved, not cloned).
    fn set_context(&mut self, id: AsId) {
        if self.cur_as == Some(id) {
            return;
        }
        if untagged(id) || self.cur_as.is_some_and(untagged) {
            self.reset_tlb();
        }
        let resident = self.cur_code.take();
        if let Some(old) = self.cur_as {
            if let Some(code) = self.code.get_mut(code_slot(old)) {
                code.parked = resident;
            }
        }
        self.cur_as = Some(id);
        self.cur_tag = space_tag(id);
        self.cur_set = tlb_set_offset(id);
        self.win = FetchWindow::EMPTY;
        self.cur_code = self
            .code
            .get_mut(code_slot(id))
            .and_then(|code| code.parked.take());
    }

    /// TLB slot index for a (access kind, virtual page number) pair in the
    /// current space.
    #[inline]
    fn tlb_index(&self, access: Access, vpn: u64) -> usize {
        access as usize * TLB_SETS + ((vpn as usize ^ self.cur_set) & (TLB_SETS - 1))
    }

    /// The physical address the TLB holds for `vaddr` and `access` in the
    /// current space, if any. Meaningful only once the VM's invalidations
    /// are applied (see [`Cpu::sync_tlb`]). At or above USER_TOP the vpn spills into the space bits
    /// and could alias another space's entry: such an address is never
    /// cached, so it never hits.
    #[inline]
    fn tlb_lookup(&self, vaddr: u64, access: Access) -> Option<u64> {
        let vpn = vaddr / FRAME_SIZE;
        let e = self.tlb[self.tlb_index(access, vpn)];
        (vaddr < USER_TOP && e.tag == self.cur_tag | vpn).then(|| e.base + vaddr % FRAME_SIZE)
    }

    /// Translates `vaddr` for a guest access by instruction `pc`.
    #[inline(always)]
    pub(crate) fn translate_cached(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        vaddr: u64,
        access: Access,
        pc: u64,
    ) -> Result<u64, TrapInfo> {
        self.translate_tlb(vm, id, vaddr, access)
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })
    }

    /// Translates `vaddr` in the current space `id` through the TLB: the
    /// hit path, inlined into every fetch and data access.
    #[inline(always)]
    fn translate_tlb(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        vaddr: u64,
        access: Access,
    ) -> Result<u64, VmError> {
        if vm.invalidations() == self.seen_invalidations {
            if let Some(pa) = self.tlb_lookup(vaddr, access) {
                self.tlb_hit(vm, id, vaddr, access, pa);
                return Ok(pa);
            }
        }
        self.translate_miss(vm, id, vaddr, access)
    }

    /// Counts a TLB hit. Debug builds check it against the VM's own
    /// side-effect-free lookup.
    #[inline(always)]
    fn tlb_hit(&mut self, vm: &Vm, id: AsId, vaddr: u64, access: Access, pa: u64) {
        self.stats.tlb_hits += 1;
        debug_assert_eq!(
            vm.lookup(id, vaddr, access),
            Some(PAddr(pa)),
            "a TLB hit disagrees with Vm::lookup at {vaddr:#x} ({access:?})"
        );
    }

    /// Behind [`Cpu::translate_tlb`]: applies pending invalidations,
    /// retries the TLB, and otherwise walks the VM and fills the entry.
    #[inline(never)]
    fn translate_miss(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        vaddr: u64,
        access: Access,
    ) -> Result<u64, VmError> {
        self.sync_tlb(vm);
        if let Some(pa) = self.tlb_lookup(vaddr, access) {
            self.tlb_hit(vm, id, vaddr, access, pa);
            return Ok(pa);
        }
        self.stats.tlb_misses += 1;
        let pa = vm.translate(id, vaddr, access)?.0;
        if vaddr < USER_TOP {
            // The walk itself may have queued a shootdown (a COW copy of
            // this very page): apply it before the fill, or the fill would
            // be dropped, or worse, survive an invalidation it caused.
            self.sync_tlb(vm);
            let vpn = vaddr / FRAME_SIZE;
            let idx = self.tlb_index(access, vpn);
            self.tlb[idx] = TlbEntry {
                tag: self.cur_tag | vpn,
                base: pa - pa % FRAME_SIZE,
            };
        }
        Ok(pa)
    }

    /// Translates `vaddr` of space `id` for a kernel copy: through the TLB
    /// when `id` is the current space of the stepper, otherwise (another
    /// space, or the reference interpreter) by [`Vm::translate`] alone. A
    /// hit is exactly what [`Vm::translate`] would return without side
    /// effects, and a miss runs it, so faults, swap-ins and COW copies
    /// happen in the same order either way.
    ///
    /// # Errors
    ///
    /// Whatever [`Vm::translate`] reports.
    pub fn translate_user(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        vaddr: u64,
        access: Access,
    ) -> Result<PAddr, VmError> {
        if !self.fast_path || self.cur_as != Some(id) {
            return vm.translate(id, vaddr, access);
        }
        self.translate_tlb(vm, id, vaddr, access).map(PAddr)
    }

    /// Charges one physical memory access to the cache model, at its
    /// exact program point.
    #[inline]
    pub(crate) fn mem_access(&mut self, pa: u64, kind: AccessKind) {
        self.stats.cycles += self.caches.access(pa, kind);
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    /// Scans the space's region list for the region containing `pc`.
    fn find_region(&self, id: AsId, pc: u64) -> Option<Arc<DecodedRegion>> {
        self.code
            .get(code_slot(id))?
            .regions
            .iter()
            .find(|r| r.contains(pc))
            .map(Arc::clone)
    }

    /// Fetches the instruction at `rf.pc`: from the fetch window when the
    /// pc lies in it and no invalidation arrived since it was recorded
    /// (every other change that ends the window drops it), otherwise by
    /// [`Cpu::fetch_slow`]. A window fetch counts the TLB and
    /// resident-region hits the slow path would have counted, and charges
    /// the cache model as it would: a counted front hit on the window's
    /// line, a real access on another.
    #[inline(always)]
    fn fetch(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        rf: &RegFile,
    ) -> Result<(DecodedInstr, u64), TrapInfo> {
        let pc = rf.pc;
        if pc.wrapping_sub(self.win.lo) < self.win.len
            && vm.invalidations() == self.seen_invalidations
        {
            if let Some(r) = &self.cur_code {
                debug_assert!(
                    r.contains(pc) && rf.pcc.check_access(pc, 4, Perms::EXECUTE).is_ok(),
                    "a fetch-window hit at {pc:#x} outside the region or PCC"
                );
                let fetched = (r.instr_at(r.index_of(pc)), r.start());
                let pa = pc.wrapping_add(self.win.delta);
                self.tlb_hit(vm, id, pc, Access::Exec, pa);
                if pa.wrapping_sub(self.win.line) < self.win.line_len {
                    self.caches.count_fetch_front_hit(pa);
                } else {
                    self.fetch_line(pa);
                }
                self.stats.sb_hits += 1;
                return Ok(fetched);
            }
        }
        self.fetch_slow(vm, id, rf)
    }

    /// Charges a fetch of `pa` to the cache model, and makes its L1I line
    /// the window's.
    #[inline(never)]
    fn fetch_line(&mut self, pa: u64) {
        self.mem_access(pa, AccessKind::Fetch);
        self.win.line = pa - pa % self.win.line_len;
    }

    /// The checked fetch: PCC, the TLB, the cache model and the resident
    /// region (or the region map). A fetch that succeeds records the fetch
    /// window around it.
    fn fetch_slow(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        rf: &RegFile,
    ) -> Result<(DecodedInstr, u64), TrapInfo> {
        let pc = rf.pc;
        rf.pcc
            .check_access(pc, 4, Perms::EXECUTE)
            .map_err(|f| TrapInfo {
                cause: TrapCause::Cap(f),
                pc,
                vaddr: Some(pc),
            })?;
        let pa = self.translate_cached(vm, id, pc, Access::Exec, pc)?;
        self.mem_access(pa, AccessKind::Fetch);
        // Straight-line execution stays inside one region: serve it from
        // the resident region without touching the region map.
        if self.cur_code.as_ref().is_some_and(|r| r.contains(pc)) {
            self.stats.sb_hits += 1;
        } else {
            self.stats.sb_misses += 1;
            let region = self.find_region(id, pc).ok_or(TrapInfo {
                cause: TrapCause::NoCode,
                pc,
                vaddr: Some(pc),
            })?;
            self.cur_code = Some(region);
        }
        let r = self.cur_code.as_ref().expect("resident region");
        let fetched = (r.instr_at(r.index_of(pc)), r.start());
        // The window: the pcs of this fetch's page that also lie in the
        // region, and where a 4-byte fetch is inside PCC's bounds (its
        // tag, seal and EXECUTE just passed the check).
        let page_lo = pc - pc % FRAME_SIZE;
        let lo = page_lo.max(r.start()).max(rf.pcc.base());
        let pcc_hi = u64::try_from(rf.pcc.top() - 3).unwrap_or(u64::MAX);
        let hi = (page_lo + FRAME_SIZE).min(r.end()).min(pcc_hi);
        let line_len = self.caches.l1_config().line;
        self.win = FetchWindow {
            lo,
            len: hi - lo,
            delta: pa.wrapping_sub(pc),
            line: pa - pa % line_len,
            line_len,
        };
        Ok(fetched)
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs until a syscall, break, trap, or `max_instrs` retired
    /// instructions.
    ///
    /// With the fast path off this is the reference interpreter. Otherwise
    /// the stepper runs, and after every taken control transfer it looks
    /// the new pc up in the hot-pc table, where hot targets promote to
    /// trace templates. Templates are skipped while an armed lockstep
    /// oracle needs per-instruction boundaries, and in exact-event mode
    /// (fault plans, scenarios). Derivation tracing does not hold them: a
    /// template derives no capability.
    pub fn run(&mut self, vm: &mut Vm, id: AsId, rf: &mut RegFile, max_instrs: u64) -> Exit {
        self.set_context(id);
        if !self.fast_path {
            return self.run_reference(vm, id, rf, max_instrs);
        }
        // The kernel may have changed PCC since the last run.
        self.win = FetchWindow::EMPTY;
        self.sync_tlb(vm);
        let promote = self.templates && !self.exact_events && self.lockstep.is_none();
        let mut executed = 0u64;
        // Run entry counts as a control transfer: a guest resumed at a
        // loop head re-enters its template at once.
        let mut taken = promote;
        while executed < max_instrs {
            if taken {
                if let Some(left) =
                    self.enter_template(vm, id, rf, max_instrs - executed, &mut executed)
                {
                    // A failed guard leaves the stepper its instruction.
                    taken = left == Left::Transfer;
                    continue;
                }
            }
            let pc = rf.pc;
            match self.step(vm, id, rf) {
                Ok(None) => {
                    executed += 1;
                    taken = promote && rf.pc != pc.wrapping_add(4);
                }
                Ok(Some(exit)) => return exit,
                Err(trap) => return Exit::Trap(trap),
            }
        }
        Exit::InstrLimit
    }

    /// The reference interpreter's run loop: one instruction at a time,
    /// nothing cached. Fetch is checked against PCC, then translated by
    /// the full VM walk and charged exactly; the instruction is found by
    /// scanning the region map and executed by direct semantics dispatch
    /// ([`cheri_sem::ops::step_instr`]) — the TLB, the resident region,
    /// the flat op table and templates are all unused here, which is the
    /// point: any machinery bug shows up as a difference against this
    /// loop.
    fn run_reference(&mut self, vm: &mut Vm, id: AsId, rf: &mut RegFile, max_instrs: u64) -> Exit {
        let mut executed = 0u64;
        while executed < max_instrs {
            match self.step_reference(vm, id, rf) {
                Ok(None) => executed += 1,
                Ok(Some(exit)) => return exit,
                Err(trap) => return Exit::Trap(trap),
            }
        }
        Exit::InstrLimit
    }

    /// Executes a single instruction the reference way.
    fn step_reference(&mut self, vm: &mut Vm, id: AsId, rf: &mut RegFile) -> StepResult {
        let pc = rf.pc;
        rf.pcc
            .check_access(pc, 4, Perms::EXECUTE)
            .map_err(|f| TrapInfo {
                cause: TrapCause::Cap(f),
                pc,
                vaddr: Some(pc),
            })?;
        let pa = vm.translate(id, pc, Access::Exec).map_err(|e| TrapInfo {
            cause: TrapCause::Vm(e),
            pc,
            vaddr: Some(pc),
        })?;
        self.mem_access(pa.0, AccessKind::Fetch);
        let region = self.find_region(id, pc).ok_or(TrapInfo {
            cause: TrapCause::NoCode,
            pc,
            vaddr: Some(pc),
        })?;
        let di = region.instr_at(region.index_of(pc));
        let rstart = region.start();
        self.stats.instret += 1;
        self.stats.cycles += u64::from(di.base_cycles);
        let mut cx = StepCtx {
            rf: &mut *rf,
            pc,
            next: pc.wrapping_add(4),
            rstart,
        };
        let mut ports = RefPorts {
            cpu: self,
            vm: &mut *vm,
            id,
        };
        match cheri_sem::ops::step_instr(&mut ports, &mut cx, di.instr)? {
            Some(exit) => Ok(Some(sem_exit(exit))),
            None => {
                let next = cx.next;
                rf.pc = next;
                Ok(None)
            }
        }
    }

    /// Pre-instruction snapshot for the lockstep oracle: taken only while
    /// armed and still divergence-free (the first divergence freezes the
    /// oracle so its diagnostic names the earliest drift).
    #[inline]
    fn lockstep_pre(&self, rf: &RegFile) -> Option<RegFile> {
        match &self.lockstep {
            Some(l) if l.divergence.is_none() => Some(rf.clone()),
            _ => None,
        }
    }

    /// Post-instruction lockstep check: decides whether this step is due
    /// (cadence countdown, or any trap/exit boundary) and if so shadows it
    /// and records the first divergence.
    fn lockstep_check(
        &mut self,
        vm: &Vm,
        id: AsId,
        pre: &RegFile,
        cx: &StepCtx<'_>,
        instr: Instr,
        res: &Result<Option<SemExit>, TrapInfo>,
    ) {
        let Some(mut ls) = self.lockstep.take() else {
            return;
        };
        if ls.divergence.is_none() {
            ls.countdown = ls.countdown.saturating_sub(1);
            let boundary = !matches!(res, Ok(None));
            if boundary || ls.countdown == 0 {
                ls.countdown = ls.every;
                if let Some(detail) = oracle::check_step(
                    vm,
                    id,
                    pre,
                    cx.rf,
                    cx.next,
                    cx.pc,
                    cx.rstart,
                    instr,
                    res,
                    ls.verify_stores,
                ) {
                    ls.divergence = Some(Divergence {
                        pc: cx.pc,
                        instret: self.stats.instret,
                        detail,
                    });
                }
            }
        }
        self.lockstep = Some(ls);
    }

    /// Looks `rf.pc` up in the hot-pc table after a control transfer: a
    /// guard hit counts toward promotion, the [`template::PROMOTE_THRESHOLD`]th
    /// compiles a template from the resident region and the TLB
    /// translation, and a compiled template runs when at least one full
    /// pass fits the remaining `budget`. Returns how the template left, or
    /// `None` if none ran.
    fn enter_template(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        rf: &mut RegFile,
        budget: u64,
        executed: &mut u64,
    ) -> Option<Left> {
        let pc = rf.pc;
        // A hot-pc entry of a space with a pending shootdown is stale.
        self.sync_tlb(vm);
        let epoch = vm.epoch();
        let slot = (pc >> 2) as usize & (HOT_SLOTS - 1);
        // Guard misses, cold counts and rejected targets settle in place:
        // they are most of the lookups, and an entry is over 100 bytes.
        match &mut self.hot[slot] {
            Some(e) if e.pc == pc && e.space == id && e.epoch == epoch && e.pcc == rf.pcc => {
                match &mut e.tmpl {
                    TmplState::Cold(hits) => {
                        *hits = hits.saturating_add(1);
                        if *hits < template::PROMOTE_THRESHOLD {
                            return None;
                        }
                    }
                    TmplState::Rejected => return None,
                    TmplState::Hot(_) => {}
                }
            }
            other => {
                self.hot_used = true;
                *other = Some(HotEntry {
                    pc,
                    space: id,
                    epoch,
                    pcc: rf.pcc,
                    tmpl: TmplState::default(),
                });
                return None;
            }
        }
        // Promotion or execution: the entry moves out of its slot for the
        // duration (no refcount traffic) and back at the end.
        let mut e = self.hot[slot].take()?;
        if let TmplState::Cold(_) = e.tmpl {
            if let Some(state) = self.compile_at(rf) {
                e.tmpl = state;
            }
        }
        let left = match &e.tmpl {
            // Below one full pass of budget the template cannot stop at
            // the exact instruction stepping would, so step instead. The
            // guards' TLB probes need an up-to-date TLB: the sync at the
            // top made it so, and nothing in a trace invalidates.
            TmplState::Hot(t) if budget >= u64::from(t.n_trace) => {
                self.stats.tmpl_hits += 1;
                // The trace's fetches move the L1I fronts.
                self.win = FetchWindow::EMPTY;
                let phys = &mut vm.phys;
                Some(self.run_template(t, phys, rf, budget, executed))
            }
            _ => None,
        };
        self.hot[slot] = Some(e);
        left
    }

    /// Compiles the trace at `rf.pc`, entered under `rf.pcc`, from the
    /// up-to-date TLB. `None` means "not yet": the pc's translation is not in
    /// the TLB or its region is not resident (both take no VM call to
    /// check, so promotion never perturbs the VM); the next guard hit
    /// retries.
    fn compile_at(&mut self, rf: &RegFile) -> Option<TmplState> {
        let pc = rf.pc;
        if rf.pcc.check_access(pc, 4, Perms::EXECUTE).is_err() {
            return Some(TmplState::Rejected);
        }
        let pa = self.tlb_lookup(pc, Access::Exec)?;
        let region = self.cur_code.as_ref().filter(|r| r.contains(pc))?;
        let pcc_base = rf.pcc.base();
        let pcc_top = pcc_base.saturating_add(rf.pcc.length());
        Some(
            match template::compile(region, pc, pa, pcc_base, pcc_top, self.caches.l1_config()) {
                Some(t) => {
                    self.stats.tmpl_compiles += 1;
                    TmplState::Hot(Box::new(t))
                }
                None => TmplState::Rejected,
            },
        )
    }

    /// Charges a line-coalesced fetch run: `count` same-line fetches cost
    /// one real access plus `count - 1` L1I hits, see
    /// [`CacheHierarchy::access_run`]. Kept out of line: inlined, the
    /// cache model costs `run_template`'s trace loop its registers and
    /// measurably slows spin-style loops.
    #[inline(never)]
    fn fetch_run(&mut self, pa: u64, count: u64) {
        self.stats.cycles += self.caches.access_run(pa, AccessKind::Fetch, count);
    }

    /// Charges, in order, the head fetches of line runs `heads.charged..to`
    /// of the current pass of `t` (see [`HeadFetches`]).
    #[inline(never)]
    fn fetch_heads(&mut self, t: &Template, heads: &mut HeadFetches, to: usize) {
        while heads.charged < to {
            let (pa, _) = t.fetch_runs[heads.charged];
            self.stats.cycles += self.caches.access_run(pa, AccessKind::Fetch, 1);
            heads.charged += 1;
            heads.real += 1;
        }
    }

    /// Executes a compiled trace template: loads the read∪write register
    /// set into locals, runs the straight-line plan (looping internally
    /// on a backedge terminator) until a side exit, a failed guard, the
    /// terminator's departure, or budget exhaustion, then flushes the
    /// write set and accounts retired instructions, base cycles and
    /// line-coalesced fetches exactly as stepping would have.
    ///
    /// The caller guarantees `budget >= n_trace` (so at least one full
    /// pass fits) and that the entry guard (pc/space/epoch/PCC) holds. No
    /// op changes the PCC, the mappings or the epoch, so that guard stays
    /// valid for the whole execution. Each data access checks its own
    /// guards before any side effect ([`Cpu::tmpl_access`]); a failed one
    /// leaves the template just before its instruction, with exactly the
    /// prefix retired and charged and [`Left::Guard`] returned, so the
    /// stepper executes that instruction next.
    fn run_template(
        &mut self,
        t: &Template,
        phys: &mut PhysMem,
        rf: &mut RegFile,
        budget: u64,
        executed: &mut u64,
    ) -> Left {
        let n_trace = u64::from(t.n_trace);
        let mut l = Slots::new();
        for &(reg, local) in &t.init {
            l[local] = rf.gpr[usize::from(reg) % 32];
        }
        // The budget left for passes after the current one.
        let mut rest = budget - n_trace;
        let mut full = 0u64;
        // Head fetches are charged as the trace goes (see `HeadFetches`).
        let mut heads = HeadFetches::default();
        // The line runs whose heads count as charged when a pass after the
        // first begins: all of a settled trace's (see `Template::settled`).
        let charged_on_reentry = if t.settled { t.fetch_runs.len() } else { 0 };
        // Instructions retired by the final, partial pass (a side exit or
        // a failed guard).
        let mut partial: Option<usize> = None;
        let mut left = Left::Transfer;
        let next;
        'run: loop {
            for (k, &op) in t.ops.iter().enumerate() {
                match self.exec_op(op, t, k, &mut heads, &mut l, rf, phys) {
                    Flow::Next => {}
                    Flow::Taken(to) => {
                        partial = Some(k + 1);
                        next = to;
                        break 'run;
                    }
                    Flow::Guard => {
                        partial = Some(k);
                        left = Left::Guard;
                        next = t.pcs[k];
                        break 'run;
                    }
                }
            }
            full += 1;
            if heads.charged < t.fetch_runs.len() {
                self.fetch_heads(t, &mut heads, t.fetch_runs.len());
            }
            heads.charged = charged_on_reentry;
            // A settled pass skips its head fetches: each must be a hit on
            // the most recent line of its L1I set. Nothing touches the L1I
            // until the next real fetch, so checking them all here checks
            // every one the next pass skips.
            debug_assert!(
                t.fetch_runs[..charged_on_reentry]
                    .iter()
                    .all(|&(pa, _)| self.caches.l1i_front_hit(pa)),
                "a skipped head fetch would not be an L1I front hit"
            );
            match t.term {
                TTerm::Loop => {
                    if rest < n_trace {
                        next = t.entry_pc;
                        break 'run;
                    }
                    rest -= n_trace;
                }
                TTerm::CondLoop { cond, a, b } => {
                    if !cond.taken(l[a], l[b]) {
                        next = t.fall_pc;
                        break 'run;
                    }
                    if rest < n_trace {
                        next = t.entry_pc;
                        break 'run;
                    }
                    rest -= n_trace;
                }
                TTerm::Jump(target) => {
                    next = target;
                    break 'run;
                }
                TTerm::Jr { s } => {
                    next = l[s];
                    break 'run;
                }
                TTerm::Jalr { d, s } => {
                    // Handler order: link write first, so `d == s` jumps
                    // to the link address.
                    l[d] = t.fall_pc;
                    next = l[s];
                    break 'run;
                }
                TTerm::Fallthrough => {
                    next = t.fall_pc;
                    break 'run;
                }
            }
        }
        // Metric settlement: the heads the partial pass fetched, then
        // every other fetch as a hit on the line fetched last, still the
        // L1I's most recent.
        let last = match partial {
            Some(r) if r > 0 => Some(r - 1),
            _ if full > 0 => Some(t.n_trace as usize - 1),
            _ => None,
        };
        if let Some(last) = last {
            let run = usize::from(t.run_of[last]);
            if partial.is_some_and(|r| r > 0) {
                self.fetch_heads(t, &mut heads, run + 1);
            }
            let fetched = full * n_trace + partial.unwrap_or(0) as u64;
            self.fetch_run(t.fetch_runs[run].0, fetched - heads.real);
        }
        let mut retired = full * n_trace;
        let mut cycles = full * t.cycles_total;
        if let Some(r) = partial {
            retired += r as u64;
            cycles += u64::from(t.cum_cycles[r]);
        }
        self.stats.instret += retired;
        self.stats.cycles += cycles;
        self.stats.tmpl_instrs += retired;
        *executed += retired;
        if self.weaken_flush && !self.flush_weakened {
            // --weaken-flush: drop the first execution's write set on
            // the floor (one-shot so the guest still terminates).
            self.flush_weakened = true;
        } else {
            for &(local, reg) in &t.flush {
                rf.gpr[usize::from(reg) % 32] = l[local];
            }
        }
        rf.pc = next;
        left
    }

    /// Runs one in-trace data access, instruction `k` of the current pass
    /// of `t`. Every guard comes first, with no side effect: the
    /// capability checks the handler applies, alignment (so the access
    /// stays on one page, and an unaligned legacy access is left to the
    /// stepper's fix-up), and a TLB hit for the access kind. Returns
    /// false, having done nothing, when one fails. Otherwise it charges
    /// the head fetches through instruction `k`'s line (a data access
    /// follows its own fetch into the shared L2), then the access itself,
    /// and moves the data through the same `PhysMem` entry points as
    /// [`CpuPorts`]. Inlined into the data-path loop of `run_template`:
    /// a call per access measurably slows qsort-style loops.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn tmpl_access(
        &mut self,
        m: MemOp,
        t: &Template,
        k: usize,
        heads: &mut HeadFetches,
        l: &mut Slots,
        rf: &mut RegFile,
        phys: &mut PhysMem,
    ) -> bool {
        // Integer data accesses: (authorizing capability, vaddr, width,
        // direction).
        let (cap, vaddr, w, data) = match m {
            MemOp::Load {
                d,
                base,
                off,
                w,
                signed,
            } => (
                &rf.ddc,
                l[base].wrapping_add(off as u64),
                w,
                Data::Load { d, signed },
            ),
            MemOp::Store { s, base, off, w } => (
                &rf.ddc,
                l[base].wrapping_add(off as u64),
                w,
                Data::Store(l[s]),
            ),
            MemOp::CLoad {
                d,
                cb,
                off,
                w,
                signed,
            } => {
                let cap = rf.cap(cb);
                let vaddr = cap.addr().wrapping_add(off as u64);
                (cap, vaddr, w, Data::Load { d, signed })
            }
            MemOp::CStore { s, cb, off, w } => {
                let cap = rf.cap(cb);
                let vaddr = cap.addr().wrapping_add(off as u64);
                (cap, vaddr, w, Data::Store(l[s]))
            }
            MemOp::Clc { cd, cb, off } => {
                let cap = rf.cap(cb);
                let vaddr = cap.addr().wrapping_add(off as u64);
                let Some(pa) = cheri_sem::check_cap_access(cap, vaddr, Perms::LOAD)
                    .ok()
                    .and_then(|()| self.tlb_lookup(vaddr, Access::Read))
                else {
                    return false;
                };
                self.tmpl_data(t, k, heads, pa, AccessKind::Load);
                phys.note_cap_load(PAddr(pa));
                let value = match phys.cap_at(PAddr(pa)).expect("translated frame") {
                    Some(c) => cheri_sem::loaded_cap(cap, *c),
                    None => {
                        // As the handler: an untagged granule reads its
                        // first doubleword as a second data access.
                        self.stats.tlb_hits += 1;
                        self.mem_access(pa, AccessKind::Load);
                        let raw = phys.read_word(PAddr(pa), 8).expect("translated frame");
                        Capability::null(cap.format()).with_addr(raw)
                    }
                };
                rf.wc(cd, value);
                return true;
            }
            MemOp::Csc { cs, cb, off } => {
                let cap = rf.cap(cb);
                let value = rf.cap(cs);
                let vaddr = cap.addr().wrapping_add(off as u64);
                let Some(pa) = cheri_sem::check_cap_access(cap, vaddr, Perms::STORE)
                    .and_then(|()| cheri_sem::check_cap_store(cap, value))
                    .ok()
                    .and_then(|()| self.tlb_lookup(vaddr, Access::Write))
                else {
                    return false;
                };
                self.tmpl_data(t, k, heads, pa, AccessKind::Store);
                phys.store_cap(PAddr(pa), *value).expect("translated frame");
                return true;
            }
        };
        let size = w.bytes();
        let (need, access, kind) = match data {
            Data::Load { .. } => (Perms::LOAD, Access::Read, AccessKind::Load),
            Data::Store(_) => (Perms::STORE, Access::Write, AccessKind::Store),
        };
        // For a legacy access `cap` is DDC: its tag check is the DDC guard.
        // The alignment guard keeps the access on one page and lets the
        // data move as one fixed-width word.
        let Some(pa) = cheri_sem::check_data(cap, vaddr, size, need, true)
            .ok()
            .and_then(|()| self.tlb_lookup(vaddr, access))
        else {
            return false;
        };
        self.tmpl_data(t, k, heads, pa, kind);
        match data {
            Data::Load { d, signed } => {
                let raw = phys.read_word(PAddr(pa), size).expect("translated frame");
                l[d] = cheri_sem::extend(raw, w, signed);
            }
            // Clears the tag and counts the mutation, as in `CpuPorts`.
            Data::Store(v) => phys
                .write_word(PAddr(pa), size, v)
                .expect("translated frame"),
        }
        true
    }

    /// Charges an in-trace data access at `pa` once its guards passed:
    /// first the head fetches of the current pass through instruction
    /// `k`'s line, then the access, as stepping orders them.
    #[inline]
    fn tmpl_data(
        &mut self,
        t: &Template,
        k: usize,
        heads: &mut HeadFetches,
        pa: u64,
        kind: AccessKind,
    ) {
        let run = usize::from(t.run_of[k]);
        if heads.charged <= run {
            self.fetch_heads(t, heads, run + 1);
        }
        self.stats.tlb_hits += 1;
        self.mem_access(pa, kind);
    }

    /// Executes a single instruction.
    fn step(&mut self, vm: &mut Vm, id: AsId, rf: &mut RegFile) -> StepResult {
        let pc = rf.pc;
        let (di, rstart) = self.fetch(vm, id, rf)?;
        if di.pcc {
            // A capability jump may narrow PCC under the window.
            self.win = FetchWindow::EMPTY;
        }
        self.stats.instret += 1;
        self.stats.cycles += u64::from(di.base_cycles);
        let pre = self.lockstep_pre(rf);
        let mut cx = StepCtx {
            rf: &mut *rf,
            pc,
            next: pc.wrapping_add(4),
            rstart,
        };
        let res = {
            let mut ports = CpuPorts {
                cpu: self,
                vm: &mut *vm,
                id,
            };
            ops::OP_TABLE[usize::from(di.op)](&mut ports, &mut cx, di.instr)
        };
        if let Some(pre) = &pre {
            self.lockstep_check(vm, id, pre, &cx, di.instr, &res);
        }
        match res? {
            Some(exit) => Ok(Some(sem_exit(exit))),
            None => {
                let next = cx.next;
                rf.pc = next;
                Ok(None)
            }
        }
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::{CapFormat, CapSource, PrincipalId};
    use cheri_isa::{creg, ireg, Width};
    use cheri_mem::PhysFaultSpec;
    use cheri_vm::{Backing, Prot};

    /// Builds a machine with one space, maps `code` at 0x10000 (rx) and
    /// three rw data pages at 0x20000, returns (cpu, vm, as, regfile).
    fn machine(code: Vec<Instr>, purecap: bool) -> (Cpu, Vm, AsId, RegFile) {
        let mut vm = Vm::new(128);
        let mut cpu = Cpu::new();
        let id = add_space(&mut vm, &mut cpu, code);
        let rf = entry_regs(&vm, id, purecap);
        (cpu, vm, id, rf)
    }

    /// Creates a space in `vm` with `code` at 0x10000 (rx, registered with
    /// `cpu`) and three rw data pages at 0x20000. Every space gets the same
    /// principal, so equal register files enter them under an equal PCC.
    fn add_space(vm: &mut Vm, cpu: &mut Cpu, code: Vec<Instr>) -> AsId {
        let id = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
        let text_bytes: Vec<u8> = (0..code.len() as u32).flat_map(u32::to_le_bytes).collect();
        vm.map(
            id,
            Some(0x10000),
            (code.len() as u64 * 4).max(4096),
            Prot::rx(),
            Backing::Image {
                data: std::sync::Arc::new(text_bytes),
                offset: 0,
            },
            "text",
        )
        .unwrap();
        // Three pages, so a legacy access can straddle into a page that
        // has not been faulted in; `c13` below covers only the first.
        vm.map(
            id,
            Some(0x20000),
            3 * 4096,
            Prot::rw(),
            Backing::Zero,
            "data",
        )
        .unwrap();
        cpu.register_code(id, 0x10000, std::sync::Arc::new(code));
        id
    }

    /// Registers entering space `id` at 0x10000: legacy (DDC = the
    /// space's root) or CheriABI (DDC NULL), with a data capability in
    /// `c13` covering the first rw page either way.
    fn entry_regs(vm: &Vm, id: AsId, purecap: bool) -> RegFile {
        let mut rf = RegFile::new(CapFormat::C128);
        let root = vm.space(id).root;
        rf.pcc = root
            .with_addr(0x10000)
            .set_bounds(0x1000, false)
            .unwrap()
            .and_perms(Perms::user_code());
        rf.pc = 0x10000;
        if purecap {
            // DDC NULL: CheriABI.
            rf.ddc = Capability::null(CapFormat::C128);
        } else {
            rf.ddc = root.with_source(CapSource::Exec);
        }
        // A data capability in c13 covering the rw page.
        rf.wc(
            creg::ptr(0),
            root.with_addr(0x20000).set_bounds(4096, true).unwrap(),
        );
        rf
    }

    #[test]
    fn alu_and_syscall() {
        let code = vec![
            Instr::Li {
                rd: ireg::A0,
                imm: 20,
            },
            Instr::AddI {
                rd: ireg::A0,
                rs: ireg::A0,
                imm: 22,
            },
            Instr::Syscall,
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::A0), 42);
        assert_eq!(cpu.stats.instret, 3);
        assert_eq!(rf.pc, 0x10000 + 3 * 4);
    }

    #[test]
    fn legacy_load_store_via_ddc() {
        let code = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0x20010,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: 77,
            },
            Instr::Store {
                rs: ireg::T1,
                base: ireg::T0,
                off: 0,
                w: Width::D,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Syscall,
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 77);
    }

    #[test]
    fn legacy_access_traps_with_null_ddc() {
        let code = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0x20010,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => assert_eq!(t.cause, TrapCause::Cap(CapFault::DdcNull)),
            e => panic!("expected DDC trap, got {e:?}"),
        }
    }

    #[test]
    fn capability_bounds_enforced_on_loads() {
        let code = vec![
            // In-bounds store/load via c13.
            Instr::Li {
                rd: ireg::T1,
                imm: 5,
            },
            Instr::CStore {
                rs: ireg::T1,
                cb: creg::ptr(0),
                off: 8,
                w: Width::D,
            },
            Instr::CLoad {
                rd: ireg::T2,
                cb: creg::ptr(0),
                off: 8,
                w: Width::D,
                signed: false,
            },
            // One byte past the 4096-byte bounds.
            Instr::CLoad {
                rd: ireg::T3,
                cb: creg::ptr(0),
                off: 4096,
                w: Width::B,
                signed: false,
            },
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => {
                assert_eq!(t.cause, TrapCause::Cap(CapFault::LengthViolation));
                assert_eq!(t.vaddr, Some(0x21000));
            }
            e => panic!("expected length trap, got {e:?}"),
        }
        assert_eq!(rf.r(ireg::T2), 5);
    }

    #[test]
    fn cap_roundtrip_through_memory_keeps_tag() {
        let code = vec![
            Instr::Csc {
                cs: creg::ptr(0),
                cb: creg::ptr(0),
                off: 16,
            },
            Instr::Clc {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                off: 16,
            },
            Instr::CGetTag {
                rd: ireg::T0,
                cb: creg::ptr(1),
            },
            // Overwrite one byte of the stored capability, reload: tag gone.
            Instr::Li {
                rd: ireg::T1,
                imm: 0xab,
            },
            Instr::CStore {
                rs: ireg::T1,
                cb: creg::ptr(0),
                off: 18,
                w: Width::B,
            },
            Instr::Clc {
                cd: creg::ptr(2),
                cb: creg::ptr(0),
                off: 16,
            },
            Instr::CGetTag {
                rd: ireg::T2,
                cb: creg::ptr(2),
            },
            Instr::Syscall,
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T0), 1, "capability loaded back with tag");
        assert_eq!(rf.r(ireg::T2), 0, "data overwrite cleared the tag");
    }

    #[test]
    fn derived_capability_cannot_widen() {
        let code = vec![
            // Narrow c13 to 16 bytes at 0x20000 then try to re-widen.
            Instr::Li {
                rd: ireg::T0,
                imm: 16,
            },
            Instr::CSetBounds {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                rs: ireg::T0,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: 64,
            },
            Instr::CSetBounds {
                cd: creg::ptr(2),
                cb: creg::ptr(1),
                rs: ireg::T1,
            },
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => assert_eq!(t.cause, TrapCause::Cap(CapFault::LengthViolation)),
            e => panic!("expected monotonicity trap, got {e:?}"),
        }
    }

    #[test]
    fn unaligned_capability_access_traps() {
        let code = vec![Instr::Clc {
            cd: creg::ptr(1),
            cb: creg::ptr(0),
            off: 8,
        }];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => assert_eq!(t.cause, TrapCause::Cap(CapFault::UnalignedCapAccess)),
            e => panic!("expected alignment trap, got {e:?}"),
        }
    }

    #[test]
    fn jal_and_cjr_roundtrip() {
        // 0: jal 3 ; 1: syscall ; 2: nop ; 3: cjr cra
        let code = vec![
            Instr::Jal { target: 3 },
            Instr::Syscall,
            Instr::Nop,
            Instr::CJr { cb: creg::CRA },
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(cpu.stats.instret, 3, "jal, cjr, syscall");
    }

    #[test]
    fn fetch_outside_pcc_traps() {
        let code = vec![Instr::Jr { rs: ireg::T0 }];
        let (mut cpu, mut vm, id, mut rf) = machine(code, false);
        rf.w(ireg::T0, 0x30000); // outside pcc bounds
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => assert_eq!(t.cause, TrapCause::Cap(CapFault::LengthViolation)),
            e => panic!("expected pcc trap, got {e:?}"),
        }
    }

    #[test]
    fn break_exits() {
        let code = vec![Instr::Break];
        let (mut cpu, mut vm, id, mut rf) = machine(code, false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Break);
    }

    #[test]
    fn instr_limit_respected() {
        let code = vec![Instr::J { target: 0 }];
        let (mut cpu, mut vm, id, mut rf) = machine(code, false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 10), Exit::InstrLimit);
        assert_eq!(cpu.stats.instret, 10);
    }

    #[test]
    fn trace_records_setbounds() {
        let code = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 32,
            },
            Instr::CSetBounds {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                rs: ireg::T0,
            },
            Instr::Syscall,
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        cpu.trace.enabled = true;
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(cpu.trace.len(), 1);
        assert_eq!(cpu.trace.events()[0].1, 32);
    }

    #[test]
    fn cycles_exceed_instret_with_cold_caches() {
        let code = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0x20000,
            },
            Instr::Load {
                rd: ireg::T1,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Syscall,
        ];
        let (mut cpu, mut vm, id, mut rf) = machine(code.clone(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert!(cpu.stats.cycles > cpu.stats.instret);

        // Pin the contract, not the call sites: total cycles must equal
        // the instructions' base cost plus *exactly* the stall cycles an
        // in-order replay of the access stream produces.
        let text_pa = vm.translate(id, 0x10000, Access::Exec).unwrap().0;
        let data_pa = vm.translate(id, 0x20000, Access::Read).unwrap().0;
        let mut reference = CacheHierarchy::fpga_default();
        let stalls: u64 = [
            (text_pa, AccessKind::Fetch),     // li
            (text_pa + 4, AccessKind::Fetch), // load
            (data_pa, AccessKind::Load),
            (text_pa + 8, AccessKind::Fetch), // syscall
        ]
        .into_iter()
        .map(|(pa, kind)| reference.access(pa, kind))
        .sum();
        let base: u64 = code.iter().map(Instr::base_cycles).sum();
        assert_eq!(cpu.stats.cycles, base + stalls);
        assert_eq!(cpu.caches.stats(), reference.stats());
    }

    /// The core's three machines: the reference interpreter, plain
    /// stepping (`--exec-mode superblock`) and stepping with template
    /// promotion (the default), as (name, fast path, templates).
    const MODES: [(&str, bool, bool); 3] = [
        ("reference", false, false),
        ("step", true, false),
        ("step+templates", true, true),
    ];

    #[test]
    fn mode_matrix_agrees_on_every_probe() {
        let ddc_probe = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0x20010,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
        ];
        // (probe, code, purecap, runs, traps): each run resumes where the
        // last one stopped and must exit through a syscall, or through a
        // trap for the trap probes. Every exit, every guest-visible
        // counter and the final register file must agree across the
        // three machines.
        let probes = [
            (
                "store-sync-store-load",
                store_sync_store_load(),
                false,
                2,
                false,
            ),
            (
                "branchy-memory-loop",
                branchy_memory_loop(),
                false,
                1,
                false,
            ),
            ("spin", spin_loop(400), false, 1, false),
            ("widen-trap", widen_probe(), true, 1, true),
            ("null-ddc-trap", ddc_probe, true, 1, true),
            ("page-straddle", page_straddle_probe(), false, 1, false),
            (
                "cload-cincoffset-cstore-loop",
                pointer_walk_loop(),
                true,
                1,
                false,
            ),
        ];
        for (probe, code, purecap, runs, traps) in probes {
            let mut results = Vec::new();
            for (mode, fast, templates) in MODES {
                let (mut cpu, mut vm, id, mut rf) = machine(code.clone(), purecap);
                cpu.set_fast_path(fast);
                cpu.set_templates(templates);
                let exits: Vec<Exit> = (0..runs)
                    .map(|_| cpu.run(&mut vm, id, &mut rf, 100_000))
                    .collect();
                for exit in &exits {
                    let expected = if traps {
                        matches!(exit, Exit::Trap(_))
                    } else {
                        *exit == Exit::Syscall
                    };
                    assert!(expected, "{probe} under {mode}: unexpected exit {exit:?}");
                }
                if !templates {
                    assert_eq!(cpu.stats.tmpl_compiles, 0, "{probe} under {mode}");
                    assert_eq!(cpu.stats.tmpl_hits, 0, "{probe} under {mode}");
                    assert_eq!(cpu.stats.tmpl_instrs, 0, "{probe} under {mode}");
                }
                if probe == "cload-cincoffset-cstore-loop" && templates {
                    // The loop body is all data accesses and capability
                    // arithmetic: it must compile and retire in-trace.
                    assert!(cpu.stats.tmpl_compiles >= 1, "the loop must compile");
                    assert!(
                        cpu.stats.tmpl_instrs * 10 >= cpu.stats.instret * 9,
                        "templates retired only {} of {} instructions",
                        cpu.stats.tmpl_instrs,
                        cpu.stats.instret
                    );
                }
                if probe == "spin" {
                    assert_eq!(rf.r(ireg::T0), 400);
                    if templates {
                        // The loop head `top` is reached only through the
                        // taken `j top`: that is where promotion happens.
                        let top = 0x10000 + 4;
                        assert!(
                            cpu.hot
                                .iter()
                                .flatten()
                                .any(|e| e.pc == top && matches!(e.tmpl, TmplState::Hot(_))),
                            "spin must compile a template at its loop head"
                        );
                        assert!(cpu.stats.tmpl_hits >= 1, "the template must run");
                    }
                }
                if probe == "page-straddle" {
                    assert_eq!(rf.r(ireg::T2), 0, "{mode}: fresh pages read zero");
                    assert_eq!(rf.r(ireg::T3), STRADDLE_VALUE as u64, "{mode}");
                    assert_eq!(rf.r(ireg::temp(4)), 0, "{mode}: tag cleared");
                    // The text page plus all three data pages: each
                    // straddle demand-faults the page it crosses into.
                    assert_eq!(vm.stats.faults, 4, "{mode}");
                }
                results.push((exits, cpu.stats, cpu.caches.stats(), vm.stats, rf.clone()));
            }
            for (r, (mode, ..)) in results.iter().zip(MODES).skip(1) {
                assert_eq!(*r, results[0], "{probe}: {mode} vs reference");
            }
        }
    }

    #[test]
    fn cap_fault_plane_counts_agree_across_modes() {
        // Store a capability, make one more mutating access so the armed
        // flip is due, then `clc` the granule: the flip fires on that
        // load. Stepper and reference must leave the same counters, and
        // the weakened tag clear must still surface as a counted escape.
        let code = vec![
            Instr::Csc {
                cs: creg::ptr(0),
                cb: creg::ptr(0),
                off: 32,
            },
            Instr::Li {
                rd: ireg::T0,
                imm: 7,
            },
            Instr::CStore {
                rs: ireg::T0,
                cb: creg::ptr(0),
                off: 512,
                w: Width::D,
            },
            Instr::Clc {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                off: 32,
            },
            Instr::CGetTag {
                rd: ireg::T1,
                cb: creg::ptr(1),
            },
            Instr::Syscall,
        ];
        for preserve_tag in [false, true] {
            let mut results = Vec::new();
            for (mode, fast, templates) in MODES {
                let (mut cpu, mut vm, id, mut rf) = machine(code.clone(), true);
                cpu.set_fast_path(fast);
                cpu.set_templates(templates);
                vm.phys.arm_faults(PhysFaultSpec {
                    after_mutations: 2,
                    bit: 9,
                    target_cap: true,
                    preserve_tag,
                });
                assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall, "{mode}");
                let f = vm.phys.faults();
                let counts = (
                    f.flips,
                    f.tags_cleared,
                    f.tags_preserved,
                    f.corrupt_cap_loads,
                );
                let expected = if preserve_tag {
                    (1, 0, 1, 1)
                } else {
                    (1, 1, 0, 0)
                };
                assert_eq!(counts, expected, "{mode}, preserve_tag={preserve_tag}");
                assert_eq!(rf.r(ireg::T1), u64::from(preserve_tag), "{mode}");
                results.push((counts, cpu.stats, cpu.caches.stats(), rf.clone()));
            }
            for (r, (mode, ..)) in results.iter().zip(MODES).skip(1) {
                assert_eq!(*r, results[0], "{mode} vs reference");
            }
        }
    }

    #[test]
    fn derivation_tracing_keeps_templates() {
        // A template derives no capability, so tracing has nothing to
        // miss inside one and must not hold the core on plain stepping.
        let (mut cpu, mut vm, id, mut rf) = machine(spin_loop(400), false);
        cpu.trace.enabled = true;
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100_000), Exit::Syscall);
        assert!(cpu.stats.tmpl_hits >= 1, "the spin loop must run templated");
    }

    // ------------------------------------------------------------------
    // The template tier
    // ------------------------------------------------------------------

    /// The spin inner loop shape (`spec.rs`): count `iters` iterations,
    /// then fall through to a syscall. The hot trace (li/sub/beqz/addi/j)
    /// exercises a mid-trace side exit and the internal backedge.
    fn spin_loop(iters: i64) -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0,
            },
            // top:
            Instr::Li {
                rd: ireg::T1,
                imm: iters,
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
            // done:
            Instr::Syscall,
        ]
    }

    #[test]
    fn template_budget_exhaustion_matches_stepping_exactly() {
        // An endless loop under assorted non-multiple budgets: the
        // template must stop at precisely the same instruction (and the
        // same pc) plain stepping would.
        let code = vec![
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            },
            Instr::J { target: 0 },
        ];
        for budget in [10u64, 201, 1000, 4097] {
            let mut results = Vec::new();
            for templates in [true, false] {
                let (mut cpu, mut vm, id, mut rf) = machine(code.clone(), false);
                cpu.set_templates(templates);
                assert_eq!(cpu.run(&mut vm, id, &mut rf, budget), Exit::InstrLimit);
                results.push((cpu.stats, cpu.caches.stats(), rf.pc, rf.r(ireg::T0)));
            }
            assert_eq!(results[0], results[1], "budget {budget}");
            assert_eq!(results[0].0.instret, budget);
        }
    }

    #[test]
    fn jalr_and_jr_templates_agree_with_single_step() {
        // A call loop whose callee returns through an integer register:
        // both the call block (jalr terminator) and the callee (jr
        // terminator) get hot enough to promote.
        let code = vec![
            Instr::Li {
                rd: ireg::temp(5),
                imm: 0x10000 + 7 * 4, // fn
            },
            Instr::Li {
                rd: ireg::T2,
                imm: 200,
            },
            // top:
            Instr::AddI {
                rd: ireg::T3,
                rs: ireg::T3,
                imm: 1,
            },
            Instr::AddI {
                rd: ireg::temp(4),
                rs: ireg::temp(4),
                imm: 1,
            },
            Instr::Jalr {
                rd: ireg::RA,
                rs: ireg::temp(5),
            },
            // return lands here:
            Instr::Bne {
                rs: ireg::T0,
                rt: ireg::T2,
                target: 2,
            },
            Instr::Syscall,
            // fn:
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            },
            Instr::AddI {
                rd: ireg::T1,
                rs: ireg::T1,
                imm: 2,
            },
            Instr::Jr { rs: ireg::RA },
        ];
        let mut results = Vec::new();
        for templates in [true, false] {
            let (mut cpu, mut vm, id, mut rf) = machine(code.clone(), false);
            cpu.set_templates(templates);
            assert_eq!(cpu.run(&mut vm, id, &mut rf, 100_000), Exit::Syscall);
            if templates {
                assert!(
                    cpu.stats.tmpl_compiles >= 2,
                    "call block and callee both promote, got {}",
                    cpu.stats.tmpl_compiles
                );
            }
            results.push((cpu.stats, cpu.caches.stats(), rf.clone()));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].2.r(ireg::T0), 200);
        assert_eq!(results[0].2.r(ireg::T1), 400);
    }

    /// An endless ALU loop behind a one-shot store — rerunning it from
    /// the region start re-touches the data page, so fork/COW and swap
    /// machinery have something to chew on between runs.
    fn store_then_spin() -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T1,
                imm: 0x20010,
            },
            Instr::Li {
                rd: ireg::T2,
                imm: 7,
            },
            Instr::Store {
                rs: ireg::T2,
                base: ireg::T1,
                off: 0,
                w: Width::D,
            },
            // top:
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: 1,
            },
            Instr::J { target: 3 },
        ]
    }

    #[test]
    fn epoch_bumps_demote_compiled_templates() {
        // Every kernel-side mapping mutation demotes: mprotect and fork
        // bump the VM translation epoch, which fails the hot-pc guard,
        // refills the slot and resets its template state to cold; a
        // swap-out or COW copy shoots down one page of the space, which
        // drops the space's hot-pc entries. Each phase below must
        // therefore recompile from scratch: the compile counter is the
        // demotion witness.
        let (mut cpu, mut vm, id, mut rf) = machine(store_then_spin(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 500), Exit::InstrLimit);
        assert_eq!(cpu.stats.tmpl_compiles, 1, "hot loop promoted");
        assert!(cpu.stats.tmpl_hits >= 1);

        // mprotect: same rights, but the epoch bump alone must demote.
        vm.protect(id, 0x20000, 4096, Prot::rw()).unwrap();
        rf.pc = 0x10000;
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 500), Exit::InstrLimit);
        assert_eq!(cpu.stats.tmpl_compiles, 2, "mprotect demoted the template");

        // Swap-out (and the swap-in the store then re-faults).
        assert!(vm.swap_out(id, 0x20000).unwrap());
        rf.pc = 0x10000;
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 500), Exit::InstrLimit);
        assert_eq!(cpu.stats.tmpl_compiles, 3, "swap demoted the template");

        // Fork, then COW resolution when the parent's store re-executes.
        let child = vm.fork_space(id).unwrap();
        cpu.clone_code(id, child);
        rf.pc = 0x10000;
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 500), Exit::InstrLimit);
        assert_eq!(vm.stats.cow_copies, 1, "the store resolved COW");
        assert_eq!(cpu.stats.tmpl_compiles, 4, "fork/COW demoted the template");
    }

    #[test]
    fn template_recompiles_after_a_trapping_remap() {
        // Promote the loop, then revoke write on the data page and rerun
        // from the start: the store traps. Restoring write bumps the
        // epoch again, so the next full rerun must recompile.
        let (mut cpu, mut vm, id, mut rf) = machine(store_then_spin(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 500), Exit::InstrLimit);
        assert_eq!(cpu.stats.tmpl_compiles, 1);
        vm.protect(id, 0x20000, 4096, Prot::READ).unwrap();
        rf.pc = 0x10000;
        match cpu.run(&mut vm, id, &mut rf, 500) {
            Exit::Trap(t) => assert_eq!(t.cause, TrapCause::Vm(VmError::Protection(0x20010))),
            e => panic!("expected protection fault, got {e:?}"),
        }
        vm.protect(id, 0x20000, 4096, Prot::rw()).unwrap();
        rf.pc = 0x10000;
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 500), Exit::InstrLimit);
        assert_eq!(cpu.stats.tmpl_compiles, 2, "re-promoted after the trap");
    }

    #[test]
    fn weaken_flush_loses_writes_once_and_is_caught_by_comparison() {
        // The deliberate residency bug: the first template execution
        // drops its exit flush, so the spin counter silently rewinds —
        // exactly what the cross-tier gates must flag. One-shot, so the
        // guest still terminates.
        let code = spin_loop(400);
        let (mut cpu, mut vm, id, mut rf) = machine(code.clone(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100_000), Exit::Syscall);
        let clean = (cpu.stats, rf.r(ireg::T0));

        let (mut cpu, mut vm, id, mut rf) = machine(code, false);
        cpu.set_weaken_flush(true);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 200_000), Exit::Syscall);
        assert_ne!(
            (cpu.stats, rf.r(ireg::T0)),
            clean,
            "dropping one flush must be guest-visible"
        );
    }

    // ------------------------------------------------------------------
    // The lockstep oracle
    // ------------------------------------------------------------------

    /// The widen probe: narrow a capability, then try to re-widen it. The
    /// strict semantics trap on the second `csetbounds`; the weakened fast
    /// path sails through — which the shadow must catch.
    fn widen_probe() -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 16,
            },
            Instr::CSetBounds {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                rs: ireg::T0,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: 64,
            },
            Instr::CSetBounds {
                cd: creg::ptr(2),
                cb: creg::ptr(1),
                rs: ireg::T1,
            },
            Instr::Syscall,
        ]
    }

    #[test]
    fn lockstep_is_clean_and_invisible_on_correct_execution() {
        // A memory-heavy program, with and without the oracle armed: no
        // divergence, and — crucially for report-cache identity — no
        // difference in any guest-visible counter either.
        let code = store_sync_store_load();
        let mut results = Vec::new();
        for armed in [false, true] {
            let (mut cpu, mut vm, id, mut rf) = machine(code.clone(), false);
            if armed {
                cpu.set_lockstep(1, true);
            }
            assert_eq!(cpu.run(&mut vm, id, &mut rf, 10_000), Exit::Syscall);
            assert_eq!(cpu.run(&mut vm, id, &mut rf, 10_000), Exit::Syscall);
            assert_eq!(cpu.take_divergence(), None);
            results.push((cpu.stats, cpu.caches.stats(), vm.stats, rf.r(ireg::T2)));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn lockstep_matches_traps_too() {
        // The trapping CLoad at the end is a boundary: the shadow must
        // reproduce the exact capability fault, not report a divergence.
        let code = vec![Instr::CLoad {
            rd: ireg::T3,
            cb: creg::ptr(0),
            off: 4096,
            w: Width::B,
            signed: false,
        }];
        let (mut cpu, mut vm, id, mut rf) = machine(code, true);
        cpu.set_lockstep(1, true);
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => assert_eq!(t.cause, TrapCause::Cap(CapFault::LengthViolation)),
            e => panic!("expected length trap, got {e:?}"),
        }
        assert_eq!(cpu.take_divergence(), None);
    }

    #[test]
    fn lockstep_catches_weakened_semantics() {
        let (mut cpu, mut vm, id, mut rf) = machine(widen_probe(), true);
        cpu.set_weaken_sem(true);
        cpu.set_lockstep(1, true);
        // The weakened fast path does NOT trap: the program runs to its
        // syscall with an illegally widened capability in c15.
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        let d = cpu.take_divergence().expect("oracle must catch the widen");
        assert_eq!(d.pc, 0x10000 + 3 * 4, "the second csetbounds");
        assert!(
            d.detail.contains("shadow"),
            "diagnostic names both sides: {}",
            d.detail
        );
        // Only the first divergence is kept.
        assert_eq!(cpu.take_divergence(), None);
    }

    #[test]
    fn lockstep_cadence_still_lands_on_the_divergent_step() {
        // every=2 checks instructions 2 and 4 — the second csetbounds is
        // the 4th retired instruction, so the sampled oracle still sees it.
        let (mut cpu, mut vm, id, mut rf) = machine(widen_probe(), true);
        cpu.set_weaken_sem(true);
        cpu.set_lockstep(2, true);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        let d = cpu.take_divergence().expect("cadence 2 lands on the widen");
        assert_eq!(d.instret, 4);
    }

    // ------------------------------------------------------------------
    // Epoch invalidation edges: each test warms the TLB with a guest
    // access, mutates the VM from the kernel side *without* any explicit
    // flush, and proves the next guest access re-faults instead of using
    // a stale translation.
    // ------------------------------------------------------------------

    const STRADDLE_VALUE: i64 = 0x1122_3344_5566_7788;

    /// Unaligned legacy doubleword accesses at `page_end - 4`, each
    /// crossing into a data page not yet faulted in: a load across the
    /// first boundary, then a store and a load back across the second.
    /// Then an integer store into a tagged capability granule, and a
    /// `clc` of that granule that must see the tag cleared (`temp(4)`).
    fn page_straddle_probe() -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0x20ffc,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Li {
                rd: ireg::T0,
                imm: 0x21ffc,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: STRADDLE_VALUE,
            },
            Instr::Store {
                rs: ireg::T1,
                base: ireg::T0,
                off: 0,
                w: Width::D,
            },
            Instr::Load {
                rd: ireg::T3,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Csc {
                cs: creg::ptr(0),
                cb: creg::ptr(0),
                off: 32,
            },
            Instr::Li {
                rd: ireg::T0,
                imm: 0x20028,
            },
            Instr::Store {
                rs: ireg::T1,
                base: ireg::T0,
                off: 0,
                w: Width::W,
            },
            Instr::Clc {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                off: 32,
            },
            Instr::CGetTag {
                rd: ireg::temp(4),
                cb: creg::ptr(1),
            },
            Instr::Syscall,
        ]
    }

    /// `store; syscall; store; load; syscall` against the rw data page,
    /// split into two `run` calls at the first syscall.
    fn store_sync_store_load() -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 0x20010,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: 7,
            },
            Instr::Store {
                rs: ireg::T1,
                base: ireg::T0,
                off: 0,
                w: Width::D,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Syscall,
            Instr::Li {
                rd: ireg::T1,
                imm: 9,
            },
            Instr::Store {
                rs: ireg::T1,
                base: ireg::T0,
                off: 0,
                w: Width::D,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Syscall,
        ]
    }

    #[test]
    fn mprotect_revoking_write_faults_through_warm_tlb() {
        let (mut cpu, mut vm, id, mut rf) = machine(store_sync_store_load(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        // Kernel side: revoke write on the data page. No flush call — the
        // epoch bump alone must kill the warm Write translation.
        vm.protect(id, 0x20000, 4096, Prot::READ).unwrap();
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => {
                assert_eq!(t.cause, TrapCause::Vm(VmError::Protection(0x20010)));
            }
            e => panic!("expected protection fault, got {e:?}"),
        }
    }

    #[test]
    fn swap_out_of_translated_page_refaults_and_swaps_in() {
        let (mut cpu, mut vm, id, mut rf) = machine(store_sync_store_load(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 7);
        // Kernel side: evict the data page. Its frame is freed and may be
        // reused; a stale TLB entry would read someone else's memory.
        assert!(vm.swap_out(id, 0x20000).unwrap());
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 9, "data must survive the swap round trip");
        assert_eq!(
            vm.stats.swap_ins, 1,
            "the access after eviction must re-fault"
        );
    }

    #[test]
    fn cow_resolve_redirects_warm_read_translation() {
        let (mut cpu, mut vm, id, mut rf) = machine(store_sync_store_load(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 7, "warm Read TLB entry for the data page");
        // Kernel side: fork. The parent's data page is now COW-shared.
        let child = vm.fork_space(id).unwrap();
        cpu.clone_code(id, child);
        // Parent resumes: the store must copy the page, and the load after
        // it must read 9 from the *new* frame — a stale Read entry would
        // keep pointing at the old shared frame, which still holds 7.
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 9, "read must follow the COW copy");
        assert_eq!(vm.stats.cow_copies, 1);
        assert_eq!(vm.read_u64(child, 0x20010).unwrap(), 7, "child unchanged");
    }

    #[test]
    fn fork_teardown_leaves_parent_sole_owner() {
        let (mut cpu, mut vm, id, mut rf) = machine(store_sync_store_load(), false);
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        // Kernel side: fork, then tear the child down again (exit before
        // touching anything). Both transitions bump the epoch.
        let child = vm.fork_space(id).unwrap();
        cpu.clone_code(id, child);
        cpu.clear_code(child);
        vm.destroy_space(child);
        // Parent resumes sole owner: the write clears the COW marking in
        // place, with no page copy.
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 9);
        assert_eq!(vm.stats.cow_copies, 0, "sole owner must not copy");
    }

    /// A branchy countdown loop with a store and a load per iteration.
    fn branchy_memory_loop() -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 200,
            },
            Instr::Li {
                rd: ireg::T1,
                imm: 0x20000,
            },
            // loop:
            Instr::Store {
                rs: ireg::T0,
                base: ireg::T1,
                off: 8,
                w: Width::D,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T1,
                off: 8,
                w: Width::D,
                signed: false,
            },
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: -1,
            },
            Instr::Bgtz {
                rs: ireg::T0,
                target: 2,
            },
            Instr::Syscall,
        ]
    }

    // ------------------------------------------------------------------
    // Address-space tags
    // ------------------------------------------------------------------

    /// A legacy load of the doubleword at `vaddr` into `t2` through DDC,
    /// then `syscall`.
    fn load_at(vaddr: i64) -> Vec<Instr> {
        vec![
            Instr::Li {
                rd: ireg::T0,
                imm: vaddr,
            },
            Instr::Load {
                rd: ireg::T2,
                base: ireg::T0,
                off: 0,
                w: Width::D,
                signed: false,
            },
            Instr::Syscall,
        ]
    }

    #[test]
    fn spaces_sharing_a_vaddr_read_their_own_frames() {
        // Two spaces map 0x20010 to different frames holding different
        // bytes, and runs alternate between them with no VM mutation in
        // between: each run must read its own bytes. Spaces 1 and 2 use
        // different TLB sets, so both stay resident across the switches;
        // space 1 and its `twin` share every set, so their entries meet
        // in the same slots and only the tag keeps them apart.
        let twin = (3..)
            .find(|&j| tlb_set_offset(AsId(j)) == tlb_set_offset(AsId(1)))
            .unwrap();
        assert_ne!(tlb_set_offset(AsId(1)), tlb_set_offset(AsId(2)));
        for second in [2, twin] {
            let mut vm = Vm::new(128);
            let mut cpu = Cpu::new();
            let mut spaces = vec![add_space(&mut vm, &mut cpu, load_at(0x20010))];
            for _ in 2..second {
                let id = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
                vm.destroy_space(id);
            }
            spaces.push(add_space(&mut vm, &mut cpu, load_at(0x20010)));
            assert_eq!(spaces[1], AsId(second));
            for (&id, v) in spaces.iter().zip([0x1111u64, 0x2222]) {
                vm.write_bytes(id, 0x20010, &v.to_le_bytes()).unwrap();
            }
            let epoch = vm.epoch();
            let mut warm_misses = 0;
            for round in 0..4 {
                for (&id, want) in spaces.iter().zip([0x1111u64, 0x2222]) {
                    let mut rf = entry_regs(&vm, id, false);
                    assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
                    assert_eq!(rf.r(ireg::T2), want, "round {round}, {id:?}");
                }
                if round == 0 {
                    warm_misses = cpu.stats.tlb_misses;
                }
            }
            assert_eq!(vm.epoch(), epoch, "no VM mutation between the runs");
            if second == 2 {
                assert_eq!(
                    cpu.stats.tlb_misses, warm_misses,
                    "a context switch keeps both spaces' translations"
                );
            }
        }
    }

    /// A destroyed space answers `NoCode` from the CPU and `NoSuchSpace`
    /// from the VM, and a space created after it gets a fresh id that
    /// never meets the old space's TLB entries or hot-pc templates.
    #[test]
    fn a_new_space_never_hits_a_destroyed_spaces_entries() {
        let (mut cpu, mut vm, old, mut rf) = machine(load_at(0x20010), false);
        vm.write_bytes(old, 0x20010, &0x1111u64.to_le_bytes())
            .unwrap();
        let entry = rf.clone();
        assert_eq!(cpu.run(&mut vm, old, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 0x1111);
        let trap_cause =
            |cpu: &mut Cpu, vm: &mut Vm| match cpu.run(vm, old, &mut entry.clone(), 100) {
                Exit::Trap(t) => t.cause,
                e => panic!("expected a trap, got {e:?}"),
            };
        cpu.clear_code(old);
        assert_eq!(trap_cause(&mut cpu, &mut vm), TrapCause::NoCode);
        vm.destroy_space(old);
        assert_eq!(
            trap_cause(&mut cpu, &mut vm),
            TrapCause::Vm(VmError::NoSuchSpace)
        );
        assert!(cpu.find_region(old, 0x10000).is_none());
        let new = add_space(&mut vm, &mut cpu, load_at(0x20010));
        assert_eq!(new, AsId(old.0 + 1), "ids are never reused");
        vm.write_bytes(new, 0x20010, &0x2222u64.to_le_bytes())
            .unwrap();
        let (hits, misses) = (cpu.stats.tlb_hits, cpu.stats.tlb_misses);
        let mut rf = entry_regs(&vm, new, false);
        assert_eq!(cpu.run(&mut vm, new, &mut rf, 100), Exit::Syscall);
        assert_eq!(rf.r(ireg::T2), 0x2222, "the new space reads its own frame");
        // Three fetches from one text page and one data load: the first
        // touch of each page must walk.
        assert_eq!(cpu.stats.tlb_misses - misses, 2);
        assert_eq!(cpu.stats.tlb_hits - hits, 2);

        // Hot-pc entries: a loop promoted to a template in a space that is
        // then destroyed must never run in the space created after it,
        // which has a different loop at the same pc.
        let spin = add_space(&mut vm, &mut cpu, add_loop(1));
        let mut rf = entry_regs(&vm, spin, false);
        for _ in 0..40 {
            assert_eq!(cpu.run(&mut vm, spin, &mut rf, 50), Exit::InstrLimit);
        }
        assert!(cpu.stats.tmpl_hits > 0, "the loop must run templated");
        cpu.clear_code(spin);
        vm.destroy_space(spin);
        let next = add_space(&mut vm, &mut cpu, add_loop(2));
        assert_eq!(next, AsId(spin.0 + 1));
        let mut rf = entry_regs(&vm, next, false);
        for _ in 0..40 {
            assert_eq!(cpu.run(&mut vm, next, &mut rf, 50), Exit::InstrLimit);
        }
        assert_eq!((rf.pc, rf.r(ireg::T0)), (0x10000, 2000));
    }

    #[test]
    fn a_load_at_or_above_user_top_traps_behind_a_warm_tlb() {
        // In space 1 the vpn of USER_TOP + 0x20010 sets exactly the bit
        // that holds the space tag, so a TLB lookup would alias the warm
        // entry of 0x20010. The access must take the walk and trap.
        let high = USER_TOP + 0x20010;
        let mut code = load_at(0x20010);
        code.pop();
        code.extend(load_at(high as i64));
        let (mut cpu, mut vm, id, mut rf) = machine(code, false);
        assert_eq!(id, AsId(1));
        vm.write_bytes(id, 0x20010, &7u64.to_le_bytes()).unwrap();
        match cpu.run(&mut vm, id, &mut rf, 100) {
            Exit::Trap(t) => {
                assert!(matches!(t.cause, TrapCause::Vm(_)), "{t:?}");
                assert_eq!(t.vaddr, Some(high));
            }
            e => panic!("expected a VM trap, got {e:?}"),
        }
        assert_eq!(rf.r(ireg::T2), 7, "the warming load ran first");
    }

    /// An endless loop adding `step` to `t0`.
    fn add_loop(step: i64) -> Vec<Instr> {
        vec![
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: step,
            },
            Instr::J { target: 0 },
        ]
    }

    #[test]
    fn hot_pc_entries_belong_to_their_space() {
        // Two spaces run different loops at the same pc under equal PCCs
        // (same principal, same bounds), alternating in short slices. A
        // template promoted in one space must never run in the other:
        // with templates on, every register and counter equals plain
        // stepping.
        let outcome = |templates: bool| {
            let mut vm = Vm::new(128);
            let mut cpu = Cpu::new();
            cpu.set_templates(templates);
            let mut procs: Vec<(AsId, RegFile)> = [1, 2]
                .into_iter()
                .map(|step| {
                    let id = add_space(&mut vm, &mut cpu, add_loop(step));
                    (id, entry_regs(&vm, id, false))
                })
                .collect();
            assert_eq!(procs[0].1.pcc, procs[1].1.pcc);
            for _ in 0..40 {
                for (id, rf) in &mut procs {
                    assert_eq!(cpu.run(&mut vm, *id, rf, 50), Exit::InstrLimit);
                }
            }
            let regs: Vec<(u64, u64)> = procs
                .iter()
                .map(|(_, rf)| (rf.pc, rf.r(ireg::T0)))
                .collect();
            (regs, cpu.stats, cpu.caches.stats())
        };
        let (regs, stats, caches) = outcome(true);
        assert!(stats.tmpl_hits > 0, "the loops must run templated");
        assert_eq!(regs, vec![(0x10000, 1000), (0x10000, 2000)]);
        assert_eq!((regs, stats, caches), outcome(false));
    }

    // ------------------------------------------------------------------
    // Data accesses inside compiled traces
    // ------------------------------------------------------------------

    /// Everything one machine leaves behind: its exits, the guest-visible
    /// counters, the cache and VM statistics and the register file.
    type Outcome = (
        Vec<Exit>,
        CpuStats,
        cheri_mem::MemStats,
        cheri_vm::VmStats,
        RegFile,
    );

    /// Runs `code` on each machine of [`MODES`]: `prep` adjusts the fresh
    /// machine, then `runs` calls of `run` follow, `between` going before
    /// each call after the first. Asserts that every machine leaves the
    /// reference interpreter's [`Outcome`], and returns the template
    /// machine's.
    fn agree_across_modes(
        code: &[Instr],
        purecap: bool,
        runs: usize,
        prep: impl Fn(&mut Cpu, &mut Vm, AsId, &mut RegFile),
        between: impl Fn(&mut Vm, AsId, &mut RegFile),
    ) -> Outcome {
        let mut results: Vec<Outcome> = Vec::new();
        for (mode, fast, templates) in MODES {
            let (mut cpu, mut vm, id, mut rf) = machine(code.to_vec(), purecap);
            cpu.set_fast_path(fast);
            cpu.set_templates(templates);
            prep(&mut cpu, &mut vm, id, &mut rf);
            let mut exits = Vec::new();
            for run in 0..runs {
                if run > 0 {
                    between(&mut vm, id, &mut rf);
                }
                exits.push(cpu.run(&mut vm, id, &mut rf, 100_000));
            }
            let outcome = (exits, cpu.stats, cpu.caches.stats(), vm.stats, rf);
            if let Some(reference) = results.first() {
                assert_eq!(&outcome, reference, "{mode} vs reference");
            }
            results.push(outcome);
        }
        let tmpl = results.pop().expect("three machines ran");
        assert!(tmpl.1.tmpl_instrs > 0, "no instruction retired in-trace");
        tmpl
    }

    /// `li` of a 64-bit constant into `rd`.
    fn li(rd: cheri_isa::IReg, imm: i64) -> Instr {
        Instr::Li { rd, imm }
    }

    /// `addi rd, rs, imm`.
    fn addi(rd: cheri_isa::IReg, rs: cheri_isa::IReg, imm: i64) -> Instr {
        Instr::AddI { rd, rs, imm }
    }

    /// A legacy doubleword load `rd = [base + off]`.
    fn ld(rd: cheri_isa::IReg, base: cheri_isa::IReg, off: i32) -> Instr {
        Instr::Load {
            rd,
            base,
            off,
            w: Width::D,
            signed: false,
        }
    }

    /// A legacy doubleword store `[base + off] = rs`.
    fn sd(rs: cheri_isa::IReg, base: cheri_isa::IReg, off: i32) -> Instr {
        Instr::Store {
            rs,
            base,
            off,
            w: Width::D,
        }
    }

    /// The purecap pointer walk: 400 times, load the doubleword at `c14`,
    /// add one, store it back, sum it into `t0` and advance `c14` by `t3`
    /// (8) — a loop of data accesses and capability arithmetic only.
    fn pointer_walk_loop() -> Vec<Instr> {
        vec![
            li(ireg::T1, 400),
            li(ireg::T3, 8),
            Instr::CMove {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
            },
            // top:
            Instr::CLoad {
                rd: ireg::T2,
                cb: creg::ptr(1),
                off: 0,
                w: Width::D,
                signed: false,
            },
            addi(ireg::T2, ireg::T2, 1),
            Instr::CStore {
                rs: ireg::T2,
                cb: creg::ptr(1),
                off: 0,
                w: Width::D,
            },
            Instr::Add {
                rd: ireg::T0,
                rs: ireg::T0,
                rt: ireg::T2,
            },
            Instr::CIncOffset {
                cd: creg::ptr(1),
                cb: creg::ptr(1),
                rs: ireg::T3,
            },
            addi(ireg::T1, ireg::T1, -1),
            Instr::Bgtz {
                rs: ireg::T1,
                target: 3,
            },
            Instr::Syscall,
        ]
    }

    /// A legacy loop over `iters` 64-byte steps from 0x20000: load the
    /// doubleword at `t1`, add it into `t3`, store `t3` 8 bytes further
    /// on. At 64 steps a page, it crosses into each later data page from
    /// inside its compiled trace.
    fn page_walk_loop(iters: i64) -> Vec<Instr> {
        vec![
            li(ireg::T1, 0x20000),
            li(ireg::T0, iters),
            // top:
            ld(ireg::T2, ireg::T1, 0),
            Instr::Add {
                rd: ireg::T3,
                rs: ireg::T3,
                rt: ireg::T2,
            },
            sd(ireg::T3, ireg::T1, 8),
            addi(ireg::T1, ireg::T1, 64),
            addi(ireg::T0, ireg::T0, -1),
            Instr::Bgtz {
                rs: ireg::T0,
                target: 2,
            },
            Instr::Syscall,
        ]
    }

    #[test]
    fn first_touch_of_a_data_page_leaves_the_trace_for_the_walk() {
        // 160 steps cover pages 0x20000-0x22000: the first touches of the
        // second and third page miss the TLB inside the trace, exit
        // before the load, and the stepper demand-faults them.
        let (exits, stats, _, vm_stats, _) = agree_across_modes(
            &page_walk_loop(160),
            false,
            1,
            |_, _, _, _| {},
            |_, _, _| {},
        );
        assert_eq!(exits, vec![Exit::Syscall]);
        assert_eq!(vm_stats.faults, 4, "the text page and three data pages");
        assert!(stats.tmpl_hits >= 3, "the trace re-enters after each walk");
    }

    #[test]
    fn bounds_fault_on_a_later_iteration_traps_at_the_stepper() {
        // c14 is c13 narrowed to 256 bytes; the loop stores through it 8
        // bytes at a time, so iteration 33 lands at 0x20100: still on the
        // TLB-resident page, so only the bounds guard stops the trace.
        let code = vec![
            Instr::CSetBoundsImm {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                imm: 256,
            },
            li(ireg::T1, 1000),
            // top:
            Instr::CStore {
                rs: ireg::T1,
                cb: creg::ptr(1),
                off: 0,
                w: Width::D,
            },
            Instr::CIncOffsetImm {
                cd: creg::ptr(1),
                cb: creg::ptr(1),
                imm: 8,
            },
            addi(ireg::T1, ireg::T1, -1),
            Instr::Bgtz {
                rs: ireg::T1,
                target: 2,
            },
            Instr::Syscall,
        ];
        let (exits, stats, ..) = agree_across_modes(&code, true, 1, |_, _, _, _| {}, |_, _, _| {});
        match exits[..] {
            [Exit::Trap(t)] => {
                assert_eq!(t.cause, TrapCause::Cap(CapFault::LengthViolation));
                assert_eq!(t.pc, 0x10000 + 2 * 4, "the cstore");
                assert_eq!(t.vaddr, Some(0x20100));
            }
            ref e => panic!("expected a length trap, got {e:?}"),
        }
        assert_eq!(
            stats.instret,
            2 + 32 * 4 + 1,
            "32 iterations, then the cstore"
        );
    }

    #[test]
    fn unaligned_legacy_access_straddling_a_page_is_left_to_the_stepper() {
        // An aligned load and an unaligned one 4 bytes on, walking 8
        // bytes a step from 0x20f00: every unaligned load fails its guard
        // (the stepper charges the fix-up), and step 31 straddles into
        // the untouched page 0x21000.
        let code = vec![
            li(ireg::T1, 0x20f00),
            li(ireg::T0, 40),
            // top:
            ld(ireg::T2, ireg::T1, 0),
            ld(ireg::T3, ireg::T1, 4),
            Instr::Add {
                rd: ireg::temp(4),
                rs: ireg::temp(4),
                rt: ireg::T3,
            },
            addi(ireg::T1, ireg::T1, 8),
            addi(ireg::T0, ireg::T0, -1),
            Instr::Bgtz {
                rs: ireg::T0,
                target: 2,
            },
            Instr::Syscall,
        ];
        let prep = |_: &mut Cpu, vm: &mut Vm, id: AsId, _: &mut RegFile| {
            vm.write_bytes(id, 0x20ff8, &u64::MAX.to_le_bytes())
                .unwrap();
        };
        let (exits, _, _, vm_stats, rf) = agree_across_modes(&code, false, 1, prep, |_, _, _| {});
        assert_eq!(exits, vec![Exit::Syscall]);
        assert_eq!(
            vm_stats.faults, 3,
            "text, the first data page, the straddled one"
        );
        // The loads at 0x20ff4 and 0x20ffc each see half of the marked
        // doubleword, in its high and low half.
        assert_eq!(
            rf.r(ireg::temp(4)),
            u64::MAX,
            "two loads saw the marked word"
        );
    }

    #[test]
    fn store_to_a_cow_page_after_fork_breaks_cow_at_the_stepper() {
        // All three data pages are resident, then the space forks: every
        // page is copy-on-write. The page walk stores into each; the
        // second and third are first written from inside the trace.
        let prep = |cpu: &mut Cpu, vm: &mut Vm, id: AsId, _: &mut RegFile| {
            for page in 0..3 {
                vm.write_bytes(id, 0x20000 + page * 4096, &7u64.to_le_bytes())
                    .unwrap();
            }
            let child = vm.fork_space(id).unwrap();
            cpu.clone_code(id, child);
        };
        let (exits, _, _, vm_stats, _) =
            agree_across_modes(&page_walk_loop(160), false, 1, prep, |_, _, _| {});
        assert_eq!(exits, vec![Exit::Syscall]);
        assert_eq!(vm_stats.cow_copies, 3);
    }

    #[test]
    fn a_store_clearing_a_tag_is_seen_by_clc_in_the_same_trace() {
        // Store c13 to a granule, overwrite one byte of it, load it back:
        // the byte store must clear the tag before the `clc` reads it.
        let code = vec![
            li(ireg::T1, 100),
            li(ireg::T0, 0xab),
            // top:
            Instr::Csc {
                cs: creg::ptr(0),
                cb: creg::ptr(0),
                off: 32,
            },
            Instr::CStore {
                rs: ireg::T0,
                cb: creg::ptr(0),
                off: 40,
                w: Width::B,
            },
            Instr::Clc {
                cd: creg::ptr(1),
                cb: creg::ptr(0),
                off: 32,
            },
            Instr::CGetTag {
                rd: ireg::T2,
                cb: creg::ptr(1),
            },
            Instr::Add {
                rd: ireg::T3,
                rs: ireg::T3,
                rt: ireg::T2,
            },
            addi(ireg::T1, ireg::T1, -1),
            Instr::Bgtz {
                rs: ireg::T1,
                target: 2,
            },
            Instr::Syscall,
        ];
        let (exits, _, _, _, rf) =
            agree_across_modes(&code, true, 1, |_, _, _, _| {}, |_, _, _| {});
        assert_eq!(exits, vec![Exit::Syscall]);
        assert_eq!(rf.r(ireg::T3), 0, "no clc may see the stored tag");
    }

    #[test]
    fn mprotect_between_template_runs_traps_the_store() {
        // Run the page walk once (its trace compiles and runs), revoke
        // write on the first data page, and run it again from the top:
        // the store must take the protection trap.
        let between = |vm: &mut Vm, id: AsId, rf: &mut RegFile| {
            vm.protect(id, 0x20000, 4096, Prot::READ).unwrap();
            rf.pc = 0x10000;
        };
        let (exits, ..) =
            agree_across_modes(&page_walk_loop(40), false, 2, |_, _, _, _| {}, between);
        assert_eq!(exits[0], Exit::Syscall);
        match exits[1] {
            Exit::Trap(t) => {
                assert_eq!(t.cause, TrapCause::Vm(VmError::Protection(0x20008)));
                assert_eq!(t.pc, 0x10000 + 4 * 4, "the store");
            }
            ref e => panic!("expected a protection fault, got {e:?}"),
        }
    }

    #[test]
    fn in_trace_accesses_keep_the_stepping_order_of_the_shared_l2() {
        // One-line L1s and a two-line L2: every fetch that changes line
        // and every data access goes to the L2, whose replacement then
        // depends on the exact order of fetches and data accesses. The
        // loop spans three lines, with accesses at the first and last
        // instruction of each.
        let mut code = vec![li(ireg::T1, 0x20000), li(ireg::T0, 300)];
        // top (index 2): 46 instructions, then the backedge at 48.
        while code.len() < 48 {
            let i = code.len();
            code.push(match i % 16 {
                0 | 15 => ld(ireg::T2, ireg::T1, (i as i32 % 3) * 64),
                7 => sd(ireg::T0, ireg::T1, 256),
                _ => addi(ireg::T3, ireg::T3, 1),
            });
        }
        code.push(addi(ireg::T0, ireg::T0, -1));
        code.push(Instr::Bgtz {
            rs: ireg::T0,
            target: 2,
        });
        code.push(Instr::Syscall);
        let tiny = |cpu: &mut Cpu, _: &mut Vm, _: AsId, _: &mut RegFile| {
            let line = |size, ways| cheri_mem::CacheConfig {
                size,
                line: 64,
                ways,
            };
            cpu.caches = CacheHierarchy::new(line(64, 1), line(128, 2));
        };
        let (exits, stats, caches, ..) = agree_across_modes(&code, false, 1, tiny, |_, _, _| {});
        assert_eq!(exits, vec![Exit::Syscall]);
        assert!(caches.l2_hits > 0 && caches.l2_misses > 0, "{caches:?}");
        assert!(stats.tmpl_instrs * 10 >= stats.instret * 9, "{stats:?}");
    }

    /// A 44-instruction loop body spanning three L1I lines, interleaving
    /// legacy loads and stores, `cload`/`cstore`, `csc`, `clc` and
    /// `cincoffset`, 200 times.
    fn three_line_data_loop() -> Vec<Instr> {
        let c13 = creg::ptr(0);
        let c14 = creg::ptr(1);
        let mut code = vec![li(ireg::T1, 0x20000), li(ireg::T0, 200)];
        // top (index 2): 44 instructions, then the backedge at 46.
        while code.len() < 46 {
            let i = code.len();
            code.push(match i % 11 {
                0 => ld(ireg::T2, ireg::T1, (i as i32 % 4) * 8),
                1 => sd(ireg::T0, ireg::T1, 64 + (i as i32 % 4) * 8),
                2 => Instr::Csc {
                    cs: c13,
                    cb: c13,
                    off: 128 + ((i / 11) as i32 % 2) * 16,
                },
                3 => Instr::Clc {
                    cd: c14,
                    cb: c13,
                    off: 128 + ((i / 11) as i32 % 2) * 16,
                },
                4 => Instr::CIncOffsetImm {
                    cd: c14,
                    cb: c14,
                    imm: 8,
                },
                5 => Instr::CLoad {
                    rd: ireg::T3,
                    cb: c14,
                    off: 0,
                    w: Width::W,
                    signed: true,
                },
                6 => Instr::CStore {
                    rs: ireg::T2,
                    cb: c14,
                    off: 200,
                    w: Width::H,
                },
                7 => Instr::Add {
                    rd: ireg::A4,
                    rs: ireg::A4,
                    rt: ireg::T3,
                },
                _ => addi(ireg::A5, ireg::A5, i as i64),
            });
        }
        code.push(addi(ireg::T0, ireg::T0, -1));
        code.push(Instr::Bgtz {
            rs: ireg::T0,
            target: 2,
        });
        code.push(Instr::Syscall);
        code
    }

    /// The `settled` flags of the templates a template machine compiled
    /// running `code` with L1 geometry `l1` (and the paper's L2).
    fn settled_flags(code: &[Instr], l1: cheri_mem::CacheConfig) -> Vec<bool> {
        let (mut cpu, mut vm, id, mut rf) = machine(code.to_vec(), false);
        cpu.caches = CacheHierarchy::new(l1, cheri_mem::CacheConfig::l2_default());
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100_000), Exit::Syscall);
        cpu.hot
            .iter()
            .flatten()
            .filter_map(|e| match &e.tmpl {
                TmplState::Hot(t) => Some(t.settled),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn settled_head_fetches_agree_on_all_three_machines() {
        let code = three_line_data_loop();
        // The paper's L1 gives the three lines three sets: passes after
        // the first charge no head fetch. A direct-mapped two-set L1 puts
        // the first and third in one set, where they evict each other
        // every pass: the template must charge every pass's heads.
        let paper = cheri_mem::CacheConfig::l1_default();
        let two_sets = cheri_mem::CacheConfig {
            size: 128,
            line: 64,
            ways: 1,
        };
        for (l1, settled) in [(paper, true), (two_sets, false)] {
            assert_eq!(settled_flags(&code, l1), vec![settled], "{l1:?}");
            let geometry = |cpu: &mut Cpu, _: &mut Vm, _: AsId, _: &mut RegFile| {
                cpu.caches = CacheHierarchy::new(l1, cheri_mem::CacheConfig::l2_default());
            };
            let (exits, stats, caches, ..) =
                agree_across_modes(&code, false, 1, geometry, |_, _, _| {});
            assert_eq!(exits, vec![Exit::Syscall]);
            assert!(stats.tmpl_instrs * 10 >= stats.instret * 9, "{stats:?}");
            if !settled {
                // Every pass misses the L1I at least twice.
                assert!(caches.l1i_misses >= 2 * 200, "{caches:?}");
            }
        }
    }

    #[test]
    fn a_continue_block_jumping_back_runs_in_one_trace() {
        // A loop whose iterations skip, unless the counter is a multiple
        // of 8, to a `continue` block that bumps the counters and jumps
        // back to the head. The block's trace follows that jump into the
        // loop body and closes at the body's branch back to the block.
        let code = vec![
            li(ireg::T1, 0x20000),
            li(ireg::T3, 1000),
            // head (2):
            Instr::Beq {
                rs: ireg::T0,
                rt: ireg::T3,
                target: 12,
            },
            ld(ireg::T2, ireg::T1, 0),
            Instr::AndI {
                rd: ireg::temp(4),
                rs: ireg::T0,
                imm: 7,
            },
            Instr::Bne {
                rs: ireg::temp(4),
                rt: ireg::ZERO,
                target: 9,
            },
            Instr::Add {
                rd: ireg::temp(5),
                rs: ireg::temp(5),
                rt: ireg::T0,
            },
            sd(ireg::temp(5), ireg::T1, 0),
            Instr::Nop,
            // continue (9):
            addi(ireg::T0, ireg::T0, 1),
            addi(ireg::T1, ireg::T1, 8),
            Instr::J { target: 2 },
            // done (12):
            Instr::Syscall,
        ];
        let (exits, stats, _, _, rf) =
            agree_across_modes(&code, false, 1, |_, _, _, _| {}, |_, _, _| {});
        assert_eq!(exits, vec![Exit::Syscall]);
        assert_eq!(rf.r(ireg::temp(5)), (0..1000).step_by(8).sum::<u64>());
        assert!(stats.tmpl_instrs * 10 >= stats.instret * 9, "{stats:?}");
    }

    #[test]
    fn every_alu_form_and_branch_condition_agrees_inside_a_template() {
        // `alu!(Add rd, rs, rt: r)` or `alu!(AddI rd, rs, imm: i)`.
        macro_rules! alu {
            ($op:ident $rd:expr, $rs:expr, $f:ident: $b:expr) => {
                Instr::$op {
                    rd: $rd,
                    rs: $rs,
                    $f: $b,
                }
            };
        }
        let (n, x, min, m1, s64, s127, m3) = (
            ireg::T0,
            ireg::saved(0),
            ireg::saved(1),
            ireg::saved(2),
            ireg::saved(3),
            ireg::saved(4),
            ireg::saved(5),
        );
        // `v` carries the chain of one pass, `w` each side result, `e` to
        // `h` the branch operands; `x` carries state across passes.
        let (v, w, e, f, g, h) = (
            ireg::arg(0),
            ireg::arg(1),
            ireg::arg(2),
            ireg::arg(3),
            ireg::arg(4),
            ireg::arg(5),
        );
        let zero = ireg::ZERO;
        let mut code = vec![
            li(n, 300),
            li(x, 0x0123_4567_89ab_cdef),
            li(min, i64::MIN),
            li(m1, -1),
            li(s64, 64),
            li(s127, 127),
            li(m3, -3),
        ];
        let top = code.len() as u32;
        code.extend([
            alu!(Add v, x, rt: n),
            alu!(Sub v, v, rt: m1),
            alu!(OrI x, x, imm: 1),
            alu!(Mul v, v, rt: x),
            alu!(DivU w, v, rt: n),
            alu!(Xor v, v, rt: w),
            alu!(DivU w, v, rt: zero),
            alu!(Or v, v, rt: w),
            alu!(DivS w, min, rt: m1),
            alu!(Add v, v, rt: w),
            alu!(DivS w, v, rt: m3),
            alu!(Nor v, v, rt: w),
            alu!(DivS w, v, rt: zero),
            alu!(Add v, v, rt: w),
            alu!(RemU w, v, rt: n),
            alu!(Sub v, v, rt: w),
            alu!(RemU w, v, rt: zero),
            alu!(Xor v, v, rt: w),
            alu!(Sllv w, v, rt: s64),
            alu!(Add v, v, rt: w),
            alu!(Srlv w, v, rt: s127),
            alu!(Add v, v, rt: w),
            alu!(Srav w, v, rt: s127),
            alu!(Xor v, v, rt: w),
            alu!(And w, v, rt: x),
            alu!(Add v, v, rt: w),
            alu!(Slt w, v, rt: zero),
            alu!(Add v, v, rt: w),
            alu!(Sltu w, n, rt: v),
            alu!(Add v, v, rt: w),
            alu!(AddI v, v, imm: -7),
            alu!(AndI w, v, imm: 0xff),
            alu!(XorI v, v, imm: 0x5a5a),
            alu!(SllI w, v, sh: 64),
            alu!(Add v, v, rt: w),
            alu!(SrlI w, v, sh: 127),
            alu!(Add v, v, rt: w),
            alu!(SraI w, v, sh: 13),
            alu!(Xor v, v, rt: w),
            alu!(SltI w, v, imm: -5),
            alu!(Add v, v, rt: w),
            alu!(SltuI w, m3, imm: -5i64 as u64),
            alu!(Add v, v, rt: w),
            alu!(Xor x, x, rt: v),
            // Branch operands: the low nibble `f`, `f < 1`, `f - 1` and
            // `f - 14`.
            alu!(AndI f, v, imm: 15),
            alu!(SltuI e, f, imm: 1),
            alu!(AddI g, f, imm: -1),
            alu!(AddI h, f, imm: -14),
        ]);
        // Each branch skips one `addi x`; each holds on one or two nibble
        // values, so it is mostly not taken and sometimes a side exit.
        let mut branch = |bump: i64, make: &dyn Fn(u32) -> Instr| {
            let skip = code.len() as u32 + 2;
            code.push(make(skip));
            code.push(alu!(AddI x, x, imm: bump));
        };
        branch(3, &|target| Instr::Beq {
            rs: f,
            rt: zero,
            target,
        });
        branch(5, &|target| Instr::Bne {
            rs: e,
            rt: zero,
            target,
        });
        branch(7, &|target| Instr::Blez { rs: g, target });
        branch(11, &|target| Instr::Bltz { rs: g, target });
        branch(13, &|target| Instr::Bgez { rs: h, target });
        branch(17, &|target| Instr::Bgtz { rs: h, target });
        code.push(alu!(AddI n, n, imm: -1));
        code.push(Instr::Bgtz { rs: n, target: top });
        code.push(Instr::Syscall);
        assert!(
            code.len() - 1 - top as usize <= 64,
            "the loop fits one trace"
        );

        let (exits, stats, ..) = agree_across_modes(&code, false, 1, |_, _, _, _| {}, |_, _, _| {});
        assert_eq!(exits, vec![Exit::Syscall]);
        assert!(stats.tmpl_instrs * 10 >= stats.instret * 9, "{stats:?}");
    }

    // ------------------------------------------------------------------
    // Shootdowns and the fetch window
    // ------------------------------------------------------------------

    /// Runs `space`'s [`load_at`] probe from its entry registers and
    /// returns what it loaded.
    fn run_probe(cpu: &mut Cpu, vm: &mut Vm, space: AsId) -> u64 {
        let mut rf = entry_regs(vm, space, false);
        assert_eq!(cpu.run(vm, space, &mut rf, 100), Exit::Syscall);
        rf.r(ireg::T2)
    }

    /// A client's page swapped out and back in shoots down only the
    /// client's entry: the server's stay warm, so its next slice hits
    /// every translation and refills nothing.
    #[test]
    fn a_clients_swap_round_trip_leaves_the_servers_entries_warm() {
        let mut vm = Vm::new(128);
        let mut cpu = Cpu::new();
        let server = add_space(&mut vm, &mut cpu, load_at(0x20000));
        let client = add_space(&mut vm, &mut cpu, load_at(0x20000));
        vm.write_u64(server, 0x20000, 1).unwrap();
        vm.write_u64(client, 0x20000, 2).unwrap();
        assert_eq!(run_probe(&mut cpu, &mut vm, server), 1);
        assert_eq!(run_probe(&mut cpu, &mut vm, client), 2);
        assert!(vm.swap_out(client, 0x20000).unwrap());
        assert_eq!(run_probe(&mut cpu, &mut vm, client), 2, "swapped back in");
        assert_eq!(vm.stats.swap_ins, 1);
        let before = cpu.stats;
        assert_eq!(run_probe(&mut cpu, &mut vm, server), 1);
        assert_eq!(cpu.stats.tlb_misses, before.tlb_misses, "nothing refills");
        assert_eq!(
            cpu.stats.tlb_hits - before.tlb_hits,
            4,
            "three fetches and one load hit"
        );
    }

    /// A frame freed by one space's swap-out and reused at once by
    /// another space is never read through the first space's old entry:
    /// its next load swaps its own page back in.
    #[test]
    fn a_frame_reused_after_a_swap_out_is_never_read_through_a_stale_entry() {
        let mut vm = Vm::new(128);
        let mut cpu = Cpu::new();
        let a = add_space(&mut vm, &mut cpu, load_at(0x20000));
        let b = add_space(&mut vm, &mut cpu, load_at(0x20000));
        vm.write_u64(a, 0x20000, 0x1111).unwrap();
        assert_eq!(run_probe(&mut cpu, &mut vm, a), 0x1111);
        let frame = vm.lookup(a, 0x20000, Access::Read).unwrap().frame();
        assert!(vm.swap_out(a, 0x20000).unwrap());
        vm.write_u64(b, 0x20000, 0x2222).unwrap();
        assert_eq!(
            vm.lookup(b, 0x20000, Access::Read).unwrap().frame(),
            frame,
            "the freed frame is the next one handed out"
        );
        assert_eq!(run_probe(&mut cpu, &mut vm, a), 0x1111);
        assert_eq!(vm.stats.swap_ins, 1);
        assert_eq!(run_probe(&mut cpu, &mut vm, b), 0x2222);
    }

    /// Runs `code` from 0x10000 on the reference interpreter and on the
    /// stepper (templates off), with `prep` adjusting the entry registers.
    /// Asserts both leave the same exit, guest counters, cache and VM
    /// statistics and registers, and returns the stepper's exit and
    /// counters.
    fn stepper_agrees_with_reference(
        code: &[Instr],
        prep: impl Fn(&mut RegFile),
    ) -> (Exit, CpuStats) {
        let outcome = |fast: bool| {
            let (mut cpu, mut vm, id, mut rf) = machine(code.to_vec(), true);
            cpu.set_fast_path(fast);
            cpu.set_templates(false);
            prep(&mut rf);
            let exit = cpu.run(&mut vm, id, &mut rf, 1000);
            (exit, cpu.stats, cpu.caches.stats(), vm.stats, rf)
        };
        let (reference, step) = (outcome(false), outcome(true));
        assert_eq!(step, reference, "stepper vs reference");
        (step.0, step.1)
    }

    /// The fetch window ends where PCC's bounds end, mid-line and at a
    /// top that is not a multiple of 4, and where the code region ends:
    /// the fetch past either traps exactly as the reference interpreter
    /// traps.
    #[test]
    fn the_fetch_window_stops_at_the_pcc_top_and_the_region_end() {
        let nops = vec![Instr::Nop; 12];
        for top in [0x14, 0x16] {
            let (exit, stats) = stepper_agrees_with_reference(&nops, |rf| {
                rf.pcc = rf.pcc.set_bounds(top, true).unwrap();
            });
            assert_eq!(
                exit,
                Exit::Trap(TrapInfo {
                    cause: TrapCause::Cap(CapFault::LengthViolation),
                    pc: 0x10014,
                    vaddr: Some(0x10014),
                })
            );
            assert_eq!(stats.sb_misses, 1, "one slow fetch, then the window");
            assert_eq!(stats.sb_hits, 4);
        }
        let (exit, _) = stepper_agrees_with_reference(&nops[..3], |_| {});
        assert_eq!(
            exit,
            Exit::Trap(TrapInfo {
                cause: TrapCause::NoCode,
                pc: 0x1000c,
                vaddr: Some(0x1000c),
            })
        );
    }

    /// A `cjalr` to a PCC narrowed to two instructions of the same L1I
    /// line: the fetch past them traps as the reference interpreter's
    /// does, which a fetch window kept across the jump would hide.
    #[test]
    fn a_cjalr_to_a_narrower_pcc_in_the_same_line_traps_like_the_reference() {
        let c1 = creg::ptr(1);
        let code = vec![
            li(ireg::T0, 0x10014),
            Instr::CGetPcc { cd: c1 },
            Instr::CSetAddr {
                cd: c1,
                cb: c1,
                rs: ireg::T0,
            },
            Instr::CSetBoundsImm {
                cd: c1,
                cb: c1,
                imm: 8,
            },
            Instr::CJalr {
                cd: creg::ptr(2),
                cb: c1,
            },
            Instr::Nop,
            Instr::Nop,
            Instr::Nop,
            Instr::Syscall,
        ];
        let (exit, _) = stepper_agrees_with_reference(&code, |_| {});
        assert_eq!(
            exit,
            Exit::Trap(TrapInfo {
                cause: TrapCause::Cap(CapFault::LengthViolation),
                pc: 0x1001c,
                vaddr: Some(0x1001c),
            })
        );
    }
}
