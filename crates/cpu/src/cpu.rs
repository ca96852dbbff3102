//! The fetch/decode/execute core.

use crate::ops::{self, CpuPorts, RefPorts};
use crate::oracle::{self, Divergence, LockstepState};
use crate::region::{DecodedInstr, DecodedRegion};
use crate::template::{self, TOp, TTerm, Template, TmplState};
use crate::{DerivationTrace, RegFile};
use cheri_cap::{CapFault, Capability, Perms};
use cheri_isa::Instr;
use cheri_mem::{AccessKind, CacheHierarchy, FRAME_SIZE};
use cheri_sem::{SemExit, StepCtx};
use cheri_vm::{Access, AsId, Vm, VmError};
use std::collections::HashMap;
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
}

impl PartialEq for CpuStats {
    fn eq(&self, other: &CpuStats) -> bool {
        (self.instret, self.cycles, self.syscalls) == (other.instret, other.cycles, other.syscalls)
    }
}

impl Eq for CpuStats {}

/// Direct-mapped TLB geometry: sets per access kind. Must be a power of
/// two — the set index is `vpn & (TLB_SETS - 1)`.
const TLB_SETS: usize = 256;
/// Read / Write / Exec each get their own way so that a page readable and
/// executable at different physical rights never aliases.
const TLB_KINDS: usize = 3;
/// Sentinel VPN marking an empty TLB slot (no user VPN reaches it:
/// user addresses top out well below `u64::MAX * FRAME_SIZE`).
const TLB_INVALID_VPN: u64 = u64::MAX;

/// One direct-mapped TLB slot: the virtual page number it holds a
/// translation for and the physical frame base it maps to.
#[derive(Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    base: u64,
}

/// Hot-pc table geometry: direct-mapped on the branch-target pc. Must be
/// a power of two. A loop nest has a handful of taken-branch targets, so
/// a small table captures them without thrashing.
const HOT_SLOTS: usize = 64;

/// Promotion state of one taken-branch target. Valid only while the VM
/// translation epoch and the exact PCC still match — the same
/// monotone-epoch argument that makes the TLB sound. Every demotion is
/// therefore free: a guard miss (epoch bump from COW, swap, mprotect or
/// fork; PCC change; slot reuse) refills the slot, and its template state
/// resets to cold with it.
struct HotEntry {
    /// The branch-target pc.
    pc: u64,
    /// VM translation epoch the entry was filled under.
    epoch: u64,
    /// The exact PCC the entry was filled under.
    pcc: Capability,
    /// Guard hits so far, or the compiled template.
    tmpl: TmplState,
}

/// The simulated core: caches, counters, registered code regions, and a
/// direct-mapped TLB that self-invalidates by comparing the VM's
/// translation epoch (no kernel flush calls required).
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
    code: HashMap<AsId, Vec<Arc<DecodedRegion>>>,
    cur_as: Option<AsId>,
    /// Direct-mapped translation cache, `TLB_KINDS * TLB_SETS` slots.
    /// Valid only while `seen_epoch == vm.epoch()` and the context is
    /// `cur_as`; reset wholesale otherwise.
    tlb: Vec<TlbEntry>,
    /// The [`cheri_vm::Vm::epoch`] value the TLB contents were filled
    /// under.
    seen_epoch: u64,
    /// The code region the last fetch hit: straight-line fetch and branch
    /// target resolution stay inside it without touching the region map.
    cur_code: Option<Arc<DecodedRegion>>,
    /// Template promotion state of taken-branch targets, direct-mapped
    /// on the target pc ([`HOT_SLOTS`] slots).
    hot: Vec<Option<HotEntry>>,
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
            code: HashMap::new(),
            cur_as: None,
            tlb: vec![
                TlbEntry {
                    vpn: TLB_INVALID_VPN,
                    base: 0,
                };
                TLB_KINDS * TLB_SETS
            ],
            seen_epoch: 0,
            cur_code: None,
            hot: (0..HOT_SLOTS).map(|_| None).collect(),
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

    /// Whether the stepper (rather than the reference interpreter) runs.
    #[must_use]
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Enables or disables the template tier (promotion of hot branch
    /// targets to compiled trace templates — plain stepping when
    /// disabled). Guest-visible behaviour is identical in both modes.
    /// Disabling discards every compiled template.
    pub fn set_templates(&mut self, on: bool) {
        self.templates = on;
        self.reset_hot();
    }

    /// Whether template promotion is enabled.
    #[must_use]
    pub fn templates(&self) -> bool {
        self.templates
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

    /// Whether the test-only flush weakening is active.
    #[must_use]
    pub fn weaken_flush(&self) -> bool {
        self.weaken_flush
    }

    /// Holds the core on plain stepping (no template promotion). Every
    /// cache access is charged at its exact program point in every mode,
    /// and a template holds no store, capability op, syscall or trap, so
    /// this is not needed for exactness: fault-plan arming and scenarios
    /// set it only to stay on the tier their recorded runs used.
    pub fn set_exact_mem_events(&mut self, on: bool) {
        self.exact_events = on;
    }

    /// Whether the core is held on plain stepping.
    #[must_use]
    pub fn exact_mem_events(&self) -> bool {
        self.exact_events
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

    /// Disarms the lockstep oracle, discarding any recorded divergence.
    pub fn clear_lockstep(&mut self) {
        self.lockstep = None;
    }

    /// Takes the first divergence the lockstep oracle observed, if any.
    pub fn take_divergence(&mut self) -> Option<Divergence> {
        self.lockstep.as_mut().and_then(|l| l.divergence.take())
    }

    /// Invalidates every TLB slot, the resident code region and the
    /// hot-pc table.
    fn reset_tlb(&mut self) {
        for e in &mut self.tlb {
            e.vpn = TLB_INVALID_VPN;
        }
        self.cur_code = None;
        self.reset_hot();
    }

    /// Invalidates the hot-pc table (and with it every template).
    fn reset_hot(&mut self) {
        for e in &mut self.hot {
            *e = None;
        }
    }

    /// Registers a pre-decoded, immutable code region (done by the loader
    /// / RTLD when mapping an object's text segment). The region is shared
    /// by reference: registration, fork and residency never copy it.
    pub fn register_region(&mut self, id: AsId, region: Arc<DecodedRegion>) {
        self.code.entry(id).or_default().push(region);
        self.cur_code = None;
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
        self.code.remove(&id);
        self.cur_code = None;
        self.reset_hot();
    }

    /// Copies the code map of `from` to `to` (fork: the child shares the
    /// parent's text mappings). Regions are immutable and `Arc`-shared, so
    /// this bumps reference counts instead of cloning instruction vectors.
    pub fn clone_code(&mut self, from: AsId, to: AsId) {
        if let Some(regions) = self.code.get(&from) {
            let shared = regions.clone();
            self.code.insert(to, shared);
            self.cur_code = None;
            self.reset_hot();
        }
    }

    /// Drops every cached translation and the resident code block.
    ///
    /// Kernel code no longer needs to call this: mapping changes bump the
    /// VM's translation epoch and the Cpu self-invalidates by comparing
    /// epochs on the next access. It remains public for tests and tools
    /// that want a cold-cache starting point.
    pub fn flush_tlb(&mut self) {
        self.reset_tlb();
    }

    /// Charges the cost of work performed by a trusted runtime service on
    /// behalf of the guest (allocator internals, RTLD, kernel copies).
    pub fn charge(&mut self, instrs: u64, cycles: u64) {
        self.stats.instret += instrs;
        self.stats.cycles += cycles;
    }

    fn set_context(&mut self, id: AsId) {
        if self.cur_as != Some(id) {
            self.cur_as = Some(id);
            self.reset_tlb();
        }
    }

    /// TLB slot index for a (access kind, virtual page number) pair.
    #[inline]
    fn tlb_index(access: Access, vpn: u64) -> usize {
        access as usize * TLB_SETS + (vpn as usize & (TLB_SETS - 1))
    }

    pub(crate) fn translate_cached(
        &mut self,
        vm: &mut Vm,
        id: AsId,
        vaddr: u64,
        access: Access,
        pc: u64,
    ) -> Result<u64, TrapInfo> {
        // Self-invalidate: any mapping mutation since the TLB was filled
        // shows up as an epoch mismatch.
        let epoch = vm.epoch();
        if epoch != self.seen_epoch {
            self.reset_tlb();
            self.seen_epoch = epoch;
        }
        let vpn = vaddr / FRAME_SIZE;
        let idx = Self::tlb_index(access, vpn);
        let e = self.tlb[idx];
        if e.vpn == vpn {
            self.stats.tlb_hits += 1;
            return Ok(e.base + vaddr % FRAME_SIZE);
        }
        self.stats.tlb_misses += 1;
        let pa = vm.translate(id, vaddr, access).map_err(|e| TrapInfo {
            cause: TrapCause::Vm(e),
            pc,
            vaddr: Some(vaddr),
        })?;
        // The translation itself may have bumped the epoch (COW resolution,
        // swap-in): re-check before caching, or the fill would survive an
        // invalidation it was itself the cause of.
        let now = vm.epoch();
        if now != self.seen_epoch {
            self.reset_tlb();
            self.seen_epoch = now;
        }
        self.tlb[idx] = TlbEntry {
            vpn,
            base: pa.0 - pa.0 % FRAME_SIZE,
        };
        Ok(pa.0)
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

    /// Scans the region map for the region containing `pc`.
    fn find_region(&self, id: AsId, pc: u64) -> Option<Arc<DecodedRegion>> {
        self.code
            .get(&id)?
            .iter()
            .find(|r| r.contains(pc))
            .map(Arc::clone)
    }

    fn fetch(
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
        if let Some(r) = &self.cur_code {
            if r.contains(pc) {
                self.stats.sb_hits += 1;
                return Ok((r.instr_at(r.index_of(pc)), r.start()));
            }
        }
        self.stats.sb_misses += 1;
        let region = self.find_region(id, pc).ok_or(TrapInfo {
            cause: TrapCause::NoCode,
            pc,
            vaddr: Some(pc),
        })?;
        let di = region.instr_at(region.index_of(pc));
        let rstart = region.start();
        self.cur_code = Some(region);
        Ok((di, rstart))
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
        let promote = self.templates && !self.exact_events && self.lockstep.is_none();
        let mut executed = 0u64;
        // Run entry counts as a control transfer: a guest resumed at a
        // loop head re-enters its template at once.
        let mut taken = promote;
        while executed < max_instrs {
            if taken && self.enter_template(vm, rf, max_instrs - executed, &mut executed) {
                continue;
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
    /// pass fits the remaining `budget`. Returns whether a template ran.
    fn enter_template(
        &mut self,
        vm: &Vm,
        rf: &mut RegFile,
        budget: u64,
        executed: &mut u64,
    ) -> bool {
        let pc = rf.pc;
        let epoch = vm.epoch();
        let slot = (pc >> 2) as usize & (HOT_SLOTS - 1);
        // Guard misses, cold counts and rejected targets settle in place:
        // they are most of the lookups, and an entry is over 100 bytes.
        match &mut self.hot[slot] {
            Some(e) if e.pc == pc && e.epoch == epoch && e.pcc == rf.pcc => match &mut e.tmpl {
                TmplState::Cold(hits) => {
                    *hits = hits.saturating_add(1);
                    if *hits < template::PROMOTE_THRESHOLD {
                        return false;
                    }
                }
                TmplState::Rejected => return false,
                TmplState::Hot(_) => {}
            },
            other => {
                *other = Some(HotEntry {
                    pc,
                    epoch,
                    pcc: rf.pcc,
                    tmpl: TmplState::default(),
                });
                return false;
            }
        }
        // Promotion or execution: the entry moves out of its slot for the
        // duration (no refcount traffic) and back at the end.
        let Some(mut e) = self.hot[slot].take() else {
            return false;
        };
        if let TmplState::Cold(_) = e.tmpl {
            if let Some(state) = self.compile_at(epoch, rf) {
                e.tmpl = state;
            }
        }
        let ran = match &e.tmpl {
            // Below one full pass of budget the template cannot stop at
            // the exact instruction stepping would, so step instead.
            TmplState::Hot(t) if budget >= u64::from(t.n_trace) => {
                self.stats.tmpl_hits += 1;
                self.run_template(t, rf, budget, executed);
                true
            }
            _ => false,
        };
        self.hot[slot] = Some(e);
        ran
    }

    /// Compiles the trace at `rf.pc`, entered under `rf.pcc` and VM
    /// `epoch`. `None` means "not yet": the pc's translation is not in
    /// the TLB or its region is not resident (both take no VM call to
    /// check, so promotion never perturbs the VM); the next guard hit
    /// retries.
    fn compile_at(&mut self, epoch: u64, rf: &RegFile) -> Option<TmplState> {
        let pc = rf.pc;
        if rf.pcc.check_access(pc, 4, Perms::EXECUTE).is_err() {
            return Some(TmplState::Rejected);
        }
        let vpn = pc / FRAME_SIZE;
        let tlb = self.tlb[Self::tlb_index(Access::Exec, vpn)];
        if self.seen_epoch != epoch || tlb.vpn != vpn {
            return None;
        }
        let region = self.cur_code.as_ref().filter(|r| r.contains(pc))?;
        let pcc_top = rf.pcc.base().saturating_add(rf.pcc.length());
        let pcc_rem = ((pcc_top - pc) / 4) as usize;
        Some(
            match template::compile(
                region,
                region.index_of(pc),
                pc,
                tlb.base + pc % FRAME_SIZE,
                pcc_rem,
                self.caches.l1_line(),
            ) {
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

    /// Executes a compiled trace template: loads the read∪write register
    /// set into locals, runs the straight-line plan (looping internally
    /// on a backedge terminator) until a side exit, the terminator's
    /// departure, or budget exhaustion, then flushes the write set and
    /// accounts retired instructions, base cycles and line-coalesced
    /// fetches exactly as stepping would have.
    ///
    /// The caller guarantees `budget >= n_trace` (so at least one full
    /// pass fits) and that the entry guard (pc/epoch/PCC) holds; pure-int
    /// ops can neither trap nor touch memory, so the guard stays valid
    /// for the whole execution and no exit other than a pc redirect can
    /// occur.
    fn run_template(&mut self, t: &Template, rf: &mut RegFile, budget: u64, executed: &mut u64) {
        let n_trace = u64::from(t.n_trace);
        let mut locals = [0u64; template::MAX_LOCALS];
        for &(reg, local) in &t.init {
            locals[usize::from(local)] = rf.gpr[usize::from(reg)];
        }
        let iters_max = budget / n_trace;
        let mut full = 0u64;
        let mut side: Option<(usize, u64)> = None;
        let next;
        'run: loop {
            for (k, op) in t.ops.iter().enumerate() {
                match *op {
                    TOp::Nop => {}
                    TOp::Li { d, imm } => locals[usize::from(d)] = imm,
                    TOp::Mov { d, s } => locals[usize::from(d)] = locals[usize::from(s)],
                    TOp::Add { d, a, b } => {
                        locals[usize::from(d)] =
                            locals[usize::from(a)].wrapping_add(locals[usize::from(b)]);
                    }
                    TOp::Sub { d, a, b } => {
                        locals[usize::from(d)] =
                            locals[usize::from(a)].wrapping_sub(locals[usize::from(b)]);
                    }
                    TOp::Mul { d, a, b } => {
                        locals[usize::from(d)] =
                            locals[usize::from(a)].wrapping_mul(locals[usize::from(b)]);
                    }
                    TOp::DivU { d, a, b } => {
                        locals[usize::from(d)] = locals[usize::from(a)]
                            .checked_div(locals[usize::from(b)])
                            .unwrap_or(0);
                    }
                    TOp::DivS { d, a, b } => {
                        let den = locals[usize::from(b)] as i64;
                        let num = locals[usize::from(a)] as i64;
                        locals[usize::from(d)] = if den == 0 {
                            0
                        } else {
                            num.wrapping_div(den) as u64
                        };
                    }
                    TOp::RemU { d, a, b } => {
                        let den = locals[usize::from(b)];
                        locals[usize::from(d)] = if den == 0 {
                            0
                        } else {
                            locals[usize::from(a)] % den
                        };
                    }
                    TOp::And { d, a, b } => {
                        locals[usize::from(d)] = locals[usize::from(a)] & locals[usize::from(b)];
                    }
                    TOp::Or { d, a, b } => {
                        locals[usize::from(d)] = locals[usize::from(a)] | locals[usize::from(b)];
                    }
                    TOp::Xor { d, a, b } => {
                        locals[usize::from(d)] = locals[usize::from(a)] ^ locals[usize::from(b)];
                    }
                    TOp::Nor { d, a, b } => {
                        locals[usize::from(d)] = !(locals[usize::from(a)] | locals[usize::from(b)]);
                    }
                    TOp::Sllv { d, a, b } => {
                        locals[usize::from(d)] =
                            locals[usize::from(a)] << (locals[usize::from(b)] & 63);
                    }
                    TOp::Srlv { d, a, b } => {
                        locals[usize::from(d)] =
                            locals[usize::from(a)] >> (locals[usize::from(b)] & 63);
                    }
                    TOp::Srav { d, a, b } => {
                        locals[usize::from(d)] = ((locals[usize::from(a)] as i64)
                            >> (locals[usize::from(b)] & 63))
                            as u64;
                    }
                    TOp::Slt { d, a, b } => {
                        locals[usize::from(d)] = u64::from(
                            (locals[usize::from(a)] as i64) < (locals[usize::from(b)] as i64),
                        );
                    }
                    TOp::Sltu { d, a, b } => {
                        locals[usize::from(d)] =
                            u64::from(locals[usize::from(a)] < locals[usize::from(b)]);
                    }
                    TOp::AddI { d, s, imm } => {
                        locals[usize::from(d)] = locals[usize::from(s)].wrapping_add(imm);
                    }
                    TOp::AndI { d, s, imm } => {
                        locals[usize::from(d)] = locals[usize::from(s)] & imm;
                    }
                    TOp::OrI { d, s, imm } => {
                        locals[usize::from(d)] = locals[usize::from(s)] | imm;
                    }
                    TOp::XorI { d, s, imm } => {
                        locals[usize::from(d)] = locals[usize::from(s)] ^ imm;
                    }
                    TOp::SllI { d, s, sh } => {
                        locals[usize::from(d)] = locals[usize::from(s)] << sh;
                    }
                    TOp::SrlI { d, s, sh } => {
                        locals[usize::from(d)] = locals[usize::from(s)] >> sh;
                    }
                    TOp::SraI { d, s, sh } => {
                        locals[usize::from(d)] = ((locals[usize::from(s)] as i64) >> sh) as u64;
                    }
                    TOp::SltI { d, s, imm } => {
                        locals[usize::from(d)] = u64::from((locals[usize::from(s)] as i64) < imm);
                    }
                    TOp::SltuI { d, s, imm } => {
                        locals[usize::from(d)] = u64::from(locals[usize::from(s)] < imm);
                    }
                    TOp::Branch {
                        cond,
                        a,
                        b,
                        taken_next,
                    } => {
                        if cond.taken(locals[usize::from(a)], locals[usize::from(b)]) {
                            side = Some((k, taken_next));
                            next = taken_next;
                            break 'run;
                        }
                    }
                }
            }
            full += 1;
            match t.term {
                TTerm::Loop => {
                    if full == iters_max {
                        next = t.entry_pc;
                        break 'run;
                    }
                }
                TTerm::CondLoop { cond, a, b } => {
                    if cond.taken(locals[usize::from(a)], locals[usize::from(b)]) {
                        if full == iters_max {
                            next = t.entry_pc;
                            break 'run;
                        }
                    } else {
                        next = t.fall_pc;
                        break 'run;
                    }
                }
                TTerm::Jump(target) => {
                    next = target;
                    break 'run;
                }
                TTerm::Jr { s } => {
                    next = locals[usize::from(s)];
                    break 'run;
                }
                TTerm::Jalr { d, s } => {
                    // Handler order: link write first, so `d == s` jumps
                    // to the link address.
                    locals[usize::from(d)] = t.fall_pc;
                    next = locals[usize::from(s)];
                    break 'run;
                }
                TTerm::Fallthrough => {
                    next = t.fall_pc;
                    break 'run;
                }
            }
        }
        // Metric settlement, in program order: the completed passes,
        // then the side-exiting partial pass (if any).
        let mut retired = full * n_trace;
        let mut cycles = full * t.cycles_total;
        if full > 0 {
            if let [(pa, count)] = t.fetch_runs[..] {
                // Single-line trace: every fetch of every pass hits the
                // same line, so the whole run coalesces into one event.
                self.fetch_run(pa, count * full);
            } else {
                for _ in 0..full {
                    for &(pa, count) in &t.fetch_runs {
                        self.fetch_run(pa, count);
                    }
                }
            }
        }
        if let Some((k, _)) = side {
            retired += k as u64 + 1;
            cycles += u64::from(t.cum_cycles[k]);
            let mut rem = k as u64 + 1;
            for &(pa, count) in &t.fetch_runs {
                let take = count.min(rem);
                self.fetch_run(pa, take);
                rem -= take;
                if rem == 0 {
                    break;
                }
            }
        }
        self.stats.instret += retired;
        self.stats.cycles += cycles;
        *executed += retired;
        if self.weaken_flush && !self.flush_weakened {
            // --weaken-flush: drop the first execution's write set on
            // the floor (one-shot so the guest still terminates).
            self.flush_weakened = true;
        } else {
            for &(local, reg) in &t.flush {
                rf.gpr[usize::from(reg)] = locals[usize::from(local)];
            }
        }
        rf.pc = next;
    }

    /// Executes a single instruction.
    fn step(&mut self, vm: &mut Vm, id: AsId, rf: &mut RegFile) -> StepResult {
        let pc = rf.pc;
        let (di, rstart) = self.fetch(vm, id, rf)?;
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
    use cheri_vm::{Backing, Prot};

    /// Builds a machine with one space, maps `code` at 0x10000 (rx) and a
    /// rw data page at 0x20000, returns (cpu, vm, as, regfile).
    fn machine(code: Vec<Instr>, purecap: bool) -> (Cpu, Vm, AsId, RegFile) {
        let mut vm = Vm::new(128);
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
        vm.map(id, Some(0x20000), 4096, Prot::rw(), Backing::Zero, "data")
            .unwrap();
        let mut cpu = Cpu::new();
        cpu.register_code(id, 0x10000, std::sync::Arc::new(code));
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
        (cpu, vm, id, rf)
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
                results.push((exits, cpu.stats, cpu.caches.stats(), vm.stats, rf.clone()));
            }
            for (r, (mode, ..)) in results.iter().zip(MODES).skip(1) {
                assert_eq!(*r, results[0], "{probe}: {mode} vs reference");
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
        // Every kernel-side mapping mutation — mprotect, swap-out, fork,
        // COW resolution — bumps the VM translation epoch, which fails
        // the hot-pc guard, refills the slot and resets its template
        // state to cold. Each phase below must therefore recompile from
        // scratch: the compile counter is the demotion witness.
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
        assert!(cpu.weaken_flush());
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
}
