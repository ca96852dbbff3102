//! The unified parallel execution harness.
//!
//! Every experiment in this reproduction — Table 1's corpus cases, Table 3's
//! case × variant × config matrix, Figure 4's multi-trial workload sweeps,
//! the syscall micro-benchmarks, the cache-size sweep — boils down to the
//! same operation: *build a guest program, run it in a fresh [`System`],
//! record what happened*. Each case runs in its own isolated kernel with no
//! shared mutable state, so the whole battery is embarrassingly parallel.
//!
//! This module factors that operation out once:
//!
//! * [`RunSpec`] — one case, as **plain data**: a declarative
//!   [`ProgramSpec`] naming the guest program plus the ABI, codegen
//!   options, instruction budget, wall-clock deadline, deterministic seed
//!   and (optionally) a kernel/cache configuration override. Because a
//!   spec is `Hash + Eq` and round-trips through JSON, it can be
//!   content-addressed ([`crate::cache`]) and shipped to another machine
//!   ([`Shard`]);
//! * [`CaseReport`] — what happened: the outcome (exit status, load error,
//!   isolated panic, or missed deadline), the performance counters of the
//!   run, and wall time;
//! * [`Harness`] — the executor: fans a slice of specs across a
//!   `std::thread` worker pool sharing one atomic work index, then
//!   reassembles the reports **in submission order**, so every aggregate
//!   computed from them is bit-identical to a sequential run.
//!   [`Harness::run_session`] additionally supports report caching, shard
//!   filtering, progress reporting and streaming callbacks.
//!
//! Determinism contract: a [`RunSpec`] fully determines its
//! [`CaseReport`] (minus wall time) because each case gets a fresh
//! `Kernel`. `Harness::new(1)` and `Harness::new(n)` therefore return
//! reports that differ only in `wall`, which no aggregation consumes.
//! Sharding preserves the contract: a shard executes the subset of
//! submission indices it owns and reports them in submission order, so the
//! concatenation of all shards, merged by index ([`merge_shards`]), is
//! identical to an unsharded run.

use crate::cache::ReportCache;
use crate::fault::{FaultCounters, FaultPlan};
use crate::json::Json;
use crate::spec::{ProgramSpec, Registry};
use crate::trace::SizeCdf;
use crate::{Metrics, System};
use cheri_cap::{CapFault, CapFormat};
use cheri_cpu::TrapCause;
use cheri_isa::codegen::{Abi, CodegenOpts};
use cheri_kernel::{AbiMode, AllocEvidence, ExitStatus, KernelConfig, SpawnOpts};
use cheri_mem::{CacheConfig, CacheHierarchy};
use cheri_vm::VmError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Everything needed to run one case — plain data throughout, so two specs
/// can be compared, hashed, serialized, and executed on different machines
/// with identical results.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Display name (used in reports and `--json` lines).
    pub name: String,
    /// Declarative identity of the guest program (lowered via a
    /// [`Registry`] at execution time).
    pub program: ProgramSpec,
    /// Codegen options handed to the lowering. [`RunSpec::from_json`] and
    /// [`RunSpec::new`] accept only a pointer size code generation
    /// supports: 8 bytes for mips64, 16 or 32 for purecap.
    pub opts: CodegenOpts,
    /// Process ABI to run under.
    pub abi: AbiMode,
    /// Run with the AddressSanitizer runtime (shadow region mapped,
    /// `break` = sanitizer abort).
    pub asan: bool,
    /// Per-process instruction budget (`None` = kernel default).
    pub instr_budget: Option<u64>,
    /// Wall-clock budget for the case (`None` = unlimited). A case that
    /// exceeds it is reported as [`CaseOutcome::DeadlineExceeded`] instead
    /// of stalling its worker.
    pub deadline: Option<Duration>,
    /// Deterministic input seed handed to the lowering.
    pub seed: u64,
    /// Kernel configuration for the fresh kernel this case runs in.
    /// [`RunSpec::from_json`] and [`RunSpec::with_config`] accept only
    /// `phys_frames` from 1 to 65,536 (256 MiB).
    pub config: KernelConfig,
    /// Optional shared-L2 capacity override in bytes (the cache-sweep
    /// experiment); L1 geometry and line size stay at the paper's defaults.
    /// [`RunSpec::from_json`] and [`RunSpec::with_l2_size`] accept only a
    /// power of two from 16 KiB to 16 MiB.
    pub l2_size: Option<u64>,
    /// Collect the capability-derivation trace (Figure 5); the report then
    /// carries the size distribution. Traced runs are never cached.
    pub trace: bool,
    /// Optional fault-injection plan, armed on the fresh kernel before the
    /// guest spawns. Part of the cache identity (a faulted run never
    /// serves a fault-free entry); `None` encodes to nothing, so fault-free
    /// spec JSON — and every existing golden — is byte-identical to before
    /// the fault plane existed.
    pub fault: Option<FaultPlan>,
    /// Execution tier for the guest. Excluded from the report-cache
    /// identity (every tier produces byte-identical guest metrics by
    /// contract); [`ExecMode::Template`] (the default) encodes to
    /// nothing, so default spec JSON — and every existing golden and
    /// cache entry — is byte-identical to before the tiers existed.
    pub exec_mode: ExecMode,
    /// Differential-oracle mode for this case. Excluded from the
    /// report-cache identity (a clean oracle run produces the same guest
    /// results as a plain run by contract); [`OracleMode::Off`] encodes to
    /// nothing, so oracle-free spec JSON stays byte-identical to before
    /// the oracle plane existed. Lockstep shadows the stepper, so a
    /// [`ExecMode::SingleStep`] spec does not arm it.
    pub oracle: OracleMode,
    /// Test-only: weaken the register-form `csetbounds` semantics in the
    /// fast machine (skip the bounds clamp) so the oracle's self-test can
    /// prove the comparison has teeth. Ignored under
    /// [`ExecMode::SingleStep`]. Never cached; `false` encodes to
    /// nothing.
    pub weaken_sem: bool,
    /// The strict/hardened membrane split (see DESIGN.md "The hardened
    /// membrane"). Part of the cache identity (it changes what the guest
    /// observes); [`MembraneMode::Strict`] encodes to nothing, so
    /// strict-mode spec JSON — and every existing golden and cache entry —
    /// is byte-identical to before the membrane existed.
    pub abi_mode: MembraneMode,
    /// Lockstep sampling cadence: check the architectural diff at every
    /// Nth dispatched instruction instead of every one, making lockstep cheap
    /// enough to arm across a full table. `1` (the default, encodes to
    /// nothing) is full lockstep; the value is a sampling knob only and by
    /// contract never changes guest results, so it is excluded from the
    /// cache identity like `oracle` itself.
    pub oracle_every: u64,
    /// Test-only: disable the hardened quarantine (reuse-after-free
    /// allowed) so the attack table's self-test can prove the membrane is
    /// load-bearing. Never cached; `false` encodes to nothing.
    pub weaken_quarantine: bool,
    /// Test-only: drop one compiled template's exit register flush so the
    /// cross-tier equivalence gates can prove they detect a residency
    /// bug. Never cached; `false` encodes to nothing.
    pub weaken_flush: bool,
}

/// Which execution tier the guest runs on. All three produce
/// byte-identical guest-visible results by contract — the tiers trade
/// host speed only, and the equivalence gates hold them to it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The reference interpreter: full VM walk and region scan per
    /// fetch, direct semantics dispatch — the equivalence-gate baseline.
    SingleStep,
    /// Plain stepping (label `superblock`): the TLB stepper over
    /// decode-once regions, with template promotion off.
    Superblock,
    /// The full tier stack (the default): the stepper, plus hot branch
    /// targets compiled to register-allocated trace templates with
    /// line-coalesced fetches.
    #[default]
    Template,
}

impl ExecMode {
    fn label(self) -> Option<&'static str> {
        match self {
            ExecMode::SingleStep => Some("single"),
            ExecMode::Superblock => Some("superblock"),
            ExecMode::Template => None,
        }
    }

    /// Parses a mode label as used by spec JSON and `--exec-mode`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown label.
    pub fn from_label(s: &str) -> Result<ExecMode, String> {
        match s {
            "single" => Ok(ExecMode::SingleStep),
            "superblock" => Ok(ExecMode::Superblock),
            "template" => Ok(ExecMode::Template),
            other => Err(format!("unknown exec mode `{other}`")),
        }
    }
}

/// Strict vs hardened run-time membrane: one process ABI, two policies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MembraneMode {
    /// The paper's baseline: capability violations fault, allocator misuse
    /// is denied with errno, freed memory recycles immediately.
    #[default]
    Strict,
    /// Deterministic repair: frees quarantine and revocation sweeps kill
    /// stale capabilities before reuse; double free / stale realloc /
    /// unauthorised fixed mmap are absorbed as audited repairs. ISA
    /// semantics are untouched — hardened runs stay lockstep-clean.
    Hardened,
}

/// How (and whether) a case is diffed against the reference semantics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OracleMode {
    /// No oracle (the default).
    #[default]
    Off,
    /// Shadow every dispatched instruction with a side-effect-free
    /// re-execution of the shared semantics and diff the full
    /// architectural state; the first mismatch becomes
    /// [`CaseOutcome::Divergence`].
    Lockstep,
    /// Run the case twice — the spec's own tier, then the reference
    /// interpreter — and diff the guest-visible results
    /// (outcome, console, metrics, scenario stats). A clean replay
    /// returns the fast run's report byte-identically.
    Replay,
}

impl OracleMode {
    fn label(self) -> Option<&'static str> {
        match self {
            OracleMode::Off => None,
            OracleMode::Lockstep => Some("lockstep"),
            OracleMode::Replay => Some("replay"),
        }
    }

    fn from_label(s: &str) -> Result<OracleMode, String> {
        match s {
            "lockstep" => Ok(OracleMode::Lockstep),
            "replay" => Ok(OracleMode::Replay),
            other => Err(format!("unknown oracle mode `{other}`")),
        }
    }
}

impl RunSpec {
    /// A spec with the default kernel configuration, no budget override, no
    /// deadline, no sanitizer, no tracing and seed 0.
    ///
    /// # Panics
    ///
    /// Panics when `opts.ptr_size` is not one its ABI supports (8 for
    /// mips64, 16 or 32 for purecap), or when `program` is a scenario
    /// outside 1..=64 clients or 1..=1,024 queries.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        program: ProgramSpec,
        opts: CodegenOpts,
        abi: AbiMode,
    ) -> RunSpec {
        RunSpec {
            name: name.into(),
            program: check_scenario_shape(program).unwrap_or_else(|e| panic!("{e}")),
            opts: check_ptr_size(opts).unwrap_or_else(|e| panic!("{e}")),
            abi,
            asan: false,
            instr_budget: None,
            deadline: None,
            seed: 0,
            config: KernelConfig::default(),
            l2_size: None,
            trace: false,
            fault: None,
            exec_mode: ExecMode::Template,
            oracle: OracleMode::Off,
            weaken_sem: false,
            abi_mode: MembraneMode::Strict,
            oracle_every: 1,
            weaken_quarantine: false,
            weaken_flush: false,
        }
    }

    /// Sets the input seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> RunSpec {
        self.seed = seed;
        self
    }

    /// Sets the instruction budget.
    ///
    /// # Panics
    ///
    /// Panics when `budget` is outside 1..=2,000,000,000.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> RunSpec {
        self.instr_budget =
            Some(check_instr_budget("instr_budget", budget).unwrap_or_else(|e| panic!("{e}")));
        self
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> RunSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Enables the AddressSanitizer runtime.
    #[must_use]
    pub fn with_asan(mut self, asan: bool) -> RunSpec {
        self.asan = asan;
        self
    }

    /// Overrides the kernel configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config.phys_frames` is outside 1..=65,536,
    /// `config.quantum` or `config.pipe_capacity` is 0, or
    /// `config.default_instr_budget` is outside 1..=2,000,000,000.
    #[must_use]
    pub fn with_config(mut self, config: KernelConfig) -> RunSpec {
        self.config = check_config(config).unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Overrides the shared-L2 capacity (bytes).
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is not a power of two from 16 KiB to 16 MiB.
    #[must_use]
    pub fn with_l2_size(mut self, bytes: u64) -> RunSpec {
        self.l2_size = Some(check_l2_size(bytes).unwrap_or_else(|e| panic!("{e}")));
        self
    }

    /// Enables capability-derivation tracing.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> RunSpec {
        self.trace = trace;
        self
    }

    /// Arms a fault-injection plan on this case's kernel.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> RunSpec {
        self.fault = Some(plan);
        self
    }

    /// Selects the execution tier.
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> RunSpec {
        self.exec_mode = mode;
        self
    }

    /// Test-only: drops one template exit flush so the cross-tier gates
    /// can prove a register-residency bug is actually detected.
    #[must_use]
    pub fn with_weaken_flush(mut self, weaken: bool) -> RunSpec {
        self.weaken_flush = weaken;
        self
    }

    /// Selects the differential-oracle mode.
    #[must_use]
    pub fn with_oracle(mut self, oracle: OracleMode) -> RunSpec {
        self.oracle = oracle;
        self
    }

    /// Test-only: weakens the fast machine's `csetbounds` semantics so the
    /// oracle self-test can prove a divergence is actually detected.
    #[must_use]
    pub fn with_weaken_sem(mut self, weaken: bool) -> RunSpec {
        self.weaken_sem = weaken;
        self
    }

    /// Selects the strict/hardened membrane.
    #[must_use]
    pub fn with_abi_mode(mut self, mode: MembraneMode) -> RunSpec {
        self.abi_mode = mode;
        self
    }

    /// Sets the lockstep sampling cadence (clamped to ≥ 1).
    #[must_use]
    pub fn with_oracle_every(mut self, every: u64) -> RunSpec {
        self.oracle_every = every.max(1);
        self
    }

    /// Test-only: disables the hardened quarantine so the attack table's
    /// self-test can prove a weakened membrane is actually detected.
    #[must_use]
    pub fn with_weaken_quarantine(mut self, weaken: bool) -> RunSpec {
        self.weaken_quarantine = weaken;
        self
    }

    /// Canonical JSON encoding of the complete spec.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name.clone())),
            ("spec", self.program.to_json()),
            ("opts", codegen_opts_to_json(self.opts)),
            ("abi", Json::str(abi_mode_label(self.abi))),
            ("asan", Json::Bool(self.asan)),
            ("instr_budget", Json::opt(self.instr_budget.map(Json::u64))),
            (
                "deadline_nanos",
                Json::opt(self.deadline.map(|d| Json::Int(d.as_nanos() as i128))),
            ),
            ("seed", Json::u64(self.seed)),
            ("config", kernel_config_to_json(self.config)),
            ("l2_size", Json::opt(self.l2_size.map(Json::u64))),
            ("trace", Json::Bool(self.trace)),
        ];
        if let Some(mode) = self.exec_mode.label() {
            fields.push(("exec_mode", Json::str(mode)));
        }
        if let Some(plan) = &self.fault {
            fields.push(("fault", plan.to_json()));
        }
        if let Some(mode) = self.oracle.label() {
            fields.push(("oracle", Json::str(mode)));
        }
        if self.weaken_sem {
            fields.push(("weaken_sem", Json::Bool(true)));
        }
        if self.abi_mode == MembraneMode::Hardened {
            fields.push(("abi_mode", Json::str("hardened")));
        }
        if self.oracle_every != 1 {
            fields.push(("oracle_every", Json::u64(self.oracle_every)));
        }
        if self.weaken_quarantine {
            fields.push(("weaken_quarantine", Json::Bool(true)));
        }
        if self.weaken_flush {
            fields.push(("weaken_flush", Json::Bool(true)));
        }
        Json::obj(fields)
    }

    /// Decodes [`RunSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is not a recognised encoding.
    pub fn from_json(v: &Json) -> Result<RunSpec, String> {
        Ok(RunSpec {
            name: v.field("name")?.as_str()?.to_string(),
            program: check_scenario_shape(ProgramSpec::from_json(v.field("spec")?)?)?,
            opts: check_ptr_size(codegen_opts_from_json(v.field("opts")?)?)?,
            abi: abi_mode_from_label(v.field("abi")?.as_str()?)?,
            asan: v.field("asan")?.as_bool()?,
            instr_budget: v
                .field("instr_budget")?
                .as_opt(Json::as_u64)?
                .map(|n| check_instr_budget("instr_budget", n))
                .transpose()?,
            deadline: v
                .field("deadline_nanos")?
                .as_opt(Json::as_u128)?
                .map(|n| Duration::from_nanos(u64::try_from(n).unwrap_or(u64::MAX))),
            seed: v.field("seed")?.as_u64()?,
            config: check_config(kernel_config_from_json(v.field("config")?)?)?,
            l2_size: v
                .field("l2_size")?
                .as_opt(Json::as_u64)?
                .map(check_l2_size)
                .transpose()?,
            trace: v.field("trace")?.as_bool()?,
            // Absent in all pre-fault-plane encodings; `get` keeps them
            // parseable.
            fault: match v.get("fault") {
                Some(plan) => Some(FaultPlan::from_json(plan)?),
                None => None,
            },
            exec_mode: match v.get("exec_mode") {
                Some(mode) => ExecMode::from_label(mode.as_str()?)?,
                // Legacy two-tier encoding: `"fast_path":false` meant the
                // single-step interpreter; absent meant the fast path.
                None => match v.get("fast_path") {
                    Some(b) if !b.as_bool()? => ExecMode::SingleStep,
                    _ => ExecMode::Template,
                },
            },
            oracle: match v.get("oracle") {
                Some(mode) => OracleMode::from_label(mode.as_str()?)?,
                None => OracleMode::Off,
            },
            weaken_sem: match v.get("weaken_sem") {
                Some(b) => b.as_bool()?,
                None => false,
            },
            abi_mode: match v.get("abi_mode") {
                Some(mode) => match mode.as_str()? {
                    "strict" => MembraneMode::Strict,
                    "hardened" => MembraneMode::Hardened,
                    other => return Err(format!("unknown abi_mode `{other}`")),
                },
                None => MembraneMode::Strict,
            },
            oracle_every: match v.get("oracle_every") {
                Some(n) => n.as_u64()?.max(1),
                None => 1,
            },
            weaken_quarantine: match v.get("weaken_quarantine") {
                Some(b) => b.as_bool()?,
                None => false,
            },
            weaken_flush: match v.get("weaken_flush") {
                Some(b) => b.as_bool()?,
                None => false,
            },
        })
    }
}

/// The L2 capacities a spec may ask for: a power of two from 16 KiB to
/// 16 MiB. The cache sweep spans 64 KiB–1 MiB around the 256 KiB default;
/// outside this domain the 8-way, 64-byte-line model has no set to index
/// (below 512 bytes) or allocates more host memory than a case may use.
const L2_SIZE_DOMAIN: std::ops::RangeInclusive<u64> = (16 << 10)..=(16 << 20);

fn check_l2_size(bytes: u64) -> Result<u64, String> {
    if bytes.is_power_of_two() && L2_SIZE_DOMAIN.contains(&bytes) {
        Ok(bytes)
    } else {
        Err(format!(
            "l2_size {bytes} is not a power of two from 16 KiB to 16 MiB"
        ))
    }
}

/// The instruction budgets a spec may set, per process
/// (`instr_budget`) or as the kernel default (`default_instr_budget`):
/// 1 up to the kernel's own default of 2×10⁹, the largest any caller
/// passes (`KernelConfig::default` and the `capfmt` workload test). A
/// zero budget ends every process as budget-exhausted before its first
/// instruction, and with no deadline a budget of 2^64 − 1 lets a guest
/// that never exits hold its worker forever.
const INSTR_BUDGET_DOMAIN: std::ops::RangeInclusive<u64> = 1..=2_000_000_000;

fn check_instr_budget(key: &str, budget: u64) -> Result<u64, String> {
    if INSTR_BUDGET_DOMAIN.contains(&budget) {
        Ok(budget)
    } else {
        Err(format!("{key} {budget} is outside 1..=2000000000"))
    }
}

/// The physical memory a spec may give its kernel, in 4 KiB frames: one
/// frame up to 256 MiB, four times the 64 MiB default. Frames are built on
/// demand, so this is the only bound on the host memory a guest can
/// claim; without it a swap-heavy guest grows the host until it aborts.
const PHYS_FRAMES_DOMAIN: std::ops::RangeInclusive<usize> = 1..=(1 << 16);

/// The scheduler quanta a spec may set, in instructions: at least one. A
/// zero quantum ends every process as budget-exhausted before its first
/// instruction.
const QUANTUM_DOMAIN: std::ops::RangeFrom<u64> = 1..;

/// The pipe capacities a spec may set, in bytes: at least one. A pipe
/// that holds nothing blocks every writer forever.
const PIPE_CAPACITY_DOMAIN: std::ops::RangeFrom<usize> = 1..;

fn check_config(config: KernelConfig) -> Result<KernelConfig, String> {
    if !PHYS_FRAMES_DOMAIN.contains(&config.phys_frames) {
        Err(format!(
            "phys_frames {} is outside 1..=65536",
            config.phys_frames
        ))
    } else if !QUANTUM_DOMAIN.contains(&config.quantum) {
        Err(format!("quantum {} is below 1", config.quantum))
    } else if !PIPE_CAPACITY_DOMAIN.contains(&config.pipe_capacity) {
        Err(format!("pipe_capacity {} is below 1", config.pipe_capacity))
    } else {
        check_instr_budget("default_instr_budget", config.default_instr_budget)?;
        Ok(config)
    }
}

/// The scenario client counts a spec may ask for: 1 to 64. Every client is
/// a forked process with its own address space and pipes, so a count far
/// past this grows the host until it aborts. table_server runs up to 16
/// clients and perf_ledger's server-sched 4; 64 leaves room for wider
/// grids.
const CLIENTS_DOMAIN: std::ops::RangeInclusive<u64> = 1..=64;

/// The requests per scenario client a spec may ask for: 1 to 1,024.
/// table_server issues 12 and perf_ledger's server-sched 24; the harness
/// keeps one latency stamp per request.
const QUERIES_DOMAIN: std::ops::RangeInclusive<u64> = 1..=1024;

fn check_scenario_shape(program: ProgramSpec) -> Result<ProgramSpec, String> {
    if let ProgramSpec::Scenario {
        clients, queries, ..
    } = &program
    {
        if !CLIENTS_DOMAIN.contains(clients) {
            return Err(format!("clients {clients} is outside 1..=64"));
        }
        if !QUERIES_DOMAIN.contains(queries) {
            return Err(format!("queries {queries} is outside 1..=1024"));
        }
    }
    Ok(program)
}

/// The pointer sizes code generation supports: 8 bytes for mips64, and
/// the 16-byte (C128) or 32-byte (C256) capability for purecap. Any other
/// size lays out frames and structures no machine can run.
fn check_ptr_size(opts: CodegenOpts) -> Result<CodegenOpts, String> {
    match (opts.abi, opts.ptr_size) {
        (Abi::Mips64, 8) | (Abi::PureCap, 16 | 32) => Ok(opts),
        (abi, size) => Err(format!(
            "ptr_size {size} is not 8 for mips64 or 16 or 32 for purecap (abi {abi:?})"
        )),
    }
}

// ---------------------------------------------------------------------
// JSON codecs for the configuration types a spec embeds
// ---------------------------------------------------------------------

fn abi_mode_label(abi: AbiMode) -> &'static str {
    match abi {
        AbiMode::Mips64 => "mips64",
        AbiMode::CheriAbi => "cheriabi",
    }
}

fn abi_mode_from_label(s: &str) -> Result<AbiMode, String> {
    match s {
        "mips64" => Ok(AbiMode::Mips64),
        "cheriabi" => Ok(AbiMode::CheriAbi),
        other => Err(format!("unknown abi `{other}`")),
    }
}

fn codegen_opts_to_json(opts: CodegenOpts) -> Json {
    Json::obj(vec![
        (
            "abi",
            Json::str(match opts.abi {
                Abi::Mips64 => "mips64",
                Abi::PureCap => "purecap",
            }),
        ),
        ("ptr_size", Json::u64(opts.ptr_size)),
        ("clc_large_imm", Json::Bool(opts.clc_large_imm)),
        ("asan", Json::Bool(opts.asan)),
        ("subobject_bounds", Json::Bool(opts.subobject_bounds)),
    ])
}

fn codegen_opts_from_json(v: &Json) -> Result<CodegenOpts, String> {
    Ok(CodegenOpts {
        abi: match v.field("abi")?.as_str()? {
            "mips64" => Abi::Mips64,
            "purecap" => Abi::PureCap,
            other => return Err(format!("unknown codegen abi `{other}`")),
        },
        ptr_size: v.field("ptr_size")?.as_u64()?,
        clc_large_imm: v.field("clc_large_imm")?.as_bool()?,
        asan: v.field("asan")?.as_bool()?,
        subobject_bounds: v.field("subobject_bounds")?.as_bool()?,
    })
}

fn kernel_config_to_json(config: KernelConfig) -> Json {
    let json = Json::obj(vec![
        (
            "cap_fmt",
            Json::str(match config.cap_fmt {
                CapFormat::C128 => "c128",
                CapFormat::C256 => "c256",
            }),
        ),
        ("phys_frames", Json::u64(config.phys_frames as u64)),
        (
            "kernel_cap_discipline",
            Json::Bool(config.kernel_cap_discipline),
        ),
        ("quantum", Json::u64(config.quantum)),
        (
            "default_instr_budget",
            Json::u64(config.default_instr_budget),
        ),
    ]);
    // Absent encodes the default so pre-existing spec JSON (goldens, cache
    // keys) is byte-identical for configs that never touched pipes.
    let mut fields = match json {
        Json::Obj(fields) => fields,
        _ => unreachable!(),
    };
    if config.pipe_capacity != KernelConfig::default().pipe_capacity {
        fields.push((
            "pipe_capacity".to_string(),
            Json::u64(config.pipe_capacity as u64),
        ));
    }
    Json::Obj(fields)
}

fn kernel_config_from_json(v: &Json) -> Result<KernelConfig, String> {
    Ok(KernelConfig {
        cap_fmt: match v.field("cap_fmt")?.as_str()? {
            "c128" => CapFormat::C128,
            "c256" => CapFormat::C256,
            other => return Err(format!("unknown cap format `{other}`")),
        },
        phys_frames: v.field("phys_frames")?.as_usize()?,
        kernel_cap_discipline: v.field("kernel_cap_discipline")?.as_bool()?,
        quantum: v.field("quantum")?.as_u64()?,
        default_instr_budget: v.field("default_instr_budget")?.as_u64()?,
        pipe_capacity: match v.get("pipe_capacity") {
            Some(j) => j.as_usize()?,
            None => KernelConfig::default().pipe_capacity,
        },
    })
}

/// All capability-fault variants, for mnemonic round-tripping.
const CAP_FAULTS: &[CapFault] = &[
    CapFault::TagViolation,
    CapFault::SealViolation,
    CapFault::TypeViolation,
    CapFault::LengthViolation,
    CapFault::RepresentabilityViolation,
    CapFault::MonotonicityViolation,
    CapFault::PermitLoadViolation,
    CapFault::PermitStoreViolation,
    CapFault::PermitExecuteViolation,
    CapFault::PermitLoadCapViolation,
    CapFault::PermitStoreCapViolation,
    CapFault::PermitStoreLocalCapViolation,
    CapFault::PermitSealViolation,
    CapFault::PermitUnsealViolation,
    CapFault::AccessSystemRegsViolation,
    CapFault::UserPermViolation,
    CapFault::UnalignedCapAccess,
    CapFault::UnalignedDataAccess,
    CapFault::DdcNull,
];

fn trap_cause_token(cause: TrapCause) -> String {
    match cause {
        TrapCause::Cap(f) => format!("cap:{}", f.mnemonic()),
        TrapCause::Vm(e) => match e {
            VmError::Unmapped(a) => format!("vm:unmapped:{a}"),
            VmError::Protection(a) => format!("vm:protection:{a}"),
            VmError::OutOfMemory => "vm:oom".to_string(),
            VmError::NoSuchSpace => "vm:no-space".to_string(),
            VmError::NoSuchSegment => "vm:no-segment".to_string(),
            VmError::MappingExists(a) => format!("vm:exists:{a}"),
            VmError::BadAlignment(a) => format!("vm:bad-align:{a}"),
            VmError::BadRange(a) => format!("vm:bad-range:{a}"),
            VmError::SwapIo(a) => format!("vm:swap-io:{a}"),
            // `VmError` is non-exhaustive; an unknown future variant still
            // needs *some* stable token (it just won't parse back).
            other => format!("vm:other:{other:?}"),
        },
        TrapCause::NoCode => "nocode".to_string(),
    }
}

fn trap_cause_from_token(token: &str) -> Result<TrapCause, String> {
    if token == "nocode" {
        return Ok(TrapCause::NoCode);
    }
    if let Some(mnemonic) = token.strip_prefix("cap:") {
        return CAP_FAULTS
            .iter()
            .find(|f| f.mnemonic() == mnemonic)
            .map(|f| TrapCause::Cap(*f))
            .ok_or_else(|| format!("unknown capability fault `{mnemonic}`"));
    }
    if let Some(rest) = token.strip_prefix("vm:") {
        let (kind, addr) = match rest.split_once(':') {
            Some((kind, addr)) => {
                let addr: u64 = addr
                    .parse()
                    .map_err(|_| format!("bad address in `{token}`"))?;
                (kind, addr)
            }
            None => (rest, 0),
        };
        let e = match kind {
            "unmapped" => VmError::Unmapped(addr),
            "protection" => VmError::Protection(addr),
            "oom" => VmError::OutOfMemory,
            "no-space" => VmError::NoSuchSpace,
            "no-segment" => VmError::NoSuchSegment,
            "exists" => VmError::MappingExists(addr),
            "bad-align" => VmError::BadAlignment(addr),
            "bad-range" => VmError::BadRange(addr),
            "swap-io" => VmError::SwapIo(addr),
            other => return Err(format!("unknown vm fault `{other}`")),
        };
        return Ok(TrapCause::Vm(e));
    }
    Err(format!("unknown trap token `{token}`"))
}

/// Canonical JSON encoding of an exit status.
#[must_use]
pub fn exit_status_to_json(status: ExitStatus) -> Json {
    match status {
        ExitStatus::Code(code) => Json::obj(vec![
            ("status", Json::str("code")),
            ("code", Json::i64(code)),
        ]),
        ExitStatus::Fault(cause) => Json::obj(vec![
            ("status", Json::str("fault")),
            ("cause", Json::str(trap_cause_token(cause))),
        ]),
        ExitStatus::Signaled(sig) => Json::obj(vec![
            ("status", Json::str("signaled")),
            ("signal", Json::u64(u64::from(sig))),
        ]),
        ExitStatus::SanitizerAbort => Json::obj(vec![("status", Json::str("sanitizer-abort"))]),
        ExitStatus::BudgetExhausted => Json::obj(vec![("status", Json::str("budget-exhausted"))]),
    }
}

/// Decodes [`exit_status_to_json`] output.
///
/// # Errors
///
/// Returns a message if the value is not a recognised encoding.
pub fn exit_status_from_json(v: &Json) -> Result<ExitStatus, String> {
    match v.field("status")?.as_str()? {
        "code" => Ok(ExitStatus::Code(v.field("code")?.as_i64()?)),
        "fault" => Ok(ExitStatus::Fault(trap_cause_from_token(
            v.field("cause")?.as_str()?,
        )?)),
        "signaled" => Ok(ExitStatus::Signaled(
            u8::try_from(v.field("signal")?.as_u64()?).map_err(|e| e.to_string())?,
        )),
        "sanitizer-abort" => Ok(ExitStatus::SanitizerAbort),
        "budget-exhausted" => Ok(ExitStatus::BudgetExhausted),
        other => Err(format!("unknown exit status `{other}`")),
    }
}

/// How a case concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The guest ran to an exit status (including faults and budget
    /// exhaustion — those are *results*, not harness errors).
    Exited(ExitStatus),
    /// The program failed to load; the error is preserved as text.
    LoadFailed(String),
    /// Building or running the case panicked; the panic is confined to the
    /// case's worker and reported here instead of killing the run.
    Panicked(String),
    /// The case exceeded its [`RunSpec::deadline`]; the worker moved on.
    DeadlineExceeded,
    /// The scheduler declared deadlock (every live process blocked on a
    /// condition no runnable process can satisfy); the string is the
    /// kernel's per-pid blocked-on diagnostics. Only scenario runs report
    /// this — `run_program` folds it into budget exhaustion.
    Deadlock(String),
    /// The differential oracle caught the fast machine disagreeing with
    /// the reference semantics ([`RunSpec::oracle`]); the string carries
    /// the pc/instret/register-delta diagnostic (lockstep) or the
    /// guest-visible difference between the two runs (replay). Never
    /// cached — a divergence is a simulator bug, not a case result.
    Divergence(String),
}

impl CaseOutcome {
    /// The exit status, if the guest actually ran.
    #[must_use]
    pub fn exit_status(&self) -> Option<ExitStatus> {
        match self {
            CaseOutcome::Exited(status) => Some(*status),
            _ => None,
        }
    }

    /// Canonical JSON encoding.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            CaseOutcome::Exited(status) => Json::obj(vec![
                ("outcome", Json::str("exited")),
                ("exit", exit_status_to_json(*status)),
            ]),
            CaseOutcome::LoadFailed(e) => Json::obj(vec![
                ("outcome", Json::str("load-failed")),
                ("error", Json::str(e.clone())),
            ]),
            CaseOutcome::Panicked(e) => Json::obj(vec![
                ("outcome", Json::str("panicked")),
                ("error", Json::str(e.clone())),
            ]),
            CaseOutcome::DeadlineExceeded => Json::obj(vec![("outcome", Json::str("deadline"))]),
            CaseOutcome::Deadlock(diag) => Json::obj(vec![
                ("outcome", Json::str("deadlock")),
                ("diagnostics", Json::str(diag.clone())),
            ]),
            CaseOutcome::Divergence(detail) => Json::obj(vec![
                ("outcome", Json::str("divergence")),
                ("detail", Json::str(detail.clone())),
            ]),
        }
    }

    /// Decodes [`CaseOutcome::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is not a recognised encoding.
    pub fn from_json(v: &Json) -> Result<CaseOutcome, String> {
        match v.field("outcome")?.as_str()? {
            "exited" => Ok(CaseOutcome::Exited(exit_status_from_json(
                v.field("exit")?,
            )?)),
            "load-failed" => Ok(CaseOutcome::LoadFailed(
                v.field("error")?.as_str()?.to_string(),
            )),
            "panicked" => Ok(CaseOutcome::Panicked(
                v.field("error")?.as_str()?.to_string(),
            )),
            "deadline" => Ok(CaseOutcome::DeadlineExceeded),
            "deadlock" => Ok(CaseOutcome::Deadlock(
                v.field("diagnostics")?.as_str()?.to_string(),
            )),
            "divergence" => Ok(CaseOutcome::Divergence(
                v.field("detail")?.as_str()?.to_string(),
            )),
            other => Err(format!("unknown outcome `{other}`")),
        }
    }
}

impl fmt::Display for CaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseOutcome::Exited(status) => write!(f, "{status:?}"),
            CaseOutcome::LoadFailed(e) => write!(f, "load failed: {e}"),
            CaseOutcome::Panicked(e) => write!(f, "panicked: {e}"),
            CaseOutcome::DeadlineExceeded => write!(f, "deadline exceeded"),
            CaseOutcome::Deadlock(diag) => write!(f, "deadlock: {diag}"),
            CaseOutcome::Divergence(detail) => write!(f, "divergence: {detail}"),
        }
    }
}

/// Host-side interpreter counters: how the simulator ran the case, never
/// what the guest observed. TLB and resident-region hit rates vary with
/// the execution mode (they collapse to zero under `--exec-mode single`), so
/// they are excluded from guest-metric equivalence, from the deterministic
/// shard/golden line format, and from the report cache's identity. The
/// scheduler counters (wakes/blocks/runq depth/context switches) ride in
/// the same bucket: they happen to be mode-invariant, but they describe
/// how the kernel ran the process tree, not what the guest computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Translations served from the software TLB.
    pub tlb_hits: u64,
    /// Translations that took the full VM walk.
    pub tlb_misses: u64,
    /// Fetches/block entries served by the resident decoded region.
    pub sb_hits: u64,
    /// Fetches/block entries that re-scanned the region map.
    pub sb_misses: u64,
    /// Blocked processes woken by the scheduler.
    pub wakes: u64,
    /// Processes put to sleep on a wait condition.
    pub blocks: u64,
    /// Deepest run-queue occupancy observed.
    pub max_runq_depth: u64,
    /// Context switches performed.
    pub ctx_switches: u64,
}

impl HostCounters {
    /// Canonical JSON encoding. The scheduler fields are emitted only when
    /// nonzero, so single-process reports (and their cached encodings)
    /// stay byte-identical to before the scenario plane existed.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("tlb_hits".to_string(), Json::u64(self.tlb_hits)),
            ("tlb_misses".to_string(), Json::u64(self.tlb_misses)),
            ("sb_hits".to_string(), Json::u64(self.sb_hits)),
            ("sb_misses".to_string(), Json::u64(self.sb_misses)),
        ];
        for (key, value) in [
            ("wakes", self.wakes),
            ("blocks", self.blocks),
            ("max_runq_depth", self.max_runq_depth),
            ("ctx_switches", self.ctx_switches),
        ] {
            if value != 0 {
                fields.push((key.to_string(), Json::u64(value)));
            }
        }
        Json::Obj(fields)
    }

    /// Decodes [`HostCounters::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is not a recognised encoding.
    pub fn from_json(v: &Json) -> Result<HostCounters, String> {
        let opt = |key: &str| -> Result<u64, String> {
            match v.get(key) {
                Some(n) => n.as_u64(),
                None => Ok(0),
            }
        };
        Ok(HostCounters {
            tlb_hits: v.field("tlb_hits")?.as_u64()?,
            tlb_misses: v.field("tlb_misses")?.as_u64()?,
            sb_hits: v.field("sb_hits")?.as_u64()?,
            sb_misses: v.field("sb_misses")?.as_u64()?,
            wakes: opt("wakes")?,
            blocks: opt("blocks")?,
            max_runq_depth: opt("max_runq_depth")?,
            ctx_switches: opt("ctx_switches")?,
        })
    }
}

/// Latency aggregate for one scenario run (`ProgramSpec::Scenario`):
/// per-request enqueue→reply latencies, stamped by the guest clients in
/// guest cycles, reduced to nearest-rank percentiles. Everything here is
/// deterministic guest arithmetic, so the struct participates in report
/// equality, the deterministic line format, and goldens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Client processes the scenario forked.
    pub clients: u64,
    /// Requests the scenario was configured to issue (clients × queries).
    pub requests: u64,
    /// Requests that completed (latency stamps harvested); fewer than
    /// `requests` means clients aborted or the run ended early — the
    /// fault campaign's "degraded" signal.
    pub completed: u64,
    /// Median latency in guest cycles (nearest-rank).
    pub p50: u64,
    /// 95th-percentile latency in guest cycles (nearest-rank).
    pub p95: u64,
    /// 99th-percentile latency in guest cycles (nearest-rank).
    pub p99: u64,
}

impl ScenarioStats {
    /// Reduces raw latency stamps to percentiles (nearest-rank on the
    /// sorted array; zeros when nothing completed).
    #[must_use]
    pub fn from_latencies(clients: u64, requests: u64, latencies: &[u64]) -> ScenarioStats {
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let rank = |pct: u64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let n = sorted.len() as u64;
            let idx = (pct * n).div_ceil(100).max(1) - 1;
            sorted[idx as usize]
        };
        ScenarioStats {
            clients,
            requests,
            completed: latencies.len() as u64,
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
        }
    }

    /// Canonical JSON encoding.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clients", Json::u64(self.clients)),
            ("requests", Json::u64(self.requests)),
            ("completed", Json::u64(self.completed)),
            ("p50", Json::u64(self.p50)),
            ("p95", Json::u64(self.p95)),
            ("p99", Json::u64(self.p99)),
        ])
    }

    /// Decodes [`ScenarioStats::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is not a recognised encoding.
    pub fn from_json(v: &Json) -> Result<ScenarioStats, String> {
        Ok(ScenarioStats {
            clients: v.field("clients")?.as_u64()?,
            requests: v.field("requests")?.as_u64()?,
            completed: v.field("completed")?.as_u64()?,
            p50: v.field("p50")?.as_u64()?,
            p95: v.field("p95")?.as_u64()?,
            p99: v.field("p99")?.as_u64()?,
        })
    }
}

/// The result of one executed [`RunSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct CaseReport {
    /// Spec name.
    pub name: String,
    /// Spec seed.
    pub seed: u64,
    /// What happened.
    pub outcome: CaseOutcome,
    /// Guest console output (empty unless the guest wrote).
    pub console: String,
    /// Counters consumed by the run (zero when the program never ran).
    pub metrics: Metrics,
    /// Host wall-clock time spent on the case (build + run). The only
    /// nondeterministic field; no aggregate consumes it. A cache hit
    /// returns the *cached* wall time, keeping the whole report
    /// byte-identical to the original run's.
    pub wall: Duration,
    /// The Figure 5 capability-size distribution, collected only when
    /// [`RunSpec::trace`] was set (never part of the cached/streamed JSON).
    pub cap_cdf: Option<SizeCdf>,
    /// Always 0, and never encoded. Every case is a pure function of its
    /// spec, so nothing re-executes a case; the field stays only because
    /// the perf_ledger benchmark's traced sweep builds a `CaseReport`
    /// literal that names it.
    pub retries: u64,
    /// Always false, and never encoded; kept for the same reason as
    /// [`CaseReport::retries`].
    pub quarantined: bool,
    /// What the armed fault plane did, when [`RunSpec::fault`] was set.
    pub faults: Option<FaultCounters>,
    /// Host-side interpreter counters (TLB/resident-region hit rates). Absent
    /// when the case never ran or every counter is zero; always excluded
    /// from the deterministic line format and the report-cache identity.
    pub host: Option<HostCounters>,
    /// Latency percentiles, present only for scenario specs
    /// (`ProgramSpec::Scenario`). Deterministic guest data — unlike
    /// `host`, it *is* part of the deterministic line format.
    pub scenario: Option<ScenarioStats>,
    /// Hardened-membrane evidence counters, present only when the spec ran
    /// with [`MembraneMode::Hardened`]. Deterministic (drained allocator
    /// counters, no wall time or addresses), so — unlike `host` — it *is*
    /// part of the deterministic line format: the attack table's hardened
    /// rows pin what the membrane did, byte for byte.
    pub membrane: Option<AllocEvidence>,
}

impl CaseReport {
    /// Canonical JSON encoding (omits `cap_cdf`; traced runs are
    /// rendered by their experiment, not by the generic report line).
    /// Fault counters and the other optional tails are appended only when
    /// present, so a plain, fault-free report encodes byte-identically to before
    /// the fault plane existed — existing goldens stay valid.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.encode(None, true)
    }

    /// [`CaseReport::to_json`] with the submission index prepended — the
    /// `--json-stream` line format.
    #[must_use]
    pub fn to_json_tagged(&self, index: usize) -> Json {
        self.encode(Some(index), true)
    }

    /// [`CaseReport::to_json_tagged`] minus the wall-clock and host fields —
    /// the `--shard` line format, where byte-identity across machines and
    /// runs matters and host-side values would break it.
    #[must_use]
    pub fn to_json_deterministic(&self, index: usize) -> Json {
        self.encode(Some(index), false)
    }

    /// The one field builder behind every report format: `case` leads when
    /// an index is given, and `wall_nanos` and `host` (the host-side
    /// fields) are built only when `host_side` asks for them.
    fn encode(&self, case: Option<usize>, host_side: bool) -> Json {
        let mut fields = Vec::with_capacity(11);
        if let Some(index) = case {
            fields.push(("case", Json::u64(index as u64)));
        }
        fields.extend([
            ("name", Json::str(self.name.as_str())),
            ("seed", Json::u64(self.seed)),
            ("outcome", self.outcome.to_json()),
            ("console", Json::str(self.console.as_str())),
            (
                "metrics",
                Json::obj(vec![
                    ("instructions", Json::u64(self.metrics.instructions)),
                    ("cycles", Json::u64(self.metrics.cycles)),
                    ("l2_misses", Json::u64(self.metrics.l2_misses)),
                    ("syscalls", Json::u64(self.metrics.syscalls)),
                ]),
            ),
        ]);
        if host_side {
            fields.push(("wall_nanos", Json::Int(self.wall.as_nanos() as i128)));
        }
        if let Some(counters) = &self.faults {
            fields.push(("faults", counters.to_json()));
        }
        if let Some(host) = self.host.as_ref().filter(|_| host_side) {
            fields.push(("host", host.to_json()));
        }
        if let Some(scenario) = &self.scenario {
            fields.push(("scenario", scenario.to_json()));
        }
        if let Some(m) = &self.membrane {
            fields.push((
                "membrane",
                Json::obj(vec![
                    ("repairs", Json::u64(m.repairs)),
                    ("swept_caps", Json::u64(m.swept_caps)),
                    ("quarantine_bytes", Json::u64(m.quarantine_bytes)),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Decodes [`CaseReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is not a recognised encoding.
    pub fn from_json(v: &Json) -> Result<CaseReport, String> {
        let m = v.field("metrics")?;
        Ok(CaseReport {
            name: v.field("name")?.as_str()?.to_string(),
            seed: v.field("seed")?.as_u64()?,
            outcome: CaseOutcome::from_json(v.field("outcome")?)?,
            console: v.field("console")?.as_str()?.to_string(),
            metrics: Metrics {
                instructions: m.field("instructions")?.as_u64()?,
                cycles: m.field("cycles")?.as_u64()?,
                l2_misses: m.field("l2_misses")?.as_u64()?,
                syscalls: m.field("syscalls")?.as_u64()?,
            },
            // Absent in the deterministic (`--shard` / fleet) line format,
            // which strips the one nondeterministic field.
            wall: match v.get("wall_nanos") {
                Some(n) => Duration::from_nanos(u64::try_from(n.as_u128()?).unwrap_or(u64::MAX)),
                None => Duration::ZERO,
            },
            cap_cdf: None,
            retries: 0,
            quarantined: false,
            // Optional tail fields (absent in pre-fault-plane encodings).
            faults: match v.get("faults") {
                Some(counters) => Some(FaultCounters::from_json(counters)?),
                None => None,
            },
            host: match v.get("host") {
                Some(host) => Some(HostCounters::from_json(host)?),
                None => None,
            },
            scenario: match v.get("scenario") {
                Some(stats) => Some(ScenarioStats::from_json(stats)?),
                None => None,
            },
            membrane: match v.get("membrane") {
                Some(m) => Some(AllocEvidence {
                    repairs: m.field("repairs")?.as_u64()?,
                    swept_caps: m.field("swept_caps")?.as_u64()?,
                    quarantine_bytes: m.field("quarantine_bytes")?.as_u64()?,
                }),
                None => None,
            },
        })
    }
}

/// Builds and runs one spec on the current thread (no deadline handling),
/// dispatching replay-oracle cases to [`execute_replay`].
fn execute_inner(registry: &Registry, spec: &RunSpec) -> CaseReport {
    if spec.oracle == OracleMode::Replay {
        return execute_replay(registry, spec);
    }
    execute_once(registry, spec, false)
}

/// Runs the spec twice — fast path, then the reference interpreter — and
/// diffs the guest-visible results. A clean replay
/// returns the fast run's report verbatim (byte-identical to an
/// oracle-free run); a mismatch becomes [`CaseOutcome::Divergence`].
fn execute_replay(registry: &Registry, spec: &RunSpec) -> CaseReport {
    let start = Instant::now();
    let fast = execute_once(registry, spec, false);
    let reference = execute_once(registry, spec, true);
    let mut diffs = Vec::new();
    if fast.outcome != reference.outcome {
        diffs.push(format!(
            "outcome: fast `{}`, reference `{}`",
            fast.outcome, reference.outcome
        ));
    }
    if fast.console != reference.console {
        diffs.push(format!(
            "console: fast {:?}, reference {:?}",
            fast.console, reference.console
        ));
    }
    if fast.metrics != reference.metrics {
        diffs.push(format!(
            "metrics: fast {:?}, reference {:?}",
            fast.metrics, reference.metrics
        ));
    }
    if fast.scenario != reference.scenario {
        diffs.push(format!(
            "scenario stats: fast {:?}, reference {:?}",
            fast.scenario, reference.scenario
        ));
    }
    if diffs.is_empty() {
        return fast;
    }
    CaseReport {
        outcome: CaseOutcome::Divergence(format!("replay mismatch: {}", diffs.join("; "))),
        wall: start.elapsed(),
        ..fast
    }
}

/// Builds and runs one spec in a fresh system on the current thread.
/// `reference` forces the reference interpreter regardless of
/// [`RunSpec::exec_mode`] — the replay oracle's second leg.
fn execute_once(registry: &Registry, spec: &RunSpec, reference: bool) -> CaseReport {
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let program = registry.lower(&spec.program, spec.opts, spec.seed);
        let mut sys = System::with_config(spec.config);
        if let Some(l2) = spec.l2_size {
            sys.kernel.cpu.caches = CacheHierarchy::new(
                CacheConfig::l1_default(),
                CacheConfig {
                    size: l2,
                    line: 64,
                    ways: 8,
                },
            );
        }
        if spec.trace {
            sys.enable_tracing();
        }
        match spec.exec_mode {
            ExecMode::SingleStep => sys.kernel.cpu.set_fast_path(false),
            ExecMode::Superblock => {
                sys.kernel.cpu.set_fast_path(true);
                sys.kernel.cpu.set_templates(false);
            }
            ExecMode::Template => {
                sys.kernel.cpu.set_fast_path(true);
                sys.kernel.cpu.set_templates(true);
            }
        }
        // Lockstep and the weakened semantics live in the fast tiers; the
        // reference interpreter is what they are checked against, so a
        // single-step spec arms neither.
        let fast = !reference && spec.exec_mode != ExecMode::SingleStep;
        sys.kernel.cpu.set_weaken_sem(fast && spec.weaken_sem);
        sys.kernel.cpu.set_weaken_flush(spec.weaken_flush);
        if reference {
            sys.kernel.cpu.set_fast_path(false);
        } else if fast && spec.oracle == OracleMode::Lockstep {
            // Store verification is off while a fault plan is armed:
            // injected bit-flips corrupt granules behind the architecture's
            // back, which is exactly the non-architectural behaviour the
            // fault plane exists to create.
            sys.kernel
                .cpu
                .set_lockstep(spec.oracle_every.max(1), spec.fault.is_none());
        }
        // Arm the fault plane before the guest spawns, so access counts
        // start from the same zero on every run of this spec.
        if let Some(plan) = &spec.fault {
            plan.arm(&mut sys.kernel);
        }
        let mut opts = SpawnOpts::new(spec.abi);
        opts.asan = spec.asan;
        opts.instr_budget = spec.instr_budget;
        opts.hardened = spec.abi_mode == MembraneMode::Hardened;
        opts.weaken_quarantine = spec.weaken_quarantine;
        // Scenario specs run the whole process tree through the scheduler
        // and harvest latency stamps; everything else takes the classic
        // run-one-guest `measure` path.
        let scenario_shape = match &spec.program {
            ProgramSpec::Scenario {
                clients, queries, ..
            } => Some((*clients, *queries)),
            _ => None,
        };
        let (result, extra) = if let Some((clients, queries)) = scenario_shape {
            match sys.run_scenario(&program, &opts, clients) {
                Ok(run) => {
                    let stats =
                        ScenarioStats::from_latencies(clients, clients * queries, &run.latencies);
                    (
                        Ok((run.status, run.console, run.metrics)),
                        Some((run.deadlock, stats)),
                    )
                }
                Err(load) => (Err(load), None),
            }
        } else {
            (sys.measure(&program, &opts), None)
        };
        let cdf = spec.trace.then(|| sys.capability_histogram());
        // The first lockstep mismatch, if any — it outranks whatever the
        // guest appeared to do, since the machine that produced that
        // result just disagreed with its own semantics.
        let divergence = sys.kernel.cpu.take_divergence();
        // Harvest even when the load failed: a fault injected into the
        // exec path still fired.
        let faults = spec.fault.map(|_| FaultCounters::harvest(&sys.kernel));
        let host = HostCounters {
            tlb_hits: sys.kernel.cpu.stats.tlb_hits,
            tlb_misses: sys.kernel.cpu.stats.tlb_misses,
            sb_hits: sys.kernel.cpu.stats.sb_hits,
            sb_misses: sys.kernel.cpu.stats.sb_misses,
            wakes: sys.kernel.stats.wakes,
            blocks: sys.kernel.stats.blocks,
            max_runq_depth: sys.kernel.stats.max_runq_depth,
            ctx_switches: sys.kernel.stats.ctx_switches,
        };
        // The membrane block is attached for hardened runs only, so plain
        // reports stay byte-identical to before the membrane existed.
        let membrane = (spec.abi_mode == MembraneMode::Hardened).then_some(sys.kernel.membrane);
        (result, cdf, divergence, faults, host, extra, membrane)
    }));
    let wall = start.elapsed();
    let (outcome, console, metrics, cap_cdf, faults, host, scenario, membrane) = match run {
        Ok((Ok((status, console, metrics)), cdf, divergence, faults, host, extra, membrane)) => {
            let outcome = match (&divergence, &extra) {
                (Some(d), _) => CaseOutcome::Divergence(d.to_string()),
                // A deadlocked scenario is a guest-visible failure with
                // the kernel's per-pid diagnostics attached.
                (None, Some((Some(diag), _))) => CaseOutcome::Deadlock(diag.clone()),
                _ => CaseOutcome::Exited(status),
            };
            (
                outcome,
                console,
                metrics,
                cdf,
                faults,
                (host != HostCounters::default()).then_some(host),
                extra.map(|(_, stats)| stats),
                membrane,
            )
        }
        Ok((Err(load), _, _, faults, host, _, membrane)) => (
            CaseOutcome::LoadFailed(load.to_string()),
            String::new(),
            Metrics::default(),
            None,
            faults,
            (host != HostCounters::default()).then_some(host),
            None,
            membrane,
        ),
        Err(payload) => (
            CaseOutcome::Panicked(panic_message(payload.as_ref())),
            String::new(),
            Metrics::default(),
            None,
            None,
            None,
            None,
            None,
        ),
    };
    CaseReport {
        name: spec.name.clone(),
        seed: spec.seed,
        outcome,
        console,
        metrics,
        wall,
        cap_cdf,
        retries: 0,
        quarantined: false,
        faults,
        host,
        scenario,
        membrane,
    }
}

/// Executes one spec in a fresh kernel, confining panics to the report and
/// enforcing the spec's wall-clock deadline (if any).
///
/// Deadline enforcement runs the case on a dedicated thread and abandons
/// it on timeout: the simulation cannot be preempted mid-instruction, so
/// the abandoned thread winds down on its own when the case's instruction
/// budget runs out, while the calling worker moves on immediately. Give
/// deadline-bearing specs a finite instruction budget so abandoned runs
/// cannot spin forever.
#[must_use]
pub fn execute_spec(registry: &Registry, spec: &RunSpec) -> CaseReport {
    let Some(limit) = spec.deadline else {
        return execute_inner(registry, spec);
    };
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let thread_registry = registry.clone();
    let thread_spec = spec.clone();
    std::thread::Builder::new()
        .name(format!("case-{}", spec.name))
        .spawn(move || {
            let _ = tx.send(execute_inner(&thread_registry, &thread_spec));
        })
        .expect("spawn case thread");
    match rx.recv_timeout(limit) {
        Ok(report) => report,
        Err(_) => CaseReport {
            name: spec.name.clone(),
            seed: spec.seed,
            outcome: CaseOutcome::DeadlineExceeded,
            console: String::new(),
            metrics: Metrics::default(),
            wall: start.elapsed(),
            cap_cdf: None,
            retries: 0,
            quarantined: false,
            faults: None,
            host: None,
            scenario: None,
            membrane: None,
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A shard assignment: this process owns every submission index `i` with
/// `i % count == index`. Round-robin (rather than contiguous blocks)
/// balances matrices whose expensive cases cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// This shard's number, `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the `I/N` command-line form (`0/2`, `1/2`, ...).
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not `I/N` with `I < N`, `N ≥ 1`.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("--shard wants I/N, got `{text}`"))?;
        let index: usize = i.parse().map_err(|_| format!("bad shard index `{i}`"))?;
        let count: usize = n.parse().map_err(|_| format!("bad shard count `{n}`"))?;
        if count == 0 || index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns submission index `i`.
    #[must_use]
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A [`SessionOpts::on_report`] observer: called with
/// `(submission_index, report, from_cache)`.
pub type ReportObserver<'a> = dyn Fn(usize, &CaseReport, bool) + Sync + 'a;

/// Per-run execution options for [`Harness::run_session`].
#[derive(Default)]
pub struct SessionOpts<'a> {
    /// Serve and record reports through this content-addressed cache.
    pub cache: Option<&'a ReportCache>,
    /// Execute only the submission indices this shard owns.
    pub shard: Option<Shard>,
    /// Write a progress line (cases completed / total, ETA) to stderr.
    pub progress: bool,
    /// Called once per completed case, as it completes (completion order,
    /// not submission order). Drives `--json-stream`.
    pub on_report: Option<&'a ReportObserver<'a>>,
}

/// What a session produced: the owned reports plus cache counters.
#[derive(Clone, Debug)]
pub struct Session {
    /// `(submission_index, report)` for every owned index, in submission
    /// order. Unsharded sessions own every index.
    pub reports: Vec<(usize, CaseReport)>,
    /// Cases served from the report cache.
    pub cache_hits: usize,
    /// Cases actually executed (and recorded, when caching).
    pub cache_misses: usize,
}

impl Session {
    /// Drops the indices (valid for unsharded sessions, where they are
    /// `0..n` by construction).
    #[must_use]
    pub fn into_reports(self) -> Vec<CaseReport> {
        self.reports.into_iter().map(|(_, r)| r).collect()
    }
}

/// Merges per-shard report lists back into submission order.
///
/// # Panics
///
/// Panics if the shards do not cover every index exactly once (a merge of
/// mismatched runs would silently corrupt every downstream aggregate).
#[must_use]
pub fn merge_shards(shards: impl IntoIterator<Item = Vec<(usize, CaseReport)>>) -> Vec<CaseReport> {
    let mut all: Vec<(usize, CaseReport)> = shards.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    for (expect, (i, _)) in all.iter().enumerate() {
        assert_eq!(
            *i, expect,
            "shard reports do not cover every submission index exactly once"
        );
    }
    all.into_iter().map(|(_, r)| r).collect()
}

/// The parallel executor.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    jobs: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::auto()
    }
}

impl Harness {
    /// A harness running `jobs` cases concurrently (clamped to ≥ 1).
    #[must_use]
    pub fn new(jobs: usize) -> Harness {
        Harness { jobs: jobs.max(1) }
    }

    /// A harness using all available cores.
    #[must_use]
    pub fn auto() -> Harness {
        Harness::new(available_parallelism())
    }

    /// Configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes every spec and returns the reports in submission order —
    /// the simple path with no cache, shard, or streaming.
    #[must_use]
    pub fn run(&self, registry: &Registry, specs: &[RunSpec]) -> Vec<CaseReport> {
        self.run_session(registry, specs, &SessionOpts::default())
            .into_reports()
    }

    /// Executes the owned subset of `specs` and returns the reports in
    /// submission order, serving unchanged cases from the report cache.
    ///
    /// With one job (or one owned case) the cases run inline on the
    /// calling thread — the exact sequential path. Otherwise `jobs`
    /// workers pull owned indices from a shared atomic counter; each case
    /// still runs in its own fresh kernel, so scheduling order cannot
    /// affect any report.
    #[must_use]
    pub fn run_session(
        &self,
        registry: &Registry,
        specs: &[RunSpec],
        opts: &SessionOpts<'_>,
    ) -> Session {
        let owned: Vec<usize> = (0..specs.len())
            .filter(|&i| opts.shard.is_none_or(|s| s.owns(i)))
            .collect();
        let total = owned.len();
        let hits = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let started = Instant::now();

        let run_one = |index: usize| -> CaseReport {
            let spec = &specs[index];
            let (report, cached) = match opts.cache.and_then(|c| c.load(spec)) {
                Some(report) => {
                    hits.fetch_add(1, Ordering::Relaxed);
                    (report, true)
                }
                None => {
                    let report = execute_spec(registry, spec);
                    if let Some(cache) = opts.cache {
                        cache.store(spec, &report);
                    }
                    (report, false)
                }
            };
            if let Some(cb) = opts.on_report {
                cb(index, &report, cached);
            }
            if opts.progress {
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress_line(completed, total, started);
            }
            report
        };

        let workers = self.jobs.min(total);
        let reports: Vec<CaseReport> = if workers <= 1 {
            owned.iter().map(|&i| run_one(i)).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<CaseReport>>> =
                owned.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = owned.get(slot) else { break };
                        let report = run_one(index);
                        *slots[slot].lock().expect("slot lock poisoned") = Some(report);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("slot lock poisoned")
                        .expect("every slot claimed exactly once")
                })
                .collect()
        };
        let cache_hits = hits.load(Ordering::Relaxed);
        Session {
            reports: owned.into_iter().zip(reports).collect(),
            cache_hits,
            cache_misses: total - cache_hits,
        }
    }
}

/// Writes the `--progress` line: throttled to ~100 updates per run so a
/// 3000-case matrix does not spam stderr, always including the final case.
fn progress_line(completed: usize, total: usize, started: Instant) {
    let step = (total / 100).max(1);
    if !completed.is_multiple_of(step) && completed != total {
        return;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let eta = elapsed / completed as f64 * (total - completed) as f64;
    eprint!(
        "\rharness: {completed}/{total} cases ({}%), eta {eta:.1}s",
        completed * 100 / total.max(1)
    );
    if completed == total {
        eprintln!();
    }
}

/// The number of hardware threads available to this process (≥ 1).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn exit_with_seed_spec(name: &str, seed: u64) -> RunSpec {
        RunSpec::new(
            name,
            ProgramSpec::Exit { code: 0 },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        )
        .with_seed(seed)
    }

    #[test]
    fn reports_come_back_in_submission_order() {
        let registry = Registry::builtin();
        let specs: Vec<RunSpec> = (0..24)
            .map(|i| exit_with_seed_spec(&format!("case-{i}"), i))
            .collect();
        let reports = Harness::new(8).run(&registry, &specs);
        assert_eq!(reports.len(), specs.len());
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.name, format!("case-{i}"));
            assert_eq!(
                report.outcome,
                CaseOutcome::Exited(ExitStatus::Code(i as i64 % 64))
            );
        }
    }

    #[test]
    fn parallel_reports_match_sequential_reports() {
        let registry = Registry::builtin();
        let specs: Vec<RunSpec> = (0..16)
            .map(|i| exit_with_seed_spec(&format!("case-{i}"), i * 7))
            .collect();
        let seq = Harness::new(1).run(&registry, &specs);
        let par = Harness::new(8).run(&registry, &specs);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.console, b.console);
        }
    }

    #[test]
    fn a_panicking_case_is_isolated_to_its_own_report() {
        let registry = Registry::builtin();
        let mut specs: Vec<RunSpec> = (0..6)
            .map(|i| exit_with_seed_spec(&format!("ok-{i}"), i))
            .collect();
        specs.insert(
            3,
            RunSpec::new(
                "boom",
                ProgramSpec::Boom,
                CodegenOpts::purecap(),
                AbiMode::CheriAbi,
            ),
        );
        let reports = Harness::new(4).run(&registry, &specs);
        assert_eq!(reports.len(), 7);
        assert_eq!(
            reports[3].outcome,
            CaseOutcome::Panicked("probe program `boom` always fails to build".to_string())
        );
        for (i, report) in reports.iter().enumerate() {
            if i != 3 {
                assert!(matches!(
                    report.outcome,
                    CaseOutcome::Exited(ExitStatus::Code(_))
                ));
            }
        }
    }

    #[test]
    fn unclaimed_specs_become_reports_not_panics() {
        // The builtin registry cannot lower a corpus case; the failure is
        // confined to the report like any builder panic.
        let registry = Registry::builtin();
        let spec = RunSpec::new(
            "unclaimed",
            ProgramSpec::Corpus {
                case: "no-such-case".to_string(),
            },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        );
        let report = execute_spec(&registry, &spec);
        assert!(
            matches!(report.outcome, CaseOutcome::Panicked(_)),
            "got {:?}",
            report.outcome
        );
    }

    #[test]
    fn deadline_reports_instead_of_stalling() {
        let registry = Registry::builtin();
        // A case that takes far longer than 5 ms of wall time; the bounded
        // instruction budget lets the abandoned thread wind down.
        let slow = RunSpec::new(
            "slow",
            ProgramSpec::Spin { iters: i64::MAX },
            CodegenOpts::mips64(),
            AbiMode::Mips64,
        )
        .with_budget(50_000_000)
        .with_deadline(Duration::from_millis(5));
        let fast = RunSpec::new(
            "fast",
            ProgramSpec::Exit { code: 1 },
            CodegenOpts::mips64(),
            AbiMode::Mips64,
        )
        .with_deadline(Duration::from_secs(60));
        let reports = Harness::new(2).run(&registry, &[slow, fast]);
        assert_eq!(reports[0].outcome, CaseOutcome::DeadlineExceeded);
        assert_eq!(reports[1].outcome, CaseOutcome::Exited(ExitStatus::Code(1)));
    }

    #[test]
    fn sharded_sessions_merge_to_the_unsharded_run() {
        let registry = Registry::builtin();
        let specs: Vec<RunSpec> = (0..11)
            .map(|i| exit_with_seed_spec(&format!("case-{i}"), i * 3))
            .collect();
        let full = Harness::new(4).run(&registry, &specs);
        let shards: Vec<Vec<(usize, CaseReport)>> = (0..3)
            .map(|index| {
                let opts = SessionOpts {
                    shard: Some(Shard { index, count: 3 }),
                    ..SessionOpts::default()
                };
                let session = Harness::new(2).run_session(&registry, &specs, &opts);
                // A shard owns exactly its round-robin indices.
                for (i, _) in &session.reports {
                    assert_eq!(i % 3, index);
                }
                session.reports
            })
            .collect();
        let merged = merge_shards(shards);
        assert_eq!(merged.len(), full.len());
        for (a, b) in merged.iter().zip(&full) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn shard_parsing_accepts_i_slash_n_only() {
        assert_eq!(Shard::parse("0/2"), Ok(Shard { index: 0, count: 2 }));
        assert_eq!(Shard::parse("1/2"), Ok(Shard { index: 1, count: 2 }));
        assert!(Shard::parse("2/2").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
    }

    #[test]
    fn on_report_fires_once_per_owned_case() {
        let registry = Registry::builtin();
        let specs: Vec<RunSpec> = (0..10)
            .map(|i| exit_with_seed_spec(&format!("case-{i}"), i))
            .collect();
        let seen = Mutex::new(Vec::new());
        let callback = |index: usize, report: &CaseReport, cached: bool| {
            assert!(!cached);
            seen.lock().unwrap().push((index, report.name.clone()));
        };
        let opts = SessionOpts {
            on_report: Some(&callback),
            ..SessionOpts::default()
        };
        let session = Harness::new(4).run_session(&registry, &specs, &opts);
        assert_eq!(session.cache_hits, 0);
        assert_eq!(session.cache_misses, 10);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        let expected: Vec<(usize, String)> = (0..10).map(|i| (i, format!("case-{i}"))).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn run_spec_round_trips_through_json() {
        let spec = RunSpec::new(
            "rt",
            ProgramSpec::Bodiag {
                region: "stack".to_string(),
                tail: 0,
                access: "write".to_string(),
                idiom: "loop".to_string(),
                len: 33,
                variant: "min".to_string(),
            },
            CodegenOpts::purecap_small_clc(),
            AbiMode::CheriAbi,
        )
        .with_seed(9)
        .with_budget(1_000_000)
        .with_deadline(Duration::from_millis(750))
        .with_asan(false)
        .with_l2_size(256 * 1024);
        let text = spec.to_json().to_string();
        let back = RunSpec::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, spec);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn l2_size_outside_its_domain_is_rejected_not_run() {
        let spec = exit_with_seed_spec("l2", 0).with_l2_size(256 * 1024);
        let text = spec.to_json().to_string();
        let with = |bytes: u64| text.replace("\"l2_size\":262144", &format!("\"l2_size\":{bytes}"));
        for bytes in [16 << 10, 64 << 10, 1 << 20, 16 << 20] {
            let back = RunSpec::from_json(&json::parse(&with(bytes)).expect("parses"));
            assert_eq!(back.expect("in the domain").l2_size, Some(bytes));
        }
        // Zero and 100 leave the cache model no set to index; 2^40 would
        // ask the host for tens of gigabytes.
        for bytes in [0, 100, 8 << 10, 32 << 20, 1 << 40, 3 << 16] {
            let err = RunSpec::from_json(&json::parse(&with(bytes)).expect("parses"))
                .expect_err("outside the domain");
            assert!(err.contains("l2_size"), "{err}");
            let built = catch_unwind(|| exit_with_seed_spec("l2", 0).with_l2_size(bytes));
            assert!(built.is_err(), "with_l2_size({bytes}) must refuse");
        }
    }

    #[test]
    fn phys_frames_and_ptr_size_outside_their_domains_are_rejected_not_run() {
        let spec = exit_with_seed_spec("domains", 0);
        let text = spec.to_json().to_string();
        let frames =
            |n: u64| text.replace("\"phys_frames\":16384", &format!("\"phys_frames\":{n}"));
        for n in [1, 16 << 10, 1 << 16] {
            let back = RunSpec::from_json(&json::parse(&frames(n)).expect("parses"));
            assert_eq!(back.expect("in the domain").config.phys_frames, n as usize);
        }
        // Zero frames cannot hold a page table; u64::MAX frames let a
        // swap stress grow the host until it aborts.
        for n in [0, (1 << 16) + 1, u64::MAX] {
            let err = RunSpec::from_json(&json::parse(&frames(n)).expect("parses"))
                .expect_err("outside the domain");
            assert!(err.contains("phys_frames"), "{err}");
            let config = KernelConfig {
                phys_frames: n as usize,
                ..KernelConfig::default()
            };
            let built = catch_unwind(|| exit_with_seed_spec("domains", 0).with_config(config));
            assert!(built.is_err(), "with_config(phys_frames {n}) must refuse");
        }

        let size = |abi: &str, n: u64| {
            text.replace(
                "\"abi\":\"purecap\",\"ptr_size\":16",
                &format!("\"abi\":\"{abi}\",\"ptr_size\":{n}"),
            )
        };
        assert!(
            text.contains("\"abi\":\"purecap\",\"ptr_size\":16"),
            "{text}"
        );
        for (abi, n) in [("mips64", 8), ("purecap", 16), ("purecap", 32)] {
            let back = RunSpec::from_json(&json::parse(&size(abi, n)).expect("parses"));
            assert_eq!(back.expect("in the domain").opts.ptr_size, n);
        }
        for (abi, n) in [
            ("purecap", 3),
            ("purecap", 8),
            ("mips64", 16),
            ("mips64", 0),
        ] {
            let err = RunSpec::from_json(&json::parse(&size(abi, n)).expect("parses"))
                .expect_err("outside the domain");
            assert!(err.contains("ptr_size"), "{err}");
            let opts = CodegenOpts {
                abi: if abi == "mips64" {
                    Abi::Mips64
                } else {
                    Abi::PureCap
                },
                ptr_size: n,
                ..CodegenOpts::purecap()
            };
            let built = catch_unwind(|| {
                RunSpec::new(
                    "domains",
                    ProgramSpec::Exit { code: 0 },
                    opts,
                    AbiMode::CheriAbi,
                )
            });
            assert!(built.is_err(), "RunSpec::new with ptr_size {n} must refuse");
        }
    }

    #[test]
    fn scenario_shape_quantum_and_pipe_capacity_outside_their_domains_are_rejected_not_run() {
        let scenario = |clients, queries| ProgramSpec::Scenario {
            clients,
            queries,
            mix: "mixed".to_string(),
            swap_pressure: false,
        };
        let tight_pipes = KernelConfig {
            pipe_capacity: 6,
            ..KernelConfig::default()
        };
        let spec = || {
            RunSpec::new(
                "domains",
                scenario(4, 12),
                CodegenOpts::purecap(),
                AbiMode::CheriAbi,
            )
            .with_config(tight_pipes)
        };
        let text = spec().to_json().to_string();
        // `text` with its one `"key":from` field set to `to`.
        let edit = |text: &str, key: &str, from: u64, to: u64| {
            let old = format!("\"{key}\":{from}");
            assert_eq!(text.matches(&old).count(), 1, "{text}");
            text.replace(&old, &format!("\"{key}\":{to}"))
        };
        // Every shape the binaries run, and the domain's edges.
        for (clients, queries) in [(1, 1), (16, 12), (4, 24), (64, 1024)] {
            let line = edit(&edit(&text, "clients", 4, clients), "queries", 12, queries);
            let back = RunSpec::from_json(&json::parse(&line).expect("parses"));
            assert_eq!(
                back.expect("in the domain").program,
                scenario(clients, queries)
            );
        }
        // A million clients aborted the host in `run_session`; zero
        // clients or queries measure nothing, a zero quantum runs nothing
        // and a zero-byte pipe blocks every writer.
        for (key, from, to) in [
            ("clients", 4, 1_000_000),
            ("clients", 4, 0),
            ("clients", 4, 65),
            ("queries", 12, 0),
            ("queries", 12, 1025),
            ("quantum", 100_000, 0),
            ("pipe_capacity", 6, 0),
        ] {
            let line = edit(&text, key, from, to);
            let err = RunSpec::from_json(&json::parse(&line).expect("parses"))
                .expect_err("outside the domain");
            assert!(err.contains(key), "{err}");
        }
        for (clients, queries) in [(1_000_000, 12), (0, 12), (4, 0), (4, 1025)] {
            let built = catch_unwind(|| {
                RunSpec::new(
                    "domains",
                    scenario(clients, queries),
                    CodegenOpts::purecap(),
                    AbiMode::CheriAbi,
                )
            });
            assert!(
                built.is_err(),
                "RunSpec::new({clients} x {queries}) must refuse"
            );
        }
        for config in [
            KernelConfig {
                quantum: 0,
                ..tight_pipes
            },
            KernelConfig {
                pipe_capacity: 0,
                ..tight_pipes
            },
            KernelConfig {
                default_instr_budget: 0,
                ..tight_pipes
            },
            KernelConfig {
                default_instr_budget: u64::MAX,
                ..tight_pipes
            },
        ] {
            let built = catch_unwind(|| spec().with_config(config));
            assert!(built.is_err(), "with_config({config:?}) must refuse");
        }

        // A budget of 2^64 - 1 was accepted and run with no deadline to
        // stop it, and a zero budget ran to `budget-exhausted`.
        let budgeted = spec().with_budget(50_000_000).to_json().to_string();
        for n in [1, 2_000_000_000] {
            let line = edit(&budgeted, "instr_budget", 50_000_000, n);
            let back = RunSpec::from_json(&json::parse(&line).expect("parses"));
            assert_eq!(back.expect("in the domain").instr_budget, Some(n));
            let line = edit(&text, "default_instr_budget", 2_000_000_000, n);
            let back = RunSpec::from_json(&json::parse(&line).expect("parses"));
            assert_eq!(back.expect("in the domain").config.default_instr_budget, n);
        }
        for n in [0, 2_000_000_001, u64::MAX] {
            let line = edit(&budgeted, "instr_budget", 50_000_000, n);
            let err = RunSpec::from_json(&json::parse(&line).expect("parses"))
                .expect_err("outside the domain");
            assert!(err.contains("instr_budget"), "{err}");
            let line = edit(&text, "default_instr_budget", 2_000_000_000, n);
            let err = RunSpec::from_json(&json::parse(&line).expect("parses"))
                .expect_err("outside the domain");
            assert!(err.contains("default_instr_budget"), "{err}");
            let built = catch_unwind(|| spec().with_budget(n));
            assert!(built.is_err(), "with_budget({n}) must refuse");
        }
    }

    #[test]
    fn exec_mode_encodes_only_when_not_default_and_decodes_legacy_keys() {
        let plain = exit_with_seed_spec("mode", 0);
        let text = plain.to_json().to_string();
        // The default tier encodes to nothing: pre-template spec JSON (and
        // every existing golden) stays byte-identical.
        assert!(!text.contains("exec_mode"), "{text}");
        assert!(!text.contains("fast_path"), "{text}");
        assert!(!text.contains("weaken_flush"), "{text}");
        for (mode, label) in [
            (ExecMode::SingleStep, Some("\"exec_mode\":\"single\"")),
            (ExecMode::Superblock, Some("\"exec_mode\":\"superblock\"")),
            (ExecMode::Template, None),
        ] {
            let spec = plain.clone().with_exec_mode(mode);
            let text = spec.to_json().to_string();
            match label {
                Some(l) => assert!(text.contains(l), "{text}"),
                None => assert!(!text.contains("exec_mode"), "{text}"),
            }
            let back = RunSpec::from_json(&json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, spec);
            assert_eq!(back.to_json().to_string(), text);
        }
        // The legacy two-tier key still decodes: `false` was the
        // single-step interpreter, `true` the (then two-tier) fast path.
        for (legacy, mode) in [
            ("\"fast_path\":false", ExecMode::SingleStep),
            ("\"fast_path\":true", ExecMode::Template),
        ] {
            let text = text.replace("\"trace\":false", &format!("\"trace\":false,{legacy}"));
            let back = RunSpec::from_json(&json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back.exec_mode, mode, "{legacy}");
        }
        // weaken_flush encodes only when set, and round-trips.
        let weakened = plain.with_weaken_flush(true);
        let text = weakened.to_json().to_string();
        assert!(text.contains("\"weaken_flush\":true"), "{text}");
        let back = RunSpec::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, weakened);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let registry = Registry::builtin();
        let statuses = [
            CaseOutcome::Exited(ExitStatus::Code(7)),
            CaseOutcome::Exited(ExitStatus::Fault(TrapCause::Cap(CapFault::LengthViolation))),
            CaseOutcome::Exited(ExitStatus::Fault(TrapCause::Vm(VmError::Unmapped(4096)))),
            CaseOutcome::Exited(ExitStatus::SanitizerAbort),
            CaseOutcome::Exited(ExitStatus::BudgetExhausted),
            CaseOutcome::Exited(ExitStatus::Signaled(9)),
            CaseOutcome::LoadFailed("no entry".to_string()),
            CaseOutcome::Panicked("builder \"exploded\"\n".to_string()),
            CaseOutcome::DeadlineExceeded,
            CaseOutcome::Deadlock("pid3: pipe-read(0); pid4: pipe-write(1)".to_string()),
            CaseOutcome::Divergence(
                "divergence at pc=0x10000 instret=4: register state diverged: c15".to_string(),
            ),
        ];
        for outcome in statuses {
            let report = CaseReport {
                name: "rt".to_string(),
                seed: 3,
                outcome,
                console: "hello\n".to_string(),
                metrics: Metrics {
                    instructions: 10,
                    cycles: 25,
                    l2_misses: 1,
                    syscalls: 2,
                },
                wall: Duration::from_micros(1234),
                cap_cdf: None,
                retries: 0,
                quarantined: false,
                faults: None,
                host: None,
                scenario: None,
                membrane: None,
            };
            let text = report.to_json().to_string();
            let back =
                CaseReport::from_json(&json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, report);
            assert_eq!(back.to_json().to_string(), text, "byte-identical re-encode");
        }
        // And a real run's report round-trips too.
        let report = execute_spec(&registry, &exit_with_seed_spec("real", 5));
        let back =
            CaseReport::from_json(&json::parse(&report.to_json().to_string()).expect("parses"))
                .expect("decodes");
        assert_eq!(back, report);
    }

    #[test]
    fn tagged_lines_carry_the_submission_index() {
        let report = CaseReport {
            name: "t".to_string(),
            seed: 0,
            outcome: CaseOutcome::Exited(ExitStatus::Code(0)),
            console: String::new(),
            metrics: Metrics::default(),
            wall: Duration::ZERO,
            cap_cdf: None,
            retries: 0,
            quarantined: false,
            faults: None,
            host: None,
            scenario: None,
            membrane: None,
        };
        let line = report.to_json_tagged(12).to_string();
        assert!(line.starts_with("{\"case\":12,\"name\":\"t\""), "{line}");
    }

    #[test]
    fn swap_io_traps_round_trip_through_json() {
        let status = ExitStatus::Fault(TrapCause::Vm(VmError::SwapIo(8192)));
        let text = exit_status_to_json(status).to_string();
        assert!(text.contains("vm:swap-io:8192"), "{text}");
        let back = exit_status_from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, status);
    }

    #[test]
    fn tail_fields_round_trip_but_plain_reports_omit_them() {
        use crate::fault::FaultCounters;
        let mut report = CaseReport {
            name: "rt".to_string(),
            seed: 1,
            outcome: CaseOutcome::Panicked("flaky".to_string()),
            console: String::new(),
            metrics: Metrics::default(),
            wall: Duration::from_micros(5),
            cap_cdf: None,
            retries: 0,
            quarantined: false,
            faults: Some(FaultCounters {
                flips: 1,
                tags_cleared: 1,
                ..FaultCounters::default()
            }),
            host: None,
            scenario: None,
            membrane: None,
        };
        let text = report.to_json().to_string();
        assert!(text.contains("\"faults\":{"), "{text}");
        let back = CaseReport::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, report);
        assert_eq!(back.to_json().to_string(), text, "byte-identical re-encode");
        // A plain report encodes without any of the tail fields, so every
        // pre-fault-plane golden (and cache entry) stays byte-identical.
        report.faults = None;
        let plain = report.to_json().to_string();
        assert!(!plain.contains("faults"), "{plain}");
        let back = CaseReport::from_json(&json::parse(&plain).expect("parses")).expect("decodes");
        assert_eq!(back, report, "absent tail fields decode to defaults");
    }

    #[test]
    fn fault_plans_ride_run_spec_json() {
        use crate::fault::{FaultKind, FaultPlan};
        let plain = exit_with_seed_spec("f", 4);
        let plain_text = plain.to_json().to_string();
        assert!(!plain_text.contains("\"fault\":"), "{plain_text}");
        // Pre-fault-plane JSON (no `fault` key) still decodes.
        let back = RunSpec::from_json(&json::parse(&plain_text).expect("parses")).expect("decodes");
        assert_eq!(back, plain);
        // And a planned spec round-trips byte-identically.
        let planned = plain.with_fault(FaultPlan::new(FaultKind::BitFlipCap {
            after_writes: 40,
            bit: 3,
        }));
        let text = planned.to_json().to_string();
        assert!(
            text.contains("\"fault\":{\"kind\":\"bit-flip-cap\""),
            "{text}"
        );
        let back = RunSpec::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, planned);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn oracle_modes_ride_run_spec_json() {
        let plain = exit_with_seed_spec("o", 4);
        let plain_text = plain.to_json().to_string();
        assert!(!plain_text.contains("\"oracle\""), "{plain_text}");
        assert!(!plain_text.contains("weaken_sem"), "{plain_text}");
        // Pre-oracle-plane JSON (no `oracle`/`weaken_sem` keys) still
        // decodes.
        let back = RunSpec::from_json(&json::parse(&plain_text).expect("parses")).expect("decodes");
        assert_eq!(back, plain);
        // And an oracle spec round-trips byte-identically.
        for (mode, label) in [
            (OracleMode::Lockstep, "\"oracle\":\"lockstep\""),
            (OracleMode::Replay, "\"oracle\":\"replay\""),
        ] {
            let spec = plain.clone().with_oracle(mode).with_weaken_sem(true);
            let text = spec.to_json().to_string();
            assert!(text.contains(label), "{text}");
            assert!(text.contains("\"weaken_sem\":true"), "{text}");
            let back = RunSpec::from_json(&json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, spec);
            assert_eq!(back.to_json().to_string(), text);
        }
    }

    #[test]
    fn oracle_runs_are_clean_and_report_identically_to_plain_runs() {
        let registry = Registry::builtin();
        let programs = [
            (
                ProgramSpec::Exit { code: 3 },
                CodegenOpts::purecap(),
                AbiMode::CheriAbi,
            ),
            (
                ProgramSpec::CapChurn { iters: 8 },
                CodegenOpts::purecap(),
                AbiMode::CheriAbi,
            ),
            (
                ProgramSpec::Spin { iters: 50 },
                CodegenOpts::mips64(),
                AbiMode::Mips64,
            ),
        ];
        for (i, (program, opts, abi)) in programs.into_iter().enumerate() {
            let plain = RunSpec::new(format!("case-{i}"), program, opts, abi).with_seed(i as u64);
            let baseline = execute_spec(&registry, &plain);
            assert!(
                !matches!(baseline.outcome, CaseOutcome::Divergence(_)),
                "got {:?}",
                baseline.outcome
            );
            for mode in [OracleMode::Lockstep, OracleMode::Replay] {
                let report = execute_spec(&registry, &plain.clone().with_oracle(mode));
                assert_eq!(report.outcome, baseline.outcome, "{mode:?}");
                assert_eq!(report.console, baseline.console, "{mode:?}");
                assert_eq!(report.metrics, baseline.metrics, "{mode:?}");
                assert_eq!(
                    report.to_json_deterministic(0).to_string(),
                    baseline.to_json_deterministic(0).to_string(),
                    "{mode:?} must not perturb the deterministic line"
                );
            }
        }
    }

    #[test]
    fn oracle_sessions_are_deterministic_across_job_counts() {
        let registry = Registry::builtin();
        let specs: Vec<RunSpec> = (0..8)
            .map(|i| {
                exit_with_seed_spec(&format!("case-{i}"), i).with_oracle(if i % 2 == 0 {
                    OracleMode::Lockstep
                } else {
                    OracleMode::Replay
                })
            })
            .collect();
        let seq = Harness::new(1).run(&registry, &specs);
        let par = Harness::new(8).run(&registry, &specs);
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(
                a.to_json_deterministic(i).to_string(),
                b.to_json_deterministic(i).to_string()
            );
        }
    }

    #[test]
    fn membrane_fields_ride_run_spec_json() {
        let plain = exit_with_seed_spec("m", 4);
        let plain_text = plain.to_json().to_string();
        assert!(!plain_text.contains("abi_mode"), "{plain_text}");
        assert!(!plain_text.contains("oracle_every"), "{plain_text}");
        assert!(!plain_text.contains("weaken_quarantine"), "{plain_text}");
        // The defaults encode to nothing: explicit strict / every=1 specs
        // are byte-identical to untouched ones (goldens stay valid).
        assert_eq!(
            plain
                .clone()
                .with_abi_mode(MembraneMode::Strict)
                .with_oracle_every(1)
                .to_json()
                .to_string(),
            plain_text
        );
        // Pre-membrane JSON still decodes.
        let back = RunSpec::from_json(&json::parse(&plain_text).expect("parses")).expect("decodes");
        assert_eq!(back, plain);
        // And a hardened spec round-trips byte-identically.
        let hardened = plain
            .clone()
            .with_abi_mode(MembraneMode::Hardened)
            .with_oracle_every(64)
            .with_weaken_quarantine(true);
        let text = hardened.to_json().to_string();
        assert!(text.contains("\"abi_mode\":\"hardened\""), "{text}");
        assert!(text.contains("\"oracle_every\":64"), "{text}");
        assert!(text.contains("\"weaken_quarantine\":true"), "{text}");
        let back = RunSpec::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, hardened);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn sampled_lockstep_matches_full_lockstep() {
        let registry = Registry::builtin();
        for (program, opts, abi) in [
            (
                ProgramSpec::CapChurn { iters: 12 },
                CodegenOpts::purecap(),
                AbiMode::CheriAbi,
            ),
            (
                ProgramSpec::Spin { iters: 40 },
                CodegenOpts::mips64(),
                AbiMode::Mips64,
            ),
        ] {
            let base =
                RunSpec::new("sampled", program, opts, abi).with_oracle(OracleMode::Lockstep);
            let implicit = execute_spec(&registry, &base);
            let full = execute_spec(&registry, &base.clone().with_oracle_every(1));
            let sampled = execute_spec(&registry, &base.clone().with_oracle_every(3));
            assert!(
                !matches!(implicit.outcome, CaseOutcome::Divergence(_)),
                "got {:?}",
                implicit.outcome
            );
            // every=1 ≡ the implicit full-lockstep default, and sampling
            // must not perturb the deterministic report either.
            for (label, report) in [("every=1", &full), ("every=3", &sampled)] {
                assert_eq!(
                    report.to_json_deterministic(0).to_string(),
                    implicit.to_json_deterministic(0).to_string(),
                    "{label}"
                );
            }
        }
    }

    fn lower_free_churn(
        spec: &ProgramSpec,
        opts: CodegenOpts,
        _seed: u64,
    ) -> Option<cheri_rtld::Program> {
        use crate::guest::GuestOps;
        use cheri_isa::codegen::Ptr;
        match spec {
            ProgramSpec::Corpus { case } if case == "free-churn" => {
                Some(crate::spec::single_main("free-churn", opts, |f| {
                    // Enough churn to push bytes through the quarantine
                    // (and, in hardened mode, across the sweep threshold).
                    for _ in 0..40 {
                        f.malloc_imm(Ptr(0), 512);
                        f.free(Ptr(0));
                    }
                    f.sys_exit_imm(0);
                }))
            }
            _ => None,
        }
    }

    #[test]
    fn hardened_membrane_evidence_is_deterministic_across_job_counts() {
        let registry = Registry::builtin().with(lower_free_churn);
        let spec = RunSpec::new(
            "churn",
            ProgramSpec::Corpus {
                case: "free-churn".to_string(),
            },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        );
        // Strict runs carry no membrane block — reports stay byte-identical
        // to before the membrane existed.
        let strict = execute_spec(&registry, &spec);
        assert_eq!(strict.outcome, CaseOutcome::Exited(ExitStatus::Code(0)));
        assert!(strict.membrane.is_none());
        assert!(!strict.to_json().to_string().contains("membrane"));
        // Hardened runs do, with non-zero deterministic counters, identical
        // across job counts and lockstep-clean.
        let hardened = spec.with_abi_mode(MembraneMode::Hardened);
        let specs: Vec<RunSpec> = (0..8)
            .map(|i| {
                let mut s = hardened.clone();
                s.name = format!("churn-{i}");
                s
            })
            .collect();
        let seq = Harness::new(1).run(&registry, &specs);
        let par = Harness::new(8).run(&registry, &specs);
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(
                a.to_json_deterministic(i).to_string(),
                b.to_json_deterministic(i).to_string()
            );
            let ev = a.membrane.expect("hardened runs attach evidence");
            assert!(ev.quarantine_bytes > 0, "frees were quarantined: {ev:?}");
            assert!(ev.swept_caps == 0, "no stale caps here: {ev:?}");
            assert!(
                a.to_json_deterministic(i).to_string().contains("membrane"),
                "evidence is part of the deterministic line"
            );
        }
        // Hardened repairs are semantics-preserving: lockstep stays clean.
        let locked = execute_spec(
            &registry,
            &hardened.clone().with_oracle(OracleMode::Lockstep),
        );
        assert_eq!(locked.outcome, CaseOutcome::Exited(ExitStatus::Code(0)));
    }

    #[test]
    fn faulted_specs_collect_counters_without_host_panics() {
        use crate::fault::{FaultKind, FaultPlan};
        let registry = Registry::builtin();
        // A transparent EINTR: malloc is an eligible syscall, so the
        // injection fires and the guest still exits with its normal code.
        let spec = RunSpec::new(
            "eintr",
            ProgramSpec::CapChurn { iters: 10 },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        )
        .with_fault(FaultPlan::new(FaultKind::SyscallEintr { at: 1 }));
        let report = execute_spec(&registry, &spec);
        assert_eq!(report.outcome, CaseOutcome::Exited(ExitStatus::Code(9)));
        let counters = report.faults.expect("faulted spec harvests counters");
        assert_eq!(counters.eintr_injected, 1);
        // A capability bit-flip with proper semantics: the run must end in
        // a clean exit or a clean guest fault — never a panic, and never a
        // still-tagged corrupted capability.
        let spec = RunSpec::new(
            "flip",
            ProgramSpec::CapChurn { iters: 10 },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        )
        .with_fault(FaultPlan::new(FaultKind::BitFlipCap {
            after_writes: 50,
            bit: 1,
        }));
        let report = execute_spec(&registry, &spec);
        assert!(
            matches!(report.outcome, CaseOutcome::Exited(_)),
            "got {:?}",
            report.outcome
        );
        let counters = report.faults.expect("harvested");
        assert_eq!(counters.tags_preserved, 0);
        assert_eq!(counters.corrupt_cap_loads, 0, "no escapes");
        // An unfaulted spec carries no counters at all.
        let plain = execute_spec(&registry, &exit_with_seed_spec("plain", 0));
        assert!(plain.faults.is_none());
    }

    #[test]
    fn traced_specs_collect_the_capability_cdf() {
        let registry = Registry::builtin();
        let spec = exit_with_seed_spec("traced", 0).with_trace(true);
        let report = execute_spec(&registry, &spec);
        let cdf = report.cap_cdf.expect("trace collected");
        assert!(cdf.total() > 0, "even exit(0) derives capabilities");
        let untraced = execute_spec(&registry, &exit_with_seed_spec("plain", 0));
        assert!(untraced.cap_cdf.is_none());
    }
}
