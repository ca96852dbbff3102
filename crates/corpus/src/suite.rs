//! Suite runner: executes a corpus under one ABI and tallies Table 1 rows.
//!
//! Execution goes through the unified [`cheriabi::harness`]: each test case
//! becomes a declarative [`RunSpec`] naming its program
//! ([`ProgramSpec::Corpus`] keyed by the case's unique name), and the suite
//! fans out across a worker pool with reports reassembled in corpus order,
//! so the tallies (and the failure list feeding Table 2) are identical at
//! any `--jobs` level. Because specs are plain data, suite runs compose
//! with the harness's report cache and `--shard` splitting; this module's
//! [`lower`] function is the corpus's entry in the program registry.

use crate::compat::Category;
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, ExitStatus};
use cheri_rtld::Program;
use cheriabi::harness::{CaseOutcome, CaseReport, Harness, RunSpec};
use cheriabi::spec::{ProgramSpec, Registry};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Exit code a test uses to report "skipped" (the automake convention).
pub const SKIP_EXIT_CODE: i64 = 77;

/// What a test is expected to do (used for corpus self-checks, not for
/// scoring — scoring only looks at actual outcomes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestExpectation {
    /// Passes under both ABIs.
    PassBoth,
    /// Fails (or traps) under CheriABI only, for the given Table 2 reason.
    FailCheriOnly(Category),
    /// Fails under both (a pre-existing bug in the test).
    FailBoth,
    /// Skips under both ABIs (e.g. requires `sbrk`).
    SkipBoth,
    /// Skips under CheriABI only (needs a compatibility shim).
    SkipCheriOnly,
}

/// Builds the guest program for a codegen configuration (shared so the
/// registry can hand it to a worker thread).
pub type CaseBuilder = Arc<dyn Fn(CodegenOpts) -> Program + Send + Sync>;

/// One corpus test.
pub struct TestCase {
    /// The case's identity in the program registry
    /// ([`ProgramSpec::Corpus`]): a name may recur across suites, but
    /// only ever for the identical program.
    pub name: String,
    /// Builds the guest program.
    pub build: CaseBuilder,
    /// Expected behaviour.
    pub expectation: TestExpectation,
}

impl fmt::Debug for TestCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TestCase({}, {:?})", self.name, self.expectation)
    }
}

/// Why a test failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The guest ran and ended badly (non-zero exit, trap, budget).
    Status(ExitStatus),
    /// The program did not load.
    Load(String),
    /// Building or running the case panicked in the harness worker.
    Panicked(String),
    /// The case exceeded its wall-clock deadline.
    Deadline,
    /// The scheduler declared deadlock; the string is the kernel's per-pid
    /// blocked-on diagnostics (scenario runs only).
    Deadlock(String),
    /// The differential oracle caught the fast machine disagreeing with
    /// the reference semantics (`--oracle` runs only) — a simulator bug,
    /// not a guest failure, but a suite failure all the same.
    Divergence(String),
}

impl FailureKind {
    /// The guest exit status, if the test actually ran.
    #[must_use]
    pub fn status(&self) -> Option<ExitStatus> {
        match self {
            FailureKind::Status(status) => Some(*status),
            _ => None,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Status(status) => write!(f, "{status:?}"),
            FailureKind::Load(e) => write!(f, "load failed: {e}"),
            FailureKind::Panicked(e) => write!(f, "panicked: {e}"),
            FailureKind::Deadline => write!(f, "deadline exceeded"),
            FailureKind::Deadlock(diag) => write!(f, "deadlock: {diag}"),
            FailureKind::Divergence(detail) => write!(f, "divergence: {detail}"),
        }
    }
}

/// Outcome of one test under one ABI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SuiteOutcome {
    /// Exit code 0.
    Pass,
    /// Non-zero exit, trap, budget exhaustion, load failure, panic, or
    /// missed deadline.
    Fail(FailureKind),
    /// Exit code [`SKIP_EXIT_CODE`].
    Skip,
}

/// Aggregate results for one ABI (one row of Table 1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuiteResult {
    /// Tests that passed.
    pub pass: usize,
    /// Tests that failed.
    pub fail: usize,
    /// Tests that skipped.
    pub skip: usize,
    /// Names and failure kinds, in corpus order (feeds Table 2).
    pub failures: Vec<(String, FailureKind)>,
}

impl SuiteResult {
    /// Total tests run.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pass + self.fail + self.skip
    }
}

impl fmt::Display for SuiteResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pass / {} fail / {} skip (of {})",
            self.pass,
            self.fail,
            self.skip,
            self.total()
        )
    }
}

/// Codegen options for an ABI (corpus programs are never sanitised).
#[must_use]
pub fn opts_for(abi: AbiMode) -> CodegenOpts {
    match abi {
        AbiMode::Mips64 => CodegenOpts::mips64(),
        AbiMode::CheriAbi => CodegenOpts::purecap(),
    }
}

/// Instruction budget per corpus test.
const CASE_BUDGET: u64 = 20_000_000;

/// Every corpus case builder, keyed by name — the lookup table behind
/// [`ProgramSpec::Corpus`] lowering. Built once, on first use; the case
/// *lists* are cheap to build (the builders are closures, invoked only
/// when a case actually lowers). The libc++-like subsuite reuses whole
/// families of the FreeBSD-like suite, so a name can appear in several
/// suites — always denoting the identical program (same family
/// constructor, same parameters), which is what makes name-keyed lowering
/// (and name-keyed report caching) sound.
#[allow(clippy::disallowed_types)] // case names, one lookup per lowered spec
fn case_builders() -> &'static std::collections::HashMap<String, CaseBuilder> {
    static MAP: OnceLock<std::collections::HashMap<String, CaseBuilder>> = OnceLock::new();
    MAP.get_or_init(|| {
        let mut map = std::collections::HashMap::new();
        for case in crate::families::freebsd_suite()
            .into_iter()
            .chain(crate::families::libcxx_suite())
            .chain(crate::minidb::pg_regress_suite())
        {
            map.entry(case.name.clone()).or_insert(case.build);
        }
        // The adversarial corpus rides the same registry: `atk-*` names,
        // lowered identically under every ABI mode (only the membrane's
        // behaviour differs, never the program).
        for case in crate::attacks::attack_suite() {
            map.entry(case.name.clone()).or_insert(case.build);
        }
        map
    })
}

/// This crate's entry in the program registry: lowers [`ProgramSpec::Corpus`]
/// (by unique case name), [`ProgramSpec::Initdb`] and
/// [`ProgramSpec::InitdbDynamic`] (the Figure 4 workload, whose record
/// count varies with the seed as `base_records + (seed % 5) * 20`), and
/// [`ProgramSpec::Scenario`] (the multi-tenant minidb scenario plane).
///
/// # Panics
///
/// Panics when a `Corpus` spec names a case no suite defines — inside a
/// harness worker this is confined to the case's report.
#[must_use]
pub fn lower(spec: &ProgramSpec, opts: CodegenOpts, seed: u64) -> Option<Program> {
    match spec {
        ProgramSpec::Corpus { case } => {
            let build = case_builders()
                .get(case)
                .unwrap_or_else(|| panic!("no corpus case named `{case}`"));
            Some(build(opts))
        }
        ProgramSpec::Initdb { records } => Some(crate::minidb::build_initdb(opts, *records)),
        ProgramSpec::InitdbDynamic { base_records } => Some(crate::minidb::build_initdb(
            opts,
            base_records + (seed % 5) as i64 * 20,
        )),
        ProgramSpec::Scenario {
            clients,
            queries,
            mix,
            swap_pressure,
        } => Some(crate::scenario::build(
            opts,
            seed,
            *clients,
            *queries,
            mix,
            *swap_pressure,
        )),
        _ => None,
    }
}

/// A registry sufficient for everything this crate lowers.
#[must_use]
pub fn registry() -> Registry {
    Registry::builtin().with(lower)
}

/// Lowers one test into a harness spec for `abi`.
#[must_use]
pub fn case_spec(case: &TestCase, abi: AbiMode) -> RunSpec {
    RunSpec::new(
        case.name.clone(),
        ProgramSpec::Corpus {
            case: case.name.clone(),
        },
        opts_for(abi),
        abi,
    )
    .with_budget(CASE_BUDGET)
}

/// Lowers a whole suite into harness specs for `abi`, in corpus order —
/// the input to [`suite_from_reports`], and to the harness's caching /
/// sharding / streaming session modes in between.
#[must_use]
pub fn suite_specs(cases: &[TestCase], abi: AbiMode) -> Vec<RunSpec> {
    cases.iter().map(|case| case_spec(case, abi)).collect()
}

/// Scores a harness outcome as a suite outcome.
#[must_use]
pub fn score(outcome: &CaseOutcome) -> SuiteOutcome {
    match outcome {
        CaseOutcome::Exited(ExitStatus::Code(0)) => SuiteOutcome::Pass,
        CaseOutcome::Exited(ExitStatus::Code(SKIP_EXIT_CODE)) => SuiteOutcome::Skip,
        CaseOutcome::Exited(other) => SuiteOutcome::Fail(FailureKind::Status(*other)),
        CaseOutcome::LoadFailed(e) => SuiteOutcome::Fail(FailureKind::Load(e.clone())),
        CaseOutcome::Panicked(e) => SuiteOutcome::Fail(FailureKind::Panicked(e.clone())),
        CaseOutcome::DeadlineExceeded => SuiteOutcome::Fail(FailureKind::Deadline),
        CaseOutcome::Deadlock(diag) => SuiteOutcome::Fail(FailureKind::Deadlock(diag.clone())),
        CaseOutcome::Divergence(detail) => {
            SuiteOutcome::Fail(FailureKind::Divergence(detail.clone()))
        }
    }
}

/// Tallies suite reports (in corpus order) into one Table 1 row.
#[must_use]
pub fn suite_from_reports<'a>(reports: impl IntoIterator<Item = &'a CaseReport>) -> SuiteResult {
    let mut result = SuiteResult::default();
    for report in reports {
        match score(&report.outcome) {
            SuiteOutcome::Pass => result.pass += 1,
            SuiteOutcome::Skip => result.skip += 1,
            SuiteOutcome::Fail(kind) => {
                result.fail += 1;
                result.failures.push((report.name.clone(), kind));
            }
        }
    }
    result
}

/// Runs one test under `abi` in a fresh kernel.
#[must_use]
pub fn run_case(case: &TestCase, abi: AbiMode) -> SuiteOutcome {
    score(&cheriabi::harness::execute_spec(&registry(), &case_spec(case, abi)).outcome)
}

/// Runs a whole suite under `abi` across `jobs` workers.
#[must_use]
pub fn run_suite_jobs(cases: &[TestCase], abi: AbiMode, jobs: usize) -> SuiteResult {
    let reports = Harness::new(jobs).run(&registry(), &suite_specs(cases, abi));
    suite_from_reports(&reports)
}

/// Runs a whole suite under `abi` sequentially.
#[must_use]
pub fn run_suite(cases: &[TestCase], abi: AbiMode) -> SuiteResult {
    run_suite_jobs(cases, abi, 1)
}

/// Classifies a suite's failures into Table 2 categories using the dynamic
/// trap classifier.
#[must_use]
pub fn classify_failures(result: &SuiteResult) -> Vec<(String, Option<Category>)> {
    result
        .failures
        .iter()
        .map(|(name, kind)| {
            let cat = match kind {
                FailureKind::Status(ExitStatus::Fault(cause)) => Category::from_trap(cause),
                _ => None,
            };
            (name.clone(), cat)
        })
        .collect()
}
