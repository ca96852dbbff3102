//! Seeded fault-injection campaign: sweeps every fault kind over both
//! ABIs and a matrix of seeds, then machine-checks the robustness claims
//! of the fault plane:
//!
//! * **zero host panics** — injected corruption must surface as a guest
//!   outcome (clean capability fault, SIGBUS, errno, or a degraded but
//!   valid exit), never as a panic in the simulator itself;
//! * **zero silent successes** — a run that exits normally while a
//!   corrupted capability was loaded with its tag still set means the
//!   tag-clearing discipline failed. `--weaken-tag-clear` arms exactly
//!   that broken discipline as a self-test: the campaign must then fail.
//!
//! Each cell is one `(seed, fault kind, ABI, probe family)` tuple. Two
//! probe families run per triple: a single-process probe chosen per kind
//! (a capability-churn loop for memory and syscall faults, a swap-stress
//! loop for swap-device faults), and a scenario-plane probe — the same
//! fault armed mid-serve in the multi-process minidb scenario, where a
//! killed process surfaces as a degraded request count or a diagnosed
//! deadlock. Cells ride
//! the shared harness session, so `--jobs`, `--cache`, `--shard`,
//! `--fleet` and `--dump-specs` all apply, and the campaign
//! JSON — built solely from deterministic fields (outcomes and fault
//! counters, never wall time) — is byte-identical at any `--jobs` level
//! and across fleet-dispatched runs.
//!
//! Extra flags beyond the shared set:
//!
//! * `--seeds N` — seeds per (kind, ABI) cell (default 17, giving
//!   17 × 6 × 2 × 2 = 408 cells);
//! * `--weaken-tag-clear` — self-test hook, see above;
//! * `--out PATH` — where to write the campaign JSON (default
//!   `BENCH_faults.json`; `-` for stdout only).
//!
//! Exits non-zero iff any cell is a host panic or a silent success.

use cheri_bench::cli;
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig};
use cheriabi::fault::{all_kinds, FaultKind, FaultPlan};
use cheriabi::harness::{CaseOutcome, CaseReport, RunSpec};
use cheriabi::json::Json;
use cheriabi::spec::ProgramSpec;
use cheriabi::ExitStatus;

/// How one cell's outcome is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CellClass {
    /// The simulator itself panicked — a campaign failure.
    HostPanic,
    /// The guest exited normally after loading a still-tagged corrupted
    /// capability — a campaign failure.
    SilentSuccess,
    /// The differential oracle caught the fast machine disagreeing with
    /// the reference semantics (`--oracle` runs) — a campaign failure.
    Divergence,
    /// The fault surfaced as a guest-visible fault or signal.
    CleanFault,
    /// The fault fired and the guest still produced a valid exit (retry
    /// absorbed it, errno was handled, or data corruption changed the
    /// result without touching a capability).
    Degraded,
    /// The fault never fired (e.g. the trigger point was past the end of
    /// the run) and the guest was untouched.
    Unaffected,
    /// Load failure or deadline — environmental, not a fault-plane verdict.
    Other,
}

impl CellClass {
    fn tag(self) -> &'static str {
        match self {
            CellClass::HostPanic => "host-panic",
            CellClass::SilentSuccess => "silent-success",
            CellClass::Divergence => "divergence",
            CellClass::CleanFault => "clean-fault",
            CellClass::Degraded => "degraded",
            CellClass::Unaffected => "unaffected",
            CellClass::Other => "other",
        }
    }
}

fn classify(report: &CaseReport) -> CellClass {
    let fired = report.faults.is_some_and(|c| c.fired());
    let escaped = report.faults.is_some_and(|c| c.corrupt_cap_loads > 0);
    match &report.outcome {
        CaseOutcome::Panicked(_) => CellClass::HostPanic,
        CaseOutcome::Exited(ExitStatus::Code(_)) if escaped => CellClass::SilentSuccess,
        CaseOutcome::Exited(ExitStatus::Code(_)) if fired => CellClass::Degraded,
        CaseOutcome::Exited(ExitStatus::Code(_)) => CellClass::Unaffected,
        CaseOutcome::Exited(_) => CellClass::CleanFault,
        // A deadlocked scenario is the fault surfacing as a guest-visible
        // outcome (a killed server strands its clients on reply pipes);
        // the kernel's diagnostics travel in the outcome JSON.
        CaseOutcome::Deadlock(_) => CellClass::CleanFault,
        CaseOutcome::Divergence(_) => CellClass::Divergence,
        CaseOutcome::LoadFailed(_) | CaseOutcome::DeadlineExceeded => CellClass::Other,
    }
}

/// The probe program for a fault kind: swap faults need pages on the swap
/// device; everything else wants a tight capability-churn loop.
fn probe_for(kind: FaultKind) -> ProgramSpec {
    match kind {
        FaultKind::SwapReadErr { .. } | FaultKind::SwapWriteErr { .. } => {
            ProgramSpec::SwapStress { pages: 5 }
        }
        _ => ProgramSpec::CapChurn { iters: 40 },
    }
}

/// The scenario-plane probe for a fault kind: the same fault injected
/// mid-serve into a multi-process minidb scenario. Swap faults only have
/// something to hit when the server forces swap traffic.
fn scenario_probe_for(kind: FaultKind) -> ProgramSpec {
    ProgramSpec::Scenario {
        clients: 2,
        queries: 4,
        mix: "mixed".to_string(),
        swap_pressure: matches!(
            kind,
            FaultKind::SwapReadErr { .. } | FaultKind::SwapWriteErr { .. }
        ),
    }
}

fn build_specs(seeds: u64, weaken: bool) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for seed in 0..seeds {
        // Vary the trigger point and bit with the seed so the sweep hits
        // early, mid and late events and different corruption shapes. Each
        // family's window is scaled to how many of its events a probe run
        // actually produces (memory mutations are plentiful; swap-device
        // transfers and syscalls number in the single digits).
        let after = 1 + (seed * 13) % 60;
        let bit = u32::try_from((seed * 7) % 64).expect("bit < 64");
        let swap_at = 1 + seed % 8;
        let syscall_at = 1 + seed % 3;
        for kind in [
            FaultKind::BitFlipData {
                after_writes: after,
                bit,
            },
            FaultKind::BitFlipCap {
                after_writes: after,
                bit,
            },
            FaultKind::SwapReadErr {
                at: swap_at,
                count: 1 + u32::try_from(seed % 2).expect("small"),
            },
            FaultKind::SwapWriteErr {
                at: swap_at,
                count: 1 + u32::try_from(seed % 2).expect("small"),
            },
            FaultKind::SyscallEintr { at: syscall_at },
            FaultKind::SyscallEnomem { at: syscall_at },
        ] {
            for (abi, opts) in [
                (AbiMode::Mips64, CodegenOpts::mips64()),
                (AbiMode::CheriAbi, CodegenOpts::purecap()),
            ] {
                let mut plan = FaultPlan::new(kind);
                plan.weaken_tag_clear = weaken;
                specs.push(
                    RunSpec::new(
                        format!("{}-{abi}-s{seed}", kind.tag()),
                        probe_for(kind),
                        opts,
                        abi,
                    )
                    .with_seed(seed)
                    .with_fault(plan),
                );
                // Scenario cell family: the same fault armed mid-serve in
                // the multi-process minidb scenario. Tight pipes keep the
                // processes blocking/waking, so the fault lands amid real
                // scheduler traffic; a killed process shows up as either a
                // degraded request count or a diagnosed deadlock.
                let mut plan = FaultPlan::new(kind);
                plan.weaken_tag_clear = weaken;
                specs.push(
                    RunSpec::new(
                        format!("scenario-{}-{abi}-s{seed}", kind.tag()),
                        scenario_probe_for(kind),
                        opts,
                        abi,
                    )
                    .with_seed(seed)
                    .with_config(KernelConfig {
                        pipe_capacity: 6,
                        ..KernelConfig::default()
                    })
                    .with_fault(plan),
                );
            }
        }
    }
    specs
}

const USAGE: &str = "\n  \
    --seeds N      seeds per (kind, ABI) cell (default 17)\n  \
    --weaken-tag-clear  self-test: break tag clearing; the\n                 \
    campaign must then report silent successes and fail\n  \
    --out PATH     campaign JSON destination (default\n                 \
    BENCH_faults.json; - for stdout only)";

fn main() {
    let mut seeds: u64 = 17;
    let mut weaken = false;
    let mut out = "BENCH_faults.json".to_string();
    let opts = cli::parse_env_with(USAGE, |flag, args| {
        match flag {
            "--seeds" => seeds = cli::count(args, flag)?,
            "--weaken-tag-clear" => weaken = true,
            "--out" => out = cli::value(args, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let specs = build_specs(seeds, weaken);
    let Some(reports) = cli::run_specs(&cheri_bench::registry(), &specs, &opts) else {
        return;
    };

    let mut totals = [0usize; 7];
    let mut cells = Vec::new();
    for (spec, report) in specs.iter().zip(&reports) {
        let class = classify(report);
        totals[class as usize] += 1;
        let plan = spec.fault.as_ref().expect("every cell is planned");
        let mut fields = vec![
            ("case", Json::str(spec.name.clone())),
            ("kind", Json::str(plan.kind.tag())),
            ("abi", Json::str(spec.abi.to_string())),
            ("seed", Json::u64(spec.seed)),
            ("class", Json::str(class.tag())),
            ("outcome", report.outcome.to_json()),
        ];
        if let Some(counters) = &report.faults {
            fields.push(("faults", counters.to_json()));
        }
        cells.push(Json::obj(fields));
    }
    let host_panics = totals[CellClass::HostPanic as usize];
    let silent = totals[CellClass::SilentSuccess as usize];
    let divergences = totals[CellClass::Divergence as usize];
    let campaign_fields = vec![
        ("campaign", Json::str("faults")),
        ("seeds", Json::u64(seeds)),
        ("weaken_tag_clear", Json::Bool(weaken)),
        ("cells", Json::u64(cells.len() as u64)),
        ("host_panics", Json::u64(host_panics as u64)),
        ("silent_successes", Json::u64(silent as u64)),
        ("divergences", Json::u64(divergences as u64)),
        (
            "clean_faults",
            Json::u64(totals[CellClass::CleanFault as usize] as u64),
        ),
        (
            "degraded",
            Json::u64(totals[CellClass::Degraded as usize] as u64),
        ),
        (
            "unaffected",
            Json::u64(totals[CellClass::Unaffected as usize] as u64),
        ),
        ("other", Json::u64(totals[CellClass::Other as usize] as u64)),
        ("results", Json::Arr(cells)),
    ];
    let campaign = Json::obj(campaign_fields);
    if out == "-" {
        println!("{campaign}");
    } else {
        let mut text = campaign.to_string();
        text.push('\n');
        if let Err(err) = std::fs::write(&out, text) {
            cli::fail(&format!("fault_campaign: writing {out}: {err}"));
        }
    }
    if opts.json {
        println!(
            "{{\"campaign\":\"faults\",\"cells\":{},\"host_panics\":{host_panics},\"silent_successes\":{silent}}}",
            reports.len()
        );
    } else {
        println!(
            "fault campaign: {} cells ({} seeds x {} kinds x 2 ABIs x 2 probe families)",
            reports.len(),
            seeds,
            all_kinds(1, 0).len()
        );
        for class in [
            CellClass::HostPanic,
            CellClass::SilentSuccess,
            CellClass::Divergence,
            CellClass::CleanFault,
            CellClass::Degraded,
            CellClass::Unaffected,
            CellClass::Other,
        ] {
            println!("  {:<16} {:>5}", class.tag(), totals[class as usize]);
        }
        if out != "-" {
            println!("campaign JSON: {out}");
        }
    }
    if host_panics > 0 || silent > 0 || divergences > 0 {
        eprintln!(
            "fault_campaign: FAILED — {host_panics} host panics, {silent} silent successes, \
             {divergences} divergences"
        );
        std::process::exit(1);
    }
}
