//! Scenario-plane determinism: latency percentiles (and everything else in
//! the deterministic line format) must be byte-identical across worker
//! counts, across the execution tiers, and across repeated runs.

use cheri_corpus::suite::{opts_for, registry};
use cheri_kernel::{AbiMode, KernelConfig};
use cheriabi::harness::{execute_spec, CaseOutcome, ExecMode, Harness, RunSpec};
use cheriabi::spec::ProgramSpec;
use cheriabi::ExitStatus;

fn scenario_specs() -> Vec<RunSpec> {
    let tight_pipes = KernelConfig {
        pipe_capacity: 6,
        ..KernelConfig::default()
    };
    let mut specs = Vec::new();
    for (abi, tag) in [(AbiMode::Mips64, "mips64"), (AbiMode::CheriAbi, "purecap")] {
        for (clients, queries) in [(1u64, 4u64), (3, 4)] {
            specs.push(
                RunSpec::new(
                    format!("scenario-{tag}-c{clients}"),
                    ProgramSpec::Scenario {
                        clients,
                        queries,
                        mix: "mixed".to_string(),
                        swap_pressure: false,
                    },
                    opts_for(abi),
                    abi,
                )
                .with_seed(11)
                .with_config(tight_pipes),
            );
        }
    }
    specs
}

#[test]
fn scenario_reports_identical_across_job_counts() {
    let registry = registry();
    let specs = scenario_specs();
    let one = Harness::new(1).run(&registry, &specs);
    let eight = Harness::new(8).run(&registry, &specs);
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(
            a.outcome,
            CaseOutcome::Exited(ExitStatus::Code(0)),
            "{}",
            a.name
        );
        assert!(a.scenario.is_some(), "{}: scenario stats present", a.name);
        assert_eq!(
            a.to_json_deterministic(0).to_string(),
            b.to_json_deterministic(0).to_string(),
            "{}: jobs=1 vs jobs=8",
            a.name
        );
    }
}

#[test]
fn scenario_percentiles_agree_between_execution_modes() {
    let registry = registry();
    for spec in scenario_specs() {
        let fast = execute_spec(&registry, &spec);
        let slow = execute_spec(
            &registry,
            &spec.clone().with_exec_mode(ExecMode::SingleStep),
        );
        assert_eq!(
            fast.to_json_deterministic(0).to_string(),
            slow.to_json_deterministic(0).to_string(),
            "{}: fast path vs single step",
            spec.name
        );
        let stats = fast.scenario.expect("stats");
        assert_eq!(stats.completed, stats.requests, "{}", spec.name);
        assert!(stats.p50 > 0 && stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
    }
}

#[test]
fn scenario_latencies_are_seed_sensitive() {
    // Different seeds shift the key streams and so the probe lengths; the
    // percentiles should not be accidentally seed-blind.
    let registry = registry();
    let spec = |seed: u64| {
        RunSpec::new(
            "scenario-seeded".to_string(),
            ProgramSpec::Scenario {
                clients: 2,
                queries: 6,
                mix: "mixed".to_string(),
                swap_pressure: false,
            },
            opts_for(AbiMode::CheriAbi),
            AbiMode::CheriAbi,
        )
        .with_seed(seed)
    };
    let a = execute_spec(&registry, &spec(1));
    let b = execute_spec(&registry, &spec(2));
    let (sa, sb) = (a.scenario.expect("stats"), b.scenario.expect("stats"));
    assert_ne!((sa.p50, sa.p95, sa.p99), (sb.p50, sb.p95, sb.p99));
}

#[test]
fn eight_client_scenario_repeats_with_identical_cycles() {
    // Eight forked clients exit and are torn down mid-run while the server
    // keeps allocating, so the order in which teardown returns frames
    // shapes every later cycle count. Every hash map in a process draws a
    // fresh iteration seed, so repeating the spec in-process exercises
    // teardown and fork under different page-table orders.
    let registry = registry();
    let spec = RunSpec::new(
        "scenario-mips64-c8-put".to_string(),
        ProgramSpec::Scenario {
            clients: 8,
            queries: 24,
            mix: "put".to_string(),
            swap_pressure: true,
        },
        opts_for(AbiMode::Mips64),
        AbiMode::Mips64,
    )
    .with_seed(11)
    .with_config(KernelConfig {
        pipe_capacity: 6,
        ..KernelConfig::default()
    });
    let first = execute_spec(&registry, &spec);
    assert_eq!(first.outcome, CaseOutcome::Exited(ExitStatus::Code(0)));
    for run in 1..6 {
        let again = execute_spec(&registry, &spec);
        assert_eq!(
            again.metrics.cycles, first.metrics.cycles,
            "run {run}: cycles differ from the first run"
        );
        assert_eq!(
            again.to_json_deterministic(0).to_string(),
            first.to_json_deterministic(0).to_string(),
            "run {run}"
        );
    }
}
