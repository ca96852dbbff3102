//! **table_server** — the scenario-plane headline table: a multi-tenant
//! minidb server under concurrent client load, measured in deterministic
//! guest cycles.
//!
//! Each cell runs `ProgramSpec::Scenario`: one server process answering
//! `clients` client processes over blocking pipes (capacity 6, so every
//! request crosses real block/wake scheduling), 12 queries per client of
//! a mixed put/get stream. Clients stamp each request enqueue→reply with
//! the `cycles` syscall; the harness folds the stamps into nearest-rank
//! p50/p95/p99. The grid is {mips64, purecap} × {1, 4, 16 clients}, plus
//! a swap-pressure variant per ABI (the server forces its pages out
//! between rounds) to show backpressure under capability churn + paging.
//!
//! Everything in a row is deterministic guest data — latencies are guest
//! cycles, not wall time — so output is byte-identical across `--jobs`
//! levels, shard merges, and `--exec-mode` tiers.

use cheri_bench::cli::{self, json_escape};
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig};
use cheriabi::harness::{CaseOutcome, RunSpec};
use cheriabi::spec::ProgramSpec;

const QUERIES: u64 = 12;
const SEED: u64 = 11;

struct Cell {
    clients: u64,
    swap: bool,
}

fn build_specs() -> (Vec<RunSpec>, Vec<Cell>) {
    let tight_pipes = KernelConfig {
        pipe_capacity: 6,
        ..KernelConfig::default()
    };
    let mut specs = Vec::new();
    let mut cells = Vec::new();
    for (abi, opts) in [
        (AbiMode::Mips64, CodegenOpts::mips64()),
        (AbiMode::CheriAbi, CodegenOpts::purecap()),
    ] {
        for (clients, swap) in [(1u64, false), (4, false), (16, false), (4, true)] {
            let suffix = if swap { "-swap" } else { "" };
            specs.push(
                RunSpec::new(
                    format!("server-{abi}-c{clients}{suffix}"),
                    ProgramSpec::Scenario {
                        clients,
                        queries: QUERIES,
                        mix: "mixed".to_string(),
                        swap_pressure: swap,
                    },
                    opts,
                    abi,
                )
                .with_seed(SEED)
                .with_config(tight_pipes),
            );
            cells.push(Cell { clients, swap });
        }
    }
    (specs, cells)
}

fn main() {
    let opts = cli::parse_env();
    let (specs, cells) = build_specs();
    let Some(reports) = cli::run_specs(&cheri_bench::registry(), &specs, &opts) else {
        return;
    };
    if !opts.json {
        println!(
            "table_server: multi-tenant minidb scenario ({QUERIES} queries/client, \
             mixed put/get, pipe capacity 6; latencies in guest cycles)"
        );
        println!(
            "{:<26} {:>5} {:>5} {:>9} {:>8} {:>8} {:>8}",
            "cell", "reqs", "done", "cyc/req", "p50", "p95", "p99"
        );
    }
    for ((spec, cell), report) in specs.iter().zip(&cells).zip(&reports) {
        let stats = report.scenario.unwrap_or_default();
        let cycles = report.metrics.cycles;
        if opts.json {
            let mut line = format!(
                "{{\"table\":\"table_server\",\"case\":\"{}\",\"abi\":\"{}\",\"clients\":{},\
                 \"swap_pressure\":{},\"requests\":{},\"completed\":{},\"cycles\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{}",
                json_escape(&spec.name),
                spec.abi,
                cell.clients,
                cell.swap,
                stats.requests,
                stats.completed,
                cycles,
                stats.p50,
                stats.p95,
                stats.p99
            );
            line.push_str(&format!(",\"outcome\":{}}}", report.outcome.to_json()));
            println!("{line}");
        } else {
            let per_req = cycles
                .checked_div(stats.completed)
                .map_or_else(|| "-".to_string(), |c| c.to_string());
            let flag = match &report.outcome {
                CaseOutcome::Exited(cheriabi::ExitStatus::Code(0)) => String::new(),
                CaseOutcome::Deadlock(_) => "  DEADLOCK".to_string(),
                other => format!("  {other}"),
            };
            println!(
                "{:<26} {:>5} {:>5} {:>9} {:>8} {:>8} {:>8}{flag}",
                spec.name,
                stats.requests,
                stats.completed,
                per_req,
                stats.p50,
                stats.p95,
                stats.p99
            );
        }
    }
    if !opts.json {
        println!();
        println!(
            "note: cyc/req divides whole-scenario guest cycles (server + all\n\
             clients + scheduler crossings) by completed requests; p50/p95/p99\n\
             are per-request enqueue→reply latencies stamped by the clients."
        );
    }
}
