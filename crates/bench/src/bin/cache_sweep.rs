//! The §6 "cache studies" future-work experiment: sweep the shared L2 size
//! and measure how the CheriABI cycle overhead of a pointer-heavy workload
//! responds. The paper notes its FPGA "cache hierarchy nor pipeline
//! resembles a modern super-scalar CPU" and calls for a trace-based cache
//! analysis; this binary is that analysis for the simulated platform.
//!
//! The sweep also carries the DESIGN.md D1 ablation: CheriABI with 256-bit
//! exact capabilities (`CodegenOpts::purecap_c256()` on a C256 kernel)
//! beside the default 128-bit compressed format at every L2 size, since the
//! wider format's doubled pointer footprint is a cache-size question too.

use cheri_bench::cli;
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig};
use cheriabi::harness::{CaseOutcome, CaseReport, RunSpec};
use cheriabi::spec::ProgramSpec;
use cheriabi::{CapFormat, Metrics};

const SEED: u64 = 7;
const WORKLOAD: &str = "spec2006-xalancbmk";
const L2_SIZES_KIB: [u64; 5] = [64, 128, 256, 512, 1024];

fn metrics(report: &CaseReport) -> Metrics {
    match &report.outcome {
        CaseOutcome::Exited(_) => report.metrics,
        other => panic!("{}: {other}", report.name),
    }
}

fn main() {
    let opts = cli::parse_env();
    let mut specs = Vec::with_capacity(L2_SIZES_KIB.len() * 3);
    for l2_kib in L2_SIZES_KIB {
        for (label, codegen, abi, cap_fmt) in [
            (
                "mips64",
                CodegenOpts::mips64(),
                AbiMode::Mips64,
                CapFormat::C128,
            ),
            (
                "cheriabi",
                CodegenOpts::purecap(),
                AbiMode::CheriAbi,
                CapFormat::C128,
            ),
            (
                "cheriabi-c256",
                CodegenOpts::purecap_c256(),
                AbiMode::CheriAbi,
                CapFormat::C256,
            ),
        ] {
            specs.push(
                RunSpec::new(
                    format!("{WORKLOAD}-l2-{l2_kib}K-{label}"),
                    ProgramSpec::Workload {
                        name: WORKLOAD.to_string(),
                    },
                    codegen,
                    abi,
                )
                .with_seed(SEED)
                .with_budget(2_000_000_000)
                .with_l2_size(l2_kib * 1024)
                .with_config(KernelConfig {
                    cap_fmt,
                    ..KernelConfig::default()
                }),
            );
        }
    }
    let Some(reports) = cli::run_specs(&cheri_bench::registry(), &specs, &opts) else {
        return;
    };
    if !opts.json {
        println!("Cache sweep: CheriABI cycle overhead vs L2 size (spec2006-xalancbmk)");
        println!(
            "{:>8} {:>12} {:>12} {:>9} {:>14} {:>12} {:>14}",
            "L2",
            "mips64 cyc",
            "cheri cyc",
            "overhead",
            "cheri L2 miss",
            "c256 cyc",
            "c256 L2 miss"
        );
    }
    for (i, l2_kib) in L2_SIZES_KIB.into_iter().enumerate() {
        let m = metrics(&reports[i * 3]);
        let c = metrics(&reports[i * 3 + 1]);
        let w = metrics(&reports[i * 3 + 2]);
        let overhead = (c.cycles as f64 / m.cycles as f64 - 1.0) * 100.0;
        if opts.json {
            println!(
                "{{\"experiment\":\"cache_sweep\",\"l2_kib\":{l2_kib},\"mips64_cycles\":{},\"cheri_cycles\":{},\"overhead_pct\":{},\"cheri_l2_misses\":{},\"c256_cycles\":{},\"c256_l2_misses\":{}}}",
                m.cycles,
                c.cycles,
                cli::json_f64(overhead),
                c.l2_misses,
                w.cycles,
                w.l2_misses
            );
        } else {
            println!(
                "{:>6}K {:>12} {:>12} {:>+8.1}% {:>14} {:>12} {:>14}",
                l2_kib, m.cycles, c.cycles, overhead, c.l2_misses, w.cycles, w.l2_misses,
            );
        }
    }
    if opts.json {
        return;
    }
    println!();
    println!(
        "expected shape: the overhead peaks where the pure-capability\n\
         working set spills an L2 that still holds the legacy working set,\n\
         and shrinks once the cache comfortably holds both (or neither).\n\
         The 256-bit format (D1) doubles pointer footprint again: its L2\n\
         misses exceed the 128-bit format's at every size."
    );
}
