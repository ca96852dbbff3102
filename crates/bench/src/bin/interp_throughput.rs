//! Host-side interpreter throughput: guest-MIPS across the three execution
//! modes — the reference interpreter (`--exec-mode single`, also the
//! `--oracle` baseline), plain TLB stepping (`--exec-mode superblock`),
//! and stepping with hot branch targets promoted to trace templates
//! (`--exec-mode template`, the default everywhere else). The ref row
//! prices the oracle: `ref_overhead` is tmpl MIPS over ref MIPS, an upper
//! bound on the slowdown of `--oracle replay`.
//!
//! Unlike every other binary here, this one measures *host* wall time, so
//! its numbers vary run to run and machine to machine. Guest-visible
//! metrics must NOT vary: the binary re-measures each program in every
//! mode and exits non-zero if any counter differs, making every
//! invocation a determinism check for the TLB/epoch stepper and the
//! template tier. `--weaken-flush` deliberately drops one template exit
//! flush so CI can prove that check has teeth (the run must exit
//! non-zero).
//!
//! Writes `BENCH_interp.json` (see EXPERIMENTS.md).

use std::time::Instant;

use cheri_bench::cli::json_f64;
use cheri_corpus::families::freebsd_suite;
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig, SpawnOpts};
use cheriabi::spec::{ProgramSpec, Registry};
use cheriabi::{Metrics, System};

const USAGE: &str = "usage: interp_throughput [options]
  --no-fast-path    measure only the reference interpreter
  --weaken-flush    test-only: drop one template exit flush; the metric
                    cross-check must then fail (exit non-zero)
  --trials <n>      wall-time trials per mode (default 3, best-of)
  --spin-iters <n>  spin loop iterations (default 2000000)
  --out <path>      output JSON path (default BENCH_interp.json)
  -h, --help        this help";

struct Opts {
    fast_too: bool,
    weaken_flush: bool,
    trials: u32,
    spin_iters: i64,
    out: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        fast_too: true,
        weaken_flush: false,
        trials: 3,
        spin_iters: 2_000_000,
        out: "BENCH_interp.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-fast-path" => opts.fast_too = false,
            "--weaken-flush" => opts.weaken_flush = true,
            "--trials" => {
                opts.trials = args
                    .next()
                    .ok_or("--trials needs a value")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--spin-iters" => {
                opts.spin_iters = args
                    .next()
                    .ok_or("--spin-iters needs a value")?
                    .parse()
                    .map_err(|e| format!("--spin-iters: {e}"))?;
            }
            "--out" => opts.out = args.next().ok_or("--out needs a value")?,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.trials == 0 {
        return Err("--trials must be at least 1".to_string());
    }
    Ok(opts)
}

/// An interpreter execution mode: the stepper (fast path) and, on top of
/// it, template promotion.
#[derive(Clone, Copy)]
struct Mode {
    fast: bool,
    templates: bool,
}

impl Mode {
    /// The reference interpreter: pure per-step semantics, no TLB, no
    /// resident region — the machine the differential oracle replays on.
    const REF: Mode = Mode {
        fast: false,
        templates: false,
    };
    /// Plain TLB stepping (`--exec-mode superblock`).
    const STEP: Mode = Mode {
        fast: true,
        templates: false,
    };
    /// Stepping with template promotion (`--exec-mode template`, the
    /// default everywhere else).
    const TMPL: Mode = Mode {
        fast: true,
        templates: true,
    };
}

/// One timed execution. Returns guest metrics and host wall seconds.
fn run_once(registry: &Registry, spec: &ProgramSpec, mode: Mode, weaken: bool) -> (Metrics, f64) {
    let program = registry.lower(spec, CodegenOpts::purecap(), 0);
    let mut sys = System::with_config(KernelConfig::default());
    sys.kernel.cpu.set_fast_path(mode.fast);
    sys.kernel.cpu.set_templates(mode.templates);
    if weaken && mode.templates {
        sys.kernel.cpu.set_weaken_flush(true);
    }
    let opts = SpawnOpts::new(AbiMode::CheriAbi);
    let start = Instant::now();
    let (_, _, metrics) = sys.measure(&program, &opts).expect("program loads");
    (metrics, start.elapsed().as_secs_f64())
}

/// Best-of-`trials` wall time for one (program, mode) pair; asserts the
/// guest metrics are identical across trials.
fn run_mode(
    registry: &Registry,
    spec: &ProgramSpec,
    mode: Mode,
    trials: u32,
    weaken: bool,
) -> (Metrics, f64) {
    let (metrics, mut best) = run_once(registry, spec, mode, weaken);
    for _ in 1..trials {
        let (m, wall) = run_once(registry, spec, mode, weaken);
        assert_eq!(m, metrics, "guest metrics must be identical across trials");
        best = best.min(wall);
    }
    (metrics, best)
}

fn mips(instructions: u64, wall: f64) -> f64 {
    instructions as f64 / wall / 1e6
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("interp_throughput: {e}");
            std::process::exit(2);
        }
    };
    let registry = cheri_bench::registry();
    let corpus_case = freebsd_suite()
        .first()
        .map(|c| c.name.clone())
        .expect("non-empty corpus");
    let programs: Vec<(String, ProgramSpec)> = vec![
        (
            "spin".to_string(),
            ProgramSpec::Spin {
                iters: opts.spin_iters,
            },
        ),
        (
            "workload:auto-qsort".to_string(),
            ProgramSpec::Workload {
                name: "auto-qsort".to_string(),
            },
        ),
        (
            format!("corpus:{corpus_case}"),
            ProgramSpec::Corpus { case: corpus_case },
        ),
    ];
    let mut lines = Vec::new();
    let mut spin_speedup: Option<f64> = None;
    let mut spin_tmpl_speedup: Option<f64> = None;
    let mut mismatch = false;
    println!(
        "{:<28} {:>12} {:>11} {:>11} {:>11} {:>8} {:>9}",
        "program", "guest instrs", "ref MIPS", "step MIPS", "tmpl MIPS", "speedup", "tmpl gain"
    );
    for (name, spec) in &programs {
        let (ref_metrics, ref_wall) = run_mode(&registry, spec, Mode::REF, opts.trials, false);
        let ref_mips = mips(ref_metrics.instructions, ref_wall);
        // (step, tmpl) as (wall, MIPS) pairs, when the fast modes run.
        let fast = opts.fast_too.then(|| {
            let (step_metrics, step_wall) =
                run_mode(&registry, spec, Mode::STEP, opts.trials, false);
            let (tmpl_metrics, tmpl_wall) =
                run_mode(&registry, spec, Mode::TMPL, opts.trials, opts.weaken_flush);
            for (mode, m) in [("step", &step_metrics), ("template", &tmpl_metrics)] {
                if m != &ref_metrics {
                    eprintln!(
                        "interp_throughput: {name}: guest metrics diverge between \
                         {mode} and the reference interpreter: {m:?} vs {ref_metrics:?}"
                    );
                    mismatch = true;
                }
            }
            (
                (step_wall, mips(step_metrics.instructions, step_wall)),
                (tmpl_wall, mips(tmpl_metrics.instructions, tmpl_wall)),
            )
        });
        // speedup: tmpl over ref; tmpl gain: tmpl over plain stepping.
        let gains = fast.map(|((_, step), (_, tmpl))| (tmpl / ref_mips, tmpl / step));
        if name == "spin" {
            spin_speedup = gains.map(|g| g.0);
            spin_tmpl_speedup = gains.map(|g| g.1);
        }
        let num = |v: Option<f64>| v.map_or("null".to_string(), json_f64);
        let cell =
            |v: Option<f64>, suffix: &str| v.map_or("-".to_string(), |v| format!("{v:.2}{suffix}"));
        let step = fast.map(|f| f.0);
        let tmpl = fast.map(|f| f.1);
        println!(
            "{:<28} {:>12} {:>11.2} {:>11} {:>11} {:>8} {:>9}",
            name,
            ref_metrics.instructions,
            ref_mips,
            cell(step.map(|s| s.1), ""),
            cell(tmpl.map(|t| t.1), ""),
            cell(gains.map(|g| g.0), "x"),
            cell(gains.map(|g| g.1), "x"),
        );
        lines.push(format!(
            "{{\"program\":\"{}\",\"instructions\":{},\"cycles\":{},\"wall_ms_ref\":{},\"mips_ref\":{},\"wall_ms_step\":{},\"mips_step\":{},\"wall_ms_tmpl\":{},\"mips_tmpl\":{},\"tmpl_speedup\":{},\"ref_overhead\":{}}}",
            cheri_bench::cli::json_escape(name),
            ref_metrics.instructions,
            ref_metrics.cycles,
            json_f64(ref_wall * 1e3),
            json_f64(ref_mips),
            num(step.map(|s| s.0 * 1e3)),
            num(step.map(|s| s.1)),
            num(tmpl.map(|t| t.0 * 1e3)),
            num(tmpl.map(|t| t.1)),
            num(gains.map(|g| g.1)),
            num(gains.map(|g| g.0)),
        ));
    }
    let doc = format!(
        "{{\"bench\":\"interp_throughput\",\"trials\":{},\"spin_speedup\":{},\"spin_tmpl_speedup\":{},\"results\":[{}]}}\n",
        opts.trials,
        spin_speedup.map_or("null".to_string(), json_f64),
        spin_tmpl_speedup.map_or("null".to_string(), json_f64),
        lines.join(",")
    );
    if let Err(e) = std::fs::write(&opts.out, &doc) {
        eprintln!("interp_throughput: writing {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);
    if mismatch {
        std::process::exit(1);
    }
}
