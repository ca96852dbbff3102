//! Host-side interpreter throughput: guest-MIPS across the three execution
//! modes — the reference interpreter (`--exec-mode single`, also the
//! `--oracle` baseline), plain TLB stepping (`--exec-mode superblock`),
//! and stepping with hot branch targets promoted to trace templates
//! (`--exec-mode template`, the default everywhere else). The ref row
//! prices the oracle: `ref_overhead` is the tmpl-over-ref speedup, an upper
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
//! Each program runs `--trials` rounds; every round runs each mode once,
//! so the modes take turns. A mode's MIPS figure is its best round; a
//! ratio between two modes is the median over rounds of that round's
//! wall-time ratio, so a host-speed swing that lands on one mode of one
//! round moves one sample instead of the figure.
//!
//! Each row also reports `tmpl_share`, the template tier's coverage: the
//! share of the program's retired instructions that templates retired.
//!
//! Writes `BENCH_interp.json` (see EXPERIMENTS.md).

use std::time::Instant;

use cheri_bench::cli::{self, json_f64};
use cheri_corpus::families::freebsd_suite;
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig, SpawnOpts};
use cheriabi::spec::{ProgramSpec, Registry};
use cheriabi::{Metrics, System};

const USAGE: &str = "usage: interp_throughput [options]
  --no-fast-path    measure only the reference interpreter
  --weaken-flush    test-only: drop one template exit flush; the metric
                    cross-check must then fail (exit non-zero)
  --trials <n>      wall-time trials per mode, the modes taking turns
                    trial by trial (default 3; MIPS best-of, ratios
                    the median of per-trial ratios)
  --spin-iters <n>  spin loop iterations (default 20000000)
  --out <path>      output JSON path (default BENCH_interp.json)
  -h, --help        this help";

struct Opts {
    fast_too: bool,
    weaken_flush: bool,
    trials: u32,
    spin_iters: i64,
    out: String,
}

/// The command line, through the shared parser (none of the shared
/// harness flags apply here); a usage error exits 2.
fn parse_args() -> Opts {
    let mut opts = Opts {
        fast_too: true,
        weaken_flush: false,
        trials: 3,
        spin_iters: 20_000_000,
        out: "BENCH_interp.json".to_string(),
    };
    cli::parse_env_own(USAGE, |flag, args| {
        match flag {
            "--no-fast-path" => opts.fast_too = false,
            "--weaken-flush" => opts.weaken_flush = true,
            "--trials" => opts.trials = cli::count(args, "--trials")?,
            "--spin-iters" => opts.spin_iters = cli::count(args, "--spin-iters")?,
            "--out" => opts.out = cli::value(args, "--out")?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    opts
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

/// One timed execution. Returns guest metrics, host wall seconds and the
/// instructions retired inside templates.
fn run_once(
    registry: &Registry,
    spec: &ProgramSpec,
    mode: Mode,
    weaken: bool,
) -> (Metrics, f64, u64) {
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
    let wall = start.elapsed().as_secs_f64();
    (metrics, wall, sys.kernel.cpu.stats.tmpl_instrs)
}

/// One mode's runs of one program: its guest metrics, its wall time in
/// every trial, and the instructions retired inside templates.
struct ModeRuns {
    metrics: Metrics,
    walls: Vec<f64>,
    in_templates: u64,
}

impl ModeRuns {
    fn best_wall(&self) -> f64 {
        self.walls.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// How many times faster `self` ran than `other`: the median over
    /// trials of each trial's wall-time ratio.
    fn speedup_over(&self, other: &ModeRuns) -> f64 {
        let mut ratios: Vec<f64> = other
            .walls
            .iter()
            .zip(&self.walls)
            .map(|(slow, fast)| slow / fast)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        }
    }
}

/// `trials` wall times for each of `modes` on one program, with the guest
/// metrics and the instructions retired inside templates. The modes take
/// turns trial by trial, so trial `t` of every mode ran at about the same
/// host speed. Asserts each mode's guest metrics are identical across
/// trials.
fn run_modes(
    registry: &Registry,
    spec: &ProgramSpec,
    modes: &[Mode],
    trials: u32,
    weaken: bool,
) -> Vec<ModeRuns> {
    let mut runs: Vec<ModeRuns> = Vec::new();
    for trial in 0..trials {
        for (i, &mode) in modes.iter().enumerate() {
            let (metrics, wall, in_templates) = run_once(registry, spec, mode, weaken);
            if trial == 0 {
                runs.push(ModeRuns {
                    metrics,
                    walls: vec![wall],
                    in_templates,
                });
            } else {
                assert_eq!(
                    metrics, runs[i].metrics,
                    "guest metrics must be identical across trials"
                );
                runs[i].walls.push(wall);
            }
        }
    }
    runs
}

fn mips(instructions: u64, wall: f64) -> f64 {
    instructions as f64 / wall / 1e6
}

fn main() {
    let opts = parse_args();
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
        "{:<28} {:>12} {:>11} {:>11} {:>11} {:>8} {:>9} {:>10}",
        "program",
        "guest instrs",
        "ref MIPS",
        "step MIPS",
        "tmpl MIPS",
        "speedup",
        "tmpl gain",
        "tmpl share"
    );
    for (name, spec) in &programs {
        let modes: &[Mode] = if opts.fast_too {
            &[Mode::REF, Mode::STEP, Mode::TMPL]
        } else {
            &[Mode::REF]
        };
        let runs = run_modes(&registry, spec, modes, opts.trials, opts.weaken_flush);
        let reference = &runs[0];
        let ref_metrics = reference.metrics;
        let ref_wall = reference.best_wall();
        let ref_mips = mips(ref_metrics.instructions, ref_wall);
        // When the fast modes run: (step, tmpl) as (wall, MIPS) pairs, the
        // template share, and tmpl's speedups over (ref, step).
        let fast = opts.fast_too.then(|| {
            let (step, tmpl) = (&runs[1], &runs[2]);
            for (mode, m) in [("step", &step.metrics), ("template", &tmpl.metrics)] {
                if m != &ref_metrics {
                    eprintln!(
                        "interp_throughput: {name}: guest metrics diverge between \
                         {mode} and the reference interpreter: {m:?} vs {ref_metrics:?}"
                    );
                    mismatch = true;
                }
            }
            let (step_wall, tmpl_wall) = (step.best_wall(), tmpl.best_wall());
            (
                (step_wall, mips(step.metrics.instructions, step_wall)),
                (tmpl_wall, mips(tmpl.metrics.instructions, tmpl_wall)),
                tmpl.in_templates as f64 / tmpl.metrics.instructions as f64,
                (tmpl.speedup_over(reference), tmpl.speedup_over(step)),
            )
        });
        let gains = fast.map(|f| f.3);
        if name == "spin" {
            spin_speedup = gains.map(|g| g.0);
            spin_tmpl_speedup = gains.map(|g| g.1);
        }
        let num = |v: Option<f64>| v.map_or("null".to_string(), json_f64);
        let cell =
            |v: Option<f64>, suffix: &str| v.map_or("-".to_string(), |v| format!("{v:.2}{suffix}"));
        let step = fast.map(|f| f.0);
        let tmpl = fast.map(|f| f.1);
        let share = fast.map(|f| f.2);
        println!(
            "{:<28} {:>12} {:>11.2} {:>11} {:>11} {:>8} {:>9} {:>10}",
            name,
            ref_metrics.instructions,
            ref_mips,
            cell(step.map(|s| s.1), ""),
            cell(tmpl.map(|t| t.1), ""),
            cell(gains.map(|g| g.0), "x"),
            cell(gains.map(|g| g.1), "x"),
            cell(share, ""),
        );
        lines.push(format!(
            "{{\"program\":\"{}\",\"instructions\":{},\"cycles\":{},\"wall_ms_ref\":{},\"mips_ref\":{},\"wall_ms_step\":{},\"mips_step\":{},\"wall_ms_tmpl\":{},\"mips_tmpl\":{},\"tmpl_speedup\":{},\"ref_overhead\":{},\"tmpl_share\":{}}}",
            cli::json_escape(name),
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
            num(share),
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
