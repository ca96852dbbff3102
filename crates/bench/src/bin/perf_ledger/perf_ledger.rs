//! **perf_ledger** — the end-to-end and per-layer benchmark.
//!
//! Runs five workloads (see `workloads.rs` and README.md) the way users run
//! the table binaries: each timed sweep is one fresh child process (this
//! executable re-run with `--child`) that builds the spec list from the
//! seed and runs one harness session or fleet sweep. Before timing, one
//! untimed in-process sweep under the replay oracle gives the reference
//! lines every later sweep must reproduce. Unless `--trace 0`, one more
//! child re-assembles `execute_spec` with a span around each layer call and
//! the per-layer metrics are computed from its span file.
//!
//! ```text
//! perf_ledger [--workload NAME] [--seed S] [--jobs N] [--secs T]
//!             [--trace 0|1] [--smoke] [--self-test]
//! ```
//!
//! Prints every metric as `workload metric value unit`, writes
//! `$CARGO_TARGET_DIR/perf_ledger/summary.json` (default `target/`), ends
//! with one JSON result line, and exits 1 when any output check fails.
//! `--self-test` runs one Figure 4 sweep with a template-flush mutant and
//! must exit 1.

mod child;
mod ledger;
mod probe;
mod stats;
mod trace;
mod workloads;

use ledger::{Launcher, Opts};
use std::path::PathBuf;
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "usage: perf_ledger [--workload NAME] [--seed S] [--jobs N] [--secs T]
                   [--trace 0|1] [--smoke] [--self-test]
  --workload NAME  one of bodiag-boot, fig4-interp, server-sched, corpus-cache,
                   corpus-fleet (default: all five)
  --seed S         input seed (default 1, whose reference digests are pinned)
  --jobs N         harness threads and fleet workers (default: all cores)
  --secs T         seconds of timed sweeps per workload, after at least 10
                   (default 12; --seconds is an alias)
  --trace 0|1      0: end-to-end metrics only; 1: also the traced sweep, with
                   the per-layer metrics in the result line (default: both)
  --smoke          at most 16 specs per workload and one sweep
  --self-test      one fig4-interp sweep with weakened template flushes;
                   the output checks must catch it (exit 1)";

fn parse_args(args: &[String]) -> Result<(Opts, bool), String> {
    let mut opts = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        jobs: cheriabi::harness::available_parallelism(),
        secs: 12.0,
        trace: None,
        smoke: false,
        weaken_flush: false,
        out: std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
            .join("perf_ledger"),
    };
    let mut self_test = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--jobs" => {
                opts.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--secs" | "--seconds" => {
                opts.secs = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if !(opts.secs >= 0.0 && opts.secs <= 3600.0) {
                    return Err(format!("{flag} must be between 0 and 3600"));
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.smoke {
        opts.secs = 0.0;
    }
    if self_test {
        opts.workloads = vec![Workload::Fig4Interp];
        opts.weaken_flush = true;
        opts.trace = Some(false);
        opts.secs = 0.0;
    }
    Ok((opts, self_test))
}

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        let result = child::SweepReq::parse(&args[1..]).and_then(|req| child::run(&req, t0));
        match result {
            Ok(result) => println!("{}", result.to_json()),
            Err(e) => {
                eprintln!("perf_ledger --child: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let (opts, self_test) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perf_ledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf_ledger: cannot locate this executable to re-run it: {e}");
            std::process::exit(2);
        }
    };
    let correct = match ledger::run(
        &opts,
        &Launcher::Process(exe),
        &mut std::io::stdout().lock(),
    ) {
        Ok(correct) => correct,
        Err(e) => {
            eprintln!("perf_ledger: writing results: {e}");
            std::process::exit(2);
        }
    };
    if self_test {
        eprintln!(
            "perf_ledger --self-test: {}",
            if correct {
                "the weakened sweep went UNDETECTED"
            } else {
                "the weakened sweep was caught (exit 1 is the expected result)"
            }
        );
    }
    std::process::exit(i32::from(!correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_flags() {
        let (opts, self_test) = parse_args(&args(&[
            "--workload",
            "fig4-interp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .expect("parses");
        assert_eq!(opts.workloads, [Workload::Fig4Interp]);
        assert_eq!((opts.seed, opts.secs, opts.trace), (7, 10.0, Some(false)));
        assert!(!self_test);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--jobs", "0"],
            &["--secs", "-1"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
        let (opts, self_test) = parse_args(&args(&["--self-test"])).expect("parses");
        assert!(self_test && opts.weaken_flush);
        assert_eq!(opts.workloads, [Workload::Fig4Interp]);
        let (opts, _) = parse_args(&args(&["--smoke"])).expect("parses");
        assert!(opts.smoke && opts.secs == 0.0);
    }
}
