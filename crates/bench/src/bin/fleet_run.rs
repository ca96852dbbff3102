//! The fleet coordinator binary: runs a `RunSpec` list through
//! `cheriabi::fleet` — one long-lived `run_specs` worker subprocess per
//! slot, fed unit after unit as framed spec lines, with per-unit
//! deadlines, crash/hang recovery by re-dispatch to a fresh worker,
//! poisoned-output scoring, the report cache as its checkpoint, and
//! seeded chaos injection — and prints the merged deterministic report
//! lines, byte-identical to a single-process `run_specs --shard 0/1` over
//! the same list.
//!
//! ```text
//! table1 --dump-specs | fleet_run --specs - --workers 3 --chaos 7
//! ```
//!
//! Flags (see EXPERIMENTS.md "fleet_run"):
//!
//! * `--specs P`      spec list from file P, or stdin with `-` (required)
//! * `--workers N`    worker subprocess slots (default 4)
//! * `--unit-size N`  specs per work unit (default 8)
//! * `--deadline S`   per-unit wall deadline in seconds (default 120, ≥ 1)
//! * `--retries N`    subprocess re-dispatch attempts per unit before
//!   degrading to in-process execution (default 2)
//! * `--chaos SEED`   arm the seeded coordinator fault injector
//! * `--cache`        serve units whose every case hits
//!   `target/harness-cache/` and store every completed case there, so a
//!   re-run of an interrupted sweep redoes zero completed units
//! * `--stop-after N` stop once N units have completed and exit 3 (the CI
//!   cache gate's interruption hook)
//! * `--worker PATH`  use this worker binary instead of the sibling
//!   `run_specs`
//!
//! Exit status: 0 on a completed sweep, 2 on usage errors, 3 when
//! `--stop-after` interrupted the sweep.

use cheri_bench::cli;
use cheriabi::fleet::{run_fleet, FleetOpts, WorkerCmd};
use std::time::Duration;

const USAGE: &str = "usage: fleet_run --specs <path|-> [options]\n  \
    --workers N    worker subprocess slots (default 4)\n  \
    --unit-size N  specs per work unit (default 8)\n  \
    --deadline S   per-unit wall deadline, seconds (default 120, >= 1)\n  \
    --retries N    re-dispatch attempts before in-process fallback (default 2)\n  \
    --chaos SEED   seeded coordinator fault injection (kill/garbage/delay)\n  \
    --cache        serve and record cases through target/harness-cache/\n  \
    --stop-after N interrupt after N completed units (exit 3)\n  \
    --worker PATH  worker binary (default: the sibling run_specs)";

struct Args {
    specs: String,
    opts: FleetOpts<'static>,
    cache: bool,
}

fn num(iter: &mut dyn Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let value = iter.next().ok_or(format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number: {value}"))
}

/// Like [`num`], but for flags holding counts/indices: a value that does
/// not fit in `usize` is a usage error, never silently clamped.
fn unum(iter: &mut dyn Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let value = num(iter, flag)?;
    usize::try_from(value).map_err(|_| format!("{flag}: value out of range: {value}"))
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        specs: String::new(),
        opts: FleetOpts::default(),
        cache: false,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--specs" => {
                parsed.specs = iter.next().ok_or("--specs needs a path (or -)")?;
            }
            "--workers" => parsed.opts.workers = unum(&mut iter, "--workers")?,
            "--unit-size" => parsed.opts.unit_size = unum(&mut iter, "--unit-size")?,
            "--deadline" => {
                parsed.opts.unit_deadline = Duration::from_secs(num(&mut iter, "--deadline")?);
            }
            "--retries" => parsed.opts.retries = num(&mut iter, "--retries")?,
            "--chaos" => parsed.opts.chaos = Some(num(&mut iter, "--chaos")?),
            "--cache" => parsed.cache = true,
            "--stop-after" => {
                parsed.opts.stop_after = Some(unum(&mut iter, "--stop-after")?);
            }
            "--worker" => {
                let path = iter.next().ok_or("--worker needs a path")?;
                parsed.opts.worker = Some(WorkerCmd::run_specs(path));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if parsed.specs.is_empty() {
        return Err(format!("--specs is required\n{USAGE}"));
    }
    if parsed.opts.workers == 0 || parsed.opts.unit_size == 0 || parsed.opts.unit_deadline.is_zero()
    {
        return Err("--workers, --unit-size and --deadline must be at least 1".to_string());
    }
    Ok(parsed)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let list = match cli::read_specs(&args.specs) {
        Ok(list) => list,
        Err(msg) => {
            eprintln!("fleet_run: {msg}");
            std::process::exit(2);
        }
    };
    if list.rejected > 0 {
        eprintln!(
            "fleet_run: specs_rejected={} specs_accepted={}",
            list.rejected,
            list.specs.len()
        );
    }
    let worker = args.opts.worker.or_else(cli::sibling_worker);
    if worker.is_none() {
        eprintln!("fleet_run: no sibling run_specs binary; running in-process");
    }
    let cache = if args.cache { cli::open_cache() } else { None };
    let opts = FleetOpts {
        worker,
        cache: cache.as_ref(),
        ..args.opts
    };
    let out = run_fleet(&cheri_bench::registry(), &list.specs, &opts);
    eprintln!("{}", out.stats.summary_line());
    if out.interrupted {
        eprintln!("fleet_run: interrupted by --stop-after");
        std::process::exit(3);
    }
    for line in &out.lines {
        println!("{line}");
    }
}
