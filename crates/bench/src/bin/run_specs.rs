//! Runs an externally supplied `RunSpec` list through the shared harness
//! session — cache, shard, progress and JSON streaming included — so
//! external tooling can drive arbitrary spec matrices without a dedicated
//! binary per experiment.
//!
//! The list comes from `--specs <path>` or stdin with `--specs -`, one
//! spec object per line. Every table/figure binary prints its own
//! session's list in that format with `--dump-specs`, so `table1
//! --dump-specs | run_specs --specs -` replays table 1 case by case, and
//! any subset of those lines replays a pinned sub-suite (the
//! `scripts/ci.sh` golden gate does exactly that).
//!
//! With `--fleet N` it is the command-line way into the fleet coordinator:
//! `table1 --dump-specs | run_specs --specs - --fleet 3 --chaos 7` prints
//! the merged deterministic lines, byte-identical to `--shard 0/1`.
//!
//! It is also the fleet worker: the coordinator (`--fleet N` on any
//! binary) keeps one `run_specs --specs - --jobs 1 --no-cache --shard 0/1`
//! per slot and streams unit after unit into it. A [`UNIT_END`] line ends
//! a *frame*: the specs read since the previous frame run as one session
//! (case indices from 0), their lines are printed, then `UNIT_END` is
//! echoed and stdout flushed. Whatever is left at EOF runs as one session,
//! so an unframed list is simply one frame. A file and stdin go through
//! the same line loop.
//!
//! Malformed spec lines (a pasted JSON array included) are skipped and
//! counted (`specs_rejected` on stderr), never fatal — one torn line must
//! not kill a fleet unit, and a frame is echoed whatever it held. The exit
//! is 2 only when *every* line of the unframed remainder is malformed.

use cheri_bench::cli::{self, BenchOpts, Output, SpecList};
use cheriabi::fleet::UNIT_END;
use cheriabi::spec::Registry;
use std::io::{BufRead, Write as _};

const USAGE: &str = "\n  \
    --specs P      read the RunSpec list, one spec object per line, from\n                 \
    file P, or from stdin with `--specs -`";

fn main() {
    let mut source = None;
    let opts = cli::parse_env_with(USAGE, |flag, args| {
        if flag != "--specs" {
            return Ok(false);
        }
        source = Some(cli::value(args, flag)?);
        Ok(true)
    });
    let Some(source) = source else {
        cli::fail("run_specs: requires --specs <path> (or --specs - for stdin)");
    };
    let input: Box<dyn BufRead> = if source == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        match std::fs::File::open(&source) {
            Ok(file) => Box::new(std::io::BufReader::new(file)),
            Err(e) => cli::fail(&format!("run_specs: reading {source}: {e}")),
        }
    };
    let registry = cheri_bench::registry();
    let mut pending = SpecList::default();
    let mut framed = false;
    for (lineno, line) in input.lines().enumerate() {
        let line = line.unwrap_or_else(|e| cli::fail(&format!("run_specs: reading {source}: {e}")));
        if line == UNIT_END {
            report_rejected(&pending);
            if !pending.specs.is_empty() {
                print_reports(&registry, &opts, &pending);
            }
            cli::emit(UNIT_END);
            let _ = std::io::stdout().flush();
            pending = SpecList::default();
            framed = true;
        } else {
            pending.push_line(lineno, &line);
        }
    }
    if !framed || !pending.specs.is_empty() || pending.rejected > 0 {
        report_rejected(&pending);
        let list = pending
            .finish(&source)
            .unwrap_or_else(|msg| cli::fail(&format!("run_specs: {msg}")));
        print_reports(&registry, &opts, &list);
    }
}

fn report_rejected(list: &SpecList) {
    if list.rejected > 0 {
        eprintln!(
            "run_specs: specs_rejected={} specs_accepted={}",
            list.rejected,
            list.specs.len()
        );
    }
}

fn print_reports(registry: &Registry, opts: &BenchOpts, list: &SpecList) {
    match cli::session(registry, &list.specs, opts) {
        None => {}
        Some(Output::Reports(reports)) => {
            for (index, report) in reports.iter().enumerate() {
                cli::emit(report.to_json_tagged(index));
            }
        }
        Some(Output::FleetLines(lines)) => lines.iter().for_each(cli::emit),
    }
}
