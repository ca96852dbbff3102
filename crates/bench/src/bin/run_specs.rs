//! Runs an externally supplied `RunSpec` list through the shared harness
//! session — cache, shard, progress and JSON streaming included — so
//! external tooling can drive arbitrary spec matrices without a dedicated
//! binary per experiment.
//!
//! The list comes from `--specs <path>` or stdin with `--specs -`, as a
//! top-level JSON array of spec objects or one object per line. Every
//! table/figure binary prints its own session's list with `--dump-specs`,
//! so `table1 --dump-specs | run_specs --specs -` replays table 1 case by
//! case, and any subset of those lines replays a pinned sub-suite (the
//! `scripts/ci.sh` golden gate does exactly that).
//!
//! With `--fleet N` it is the command-line way into the fleet coordinator:
//! `table1 --dump-specs | run_specs --specs - --fleet 3 --chaos 7` prints
//! the merged deterministic lines, byte-identical to `--shard 0/1`.
//!
//! It is also the fleet worker: the coordinator (`--fleet N` on any
//! binary) keeps one `run_specs --specs - --jobs 1 --no-cache --shard 0/1`
//! per slot and streams unit after unit into it. On line-format stdin, a
//! [`UNIT_END`] line ends a *frame*: the specs read since the previous
//! frame run as one session (case indices from 0), their lines are
//! printed, then `UNIT_END` is echoed and stdout flushed. Whatever is left
//! at EOF runs as one session exactly as an unframed list always has, so
//! plain and JSON-array stdin behave as before.
//!
//! Malformed spec lines are skipped and counted (`specs_rejected` on
//! stderr), never fatal — one torn line must not kill a fleet unit, and a
//! frame is echoed whatever it held. The exit is non-zero only when
//! *every* line of the unframed remainder is malformed.

use cheri_bench::cli::{self, BenchOpts, Output, SpecList};
use cheriabi::fleet::UNIT_END;
use cheriabi::spec::Registry;
use std::io::{BufRead as _, Read as _, Write as _};

fn main() {
    let (opts, specs_source) = cli::parse_env_with_specs();
    let Some(source) = specs_source else {
        eprintln!("run_specs: requires --specs <path> (or --specs - for stdin)");
        std::process::exit(2);
    };
    let registry = cheri_bench::registry();
    if source != "-" {
        run(&registry, &opts, cli::read_specs(&source));
        return;
    }
    let mut stdin = std::io::stdin().lock();
    let mut pending = SpecList::default();
    let mut framed = false;
    // Whitespace read ahead of the first spec line: kept so that a JSON
    // array document is parsed from exactly the text it always was.
    let mut head = String::new();
    let mut raw = String::new();
    for lineno in 0.. {
        raw.clear();
        match stdin.read_line(&mut raw) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => fail(&format!("reading stdin: {e}")),
        }
        let line = raw.strip_suffix('\n').unwrap_or(&raw);
        let line = line.strip_suffix('\r').unwrap_or(line);
        let untouched = !framed && pending.specs.is_empty() && pending.rejected == 0;
        if line == UNIT_END {
            report_rejected(&pending);
            if !pending.specs.is_empty() {
                print_reports(&registry, &opts, &pending);
            }
            cli::emit(UNIT_END);
            let _ = std::io::stdout().flush();
            pending = SpecList::default();
            framed = true;
        } else if untouched && line.trim_start().starts_with('[') {
            let mut text = std::mem::take(&mut head) + &raw;
            if let Err(e) = stdin.read_to_string(&mut text) {
                fail(&format!("reading stdin: {e}"));
            }
            run(&registry, &opts, cli::parse_specs(&text, "-"));
            return;
        } else {
            if untouched {
                head.push_str(&raw);
            }
            pending.push_line(lineno, line);
        }
    }
    if !framed || !pending.specs.is_empty() || pending.rejected > 0 {
        run(&registry, &opts, pending.finish("-"));
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("run_specs: {msg}");
    std::process::exit(2);
}

/// Runs a complete list as one session, or exits 2 on its error.
fn run(registry: &Registry, opts: &BenchOpts, list: Result<SpecList, String>) {
    let list = list.unwrap_or_else(|msg| fail(&msg));
    report_rejected(&list);
    print_reports(registry, opts, &list);
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
