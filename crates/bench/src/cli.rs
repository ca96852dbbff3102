//! Shared command-line handling for the evaluation binaries.
//!
//! Every table/figure binary accepts the same flags:
//!
//! * `--jobs N` — number of harness workers (default: all available
//!   cores). Results are identical at any level; `--jobs 1` is the exact
//!   sequential path.
//! * `--json` — emit one machine-readable JSON line per result row
//!   instead of the human-readable table.
//! * `--cache` / `--no-cache` — serve unchanged cases from the
//!   content-addressed report cache under `target/harness-cache/`
//!   (default: off). Hit/miss counts go to stderr so cached and uncached
//!   runs produce byte-identical stdout.
//! * `--shard I/N` — execute only submission indices `i ≡ I (mod N)` and
//!   print one deterministic per-case JSON line per owned index instead
//!   of the aggregate. Sorting the concatenated lines of all `N` shards
//!   by their `"case"` field reproduces `--shard 0/1` byte for byte.
//! * `--progress` — progress line (cases completed / total, ETA) on
//!   stderr, composing with any stdout mode.
//! * `--json-stream` — emit each case report as it completes (completion
//!   order, tagged with its submission index) ahead of the ordered
//!   aggregate.

use cheriabi::cache::ReportCache;
use cheriabi::harness::{
    CaseReport, ExecMode, Harness, MembraneMode, OracleMode, RunSpec, SessionOpts, Shard,
};
use cheriabi::spec::Registry;

/// Parsed common options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchOpts {
    /// Harness worker count.
    pub jobs: usize,
    /// Emit JSON report lines instead of the human table.
    pub json: bool,
    /// Serve and record case reports through the content-addressed cache.
    pub cache: bool,
    /// Execute (and print) only this shard's submission indices.
    pub shard: Option<Shard>,
    /// Write a progress line to stderr.
    pub progress: bool,
    /// Emit each case report as it completes.
    pub json_stream: bool,
    /// After the session, prune the report cache down to this many bytes
    /// (LRU by mtime; never evicts entries this session just wrote).
    pub cache_limit: Option<u64>,
    /// Print the session's spec list as JSON lines and exit instead of
    /// running anything (feed the output to `run_specs --specs`).
    pub dump_specs: bool,
    /// Execution tier for every case (`--exec-mode
    /// single|superblock|template`, default template — the full stack).
    pub exec_mode: ExecMode,
    /// Test-only: drop one compiled template's exit register flush
    /// (`--weaken-flush`) so the cross-tier gates can prove a residency
    /// bug is detected. Weakened runs never touch the report cache.
    pub weaken_flush: bool,
    /// Differential-oracle mode applied to every spec (`--oracle
    /// lockstep|replay|off`). A divergence surfaces as a failed case.
    pub oracle: OracleMode,
    /// Test-only: weaken the fast machine's `csetbounds` semantics
    /// (`--weaken-sem`) so the oracle self-test can prove a divergence is
    /// actually detected. Weakened runs never touch the report cache.
    pub weaken_sem: bool,
    /// Lockstep sampling cadence (`--oracle-every N`): shadow-check every
    /// Nth dispatched instruction instead of all of them. Never changes
    /// guest results or cache identity; 1 is full lockstep.
    pub oracle_every: u64,
    /// Run every case under the hardened membrane ABI (`--hardened`):
    /// quarantined frees, revocation sweeps and deterministic kernel-side
    /// repairs, with evidence counters on each report.
    pub hardened: bool,
    /// Dispatch the session through the fault-tolerant fleet coordinator
    /// with this many worker subprocesses (`--fleet N`). Workers are
    /// sibling `run_specs` processes; results merge byte-identically with
    /// the single-process run, and worker crashes/hangs/corrupt output are
    /// recovered, not fatal. `--shard`, `--cache`, `--cache-limit`,
    /// `--json-stream` and `--progress` are rejected rather than silently
    /// dropped.
    pub fleet: Option<usize>,
    /// Seeded coordinator-side fault injection for the fleet
    /// (`--chaos SEED`): deterministically kill workers mid-unit, delay
    /// their output, and insert garbage lines, proving the recovery paths
    /// in CI. Requires `--fleet`.
    pub chaos: Option<u64>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            jobs: cheriabi::harness::available_parallelism(),
            json: false,
            cache: false,
            shard: None,
            progress: false,
            json_stream: false,
            cache_limit: None,
            dump_specs: false,
            exec_mode: ExecMode::Template,
            weaken_flush: false,
            oracle: OracleMode::Off,
            weaken_sem: false,
            oracle_every: 1,
            hardened: false,
            fleet: None,
            chaos: None,
        }
    }
}

/// Parses the shared flags from an argument list (without the program
/// name). Returns an error message on anything unrecognised.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let value = iter.next().ok_or("--jobs needs a value")?;
                let jobs: usize = value
                    .parse()
                    .map_err(|_| format!("--jobs: not a number: {value}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = jobs;
            }
            "--json" => opts.json = true,
            "--cache" => opts.cache = true,
            "--no-cache" => opts.cache = false,
            "--shard" => {
                let value = iter.next().ok_or("--shard needs a value (I/N)")?;
                opts.shard = Some(Shard::parse(&value)?);
            }
            "--progress" => opts.progress = true,
            "--json-stream" => opts.json_stream = true,
            "--cache-limit" => {
                let value = iter.next().ok_or("--cache-limit needs a value (bytes)")?;
                let limit: u64 = value
                    .parse()
                    .map_err(|_| format!("--cache-limit: not a byte count: {value}"))?;
                opts.cache_limit = Some(limit);
            }
            "--dump-specs" => opts.dump_specs = true,
            "--exec-mode" => {
                let value = iter
                    .next()
                    .ok_or("--exec-mode needs a tier (single|superblock|template)")?;
                opts.exec_mode = ExecMode::from_label(&value).map_err(|e| {
                    format!("--exec-mode: {e} (want single, superblock or template)")
                })?;
            }
            "--weaken-flush" => opts.weaken_flush = true,
            "--oracle" => {
                let value = iter
                    .next()
                    .ok_or("--oracle needs a mode (lockstep|replay|off)")?;
                opts.oracle = match value.as_str() {
                    "lockstep" => OracleMode::Lockstep,
                    "replay" => OracleMode::Replay,
                    "off" => OracleMode::Off,
                    other => {
                        return Err(format!(
                            "--oracle: unknown mode `{other}` (want lockstep, replay or off)"
                        ))
                    }
                };
            }
            "--weaken-sem" => opts.weaken_sem = true,
            "--oracle-every" => {
                let value = iter.next().ok_or("--oracle-every needs a value")?;
                let every: u64 = value
                    .parse()
                    .map_err(|_| format!("--oracle-every: not a number: {value}"))?;
                if every == 0 {
                    return Err("--oracle-every must be at least 1".to_string());
                }
                opts.oracle_every = every;
            }
            "--hardened" => opts.hardened = true,
            "--fleet" => {
                let value = iter.next().ok_or("--fleet needs a worker count")?;
                let workers: usize = value
                    .parse()
                    .map_err(|_| format!("--fleet: not a number: {value}"))?;
                if workers == 0 {
                    return Err("--fleet must be at least 1".to_string());
                }
                opts.fleet = Some(workers);
            }
            "--chaos" => {
                let value = iter.next().ok_or("--chaos needs a seed")?;
                let seed: u64 = value
                    .parse()
                    .map_err(|_| format!("--chaos: not a seed: {value}"))?;
                opts.chaos = Some(seed);
            }
            "--specs" => {
                return Err("--specs is only supported by the run_specs binary".to_string());
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if opts.weaken_flush && opts.exec_mode != ExecMode::Template {
        return Err("--weaken-flush requires the template tier (drop --exec-mode)".to_string());
    }
    if opts.exec_mode == ExecMode::SingleStep
        && (opts.oracle == OracleMode::Lockstep || opts.weaken_sem)
    {
        // The reference interpreter is what lockstep checks against and
        // what --weaken-sem leaves intact: either would be a silent no-op.
        return Err(
            "--oracle lockstep and --weaken-sem shadow the fast tiers; they cannot combine \
             with --exec-mode single"
                .to_string(),
        );
    }
    if opts.fleet.is_some() {
        // A session flag the fleet cannot honour is an error, not a silent
        // drop: `--fleet` must never change what a command reports.
        if opts.shard.is_some() {
            return Err(
                "--fleet cannot combine with --shard (shard first, then fleet each shard)"
                    .to_string(),
            );
        }
        if opts.cache || opts.cache_limit.is_some() {
            return Err(
                "--fleet cannot combine with --cache/--cache-limit (workers run uncached)"
                    .to_string(),
            );
        }
        if opts.json_stream {
            return Err(
                "--fleet cannot combine with --json-stream (units complete out of \
                        case order; use the merged output)"
                    .to_string(),
            );
        }
        if opts.progress {
            return Err(
                "--fleet cannot combine with --progress (watch the fleet summary on stderr \
                 instead)"
                    .to_string(),
            );
        }
    }
    if opts.chaos.is_some() && opts.fleet.is_none() {
        return Err("--chaos requires --fleet (or the fleet_run binary)".to_string());
    }
    Ok(opts)
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "options:\n  \
    --jobs N       harness workers (default: all cores)\n  \
    --json         machine-readable output, one JSON line per row\n  \
    --cache        serve unchanged cases from target/harness-cache/\n  \
    --no-cache     disable the report cache (the default)\n  \
    --shard I/N    run submission indices i % N == I; print per-case\n                 \
    JSON lines (sort all shards' lines by \"case\" to merge)\n  \
    --progress     progress line (completed/total, ETA) on stderr\n  \
    --json-stream  emit each case report as it completes\n  \
    --cache-limit B  after the session, prune the report cache to at most\n                 \
    B bytes (oldest entries first; never this session's own)\n  \
    --dump-specs   print the session's RunSpec JSON lines and exit\n                 \
    (pipe into `run_specs --specs -` to replay them)\n  \
    --exec-mode T  execution tier for every case: `single` (the reference\n                 \
    interpreter), `superblock` (plain TLB stepping, no templates)\n                 \
    or `template` (the full stack, the default). Guest metrics\n                 \
    are byte-identical by contract; only host speed changes\n  \
    --weaken-flush test-only: drop one compiled template's exit register\n                 \
    flush so the cross-tier gates can prove a residency bug is\n                 \
    detected (template tier only; never cached)\n  \
    --oracle M     differential oracle: `lockstep` shadows every dispatched\n                 \
    instruction against the shared semantics, `replay` runs each\n                 \
    case twice (fast, then reference) and diffs the results;\n                 \
    a divergence surfaces as a failed case (default: off);\n                 \
    lockstep needs a fast tier (not --exec-mode single)\n  \
    --weaken-sem   test-only: weaken csetbounds in the fast machine so the\n                 \
    oracle self-test can prove divergences are detected\n                 \
    (fast tiers only; never cached)\n  \
    --oracle-every N  lockstep sampling cadence: shadow-check every Nth\n                 \
    dispatched instruction (default 1 = all; guest results\n                 \
    and cache identity are unaffected)\n  \
    --hardened     run every case under the hardened membrane ABI:\n                 \
    quarantined frees, revocation sweeps and deterministic\n                 \
    kernel repairs, with evidence counters on each report\n  \
    --fleet N      dispatch the session through the fault-tolerant fleet\n                 \
    coordinator with N worker subprocesses (sibling run_specs\n                 \
    processes; crashes, hangs and corrupt output are recovered,\n                 \
    and the merge is byte-identical to a single-process run;\n                 \
    --shard, --cache, --cache-limit, --json-stream and\n                 \
    --progress are rejected)\n  \
    --chaos SEED   seeded coordinator fault injection (kill a worker\n                 \
    mid-unit, delay output, insert a garbage line); needs --fleet";

/// Parses the process arguments; prints the usage text and exits 0 on
/// `--help`, exits 2 on anything unrecognised.
#[must_use]
pub fn parse_env() -> BenchOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    match parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Like [`parse_env`], but additionally accepts `--specs <path|->`: an
/// external `RunSpec` list (see [`read_specs`]) driven through the same
/// cache/shard session machinery. Only the `run_specs` binary takes it.
#[must_use]
pub fn parse_env_with_specs() -> (BenchOpts, Option<String>) {
    let mut rest = Vec::new();
    let mut specs = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--specs" {
            match args.next() {
                Some(value) => specs = Some(value),
                None => {
                    eprintln!("--specs needs a value (a path, or - for stdin)");
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(arg);
        }
    }
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        println!(
            "  --specs P      read the RunSpec list from file P, or stdin with\n                 \
             `--specs -` (a JSON array, or one spec object per line)"
        );
        std::process::exit(0);
    }
    match parse_args(rest) {
        Ok(opts) => (opts, specs),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// A parsed spec list plus the malformed lines that were skipped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpecList {
    /// The specs that parsed, in input order.
    pub specs: Vec<RunSpec>,
    /// Malformed lines skipped (`specs_rejected` in the session summary).
    pub rejected: usize,
}

impl SpecList {
    /// Adds one line of the one-object-per-line format; `lineno` is its
    /// 0-based position in the input, for the warning. Blank lines are
    /// ignored; a malformed line is skipped with a warning on stderr and
    /// counted in [`SpecList::rejected`].
    pub fn push_line(&mut self, lineno: usize, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        let parsed = cheriabi::json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|doc| RunSpec::from_json(&doc));
        match parsed {
            Ok(spec) => self.specs.push(spec),
            Err(e) => {
                eprintln!("warning: skipping malformed spec line {}: {e}", lineno + 1);
                self.rejected += 1;
            }
        }
    }

    /// Accepts the list as complete: an error when it holds no spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming `source` when no line parsed.
    pub fn finish(self, source: &str) -> Result<SpecList, String> {
        if !self.specs.is_empty() {
            return Ok(self);
        }
        if self.rejected > 0 {
            return Err(format!(
                "all {} spec lines in {source} are malformed",
                self.rejected
            ));
        }
        Err(format!("no specs found in {source}"))
    }
}

/// Reads a `RunSpec` list from `source`: a file path, or `-` for stdin.
/// Accepts either a top-level JSON array of spec objects or one spec
/// object per non-blank line (the `--dump-specs` format); see
/// [`parse_specs`].
///
/// # Errors
///
/// Returns a message on I/O failure, or any [`parse_specs`] error.
pub fn read_specs(source: &str) -> Result<SpecList, String> {
    use std::io::Read as _;
    let text = if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("reading {source}: {e}"))?
    };
    parse_specs(&text, source)
}

/// Parses a whole spec document read from `source`.
///
/// A malformed *line* is skipped and counted (with a warning on stderr),
/// not fatal: a fleet unit fed a list with one torn line still runs the
/// other cases. A malformed top-level *array* is still an error — torn
/// array syntax leaves no line boundaries to recover at.
///
/// # Errors
///
/// Returns a message on a malformed array document, an empty list, or
/// when *every* line is malformed.
pub fn parse_specs(text: &str, source: &str) -> Result<SpecList, String> {
    let mut list = SpecList::default();
    if text.trim_start().starts_with('[') {
        let doc = cheriabi::json::parse(text).map_err(|e| format!("spec list: {e}"))?;
        let cheriabi::json::Json::Arr(items) = doc else {
            return Err("spec list: expected a JSON array".to_string());
        };
        for (i, item) in items.iter().enumerate() {
            list.specs
                .push(RunSpec::from_json(item).map_err(|e| format!("spec [{i}]: {e}"))?);
        }
    } else {
        for (lineno, line) in text.lines().enumerate() {
            list.push_line(lineno, line);
        }
    }
    list.finish(source)
}

/// Runs one harness session over `specs` honouring every shared flag:
/// cache (with a hit/miss summary on stderr), shard, progress and the
/// JSON stream.
///
/// Returns the reports in submission order — or `None` in shard mode,
/// where the aggregate cannot be computed and the per-case deterministic
/// JSON lines have already been printed; the caller just returns.
#[must_use]
pub fn run_specs(
    registry: &Registry,
    specs: &[RunSpec],
    opts: &BenchOpts,
) -> Option<Vec<CaseReport>> {
    // `--exec-mode`, `--oracle`, `--oracle-every`, `--hardened`,
    // `--weaken-sem` and `--weaken-flush` rewrite every spec before
    // anything else sees it, so dumps, cache lookups, fleet workers and
    // execution all agree on the mode. The defaults leave specs untouched:
    // a spec that already opted into any of these stays opted in.
    let adjusted: Vec<RunSpec>;
    let specs: &[RunSpec] = if opts.exec_mode == ExecMode::Template
        && opts.oracle == OracleMode::Off
        && !opts.weaken_sem
        && !opts.weaken_flush
        && opts.oracle_every == 1
        && !opts.hardened
    {
        specs
    } else {
        adjusted = specs
            .iter()
            .map(|s| {
                let mut s = s.clone();
                if opts.exec_mode != ExecMode::Template {
                    s = s.with_exec_mode(opts.exec_mode);
                }
                if opts.weaken_flush {
                    s = s.with_weaken_flush(true);
                }
                if opts.oracle != OracleMode::Off {
                    s = s.with_oracle(opts.oracle);
                }
                if opts.weaken_sem {
                    s = s.with_weaken_sem(true);
                }
                if opts.oracle_every != 1 {
                    s = s.with_oracle_every(opts.oracle_every);
                }
                if opts.hardened {
                    s = s.with_abi_mode(MembraneMode::Hardened);
                }
                s
            })
            .collect();
        &adjusted
    };
    if opts.dump_specs {
        for spec in specs {
            println!("{}", spec.to_json());
        }
        return None;
    }
    if let Some(workers) = opts.fleet {
        return Some(run_fleet_session(registry, specs, workers, opts));
    }
    let cache = if opts.cache {
        // The salt covers codegen *and* runtime behaviour, so a kernel or
        // VM change invalidates cached reports just like a codegen change.
        match ReportCache::open_default(cheriabi::cache::session_salt()) {
            Ok(cache) => Some(cache),
            Err(err) => {
                eprintln!("warning: report cache unavailable ({err}); running uncached");
                None
            }
        }
    } else {
        None
    };
    let stream = |index: usize, report: &CaseReport, _cached: bool| {
        println!("{}", report.to_json_tagged(index));
    };
    let session = Harness::new(opts.jobs).run_session(
        registry,
        specs,
        &SessionOpts {
            cache: cache.as_ref(),
            shard: opts.shard,
            progress: opts.progress,
            on_report: if opts.json_stream {
                Some(&stream)
            } else {
                None
            },
        },
    );
    if let Some(cache) = &cache {
        eprintln!(
            "cache: {} hits, {} misses ({})",
            session.cache_hits,
            session.cache_misses,
            cache.dir().display()
        );
        if let Some(limit) = opts.cache_limit {
            match cache.prune(limit) {
                Ok((removed, remaining)) => eprintln!(
                    "cache: pruned {removed} entries, {remaining} bytes remain (limit {limit})"
                ),
                Err(err) => eprintln!("warning: cache prune failed: {err}"),
            }
        }
    }
    if opts.shard.is_some() {
        for (index, report) in &session.reports {
            println!("{}", report.to_json_deterministic(*index));
        }
        return None;
    }
    Some(session.into_reports())
}

/// The canonical worker command for this process: the sibling `run_specs`
/// binary next to the current executable, if one exists. `None` (no
/// sibling — e.g. a test runner) makes the fleet run every unit
/// in-process, which is the coordinator's fully-degraded mode anyway.
#[must_use]
pub fn sibling_worker() -> Option<cheriabi::fleet::WorkerCmd> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join("run_specs");
    candidate
        .is_file()
        .then(|| cheriabi::fleet::WorkerCmd::run_specs(candidate))
}

/// Dispatches `specs` through the fleet coordinator (`--fleet N`) and
/// decodes the merged deterministic lines back into reports, so the
/// calling table/figure binary aggregates exactly as it would have from an
/// in-process session. The fleet summary goes to stderr.
fn run_fleet_session(
    registry: &Registry,
    specs: &[RunSpec],
    workers: usize,
    opts: &BenchOpts,
) -> Vec<CaseReport> {
    let fleet_opts = cheriabi::fleet::FleetOpts {
        workers,
        chaos: opts.chaos,
        worker: sibling_worker(),
        ..cheriabi::fleet::FleetOpts::default()
    };
    let out = cheriabi::fleet::run_fleet(registry, specs, &fleet_opts);
    eprintln!("{}", out.stats.summary_line());
    out.lines
        .iter()
        .map(|line| {
            // Fleet lines are validated on receipt; a decode failure here
            // is a coordinator bug, not worker behaviour.
            let doc = cheriabi::json::parse(line).expect("validated fleet line");
            CaseReport::from_json(&doc).expect("validated fleet report")
        })
        .collect()
}

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    cheriabi::json::escape_into(s, &mut out);
    out
}

/// Formats an `f64` for a JSON line: finite values print plainly, the
/// rest (overheads can divide by zero misses) become `null`.
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_jobs_and_json() {
        let opts = parse_args(args(&["--jobs", "4", "--json"])).expect("parses");
        assert_eq!(opts.jobs, 4);
        assert!(opts.json);
        let defaults = parse_args(args(&[])).expect("parses");
        assert!(defaults.jobs >= 1);
        assert!(!defaults.json);
        assert!(!defaults.cache);
        assert_eq!(defaults.shard, None);
        assert!(!defaults.progress);
        assert!(!defaults.json_stream);
    }

    #[test]
    fn parses_session_flags() {
        let opts = parse_args(args(&[
            "--cache",
            "--shard",
            "1/4",
            "--progress",
            "--json-stream",
        ]))
        .expect("parses");
        assert!(opts.cache);
        assert_eq!(opts.shard, Some(Shard { index: 1, count: 4 }));
        assert!(opts.progress);
        assert!(opts.json_stream);
        // Last of --cache / --no-cache wins.
        let off = parse_args(args(&["--cache", "--no-cache"])).expect("parses");
        assert!(!off.cache);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(args(&["--jobs"])).is_err());
        assert!(parse_args(args(&["--jobs", "zero"])).is_err());
        assert!(parse_args(args(&["--jobs", "0"])).is_err());
        assert!(parse_args(args(&["--shard"])).is_err());
        assert!(parse_args(args(&["--shard", "2/2"])).is_err());
        assert!(parse_args(args(&["--shard", "nope"])).is_err());
        assert!(parse_args(args(&["--frobnicate"])).is_err());
        assert!(parse_args(args(&["--cache-limit"])).is_err());
        assert!(parse_args(args(&["--cache-limit", "lots"])).is_err());
        assert!(
            parse_args(args(&["--specs", "-"])).is_err(),
            "--specs belongs to run_specs only"
        );
    }

    #[test]
    fn parses_cache_limit_and_dump_specs() {
        let opts = parse_args(args(&["--cache-limit", "1048576", "--dump-specs"])).expect("parses");
        assert_eq!(opts.cache_limit, Some(1_048_576));
        assert!(opts.dump_specs);
        let defaults = parse_args(args(&[])).expect("parses");
        assert_eq!(defaults.cache_limit, None);
        assert!(!defaults.dump_specs);
    }

    #[test]
    fn parses_exec_mode() {
        assert_eq!(
            parse_args(args(&[])).expect("parses").exec_mode,
            ExecMode::Template
        );
        for (flag, mode) in [
            ("single", ExecMode::SingleStep),
            ("superblock", ExecMode::Superblock),
            ("template", ExecMode::Template),
        ] {
            assert_eq!(
                parse_args(args(&["--exec-mode", flag]))
                    .expect("parses")
                    .exec_mode,
                mode
            );
        }
        assert!(parse_args(args(&["--exec-mode"])).is_err());
        assert!(parse_args(args(&["--exec-mode", "warp"])).is_err());
    }

    #[test]
    fn parses_weaken_flush() {
        assert!(!parse_args(args(&[])).expect("parses").weaken_flush);
        let opts = parse_args(args(&["--weaken-flush"])).expect("parses");
        assert!(opts.weaken_flush);
        assert_eq!(opts.exec_mode, ExecMode::Template);
        // The weakened flush lives in the template tier; asking for it on
        // another tier is a contradiction, not a no-op.
        assert!(parse_args(args(&["--weaken-flush", "--exec-mode", "single"])).is_err());
        assert!(parse_args(args(&["--exec-mode", "superblock", "--weaken-flush"])).is_err());
        // It forwards through --fleet like any spec rewrite.
        let fleet = parse_args(args(&["--fleet", "2", "--weaken-flush"])).expect("parses");
        assert!(fleet.weaken_flush);
    }

    #[test]
    fn parses_oracle_and_weaken_sem() {
        let defaults = parse_args(args(&[])).expect("parses");
        assert_eq!(defaults.oracle, OracleMode::Off);
        assert!(!defaults.weaken_sem);
        let opts = parse_args(args(&["--oracle", "lockstep", "--weaken-sem"])).expect("parses");
        assert_eq!(opts.oracle, OracleMode::Lockstep);
        assert!(opts.weaken_sem);
        assert_eq!(
            parse_args(args(&["--oracle", "replay"]))
                .expect("parses")
                .oracle,
            OracleMode::Replay
        );
        // Last --oracle wins, and `off` restores the default.
        assert_eq!(
            parse_args(args(&["--oracle", "lockstep", "--oracle", "off"]))
                .expect("parses")
                .oracle,
            OracleMode::Off
        );
        assert!(parse_args(args(&["--oracle"])).is_err());
        assert!(parse_args(args(&["--oracle", "sideways"])).is_err());
        // Both shadow the fast tiers, so the reference interpreter cannot
        // take them; replay already runs it as its second leg.
        assert!(parse_args(args(&["--oracle", "lockstep", "--exec-mode", "single"])).is_err());
        assert!(parse_args(args(&["--exec-mode", "single", "--weaken-sem"])).is_err());
        assert!(parse_args(args(&["--exec-mode", "single", "--oracle", "replay"])).is_ok());
        assert!(parse_args(args(&["--exec-mode", "superblock", "--oracle", "lockstep"])).is_ok());
    }

    #[test]
    fn parses_oracle_every_and_hardened() {
        let defaults = parse_args(args(&[])).expect("parses");
        assert_eq!(defaults.oracle_every, 1);
        assert!(!defaults.hardened);
        let opts = parse_args(args(&["--oracle-every", "64", "--hardened"])).expect("parses");
        assert_eq!(opts.oracle_every, 64);
        assert!(opts.hardened);
        assert!(parse_args(args(&["--oracle-every"])).is_err());
        assert!(parse_args(args(&["--oracle-every", "0"])).is_err());
        assert!(parse_args(args(&["--oracle-every", "often"])).is_err());
    }

    #[test]
    fn read_specs_accepts_lines_and_arrays() {
        use cheri_isa::codegen::CodegenOpts;
        use cheri_kernel::AbiMode;
        use cheriabi::harness::RunSpec;
        use cheriabi::spec::ProgramSpec;
        let spec = RunSpec::new(
            "one",
            ProgramSpec::Exit { code: 3 },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        )
        .with_seed(7);
        let line = spec.to_json().to_string();
        let dir = std::env::temp_dir().join(format!(
            "cheri-bench-specs-{}-{}",
            std::process::id(),
            line.len()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let lines_path = dir.join("specs.jsonl");
        std::fs::write(&lines_path, format!("{line}\n\n{line}\n")).expect("write");
        let from_lines = read_specs(lines_path.to_str().expect("utf8 path")).expect("lines");
        assert_eq!(from_lines.specs.len(), 2);
        assert_eq!(from_lines.rejected, 0);
        assert_eq!(from_lines.specs[0], spec);
        let array_path = dir.join("specs.json");
        std::fs::write(&array_path, format!("[{line},\n {line}]")).expect("write");
        let from_array = read_specs(array_path.to_str().expect("utf8 path")).expect("array");
        assert_eq!(from_array, from_lines);
        assert!(read_specs(dir.join("missing.json").to_str().expect("utf8")).is_err());

        // Malformed lines are skipped and counted, not fatal: a fleet unit
        // fed one torn line still runs its other cases. That includes a
        // line nested too deep to parse without overflowing the stack.
        let torn_path = dir.join("torn.jsonl");
        std::fs::write(
            &torn_path,
            format!(
                "{line}\n{{\"torn\": \n{line}\nnot json at all\n{}\n",
                "[".repeat(1_000_000)
            ),
        )
        .expect("write");
        let lenient = read_specs(torn_path.to_str().expect("utf8 path")).expect("lenient");
        assert_eq!(lenient.specs.len(), 2, "good lines survive the bad ones");
        assert_eq!(lenient.rejected, 3, "bad lines are counted");

        // ... but a list with *no* good line is still an error.
        let hopeless_path = dir.join("hopeless.jsonl");
        std::fs::write(&hopeless_path, "{bad\n{worse\n").expect("write");
        let err =
            read_specs(hopeless_path.to_str().expect("utf8 path")).expect_err("all-bad lists fail");
        assert!(err.contains("all 2 spec lines"), "{err}");

        // A torn top-level array has no line boundaries to recover at.
        let torn_array = dir.join("torn.json");
        std::fs::write(&torn_array, format!("[{line},")).expect("write");
        assert!(read_specs(torn_array.to_str().expect("utf8 path")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_fleet_and_chaos() {
        let defaults = parse_args(args(&[])).expect("parses");
        assert_eq!(defaults.fleet, None);
        assert_eq!(defaults.chaos, None);
        let opts = parse_args(args(&["--fleet", "3", "--chaos", "7"])).expect("parses");
        assert_eq!(opts.fleet, Some(3));
        assert_eq!(opts.chaos, Some(7));
        assert!(parse_args(args(&["--fleet"])).is_err());
        assert!(parse_args(args(&["--fleet", "0"])).is_err());
        assert!(parse_args(args(&["--fleet", "many"])).is_err());
        assert!(
            parse_args(args(&["--chaos", "7"])).is_err(),
            "--chaos needs --fleet"
        );
        assert!(
            parse_args(args(&["--fleet", "2", "--shard", "0/2"])).is_err(),
            "--fleet and --shard do not compose"
        );
    }

    #[test]
    fn fleet_rejects_session_flags_it_cannot_honour() {
        // Silently dropping a session flag under --fleet would let the
        // same command report different bytes with and without the fleet;
        // every unsupported combination is an error instead.
        for bad in [
            &["--fleet", "2", "--cache"][..],
            &["--fleet", "2", "--cache-limit", "1024"][..],
            &["--fleet", "2", "--json-stream"][..],
            &["--fleet", "2", "--progress"][..],
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.25), "1.2500");
    }
}
