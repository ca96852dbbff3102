//! Shared command-line handling for the evaluation binaries.
//!
//! Every harness binary parses its arguments with [`parse_env_with`]: one
//! parser for the shared flags plus the flags the binary declares for
//! itself, one `--help` (the shared [`USAGE`], then the binary's own
//! lines) and one exit-2 path for usage errors. `interp_throughput` and
//! `prop_oracle`, which take none of the shared flags, use the same loop
//! through [`parse_env_own`]. The shared flags include:
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
//!
//! A test-only mutant switch is declared by the one binary whose gate
//! must catch it (`fault_campaign --weaken-tag-clear`, `table_attacks
//! --weaken-quarantine`), never shared.

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
    /// With `--cache`, prune the report cache down to this many bytes after
    /// the session (LRU by mtime; never evicts entries it just wrote).
    pub cache_limit: Option<u64>,
    /// Print the session's spec list as JSON lines and exit instead of
    /// running anything (feed the output to `run_specs --specs`).
    pub dump_specs: bool,
    /// Execution tier for every case (`--exec-mode
    /// single|superblock|template`, default template — the full stack).
    pub exec_mode: ExecMode,
    /// Differential-oracle mode applied to every spec (`--oracle
    /// lockstep|replay|off`). A divergence surfaces as a failed case.
    pub oracle: OracleMode,
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
    /// recovered, not fatal. `run_specs` prints the merged lines, the
    /// `--shard 0/1` format. With `--cache` the coordinator serves and
    /// records cases through the report cache. `--shard`, `--json-stream`
    /// and `--progress` are rejected rather than silently dropped.
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
            oracle: OracleMode::Off,
            oracle_every: 1,
            hardened: false,
            fleet: None,
            chaos: None,
        }
    }
}

/// Parses the shared flags from `args` (without the program name) and hands
/// every other flag to `local`, the binary's own flags: it returns
/// `Ok(true)` for a flag it declares (taking any value off the iterator
/// with [`value`] or [`count`]) and `Ok(false)` for one it does not know.
/// `usage` is the binary's own usage lines, shown after [`USAGE`].
///
/// # Errors
///
/// Returns the message for an unknown flag (with the usage), a missing or
/// malformed value, or flags that cannot combine.
fn parse_args(
    args: impl IntoIterator<Item = String>,
    usage: &str,
    mut local: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts::default();
    parse_flags(args, &format!("{USAGE}{usage}"), |arg, iter| {
        match arg {
            "--jobs" | "-j" => opts.jobs = count(iter, "--jobs")?,
            "--json" => opts.json = true,
            "--cache" => opts.cache = true,
            "--no-cache" => opts.cache = false,
            "--shard" => opts.shard = Some(Shard::parse(&value(iter, "--shard")?)?),
            "--progress" => opts.progress = true,
            "--json-stream" => opts.json_stream = true,
            "--cache-limit" => {
                let bytes = value(iter, "--cache-limit")?;
                let limit = bytes
                    .parse()
                    .map_err(|_| format!("--cache-limit: not a byte count: {bytes}"))?;
                opts.cache_limit = Some(limit);
            }
            "--dump-specs" => opts.dump_specs = true,
            "--exec-mode" => {
                opts.exec_mode =
                    ExecMode::from_label(&value(iter, "--exec-mode")?).map_err(|e| {
                        format!("--exec-mode: {e} (want single, superblock or template)")
                    })?;
            }
            "--oracle" => {
                opts.oracle = match value(iter, "--oracle")?.as_str() {
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
            "--oracle-every" => opts.oracle_every = count(iter, "--oracle-every")?,
            "--hardened" => opts.hardened = true,
            "--fleet" => opts.fleet = Some(count(iter, "--fleet")?),
            "--chaos" => opts.chaos = Some(number(iter, "--chaos")?),
            flag => return local(flag, iter),
        }
        Ok(true)
    })?;
    if opts.exec_mode == ExecMode::SingleStep && opts.oracle == OracleMode::Lockstep {
        // The reference interpreter is what lockstep checks against: the
        // check would be a silent no-op.
        return Err(
            "--oracle lockstep shadows the fast tiers; it cannot combine with --exec-mode single"
                .to_string(),
        );
    }
    if opts.cache_limit.is_some() && !opts.cache {
        return Err("--cache-limit requires --cache (there is no cache to prune)".to_string());
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
        return Err("--chaos requires --fleet".to_string());
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
    --cache-limit B  with --cache, prune the cache to at most B bytes after\n                 \
    the session (oldest entries first; never this session's own)\n  \
    --dump-specs   print the session's RunSpec JSON lines and exit\n                 \
    (pipe into `run_specs --specs -` to replay them)\n  \
    --exec-mode T  execution tier for every case: `single` (the reference\n                 \
    interpreter), `superblock` (plain TLB stepping, no templates)\n                 \
    or `template` (the full stack, the default). Guest metrics\n                 \
    are byte-identical by contract; only host speed changes\n  \
    --oracle M     differential oracle: `lockstep` shadows every dispatched\n                 \
    instruction against the shared semantics, `replay` runs each\n                 \
    case twice (fast, then reference) and diffs the results;\n                 \
    a divergence surfaces as a failed case (default: off);\n                 \
    lockstep needs a fast tier (not --exec-mode single)\n  \
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
    run_specs prints it as --shard 0/1 lines;\n                 \
    with --cache the coordinator serves and records cases;\n                 \
    --shard, --json-stream and --progress are rejected)\n  \
    --chaos SEED   seeded coordinator fault injection (kill a worker\n                 \
    mid-unit, delay output, insert a garbage line); needs --fleet";

/// The one flag loop: hands every argument to `flag`, which takes any
/// value off the iterator and returns `Ok(false)` for a flag it does not
/// know. `usage` follows the message for an unknown flag.
fn parse_flags(
    args: impl IntoIterator<Item = String>,
    usage: &str,
    mut flag: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if !flag(&arg, &mut iter)? {
            return Err(format!("unknown argument: {arg}\n{usage}"));
        }
    }
    Ok(())
}

/// The process arguments, after `--help` (or `-h`) anywhere among them has
/// printed `help` and exited 0.
fn env_args(help: &dyn std::fmt::Display) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{help}");
        std::process::exit(0);
    }
    args
}

/// Parses the process arguments with [`parse_args`]. `--help` prints
/// [`USAGE`] and `usage` and exits 0; a usage error goes to [`fail`].
#[must_use]
pub fn parse_env_with(
    usage: &str,
    local: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
) -> BenchOpts {
    let args = env_args(&format_args!("{USAGE}{usage}"));
    parse_args(args, usage, local).unwrap_or_else(|msg| fail(&msg))
}

/// [`parse_env_with`] for a binary that takes none of the shared flags,
/// only its own (`interp_throughput`, `prop_oracle`): `--help` prints
/// `usage` alone and exits 0, and a usage error goes to [`fail`].
pub fn parse_env_own(
    usage: &str,
    local: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
) {
    let args = env_args(&usage);
    parse_flags(args, usage, local).unwrap_or_else(|msg| fail(&msg));
}

/// [`parse_env_with`] for a binary with no flags of its own.
#[must_use]
pub fn parse_env() -> BenchOpts {
    parse_env_with("", |_, _| Ok(false))
}

/// Prints `msg` on stderr and exits 2, the status of every usage or input
/// error.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Takes the value of `flag` off `args`.
///
/// # Errors
///
/// Returns a message when the arguments end first.
pub fn value(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag} needs a value (see --help)"))
}

/// Takes the value of `flag` off `args` as a number.
///
/// # Errors
///
/// Returns a message when the value is missing or not a number.
pub fn number<T: std::str::FromStr>(
    args: &mut dyn Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let text = value(args, flag)?;
    text.parse()
        .map_err(|_| format!("{flag}: not a number: {text}"))
}

/// Takes the value of `flag` off `args` as a count of at least 1.
///
/// # Errors
///
/// Returns a message when the value is missing, not a number, or 0.
pub fn count<T>(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let n: T = number(args, flag)?;
    if n < T::from(1) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
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

/// Parses a spec list read from `source`: one spec object per line, the
/// `--dump-specs` format. A malformed line (a JSON array included) is
/// skipped and counted, with a warning on stderr, not fatal: a fleet unit
/// fed a list with one torn line still runs the other cases.
///
/// # Errors
///
/// Returns a message on an empty list, or when *every* line is malformed.
pub fn parse_specs(text: &str, source: &str) -> Result<SpecList, String> {
    let mut list = SpecList::default();
    for (lineno, line) in text.lines().enumerate() {
        list.push_line(lineno, line);
    }
    list.finish(source)
}

/// Runs one harness session over `specs` honouring every shared flag:
/// cache (with a hit/miss summary on stderr), shard, progress, the JSON
/// stream and the fleet.
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
    match session(registry, specs, opts)? {
        Output::Reports(reports) => Some(reports),
        Output::FleetLines(lines) => Some(
            lines
                .iter()
                .map(|line| {
                    // Fleet lines are validated on receipt; a decode failure
                    // here is a coordinator bug, not worker behaviour.
                    let doc = cheriabi::json::parse(line).expect("validated fleet line");
                    CaseReport::from_json(&doc).expect("validated fleet report")
                })
                .collect(),
        ),
    }
}

/// What a [`session`] produced.
pub enum Output {
    /// The reports in submission order.
    Reports(Vec<CaseReport>),
    /// Under `--fleet`: the coordinator's merged deterministic lines,
    /// byte-identical to a `--shard 0/1` run of the same specs.
    FleetLines(Vec<String>),
}

/// [`run_specs`] without decoding the fleet's merged lines, for a caller
/// that prints them as they are (`run_specs --fleet N`).
#[must_use]
pub fn session(registry: &Registry, specs: &[RunSpec], opts: &BenchOpts) -> Option<Output> {
    // `--exec-mode`, `--oracle`, `--oracle-every` and `--hardened` rewrite
    // every spec before anything else sees it, so dumps, cache lookups,
    // fleet workers and execution all agree on the mode. The defaults leave
    // specs untouched: a spec that already opted into any of these stays
    // opted in.
    let adjusted: Vec<RunSpec>;
    let specs: &[RunSpec] = if opts.exec_mode == ExecMode::Template
        && opts.oracle == OracleMode::Off
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
                if opts.oracle != OracleMode::Off {
                    s = s.with_oracle(opts.oracle);
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
            emit(spec.to_json());
        }
        return None;
    }
    let cache = if opts.cache { open_cache() } else { None };
    if let Some(workers) = opts.fleet {
        let lines = run_fleet_session(registry, specs, workers, opts, cache.as_ref());
        prune_cache(cache.as_ref(), opts.cache_limit);
        return Some(Output::FleetLines(lines));
    }
    let stream = |index: usize, report: &CaseReport, _cached: bool| {
        emit(report.to_json_tagged(index));
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
    }
    prune_cache(cache.as_ref(), opts.cache_limit);
    if opts.shard.is_some() {
        for (index, report) in &session.reports {
            emit(report.to_json_deterministic(*index));
        }
        return None;
    }
    Some(Output::Reports(session.into_reports()))
}

/// Prints `line` and a newline to stdout. A reader that has gone away
/// (`EPIPE`: `table1 --dump-specs | head -1`) ends the process with
/// status 0, where `println!` would panic; any other write error is fatal.
pub fn emit(line: impl std::fmt::Display) {
    use std::io::Write as _;
    match writeln!(std::io::stdout().lock(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Opens the report cache at its conventional location, or warns on stderr
/// and returns `None` so the caller runs uncached.
fn open_cache() -> Option<ReportCache> {
    // The salt covers codegen *and* runtime behaviour, so a kernel or VM
    // change invalidates cached reports just like a codegen change.
    match ReportCache::open_default(cheriabi::cache::session_salt()) {
        Ok(cache) => Some(cache),
        Err(err) => {
            eprintln!("warning: report cache unavailable ({err}); running uncached");
            None
        }
    }
}

/// `--cache-limit`: prunes `cache` to `limit` bytes, reporting on stderr.
fn prune_cache(cache: Option<&ReportCache>, limit: Option<u64>) {
    let (Some(cache), Some(limit)) = (cache, limit) else {
        return;
    };
    match cache.prune(limit) {
        Ok((removed, remaining)) => {
            eprintln!("cache: pruned {removed} entries, {remaining} bytes remain (limit {limit})");
        }
        Err(err) => eprintln!("warning: cache prune failed: {err}"),
    }
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
/// returns its merged deterministic lines. The fleet summary goes to
/// stderr.
fn run_fleet_session(
    registry: &Registry,
    specs: &[RunSpec],
    workers: usize,
    opts: &BenchOpts,
    cache: Option<&ReportCache>,
) -> Vec<String> {
    let fleet_opts = cheriabi::fleet::FleetOpts {
        workers,
        chaos: opts.chaos,
        worker: sibling_worker(),
        cache,
        ..cheriabi::fleet::FleetOpts::default()
    };
    let out = cheriabi::fleet::run_fleet(registry, specs, &fleet_opts);
    eprintln!("{}", out.stats.summary_line());
    out.lines
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

    /// The shared flags alone, as a binary without flags of its own sees them.
    fn parse_args(list: Vec<String>) -> Result<BenchOpts, String> {
        super::parse_args(list, "", |_, _| Ok(false))
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
        // A mutant's switch belongs to the one binary whose gate catches
        // it (prop_oracle, interp_throughput); a spec line can still set it.
        assert!(parse_args(args(&["--weaken-sem"])).is_err());
        assert!(parse_args(args(&["--weaken-flush"])).is_err());
        // `--specs` is run_specs' own flag: anywhere else it is unknown.
        let err = parse_args(args(&["--specs", "-"])).expect_err("not shared");
        assert!(err.starts_with("unknown argument: --specs"), "{err}");
    }

    #[test]
    fn parses_a_binarys_own_flags_after_the_shared_ones() {
        let mut seeds = 0u64;
        let mut weaken = false;
        let mut parse = |list: &[&str]| {
            super::parse_args(args(list), "\n  --seeds N  own", |flag, rest| {
                match flag {
                    "--seeds" => seeds = count(rest, flag)?,
                    "--weaken-tag-clear" => weaken = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })
        };
        let opts = parse(&["--seeds", "3", "--json", "--weaken-tag-clear"]).expect("parses");
        assert!(opts.json);
        // Validation of a declared value goes through the same error path.
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--seeds"]).is_err());
        // An undeclared flag is unknown, and the error shows both usages.
        let err = parse(&["--frobnicate"]).expect_err("unknown");
        assert!(
            err.contains("--jobs N") && err.ends_with("--seeds N  own"),
            "{err}"
        );
        assert_eq!((seeds, weaken), (3, true));
    }

    #[test]
    fn parses_cache_limit_and_dump_specs() {
        let opts = parse_args(args(&[
            "--cache",
            "--cache-limit",
            "1048576",
            "--dump-specs",
        ]))
        .expect("parses");
        assert_eq!(opts.cache_limit, Some(1_048_576));
        assert!(opts.dump_specs);
        let defaults = parse_args(args(&[])).expect("parses");
        assert_eq!(defaults.cache_limit, None);
        assert!(!defaults.dump_specs);
        // A limit on a cache that is never opened would silently do
        // nothing, so it is a usage error.
        assert!(parse_args(args(&["--cache-limit", "10"])).is_err());
        assert!(parse_args(args(&["--cache", "--cache-limit", "10", "--no-cache"])).is_err());
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
    fn parses_oracle() {
        let defaults = parse_args(args(&[])).expect("parses");
        assert_eq!(defaults.oracle, OracleMode::Off);
        let opts = parse_args(args(&["--oracle", "lockstep"])).expect("parses");
        assert_eq!(opts.oracle, OracleMode::Lockstep);
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
        // Lockstep shadows the fast tiers, so the reference interpreter
        // cannot take it; replay already runs it as its second leg.
        assert!(parse_args(args(&["--oracle", "lockstep", "--exec-mode", "single"])).is_err());
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
    fn spec_lists_are_one_object_per_line() {
        use cheri_isa::codegen::CodegenOpts;
        use cheri_kernel::AbiMode;
        use cheriabi::spec::ProgramSpec;
        let spec = RunSpec::new(
            "one",
            ProgramSpec::Exit { code: 3 },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        )
        .with_seed(7);
        let line = spec.to_json().to_string();
        let list = parse_specs(&format!("{line}\n\n{line}\n"), "lines").expect("lines");
        assert_eq!(list.specs.len(), 2);
        assert_eq!(list.rejected, 0);
        assert_eq!(list.specs[0], spec);

        // Malformed lines are skipped and counted, not fatal: a fleet unit
        // fed one torn line still runs its other cases. That includes a
        // line nested too deep to parse without overflowing the stack.
        let torn = format!(
            "{line}\n{{\"torn\": \n{line}\nnot json at all\n{}\n",
            "[".repeat(1_000_000)
        );
        let lenient = parse_specs(&torn, "torn").expect("lenient");
        assert_eq!(lenient.specs.len(), 2, "good lines survive the bad ones");
        assert_eq!(lenient.rejected, 3, "bad lines are counted");

        // ... but a list with *no* good line is still an error.
        let err = parse_specs("{bad\n{worse\n", "hopeless").expect_err("all-bad lists fail");
        assert!(err.contains("all 2 spec lines"), "{err}");
        assert!(parse_specs("\n \n", "blank").is_err());

        // A JSON array is not a spec list: each of its lines is malformed.
        let array = format!("[{line},\n {line}]");
        let err = parse_specs(&array, "array").expect_err("arrays fail loudly");
        assert!(err.contains("all 2 spec lines"), "{err}");
        assert!(parse_specs(&format!("[{line}]"), "array").is_err());
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
            &["--fleet", "2", "--json-stream"][..],
            &["--fleet", "2", "--progress"][..],
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad:?} must be rejected");
        }
        // The coordinator serves and records cases through the cache.
        let cached = parse_args(args(&["--fleet", "2", "--cache", "--cache-limit", "1024"]))
            .expect("parses");
        assert!(cached.cache);
        assert_eq!(cached.cache_limit, Some(1024));
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.25), "1.2500");
    }
}
