//! The fault-tolerant fleet executor.
//!
//! The ROADMAP's fleet-scale evaluation service wants a million-case
//! corpus sweep as a routine CI job. At that scale individual runner
//! failures are *routine inputs*, not exceptional conditions: a worker
//! process dies mid-shard, wedges on a pathological case, or emits a torn
//! JSON line because the box ran out of memory. This module is the
//! coordinator that absorbs all of that while still producing output
//! byte-identical to a single-process run.
//!
//! **The protocol.** The spec list is split into fixed-size *work units*
//! (contiguous runs of submission indices). Each worker slot keeps one
//! long-lived worker subprocess — by convention `run_specs --specs -
//! --jobs 1 --no-cache --shard 0/1` — and streams unit after unit into its
//! stdin: one spec JSON line per case, then the [`UNIT_END`] frame line.
//! The worker runs the unit as one session and answers with one
//! deterministic report line per case (`{"case":<local>,...}`, no wall
//! time, no host counters), then echoes `UNIT_END`. The coordinator
//! validates every line, rewrites the local indices to global submission
//! indices *textually* (so worker bytes are preserved exactly), and
//! concatenates the units in order. Because the deterministic line format
//! is context-free, the merged output is byte-identical to
//! `run_specs --shard 0/1` over the whole list — the same contract the
//! shard-merge machinery already enforces ([`crate::harness::merge_shards`]).
//!
//! **The unit lifecycle** (see DESIGN.md "The fleet tier"). Each worker
//! slot owns one unit from start to finish before it takes the next:
//!
//! ```text
//! Pending -> attempt k --valid lines-----------> Completed -> Checkpointed
//!              |  crash/hang/poison, k < retries: backoff, attempt k+1
//!              |  crash/hang/poison, k = retries; or spawn failure
//!              +-----------------------------> InProcess -> Completed
//! ```
//!
//! * a slot spawns its worker on its first attempt and keeps it for as
//!   long as attempts complete; any other outcome **kills and reaps** the
//!   worker, so the next attempt starts a fresh one and no stale output
//!   crosses units. A slot kills and reaps its worker when it runs out of
//!   units, so none outlives [`run_fleet`];
//! * a worker's pipes are served by its own I/O thread, and the slot waits
//!   for the framed answer on a channel with the per-unit wall deadline: a
//!   worker that answers late, or stops reading its input, is scored hung
//!   and killed (hang detection);
//! * a worker that exits non-zero or dies to a signal costs one attempt
//!   with a deterministic exponential backoff (`retry_backoff`);
//! * corrupt, truncated or miscounted output is scored poisoned and
//!   counted, never propagated and never fatal;
//! * a unit that exhausts its subprocess attempts degrades to **in-process
//!   execution** on its slot's own thread — the sweep always completes,
//!   even with no working worker binary at all. A slot whose worker cannot
//!   be spawned runs every later unit in-process too.
//!
//! **Checkpointing.** Every completed unit is written (atomic tmp+rename)
//! to `target/fleet-ckpt/<session>/unit-NNNNN.ckpt`, where `<session>` is
//! a hash of the full spec list and the unit size. With
//! [`FleetOpts::resume`], valid checkpoints are loaded before dispatching
//! and their units are never re-executed; an interrupted sweep therefore
//! redoes zero completed work. A sweep that runs to completion removes its
//! session directory.
//!
//! **Chaos mode.** [`FleetOpts::chaos`] arms a seeded fault injector
//! *inside the coordinator*: it kills workers mid-unit, delays their
//! output, and inserts garbage lines into their streams — deterministically
//! per `(seed, unit, attempt)`, and only on the first attempt so recovery
//! always converges. This is the coordinator's own `FaultPlan`: the CI
//! chaos gate proves the recovery paths produce byte-identical output with
//! faults armed.

use crate::harness::{execute_spec, RunSpec};
use crate::json::{self, Json};
use crate::spec::Registry;
use std::fs;
use std::io::{ErrorKind, Read as _, Write as _};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The frame line that ends a work unit: the coordinator writes it after
/// a unit's spec lines, and the worker echoes it after the unit's report
/// lines.
pub const UNIT_END: &str = "{\"unit_end\":true}";

/// How a worker subprocess is launched. The command must read spec JSON
/// lines on stdin until each [`UNIT_END`] line, then print one
/// deterministic report line per spec of that unit (`{"case":<local
/// index>,...}`, the `--shard` line format, indices from 0) followed by
/// `UNIT_END` on stdout, and wait for the next unit —
/// `run_specs --specs - --jobs 1 --no-cache --shard 0/1` is the canonical
/// worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerCmd {
    /// Executable to spawn.
    pub program: PathBuf,
    /// Arguments, passed verbatim.
    pub args: Vec<String>,
}

impl WorkerCmd {
    /// The canonical worker invocation for a `run_specs` binary at `path`.
    #[must_use]
    pub fn run_specs(path: impl Into<PathBuf>) -> WorkerCmd {
        WorkerCmd {
            program: path.into(),
            args: [
                "--specs",
                "-",
                "--jobs",
                "1",
                "--no-cache",
                "--shard",
                "0/1",
            ]
            .iter()
            .map(ToString::to_string)
            .collect(),
        }
    }
}

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct FleetOpts {
    /// Worker slots (one worker subprocess each), ≥ 1.
    pub workers: usize,
    /// Specs per work unit, ≥ 1.
    pub unit_size: usize,
    /// Wall-clock deadline per dispatched unit; a worker that has not
    /// answered by then is killed and the unit re-dispatched (hang
    /// detection).
    pub unit_deadline: Duration,
    /// Subprocess re-dispatch attempts per unit before degrading to
    /// in-process execution, with `retry_backoff` between attempts.
    pub retries: u64,
    /// Seeded coordinator-side fault injection: kill a worker mid-unit,
    /// delay its output, or insert a garbage line — deterministically per
    /// `(seed, unit, attempt)`, first attempts only.
    pub chaos: Option<u64>,
    /// How to launch workers. `None` runs every unit in-process (the
    /// fully-degraded mode, also the pure-library mode for tests).
    pub worker: Option<WorkerCmd>,
    /// Checkpoint root (`None` disables checkpointing). Completed units
    /// are written under `<root>/<session>/`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load valid checkpoints before dispatching; their units are counted
    /// as resumed and never re-executed.
    pub resume: bool,
    /// Test/CI hook: stop dispatching once this many units have completed
    /// and return an interrupted summary — simulating an interrupted sweep
    /// without needing to deliver a real signal.
    pub stop_after: Option<usize>,
}

impl Default for FleetOpts {
    fn default() -> Self {
        FleetOpts {
            workers: 4,
            unit_size: 8,
            unit_deadline: Duration::from_secs(120),
            retries: 2,
            chaos: None,
            worker: None,
            checkpoint_dir: Some(default_checkpoint_dir()),
            resume: false,
            stop_after: None,
        }
    }
}

/// The deterministic backoff before re-dispatch `attempt` (1-based): 10 ms
/// doubling per attempt, capped at 320 ms. A pure function of the attempt
/// number — no jitter — so a sweep's schedule stays reproducible.
#[must_use]
fn retry_backoff(attempt: u64) -> Duration {
    Duration::from_millis(10u64 << attempt.clamp(1, 6).saturating_sub(1))
}

/// The conventional checkpoint root, `<target dir>/fleet-ckpt/`
/// (honouring `CARGO_TARGET_DIR`).
#[must_use]
pub fn default_checkpoint_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("fleet-ckpt")
}

/// Fleet counters. Everything here describes *how* the sweep ran (host
/// conditions, chaos, recovery); none of it touches the merged output,
/// which is deterministic by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Work units in the sweep.
    pub units: usize,
    /// Units whose results were loaded from checkpoints (never
    /// re-executed).
    pub units_resumed: usize,
    /// Units completed, including resumed ones.
    pub units_completed: usize,
    /// Units that degraded to in-process execution (spawn failure,
    /// exhausted retries, or no worker command configured).
    pub units_inprocess: usize,
    /// Unit attempts sent to a worker.
    pub dispatches: u64,
    /// Worker processes started: one per slot, plus one after each failed
    /// attempt.
    pub spawns: u64,
    /// Worker attempts that exited non-zero or died to a signal.
    pub crashes: u64,
    /// Worker attempts killed at the per-unit deadline.
    pub hangs: u64,
    /// Worker attempts with corrupt/truncated/miscounted output.
    pub poisoned: u64,
    /// Worker attempts that could not be spawned.
    pub spawn_failures: u64,
    /// Always 0: a unit runs one attempt at a time, so no duplicate is ever
    /// issued. Kept because perf_ledger reports it.
    pub straggler_duplicates: u64,
    /// Always 0: no duplicate result is ever discarded. Kept because
    /// perf_ledger reports it.
    pub straggler_discards: u64,
    /// Chaos: workers killed mid-unit.
    pub chaos_kills: u64,
    /// Chaos: garbage lines inserted into worker output.
    pub chaos_garbage: u64,
    /// Chaos: output deliveries delayed.
    pub chaos_delays: u64,
}

impl FleetStats {
    /// One-line machine-greppable rendering (the `fleet_run` stderr
    /// summary).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "fleet: units={} completed={} resumed={} executed={} inprocess={} \
             dispatches={} spawns={} crashes={} hangs={} poisoned={} spawn_failures={} \
             chaos_kills={} chaos_garbage={} chaos_delays={}",
            self.units,
            self.units_completed,
            self.units_resumed,
            self.units_completed - self.units_resumed,
            self.units_inprocess,
            self.dispatches,
            self.spawns,
            self.crashes,
            self.hangs,
            self.poisoned,
            self.spawn_failures,
            self.chaos_kills,
            self.chaos_garbage,
            self.chaos_delays,
        )
    }
}

/// What a fleet sweep produced.
#[derive(Clone, Debug)]
pub struct FleetOutput {
    /// Deterministic report lines in submission order (global `case`
    /// indices) — byte-identical to `run_specs --shard 0/1` over the same
    /// list. Empty when `interrupted`.
    pub lines: Vec<String>,
    /// Counters.
    pub stats: FleetStats,
    /// True when [`FleetOpts::stop_after`] fired: the sweep stopped early
    /// with its completed units checkpointed for a later `resume`.
    pub interrupted: bool,
}

// ---------------------------------------------------------------------
// Chaos: the coordinator's own seeded fault plan
// ---------------------------------------------------------------------

/// A coordinator-injected fault for one `(seed, unit, attempt)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Kill the worker right after feeding it the unit.
    KillWorker,
    /// Insert a garbage line into the worker's output stream.
    GarbageLine,
    /// Delay delivery of the worker's output.
    DelayOutput,
}

/// SplitMix64: a tiny, deterministic, well-mixed hash for chaos decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The chaos decision for one dispatch attempt: a pure function of
/// `(seed, unit, attempt)`, so CI runs are reproducible. Faults fire on
/// first attempts only — recovery therefore always converges, and a
/// re-dispatched unit runs clean.
#[must_use]
pub fn chaos_action(seed: u64, unit: usize, attempt: u64) -> Option<ChaosAction> {
    if attempt != 0 {
        return None;
    }
    let h = splitmix64(seed ^ (unit as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match h % 4 {
        0 => Some(ChaosAction::KillWorker),
        1 => Some(ChaosAction::GarbageLine),
        2 => Some(ChaosAction::DelayOutput),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// The checkpoint session key: a hash of every spec's canonical JSON plus
/// the unit size, so a resumed sweep with a different list or different
/// unit boundaries can never pick up a stale checkpoint.
#[must_use]
pub fn session_key(specs: &[RunSpec], unit_size: usize) -> u64 {
    let mut text = format!("fleet-v1:unit={unit_size};");
    for spec in specs {
        text.push_str(&spec.to_json().to_string());
        text.push('\n');
    }
    json::fnv1a(text.as_bytes())
}

fn unit_ckpt_path(session_dir: &std::path::Path, unit: usize) -> PathBuf {
    session_dir.join(format!("unit-{unit:05}.ckpt"))
}

static CKPT_TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes one completed unit's lines atomically (tmp + rename; tmp names
/// carry pid and a process-global nonce so concurrent coordinators sharing
/// a checkpoint root never collide). I/O failures are swallowed: a
/// checkpoint that cannot be written merely means that unit is re-executed
/// on resume.
fn write_unit_ckpt(session_dir: &std::path::Path, unit: usize, first: usize, lines: &[String]) {
    if fs::create_dir_all(session_dir).is_err() {
        return;
    }
    let header = Json::obj(vec![
        ("unit", Json::u64(unit as u64)),
        ("first", Json::u64(first as u64)),
        ("lines", Json::u64(lines.len() as u64)),
    ]);
    let mut text = header.to_string();
    text.push('\n');
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    let path = unit_ckpt_path(session_dir, unit);
    let tmp = session_dir.join(format!(
        "unit-{unit:05}.tmp.{}.{}",
        std::process::id(),
        CKPT_TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if fs::write(&tmp, text).is_ok() && fs::rename(&tmp, &path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// Loads one unit's checkpoint, re-validating the header and every line
/// (parses as JSON, `case` field equals the expected global index). A
/// torn, corrupt or mismatched checkpoint reads as absent — the unit is
/// simply re-executed.
fn load_unit_ckpt(
    session_dir: &std::path::Path,
    unit: usize,
    globals: Range<usize>,
) -> Option<Vec<String>> {
    let text = fs::read_to_string(unit_ckpt_path(session_dir, unit)).ok()?;
    let mut lines = text.lines();
    let header = json::parse(lines.next()?).ok()?;
    if header.get("unit")?.as_u64().ok()? != unit as u64
        || header.get("first")?.as_u64().ok()? != globals.start as u64
        || header.get("lines")?.as_u64().ok()? != globals.len() as u64
    {
        return None;
    }
    let body: Vec<&str> = lines.collect();
    if body.len() != globals.len() {
        return None;
    }
    let mut out = Vec::with_capacity(body.len());
    for (line, global) in body.iter().zip(globals) {
        let parsed = json::parse(line).ok()?;
        if parsed.get("case")?.as_u64().ok()? != global as u64 {
            return None;
        }
        parsed.get("name")?;
        out.push((*line).to_string());
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Worker output validation
// ---------------------------------------------------------------------

/// Validates one worker attempt's stdout for a unit covering `globals`
/// and rewrites the local `case` indices to global submission indices.
/// The rewrite is textual — everything after the `case` field is the
/// worker's bytes verbatim — so fleet output merges byte-identically with
/// single-process output.
///
/// # Errors
///
/// Returns a description of the first invalid line (or the line-count
/// mismatch): the attempt is then scored poisoned.
pub fn rewrite_unit_lines(raw: &str, globals: Range<usize>) -> Result<Vec<String>, String> {
    let lines: Vec<&str> = raw.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() != globals.len() {
        return Err(format!(
            "expected {} report lines, got {}",
            globals.len(),
            lines.len()
        ));
    }
    let mut out = Vec::with_capacity(lines.len());
    for (local, (line, global)) in lines.iter().zip(globals).enumerate() {
        let parsed = json::parse(line).map_err(|e| format!("line {local}: {e}"))?;
        let case = parsed
            .get("case")
            .and_then(|c| c.as_u64().ok())
            .ok_or_else(|| format!("line {local}: missing case index"))?;
        if case != local as u64 {
            return Err(format!("line {local}: out-of-order case index {case}"));
        }
        if parsed.get("name").is_none() || parsed.get("outcome").is_none() {
            return Err(format!("line {local}: not a report line"));
        }
        let prefix = format!("{{\"case\":{local},");
        let rest = line
            .strip_prefix(prefix.as_str())
            .ok_or_else(|| format!("line {local}: non-canonical case prefix"))?;
        out.push(format!("{{\"case\":{global},{rest}"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------

/// What one subprocess attempt of one unit produced.
enum UnitOutcome {
    /// Every line validated; the unit's report lines, with global
    /// submission indices.
    Completed(Vec<String>),
    /// The answer was corrupt — a torn or non-JSON line, a wrong or
    /// out-of-order `case` index, a line count that does not match the
    /// unit — or the worker exited cleanly without answering.
    Poisoned,
    /// The worker exited non-zero or died to a signal.
    Crashed,
    /// No answer arrived within the per-unit deadline.
    Hung,
}

/// What the slots share: a cursor over the units still to run, the
/// results, and the counters. `stats.units_completed` doubles as the
/// completion count.
struct CoordState {
    pending: std::vec::IntoIter<usize>,
    results: Vec<Option<Vec<String>>>,
    stats: FleetStats,
}

/// Runs the sweep. See the module docs for the failure model; the merged
/// lines are byte-identical to a single-process `--shard 0/1` run of the
/// same list whenever the sweep runs to completion.
///
/// # Panics
///
/// Panics only on coordinator-internal invariant violations (a completed
/// sweep with a unit that has no result), never on worker behaviour.
#[must_use]
pub fn run_fleet(registry: &Registry, specs: &[RunSpec], opts: &FleetOpts) -> FleetOutput {
    let unit_size = opts.unit_size.max(1);
    let units: Vec<Range<usize>> = (0..specs.len())
        .step_by(unit_size)
        .map(|start| start..(start + unit_size).min(specs.len()))
        .collect();
    let session_dir = opts
        .checkpoint_dir
        .as_ref()
        .map(|root| root.join(format!("{:016x}", session_key(specs, unit_size))));

    // Resume: load valid checkpoints first; their units never dispatch.
    let mut results = vec![None; units.len()];
    let mut stats = FleetStats {
        units: units.len(),
        ..FleetStats::default()
    };
    let mut pending = Vec::new();
    for (u, range) in units.iter().enumerate() {
        let loaded = session_dir
            .as_deref()
            .filter(|_| opts.resume)
            .and_then(|dir| load_unit_ckpt(dir, u, range.clone()));
        if let Some(lines) = loaded {
            results[u] = Some(lines);
            stats.units_resumed += 1;
            stats.units_completed += 1;
        } else {
            pending.push(u);
        }
    }

    let shared = Mutex::new(CoordState {
        pending: pending.into_iter(),
        results,
        stats,
    });
    std::thread::scope(|scope| {
        for _ in 0..opts.workers.max(1) {
            let (shared, units, session_dir) = (&shared, &units, session_dir.as_deref());
            scope.spawn(move || {
                let mut slot = Slot {
                    cmd: opts.worker.as_ref(),
                    live: None,
                };
                while let Some(u) = next_unit(shared, opts) {
                    let range = units[u].clone();
                    let lines = slot.run_unit(shared, registry, specs, u, range.clone(), opts);
                    if let Some(dir) = session_dir {
                        write_unit_ckpt(dir, u, range.start, &lines);
                    }
                    let mut s = lock(shared);
                    s.results[u] = Some(lines);
                    s.stats.units_completed += 1;
                }
                // Dropping the slot kills and reaps its worker.
            });
        }
    });

    let state = shared
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Every unit a slot takes completes, so a shortfall means stop_after
    // fired.
    let interrupted = state.stats.units_completed < units.len();
    let lines = if interrupted {
        Vec::new()
    } else {
        // A finished sweep's checkpoints have served their purpose.
        if let Some(dir) = &session_dir {
            let _ = fs::remove_dir_all(dir);
        }
        state
            .results
            .into_iter()
            .flat_map(|r| r.expect("every unit completed"))
            .collect()
    };
    FleetOutput {
        lines,
        stats: state.stats,
        interrupted,
    }
}

fn lock(shared: &Mutex<CoordState>) -> std::sync::MutexGuard<'_, CoordState> {
    shared
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Hands a slot its next unit: `None` once every unit has been taken, or
/// once [`FleetOpts::stop_after`] units have completed.
fn next_unit(shared: &Mutex<CoordState>, opts: &FleetOpts) -> Option<usize> {
    let mut s = lock(shared);
    if opts
        .stop_after
        .is_some_and(|stop| s.stats.units_completed >= stop)
    {
        return None;
    }
    s.pending.next()
}

/// One worker slot: the command it spawns workers from (`None` once a
/// spawn has failed, degrading the slot to in-process execution for the
/// rest of the sweep) and its live worker, kept from unit to unit.
struct Slot<'a> {
    cmd: Option<&'a WorkerCmd>,
    live: Option<Worker>,
}

impl Slot<'_> {
    /// Runs one unit to completion: up to `retries + 1` worker attempts
    /// with `retry_backoff` between them, then the in-process
    /// fallback. Any attempt that does not complete kills the worker, so
    /// the next attempt starts a fresh one and no stale output ever
    /// reaches another unit.
    fn run_unit(
        &mut self,
        shared: &Mutex<CoordState>,
        registry: &Registry,
        specs: &[RunSpec],
        unit: usize,
        range: Range<usize>,
        opts: &FleetOpts,
    ) -> Vec<String> {
        for attempt in 0..=opts.retries {
            let Some(cmd) = self.cmd else { break };
            if attempt > 0 {
                std::thread::sleep(retry_backoff(attempt));
            }
            let spawned = self.live.is_none();
            let worker = match &mut self.live {
                Some(worker) => worker,
                None => match Worker::spawn(cmd) {
                    Some(worker) => self.live.insert(worker),
                    None => {
                        lock(shared).stats.spawn_failures += 1;
                        self.cmd = None;
                        break;
                    }
                },
            };
            let chaos = opts
                .chaos
                .and_then(|seed| chaos_action(seed, unit, attempt));
            let outcome = worker.attempt(specs, range.clone(), opts.unit_deadline, chaos);
            if !matches!(outcome, UnitOutcome::Completed(_)) {
                self.live = None;
            }
            let stats = &mut lock(shared).stats;
            stats.spawns += u64::from(spawned);
            stats.dispatches += 1;
            match chaos {
                Some(ChaosAction::KillWorker) => stats.chaos_kills += 1,
                Some(ChaosAction::GarbageLine) => stats.chaos_garbage += 1,
                Some(ChaosAction::DelayOutput) => stats.chaos_delays += 1,
                None => {}
            }
            match outcome {
                UnitOutcome::Completed(lines) => return lines,
                UnitOutcome::Poisoned => stats.poisoned += 1,
                UnitOutcome::Crashed => stats.crashes += 1,
                UnitOutcome::Hung => stats.hangs += 1,
            }
        }
        lock(shared).stats.units_inprocess += 1;
        run_inprocess(registry, specs, range)
    }
}

/// Executes a unit on the calling thread — the fully-degraded tier. Each
/// spec runs through [`execute_spec`] (panic isolation included) and is
/// rendered as its deterministic line with the global index, exactly the
/// bytes a healthy worker would have produced.
fn run_inprocess(registry: &Registry, specs: &[RunSpec], range: Range<usize>) -> Vec<String> {
    range
        .map(|global| {
            execute_spec(registry, &specs[global])
                .to_json_deterministic(global)
                .to_string()
        })
        .collect()
}

/// A live worker process and the channels to its I/O thread. Dropping it
/// kills and reaps the process.
struct Worker {
    child: Child,
    /// Unit inputs (spec lines plus [`UNIT_END`]) for the I/O thread.
    feed: Sender<String>,
    /// One raw answer per unit: everything the worker printed before its
    /// echoed [`UNIT_END`]. Disconnected once the worker's pipes fail.
    answers: Receiver<Vec<u8>>,
}

impl Worker {
    /// Starts a worker and its I/O thread; `None` when either cannot be
    /// started.
    fn spawn(cmd: &WorkerCmd) -> Option<Worker> {
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .ok()?;
        let (feed, inputs) = mpsc::channel();
        let (answer, answers) = mpsc::channel();
        let pipes = (child.stdin.take(), child.stdout.take());
        // The pipes live on their own thread, so neither a worker that
        // stops reading nor one that floods its output can block the slot
        // past its deadline; killing the worker unblocks the thread.
        let io = match pipes {
            (Some(stdin), Some(stdout)) => std::thread::Builder::new()
                .spawn(move || serve(stdin, stdout, &inputs, &answer))
                .ok(),
            _ => None,
        };
        let worker = Worker {
            child,
            feed,
            answers,
        };
        // On failure the dropped worker is killed and reaped.
        io.map(|_| worker)
    }

    /// One attempt: feed the unit, await the framed answer until the
    /// deadline, validate it. The chaos fault, when there is one, is
    /// injected here.
    fn attempt(
        &mut self,
        specs: &[RunSpec],
        range: Range<usize>,
        deadline: Duration,
        chaos: Option<ChaosAction>,
    ) -> UnitOutcome {
        // `None` (a deadline past the clock's range) waits indefinitely.
        let deadline = Instant::now().checked_add(deadline);
        let mut input = String::new();
        for global in range.clone() {
            input.push_str(&specs[global].to_json().to_string());
            input.push('\n');
        }
        input.push_str(UNIT_END);
        input.push('\n');
        // A failed send means the I/O thread is gone, which the receive
        // below reports as a disconnect.
        let _ = self.feed.send(input);
        if chaos == Some(ChaosAction::KillWorker) {
            let _ = self.child.kill();
            return UnitOutcome::Crashed;
        }
        let raw = match self.answers.recv_timeout(remaining(deadline)) {
            Ok(raw) => raw,
            Err(RecvTimeoutError::Timeout) => return UnitOutcome::Hung,
            Err(RecvTimeoutError::Disconnected) => return self.disconnected(deadline),
        };
        if chaos == Some(ChaosAction::DelayOutput) {
            std::thread::sleep(Duration::from_millis(20));
        }
        let Ok(mut text) = String::from_utf8(raw) else {
            return UnitOutcome::Poisoned;
        };
        if chaos == Some(ChaosAction::GarbageLine) {
            text.insert_str(0, "{\"chaos\":tor\n");
        }
        match rewrite_unit_lines(&text, range) {
            Ok(lines) => UnitOutcome::Completed(lines),
            Err(_) => UnitOutcome::Poisoned,
        }
    }

    /// Scores a worker whose pipes closed before it answered: by its exit
    /// status, awaited until the deadline. A worker that closed its pipes
    /// but will not exit counts as hung.
    fn disconnected(&mut self, deadline: Option<Instant>) -> UnitOutcome {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return UnitOutcome::Poisoned,
                Ok(Some(_)) | Err(_) => return UnitOutcome::Crashed,
                Ok(None) if remaining(deadline).is_zero() => return UnitOutcome::Hung,
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The time left until `deadline`; `Duration::MAX` for no deadline, which
/// `recv_timeout` treats as waiting indefinitely.
fn remaining(deadline: Option<Instant>) -> Duration {
    deadline.map_or(Duration::MAX, |d| {
        d.saturating_duration_since(Instant::now())
    })
}

/// A worker's I/O thread: writes each unit input to the worker's stdin,
/// then reads its stdout until the answer ends with the echoed
/// [`UNIT_END`] line and sends everything before that line. A worker
/// writes nothing after its frame until it has read the next unit, so the
/// frame always ends what the pipe holds; one that breaks this rule is
/// scored hung or poisoned like any other broken answer. Returns —
/// dropping the answer channel, which the slot sees as a disconnect — on
/// the first pipe error or EOF, or once the slot drops its worker.
///
/// Reading straight into the answer, with no `BufReader`, keeps this
/// thread's heap to the one buffer in flight.
fn serve(
    mut stdin: ChildStdin,
    mut stdout: ChildStdout,
    inputs: &Receiver<String>,
    answers: &Sender<Vec<u8>>,
) {
    for input in inputs {
        if stdin.write_all(input.as_bytes()).is_err() {
            return;
        }
        // Freed before the answer goes back, so the slot thread can reuse
        // the allocation for its next unit.
        drop(input);
        let mut answer = Vec::new();
        let body = loop {
            let start = answer.len();
            answer.resize(start + 4096, 0);
            match stdout.read(&mut answer[start..]) {
                Ok(0) => return,
                Ok(n) => answer.truncate(start + n),
                Err(e) if e.kind() == ErrorKind::Interrupted => answer.truncate(start),
                Err(_) => return,
            }
            let framed = answer
                .strip_suffix(b"\n")
                .and_then(|rest| rest.strip_suffix(UNIT_END.as_bytes()));
            if let Some(body) = framed {
                if body.is_empty() || body.ends_with(b"\n") {
                    break body.len();
                }
            }
        };
        answer.truncate(body);
        if answers.send(answer).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Harness, RunSpec};
    use crate::spec::ProgramSpec;
    use cheri_isa::codegen::CodegenOpts;
    use cheri_kernel::AbiMode;
    use std::sync::atomic::AtomicUsize;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "cheriabi-fleet-test-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::SeqCst)
            ));
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn exit_specs(n: usize) -> Vec<RunSpec> {
        (0..n)
            .map(|i| {
                RunSpec::new(
                    format!("case-{i}"),
                    ProgramSpec::Exit { code: 0 },
                    CodegenOpts::purecap(),
                    AbiMode::CheriAbi,
                )
                .with_seed(i as u64)
            })
            .collect()
    }

    fn golden_lines(registry: &Registry, specs: &[RunSpec]) -> Vec<String> {
        Harness::new(1)
            .run(registry, specs)
            .iter()
            .enumerate()
            .map(|(i, r)| r.to_json_deterministic(i).to_string())
            .collect()
    }

    fn sh_worker(script: &str) -> WorkerCmd {
        WorkerCmd {
            program: PathBuf::from("/bin/sh"),
            args: vec!["-c".to_string(), script.to_string()],
        }
    }

    /// A framed `sh` worker: runs `on_line` for every spec line (`$line`,
    /// with `$n` its index in the unit), then `on_end` at each
    /// [`UNIT_END`] before echoing the frame.
    fn framed_worker(on_line: &str, on_end: &str) -> WorkerCmd {
        sh_worker(&format!(
            "n=0; while read -r line; do \
               if [ \"$line\" = '{UNIT_END}' ]; then {on_end} echo '{UNIT_END}'; n=0; \
               else {on_line} n=$((n+1)); fi; \
             done"
        ))
    }

    /// A framed worker that answers every spec of `specs` with its golden
    /// report line, looked up by spec name in files under `tmp`; `on_end`
    /// runs before each frame is echoed.
    fn golden_worker(
        tmp: &TempDir,
        registry: &Registry,
        specs: &[RunSpec],
        on_end: &str,
    ) -> WorkerCmd {
        let answers = tmp.0.join("answers");
        fs::create_dir_all(&answers).expect("answers dir");
        for (i, line) in golden_lines(registry, specs).iter().enumerate() {
            let rest = line
                .strip_prefix(&format!("{{\"case\":{i},"))
                .expect("canonical");
            fs::write(answers.join(&specs[i].name), rest).expect("answer file");
        }
        let on_line = format!(
            "name=${{line#*\\\"name\\\":\\\"}}; name=${{name%%\\\"*}}; \
             read -r rest < '{}'/\"$name\"; printf '{{\"case\":%d,%s\\n' \"$n\" \"$rest\";",
            answers.display()
        );
        framed_worker(&on_line, on_end)
    }

    fn base_opts(tmp: &TempDir) -> FleetOpts {
        FleetOpts {
            workers: 2,
            unit_size: 3,
            unit_deadline: Duration::from_secs(30),
            retries: 1,
            checkpoint_dir: Some(tmp.0.clone()),
            ..FleetOpts::default()
        }
    }

    #[test]
    fn in_process_fleet_matches_the_single_process_run() {
        let tmp = TempDir::new("inproc");
        let registry = Registry::builtin();
        let specs = exit_specs(10);
        let opts = base_opts(&tmp);
        let out = run_fleet(&registry, &specs, &opts);
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert_eq!(out.stats.units, 4);
        assert_eq!(out.stats.units_completed, 4);
        assert_eq!(out.stats.units_inprocess, 4, "no worker => all in-process");
        assert_eq!(out.stats.dispatches, 0);
    }

    #[test]
    fn a_crashing_worker_degrades_to_in_process_and_still_merges() {
        let tmp = TempDir::new("crash");
        let registry = Registry::builtin();
        let specs = exit_specs(6);
        let opts = FleetOpts {
            worker: Some(framed_worker("", "exit 7;")),
            ..base_opts(&tmp)
        };
        let out = run_fleet(&registry, &specs, &opts);
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert!(out.stats.crashes > 0, "{:?}", out.stats);
        assert_eq!(out.stats.units_inprocess, 2, "both units fell back");
    }

    #[test]
    fn poisoned_output_is_counted_and_recovered() {
        let tmp = TempDir::new("poison");
        let registry = Registry::builtin();
        let specs = exit_specs(6);
        let opts = FleetOpts {
            worker: Some(framed_worker("", "echo '{torn json';")),
            ..base_opts(&tmp)
        };
        let out = run_fleet(&registry, &specs, &opts);
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert!(out.stats.poisoned > 0, "{:?}", out.stats);
        assert_eq!(out.stats.units_inprocess, 2);
    }

    #[test]
    fn a_hung_worker_is_killed_at_the_deadline() {
        let tmp = TempDir::new("hang");
        let registry = Registry::builtin();
        let specs = exit_specs(3);
        let opts = FleetOpts {
            workers: 1,
            worker: Some(sh_worker("exec sleep 600")),
            unit_deadline: Duration::from_millis(80),
            retries: 0,
            ..base_opts(&tmp)
        };
        let started = Instant::now();
        let out = run_fleet(&registry, &specs, &opts);
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert!(out.stats.hangs >= 1, "{:?}", out.stats);
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the kill must not wait for the worker's sleep"
        );
    }

    #[test]
    fn an_unspawnable_worker_degrades_without_failing() {
        let tmp = TempDir::new("nospawn");
        let registry = Registry::builtin();
        let specs = exit_specs(4);
        let opts = FleetOpts {
            worker: Some(WorkerCmd {
                program: PathBuf::from("/no/such/binary"),
                args: Vec::new(),
            }),
            ..base_opts(&tmp)
        };
        let out = run_fleet(&registry, &specs, &opts);
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert!(out.stats.spawn_failures >= 1);
        assert_eq!(out.stats.units_inprocess, 2);
    }

    #[test]
    fn a_failed_attempt_is_redispatched_not_run_in_process() {
        let tmp = TempDir::new("redispatch");
        let registry = Registry::builtin();
        let specs = exit_specs(1);
        // The first run creates the marker and crashes; the second finds
        // it and answers with a valid line.
        let line = "{\"case\":0,\"name\":\"w\",\"outcome\":{\"outcome\":\"deadline\"}}";
        let on_end = format!(
            "mkdir {} 2>/dev/null && exit 7; echo '{line}';",
            tmp.0.join("marker").display(),
        );
        let opts = FleetOpts {
            workers: 1,
            unit_size: 1,
            worker: Some(framed_worker("", &on_end)),
            ..base_opts(&tmp)
        };
        let out = run_fleet(&registry, &specs, &opts);
        assert!(!out.interrupted);
        assert_eq!(out.lines, vec![line.to_string()]);
        assert_eq!(out.stats.crashes, 1, "{:?}", out.stats);
        assert_eq!(out.stats.dispatches, 2, "{:?}", out.stats);
        assert_eq!(out.stats.units_inprocess, 0, "{:?}", out.stats);
    }

    #[test]
    fn a_worker_persists_across_units_and_is_replaced_once_per_failure() {
        let registry = Registry::builtin();
        let specs = exit_specs(12); // 4 units of 3
        let opts = |tmp: &TempDir, worker| FleetOpts {
            workers: 1,
            worker: Some(worker),
            ..base_opts(tmp)
        };

        let tmp = TempDir::new("persist");
        let out = run_fleet(
            &registry,
            &specs,
            &opts(&tmp, golden_worker(&tmp, &registry, &specs, "")),
        );
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert_eq!(out.stats.dispatches, 4, "{:?}", out.stats);
        assert_eq!(out.stats.spawns, 1, "one worker served every unit");
        assert_eq!(out.stats.units_inprocess, 0, "{:?}", out.stats);

        // The first worker crashes at the end of its first unit; its
        // replacement serves that unit's retry and every later unit.
        let tmp = TempDir::new("persist-crash");
        let on_end = format!(
            "mkdir {} 2>/dev/null && exit 7;",
            tmp.0.join("marker").display()
        );
        let worker = golden_worker(&tmp, &registry, &specs, &on_end);
        let out = run_fleet(&registry, &specs, &opts(&tmp, worker));
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert_eq!(out.stats.spawns, 2, "{:?}", out.stats);
        assert_eq!(out.stats.crashes, 1, "{:?}", out.stats);
        assert_eq!(out.stats.dispatches, 5, "{:?}", out.stats);
        assert_eq!(out.stats.units_inprocess, 0, "{:?}", out.stats);
    }

    #[test]
    fn a_worker_that_never_reads_is_hung_not_a_wedged_feed() {
        let tmp = TempDir::new("feed-hang");
        let registry = Registry::builtin();
        // Long names push the unit's spec text past a 64 KiB pipe buffer,
        // so writing it blocks for as long as the worker does not read.
        let specs: Vec<RunSpec> = exit_specs(3)
            .into_iter()
            .enumerate()
            .map(|(i, mut spec)| {
                spec.name = format!("{i}-{}", "x".repeat(40_000));
                spec
            })
            .collect();
        let opts = FleetOpts {
            workers: 1,
            worker: Some(sh_worker("exec sleep 600")),
            unit_deadline: Duration::from_millis(200),
            retries: 0,
            ..base_opts(&tmp)
        };
        let started = Instant::now();
        let out = run_fleet(&registry, &specs, &opts);
        assert!(!out.interrupted);
        assert_eq!(out.lines, golden_lines(&registry, &specs));
        assert_eq!(out.stats.hangs, 1, "{:?}", out.stats);
        assert_eq!(out.stats.units_inprocess, 1, "{:?}", out.stats);
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the feed must not outlive the deadline"
        );
    }

    #[test]
    fn retry_backoff_doubles_from_10ms_and_caps_at_320ms() {
        // A pure function of the attempt number: no jitter anywhere.
        assert_eq!(retry_backoff(1), Duration::from_millis(10));
        assert_eq!(retry_backoff(2), Duration::from_millis(20));
        assert_eq!(retry_backoff(100), Duration::from_millis(320));
    }

    #[test]
    fn stop_after_interrupts_and_resume_redoes_zero_units() {
        let tmp = TempDir::new("resume");
        let registry = Registry::builtin();
        let specs = exit_specs(10); // 4 units of 3
        let opts = FleetOpts {
            workers: 1,
            stop_after: Some(2),
            ..base_opts(&tmp)
        };
        let first = run_fleet(&registry, &specs, &opts);
        assert!(first.interrupted);
        assert!(first.lines.is_empty());
        assert!(first.stats.units_completed >= 2);
        let done_first = first.stats.units_completed;
        let resumed = run_fleet(
            &registry,
            &specs,
            &FleetOpts {
                stop_after: None,
                resume: true,
                ..opts
            },
        );
        assert!(!resumed.interrupted);
        assert_eq!(resumed.lines, golden_lines(&registry, &specs));
        assert_eq!(
            resumed.stats.units_resumed, done_first,
            "every checkpointed unit loads; zero are redone"
        );
        assert_eq!(
            resumed.stats.units_completed - resumed.stats.units_resumed,
            4 - done_first
        );
        // A finished sweep cleans up its session directory.
        let session = tmp
            .0
            .join(format!("{:016x}", session_key(&specs, opts.unit_size)));
        assert!(
            !session.exists(),
            "completed sweeps clean their checkpoints"
        );
    }

    #[test]
    fn corrupt_checkpoints_read_as_absent() {
        let tmp = TempDir::new("ckpt-corrupt");
        let registry = Registry::builtin();
        let specs = exit_specs(6);
        let opts = FleetOpts {
            workers: 1,
            stop_after: Some(1),
            unit_size: 3,
            ..base_opts(&tmp)
        };
        let first = run_fleet(&registry, &specs, &opts);
        assert!(first.interrupted);
        let session = tmp.0.join(format!("{:016x}", session_key(&specs, 3)));
        // Corrupt every checkpoint the interrupted run left behind.
        for entry in fs::read_dir(&session).expect("session dir") {
            let path = entry.expect("entry").path();
            fs::write(&path, "{ torn").expect("corrupt");
        }
        let resumed = run_fleet(
            &registry,
            &specs,
            &FleetOpts {
                stop_after: None,
                resume: true,
                ..opts
            },
        );
        assert!(!resumed.interrupted);
        assert_eq!(resumed.stats.units_resumed, 0, "corrupt ckpts are ignored");
        assert_eq!(resumed.lines, golden_lines(&registry, &specs));
    }

    #[test]
    fn a_stale_session_never_serves_a_different_spec_list() {
        let specs_a = exit_specs(6);
        let mut specs_b = exit_specs(6);
        specs_b[0] = specs_b[0].clone().with_seed(99);
        assert_ne!(session_key(&specs_a, 3), session_key(&specs_b, 3));
        assert_ne!(
            session_key(&specs_a, 3),
            session_key(&specs_a, 2),
            "unit boundaries are part of the session key"
        );
    }

    #[test]
    fn chaos_decisions_are_deterministic_and_first_attempt_only() {
        for seed in [0u64, 7, 42, 1729] {
            for unit in 0..32 {
                assert_eq!(
                    chaos_action(seed, unit, 0),
                    chaos_action(seed, unit, 0),
                    "pure function"
                );
                assert_eq!(chaos_action(seed, unit, 1), None, "retries run clean");
            }
            // Every action kind appears somewhere in a 32-unit sweep.
            let all: Vec<_> = (0..32).filter_map(|u| chaos_action(seed, u, 0)).collect();
            assert!(all.contains(&ChaosAction::KillWorker), "seed {seed}");
            assert!(all.contains(&ChaosAction::GarbageLine), "seed {seed}");
            assert!(all.contains(&ChaosAction::DelayOutput), "seed {seed}");
        }
    }

    #[test]
    fn rewrite_rejects_corrupt_lines_and_preserves_bytes() {
        let good = "{\"case\":0,\"name\":\"a\",\"outcome\":{\"outcome\":\"deadline\"}}\n\
                    {\"case\":1,\"name\":\"b\",\"outcome\":{\"outcome\":\"deadline\"}}\n";
        let lines = rewrite_unit_lines(good, 10..12).expect("valid");
        assert_eq!(
            lines[0],
            "{\"case\":10,\"name\":\"a\",\"outcome\":{\"outcome\":\"deadline\"}}"
        );
        assert_eq!(
            lines[1],
            "{\"case\":11,\"name\":\"b\",\"outcome\":{\"outcome\":\"deadline\"}}"
        );
        // Truncated output: wrong line count.
        assert!(rewrite_unit_lines(good, 10..13).is_err());
        // Torn JSON.
        assert!(rewrite_unit_lines("{torn\n", 0..1).is_err());
        // Out-of-order case index.
        let swapped = "{\"case\":1,\"name\":\"a\",\"outcome\":{\"outcome\":\"deadline\"}}\n";
        assert!(rewrite_unit_lines(swapped, 0..1).is_err());
        // A non-report JSON line.
        assert!(rewrite_unit_lines("{\"case\":0}\n", 0..1).is_err());
    }

    #[test]
    fn summary_line_is_machine_greppable() {
        let stats = FleetStats {
            units: 8,
            units_completed: 8,
            units_resumed: 3,
            ..FleetStats::default()
        };
        let line = stats.summary_line();
        assert!(line.contains("units=8"), "{line}");
        assert!(line.contains("resumed=3"), "{line}");
        assert!(line.contains("executed=5"), "{line}");
    }
}
