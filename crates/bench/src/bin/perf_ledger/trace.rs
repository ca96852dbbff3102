//! The traced sweep: every case runs through the public calls
//! `execute_spec` makes, in the same order, with a span around each layer
//! call. Spans stay in memory until the sweep ends, are written as JSONL,
//! and the per-layer metrics are computed from that file.
//!
//! The re-assembly covers the spec features the five workloads use (no
//! deadline, fault plan, lockstep oracle, capability trace or L2 override).
//! Its per-case lines must hash to the reference sweep's, so it cannot
//! drift from `execute_spec` unnoticed.

use crate::child::line_hash;
use cheriabi::cache::ReportCache;
use cheriabi::harness::{
    CaseOutcome, CaseReport, ExecMode, HostCounters, MembraneMode, RunSpec, ScenarioStats,
};
use cheriabi::json::{self, Json};
use cheriabi::spec::{ProgramSpec, Registry};
use cheriabi::{ExitStatus, Metrics, Pid, RunOutcome, SpawnOpts, System};
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The root span of one case.
pub const CASE: &str = "case";

/// Layer spans, each a child of a [`CASE`] span.
pub const LAYERS: [&str; 8] = [
    "spec.lower",
    "kernel.boot",
    "kernel.spawn",
    "kernel.run",
    "kernel.teardown",
    "harness.report",
    "cache.load",
    "cache.store",
];

/// Counters recorded on the `kernel.spawn` and `kernel.run` spans, as the
/// change across the call (see [`counters`]); `cache.hits` is recorded on
/// `cache.load` spans.
pub const COUNTERS: [&str; 25] = [
    "cpu.instret",
    "cpu.cycles",
    "cpu.tlb_hits",
    "cpu.tlb_misses",
    "cpu.sb_hits",
    "cpu.sb_misses",
    "cpu.tmpl_compiles",
    "cpu.tmpl_hits",
    "mem.l1i_hits",
    "mem.l1i_misses",
    "mem.l1d_hits",
    "mem.l1d_misses",
    "mem.l2_hits",
    "mem.l2_misses",
    "mem.stall_cycles",
    "kernel.syscalls",
    "kernel.ctx_switches",
    "kernel.blocks",
    "kernel.wakes",
    "kernel.traps",
    "vm.faults",
    "vm.swap_ins",
    "vm.swap_outs",
    "vm.cow_copies",
    "cache.hits",
];

/// Every counter of `sys` except `cache.hits`, in [`COUNTERS`] order.
fn counters(sys: &System) -> [u64; 24] {
    let c = sys.kernel.cpu.stats;
    let m = sys.kernel.cpu.caches.stats();
    let k = &sys.kernel.stats;
    let v = &sys.kernel.vm.stats;
    [
        c.instret,
        c.cycles,
        c.tlb_hits,
        c.tlb_misses,
        c.sb_hits,
        c.sb_misses,
        c.tmpl_compiles,
        c.tmpl_hits,
        m.l1i_hits,
        m.l1i_misses,
        m.l1d_hits,
        m.l1d_misses,
        m.l2_hits,
        m.l2_misses,
        m.stall_cycles,
        k.syscalls.values().sum(),
        k.ctx_switches,
        k.blocks,
        k.wakes,
        k.traps,
        v.faults,
        v.swap_ins,
        v.swap_outs,
        v.cow_copies,
    ]
}

/// One span: a call into a layer on behalf of one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// [`CASE`] or one of [`LAYERS`].
    pub name: &'static str,
    /// Canonical spec index of the case.
    pub case: usize,
    /// Start, in nanoseconds since the sweep began.
    pub start_ns: u64,
    /// End, in nanoseconds since the sweep began.
    pub end_ns: u64,
    /// Index of the enclosing span in the sweep's span list.
    pub parent: Option<usize>,
    /// Non-zero counters measured across the call.
    pub counters: Vec<(&'static str, u64)>,
}

const OPEN: u64 = u64::MAX;

/// The spans of one case, with case-local indices.
struct Recorder {
    base: Instant,
    case: usize,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            case: self.case,
            start_ns,
            end_ns: OPEN,
            parent,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Ends every span a panic left open.
    fn close_open(&mut self) {
        let now = self.now();
        for span in &mut self.spans {
            if span.end_ns == OPEN {
                span.end_ns = now;
            }
        }
    }

    fn count(&mut self, id: usize, before: &[u64; 24], after: &[u64; 24]) {
        self.spans[id].counters = COUNTERS
            .iter()
            .zip(before.iter().zip(after))
            .filter_map(|(&name, (b, a))| (a > b).then_some((name, a - b)))
            .collect();
    }
}

/// What the guest run produced, before it becomes a [`CaseReport`].
struct Harvest {
    status: ExitStatus,
    console: String,
    metrics: Metrics,
    scenario: Option<(Option<String>, ScenarioStats)>,
}

/// Boots the machine the way `execute_spec` configures it.
fn boot(spec: &RunSpec) -> System {
    let mut sys = System::with_config(spec.config);
    match spec.exec_mode {
        ExecMode::SingleStep => sys.kernel.cpu.set_fast_path(false),
        ExecMode::Superblock => {
            sys.kernel.cpu.set_fast_path(true);
            sys.kernel.cpu.set_templates(false);
        }
        ExecMode::Template => {
            sys.kernel.cpu.set_fast_path(true);
            sys.kernel.cpu.set_templates(true);
        }
    }
    sys.kernel.cpu.set_weaken_sem(spec.weaken_sem);
    sys.kernel.cpu.set_weaken_flush(spec.weaken_flush);
    if matches!(spec.program, ProgramSpec::Scenario { .. }) {
        // `System::run_scenario` makes memory events exact before spawning.
        sys.kernel.cpu.set_exact_mem_events(true);
    }
    sys
}

/// `execute_spec` for one case, with a span around each layer call.
fn execute_traced(
    registry: &Registry,
    spec: &RunSpec,
    rec: &mut Recorder,
    root: usize,
) -> CaseReport {
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let program = rec.time("spec.lower", root, || {
            registry.lower(&spec.program, spec.opts, spec.seed)
        });
        let mut sys = rec.time("kernel.boot", root, || boot(spec));
        let mut opts = SpawnOpts::new(spec.abi);
        opts.asan = spec.asan;
        opts.instr_budget = spec.instr_budget;
        opts.hardened = spec.abi_mode == MembraneMode::Hardened;
        opts.weaken_quarantine = spec.weaken_quarantine;
        let c0 = sys.kernel.cpu.stats;
        let m0 = sys.kernel.cpu.caches.stats();

        let before = counters(&sys);
        let id = rec.open("kernel.spawn", Some(root));
        let spawned = sys.kernel.spawn(&program, &opts);
        rec.close(id);
        let after = counters(&sys);
        rec.count(id, &before, &after);

        let harvest = spawned.map(|main| {
            let budget = sys.kernel.process(main).instr_budget;
            let id = rec.open("kernel.run", Some(root));
            let outcome = sys.kernel.run(budget);
            rec.close(id);
            rec.count(id, &after, &counters(&sys));
            let c1 = sys.kernel.cpu.stats;
            let m1 = sys.kernel.cpu.caches.stats();
            let scenario = match &spec.program {
                ProgramSpec::Scenario {
                    clients, queries, ..
                } => {
                    let deadlock =
                        (outcome == RunOutcome::Deadlock).then(|| sys.kernel.blocked_diagnostics());
                    let latencies: Vec<u64> = (0..*clients)
                        .filter_map(|i| sys.kernel.try_process(Pid(main.0 + 2 + i)))
                        .flat_map(|client| {
                            client
                                .console
                                .chunks_exact(8)
                                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        })
                        .collect();
                    Some((
                        deadlock,
                        ScenarioStats::from_latencies(*clients, clients * queries, &latencies),
                    ))
                }
                _ => None,
            };
            Harvest {
                status: sys
                    .kernel
                    .exit_status(main)
                    .unwrap_or(ExitStatus::BudgetExhausted),
                console: sys.kernel.process(main).console_string(),
                metrics: Metrics {
                    instructions: c1.instret - c0.instret,
                    cycles: c1.cycles - c0.cycles,
                    l2_misses: m1.l2_misses - m0.l2_misses,
                    syscalls: c1.syscalls - c0.syscalls,
                },
                scenario,
            }
        });
        let divergence = sys.kernel.cpu.take_divergence();
        let host = HostCounters {
            tlb_hits: sys.kernel.cpu.stats.tlb_hits,
            tlb_misses: sys.kernel.cpu.stats.tlb_misses,
            sb_hits: sys.kernel.cpu.stats.sb_hits,
            sb_misses: sys.kernel.cpu.stats.sb_misses,
            wakes: sys.kernel.stats.wakes,
            blocks: sys.kernel.stats.blocks,
            max_runq_depth: sys.kernel.stats.max_runq_depth,
            ctx_switches: sys.kernel.stats.ctx_switches,
        };
        let host = (host != HostCounters::default()).then_some(host);
        let membrane = (spec.abi_mode == MembraneMode::Hardened).then_some(sys.kernel.membrane);
        rec.time("kernel.teardown", root, || drop(sys));
        (harvest, divergence, host, membrane)
    }));
    let wall = start.elapsed();
    let mut report = CaseReport {
        name: spec.name.clone(),
        seed: spec.seed,
        outcome: CaseOutcome::DeadlineExceeded,
        console: String::new(),
        metrics: Metrics::default(),
        wall,
        cap_cdf: None,
        retries: 0,
        quarantined: false,
        faults: None,
        host: None,
        scenario: None,
        membrane: None,
    };
    match run {
        Ok((Ok(harvest), divergence, host, membrane)) => {
            let deadlock = harvest.scenario.as_ref().and_then(|(d, _)| d.clone());
            report.outcome = match (divergence, deadlock) {
                (Some(d), _) => CaseOutcome::Divergence(d.to_string()),
                (None, Some(diag)) => CaseOutcome::Deadlock(diag),
                (None, None) => CaseOutcome::Exited(harvest.status),
            };
            report.console = harvest.console;
            report.metrics = harvest.metrics;
            report.scenario = harvest.scenario.map(|(_, stats)| stats);
            report.host = host;
            report.membrane = membrane;
        }
        Ok((Err(load), _, host, membrane)) => {
            report.outcome = CaseOutcome::LoadFailed(load.to_string());
            report.host = host;
            report.membrane = membrane;
        }
        Err(payload) => {
            rec.close_open();
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            report.outcome = CaseOutcome::Panicked(message);
        }
    }
    report
}

/// What a traced sweep produced.
pub struct Traced {
    /// Per-case line hashes, by canonical index.
    pub hashes: Vec<u64>,
    /// Guest instructions retired by executed (not cache-served) cases.
    pub instret: u64,
    /// First dispatch to last report.
    pub sweep_ns: u64,
}

/// Runs `submitted` (canonical index `order[i]` at position `i`) on `jobs`
/// threads with spans, then writes the spans to `trace_path` as JSONL.
pub fn sweep(
    registry: &Registry,
    submitted: &[RunSpec],
    order: &[usize],
    jobs: usize,
    cache: Option<&ReportCache>,
    trace_path: &Path,
) -> std::io::Result<Traced> {
    let base = Instant::now();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(submitted.len()));
    let run_case = |position: usize| {
        let (spec, case) = (&submitted[position], order[position]);
        let mut rec = Recorder {
            base,
            case,
            spans: Vec::with_capacity(LAYERS.len() + 1),
        };
        let root = rec.open(CASE, None);
        let loaded = cache.map(|cache| {
            let id = rec.open("cache.load", Some(root));
            let hit = cache.load(spec);
            rec.close(id);
            rec.spans[id].counters = vec![("cache.hits", u64::from(hit.is_some()))];
            hit
        });
        let (report, hit) = match loaded.flatten() {
            Some(report) => (report, true),
            None => {
                let report = execute_traced(registry, spec, &mut rec, root);
                if let Some(cache) = cache {
                    rec.time("cache.store", root, || cache.store(spec, &report));
                }
                (report, false)
            }
        };
        let hash = rec.time("harness.report", root, || line_hash(&report, case));
        rec.close(root);
        let instret = if hit { 0 } else { report.metrics.instructions };
        (case, hash, instret, rec.spans)
    };
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, submitted.len().max(1)) {
            scope.spawn(|| loop {
                let position = next.fetch_add(1, Ordering::Relaxed);
                if position >= submitted.len() {
                    break;
                }
                let finished = run_case(position);
                done.lock()
                    .expect("a traced worker panicked")
                    .push(finished);
            });
        }
    });
    let sweep_ns = base.elapsed().as_nanos() as u64;

    let mut traced = Traced {
        hashes: vec![0; submitted.len()],
        instret: 0,
        sweep_ns,
    };
    let mut spans = Vec::new();
    for (case, hash, instret, local) in done.into_inner().expect("a traced worker panicked") {
        traced.hashes[case] = hash;
        traced.instret += instret;
        let offset = spans.len();
        spans.extend(local.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
    write_spans(&spans, trace_path)?;
    Ok(traced)
}

fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let counters = span
            .counters
            .iter()
            .map(|&(name, value)| (name, Json::u64(value)))
            .collect();
        let line = Json::obj(vec![
            ("id", Json::u64(id as u64)),
            ("name", Json::str(span.name)),
            ("case", Json::u64(span.case as u64)),
            ("start_ns", Json::u64(span.start_ns)),
            ("end_ns", Json::u64(span.end_ns)),
            (
                "parent",
                Json::opt(span.parent.map(|p| Json::u64(p as u64))),
            ),
            ("counters", Json::obj(counters)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

fn known(names: &[&'static str], name: &str) -> Result<&'static str, String> {
    names
        .iter()
        .find(|&&n| n == name)
        .copied()
        .ok_or_else(|| format!("unknown name `{name}`"))
}

/// Reads a span file written by [`sweep`].
pub fn read_spans(path: &Path) -> Result<Vec<Span>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let parse = |line: &str| -> Result<Span, String> {
            let v = json::parse(line)?;
            if v.field("id")?.as_usize()? != spans.len() {
                return Err("span ids out of order".to_string());
            }
            let name = v.field("name")?.as_str()?;
            let mut counters = Vec::new();
            if let Json::Obj(fields) = v.field("counters")? {
                for (k, value) in fields {
                    counters.push((known(&COUNTERS, k)?, value.as_u64()?));
                }
            }
            Ok(Span {
                name: if name == CASE {
                    CASE
                } else {
                    known(&LAYERS, name)?
                },
                case: v.field("case")?.as_usize()?,
                start_ns: v.field("start_ns")?.as_u64()?,
                end_ns: v.field("end_ns")?.as_u64()?,
                parent: v.field("parent")?.as_opt(Json::as_usize)?,
                counters,
            })
        };
        spans.push(parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?);
    }
    Ok(spans)
}

/// Each span's self time: its duration minus the part of its interval its
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.end_ns.saturating_sub(span.start_ns) - covered
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced sweep over `jobs` threads that took
/// `sweep_ns`, as `(name, value, unit)`.
pub fn layer_metrics(
    spans: &[Span],
    jobs: usize,
    sweep_ns: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let self_ns = self_times(spans);
    let mut calls = [0u64; LAYERS.len()];
    let mut busy = [0u64; LAYERS.len()];
    let mut case_ns = 0u64;
    let mut count = [0u64; COUNTERS.len()];
    for (span, own) in spans.iter().zip(&self_ns) {
        if span.name == CASE {
            case_ns += span.end_ns.saturating_sub(span.start_ns);
        } else if let Some(l) = LAYERS.iter().position(|&n| n == span.name) {
            calls[l] += 1;
            busy[l] += own;
        }
        for &(name, value) in &span.counters {
            if let Some(c) = COUNTERS.iter().position(|&n| n == name) {
                count[c] += value;
            }
        }
    }
    let layer = |name: &str| {
        LAYERS
            .iter()
            .position(|&n| n == name)
            .expect("a layer name")
    };
    let per_call_us = |name: &str| {
        let l = layer(name);
        ratio(busy[l] as f64, calls[l] as f64) / 1e3
    };
    let share = |name: &str| ratio(busy[layer(name)] as f64, case_ns as f64);
    let n = |name: &str| {
        count[COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("a counter name")] as f64
    };
    let hit_ratio = |hits: &str, misses: &str| ratio(n(hits), n(hits) + n(misses));
    let miss_ratio = |hits: &str, misses: &str| ratio(n(misses), n(hits) + n(misses));
    vec![
        ("spec.lower_us", per_call_us("spec.lower"), "us"),
        ("kernel.boot_us", per_call_us("kernel.boot"), "us"),
        ("kernel.boot_share", share("kernel.boot"), "ratio"),
        ("kernel.spawn_us", per_call_us("kernel.spawn"), "us"),
        ("kernel.spawn_share", share("kernel.spawn"), "ratio"),
        ("kernel.run_us", per_call_us("kernel.run"), "us"),
        ("kernel.run_share", share("kernel.run"), "ratio"),
        (
            "kernel.run_ns_per_instr",
            ratio(busy[layer("kernel.run")] as f64, n("cpu.instret")),
            "ns",
        ),
        ("kernel.teardown_us", per_call_us("kernel.teardown"), "us"),
        ("kernel.teardown_share", share("kernel.teardown"), "ratio"),
        ("harness.report_us", per_call_us("harness.report"), "us"),
        (
            "harness.idle_share",
            1.0 - ratio(case_ns as f64, jobs as f64 * sweep_ns as f64),
            "ratio",
        ),
        ("cache.load_us", per_call_us("cache.load"), "us"),
        ("cache.store_us", per_call_us("cache.store"), "us"),
        (
            "cache.hit_ratio",
            ratio(n("cache.hits"), calls[layer("cache.load")] as f64),
            "ratio",
        ),
        (
            "cpu.tlb_hit_ratio",
            hit_ratio("cpu.tlb_hits", "cpu.tlb_misses"),
            "ratio",
        ),
        (
            "cpu.sb_hit_ratio",
            hit_ratio("cpu.sb_hits", "cpu.sb_misses"),
            "ratio",
        ),
        ("cpu.tmpl_compiles", n("cpu.tmpl_compiles"), "count"),
        ("cpu.tmpl_hits", n("cpu.tmpl_hits"), "count"),
        (
            "cpu.tmpl_hits_per_compile",
            ratio(n("cpu.tmpl_hits"), n("cpu.tmpl_compiles")),
            "ratio",
        ),
        ("cpu.instret", n("cpu.instret"), "count"),
        ("cpu.cycles", n("cpu.cycles"), "count"),
        (
            "mem.l1i_miss_ratio",
            miss_ratio("mem.l1i_hits", "mem.l1i_misses"),
            "ratio",
        ),
        (
            "mem.l1d_miss_ratio",
            miss_ratio("mem.l1d_hits", "mem.l1d_misses"),
            "ratio",
        ),
        (
            "mem.l2_miss_ratio",
            miss_ratio("mem.l2_hits", "mem.l2_misses"),
            "ratio",
        ),
        ("mem.stall_cycles", n("mem.stall_cycles"), "count"),
        ("kernel.syscalls", n("kernel.syscalls"), "count"),
        ("kernel.ctx_switches", n("kernel.ctx_switches"), "count"),
        ("kernel.blocks", n("kernel.blocks"), "count"),
        ("kernel.wakes", n("kernel.wakes"), "count"),
        ("kernel.traps", n("kernel.traps"), "count"),
        ("vm.faults", n("vm.faults"), "count"),
        ("vm.swap_ins", n("vm.swap_ins"), "count"),
        ("vm.swap_outs", n("vm.swap_outs"), "count"),
        ("vm.cow_copies", n("vm.cow_copies"), "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            case: 0,
            start_ns,
            end_ns,
            parent,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(CASE, 0, 100, None),
            span("kernel.boot", 10, 30, Some(0)),
            // Overlaps boot: 30..50 is new.
            span("kernel.spawn", 20, 50, Some(0)),
            // Runs past its parent's end: only 90..100 counts.
            span("kernel.run", 90, 120, Some(0)),
            // A grandchild is its own parent's business, not the root's.
            span("harness.report", 92, 95, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 27, 3]);
    }

    #[test]
    fn layer_metrics_come_from_self_times_and_counters() {
        let mut spans = vec![
            span(CASE, 0, 1000, None),
            span("kernel.boot", 0, 400, Some(0)),
            span("kernel.run", 400, 900, Some(0)),
            span(CASE, 0, 1000, None),
            span("kernel.boot", 0, 200, Some(3)),
        ];
        spans[2].counters = vec![
            ("cpu.instret", 50),
            ("cpu.tlb_hits", 3),
            ("cpu.tlb_misses", 1),
        ];
        let metrics = layer_metrics(&spans, 2, 1000);
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).expect(name).1;
        assert_eq!(get("kernel.boot_us"), 0.3);
        assert_eq!(get("kernel.boot_share"), 0.3);
        assert_eq!(get("kernel.run_share"), 0.25);
        assert_eq!(get("kernel.run_ns_per_instr"), 10.0);
        assert_eq!(get("cpu.tlb_hit_ratio"), 0.75);
        assert_eq!(get("harness.idle_share"), 0.0);
        assert_eq!(get("cache.hit_ratio"), 0.0);
    }

    /// The re-assembly writes the same report `execute_spec` does, wall time
    /// aside, host counters included: the corpus-cache traced sweep stores
    /// these reports as cache entries.
    #[test]
    fn traced_reports_equal_execute_spec_reports() {
        let registry = cheri_bench::registry();
        for w in crate::workloads::Workload::ALL {
            for spec in crate::workloads::smoke(w.specs(1)).iter().step_by(5) {
                let mut rec = Recorder {
                    base: Instant::now(),
                    case: 0,
                    spans: Vec::new(),
                };
                let root = rec.open(CASE, None);
                let mut traced = execute_traced(&registry, spec, &mut rec, root);
                let plain = cheriabi::harness::execute_spec(&registry, spec);
                traced.wall = plain.wall;
                assert_eq!(
                    traced.to_json().to_string(),
                    plain.to_json().to_string(),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn span_files_round_trip() {
        let mut spans = vec![span(CASE, 5, 50, None), span("cache.load", 6, 9, Some(0))];
        spans[1].counters = vec![("cache.hits", 1)];
        let path =
            std::env::temp_dir().join(format!("perf-ledger-spans-{}.jsonl", std::process::id()));
        write_spans(&spans, &path).expect("write");
        assert_eq!(read_spans(&path).expect("read"), spans);
        std::fs::remove_file(&path).ok();
    }
}
