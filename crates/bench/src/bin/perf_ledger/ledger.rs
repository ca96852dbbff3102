//! The parent: reference sweep, timed child sweeps, the traced sweep, and
//! the metrics computed from them.

use crate::child::{line_hash, FleetCounts, Mode, SweepReq, SweepResult};
use crate::probe::{self, Probe};
use crate::stats::{self, digest, median, percentile};
use crate::trace;
use crate::workloads::{cache_victims, Workload};
use cheri_bench::cli::json_escape;
use cheriabi::cache::{session_salt, ReportCache};
use cheriabi::harness::{CaseOutcome, Harness, OracleMode, RunSpec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(test)]
/// End-to-end metric names, in print order. Each is a median over the
/// timed sweeps (`case_*`: per spec index first, see [`case_metrics`]),
/// timings scaled to the reference host's speed (see [`crate::probe`]).
pub const END_TO_END: [&str; 7] = [
    "sweep_s",
    "guest_mips",
    "case_p50_ms",
    "case_p90_ms",
    "setup_s",
    "peak_rss_mb",
    "failed_ratio",
];

#[cfg(test)]
/// Per-layer metrics the parent adds to [`trace::layer_metrics`].
pub const PARENT_LAYERS: [&str; 10] = [
    "cache.entry_bytes",
    "fleet.dispatches",
    "fleet.units_inprocess",
    "fleet.recoveries",
    "fleet.straggler_duplicates",
    "fleet.straggler_discards",
    "fleet.overhead_ratio",
    "trace.overhead_ratio",
    "host.sweep_wall_s",
    "host.probe_ms",
];

/// End-to-end metrics in the result line of a `--trace 0` run: the ones
/// every workload measures as a non-zero number. The fleet has no per-case
/// wall, and `failed_ratio` is carried by `failed` and `attempted`.
const RESULT_END_TO_END: [&str; 4] = ["sweep_s", "guest_mips", "setup_s", "peak_rss_mb"];

/// Per-layer metrics left out of the result line of a `--trace 1` run:
/// times that read 0 on every workload but one.
const RESULT_LAYERS_OMIT: [&str; 2] = ["cache.load_us", "cache.store_us"];

/// Timed sweeps per workload, at least (1 for `--smoke` and `--self-test`).
const MIN_SWEEPS: usize = 10;
/// Timed sweeps per workload, at most.
const MAX_SWEEPS: usize = 1000;
/// In-process sweeps of the fleet's list, the base of `fleet.overhead_ratio`.
const FLEET_BASE_SWEEPS: usize = 5;

/// What a run measures.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workloads, in run order.
    pub workloads: Vec<Workload>,
    /// Benchmark seed.
    pub seed: u64,
    /// Harness threads and fleet workers.
    pub jobs: usize,
    /// Seconds of timed sweeps per workload (after at least
    /// [`MIN_SWEEPS`]).
    pub secs: f64,
    /// `Some(false)`: end-to-end only; `Some(true)`: also the traced sweep,
    /// with the per-layer metrics in the result line; `None`: both, and
    /// both in the result line.
    pub trace: Option<bool>,
    /// ≤16 specs per workload, one sweep.
    pub smoke: bool,
    /// The `--self-test` mutant: every child sweep weakens template
    /// register flushes, so the output checks must fail.
    pub weaken_flush: bool,
    /// Output directory.
    pub out: PathBuf,
}

/// How the parent runs a child sweep.
pub enum Launcher {
    /// A fresh process of this executable, `--child ...`.
    Process(PathBuf),
    /// [`crate::child::run`] on this thread, through the same JSON line
    /// (for unit tests, where the executable is the test harness).
    #[cfg(test)]
    InProcess,
}

/// One timed child sweep, with the host-speed probe timed on either side.
struct Sample {
    r: SweepResult,
    /// Geometric mean of the probe right before and right after the sweep:
    /// the host's speed across the sweep, not just at its start.
    probe_ns: f64,
}

impl Sample {
    fn new(r: SweepResult, before_ns: u64, after_ns: u64) -> Sample {
        Sample {
            r,
            probe_ns: (before_ns.max(1) as f64 * after_ns.max(1) as f64).sqrt(),
        }
    }

    /// `ns` of this sweep at the reference host's speed.
    fn scaled(&self, ns: u64) -> f64 {
        ns as f64 * probe::REFERENCE_NS / self.probe_ns
    }
}

impl Launcher {
    fn sweep(&self, req: &SweepReq) -> Result<SweepResult, String> {
        let line = match self {
            Launcher::Process(exe) => {
                let out = Command::new(exe)
                    .arg("--child")
                    .args(req.to_args())
                    .stdin(Stdio::null())
                    .output()
                    .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
                if !out.status.success() {
                    return Err(format!(
                        "{} sweep exited with {}: {}",
                        req.workload.name(),
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    ));
                }
                String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string()
            }
            #[cfg(test)]
            Launcher::InProcess => crate::child::run(req, Instant::now())?
                .to_json()
                .to_string(),
        };
        SweepResult::from_json(&cheriabi::json::parse(&line)?)
    }
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// Value, or `None` where the workload cannot measure it.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Sample counts, printed after the unit.
    pub note: String,
}

fn metric(name: &str, value: Option<f64>, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value: value.filter(|v| v.is_finite()),
        unit,
        note,
    }
}

/// Everything measured on one workload.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// The workload.
    pub workload: Workload,
    /// Specs per sweep.
    pub specs: usize,
    /// Timed sweeps.
    pub sweeps: usize,
    /// Digest of the reference sweep.
    pub digest: u64,
    /// Whether the digest matched the pinned one (`None`: not checked).
    pub pinned: Option<bool>,
    /// Cases run across all child sweeps.
    pub attempted: u64,
    /// Cases that failed (see [`Checker::check`]).
    pub failed: u64,
    /// Why sweeps or checks failed.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty without the traced sweep).
    pub per_layer: Vec<Metric>,
}

impl WorkloadReport {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.pinned != Some(false)
    }
}

/// The reference: one untimed in-process sweep under the replay oracle,
/// which runs every case on the fast machine and again on the reference
/// interpreter and turns any difference into a `Divergence`.
struct Checker {
    hashes: Vec<u64>,
    bad: Vec<bool>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checker {
    /// Counts `result`'s cases as attempted, and as failed where the line
    /// differs from the reference or the reference outcome is Panicked,
    /// DeadlineExceeded or Divergence. A fleet sweep that ran any unit
    /// in-process measured a different program: all its cases fail.
    fn check(&mut self, what: &str, result: Result<SweepResult, String>) -> Option<SweepResult> {
        let n = self.hashes.len() as u64;
        self.attempted += n;
        let r = match result {
            Ok(r) if r.hashes.len() == self.hashes.len() => r,
            Ok(r) => {
                self.failed += n;
                self.errors
                    .push(format!("{what}: {} lines for {n} specs", r.hashes.len()));
                return None;
            }
            Err(e) => {
                self.failed += n;
                self.errors.push(format!("{what}: {e}"));
                return None;
            }
        };
        if let Some(f) = r.fleet.filter(|f| f.units_inprocess > 0) {
            self.failed += n;
            self.errors.push(format!(
                "{what}: {} fleet units ran in-process (no sibling run_specs worker?)",
                f.units_inprocess
            ));
            return Some(r);
        }
        let failed = (0..self.hashes.len())
            .filter(|&i| self.bad[i] || r.hashes[i] != self.hashes[i])
            .count() as u64;
        if failed > 0 {
            self.failed += failed;
            self.errors
                .push(format!("{what}: {failed} cases differ from the reference"));
        }
        Some(r)
    }
}

fn reference(specs: &[RunSpec], jobs: usize) -> (Checker, Vec<cheriabi::harness::CaseReport>) {
    let replay: Vec<RunSpec> = specs
        .iter()
        .map(|s| s.clone().with_oracle(OracleMode::Replay))
        .collect();
    let reports = Harness::new(jobs).run(&cheri_bench::registry(), &replay);
    let checker = Checker {
        hashes: reports
            .iter()
            .enumerate()
            .map(|(i, r)| line_hash(r, i))
            .collect(),
        bad: reports
            .iter()
            .map(|r| {
                matches!(
                    r.outcome,
                    CaseOutcome::Panicked(_)
                        | CaseOutcome::DeadlineExceeded
                        | CaseOutcome::Divergence(_)
                )
            })
            .collect(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    (checker, reports)
}

/// The report cache the corpus-cache workload sweeps through.
struct WarmCache {
    cache: ReportCache,
    specs: Vec<RunSpec>,
    seed: u64,
}

impl WarmCache {
    /// Empties `dir` and fills it with the reference reports.
    fn fill(
        dir: &Path,
        specs: &[RunSpec],
        reports: &[cheriabi::harness::CaseReport],
        seed: u64,
    ) -> Result<WarmCache, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cache = ReportCache::new(dir, session_salt())
            .map_err(|e| format!("creating {}: {e}", dir.display()))?;
        for (spec, report) in specs.iter().zip(reports) {
            cache.store(spec, report);
        }
        Ok(WarmCache {
            cache,
            specs: specs.to_vec(),
            seed,
        })
    }

    /// Deletes the entries of a seeded twentieth of the specs before sweep
    /// `sweep`, so the sweep is ~95 % loads and ~5 % execute + store.
    ///
    /// Then flushes the file systems (`sync`), so that the previous sweep's
    /// stores are on disk before the next sweep is timed, as they would be
    /// before a user's rerun. Back to back, cache-file creates, renames and
    /// unlinks made `ReportCache::store` 2–3× slower over a few runs
    /// without it.
    fn evict(&self, sweep: usize) {
        for i in cache_victims(self.specs.len(), self.seed, sweep) {
            let key = self.cache.key(&self.specs[i]);
            let _ = std::fs::remove_file(self.cache.dir().join(format!("{key:016x}.json")));
        }
        let _ = Command::new("sync").status();
    }

    /// Mean size of an entry file, in bytes.
    fn entry_bytes(&self) -> f64 {
        let sizes: Vec<u64> = std::fs::read_dir(self.cache.dir())
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| e.metadata().ok().map(|m| m.len()))
            .collect();
        sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64
    }
}

/// `case_p50_ms`, `case_p90_ms`, and the highest reportable percentile
/// above p90 if there is one: each spec index's median wall across sweeps
/// first (which removes host preemption), then the percentile
/// across indices. Cache hits replay a stored wall and are left out; fleet
/// sweeps carry no wall at all, so their case metrics are `None`.
fn case_metrics(timed: &[Sample]) -> Vec<Metric> {
    let n = timed.first().map_or(0, |s| s.r.walls_ns.len());
    let mut per_case: Vec<f64> = (0..n)
        .filter_map(|i| {
            let walls: Vec<f64> = timed
                .iter()
                .filter_map(|s| s.r.walls_ns[i].map(|ns| s.scaled(ns) / 1e6))
                .collect();
            median(&walls)
        })
        .collect();
    per_case.sort_by(f64::total_cmp);
    let note = format!("cases={} sweeps={}", per_case.len(), timed.len());
    let at = |p: u64| {
        (!per_case.is_empty() && (p == 500 || stats::reportable(per_case.len(), p)))
            .then(|| percentile(&per_case, p))
    };
    let mut out = vec![
        metric("case_p50_ms", at(500), "ms", note.clone()),
        metric("case_p90_ms", at(900), "ms", note.clone()),
    ];
    if let Some(p) = stats::highest_reportable(per_case.len()).filter(|&p| p > 900) {
        out.push(metric(
            &format!("case_{}_ms", stats::label(p)),
            at(p),
            "ms",
            note,
        ));
    }
    out
}

/// Median over `samples` of `f`.
fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Option<f64> {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Runs one workload: reference, timed sweeps, and (unless `--trace 0`)
/// the traced sweep.
pub fn run_workload(opts: &Opts, launcher: &Launcher, workload: Workload) -> WorkloadReport {
    let req = |mode| SweepReq {
        mode,
        workload,
        seed: opts.seed,
        jobs: opts.jobs,
        smoke: opts.smoke,
        weaken_flush: opts.weaken_flush,
        out: opts.out.clone(),
    };
    let specs = SweepReq {
        weaken_flush: false,
        ..req(Mode::Session)
    }
    .specs();
    let n = specs.len();
    let (mut checker, reports) = reference(&specs, opts.jobs);
    let digest = digest(&checker.hashes);
    let pinned = (opts.seed == 1 && !opts.smoke).then(|| digest == workload.pinned_digest());
    let warm = match workload {
        Workload::CorpusCache => {
            match WarmCache::fill(&opts.out.join("cache"), &specs, &reports, opts.seed) {
                Ok(warm) => Some(warm),
                Err(e) => {
                    checker.errors.push(e);
                    None
                }
            }
        }
        _ => None,
    };
    drop(reports);

    let timed_mode = match workload {
        Workload::CorpusFleet => Mode::Fleet,
        _ => Mode::Session,
    };
    let min_sweeps = if opts.smoke || opts.weaken_flush {
        1
    } else {
        MIN_SWEEPS
    };
    let mut probe = Probe::new(opts.jobs);
    let mut timed = Vec::new();
    let started = Instant::now();
    while timed.len() < MAX_SWEEPS
        && (timed.len() < min_sweeps || started.elapsed().as_secs_f64() < opts.secs)
    {
        if let Some(warm) = &warm {
            warm.evict(timed.len());
        }
        let what = format!("timed sweep {}", timed.len());
        let before_ns = probe.time_ns();
        let result = launcher.sweep(&req(timed_mode));
        let after_ns = probe.time_ns();
        match checker.check(&what, result) {
            Some(r) => timed.push(Sample::new(r, before_ns, after_ns)),
            None => break,
        }
    }
    let sweeps = timed.len();
    let sweep_ns = median_of(&timed, |s| s.r.sweep_ns as f64);
    let note = format!("sweeps={sweeps}");
    let mut end_to_end = vec![
        metric(
            "sweep_s",
            median_of(&timed, |s| s.scaled(s.r.sweep_ns) / 1e9),
            "s",
            note.clone(),
        ),
        metric(
            "guest_mips",
            median_of(&timed, |s| {
                s.r.instret as f64 / s.scaled(s.r.sweep_ns.max(1)) * 1e3
            }),
            "MIPS",
            note.clone(),
        ),
    ];
    end_to_end.extend(case_metrics(&timed));
    end_to_end.push(metric(
        "setup_s",
        median_of(&timed, |s| s.scaled(s.r.setup_ns) / 1e9),
        "s",
        note.clone(),
    ));
    end_to_end.push(metric(
        "peak_rss_mb",
        median_of(&timed, |s| s.r.vmhwm_kb as f64 / 1024.0),
        "MB",
        note.clone(),
    ));

    let mut per_layer = Vec::new();
    if opts.trace != Some(false) {
        // The fleet's in-process base runs the same list at the same jobs.
        let base: Vec<f64> = match workload {
            Workload::CorpusFleet => (0..if opts.smoke { 1 } else { FLEET_BASE_SWEEPS })
                .map_while(|k| {
                    let what = format!("in-process sweep {k}");
                    checker.check(&what, launcher.sweep(&req(Mode::Session)))
                })
                .map(|r| r.sweep_ns as f64)
                .collect(),
            _ => Vec::new(),
        };
        // Overhead ratios compare unscaled medians of sweeps made moments
        // apart.
        let untraced_ns = if base.is_empty() {
            sweep_ns
        } else {
            median(&base)
        };
        // Entries as the timed sessions wrote them, before the traced sweep
        // stores its own.
        let entry_bytes = warm.as_ref().map_or(0.0, WarmCache::entry_bytes);
        if let Some(warm) = &warm {
            warm.evict(sweeps);
        }
        let traced = checker.check("traced sweep", launcher.sweep(&req(Mode::Traced)));
        let spans = traced
            .as_ref()
            .map(|_| trace::read_spans(&req(Mode::Traced).trace_path()));
        match (traced, spans) {
            (Some(t), Some(Ok(spans))) => {
                let note = "traced sweep, unscaled".to_string();
                for (name, value, unit) in trace::layer_metrics(&spans, opts.jobs, t.sweep_ns) {
                    per_layer.push(metric(name, Some(value), unit, note.clone()));
                }
                let fleet: Vec<FleetCounts> = timed.iter().filter_map(|s| s.r.fleet).collect();
                let mean = |f: fn(&FleetCounts) -> u64| {
                    fleet.iter().map(f).sum::<u64>() as f64 / fleet.len().max(1) as f64
                };
                let fleet_note = format!("mean per fleet sweep, sweeps={sweeps}");
                let fleet_metric =
                    |name, f| metric(name, Some(mean(f)), "count", fleet_note.clone());
                per_layer.extend([
                    metric(
                        "cache.entry_bytes",
                        Some(entry_bytes),
                        "bytes",
                        "mean entry after the timed sweeps".to_string(),
                    ),
                    fleet_metric("fleet.dispatches", |f| f.dispatches),
                    fleet_metric("fleet.units_inprocess", |f| f.units_inprocess),
                    fleet_metric("fleet.recoveries", |f| f.recoveries),
                    fleet_metric("fleet.straggler_duplicates", |f| f.straggler_duplicates),
                    fleet_metric("fleet.straggler_discards", |f| f.straggler_discards),
                    metric(
                        "fleet.overhead_ratio",
                        Some(match (base.is_empty(), sweep_ns, untraced_ns) {
                            (false, Some(fleet_ns), Some(base_ns)) => fleet_ns / base_ns,
                            _ => 0.0,
                        }),
                        "ratio",
                        format!("fleet sweeps={sweeps} in-process sweeps={}", base.len()),
                    ),
                    metric(
                        "trace.overhead_ratio",
                        untraced_ns.map(|u| t.sweep_ns as f64 / u),
                        "ratio",
                        "traced / untraced sweep".to_string(),
                    ),
                    metric(
                        "host.sweep_wall_s",
                        median_of(&timed, |s| s.r.sweep_ns as f64 / 1e9),
                        "s",
                        format!("unscaled, sweeps={sweeps}"),
                    ),
                    metric(
                        "host.probe_ms",
                        median_of(&timed, |s| s.probe_ns / 1e6),
                        "ms",
                        format!(
                            "reference {} ms, sweeps={sweeps}",
                            probe::REFERENCE_NS / 1e6
                        ),
                    ),
                ]);
            }
            (Some(_), Some(Err(e))) => checker.errors.push(format!("trace: {e}")),
            _ => {}
        }
    }

    end_to_end.push(metric(
        "failed_ratio",
        Some(checker.failed as f64 / checker.attempted.max(1) as f64),
        "ratio",
        format!("failed={} attempted={}", checker.failed, checker.attempted),
    ));
    if pinned == Some(false) {
        checker.errors.push(format!(
            "reference digest {digest:016x} differs from the pinned {:016x}",
            workload.pinned_digest()
        ));
    }
    WorkloadReport {
        workload,
        specs: n,
        sweeps,
        digest,
        pinned,
        attempted: checker.attempted,
        failed: checker.failed,
        errors: checker.errors,
        end_to_end,
        per_layer,
    }
}

fn number(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Runs every workload of `opts`, printing each metric as `workload metric
/// value unit` as it is measured, then `summary.json`, then the result
/// line. Returns whether every output check passed.
pub fn run(opts: &Opts, launcher: &Launcher, out: &mut dyn Write) -> std::io::Result<bool> {
    std::fs::create_dir_all(&opts.out)?;
    let mut reports = Vec::new();
    for &workload in &opts.workloads {
        let r = run_workload(opts, launcher, workload);
        writeln!(
            out,
            "# {}: {} specs, jobs {}, seed {}, {} timed sweeps, digest {:016x}{}",
            workload.name(),
            r.specs,
            opts.jobs,
            opts.seed,
            r.sweeps,
            r.digest,
            match r.pinned {
                Some(true) => " (pinned: ok)",
                Some(false) => " (pinned: MISMATCH)",
                None => "",
            }
        )?;
        for m in r.end_to_end.iter().chain(&r.per_layer) {
            writeln!(
                out,
                "{} {} {} {} {}",
                workload.name(),
                m.name,
                number(m.value),
                m.unit,
                m.note
            )?;
        }
        for e in &r.errors {
            writeln!(out, "# {}: FAILED: {e}", workload.name())?;
        }
        reports.push(r);
    }
    std::fs::write(opts.out.join("summary.json"), summary(opts, &reports))?;
    let correct = reports.iter().all(WorkloadReport::correct);
    writeln!(out, "{}", result_line(opts, &reports, correct))?;
    Ok(correct)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"note\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit,
                json_escape(&m.note)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// `summary.json`: every metric of every workload, with the run's settings.
fn summary(opts: &Opts, reports: &[WorkloadReport]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let errors: Vec<String> = r
                .errors
                .iter()
                .map(|e| format!("\"{}\"", json_escape(e)))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"specs\":{},\"jobs\":{},\"sweeps\":{},\"digest\":\"{:016x}\",\
                 \"pinned_digest_ok\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
                 \"errors\":[{}],\"end_to_end\":{},\"per_layer\":{}}}",
                r.workload.name(),
                r.specs,
                opts.jobs,
                r.sweeps,
                r.digest,
                r.pinned
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                r.correct(),
                r.attempted,
                r.failed,
                errors.join(","),
                metrics_json(&r.end_to_end),
                metrics_json(&r.per_layer),
            )
        })
        .collect();
    format!(
        "{{\"seed\":{},\"jobs\":{},\"secs\":{},\"smoke\":{},\"workloads\":[\n{}\n]}}\n",
        opts.seed,
        opts.jobs,
        opts.secs,
        opts.smoke,
        workloads.join(",\n")
    )
}

/// The last stdout line: `correct`, `attempted`, `failed`, and the metrics
/// the `--trace` setting selects. With several workloads, metric names are
/// prefixed `<workload>/`.
fn result_line(opts: &Opts, reports: &[WorkloadReport], correct: bool) -> String {
    let mut fields = Vec::new();
    for r in reports {
        let prefix = if reports.len() > 1 {
            format!("{}/", r.workload.name())
        } else {
            String::new()
        };
        let e2e = r
            .end_to_end
            .iter()
            .filter(|m| opts.trace != Some(true) && RESULT_END_TO_END.contains(&m.name.as_str()));
        let layers = r.per_layer.iter().filter(|m| {
            opts.trace != Some(false) && !RESULT_LAYERS_OMIT.contains(&m.name.as_str())
        });
        for m in e2e.chain(layers) {
            fields.push(format!(
                "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        fields.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_are_well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let layers = trace::layer_metrics(&[], 1, 1);
        let names = END_TO_END
            .iter()
            .copied()
            .chain(layers.iter().map(|m| m.0))
            .chain(PARENT_LAYERS)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .chain(["case_p99_ms", "case_p99.9_ms"]);
        for name in names {
            assert!(names_are_well_formed(name), "{name}");
        }
        assert!(!names_are_well_formed("case p90"));
    }

    /// A `--smoke` run of every workload prints every metric name, and the
    /// traced sweep's lines match the reference on every workload whose
    /// sweeps can run here (the fleet has no sibling worker next to a test
    /// binary, so it must report its in-process units as failures).
    #[test]
    fn smoke_run_prints_every_metric_name() {
        let out_dir =
            std::env::temp_dir().join(format!("perf-ledger-smoke-{}", std::process::id()));
        let opts = Opts {
            workloads: Workload::ALL.to_vec(),
            seed: 1,
            jobs: 2,
            secs: 0.0,
            trace: None,
            smoke: true,
            weaken_flush: false,
            out: out_dir.clone(),
        };
        let mut buf = Vec::new();
        let correct = run(&opts, &Launcher::InProcess, &mut buf).expect("writes");
        let text = String::from_utf8(buf).expect("utf-8");
        let layers = trace::layer_metrics(&[], 1, 1);
        for w in Workload::ALL {
            for name in END_TO_END
                .iter()
                .copied()
                .chain(layers.iter().map(|m| m.0))
                .chain(PARENT_LAYERS)
            {
                let prefix = format!("{} {name} ", w.name());
                assert!(
                    text.lines().any(|l| l.starts_with(&prefix)),
                    "missing `{prefix}`:\n{text}"
                );
            }
        }
        for w in [
            Workload::BodiagBoot,
            Workload::Fig4Interp,
            Workload::ServerSched,
            Workload::CorpusCache,
        ] {
            let failed = format!("{} failed_ratio 0 ", w.name());
            assert!(
                text.lines().any(|l| l.starts_with(&failed)),
                "{}:\n{text}",
                w.name()
            );
        }
        assert!(
            !correct,
            "the fleet cannot find its worker next to a test binary"
        );
        assert!(text
            .lines()
            .last()
            .expect("a result line")
            .starts_with("{\"correct\":false,"));
        assert!(out_dir.join("summary.json").is_file());
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
