//! Child mode: one sweep in a fresh process.
//!
//! The parent re-executes its own binary as `perf_ledger --child MODE ...`
//! for every sweep it times, so no warm state (allocator, page cache of the
//! process, lazily built tables, memos) carries from one sample to the
//! next. The child builds the workload's spec list from the seed, runs one
//! session, fleet or traced sweep, and prints one JSON line: its timings,
//! one hash per deterministic report line, and its own peak RSS.

use crate::trace;
use crate::workloads::{self, Workload};
use cheri_bench::cli;
use cheriabi::cache::{session_salt, ReportCache};
use cheriabi::fleet::{run_fleet, FleetOpts};
use cheriabi::harness::{CaseReport, Harness, RunSpec, SessionOpts};
use cheriabi::json::{self, Json};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the child runs its sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One `Harness::run_session` (through the report cache for
    /// corpus-cache).
    Session,
    /// One `fleet::run_fleet` over sibling `run_specs` workers.
    Fleet,
    /// The traced re-assembly of `execute_spec` ([`trace::sweep`]).
    Traced,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Session => "session",
            Mode::Fleet => "fleet",
            Mode::Traced => "traced",
        }
    }
}

/// What the parent asks one child for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepReq {
    /// Sweep kind.
    pub mode: Mode,
    /// Workload whose spec list to run.
    pub workload: Workload,
    /// Benchmark seed.
    pub seed: u64,
    /// Harness threads, or fleet workers.
    pub jobs: usize,
    /// Run the `--smoke` list instead of the full one.
    pub smoke: bool,
    /// Run every spec with `RunSpec::with_weaken_flush(true)` (the
    /// `--self-test` mutant).
    pub weaken_flush: bool,
    /// Output directory (cache, fleet checkpoints, trace files).
    pub out: PathBuf,
}

impl SweepReq {
    /// The child's command line, after `--child`.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            self.mode.name().to_string(),
            "--workload".to_string(),
            self.workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--jobs".to_string(),
            self.jobs.to_string(),
            "--out".to_string(),
            self.out.display().to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_string());
        }
        if self.weaken_flush {
            args.push("--weaken-flush".to_string());
        }
        args
    }

    /// Parses [`SweepReq::to_args`] output.
    pub fn parse(args: &[String]) -> Result<SweepReq, String> {
        let mode = match args.first().map(String::as_str) {
            Some("session") => Mode::Session,
            Some("fleet") => Mode::Fleet,
            Some("traced") => Mode::Traced,
            other => return Err(format!("--child: unknown mode {other:?}")),
        };
        let mut req = SweepReq {
            mode,
            workload: Workload::BodiagBoot,
            seed: 1,
            jobs: 1,
            smoke: false,
            weaken_flush: false,
            out: PathBuf::new(),
        };
        let mut iter = args[1..].iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    req.workload =
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
                }
                "--seed" => req.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--jobs" => req.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
                "--out" => req.out = PathBuf::from(value()?),
                "--smoke" => req.smoke = true,
                "--weaken-flush" => req.weaken_flush = true,
                other => return Err(format!("--child: unknown argument {other}")),
            }
        }
        Ok(req)
    }

    /// The spec list this sweep runs, in canonical order.
    pub fn specs(&self) -> Vec<RunSpec> {
        let mut specs = self.workload.specs(self.seed);
        if self.smoke {
            specs = workloads::smoke(specs);
        }
        if self.weaken_flush {
            specs = specs
                .into_iter()
                .map(|s| s.with_weaken_flush(true))
                .collect();
        }
        specs
    }

    /// Where a traced sweep writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.out
            .join(format!("trace-{}.jsonl", self.workload.name()))
    }
}

/// The fleet counters one sweep reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetCounts {
    /// Units the fleet ran on its own thread instead of a worker.
    pub units_inprocess: u64,
    /// Worker subprocesses spawned.
    pub dispatches: u64,
    /// Crashed, hung and poisoned worker attempts.
    pub recoveries: u64,
    /// Speculative duplicates of straggling units.
    pub straggler_duplicates: u64,
    /// Results discarded because another copy finished first.
    pub straggler_discards: u64,
}

/// What one child sweep reports. Integers only: the harness JSON has no
/// floats, and nanoseconds lose nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepResult {
    /// Child `main` to first dispatch.
    pub setup_ns: u64,
    /// First dispatch to last report.
    pub sweep_ns: u64,
    /// Guest instructions retired by this sweep (cache hits retire none).
    pub instret: u64,
    /// The child's `VmHWM`, in KiB.
    pub vmhwm_kb: u64,
    /// FNV-1a of each case's deterministic report line, by canonical index.
    pub hashes: Vec<u64>,
    /// Each executed case's wall time, by canonical index (`None` for
    /// cache hits, and for every case of a fleet or traced sweep).
    pub walls_ns: Vec<Option<u64>>,
    /// Fleet counters, for fleet sweeps.
    pub fleet: Option<FleetCounts>,
}

impl SweepResult {
    /// The child's stdout line.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("setup_ns", Json::u64(self.setup_ns)),
            ("sweep_ns", Json::u64(self.sweep_ns)),
            ("instret", Json::u64(self.instret)),
            ("vmhwm_kb", Json::u64(self.vmhwm_kb)),
            (
                "hashes",
                Json::Arr(self.hashes.iter().map(|&h| Json::u64(h)).collect()),
            ),
            (
                "walls_ns",
                Json::Arr(
                    self.walls_ns
                        .iter()
                        .map(|w| Json::opt(w.map(Json::u64)))
                        .collect(),
                ),
            ),
            (
                "fleet",
                Json::opt(self.fleet.map(|f| {
                    Json::obj(vec![
                        ("units_inprocess", Json::u64(f.units_inprocess)),
                        ("dispatches", Json::u64(f.dispatches)),
                        ("recoveries", Json::u64(f.recoveries)),
                        ("straggler_duplicates", Json::u64(f.straggler_duplicates)),
                        ("straggler_discards", Json::u64(f.straggler_discards)),
                    ])
                })),
            ),
        ])
    }

    /// Decodes [`SweepResult::to_json`].
    pub fn from_json(v: &Json) -> Result<SweepResult, String> {
        let list = |key: &str| match v.field(key)? {
            Json::Arr(items) => Ok(items.clone()),
            other => Err(format!("{key}: expected an array, got {other}")),
        };
        let fleet = match v.field("fleet")? {
            Json::Null => None,
            f => {
                let n = |key: &str| f.field(key).and_then(Json::as_u64);
                Some(FleetCounts {
                    units_inprocess: n("units_inprocess")?,
                    dispatches: n("dispatches")?,
                    recoveries: n("recoveries")?,
                    straggler_duplicates: n("straggler_duplicates")?,
                    straggler_discards: n("straggler_discards")?,
                })
            }
        };
        Ok(SweepResult {
            setup_ns: v.field("setup_ns")?.as_u64()?,
            sweep_ns: v.field("sweep_ns")?.as_u64()?,
            instret: v.field("instret")?.as_u64()?,
            vmhwm_kb: v.field("vmhwm_kb")?.as_u64()?,
            hashes: list("hashes")?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<_, _>>()?,
            walls_ns: list("walls_ns")?
                .iter()
                .map(|w| w.as_opt(Json::as_u64))
                .collect::<Result<_, _>>()?,
            fleet,
        })
    }
}

/// FNV-1a of `report`'s deterministic line under canonical index `index`.
pub fn line_hash(report: &CaseReport, index: usize) -> u64 {
    json::fnv1a(report.to_json_deterministic(index).to_string().as_bytes())
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// This process's peak resident set (`VmHWM`), in KiB; 0 where
/// `/proc/self/status` does not exist.
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Runs the sweep `req` asks for. `t0` is when the child's `main` began.
pub fn run(req: &SweepReq, t0: Instant) -> Result<SweepResult, String> {
    let registry = cheri_bench::registry();
    let specs = req.specs();
    let order = workloads::submission_order(specs.len(), req.seed);
    let submitted: Vec<RunSpec> = order.iter().map(|&i| specs[i].clone()).collect();
    let cache = match (req.workload, req.mode) {
        (Workload::CorpusCache, Mode::Session | Mode::Traced) => Some(
            ReportCache::new(req.out.join("cache"), session_salt())
                .map_err(|e| format!("opening the report cache: {e}"))?,
        ),
        _ => None,
    };
    let mut result = SweepResult {
        setup_ns: 0,
        sweep_ns: 0,
        instret: 0,
        vmhwm_kb: 0,
        hashes: vec![0; specs.len()],
        walls_ns: vec![None; specs.len()],
        fleet: None,
    };
    match req.mode {
        Mode::Session => {
            let slots = Mutex::new(vec![(0, None); specs.len()]);
            let instret = AtomicU64::new(0);
            let record = |position: usize, report: &CaseReport, cached: bool| {
                let case = order[position];
                let hash = line_hash(report, case);
                if !cached {
                    instret.fetch_add(report.metrics.instructions, Ordering::Relaxed);
                }
                slots.lock().expect("a harness worker panicked")[case] =
                    (hash, (!cached).then(|| nanos(report.wall)));
            };
            result.setup_ns = nanos(t0.elapsed());
            let start = Instant::now();
            // Bound, so the reports are dropped after the clock stops.
            let _session = Harness::new(req.jobs).run_session(
                &registry,
                &submitted,
                &SessionOpts {
                    cache: cache.as_ref(),
                    on_report: Some(&record),
                    ..SessionOpts::default()
                },
            );
            result.sweep_ns = nanos(start.elapsed());
            result.instret = instret.into_inner();
            let slots = slots.into_inner().expect("a harness worker panicked");
            (result.hashes, result.walls_ns) = slots.into_iter().unzip();
        }
        Mode::Fleet => {
            let checkpoints = req.out.join("fleet-ckpt");
            std::fs::create_dir_all(&checkpoints)
                .map_err(|e| format!("creating {}: {e}", checkpoints.display()))?;
            let opts = FleetOpts {
                workers: req.jobs,
                worker: cli::sibling_worker(),
                checkpoint_dir: Some(checkpoints),
                ..FleetOpts::default()
            };
            result.setup_ns = nanos(t0.elapsed());
            let start = Instant::now();
            let out = run_fleet(&registry, &submitted, &opts);
            for (position, line) in out.lines.iter().enumerate() {
                let case = order[position];
                // Workers number lines by submission position; renumber
                // them by canonical index, as the in-process path does.
                let prefix = format!("{{\"case\":{position},");
                result.hashes[case] = match line.strip_prefix(&prefix) {
                    Some(rest) => json::fnv1a(format!("{{\"case\":{case},{rest}").as_bytes()),
                    None => json::fnv1a(line.as_bytes()),
                };
            }
            result.sweep_ns = nanos(start.elapsed());
            for line in &out.lines {
                let doc = json::parse(line)?;
                result.instret += doc.field("metrics")?.field("instructions")?.as_u64()?;
            }
            let s = out.stats;
            result.fleet = Some(FleetCounts {
                units_inprocess: s.units_inprocess as u64,
                dispatches: s.dispatches,
                recoveries: s.crashes + s.hangs + s.poisoned,
                straggler_duplicates: s.straggler_duplicates,
                straggler_discards: s.straggler_discards,
            });
        }
        Mode::Traced => {
            result.setup_ns = nanos(t0.elapsed());
            let traced = trace::sweep(
                &registry,
                &submitted,
                &order,
                req.jobs,
                cache.as_ref(),
                &req.trace_path(),
            )
            .map_err(|e| format!("writing {}: {e}", req.trace_path().display()))?;
            result.sweep_ns = traced.sweep_ns;
            result.instret = traced.instret;
            result.hashes = traced.hashes;
        }
    }
    result.vmhwm_kb = vmhwm_kb();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_results_round_trip() {
        let req = SweepReq {
            mode: Mode::Traced,
            workload: Workload::CorpusCache,
            seed: 42,
            jobs: 3,
            smoke: true,
            weaken_flush: true,
            out: PathBuf::from("target/perf_ledger"),
        };
        assert_eq!(SweepReq::parse(&req.to_args()), Ok(req));
        assert!(SweepReq::parse(&["warp".to_string()]).is_err());

        let result = SweepResult {
            setup_ns: 1,
            sweep_ns: 2,
            instret: 3,
            vmhwm_kb: 4,
            hashes: vec![u64::MAX, 0],
            walls_ns: vec![Some(7), None],
            fleet: Some(FleetCounts {
                dispatches: 9,
                ..FleetCounts::default()
            }),
        };
        let text = result.to_json().to_string();
        assert_eq!(
            SweepResult::from_json(&json::parse(&text).expect("parses")),
            Ok(result)
        );
    }
}
