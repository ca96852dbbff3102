//! The fleet worker protocol end to end: `run_specs` answering framed
//! units on a kept-open stdin, `run_specs --fleet N` printing the merged
//! lines, and the coordinator driving real `run_specs` workers through a
//! deadline that never fires and an interrupted, cache-resumed sweep.

use cheriabi::cache::ReportCache;
use cheriabi::fleet::{run_fleet, FleetOpts, WorkerCmd, UNIT_END};
use std::io::Write as _;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

const RUN_SPECS: &str = env!("CARGO_BIN_EXE_run_specs");
const PINNED_SPECS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scripts/golden/table1_pinned.specs"
);
const PINNED_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scripts/golden/table1_pinned.golden"
);
const WORKER_ARGS: [&str; 7] = [
    "--specs",
    "-",
    "--jobs",
    "1",
    "--no-cache",
    "--shard",
    "0/1",
];

fn pinned_specs() -> Vec<String> {
    std::fs::read_to_string(PINNED_SPECS)
        .expect("pinned spec list")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Runs `program args` with `input` on stdin. A program that exits
/// without reading (a usage error) may close the pipe mid-write, so a
/// failed write is left for the caller's checks on the output.
fn run(program: &str, args: &[&str], input: &str) -> Output {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let _ = child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes());
    child.wait_with_output().expect("wait")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout.clone()).expect("utf8")
}

fn lines(specs: &[String]) -> String {
    specs.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn each_frame_answers_like_a_session_over_that_unit_alone() {
    let specs = pinned_specs();
    let (first, second) = (&specs[..3], &specs[3..5]);
    let framed = format!("{}{UNIT_END}\n{}{UNIT_END}\n", lines(first), lines(second));
    let got = stdout(&run(RUN_SPECS, &WORKER_ARGS, &framed));
    let want = format!(
        "{}{UNIT_END}\n{}{UNIT_END}\n",
        stdout(&run(RUN_SPECS, &WORKER_ARGS, &lines(first))),
        stdout(&run(RUN_SPECS, &WORKER_ARGS, &lines(second))),
    );
    assert_eq!(got, want);
    assert!(got.starts_with("{\"case\":0,"), "{got}");
}

#[test]
fn unframed_stdin_answers_like_the_file() {
    let specs = &pinned_specs()[..4];
    let dir = std::env::temp_dir().join(format!("worker-protocol-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("specs.lines");
    std::fs::write(&file, lines(specs)).expect("write");
    let mut file_args = WORKER_ARGS;
    file_args[1] = file.to_str().expect("utf8 path");
    let want = stdout(&run(RUN_SPECS, &file_args, ""));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(want.lines().count(), 4);

    let unframed = format!("\n{}\n", lines(specs));
    assert_eq!(stdout(&run(RUN_SPECS, &WORKER_ARGS, &unframed)), want);
    // Specs after the last frame run as an unframed session.
    let trailing = format!("{}{UNIT_END}\n{}", lines(&specs[..1]), lines(&specs[1..]));
    let got = stdout(&run(RUN_SPECS, &WORKER_ARGS, &trailing));
    let (head, tail) = got.split_once(&format!("{UNIT_END}\n")).expect("frame");
    assert_eq!(head.lines().count(), 1);
    assert_eq!(tail.lines().count(), 3);
}

#[test]
fn a_torn_line_inside_a_frame_is_counted_and_the_frame_still_echoed() {
    let specs = pinned_specs();
    let framed = format!(
        "{}{{\"torn json\n{UNIT_END}\n{{all bad\n{UNIT_END}\n",
        lines(&specs[..2])
    );
    let out = run(RUN_SPECS, &WORKER_ARGS, &framed);
    let got = stdout(&out);
    let frames: Vec<&str> = got.split_terminator(&format!("{UNIT_END}\n")).collect();
    assert_eq!(frames.len(), 2, "{got}");
    assert_eq!(frames[0].lines().count(), 2, "the good specs ran");
    assert_eq!(frames[1], "", "an all-bad frame answers nothing");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("specs_rejected=1 specs_accepted=2"), "{err}");
    assert!(err.contains("specs_rejected=1 specs_accepted=0"), "{err}");
}

#[test]
fn run_specs_under_fleet_prints_the_pinned_golden() {
    let golden = std::fs::read_to_string(PINNED_GOLDEN).expect("pinned golden");
    for extra in [&[][..], &["--chaos", "7"][..]] {
        let mut args = vec!["--specs", PINNED_SPECS, "--fleet", "3"];
        args.extend_from_slice(extra);
        let out = run(RUN_SPECS, &args, "");
        assert_eq!(stdout(&out), golden, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(" inprocess=0 "), "{err}");
    }
}

/// The pinned list parsed for the library coordinator, with the lines a
/// single-process `run_specs --shard 0/1` prints for it.
fn pinned_list_and_lines() -> (Vec<cheriabi::harness::RunSpec>, Vec<String>) {
    let specs = pinned_specs();
    let list = cheri_bench::cli::parse_specs(&lines(&specs), "pinned").expect("pinned specs");
    let want = stdout(&run(RUN_SPECS, &WORKER_ARGS, &lines(&specs)));
    (list.specs, want.lines().map(str::to_string).collect())
}

#[test]
fn the_largest_deadline_never_fires() {
    let (specs, want) = pinned_list_and_lines();
    let opts = FleetOpts {
        workers: 2,
        unit_size: 3,
        unit_deadline: Duration::from_secs(u64::MAX),
        worker: Some(WorkerCmd::run_specs(RUN_SPECS)),
        ..FleetOpts::default()
    };
    let out = run_fleet(&cheri_bench::registry(), &specs, &opts);
    assert_eq!(out.lines, want);
    assert_eq!(out.stats.units_inprocess, 0, "{:?}", out.stats);
    assert_eq!(out.stats.hangs, 0, "{:?}", out.stats);
}

#[test]
fn an_interrupted_sweep_resumes_from_the_cache_redoing_zero_units() {
    let (specs, want) = pinned_list_and_lines();
    let dir = std::env::temp_dir().join(format!("worker-protocol-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ReportCache::new(&dir, cheriabi::cache::session_salt()).expect("cache");
    let registry = cheri_bench::registry();
    let opts = FleetOpts {
        workers: 1,
        unit_size: 2,
        stop_after: Some(3),
        worker: Some(WorkerCmd::run_specs(RUN_SPECS)),
        cache: Some(&cache),
        ..FleetOpts::default()
    };
    let first = run_fleet(&registry, &specs, &opts);
    assert!(first.interrupted);
    assert_eq!(first.stats.units_completed, 3, "{:?}", first.stats);
    let resumed = run_fleet(
        &registry,
        &specs,
        &FleetOpts {
            workers: 3,
            stop_after: None,
            ..opts
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.lines, want);
    assert_eq!(
        resumed.stats.units_cached, first.stats.units_completed,
        "every completed unit is served from the cache; zero are redone"
    );
    assert_eq!(resumed.stats.units_inprocess, 0, "{:?}", resumed.stats);
}
