//! The harness binaries share one command line: `--help` lists the shared
//! flags and the binary's own, every usage error exits 2, and a spec list
//! is one spec object per line (a JSON array is rejected line by line).
//! `interp_throughput` and `prop_oracle` go through the same parser with
//! their own flags alone.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

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

#[test]
fn help_lists_the_shared_flags_and_the_binarys_own() {
    for (program, own) in [
        (env!("CARGO_BIN_EXE_run_specs"), &["--specs"][..]),
        (
            env!("CARGO_BIN_EXE_fault_campaign"),
            &["--seeds", "--out", "--weaken-tag-clear"][..],
        ),
        (
            env!("CARGO_BIN_EXE_table_attacks"),
            &["--weaken-quarantine"][..],
        ),
    ] {
        let out = run(program, &["--help"], "");
        assert_eq!(out.status.code(), Some(0), "{program}: {out:?}");
        let text = String::from_utf8(out.stdout).expect("utf8");
        for flag in ["--jobs", "--json", "--cache", "--shard", "--fleet"]
            .iter()
            .chain(own)
        {
            assert!(
                text.contains(flag),
                "{program} --help lacks {flag}:\n{text}"
            );
        }
        assert!(!text.contains("--weaken-sem"), "{program}:\n{text}");
    }
}

#[test]
fn binaries_without_shared_flags_help_with_their_own_alone() {
    for (program, own) in [
        (
            env!("CARGO_BIN_EXE_interp_throughput"),
            &["--trials", "--spin-iters", "--out", "--weaken-flush"][..],
        ),
        (
            env!("CARGO_BIN_EXE_prop_oracle"),
            &["--cases", "--seed", "--steps", "--weaken-sem", "--json"][..],
        ),
    ] {
        let out = run(program, &["--help"], "");
        assert_eq!(out.status.code(), Some(0), "{program}: {out:?}");
        let text = String::from_utf8(out.stdout).expect("utf8");
        for flag in own {
            assert!(
                text.contains(flag),
                "{program} --help lacks {flag}:\n{text}"
            );
        }
        for shared in ["--jobs", "--cache", "--shard", "--fleet"] {
            assert!(!text.contains(shared), "{program} --help:\n{text}");
        }
    }
}

#[test]
fn usage_and_input_errors_exit_2() {
    for (program, args) in [
        (env!("CARGO_BIN_EXE_table1"), &["--frobnicate"][..]),
        (env!("CARGO_BIN_EXE_table1"), &["--specs", "x"][..]),
        (env!("CARGO_BIN_EXE_table1"), &["--weaken-sem"][..]),
        (env!("CARGO_BIN_EXE_table1"), &["--weaken-flush"][..]),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--seeds", "0"][..]),
        (env!("CARGO_BIN_EXE_table_attacks"), &["--seeds", "3"][..]),
        (env!("CARGO_BIN_EXE_run_specs"), &["--jobs", "1"][..]),
        (
            env!("CARGO_BIN_EXE_run_specs"),
            &["--specs", "/nonexistent/specs.lines"][..],
        ),
        (
            env!("CARGO_BIN_EXE_interp_throughput"),
            &["--frobnicate"][..],
        ),
        (
            env!("CARGO_BIN_EXE_interp_throughput"),
            &["--trials", "0"][..],
        ),
        (
            env!("CARGO_BIN_EXE_interp_throughput"),
            &["--spin-iters"][..],
        ),
        (
            env!("CARGO_BIN_EXE_interp_throughput"),
            &["--jobs", "2"][..],
        ),
        (env!("CARGO_BIN_EXE_prop_oracle"), &["--frobnicate"][..]),
        (env!("CARGO_BIN_EXE_prop_oracle"), &["--cases", "many"][..]),
        (env!("CARGO_BIN_EXE_prop_oracle"), &["--steps", "0"][..]),
        (
            env!("CARGO_BIN_EXE_prop_oracle"),
            &["--json", "--cache"][..],
        ),
    ] {
        let out = run(program, args, "");
        assert_eq!(out.status.code(), Some(2), "{program} {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{program} {args:?}: {out:?}");
    }
}

#[test]
fn a_json_array_spec_list_is_rejected_line_by_line() {
    let dump = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--dump-specs")
        .output()
        .expect("table1 --dump-specs");
    assert!(dump.status.success(), "{dump:?}");
    let lines: Vec<&str> = std::str::from_utf8(&dump.stdout)
        .expect("utf8")
        .lines()
        .take(3)
        .collect();
    let array = format!("[{}]\n", lines.join(",\n"));
    let out = run(
        env!("CARGO_BIN_EXE_run_specs"),
        &["--specs", "-", "--jobs", "1", "--no-cache"],
        &array,
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        err.contains("specs_rejected=3 specs_accepted=0"),
        "every line of the array is counted:\n{err}"
    );
}
