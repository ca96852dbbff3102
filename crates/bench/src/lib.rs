//! # cheri-bench — the evaluation harness (paper §5)
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — test-suite results under both ABIs |
//! | `table2` | Table 2 — taxonomy of CheriABI source changes |
//! | `table3` | Table 3 — BOdiagsuite detection counts |
//! | `fig4` | Figure 4 — benchmark overheads (instructions, cycles, L2 misses) |
//! | `syscall_micro` | §5.2 — system-call timing deltas |
//! | `initdb_macro` | §5.2 — initdb macro-benchmark + CLC immediate ablation |
//! | `fig5` | Figure 5 — capability-size CDF from the tlsish trace |
//! | `cache_sweep` | §6 — L2-size sweep, with the D1 capability-format ablation |
//!
//! Shared measurement plumbing lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

use cheri_isa::codegen::{CodegenOpts, FnBuilder, Ptr, Val};
use cheri_kernel::{AbiMode, Sys};
use cheri_rtld::{Program, ProgramBuilder};
use cheriabi::guest::GuestOps;
use cheriabi::spec::{ProgramSpec, Registry};

/// This crate's entry in the program registry: lowers
/// [`ProgramSpec::Micro`] (the §5.2 syscall micro-benchmarks, by kind).
///
/// # Panics
///
/// Panics when the spec names a kind [`micro_benchmarks`] does not define
/// — inside a harness worker this is confined to the case's report.
#[must_use]
pub fn lower(spec: &ProgramSpec, opts: CodegenOpts, _seed: u64) -> Option<Program> {
    let ProgramSpec::Micro { kind, iters } = spec else {
        return None;
    };
    let (_, build, _) = micro_benchmarks()
        .into_iter()
        .find(|(name, _, _)| name == kind)
        .unwrap_or_else(|| panic!("no syscall micro-benchmark named `{kind}`"));
    Some(build(opts, *iters))
}

/// The full program registry: every guest program any table or figure
/// binary names — corpus suites and minidb (`cheri-corpus`), BOdiagsuite
/// cases (`bodiagsuite`), Figure 4/5 workloads (`cheri-workloads`) and the
/// syscall micros (this crate).
#[must_use]
pub fn registry() -> Registry {
    Registry::builtin()
        .with(cheri_corpus::suite::lower)
        .with(bodiagsuite::lower)
        .with(cheri_workloads::lower)
        .with(lower)
}

/// The four §5.2 configurations.
#[must_use]
pub fn configurations() -> Vec<(&'static str, CodegenOpts, AbiMode, bool)> {
    vec![
        ("mips64", CodegenOpts::mips64(), AbiMode::Mips64, false),
        ("cheriabi", CodegenOpts::purecap(), AbiMode::CheriAbi, false),
        (
            "cheriabi-smallclc",
            CodegenOpts::purecap_small_clc(),
            AbiMode::CheriAbi,
            false,
        ),
        (
            "mips64-asan",
            CodegenOpts::mips64_asan(),
            AbiMode::Mips64,
            true,
        ),
    ]
}

/// Median of a sorted-or-not sample.
#[must_use]
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Interquartile range of a sample (sorts in place).
#[must_use]
pub fn iqr(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let q = |p: f64| -> f64 {
        let idx = p * (xs.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        xs[lo] + (xs[hi] - xs[lo]) * (idx - lo as f64)
    };
    q(0.75) - q(0.25)
}

// ---------------------------------------------------------------------
// Syscall micro-benchmark guest programs (§5.2)
// ---------------------------------------------------------------------

fn micro_program(name: &str, opts: CodegenOpts, body: impl FnOnce(&mut FnBuilder<'_>)) -> Program {
    let mut pb = ProgramBuilder::new(name);
    let mut exe = pb.object(name);
    {
        let mut f = FnBuilder::begin(&mut exe, "main", opts);
        body(&mut f);
    }
    exe.set_entry("main");
    pb.add(exe.finish());
    pb.finish()
}

/// `getpid` in a tight loop (the null-syscall baseline).
#[must_use]
pub fn micro_getpid(opts: CodegenOpts, iters: i64) -> Program {
    micro_program("micro-getpid", opts, move |f| {
        f.li(Val(0), 0);
        let top = f.label();
        let done = f.label();
        f.bind(top);
        f.li(Val(1), iters);
        f.sub(Val(1), Val(0), Val(1));
        f.beqz(Val(1), done);
        f.syscall(Sys::Getpid as i64);
        f.add_imm(Val(0), Val(0), 1);
        f.jmp(top);
        f.bind(done);
        f.sys_exit_imm(0);
    })
}

/// `write`+`read` of 64 bytes over a pipe per iteration.
#[must_use]
pub fn micro_pipe_rw(opts: CodegenOpts, iters: i64) -> Program {
    micro_program("micro-pipe", opts, move |f| {
        f.enter(224);
        f.addr_of_stack(Ptr(0), 16, 8);
        f.set_arg_ptr(0, Ptr(0));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(0), 0, cheri_isa::Width::W, false);
        f.load(Val(5), Ptr(0), 4, cheri_isa::Width::W, false);
        f.addr_of_stack(Ptr(1), 32, 64);
        f.addr_of_stack(Ptr(2), 104, 64);
        f.li(Val(0), 0);
        let top = f.label();
        let done = f.label();
        f.bind(top);
        f.li(Val(1), iters);
        f.sub(Val(1), Val(0), Val(1));
        f.beqz(Val(1), done);
        f.set_arg_val(0, Val(5));
        f.set_arg_ptr(1, Ptr(1));
        f.li(Val(2), 64);
        f.set_arg_val(2, Val(2));
        f.syscall(Sys::Write as i64);
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(2));
        f.li(Val(2), 64);
        f.set_arg_val(2, Val(2));
        f.syscall(Sys::Read as i64);
        f.add_imm(Val(0), Val(0), 1);
        f.jmp(top);
        f.bind(done);
        f.sys_exit_imm(0);
    })
}

/// `select` with all four pointer arguments populated (the paper's
/// "capabilities from four pointer arguments" case).
#[must_use]
pub fn micro_select(opts: CodegenOpts, iters: i64) -> Program {
    micro_program("micro-select", opts, move |f| {
        f.enter(224);
        // ready pipe
        f.addr_of_stack(Ptr(0), 16, 8);
        f.set_arg_ptr(0, Ptr(0));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(0), 0, cheri_isa::Width::W, false);
        f.load(Val(5), Ptr(0), 4, cheri_isa::Width::W, false);
        f.addr_of_stack(Ptr(1), 32, 8);
        f.li(Val(0), 1);
        f.store(Val(0), Ptr(1), 0, cheri_isa::Width::B);
        f.set_arg_val(0, Val(5));
        f.set_arg_ptr(1, Ptr(1));
        f.li(Val(1), 1);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Write as i64);
        // fd sets + timeout
        f.addr_of_stack(Ptr(1), 48, 8); // readfds
        f.addr_of_stack(Ptr(2), 64, 8); // writefds
        f.addr_of_stack(Ptr(3), 80, 8); // exceptfds
        f.addr_of_stack(Ptr(4), 96, 8); // timeout (0 = poll)
        f.li(Val(0), 0);
        let top = f.label();
        let done = f.label();
        f.bind(top);
        f.li(Val(1), iters);
        f.sub(Val(1), Val(0), Val(1));
        f.beqz(Val(1), done);
        // readfds = 1 << rfd; writefds = 1 << wfd; exceptfds = 0
        f.li(Val(1), 1);
        f.shl(Val(1), Val(1), Val(6));
        f.store(Val(1), Ptr(1), 0, cheri_isa::Width::D);
        f.li(Val(1), 1);
        f.shl(Val(1), Val(1), Val(5));
        f.store(Val(1), Ptr(2), 0, cheri_isa::Width::D);
        f.li(Val(1), 0);
        f.store(Val(1), Ptr(3), 0, cheri_isa::Width::D);
        f.store(Val(1), Ptr(4), 0, cheri_isa::Width::D);
        f.li(Val(1), 64);
        f.set_arg_val(0, Val(1));
        f.set_arg_ptr(1, Ptr(1));
        f.set_arg_ptr(2, Ptr(2));
        f.set_arg_ptr(3, Ptr(3));
        f.set_arg_ptr(4, Ptr(4));
        f.syscall(Sys::Select as i64);
        f.add_imm(Val(0), Val(0), 1);
        f.jmp(top);
        f.bind(done);
        f.sys_exit_imm(0);
    })
}

/// `fork` + child exit + `waitpid` per iteration.
#[must_use]
pub fn micro_fork(opts: CodegenOpts, iters: i64) -> Program {
    micro_program("micro-fork", opts, move |f| {
        f.li(Val(6), 0);
        let top = f.label();
        let done = f.label();
        f.bind(top);
        f.li(Val(1), iters);
        f.sub(Val(1), Val(6), Val(1));
        f.beqz(Val(1), done);
        f.syscall(Sys::Fork as i64);
        f.ret_val_to(Val(0));
        let parent = f.label();
        f.bnez(Val(0), parent);
        f.sys_exit_imm(0); // child
        f.bind(parent);
        f.li(Val(1), 0);
        f.set_arg_val(0, Val(1));
        f.syscall(Sys::Waitpid as i64);
        f.add_imm(Val(6), Val(6), 1);
        f.jmp(top);
        f.bind(done);
        f.sys_exit_imm(0);
    })
}

/// One syscall micro-benchmark: name, program builder, iteration count.
pub type MicroBench = (&'static str, fn(CodegenOpts, i64) -> Program, i64);

/// The syscall micro-benchmarks by name.
#[must_use]
pub fn micro_benchmarks() -> Vec<MicroBench> {
    vec![
        (
            "getpid",
            micro_getpid as fn(CodegenOpts, i64) -> Program,
            400,
        ),
        ("pipe_rw", micro_pipe_rw, 200),
        ("select", micro_select, 200),
        ("fork", micro_fork, 40),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_kernel::{ExitStatus, KernelConfig, SpawnOpts};
    use cheriabi::System;

    #[test]
    fn micro_benchmarks_run_on_both_abis() {
        for (name, build, _) in micro_benchmarks() {
            for (cname, opts, abi, asan) in configurations().into_iter().take(2) {
                let program = build(opts, 5);
                let mut spawn = SpawnOpts::new(abi);
                spawn.asan = asan;
                let (status, _console, m) = System::with_config(KernelConfig::default())
                    .measure(&program, &spawn)
                    .expect("program loads");
                assert_eq!(status, ExitStatus::Code(0), "{name}/{cname}");
                assert!(m.syscalls >= 5, "{name}/{cname}: {m:?}");
            }
        }
    }

    /// The combined registry lowers one program of every family a binary
    /// can name.
    #[test]
    fn registry_covers_every_program_family() {
        use bodiagsuite::{program_spec, CaseCfg};
        let r = registry();
        let corpus_case = cheri_corpus::families::freebsd_suite()[0].name.clone();
        let bodiag = program_spec(
            &CaseCfg {
                id: 0,
                region: bodiagsuite::Region::Heap,
                access: bodiagsuite::AccessDir::Write,
                idiom: bodiagsuite::Idiom::DirectOffset,
                len: 16,
            },
            bodiagsuite::Variant::Min,
        );
        for spec in [
            ProgramSpec::Exit { code: 3 },
            ProgramSpec::Corpus { case: corpus_case },
            bodiag,
            ProgramSpec::Workload {
                name: "auto-qsort".to_string(),
            },
            ProgramSpec::Tlsish { sessions: 2 },
            ProgramSpec::Initdb { records: 12 },
            ProgramSpec::InitdbDynamic { base_records: 12 },
            ProgramSpec::Micro {
                kind: "getpid".to_string(),
                iters: 3,
            },
        ] {
            let program = r.lower(&spec, CodegenOpts::mips64(), 7);
            assert!(
                !program.objects.is_empty(),
                "{spec:?} lowered to an empty program"
            );
        }
    }

    #[test]
    fn stats_helpers() {
        let mut xs = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut xs), 2.0);
        let mut ys = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&mut ys), 2.5);
        assert!(iqr(&mut ys) > 0.0);
    }
}
