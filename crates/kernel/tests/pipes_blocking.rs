//! Blocking-pipe semantics for the scenario plane: bounded buffers,
//! writer blocking and wake bookkeeping, deterministic wake ordering, and
//! EOF when the last writer exits (rather than explicitly closing).

use cheri_isa::codegen::{CodegenOpts, FnBuilder, Ptr, Val};
use cheri_isa::Width;
use cheri_kernel::{AbiMode, Errno, ExitStatus, Kernel, KernelConfig, RunOutcome, SpawnOpts, Sys};
use cheri_rtld::{Program, ProgramBuilder};

fn opts_for(abi: AbiMode) -> CodegenOpts {
    match abi {
        AbiMode::Mips64 => CodegenOpts::mips64(),
        AbiMode::CheriAbi => CodegenOpts::purecap(),
    }
}

fn program(abi: AbiMode, body: impl FnOnce(&mut FnBuilder<'_>)) -> Program {
    let mut pb = ProgramBuilder::new("pipes");
    let mut exe = pb.object("pipes");
    {
        let mut f = FnBuilder::begin(&mut exe, "main", opts_for(abi));
        body(&mut f);
    }
    exe.set_entry("main");
    pb.add(exe.finish());
    pb.finish()
}

/// Emits `pipe(&fds)` into the stack at offset 16; read fd in `Val(6)`,
/// write fd in `Val(7)`.
fn emit_pipe(f: &mut FnBuilder<'_>) {
    emit_pipe_at(f, 16, Val(6), Val(7));
}

/// A write larger than the pipe buffer takes what fits and reports the
/// short count (POSIX partial-write semantics, not a truncation error).
#[test]
fn full_pipe_takes_a_partial_write() {
    let config = KernelConfig {
        pipe_capacity: 6,
        ..KernelConfig::default()
    };
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let mut k = Kernel::new(config);
        let prog = program(abi, |f| {
            f.enter(96);
            emit_pipe(f);
            f.addr_of_stack(Ptr(1), 32, 8);
            f.li(Val(1), 0x1122_3344_5566_7788u64 as i64);
            f.store(Val(1), Ptr(1), 0, Width::D);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 8);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            f.ret_val_to(Val(3)); // 6: only the free space was taken
            f.set_arg_val(0, Val(3));
            f.syscall(Sys::Exit as i64);
        });
        let (status, _) = k.run_program(&prog, &SpawnOpts::new(abi)).expect("loads");
        assert_eq!(status, ExitStatus::Code(6), "{abi}");
    }
}

/// A writer facing a full buffer blocks (no spinning, no error) until a
/// reader drains space, and the kernel counts the block and the wake.
#[test]
fn writer_blocks_on_full_pipe_until_reader_drains() {
    let config = KernelConfig {
        pipe_capacity: 4,
        ..KernelConfig::default()
    };
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let mut k = Kernel::new(config);
        let prog = program(abi, |f| {
            f.enter(128);
            emit_pipe(f);
            f.syscall(Sys::Fork as i64);
            f.ret_val_to(Val(0));
            let parent = f.label();
            f.bnez(Val(0), parent);
            // Child: spin long enough for the parent to fill the pipe and
            // block, then drain 4 bytes to wake it.
            f.li(Val(1), 0);
            let spin = f.label();
            f.bind(spin);
            f.add_imm(Val(1), Val(1), 1);
            f.li(Val(2), 20_000);
            f.sub(Val(3), Val(1), Val(2));
            f.bnez(Val(3), spin);
            f.addr_of_stack(Ptr(1), 32, 8);
            f.set_arg_val(0, Val(6));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 4);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Read as i64);
            f.li(Val(0), 0);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
            // Parent: first write fills the buffer; the second has no
            // space and must block until the child reads.
            f.bind(parent);
            f.addr_of_stack(Ptr(1), 48, 8);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 4);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 4);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            f.ret_val_to(Val(3));
            f.set_arg_val(0, Val(3));
            f.syscall(Sys::Exit as i64);
        });
        let (status, _) = k.run_program(&prog, &SpawnOpts::new(abi)).expect("loads");
        assert_eq!(
            status,
            ExitStatus::Code(4),
            "{abi}: blocked write completes"
        );
        assert!(k.stats.blocks >= 1, "{abi}: the writer must have slept");
        assert!(k.stats.wakes >= 1, "{abi}: and been woken");
    }
}

/// Two readers blocked on the same pipe wake in pid order when data
/// arrives — the wake scan is sorted, not HashMap-ordered, so schedules
/// (and scenario latency stamps) are reproducible.
#[test]
fn blocked_readers_wake_in_pid_order() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let mut k = Kernel::new(KernelConfig::default());
        let prog = program(abi, |f| {
            f.enter(128);
            emit_pipe(f);
            // Fork two children; each blocks reading one byte and exits
            // with the byte it got.
            for _ in 0..2 {
                f.syscall(Sys::Fork as i64);
                f.ret_val_to(Val(0));
                let cont = f.label();
                f.bnez(Val(0), cont);
                f.addr_of_stack(Ptr(1), 32, 8);
                f.set_arg_val(0, Val(6));
                f.set_arg_ptr(1, Ptr(1));
                f.li(Val(2), 1);
                f.set_arg_val(2, Val(2));
                f.syscall(Sys::Read as i64);
                f.load(Val(3), Ptr(1), 0, Width::B, false);
                f.set_arg_val(0, Val(3));
                f.syscall(Sys::Exit as i64);
                f.bind(cont);
            }
            // Parent: spin until both children are asleep, then write two
            // bytes at once. The first-forked (lower-pid) child must wake
            // first and take byte 1; the second takes byte 2.
            f.li(Val(1), 0);
            let spin = f.label();
            f.bind(spin);
            f.add_imm(Val(1), Val(1), 1);
            f.li(Val(2), 20_000);
            f.sub(Val(3), Val(1), Val(2));
            f.bnez(Val(3), spin);
            f.addr_of_stack(Ptr(1), 48, 8);
            f.li(Val(2), 0x0201); // little-endian: byte 1 first, then 2
            f.store(Val(2), Ptr(1), 0, Width::H);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 2);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            // Reap in exit order: the first zombie must be the first
            // child with byte 1, the second the other with byte 2.
            f.li(Val(5), 0); // accumulated codes
            for _ in 0..2 {
                f.li(Val(1), 0);
                f.set_arg_val(0, Val(1));
                f.syscall(Sys::Waitpid as i64);
                f.ret_val_to(Val(2));
                f.shr_imm(Val(2), Val(2), 8); // exit code
                f.shl_imm(Val(5), Val(5), 4);
                f.add(Val(5), Val(5), Val(2));
            }
            f.set_arg_val(0, Val(5));
            f.syscall(Sys::Exit as i64);
        });
        let (status, _) = k.run_program(&prog, &SpawnOpts::new(abi)).expect("loads");
        assert_eq!(
            status,
            ExitStatus::Code(0x12),
            "{abi}: wake order is pid order"
        );
    }
}

/// When the last writing process *exits* (without closing), the reader
/// gets EOF: process teardown drops fds and the reader is woken.
#[test]
fn reader_gets_eof_when_writer_process_exits() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let mut k = Kernel::new(KernelConfig::default());
        let prog = program(abi, |f| {
            f.enter(128);
            emit_pipe(f);
            f.syscall(Sys::Fork as i64);
            f.ret_val_to(Val(0));
            let parent = f.label();
            f.bnez(Val(0), parent);
            // Child: write one byte and exit *without* closing anything.
            f.addr_of_stack(Ptr(1), 32, 8);
            f.li(Val(2), 0x5a);
            f.store(Val(2), Ptr(1), 0, Width::B);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 1);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            f.li(Val(0), 0);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
            // Parent: close its own write end, consume the byte, then
            // read again — once the child exits, writers hit zero and the
            // blocked read must resolve to EOF (0), not deadlock.
            f.bind(parent);
            f.set_arg_val(0, Val(7));
            f.syscall(Sys::Close as i64);
            f.addr_of_stack(Ptr(2), 48, 8);
            f.set_arg_val(0, Val(6));
            f.set_arg_ptr(1, Ptr(2));
            f.li(Val(1), 1);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Read as i64);
            f.set_arg_val(0, Val(6));
            f.set_arg_ptr(1, Ptr(2));
            f.li(Val(1), 1);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Read as i64);
            f.ret_val_to(Val(2)); // 0: EOF
            f.add_imm(Val(2), Val(2), 33);
            f.set_arg_val(0, Val(2));
            f.syscall(Sys::Exit as i64);
        });
        let (status, _) = k.run_program(&prog, &SpawnOpts::new(abi)).expect("loads");
        assert_eq!(status, ExitStatus::Code(33), "{abi}");
    }
}

/// Deadlocked pipe waits produce per-pid diagnostics naming each blocked
/// process and what it waits on.
#[test]
fn deadlock_diagnostics_name_the_blocked_pids() {
    let mut k = Kernel::new(KernelConfig::default());
    let prog = program(AbiMode::CheriAbi, |f| {
        f.enter(96);
        emit_pipe(f);
        // Read from a pipe nobody will ever write: guaranteed deadlock.
        f.addr_of_stack(Ptr(1), 32, 8);
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(1));
        f.li(Val(1), 1);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Read as i64);
        f.li(Val(0), 0);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Exit as i64);
    });
    let pid = k
        .spawn(&prog, &SpawnOpts::new(AbiMode::CheriAbi))
        .expect("loads");
    assert_eq!(k.run(10_000_000), RunOutcome::Deadlock);
    let diag = k.blocked_diagnostics();
    assert!(
        diag.contains(&format!("{pid}: pipe-read(")),
        "diagnostics name the blocked reader: {diag}"
    );
}

// ----------------------------------------------------------------------
// Wait channels: one test per notify point. Each runs with a short
// quantum so the spinning side really is preempted and the waiter really
// sleeps; a missing notify leaves the waiter asleep (deadlock), and in
// debug builds the scheduler's cross-check names it at once.
// ----------------------------------------------------------------------

/// A short quantum: spins of 20,000 iterations span dozens of slices.
fn sliced(pipe_capacity: usize) -> KernelConfig {
    KernelConfig {
        quantum: 1000,
        pipe_capacity,
        ..KernelConfig::default()
    }
}

/// Emits `pipe()` into the stack at `off`: read fd in `rd`, write fd in
/// `wr`.
fn emit_pipe_at(f: &mut FnBuilder<'_>, off: i64, rd: Val, wr: Val) {
    f.addr_of_stack(Ptr(0), off, 8);
    f.set_arg_ptr(0, Ptr(0));
    f.syscall(Sys::Pipe as i64);
    f.load(rd, Ptr(0), 0, Width::W, false);
    f.load(wr, Ptr(0), 4, Width::W, false);
}

/// Busy-loops `iters` times (clobbers `Val(1..=3)`).
fn emit_spin(f: &mut FnBuilder<'_>, iters: i64) {
    f.li(Val(1), 0);
    let spin = f.label();
    f.bind(spin);
    f.add_imm(Val(1), Val(1), 1);
    f.li(Val(2), iters);
    f.sub(Val(3), Val(1), Val(2));
    f.bnez(Val(3), spin);
}

/// `close(fd)`.
fn emit_close(f: &mut FnBuilder<'_>, fd: Val) {
    f.set_arg_val(0, fd);
    f.syscall(Sys::Close as i64);
}

/// `read`/`write` of `len` bytes at stack offset `off` on `fd`; the return
/// value lands in `ret` (clobbers `Val(2)`).
fn emit_io(f: &mut FnBuilder<'_>, sys: Sys, fd: Val, off: i64, len: i64, ret: Val) {
    f.addr_of_stack(Ptr(1), off, 8);
    f.set_arg_val(0, fd);
    f.set_arg_ptr(1, Ptr(1));
    f.li(Val(2), len);
    f.set_arg_val(2, Val(2));
    f.syscall(sys as i64);
    f.ret_val_to(ret);
}

/// `exit(v)`.
fn emit_exit(f: &mut FnBuilder<'_>, v: Val) {
    f.set_arg_val(0, v);
    f.syscall(Sys::Exit as i64);
}

/// `waitpid(pid)` with `pid` in `who` (0: any child); the encoded status
/// lands in `ret`.
fn emit_waitpid(f: &mut FnBuilder<'_>, who: Val, ret: Val) {
    f.set_arg_val(0, who);
    f.syscall(Sys::Waitpid as i64);
    f.ret_val_to(ret);
}

/// The low byte of a negated errno, as `exit` reports it through
/// `waitpid`'s `(code & 0xff) << 8` encoding.
fn errno_code(e: Errno) -> i64 {
    (e.as_ret() & 0xff) as i64
}

/// A writer W blocked on a full pipe, whose last reader R departs: by
/// `close` (`reader_closes`) or by exiting without closing. R is W's
/// sibling, not its parent, so only the pipe's own notify can wake W. In
/// the close case R then waits on a second pipe that only the woken W
/// writes, so a missed wake deadlocks. The main process exits with W's
/// exit code, the errno its retried write got.
fn writer_vs_departing_reader(abi: AbiMode, reader_closes: bool) -> (ExitStatus, RunOutcome) {
    let mut k = Kernel::new(sliced(4));
    let prog = program(abi, |f| {
        f.enter(160);
        emit_pipe_at(f, 16, Val(6), Val(7)); // A: W -> R, capacity 4
        emit_pipe_at(f, 24, Val(4), Val(5)); // B: W -> R, the release
        f.syscall(Sys::Fork as i64);
        f.ret_val_to(Val(0));
        let not_w = f.label();
        f.bnez(Val(0), not_w);
        // W: fill A, then block on the full buffer until R departs.
        emit_close(f, Val(6));
        emit_close(f, Val(4));
        emit_io(f, Sys::Write, Val(7), 32, 4, Val(3));
        emit_io(f, Sys::Write, Val(7), 32, 4, Val(3));
        emit_io(f, Sys::Write, Val(5), 32, 1, Val(0));
        emit_exit(f, Val(3));
        f.bind(not_w);
        f.syscall(Sys::Fork as i64);
        f.ret_val_to(Val(0));
        let parent = f.label();
        f.bnez(Val(0), parent);
        // R: let W fill A and sleep, then drop the last read end of A.
        emit_close(f, Val(7));
        emit_close(f, Val(5));
        emit_spin(f, 20_000);
        if reader_closes {
            emit_close(f, Val(6));
            emit_io(f, Sys::Read, Val(4), 40, 1, Val(0));
        }
        f.li(Val(0), 0);
        emit_exit(f, Val(0));
        // Main: hold no pipe end; reap both, exit with the codes or'ed.
        f.bind(parent);
        for fd in [Val(4), Val(5), Val(6), Val(7)] {
            emit_close(f, fd);
        }
        f.li(Val(0), 0);
        emit_waitpid(f, Val(0), Val(4));
        emit_waitpid(f, Val(0), Val(5));
        f.or(Val(4), Val(4), Val(5));
        f.shr_imm(Val(4), Val(4), 8);
        emit_exit(f, Val(4));
    });
    let pid = k.spawn(&prog, &SpawnOpts::new(abi)).expect("loads");
    let outcome = k.run(100_000_000);
    assert!(k.stats.blocks >= 2, "{abi}: W and the main process slept");
    (k.exit_status(pid).expect("main exited"), outcome)
}

/// A writer blocked on a full pipe is woken, and gets `EINVAL`, when the
/// last reader closes its end.
#[test]
fn blocked_writer_wakes_when_last_reader_closes() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, outcome) = writer_vs_departing_reader(abi, true);
        assert_eq!(outcome, RunOutcome::AllExited, "{abi}");
        assert_eq!(status, ExitStatus::Code(errno_code(Errno::EINVAL)), "{abi}");
    }
}

/// The same when the last reader exits without closing: teardown drops
/// its descriptors, and each drop notifies.
#[test]
fn blocked_writer_wakes_when_last_reader_exits() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, outcome) = writer_vs_departing_reader(abi, false);
        assert_eq!(outcome, RunOutcome::AllExited, "{abi}");
        assert_eq!(status, ExitStatus::Code(errno_code(Errno::EINVAL)), "{abi}");
    }
}

/// `waitpid(pid)` and `waitpid(0)` sleep until the child exits, the
/// second one while its child is the last one; afterwards `waitpid(0)`
/// has no child left and answers `ECHILD`.
#[test]
fn waitpid_is_woken_by_the_child_exit() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let mut k = Kernel::new(sliced(4096));
        let prog = program(abi, |f| {
            f.enter(96);
            for (code, by_pid) in [(7, true), (9, false)] {
                f.syscall(Sys::Fork as i64);
                f.ret_val_to(Val(0));
                let parent = f.label();
                f.bnez(Val(0), parent);
                emit_spin(f, 20_000);
                f.li(Val(0), code);
                emit_exit(f, Val(0));
                f.bind(parent);
                if !by_pid {
                    f.li(Val(0), 0);
                }
                emit_waitpid(f, Val(0), if by_pid { Val(4) } else { Val(5) });
            }
            f.li(Val(0), 0);
            emit_waitpid(f, Val(0), Val(6));
            // (7 << 4 | 9) + (ret + ECHILD): 0x79 when all three hold.
            f.shr_imm(Val(4), Val(4), 4);
            f.shr_imm(Val(5), Val(5), 8);
            f.add(Val(4), Val(4), Val(5));
            f.add_imm(Val(6), Val(6), Errno::ECHILD as i64);
            f.add(Val(4), Val(4), Val(6));
            emit_exit(f, Val(4));
        });
        let (status, _) = k.run_program(&prog, &SpawnOpts::new(abi)).expect("loads");
        assert_eq!(status, ExitStatus::Code(0x79), "{abi}");
        assert_eq!(k.stats.blocks, 2, "{abi}: both waits slept");
        assert_eq!(k.stats.wakes, 2, "{abi}");
    }
}

/// `waitpid` on a pid that is not a child answers `ECHILD` at once, even
/// while a real child is still running: no exit could ever satisfy it.
#[test]
fn waitpid_on_a_non_child_is_echild_not_a_deadlock() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let mut k = Kernel::new(sliced(4096));
        let prog = program(abi, |f| {
            f.enter(96);
            f.syscall(Sys::Fork as i64);
            f.ret_val_to(Val(0));
            let parent = f.label();
            f.bnez(Val(0), parent);
            emit_spin(f, 20_000);
            f.li(Val(0), 3);
            emit_exit(f, Val(0));
            f.bind(parent);
            f.mv(Val(7), Val(0));
            f.li(Val(0), 999);
            emit_waitpid(f, Val(0), Val(4));
            emit_waitpid(f, Val(7), Val(5));
            // (ret + ECHILD) * 16 + child code: 3 when both hold.
            f.add_imm(Val(4), Val(4), Errno::ECHILD as i64);
            f.shl_imm(Val(4), Val(4), 4);
            f.shr_imm(Val(5), Val(5), 8);
            f.add(Val(4), Val(4), Val(5));
            emit_exit(f, Val(4));
        });
        let pid = k.spawn(&prog, &SpawnOpts::new(abi)).expect("loads");
        assert_eq!(k.run(100_000_000), RunOutcome::AllExited, "{abi}");
        assert_eq!(k.exit_status(pid), Some(ExitStatus::Code(3)), "{abi}");
    }
}

/// A process asleep in `select` (`kevent` when `kevent`) on a pipe's read
/// end, woken by a write from its spinning child. Returns the main
/// process's exit status: `select`'s count plus twice the returned bit,
/// or `kevent`'s count.
fn poller_woken_by_write(abi: AbiMode, kevent: bool) -> (ExitStatus, Kernel) {
    let mut k = Kernel::new(sliced(4096));
    let prog = program(abi, |f| {
        f.enter(224);
        emit_pipe_at(f, 16, Val(6), Val(7));
        if kevent {
            f.addr_of_stack(Ptr(2), 24, 8);
            f.set_arg_val(0, Val(6));
            f.set_arg_ptr(1, Ptr(2));
            f.syscall(Sys::KeventRegister as i64);
        }
        f.syscall(Sys::Fork as i64);
        f.ret_val_to(Val(0));
        let parent = f.label();
        f.bnez(Val(0), parent);
        emit_spin(f, 20_000);
        emit_io(f, Sys::Write, Val(7), 32, 1, Val(0));
        f.li(Val(0), 0);
        emit_exit(f, Val(0));
        f.bind(parent);
        if kevent {
            f.addr_of_stack(Ptr(3), 64, 64);
            f.set_arg_ptr(0, Ptr(3));
            f.li(Val(1), 2);
            f.set_arg_val(1, Val(1));
            f.syscall(Sys::KeventWait as i64);
            f.ret_val_to(Val(4));
        } else {
            // select(64, {read fd}, NULL, NULL, NULL): no timeout, sleeps.
            f.li(Val(1), 1);
            f.shl(Val(1), Val(1), Val(6));
            f.addr_of_stack(Ptr(3), 48, 8);
            f.store(Val(1), Ptr(3), 0, Width::D);
            f.li(Val(0), 64);
            f.set_arg_val(0, Val(0));
            f.set_arg_ptr(1, Ptr(3));
            f.set_arg_null(2);
            f.set_arg_null(3);
            f.set_arg_null(4);
            f.syscall(Sys::Select as i64);
            f.ret_val_to(Val(4));
            f.load(Val(1), Ptr(3), 0, Width::D, false);
            f.shr(Val(1), Val(1), Val(6));
            f.add(Val(4), Val(4), Val(1));
            f.add(Val(4), Val(4), Val(1));
        }
        emit_exit(f, Val(4));
    });
    let (status, _) = k.run_program(&prog, &SpawnOpts::new(abi)).expect("loads");
    (status, k)
}

/// A `select` sleeper is woken by a pipe write.
#[test]
fn select_sleeper_is_woken_by_a_pipe_write() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, k) = poller_woken_by_write(abi, false);
        assert_eq!(
            status,
            ExitStatus::Code(3),
            "{abi}: one fd ready, its bit set"
        );
        assert_eq!((k.stats.blocks, k.stats.wakes), (1, 1), "{abi}");
    }
}

/// A `kevent` sleeper is woken by a pipe write.
#[test]
fn kevent_sleeper_is_woken_by_a_pipe_write() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, k) = poller_woken_by_write(abi, true);
        assert_eq!(status, ExitStatus::Code(1), "{abi}: one event");
        assert_eq!((k.stats.blocks, k.stats.wakes), (1, 1), "{abi}");
    }
}

/// A reader made runnable by `kill` while asleep runs its handler, blocks
/// again on the same pipe, and is then woken exactly once by the write:
/// its stale channel entry neither wakes it twice nor loses it.
#[test]
fn reader_killed_awake_reblocks_and_wakes_once() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let mut pb = ProgramBuilder::new("pipes");
        let mut exe = pb.object("pipes");
        FnBuilder::begin(&mut exe, "handler", opts_for(abi)).ret();
        {
            let mut f = FnBuilder::begin(&mut exe, "main", opts_for(abi));
            f.enter(128);
            f.li(Val(0), 10);
            f.set_arg_val(0, Val(0));
            f.load_global_ptr(Ptr(0), "handler");
            f.set_arg_ptr(1, Ptr(0));
            f.syscall(Sys::Sigaction as i64);
            emit_pipe_at(&mut f, 16, Val(6), Val(7));
            f.syscall(Sys::Fork as i64);
            f.ret_val_to(Val(0));
            let parent = f.label();
            f.bnez(Val(0), parent);
            // Child: one read; exit with the byte it got.
            emit_io(&mut f, Sys::Read, Val(6), 32, 1, Val(0));
            f.load(Val(0), Ptr(1), 0, Width::B, false);
            emit_exit(&mut f, Val(0));
            // Parent: signal the sleeping child, let it re-block, then
            // write the byte.
            f.bind(parent);
            f.mv(Val(5), Val(0));
            emit_spin(&mut f, 20_000);
            f.set_arg_val(0, Val(5));
            f.li(Val(1), 10);
            f.set_arg_val(1, Val(1));
            f.syscall(Sys::Kill as i64);
            emit_spin(&mut f, 20_000);
            f.li(Val(1), 0x44);
            f.addr_of_stack(Ptr(2), 48, 8);
            f.store(Val(1), Ptr(2), 0, Width::B);
            emit_io(&mut f, Sys::Write, Val(7), 48, 1, Val(0));
            emit_waitpid(&mut f, Val(5), Val(4));
            f.shr_imm(Val(4), Val(4), 8);
            emit_exit(&mut f, Val(4));
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        let prog = pb.finish();
        let mut k = Kernel::new(sliced(4096));
        let (status, _) = k.run_program(&prog, &SpawnOpts::new(abi)).expect("loads");
        assert_eq!(status, ExitStatus::Code(0x44), "{abi}");
        assert_eq!(k.stats.signals_delivered, 1, "{abi}");
        // The child slept twice (the kill ended the first sleep without a
        // wake) and woke once; the parent's waitpid slept and woke once.
        assert_eq!((k.stats.blocks, k.stats.wakes), (3, 2), "{abi}");
    }
}
