//! Second wave of kernel scenario tests: blocking semantics, fd lifecycle,
//! signal defaults, memfs, and error paths.

use cheri_isa::codegen::{CodegenOpts, FnBuilder, Ptr, Val};
use cheri_isa::Width;
use cheri_kernel::{
    AbiMode, Errno, ExitStatus, Kernel, KernelConfig, Pid, ProcState, RunOutcome, SpawnOpts, Sys,
};
use cheri_rtld::{Program, ProgramBuilder};

fn opts_for(abi: AbiMode) -> CodegenOpts {
    match abi {
        AbiMode::Mips64 => CodegenOpts::mips64(),
        AbiMode::CheriAbi => CodegenOpts::purecap(),
    }
}

fn program(abi: AbiMode, body: impl FnOnce(&mut FnBuilder<'_>)) -> Program {
    let mut pb = ProgramBuilder::new("s2");
    let mut exe = pb.object("s2");
    {
        let mut f = FnBuilder::begin(&mut exe, "main", opts_for(abi));
        body(&mut f);
    }
    exe.set_entry("main");
    pb.add(exe.finish());
    pb.finish()
}

fn run(abi: AbiMode, body: impl FnOnce(&mut FnBuilder<'_>)) -> (ExitStatus, String) {
    let mut k = Kernel::new(KernelConfig::default());
    k.run_program(&program(abi, body), &SpawnOpts::new(abi))
        .expect("loads")
}

/// A blocked pipe read is woken by the child's write (true blocking, not
/// polling: the parent blocks first, the scheduler runs the child).
#[test]
fn blocked_read_woken_by_child_write() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, _) = run(abi, |f| {
            f.enter(160);
            f.addr_of_stack(Ptr(0), 16, 8);
            f.set_arg_ptr(0, Ptr(0));
            f.syscall(Sys::Pipe as i64);
            f.load(Val(6), Ptr(0), 0, Width::W, false);
            f.load(Val(7), Ptr(0), 4, Width::W, false);
            f.syscall(Sys::Fork as i64);
            f.ret_val_to(Val(0));
            let parent = f.label();
            f.bnez(Val(0), parent);
            // child: spin a while, then write the byte that unblocks.
            f.li(Val(1), 0);
            let spin = f.label();
            f.bind(spin);
            f.add_imm(Val(1), Val(1), 1);
            f.li(Val(2), 20_000);
            f.sub(Val(3), Val(1), Val(2));
            f.bnez(Val(3), spin);
            f.addr_of_stack(Ptr(1), 32, 8);
            f.li(Val(2), 0x33);
            f.store(Val(2), Ptr(1), 0, Width::B);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 1);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            f.li(Val(0), 0);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
            // parent: read blocks until the child writes.
            f.bind(parent);
            f.addr_of_stack(Ptr(2), 48, 8);
            f.set_arg_val(0, Val(6));
            f.set_arg_ptr(1, Ptr(2));
            f.li(Val(1), 1);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Read as i64);
            f.load(Val(2), Ptr(2), 0, Width::B, false);
            f.set_arg_val(0, Val(2));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(status, ExitStatus::Code(0x33), "{abi}");
    }
}

/// Closing the write end gives the reader EOF (read returns 0).
#[test]
fn pipe_eof_after_writer_close() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.enter(96);
        f.addr_of_stack(Ptr(0), 16, 8);
        f.set_arg_ptr(0, Ptr(0));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(0), 0, Width::W, false);
        f.load(Val(7), Ptr(0), 4, Width::W, false);
        f.set_arg_val(0, Val(7));
        f.syscall(Sys::Close as i64);
        f.addr_of_stack(Ptr(1), 32, 8);
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(1));
        f.li(Val(1), 8);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Read as i64);
        f.ret_val_to(Val(2));
        f.add_imm(Val(2), Val(2), 77); // 0 + 77
        f.set_arg_val(0, Val(2));
        f.syscall(Sys::Exit as i64);
    });
    assert_eq!(status, ExitStatus::Code(77));
}

/// An unhandled signal terminates with the classic default action.
#[test]
fn unhandled_signal_kills() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.syscall(Sys::Getpid as i64);
        f.ret_val_to(Val(0));
        f.set_arg_val(0, Val(0));
        f.li(Val(1), 15); // SIGTERM-ish
        f.set_arg_val(1, Val(1));
        f.syscall(Sys::Kill as i64);
        // never reached: the signal is delivered at the next dispatch
        let spin = f.label();
        f.bind(spin);
        f.jmp(spin);
    });
    assert_eq!(status, ExitStatus::Signaled(15));
}

/// waitpid with no children: ECHILD; kill of a non-process: ESRCH.
#[test]
fn wait_and_kill_error_paths() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.li(Val(0), 0);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Waitpid as i64);
        f.ret_val_to(Val(1)); // -ECHILD = -10
        f.li(Val(0), 9999);
        f.set_arg_val(0, Val(0));
        f.li(Val(2), 9);
        f.set_arg_val(1, Val(2));
        f.syscall(Sys::Kill as i64);
        f.ret_val_to(Val(3)); // -ESRCH = -3
        f.mul_sum_exit(Val(1), Val(3));
    });
    assert_eq!(status, ExitStatus::Code(-10 * 100 + -3));
}

trait TestExt {
    fn mul_sum_exit(&mut self, a: Val, b: Val);
}

impl TestExt for FnBuilder<'_> {
    fn mul_sum_exit(&mut self, a: Val, b: Val) {
        self.li(Val(6), 100);
        self.mul(Val(6), Val(6), a);
        self.add(Val(6), Val(6), b);
        self.set_arg_val(0, Val(6));
        self.syscall(Sys::Exit as i64);
    }
}

/// memfs: create, write, unlink; a reopen after unlink fails with ENOENT.
#[test]
fn memfs_unlink_semantics() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.enter(96);
        f.addr_of_stack(Ptr(0), 16, 8);
        f.li(Val(0), i64::from_le_bytes(*b"tmpfile\0"));
        f.store(Val(0), Ptr(0), 0, Width::D);
        // create
        f.set_arg_ptr(0, Ptr(0));
        f.li(Val(1), 7);
        f.set_arg_val(1, Val(1));
        f.syscall(Sys::Open as i64);
        f.ret_val_to(Val(6));
        f.set_arg_val(0, Val(6));
        f.syscall(Sys::Close as i64);
        // unlink
        f.set_arg_ptr(0, Ptr(0));
        f.syscall(Sys::Unlink as i64);
        f.ret_val_to(Val(2));
        // reopen without O_CREAT: ENOENT
        f.set_arg_ptr(0, Ptr(0));
        f.li(Val(1), 0);
        f.set_arg_val(1, Val(1));
        f.syscall(Sys::Open as i64);
        f.ret_val_to(Val(3)); // -2
        f.mul_sum_exit(Val(2), Val(3));
    });
    assert_eq!(status, ExitStatus::Code(-2));
}

/// fork duplicates the fd table: the child writes through an inherited fd
/// and the parent reads it after reaping.
#[test]
fn fork_inherits_file_descriptors() {
    let mut k = Kernel::new(KernelConfig::default());
    let p = program(AbiMode::CheriAbi, |f| {
        f.enter(160);
        f.addr_of_stack(Ptr(0), 16, 8);
        f.set_arg_ptr(0, Ptr(0));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(0), 0, Width::W, false);
        f.load(Val(7), Ptr(0), 4, Width::W, false);
        f.syscall(Sys::Fork as i64);
        f.ret_val_to(Val(0));
        let parent = f.label();
        f.bnez(Val(0), parent);
        f.addr_of_stack(Ptr(1), 32, 8);
        f.li(Val(1), 0x5a);
        f.store(Val(1), Ptr(1), 0, Width::B);
        f.set_arg_val(0, Val(7)); // inherited write end
        f.set_arg_ptr(1, Ptr(1));
        f.li(Val(1), 1);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Write as i64);
        f.li(Val(0), 0);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Exit as i64);
        f.bind(parent);
        f.li(Val(1), 0);
        f.set_arg_val(0, Val(1));
        f.syscall(Sys::Waitpid as i64);
        f.addr_of_stack(Ptr(2), 48, 8);
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(2));
        f.li(Val(1), 1);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Read as i64);
        f.load(Val(2), Ptr(2), 0, Width::B, false);
        f.set_arg_val(0, Val(2));
        f.syscall(Sys::Exit as i64);
    });
    let (status, _) = k
        .run_program(&p, &SpawnOpts::new(AbiMode::CheriAbi))
        .unwrap();
    assert_eq!(status, ExitStatus::Code(0x5a));
    // All pipes torn down once both processes exited.
    assert_eq!(k.stats.spawns, 1);
}

/// kevent wait blocks until the watched fd becomes readable.
#[test]
fn kevent_wait_blocks_until_ready() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.enter(224);
        f.addr_of_stack(Ptr(0), 16, 8);
        f.set_arg_ptr(0, Ptr(0));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(0), 0, Width::W, false);
        f.load(Val(7), Ptr(0), 4, Width::W, false);
        // register interest in the (empty) read end
        f.li(Val(5), 16);
        f.set_arg_val(0, Val(5));
        f.syscall(Sys::RtMalloc as i64);
        f.ret_ptr_to(Ptr(1));
        f.li(Val(0), 0xabc);
        f.store(Val(0), Ptr(1), 0, Width::D);
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(1));
        f.syscall(Sys::KeventRegister as i64);
        // fork: the child makes it ready while the parent waits.
        f.syscall(Sys::Fork as i64);
        f.ret_val_to(Val(0));
        let parent = f.label();
        f.bnez(Val(0), parent);
        f.addr_of_stack(Ptr(2), 40, 8);
        f.li(Val(1), 1);
        f.store(Val(1), Ptr(2), 0, Width::B);
        f.set_arg_val(0, Val(7));
        f.set_arg_ptr(1, Ptr(2));
        f.li(Val(1), 1);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Write as i64);
        f.li(Val(0), 0);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Exit as i64);
        f.bind(parent);
        f.addr_of_stack(Ptr(3), 64, 64);
        f.set_arg_ptr(0, Ptr(3));
        f.li(Val(1), 2);
        f.set_arg_val(1, Val(1));
        f.syscall(Sys::KeventWait as i64);
        // the udata pointer round-trips with its tag: deref it.
        f.load_ptr(Ptr(4), Ptr(3), 16);
        f.load(Val(2), Ptr(4), 0, Width::D, false);
        f.set_arg_val(0, Val(2));
        f.syscall(Sys::Exit as i64);
    });
    assert_eq!(status, ExitStatus::Code(0xabc));
}

/// Deadlock detection: a single process reading an empty pipe it also
/// holds the write end of (but never writes) deadlocks the scheduler
/// rather than spinning forever.
#[test]
fn self_deadlock_is_detected() {
    let mut k = Kernel::new(KernelConfig::default());
    let p = program(AbiMode::CheriAbi, |f| {
        f.enter(96);
        f.addr_of_stack(Ptr(0), 16, 8);
        f.set_arg_ptr(0, Ptr(0));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(0), 0, Width::W, false);
        f.addr_of_stack(Ptr(1), 32, 8);
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(1));
        f.li(Val(1), 1);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Read as i64); // blocks forever
        f.sys_exit_like(0);
    });
    let pid = k.spawn(&p, &SpawnOpts::new(AbiMode::CheriAbi)).unwrap();
    assert_eq!(k.run(10_000_000), RunOutcome::Deadlock);
    assert!(k.exit_status(pid).is_none());
}

trait ExitLike {
    fn sys_exit_like(&mut self, v: i64);
}
impl ExitLike for FnBuilder<'_> {
    fn sys_exit_like(&mut self, v: i64) {
        self.li(Val(0), v);
        self.set_arg_val(0, Val(0));
        self.syscall(Sys::Exit as i64);
    }
}

/// sysctl honours the caller's length: a short oldlen truncates and the
/// true size is written back.
#[test]
fn sysctl_length_protocol() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.enter(96);
        f.addr_of_stack(Ptr(0), 16, 16);
        f.addr_of_stack(Ptr(1), 40, 8);
        f.li(Val(0), 4); // only 4 bytes of space
        f.store(Val(0), Ptr(1), 0, Width::D);
        f.li(Val(1), 1);
        f.set_arg_val(0, Val(1));
        f.set_arg_ptr(1, Ptr(0));
        f.set_arg_ptr(2, Ptr(1));
        f.syscall(Sys::Sysctl as i64);
        // written-back length = 13 ("CheriBSD-sim\0")
        f.load(Val(2), Ptr(1), 0, Width::D, false);
        f.set_arg_val(0, Val(2));
        f.syscall(Sys::Exit as i64);
    });
    assert_eq!(status, ExitStatus::Code(13));
}

/// `kill` and `ptrace` take guest-supplied pids: pid 0 and `u64::MAX`
/// index nothing in the process table and answer ESRCH, never a host
/// panic.
#[test]
fn kill_and_ptrace_of_pids_never_handed_out_are_esrch() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, _) = run(abi, |f| {
            f.li(Val(4), 0);
            for (i, target) in [0i64, -1].into_iter().enumerate() {
                f.li(Val(0), target);
                f.set_arg_val(0, Val(0));
                f.li(Val(1), 9);
                f.set_arg_val(1, Val(1));
                f.syscall(Sys::Kill as i64);
                f.ret_val_to(Val(2));
                f.li(Val(3), 1000 / 10i64.pow(i as u32)); // weights 1000, 100
                f.mul(Val(2), Val(2), Val(3));
                f.add(Val(4), Val(4), Val(2));
                f.li(Val(1), 1); // PtraceOp::Attach
                f.set_arg_val(0, Val(1));
                f.set_arg_val(1, Val(0));
                f.syscall(Sys::Ptrace as i64);
                f.ret_val_to(Val(2));
                f.li(Val(3), 10 / 10i64.pow(i as u32)); // weights 10, 1
                f.mul(Val(2), Val(2), Val(3));
                f.add(Val(4), Val(4), Val(2));
            }
            f.set_arg_val(0, Val(4));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(status, ExitStatus::Code(-3333), "{abi}");
    }
}

/// The process table answers `None` for pid 0, for `u64::MAX` and for a
/// pid not yet handed out, and keeps an exited process readable.
#[test]
fn process_table_lookups_by_pid() {
    let mut k = Kernel::new(KernelConfig::default());
    let prog = program(AbiMode::CheriAbi, |f| {
        f.li(Val(0), 7);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Exit as i64);
    });
    let pid = k
        .spawn(&prog, &SpawnOpts::new(AbiMode::CheriAbi))
        .expect("loads");
    assert_eq!(pid, Pid(1));
    assert_eq!(k.run(1_000_000), RunOutcome::AllExited);
    for unknown in [Pid(0), Pid(u64::MAX), Pid(pid.0 + 1)] {
        assert!(k.try_process(unknown).is_none(), "{unknown}");
        assert_eq!(k.exit_status(unknown), None, "{unknown}");
    }
    let p = k
        .try_process(pid)
        .expect("an exited process stays in the table");
    assert_eq!(p.state, ProcState::Exited(ExitStatus::Code(7)));
    assert_eq!(k.exit_status(pid), Some(ExitStatus::Code(7)));
    assert_eq!(k.blocked_diagnostics(), "");
    assert_eq!(k.stats.syscalls.get(Sys::Exit), 1);
    assert_eq!(k.stats.syscalls.values().sum::<u64>(), 1);
    let next = k
        .spawn(&prog, &SpawnOpts::new(AbiMode::CheriAbi))
        .expect("loads");
    assert_eq!(next, Pid(2), "pids are never reused");
}

/// A guest length larger than any memory that backs it: 16 TiB from a
/// 16-byte stack buffer. The legacy authority (the space root) admits it,
/// CheriABI's bounded buffer does not.
const HUGE_LEN: i64 = 1 << 44;

/// `write(1, stack_buf, 1 << 44)` fails with `EFAULT` under both ABIs:
/// the kernel translates every page of the buffer before it sizes
/// anything, so the first unmapped page ends the call. The host never
/// allocates a buffer of the guest's length.
#[test]
fn write_of_a_huge_length_is_efault_not_a_host_abort() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, console) = run(abi, |f| {
            f.enter(96);
            f.addr_of_stack(Ptr(0), 16, 16);
            f.li(Val(0), 0x41);
            f.store(Val(0), Ptr(0), 0, Width::B);
            f.li(Val(0), 1);
            f.set_arg_val(0, Val(0));
            f.set_arg_ptr(1, Ptr(0));
            f.li(Val(1), HUGE_LEN);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Write as i64);
            f.ret_val_to(Val(2));
            f.set_arg_val(0, Val(2));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(
            status,
            ExitStatus::Code(Errno::EFAULT.as_ret() as i64),
            "{abi}"
        );
        assert!(console.is_empty(), "{abi}: nothing was written");
    }
}

/// `read(pipe, stack_buf, 1 << 44)` returns the one byte the pipe holds:
/// the copy is sized by what the pipe gives, not by the guest's length.
#[test]
fn read_into_a_huge_length_copies_what_the_pipe_holds() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        let (status, _) = run(abi, |f| {
            f.enter(128);
            f.addr_of_stack(Ptr(0), 16, 8);
            f.set_arg_ptr(0, Ptr(0));
            f.syscall(Sys::Pipe as i64);
            f.load(Val(6), Ptr(0), 0, Width::W, false);
            f.load(Val(7), Ptr(0), 4, Width::W, false);
            f.addr_of_stack(Ptr(1), 32, 16);
            f.li(Val(0), 0x5a);
            f.store(Val(0), Ptr(1), 0, Width::B);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(1), 1);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Write as i64);
            f.addr_of_stack(Ptr(2), 64, 16);
            f.set_arg_val(0, Val(6));
            f.set_arg_ptr(1, Ptr(2));
            f.li(Val(1), HUGE_LEN);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Read as i64);
            f.ret_val_to(Val(2));
            f.load(Val(3), Ptr(2), 0, Width::B, false);
            f.add(Val(2), Val(2), Val(3));
            f.set_arg_val(0, Val(2));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(status, ExitStatus::Code(1 + 0x5a), "{abi}");
    }
}

/// `open` of a path with no NUL: a page of mmap'd memory filled with
/// 'a'. From the page's start, `copyinstr` reads its 4096-byte maximum and
/// answers `EINVAL`; from 8 bytes in, it runs off the mapping (mips64) or
/// the capability (CheriABI) first and answers `EFAULT`.
#[test]
fn an_unterminated_path_is_einval_or_efault() {
    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
        for (skip, errno) in [(0, Errno::EINVAL), (8, Errno::EFAULT)] {
            let (status, _) = run(abi, |f| {
                if f.opts.abi == cheri_isa::codegen::Abi::Mips64 {
                    f.li(Val(0), 0);
                    f.set_arg_val(0, Val(0));
                }
                f.li(Val(1), 4096);
                f.set_arg_val(1, Val(1));
                f.li(Val(2), 3); // rw
                f.set_arg_val(2, Val(2));
                f.li(Val(3), 0);
                f.set_arg_val(3, Val(3));
                f.syscall(Sys::Mmap as i64);
                f.ret_ptr_to(Ptr(0));
                // Fill the page with 'a', from its last byte down.
                f.li(Val(4), 4096);
                f.li(Val(5), 0x61);
                let fill = f.label();
                f.bind(fill);
                f.add_imm(Val(4), Val(4), -1);
                f.ptr_add(Ptr(1), Ptr(0), Val(4));
                f.store(Val(5), Ptr(1), 0, Width::B);
                f.bnez(Val(4), fill);
                f.ptr_add_imm(Ptr(2), Ptr(0), skip);
                f.set_arg_ptr(0, Ptr(2));
                f.li(Val(1), 0);
                f.set_arg_val(1, Val(1));
                f.syscall(Sys::Open as i64);
                f.ret_val_to(Val(2));
                f.set_arg_val(0, Val(2));
                f.syscall(Sys::Exit as i64);
            });
            assert_eq!(
                status,
                ExitStatus::Code(errno.as_ret() as i64),
                "{abi}, {skip} bytes in"
            );
        }
    }
}
