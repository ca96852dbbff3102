//! End-to-end kernel tests: guest programs built with the codegen DSL,
//! loaded by RTLD, executed on the CPU, under both process ABIs.

use cheri_cap::{CapFault, Perms};
use cheri_cpu::TrapCause;
use cheri_isa::codegen::{CodegenOpts, FnBuilder, Ptr, Val};
use cheri_isa::Width;
use cheri_kernel::{AbiMode, ExitStatus, Kernel, KernelConfig, Pid, RunOutcome, SpawnOpts, Sys};
use cheri_rtld::{Program, ProgramBuilder};

fn opts_for(abi: AbiMode) -> CodegenOpts {
    match abi {
        AbiMode::Mips64 => CodegenOpts::mips64(),
        AbiMode::CheriAbi => CodegenOpts::purecap(),
    }
}

/// Builds a single-object program from a closure that emits `main`.
fn program(abi: AbiMode, body: impl FnOnce(&mut FnBuilder<'_>)) -> Program {
    let mut pb = ProgramBuilder::new("test");
    let mut exe = pb.object("test");
    {
        let mut f = FnBuilder::begin(&mut exe, "main", opts_for(abi));
        body(&mut f);
    }
    exe.set_entry("main");
    pb.add(exe.finish());
    pb.finish()
}

fn run(abi: AbiMode, body: impl FnOnce(&mut FnBuilder<'_>)) -> (ExitStatus, String) {
    let prog = program(abi, body);
    let mut k = Kernel::new(KernelConfig::default());
    k.run_program(&prog, &SpawnOpts::new(abi)).expect("spawn")
}

fn both_abis() -> [AbiMode; 2] {
    [AbiMode::Mips64, AbiMode::CheriAbi]
}

/// exit(classic): both ABIs run the same portable source.
#[test]
fn exit_code_roundtrip() {
    for abi in both_abis() {
        let (status, _) = run(abi, |f| {
            f.li(Val(0), 42);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(status, ExitStatus::Code(42), "{abi}");
    }
}

/// Hello world: a global string written to the console through the GOT.
#[test]
fn hello_world_both_abis() {
    for abi in both_abis() {
        let mut pb = ProgramBuilder::new("hello");
        let mut exe = pb.object("hello");
        exe.add_data("greeting", b"hello, world\n", 16);
        {
            let mut f = FnBuilder::begin(&mut exe, "main", opts_for(abi));
            f.load_global_ptr(Ptr(0), "greeting");
            f.li(Val(0), 1); // fd
            f.set_arg_val(0, Val(0));
            f.set_arg_ptr(1, Ptr(0));
            f.li(Val(1), 13);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Write as i64);
            f.li(Val(0), 0);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        let prog = pb.finish();
        let mut k = Kernel::new(KernelConfig::default());
        let (status, console) = k.run_program(&prog, &SpawnOpts::new(abi)).unwrap();
        assert_eq!(status, ExitStatus::Code(0), "{abi}");
        assert_eq!(console, "hello, world\n", "{abi}");
    }
}

/// A classic stack buffer overflow: runs to (corrupted) completion on
/// mips64, traps with a length violation under CheriABI.
#[test]
fn stack_overflow_detected_only_by_cheriabi() {
    let overflow = |f: &mut FnBuilder<'_>| {
        f.enter(96);
        f.addr_of_stack(Ptr(0), 16, 32); // 32-byte buffer
        f.li(Val(0), 0xaa);
        // store one byte past the end
        f.store(Val(0), Ptr(0), 32, Width::B);
        f.li(Val(1), 0);
        f.set_arg_val(0, Val(1));
        f.syscall(Sys::Exit as i64);
    };
    let (m, _) = run(AbiMode::Mips64, overflow);
    assert_eq!(m, ExitStatus::Code(0), "legacy ABI silently corrupts");
    let (c, _) = run(AbiMode::CheriAbi, overflow);
    assert_eq!(
        c,
        ExitStatus::Fault(TrapCause::Cap(CapFault::LengthViolation)),
        "CheriABI catches the off-by-one"
    );
}

/// malloc returns a usable, bounded pointer; free works; use-beyond-bounds
/// traps under CheriABI.
#[test]
fn heap_allocation_roundtrip() {
    for abi in both_abis() {
        let (status, _) = run(abi, |f| {
            f.li(Val(0), 100);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::RtMalloc as i64);
            f.ret_ptr_to(Ptr(0));
            f.li(Val(1), 7);
            f.store(Val(1), Ptr(0), 0, Width::D);
            f.load(Val(2), Ptr(0), 0, Width::D, false);
            // exit(value read back)
            f.set_arg_ptr(0, Ptr(0)); // stash for free
            f.syscall(Sys::RtFree as i64);
            f.set_arg_val(0, Val(2));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(status, ExitStatus::Code(7), "{abi}");
    }

    // Past-the-padded-end access traps under CheriABI only.
    let oob = |f: &mut FnBuilder<'_>| {
        f.li(Val(0), 100);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::RtMalloc as i64);
        f.ret_ptr_to(Ptr(0));
        f.li(Val(1), 1);
        f.store(Val(1), Ptr(0), 112, Width::B); // padded size is 112
        f.li(Val(0), 0);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Exit as i64);
    };
    let (m, _) = run(AbiMode::Mips64, oob);
    assert_eq!(m, ExitStatus::Code(0));
    let (c, _) = run(AbiMode::CheriAbi, oob);
    assert_eq!(
        c,
        ExitStatus::Fault(TrapCause::Cap(CapFault::LengthViolation))
    );
}

/// fork + pipe: child writes, parent reads, waitpid reaps.
#[test]
fn fork_pipe_waitpid() {
    for abi in both_abis() {
        let (status, console) = run(abi, |f| {
            f.enter(160);
            // pipe(fds) -> fds at frame offset 32
            f.addr_of_stack(Ptr(0), 32, 8);
            f.set_arg_ptr(0, Ptr(0));
            f.syscall(Sys::Pipe as i64);
            f.load(Val(6), Ptr(0), 0, Width::W, false); // read fd
            f.load(Val(7), Ptr(0), 4, Width::W, false); // write fd
            f.syscall(Sys::Fork as i64);
            f.ret_val_to(Val(0));
            let parent = f.label();
            f.bnez(Val(0), parent);
            // ---- child: write "Y" into the pipe, exit 5 ----
            f.addr_of_stack(Ptr(1), 48, 16);
            f.li(Val(1), 0x59); // 'Y'
            f.store(Val(1), Ptr(1), 0, Width::B);
            f.set_arg_val(0, Val(7));
            f.set_arg_ptr(1, Ptr(1));
            f.li(Val(2), 1);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            f.li(Val(0), 5);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
            // ---- parent: read 1 byte, print it, wait for child ----
            f.bind(parent);
            f.addr_of_stack(Ptr(2), 64, 16);
            f.set_arg_val(0, Val(6));
            f.set_arg_ptr(1, Ptr(2));
            f.li(Val(2), 1);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Read as i64);
            f.li(Val(3), 1);
            f.set_arg_val(0, Val(3));
            f.set_arg_ptr(1, Ptr(2));
            f.li(Val(2), 1);
            f.set_arg_val(2, Val(2));
            f.syscall(Sys::Write as i64);
            f.li(Val(0), 0);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Waitpid as i64);
            f.ret_val_to(Val(4)); // encoded child status
            f.shr_imm(Val(4), Val(4), 8);
            f.set_arg_val(0, Val(4));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(
            status,
            ExitStatus::Code(5),
            "{abi}: parent exits with child's code"
        );
        assert_eq!(console, "Y", "{abi}");
    }
}

/// Signal delivery and sigreturn: handler runs, then execution resumes.
#[test]
fn signal_handler_roundtrip() {
    for abi in both_abis() {
        let mut pb = ProgramBuilder::new("sig");
        let mut exe = pb.object("sig");
        exe.add_data("msg", b"H", 16);
        let opts = opts_for(abi);
        // handler(sig): write "H"; return (through the trampoline).
        {
            let mut f = FnBuilder::begin(&mut exe, "handler", opts);
            f.load_global_ptr(Ptr(0), "msg");
            f.li(Val(0), 1);
            f.set_arg_val(0, Val(0));
            f.set_arg_ptr(1, Ptr(0));
            f.li(Val(1), 1);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Write as i64);
            f.ret();
        }
        {
            let mut f = FnBuilder::begin(&mut exe, "main", opts);
            // sigaction(10, handler)
            f.li(Val(0), 10);
            f.set_arg_val(0, Val(0));
            f.load_global_ptr(Ptr(0), "handler");
            f.set_arg_ptr(1, Ptr(0));
            f.syscall(Sys::Sigaction as i64);
            // kill(self, 10)
            f.syscall(Sys::Getpid as i64);
            f.ret_val_to(Val(1));
            f.set_arg_val(0, Val(1));
            f.li(Val(2), 10);
            f.set_arg_val(1, Val(2));
            f.syscall(Sys::Kill as i64);
            // exit(9) after the handler ran
            f.li(Val(0), 9);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        let prog = pb.finish();
        let mut k = Kernel::new(KernelConfig::default());
        let (status, console) = k.run_program(&prog, &SpawnOpts::new(abi)).unwrap();
        assert_eq!(status, ExitStatus::Code(9), "{abi}");
        assert_eq!(console, "H", "{abi}: handler observed");
    }
}

/// munmap with a malloc'd capability must fail under CheriABI: malloc
/// strips `VMMAP` exactly to prevent remapping the heap (§4).
#[test]
fn munmap_requires_vmmap_permission() {
    let body = |f: &mut FnBuilder<'_>| {
        f.li(Val(0), 4096);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::RtMalloc as i64);
        f.ret_ptr_to(Ptr(0));
        f.set_arg_ptr(0, Ptr(0));
        f.li(Val(1), 4096);
        f.set_arg_val(1, Val(1));
        f.syscall(Sys::Munmap as i64);
        f.ret_val_to(Val(2)); // -EPROT expected under CheriABI
        f.set_arg_val(0, Val(2));
        f.syscall(Sys::Exit as i64);
    };
    let (c, _) = run(AbiMode::CheriAbi, body);
    assert_eq!(c, ExitStatus::Code(-96), "EPROT: no VMMAP permission");
}

/// mmap returns a working pointer bounded to the mapping.
#[test]
fn mmap_returns_bounded_capability() {
    for abi in both_abis() {
        let (status, _) = run(abi, |f| {
            // mmap(NULL, 8192, rw, 0)
            f.li(Val(0), 0);
            match f.opts.abi {
                cheri_isa::codegen::Abi::Mips64 => f.set_arg_val(0, Val(0)),
                cheri_isa::codegen::Abi::PureCap => {
                    // NULL hint: c3 stays NULL (never written).
                }
            }
            f.li(Val(1), 8192);
            f.set_arg_val(1, Val(1));
            f.li(Val(2), 3); // rw
            f.set_arg_val(2, Val(2));
            f.li(Val(3), 0);
            f.set_arg_val(3, Val(3));
            f.syscall(Sys::Mmap as i64);
            f.ret_ptr_to(Ptr(0));
            f.li(Val(4), 99);
            f.store(Val(4), Ptr(0), 8190, Width::B);
            f.load(Val(5), Ptr(0), 8190, Width::B, false);
            f.set_arg_val(0, Val(5));
            f.syscall(Sys::Exit as i64);
        });
        assert_eq!(status, ExitStatus::Code(99), "{abi}");
    }
}

/// kevent: a user pointer stored in kernel structures survives with its
/// tag under CheriABI and is dereferenceable after retrieval.
#[test]
fn kevent_preserves_capability_udata() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.enter(160);
        // A heap object holding 123, registered as udata.
        f.li(Val(0), 16);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::RtMalloc as i64);
        f.ret_ptr_to(Ptr(0));
        f.li(Val(1), 123);
        f.store(Val(1), Ptr(0), 0, Width::D);
        // pipe; write a byte so the read end is kevent-ready.
        f.addr_of_stack(Ptr(1), 32, 8);
        f.set_arg_ptr(0, Ptr(1));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(1), 0, Width::W, false);
        f.load(Val(7), Ptr(1), 4, Width::W, false);
        f.addr_of_stack(Ptr(2), 48, 16);
        f.li(Val(2), 1);
        f.store(Val(2), Ptr(2), 0, Width::B);
        f.set_arg_val(0, Val(7));
        f.set_arg_ptr(1, Ptr(2));
        f.set_arg_val(2, Val(2));
        f.syscall(Sys::Write as i64);
        // kevent_register(read_fd, heap_ptr)
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(0));
        f.syscall(Sys::KeventRegister as i64);
        // kevent_wait(out, 4): out at frame 64 (32B records, 16-aligned)
        f.addr_of_stack(Ptr(3), 64, 64);
        f.set_arg_ptr(0, Ptr(3));
        f.li(Val(3), 4);
        f.set_arg_val(1, Val(3));
        f.syscall(Sys::KeventWait as i64);
        // Load the returned udata capability and dereference it.
        f.load_ptr(Ptr(4), Ptr(3), 16);
        f.load(Val(4), Ptr(4), 0, Width::D, false);
        f.set_arg_val(0, Val(4));
        f.syscall(Sys::Exit as i64);
    });
    assert_eq!(
        status,
        ExitStatus::Code(123),
        "udata tag survived the kernel"
    );
}

/// Confused-deputy protection (Figure 3): a read(2) into an undersized
/// buffer faults with EFAULT under CheriABI; under the legacy ABI the
/// kernel happily overwrites adjacent stack memory.
#[test]
fn syscall_buffer_overflow_blocked_by_cheriabi() {
    let body = |f: &mut FnBuilder<'_>| {
        f.enter(160);
        // canary at frame 48, right after a 16-byte buffer at 32.
        f.addr_of_stack(Ptr(0), 32, 16);
        f.addr_of_stack(Ptr(1), 48, 8);
        f.li(Val(0), 0x7777);
        f.store(Val(0), Ptr(1), 0, Width::D);
        // pipe; stuff 64 bytes in.
        f.addr_of_stack(Ptr(2), 64, 8);
        f.set_arg_ptr(0, Ptr(2));
        f.syscall(Sys::Pipe as i64);
        f.load(Val(6), Ptr(2), 0, Width::W, false);
        f.load(Val(7), Ptr(2), 4, Width::W, false);
        f.addr_of_stack(Ptr(3), 80, 64);
        f.li(Val(1), 64);
        f.set_arg_val(0, Val(7));
        f.set_arg_ptr(1, Ptr(3));
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Write as i64);
        // read(fd, 16-byte buffer, 64): the deputy attack.
        f.set_arg_val(0, Val(6));
        f.set_arg_ptr(1, Ptr(0));
        f.li(Val(1), 64);
        f.set_arg_val(2, Val(1));
        f.syscall(Sys::Read as i64);
        f.ret_val_to(Val(2)); // bytes read or -EFAULT
                              // exit(canary == 0x7777 ? ret : -1)
        f.load(Val(3), Ptr(1), 0, Width::D, false);
        f.li(Val(4), 0x7777);
        let ok = f.label();
        f.beq(Val(3), Val(4), ok);
        f.li(Val(2), -1);
        f.bind(ok);
        f.set_arg_val(0, Val(2));
        f.syscall(Sys::Exit as i64);
    };
    let (m, _) = run(AbiMode::Mips64, body);
    assert_eq!(m, ExitStatus::Code(-1), "legacy kernel smashed the canary");
    let (c, _) = run(AbiMode::CheriAbi, body);
    assert_eq!(
        c,
        ExitStatus::Code(-14),
        "CheriABI kernel faulted with EFAULT"
    );
}

/// Swap round trip under guest control: capabilities stored to the heap
/// survive eviction + rederivation and remain dereferenceable.
#[test]
fn swap_preserves_guest_capabilities() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        // p = malloc(64); q = malloc(16); *q = 321; p[0..] = q (as cap)
        f.li(Val(0), 64);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::RtMalloc as i64);
        f.ret_ptr_to(Ptr(0));
        f.li(Val(0), 16);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::RtMalloc as i64);
        f.ret_ptr_to(Ptr(1));
        f.li(Val(1), 321);
        f.store(Val(1), Ptr(1), 0, Width::D);
        f.store_ptr(Ptr(1), Ptr(0), 0);
        // Force everything out to swap.
        f.li(Val(2), 4096);
        f.set_arg_val(0, Val(2));
        f.syscall(Sys::Swapctl as i64);
        // Reload the capability from the swapped-in page; dereference.
        f.load_ptr(Ptr(2), Ptr(0), 0);
        f.load(Val(3), Ptr(2), 0, Width::D, false);
        f.set_arg_val(0, Val(3));
        f.syscall(Sys::Exit as i64);
    });
    assert_eq!(
        status,
        ExitStatus::Code(321),
        "rederivation restored the tag"
    );
}

/// sbrk is unsupported "as a matter of principle" (§4).
#[test]
fn sbrk_returns_enosys() {
    let (status, _) = run(AbiMode::CheriAbi, |f| {
        f.syscall(Sys::Sbrk as i64);
        f.ret_val_to(Val(0));
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Exit as i64);
    });
    assert_eq!(status, ExitStatus::Code(-78), "ENOSYS");
}

/// ptrace: a debugger injects a capability into the target; the injected
/// value carries the *target's* principal and cannot exceed its authority.
#[test]
fn ptrace_injection_respects_principals() {
    // Target: loops forever (until killed).
    let target_prog = program(AbiMode::CheriAbi, |f| {
        let top = f.label();
        f.bind(top);
        f.li(Val(0), 0);
        f.jmp(top);
    });
    let mut k = Kernel::new(KernelConfig::default());
    let target = k
        .spawn(&target_prog, &SpawnOpts::new(AbiMode::CheriAbi))
        .unwrap();
    // Run a few quanta so the target is alive.
    k.run(200_000);

    // Drive ptrace from the kernel API level (a full guest debugger binary
    // adds nothing here; the syscall path is exercised in the corpus).
    let tracer_prog = program(AbiMode::CheriAbi, |f| {
        f.li(Val(0), 0);
        f.set_arg_val(0, Val(0));
        f.syscall(Sys::Exit as i64);
    });
    let tracer = k
        .spawn(&tracer_prog, &SpawnOpts::new(AbiMode::CheriAbi))
        .unwrap();

    // Attach.
    set_args(&mut k, tracer, &[1, target.0, 0, 0, 0, 0]);
    assert_eq!(k.sys_ptrace_public(tracer), Ok(0));
    // Inject a capability at the target's stack top region.
    let stack_probe = {
        let p = k.process(target);
        p.stack_top - 4096
    };
    set_args(
        &mut k,
        tracer,
        &[
            11,
            target.0,
            stack_probe & !15,
            stack_probe & !15,
            64,
            u64::from(Perms::user_data().bits()),
        ],
    );
    assert_eq!(k.sys_ptrace_public(tracer), Ok(0));
    let space = k.process(target).space;
    let injected =
        k.vm.load_cap(space, stack_probe & !15)
            .unwrap()
            .expect("tagged");
    assert_eq!(
        injected.provenance().principal,
        k.process(target).principal,
        "injected capability belongs to the target principal"
    );
    assert_eq!(injected.provenance().source, cheri_cap::CapSource::Debugger);

    // Excess authority is refused.
    set_args(
        &mut k,
        tracer,
        &[
            11,
            target.0,
            stack_probe & !15,
            stack_probe & !15,
            64,
            u64::from(Perms::ALL.bits()),
        ],
    );
    assert_eq!(
        k.sys_ptrace_public(tracer),
        Err(cheri_kernel::Errno::EPROT),
        "SYSTEM_REGS exceeds the target root"
    );
}

fn set_args(k: &mut Kernel, pid: Pid, args: &[u64]) {
    for (i, v) in args.iter().enumerate() {
        let r = cheri_isa::ireg::arg(i as u8);
        k.process_mut(pid).regs.w(r, *v);
    }
}

/// Global scheduler sanity: two processes interleave and both finish.
#[test]
fn scheduler_interleaves_processes() {
    let prog = program(AbiMode::CheriAbi, |f| {
        f.li(Val(0), 0);
        f.li(Val(1), 100_000);
        let top = f.label();
        f.bind(top);
        f.add_imm(Val(0), Val(0), 1);
        f.sub(Val(2), Val(0), Val(1));
        f.bnez(Val(2), top);
        f.li(Val(3), 0);
        f.set_arg_val(0, Val(3));
        f.syscall(Sys::Exit as i64);
    });
    let mut k = Kernel::new(KernelConfig::default());
    let a = k.spawn(&prog, &SpawnOpts::new(AbiMode::CheriAbi)).unwrap();
    let b = k.spawn(&prog, &SpawnOpts::new(AbiMode::CheriAbi)).unwrap();
    assert_eq!(k.run(100_000_000), RunOutcome::AllExited);
    assert_eq!(k.exit_status(a), Some(ExitStatus::Code(0)));
    assert_eq!(k.exit_status(b), Some(ExitStatus::Code(0)));
    assert!(k.stats.ctx_switches >= 4, "quantum forced interleaving");
}

/// Two different programs spawned into one kernel, preempted every 50
/// instructions with templates on, each exit with the code and console
/// they produce alone. Their hot loops sit at the same pc with different
/// bodies, so a resident region, TLB or hot-pc entry served across
/// address spaces would run one program's loop in the other. (Spawned
/// programs also differ in principal, and so in PCC; the CPU's own tests
/// isolate the hot-pc tag with equal PCCs.)
#[test]
fn interleaved_programs_match_their_solo_runs() {
    // Counts `start` down by `step` in a two-instruction loop, short
    // enough to promote within one 50-instruction slice, then prints
    // `msg` and exits with `100 + the first counter value <= 0`.
    let looper = |abi: AbiMode, start: i64, step: i64, msg: &[u8]| {
        let mut pb = ProgramBuilder::new("looper");
        let mut exe = pb.object("looper");
        exe.add_data("msg", msg, 16);
        {
            let mut f = FnBuilder::begin(&mut exe, "main", opts_for(abi));
            f.li(Val(0), start);
            let top = f.label();
            f.bind(top);
            f.add_imm(Val(0), Val(0), -step);
            f.bgtz(Val(0), top);
            f.load_global_ptr(Ptr(0), "msg");
            f.li(Val(1), 1);
            f.set_arg_val(0, Val(1));
            f.set_arg_ptr(1, Ptr(0));
            f.li(Val(1), msg.len() as i64);
            f.set_arg_val(2, Val(1));
            f.syscall(Sys::Write as i64);
            f.add_imm(Val(0), Val(0), 100);
            f.set_arg_val(0, Val(0));
            f.syscall(Sys::Exit as i64);
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        pb.finish()
    };
    let config = KernelConfig {
        quantum: 50,
        ..KernelConfig::default()
    };
    for abi in both_abis() {
        let progs = [
            looper(abi, 9001, 3, b"three\n"),
            looper(abi, 15001, 5, b"five!\n"),
        ];
        let solo: Vec<(ExitStatus, String)> = progs
            .iter()
            .map(|p| {
                Kernel::new(config)
                    .run_program(p, &SpawnOpts::new(abi))
                    .expect("spawn")
            })
            .collect();
        assert_eq!(solo[0], (ExitStatus::Code(98), "three\n".into()), "{abi}");
        assert_eq!(solo[1], (ExitStatus::Code(96), "five!\n".into()), "{abi}");
        let mut k = Kernel::new(config);
        let pids: Vec<Pid> = progs
            .iter()
            .map(|p| k.spawn(p, &SpawnOpts::new(abi)).expect("spawn"))
            .collect();
        assert_eq!(k.run(100_000_000), RunOutcome::AllExited, "{abi}");
        assert!(
            k.cpu.stats.tmpl_hits > 100,
            "{abi}: the loops ran templated"
        );
        assert!(k.stats.ctx_switches > 100, "{abi}: the loops interleaved");
        for (pid, want) in pids.iter().zip(&solo) {
            let got = (
                k.exit_status(*pid).expect("exited"),
                k.process(*pid).console_string(),
            );
            assert_eq!(&got, want, "{abi}: {pid}");
        }
    }
}
