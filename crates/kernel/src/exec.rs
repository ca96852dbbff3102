//! `execve`: process creation and the Figure 1 startup protocol.
//!
//! "When a process address space is replaced by execve, the kernel
//! establishes new memory mappings ... It subdivides the previously created
//! userspace capability into one for each mapped object (text, data, stack,
//! arguments, etc)." — §3. For CheriABI processes, every pointer installed
//! into the initial stack (argv/envv entries, the argument arrays
//! themselves) is a bounded capability, and registers receive the code,
//! stack and argument capabilities; DDC is NULL. Legacy processes get the
//! same layout with integer pointers and an address-space-wide DDC.

use crate::abi::AbiMode;
use crate::kernel::Kernel;
use crate::process::{FileDesc, Pid, ProcState, Process};
use cheri_alloc::Allocator;
use cheri_cap::{CapSource, Capability, Perms};
use cheri_cpu::{DecodedRegion, RegFile};
use cheri_isa::{creg, ireg, Instr};
use cheri_mem::IntMap;
use cheri_rtld::{LoadError, Program};
use cheri_vm::{Backing, Prot, VmError};
use std::collections::VecDeque;
use std::sync::Arc;

/// Base address of the signal-return trampoline page ("a read-only shared
/// page mapped by execve", §4).
pub const TRAMPOLINE_BASE: u64 = 0x8000;

/// Options for [`Kernel::spawn`].
#[derive(Clone, Debug)]
pub struct SpawnOpts {
    /// Process ABI.
    pub abi: AbiMode,
    /// Command-line arguments (argv[0] is conventionally the program name).
    pub args: Vec<String>,
    /// Environment strings (`KEY=value`).
    pub env: Vec<String>,
    /// Whether the binary was built with sanitizer instrumentation (maps
    /// the shadow region and interprets `break` as a sanitizer abort).
    pub asan: bool,
    /// Stack size in bytes.
    pub stack_size: u64,
    /// Per-process instruction budget (`None` = kernel default).
    pub instr_budget: Option<u64>,
    /// Arms the hardened membrane on the process's allocator: frees
    /// quarantine instead of recycling, revocation sweeps run at the free
    /// thresholds, and kernel-side denials become deterministic repairs
    /// with evidence counters. Strict (`false`) is the paper's baseline.
    pub hardened: bool,
    /// Test-only: disables the hardened quarantine (reuse-after-free
    /// allowed) so the attack table can prove it measures the membrane.
    pub weaken_quarantine: bool,
}

impl SpawnOpts {
    /// Defaults for the given ABI.
    #[must_use]
    pub fn new(abi: AbiMode) -> SpawnOpts {
        SpawnOpts {
            abi,
            args: vec!["prog".to_string()],
            env: Vec::new(),
            asan: false,
            stack_size: 1 << 20,
            instr_budget: None,
            hardened: false,
            weaken_quarantine: false,
        }
    }
}

impl Kernel {
    /// Creates a process running `program` — the `execve` path.
    ///
    /// # Errors
    ///
    /// Propagates linker failures ([`LoadError`]).
    pub fn spawn(&mut self, program: &Program, opts: &SpawnOpts) -> Result<Pid, LoadError> {
        self.stats.spawns += 1;
        // Fresh principal per address-space creation (§3).
        let principal = self.principals.fresh();
        let space = self.vm.create_space(principal, self.config.cap_fmt);
        let root = self.vm.space(space).root;
        let fmt = self.config.cap_fmt;
        let ptr_size = match opts.abi {
            AbiMode::CheriAbi => fmt.in_memory_size(),
            AbiMode::Mips64 => 8,
        };

        // Trampoline page: `li v0, SIGRETURN; syscall`, mapped read-only
        // executable below the text cursor.
        let tramp_code = vec![
            Instr::Li {
                rd: ireg::V0,
                imm: crate::abi::Sys::Sigreturn as i64,
            },
            Instr::Syscall,
        ];
        let tramp_bytes: Vec<u8> = (0..tramp_code.len() as u32)
            .flat_map(u32::to_le_bytes)
            .collect();
        self.vm.map(
            space,
            Some(TRAMPOLINE_BASE),
            4096,
            Prot::rx(),
            Backing::Image {
                data: Arc::new(tramp_bytes),
                offset: 0,
            },
            "trampoline",
        )?;
        self.cpu
            .register_region(space, DecodedRegion::decode(TRAMPOLINE_BASE, &tramp_code));

        // Load objects, GOT, TLS (text/data mappings + derivations).
        let trace = &mut self.cpu.trace;
        let loaded = cheri_rtld::load(
            &mut self.vm,
            space,
            program,
            opts.abi.codegen_abi(),
            ptr_size,
            |c| trace.record(c),
        )?;
        for obj in &loaded.objects {
            self.cpu
                .register_region(space, DecodedRegion::decode(obj.text_base, &obj.code));
        }
        let (li, lc) = loaded.startup_cost;
        self.cpu.charge(li, lc);

        // Sanitizer shadow region.
        if opts.asan {
            self.vm.map(
                space,
                Some(cheri_isa::codegen::ASAN_SHADOW_BASE),
                1 << 41,
                Prot::rw(),
                Backing::Zero,
                "shadow",
            )?;
        }

        // Stack.
        let stack_top = 0x7fff_f000u64;
        let stack_size = opts.stack_size.div_ceil(4096) * 4096;
        let stack_base = stack_top - stack_size;
        self.vm.map(
            space,
            Some(stack_base),
            stack_size,
            Prot::rw(),
            Backing::Zero,
            "stack",
        )?;

        // ---- Figure 1: arguments, environment, aux arrays ----
        let mut cursor = stack_top;
        // Stack writes are fallible (a fault-injected swap error can reach
        // even the exec path): failures surface as LoadError, not panics.
        let mut place_str = |vm: &mut cheri_vm::Vm, s: &str| -> Result<u64, LoadError> {
            let bytes = s.as_bytes();
            cursor -= bytes.len() as u64 + 1;
            vm.write_bytes(space, cursor, bytes)?;
            vm.write_bytes(space, cursor + bytes.len() as u64, &[0])?;
            Ok(cursor)
        };
        let arg_addrs: Vec<(u64, u64)> = opts
            .args
            .iter()
            .map(|a| Ok((place_str(&mut self.vm, a)?, a.len() as u64 + 1)))
            .collect::<Result<_, LoadError>>()?;
        let env_addrs: Vec<(u64, u64)> = opts
            .env
            .iter()
            .map(|e| Ok((place_str(&mut self.vm, e)?, e.len() as u64 + 1)))
            .collect::<Result<_, LoadError>>()?;
        cursor &= !15; // align for the pointer arrays

        // envv[] then argv[] (each NULL-terminated), pointers as bounded
        // capabilities under CheriABI.
        let mut write_ptr_array = |vm: &mut cheri_vm::Vm,
                                   trace: &mut cheri_cpu::DerivationTrace,
                                   addrs: &[(u64, u64)]|
         -> Result<u64, LoadError> {
            let slots = addrs.len() as u64 + 1;
            cursor -= slots * ptr_size;
            cursor &= !(ptr_size - 1);
            let base = cursor;
            for (i, (addr, len)) in addrs.iter().enumerate() {
                let slot = base + i as u64 * ptr_size;
                match opts.abi {
                    AbiMode::CheriAbi => {
                        let cap = root
                            .with_addr(*addr)
                            .set_bounds(*len, false)
                            .map_err(|_| LoadError::Vm(VmError::BadRange(*addr)))?
                            .and_perms(Perms::user_data() - Perms::VMMAP)
                            .with_source(CapSource::Exec);
                        trace.record(&cap);
                        vm.store_cap(space, slot, cap)?;
                    }
                    AbiMode::Mips64 => {
                        vm.write_u64(space, slot, *addr)?;
                    }
                }
            }
            // NULL terminator is already zero (demand-zero stack).
            Ok(base)
        };
        let envv_base = write_ptr_array(&mut self.vm, &mut self.cpu.trace, &env_addrs)?;
        let argv_base = write_ptr_array(&mut self.vm, &mut self.cpu.trace, &arg_addrs)?;
        let _ = envv_base;

        // Register state.
        let mut regs = RegFile::new(fmt);
        regs.pcc = loaded.entry_pcc;
        regs.pc = loaded.entry_pc;
        self.cpu.trace.record(&regs.pcc);
        regs.w(ireg::A0, opts.args.len() as u64);
        let sp = (argv_base - 64) & !(ptr_size.max(16) - 1);
        match opts.abi {
            AbiMode::CheriAbi => {
                // DDC = NULL: "eliminating legacy MIPS loads and stores".
                regs.ddc = Capability::null(fmt);
                let stack_cap = root
                    .with_addr(stack_base)
                    .set_bounds(stack_size, false)
                    .map_err(|_| LoadError::Vm(VmError::BadRange(stack_base)))?
                    .and_perms(Perms::user_data() - Perms::VMMAP)
                    .with_addr(sp)
                    .with_source(CapSource::Stack);
                self.cpu.trace.record(&stack_cap);
                regs.wc(creg::CSP, stack_cap);
                let argv_cap = root
                    .with_addr(argv_base)
                    .set_bounds((arg_addrs.len() as u64 + 1) * ptr_size, false)
                    .map_err(|_| LoadError::Vm(VmError::BadRange(argv_base)))?
                    .and_perms(Perms::user_data() - Perms::VMMAP)
                    .with_source(CapSource::Exec);
                self.cpu.trace.record(&argv_cap);
                regs.wc(creg::arg(1), argv_cap);
                regs.wc(creg::CGP, loaded.got_cap);
                if let Some(tls) = loaded
                    .objects
                    .iter()
                    .find_map(|o| loaded.tls_caps.get(&o.name))
                {
                    regs.wc(creg::CTLS, *tls);
                }
            }
            AbiMode::Mips64 => {
                regs.ddc = root.with_source(CapSource::Exec);
                // Legacy PCC spans the space (checked only by the MMU).
                regs.pcc = root
                    .with_addr(loaded.entry_pc)
                    .and_perms(Perms::user_code());
                regs.w(ireg::SP, sp);
                regs.w(ireg::A1, argv_base);
                regs.w(ireg::GP, loaded.got_cap.addr());
            }
        }

        let pid = self.procs.next_pid();
        let process = Process {
            pid,
            parent: None,
            abi: opts.abi,
            space,
            principal,
            regs,
            state: ProcState::Runnable,
            allocator: {
                let mut a = Allocator::new(space, opts.asan);
                a.set_hardened(opts.hardened);
                a.set_weaken_quarantine(opts.weaken_quarantine);
                a
            },
            fds: vec![
                Some(FileDesc::Console),
                Some(FileDesc::Console),
                Some(FileDesc::Console),
            ],
            sighandlers: IntMap::default(),
            pending_signals: VecDeque::new(),
            signal_frames: Vec::new(),
            console: Vec::new(),
            loaded,
            trampoline_pc: TRAMPOLINE_BASE,
            kq: Vec::new(),
            children: Vec::new(),
            zombies: Vec::new(),
            traced_by: None,
            swap_retry: None,
            instr_budget: opts
                .instr_budget
                .unwrap_or(self.config.default_instr_budget),
            cycles: 0,
            asan: opts.asan,
            stack_top,
            stack_size,
        };
        self.procs.push(process);
        self.runq.push_back(pid);
        Ok(pid)
    }

    /// Convenience: spawns `program`, runs the scheduler until it exits,
    /// and returns its exit status and console output.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures; a run that exhausts the global budget
    /// reports [`crate::process::ExitStatus::BudgetExhausted`].
    pub fn run_program(
        &mut self,
        program: &Program,
        opts: &SpawnOpts,
    ) -> Result<(crate::process::ExitStatus, String), LoadError> {
        let pid = self.spawn(program, opts)?;
        let budget = self.process(pid).instr_budget;
        self.run(budget);
        let status = self
            .exit_status(pid)
            .unwrap_or(crate::process::ExitStatus::BudgetExhausted);
        let console = self.process(pid).console_string();
        Ok((status, console))
    }
}
