//! # cheriabi — the public facade of the CheriABI reproduction
//!
//! This crate ties the substrate crates together into the system the paper
//! describes and evaluates:
//!
//! * [`System`] — a booted machine: CPU + VM + CheriBSD-like kernel,
//!   running guest programs under the legacy **mips64** ABI or under
//!   **CheriABI** (every pointer a capability, DDC = NULL);
//! * [`guest`] — ergonomic helpers for writing guest programs against the
//!   simulated libc/syscall surface;
//! * [`trace`] — the §5.5 abstract-capability reconstruction: turning the
//!   CPU's derivation trace into Figure 5's cumulative
//!   capability-count-vs-bounds-size distribution, per source;
//! * [`verify`] — the abstract-capability invariant checker: every tagged
//!   capability reachable by a process (registers and private memory) must
//!   belong to that process's principal (DESIGN.md invariant I4);
//! * [`fault`] — the seeded, deterministic fault-injection plane:
//!   physical-memory bit-flips, swap-device I/O errors and transient
//!   syscall errors, armed per-case so corruption provably lands as a
//!   clean capability fault, never a host panic.
//!
//! ```
//! use cheriabi::{System, guest::GuestOps};
//! use cheriabi::{AbiMode, ExitStatus, SpawnOpts};
//! use cheri_isa::codegen::{CodegenOpts, FnBuilder, Val};
//! use cheri_rtld::ProgramBuilder;
//!
//! let mut pb = ProgramBuilder::new("answer");
//! let mut exe = pb.object("answer");
//! {
//!     let mut f = FnBuilder::begin(&mut exe, "main", CodegenOpts::purecap());
//!     f.li(Val(0), 42);
//!     f.sys_exit(Val(0));
//! }
//! exe.set_entry("main");
//! pb.add(exe.finish());
//! let program = pb.finish();
//!
//! let mut sys = System::new();
//! let (status, _console) = sys
//!     .kernel
//!     .run_program(&program, &SpawnOpts::new(AbiMode::CheriAbi))
//!     .unwrap();
//! assert_eq!(status, ExitStatus::Code(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod debug;
pub mod fault;
pub mod fleet;
pub mod guest;
pub mod harness;
pub mod json;
pub mod spec;
pub mod trace;
pub mod verify;

use cheri_kernel::{Kernel, KernelConfig};

pub use cheri_cap::{CapFault, CapFormat, CapSource, Capability, Perms, PrincipalId};
pub use cheri_cpu::{CpuStats, TrapCause};
pub use cheri_kernel::{
    AbiMode, Errno, ExitStatus, Pid, PtraceOp, RunOutcome, SpawnOpts, Sys, SIGPROT,
};
pub use cheri_mem::MemStats;
pub use cheri_rtld::{Program, ProgramBuilder};

/// Metrics snapshot for one measured run (the Figure 4 quantities).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles (pipeline + memory stalls + kernel charges).
    pub cycles: u64,
    /// L2 cache misses.
    pub l2_misses: u64,
    /// Syscalls performed.
    pub syscalls: u64,
}

impl Metrics {
    /// Ratio of this run's metric to a baseline, as `(self / base)`.
    #[must_use]
    pub fn overhead_vs(&self, base: &Metrics) -> MetricOverheads {
        fn ratio(a: u64, b: u64) -> f64 {
            if b == 0 {
                1.0
            } else {
                a as f64 / b as f64
            }
        }
        MetricOverheads {
            instructions: ratio(self.instructions, base.instructions),
            cycles: ratio(self.cycles, base.cycles),
            l2_misses: ratio(self.l2_misses, base.l2_misses),
        }
    }
}

/// Ratios relative to a baseline run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricOverheads {
    /// Instruction ratio.
    pub instructions: f64,
    /// Cycle ratio.
    pub cycles: f64,
    /// L2-miss ratio.
    pub l2_misses: f64,
}

/// What one scenario run produced (see [`System::run_scenario`]).
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Exit status of the scenario's main process.
    pub status: ExitStatus,
    /// Main-process console output (clients write binary stamps to their
    /// own consoles, harvested separately into `latencies`).
    pub console: String,
    /// Metrics consumed by the whole process tree.
    pub metrics: Metrics,
    /// Blocked-process diagnostics if the scheduler declared deadlock.
    pub deadlock: Option<String>,
    /// Per-request enqueue→reply latencies in guest cycles, concatenated
    /// client by client in pid order.
    pub latencies: Vec<u64>,
}

/// A booted machine.
pub struct System {
    /// The kernel (owns the CPU and VM).
    pub kernel: Kernel,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "System{{{:?}}}", self.kernel)
    }
}

impl Default for System {
    fn default() -> Self {
        System::new()
    }
}

impl System {
    /// Boots with the default configuration (128-bit capabilities, 64 MiB
    /// of physical memory, kernel capability discipline on).
    #[must_use]
    pub fn new() -> System {
        System {
            kernel: Kernel::new(KernelConfig::default()),
        }
    }

    /// Boots with an explicit configuration.
    #[must_use]
    pub fn with_config(config: KernelConfig) -> System {
        System {
            kernel: Kernel::new(config),
        }
    }

    /// Runs `program` and returns its exit status, console output and the
    /// metrics consumed by the run (counters are snapshotted around it).
    ///
    /// # Errors
    ///
    /// Propagates load failures.
    pub fn measure(
        &mut self,
        program: &Program,
        opts: &SpawnOpts,
    ) -> Result<(ExitStatus, String, Metrics), cheri_rtld::LoadError> {
        let c0 = self.kernel.cpu.stats;
        let m0 = self.kernel.cpu.caches.stats();
        let (status, console) = self.kernel.run_program(program, opts)?;
        let c1 = self.kernel.cpu.stats;
        let m1 = self.kernel.cpu.caches.stats();
        Ok((
            status,
            console,
            Metrics {
                instructions: c1.instret - c0.instret,
                cycles: c1.cycles - c0.cycles,
                l2_misses: m1.l2_misses - m0.l2_misses,
                syscalls: c1.syscalls - c0.syscalls,
            },
        ))
    }

    /// Runs a multi-tenant scenario program (`ProgramSpec::Scenario`
    /// lowerings) and harvests its per-request latency stamps.
    ///
    /// The program's process tree is fixed by construction: the spawned
    /// process (`main`) forks the server first and then each client in
    /// order, so the clients occupy pids `main + 2 .. main + 2 + clients`.
    /// Each client writes its latency array — one little-endian `u64` of
    /// guest cycles per completed request — to its console fd, which this
    /// method decodes from the *raw* console bytes (the lossy UTF-8 view
    /// would corrupt the binary stamps).
    ///
    /// # Errors
    ///
    /// Propagates load failures.
    pub fn run_scenario(
        &mut self,
        program: &Program,
        opts: &SpawnOpts,
        clients: u64,
    ) -> Result<ScenarioRun, cheri_rtld::LoadError> {
        // Hold the core on plain stepping, as the fault plane does.
        // Exactness does not need it: a `Sys::Cycles` stamp is a syscall,
        // which no template holds, and a template settles its cycles
        // before the stepper resumes. The hold only keeps scenarios on the
        // tier their recorded runs used.
        self.kernel.cpu.set_exact_mem_events(true);
        let c0 = self.kernel.cpu.stats;
        let m0 = self.kernel.cpu.caches.stats();
        let main = self.kernel.spawn(program, opts)?;
        let budget = self.kernel.process(main).instr_budget;
        let outcome = self.kernel.run(budget);
        let deadlock = (outcome == RunOutcome::Deadlock).then(|| self.kernel.blocked_diagnostics());
        let status = self
            .kernel
            .exit_status(main)
            .unwrap_or(ExitStatus::BudgetExhausted);
        let console = self.kernel.process(main).console_string();
        let c1 = self.kernel.cpu.stats;
        let m1 = self.kernel.cpu.caches.stats();
        let mut latencies = Vec::new();
        for i in 0..clients {
            let Some(client) = self.kernel.try_process(Pid(main.0 + 2 + i)) else {
                continue;
            };
            latencies.extend(
                client
                    .console
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
            );
        }
        Ok(ScenarioRun {
            status,
            console,
            metrics: Metrics {
                instructions: c1.instret - c0.instret,
                cycles: c1.cycles - c0.cycles,
                l2_misses: m1.l2_misses - m0.l2_misses,
                syscalls: c1.syscalls - c0.syscalls,
            },
            deadlock,
            latencies,
        })
    }

    /// Enables capability-derivation tracing (Figure 5).
    pub fn enable_tracing(&mut self) {
        self.kernel.cpu.trace.enabled = true;
    }

    /// The collected derivation events as a size distribution.
    #[must_use]
    pub fn capability_histogram(&self) -> trace::SizeCdf {
        trace::SizeCdf::from_events(self.kernel.cpu.trace.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::GuestOps;
    use cheri_isa::codegen::{CodegenOpts, FnBuilder, Val};

    #[test]
    fn measure_reports_positive_metrics() {
        let mut pb = ProgramBuilder::new("m");
        let mut exe = pb.object("m");
        {
            let mut f = FnBuilder::begin(&mut exe, "main", CodegenOpts::purecap());
            f.li(Val(0), 0);
            f.sys_exit(Val(0));
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        let program = pb.finish();
        let mut sys = System::new();
        let (status, _, m) = sys
            .measure(&program, &SpawnOpts::new(AbiMode::CheriAbi))
            .unwrap();
        assert_eq!(status, ExitStatus::Code(0));
        assert!(m.instructions >= 3);
        assert!(m.cycles > m.instructions);
        assert_eq!(m.syscalls, 1);
    }

    #[test]
    fn overhead_ratios() {
        let a = Metrics {
            instructions: 110,
            cycles: 220,
            l2_misses: 10,
            syscalls: 0,
        };
        let b = Metrics {
            instructions: 100,
            cycles: 200,
            l2_misses: 10,
            syscalls: 0,
        };
        let o = a.overhead_vs(&b);
        assert!((o.instructions - 1.1).abs() < 1e-9);
        assert!((o.cycles - 1.1).abs() < 1e-9);
        assert!((o.l2_misses - 1.0).abs() < 1e-9);
    }
}
