//! The kernel proper: state, copyin/copyout, scheduler and trap handling.
//!
//! Processes live in a dense table indexed by pid (pids start at 1 and are
//! never reused), so every per-syscall process lookup is an index; so is
//! every pipe lookup. Shared-memory keys and signal handlers sit in
//! [`cheri_mem::IntMap`]s; syscall counts are one
//! counter per syscall number. See DESIGN.md, "Dense tables and the one
//! hasher".

use crate::abi::{AbiMode, Errno, Sys};
use crate::costs;
use crate::process::{ExitStatus, FileDesc, Pid, ProcState, Process, WaitReason};
use crate::signal::SIGPROT;
use cheri_alloc::AllocEvidence;
use cheri_cap::{CapFormat, Capability, Perms, PrincipalAllocator};
use cheri_cpu::{Cpu, Exit, TrapCause, TrapInfo};
use cheri_mem::{IntMap, PAddr, FRAME_SIZE};
use cheri_vm::{Access, AsId, Vm, VmError};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Global kernel configuration, including the design-choice toggles used by
/// the ablation benchmarks (DESIGN.md D1/D4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Capability format for all address spaces (D1).
    pub cap_fmt: CapFormat,
    /// Physical frames available.
    pub phys_frames: usize,
    /// D4: when `true` (the paper's design), the kernel accesses CheriABI
    /// user memory only through user-provided capabilities; when `false`,
    /// it falls back to the address-space-wide capability, re-enabling
    /// confused-deputy attacks (used by tests to show what D4 buys).
    pub kernel_cap_discipline: bool,
    /// Scheduler quantum in instructions.
    pub quantum: u64,
    /// Default per-process instruction budget (runaway guard).
    pub default_instr_budget: u64,
    /// Pipe buffer capacity in bytes; writers block when the buffer is
    /// full (POSIX `PIPE_BUF`-style backpressure).
    pub pipe_capacity: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cap_fmt: CapFormat::C128,
            phys_frames: 16 * 1024, // 64 MiB
            kernel_cap_discipline: true,
            quantum: 100_000,
            default_instr_budget: 2_000_000_000,
            pipe_capacity: 4096,
        }
    }
}

/// Aggregate kernel statistics.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Syscalls dispatched, by call.
    pub syscalls: SyscallCounts,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Signals delivered.
    pub signals_delivered: u64,
    /// Traps (capability + VM) observed.
    pub traps: u64,
    /// Processes spawned.
    pub spawns: u64,
    /// Blocked processes woken by the scheduler.
    pub wakes: u64,
    /// Processes put to sleep on a wait condition.
    pub blocks: u64,
    /// Deepest run-queue occupancy observed.
    pub max_runq_depth: u64,
}

/// Syscalls dispatched, one counter per [`Sys`], indexed by its number.
#[derive(Clone, Debug)]
pub struct SyscallCounts([u64; Sys::MAX_NUMBER as usize + 1]);

impl Default for SyscallCounts {
    fn default() -> Self {
        SyscallCounts([0; Sys::MAX_NUMBER as usize + 1])
    }
}

impl SyscallCounts {
    pub(crate) fn bump(&mut self, sys: Sys) {
        self.0[sys as usize] += 1;
    }

    /// Calls of `sys` dispatched so far.
    #[must_use]
    pub fn get(&self, sys: Sys) -> u64 {
        self.0[sys as usize]
    }

    /// Every counter, in syscall-number order; numbers no syscall has
    /// read 0.
    pub fn values(&self) -> impl Iterator<Item = &u64> {
        self.0.iter()
    }
}

/// Schedule for injected transient syscall errors (the fault plane's third
/// family). Counters are global across processes so a (seed, plan) pair
/// deterministically picks the same victim call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SyscallFaultSpec {
    /// Inject `EINTR` on the Nth eligible syscall (1-based): the kernel
    /// restarts the call transparently (rewind + re-dispatch).
    pub eintr_at: Option<u64>,
    /// Inject `ENOMEM` on the Nth eligible syscall (1-based): the guest
    /// observes the errno.
    pub enomem_at: Option<u64>,
}

/// Armed spec plus observability counters for syscall fault injection.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyscallFaults {
    pub(crate) spec: SyscallFaultSpec,
    /// Eligible syscalls observed (excludes `exit`/`sigreturn`, which must
    /// never be interrupted).
    pub calls: u64,
    /// `EINTR` restarts performed.
    pub eintr_injected: u64,
    /// `ENOMEM` errors delivered.
    pub enomem_injected: u64,
}

impl SyscallFaults {
    /// True if any injected syscall fault has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.eintr_injected + self.enomem_injected > 0
    }
}

/// A pipe's kernel state.
#[derive(Debug, Default)]
pub(crate) struct Pipe {
    pub buf: VecDeque<u8>,
    pub capacity: usize,
    pub readers: usize,
    pub writers: usize,
    /// The pipe's wait channel: processes that blocked reading or writing
    /// it and failed their last re-check. Every event that can satisfy
    /// such a wait moves them to [`Kernel::wake_check`]. May hold stale
    /// pids (killed, or since blocked elsewhere); the re-check drops them.
    pub sleepers: Vec<Pid>,
}

impl Pipe {
    /// Bytes the buffer can still accept.
    pub(crate) fn space(&self) -> usize {
        self.capacity.saturating_sub(self.buf.len())
    }
}

/// Every pipe ever created, indexed by `id − 1`. Ids come from the
/// table's length, so they start at 1 and are never reused: a pipe whose
/// ends are all closed leaves `None` behind, and a stale id finds nothing.
#[derive(Default)]
pub(crate) struct PipeTable(Vec<Option<Pipe>>);

impl PipeTable {
    fn slot(id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(1)?).ok()
    }

    /// Adds `pipe` and returns its id.
    pub(crate) fn push(&mut self, pipe: Pipe) -> u64 {
        self.0.push(Some(pipe));
        self.0.len() as u64
    }

    pub(crate) fn get(&self, id: u64) -> Option<&Pipe> {
        self.0.get(Self::slot(id)?)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut Pipe> {
        self.0.get_mut(Self::slot(id)?)?.as_mut()
    }

    pub(crate) fn remove(&mut self, id: u64) {
        if let Some(slot) = Self::slot(id).and_then(|i| self.0.get_mut(i)) {
            *slot = None;
        }
    }
}

/// Result of running the scheduler to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every process exited.
    AllExited,
    /// Runnable work remains but the global instruction budget ran out.
    GlobalBudget,
    /// Only blocked processes remain and none can make progress.
    Deadlock,
}

/// A user pointer as presented by a process: a full capability (CheriABI)
/// or a bare integer address (legacy).
#[derive(Clone, Copy, Debug)]
pub enum UserRef {
    /// CheriABI: the user's capability, used directly (Figure 3).
    Cap(Capability),
    /// Legacy: an address the kernel must wrap in its own authority.
    Addr(u64),
}

impl UserRef {
    /// The referenced address.
    #[must_use]
    pub fn addr(&self) -> u64 {
        match self {
            UserRef::Cap(c) => c.addr(),
            UserRef::Addr(a) => *a,
        }
    }

    /// Whether this is a NULL pointer (untagged + zero for CheriABI).
    #[must_use]
    pub fn is_null(&self) -> bool {
        match self {
            UserRef::Cap(c) => !c.tag() && c.addr() == 0,
            UserRef::Addr(a) => *a == 0,
        }
    }
}

/// The process table: every process ever spawned, indexed by `pid − 1`.
/// Pids come from the table's length, so they start at 1 and are never
/// reused, and an exited process keeps its entry (its exit status and
/// console stay readable).
#[derive(Default)]
pub(crate) struct ProcTable(Vec<Process>);

impl ProcTable {
    fn slot(pid: Pid) -> Option<usize> {
        usize::try_from(pid.0.checked_sub(1)?).ok()
    }

    /// The pid the next [`ProcTable::push`] must carry.
    pub(crate) fn next_pid(&self) -> Pid {
        Pid(self.0.len() as u64 + 1)
    }

    pub(crate) fn push(&mut self, p: Process) {
        debug_assert_eq!(p.pid, self.next_pid());
        self.0.push(p);
    }

    pub(crate) fn get(&self, pid: Pid) -> Option<&Process> {
        self.0.get(Self::slot(pid)?)
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.0.get_mut(Self::slot(pid)?)
    }

    /// Every process, in pid order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Process> {
        self.0.iter()
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// The simulated CheriBSD kernel: one [`Vm`], one [`Cpu`] and the process
/// table they run, which keeps every process ever spawned (exited ones
/// included) at index `pid − 1`.
pub struct Kernel {
    /// Virtual-memory subsystem.
    pub vm: Vm,
    /// The CPU.
    pub cpu: Cpu,
    /// Configuration.
    pub config: KernelConfig,
    /// Statistics.
    pub stats: KernelStats,
    pub(crate) procs: ProcTable,
    pub(crate) runq: VecDeque<Pid>,
    pub(crate) principals: PrincipalAllocator,
    pub(crate) pipes: PipeTable,
    /// In-memory filesystem (path -> bytes).
    pub memfs: BTreeMap<String, Vec<u8>>,
    pub(crate) shm: IntMap<u64, u64>,
    pub(crate) syscall_faults: SyscallFaults,
    /// Blocked pids whose wait condition may have become true since their
    /// last check: newly blocked ones, the sleepers of a pipe that saw an
    /// event, and parents of exited children. The next
    /// [`Kernel::wake_ready`] re-checks exactly these (plus `pollers`).
    pub(crate) wake_check: Vec<Pid>,
    /// `kevent`/`select` sleepers. Their readiness spans many fds, so
    /// rather than registering on each they are re-checked before every
    /// slice.
    pollers: Vec<Pid>,
    faults_charged: u64,
    swaps_charged: u64,
    /// Hardened-membrane evidence aggregated across all processes: drained
    /// from each allocator alongside its cycle charges (so the counters
    /// survive process reaping) plus kernel-level repairs. Deterministic —
    /// safe to surface on byte-identical report lines.
    pub membrane: AllocEvidence,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel{{procs={}, {:?}}}", self.procs.len(), self.stats)
    }
}

impl Kernel {
    /// Boots a kernel with `config`.
    #[must_use]
    pub fn new(config: KernelConfig) -> Kernel {
        Kernel {
            vm: Vm::new(config.phys_frames),
            cpu: Cpu::new(),
            config,
            stats: KernelStats::default(),
            procs: ProcTable::default(),
            runq: VecDeque::new(),
            principals: PrincipalAllocator::new(),
            pipes: PipeTable::default(),
            memfs: BTreeMap::new(),
            shm: IntMap::default(),
            syscall_faults: SyscallFaults::default(),
            wake_check: Vec::new(),
            pollers: Vec::new(),
            faults_charged: 0,
            swaps_charged: 0,
            membrane: AllocEvidence::default(),
        }
    }

    /// Arms transient syscall-error injection. Counters reset.
    pub fn arm_syscall_faults(&mut self, spec: SyscallFaultSpec) {
        self.syscall_faults = SyscallFaults {
            spec,
            ..SyscallFaults::default()
        };
    }

    /// Syscall fault-injection state and counters.
    #[must_use]
    pub fn syscall_faults(&self) -> &SyscallFaults {
        &self.syscall_faults
    }

    /// Access a process entry.
    ///
    /// # Panics
    ///
    /// Panics for unknown pids (kernel-internal identifiers).
    #[must_use]
    pub fn process(&self, pid: Pid) -> &Process {
        self.procs.get(pid).expect("unknown pid")
    }

    /// Mutable access to a process entry.
    ///
    /// # Panics
    ///
    /// Panics for unknown pids.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        self.procs.get_mut(pid).expect("unknown pid")
    }

    /// Non-panicking process lookup, for paths reachable with a stale or
    /// guest-supplied pid: `None` for pid 0 and for any pid not yet
    /// handed out. An exited process stays readable.
    #[must_use]
    pub fn try_process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(pid)
    }

    /// Non-panicking mutable process lookup.
    pub fn try_process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(pid)
    }

    /// The exit status of `pid` if it has finished.
    #[must_use]
    pub fn exit_status(&self, pid: Pid) -> Option<ExitStatus> {
        match self.procs.get(pid)?.state {
            ProcState::Exited(s) => Some(s),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // User-pointer plumbing (Figure 3)
    // ------------------------------------------------------------------

    /// Reads syscall argument `slot` as a user pointer, honouring the
    /// process ABI: CheriABI pointer arguments travel in `$c3+slot`,
    /// legacy ones in `$a<slot>` as integers.
    #[must_use]
    pub fn user_ref(&self, pid: Pid, slot: u8) -> UserRef {
        let p = self.process(pid);
        match p.abi {
            AbiMode::CheriAbi => UserRef::Cap(p.regs.c(cheri_isa::creg::arg(slot))),
            AbiMode::Mips64 => UserRef::Addr(p.regs.r(cheri_isa::ireg::arg(slot))),
        }
    }

    /// Reads integer syscall argument `slot` (`$a<slot>`).
    #[must_use]
    pub fn user_val(&self, pid: Pid, slot: u8) -> u64 {
        self.process(pid).regs.r(cheri_isa::ireg::arg(slot))
    }

    /// The capability the kernel will use to access user memory for this
    /// reference: the user's own capability under CheriABI discipline, or
    /// an address-space-wide kernel-constructed capability otherwise.
    fn access_cap(&mut self, pid: Pid, uref: UserRef) -> Capability {
        let (abi, space) = {
            let p = self.process(pid);
            (p.abi, p.space)
        };
        match (uref, abi, self.config.kernel_cap_discipline) {
            (UserRef::Cap(c), AbiMode::CheriAbi, true) => {
                self.cpu.charge(0, costs::CHERIABI_PTR_ARG);
                c
            }
            (uref, _, _) => {
                // Legacy path (or discipline disabled): construct authority
                // from the per-space root — the pre-CheriABI behaviour.
                self.cpu.charge(0, costs::LEGACY_PTR_ARG);
                let root = self.vm.space(space).root;
                root.with_addr(uref.addr())
            }
        }
    }

    /// Checks the authority for a `len`-byte copy through `uref` that
    /// needs `need`, and returns the space and address to copy at.
    ///
    /// # Errors
    ///
    /// `EFAULT` if the capability does not authorise the access.
    pub(crate) fn user_range(
        &mut self,
        pid: Pid,
        uref: UserRef,
        len: u64,
        need: Perms,
    ) -> Result<(AsId, u64), Errno> {
        let cap = self.access_cap(pid, uref);
        cap.check_access(cap.addr(), len, need)
            .map_err(|_| Errno::EFAULT)?;
        Ok((self.process(pid).space, cap.addr()))
    }

    /// Translates every page of `[addr, addr + len)` in `space` for
    /// reading, in ascending order, as a copy reading the range would, so
    /// the same faults and swap-ins happen. After it, every page of the
    /// range is resident and [`Kernel::read_user`] has no side effects.
    ///
    /// # Errors
    ///
    /// `EFAULT` at the first page that cannot be translated.
    pub(crate) fn fault_in_range(&mut self, space: AsId, addr: u64, len: u64) -> Result<(), Errno> {
        let end = addr.checked_add(len).ok_or(Errno::EFAULT)?;
        let mut va = addr;
        while va < end {
            self.cpu
                .translate_user(&mut self.vm, space, va, Access::Read)
                .map_err(|_| Errno::EFAULT)?;
            va = va - va % FRAME_SIZE + FRAME_SIZE;
        }
        Ok(())
    }

    /// Hands the bytes of `[addr, addr + len)` in `space` to `sink`, one
    /// page-bounded chunk at a time, straight from the frames. Every page
    /// must be resident ([`Kernel::fault_in_range`] since the last guest
    /// instruction).
    pub(crate) fn read_user(
        cpu: &mut Cpu,
        vm: &mut Vm,
        space: AsId,
        addr: u64,
        len: u64,
        mut sink: impl FnMut(&[u8]),
    ) {
        let mut done = 0;
        while done < len {
            let va = addr + done;
            let n = (FRAME_SIZE - va % FRAME_SIZE).min(len - done);
            let pa = cpu
                .translate_user(vm, space, va, Access::Read)
                .expect("a page fault_in_range translated");
            sink(vm.phys.bytes(pa, n as usize).expect("translated frame"));
            done += n;
        }
    }

    /// Charges a `len`-byte kernel copy.
    pub(crate) fn charge_copy(&mut self, len: u64) {
        self.cpu
            .charge(len / 8 + 4, len / 8 * costs::COPY_PER_8B + 20);
    }

    /// Copies `len` bytes in from user memory through `uref`. Every page
    /// is translated before the buffer is sized: a length the guest's
    /// memory does not back ends in `EFAULT`, never in a host allocation
    /// of that size.
    ///
    /// # Errors
    ///
    /// `EFAULT` if the capability does not authorise the read or the pages
    /// are absent/misprotected.
    pub fn copyin(&mut self, pid: Pid, uref: UserRef, len: u64) -> Result<Vec<u8>, Errno> {
        let (space, addr) = self.user_range(pid, uref, len, Perms::LOAD)?;
        self.fault_in_range(space, addr, len)?;
        let mut buf = Vec::with_capacity(len as usize);
        Self::read_user(&mut self.cpu, &mut self.vm, space, addr, len, |b| {
            buf.extend_from_slice(b);
        });
        self.charge_copy(len);
        Ok(buf)
    }

    /// Copies bytes out to user memory through `uref`. Tags are never set
    /// by this path (D5: ordinary copies strip capability tags).
    ///
    /// # Errors
    ///
    /// `EFAULT` on authorisation or paging failure.
    pub fn copyout(&mut self, pid: Pid, uref: UserRef, data: &[u8]) -> Result<(), Errno> {
        self.copyout_with(pid, uref, data.len() as u64, |dst, at| {
            dst.copy_from_slice(&data[at..at + dst.len()]);
        })
    }

    /// [`Kernel::copyout`] of `len` bytes that `fill(chunk, offset)` writes
    /// in place, one page-bounded chunk at a time: each page is translated
    /// for writing, then written, in ascending order, so a fault part-way
    /// leaves the pages before it written.
    ///
    /// # Errors
    ///
    /// `EFAULT` on authorisation or paging failure.
    pub(crate) fn copyout_with(
        &mut self,
        pid: Pid,
        uref: UserRef,
        len: u64,
        mut fill: impl FnMut(&mut [u8], usize),
    ) -> Result<(), Errno> {
        let (space, addr) = self.user_range(pid, uref, len, Perms::STORE)?;
        let mut done = 0;
        while done < len {
            let va = addr + done;
            let n = (FRAME_SIZE - va % FRAME_SIZE).min(len - done);
            let pa = self
                .cpu
                .translate_user(&mut self.vm, space, va, Access::Write)
                .map_err(|_| Errno::EFAULT)?;
            // `PhysMem::write_bytes_with` clears tags and counts one
            // mutation per page, as a byte copy does.
            self.vm
                .phys
                .write_bytes_with(pa, n as usize, |dst| fill(dst, done as usize))
                .expect("translated frame");
            done += n;
        }
        self.charge_copy(len);
        Ok(())
    }

    /// Copies a NUL-terminated string in (bounded by `max`).
    ///
    /// # Errors
    ///
    /// `EFAULT` on authorisation failure, `EINVAL` if unterminated.
    pub fn copyinstr(&mut self, pid: Pid, uref: UserRef, max: u64) -> Result<String, Errno> {
        let cap = self.access_cap(pid, uref);
        let space = self.process(pid).space;
        let mut out = Vec::new();
        let mut pa = PAddr(0);
        for i in 0..max {
            let va = cap.addr().checked_add(i).ok_or(Errno::EFAULT)?;
            cap.check_access(va, 1, Perms::LOAD)
                .map_err(|_| Errno::EFAULT)?;
            // One translation per page: the byte reads after it are
            // side-effect-free lookups of a resident page.
            pa = if i == 0 || va % FRAME_SIZE == 0 {
                self.cpu
                    .translate_user(&mut self.vm, space, va, Access::Read)
                    .map_err(|_| Errno::EFAULT)?
            } else {
                PAddr(pa.0 + 1)
            };
            let b = self.vm.phys.read_u8(pa).expect("translated frame");
            if b == 0 {
                self.cpu.charge(i + 4, i + 20);
                return Ok(String::from_utf8_lossy(&out).into_owned());
            }
            out.push(b);
        }
        Err(Errno::EINVAL)
    }

    /// Capability-preserving copyout used only by designated interfaces
    /// (kevent udata, signal frames): stores `cap` *with its tag* at the
    /// 16-aligned address referenced by `uref`.
    ///
    /// # Errors
    ///
    /// `EFAULT` on authorisation failure or misalignment.
    pub fn copyout_cap(&mut self, pid: Pid, uref: UserRef, cap: Capability) -> Result<(), Errno> {
        let access = self.access_cap(pid, uref);
        let size = access.format().in_memory_size();
        if !access.addr().is_multiple_of(size) {
            return Err(Errno::EFAULT);
        }
        access
            .check_access(access.addr(), size, Perms::STORE | Perms::STORE_CAP)
            .map_err(|_| Errno::EFAULT)?;
        let space = self.process(pid).space;
        self.vm
            .store_cap(space, access.addr(), cap)
            .map_err(|_| Errno::EFAULT)?;
        self.cpu.charge(4, 8);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pipes
    // ------------------------------------------------------------------

    pub(crate) fn pipe_readable(&self, id: u64) -> bool {
        self.pipes
            .get(id)
            .map(|p| !p.buf.is_empty() || p.writers == 0)
            .unwrap_or(true)
    }

    pub(crate) fn pipe_writable(&self, id: u64) -> bool {
        // Reader loss also "readies" a blocked writer: the retried write
        // then observes EINVAL instead of sleeping forever.
        self.pipes
            .get(id)
            .map(|p| p.space() > 0 || p.readers == 0)
            .unwrap_or(true)
    }

    pub(crate) fn fd_readable(&self, pid: Pid, fd: u64) -> bool {
        match self.process(pid).fd(fd) {
            Some(FileDesc::PipeRead(id)) => self.pipe_readable(*id),
            Some(FileDesc::Console) => false,
            Some(FileDesc::File { .. }) => true,
            Some(FileDesc::PipeWrite(_)) => false,
            None => true, // select reports error-ready; read returns EBADF
        }
    }

    // ------------------------------------------------------------------
    // Scheduler
    // ------------------------------------------------------------------

    fn wait_satisfied(&self, pid: Pid, reason: WaitReason) -> bool {
        match reason {
            WaitReason::PipeReadable(id) => self.pipe_readable(id),
            WaitReason::PipeWritable(id) => self.pipe_writable(id),
            WaitReason::Child(which) => {
                let p = self.process(pid);
                match which {
                    Some(c) => p.zombies.iter().any(|(z, _)| *z == c),
                    None => !p.zombies.is_empty() || p.children.is_empty(),
                }
            }
            WaitReason::Kevent => self
                .process(pid)
                .kq
                .iter()
                .any(|e| e.fired || self.fd_readable(pid, e.ident)),
            WaitReason::Select(bits) => {
                (0..64).any(|fd| bits >> fd & 1 == 1 && self.fd_readable(pid, fd))
            }
            WaitReason::Traced => false, // woken explicitly by the tracer
        }
    }

    /// Wakes every blocked process whose wait condition now holds, in
    /// ascending pid order (the run-queue order, and with it the whole
    /// schedule, must not depend on hash-map iteration order).
    ///
    /// Only the candidates on `wake_check` and `pollers` are re-checked.
    /// That wakes exactly the set a scan of every process would: a wait
    /// condition only becomes true through an event that notifies (pipe
    /// write, draining read, end dropped, child exit), each notify moves
    /// the affected sleepers to `wake_check`, and a candidate that is
    /// still unsatisfied goes back onto its channel. Debug builds check
    /// the result against the full scan after every call.
    fn wake_ready(&mut self) {
        let mut pids = std::mem::take(&mut self.wake_check);
        pids.append(&mut self.pollers);
        pids.sort_unstable();
        pids.dedup();
        for &pid in &pids {
            // Stale entries (woken by `kill`, already exited) drop out here.
            let Some(ProcState::Blocked(reason)) = self.try_process(pid).map(|p| p.state) else {
                continue;
            };
            if self.wait_satisfied(pid, reason) {
                self.stats.wakes += 1;
                self.process_mut(pid).state = ProcState::Runnable;
                if !self.runq.contains(&pid) {
                    self.runq.push_back(pid);
                }
            } else {
                self.sleep_on(pid, reason);
            }
        }
        // Nothing above notifies, so `wake_check` is still empty: keep
        // the allocation for the next slice.
        pids.clear();
        self.wake_check = pids;
        #[cfg(debug_assertions)]
        self.assert_no_missed_wake();
    }

    /// Registers blocked `pid` on the channel that will notify it. A
    /// `Child` wait needs none (`terminate` pushes the parent), and a
    /// `Traced` stop is ended only by its tracer.
    fn sleep_on(&mut self, pid: Pid, reason: WaitReason) {
        match reason {
            WaitReason::PipeReadable(id) | WaitReason::PipeWritable(id) => {
                // An unsatisfied pipe wait implies the pipe still exists.
                if let Some(p) = self.pipes.get_mut(id) {
                    if !p.sleepers.contains(&pid) {
                        p.sleepers.push(pid);
                    }
                }
            }
            WaitReason::Kevent | WaitReason::Select(_) => self.pollers.push(pid),
            WaitReason::Child(_) | WaitReason::Traced => {}
        }
    }

    /// The full scan the wait channels replace, kept as a check: after a
    /// `wake_ready`, no blocked process may have a satisfied condition.
    /// A failure names a notify point that is missing.
    #[cfg(debug_assertions)]
    fn assert_no_missed_wake(&self) {
        for p in self.procs.iter() {
            if let ProcState::Blocked(reason) = p.state {
                assert!(
                    !self.wait_satisfied(p.pid, reason),
                    "missed wake: {} is blocked on {reason:?}, which holds",
                    p.pid
                );
            }
        }
    }

    /// Runs the scheduler until every process exits, deadlock, or
    /// `max_total_instrs` retired instructions.
    pub fn run(&mut self, max_total_instrs: u64) -> RunOutcome {
        let start = self.cpu.stats.instret;
        loop {
            self.wake_ready();
            self.stats.max_runq_depth = self.stats.max_runq_depth.max(self.runq.len() as u64);
            let Some(pid) = self.runq.pop_front() else {
                if self
                    .procs
                    .iter()
                    .all(|p| matches!(p.state, ProcState::Exited(_)))
                {
                    return RunOutcome::AllExited;
                }
                // Blocked processes remain but nothing can wake them.
                return RunOutcome::Deadlock;
            };
            if !matches!(self.process(pid).state, ProcState::Runnable) {
                continue;
            }
            if self.cpu.stats.instret - start > max_total_instrs {
                self.runq.push_front(pid);
                return RunOutcome::GlobalBudget;
            }
            self.stats.ctx_switches += 1;
            self.cpu.charge(0, costs::CONTEXT_SWITCH);
            self.deliver_pending_signal(pid);
            if !matches!(self.process(pid).state, ProcState::Runnable) {
                continue;
            }
            // Per-process ledger: every cycle the CPU retires during this
            // slice — guest instructions plus kernel work done on its
            // behalf — is charged to the process that was scheduled.
            let cycles_before = self.cpu.stats.cycles;
            self.run_slice(pid);
            let delta = self.cpu.stats.cycles - cycles_before;
            if let Some(p) = self.try_process_mut(pid) {
                p.cycles += delta;
            }
        }
    }

    fn run_slice(&mut self, pid: Pid) {
        let quantum = self.config.quantum.min(self.process(pid).instr_budget);
        if quantum == 0 {
            self.terminate(pid, ExitStatus::BudgetExhausted);
            return;
        }
        let exit = {
            // The CPU runs on the process's own register file, in place.
            let p = self.procs.get_mut(pid).expect("unknown pid");
            let before = self.cpu.stats.instret;
            let exit = self.cpu.run(&mut self.vm, p.space, &mut p.regs, quantum);
            let used = self.cpu.stats.instret - before;
            p.instr_budget = p.instr_budget.saturating_sub(used);
            // Any slice that does not end in a swap-I/O trap clears the
            // retry site: a later error at the same site gets a fresh retry.
            if !matches!(
                exit,
                Exit::Trap(TrapInfo {
                    cause: TrapCause::Vm(VmError::SwapIo(_)),
                    ..
                })
            ) {
                p.swap_retry = None;
            }
            exit
        };
        self.charge_vm_work();
        match exit {
            Exit::Syscall => self.handle_syscall(pid),
            Exit::Break => {
                let status = if self.process(pid).asan {
                    ExitStatus::SanitizerAbort
                } else {
                    ExitStatus::Signaled(6)
                };
                self.terminate(pid, status);
            }
            Exit::Trap(t) => self.handle_trap(pid, t),
            Exit::InstrLimit => {
                if self.process(pid).instr_budget == 0 {
                    self.terminate(pid, ExitStatus::BudgetExhausted);
                } else {
                    self.runq.push_back(pid);
                }
            }
        }
    }

    fn charge_vm_work(&mut self) {
        let f = self.vm.stats.faults;
        let s = self.vm.stats.swap_ins + self.vm.stats.swap_outs;
        if f > self.faults_charged {
            self.cpu
                .charge(0, (f - self.faults_charged) * costs::PAGE_FAULT);
            self.faults_charged = f;
        }
        if s > self.swaps_charged {
            self.cpu
                .charge(0, (s - self.swaps_charged) * costs::SWAP_PER_PAGE);
            self.swaps_charged = s;
        }
    }

    fn handle_trap(&mut self, pid: Pid, trap: TrapInfo) {
        self.stats.traps += 1;
        if self.try_process(pid).is_none() {
            return;
        }
        // Swap-device I/O errors are transient by contract: retry the
        // faulting access once (the CPU left pc at the instruction, so
        // re-running re-enters swap-in); a second failure at the same
        // (pc, vaddr) site becomes SIGBUS — never a host panic, and never
        // the SIGPROT handler path, which is for capability faults.
        if let TrapCause::Vm(VmError::SwapIo(vaddr)) = trap.cause {
            let site = (trap.pc, vaddr);
            let p = self.process_mut(pid);
            if p.swap_retry != Some(site) {
                p.swap_retry = Some(site);
                p.regs.pc = trap.pc;
                if !self.runq.contains(&pid) {
                    self.runq.push_back(pid);
                }
                return;
            }
            self.terminate(pid, ExitStatus::Signaled(crate::signal::SIGBUS));
            return;
        }
        // VM faults the pager could not service transparently and all
        // capability faults become a synchronous SIGPROT-style signal; with
        // no handler installed, the process dies recording the cause.
        let has_handler = self.process(pid).sighandlers.contains_key(&SIGPROT);
        let fatal_vm = matches!(
            trap.cause,
            TrapCause::Vm(VmError::OutOfMemory) | TrapCause::NoCode
        );
        if has_handler && !fatal_vm {
            self.process_mut(pid).pending_signals.push_back(SIGPROT);
            // Skip the faulting instruction on handler return: store the
            // resumption pc past the fault (matching our corpus handlers'
            // expectations; real handlers would inspect the mcontext).
            let p = self.process_mut(pid);
            p.regs.pc = trap.pc.wrapping_add(4);
            if !self.runq.contains(&pid) {
                self.runq.push_back(pid);
            }
            return;
        }
        self.terminate(pid, ExitStatus::Fault(trap.cause));
    }

    /// Terminates a process: releases fds, notifies the parent, reaps the
    /// address space.
    pub(crate) fn terminate(&mut self, pid: Pid, status: ExitStatus) {
        let (space, fds, parent, evidence) = {
            let p = self.process_mut(pid);
            if matches!(p.state, ProcState::Exited(_)) {
                return;
            }
            p.state = ProcState::Exited(status);
            (
                p.space,
                std::mem::take(&mut p.fds),
                p.parent,
                p.allocator.take_evidence(),
            )
        };
        // Evidence must survive the process: fold any undrained counters
        // into the kernel aggregate before the allocator is dropped.
        self.membrane.absorb(evidence);
        for fd in fds.into_iter().flatten() {
            self.drop_fd(fd);
        }
        if let Some(pp) = parent {
            if let Some(parent_proc) = self.procs.get_mut(pp) {
                parent_proc.children.retain(|c| *c != pid);
                parent_proc.zombies.push((pid, status));
                // The parent's `Child` wait may now hold.
                self.wake_check.push(pp);
            }
        }
        self.cpu.clear_code(space);
        // destroy_space queues a shootdown of the whole space; the Cpu's
        // TLB drops the space's entries before its next use.
        self.vm.destroy_space(space);
    }

    pub(crate) fn drop_fd(&mut self, fd: FileDesc) {
        let (id, reader) = match fd {
            FileDesc::PipeRead(id) => (id, true),
            FileDesc::PipeWrite(id) => (id, false),
            FileDesc::Console | FileDesc::File { .. } => return,
        };
        let Some(p) = self.pipes.get_mut(id) else {
            return;
        };
        if reader {
            p.readers -= 1;
        } else {
            p.writers -= 1;
        }
        // A lost end readies the other side (EOF for readers, EINVAL for
        // writers); this also covers removal of the pipe itself.
        self.wake_check.append(&mut p.sleepers);
        if p.readers == 0 && p.writers == 0 {
            self.pipes.remove(id);
        }
    }

    /// Blocks `pid` on `reason`; the in-flight syscall is re-executed when
    /// the condition becomes true (the dispatcher is idempotent until it
    /// commits results). The pid goes on `wake_check`: the next
    /// `wake_ready` either wakes it or registers it on its wait channel.
    pub(crate) fn block(&mut self, pid: Pid, reason: WaitReason) {
        // Rewind pc to the syscall instruction so waking re-executes it.
        self.stats.blocks += 1;
        let p = self.process_mut(pid);
        p.regs.pc = p.regs.pc.wrapping_sub(4);
        p.state = ProcState::Blocked(reason);
        self.wake_check.push(pid);
    }

    /// Human-readable snapshot of every non-exited process's scheduling
    /// state, sorted by pid — the diagnostic attached to
    /// [`RunOutcome::Deadlock`] reports so a hung scenario names exactly
    /// who is waiting on what.
    #[must_use]
    pub fn blocked_diagnostics(&self) -> String {
        let mut parts = Vec::new();
        for p in self.procs.iter() {
            let pid = p.pid;
            let line = match p.state {
                ProcState::Exited(_) => continue,
                ProcState::Runnable => format!("{pid}: runnable"),
                ProcState::Blocked(reason) => match reason {
                    WaitReason::PipeReadable(id) => format!("{pid}: pipe-read({id})"),
                    WaitReason::PipeWritable(id) => format!("{pid}: pipe-write({id})"),
                    WaitReason::Child(Some(c)) => format!("{pid}: wait({c})"),
                    WaitReason::Child(None) => format!("{pid}: wait(any)"),
                    WaitReason::Kevent => format!("{pid}: kevent"),
                    WaitReason::Select(bits) => format!("{pid}: select({bits:#x})"),
                    WaitReason::Traced => format!("{pid}: traced"),
                },
            };
            parts.push(line);
        }
        parts.join("; ")
    }

    /// Drains allocator charges into the CPU counters and membrane
    /// evidence into the kernel aggregate.
    pub(crate) fn charge_allocator(&mut self, pid: Pid) {
        let p = self.process_mut(pid);
        let (i, c) = p.allocator.take_charges();
        let ev = p.allocator.take_evidence();
        self.membrane.absorb(ev);
        self.cpu.charge(i, c);
    }
}
