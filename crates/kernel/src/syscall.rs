//! The system-call dispatcher: the CheriABI kernel/user boundary (§4).

use crate::abi::{AbiMode, Errno, Sys};
use crate::costs;
use crate::kernel::{Kernel, Pipe, UserRef};
use crate::process::{ExitStatus, FileDesc, KqEntry, Pid, ProcState, Process, WaitReason};
use cheri_cap::{CapSource, Capability, Perms};
use cheri_isa::{creg, ireg};
use cheri_vm::{Backing, Prot};
use std::collections::VecDeque;

/// Non-value outcomes of a syscall.
pub(crate) enum SysFlow {
    /// Fail with errno.
    Err(Errno),
    /// Block and retry when the condition holds.
    Block(WaitReason),
    /// The process exited inside the call.
    Exited,
}

impl From<Errno> for SysFlow {
    fn from(e: Errno) -> SysFlow {
        SysFlow::Err(e)
    }
}

type SysRet = Result<u64, SysFlow>;

fn err(e: Errno) -> SysFlow {
    SysFlow::Err(e)
}

/// Copies the ring's bytes `at..at + dst.len()` into `dst`.
fn copy_from_ring(ring: &VecDeque<u8>, at: usize, dst: &mut [u8]) {
    let (front, back) = ring.as_slices();
    let n = dst.len();
    if at < front.len() {
        let k = (front.len() - at).min(n);
        dst[..k].copy_from_slice(&front[at..at + k]);
        dst[k..].copy_from_slice(&back[..n - k]);
    } else {
        let at = at - front.len();
        dst.copy_from_slice(&back[at..at + n]);
    }
}

fn uref_add(uref: UserRef, off: u64) -> UserRef {
    match uref {
        UserRef::Cap(c) => UserRef::Cap(c.inc_addr(off as i64)),
        UserRef::Addr(a) => UserRef::Addr(a.wrapping_add(off)),
    }
}

impl Kernel {
    pub(crate) fn handle_syscall(&mut self, pid: Pid) {
        let num = self.process(pid).regs.r(ireg::V0);
        // Runtime services (malloc/free/realloc) are userspace library
        // calls in reality; they pay only their own modelled cost, not the
        // kernel trap overhead.
        let is_runtime = matches!(
            Sys::from_number(num),
            Some(Sys::RtMalloc | Sys::RtFree | Sys::RtRealloc)
        );
        self.cpu
            .charge(0, if is_runtime { 12 } else { costs::SYSCALL_BASE });
        // Fault plane: transient syscall errors. `exit` and `sigreturn` are
        // never interrupted (neither is restartable).
        if let Some(sys) = Sys::from_number(num) {
            if !matches!(sys, Sys::Exit | Sys::Sigreturn) {
                self.syscall_faults.calls += 1;
                let calls = self.syscall_faults.calls;
                if Some(calls) == self.syscall_faults.spec.eintr_at {
                    // EINTR with kernel restart semantics: rewind pc to the
                    // syscall instruction and requeue; the retried call is
                    // transparent to the guest.
                    self.syscall_faults.eintr_injected += 1;
                    let p = self.process_mut(pid);
                    p.regs.pc = p.regs.pc.wrapping_sub(4);
                    self.requeue(pid);
                    return;
                }
                if Some(calls) == self.syscall_faults.spec.enomem_at {
                    // ENOMEM is guest-visible: delivered as the errno.
                    self.syscall_faults.enomem_injected += 1;
                    self.process_mut(pid)
                        .regs
                        .w(ireg::V0, Errno::ENOMEM.as_ret());
                    self.requeue(pid);
                    return;
                }
            }
        }
        let result: SysRet = match Sys::from_number(num) {
            None => Err(err(Errno::ENOSYS)),
            Some(sys) => {
                self.stats.syscalls.bump(sys);
                match sys {
                    Sys::Exit => {
                        let code = self.user_val(pid, 0) as i64;
                        self.terminate(pid, ExitStatus::Code(code));
                        Err(SysFlow::Exited)
                    }
                    Sys::Write => self.sys_write(pid),
                    Sys::Read => self.sys_read(pid),
                    Sys::Open => self.sys_open(pid),
                    Sys::Close => self.sys_close(pid),
                    Sys::Pipe => self.sys_pipe(pid),
                    Sys::Getpid => Ok(pid.0),
                    Sys::Fork => self.sys_fork(pid),
                    Sys::Waitpid => self.sys_waitpid(pid),
                    Sys::Mmap => self.sys_mmap(pid),
                    Sys::Munmap => self.sys_munmap(pid),
                    Sys::Shmget => self.sys_shmget(pid),
                    Sys::Shmat => self.sys_shmat(pid),
                    Sys::Shmdt => self.sys_shmdt(pid),
                    Sys::Sigaction => self.sys_sigaction(pid),
                    Sys::Sigreturn => {
                        if self.sigreturn(pid) {
                            self.requeue(pid);
                            return;
                        }
                        self.terminate(pid, ExitStatus::Signaled(crate::signal::SIGPROT));
                        Err(SysFlow::Exited)
                    }
                    Sys::Kill => self.sys_kill(pid),
                    Sys::Select => self.sys_select(pid),
                    Sys::KeventRegister => self.sys_kevent_register(pid),
                    Sys::KeventWait => self.sys_kevent_wait(pid),
                    Sys::Ptrace => self.sys_ptrace(pid).map_err(err),
                    // "We have excluded sbrk as a matter of principle" (§4).
                    Sys::Sbrk => Err(err(Errno::ENOSYS)),
                    Sys::Ioctl => self.sys_ioctl(pid),
                    Sys::Sysctl => self.sys_sysctl(pid),
                    Sys::Unlink => self.sys_unlink(pid),
                    Sys::Swapctl => self.sys_swapctl(pid),
                    Sys::RtMalloc => self.sys_rt_malloc(pid),
                    Sys::RtFree => self.sys_rt_free(pid),
                    Sys::RtRealloc => self.sys_rt_realloc(pid),
                    Sys::RtSetTemporal => {
                        let on = self.user_val(pid, 0) != 0;
                        self.process_mut(pid).allocator.set_temporal(on);
                        Ok(0)
                    }
                    Sys::RtRevoke => self.sys_rt_revoke(pid),
                    Sys::Mprotect => self.sys_mprotect(pid),
                    // The deterministic guest clock: identical across jobs,
                    // shards and execution modes, so enqueue→reply latency
                    // stamps are reproducible to the cycle.
                    Sys::Cycles => Ok(self.cpu.stats.cycles),
                }
            }
        };
        match result {
            Ok(v) => {
                self.process_mut(pid).regs.w(ireg::V0, v);
                self.requeue(pid);
            }
            Err(SysFlow::Err(e)) => {
                self.process_mut(pid).regs.w(ireg::V0, e.as_ret());
                self.requeue(pid);
            }
            Err(SysFlow::Block(reason)) => self.block(pid, reason),
            Err(SysFlow::Exited) => {}
        }
    }

    fn requeue(&mut self, pid: Pid) {
        if matches!(self.process(pid).state, ProcState::Runnable) && !self.runq.contains(&pid) {
            self.runq.push_back(pid);
        }
    }

    /// Sets the capability return value (`$c3`) for pointer-returning
    /// syscalls under CheriABI, and records the derivation.
    fn set_ret_cap(&mut self, pid: Pid, cap: Capability) {
        self.cpu.trace.record(&cap);
        if self.process(pid).abi == AbiMode::CheriAbi {
            self.process_mut(pid).regs.wc(creg::C3, cap);
        }
    }

    // ------------------------------------------------------------------
    // Files, pipes, console
    // ------------------------------------------------------------------

    /// Writes go from the guest's frames straight to their destination:
    /// every page of the buffer is translated and the copy charged first,
    /// as `copyin` would, and then only the bytes the destination takes
    /// are moved, without a host buffer.
    fn sys_write(&mut self, pid: Pid) -> SysRet {
        let fd = self.user_val(pid, 0);
        let buf = self.user_ref(pid, 1);
        let len = self.user_val(pid, 2);
        let (space, addr) = self.user_range(pid, buf, len, Perms::LOAD).map_err(err)?;
        self.fault_in_range(space, addr, len).map_err(err)?;
        self.charge_copy(len);
        match self.process(pid).fd(fd).cloned() {
            Some(FileDesc::Console) => {
                let console = &mut self.procs.get_mut(pid).expect("live pid").console;
                Self::read_user(&mut self.cpu, &mut self.vm, space, addr, len, |b| {
                    console.extend_from_slice(b);
                });
                Ok(len)
            }
            Some(FileDesc::PipeWrite(id)) => {
                let p = self.pipes.get_mut(id).ok_or(err(Errno::EBADF))?;
                if p.readers == 0 {
                    return Err(err(Errno::EINVAL)); // EPIPE-ish
                }
                // Bounded buffer: a full pipe blocks the writer until a
                // reader drains space; a partially full one takes what
                // fits and reports the short count (POSIX semantics).
                let space_left = p.space() as u64;
                if space_left == 0 {
                    return Err(SysFlow::Block(WaitReason::PipeWritable(id)));
                }
                let n = space_left.min(len);
                Self::read_user(&mut self.cpu, &mut self.vm, space, addr, n, |b| {
                    p.buf.extend(b);
                });
                self.wake_check.append(&mut p.sleepers);
                Ok(n)
            }
            Some(FileDesc::File {
                path,
                pos,
                writable,
            }) => {
                if !writable {
                    return Err(err(Errno::EPERM));
                }
                let file = self.memfs.entry(path.clone()).or_default();
                let mut at = pos as usize;
                let end = at + len as usize;
                if file.len() < end {
                    file.resize(end, 0);
                }
                Self::read_user(&mut self.cpu, &mut self.vm, space, addr, len, |b| {
                    file[at..at + b.len()].copy_from_slice(b);
                    at += b.len();
                });
                if let Some(Some(FileDesc::File { pos: p, .. })) =
                    self.process_mut(pid).fds.get_mut(fd as usize)
                {
                    *p += len;
                }
                Ok(len)
            }
            Some(FileDesc::PipeRead(_)) | None => Err(err(Errno::EBADF)),
        }
    }

    fn sys_read(&mut self, pid: Pid) -> SysRet {
        let fd = self.user_val(pid, 0);
        let buf = self.user_ref(pid, 1);
        let len = self.user_val(pid, 2);
        match self.process(pid).fd(fd).cloned() {
            Some(FileDesc::Console) => Ok(0),
            Some(FileDesc::PipeRead(id)) => {
                let p = self.pipes.get_mut(id).ok_or(err(Errno::EBADF))?;
                if p.buf.is_empty() {
                    if p.writers == 0 {
                        return Ok(0); // EOF
                    }
                    return Err(SysFlow::Block(WaitReason::PipeReadable(id)));
                }
                let n = (p.buf.len() as u64).min(len);
                self.wake_check.append(&mut p.sleepers);
                // The bytes go from the ring straight to the guest's
                // frames. They leave the pipe even if the copy faults.
                let mut ring = std::mem::take(&mut p.buf);
                let copied = self.copyout_with(pid, buf, n, |dst, at| {
                    copy_from_ring(&ring, at, dst);
                });
                ring.drain(..n as usize);
                self.pipes.get_mut(id).expect("pipe still open").buf = ring;
                copied.map_err(err)?;
                Ok(n)
            }
            Some(FileDesc::File { path, pos, .. }) => {
                let file = self.memfs.get(&path).ok_or(err(Errno::ENOENT))?;
                let avail = (file.len() as u64).saturating_sub(pos);
                let n = avail.min(len);
                let data = file[pos as usize..(pos + n) as usize].to_vec();
                self.copyout(pid, buf, &data).map_err(err)?;
                if let Some(Some(FileDesc::File { pos: p, .. })) =
                    self.process_mut(pid).fds.get_mut(fd as usize)
                {
                    *p += n;
                }
                Ok(n)
            }
            Some(FileDesc::PipeWrite(_)) | None => Err(err(Errno::EBADF)),
        }
    }

    fn sys_open(&mut self, pid: Pid) -> SysRet {
        const O_WRONLY: u64 = 1;
        const O_CREAT: u64 = 2;
        const O_TRUNC: u64 = 4;
        let path_ref = self.user_ref(pid, 0);
        let flags = self.user_val(pid, 1);
        let path = self.copyinstr(pid, path_ref, 4096).map_err(err)?;
        let exists = self.memfs.contains_key(&path);
        if !exists && flags & O_CREAT == 0 {
            return Err(err(Errno::ENOENT));
        }
        if !exists || flags & O_TRUNC != 0 {
            self.memfs.insert(path.clone(), Vec::new());
        }
        let fd = self.process_mut(pid).install_fd(FileDesc::File {
            path,
            pos: 0,
            writable: flags & O_WRONLY != 0,
        });
        Ok(fd)
    }

    fn sys_close(&mut self, pid: Pid) -> SysRet {
        let fd = self.user_val(pid, 0);
        let slot = self
            .process_mut(pid)
            .fds
            .get_mut(fd as usize)
            .and_then(Option::take)
            .ok_or(err(Errno::EBADF))?;
        self.drop_fd(slot);
        Ok(0)
    }

    fn sys_pipe(&mut self, pid: Pid) -> SysRet {
        let out = self.user_ref(pid, 0);
        let id = self.pipes.push(Pipe {
            buf: Default::default(),
            capacity: self.config.pipe_capacity,
            readers: 1,
            writers: 1,
            sleepers: Vec::new(),
        });
        let rfd = self.process_mut(pid).install_fd(FileDesc::PipeRead(id));
        let wfd = self.process_mut(pid).install_fd(FileDesc::PipeWrite(id));
        let mut bytes = [0u8; 8];
        bytes[..4].copy_from_slice(&(rfd as u32).to_le_bytes());
        bytes[4..].copy_from_slice(&(wfd as u32).to_le_bytes());
        self.copyout(pid, out, &bytes).map_err(err)?;
        Ok(0)
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    fn sys_fork(&mut self, pid: Pid) -> SysRet {
        let child_space = self
            .vm
            .fork_space(self.process(pid).space)
            .map_err(|_| err(Errno::ENOMEM))?;
        // COW made previously-writable parent pages read-shared;
        // fork_space bumped the translation epoch, so any stale write
        // translation dies on the next access.
        let pages = self.vm.space(child_space).pages.len() as u64;
        let child_pid = self.procs.next_pid();
        let parent = self.process(pid);
        let mut regs = parent.regs.clone();
        regs.w(ireg::V0, 0); // child returns 0
        let child = Process {
            pid: child_pid,
            parent: Some(pid),
            abi: parent.abi,
            space: child_space,
            principal: parent.principal,
            regs,
            state: ProcState::Runnable,
            allocator: parent.allocator.retarget(child_space),
            fds: parent.fds.clone(),
            sighandlers: parent.sighandlers.clone(),
            pending_signals: Default::default(),
            signal_frames: parent.signal_frames.clone(),
            console: Vec::new(),
            loaded: parent.loaded.clone(),
            trampoline_pc: parent.trampoline_pc,
            kq: Vec::new(),
            children: Vec::new(),
            zombies: Vec::new(),
            traced_by: None,
            swap_retry: None,
            instr_budget: parent.instr_budget,
            cycles: 0,
            asan: parent.asan,
            stack_top: parent.stack_top,
            stack_size: parent.stack_size,
        };
        // Bump pipe refcounts for inherited descriptors.
        for fdesc in child.fds.iter().flatten() {
            match fdesc {
                FileDesc::PipeRead(id) => {
                    if let Some(p) = self.pipes.get_mut(*id) {
                        p.readers += 1;
                    }
                }
                FileDesc::PipeWrite(id) => {
                    if let Some(p) = self.pipes.get_mut(*id) {
                        p.writers += 1;
                    }
                }
                _ => {}
            }
        }
        let parent_space = self.process(pid).space;
        self.cpu.clone_code(parent_space, child_space);
        self.procs.push(child);
        self.process_mut(pid).children.push(child_pid);
        self.runq.push_back(child_pid);
        // Cost model: base + per-page COW marking, with the CheriABI
        // capability-context surcharge (§5.2: fork 3.4% slower).
        let mut cycles = costs::FORK_BASE + pages * costs::FORK_PER_PAGE;
        if self.process(pid).abi == AbiMode::CheriAbi {
            cycles += costs::FORK_CHERI_EXTRA + pages * costs::FORK_CHERI_PER_PAGE;
        }
        self.cpu.charge(cycles / 2, cycles);
        Ok(child_pid.0)
    }

    fn sys_waitpid(&mut self, pid: Pid) -> SysRet {
        let which = self.user_val(pid, 0);
        let target = if which == 0 { None } else { Some(Pid(which)) };
        let p = self.process_mut(pid);
        let idx = p.zombies.iter().position(|(z, _)| match target {
            Some(t) => *z == t,
            None => true,
        });
        if let Some(i) = idx {
            let (zpid, status) = p.zombies.remove(i);
            // Encode the status in the classic (code << 8) | signal form.
            let enc = match status {
                ExitStatus::Code(c) => ((c as u64) & 0xff) << 8,
                ExitStatus::Signaled(s) => u64::from(s),
                ExitStatus::Fault(_) => u64::from(crate::signal::SIGPROT),
                ExitStatus::SanitizerAbort => 6,
                ExitStatus::BudgetExhausted => 0xff,
            };
            let _ = zpid;
            return Ok(enc);
        }
        // No exit can ever satisfy a wait for a pid that is not a live
        // child: POSIX answers ECHILD instead of sleeping forever.
        if p.children.is_empty() || target.is_some_and(|t| !p.children.contains(&t)) {
            return Err(err(Errno::ECHILD));
        }
        Err(SysFlow::Block(WaitReason::Child(target)))
    }

    fn sys_kill(&mut self, pid: Pid) -> SysRet {
        let target = Pid(self.user_val(pid, 0));
        let sig = self.user_val(pid, 1) as u8;
        let Some(t) = self.procs.get_mut(target) else {
            return Err(err(Errno::ESRCH));
        };
        if matches!(t.state, ProcState::Exited(_)) {
            return Err(err(Errno::ESRCH));
        }
        t.pending_signals.push_back(sig);
        if matches!(t.state, ProcState::Blocked(r) if r != WaitReason::Traced) {
            t.state = ProcState::Runnable;
        }
        if !self.runq.contains(&target) {
            self.runq.push_back(target);
        }
        Ok(0)
    }

    fn sys_sigaction(&mut self, pid: Pid) -> SysRet {
        let sig = self.user_val(pid, 0) as u8;
        let handler = self.user_ref(pid, 1);
        let p = self.process_mut(pid);
        if handler.is_null() {
            p.sighandlers.remove(&sig);
        } else {
            p.sighandlers.insert(sig, handler.addr());
        }
        Ok(0)
    }

    // ------------------------------------------------------------------
    // Memory management (§4 "Virtual-address management APIs")
    // ------------------------------------------------------------------

    fn sys_mmap(&mut self, pid: Pid) -> SysRet {
        const MAP_FIXED: u64 = 1;
        let hint = self.user_ref(pid, 0);
        let len = self.user_val(pid, 1);
        let prot_bits = self.user_val(pid, 2);
        let flags = self.user_val(pid, 3);
        if len == 0 {
            return Err(err(Errno::EINVAL));
        }
        let mut prot = Prot::NONE;
        if prot_bits & 1 != 0 {
            prot = prot.union(Prot::READ);
        }
        if prot_bits & 2 != 0 {
            prot = prot.union(Prot::WRITE);
        }
        if prot_bits & 4 != 0 {
            prot = prot.union(Prot::EXEC);
        }
        let (space, abi, hardened) = {
            let p = self.process(pid);
            (p.space, p.abi, p.allocator.hardened())
        };
        let fixed = flags & MAP_FIXED != 0;
        let hint_cap = match hint {
            UserRef::Cap(c) if c.tag() => Some(c),
            _ => None,
        };
        let start = if fixed {
            let addr = hint.addr();
            let may_replace = hint_cap
                .map(|c| {
                    c.perms().contains(Perms::VMMAP)
                        && c.check_access(addr, len, Perms::NONE).is_ok()
                })
                .unwrap_or(false);
            if self.vm.space(space).is_range_mapped(addr, len) {
                if abi == AbiMode::CheriAbi && !may_replace {
                    if hardened {
                        // Hardened membrane: clamped re-derivation. The
                        // fixed request would replace a mapping the caller
                        // holds no VMMAP authority over; instead of EPROT,
                        // re-derive it as a kernel-placed mapping and
                        // record the repair. Nothing is replaced.
                        self.process_mut(pid).allocator.note_repair();
                        self.charge_allocator(pid);
                        let start = self
                            .vm
                            .map(space, None, len, prot, Backing::Zero, "mmap")
                            .map_err(|_| err(Errno::ENOMEM))?;
                        let ret = self
                            .vm
                            .space(space)
                            .root
                            .with_addr(start)
                            .set_bounds(len.div_ceil(4096) * 4096, false)
                            .map_err(|_| err(Errno::EINVAL))?
                            .and_perms(prot.as_cap_perms())
                            .with_source(CapSource::Syscall);
                        self.set_ret_cap(pid, ret);
                        return Ok(start);
                    }
                    // "if the caller requests a fixed mapping, we allow it
                    // only if it would not replace an existing mapping."
                    return Err(err(Errno::EPROT));
                }
                self.vm
                    .unmap(space, addr, len.div_ceil(4096) * 4096)
                    .map_err(|_| err(Errno::EINVAL))?;
            }
            self.vm
                .map(space, Some(addr), len, prot, Backing::Zero, "mmap")
                .map_err(|_| err(Errno::ENOMEM))?
        } else {
            self.vm
                .map(space, None, len, prot, Backing::Zero, "mmap")
                .map_err(|_| err(Errno::ENOMEM))?
        };
        // Derive the returned capability: from the hint capability when one
        // was supplied ("the returned capability is derived from it,
        // preserving provenance"), else from the space root.
        let source_cap = match hint_cap {
            Some(c) if c.check_access(start, len, Perms::NONE).is_ok() => c,
            _ => self.vm.space(space).root,
        };
        let ret = source_cap
            .with_addr(start)
            .set_bounds(len.div_ceil(4096) * 4096, false)
            .map_err(|_| err(Errno::EINVAL))?
            .and_perms(prot.as_cap_perms())
            .with_source(CapSource::Syscall);
        self.set_ret_cap(pid, ret);
        Ok(start)
    }

    fn sys_munmap(&mut self, pid: Pid) -> SysRet {
        let target = self.user_ref(pid, 0);
        let len = self.user_val(pid, 1);
        let (space, abi) = {
            let p = self.process(pid);
            (p.space, p.abi)
        };
        if abi == AbiMode::CheriAbi {
            // "We also require the vmmap permission to be present on
            // capabilities passed to munmap and shmdt."
            let UserRef::Cap(c) = target else {
                return Err(err(Errno::EPROT));
            };
            if !c.tag() || !c.perms().contains(Perms::VMMAP) {
                return Err(err(Errno::EPROT));
            }
            if c.check_access(c.addr(), len, Perms::NONE).is_err() {
                return Err(err(Errno::EPROT));
            }
        }
        self.vm
            .unmap(space, target.addr(), len.div_ceil(4096) * 4096)
            .map_err(|_| err(Errno::EINVAL))?;
        Ok(0)
    }

    fn sys_shmget(&mut self, pid: Pid) -> SysRet {
        let key = self.user_val(pid, 0);
        let len = self.user_val(pid, 1);
        let _ = pid;
        if let Some(&seg) = self.shm.get(&key) {
            return Ok(seg);
        }
        let seg = self
            .vm
            .create_shared_seg(len)
            .map_err(|_| err(Errno::ENOMEM))?;
        self.shm.insert(key, seg);
        Ok(seg)
    }

    fn sys_shmat(&mut self, pid: Pid) -> SysRet {
        let seg = self.user_val(pid, 0);
        let hint = self.user_ref(pid, 1);
        let (space, abi) = {
            let p = self.process(pid);
            (p.space, p.abi)
        };
        let len = self.vm.seg_len(seg).map_err(|_| err(Errno::EINVAL))?;
        let fixed = !hint.is_null();
        if fixed && abi == AbiMode::CheriAbi {
            // "With shmat, a fixed address is supported. If the fixed
            // address is a valid capability, we require that it have the
            // vmmap user-defined capability permission."
            let UserRef::Cap(c) = hint else {
                return Err(err(Errno::EPROT));
            };
            if !c.tag() || !c.perms().contains(Perms::VMMAP) {
                return Err(err(Errno::EPROT));
            }
        }
        let start = self
            .vm
            .map(
                space,
                fixed.then(|| hint.addr()),
                len,
                Prot::rw(),
                Backing::Shared { seg },
                "shm",
            )
            .map_err(|_| err(Errno::ENOMEM))?;
        let ret = self
            .vm
            .space(space)
            .root
            .with_addr(start)
            .set_bounds(len.div_ceil(4096) * 4096, false)
            .map_err(|_| err(Errno::EINVAL))?
            .and_perms(Prot::rw().as_cap_perms())
            .with_source(CapSource::Syscall);
        self.set_ret_cap(pid, ret);
        Ok(start)
    }

    fn sys_shmdt(&mut self, pid: Pid) -> SysRet {
        let target = self.user_ref(pid, 0);
        let (space, abi) = {
            let p = self.process(pid);
            (p.space, p.abi)
        };
        if abi == AbiMode::CheriAbi {
            let UserRef::Cap(c) = target else {
                return Err(err(Errno::EPROT));
            };
            if !c.tag() || !c.perms().contains(Perms::VMMAP) {
                return Err(err(Errno::EPROT));
            }
        }
        let m = self
            .vm
            .space(space)
            .mapping_at(target.addr())
            .filter(|m| matches!(m.backing, Backing::Shared { .. }))
            .map(|m| (m.start, m.len))
            .ok_or(err(Errno::EINVAL))?;
        self.vm
            .unmap(space, m.0, m.1)
            .map_err(|_| err(Errno::EINVAL))?;
        Ok(0)
    }

    fn sys_swapctl(&mut self, pid: Pid) -> SysRet {
        let n = self.user_val(pid, 0) as usize;
        let space = self.process(pid).space;
        let evicted = self
            .vm
            .swap_out_space(space, n)
            .map_err(|_| err(Errno::EINVAL))?;
        Ok(evicted as u64)
    }

    // ------------------------------------------------------------------
    // select / kevent
    // ------------------------------------------------------------------

    fn sys_select(&mut self, pid: Pid) -> SysRet {
        let _nfds = self.user_val(pid, 0);
        let readp = self.user_ref(pid, 1);
        let writep = self.user_ref(pid, 2);
        let exceptp = self.user_ref(pid, 3);
        let timeoutp = self.user_ref(pid, 4);
        self.cpu.charge(costs::SELECT_BASE / 4, costs::SELECT_BASE);
        let read_in = if readp.is_null() {
            0
        } else {
            let b = self.copyin(pid, readp, 8).map_err(err)?;
            self.cpu.charge(0, costs::SELECT_PER_SET);
            u64::from_le_bytes(b.try_into().map_err(|_| err(Errno::EFAULT))?)
        };
        let write_in = if writep.is_null() {
            0
        } else {
            let b = self.copyin(pid, writep, 8).map_err(err)?;
            self.cpu.charge(0, costs::SELECT_PER_SET);
            u64::from_le_bytes(b.try_into().map_err(|_| err(Errno::EFAULT))?)
        };
        if !exceptp.is_null() {
            let _ = self.copyin(pid, exceptp, 8).map_err(err)?;
            self.cpu.charge(0, costs::SELECT_PER_SET);
        }
        let mut read_out = 0u64;
        for fd in 0..64 {
            if read_in >> fd & 1 == 1 && self.fd_readable(pid, fd) {
                read_out |= 1 << fd;
            }
        }
        let mut write_out = 0u64;
        for fd in 0..64 {
            if write_in >> fd & 1 == 1 {
                if let Some(FileDesc::PipeWrite(_) | FileDesc::Console | FileDesc::File { .. }) =
                    self.process(pid).fd(fd)
                {
                    write_out |= 1 << fd;
                }
            }
        }
        let ready = read_out.count_ones() as u64 + write_out.count_ones() as u64;
        if ready == 0 && timeoutp.is_null() && read_in != 0 {
            return Err(SysFlow::Block(WaitReason::Select(read_in)));
        }
        if !readp.is_null() {
            self.copyout(pid, readp, &read_out.to_le_bytes())
                .map_err(err)?;
        }
        if !writep.is_null() {
            self.copyout(pid, writep, &write_out.to_le_bytes())
                .map_err(err)?;
        }
        Ok(ready)
    }

    fn sys_kevent_register(&mut self, pid: Pid) -> SysRet {
        let ident = self.user_val(pid, 0);
        let udata = self.user_ref(pid, 1);
        // "A few system calls take pointers and store them in kernel data
        // structures for later return ... we have modified the kernel
        // structures to store capabilities."
        let udata_cap = match udata {
            UserRef::Cap(c) => c,
            UserRef::Addr(a) => Capability::null(self.config.cap_fmt).with_addr(a),
        };
        self.process_mut(pid).kq.push(KqEntry {
            ident,
            udata: udata_cap,
            fired: false,
        });
        Ok(0)
    }

    fn sys_kevent_wait(&mut self, pid: Pid) -> SysRet {
        let out = self.user_ref(pid, 0);
        let max = self.user_val(pid, 1);
        let abi = self.process(pid).abi;
        let stride: u64 = match abi {
            AbiMode::CheriAbi => 32,
            AbiMode::Mips64 => 16,
        };
        let ready: Vec<KqEntry> = self
            .process(pid)
            .kq
            .iter()
            .filter(|e| e.fired || self.fd_readable(pid, e.ident))
            .take(max as usize)
            .copied()
            .collect();
        if ready.is_empty() {
            if self.process(pid).kq.is_empty() {
                return Err(err(Errno::EINVAL));
            }
            return Err(SysFlow::Block(WaitReason::Kevent));
        }
        for (i, e) in ready.iter().enumerate() {
            let rec = uref_add(out, i as u64 * stride);
            self.copyout(pid, rec, &e.ident.to_le_bytes())
                .map_err(err)?;
            match abi {
                AbiMode::CheriAbi => {
                    // Capability-preserving return of the user's udata
                    // pointer: tag survives the round trip.
                    self.copyout_cap(pid, uref_add(out, i as u64 * stride + 16), e.udata)
                        .map_err(err)?;
                }
                AbiMode::Mips64 => {
                    self.copyout(
                        pid,
                        uref_add(out, i as u64 * stride + 8),
                        &e.udata.addr().to_le_bytes(),
                    )
                    .map_err(err)?;
                }
            }
        }
        Ok(ready.len() as u64)
    }

    // ------------------------------------------------------------------
    // Management interfaces (ioctl / sysctl, §4)
    // ------------------------------------------------------------------

    fn sys_ioctl(&mut self, pid: Pid) -> SysRet {
        let _fd = self.user_val(pid, 0);
        let cmd = self.user_val(pid, 1);
        let arg = self.user_ref(pid, 2);
        match cmd {
            // GET_IFDATA: the kernel fills a 64-byte struct. An undersized
            // user buffer faults under CheriABI (the dhclient bug of §5.4)
            // instead of silently overwriting adjacent process memory.
            1 => {
                let mut data = [0u8; 64];
                data[..8].copy_from_slice(&0x1234_5678u64.to_le_bytes());
                self.copyout(pid, arg, &data).map_err(err)?;
                Ok(0)
            }
            // SET_PARAM: 32-byte struct copyin.
            2 => {
                let _ = self.copyin(pid, arg, 32).map_err(err)?;
                Ok(0)
            }
            // KINFO_PTR: a management interface that used to export kernel
            // pointers; "we have altered them to expose virtual addresses
            // rather than kernel capabilities" — 8 bytes, never tagged.
            3 => {
                let kva = 0xffff_8000_dead_beefu64;
                self.copyout(pid, arg, &kva.to_le_bytes()).map_err(err)?;
                Ok(0)
            }
            _ => Err(err(Errno::EINVAL)),
        }
    }

    fn sys_sysctl(&mut self, pid: Pid) -> SysRet {
        let id = self.user_val(pid, 0);
        let oldp = self.user_ref(pid, 1);
        let oldlenp = self.user_ref(pid, 2);
        let value: Vec<u8> = match id {
            1 => b"CheriBSD-sim\0".to_vec(),
            2 => 42u64.to_le_bytes().to_vec(),
            _ => return Err(err(Errno::ENOENT)),
        };
        let lenbuf = self.copyin(pid, oldlenp, 8).map_err(err)?;
        let maxlen = u64::from_le_bytes(lenbuf.try_into().map_err(|_| err(Errno::EFAULT))?);
        let n = maxlen.min(value.len() as u64);
        if !oldp.is_null() {
            self.copyout(pid, oldp, &value[..n as usize]).map_err(err)?;
        }
        self.copyout(pid, oldlenp, &(value.len() as u64).to_le_bytes())
            .map_err(err)?;
        Ok(0)
    }

    fn sys_unlink(&mut self, pid: Pid) -> SysRet {
        let path_ref = self.user_ref(pid, 0);
        let path = self.copyinstr(pid, path_ref, 4096).map_err(err)?;
        self.memfs
            .remove(&path)
            .map(|_| 0)
            .ok_or(err(Errno::ENOENT))
    }

    // ------------------------------------------------------------------
    // Runtime services: the userspace allocator (see DESIGN.md §3)
    // ------------------------------------------------------------------

    fn sys_rt_malloc(&mut self, pid: Pid) -> SysRet {
        let len = self.user_val(pid, 0);
        let space_ok = {
            let p = self.procs.get_mut(pid).ok_or(err(Errno::ESRCH))?;
            p.allocator.malloc(&mut self.vm, len)
        };
        self.charge_allocator(pid);
        match space_ok {
            Ok(cap) => {
                self.set_ret_cap(pid, cap);
                Ok(cap.base())
            }
            Err(_) => Err(err(Errno::ENOMEM)),
        }
    }

    fn sys_rt_free(&mut self, pid: Pid) -> SysRet {
        let target = self.user_ref(pid, 0);
        let (res, hardened) = {
            let p = self.procs.get_mut(pid).ok_or(err(Errno::ESRCH))?;
            let r = match target {
                UserRef::Cap(c) => p.allocator.free(&mut self.vm, &c),
                UserRef::Addr(a) => p.allocator.free_addr(&mut self.vm, a),
            };
            (r, p.allocator.hardened())
        };
        // Hardened membrane: a double free (or free of a stale base) is
        // deterministically repaired — absorbed with evidence — instead of
        // surfacing EINVAL. Capability violations (untagged/sealed) remain
        // denials under both modes: they are forgeries, not ledger races.
        let res = match res {
            Err(cheri_alloc::AllocError::BadFree) if hardened => {
                self.process_mut(pid).allocator.note_repair();
                Ok(())
            }
            other => other,
        };
        self.charge_allocator(pid);
        res.map(|()| 0).map_err(|_| err(Errno::EINVAL))
    }

    fn sys_rt_realloc(&mut self, pid: Pid) -> SysRet {
        let target = self.user_ref(pid, 0);
        let new_len = self.user_val(pid, 1);
        let (res, hardened) = {
            let p = self.procs.get_mut(pid).ok_or(err(Errno::ESRCH))?;
            let r = match target {
                UserRef::Cap(c) => p.allocator.realloc(&mut self.vm, &c, new_len),
                UserRef::Addr(a) => {
                    // Legacy realloc: rebuild a pseudo-capability for lookup.
                    let space_root = self.vm.space(p.space).root;
                    p.allocator
                        .realloc(&mut self.vm, &space_root.with_addr(a), new_len)
                }
            };
            (r, p.allocator.hardened())
        };
        // Hardened membrane: realloc of a stale base repairs to a plain
        // allocation of the new size (the old contents are gone; the old
        // region stays quarantined) rather than failing the caller.
        let res = match res {
            Err(cheri_alloc::AllocError::BadFree) if hardened => {
                let p = self.procs.get_mut(pid).ok_or(err(Errno::ESRCH))?;
                p.allocator.note_repair();
                p.allocator.malloc(&mut self.vm, new_len)
            }
            other => other,
        };
        self.charge_allocator(pid);
        match res {
            Ok(cap) => {
                self.set_ret_cap(pid, cap);
                Ok(cap.base())
            }
            Err(_) => Err(err(Errno::EINVAL)),
        }
    }
}

impl Kernel {
    /// `mprotect(addr, len, prot)`: under CheriABI the capability must
    /// carry `VMMAP` and cover the range, mirroring the munmap rule.
    fn sys_mprotect(&mut self, pid: Pid) -> SysRet {
        let target = self.user_ref(pid, 0);
        let len = self.user_val(pid, 1);
        let prot_bits = self.user_val(pid, 2);
        let mut prot = Prot::NONE;
        if prot_bits & 1 != 0 {
            prot = prot.union(Prot::READ);
        }
        if prot_bits & 2 != 0 {
            prot = prot.union(Prot::WRITE);
        }
        if prot_bits & 4 != 0 {
            prot = prot.union(Prot::EXEC);
        }
        let (space, abi) = {
            let p = self.process(pid);
            (p.space, p.abi)
        };
        if abi == AbiMode::CheriAbi {
            let UserRef::Cap(c) = target else {
                return Err(err(Errno::EPROT));
            };
            if !c.tag() || !c.perms().contains(Perms::VMMAP) {
                return Err(err(Errno::EPROT));
            }
            if c.check_access(c.addr(), len, Perms::NONE).is_err() {
                return Err(err(Errno::EPROT));
            }
        }
        self.vm
            .protect(space, target.addr(), len.div_ceil(4096) * 4096, prot)
            .map_err(|_| err(Errno::EINVAL))?;
        Ok(0)
    }

    /// Temporal-safety revocation sweep: revokes stale capabilities in the
    /// process's memory (via the allocator) and in its saved register file,
    /// then recycles the quarantine. Returns the number revoked.
    fn sys_rt_revoke(&mut self, pid: Pid) -> SysRet {
        let ranges = {
            let p = self.procs.get_mut(pid).ok_or(err(Errno::ESRCH))?;
            p.allocator.quarantined_ranges()
        };
        let res = {
            let p = self.procs.get_mut(pid).ok_or(err(Errno::ESRCH))?;
            p.allocator.revoke(&mut self.vm)
        };
        self.charge_allocator(pid);
        let (mut revoked, _recycled) = res.map_err(|_| err(Errno::ENOMEM))?;
        // Sweep the saved register file too: stale capabilities die
        // everywhere, not just in memory.
        let hits = |c: &Capability| {
            c.tag()
                && ranges
                    .iter()
                    .any(|&(b, l)| (c.base() as u128) < (b + l) as u128 && c.top() > b as u128)
        };
        let regs = &mut self.process_mut(pid).regs;
        for i in 1..32u8 {
            let r = cheri_isa::CReg(i);
            let c = regs.c(r);
            if hits(&c) {
                regs.wc(r, c.clear_tag());
                revoked += 1;
            }
        }
        Ok(revoked)
    }
}
