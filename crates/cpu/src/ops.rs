//! The CPU-side port of the shared step semantics, plus the flat op table.
//!
//! The per-instruction handler bodies live in [`cheri_sem::ops`] — this
//! module only supplies what the pure semantics cannot know about:
//! [`CpuPorts`] implements the [`MemoryPort`]/[`TrapPort`] surface on top
//! of the core's TLB, cache model and derivation trace, and
//! `with_op_list!` instantiates the flat [`OP_TABLE`] for threaded
//! dispatch. The table is generated from the semantics crate's own
//! handler-name list, so it cannot drift out of sync with
//! [`dispatch_index`]: a handler's position in [`OP_TABLE`] is, by
//! construction, the index `dispatch_index` assigns to its pattern.

use crate::cpu::{Cpu, TrapCause, TrapInfo};
use cheri_cap::{CapFault, Capability};
use cheri_isa::Instr;
use cheri_mem::{AccessKind, PAddr, FRAME_SIZE};
use cheri_sem::{MemoryPort, SemExit, StepCtx, TrapPort};
use cheri_vm::{Access, AsId, Vm, VmError};

pub(crate) use cheri_sem::ops::dispatch_index;

/// What one instruction produces: `Ok(None)` to continue, `Ok(Some(exit))`
/// to leave the run loop, `Err(trap)` on a fault (with `rf.pc` still at
/// the faulting instruction).
pub(crate) type OpResult = Result<Option<SemExit>, TrapInfo>;

/// Handler signature shared by every slot of [`OP_TABLE`].
pub(crate) type OpFn = fn(&mut CpuPorts<'_, '_>, &mut StepCtx<'_>, Instr) -> OpResult;

/// The stepper's implementation of the semantics port traits:
/// translations go through the TLB, cache accesses into the model,
/// derivations into the Figure 5 trace.
pub(crate) struct CpuPorts<'c, 'v> {
    /// The core (TLB, caches, counters, trace).
    pub cpu: &'c mut Cpu,
    /// Virtual memory of the executing address space.
    pub vm: &'v mut Vm,
    /// The executing address space.
    pub id: AsId,
}

impl TrapPort for CpuPorts<'_, '_> {
    type Fault = TrapInfo;

    fn cap_fault(&mut self, pc: u64, fault: CapFault, vaddr: Option<u64>) -> TrapInfo {
        TrapInfo {
            cause: TrapCause::Cap(fault),
            pc,
            vaddr,
        }
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.cpu.stats.cycles += cycles;
    }

    fn count_syscall(&mut self) {
        self.cpu.stats.syscalls += 1;
    }

    fn record_derivation(&mut self, cap: &Capability) {
        self.cpu.trace.record(cap);
    }

    fn weaken_sem(&self) -> bool {
        self.cpu.weaken_sem()
    }
}

/// Maps a VM fault taken by a data access at `vaddr` to the trap it raises.
fn vm_trap(pc: u64, vaddr: u64) -> impl FnOnce(VmError) -> TrapInfo {
    move |e| TrapInfo {
        cause: TrapCause::Vm(e),
        pc,
        vaddr: Some(vaddr),
    }
}

/// True when a `size`-byte access at `vaddr` stays on one page, so the
/// single physical address the TLB returned covers all of it.
fn within_page(vaddr: u64, size: u64) -> bool {
    vaddr % FRAME_SIZE + size <= FRAME_SIZE
}

/// Data moves through the physical address [`Cpu::translate_cached`]
/// returned, an aligned access as one fixed-width word; nothing walks the
/// page table a second time. The one exception is an unaligned legacy
/// access that crosses into the next page: it goes through [`Vm`], which
/// translates (and, if needed, demand-faults) the second page exactly as
/// the reference machine does.
impl MemoryPort for CpuPorts<'_, '_> {
    fn read_raw(&mut self, vaddr: u64, size: u64, pc: u64) -> Result<u64, TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Read, pc)?;
        self.cpu.mem_access(pa, AccessKind::Load);
        if vaddr & (size - 1) == 0 {
            return Ok(self
                .vm
                .phys
                .read_word(PAddr(pa), size)
                .expect("translated frame"));
        }
        let mut buf = [0u8; 8];
        let dst = &mut buf[..size as usize];
        if within_page(vaddr, size) {
            self.vm
                .phys
                .read_bytes(PAddr(pa), dst)
                .expect("translated frame");
        } else {
            self.vm
                .read_bytes(self.id, vaddr, dst)
                .map_err(vm_trap(pc, vaddr))?;
        }
        Ok(u64::from_le_bytes(buf))
    }

    fn write_raw(&mut self, vaddr: u64, size: u64, value: u64, pc: u64) -> Result<(), TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Write, pc)?;
        self.cpu.mem_access(pa, AccessKind::Store);
        // `PhysMem::write_word` and `write_bytes` clear tags, forget
        // injected corruption and count the mutation for the fault plane.
        if vaddr & (size - 1) == 0 {
            self.vm
                .phys
                .write_word(PAddr(pa), size, value)
                .expect("translated frame");
            return Ok(());
        }
        let bytes = value.to_le_bytes();
        let bytes = &bytes[..size as usize];
        if within_page(vaddr, size) {
            self.vm
                .phys
                .write_bytes(PAddr(pa), bytes)
                .expect("translated frame");
            Ok(())
        } else {
            self.vm
                .write_bytes(self.id, vaddr, bytes)
                .map_err(vm_trap(pc, vaddr))
        }
    }

    fn read_granule(&mut self, vaddr: u64, pc: u64) -> Result<Option<Capability>, TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Read, pc)?;
        self.cpu.mem_access(pa, AccessKind::Load);
        // As in `Vm::load_cap`: the fault plane sees every capability load.
        self.vm.phys.note_cap_load(PAddr(pa));
        Ok(self.vm.phys.load_cap(PAddr(pa)).expect("translated frame"))
    }

    fn write_granule(&mut self, vaddr: u64, value: Capability, pc: u64) -> Result<(), TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Write, pc)?;
        self.cpu.mem_access(pa, AccessKind::Store);
        self.vm
            .phys
            .store_cap(PAddr(pa), value)
            .expect("translated frame");
        Ok(())
    }
}

/// The reference interpreter's implementation of the semantics port
/// traits: every translation takes the full VM walk, and nothing is ever
/// weakened. The deliberately simple second consumer of `cheri-sem` —
/// what the fast machine is diffed against under `--oracle`. It walks the
/// page table twice per access (once to charge the cache model, once
/// inside `Vm`'s byte and capability accessors) on purpose: it shares no
/// data path with [`CpuPorts`], so it stays an independent check of it.
pub(crate) struct RefPorts<'c, 'v> {
    /// The core (caches, counters, trace).
    pub cpu: &'c mut Cpu,
    /// Virtual memory of the executing address space.
    pub vm: &'v mut Vm,
    /// The executing address space.
    pub id: AsId,
}

impl RefPorts<'_, '_> {
    fn translate(&mut self, vaddr: u64, access: Access, pc: u64) -> Result<u64, TrapInfo> {
        self.vm
            .translate(self.id, vaddr, access)
            .map(|pa| pa.0)
            .map_err(vm_trap(pc, vaddr))
    }
}

impl TrapPort for RefPorts<'_, '_> {
    type Fault = TrapInfo;

    fn cap_fault(&mut self, pc: u64, fault: CapFault, vaddr: Option<u64>) -> TrapInfo {
        TrapInfo {
            cause: TrapCause::Cap(fault),
            pc,
            vaddr,
        }
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.cpu.stats.cycles += cycles;
    }

    fn count_syscall(&mut self) {
        self.cpu.stats.syscalls += 1;
    }

    fn record_derivation(&mut self, cap: &Capability) {
        self.cpu.trace.record(cap);
    }
}

impl MemoryPort for RefPorts<'_, '_> {
    fn read_raw(&mut self, vaddr: u64, size: u64, pc: u64) -> Result<u64, TrapInfo> {
        let pa = self.translate(vaddr, Access::Read, pc)?;
        self.cpu.mem_access(pa, AccessKind::Load);
        let mut buf = [0u8; 8];
        self.vm
            .read_bytes(self.id, vaddr, &mut buf[..size as usize])
            .map_err(vm_trap(pc, vaddr))?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_raw(&mut self, vaddr: u64, size: u64, value: u64, pc: u64) -> Result<(), TrapInfo> {
        let pa = self.translate(vaddr, Access::Write, pc)?;
        self.cpu.mem_access(pa, AccessKind::Store);
        let bytes = value.to_le_bytes();
        self.vm
            .write_bytes(self.id, vaddr, &bytes[..size as usize])
            .map_err(vm_trap(pc, vaddr))
    }

    fn read_granule(&mut self, vaddr: u64, pc: u64) -> Result<Option<Capability>, TrapInfo> {
        let pa = self.translate(vaddr, Access::Read, pc)?;
        self.cpu.mem_access(pa, AccessKind::Load);
        self.vm.load_cap(self.id, vaddr).map_err(vm_trap(pc, vaddr))
    }

    fn write_granule(&mut self, vaddr: u64, value: Capability, pc: u64) -> Result<(), TrapInfo> {
        let pa = self.translate(vaddr, Access::Write, pc)?;
        self.cpu.mem_access(pa, AccessKind::Store);
        self.vm
            .store_cap(self.id, vaddr, value)
            .map_err(vm_trap(pc, vaddr))
    }
}

macro_rules! define_table {
    ($($name:ident),+ $(,)?) => {
        /// Monomorphised handler entry points: one `fn` item per semantics
        /// handler, instantiated at `CpuPorts`, so the table below is a
        /// flat array of plain function pointers.
        mod wrappers {
            use super::*;
            $(
                pub(crate) fn $name(
                    p: &mut CpuPorts<'_, '_>,
                    cx: &mut StepCtx<'_>,
                    instr: Instr,
                ) -> OpResult {
                    cheri_sem::ops::$name(p, cx, instr)
                }
            )+
        }

        /// The flat dispatch table, indexed by [`dispatch_index`].
        pub(crate) static OP_TABLE: &[OpFn] = &[$(wrappers::$name),+];
    };
}

cheri_sem::with_op_list!(define_table);

#[cfg(test)]
mod tests {
    #[test]
    fn table_covers_every_handler() {
        assert_eq!(super::OP_TABLE.len(), cheri_sem::ops::OP_NAMES.len());
    }
}
