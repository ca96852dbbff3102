//! The VM subsystem: translation, demand paging, COW, shared segments and
//! tag-preserving swap.

use crate::space::{AddressSpace, AsId, Backing, Mapping, PageState, Prot, USER_TOP};
use cheri_cap::{CapFormat, Capability, PrincipalId};
use cheri_mem::{FrameId, PAddr, PhysMem, FRAME_SIZE};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Kind of memory access being translated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Exec,
}

impl Access {
    fn required_prot(self) -> Prot {
        match self {
            Access::Read => Prot::READ,
            Access::Write => Prot::WRITE,
            Access::Exec => Prot::EXEC,
        }
    }
}

/// Faults and errors raised by the VM subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// No mapping covers the address.
    Unmapped(u64),
    /// The mapping's protection forbids the access.
    Protection(u64),
    /// Physical memory exhausted and nothing could be evicted.
    OutOfMemory,
    /// Unknown address space.
    NoSuchSpace,
    /// Unknown shared segment.
    NoSuchSegment,
    /// A fixed-address mapping collides with an existing mapping.
    MappingExists(u64),
    /// Address or length not page-aligned.
    BadAlignment(u64),
    /// The requested range exceeds the user address range.
    BadRange(u64),
    /// The swap device failed to read or write the slot backing this
    /// address. Transient: the kernel retries once, then delivers SIGBUS.
    SwapIo(u64),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Unmapped(a) => write!(f, "unmapped address {a:#x}"),
            VmError::Protection(a) => write!(f, "protection violation at {a:#x}"),
            VmError::OutOfMemory => write!(f, "out of physical memory"),
            VmError::NoSuchSpace => write!(f, "no such address space"),
            VmError::NoSuchSegment => write!(f, "no such shared segment"),
            VmError::MappingExists(a) => write!(f, "mapping exists at {a:#x}"),
            VmError::BadAlignment(a) => write!(f, "bad alignment {a:#x}"),
            VmError::BadRange(a) => write!(f, "address {a:#x} outside user range"),
            VmError::SwapIo(a) => write!(f, "swap I/O error at {a:#x}"),
        }
    }
}

impl Error for VmError {}

/// Counters exposed for the syscall micro-benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Demand faults serviced (zero-fill + image + swap).
    pub faults: u64,
    /// Pages brought back from swap.
    pub swap_ins: u64,
    /// Pages evicted to swap.
    pub swap_outs: u64,
    /// Capabilities rederived during swap-in.
    pub caps_rederived: u64,
    /// Capabilities found unrederivable during swap-in (left untagged).
    pub caps_refused: u64,
    /// Capabilities whose owning mapping vanished while the page sat in
    /// swap: left untagged at swap-in and reported here rather than being
    /// silently folded into `caps_refused`.
    pub caps_orphaned: u64,
    /// Capabilities killed by a revocation sweep ([`Vm::revoke_ranges`]):
    /// resident tags cleared plus swap-slot entries dropped. Deliberately
    /// separate from `caps_orphaned` — sweeping is the hardened membrane
    /// acting, orphaning is the swap rederivation plane refusing; the two
    /// must not alias in reports.
    pub caps_swept: u64,
    /// COW resolutions (page copies).
    pub cow_copies: u64,
}

/// A scheduled swap-device I/O failure: the `at`-th read (swap-in) or
/// write (swap-out) attempt fails, and so do the following `count - 1`
/// attempts of the same kind. Deterministic against a fixed access stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SwapFaultSpec {
    /// 1-based swap-in attempt at which reads start failing.
    pub read_fail_at: Option<u64>,
    /// How many consecutive swap-in attempts fail (0 treated as 1).
    pub read_fail_count: u32,
    /// 1-based swap-out attempt at which writes start failing.
    pub write_fail_at: Option<u64>,
    /// How many consecutive swap-out attempts fail (0 treated as 1).
    pub write_fail_count: u32,
}

/// Swap-device injector state and counters.
#[derive(Clone, Debug, Default)]
pub struct SwapFaults {
    spec: SwapFaultSpec,
    /// Swap-in attempts observed (including failed ones).
    pub reads: u64,
    /// Swap-out attempts observed (including failed ones).
    pub writes: u64,
    /// Injected swap-in failures.
    pub read_errors: u64,
    /// Injected swap-out failures.
    pub write_errors: u64,
}

impl SwapFaults {
    fn fail_read(&mut self) -> bool {
        self.reads += 1;
        let Some(at) = self.spec.read_fail_at else {
            return false;
        };
        let n = u64::from(self.spec.read_fail_count.max(1));
        if self.reads >= at && self.reads < at + n {
            self.read_errors += 1;
            true
        } else {
            false
        }
    }

    fn fail_write(&mut self) -> bool {
        self.writes += 1;
        let Some(at) = self.spec.write_fail_at else {
            return false;
        };
        let n = u64::from(self.spec.write_fail_count.max(1));
        if self.writes >= at && self.writes < at + n {
            self.write_errors += 1;
            true
        } else {
            false
        }
    }
}

#[derive(Clone)]
struct SwapSlot {
    data: Vec<u8>,
    /// Saved capabilities, tag-free, with their in-page byte offsets — the
    /// "tag bit vector in memory / tag-free capability in swap" of Fig. 2.
    caps: Vec<(u64, Capability)>,
}

struct SharedSeg {
    frames: Vec<FrameId>,
    len: u64,
    refs: usize,
}

/// The machine-wide virtual-memory subsystem.
pub struct Vm {
    /// Tagged physical memory.
    pub phys: PhysMem,
    /// Paging statistics.
    pub stats: VmStats,
    spaces: HashMap<AsId, AddressSpace>,
    next_as: u64,
    swap: Vec<Option<SwapSlot>>,
    shared: HashMap<u64, SharedSeg>,
    next_seg: u64,
    frame_refs: HashMap<FrameId, usize>,
    swap_faults: SwapFaults,
    /// Monotone translation epoch: bumped by every operation that can
    /// change an established virtual→physical translation (map, unmap,
    /// mprotect, fork COW re-marking, COW resolution, swap in/out, space
    /// teardown, shared-segment destruction). Translation caches compare
    /// their saved epoch against [`Vm::epoch`] and self-invalidate on
    /// mismatch; see DESIGN.md "The TLB and the translation epoch".
    epoch: u64,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Vm{{spaces={}, {:?}, swap_slots={}}}",
            self.spaces.len(),
            self.phys,
            self.swap.iter().filter(|s| s.is_some()).count()
        )
    }
}

impl Vm {
    /// Creates a VM subsystem with `num_frames` physical frames.
    #[must_use]
    pub fn new(num_frames: usize) -> Vm {
        Vm {
            phys: PhysMem::new(num_frames),
            stats: VmStats::default(),
            spaces: HashMap::new(),
            next_as: 1,
            swap: Vec::new(),
            shared: HashMap::new(),
            next_seg: 1,
            frame_refs: HashMap::new(),
            swap_faults: SwapFaults::default(),
            epoch: 0,
        }
    }

    /// Arms the swap-device fault injector.
    pub fn arm_swap_faults(&mut self, spec: SwapFaultSpec) {
        self.swap_faults.spec = spec;
    }

    /// Swap-device injector state and counters.
    #[must_use]
    pub fn swap_faults(&self) -> &SwapFaults {
        &self.swap_faults
    }

    /// Current translation epoch.
    ///
    /// The epoch is bumped whenever *any* established translation may have
    /// changed. A cache that recorded `epoch()` at fill time may keep serving
    /// a translation only while `epoch()` still returns the same value.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records that established translations may have changed. Called from
    /// every mutation path (map/unmap/protect, fork COW re-marking, COW
    /// resolution, swap in/out, teardown) — never from pure demand faults,
    /// which only add translations for pages no cache can have seen.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    // ------------------------------------------------------------------
    // Address-space lifecycle
    // ------------------------------------------------------------------

    /// Creates an empty address space for `principal`.
    pub fn create_space(&mut self, principal: PrincipalId, fmt: CapFormat) -> AsId {
        let id = AsId(self.next_as);
        self.next_as += 1;
        self.spaces
            .insert(id, AddressSpace::new(id, principal, fmt));
        id
    }

    /// Read access to a space.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id — space ids are kernel-internal and their
    /// lifetime is managed by the process table.
    #[must_use]
    pub fn space(&self, id: AsId) -> &AddressSpace {
        self.spaces.get(&id).expect("unknown address space")
    }

    /// Mutable access to a space.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn space_mut(&mut self, id: AsId) -> &mut AddressSpace {
        self.spaces.get_mut(&id).expect("unknown address space")
    }

    /// Destroys a space, releasing frames, swap slots and shared-segment
    /// references. Pages are released in ascending vpn order, so the
    /// frame free list — and with it every later allocation — does not
    /// depend on hash-map iteration order.
    pub fn destroy_space(&mut self, id: AsId) {
        let Some(space) = self.spaces.remove(&id) else {
            return;
        };
        let mut pages: Vec<(u64, PageState)> = space.pages.into_iter().collect();
        pages.sort_unstable_by_key(|&(vpn, _)| vpn);
        for (_, st) in pages {
            match st {
                PageState::Resident { frame, .. } => self.release_frame(frame),
                PageState::Swapped { slot } => self.swap[slot as usize] = None,
            }
        }
        for m in space.maps.values() {
            if let Backing::Shared { seg } = m.backing {
                self.release_seg(seg);
            }
        }
        // Frames owned by the space were released above: any translation a
        // cache still holds for this space id is now dangling.
        self.bump_epoch();
    }

    /// Clones `parent` into a new space sharing all private pages
    /// copy-on-write — the `fork` path. The child inherits the parent's
    /// principal (principals are per `execve` lineage; see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchSpace`] for an unknown parent.
    pub fn fork_space(&mut self, parent: AsId) -> Result<AsId, VmError> {
        let id = AsId(self.next_as);
        self.next_as += 1;
        let (principal, fmt) = {
            let p = self.spaces.get(&parent).ok_or(VmError::NoSuchSpace)?;
            (p.principal, p.root.format())
        };
        let mut child = AddressSpace::new(id, principal, fmt);
        let parent_sp = self.spaces.get_mut(&parent).ok_or(VmError::NoSuchSpace)?;
        child.maps = parent_sp.maps.clone();
        child.mmap_hint = parent_sp.mmap_hint;
        child.root = parent_sp.root;
        // Decide per-page sharing.
        let mut child_pages = HashMap::new();
        let mut new_swap_slots: Vec<(u64, SwapSlot)> = Vec::new();
        for (&vpn, st) in parent_sp.pages.iter_mut() {
            let mapping_shared = {
                let va = vpn * FRAME_SIZE;
                matches!(
                    child.maps.range(..=va).next_back().map(|(_, m)| &m.backing),
                    Some(Backing::Shared { .. })
                )
            };
            match *st {
                PageState::Resident { frame, cow } => {
                    let child_cow = !mapping_shared;
                    if !mapping_shared {
                        *st = PageState::Resident { frame, cow: true };
                    }
                    child_pages.insert(
                        vpn,
                        PageState::Resident {
                            frame,
                            cow: child_cow && !mapping_shared || cow && mapping_shared,
                        },
                    );
                    *self.frame_refs.entry(frame).or_insert(1) += 1;
                }
                PageState::Swapped { slot } => {
                    new_swap_slots
                        .push((vpn, self.swap[slot as usize].clone().expect("live slot")));
                }
            }
        }
        for m in child.maps.values() {
            if let Backing::Shared { seg } = m.backing {
                if let Some(s) = self.shared.get_mut(&seg) {
                    s.refs += 1;
                }
            }
        }
        // Copy swap slots in ascending vpn order: slot indices must not
        // depend on hash-map iteration order.
        new_swap_slots.sort_unstable_by_key(|&(vpn, _)| vpn);
        for (vpn, slot) in new_swap_slots {
            let idx = self.push_swap_slot(slot);
            child_pages.insert(vpn, PageState::Swapped { slot: idx });
        }
        child.pages = child_pages;
        self.spaces.insert(id, child);
        // Previously-writable parent pages were just re-marked COW: a cached
        // write translation for the parent would bypass the copy.
        self.bump_epoch();
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Mapping management
    // ------------------------------------------------------------------

    /// Establishes a mapping. With `fixed = Some(va)` the mapping is placed
    /// exactly there and must not collide; otherwise a free region at or
    /// after the mmap hint is chosen. Returns the start address.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`], [`VmError::BadRange`],
    /// [`VmError::MappingExists`] or [`VmError::OutOfMemory`].
    pub fn map(
        &mut self,
        id: AsId,
        fixed: Option<u64>,
        len: u64,
        prot: Prot,
        backing: Backing,
        label: &'static str,
    ) -> Result<u64, VmError> {
        if len == 0 {
            return Err(VmError::BadRange(0));
        }
        let len = len.div_ceil(FRAME_SIZE) * FRAME_SIZE;
        if let Backing::Shared { seg } = backing {
            if !self.shared.contains_key(&seg) {
                return Err(VmError::NoSuchSegment);
            }
        }
        let space = self.spaces.get_mut(&id).ok_or(VmError::NoSuchSpace)?;
        let start = match fixed {
            Some(va) => {
                if va % FRAME_SIZE != 0 {
                    return Err(VmError::BadAlignment(va));
                }
                if va.saturating_add(len) > USER_TOP {
                    return Err(VmError::BadRange(va));
                }
                if space.is_range_mapped(va, len) {
                    return Err(VmError::MappingExists(va));
                }
                va
            }
            None => space.find_free(len).ok_or(VmError::OutOfMemory)?,
        };
        space.maps.insert(
            start,
            Mapping {
                start,
                len,
                prot,
                backing: backing.clone(),
                label,
            },
        );
        if fixed.is_none() {
            space.mmap_hint = start + len;
        }
        if let Backing::Shared { seg } = backing {
            self.shared.get_mut(&seg).expect("checked above").refs += 1;
        }
        self.bump_epoch();
        Ok(start)
    }

    /// Removes all mappings overlapping `[start, start+len)`, splitting
    /// partially covered ones, and releases the pages in range.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`] on unaligned arguments.
    pub fn unmap(&mut self, id: AsId, start: u64, len: u64) -> Result<(), VmError> {
        if !start.is_multiple_of(FRAME_SIZE) || !len.is_multiple_of(FRAME_SIZE) || len == 0 {
            return Err(VmError::BadAlignment(start));
        }
        let end = start + len;
        let space = self.spaces.get_mut(&id).ok_or(VmError::NoSuchSpace)?;
        // Split/trim overlapping mappings.
        let overlapping: Vec<u64> = space
            .maps
            .values()
            .filter(|m| m.start < end && start < m.end())
            .map(|m| m.start)
            .collect();
        let mut released_segs = Vec::new();
        for mstart in overlapping {
            let m = space.maps.remove(&mstart).expect("present");
            if let Backing::Shared { seg } = m.backing {
                released_segs.push(seg);
            }
            // Left remainder.
            if m.start < start {
                let left = Mapping {
                    start: m.start,
                    len: start - m.start,
                    prot: m.prot,
                    backing: m.backing.clone(),
                    label: m.label,
                };
                if let Backing::Shared { seg } = left.backing {
                    if let Some(s) = self.shared.get_mut(&seg) {
                        s.refs += 1;
                    }
                }
                space.maps.insert(left.start, left);
            }
            // Right remainder.
            if m.end() > end {
                let right = Mapping {
                    start: end,
                    len: m.end() - end,
                    prot: m.prot,
                    backing: match &m.backing {
                        Backing::Image { data, offset } => Backing::Image {
                            data: data.clone(),
                            offset: offset + (end - m.start),
                        },
                        other => other.clone(),
                    },
                    label: m.label,
                };
                if let Backing::Shared { seg } = right.backing {
                    if let Some(s) = self.shared.get_mut(&seg) {
                        s.refs += 1;
                    }
                }
                space.maps.insert(right.start, right);
            }
        }
        // Release pages.
        let vpns: Vec<u64> = (start / FRAME_SIZE..end / FRAME_SIZE).collect();
        let mut to_release = Vec::new();
        for vpn in vpns {
            if let Some(st) = space.pages.remove(&vpn) {
                match st {
                    PageState::Resident { frame, .. } => to_release.push(frame),
                    PageState::Swapped { slot } => self.swap[slot as usize] = None,
                }
            }
        }
        for f in to_release {
            self.release_frame(f);
        }
        for seg in released_segs {
            self.release_seg(seg);
        }
        self.bump_epoch();
        Ok(())
    }

    /// Changes the protection of all mappings fully covering
    /// `[start, start+len)`, splitting partially covered ones. Page
    /// contents and residency are untouched.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`] on unaligned arguments or
    /// [`VmError::Unmapped`] if part of the range has no mapping.
    pub fn protect(&mut self, id: AsId, start: u64, len: u64, prot: Prot) -> Result<(), VmError> {
        if !start.is_multiple_of(FRAME_SIZE) || !len.is_multiple_of(FRAME_SIZE) || len == 0 {
            return Err(VmError::BadAlignment(start));
        }
        let end = start + len;
        // Verify full coverage first.
        let mut cursor = start;
        while cursor < end {
            let space = self.spaces.get(&id).ok_or(VmError::NoSuchSpace)?;
            let m = space.mapping_at(cursor).ok_or(VmError::Unmapped(cursor))?;
            cursor = m.end();
        }
        // Split at the boundaries, then retag protections. Shared-segment
        // refcount adjustments are deferred until the space borrow ends.
        let mut seg_deltas: Vec<(u64, i64)> = Vec::new();
        {
            let space = self.spaces.get_mut(&id).ok_or(VmError::NoSuchSpace)?;
            let overlapping: Vec<u64> = space
                .maps
                .values()
                .filter(|m| m.start < end && start < m.end())
                .map(|m| m.start)
                .collect();
            for mstart in overlapping {
                let m = space.maps.remove(&mstart).expect("present");
                let mut pieces = Vec::new();
                if m.start < start {
                    pieces.push((m.start, start - m.start, m.prot));
                }
                let mid_start = m.start.max(start);
                let mid_end = m.end().min(end);
                pieces.push((mid_start, mid_end - mid_start, prot));
                if m.end() > end {
                    pieces.push((end, m.end() - end, m.prot));
                }
                for (pstart, plen, pprot) in pieces {
                    let backing = match &m.backing {
                        Backing::Image { data, offset } => Backing::Image {
                            data: data.clone(),
                            offset: offset + (pstart - m.start),
                        },
                        other => other.clone(),
                    };
                    if let Backing::Shared { seg } = backing {
                        seg_deltas.push((seg, 1));
                    }
                    space.maps.insert(
                        pstart,
                        Mapping {
                            start: pstart,
                            len: plen,
                            prot: pprot,
                            backing,
                            label: m.label,
                        },
                    );
                }
                if let Backing::Shared { seg } = m.backing {
                    seg_deltas.push((seg, -1));
                }
            }
        }
        for (seg, delta) in seg_deltas {
            if delta > 0 {
                if let Some(s) = self.shared.get_mut(&seg) {
                    s.refs += 1;
                }
            } else {
                self.release_seg(seg);
            }
        }
        // A cached translation carries the access rights it was probed with;
        // revoking a right must force the next access back through the
        // protection check above.
        self.bump_epoch();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shared segments (shmget/shmat substrate)
    // ------------------------------------------------------------------

    /// Creates a shared segment of `len` bytes (eagerly backed).
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] if frames cannot be allocated.
    pub fn create_shared_seg(&mut self, len: u64) -> Result<u64, VmError> {
        let pages = len.div_ceil(FRAME_SIZE);
        let mut frames = Vec::new();
        for _ in 0..pages {
            match self.phys.alloc_frame() {
                Some(f) => {
                    self.frame_refs.insert(f, 1);
                    frames.push(f);
                }
                None => {
                    for f in frames {
                        self.release_frame(f);
                    }
                    return Err(VmError::OutOfMemory);
                }
            }
        }
        let id = self.next_seg;
        self.next_seg += 1;
        self.shared.insert(
            id,
            SharedSeg {
                frames,
                len,
                refs: 1,
            },
        );
        Ok(id)
    }

    /// Drops the creator's reference on a segment (destroyed when the last
    /// attach goes away).
    pub fn release_seg(&mut self, seg: u64) {
        let destroy = match self.shared.get_mut(&seg) {
            Some(s) => {
                s.refs -= 1;
                s.refs == 0
            }
            None => false,
        };
        if destroy {
            let s = self.shared.remove(&seg).expect("present");
            for f in s.frames {
                self.release_frame(f);
            }
            self.bump_epoch();
        }
    }

    /// Length of a shared segment.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchSegment`] for an unknown segment.
    pub fn seg_len(&self, seg: u64) -> Result<u64, VmError> {
        self.shared
            .get(&seg)
            .map(|s| s.len)
            .ok_or(VmError::NoSuchSegment)
    }

    // ------------------------------------------------------------------
    // Translation and demand paging
    // ------------------------------------------------------------------

    /// Non-faulting translation fast path: succeeds only when the page is
    /// already resident and the access needs no VM work at all (no demand
    /// fault, no swap-in, no COW resolution). Takes `&self`, touches no
    /// statistics and has no side effects, so callers may consult it — or a
    /// cache built on top of it — any number of times without perturbing
    /// guest-visible behaviour.
    #[must_use]
    pub fn lookup(&self, id: AsId, vaddr: u64, access: Access) -> Option<PAddr> {
        let space = self.spaces.get(&id)?;
        let mapping = space.mapping_at(vaddr)?;
        if !mapping.prot.allows(access.required_prot()) {
            return None;
        }
        match space.pages.get(&(vaddr / FRAME_SIZE)) {
            Some(&PageState::Resident { frame, cow }) if !(cow && access == Access::Write) => {
                Some(PAddr::new(frame, vaddr % FRAME_SIZE))
            }
            _ => None,
        }
    }

    /// Translates `vaddr` for `access`, faulting pages in and resolving COW
    /// as needed. Returns the physical address.
    ///
    /// # Errors
    ///
    /// [`VmError::Unmapped`], [`VmError::Protection`] or
    /// [`VmError::OutOfMemory`].
    pub fn translate(&mut self, id: AsId, vaddr: u64, access: Access) -> Result<PAddr, VmError> {
        if let Some(pa) = self.lookup(id, vaddr, access) {
            return Ok(pa);
        }
        self.translate_slow(id, vaddr, access)
    }

    /// Faulting slow path behind [`Vm::translate`]: resolves the mapping,
    /// checks protection, and performs whatever VM work the page needs.
    /// May bump the translation epoch (COW resolution, swap-in).
    fn translate_slow(&mut self, id: AsId, vaddr: u64, access: Access) -> Result<PAddr, VmError> {
        let vpn = vaddr / FRAME_SIZE;
        let off = vaddr % FRAME_SIZE;
        let space = self.spaces.get_mut(&id).ok_or(VmError::NoSuchSpace)?;
        let mapping = space.mapping_at(vaddr).ok_or(VmError::Unmapped(vaddr))?;
        if !mapping.prot.allows(access.required_prot()) {
            return Err(VmError::Protection(vaddr));
        }
        let backing = mapping.backing.clone();
        let mstart = mapping.start;
        let state = space.pages.get(&vpn).copied();
        let frame = match state {
            Some(PageState::Resident { frame, cow: false }) => frame,
            Some(PageState::Resident { frame, cow: true }) => {
                if access == Access::Write {
                    self.resolve_cow(id, vpn, frame)?
                } else {
                    frame
                }
            }
            Some(PageState::Swapped { slot }) => self.swap_in(id, vpn, slot)?,
            None => self.fault_in(id, vpn, &backing, mstart)?,
        };
        Ok(PAddr::new(frame, off))
    }

    fn alloc_frame_tracked(&mut self) -> Result<FrameId, VmError> {
        let f = self.phys.alloc_frame().ok_or(VmError::OutOfMemory)?;
        self.frame_refs.insert(f, 1);
        Ok(f)
    }

    fn release_frame(&mut self, f: FrameId) {
        let refs = self.frame_refs.get_mut(&f).expect("untracked frame");
        *refs -= 1;
        if *refs == 0 {
            self.frame_refs.remove(&f);
            self.phys.free_frame(f);
        }
    }

    fn fault_in(
        &mut self,
        id: AsId,
        vpn: u64,
        backing: &Backing,
        mstart: u64,
    ) -> Result<FrameId, VmError> {
        self.stats.faults += 1;
        let frame = match backing {
            Backing::Zero => self.alloc_frame_tracked()?,
            Backing::Image { data, offset } => {
                let frame = self.alloc_frame_tracked()?;
                let page_off_in_mapping = vpn * FRAME_SIZE - mstart;
                let src_start = (offset + page_off_in_mapping) as usize;
                if src_start < data.len() {
                    let n = (data.len() - src_start).min(FRAME_SIZE as usize);
                    let mut page = vec![0u8; FRAME_SIZE as usize];
                    page[..n].copy_from_slice(&data[src_start..src_start + n]);
                    self.phys.set_frame_data(frame, &page).expect("fresh frame");
                }
                frame
            }
            Backing::Shared { seg } => {
                let s = self.shared.get(seg).ok_or(VmError::NoSuchSegment)?;
                let idx = ((vpn * FRAME_SIZE - mstart) / FRAME_SIZE) as usize;
                let f = *s.frames.get(idx).ok_or(VmError::NoSuchSegment)?;
                *self.frame_refs.get_mut(&f).expect("seg frame tracked") += 1;
                f
            }
        };
        let cow = false;
        self.space_mut(id)
            .pages
            .insert(vpn, PageState::Resident { frame, cow });
        Ok(frame)
    }

    fn resolve_cow(&mut self, id: AsId, vpn: u64, frame: FrameId) -> Result<FrameId, VmError> {
        let refs = *self.frame_refs.get(&frame).expect("tracked");
        if refs == 1 {
            // Sole owner: just drop the COW marking.
            self.space_mut(id)
                .pages
                .insert(vpn, PageState::Resident { frame, cow: false });
            self.bump_epoch();
            return Ok(frame);
        }
        let new = self.alloc_frame_tracked()?;
        // Capability-preserving page copy: tags travel with the data.
        self.phys
            .copy_frame_with_tags(frame, new)
            .expect("both frames live");
        self.release_frame(frame);
        self.stats.cow_copies += 1;
        self.space_mut(id).pages.insert(
            vpn,
            PageState::Resident {
                frame: new,
                cow: false,
            },
        );
        // Read translations for this page still point at the old shared
        // frame; the writer must not keep reading stale data through them.
        self.bump_epoch();
        Ok(new)
    }

    // ------------------------------------------------------------------
    // Swap
    // ------------------------------------------------------------------

    fn push_swap_slot(&mut self, slot: SwapSlot) -> u64 {
        if let Some(i) = self.swap.iter().position(|s| s.is_none()) {
            self.swap[i] = Some(slot);
            i as u64
        } else {
            self.swap.push(Some(slot));
            self.swap.len() as u64 - 1
        }
    }

    /// Evicts the page containing `vaddr` to swap: the page's capabilities
    /// are scanned and recorded *untagged* alongside the data (swap does not
    /// preserve tags), then the frame is freed. Pages shared with other
    /// spaces (COW refs > 1, shared segments) are skipped.
    ///
    /// Returns `true` if the page was evicted.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchSpace`] for an unknown space.
    pub fn swap_out(&mut self, id: AsId, vaddr: u64) -> Result<bool, VmError> {
        let vpn = vaddr / FRAME_SIZE;
        let space = self.spaces.get(&id).ok_or(VmError::NoSuchSpace)?;
        let Some(&PageState::Resident { frame, .. }) = space.pages.get(&vpn) else {
            return Ok(false);
        };
        if self.frame_refs.get(&frame).copied().unwrap_or(0) != 1 {
            return Ok(false);
        }
        if let Some(m) = space.mapping_at(vpn * FRAME_SIZE) {
            if matches!(m.backing, Backing::Shared { .. }) {
                return Ok(false);
            }
        }
        // Injected swap-device write error: nothing has been mutated yet,
        // so the page simply stays resident and the caller may retry.
        if self.swap_faults.fail_write() {
            return Err(VmError::SwapIo(vpn * FRAME_SIZE));
        }
        let data = self.phys.frame_data(frame).expect("live frame");
        let caps = self
            .phys
            .scan_caps(frame)
            .expect("live frame")
            .into_iter()
            .map(|(off, c)| (off, c.clear_tag()))
            .collect();
        let slot = self.push_swap_slot(SwapSlot { data, caps });
        self.release_frame(frame);
        self.space_mut(id)
            .pages
            .insert(vpn, PageState::Swapped { slot });
        self.stats.swap_outs += 1;
        // The frame just freed may be reused immediately; any cached
        // translation for this page is dangling.
        self.bump_epoch();
        Ok(true)
    }

    /// Evicts up to `max` private resident pages of a space; returns how
    /// many were evicted. Used by tests and by the kernel's pageout path.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchSpace`] for an unknown space.
    pub fn swap_out_space(&mut self, id: AsId, max: usize) -> Result<usize, VmError> {
        let mut vpns: Vec<u64> = {
            let space = self.spaces.get(&id).ok_or(VmError::NoSuchSpace)?;
            space
                .pages
                .iter()
                .filter(|(_, st)| matches!(st, PageState::Resident { .. }))
                .map(|(&vpn, _)| vpn)
                .collect()
        };
        // The page table is a HashMap; evict in address order rather than
        // (seeded, per-process) iteration order so that *which* pages a
        // bounded pageout takes — and every fault count and cycle total
        // downstream of it — is identical across runs and shards.
        vpns.sort_unstable();
        let mut n = 0;
        for vpn in vpns {
            if n >= max {
                break;
            }
            match self.swap_out(id, vpn * FRAME_SIZE) {
                Ok(true) => n += 1,
                Ok(false) => {}
                // Transient swap-device write error: retry the page once,
                // then skip it — bounded pageout degrades instead of
                // failing. The skip is visible in the swap-fault counters.
                Err(VmError::SwapIo(_)) => match self.swap_out(id, vpn * FRAME_SIZE) {
                    Ok(true) => n += 1,
                    Ok(false) | Err(VmError::SwapIo(_)) => {}
                    Err(e) => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }

    /// Revocation sweep over space `id`: kills every capability pointing
    /// into one of `ranges` (`(base, len)` pairs — typically an
    /// allocator's quarantine list), wherever it lives. Resident pages
    /// have the hit tags cleared in place; pages sitting in swap have the
    /// hit entries dropped from the slot's saved-capability list, so
    /// swap-in cannot rederive a revoked capability later. Every kill
    /// bumps [`VmStats::caps_swept`].
    ///
    /// Returns `(capabilities swept, pages scanned)`.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchSpace`] for an unknown space.
    pub fn revoke_ranges(
        &mut self,
        id: AsId,
        ranges: &[(u64, u64)],
    ) -> Result<(u64, u64), VmError> {
        if ranges.is_empty() {
            return Ok((0, 0));
        }
        let hit = |cap: &Capability| {
            ranges.iter().any(|&(b, l)| {
                (cap.base() as u128) < (b as u128 + l as u128) && cap.top() > b.into()
            })
        };
        let mut pages: Vec<PageState> = self
            .spaces
            .get(&id)
            .ok_or(VmError::NoSuchSpace)?
            .pages
            .values()
            .copied()
            .collect();
        // The page table is a HashMap; fix the walk order so sweep costs
        // (and any counter downstream) are identical across runs.
        pages.sort_unstable_by_key(|st| match st {
            PageState::Resident { frame, .. } => (0, u64::from(frame.0)),
            PageState::Swapped { slot } => (1, *slot),
        });
        let mut swept = 0u64;
        for st in &pages {
            match st {
                PageState::Resident { frame, .. } => {
                    let caps = self.phys.scan_caps(*frame).expect("live frame");
                    for (off, cap) in caps {
                        if hit(&cap) {
                            self.phys
                                .store_cap(PAddr::new(*frame, off), cap.clear_tag())
                                .expect("aligned by scan");
                            swept += 1;
                        }
                    }
                }
                PageState::Swapped { slot } => {
                    let s = self.swap[*slot as usize].as_mut().expect("live swap slot");
                    let before = s.caps.len();
                    s.caps.retain(|(_, cap)| !hit(cap));
                    swept += (before - s.caps.len()) as u64;
                }
            }
        }
        self.stats.caps_swept += swept;
        Ok((swept, pages.len() as u64))
    }

    fn swap_in(&mut self, id: AsId, vpn: u64, slot: u64) -> Result<FrameId, VmError> {
        // Injected swap-device read error: checked before the slot is
        // consumed or a frame allocated, so a retry re-enters this path
        // with the slot still live.
        if self.swap_faults.fail_read() {
            return Err(VmError::SwapIo(vpn * FRAME_SIZE));
        }
        self.stats.faults += 1;
        self.stats.swap_ins += 1;
        let frame = self.alloc_frame_tracked()?;
        let s = self.swap[slot as usize].take().expect("live swap slot");
        self.phys
            .set_frame_data(frame, &s.data)
            .expect("fresh frame");
        // Rederive each saved capability from the space's root: tags return
        // only for capabilities whose authority the principal actually has.
        let root = self.space(id).root;
        for (off, saved) in s.caps {
            // A capability whose owning mapping was unmapped while the page
            // sat in swap must not come back tagged: report it instead of
            // folding it into the authority-refusal count.
            if self.space(id).mapping_at(saved.base()).is_none() {
                self.stats.caps_orphaned += 1;
                continue;
            }
            match saved.rederive(&root) {
                Ok(c) => {
                    self.phys
                        .store_cap(PAddr::new(frame, off), c)
                        .expect("aligned by scan");
                    self.stats.caps_rederived += 1;
                }
                Err(_) => {
                    self.stats.caps_refused += 1;
                }
            }
        }
        self.space_mut(id)
            .pages
            .insert(vpn, PageState::Resident { frame, cow: false });
        self.bump_epoch();
        Ok(frame)
    }

    // ------------------------------------------------------------------
    // Byte / capability accessors (used by the CPU and the kernel)
    // ------------------------------------------------------------------

    /// Reads bytes, splitting the access at page boundaries.
    ///
    /// # Errors
    ///
    /// Any translation fault for a touched page.
    pub fn read_bytes(&mut self, id: AsId, vaddr: u64, buf: &mut [u8]) -> Result<(), VmError> {
        let mut done = 0usize;
        while done < buf.len() {
            let va = vaddr + done as u64;
            let in_page = (FRAME_SIZE - va % FRAME_SIZE) as usize;
            let n = in_page.min(buf.len() - done);
            let pa = self.translate(id, va, Access::Read)?;
            self.phys
                .read_bytes(pa, &mut buf[done..done + n])
                .expect("translated frame");
            done += n;
        }
        Ok(())
    }

    /// Writes bytes, splitting at page boundaries; clears tags of touched
    /// granules.
    ///
    /// # Errors
    ///
    /// Any translation fault for a touched page.
    pub fn write_bytes(&mut self, id: AsId, vaddr: u64, buf: &[u8]) -> Result<(), VmError> {
        let mut done = 0usize;
        while done < buf.len() {
            let va = vaddr + done as u64;
            let in_page = (FRAME_SIZE - va % FRAME_SIZE) as usize;
            let n = in_page.min(buf.len() - done);
            let pa = self.translate(id, va, Access::Write)?;
            self.phys
                .write_bytes(pa, &buf[done..done + n])
                .expect("translated frame");
            done += n;
        }
        Ok(())
    }

    /// Reads a little-endian u64 (need not be aligned).
    ///
    /// # Errors
    ///
    /// Any translation fault.
    pub fn read_u64(&mut self, id: AsId, vaddr: u64) -> Result<u64, VmError> {
        let mut b = [0u8; 8];
        self.read_bytes(id, vaddr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian u64.
    ///
    /// # Errors
    ///
    /// Any translation fault.
    pub fn write_u64(&mut self, id: AsId, vaddr: u64, v: u64) -> Result<(), VmError> {
        self.write_bytes(id, vaddr, &v.to_le_bytes())
    }

    /// Loads the capability at 16-byte-aligned `vaddr`; `None` when the
    /// granule's tag is clear.
    ///
    /// # Errors
    ///
    /// Any translation fault.
    pub fn load_cap(&mut self, id: AsId, vaddr: u64) -> Result<Option<Capability>, VmError> {
        let pa = self.translate(id, vaddr, Access::Read)?;
        // Every capability-width load funnels through here (CPU CLC and
        // kernel copy paths alike): let the fault plane count loads that
        // observe a still-tagged corrupted granule.
        self.phys.note_cap_load(pa);
        Ok(self.phys.load_cap(pa).expect("translated frame"))
    }

    /// Stores a capability at aligned `vaddr` (tag follows `cap.tag()`).
    ///
    /// # Errors
    ///
    /// Any translation fault.
    pub fn store_cap(&mut self, id: AsId, vaddr: u64, cap: Capability) -> Result<(), VmError> {
        let pa = self.translate(id, vaddr, Access::Write)?;
        self.phys.store_cap(pa, cap).expect("translated frame");
        Ok(())
    }

    /// Reads bytes without any side effect at all: built on [`Vm::lookup`],
    /// so it never faults a page in, never bumps the epoch, and touches no
    /// statistics. Splits at page boundaries. Returns `None` when any
    /// touched page is not resident and readable — the lockstep shadow
    /// treats that as "the fast machine must have faulted here too".
    #[must_use]
    pub fn peek_bytes(&self, id: AsId, vaddr: u64, buf: &mut [u8]) -> Option<()> {
        let mut done = 0usize;
        while done < buf.len() {
            let va = vaddr + done as u64;
            let in_page = (FRAME_SIZE - va % FRAME_SIZE) as usize;
            let n = in_page.min(buf.len() - done);
            let pa = self.lookup(id, va, Access::Read)?;
            self.phys
                .read_bytes(pa, &mut buf[done..done + n])
                .expect("resident frame");
            done += n;
        }
        Some(())
    }

    /// Loads the capability granule at aligned `vaddr` without side
    /// effects: no demand fault, no statistics, and — unlike
    /// [`Vm::load_cap`] — no capability-load note for the fault plane, so
    /// a shadow observation can never trip a fault trigger the real access
    /// would not have tripped. `None` when the page is not resident and
    /// readable; `Some(None)` when the granule's tag is clear.
    #[must_use]
    pub fn peek_cap(&self, id: AsId, vaddr: u64) -> Option<Option<Capability>> {
        let pa = self.lookup(id, vaddr, Access::Read)?;
        Some(self.phys.load_cap(pa).expect("resident frame"))
    }

    /// Creates a fresh root-capability format probe: which format spaces
    /// use is decided by the kernel at boot.
    #[must_use]
    pub fn space_format(&self, id: AsId) -> CapFormat {
        self.space(id).root.format()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::{CapSource, Perms};
    use std::sync::Arc;

    fn setup() -> (Vm, AsId) {
        let mut vm = Vm::new(64);
        let id = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
        (vm, id)
    }

    #[test]
    fn demand_zero_and_rw() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 8192, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        vm.write_u64(id, base + 100, 42).unwrap();
        assert_eq!(vm.read_u64(id, base + 100).unwrap(), 42);
        assert_eq!(vm.stats.faults, 1);
        assert_eq!(vm.read_u64(id, base + 4096).unwrap(), 0);
        assert_eq!(vm.stats.faults, 2);
    }

    #[test]
    fn peeks_observe_without_perturbing() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 8192, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        // Nothing resident yet: peeks refuse rather than fault in.
        let mut b = [0u8; 8];
        assert_eq!(vm.peek_bytes(id, base, &mut b), None);
        assert_eq!(vm.peek_cap(id, base), None);
        vm.write_u64(id, base + 8, 0xfeed).unwrap();
        let root = vm.space(id).root;
        vm.store_cap(id, base + 16, root).unwrap();
        let stats_before = vm.stats;
        let epoch_before = vm.epoch();
        let notes_before = vm.phys.faults().corrupt_cap_loads;
        assert!(vm.peek_bytes(id, base + 8, &mut b).is_some());
        assert_eq!(u64::from_le_bytes(b), 0xfeed);
        assert_eq!(vm.peek_cap(id, base + 16), Some(Some(root)));
        assert_eq!(vm.peek_cap(id, base + 8 * 4), Some(None), "untagged");
        // Page two is still unfaulted and the peek must not change that.
        assert_eq!(vm.peek_bytes(id, base + 4096, &mut b), None);
        assert_eq!(vm.stats, stats_before, "no VM statistics touched");
        assert_eq!(vm.epoch(), epoch_before, "no epoch bump");
        assert_eq!(
            vm.phys.faults().corrupt_cap_loads,
            notes_before,
            "no capability-load notes for the fault plane"
        );
    }

    #[test]
    fn unmapped_and_protection_faults() {
        let (mut vm, id) = setup();
        assert_eq!(vm.read_u64(id, 0x1234), Err(VmError::Unmapped(0x1234)));
        let base = vm
            .map(id, None, 4096, Prot::READ, Backing::Zero, "ro")
            .unwrap();
        assert_eq!(vm.write_u64(id, base, 1), Err(VmError::Protection(base)));
    }

    #[test]
    fn image_backing_populates_pages() {
        let (mut vm, id) = setup();
        let mut img = vec![0u8; 5000];
        img[0] = 0xaa;
        img[4999] = 0xbb;
        let base = vm
            .map(
                id,
                Some(0x10000),
                8192,
                Prot::rx(),
                Backing::Image {
                    data: Arc::new(img),
                    offset: 0,
                },
                "text",
            )
            .unwrap();
        let mut b = [0u8; 1];
        vm.read_bytes(id, base, &mut b).unwrap();
        assert_eq!(b[0], 0xaa);
        vm.read_bytes(id, base + 4999, &mut b).unwrap();
        assert_eq!(b[0], 0xbb);
        vm.read_bytes(id, base + 5001, &mut b).unwrap();
        assert_eq!(b[0], 0, "beyond template is zero");
    }

    #[test]
    fn fixed_mapping_collision_detected() {
        let (mut vm, id) = setup();
        vm.map(id, Some(0x20000), 4096, Prot::rw(), Backing::Zero, "a")
            .unwrap();
        assert_eq!(
            vm.map(id, Some(0x20000), 4096, Prot::rw(), Backing::Zero, "b"),
            Err(VmError::MappingExists(0x20000))
        );
    }

    #[test]
    fn unmap_splits_mappings() {
        let (mut vm, id) = setup();
        let base = vm
            .map(
                id,
                Some(0x30000),
                3 * 4096,
                Prot::rw(),
                Backing::Zero,
                "big",
            )
            .unwrap();
        vm.write_u64(id, base, 1).unwrap();
        vm.write_u64(id, base + 4096, 2).unwrap();
        vm.write_u64(id, base + 8192, 3).unwrap();
        vm.unmap(id, base + 4096, 4096).unwrap();
        assert_eq!(vm.read_u64(id, base).unwrap(), 1);
        assert_eq!(vm.read_u64(id, base + 8192).unwrap(), 3);
        assert_eq!(
            vm.read_u64(id, base + 4096),
            Err(VmError::Unmapped(base + 4096))
        );
    }

    #[test]
    fn cow_after_fork_preserves_tags_and_isolation() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 4096, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        let space_root = vm.space(id).root;
        let cap = space_root.with_addr(base).set_bounds(64, true).unwrap();
        vm.store_cap(id, base, cap).unwrap();
        vm.write_u64(id, base + 64, 7).unwrap();

        let child = vm.fork_space(id).unwrap();
        // Child sees the capability (with its tag) and the data.
        assert_eq!(vm.load_cap(child, base).unwrap(), Some(cap));
        assert_eq!(vm.read_u64(child, base + 64).unwrap(), 7);
        // Child writes: COW copy, tags preserved on the copied page.
        vm.write_u64(child, base + 64, 8).unwrap();
        assert_eq!(vm.stats.cow_copies, 1);
        assert_eq!(
            vm.load_cap(child, base).unwrap(),
            Some(cap),
            "tag survived the copy"
        );
        // Parent unchanged.
        assert_eq!(vm.read_u64(id, base + 64).unwrap(), 7);
        assert_eq!(vm.read_u64(child, base + 64).unwrap(), 8);
    }

    #[test]
    fn swap_roundtrip_rederives_capabilities() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 4096, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        let root = vm.space(id).root;
        let cap = root
            .with_addr(base)
            .set_bounds(128, true)
            .unwrap()
            .and_perms(Perms::user_data())
            .with_source(CapSource::Malloc);
        vm.store_cap(id, base + 16, cap).unwrap();
        vm.write_u64(id, base + 200, 99).unwrap();

        assert!(vm.swap_out(id, base).unwrap());
        assert_eq!(vm.stats.swap_outs, 1);
        // Touch the page: swap-in + rederivation.
        assert_eq!(vm.read_u64(id, base + 200).unwrap(), 99);
        assert_eq!(vm.stats.swap_ins, 1);
        let restored = vm.load_cap(id, base + 16).unwrap().expect("tag restored");
        assert_eq!(restored.base(), cap.base());
        assert_eq!(restored.top(), cap.top());
        assert_eq!(restored.perms(), cap.perms());
        assert_eq!(restored.addr(), cap.addr());
        assert!(restored.tag());
        assert_eq!(vm.stats.caps_rederived, 1);
    }

    #[test]
    fn swap_in_refuses_excess_authority() {
        // A capability whose perms exceed the space root (e.g. SYSTEM_REGS)
        // must NOT regain its tag at swap-in.
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 4096, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        let kroot = Capability::root(CapFormat::C128, PrincipalId::KERNEL, CapSource::Boot);
        let evil = kroot.with_addr(base).set_bounds(64, true).unwrap(); // retains SYSTEM_REGS
        vm.store_cap(id, base, evil).unwrap();
        assert!(vm.swap_out(id, base).unwrap());
        assert_eq!(
            vm.load_cap(id, base).unwrap(),
            None,
            "tag must not be rederived"
        );
        assert_eq!(vm.stats.caps_refused, 1);
    }

    #[test]
    fn shared_segment_visible_across_spaces() {
        let mut vm = Vm::new(64);
        let a = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
        let b = vm.create_space(PrincipalId::from_raw(2), CapFormat::C128);
        let seg = vm.create_shared_seg(4096).unwrap();
        let va = vm
            .map(a, None, 4096, Prot::rw(), Backing::Shared { seg }, "shm")
            .unwrap();
        let vb = vm
            .map(b, None, 4096, Prot::rw(), Backing::Shared { seg }, "shm")
            .unwrap();
        vm.write_u64(a, va + 8, 1234).unwrap();
        assert_eq!(vm.read_u64(b, vb + 8).unwrap(), 1234);
        // Shared pages are never swapped by the private-page path.
        assert!(!vm.swap_out(a, va).unwrap());
    }

    #[test]
    fn destroy_space_releases_frames() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 8192, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        vm.write_u64(id, base, 1).unwrap();
        vm.write_u64(id, base + 4096, 1).unwrap();
        let before = vm.phys.allocated_frames();
        assert_eq!(before, 2);
        vm.destroy_space(id);
        assert_eq!(vm.phys.allocated_frames(), 0);
    }

    #[test]
    fn destroy_space_frees_frames_in_vpn_order() {
        // Touch 16 pages in a scrambled order, tear the space down, then
        // fault 16 fresh pages in ascending order. Frames are released in
        // ascending vpn order onto a LIFO free list, so the j-th fresh page
        // must reuse the frame of the torn-down space's page 15 - j —
        // whatever order the page table iterates in.
        let (mut vm, a) = setup();
        let base_a = vm
            .map(a, None, 16 * 4096, Prot::rw(), Backing::Zero, "a")
            .unwrap();
        for k in [9u64, 3, 14, 0, 7, 12, 1, 5, 15, 2, 10, 6, 13, 4, 11, 8] {
            vm.write_u64(a, base_a + k * 4096, k).unwrap();
        }
        let frame = |vm: &mut Vm, id: AsId, va: u64| {
            vm.translate(id, va, Access::Read).unwrap().0 / FRAME_SIZE
        };
        let held: Vec<u64> = (0..16)
            .map(|k| frame(&mut vm, a, base_a + k * 4096))
            .collect();
        vm.destroy_space(a);
        let b = vm.create_space(PrincipalId::from_raw(2), CapFormat::C128);
        let base_b = vm
            .map(b, None, 16 * 4096, Prot::rw(), Backing::Zero, "b")
            .unwrap();
        let reused: Vec<u64> = (0..16)
            .map(|j| {
                vm.write_u64(b, base_b + j * 4096, j).unwrap();
                frame(&mut vm, b, base_b + j * 4096)
            })
            .collect();
        let expected: Vec<u64> = held.iter().rev().copied().collect();
        assert_eq!(reused, expected);
    }

    #[test]
    fn fork_shares_frames_until_write() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 4096, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        vm.write_u64(id, base, 5).unwrap();
        let frames_before = vm.phys.allocated_frames();
        let child = vm.fork_space(id).unwrap();
        assert_eq!(vm.phys.allocated_frames(), frames_before, "no copy yet");
        assert_eq!(vm.read_u64(child, base).unwrap(), 5);
        assert_eq!(
            vm.phys.allocated_frames(),
            frames_before,
            "reads stay shared"
        );
        vm.write_u64(id, base, 6).unwrap();
        assert_eq!(
            vm.phys.allocated_frames(),
            frames_before + 1,
            "writer copied"
        );
        assert_eq!(vm.read_u64(child, base).unwrap(), 5);
    }

    #[test]
    fn epoch_bumps_on_every_mapping_mutation() {
        let (mut vm, id) = setup();
        let mut last = vm.epoch();
        let base = vm
            .map(id, None, 8192, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        assert!(vm.epoch() > last, "map must bump the epoch");
        last = vm.epoch();
        vm.write_u64(id, base, 1).unwrap();
        assert_eq!(vm.epoch(), last, "pure demand fault must not bump");
        let child = vm.fork_space(id).unwrap();
        assert!(vm.epoch() > last, "fork_space must bump the epoch");
        last = vm.epoch();
        vm.write_u64(id, base, 2).unwrap();
        assert!(vm.epoch() > last, "COW resolution must bump the epoch");
        last = vm.epoch();
        vm.protect(id, base, 4096, Prot::READ).unwrap();
        assert!(vm.epoch() > last, "protect must bump the epoch");
        last = vm.epoch();
        vm.destroy_space(child);
        assert!(vm.epoch() > last, "destroy_space must bump the epoch");
        last = vm.epoch();
        // Fault the second page in privately, then push it through a swap
        // round trip.
        vm.write_u64(id, base + 4096, 3).unwrap();
        assert_eq!(vm.epoch(), last, "pure demand fault must not bump");
        assert!(vm.swap_out(id, base + 4096).unwrap());
        assert!(vm.epoch() > last, "swap_out must bump the epoch");
        last = vm.epoch();
        assert_eq!(vm.read_u64(id, base + 4096).unwrap(), 3);
        assert!(vm.epoch() > last, "swap_in must bump the epoch");
        last = vm.epoch();
        vm.unmap(id, base + 4096, 4096).unwrap();
        assert!(vm.epoch() > last, "unmap must bump the epoch");
    }

    #[test]
    fn swap_in_reports_orphaned_caps_when_mapping_vanished() {
        let (mut vm, id) = setup();
        let holder = vm
            .map(id, Some(0x40000), 4096, Prot::rw(), Backing::Zero, "holder")
            .unwrap();
        let target = vm
            .map(id, Some(0x50000), 4096, Prot::rw(), Backing::Zero, "target")
            .unwrap();
        let root = vm.space(id).root;
        let cap = root
            .with_addr(target)
            .set_bounds(64, true)
            .unwrap()
            .and_perms(Perms::user_data())
            .with_source(CapSource::Malloc);
        vm.store_cap(id, holder + 16, cap).unwrap();
        assert!(vm.swap_out(id, holder).unwrap());
        // The mapping owning the capability's memory vanishes while the
        // holder page sits in swap.
        vm.unmap(id, target, 4096).unwrap();
        assert_eq!(
            vm.load_cap(id, holder + 16).unwrap(),
            None,
            "orphaned capability must come back untagged"
        );
        assert_eq!(vm.stats.caps_orphaned, 1, "orphan reported, not dropped");
        assert_eq!(vm.stats.caps_refused, 0);
        assert_eq!(vm.stats.caps_rederived, 0);
        assert_eq!(
            vm.stats.caps_swept, 0,
            "no sweep ran; planes must not alias"
        );
    }

    #[test]
    fn revoke_ranges_sweeps_resident_and_swapped_holders() {
        let (mut vm, id) = setup();
        let holder = vm
            .map(id, Some(0x40000), 8192, Prot::rw(), Backing::Zero, "holder")
            .unwrap();
        let target = vm
            .map(id, Some(0x50000), 4096, Prot::rw(), Backing::Zero, "target")
            .unwrap();
        let root = vm.space(id).root;
        let cap = root
            .with_addr(target)
            .set_bounds(64, true)
            .unwrap()
            .and_perms(Perms::user_data())
            .with_source(CapSource::Malloc);
        // One stale holder stays resident, one goes through swap.
        vm.store_cap(id, holder + 16, cap).unwrap();
        vm.store_cap(id, holder + 4096 + 32, cap).unwrap();
        assert!(vm.swap_out(id, holder + 4096).unwrap());
        let (swept, _) = vm.revoke_ranges(id, &[(target, 64)]).unwrap();
        assert_eq!(swept, 2, "resident tag cleared and swap entry dropped");
        assert_eq!(vm.stats.caps_swept, 2);
        assert_eq!(
            vm.load_cap(id, holder + 16).unwrap(),
            None,
            "resident stale capability is dead"
        );
        assert_eq!(
            vm.load_cap(id, holder + 4096 + 32).unwrap(),
            None,
            "swap-in must not rederive a swept capability"
        );
        // The sweep is what killed the swapped holder — not the swap
        // rederivation plane: the target mapping still exists, so without
        // the sweep this would have come back tagged.
        assert_eq!(vm.stats.caps_orphaned, 0, "swept, not orphaned");
        assert_eq!(vm.stats.caps_rederived, 0);
        // Idempotence: a second sweep finds nothing left to kill.
        let (again, _) = vm.revoke_ranges(id, &[(target, 64)]).unwrap();
        assert_eq!(again, 0);
        assert_eq!(vm.stats.caps_swept, 2);
    }

    #[test]
    fn injected_swap_read_error_is_transient_and_retryable() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 4096, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        vm.write_u64(id, base + 8, 77).unwrap();
        assert!(vm.swap_out(id, base).unwrap());
        vm.arm_swap_faults(SwapFaultSpec {
            read_fail_at: Some(1),
            read_fail_count: 1,
            ..SwapFaultSpec::default()
        });
        assert_eq!(
            vm.read_u64(id, base + 8),
            Err(VmError::SwapIo(base)),
            "first swap-in attempt fails"
        );
        assert_eq!(vm.swap_faults().read_errors, 1);
        // The slot was not consumed: the retry succeeds with the data intact.
        assert_eq!(vm.read_u64(id, base + 8).unwrap(), 77);
        assert_eq!(vm.stats.swap_ins, 1);
    }

    #[test]
    fn injected_swap_write_error_degrades_bounded_pageout() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 2 * 4096, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        vm.write_u64(id, base, 1).unwrap();
        vm.write_u64(id, base + 4096, 2).unwrap();
        // Two consecutive write failures: the first page fails its initial
        // attempt and its retry, so it is skipped; the second page evicts.
        vm.arm_swap_faults(SwapFaultSpec {
            write_fail_at: Some(1),
            write_fail_count: 2,
            ..SwapFaultSpec::default()
        });
        let n = vm.swap_out_space(id, 8).unwrap();
        assert_eq!(n, 1, "one page skipped, one evicted");
        assert_eq!(vm.swap_faults().write_errors, 2);
        assert_eq!(vm.read_u64(id, base).unwrap(), 1, "skipped page intact");
        assert_eq!(vm.read_u64(id, base + 4096).unwrap(), 2);
    }

    #[test]
    fn lookup_is_side_effect_free_and_matches_translate() {
        let (mut vm, id) = setup();
        let base = vm
            .map(id, None, 4096, Prot::rw(), Backing::Zero, "anon")
            .unwrap();
        // Nothing resident yet: lookup must refuse rather than fault in.
        assert_eq!(vm.lookup(id, base, Access::Read), None);
        assert_eq!(vm.stats.faults, 0);
        let pa = vm.translate(id, base + 8, Access::Write).unwrap();
        assert_eq!(vm.lookup(id, base + 8, Access::Write), Some(pa));
        // A COW page is visible to reads but not writes via the fast path.
        vm.fork_space(id).unwrap();
        let faults = vm.stats.faults;
        let cows = vm.stats.cow_copies;
        let epoch = vm.epoch();
        for _ in 0..4 {
            assert!(vm.lookup(id, base, Access::Read).is_some());
            assert_eq!(vm.lookup(id, base, Access::Write), None);
        }
        assert_eq!(vm.stats.faults, faults, "lookup must not fault");
        assert_eq!(vm.stats.cow_copies, cows, "lookup must not resolve COW");
        assert_eq!(vm.epoch(), epoch, "lookup must not bump the epoch");
    }
}
