//! Tagged physical memory: 4-KiB frames with one tag bit per 16-byte granule.

use crate::intmap::IntSet;
use cheri_cap::{Capability, TAG_GRANULE};
use std::fmt;

/// Size of a physical frame (and of a virtual page) in bytes.
pub const FRAME_SIZE: u64 = 4096;

const GRANULES_PER_FRAME: usize = (FRAME_SIZE / TAG_GRANULE) as usize;

/// Identifier of an allocated physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FrameId(pub u32);

/// A physical address: frame number and offset combined.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PAddr(pub u64);

impl PAddr {
    /// Builds a physical address from a frame and an in-frame offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= FRAME_SIZE`.
    #[must_use]
    pub fn new(frame: FrameId, offset: u64) -> PAddr {
        assert!(offset < FRAME_SIZE, "offset {offset} out of frame");
        PAddr(u64::from(frame.0) * FRAME_SIZE + offset)
    }

    /// The frame this address falls in.
    #[must_use]
    pub fn frame(self) -> FrameId {
        FrameId((self.0 / FRAME_SIZE) as u32)
    }

    /// Offset within the frame.
    #[must_use]
    pub fn offset(self) -> u64 {
        self.0 % FRAME_SIZE
    }
}

impl fmt::Debug for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PAddr({:#x})", self.0)
    }
}

#[derive(Clone)]
struct Frame {
    data: Box<[u8]>,
    /// One bit per 16-byte granule.
    tags: [u64; GRANULES_PER_FRAME / 64],
    /// Full capability values for tagged granules, allocated on the
    /// frame's first tagged store. The `data` bytes hold the address so
    /// integer reads of pointer memory behave like real CHERI; the rest of
    /// the encoding lives here.
    slab: Option<Box<Slab>>,
}

/// A frame's capability slab: a dense `Vec` of capability values and,
/// per granule, the index of its slot in it. A granule gets a slot on its
/// first tagged store and keeps it, so a later store to it overwrites the
/// slot in place, and a tag clear touches only the frame's bitmap: the
/// slot's stale value is unreachable until the next tagged store to that
/// granule replaces it. Only a tagged granule's slot is ever read.
#[derive(Clone)]
struct Slab {
    /// Slot index of each granule in `caps`, [`NO_SLOT`] if it has none.
    slot: [u16; GRANULES_PER_FRAME],
    /// The values, in the order the granules first took a slot.
    caps: Vec<Capability>,
}

/// [`Slab::slot`]'s "no slot yet": a frame has fewer granules.
const NO_SLOT: u16 = u16::MAX;
const _: () = assert!(GRANULES_PER_FRAME < NO_SLOT as usize);

impl Slab {
    /// The value in granule `g`'s slot; `g` must have one.
    fn get(&self, g: usize) -> &Capability {
        &self.caps[usize::from(self.slot[g])]
    }

    /// Puts `cap` in granule `g`'s slot, taking a new one on its first
    /// store.
    fn put(&mut self, g: usize, cap: Capability) {
        match self.slot[g] {
            NO_SLOT => {
                self.slot[g] = self.caps.len() as u16;
                self.caps.push(cap);
            }
            s => self.caps[usize::from(s)] = cap,
        }
    }
}

impl Frame {
    /// An untagged frame holding `data`.
    fn new(data: Box<[u8]>) -> Frame {
        Frame {
            data,
            tags: [0; GRANULES_PER_FRAME / 64],
            slab: None,
        }
    }

    #[inline]
    fn tag_bit(&self, granule: usize) -> bool {
        self.tags[granule / 64] >> (granule % 64) & 1 == 1
    }

    #[inline]
    fn clear_tag(&mut self, granule: usize) {
        self.tags[granule / 64] &= !(1 << (granule % 64));
    }

    /// The capability of tagged granule `g`, `None` if it is untagged.
    #[inline]
    fn cap(&self, g: usize) -> Option<&Capability> {
        if self.tag_bit(g) {
            // A tagged granule always has a slot: only `store_cap` sets a
            // tag, and it fills the slot first.
            self.slab.as_deref().map(|s| s.get(g))
        } else {
            None
        }
    }

    /// Tags granule `g` as holding `cap`.
    fn set_cap(&mut self, g: usize, cap: Capability) {
        self.slab
            .get_or_insert_with(|| {
                Box::new(Slab {
                    slot: [NO_SLOT; GRANULES_PER_FRAME],
                    caps: Vec::new(),
                })
            })
            .put(g, cap);
        self.tags[g / 64] |= 1 << (g % 64);
    }
}

/// The little-endian `N`-byte word of `data` at `off`.
#[inline]
fn word<const N: usize>(data: &[u8], off: usize) -> [u8; N] {
    data[off..off + N].try_into().expect("an N-byte range")
}

/// A scheduled physical-memory bit-flip: after `after_mutations` mutating
/// accesses (data writes and capability stores), one bit of one granule is
/// flipped. Deterministic: the same spec against the same access stream
/// always corrupts the same bit of the same granule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhysFaultSpec {
    /// Fire once this many mutating accesses have been observed.
    pub after_mutations: u64,
    /// Bit index within the 128-bit granule to flip (taken mod 128).
    pub bit: u32,
    /// When true, corrupt a stored capability: once due, the flip fires at
    /// the next capability-width *load* of a tagged granule, so the
    /// corrupted value is by construction the one about to be observed
    /// (corruption of memory that is never read again is invisible and
    /// proves nothing). When false, corrupt the granule touched by the
    /// triggering mutating access (plain data).
    pub target_cap: bool,
    /// Test-only weakening: leave the tag set on a corrupted capability
    /// granule instead of clearing it. Used by the fault campaign to prove
    /// its silent-success oracle actually detects escapes.
    pub preserve_tag: bool,
}

/// Injector state and counters for the physical-memory fault plane.
#[derive(Clone, Debug, Default)]
pub struct PhysFaults {
    spec: Option<PhysFaultSpec>,
    fired: bool,
    /// Granules whose bytes were corrupted by the injector and not yet
    /// rewritten, as `(frame, granule)` pairs.
    corrupt: IntSet<(u32, u16)>,
    /// Mutating accesses observed (write paths only; loads are free).
    pub mutations: u64,
    /// Bit-flips actually performed.
    pub flips: u64,
    /// Tags cleared because corruption hit a tagged granule (the CHERI
    /// capability-integrity semantics).
    pub tags_cleared: u64,
    /// Tags left set on a corrupted granule (test-only weakening).
    pub tags_preserved: u64,
    /// Capability loads that returned a still-tagged corrupted granule —
    /// every one of these is an escape of capability integrity.
    pub corrupt_cap_loads: u64,
}

impl PhysFaults {
    /// True once the armed flip has been performed.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired
    }
}

/// Error returned when addressing an unallocated frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadFrame(pub FrameId);

impl fmt::Display for BadFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "access to unallocated physical frame {:?}", self.0)
    }
}

impl std::error::Error for BadFrame {}

/// The machine's tagged physical memory.
///
/// ```
/// use cheri_mem::{PhysMem, PAddr};
/// use cheri_cap::{Capability, CapFormat, CapSource, PrincipalId};
///
/// let mut pm = PhysMem::new(16);
/// let f = pm.alloc_frame().unwrap();
/// let a = PAddr::new(f, 0);
/// let cap = Capability::root(CapFormat::C128, PrincipalId::KERNEL, CapSource::Boot);
/// pm.store_cap(a, cap);
/// assert_eq!(pm.load_cap(a).unwrap(), Some(cap));
/// // Overwriting any byte of the granule with data clears the tag.
/// pm.write_u8(PAddr::new(f, 3), 0xff).unwrap();
/// assert_eq!(pm.load_cap(a).unwrap(), None);
/// ```
pub struct PhysMem {
    /// Every frame id handed out so far, indexed by id; grows on demand up
    /// to `capacity`, so memory the guest never touches costs nothing.
    frames: Vec<Option<Frame>>,
    /// Frames that were freed, reused LIFO before any fresh id.
    free: Vec<FrameId>,
    capacity: usize,
    allocated: usize,
    faults: PhysFaults,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PhysMem{{frames={}, allocated={}}}",
            self.capacity, self.allocated
        )
    }
}

impl PhysMem {
    /// Creates physical memory with capacity for `num_frames` frames.
    /// Nothing is allocated until a frame is first needed.
    #[must_use]
    pub fn new(num_frames: usize) -> PhysMem {
        PhysMem {
            frames: Vec::new(),
            free: Vec::new(),
            capacity: num_frames,
            allocated: 0,
            faults: PhysFaults::default(),
        }
    }

    /// Arms the fault injector; the flip fires on the scheduled mutating
    /// access (see [`PhysFaultSpec`]).
    pub fn arm_faults(&mut self, spec: PhysFaultSpec) {
        self.faults.spec = Some(spec);
        self.faults.fired = false;
    }

    /// Injector state and counters.
    #[must_use]
    pub fn faults(&self) -> &PhysFaults {
        &self.faults
    }

    /// Counts one mutating access and fires an armed *data* flip when due
    /// (capability flips fire on load instead, see [`PhysMem::note_cap_load`]).
    /// `addr` is the address of the access that advanced the counter; the
    /// caller has already finished the access, tag update included, so a
    /// flip on a capability store's granule meets the tag that store set.
    #[inline]
    fn note_mutation(&mut self, addr: PAddr) {
        self.faults.mutations += 1;
        let Some(spec) = self.faults.spec else { return };
        if spec.target_cap || self.faults.fired || self.faults.mutations < spec.after_mutations {
            return;
        }
        self.flip(spec, addr);
    }

    /// Records a capability-width load at `addr`, firing a due capability
    /// flip on the granule being loaded: the corruption lands exactly on a
    /// value the machine is about to observe, so the normal semantics
    /// (clear the tag) must surface as an untagged load, and the weakened
    /// semantics (tag preserved) must surface as a counted escape. A load
    /// that observes a still-tagged corrupted granule is a
    /// capability-integrity escape; callers (the VM layer and the CPU's
    /// data path) invoke this on every capability load so the fault
    /// campaign's silent-success oracle can count them.
    #[inline]
    pub fn note_cap_load(&mut self, addr: PAddr) {
        let fid = addr.frame();
        let g = (addr.offset() / TAG_GRANULE) as usize;
        if let Some(spec) = self.faults.spec {
            if spec.target_cap
                && !self.faults.fired
                && self.faults.mutations >= spec.after_mutations
                && self.frame(fid).is_ok_and(|f| f.tag_bit(g))
            {
                self.flip(spec, addr);
            }
        }
        if self.faults.corrupt.is_empty() {
            return;
        }
        if self.faults.corrupt.contains(&(fid.0, g as u16))
            && self.frame(fid).is_ok_and(|f| f.tag_bit(g))
        {
            self.faults.corrupt_cap_loads += 1;
        }
    }

    /// Performs the armed flip on the granule holding `addr` and marks it
    /// corrupt. A tagged granule loses its tag (CHERI semantics: any
    /// in-place change that did not come from a capability store clears
    /// it, so a later dereference traps), unless the test-only
    /// `preserve_tag` weakening keeps it, which is counted as an escape in
    /// the making.
    fn flip(&mut self, spec: PhysFaultSpec, addr: PAddr) {
        let fid = addr.frame();
        let g = (addr.offset() / TAG_GRANULE) as usize % GRANULES_PER_FRAME;
        let Ok(f) = self.frame_mut(fid) else { return };
        let byte = g * TAG_GRANULE as usize + (spec.bit as usize / 8) % TAG_GRANULE as usize;
        f.data[byte] ^= 1 << (spec.bit % 8);
        if f.tag_bit(g) {
            if spec.preserve_tag {
                self.faults.tags_preserved += 1;
            } else {
                f.clear_tag(g);
                self.faults.tags_cleared += 1;
            }
        }
        self.faults.fired = true;
        self.faults.flips += 1;
        self.faults.corrupt.insert((fid.0, g as u16));
    }

    /// Forgets corruption markings for granules `g0..=g1` of `frame` —
    /// called when those granules are legitimately rewritten.
    #[inline]
    fn clear_corrupt_range(&mut self, frame: FrameId, g0: usize, g1: usize) {
        if self.faults.corrupt.is_empty() {
            return;
        }
        for g in g0..=g1 {
            self.faults.corrupt.remove(&(frame.0, g as u16));
        }
    }

    /// Number of frames currently allocated.
    #[must_use]
    pub fn allocated_frames(&self) -> usize {
        self.allocated
    }

    /// Number of frames still free.
    #[must_use]
    pub fn free_frames(&self) -> usize {
        self.capacity - self.allocated
    }

    /// Allocates a zeroed frame, or `None` if physical memory is exhausted
    /// (the kernel's pageout path then kicks in). The most recently freed
    /// frame is reused first, then fresh ids in ascending order: physical
    /// addresses index the cache model, so this order is guest-visible.
    pub fn alloc_frame(&mut self) -> Option<FrameId> {
        (self.free_frames() > 0).then(|| self.install(vec![0u8; FRAME_SIZE as usize].into()))
    }

    /// [`PhysMem::alloc_frame`] of a frame holding `data`, untagged, in
    /// place of zeros: a swap-in hands the swapped bytes back without a
    /// copy.
    ///
    /// # Errors
    ///
    /// Gives `data` back if physical memory is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one frame long.
    pub fn alloc_frame_from(&mut self, data: Box<[u8]>) -> Result<FrameId, Box<[u8]>> {
        assert_eq!(data.len() as u64, FRAME_SIZE);
        if self.free_frames() == 0 {
            return Err(data);
        }
        Ok(self.install(data))
    }

    /// Takes the next frame id (see [`PhysMem::alloc_frame`]) for an
    /// untagged frame holding `data`. Memory must not be exhausted.
    fn install(&mut self, data: Box<[u8]>) -> FrameId {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.frames.push(None);
                FrameId((self.frames.len() - 1) as u32)
            }
        };
        self.frames[id.0 as usize] = Some(Frame::new(data));
        self.allocated += 1;
        id
    }

    /// Frees a frame, dropping its contents and tags.
    ///
    /// # Panics
    ///
    /// Panics if the frame was not allocated (double free).
    pub fn free_frame(&mut self, id: FrameId) {
        self.free_frame_into_bytes(id);
    }

    /// [`PhysMem::free_frame`] that hands the frame's bytes over instead of
    /// dropping them (a swap-out keeps them without a copy). Tags and
    /// capabilities are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the frame was not allocated (double free).
    pub fn free_frame_into_bytes(&mut self, id: FrameId) -> Box<[u8]> {
        let slot = self.frames.get_mut(id.0 as usize).and_then(Option::take);
        let frame = slot.unwrap_or_else(|| panic!("double free of {id:?}"));
        self.allocated -= 1;
        self.free.push(id);
        self.clear_corrupt_range(id, 0, GRANULES_PER_FRAME - 1);
        frame.data
    }

    fn frame(&self, id: FrameId) -> Result<&Frame, BadFrame> {
        self.frames
            .get(id.0 as usize)
            .and_then(|f| f.as_ref())
            .ok_or(BadFrame(id))
    }

    fn frame_mut(&mut self, id: FrameId) -> Result<&mut Frame, BadFrame> {
        self.frames
            .get_mut(id.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(BadFrame(id))
    }

    /// Reads `buf.len()` bytes starting at `addr`; the range must not cross
    /// a frame boundary (the VM layer splits accesses at page granularity).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the frame.
    #[inline]
    pub fn read_bytes(&self, addr: PAddr, buf: &mut [u8]) -> Result<(), BadFrame> {
        let f = self.frame(addr.frame())?;
        let off = addr.offset() as usize;
        buf.copy_from_slice(&f.data[off..off + buf.len()]);
        Ok(())
    }

    /// Writes `buf` at `addr`, clearing the tags of every granule touched.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the frame.
    pub fn write_bytes(&mut self, addr: PAddr, buf: &[u8]) -> Result<(), BadFrame> {
        self.write_bytes_with(addr, buf.len(), |dst| dst.copy_from_slice(buf))
    }

    /// [`PhysMem::write_bytes`] of `len` bytes that `fill` writes in place:
    /// one access, whatever the bytes' source.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the frame.
    #[inline]
    pub fn write_bytes_with(
        &mut self,
        addr: PAddr,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), BadFrame> {
        self.overwrite_with(addr, len, fill)?;
        self.note_mutation(addr);
        Ok(())
    }

    /// The bytes `[addr, addr + len)`, which must not cross a frame
    /// boundary: a read that copies nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses the end of the frame.
    #[inline]
    pub fn bytes(&self, addr: PAddr, len: usize) -> Result<&[u8], BadFrame> {
        let f = self.frame(addr.frame())?;
        let off = addr.offset() as usize;
        Ok(&f.data[off..off + len])
    }

    /// [`PhysMem::write_bytes`] without counting the access as a mutation.
    fn overwrite(&mut self, addr: PAddr, buf: &[u8]) -> Result<(), BadFrame> {
        self.overwrite_with(addr, buf.len(), |dst| dst.copy_from_slice(buf))
    }

    /// [`PhysMem::overwrite`] of `len` bytes that `fill` writes in place.
    #[inline]
    fn overwrite_with(
        &mut self,
        addr: PAddr,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), BadFrame> {
        let f = self.frame_mut(addr.frame())?;
        let off = addr.offset() as usize;
        fill(&mut f.data[off..off + len]);
        let g0 = off / TAG_GRANULE as usize;
        let g1 = (off + len.max(1) - 1) / TAG_GRANULE as usize;
        for g in g0..=g1 {
            f.clear_tag(g);
        }
        self.clear_corrupt_range(addr.frame(), g0, g1);
        Ok(())
    }

    /// Reads the little-endian `size`-byte word at `addr`, zero-extended:
    /// the fixed-width move of an aligned data load, with no `memcpy`.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8, or `addr` is not a multiple
    /// of it.
    #[inline]
    pub fn read_word(&self, addr: PAddr, size: u64) -> Result<u64, BadFrame> {
        let f = self.frame(addr.frame())?;
        let off = addr.offset() as usize;
        assert!(addr.0 & size.wrapping_sub(1) == 0, "unaligned word read");
        Ok(match size {
            1 => u64::from(f.data[off]),
            2 => u64::from(u16::from_le_bytes(word(&f.data, off))),
            4 => u64::from(u32::from_le_bytes(word(&f.data, off))),
            8 => u64::from_le_bytes(word(&f.data, off)),
            _ => panic!("no {size}-byte word"),
        })
    }

    /// Writes the low `size` bytes of `value` at `addr`, little-endian:
    /// the fixed-width move of an aligned data store. It has
    /// [`PhysMem::write_bytes`]'s effects: the one granule it touches
    /// loses its tag and any injected corruption, and the write counts as
    /// a mutation for the fault plane.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8, or `addr` is not a multiple
    /// of it.
    #[inline]
    pub fn write_word(&mut self, addr: PAddr, size: u64, value: u64) -> Result<(), BadFrame> {
        let f = self.frame_mut(addr.frame())?;
        let off = addr.offset() as usize;
        assert!(addr.0 & size.wrapping_sub(1) == 0, "unaligned word write");
        let v = value.to_le_bytes();
        match size {
            1 => f.data[off] = v[0],
            2 => f.data[off..off + 2].copy_from_slice(&v[..2]),
            4 => f.data[off..off + 4].copy_from_slice(&v[..4]),
            8 => f.data[off..off + 8].copy_from_slice(&v),
            _ => panic!("no {size}-byte word"),
        }
        // An aligned word of at most 8 bytes lies in one granule.
        let g = off / TAG_GRANULE as usize;
        f.clear_tag(g);
        self.clear_corrupt_range(addr.frame(), g, g);
        self.note_mutation(addr);
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn read_u8(&self, addr: PAddr) -> Result<u8, BadFrame> {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte (clears the granule's tag).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn write_u8(&mut self, addr: PAddr, v: u8) -> Result<(), BadFrame> {
        self.write_bytes(addr, &[v])
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn read_u64(&self, addr: PAddr) -> Result<u64, BadFrame> {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian u64 (clears tags).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn write_u64(&mut self, addr: PAddr, v: u64) -> Result<(), BadFrame> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Stores a capability at `addr` (which must be granule-aligned),
    /// setting the tag iff `cap.tag()`. The address bytes are mirrored into
    /// the data array so subsequent *integer* reads observe the pointer's
    /// address, as on real CHERI.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to the capability size.
    pub fn store_cap(&mut self, addr: PAddr, cap: Capability) -> Result<(), BadFrame> {
        let size = cap.format().in_memory_size();
        assert_eq!(addr.0 % size, 0, "unaligned capability store");
        // Mirror the address (cursor) into the first 8 data bytes, then a
        // digest of the metadata; this also clears stale tags in the range.
        let mut granule = [0u8; 32];
        let bytes = &mut granule[..size as usize];
        bytes[..8].copy_from_slice(&cap.addr().to_le_bytes());
        bytes[8..16].copy_from_slice(&cap.base().to_le_bytes());
        // `overwrite` also forgets any injected corruption of the range:
        // the store supersedes it.
        // `overwrite` cleared the tags of every granule the capability
        // covers; only the first carries the new one.
        self.overwrite(addr, bytes)?;
        if cap.tag() {
            let f = self.frame_mut(addr.frame())?;
            f.set_cap((addr.offset() / TAG_GRANULE) as usize, cap);
        }
        // Counted once the tag is in place, so a data flip due on this
        // store corrupts the capability it just wrote and clears its tag.
        self.note_mutation(addr);
        Ok(())
    }

    /// Loads the capability stored at granule-aligned `addr`. Returns
    /// `Ok(None)` if the granule's tag is clear — the caller receives the
    /// raw bytes as an *untagged* value instead.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not granule-aligned.
    #[inline]
    pub fn load_cap(&self, addr: PAddr) -> Result<Option<Capability>, BadFrame> {
        Ok(self.cap_at(addr)?.copied())
    }

    /// [`PhysMem::load_cap`] by reference: the tagged capability at
    /// granule-aligned `addr`, read in place.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not granule-aligned.
    #[inline]
    pub fn cap_at(&self, addr: PAddr) -> Result<Option<&Capability>, BadFrame> {
        assert_eq!(addr.0 % TAG_GRANULE, 0, "unaligned capability load");
        let f = self.frame(addr.frame())?;
        Ok(f.cap((addr.offset() / TAG_GRANULE) as usize))
    }

    /// Scans a frame for tagged capabilities: the swap-out path of §3
    /// ("The swap subsystem scans evicted pages, recording tags in the swap
    /// metadata"). Returns `(granule offset in bytes, capability)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn scan_caps(&self, id: FrameId) -> Result<Vec<(u64, Capability)>, BadFrame> {
        let f = self.frame(id)?;
        let mut out = Vec::new();
        for (w, &bits) in f.tags.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let g = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let c = f.cap(g).expect("a tagged granule has a slot");
                out.push((g as u64 * TAG_GRANULE, *c));
            }
        }
        Ok(out)
    }

    /// Copies a whole frame's data *without* tags (e.g. DMA or a legacy
    /// copy); capability restoration must go through [`PhysMem::store_cap`].
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn frame_data(&self, id: FrameId) -> Result<Vec<u8>, BadFrame> {
        Ok(self.frame(id)?.data.to_vec())
    }

    /// Replaces a frame's data, clearing all tags (swap-in starts untagged;
    /// rederivation follows).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one frame long.
    pub fn set_frame_data(&mut self, id: FrameId, data: &[u8]) -> Result<(), BadFrame> {
        assert_eq!(data.len() as u64, FRAME_SIZE);
        let f = self.frame_mut(id)?;
        f.data.copy_from_slice(data);
        f.tags = [0; GRANULES_PER_FRAME / 64];
        f.slab = None;
        self.clear_corrupt_range(id, 0, GRANULES_PER_FRAME - 1);
        Ok(())
    }

    /// Copies frame `src` to frame `dst` including tags and capabilities —
    /// the kernel's capability-preserving page copy (fork / COW resolution).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if either frame is unallocated.
    pub fn copy_frame_with_tags(&mut self, src: FrameId, dst: FrameId) -> Result<(), BadFrame> {
        let s = self.frame(src)?.clone();
        *self.frame_mut(dst)? = s;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::{CapFormat, CapSource, PrincipalId};

    fn cap() -> Capability {
        Capability::root(CapFormat::C128, PrincipalId::KERNEL, CapSource::Boot)
            .with_addr(0x1234_5678)
    }

    fn mem() -> (PhysMem, FrameId) {
        let mut pm = PhysMem::new(8);
        let f = pm.alloc_frame().unwrap();
        (pm, f)
    }

    #[test]
    fn frames_start_zeroed() {
        let (pm, f) = mem();
        assert_eq!(pm.read_u64(PAddr::new(f, 0)).unwrap(), 0);
        assert_eq!(pm.read_u64(PAddr::new(f, FRAME_SIZE - 8)).unwrap(), 0);
    }

    #[test]
    fn data_roundtrip() {
        let (mut pm, f) = mem();
        pm.write_u64(PAddr::new(f, 16), 0xdead_beef_cafe_f00d)
            .unwrap();
        assert_eq!(
            pm.read_u64(PAddr::new(f, 16)).unwrap(),
            0xdead_beef_cafe_f00d
        );
        pm.write_u8(PAddr::new(f, 16), 0xaa).unwrap();
        assert_eq!(pm.read_u8(PAddr::new(f, 16)).unwrap(), 0xaa);
    }

    #[test]
    fn cap_roundtrip_preserves_everything() {
        let (mut pm, f) = mem();
        let c = cap();
        pm.store_cap(PAddr::new(f, 32), c).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(f, 32)).unwrap(), Some(c));
        // Integer view of the pointer sees the address.
        assert_eq!(pm.read_u64(PAddr::new(f, 32)).unwrap(), c.addr());
    }

    #[test]
    fn data_write_clears_tag_anywhere_in_granule() {
        for off in [0u64, 1, 7, 15] {
            let (mut pm, f) = mem();
            pm.store_cap(PAddr::new(f, 48), cap()).unwrap();
            pm.write_u8(PAddr::new(f, 48 + off), 0).unwrap();
            assert_eq!(pm.load_cap(PAddr::new(f, 48)).unwrap(), None, "off={off}");
        }
    }

    #[test]
    fn untagged_cap_store_leaves_tag_clear() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 0), cap().clear_tag()).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(f, 0)).unwrap(), None);
        assert_eq!(pm.read_u64(PAddr::new(f, 0)).unwrap(), cap().addr());
    }

    #[test]
    fn scan_caps_finds_all() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 0), cap()).unwrap();
        pm.store_cap(PAddr::new(f, 256), cap().inc_addr(8)).unwrap();
        let found = pm.scan_caps(f).unwrap();
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, 0);
        assert_eq!(found[1].0, 256);
    }

    #[test]
    fn set_frame_data_strips_tags() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 0), cap()).unwrap();
        let data = pm.frame_data(f).unwrap();
        pm.set_frame_data(f, &data).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(f, 0)).unwrap(), None);
        assert_eq!(pm.read_u64(PAddr::new(f, 0)).unwrap(), cap().addr());
    }

    #[test]
    fn copy_frame_with_tags_preserves_caps() {
        let mut pm = PhysMem::new(8);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        pm.store_cap(PAddr::new(a, 64), cap()).unwrap();
        pm.write_u64(PAddr::new(a, 8), 7).unwrap();
        pm.copy_frame_with_tags(a, b).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(b, 64)).unwrap(), Some(cap()));
        assert_eq!(pm.read_u64(PAddr::new(b, 8)).unwrap(), 7);
    }

    #[test]
    fn every_granule_tagged_then_overwritten_by_data() {
        let (mut pm, f) = mem();
        let at = |g: u64| PAddr::new(f, g * TAG_GRANULE);
        for g in 0..GRANULES_PER_FRAME as u64 {
            pm.store_cap(at(g), cap().inc_addr(g as i64)).unwrap();
        }
        // Restoring every granule reuses its slot: the slab never grows
        // past one slot per granule.
        for g in 0..GRANULES_PER_FRAME as u64 {
            pm.store_cap(at(g), cap().inc_addr(-(g as i64))).unwrap();
        }
        let slots = |pm: &PhysMem| pm.frame(f).unwrap().slab.as_ref().unwrap().caps.len();
        assert_eq!(slots(&pm), GRANULES_PER_FRAME);
        let found = pm.scan_caps(f).unwrap();
        assert_eq!(found.len(), GRANULES_PER_FRAME);
        for (g, (off, c)) in found.iter().enumerate() {
            assert_eq!(*off, g as u64 * TAG_GRANULE);
            assert_eq!(*c, cap().inc_addr(-(g as i64)));
        }
        // Data over the whole frame, word by word, clears every tag.
        for off in (0..FRAME_SIZE).step_by(8) {
            pm.write_word(PAddr::new(f, off), 8, off).unwrap();
        }
        assert!(pm.scan_caps(f).unwrap().is_empty());
        for g in 0..GRANULES_PER_FRAME as u64 {
            assert_eq!(pm.load_cap(at(g)).unwrap(), None);
            assert_eq!(pm.read_word(at(g), 8).unwrap(), g * TAG_GRANULE);
        }
        // A granule tagged again takes its old slot back.
        pm.store_cap(at(9), cap()).unwrap();
        assert_eq!(slots(&pm), GRANULES_PER_FRAME);
        assert_eq!(pm.scan_caps(f).unwrap(), vec![(9 * TAG_GRANULE, cap())]);
    }

    #[test]
    fn c256_stores_tag_the_first_of_two_granules() {
        let (mut pm, f) = mem();
        let wide = Capability::root(CapFormat::C256, PrincipalId::KERNEL, CapSource::Boot)
            .with_addr(0x4000);
        pm.store_cap(PAddr::new(f, 16), cap()).unwrap();
        pm.store_cap(PAddr::new(f, 0), wide).unwrap();
        // The second granule's old tag fell to the wide store.
        assert_eq!(pm.load_cap(PAddr::new(f, 0)).unwrap(), Some(wide));
        assert_eq!(pm.load_cap(PAddr::new(f, 16)).unwrap(), None);
        assert_eq!(pm.scan_caps(f).unwrap(), vec![(0, wide)]);
        // Data in the second granule leaves the first tagged; data in the
        // first clears it.
        pm.write_word(PAddr::new(f, 24), 8, 0).unwrap();
        assert_eq!(pm.cap_at(PAddr::new(f, 0)).unwrap(), Some(&wide));
        pm.write_word(PAddr::new(f, 8), 4, 0).unwrap();
        assert_eq!(pm.cap_at(PAddr::new(f, 0)).unwrap(), None);
    }

    #[test]
    fn scan_caps_walks_granules_in_order_not_slot_order() {
        let (mut pm, f) = mem();
        for g in [200u64, 3, 255, 0, 64, 63] {
            pm.store_cap(PAddr::new(f, g * TAG_GRANULE), cap().inc_addr(g as i64))
                .unwrap();
        }
        pm.write_u8(PAddr::new(f, 64 * TAG_GRANULE), 1).unwrap();
        let want: Vec<(u64, Capability)> = [0u64, 3, 63, 200, 255]
            .iter()
            .map(|&g| (g * TAG_GRANULE, cap().inc_addr(g as i64)))
            .collect();
        assert_eq!(pm.scan_caps(f).unwrap(), want);
    }

    #[test]
    fn copy_frame_with_tags_carries_the_slab_and_nothing_stale() {
        let mut pm = PhysMem::new(8);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        pm.store_cap(PAddr::new(b, 48), cap()).unwrap();
        pm.store_cap(PAddr::new(a, 32), cap()).unwrap();
        pm.store_cap(PAddr::new(a, 96), cap().inc_addr(1)).unwrap();
        pm.write_word(PAddr::new(a, 32), 2, 5).unwrap(); // stale slot
        pm.copy_frame_with_tags(a, b).unwrap();
        assert_eq!(pm.scan_caps(b).unwrap(), pm.scan_caps(a).unwrap());
        assert_eq!(pm.load_cap(PAddr::new(b, 32)).unwrap(), None);
        assert_eq!(pm.load_cap(PAddr::new(b, 48)).unwrap(), None);
        assert_eq!(pm.read_word(PAddr::new(b, 32), 2).unwrap(), 5);
        // The copies are independent.
        pm.write_u8(PAddr::new(a, 96), 0).unwrap();
        assert_eq!(
            pm.load_cap(PAddr::new(b, 96)).unwrap(),
            Some(cap().inc_addr(1))
        );
    }

    #[test]
    fn set_frame_data_drops_the_slab() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 128), cap()).unwrap();
        let data = pm.frame_data(f).unwrap();
        pm.set_frame_data(f, &data).unwrap();
        assert!(pm.frame(f).unwrap().slab.is_none());
        assert!(pm.scan_caps(f).unwrap().is_empty());
        pm.store_cap(PAddr::new(f, 128), cap().inc_addr(4)).unwrap();
        assert_eq!(
            pm.load_cap(PAddr::new(f, 128)).unwrap(),
            Some(cap().inc_addr(4))
        );
    }

    #[test]
    fn word_moves_match_byte_moves() {
        let (mut pm, f) = mem();
        for (size, off) in [(1u64, 7u64), (2, 14), (4, 4092), (8, 24)] {
            let v = 0x8877_6655_4433_2211u64;
            pm.write_word(PAddr::new(f, off), size, v).unwrap();
            let mut buf = [0u8; 8];
            pm.read_bytes(PAddr::new(f, off), &mut buf[..size as usize])
                .unwrap();
            let mask = u64::MAX >> (64 - 8 * size);
            assert_eq!(u64::from_le_bytes(buf), v & mask, "size {size}");
            assert_eq!(pm.read_word(PAddr::new(f, off), size).unwrap(), v & mask);
        }
        assert_eq!(pm.faults().mutations, 4, "each word write is a mutation");
        assert!(std::panic::catch_unwind(|| pm.read_word(PAddr::new(f, 2), 4)).is_err());
    }

    #[test]
    fn injected_flip_on_a_slab_granule_clears_only_the_tag() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 0), cap()).unwrap();
        pm.store_cap(PAddr::new(f, 16), cap().inc_addr(16)).unwrap();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 2,
            bit: 70,
            target_cap: true,
            preserve_tag: false,
        });
        pm.note_cap_load(PAddr::new(f, 16)); // trigger: the loaded granule
        assert_eq!(pm.faults().tags_cleared, 1);
        assert_eq!(pm.load_cap(PAddr::new(f, 16)).unwrap(), None);
        assert_eq!(pm.load_cap(PAddr::new(f, 0)).unwrap(), Some(cap()));
        assert_eq!(pm.scan_caps(f).unwrap(), vec![(0, cap())]);
        // A word write over the corrupted granule forgets the corruption,
        // and a fresh store there reuses the slot.
        pm.write_word(PAddr::new(f, 16), 8, 1).unwrap();
        pm.store_cap(PAddr::new(f, 16), cap()).unwrap();
        pm.note_cap_load(PAddr::new(f, 16));
        assert_eq!(pm.faults().corrupt_cap_loads, 0);
        assert_eq!(pm.frame(f).unwrap().slab.as_ref().unwrap().caps.len(), 2);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        assert!(pm.alloc_frame().is_none());
        pm.free_frame(a);
        assert_eq!(pm.free_frames(), 1);
        let c = pm.alloc_frame().unwrap();
        assert_eq!(
            pm.read_u64(PAddr::new(c, 0)).unwrap(),
            0,
            "recycled frame zeroed"
        );
        let _ = b;
    }

    #[test]
    fn frame_ids_are_fresh_ascending_then_freed_lifo() {
        let mut pm = PhysMem::new(4);
        let alloc = |pm: &mut PhysMem| pm.alloc_frame().map(|f| f.0);
        assert_eq!(pm.free_frames(), 4);
        assert_eq!(alloc(&mut pm), Some(0));
        assert_eq!(alloc(&mut pm), Some(1));
        assert_eq!(alloc(&mut pm), Some(2));
        pm.free_frame(FrameId(0));
        pm.free_frame(FrameId(2));
        assert_eq!(pm.free_frames(), 3);
        // Freed ids come back last-freed first, before any fresh id.
        assert_eq!(alloc(&mut pm), Some(2));
        assert_eq!(alloc(&mut pm), Some(0));
        assert_eq!(alloc(&mut pm), Some(3));
        assert_eq!(pm.allocated_frames(), 4);
        assert_eq!(pm.free_frames(), 0);
        assert_eq!(alloc(&mut pm), None, "capacity reached");
        pm.free_frame(FrameId(1));
        assert_eq!(pm.free_frames(), 1);
        assert_eq!(alloc(&mut pm), Some(1), "freed at capacity, reusable");
        assert_eq!(alloc(&mut pm), None);
        assert_eq!(pm.free_frames(), 4 - pm.allocated_frames());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        pm.free_frame(a);
        pm.free_frame(a);
    }

    #[test]
    fn unallocated_frame_errors() {
        let pm = PhysMem::new(2);
        assert!(pm.read_u8(PAddr::new(FrameId(1), 0)).is_err());
    }

    #[test]
    fn injected_flip_on_data_corrupts_only_bytes() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 2,
            bit: 0,
            target_cap: false,
            preserve_tag: false,
        });
        pm.write_u64(PAddr::new(f, 0), 0).unwrap();
        pm.write_u64(PAddr::new(f, 64), 0).unwrap(); // trigger
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_cleared, 0);
        assert_eq!(pm.read_u8(PAddr::new(f, 64)).unwrap(), 1, "bit 0 flipped");
    }

    #[test]
    fn injected_flip_on_cap_granule_clears_tag() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 32), cap()).unwrap();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 9,
            target_cap: true,
            preserve_tag: false,
        });
        pm.write_u8(PAddr::new(f, 512), 0).unwrap(); // now due
        assert_eq!(pm.faults().flips, 0, "cap flips wait for a load");
        pm.note_cap_load(PAddr::new(f, 32)); // trigger: the loaded granule
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_cleared, 1);
        assert_eq!(
            pm.load_cap(PAddr::new(f, 32)).unwrap(),
            None,
            "corrupted capability must load untagged"
        );
        pm.note_cap_load(PAddr::new(f, 32));
        assert_eq!(pm.faults().corrupt_cap_loads, 0, "no escape: tag cleared");
    }

    #[test]
    fn weakened_tag_clear_is_a_detectable_escape() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 32), cap()).unwrap();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 3,
            target_cap: true,
            preserve_tag: true,
        });
        pm.write_u8(PAddr::new(f, 512), 0).unwrap(); // now due
        pm.note_cap_load(PAddr::new(f, 32)); // trigger: flips *and* escapes
        assert_eq!(pm.faults().tags_preserved, 1);
        assert_eq!(
            pm.load_cap(PAddr::new(f, 32)).unwrap(),
            Some(cap()),
            "weakened clear leaves the tagged value live"
        );
        assert_eq!(pm.faults().corrupt_cap_loads, 1, "escape counted");
        pm.note_cap_load(PAddr::new(f, 32));
        assert_eq!(pm.faults().corrupt_cap_loads, 2, "every load counts");
    }

    #[test]
    fn data_flip_due_on_a_capability_store_clears_its_tag() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 0,
            target_cap: false,
            preserve_tag: false,
        });
        let at = PAddr::new(f, 32);
        pm.store_cap(at, cap()).unwrap(); // trigger: the stored granule
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_cleared, 1, "the flip met the new tag");
        assert_eq!(pm.read_u64(at).unwrap(), 0x1234_5679, "bit 0 flipped");
        assert_eq!(
            pm.load_cap(at).unwrap(),
            None,
            "no tagged capability over corrupted bytes"
        );
        pm.note_cap_load(at);
        assert_eq!(pm.faults().corrupt_cap_loads, 0, "no escape: tag cleared");
    }

    #[test]
    fn weakened_data_flip_on_a_capability_store_is_a_counted_escape() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 0,
            target_cap: false,
            preserve_tag: true,
        });
        let at = PAddr::new(f, 32);
        pm.store_cap(at, cap()).unwrap(); // trigger: the stored granule
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_preserved, 1, "the kept tag is counted");
        assert_eq!(pm.load_cap(at).unwrap(), Some(cap()));
        pm.note_cap_load(at);
        assert_eq!(pm.faults().corrupt_cap_loads, 1, "escape counted");
    }

    #[test]
    fn cap_flip_waits_for_a_tagged_load() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 0,
            target_cap: true,
            preserve_tag: false,
        });
        pm.write_u8(PAddr::new(f, 0), 7).unwrap(); // due, but no caps yet
        pm.note_cap_load(PAddr::new(f, 64)); // untagged load: no victim
        assert_eq!(pm.faults().flips, 0);
        pm.store_cap(PAddr::new(f, 64), cap()).unwrap();
        pm.note_cap_load(PAddr::new(f, 64));
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_cleared, 1);
    }

    #[test]
    fn rewriting_a_corrupted_granule_clears_the_marking() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 0,
            target_cap: false,
            preserve_tag: false,
        });
        pm.write_u8(PAddr::new(f, 0), 7).unwrap(); // trigger: granule 0
        assert_eq!(pm.faults().flips, 1);
        pm.store_cap(PAddr::new(f, 0), cap()).unwrap();
        pm.note_cap_load(PAddr::new(f, 0));
        assert_eq!(
            pm.faults().corrupt_cap_loads,
            0,
            "legitimate store supersedes the corruption"
        );
    }
}
