//! Per-process address spaces: mapping lists and page state.

use cheri_cap::{CapFormat, CapSource, Capability, Perms, PrincipalId};
use cheri_mem::{FrameId, IntMap, FRAME_SIZE};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Exclusive top of the user virtual address range.
pub const USER_TOP: u64 = 0x4000_0000_0000;

/// Identifier of an address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AsId(pub u64);

/// Page protection, as requested via `mmap`-style flags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Prot(u8);

impl Prot {
    /// No access.
    pub const NONE: Prot = Prot(0);
    /// Readable.
    pub const READ: Prot = Prot(1);
    /// Writable.
    pub const WRITE: Prot = Prot(2);
    /// Executable.
    pub const EXEC: Prot = Prot(4);

    /// Read + write.
    #[must_use]
    pub fn rw() -> Prot {
        Prot(Self::READ.0 | Self::WRITE.0)
    }

    /// Read + execute.
    #[must_use]
    pub fn rx() -> Prot {
        Prot(Self::READ.0 | Self::EXEC.0)
    }

    /// Union of two protections.
    #[must_use]
    pub fn union(self, o: Prot) -> Prot {
        Prot(self.0 | o.0)
    }

    /// Whether all bits of `o` are present.
    #[must_use]
    pub fn allows(self, o: Prot) -> bool {
        self.0 & o.0 == o.0
    }

    /// The capability permissions the kernel grants on a mapping with this
    /// protection — how `mmap` returns "capabilities that are bounded to the
    /// requested allocation length, with permissions derived from the
    /// requested page permissions" (§4).
    #[must_use]
    pub fn as_cap_perms(self) -> Perms {
        let mut p = Perms::GLOBAL | Perms::VMMAP;
        if self.allows(Prot::READ) {
            p |= Perms::LOAD | Perms::LOAD_CAP;
        }
        if self.allows(Prot::WRITE) {
            p |= Perms::STORE | Perms::STORE_CAP | Perms::STORE_LOCAL_CAP;
        }
        if self.allows(Prot::EXEC) {
            p |= Perms::EXECUTE;
        }
        p
    }
}

impl fmt::Debug for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.allows(Prot::READ) { "r" } else { "-" },
            if self.allows(Prot::WRITE) { "w" } else { "-" },
            if self.allows(Prot::EXEC) { "x" } else { "-" },
        )
    }
}

/// What initially backs a mapping's pages.
#[derive(Clone)]
pub enum Backing {
    /// Demand-zero anonymous memory.
    Zero,
    /// A read-only image (executable/library segment template); byte `i` of
    /// the mapping reads `data[offset + i]`, zero beyond the template.
    Image {
        /// Source bytes.
        data: Arc<Vec<u8>>,
        /// Offset of this mapping within `data`.
        offset: u64,
    },
    /// System-V style shared segment; pages alias the segment's frames.
    Shared {
        /// Segment id in the [`crate::Vm`]'s shared-segment table.
        seg: u64,
    },
}

impl fmt::Debug for Backing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backing::Zero => write!(f, "zero"),
            Backing::Image { offset, .. } => write!(f, "image+{offset:#x}"),
            Backing::Shared { seg } => write!(f, "shm{seg}"),
        }
    }
}

/// One contiguous mapping in an address space.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// Start virtual address (page-aligned).
    pub start: u64,
    /// Length in bytes (page-aligned).
    pub len: u64,
    /// Protection.
    pub prot: Prot,
    /// Initial backing for faulted pages.
    pub backing: Backing,
    /// Human-readable tag ("text", "stack", "heap", ...) used by the
    /// Figure 5 trace analysis.
    pub label: &'static str,
}

impl Mapping {
    /// Exclusive end address.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Residency state of one virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Mapped to a physical frame. `cow` marks copy-on-write sharing.
    Resident {
        /// Backing frame.
        frame: FrameId,
        /// Write access must first copy.
        cow: bool,
    },
    /// Paged out to the given swap slot.
    Swapped {
        /// Index into the [`crate::Vm`] swap table.
        slot: u64,
    },
}

/// A single process address space.
#[derive(Debug)]
pub struct AddressSpace {
    /// This space's id.
    pub id: AsId,
    /// The owning abstract principal (fresh per `execve`, §3).
    pub principal: PrincipalId,
    /// Root capability for this principal's user range: the source of all
    /// rederivations (swap-in, debugger injection).
    pub root: Capability,
    /// Mappings keyed by start address.
    pub maps: BTreeMap<u64, Mapping>,
    /// Per-page residency, keyed by virtual page number.
    pub pages: IntMap<u64, PageState>,
    /// Bump hint for placing anonymous mappings.
    pub mmap_hint: u64,
}

impl AddressSpace {
    /// Creates an empty space for `principal` with a root capability of the
    /// given format covering the user range.
    #[must_use]
    pub fn new(id: AsId, principal: PrincipalId, fmt: CapFormat) -> AddressSpace {
        let root = Capability::root(fmt, principal, CapSource::Exec)
            .and_perms(Perms::ALL - Perms::SYSTEM_REGS - Perms::KERNEL_DIRECT);
        AddressSpace {
            id,
            principal,
            root,
            maps: BTreeMap::new(),
            pages: IntMap::default(),
            mmap_hint: 0x70_0000_0000,
        }
    }

    /// The mapping containing `vaddr`, if any.
    #[must_use]
    pub fn mapping_at(&self, vaddr: u64) -> Option<&Mapping> {
        self.maps
            .range(..=vaddr)
            .next_back()
            .map(|(_, m)| m)
            .filter(|m| vaddr < m.end())
    }

    /// Whether any byte of `[start, start+len)` is mapped.
    #[must_use]
    pub fn is_range_mapped(&self, start: u64, len: u64) -> bool {
        let end = start.saturating_add(len);
        self.maps.values().any(|m| m.start < end && start < m.end())
    }

    /// Finds a free, page-aligned region of `len` bytes at or after the
    /// mmap hint.
    #[must_use]
    pub fn find_free(&self, len: u64) -> Option<u64> {
        let len = len.div_ceil(FRAME_SIZE) * FRAME_SIZE;
        let mut candidate = self.mmap_hint;
        loop {
            if candidate + len > USER_TOP {
                return None;
            }
            match self
                .maps
                .values()
                .find(|m| m.start < candidate + len && candidate < m.end())
            {
                None => return Some(candidate),
                Some(m) => candidate = m.end(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(AsId(1), PrincipalId::from_raw(1), CapFormat::C128)
    }

    #[test]
    fn prot_to_perms() {
        let p = Prot::rw().as_cap_perms();
        assert!(p.contains(Perms::LOAD | Perms::STORE | Perms::STORE_CAP | Perms::VMMAP));
        assert!(!p.contains(Perms::EXECUTE));
        let x = Prot::rx().as_cap_perms();
        assert!(x.contains(Perms::EXECUTE | Perms::LOAD));
        assert!(!x.contains(Perms::STORE));
    }

    #[test]
    fn mapping_lookup() {
        let mut s = space();
        s.maps.insert(
            0x1000,
            Mapping {
                start: 0x1000,
                len: 0x2000,
                prot: Prot::rw(),
                backing: Backing::Zero,
                label: "a",
            },
        );
        assert!(s.mapping_at(0x1000).is_some());
        assert!(s.mapping_at(0x2fff).is_some());
        assert!(s.mapping_at(0x3000).is_none());
        assert!(s.mapping_at(0xfff).is_none());
        assert!(s.is_range_mapped(0x2000, 0x2000));
        assert!(!s.is_range_mapped(0x3000, 0x1000));
    }

    #[test]
    fn find_free_skips_existing() {
        let mut s = space();
        let hint = s.mmap_hint;
        s.maps.insert(
            hint,
            Mapping {
                start: hint,
                len: 0x3000,
                prot: Prot::rw(),
                backing: Backing::Zero,
                label: "x",
            },
        );
        let got = s.find_free(0x1000).unwrap();
        assert_eq!(got, hint + 0x3000);
    }

    #[test]
    fn root_capability_excludes_kernel_perms() {
        let s = space();
        assert!(s.root.tag());
        assert!(!s.root.perms().contains(Perms::SYSTEM_REGS));
        assert!(!s.root.perms().contains(Perms::KERNEL_DIRECT));
        assert_eq!(s.root.provenance().principal, PrincipalId::from_raw(1));
    }
}
