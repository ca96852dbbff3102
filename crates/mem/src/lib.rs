//! # cheri-mem — tagged physical memory and the cache model
//!
//! Two substrates the CheriABI paper's platform provides in hardware:
//!
//! * **Tagged memory** ([`PhysMem`]): one out-of-band tag bit per 16-byte,
//!   16-byte-aligned granule of physical memory, distinguishing capabilities
//!   from data (§2). Writing *data* anywhere in a granule clears its tag, so
//!   a capability's encoding can never be forged or corrupted in place —
//!   this is the paper's *capability integrity* property. Tags follow
//!   memory "through the cache hierarchy and into registers" — here they
//!   live with the physical frame and are returned by capability-width
//!   loads.
//! * **Cache hierarchy** ([`CacheHierarchy`]): the FPGA evaluation platform
//!   of §5 has 32-KiB L1 caches and a shared 256-KiB L2, set-associative,
//!   no prefetching. Figure 4's `l2cache misses` series — where
//!   pointer-heavy workloads suffer because 128-bit pointers double the
//!   pointer footprint — comes from exactly this model.
//!
//! Physical memory is organised as 4-KiB frames handed out by a free-list
//! allocator; the `cheri-vm` crate builds address spaces, paging and swap on
//! top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod phys;
mod stats;

pub use cache::{AccessKind, CacheConfig, CacheHierarchy};
pub use phys::{FrameId, PAddr, PhysFaultSpec, PhysFaults, PhysMem, FRAME_SIZE};
pub use stats::MemStats;
