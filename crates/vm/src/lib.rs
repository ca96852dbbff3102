//! # cheri-vm — virtual memory: address spaces, paging, COW and swap
//!
//! The paper's central implementation challenge (§3) is that CHERI
//! capabilities are expressed in terms of *virtual* addresses, and thus only
//! have meaning relative to a specific virtual-to-physical mapping that the
//! OS changes constantly. This crate owns those mappings and maintains the
//! invariants that make the **abstract capability** model sound:
//!
//! * every address space belongs to one freshly-allocated principal, and its
//!   pages map physical frames disjoint from every other principal's (except
//!   deliberate sharing: read-only, shared memory and copy-on-write);
//! * copy-on-write resolution copies pages **with tags**
//!   ([`cheri_mem::PhysMem::copy_frame_with_tags`]), so fork preserves
//!   abstract capabilities;
//! * swap-out scans pages for tags and saves capabilities *untagged* in the
//!   swap metadata; swap-in **rederives** each one from the owning address
//!   space's root capability ([`cheri_cap::Capability::rederive`]) — the
//!   paper's Figure 2 mechanism that preserves the abstract capability
//!   across a broken architectural chain.
//!
//! The CPU accesses guest memory exclusively through [`Vm`] accessors that
//! translate, fault and page in on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod space;
#[allow(clippy::module_inception)]
mod vm;

pub use space::{AddressSpace, AsId, Backing, Mapping, PageState, Prot, USER_TOP};
pub use vm::{Access, Shootdown, SwapFaultSpec, SwapFaults, Vm, VmError, VmStats};
