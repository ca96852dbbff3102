//! Property-based tests for the VM subsystem (DESIGN.md invariants I3/I6):
//! random interleavings of mapping, writing, swapping, COW and forking
//! never lose data, never resurrect tags they should not, and always
//! rederive the tags they should.

use cheri_cap::{CapFormat, CapSource, Capability, Perms, PrincipalId};
use cheri_vm::{AsId, Backing, Prot, Vm};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fresh() -> (Vm, AsId) {
    let mut vm = Vm::new(512);
    let id = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
    (vm, id)
}

#[derive(Clone, Debug)]
enum Op {
    /// Write a u64 at (page, offset).
    Write(u8, u16, u64),
    /// Store a bounded capability at a granule (page, granule index).
    StoreCap(u8, u8),
    /// Swap the page out (if private & resident).
    SwapOut(u8),
    /// Read back and check everything recorded so far.
    Check,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u16..4088, any::<u64>()).prop_map(|(p, o, v)| Op::Write(p, o & !7, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(p, g)| Op::StoreCap(p, g)),
        any::<u8>().prop_map(Op::SwapOut),
        Just(Op::Check),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// I6: arbitrary write/store-cap/swap interleavings on an 8-page
    /// mapping: data and tags always read back exactly, including across
    /// swap rederivation.
    #[test]
    fn swap_never_loses_data_or_tags(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let (mut vm, id) = fresh();
        let base = vm.map(id, None, 8 * 4096, Prot::rw(), Backing::Zero, "anon").unwrap();
        let root = vm.space(id).root;
        // Model state: latest u64 writes and capability stores by address.
        let mut words: BTreeMap<u64, u64> = BTreeMap::new();
        let mut caps: BTreeMap<u64, Capability> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Write(p, o, v) => {
                    let va = base + u64::from(*p % 8) * 4096 + u64::from(*o);
                    vm.write_u64(id, va, *v).unwrap();
                    words.insert(va, *v);
                    // A data write kills any capability overlapping its
                    // granules.
                    let g0 = va & !15;
                    caps.remove(&g0);
                    caps.remove(&(g0 + 16));
                    // And a capability store overlapped by this write dies
                    // even if recorded at g0-? (u64 spans at most 2 granules
                    // when 8-aligned: exactly one).
                }
                Op::StoreCap(p, g) => {
                    let va = base + u64::from(*p % 8) * 4096 + u64::from(*g) * 16;
                    let cap = root
                        .with_addr(va)
                        .set_bounds(16, true)
                        .unwrap()
                        .and_perms(Perms::user_data())
                        .with_source(CapSource::Malloc);
                    vm.store_cap(id, va, cap).unwrap();
                    caps.insert(va, cap);
                    // The store overwrites the granule's data bytes.
                    words.remove(&va);
                    words.remove(&(va + 8));
                }
                Op::SwapOut(p) => {
                    let va = base + u64::from(*p % 8) * 4096;
                    let _ = vm.swap_out(id, va).unwrap();
                }
                Op::Check => {
                    for (va, v) in &words {
                        prop_assert_eq!(vm.read_u64(id, *va).unwrap(), *v);
                    }
                    for (va, c) in &caps {
                        let got = vm.load_cap(id, *va).unwrap();
                        prop_assert!(got.is_some(), "tag lost at {va:#x}");
                        let got = got.unwrap();
                        prop_assert_eq!(got.base(), c.base());
                        prop_assert_eq!(got.top(), c.top());
                        prop_assert_eq!(got.perms(), c.perms());
                    }
                }
            }
        }
        // Final full check.
        for (va, v) in &words {
            prop_assert_eq!(vm.read_u64(id, *va).unwrap(), *v);
        }
        for (va, c) in &caps {
            let got = vm.load_cap(id, *va).unwrap();
            prop_assert_eq!(got.map(|g| (g.base(), g.top())), Some((c.base(), c.top())));
        }
    }

    /// Fork + random writes by parent and child: complete isolation of the
    /// private pages, with tags preserved on both sides.
    #[test]
    fn fork_isolation_under_random_writes(
        writes in proptest::collection::vec((any::<bool>(), 0u16..500, any::<u64>()), 1..60)
    ) {
        let (mut vm, parent) = fresh();
        let base = vm.map(parent, None, 4096, Prot::rw(), Backing::Zero, "anon").unwrap();
        let root = vm.space(parent).root;
        let cap = root.with_addr(base).set_bounds(64, true).unwrap();
        vm.store_cap(parent, base + 1024, cap).unwrap();
        let child = vm.fork_space(parent).unwrap();

        let mut pw: BTreeMap<u64, u64> = BTreeMap::new();
        let mut cw: BTreeMap<u64, u64> = BTreeMap::new();
        for (to_child, off, v) in &writes {
            let va = base + u64::from(*off & !7) % 1000;
            let va = va & !7;
            if *to_child {
                vm.write_u64(child, va, *v).unwrap();
                cw.insert(va, *v);
            } else {
                vm.write_u64(parent, va, *v).unwrap();
                pw.insert(va, *v);
            }
        }
        for (va, v) in &pw {
            prop_assert_eq!(vm.read_u64(parent, *va).unwrap(), *v, "parent at {:#x}", va);
        }
        for (va, v) in &cw {
            prop_assert_eq!(vm.read_u64(child, *va).unwrap(), *v, "child at {:#x}", va);
        }
        // Addresses written only by one side read as the other side's value
        // (or zero) on the other — no bleed-through is checked implicitly by
        // the two loops above when keys overlap; the capability survives on
        // whichever side never wrote over it.
        for side in [parent, child] {
            let got = vm.load_cap(side, base + 1024).unwrap();
            let wrote_over = |m: &BTreeMap<u64, u64>| {
                m.keys().any(|k| *k & !15 == (base + 1024) || *k & !15 == base + 1024 + 8)
            };
            let damaged = if side == parent { wrote_over(&pw) } else { wrote_over(&cw) };
            if !damaged {
                prop_assert!(got.is_some(), "capability lost without a write");
            }
        }
    }

    /// Repeated map/unmap of random sizes never leaks physical frames.
    #[test]
    fn map_unmap_never_leaks_frames(sizes in proptest::collection::vec(1u64..16, 1..24)) {
        let (mut vm, id) = fresh();
        for pages in &sizes {
            let len = pages * 4096;
            let base = vm.map(id, None, len, Prot::rw(), Backing::Zero, "anon").unwrap();
            // Touch every page.
            for p in 0..*pages {
                vm.write_u64(id, base + p * 4096, p).unwrap();
            }
            vm.unmap(id, base, len).unwrap();
        }
        prop_assert_eq!(vm.phys.allocated_frames(), 0, "all frames released");
    }
}
