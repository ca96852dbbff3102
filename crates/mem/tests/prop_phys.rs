//! Property tests for tagged physical memory (DESIGN.md invariant I3):
//! against a simple reference model, arbitrary interleavings of data writes
//! and capability stores never fabricate a tag and never lose data.

use cheri_cap::{CapFormat, CapSource, Capability, PrincipalId, TAG_GRANULE};
use cheri_mem::{PAddr, PhysMem, FRAME_SIZE};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    /// Write `len` bytes of `fill` at `off`.
    Data(u16, u8, u8),
    /// Store a capability at granule `g` (tagged or pre-cleared).
    Cap(u8, bool),
    /// Copy the frame to a scratch frame and back (tag-preserving path).
    RoundTripTagged,
    /// Export data only and reload it (tag-stripping path, like DMA).
    RoundTripData,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..4080, any::<u8>(), 1u8..32).prop_map(|(o, f, l)| Op::Data(o, f, l)),
        (any::<u8>(), any::<bool>()).prop_map(|(g, t)| Op::Cap(g, t)),
        Just(Op::RoundTripTagged),
        Just(Op::RoundTripData),
    ]
}

fn cap_at(addr: u64, tagged: bool) -> Capability {
    let c = Capability::root(CapFormat::C128, PrincipalId::from_raw(1), CapSource::Exec)
        .with_addr(addr)
        .set_bounds(16, true)
        .expect("small bounds");
    if tagged {
        c
    } else {
        c.clear_tag()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reference model: per-granule "latest operation" tracking. A
    /// granule's tag is set iff the last operation covering any of its
    /// bytes was a *tagged* capability store; data reads reflect the last
    /// writer.
    #[test]
    fn tags_track_the_reference_model(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let mut pm = PhysMem::new(4);
        let frame = pm.alloc_frame().unwrap();
        let scratch = pm.alloc_frame().unwrap();
        // granule -> expected tagged capability
        let mut model: BTreeMap<u64, Capability> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Data(off, fill, len) => {
                    let off = u64::from(*off);
                    let len = u64::from(*len).min(FRAME_SIZE - off);
                    let buf = vec![*fill; len as usize];
                    pm.write_bytes(PAddr::new(frame, off), &buf).unwrap();
                    let g0 = off / TAG_GRANULE;
                    let g1 = (off + len - 1) / TAG_GRANULE;
                    for g in g0..=g1 {
                        model.remove(&g);
                    }
                }
                Op::Cap(g, tagged) => {
                    let g = u64::from(*g);
                    let addr = g * TAG_GRANULE;
                    let c = cap_at(0x1000 + addr, *tagged);
                    pm.store_cap(PAddr::new(frame, addr), c).unwrap();
                    if *tagged {
                        model.insert(g, c);
                    } else {
                        model.remove(&g);
                    }
                }
                Op::RoundTripTagged => {
                    pm.copy_frame_with_tags(frame, scratch).unwrap();
                    pm.copy_frame_with_tags(scratch, frame).unwrap();
                }
                Op::RoundTripData => {
                    let data = pm.frame_data(frame).unwrap();
                    pm.set_frame_data(frame, &data).unwrap();
                    model.clear(); // tags do not survive a data-only path
                }
            }
            // Full validation after every step.
            for g in 0..(FRAME_SIZE / TAG_GRANULE) {
                let got = pm.load_cap(PAddr::new(frame, g * TAG_GRANULE)).unwrap();
                match model.get(&g) {
                    Some(c) => prop_assert_eq!(got, Some(*c), "granule {}", g),
                    None => prop_assert_eq!(got, None, "granule {} must be untagged", g),
                }
            }
        }
    }

    /// Data written is data read, independent of tag traffic around it.
    #[test]
    fn data_integrity_under_cap_traffic(
        writes in proptest::collection::vec((0u16..4088, any::<u64>()), 1..40),
        caps in proptest::collection::vec(any::<u8>(), 0..20),
    ) {
        let mut pm = PhysMem::new(2);
        let frame = pm.alloc_frame().unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, (off, v)) in writes.iter().enumerate() {
            let off = u64::from(*off) & !7;
            pm.write_u64(PAddr::new(frame, off), *v).unwrap();
            model.insert(off, *v);
            // Interleave a capability store somewhere else.
            if let Some(g) = caps.get(i % caps.len().max(1)) {
                let addr = u64::from(*g) * TAG_GRANULE;
                pm.store_cap(PAddr::new(frame, addr), cap_at(addr, true)).unwrap();
                // The cap store rewrites that granule's data bytes.
                model.retain(|k, _| k / TAG_GRANULE != u64::from(*g));
            }
        }
        for (off, v) in &model {
            prop_assert_eq!(pm.read_u64(PAddr::new(frame, *off)).unwrap(), *v);
        }
    }

    /// Slab churn: capability stores, word overwrites and restores hammer
    /// a handful of granules of one frame, so slots are taken, go stale
    /// and are reused over and over. Every load, and the scan in granule
    /// order, matches the model after every step.
    #[test]
    fn store_overwrite_restore_churn_on_one_frame(
        ops in proptest::collection::vec((0u8..3, 0u64..8, 0u32..4, any::<u16>()), 1..200),
    ) {
        let mut pm = PhysMem::new(2);
        let frame = pm.alloc_frame().unwrap();
        let at = |g: u64| PAddr::new(frame, g * TAG_GRANULE);
        let mut model: BTreeMap<u64, Capability> = BTreeMap::new();
        // The last capability stored at each granule, for restores.
        let mut last: BTreeMap<u64, Capability> = BTreeMap::new();
        let mut mutations = 0;
        for &(kind, g, w, v) in &ops {
            match kind {
                0 => {
                    let c = cap_at(0x1000 + u64::from(v) * TAG_GRANULE, true);
                    pm.store_cap(at(g), c).unwrap();
                    model.insert(g, c);
                    last.insert(g, c);
                    mutations += 1;
                }
                1 => {
                    let size = 1u64 << w;
                    let off = g * TAG_GRANULE + (u64::from(v) % (TAG_GRANULE / size)) * size;
                    pm.write_word(PAddr::new(frame, off), size, u64::from(v)).unwrap();
                    prop_assert_eq!(pm.read_word(PAddr::new(frame, off), size).unwrap(), u64::from(v) & (u64::MAX >> (64 - 8 * size)));
                    model.remove(&g);
                    mutations += 1;
                }
                _ => {
                    if let Some(&c) = last.get(&g) {
                        pm.store_cap(at(g), c).unwrap();
                        model.insert(g, c);
                        mutations += 1;
                    }
                }
            }
            for g in 0..8 {
                prop_assert_eq!(pm.load_cap(at(g)).unwrap(), model.get(&g).copied(), "granule {}", g);
            }
            let scanned = pm.scan_caps(frame).unwrap();
            let want: Vec<(u64, Capability)> = model.iter().map(|(&g, &c)| (g * TAG_GRANULE, c)).collect();
            prop_assert_eq!(scanned, want);
        }
        prop_assert_eq!(pm.faults().mutations, mutations);
    }
}
