//! The seeded, deterministic fault-injection plane.
//!
//! CheriABI's central claim is that memory corruption lands as a *clean,
//! attributable trap* — a flipped bit in a capability granule clears the
//! tag and the next dereference raises `CapFault::TagViolation`, never a
//! wild access (PAPER.md §2). This module schedules adversarial state for
//! the substrate to absorb: physical-memory bit-flips in data and
//! capability granules, swap-device I/O errors, and transient syscall
//! errors — each armed on a fresh per-case kernel, each firing at a
//! deterministic access count, so the same [`FaultPlan`] and seed always
//! reproduce the same run.
//!
//! A [`FaultPlan`] is plain data (`Hash + Eq`, canonical JSON) exactly
//! like [`crate::spec::ProgramSpec`]: embedding one in a
//! [`crate::harness::RunSpec`] makes it part of the spec's cache identity
//! (a faulted run never serves a fault-free cache entry, and vice versa)
//! and lets a campaign matrix ship across `--shard` boundaries.
//!
//! [`FaultCounters`] is the harvest: which injections actually fired and
//! whether any corrupted capability was *dereferenced with a live tag*
//! (`corrupt_cap_loads` — the escape the `fault_campaign` oracle treats as
//! a silent success, which must stay zero unless the test-only
//! `weaken_tag_clear` hook is set).

use crate::json::Json;
use cheri_kernel::{Kernel, SyscallFaultSpec};
use cheri_mem::PhysFaultSpec;
use cheri_vm::SwapFaultSpec;

/// One injected fault, as plain data. Counts are occurrence ordinals in
/// the fault family's own deterministic stream (physical mutations, swap
/// slot I/Os, eligible syscalls), so a kind + parameters fully determine
/// *when* the fault fires for a given guest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip `bit` (0–7) of one byte in the next *data* granule mutated
    /// after `after_writes` physical mutations; per CHERI semantics the
    /// granule's tag is already clear or cleared by the write itself.
    BitFlipData {
        /// Physical mutations to count before firing.
        after_writes: u64,
        /// Bit index within the chosen byte.
        bit: u32,
    },
    /// Flip `bit` of a byte inside a granule holding a *tagged
    /// capability* (the flip waits until one exists); the store of the
    /// flipped bytes clears the tag, so the next dereference must be a
    /// clean `TagViolation`.
    BitFlipCap {
        /// Physical mutations to count before firing.
        after_writes: u64,
        /// Bit index within the chosen byte.
        bit: u32,
    },
    /// Fail swap-device *reads* (swap-in) starting at the `at`-th read
    /// (1-based) for `count` consecutive attempts. One failure is
    /// absorbed by the kernel's retry; persistent failure is SIGBUS.
    SwapReadErr {
        /// First failing read attempt (1-based).
        at: u64,
        /// Consecutive attempts that fail.
        count: u32,
    },
    /// Fail swap-device *writes* (swap-out) starting at the `at`-th write
    /// for `count` attempts; affected pages simply stay resident.
    SwapWriteErr {
        /// First failing write attempt (1-based).
        at: u64,
        /// Consecutive attempts that fail.
        count: u32,
    },
    /// Interrupt the `at`-th eligible syscall (1-based; `exit` and
    /// `sigreturn` never count) with EINTR; the kernel restarts it
    /// transparently.
    SyscallEintr {
        /// Eligible-syscall ordinal to interrupt (1-based).
        at: u64,
    },
    /// Fail the `at`-th eligible syscall with a guest-visible ENOMEM.
    SyscallEnomem {
        /// Eligible-syscall ordinal to fail (1-based).
        at: u64,
    },
}

impl FaultKind {
    /// The stable JSON tag for this kind.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::BitFlipData { .. } => "bit-flip-data",
            FaultKind::BitFlipCap { .. } => "bit-flip-cap",
            FaultKind::SwapReadErr { .. } => "swap-read-err",
            FaultKind::SwapWriteErr { .. } => "swap-write-err",
            FaultKind::SyscallEintr { .. } => "syscall-eintr",
            FaultKind::SyscallEnomem { .. } => "syscall-enomem",
        }
    }
}

/// A complete, armable fault schedule for one case.
///
/// `weaken_tag_clear` is the **test-only** escape hatch the acceptance
/// criteria demand: with it set, a capability bit-flip *preserves* the
/// granule tag (violating CHERI semantics), so the corrupted capability
/// stays dereferenceable and the campaign oracle must flag the run as a
/// silent success. It exists to prove the oracle detects escapes; no real
/// experiment sets it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Which fault to inject, and when.
    pub kind: FaultKind,
    /// Test-only: keep the tag alive through a capability bit-flip.
    pub weaken_tag_clear: bool,
}

impl FaultPlan {
    /// A plan for `kind` with proper CHERI tag-clearing semantics.
    #[must_use]
    pub fn new(kind: FaultKind) -> FaultPlan {
        FaultPlan {
            kind,
            weaken_tag_clear: false,
        }
    }

    /// Arms this plan on a freshly booted kernel (call before the guest
    /// spawns so access counts start from zero).
    pub fn arm(&self, kernel: &mut Kernel) {
        // Hold the core on plain stepping. Exactness does not need it:
        // a template's stores go through the same `PhysMem` entry points
        // as the stepper's, and it holds no swap or syscall, so every
        // trigger lands at the same event either way. The hold is kept
        // for speed, as in `System::run_scenario` (where it is measured;
        // the fault probes were not timed on their own).
        kernel.cpu.set_exact_mem_events(true);
        match self.kind {
            FaultKind::BitFlipData { after_writes, bit } => {
                kernel.vm.phys.arm_faults(PhysFaultSpec {
                    after_mutations: after_writes,
                    bit,
                    target_cap: false,
                    preserve_tag: self.weaken_tag_clear,
                });
            }
            FaultKind::BitFlipCap { after_writes, bit } => {
                kernel.vm.phys.arm_faults(PhysFaultSpec {
                    after_mutations: after_writes,
                    bit,
                    target_cap: true,
                    preserve_tag: self.weaken_tag_clear,
                });
            }
            FaultKind::SwapReadErr { at, count } => {
                kernel.vm.arm_swap_faults(SwapFaultSpec {
                    read_fail_at: Some(at),
                    read_fail_count: count,
                    ..SwapFaultSpec::default()
                });
            }
            FaultKind::SwapWriteErr { at, count } => {
                kernel.vm.arm_swap_faults(SwapFaultSpec {
                    write_fail_at: Some(at),
                    write_fail_count: count,
                    ..SwapFaultSpec::default()
                });
            }
            FaultKind::SyscallEintr { at } => {
                kernel.arm_syscall_faults(SyscallFaultSpec {
                    eintr_at: Some(at),
                    enomem_at: None,
                });
            }
            FaultKind::SyscallEnomem { at } => {
                kernel.arm_syscall_faults(SyscallFaultSpec {
                    eintr_at: None,
                    enomem_at: Some(at),
                });
            }
        }
    }

    /// Canonical JSON encoding: a `"kind"` tag plus the kind's parameters
    /// in declaration order, then the weaken flag —
    /// `{"kind":"bit-flip-cap","after_writes":40,"bit":3,"weaken_tag_clear":false}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("kind", Json::str(self.kind.tag()))];
        match self.kind {
            FaultKind::BitFlipData { after_writes, bit }
            | FaultKind::BitFlipCap { after_writes, bit } => {
                fields.push(("after_writes", Json::u64(after_writes)));
                fields.push(("bit", Json::u64(u64::from(bit))));
            }
            FaultKind::SwapReadErr { at, count } | FaultKind::SwapWriteErr { at, count } => {
                fields.push(("at", Json::u64(at)));
                fields.push(("count", Json::u64(u64::from(count))));
            }
            FaultKind::SyscallEintr { at } | FaultKind::SyscallEnomem { at } => {
                fields.push(("at", Json::u64(at)));
            }
        }
        fields.push(("weaken_tag_clear", Json::Bool(self.weaken_tag_clear)));
        Json::obj(fields)
    }

    /// Decodes [`FaultPlan::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is not a recognised encoding.
    pub fn from_json(v: &Json) -> Result<FaultPlan, String> {
        let bit = |v: &Json| -> Result<u32, String> {
            u32::try_from(v.field("bit")?.as_u64()?).map_err(|e| e.to_string())
        };
        let count = |v: &Json| -> Result<u32, String> {
            u32::try_from(v.field("count")?.as_u64()?).map_err(|e| e.to_string())
        };
        let kind = match v.field("kind")?.as_str()? {
            "bit-flip-data" => FaultKind::BitFlipData {
                after_writes: v.field("after_writes")?.as_u64()?,
                bit: bit(v)?,
            },
            "bit-flip-cap" => FaultKind::BitFlipCap {
                after_writes: v.field("after_writes")?.as_u64()?,
                bit: bit(v)?,
            },
            "swap-read-err" => FaultKind::SwapReadErr {
                at: v.field("at")?.as_u64()?,
                count: count(v)?,
            },
            "swap-write-err" => FaultKind::SwapWriteErr {
                at: v.field("at")?.as_u64()?,
                count: count(v)?,
            },
            "syscall-eintr" => FaultKind::SyscallEintr {
                at: v.field("at")?.as_u64()?,
            },
            "syscall-enomem" => FaultKind::SyscallEnomem {
                at: v.field("at")?.as_u64()?,
            },
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        Ok(FaultPlan {
            kind,
            weaken_tag_clear: v.field("weaken_tag_clear")?.as_bool()?,
        })
    }
}

/// What the armed fault plane actually did to one run, harvested from the
/// kernel after the guest finished. Everything here is deterministic
/// given the spec (fresh kernel, counted injection points).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Bytes flipped by the physical-memory injector.
    pub flips: u64,
    /// Granule tags cleared by an injected flip (proper CHERI semantics).
    pub tags_cleared: u64,
    /// Granule tags *preserved* through a flip (only ever nonzero under
    /// the test-only `weaken_tag_clear` hook).
    pub tags_preserved: u64,
    /// Loads that returned a still-tagged capability from a corrupted
    /// granule — the escape counter; nonzero means the tag-clearing
    /// contract was violated.
    pub corrupt_cap_loads: u64,
    /// Swap-device read errors injected.
    pub swap_read_errors: u64,
    /// Swap-device write errors injected.
    pub swap_write_errors: u64,
    /// Syscalls interrupted with EINTR.
    pub eintr_injected: u64,
    /// Syscalls failed with ENOMEM.
    pub enomem_injected: u64,
}

impl FaultCounters {
    /// Reads the counters off a kernel after a run.
    #[must_use]
    pub fn harvest(kernel: &Kernel) -> FaultCounters {
        let phys = kernel.vm.phys.faults();
        let swap = kernel.vm.swap_faults();
        let sys = kernel.syscall_faults();
        FaultCounters {
            flips: phys.flips,
            tags_cleared: phys.tags_cleared,
            tags_preserved: phys.tags_preserved,
            corrupt_cap_loads: phys.corrupt_cap_loads,
            swap_read_errors: swap.read_errors,
            swap_write_errors: swap.write_errors,
            eintr_injected: sys.eintr_injected,
            enomem_injected: sys.enomem_injected,
        }
    }

    /// Whether any injection actually happened (a plan aimed past the end
    /// of the guest's access stream fires nothing; that run is
    /// *unaffected*, which the campaign counts separately).
    #[must_use]
    pub fn fired(&self) -> bool {
        self.flips
            + self.swap_read_errors
            + self.swap_write_errors
            + self.eintr_injected
            + self.enomem_injected
            > 0
    }

    /// Canonical JSON encoding.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("flips", Json::u64(self.flips)),
            ("tags_cleared", Json::u64(self.tags_cleared)),
            ("tags_preserved", Json::u64(self.tags_preserved)),
            ("corrupt_cap_loads", Json::u64(self.corrupt_cap_loads)),
            ("swap_read_errors", Json::u64(self.swap_read_errors)),
            ("swap_write_errors", Json::u64(self.swap_write_errors)),
            ("eintr_injected", Json::u64(self.eintr_injected)),
            ("enomem_injected", Json::u64(self.enomem_injected)),
        ])
    }

    /// Decodes [`FaultCounters::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is not a recognised encoding.
    pub fn from_json(v: &Json) -> Result<FaultCounters, String> {
        Ok(FaultCounters {
            flips: v.field("flips")?.as_u64()?,
            tags_cleared: v.field("tags_cleared")?.as_u64()?,
            tags_preserved: v.field("tags_preserved")?.as_u64()?,
            corrupt_cap_loads: v.field("corrupt_cap_loads")?.as_u64()?,
            swap_read_errors: v.field("swap_read_errors")?.as_u64()?,
            swap_write_errors: v.field("swap_write_errors")?.as_u64()?,
            eintr_injected: v.field("eintr_injected")?.as_u64()?,
            enomem_injected: v.field("enomem_injected")?.as_u64()?,
        })
    }
}

/// Every fault kind at representative parameters — the campaign's sweep
/// axis, and the round-trip tests' corpus.
#[must_use]
pub fn all_kinds(after: u64, bit: u32) -> Vec<FaultKind> {
    vec![
        FaultKind::BitFlipData {
            after_writes: after,
            bit,
        },
        FaultKind::BitFlipCap {
            after_writes: after,
            bit,
        },
        FaultKind::SwapReadErr {
            at: after.max(1),
            count: 1,
        },
        FaultKind::SwapWriteErr {
            at: after.max(1),
            count: 1,
        },
        FaultKind::SyscallEintr { at: after.max(1) },
        FaultKind::SyscallEnomem { at: after.max(1) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn plans_round_trip_through_json() {
        for kind in all_kinds(17, 5) {
            for weaken in [false, true] {
                let plan = FaultPlan {
                    kind,
                    weaken_tag_clear: weaken,
                };
                let text = plan.to_json().to_string();
                let back =
                    FaultPlan::from_json(&json::parse(&text).expect("parses")).expect("decodes");
                assert_eq!(back, plan, "{text}");
                assert_eq!(back.to_json().to_string(), text, "canonical re-encode");
            }
        }
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let v = json::parse("{\"kind\":\"cosmic-ray\",\"weaken_tag_clear\":false}").expect("parse");
        assert!(FaultPlan::from_json(&v).is_err());
    }

    #[test]
    fn counters_round_trip_through_json() {
        let c = FaultCounters {
            flips: 1,
            tags_cleared: 1,
            tags_preserved: 0,
            corrupt_cap_loads: 0,
            swap_read_errors: 2,
            swap_write_errors: 0,
            eintr_injected: 1,
            enomem_injected: 0,
        };
        let text = c.to_json().to_string();
        let back = FaultCounters::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, c);
        assert!(back.fired());
        assert!(!FaultCounters::default().fired());
    }

    #[test]
    fn arming_reaches_every_layer() {
        use cheri_kernel::KernelConfig;
        // Each family must land in its own layer's spec slot.
        let mut k = Kernel::new(KernelConfig::default());
        FaultPlan::new(FaultKind::SwapReadErr { at: 3, count: 2 }).arm(&mut k);
        assert_eq!(k.vm.swap_faults().read_errors, 0, "not fired yet");
        FaultPlan::new(FaultKind::SyscallEnomem { at: 9 }).arm(&mut k);
        assert_eq!(k.syscall_faults().enomem_injected, 0, "not fired yet");
        let mut weak = FaultPlan::new(FaultKind::BitFlipCap {
            after_writes: 1,
            bit: 0,
        });
        weak.weaken_tag_clear = true;
        weak.arm(&mut k);
        assert_eq!(k.vm.phys.faults().flips, 0, "not fired yet");
    }
}
