//! Capability fault causes, mirroring the CHERI exception cause register.

use std::error::Error;
use std::fmt;

/// The reason a capability operation or capability-mediated access trapped.
///
/// These map one-for-one onto CHERI-MIPS capability exception causes; the
/// simulated kernel converts them into the signal it delivers (`SIGPROT` in
/// CheriBSD, modelled here as a distinct process exit status), and the
/// compatibility study (Table 2) classifies them back into source-change
/// categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CapFault {
    /// The capability's tag was clear (provenance violation).
    TagViolation,
    /// The capability was sealed and the operation requires it unsealed.
    SealViolation,
    /// Object types did not match during unseal/invoke.
    TypeViolation,
    /// The access or derivation fell outside the capability's bounds.
    LengthViolation,
    /// Requested bounds were not exactly representable in the compressed
    /// format (`CSetBoundsExact`).
    RepresentabilityViolation,
    /// Attempt to widen bounds or permissions.
    MonotonicityViolation,
    /// `LOAD` permission missing.
    PermitLoadViolation,
    /// `STORE` permission missing.
    PermitStoreViolation,
    /// `EXECUTE` permission missing.
    PermitExecuteViolation,
    /// `LOAD_CAP` permission missing for a tagged load.
    PermitLoadCapViolation,
    /// `STORE_CAP` permission missing for a tagged store.
    PermitStoreCapViolation,
    /// Storing a local (non-global) capability without `STORE_LOCAL_CAP`.
    PermitStoreLocalCapViolation,
    /// `SEAL` permission missing on the sealing capability.
    PermitSealViolation,
    /// `UNSEAL` permission missing on the unsealing capability.
    PermitUnsealViolation,
    /// Access to system registers without `SYSTEM_REGS`.
    AccessSystemRegsViolation,
    /// Software-defined permission (e.g. `VMMAP`) missing; raised by the
    /// kernel rather than the hardware.
    UserPermViolation,
    /// A capability load or store at an address not aligned to the
    /// capability size.
    UnalignedCapAccess,
    /// Data access with size/alignment the ISA cannot perform.
    UnalignedDataAccess,
    /// An operation was attempted on the NULL / untagged DDC (CheriABI sets
    /// DDC to NULL, so every legacy load/store raises this).
    DdcNull,
}

impl CapFault {
    /// Short stable mnemonic used in traces and table output.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CapFault::TagViolation => "tag",
            CapFault::SealViolation => "seal",
            CapFault::TypeViolation => "type",
            CapFault::LengthViolation => "length",
            CapFault::RepresentabilityViolation => "repr",
            CapFault::MonotonicityViolation => "monotonic",
            CapFault::PermitLoadViolation => "perm-load",
            CapFault::PermitStoreViolation => "perm-store",
            CapFault::PermitExecuteViolation => "perm-exec",
            CapFault::PermitLoadCapViolation => "perm-loadcap",
            CapFault::PermitStoreCapViolation => "perm-storecap",
            CapFault::PermitStoreLocalCapViolation => "perm-storelocal",
            CapFault::PermitSealViolation => "perm-seal",
            CapFault::PermitUnsealViolation => "perm-unseal",
            CapFault::AccessSystemRegsViolation => "perm-sysregs",
            CapFault::UserPermViolation => "perm-user",
            CapFault::UnalignedCapAccess => "align-cap",
            CapFault::UnalignedDataAccess => "align-data",
            CapFault::DdcNull => "ddc-null",
        }
    }

    /// Whether the fault indicates a *spatial* memory-safety violation (used
    /// by the BOdiagsuite scoring in Table 3).
    #[must_use]
    pub fn is_spatial(self) -> bool {
        matches!(
            self,
            CapFault::LengthViolation
                | CapFault::PermitLoadViolation
                | CapFault::PermitStoreViolation
                | CapFault::TagViolation
        )
    }
}

impl fmt::Display for CapFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "capability fault: {}", self.mnemonic())
    }
}

impl Error for CapFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_unique() {
        let all = [
            CapFault::TagViolation,
            CapFault::SealViolation,
            CapFault::TypeViolation,
            CapFault::LengthViolation,
            CapFault::RepresentabilityViolation,
            CapFault::MonotonicityViolation,
            CapFault::PermitLoadViolation,
            CapFault::PermitStoreViolation,
            CapFault::PermitExecuteViolation,
            CapFault::PermitLoadCapViolation,
            CapFault::PermitStoreCapViolation,
            CapFault::PermitStoreLocalCapViolation,
            CapFault::PermitSealViolation,
            CapFault::PermitUnsealViolation,
            CapFault::AccessSystemRegsViolation,
            CapFault::UserPermViolation,
            CapFault::UnalignedCapAccess,
            CapFault::UnalignedDataAccess,
            CapFault::DdcNull,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for f in all {
            assert!(
                seen.insert(f.mnemonic()),
                "duplicate mnemonic {}",
                f.mnemonic()
            );
        }
    }

    #[test]
    fn spatial_classification() {
        assert!(CapFault::LengthViolation.is_spatial());
        assert!(!CapFault::SealViolation.is_spatial());
    }

    #[test]
    fn display_mentions_cause() {
        assert_eq!(CapFault::DdcNull.to_string(), "capability fault: ddc-null");
    }
}
