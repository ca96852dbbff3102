//! Object types for sealed capabilities.

use std::fmt;

/// An object type identifying the class of a sealed capability.
///
/// Sealing is CHERI's mechanism for making a capability *immutable and
/// non-dereferenceable* until unsealed by a capability with matching
/// authority; CheriABI uses it for the signal-return trampoline and for
/// opaque kernel handles. Only a small range of the address space is valid
/// as an object type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OType(u32);

impl OType {
    /// Largest valid object type (CHERI-MIPS reserves an 18-bit otype space).
    pub const MAX: u32 = (1 << 18) - 1;

    /// Creates an object type, returning `None` if out of range.
    #[must_use]
    pub fn new(value: u64) -> Option<OType> {
        if value <= u64::from(Self::MAX) {
            Some(OType(value as u32))
        } else {
            None
        }
    }

    /// The object type of a `value` already known to be in range.
    pub(crate) fn from_valid(value: u32) -> OType {
        debug_assert!(value <= Self::MAX);
        OType(value)
    }

    /// The numeric value of this object type.
    #[must_use]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for OType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OType({:#x})", self.0)
    }
}

impl fmt::Display for OType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_accepted() {
        assert_eq!(OType::new(0).map(OType::value), Some(0));
        assert_eq!(
            OType::new(u64::from(OType::MAX)).map(OType::value),
            Some(OType::MAX)
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(OType::new(u64::from(OType::MAX) + 1).is_none());
        assert!(OType::new(u64::MAX).is_none());
    }
}
