//! Byte addresses and the geometry constants shared by the whole simulator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of one architectural instruction in bytes (ARMv8-style fixed width).
pub const INST_BYTES: u64 = 4;

/// Size of one cache line in bytes (L1I/L1D/L2/LLC all use 64 B lines).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Bytes covered by one µ-op cache entry (the paper uses 32 B windows holding
/// up to 8 µ-ops).
pub const UOP_WINDOW_BYTES: u64 = 32;

/// A byte address in the simulated machine.
///
/// A newtype over `u64` so instruction addresses, line addresses and window
/// addresses cannot be silently mixed with counters or indices.
///
/// # Examples
///
/// ```
/// use sim_isa::Addr;
/// let pc = Addr::new(0x1_0044);
/// assert_eq!(pc.line(), Addr::new(0x1_0040));
/// assert_eq!(pc.next_inst(), Addr::new(0x1_0048));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Addr(u64);

impl Addr {
    /// The zero address, used as an "invalid / not yet known" sentinel by
    /// structures that need one (e.g. empty BTB targets).
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the [`Addr::NULL`] sentinel.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Address of the 64 B cache line containing this address.
    #[inline]
    pub const fn line(self) -> Addr {
        Addr(self.0 & !(CACHE_LINE_BYTES - 1))
    }

    /// Address of the 32 B µ-op cache window containing this address.
    #[inline]
    pub const fn uop_window(self) -> Addr {
        Addr(self.0 & !(UOP_WINDOW_BYTES - 1))
    }

    /// Byte offset of this address within its 32 B µ-op cache window.
    #[inline]
    pub const fn uop_window_offset(self) -> u64 {
        self.0 & (UOP_WINDOW_BYTES - 1)
    }

    /// Address of the next sequential instruction.
    #[inline]
    pub const fn next_inst(self) -> Addr {
        Addr(self.0 + INST_BYTES)
    }

    /// Address advanced by `n` instructions.
    #[inline]
    pub const fn offset_insts(self, n: u64) -> Addr {
        Addr(self.0 + n * INST_BYTES)
    }

    /// `true` if `self` and `other` fall in the same 64 B cache line.
    #[inline]
    pub const fn same_line(self, other: Addr) -> bool {
        self.line().0 == other.line().0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_masks_low_bits() {
        assert_eq!(Addr::new(0x1234).line(), Addr::new(0x1200));
        assert_eq!(Addr::new(0x1240).line(), Addr::new(0x1240));
    }

    #[test]
    fn window_and_offset_partition_address() {
        let a = Addr::new(0x1005c);
        assert_eq!(a.uop_window().raw() + a.uop_window_offset(), a.raw());
        assert_eq!(a.uop_window(), Addr::new(0x10040));
        assert_eq!(a.uop_window_offset(), 0x1c);
    }

    #[test]
    fn inst_arithmetic_round_trips() {
        let a = Addr::new(0x400);
        let b = a.offset_insts(7);
        assert_eq!(b.raw() - a.raw(), 7 * INST_BYTES);
        assert_eq!(a.next_inst(), a.offset_insts(1));
    }

    #[test]
    fn same_line_detects_boundaries() {
        assert!(Addr::new(0x100).same_line(Addr::new(0x13c)));
        assert!(!Addr::new(0x13c).same_line(Addr::new(0x140)));
    }

    #[test]
    fn null_sentinel() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr::new(4).is_null());
        assert_eq!(Addr::default(), Addr::NULL);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0xabc).to_string(), "0xabc");
        assert_eq!(format!("{:x}", Addr::new(0xabc)), "abc");
    }
}
