//! Strongly-typed cacheline addresses.

use core::fmt;

use crate::LINE_SIZE;

/// A cacheline-aligned physical address.
///
/// Using a newtype instead of a bare `u64` keeps byte addresses, line
/// addresses, and metadata indices from being mixed up across the
/// controller/secmem boundary.
///
/// # Examples
///
/// ```
/// use dolos_nvm::addr::LineAddr;
///
/// let a = LineAddr::new(0x1000).unwrap();
/// assert_eq!(a.as_u64(), 0x1000);
/// assert_eq!(a.line_index(), 0x40);
/// assert!(LineAddr::new(0x1001).is_none()); // not 64-byte aligned
/// assert_eq!(LineAddr::containing(0x1039), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address, or `None` if `addr` is not 64-byte aligned.
    pub fn new(addr: u64) -> Option<Self> {
        addr.is_multiple_of(LINE_SIZE as u64)
            .then_some(LineAddr(addr))
    }

    /// Returns the line containing the given byte address.
    pub fn containing(byte_addr: u64) -> Self {
        LineAddr(byte_addr & !(LINE_SIZE as u64 - 1))
    }

    /// Creates a line address from a line index (address / 64).
    pub fn from_index(index: u64) -> Self {
        LineAddr(index * LINE_SIZE as u64)
    }

    /// The raw byte address.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The line index (address / 64).
    pub fn line_index(self) -> u64 {
        self.0 / LINE_SIZE as u64
    }

    /// The 4 KiB page index this line belongs to.
    pub fn page_index(self) -> u64 {
        self.0 / 4096
    }

    /// The line's slot within its 4 KiB page (0..64).
    pub fn line_in_page(self) -> usize {
        ((self.0 % 4096) / LINE_SIZE as u64) as usize
    }

    /// The next line address.
    pub fn next(self) -> Self {
        LineAddr(self.0 + LINE_SIZE as u64)
    }

    /// The NVM bank this line maps to, for a power-of-two bank count.
    ///
    /// The mapping XOR-folds a higher line-index window onto the low bits
    /// before masking, so both dense sequential sweeps and strided
    /// page-granular workloads spread across banks instead of pinning one.
    /// `banks == 1` always maps to bank 0 — the single-queue baseline.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or not a power of two.
    pub fn bank_index(self, banks: usize) -> usize {
        assert!(
            banks.is_power_of_two(),
            "bank count must be a power of two, got {banks}"
        );
        let idx = self.line_index();
        ((idx ^ (idx >> 7)) & (banks as u64 - 1)) as usize
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_enforced() {
        assert!(LineAddr::new(0).is_some());
        assert!(LineAddr::new(64).is_some());
        assert!(LineAddr::new(63).is_none());
    }

    #[test]
    fn containing_rounds_down() {
        assert_eq!(LineAddr::containing(127).as_u64(), 64);
        assert_eq!(LineAddr::containing(128).as_u64(), 128);
    }

    #[test]
    fn page_decomposition() {
        let a = LineAddr::new(4096 + 3 * 64).unwrap();
        assert_eq!(a.page_index(), 1);
        assert_eq!(a.line_in_page(), 3);
    }

    #[test]
    fn index_round_trip() {
        let a = LineAddr::from_index(17);
        assert_eq!(a.line_index(), 17);
        assert_eq!(a.as_u64(), 17 * 64);
    }

    #[test]
    fn traversal() {
        let a = LineAddr::new(0).unwrap();
        assert_eq!(a.next().as_u64(), 64);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(LineAddr::new(256).unwrap().to_string(), "0x100");
    }

    #[test]
    fn bank_index_is_total_on_power_of_two_counts() {
        for banks in [1usize, 2, 4, 8, 16] {
            for i in 0..1024u64 {
                let b = LineAddr::from_index(i).bank_index(banks);
                assert!(b < banks, "index {i} escaped: bank {b} of {banks}");
            }
        }
    }

    #[test]
    fn single_bank_maps_everything_to_zero() {
        for i in [0u64, 1, 63, 64, 127, 1 << 20, u64::MAX / 64] {
            assert_eq!(LineAddr::from_index(i).bank_index(1), 0);
        }
    }

    #[test]
    fn sequential_lines_round_robin_low_bits() {
        // Below the XOR-fold window (index < 128) the mapping is the plain
        // low-bit interleave, so adjacent lines land on adjacent banks.
        let banks = 4;
        for i in 0..16u64 {
            assert_eq!(
                LineAddr::from_index(i).bank_index(banks),
                (i % banks as u64) as usize
            );
        }
    }

    #[test]
    fn strided_pages_do_not_pin_one_bank() {
        // 4 KiB-page stride (64 lines) hits every bank thanks to the fold.
        let banks = 8;
        let mut seen = [false; 8];
        for page in 0..64u64 {
            seen[LineAddr::from_index(page * 64).bank_index(banks)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "page stride pinned banks: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bank_count_panics() {
        let _ = LineAddr::from_index(0).bank_index(3);
    }
}
