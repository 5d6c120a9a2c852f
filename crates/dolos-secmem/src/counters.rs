//! Split encryption counters (§2.1 of the paper).
//!
//! Counters are packed 64 per 64-byte block: one 64-bit **major** counter
//! shared by a 4 KiB page plus 64 7-bit **minor** counters, one per
//! cacheline. The effective counter of line `i` is `(major, minor[i])`; when
//! a minor counter overflows, the major counter increments, all minors reset,
//! and the whole page must be re-encrypted (the caller is told via
//! [`IncrementResult::PageOverflow`]).

use dolos_nvm::Line;

/// Minor counters are 7 bits wide.
pub const MINOR_MAX: u8 = 0x7F;

/// Number of minor counters per block (one per line of a 4 KiB page).
pub const MINORS_PER_BLOCK: usize = 64;

/// The effective encryption counter of one cacheline.
///
/// Folded into the IV as a single 64-bit value: `major * 128 + minor`, which
/// is unique across the page's lifetime because minors reset on every major
/// increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineCounter {
    /// The page-wide major counter.
    pub major: u64,
    /// This line's minor counter.
    pub minor: u8,
}

impl LineCounter {
    /// Packs the counter into the single value used in the IV.
    ///
    /// # Examples
    ///
    /// ```
    /// use dolos_secmem::counters::LineCounter;
    /// let c = LineCounter { major: 2, minor: 5 };
    /// assert_eq!(c.packed(), 2 * 128 + 5);
    /// ```
    pub fn packed(self) -> u64 {
        self.major * 128 + u64::from(self.minor)
    }
}

/// Outcome of incrementing a line's counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementResult {
    /// The minor counter advanced; only this line's pad changes.
    Minor(LineCounter),
    /// The minor overflowed: the major advanced, all minors reset, and every
    /// line in the page must be re-encrypted with its new counter.
    PageOverflow(LineCounter),
}

impl IncrementResult {
    /// The new counter value for the incremented line.
    pub fn counter(self) -> LineCounter {
        match self {
            IncrementResult::Minor(c) | IncrementResult::PageOverflow(c) => c,
        }
    }
}

/// A 64-byte split-counter block covering one 4 KiB page.
///
/// # Examples
///
/// ```
/// use dolos_secmem::counters::{CounterBlock, IncrementResult};
///
/// let mut block = CounterBlock::new();
/// let r = block.increment(3);
/// assert!(matches!(r, IncrementResult::Minor(_)));
/// assert_eq!(block.line_counter(3).minor, 1);
/// assert_eq!(block.line_counter(4).minor, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock {
    major: u64,
    minors: [u8; MINORS_PER_BLOCK],
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterBlock {
    /// A fresh block with all counters zero.
    pub fn new() -> Self {
        Self {
            major: 0,
            minors: [0; MINORS_PER_BLOCK],
        }
    }

    /// The page's major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The effective counter of line `line` (0..64).
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn line_counter(&self, line: usize) -> LineCounter {
        LineCounter {
            major: self.major,
            minor: self.minors[line],
        }
    }

    /// Increments line `line`'s counter, handling minor overflow.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn increment(&mut self, line: usize) -> IncrementResult {
        if self.minors[line] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; MINORS_PER_BLOCK];
            // Per split-counter semantics the overflowing line starts the new
            // epoch at minor 1 so its pad still differs from the fresh 0 pads
            // the other lines will use on their next write.
            self.minors[line] = 1;
            IncrementResult::PageOverflow(self.line_counter(line))
        } else {
            self.minors[line] += 1;
            IncrementResult::Minor(self.line_counter(line))
        }
    }

    /// Sets line `line`'s counter to exactly `c`, adopting `c.major` as the
    /// page's major counter; the other lines' minors are left as they are.
    ///
    /// Recovery writes back probed counters with this: [`Self::increment`]
    /// cannot reach `(major, 0)` for a line that crossed an overflow, since
    /// the overflowing line restarts its epoch at minor 1.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64` or `c.minor > MINOR_MAX`.
    pub fn set_line_counter(&mut self, line: usize, c: LineCounter) {
        assert!(
            c.minor <= MINOR_MAX,
            "minor counter {} exceeds 7 bits",
            c.minor
        );
        self.major = c.major;
        self.minors[line] = c.minor;
    }

    /// Serializes to the 64-byte NVM representation
    /// (8-byte major ‖ 56 bytes holding 64 7-bit minors).
    pub fn to_line(&self) -> Line {
        let mut out = [0u8; 64];
        out[0..8].copy_from_slice(&self.major.to_le_bytes());
        // Pack 64 x 7-bit minors into 56 bytes.
        let mut bit = 0usize;
        for &m in &self.minors {
            let byte = bit / 8;
            let off = bit % 8;
            let v = u16::from(m & MINOR_MAX) << off;
            out[8 + byte] |= (v & 0xFF) as u8;
            if off > 1 {
                out[8 + byte + 1] |= (v >> 8) as u8;
            }
            bit += 7;
        }
        out
    }

    /// Deserializes from the 64-byte NVM representation.
    pub fn from_line(line: &Line) -> Self {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&line[0..8]);
        let major = u64::from_le_bytes(major_bytes);
        let mut minors = [0u8; MINORS_PER_BLOCK];
        let mut bit = 0usize;
        for m in &mut minors {
            let byte = bit / 8;
            let off = bit % 8;
            let lo = u16::from(line[8 + byte]) >> off;
            let hi = if off > 1 && 8 + byte + 1 < 64 {
                u16::from(line[8 + byte + 1]) << (8 - off)
            } else {
                0
            };
            *m = ((lo | hi) & u16::from(MINOR_MAX)) as u8;
            bit += 7;
        }
        Self { major, minors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_zero() {
        let b = CounterBlock::new();
        assert_eq!(b.major(), 0);
        for i in 0..64 {
            assert_eq!(b.line_counter(i).packed(), 0);
        }
    }

    #[test]
    fn minor_increments_are_per_line() {
        let mut b = CounterBlock::new();
        b.increment(0);
        b.increment(0);
        b.increment(1);
        assert_eq!(b.line_counter(0).minor, 2);
        assert_eq!(b.line_counter(1).minor, 1);
        assert_eq!(b.line_counter(2).minor, 0);
    }

    #[test]
    fn overflow_resets_page() {
        let mut b = CounterBlock::new();
        for _ in 0..u64::from(MINOR_MAX) {
            b.increment(5);
        }
        assert_eq!(b.line_counter(5).minor, MINOR_MAX);
        b.increment(6); // unrelated line untouched by the coming overflow
        let r = b.increment(5);
        assert!(matches!(r, IncrementResult::PageOverflow(_)));
        assert_eq!(b.major(), 1);
        assert_eq!(b.line_counter(5).minor, 1);
        assert_eq!(b.line_counter(6).minor, 0); // reset by the epoch change
    }

    #[test]
    fn packed_counters_never_repeat_across_overflow() {
        let mut b = CounterBlock::new();
        // Sort-and-dedup uniqueness check: collection-deterministic, unlike
        // a hash set whose probe order depends on process hasher seeds.
        let seen: Vec<u64> = (0..300)
            .map(|_| b.increment(9).counter().packed())
            .collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), before, "a packed counter value repeated");
    }

    #[test]
    fn serialization_round_trips() {
        let mut b = CounterBlock::new();
        for i in 0..64 {
            for _ in 0..(i % 7) {
                b.increment(i);
            }
        }
        for _ in 0..200 {
            b.increment(63);
        }
        let line = b.to_line();
        assert_eq!(CounterBlock::from_line(&line), b);
    }

    #[test]
    fn serialization_of_extremes() {
        let mut b = CounterBlock::new();
        for i in 0..64 {
            for _ in 0..u64::from(MINOR_MAX) {
                b.increment(i);
            }
        }
        let line = b.to_line();
        assert_eq!(CounterBlock::from_line(&line), b);
    }

    #[test]
    fn packed_orders_by_epoch() {
        let early = LineCounter {
            major: 0,
            minor: 127,
        };
        let later = LineCounter { major: 1, minor: 0 };
        assert!(later.packed() > early.packed());
    }
}
