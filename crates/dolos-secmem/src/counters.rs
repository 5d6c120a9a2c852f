//! Split encryption counters (§2.1 of the paper).
//!
//! Counters are packed 64 per 64-byte block: one 64-bit **major** counter
//! shared by a 4 KiB page plus 64 7-bit **minor** counters, one per
//! cacheline. The effective counter of line `i` is `(major, minor[i])`; when
//! a minor counter overflows, the major counter increments, all minors reset,
//! and the whole page must be re-encrypted (the caller is told via
//! [`IncrementResult::PageOverflow`]).
//!
//! On NVM a block is the little-endian major in bytes 0..8, then the
//! minors as one LSB-first bitstream of 7-bit fields in bytes 8..64. Eight
//! minors fill exactly seven bytes, so the codec works a group of eight at
//! a time: it loads the eight minor bytes as one `u64` and closes the
//! one-bit gaps between fields in three shift-and-mask steps (pairs, then
//! quads, then the whole group), and opens them again to decode.

use dolos_nvm::Line;

/// Minor counters are 7 bits wide.
pub const MINOR_MAX: u8 = 0x7F;

/// Number of minor counters per block (one per line of a 4 KiB page).
pub const MINORS_PER_BLOCK: usize = 64;

/// Minors per codec group: 8 seven-bit fields fill exactly 7 bytes.
const MINORS_PER_GROUP: usize = 8;

/// Bytes of the serialized block one codec group occupies.
const GROUP_BYTES: usize = 7;

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
    ///
    /// The minors form one LSB-first bitstream: minor `i` occupies stream
    /// bits `7i..7i + 7`. Every 8 minors fill exactly 7 bytes, so each group
    /// packs into one little-endian `u64` whose low 7 bytes are stored; see
    /// `pack_group` for the packing.
    pub fn to_line(&self) -> Line {
        let mut out = [0u8; 64];
        out[0..8].copy_from_slice(&self.major.to_le_bytes());
        let (groups, _) = self.minors.as_chunks::<MINORS_PER_GROUP>();
        for (bytes, group) in out[8..].chunks_exact_mut(GROUP_BYTES).zip(groups) {
            let word = pack_group(u64::from_le_bytes(*group));
            bytes.copy_from_slice(&word.to_le_bytes()[..GROUP_BYTES]);
        }
        out
    }

    /// Deserializes from the 64-byte NVM representation. Every byte
    /// pattern decodes; see [`Self::to_line`] for the layout.
    pub fn from_line(line: &Line) -> Self {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&line[0..8]);
        let major = u64::from_le_bytes(major_bytes);
        let mut minors = [0u8; MINORS_PER_BLOCK];
        let (groups, _) = minors.as_chunks_mut::<MINORS_PER_GROUP>();
        for (bytes, group) in line[8..].chunks_exact(GROUP_BYTES).zip(groups) {
            let mut word = [0u8; 8];
            word[..GROUP_BYTES].copy_from_slice(bytes);
            *group = unpack_group(u64::from_le_bytes(word)).to_le_bytes();
        }
        Self { major, minors }
    }
}

/// Packs eight minors, one per byte of `word` (little-endian), into its low
/// 56 bits: minor `k` lands at bits `7k..7k + 7`. Three shift-and-mask
/// steps close the gaps pairwise — 7-bit fields into 14-bit fields per
/// `u16`, those into 28-bit fields per `u32`, those into one 56-bit field.
/// Each byte's top bit is dropped, as the 7-bit field has no room for it.
fn pack_group(word: u64) -> u64 {
    let w = (word & 0x007F_007F_007F_007F) | ((word >> 1) & 0x3F80_3F80_3F80_3F80);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w >> 2) & 0x0FFF_C000_0FFF_C000);
    (w & 0x0FFF_FFFF) | ((w >> 4) & 0x00FF_FFFF_F000_0000)
}

/// Inverts [`pack_group`] on a 56-bit word: the same three steps in
/// reverse, each opening the gaps it closed, leave minor `k` in byte `k`.
fn unpack_group(word: u64) -> u64 {
    let w = (word & 0x0FFF_FFFF) | ((word << 4) & 0x0FFF_FFFF_0000_0000);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w << 2) & 0x3FFF_0000_3FFF_0000);
    (w & 0x007F_007F_007F_007F) | ((w << 1) & 0x7F00_7F00_7F00_7F00)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmt::tests::random_line;
    use dolos_sim::rng::XorShift;

    /// The bit-serial codec the word-wise one replaced, kept as the
    /// reference the lockstep test checks against.
    fn reference_to_line(block: &CounterBlock) -> Line {
        let mut out = [0u8; 64];
        out[0..8].copy_from_slice(&block.major.to_le_bytes());
        let mut bit = 0usize;
        for &m in &block.minors {
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

    fn reference_from_line(line: &Line) -> CounterBlock {
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
        CounterBlock { major, minors }
    }

    /// The per-field group loops the shift-and-mask codec replaced: each
    /// minor shifted into (or out of) its group word one field at a time.
    fn per_field_to_line(block: &CounterBlock) -> Line {
        let mut out = [0u8; 64];
        out[0..8].copy_from_slice(&block.major.to_le_bytes());
        let groups = out[8..].chunks_exact_mut(GROUP_BYTES);
        for (bytes, group) in groups.zip(block.minors.chunks_exact(MINORS_PER_GROUP)) {
            let word = group
                .iter()
                .enumerate()
                .fold(0u64, |w, (k, &m)| w | u64::from(m & MINOR_MAX) << (7 * k));
            bytes.copy_from_slice(&word.to_le_bytes()[..GROUP_BYTES]);
        }
        out
    }

    fn per_field_from_line(line: &Line) -> CounterBlock {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&line[0..8]);
        let major = u64::from_le_bytes(major_bytes);
        let mut minors = [0u8; MINORS_PER_BLOCK];
        let groups = line[8..].chunks_exact(GROUP_BYTES);
        for (bytes, group) in groups.zip(minors.chunks_exact_mut(MINORS_PER_GROUP)) {
            let mut word = [0u8; 8];
            word[..GROUP_BYTES].copy_from_slice(bytes);
            let word = u64::from_le_bytes(word);
            for (k, m) in group.iter_mut().enumerate() {
                *m = (word >> (7 * k)) as u8 & MINOR_MAX;
            }
        }
        CounterBlock { major, minors }
    }

    /// The shift-and-mask codec is byte-identical to the per-field loops:
    /// on blocks grown by seeded increments, on blocks past a minor
    /// overflow, on arbitrary 64-byte lines (unused high bits set), and on
    /// raw minor bytes whose top bit the encoder must drop.
    #[test]
    fn codec_matches_the_per_field_loops() {
        let mut rng = XorShift::new(0xC0DE_0036);
        let check = |block: &CounterBlock| {
            let line = block.to_line();
            assert_eq!(line, per_field_to_line(block), "to_line {block:?}");
            assert_eq!(CounterBlock::from_line(&line), per_field_from_line(&line));
        };
        for round in 0..2_000u64 {
            let mut block = CounterBlock::new();
            block.major = rng.next_u64() >> (round % 64);
            for _ in 0..rng.next_below(2_000) {
                block.increment(rng.next_below(64) as usize);
            }
            check(&block);
            // Drive one line through an overflow: every other minor resets.
            let line = rng.next_below(64) as usize;
            let mut overflowed = false;
            while !overflowed {
                overflowed = matches!(block.increment(line), IncrementResult::PageOverflow(_));
            }
            check(&block);
        }
        for _ in 0..50_000 {
            let line = random_line(&mut rng);
            let decoded = CounterBlock::from_line(&line);
            assert_eq!(decoded, per_field_from_line(&line), "from_line {line:?}");
            let mut raw = decoded;
            raw.minors.copy_from_slice(&random_line(&mut rng));
            raw.minors[rng.next_below(64) as usize] |= 0x80;
            assert_eq!(raw.to_line(), per_field_to_line(&raw), "to_line {raw:?}");
        }
    }

    #[test]
    fn codec_matches_the_bit_serial_reference() {
        let mut rng = XorShift::new(0xC0DE_C0DE);
        for _ in 0..100_000 {
            // Decoding: any 64 bytes, including the unused high bits.
            let line = random_line(&mut rng);
            let decoded = CounterBlock::from_line(&line);
            assert_eq!(decoded, reference_from_line(&line), "from_line {line:?}");
            // Encoding: raw bytes as minors, so values above 127 exercise
            // the mask.
            let raw = random_line(&mut rng);
            let mut block = decoded;
            block.minors.copy_from_slice(&raw);
            assert_eq!(
                block.to_line(),
                reference_to_line(&block),
                "to_line {block:?}"
            );
        }
    }

    #[test]
    fn on_nvm_layout_is_pinned() {
        let mut block = CounterBlock::new();
        block.major = 0x0102_0304_0506_0708;
        for (i, m) in block.minors.iter_mut().enumerate() {
            *m = ((i * 37 + 11) % 128) as u8;
        }
        block.minors[0] = MINOR_MAX;
        block.minors[63] = MINOR_MAX;
        #[rustfmt::skip]
        let expected: Line = [
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
            0x7f, 0x58, 0x55, 0xff, 0x21, 0xa6, 0x1d, 0x33,
            0x6c, 0x5f, 0x74, 0x64, 0x47, 0x6c, 0x5b, 0x40,
            0x49, 0xf9, 0xa6, 0xe4, 0xbc, 0x03, 0x54, 0x53,
            0x7e, 0xe1, 0x85, 0x0d, 0x2b, 0x68, 0x5d, 0xf3,
            0x23, 0x27, 0x5c, 0x53, 0x7c, 0x47, 0x78, 0x66,
            0xc4, 0xac, 0x7b, 0x50, 0x51, 0xfd, 0xa0, 0x65,
            0xfd, 0x23, 0x64, 0x5b, 0x72, 0xe3, 0x06, 0xfe,
        ];
        assert_eq!(block.to_line(), expected);
        assert_eq!(reference_to_line(&block), expected);
        assert_eq!(CounterBlock::from_line(&expected), block);
    }

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
