//! Message authentication codes (PMAC over AES-128, 64-bit tags).
//!
//! The paper associates an 8-byte MAC with each protected unit (WPQ entry,
//! BMT node, data line). We compute PMAC (Black & Rogaway, EUROCRYPT 2002)
//! and truncate it to 64 bits. With `L = E_K(0¹²⁸)` and `γ_i` the `i`-th
//! Gray code (`i ⊕ (i >> 1)`), PMAC over blocks `M_1 … M_m` is
//!
//! ```text
//! Σ   = E_K(M_1 ⊕ γ_1·L) ⊕ … ⊕ E_K(M_{m-1} ⊕ γ_{m-1}·L) ⊕ pad(M_m)
//! tag = E_K(Σ ⊕ L·x⁻¹)   if M_m is a full block
//!       E_K(Σ)            otherwise (pad appends 0x80, then zeros)
//! ```
//!
//! in GF(2¹²⁸). The blocks before the last are independent of each other,
//! so their cipher calls (`Aes128::encrypt_sum`) never wait on one another
//! and the core overlaps them; a data MAC waits on two cipher latencies,
//! not on one per block. The offsets are precomputed for blocks 1–64 and
//! stepped past them by the Gray-code rule
//! `γ_i·L = γ_{i-1}·L ⊕ L·x^ntz(i)`, one XOR per block.
//!
//! Every MAC is PMAC over the *encoding* of its input, a byte string with a
//! header of 8-byte little-endian words:
//!
//! * [`MacEngine::tag`]`(m)`: the word `|m|`, eight zero bytes, then `m`;
//! * [`MacEngine::tag_parts`]`([p_1, …, p_n])`: the word `n | 2⁶³`, the
//!   words `|p_1|, …, |p_n|`, zero bytes up to a 16-byte boundary, then
//!   `p_1 ‖ … ‖ p_n`.
//!
//! The header names every length, so each encoding is injective:
//! `["ab", "c"]` and `["a", "bc"]` differ in their length words. Bit 63 of
//! the first word is set only for part lists (no slice length reaches
//! 2⁶³), so a `tag` never collides with a `tag_parts`. The header is
//! block-aligned, so a part that starts on a block boundary in the
//! encoding (the ciphertext of a data MAC) is absorbed straight from its
//! slice.
//!
//! [`MacStream`] is the one general implementation: `tag` and
//! `tag_parts` run it over whole slices, and callers with scattered bytes
//! drive it directly. `tag_parts` over `[8 B, 8 B, 64 B]` (the data, Mi-SU
//! entry and ToC leaf MACs) computes the same PMAC with its fixed header
//! precomputed; a test pins it to the streamer and the specification.

use crate::aes::{Aes128, Block, BLOCK_SIZE};

/// A 64-bit truncated MAC tag.
pub type Mac64 = [u8; 8];

/// Blocks `1..=OFFSETS` take their offset `γ_i·L` from a table; every
/// fixed-format MAC on the persist path (data and entry MACs, BMT parents,
/// ToC nodes) is shorter. Longer messages step their offsets past the
/// table by the Gray-code rule (see [`Cursor`]).
const OFFSETS: usize = 64;

/// Marks the first header word of a part list (see the module docs).
const PARTS_FLAG: u64 = 1 << 63;

/// Multiplication by `x` in GF(2¹²⁸) (PMAC's `dbl`): a block read as a
/// big-endian integer, reduced by `x¹²⁸ + x⁷ + x² + x + 1`.
fn double(a: u128) -> u128 {
    (a << 1) ^ ((a >> 127) * 0x87)
}

/// Multiplication by `x⁻¹` in GF(2¹²⁸), the inverse of [`double`].
fn halve(a: u128) -> u128 {
    (a >> 1) ^ ((a & 1) * ((1 << 127) | 0x43))
}

/// A keyed MAC engine.
///
/// # Examples
///
/// ```
/// use dolos_crypto::mac::MacEngine;
///
/// let mac = MacEngine::new([0x42; 16]);
/// let tag = mac.tag(b"persist me");
/// assert!(mac.verify(b"persist me", &tag));
/// assert!(!mac.verify(b"persist mE", &tag));
/// ```
#[derive(Clone)]
pub struct MacEngine {
    key: Aes128,
    /// `offsets[i - 1]` = `γ_i·L`, the mask of block `i`.
    offsets: [Block; OFFSETS],
    /// `l_pows[j]` = `L·x^j`, as `u128::from_le_bytes` of its bytes: the
    /// step from one offset to the next.
    l_pows: [u128; 64],
    /// `L·x⁻¹`, folded into the final block when it is full (as
    /// `u128::from_le_bytes` of its bytes).
    l_inv: u128,
    /// Σ over the two header blocks of every `[8 B, 8 B, 64 B]` part list
    /// (see [`MacEngine::tag_line`]).
    line_head: u128,
}

/// [`MacEngine`] holds values derived from the key (`L` and its offsets),
/// so its `Debug` is redacted down to the cipher's — same rationale as
/// [`Aes128`]'s manual implementation.
impl core::fmt::Debug for MacEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MacEngine")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

impl MacEngine {
    /// Creates an engine from a 16-byte key.
    pub fn new(key: [u8; 16]) -> Self {
        Self::from_cipher(Aes128::new(&key))
    }

    /// Creates an engine over an expanded key schedule.
    fn from_cipher(key: Aes128) -> Self {
        let l = u128::from_be_bytes(key.encrypt_block(&[0; BLOCK_SIZE]));
        let mut l_pows = [0; 64];
        let mut power = l;
        for slot in &mut l_pows {
            *slot = u128::from_le_bytes(power.to_be_bytes());
            power = double(power);
        }
        let mut engine = Self {
            key,
            offsets: [[0; BLOCK_SIZE]; OFFSETS],
            l_pows,
            l_inv: u128::from_le_bytes(halve(l).to_be_bytes()),
            line_head: 0,
        };
        let mut at = Cursor::START;
        for i in 0..OFFSETS {
            engine.offsets[i] = engine.next_offset(&mut at).to_le_bytes();
        }
        // The header of `[8 B, 8 B, 64 B]`: blocks [3 | flag, 8], [8, 64].
        let head = |i: usize, lo: u64, hi: u64| {
            ((u128::from(hi) << 64) | u128::from(lo)) ^ u128::from_le_bytes(engine.offsets[i])
        };
        let (first, second) = (head(0, 3 | PARTS_FLAG, 8), head(1, 8, 64));
        engine.line_head = engine.key.encrypt_pair(first, Some(second));
        engine
    }

    /// Steps `at` to the next block and returns that block's offset, by
    /// the Gray-code rule `γ_i·L = γ_{i-1}·L ⊕ L·x^ntz(i)`.
    #[inline]
    fn next_offset(&self, at: &mut Cursor) -> u128 {
        at.index += 1;
        at.offset ^= self.l_pows[at.index.trailing_zeros() as usize];
        at.offset
    }

    /// A cursor on block `index`: read from the table, then stepped past it.
    fn cursor_at(&self, index: u64) -> Cursor {
        let mut at = match index.min(OFFSETS as u64).checked_sub(1) {
            Some(i) => Cursor {
                index: i + 1,
                offset: u128::from_le_bytes(self.offsets[i as usize]),
            },
            None => Cursor::START,
        };
        while at.index < index {
            self.next_offset(&mut at);
        }
        at
    }

    /// Computes the 64-bit tag of `message`.
    pub fn tag(&self, message: &[u8]) -> Mac64 {
        let mut s = self.stream_tag(message.len() as u64);
        s.update(message);
        s.end_part();
        s.finish()
    }

    /// Computes a tag over several segments without concatenating them.
    ///
    /// Each segment's length is part of the encoding, so `(["ab", "c"])`
    /// and `(["a", "bc"])` produce different tags.
    pub fn tag_parts(&self, parts: &[&[u8]]) -> Mac64 {
        if let &[a, b, line] = parts {
            if let (Ok(a), Ok(b), Ok(line)) = (
                <&[u8; 8]>::try_from(a),
                <&[u8; 8]>::try_from(b),
                <&[u8; 64]>::try_from(line),
            ) {
                return self.tag_line(a, b, line);
            }
        }
        let mut s = self.streamer(parts.len());
        for part in parts {
            s.part(part);
        }
        s.finish()
    }

    /// [`Self::tag_parts`] over `[a, b, line]`: the shape of the data, the
    /// Mi-SU entry and the ToC leaf MACs, most of the MACs a persist
    /// computes. Its header never changes, so its share of Σ is
    /// precomputed (`line_head`); `a ‖ b` is one block, assembled in
    /// registers, and shares the cipher call of the line's first three
    /// blocks; the line's last block is the final block.
    fn tag_line(&self, a: &[u8; 8], b: &[u8; 8], line: &[u8; 64]) -> Mac64 {
        let (blocks, _) = line.as_chunks::<BLOCK_SIZE>();
        let ab = (u128::from(u64::from_le_bytes(*b)) << 64) | u128::from(u64::from_le_bytes(*a));
        let ab = ab ^ u128::from_le_bytes(self.offsets[2]);
        let body = self
            .key
            .encrypt_sum(&blocks[..3], &self.offsets[3..6], Some(ab));
        let last = u128::from_le_bytes(blocks[3]) ^ self.l_inv;
        let tag = self.key.encrypt_pair(self.line_head ^ body ^ last, None);
        (tag as u64).to_le_bytes()
    }

    /// Verifies `message` against `expected` in constant shape (full compare).
    pub fn verify(&self, message: &[u8], expected: &Mac64) -> bool {
        self.tag(message) == *expected
    }

    /// Starts a streaming computation equivalent to [`Self::tag_parts`] over
    /// `part_count` parts.
    ///
    /// The encoding's header starts with the part count, so a streaming
    /// caller must declare it up front. Feed each part with
    /// [`MacStream::part`] (whole slice) or the
    /// [`MacStream::begin_part`]/[`MacStream::update`]/[`MacStream::end_part`]
    /// triple (scattered bytes), then take the tag with
    /// [`MacStream::finish`]. The result is byte-identical to `tag_parts`
    /// over the same byte sequences — hot paths use this to MAC table-sized
    /// part lists without first collecting them into a `Vec<&[u8]>` or
    /// concatenation buffers.
    pub fn streamer(&self, part_count: usize) -> MacStream<'_> {
        let count = part_count as u64;
        MacStream::new(self, count | PARTS_FLAG, (count + 2) / 2, part_count)
    }

    /// Starts a streaming computation equivalent to [`Self::tag`] over a
    /// message of exactly `message_len` bytes.
    ///
    /// The encoding's header is the total length, so a streaming caller
    /// must declare it up front; feeding a different number of bytes is a
    /// logic error and is asserted. The returned state is already "inside"
    /// the single implicit part: feed bytes with [`MacStream::update`],
    /// then close with [`MacStream::end_part`] and take the tag with
    /// [`MacStream::finish`]. The result is byte-identical to `tag` over
    /// the same byte sequence — hot paths use this to MAC scattered fields
    /// without first concatenating them into a `Vec`.
    pub fn stream_tag(&self, message_len: u64) -> MacStream<'_> {
        let mut s = MacStream::new(self, message_len, 1, 0);
        if message_len > 0 {
            s.seal_header();
        }
        s.in_part = true;
        s.expected = message_len;
        s
    }
}

/// The offset of the last block stepped to (see [`MacEngine::next_offset`]).
#[derive(Clone, Copy)]
struct Cursor {
    /// The block index; `0` before block 1.
    index: u64,
    /// `γ_index·L`, as `u128::from_le_bytes` of its bytes.
    offset: u128,
}

impl Cursor {
    /// Before block 1 (`γ_0 = 0`).
    const START: Self = Self {
        index: 0,
        offset: 0,
    };
}

/// An incremental PMAC over borrowed byte slices.
///
/// Created by [`MacEngine::streamer`] or [`MacEngine::stream_tag`];
/// produces tags byte-identical to [`MacEngine::tag_parts`] or
/// [`MacEngine::tag`] without requiring the parts to be materialized
/// contiguously or collected into a slice-of-slices first. Each declared
/// part may itself be fed as several scattered sub-slices; sub-slice
/// boundaries never affect the tag.
///
/// A run of whole blocks inside one fed slice goes to the cipher straight
/// from the slice, with its offsets straight from the table, in one call.
/// Header and data blocks each step their own offset cursor, one XOR per
/// block, so a message past the table costs no more per block. Header
/// blocks and blocks that straddle two fed slices are assembled in
/// registers and wait, one at a time, to share the next cipher call;
/// reloading them from memory as whole blocks would stall on store
/// forwarding. The last header block waits until data is known to follow,
/// and the last 1–16 data bytes are held back: either may be the final
/// block, which PMAC folds in unencrypted.
///
/// # Examples
///
/// ```
/// use dolos_crypto::mac::MacEngine;
///
/// let mac = MacEngine::new([7u8; 16]);
/// let mut s = mac.streamer(2);
/// s.part(b"first");
/// s.begin_part(6);
/// s.update(b"sec");
/// s.update(b"ond");
/// s.end_part();
/// assert_eq!(s.finish(), mac.tag_parts(&[b"first", b"second"]));
/// ```
pub struct MacStream<'a> {
    engine: &'a MacEngine,
    /// Σ over the blocks already through the cipher, as
    /// `u128::from_le_bytes` of its bytes.
    sum: u128,
    /// A masked block assembled in registers, waiting to share the next
    /// cipher call.
    pending: Option<u128>,
    /// The two words of the header block being filled.
    head: [u64; 2],
    /// Header words written so far.
    head_words: u64,
    /// Header blocks in the encoding. The last stays in `head` until data
    /// is known to follow it: with no data bytes it is the final block.
    head_blocks: u64,
    /// Whether the last header block has been absorbed.
    head_sealed: bool,
    /// The last header block absorbed.
    head_at: Cursor,
    /// The last data block absorbed (data blocks follow the header's).
    data_at: Cursor,
    /// The last data bytes fed: 1–16 of them once any arrive.
    tail: Block,
    tail_len: usize,
    in_part: bool,
    parts_left: usize,
    /// Bytes promised to `begin_part` for the open part.
    expected: u64,
    /// Bytes actually fed via `update` for the open part.
    fed: u64,
}

/// The stream's running sum is key-derived, so only its progress is
/// printed.
impl core::fmt::Debug for MacStream<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MacStream")
            .field("in_part", &self.in_part)
            .field("parts_left", &self.parts_left)
            .finish_non_exhaustive()
    }
}

impl<'a> MacStream<'a> {
    /// A stream whose header starts with `first_word` and spans
    /// `head_blocks` blocks, expecting `parts` parts.
    fn new(engine: &'a MacEngine, first_word: u64, head_blocks: u64, parts: usize) -> Self {
        Self {
            engine,
            sum: 0,
            pending: None,
            head: [first_word, 0],
            head_words: 1,
            head_blocks,
            head_sealed: false,
            head_at: Cursor::START,
            data_at: engine.cursor_at(head_blocks),
            tail: [0; BLOCK_SIZE],
            tail_len: 0,
            in_part: false,
            parts_left: parts,
            expected: 0,
            fed: 0,
        }
    }

    /// Absorbs one whole part.
    pub fn part(&mut self, part: &[u8]) {
        self.claim_part(part.len() as u64);
        self.absorb_data(part);
    }

    /// Counts off one declared part and writes its length word.
    fn claim_part(&mut self, part_len: u64) {
        assert!(!self.in_part, "part started inside an open part");
        assert!(self.parts_left > 0, "more parts fed than declared");
        self.parts_left -= 1;
        self.head[(self.head_words % 2) as usize] = part_len;
        self.head_words += 1;
        let block = self.head_words.div_ceil(2);
        if block < self.head_blocks {
            if self.head_words.is_multiple_of(2) {
                self.absorb_head();
                self.head = [0; 2];
            }
        } else if self.parts_left == 0 && (part_len > 0 || self.tail_len > 0) {
            self.seal_header();
        }
    }

    /// Absorbs the last header block, once data bytes are known to follow
    /// it (so it is not the final block).
    fn seal_header(&mut self) {
        self.absorb_head();
        self.head_sealed = true;
    }

    /// The header block being filled, as `u128::from_le_bytes` of its
    /// bytes (each word little-endian).
    fn head_block(&self) -> u128 {
        (u128::from(self.head[1]) << 64) | u128::from(self.head[0])
    }

    /// Opens a part whose bytes will arrive via [`Self::update`].
    ///
    /// `part_len` must equal the total number of bytes fed before
    /// [`Self::end_part`]; it is part of the encoding (the header), so a
    /// mismatch is a logic error and is asserted.
    pub fn begin_part(&mut self, part_len: u64) {
        self.claim_part(part_len);
        self.in_part = true;
        self.expected = part_len;
        self.fed = 0;
    }

    /// Feeds part bytes; may be called any number of times per part.
    pub fn update(&mut self, bytes: &[u8]) {
        assert!(self.in_part, "update called outside a part");
        self.fed += bytes.len() as u64;
        self.absorb_data(bytes);
    }

    /// Closes the current part.
    pub fn end_part(&mut self) {
        assert!(self.in_part, "end_part called outside a part");
        assert_eq!(
            self.fed, self.expected,
            "part length declared to begin_part does not match bytes fed"
        );
        self.in_part = false;
        self.fed = 0;
        self.expected = 0;
    }

    /// Absorbs the header block being filled: header blocks arrive in
    /// order.
    fn absorb_head(&mut self) {
        let z = self.engine.next_offset(&mut self.head_at);
        self.absorb_masked(self.head_block() ^ z);
    }

    /// Absorbs the next data block, held in registers as
    /// `u128::from_le_bytes` of its bytes.
    fn absorb_data_block(&mut self, block: u128) {
        let z = self.engine.next_offset(&mut self.data_at);
        self.absorb_masked(block ^ z);
    }

    /// A masked block waits in `pending` until another block arrives; the
    /// two share one cipher call.
    fn absorb_masked(&mut self, x: u128) {
        match self.pending.take() {
            Some(p) => self.sum ^= self.engine.key.encrypt_pair(p, Some(x)),
            None => self.pending = Some(x),
        }
    }

    /// Absorbs a run of whole data blocks: the blocks the offset table
    /// reaches in one cipher call, any after them one at a time.
    fn absorb_blocks(&mut self, blocks: &[Block]) {
        let engine = self.engine;
        let start = self.data_at.index as usize;
        let (near, far) = blocks.split_at(OFFSETS.saturating_sub(start).min(blocks.len()));
        let last = near.len().checked_sub(1);
        if let Some(&offset) = last.and_then(|i| engine.offsets.get(start + i)) {
            let masks = &engine.offsets[start..];
            self.sum ^= engine.key.encrypt_sum(near, masks, self.pending.take());
            self.data_at = Cursor {
                index: (start + near.len()) as u64,
                offset: u128::from_le_bytes(offset),
            };
        }
        for block in far {
            self.absorb_data_block(u128::from_le_bytes(*block));
        }
    }

    /// Appends data bytes to the encoding. A block completed by earlier
    /// bytes is absorbed only once more bytes follow it; whole blocks
    /// after that come straight from `bytes`, and the last 1–16 bytes wait
    /// in `tail`.
    fn absorb_data(&mut self, mut bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if self.tail_len > 0 {
            let take = (BLOCK_SIZE - self.tail_len).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(head);
            self.tail_len += take;
            if rest.is_empty() {
                return;
            }
            self.absorb_data_block(u128::from_le_bytes(self.tail));
            bytes = rest;
        }
        let (blocks, _) = bytes[..bytes.len() - 1].as_chunks::<BLOCK_SIZE>();
        self.absorb_blocks(blocks);
        let rest = &bytes[blocks.len() * BLOCK_SIZE..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Returns the 64-bit tag. All declared parts must have been fed.
    pub fn finish(mut self) -> Mac64 {
        assert!(!self.in_part, "finish called inside an open part");
        assert_eq!(self.parts_left, 0, "fewer parts fed than declared");
        let (last, len) = if self.tail_len == 0 {
            (self.head_block(), BLOCK_SIZE)
        } else {
            if !self.head_sealed {
                self.seal_header();
            }
            (u128::from_le_bytes(self.tail), self.tail_len)
        };
        if let Some(p) = self.pending {
            self.sum ^= self.engine.key.encrypt_pair(p, None);
        }
        // A full last block is masked with L·x⁻¹; a short one keeps only
        // its bytes and is padded with 0x80.
        let mask = if len == BLOCK_SIZE {
            self.engine.l_inv
        } else {
            0x80 << (8 * len)
        };
        let kept = u128::MAX >> (8 * (BLOCK_SIZE - len));
        let tag = self
            .engine
            .key
            .encrypt_pair(self.sum ^ (last & kept) ^ mask, None);
        (tag as u64).to_le_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_sim::rng::XorShift;

    fn engine() -> MacEngine {
        MacEngine::new([7u8; 16])
    }

    #[test]
    fn tag_is_deterministic() {
        let m = engine();
        assert_eq!(m.tag(b"hello"), m.tag(b"hello"));
    }

    #[test]
    fn tag_depends_on_message() {
        let m = engine();
        assert_ne!(m.tag(b"hello"), m.tag(b"hellp"));
    }

    #[test]
    fn tag_depends_on_key() {
        let a = MacEngine::new([1u8; 16]);
        let b = MacEngine::new([2u8; 16]);
        assert_ne!(a.tag(b"x"), b.tag(b"x"));
    }

    #[test]
    fn tag_depends_on_length() {
        let m = engine();
        // Same prefix, trailing zero byte vs. absent byte must differ.
        assert_ne!(m.tag(&[0u8; 16]), m.tag(&[0u8; 17]));
        assert_ne!(m.tag(b""), m.tag(&[0u8]));
        // A short last block padded with 0x80 vs. the same bytes written out.
        assert_ne!(
            m.tag(&[1u8; 15]),
            m.tag(&[[1u8; 15].as_slice(), &[0x80]].concat())
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let m = engine();
        let tag = m.tag(b"wpq entry");
        assert!(m.verify(b"wpq entry", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!m.verify(b"wpq entry", &bad));
    }

    /// The encoding is injective over part lists, and `tag` and
    /// `tag_parts` never share an encoding.
    #[test]
    fn tag_parts_is_boundary_sensitive() {
        let m = engine();
        let joined = m.tag_parts(&[b"ab", b"c"]);
        let rejoined = m.tag_parts(&[b"a", b"bc"]);
        assert_ne!(joined, rejoined);
        assert_eq!(m.tag_parts(&[b"ab", b"c"]), joined);
        let tags = [
            joined,
            rejoined,
            m.tag_parts(&[b"abc"]),
            m.tag_parts(&[b"abc", b""]),
            m.tag_parts(&[b"", b"abc"]),
            m.tag(b"abc"),
            m.tag(b""),
            m.tag_parts(&[]),
            m.tag_parts(&[b""]),
            m.tag_parts(&[b"", b""]),
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn empty_message_tags() {
        let m = engine();
        let t = m.tag(b"");
        assert!(m.verify(b"", &t));
        assert_ne!(t, [0u8; 8]);
    }

    /// Multiplication by `x` on a big-endian block, bit by bit.
    fn spec_double(b: Block) -> Block {
        let mut out = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            let carry_in = if i + 1 < BLOCK_SIZE { b[i + 1] >> 7 } else { 0 };
            out[i] = (b[i] << 1) | carry_in;
        }
        if b[0] >> 7 == 1 {
            out[15] ^= 0x87;
        }
        out
    }

    /// Multiplication by `x⁻¹` on a big-endian block, bit by bit.
    fn spec_halve(b: Block) -> Block {
        let mut out = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            let carry_in = if i > 0 { b[i - 1] << 7 } else { 0 };
            out[i] = (b[i] >> 1) | carry_in;
        }
        if b[15] & 1 == 1 {
            out[0] ^= 0x80;
            out[15] ^= 0x43;
        }
        out
    }

    fn spec_xor(a: &mut Block, b: &[u8]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x ^= y;
        }
    }

    /// `γ_i·L` from the definition: the Gray code `i ⊕ (i >> 1)`, read as
    /// a polynomial, times `L`.
    fn spec_offset(l: Block, i: u64) -> Block {
        let gray = i ^ (i >> 1);
        let mut acc = [0u8; BLOCK_SIZE];
        let mut power = l;
        for j in 0..64 {
            if (gray >> j) & 1 == 1 {
                spec_xor(&mut acc, &power);
            }
            power = spec_double(power);
        }
        acc
    }

    /// PMAC (Black & Rogaway 2002) over a non-empty `message`, truncated to
    /// 64 bits, on the byte-oriented reference cipher.
    fn pmac_specification(key_bytes: [u8; 16], message: &[u8]) -> Mac64 {
        let key = Aes128::new(&key_bytes);
        let l = key.encrypt_block_reference(&[0; BLOCK_SIZE]);
        let blocks: Vec<&[u8]> = message.chunks(BLOCK_SIZE).collect();
        let (last, body) = blocks.split_last().expect("non-empty message");
        let mut sum = [0u8; BLOCK_SIZE];
        for (i, block) in (1u64..).zip(body) {
            let mut x = spec_offset(l, i);
            spec_xor(&mut x, block);
            spec_xor(&mut sum, &key.encrypt_block_reference(&x));
        }
        spec_xor(&mut sum, last);
        if last.len() == BLOCK_SIZE {
            spec_xor(&mut sum, &spec_halve(l));
        } else {
            sum[last.len()] ^= 0x80;
        }
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&key.encrypt_block_reference(&sum)[..8]);
        tag
    }

    /// The encoding `tag` runs PMAC over.
    fn encode_tag(message: &[u8]) -> Vec<u8> {
        let mut out = (message.len() as u64).to_le_bytes().to_vec();
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(message);
        out
    }

    /// The encoding `tag_parts` runs PMAC over.
    fn encode_parts(parts: &[&[u8]]) -> Vec<u8> {
        let mut out = (parts.len() as u64 | 1 << 63).to_le_bytes().to_vec();
        for part in parts {
            out.extend_from_slice(&(part.len() as u64).to_le_bytes());
        }
        out.resize(out.len().next_multiple_of(BLOCK_SIZE), 0);
        for part in parts {
            out.extend_from_slice(part);
        }
        out
    }

    /// Feeds `bytes` to an open part in random-sized slices (0 to 40 bytes,
    /// so empty updates, sub-block slices and multi-block runs all occur).
    fn feed_randomly(stream: &mut MacStream<'_>, mut bytes: &[u8], rng: &mut XorShift) {
        loop {
            let take = (rng.next_below(41) as usize).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            stream.update(head);
            bytes = rest;
            if bytes.is_empty() {
                return;
            }
        }
    }

    /// Seeded random shapes against PMAC over the byte-domain encodings,
    /// on every backend: `tag`, `tag_parts`, the streamer at random update
    /// granularities and `stream_tag`. Part counts 0–9 and 60–70 with part
    /// lengths 0–200 give messages of up to 14 KB, far past the offset
    /// table's 64 blocks; a few lists of 128–140 parts put the header
    /// itself past the table.
    #[test]
    fn random_shapes_match_byte_domain_specification_on_every_backend() {
        let mut rng = XorShift::new(0x3ac_c0de_5eed_0028);
        let mut past_table = 0;
        for round in 0..200 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            let count = if round % 40 == 39 {
                128 + rng.next_below(13)
            } else if round % 8 == 7 {
                60 + rng.next_below(11)
            } else {
                rng.next_below(10)
            };
            let parts: Vec<Vec<u8>> = (0..count)
                .map(|_| {
                    let len = rng.next_below(201);
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let message = parts.concat();
            let want_parts = pmac_specification(key, &encode_parts(&refs));
            let want_tag = pmac_specification(key, &encode_tag(&message));
            if message.len() > OFFSETS * BLOCK_SIZE {
                past_table += 1;
            }
            for aes in Aes128::on_each_backend(&key) {
                let m = MacEngine::from_cipher(aes);
                assert_eq!(m.tag(&message), want_tag, "round {round}");
                assert_eq!(m.tag_parts(&refs), want_parts, "round {round}");
                let mut stream = m.streamer(refs.len());
                for part in &refs {
                    if rng.chance(0.5) {
                        stream.part(part);
                    } else {
                        stream.begin_part(part.len() as u64);
                        feed_randomly(&mut stream, part, &mut rng);
                        stream.end_part();
                    }
                }
                assert_eq!(stream.finish(), want_parts, "round {round}");
                let mut stream = m.stream_tag(message.len() as u64);
                feed_randomly(&mut stream, &message, &mut rng);
                stream.end_part();
                assert_eq!(stream.finish(), want_tag, "round {round}");
            }
        }
        assert!(
            past_table >= 20,
            "only {past_table} messages past the table"
        );
    }

    /// Every length from 0 to 80 bytes (each final-block shape around the
    /// header) and a few long ones, on every backend.
    #[test]
    fn tag_matches_byte_domain_specification() {
        let lens = (0..=80usize).chain([128, 200, 1007, 1008, 1009, 4096]);
        for len in lens {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let want = pmac_specification([7u8; 16], &encode_tag(&msg));
            for aes in Aes128::on_each_backend(&[7u8; 16]) {
                let m = MacEngine::from_cipher(aes);
                assert_eq!(m.tag(&msg), want, "len {len}");
            }
        }
    }

    /// The table, a cursor stepped from block 0 and cursors started on
    /// and past the table all equal `γ_i·L` from its definition, and
    /// `L·x⁻¹` undoes one doubling.
    #[test]
    fn offsets_match_the_gray_code_definition() {
        let key = [0x61; 16];
        let m = MacEngine::new(key);
        let l = Aes128::new(&key).encrypt_block_reference(&[0; BLOCK_SIZE]);
        let mut stepped = Cursor::START;
        for i in 1..=300 {
            let want = spec_offset(l, i);
            assert_eq!(m.next_offset(&mut stepped).to_le_bytes(), want, "block {i}");
            assert_eq!(m.cursor_at(i).offset.to_le_bytes(), want, "block {i}");
            if let Some(offset) = m.offsets.get(i as usize - 1) {
                assert_eq!(*offset, want, "block {i}");
            }
        }
        let mut far = m.cursor_at(1 << 20);
        assert_eq!(far.offset.to_le_bytes(), spec_offset(l, 1 << 20));
        let next = m.next_offset(&mut far).to_le_bytes();
        assert_eq!(next, spec_offset(l, (1 << 20) + 1));
        assert_eq!(m.cursor_at(0).offset, 0);
        assert_eq!(m.l_inv.to_le_bytes(), spec_halve(l));
        assert_eq!(spec_double(m.l_inv.to_le_bytes()), l);
    }

    /// `tag_parts` over `[8 B, 8 B, 64 B]` (its precomputed-header path)
    /// equals the streamer and the specification, on every backend.
    #[test]
    fn line_shape_matches_streamer_and_specification() {
        let mut rng = XorShift::new(0x11e_5eed_0028);
        for _ in 0..64 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            let a = rng.next_u64().to_le_bytes();
            let b = rng.next_u64().to_le_bytes();
            let line: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
            let parts: [&[u8]; 3] = [&a, &b, &line];
            let want = pmac_specification(key, &encode_parts(&parts));
            for aes in Aes128::on_each_backend(&key) {
                let m = MacEngine::from_cipher(aes);
                assert_eq!(m.tag_parts(&parts), want);
                let mut stream = m.streamer(3);
                for part in parts {
                    stream.part(part);
                }
                assert_eq!(stream.finish(), want);
            }
        }
    }

    /// Fixed shapes around the data-MAC layout: every backend agrees with
    /// the T-table one. The random-shape test above checks the same entry
    /// points against the byte-domain specification.
    #[test]
    fn part_tags_are_identical_on_every_backend() {
        let engines: Vec<MacEngine> = Aes128::on_each_backend(&[0x9d; 16])
            .into_iter()
            .map(MacEngine::from_cipher)
            .collect();
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for split in [0usize, 1, 8, 16, 64, 130] {
            let parts: [&[u8]; 3] = [&data[..split], b"addr+ctr", &data[split..]];
            let want = engines[0].tag_parts(&parts);
            for m in &engines {
                assert_eq!(m.tag_parts(&parts), want, "split {split}");
                let mut stream = m.streamer(parts.len());
                for part in parts {
                    stream.part(part);
                }
                assert_eq!(stream.finish(), want, "split {split}");
            }
        }
    }

    #[test]
    fn debug_output_redacts_derived_state() {
        // L, its offsets and the stream's running sum are key-derived, so
        // neither Debug may print them.
        let m = engine();
        let printed = format!("{m:?}");
        assert!(printed.contains("redacted"), "got: {printed}");
        assert!(!printed.contains("offsets"), "got: {printed}");
        let mut stream = m.streamer(2);
        stream.part(&[0xAB; 40]);
        let printed = format!("{stream:?}");
        assert!(
            !printed.contains("sum") && !printed.contains("171"),
            "got: {printed}"
        );
    }

    #[test]
    fn streamer_matches_tag_parts_whole_slices() {
        let m = engine();
        let cases: &[&[&[u8]]] = &[
            &[],
            &[b""],
            &[b"a"],
            &[b"ab", b"c"],
            &[b"0123456789abcdef"],
            &[b"0123456789abcdef0", b"", b"xyz"],
            &[&[0u8; 8], &[1u8; 8], &[2u8; 8], &[3u8; 24]],
        ];
        for parts in cases {
            let mut s = m.streamer(parts.len());
            for p in *parts {
                s.part(p);
            }
            assert_eq!(s.finish(), m.tag_parts(parts), "parts {parts:?}");
        }
    }

    #[test]
    fn streamer_is_insensitive_to_update_granularity() {
        let m = engine();
        let data: Vec<u8> = (0..=100u8).collect();
        let expected = m.tag_parts(&[&data, b"tail"]);
        for split in [1usize, 3, 7, 16, 17, 64, 100] {
            let mut s = m.streamer(2);
            s.begin_part(data.len() as u64);
            for chunk in data.chunks(split) {
                s.update(chunk);
            }
            s.end_part();
            s.part(b"tail");
            assert_eq!(s.finish(), expected, "split {split}");
        }
    }

    #[test]
    fn stream_tag_matches_tag() {
        let m = engine();
        for len in [0usize, 1, 7, 15, 16, 17, 63, 64, 65, 128, 200] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let expected = m.tag(&msg);
            for split in [1usize, 3, 7, 16, 17, 64] {
                let mut s = m.stream_tag(len as u64);
                for chunk in msg.chunks(split) {
                    s.update(chunk);
                }
                s.end_part();
                assert_eq!(s.finish(), expected, "len {len} split {split}");
            }
            // Single-shot feed (a no-op update loop for the empty message).
            let mut s = m.stream_tag(len as u64);
            s.update(&msg);
            s.end_part();
            assert_eq!(s.finish(), expected, "len {len} whole");
        }
    }

    #[test]
    #[should_panic(expected = "does not match bytes fed")]
    fn stream_tag_rejects_length_mismatch() {
        let m = engine();
        let mut s = m.stream_tag(4);
        s.update(b"12345");
        s.end_part();
    }

    #[test]
    #[should_panic(expected = "does not match bytes fed")]
    fn streamer_rejects_length_mismatch() {
        let m = engine();
        let mut s = m.streamer(1);
        s.begin_part(5);
        s.update(b"only4");
        s.update(b"!");
        // 6 bytes fed against 5 declared.
        s.end_part();
    }

    #[test]
    #[should_panic(expected = "fewer parts fed than declared")]
    fn streamer_rejects_missing_parts() {
        let m = engine();
        let mut s = m.streamer(2);
        s.part(b"only one");
        let _ = s.finish();
    }
}
