//! Message authentication codes (AES-CBC-MAC, 64-bit tags).
//!
//! The paper associates an 8-byte MAC with each protected unit (WPQ entry,
//! BMT node, data line). We implement a length-prefixed AES-CBC-MAC and
//! truncate to 64 bits. Length prefixing closes the classic CBC-MAC
//! length-extension weakness for variable-length messages; all MACed objects
//! in this workspace additionally have fixed formats per call site.
//!
//! Every tag here is one chain through `Aes128::cbc_chain`: [`MacEngine::tag`],
//! [`MacEngine::tag_parts`] and each [`CbcMac`] step hand whole runs of
//! blocks to the cipher, which on AES-NI absorbs them in a single call. The
//! only chaining loop is the cipher's; this module owns the construction
//! (length prefixes, the cached initial states, truncation).

use crate::aes::{Aes128, BLOCK_SIZE};

/// A 64-bit truncated MAC tag.
pub type Mac64 = [u8; 8];

/// The CBC state in the cipher's word representation (see
/// [`crate::aes::words_from_bytes`]). Chaining in this domain skips the
/// byte↔word packing on every cipher call; the packing is a bijection, so
/// tags stay byte-identical to the byte-domain formulation.
type StateWords = [u32; 4];

/// Absorbs the length block of `n` (`n` little-endian in bytes 0..8, zeros
/// after): the 8-byte chunk zero-padded by the chain.
#[inline]
fn absorb_len(key: &Aes128, state: StateWords, n: u64) -> StateWords {
    key.cbc_chain(state, &[&n.to_le_bytes()], false)
}

/// Truncates the final state to the 64-bit tag (state bytes 0..8).
#[inline]
fn truncate_tag(state: &StateWords) -> Mac64 {
    let mut tag = [0u8; 8];
    tag[0..4].copy_from_slice(&state[0].to_be_bytes());
    tag[4..8].copy_from_slice(&state[1].to_be_bytes());
    tag
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
    /// `enc_K(len_block(n))` for `n < INIT_CACHE`: the first cipher block of
    /// every tag depends only on the message length (or part count), and the
    /// hot call sites use a handful of small constants (64-byte lines,
    /// 8-child BMT nodes, 3-part data MACs). Caching the encrypted prefix
    /// saves one serial AES call per MAC — 20% of a line tag's cipher work.
    init: [StateWords; INIT_CACHE],
}

/// Cached initial states cover lengths/part counts `0..=64`: every
/// fixed-format MAC in the workspace (line tags, BMT parents, WPQ entries)
/// lands in this range, and larger values fall back to computing the prefix.
const INIT_CACHE: usize = 65;

/// [`MacEngine`] holds values derived from the key (the cached initial
/// states are themselves valid tags of empty part lists), so its `Debug` is
/// redacted down to the cipher's — same rationale as [`Aes128`]'s manual
/// implementation.
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
        let mut init = [[0u32; 4]; INIT_CACHE];
        for (n, state) in init.iter_mut().enumerate() {
            *state = absorb_len(&key, [0; 4], n as u64);
        }
        Self { key, init }
    }

    /// The CBC state after absorbing the length-prefix block for `n`.
    #[inline]
    fn initial_state(&self, n: u64) -> StateWords {
        if let Some(state) = self.init.get(n as usize) {
            *state
        } else {
            absorb_len(&self.key, [0; 4], n)
        }
    }

    /// Computes the 64-bit tag of `message`.
    pub fn tag(&self, message: &[u8]) -> Mac64 {
        // Length prefix block (cached for small lengths), then the message.
        let state = self.initial_state(message.len() as u64);
        truncate_tag(&self.key.cbc_chain(state, &[message], false))
    }

    /// Computes a tag over several segments without concatenating them.
    ///
    /// Equivalent to `tag` over the segments joined in order, with each
    /// segment's length folded in, so `(["ab", "c"])` and `(["a", "bc"])`
    /// produce different tags.
    pub fn tag_parts(&self, parts: &[&[u8]]) -> Mac64 {
        let state = self.initial_state(parts.len() as u64);
        truncate_tag(&self.key.cbc_chain(state, parts, true))
    }

    /// Verifies `message` against `expected` in constant shape (full compare).
    pub fn verify(&self, message: &[u8], expected: &Mac64) -> bool {
        self.tag(message) == *expected
    }

    /// Starts a streaming computation equivalent to [`Self::tag_parts`] over
    /// `part_count` parts.
    ///
    /// `tag_parts` folds the part count into the first cipher block, so a
    /// streaming caller must declare it up front. Feed each part with
    /// [`CbcMac::part`] (whole slice) or the
    /// [`CbcMac::begin_part`]/[`CbcMac::update`]/[`CbcMac::end_part`] triple
    /// (scattered bytes), then take the tag with [`CbcMac::finish`]. The
    /// result is byte-identical to `tag_parts` over the same byte
    /// sequences — hot paths use this to MAC table-sized part lists without
    /// first collecting them into a `Vec<&[u8]>` or concatenation buffers.
    pub fn streamer(&self, part_count: usize) -> CbcMac<'_> {
        CbcMac {
            key: &self.key,
            state: self.initial_state(part_count as u64),
            buf: [0u8; BLOCK_SIZE],
            buf_len: 0,
            in_part: false,
            parts_left: part_count,
            expected: 0,
            fed: 0,
        }
    }

    /// Starts a streaming computation equivalent to [`Self::tag`] over a
    /// message of exactly `message_len` bytes.
    ///
    /// `tag` folds the total length into its first cipher block, so a
    /// streaming caller must declare it up front; feeding a different
    /// number of bytes is a logic error and is asserted. The returned
    /// state is already "inside" the single implicit part: feed bytes with
    /// [`CbcMac::update`], then close with [`CbcMac::end_part`] and take
    /// the tag with [`CbcMac::finish`]. The result is byte-identical to
    /// `tag` over the same byte sequence — hot paths use this to MAC
    /// scattered fields without first concatenating them into a `Vec`.
    ///
    /// Unlike [`Self::streamer`]/[`Self::tag_parts`], no per-part length
    /// block is absorbed — the chaining exactly mirrors `tag`'s, so the
    /// two formulations stay interchangeable per call site, never mixed.
    pub fn stream_tag(&self, message_len: u64) -> CbcMac<'_> {
        CbcMac {
            key: &self.key,
            state: self.initial_state(message_len),
            buf: [0u8; BLOCK_SIZE],
            buf_len: 0,
            in_part: true,
            parts_left: 0,
            expected: message_len,
            fed: 0,
        }
    }
}

/// An incremental CBC-MAC over borrowed byte slices.
///
/// Created by [`MacEngine::streamer`]; produces tags byte-identical to
/// [`MacEngine::tag_parts`] without requiring the parts to be materialized
/// contiguously or collected into a slice-of-slices first. Each declared
/// part may itself be fed as several scattered sub-slices; the internal
/// 16-byte buffer reproduces `tag_parts`' chunking exactly, so sub-slice
/// boundaries never affect the tag.
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
#[derive(Debug)]
pub struct CbcMac<'a> {
    key: &'a Aes128,
    state: StateWords,
    buf: [u8; BLOCK_SIZE],
    buf_len: usize,
    in_part: bool,
    parts_left: usize,
    /// Bytes promised to `begin_part` for the open part.
    expected: u64,
    /// Bytes actually fed via `update` for the open part.
    fed: u64,
}

impl CbcMac<'_> {
    /// Absorbs one whole part.
    pub fn part(&mut self, part: &[u8]) {
        self.claim_part();
        self.state = self.key.cbc_chain(self.state, &[part], true);
    }

    /// Counts off one declared part.
    fn claim_part(&mut self) {
        assert!(!self.in_part, "part started inside an open part");
        assert!(self.parts_left > 0, "more parts fed than declared");
        self.parts_left -= 1;
    }

    /// Opens a part whose bytes will arrive via [`Self::update`].
    ///
    /// `part_len` must equal the total number of bytes fed before
    /// [`Self::end_part`]; it is folded into the MAC (the length block), so
    /// a mismatch is a logic error and is asserted.
    pub fn begin_part(&mut self, part_len: u64) {
        self.claim_part();
        self.in_part = true;
        self.buf_len = 0;
        self.expected = part_len;
        self.fed = 0;
        self.state = absorb_len(self.key, self.state, part_len);
    }

    /// Feeds part bytes; may be called any number of times per part.
    ///
    /// Bytes completing a buffered chunk flush it; the whole blocks after
    /// that go to the cipher as one chain, and only the tail is buffered.
    pub fn update(&mut self, mut bytes: &[u8]) {
        assert!(self.in_part, "update called outside a part");
        self.fed += bytes.len() as u64;
        if self.buf_len > 0 {
            let take = (BLOCK_SIZE - self.buf_len).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(head);
            self.buf_len += take;
            bytes = rest;
            if self.buf_len < BLOCK_SIZE {
                return;
            }
            self.state = self.key.cbc_chain(self.state, &[&self.buf], false);
            self.buf_len = 0;
        }
        let (blocks, tail) = bytes.split_at(bytes.len() - bytes.len() % BLOCK_SIZE);
        if !blocks.is_empty() {
            self.state = self.key.cbc_chain(self.state, &[blocks], false);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Closes the current part, flushing any partial chunk.
    pub fn end_part(&mut self) {
        assert!(self.in_part, "end_part called outside a part");
        assert_eq!(
            self.fed, self.expected,
            "part length declared to begin_part does not match bytes fed"
        );
        if self.buf_len > 0 {
            let tail = &self.buf[..self.buf_len];
            self.state = self.key.cbc_chain(self.state, &[tail], false);
            self.buf_len = 0;
        }
        self.in_part = false;
        self.fed = 0;
        self.expected = 0;
    }

    /// Returns the 64-bit tag. All declared parts must have been fed.
    pub fn finish(self) -> Mac64 {
        assert!(!self.in_part, "finish called inside an open part");
        assert_eq!(self.parts_left, 0, "fewer parts fed than declared");
        truncate_tag(&self.state)
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

    #[test]
    fn tag_parts_is_boundary_sensitive() {
        let m = engine();
        let joined = m.tag_parts(&[b"ab", b"c"]);
        let rejoined = m.tag_parts(&[b"a", b"bc"]);
        assert_ne!(joined, rejoined);
        assert_eq!(m.tag_parts(&[b"ab", b"c"]), joined);
    }

    #[test]
    fn empty_message_tags() {
        let m = engine();
        let t = m.tag(b"");
        assert!(m.verify(b"", &t));
        assert_ne!(t, [0u8; 8]);
    }

    /// The byte-domain specification of `tag`, reimplemented over the public
    /// cipher API: length-prefix block, then XOR-encrypt each 16-byte chunk.
    /// Pins the word-domain chaining and the initial-state cache (lengths on
    /// both sides of the cache boundary) to the original formulation.
    fn tag_specification(key_bytes: [u8; 16], msg: &[u8]) -> Mac64 {
        let key = Aes128::new(&key_bytes);
        let mut state = [0u8; BLOCK_SIZE];
        state[0..8].copy_from_slice(&(msg.len() as u64).to_le_bytes());
        state = key.encrypt_block_reference(&state);
        for chunk in msg.chunks(BLOCK_SIZE) {
            for (s, c) in state.iter_mut().zip(chunk.iter()) {
                *s ^= c;
            }
            state = key.encrypt_block_reference(&state);
        }
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&state[0..8]);
        tag
    }

    /// The byte-domain specification of `tag_parts`: a length-prefix block
    /// of the part count, then per part a length block followed by its
    /// zero-padded 16-byte chunks.
    fn tag_parts_specification(key_bytes: [u8; 16], parts: &[&[u8]]) -> Mac64 {
        let key = Aes128::new(&key_bytes);
        let mut state = [0u8; BLOCK_SIZE];
        let mut absorb = |chunk: &[u8]| {
            for (s, c) in state.iter_mut().zip(chunk.iter()) {
                *s ^= c;
            }
            state = key.encrypt_block_reference(&state);
        };
        absorb(&(parts.len() as u64).to_le_bytes());
        for part in parts {
            absorb(&(part.len() as u64).to_le_bytes());
            for chunk in part.chunks(BLOCK_SIZE) {
                absorb(chunk);
            }
        }
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&state[0..8]);
        tag
    }

    /// Feeds `bytes` to an open part in random-sized slices (0 to 40 bytes,
    /// so empty updates, sub-block slices and multi-block runs all occur).
    fn feed_randomly(stream: &mut CbcMac<'_>, mut bytes: &[u8], rng: &mut XorShift) {
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

    /// Seeded random shapes against the byte-domain specifications, on
    /// every backend: `tag`, `tag_parts`, the streamer at random update
    /// granularities and `stream_tag`. Part counts 0–9 and 60–70 and
    /// message lengths up to 720 bytes fall on both sides of the
    /// initial-state cache.
    #[test]
    fn random_shapes_match_byte_domain_specification_on_every_backend() {
        let mut rng = XorShift::new(0x3ac_c0de_5eed_0023);
        for round in 0..300 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            let (count, max_len) = if round % 8 == 7 {
                (60 + rng.next_below(11), 8)
            } else {
                (rng.next_below(10), 80)
            };
            let parts: Vec<Vec<u8>> = (0..count)
                .map(|_| {
                    let len = rng.next_below(max_len + 1);
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let message = parts.concat();
            let want_parts = tag_parts_specification(key, &refs);
            let want_tag = tag_specification(key, &message);
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
    }

    #[test]
    fn tag_matches_byte_domain_specification() {
        for aes in Aes128::on_each_backend(&[7u8; 16]) {
            let m = MacEngine::from_cipher(aes);
            for len in [0usize, 1, 7, 15, 16, 17, 63, 64, 65, 128, 200] {
                let msg: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
                assert_eq!(m.tag(&msg), tag_specification([7u8; 16], &msg), "len {len}");
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
        // The cached initial states are key-derived (each is a valid tag of
        // an empty part list), so MacEngine's Debug must not print them.
        let printed = format!("{:?}", engine());
        assert!(printed.contains("redacted"), "got: {printed}");
        assert!(!printed.contains("init"), "got: {printed}");
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
