//! Counter-mode encryption pads with the paper's IV layout.
//!
//! Figure 2 of the paper defines the initialization vector as
//! `Page ID ‖ Page Offset ‖ Counter ‖ Padding`. Encrypting successive IVs
//! (one per 16-byte AES block within the cacheline) produces a one-time pad
//! that is XORed with the plaintext. Because the pad depends only on
//! (address, counter), it can be generated before the data arrives — the
//! property both the Ma-SU decryption-latency hiding and the Mi-SU
//! boot-time pre-generation rely on.

use crate::aes::{Aes128, BLOCK_SIZE};

/// Bytes per 4 KiB page (64 cachelines of 64 B).
const PAGE_SIZE: u64 = 4096;

/// The initialization vector for one cacheline encryption.
///
/// Split-counter schemes form the IV from the page ID, the cacheline's
/// offset within the page, and the (major, minor) encryption counter. The
/// Mi-SU reuses the same layout with a synthetic "address" equal to the WPQ
/// slot index and the persistent counter register as the counter.
///
/// # Examples
///
/// ```
/// use dolos_crypto::ctr::IvBuilder;
///
/// let iv = IvBuilder::new().address(0x1040).counter(3).build();
/// let same = IvBuilder::new().address(0x1040).counter(3).build();
/// let other = IvBuilder::new().address(0x1040).counter(4).build();
/// assert_eq!(iv, same);
/// assert_ne!(iv, other);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Iv {
    page_id: u64,
    page_offset: u16,
    counter: u64,
}

impl Iv {
    /// The page ID field.
    pub fn page_id(&self) -> u64 {
        self.page_id
    }

    /// The page-offset field (cacheline index within the page).
    pub fn page_offset(&self) -> u16 {
        self.page_offset
    }

    /// The counter field.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The IV of block 0 as `u128::from_le_bytes` of its bytes, the form
    /// [`Aes128::ctr4`] takes. Block `i` of a pad sets the block-index
    /// byte to `i`, so each 16-byte slice of a cacheline gets a distinct
    /// IV.
    ///
    /// Layout (little-endian fields):
    ///
    /// ```text
    /// byte  0..5   page ID (low 40 bits; 4 KiB pages cover 2^52 B)
    /// byte  5..7   page offset (cacheline index within the page)
    /// byte  7      block index within the cacheline
    /// byte  8..16  counter, all 64 bits
    /// ```
    ///
    /// The counter field carries the full `u64`: a truncated counter would
    /// reuse a pad once the increment stream crosses the truncation
    /// boundary, which is exactly the one-time-pad violation counter-mode
    /// must never permit. The page-ID field is the one deliberately
    /// narrowed — its 40 bits still address 2^52 bytes of 4 KiB pages,
    /// far beyond any configuration the simulator models.
    ///
    /// The value is built from the fields in registers: an IV written one
    /// byte field at a time and reloaded whole would stall on store
    /// forwarding on every pad.
    fn block0(self) -> u128 {
        (u128::from(self.counter) << 64)
            | (u128::from(self.page_offset) << 40)
            | u128::from(self.page_id & ((1 << 40) - 1))
    }
}

/// Builder for [`Iv`] values.
///
/// Either set the fields directly or derive page ID and offset from a byte
/// address with [`IvBuilder::address`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IvBuilder {
    page_id: u64,
    page_offset: u16,
    counter: u64,
}

impl IvBuilder {
    /// Creates a builder with all-zero fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives page ID and page offset from a byte address.
    pub fn address(mut self, addr: u64) -> Self {
        self.page_id = addr / PAGE_SIZE;
        self.page_offset = ((addr % PAGE_SIZE) / 64) as u16;
        self
    }

    /// Sets the page ID directly.
    pub fn page_id(mut self, id: u64) -> Self {
        self.page_id = id;
        self
    }

    /// Sets the page offset (cacheline index within the page) directly.
    pub fn page_offset(mut self, offset: u16) -> Self {
        self.page_offset = offset;
        self
    }

    /// Sets the counter field.
    pub fn counter(mut self, counter: u64) -> Self {
        self.counter = counter;
        self
    }

    /// Builds the IV.
    pub fn build(self) -> Iv {
        Iv {
            page_id: self.page_id,
            page_offset: self.page_offset,
            counter: self.counter,
        }
    }
}

/// Bytes per cacheline, the unit every hot-path pad covers.
pub const LINE_SIZE: usize = 64;

/// The largest pad a single IV can produce: the block-index field of the IV
/// is one byte, so indices 0..=255 are the only distinct per-block IVs.
/// Asking for more would wrap the index and *reuse pad material* — a
/// one-time-pad violation, the same bug class as counter truncation.
pub const MAX_PAD_BYTES: usize = 256 * BLOCK_SIZE;

/// Generates a 64-byte cacheline pad for the given IV without allocating.
///
/// This is the hot path: every simulated line encryption, decryption and
/// recovery probe funnels through here, so the pad is one
/// [`Aes128::ctr4`] call straight into a stack array instead of a `Vec`.
/// Byte-identical to `generate_pad(key, iv, 64)`.
///
/// # Examples
///
/// ```
/// use dolos_crypto::{aes::Aes128, ctr::{generate_pad, pad_line, IvBuilder}};
///
/// let key = Aes128::new(&[1u8; 16]);
/// let iv = IvBuilder::new().address(0x1040).counter(7).build();
/// assert_eq!(pad_line(&key, &iv).to_vec(), generate_pad(&key, &iv, 64));
/// ```
pub fn pad_line(key: &Aes128, iv: &Iv) -> [u8; LINE_SIZE] {
    let mut pad = [0u8; LINE_SIZE];
    key.ctr4(iv.block0(), &mut pad);
    pad
}

/// Fills `pad` with encryption pad bytes for the given IV.
///
/// The caller supplies the buffer, so steady-state users (e.g. the Mi-SU's
/// pre-generated pad slots) can regenerate in place with zero allocation.
/// Each whole 64 bytes is one [`Aes128::ctr4`] call straight into `pad`; a
/// final partial chunk, if any, is produced into a stack line and copied,
/// so `pad` may be any length up to [`MAX_PAD_BYTES`].
///
/// # Panics
///
/// Panics if `pad.len()` exceeds [`MAX_PAD_BYTES`]: the IV's block-index
/// field is a single byte, and silently wrapping it would reuse pad
/// material across 4 KiB boundaries. The check is kept in release builds
/// too (same convention as [`xor_in_place`]): pad reuse is a silent
/// security failure, not a recoverable condition.
pub fn pad_into(key: &Aes128, iv: &Iv, pad: &mut [u8]) {
    assert!(
        pad.len() <= MAX_PAD_BYTES,
        "pad length {} exceeds the {} bytes one IV can generate (block index is u8)",
        pad.len(),
        MAX_PAD_BYTES
    );
    let block0 = iv.block0();
    // Chunk `q` starts at block index 4q (at most 252), so its blocks are
    // the IV with index byte 4q..4q + 4.
    for (q, chunk) in (0u128..).zip(pad.chunks_mut(LINE_SIZE)) {
        let iv = block0 | (4 * q) << 56;
        match chunk.try_into() {
            Ok(line) => key.ctr4(iv, line),
            Err(_) => {
                let mut line = [0u8; LINE_SIZE];
                key.ctr4(iv, &mut line);
                chunk.copy_from_slice(&line[..chunk.len()]);
            }
        }
    }
}

/// Generates a `len`-byte encryption pad for the given IV.
///
/// `len` is rounded up internally to a multiple of the AES block size but the
/// returned pad is exactly `len` bytes. Prefer [`pad_line`] (stack array) or
/// [`pad_into`] (caller-owned buffer) on hot paths; this convenience wrapper
/// allocates.
///
/// # Panics
///
/// Panics if `len` exceeds [`MAX_PAD_BYTES`]; see [`pad_into`].
///
/// # Examples
///
/// ```
/// use dolos_crypto::{aes::Aes128, ctr::{generate_pad, IvBuilder}};
///
/// let key = Aes128::new(&[1u8; 16]);
/// let iv = IvBuilder::new().address(0).counter(1).build();
/// let pad = generate_pad(&key, &iv, 64);
/// let other = generate_pad(&key, &IvBuilder::new().address(0).counter(2).build(), 64);
/// assert_ne!(pad, other); // counter bump changes the whole pad
/// ```
pub fn generate_pad(key: &Aes128, iv: &Iv, len: usize) -> Vec<u8> {
    let mut pad = vec![0u8; len];
    pad_into(key, iv, &mut pad);
    pad
}

/// XORs `data` in place with `pad`.
///
/// Applying the same pad twice restores the original data, so this single
/// function is both the encryption and the decryption primitive.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_in_place(data: &mut [u8], pad: &[u8]) {
    assert_eq!(data.len(), pad.len(), "pad length mismatch");
    for (d, p) in data.iter_mut().zip(pad.iter()) {
        *d ^= p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Block;

    fn key() -> Aes128 {
        Aes128::new(&[0xA5; 16])
    }

    /// The IV of block `block_index`, written byte field by byte field
    /// from the layout table on [`Iv::block0`]: the specification the
    /// register-built IV is checked against.
    fn reference_block(iv: &Iv, block_index: u8) -> Block {
        let mut block = [0u8; BLOCK_SIZE];
        block[0..5].copy_from_slice(&iv.page_id().to_le_bytes()[0..5]);
        block[5..7].copy_from_slice(&iv.page_offset().to_le_bytes());
        block[7] = block_index;
        block[8..16].copy_from_slice(&iv.counter().to_le_bytes());
        block
    }

    /// Every backend produces the pad the reference cipher specifies: block
    /// `i` is the encryption of the IV with block index `i`. Both pad entry
    /// points reach the cipher only through `Aes128::ctr4`.
    #[test]
    fn pads_match_reference_on_every_backend() {
        for aes in Aes128::on_each_backend(&[0x6e; 16]) {
            for (page, offset, counter) in [
                (0u64, 0u16, 0u64),
                (1, 1, 1),
                (256, 0, 255),
                (0, 1, u64::MAX),
                ((1 << 40) - 1, 63, 1 << 63),
                (u64::MAX, u16::MAX, 0x0123_4567_89ab_cdef),
            ] {
                let iv = IvBuilder::new()
                    .page_id(page)
                    .page_offset(offset)
                    .counter(counter)
                    .build();
                let mut want = Vec::with_capacity(MAX_PAD_BYTES);
                for i in 0..=255u8 {
                    want.extend_from_slice(&aes.encrypt_block_reference(&reference_block(&iv, i)));
                }
                assert_eq!(pad_line(&aes, &iv), want[..LINE_SIZE]);
                for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 200, MAX_PAD_BYTES] {
                    let mut pad = vec![0xAB; len];
                    pad_into(&aes, &iv, &mut pad);
                    assert_eq!(pad, want[..len], "{iv:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn pad_is_deterministic_for_same_iv() {
        let iv = IvBuilder::new().address(4096).counter(9).build();
        assert_eq!(generate_pad(&key(), &iv, 64), generate_pad(&key(), &iv, 64));
    }

    #[test]
    fn pad_differs_per_block_within_line() {
        let iv = IvBuilder::new().address(0).counter(1).build();
        let pad = generate_pad(&key(), &iv, 64);
        assert_ne!(pad[0..16], pad[16..32]);
    }

    #[test]
    fn address_fields_decompose_correctly() {
        let iv = IvBuilder::new().address(2 * 4096 + 3 * 64).build();
        assert_eq!(iv.page_id(), 2);
        assert_eq!(iv.page_offset(), 3);
    }

    #[test]
    fn spatial_uniqueness_same_counter() {
        let a = generate_pad(&key(), &IvBuilder::new().address(0).counter(5).build(), 64);
        let b = generate_pad(&key(), &IvBuilder::new().address(64).counter(5).build(), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn temporal_uniqueness_same_address() {
        let a = generate_pad(&key(), &IvBuilder::new().address(64).counter(5).build(), 64);
        let b = generate_pad(&key(), &IvBuilder::new().address(64).counter(6).build(), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn xor_round_trips() {
        let iv = IvBuilder::new().address(128).counter(2).build();
        let pad = generate_pad(&key(), &iv, 64);
        let original: Vec<u8> = (0..64u8).collect();
        let mut data = original.clone();
        xor_in_place(&mut data, &pad);
        assert_ne!(data, original);
        xor_in_place(&mut data, &pad);
        assert_eq!(data, original);
    }

    #[test]
    fn odd_length_pads() {
        let iv = IvBuilder::new().counter(1).build();
        assert_eq!(generate_pad(&key(), &iv, 72).len(), 72);
        assert_eq!(generate_pad(&key(), &iv, 1).len(), 1);
        assert_eq!(generate_pad(&key(), &iv, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "pad length")]
    fn xor_length_mismatch_panics() {
        let mut d = [0u8; 4];
        xor_in_place(&mut d, &[0u8; 5]);
    }

    #[test]
    fn pad_line_matches_generate_pad() {
        let iv = IvBuilder::new()
            .address(3 * 4096 + 7 * 64)
            .counter(42)
            .build();
        assert_eq!(
            pad_line(&key(), &iv).to_vec(),
            generate_pad(&key(), &iv, 64)
        );
    }

    #[test]
    fn pad_into_matches_generate_pad_including_partial_tail() {
        let iv = IvBuilder::new().address(4096).counter(11).build();
        for len in [0, 1, 15, 16, 17, 63, 64, 72, 4096] {
            let mut buf = vec![0xEE; len];
            pad_into(&key(), &iv, &mut buf);
            assert_eq!(buf, generate_pad(&key(), &iv, len), "len {len}");
        }
    }

    #[test]
    fn max_pad_is_exactly_one_page() {
        // 256 blocks of 16 bytes = one 4 KiB page; the last block uses
        // index 255 and no wraparound occurs.
        let iv = IvBuilder::new().counter(1).build();
        let pad = generate_pad(&key(), &iv, MAX_PAD_BYTES);
        assert_eq!(pad.len(), MAX_PAD_BYTES);
        // The final block differs from the first: distinct block indices.
        assert_ne!(pad[..16], pad[MAX_PAD_BYTES - 16..]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn pad_beyond_block_index_range_panics() {
        let iv = IvBuilder::new().counter(1).build();
        let _ = generate_pad(&key(), &iv, MAX_PAD_BYTES + 1);
    }
}
