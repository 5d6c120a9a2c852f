//! The AES-NI backend of [`super::Aes128`]: the crate's only `unsafe` code.
//!
//! Compiled on `x86_64` only. Every function here computes exactly what
//! the T-table path in `aes.rs` computes. The word-domain functions (4
//! big-endian column words in, 4 out) byte-swap the state into the
//! cipher's byte order with one `pshufb`, run it through
//! `aesenc`/`aesenclast` with the byte-order round keys of the shared
//! schedule, and swap it back. The lockstep tests in `aes.rs` and `mac.rs`
//! pin this equivalence on every host that has the instructions.
//!
//! [`Ni::encrypt_sum`] and [`Ni::encrypt_pair`] run PMAC's independent
//! blocks one `encrypt_state` after another with the 11 round keys loaded
//! once per call. No block waits on another's result, so the out-of-order
//! core overlaps their `aesenc` chains without explicit interleaving.
//! `encrypt_sum` loads block bytes straight from memory: a 16-byte load of
//! block bytes is already in the cipher's byte order, so it needs no swap.
//! `encrypt_pair` takes one or two blocks as `u128`s and moves them in and
//! out through 64-bit halves.
//!
//! Soundness rests on one type: [`Ni`] is a zero-sized proof that the CPU
//! supports AES-NI and SSSE3, and [`Ni::detect`] is its only constructor.
//! The `#[target_feature]` functions are reachable only through methods
//! taking that proof.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_loadu_si128,
    _mm_set_epi64x, _mm_setr_epi32, _mm_setr_epi8, _mm_setzero_si128, _mm_shuffle_epi8,
    _mm_storeu_si128, _mm_unpackhi_epi64, _mm_xor_si128,
};

use super::Block;

/// Proof that the running CPU executes AES-NI and SSSE3 instructions.
#[derive(Clone, Copy)]
pub(super) struct Ni(());

impl Ni {
    /// Returns the proof when the CPU reports both features, else `None`.
    pub(super) fn detect() -> Option<Self> {
        (std::is_x86_feature_detected!("aes") && std::is_x86_feature_detected!("ssse3"))
            .then_some(Ni(()))
    }

    /// One block; see [`super::Aes128::encrypt_words`].
    #[inline]
    pub(super) fn encrypt_words(self, round_keys: &[Block; 11], w: [u32; 4]) -> [u32; 4] {
        // SAFETY: `self` exists only if `detect` found AES-NI and SSSE3 on
        // this CPU, the two features `encrypt1` is compiled for.
        unsafe { encrypt1(round_keys, w) }
    }

    /// Four independent blocks; see [`super::Aes128::encrypt_words4`].
    #[inline]
    pub(super) fn encrypt_words4(
        self,
        round_keys: &[Block; 11],
        blocks: [[u32; 4]; 4],
    ) -> [[u32; 4]; 4] {
        // SAFETY: as in `encrypt_words`; `encrypt4` needs the same features.
        unsafe { encrypt4(round_keys, blocks) }
    }

    /// `⊕ E_K(b_i ⊕ z_i)` over blocks and masks; see
    /// [`super::Aes128::encrypt_sum`].
    #[inline]
    pub(super) fn encrypt_sum(
        self,
        round_keys: &[Block; 11],
        blocks: &[Block],
        masks: &[Block],
        extra: Option<u128>,
    ) -> u128 {
        // SAFETY: as in `encrypt_words`; `sum` needs the same features.
        unsafe { sum(round_keys, blocks, masks, extra) }
    }

    /// One or two blocks held in registers; see
    /// [`super::Aes128::encrypt_pair`].
    #[inline]
    pub(super) fn encrypt_pair(self, round_keys: &[Block; 11], x: u128, y: Option<u128>) -> u128 {
        // SAFETY: as in `encrypt_words`; `pair` needs the same features.
        unsafe { pair(round_keys, x, y) }
    }
}

/// Loads one 16-byte block (a round key or message bytes) in memory order.
/// SSE2 is part of the `x86_64` baseline.
#[inline(always)]
fn load_block(block: &Block) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// Loads the whole schedule into registers.
#[inline(always)]
fn load_keys(round_keys: &[Block; 11]) -> [__m128i; 11] {
    round_keys.map(|k| load_block(&k))
}

/// Reverses the bytes of each 32-bit lane: maps the little-endian in-memory
/// image of the big-endian column words to the cipher's byte order, and
/// back (the permutation is its own inverse).
#[inline]
#[target_feature(enable = "sse2")]
fn swap_mask() -> __m128i {
    _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12)
}

#[inline]
#[target_feature(enable = "ssse3")]
fn words_to_state(w: [u32; 4], mask: __m128i) -> __m128i {
    let v = _mm_setr_epi32(w[0] as i32, w[1] as i32, w[2] as i32, w[3] as i32);
    _mm_shuffle_epi8(v, mask)
}

#[inline]
#[target_feature(enable = "ssse3")]
fn state_to_words(s: __m128i, mask: __m128i) -> [u32; 4] {
    let mut out = [0u32; 4];
    // SAFETY: `out` is 16 writable bytes and `storeu` has no alignment
    // requirement.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), _mm_shuffle_epi8(s, mask)) };
    out
}

/// AES-128 over one state already in the cipher's byte order. Alone, this
/// is latency-bound on the 10 dependent `aesenc` steps.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt_state(k: &[__m128i; 11], s: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(s, k[0]);
    for key in &k[1..10] {
        s = _mm_aesenc_si128(s, *key);
    }
    _mm_aesenclast_si128(s, k[10])
}

/// AES-128 over one block.
#[target_feature(enable = "aes,ssse3")]
fn encrypt1(round_keys: &[Block; 11], w: [u32; 4]) -> [u32; 4] {
    let mask = swap_mask();
    state_to_words(
        encrypt_state(&load_keys(round_keys), words_to_state(w, mask)),
        mask,
    )
}

/// Moves a block given as `u128::from_le_bytes` of its bytes into a
/// register through two general-purpose halves, never through memory: a
/// block assembled from narrower stores and reloaded whole would stall on
/// store forwarding and serialize the independent PMAC calls.
#[inline]
#[target_feature(enable = "sse2")]
fn u128_to_state(x: u128) -> __m128i {
    _mm_set_epi64x((x >> 64) as i64, x as i64)
}

/// The inverse of [`u128_to_state`].
#[inline]
#[target_feature(enable = "sse2")]
fn state_to_u128(s: __m128i) -> u128 {
    let lo = _mm_cvtsi128_si64(s) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)) as u64;
    (u128::from(hi) << 64) | u128::from(lo)
}

/// `E_K(x) ⊕ E_K(y)`, or `E_K(x)`, over blocks held as `u128`s.
#[target_feature(enable = "aes")]
fn pair(round_keys: &[Block; 11], x: u128, y: Option<u128>) -> u128 {
    let k = load_keys(round_keys);
    let mut acc = encrypt_state(&k, u128_to_state(x));
    if let Some(y) = y {
        acc = _mm_xor_si128(acc, encrypt_state(&k, u128_to_state(y)));
    }
    state_to_u128(acc)
}

/// `⊕ E_K(b_i ⊕ z_i)` over `blocks` and `masks` zipped, XORed with
/// `E_K(extra)`.
#[target_feature(enable = "aes")]
fn sum(round_keys: &[Block; 11], blocks: &[Block], masks: &[Block], extra: Option<u128>) -> u128 {
    let k = load_keys(round_keys);
    let mut acc = match extra {
        Some(x) => encrypt_state(&k, u128_to_state(x)),
        None => _mm_setzero_si128(),
    };
    for (block, z) in blocks.iter().zip(masks) {
        let x = _mm_xor_si128(load_block(block), load_block(z));
        acc = _mm_xor_si128(acc, encrypt_state(&k, x));
    }
    state_to_u128(acc)
}

/// AES-128 over four independent blocks, interleaved per round so the four
/// `aesenc` chains overlap in the pipeline.
#[target_feature(enable = "aes,ssse3")]
fn encrypt4(round_keys: &[Block; 11], blocks: [[u32; 4]; 4]) -> [[u32; 4]; 4] {
    let k = load_keys(round_keys);
    let mask = swap_mask();
    let mut s = blocks.map(|w| _mm_xor_si128(words_to_state(w, mask), k[0]));
    for key in &k[1..10] {
        for b in &mut s {
            *b = _mm_aesenc_si128(*b, *key);
        }
    }
    s.map(|b| state_to_words(_mm_aesenclast_si128(b, k[10]), mask))
}
