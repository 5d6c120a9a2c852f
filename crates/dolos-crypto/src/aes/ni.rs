//! The AES-NI backend of [`super::Aes128`]: the crate's only `unsafe` code.
//!
//! Compiled on `x86_64` only. Every function here computes exactly what
//! the T-table path in `aes.rs` computes, running blocks in the cipher's
//! byte order through `aesenc`/`aesenclast` with the byte-order round keys
//! of the shared schedule. The lockstep tests in `aes.rs`, `ctr.rs` and
//! `mac.rs` pin this equivalence on every host that has the instructions.
//!
//! [`Ni::ctr4`] builds a counter-mode pad in the cipher's byte order: the
//! IV arrives in two general-purpose halves, the four block indices are
//! XORed in as constants, and the four encrypted states are stored
//! straight into the pad. No IV byte passes through memory and no block is
//! byte-swapped.
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
//! supports AES-NI, and [`Ni::detect`] is its only constructor.
//! The `#[target_feature]` functions are reachable only through methods
//! taking that proof.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_loadu_si128,
    _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128, _mm_unpackhi_epi64, _mm_xor_si128,
};

use super::Block;

/// Proof that the running CPU executes AES-NI instructions.
#[derive(Clone, Copy)]
pub(super) struct Ni(());

impl Ni {
    /// Returns the proof when the CPU reports AES-NI, else `None`.
    pub(super) fn detect() -> Option<Self> {
        std::is_x86_feature_detected!("aes").then_some(Ni(()))
    }

    /// Four counter-mode pad blocks; see [`super::Aes128::ctr4`].
    #[inline]
    pub(super) fn ctr4(self, round_keys: &[Block; 11], iv: u128, pad: &mut [u8; 64]) {
        // SAFETY: `self` exists only if `detect` found AES-NI on this CPU,
        // the feature `ctr` is compiled for.
        unsafe { ctr(round_keys, iv, pad) }
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
        // SAFETY: as in `ctr4`; `sum` needs the same feature.
        unsafe { sum(round_keys, blocks, masks, extra) }
    }

    /// One or two blocks held in registers; see
    /// [`super::Aes128::encrypt_pair`].
    #[inline]
    pub(super) fn encrypt_pair(self, round_keys: &[Block; 11], x: u128, y: Option<u128>) -> u128 {
        // SAFETY: as in `ctr4`; `pair` needs the same feature.
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

/// The pad of [`super::Aes128::ctr4`]: blocks `iv ⊕ (j << 56)` for
/// `j` in `0..4`, interleaved per round so the four `aesenc` chains overlap
/// in the pipeline, each stored straight into its 16 bytes of `pad`.
#[target_feature(enable = "aes")]
fn ctr(round_keys: &[Block; 11], iv: u128, pad: &mut [u8; 64]) {
    let k = load_keys(round_keys);
    let base = _mm_xor_si128(u128_to_state(iv), k[0]);
    let mut s: [__m128i; 4] =
        core::array::from_fn(|j| _mm_xor_si128(base, _mm_set_epi64x(0, (j as i64) << 56)));
    for key in &k[1..10] {
        for b in &mut s {
            *b = _mm_aesenc_si128(*b, *key);
        }
    }
    for (chunk, b) in pad.chunks_exact_mut(16).zip(s) {
        // SAFETY: `chunk` is 16 writable bytes and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(chunk.as_mut_ptr().cast(), _mm_aesenclast_si128(b, k[10])) };
    }
}
