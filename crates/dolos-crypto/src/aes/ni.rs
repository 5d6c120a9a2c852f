//! The AES-NI backend of [`super::Aes128`]: the crate's only `unsafe` code.
//!
//! Compiled on `x86_64` only. Every function here computes exactly the
//! word-domain function of the T-table path in `aes.rs` (4 big-endian
//! column words in, 4 out): the state is byte-swapped into the cipher's
//! byte order with one `pshufb`, run through `aesenc`/`aesenclast` with the
//! byte-order round keys of the shared schedule, and swapped back. The
//! lockstep tests in `aes.rs` pin this equivalence on every host that has
//! the instructions.
//!
//! Soundness rests on one type: [`Ni`] is a zero-sized proof that the CPU
//! supports AES-NI and SSSE3, and [`Ni::detect`] is its only constructor.
//! The `#[target_feature]` functions are reachable only through methods
//! taking that proof.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setr_epi32,
    _mm_setr_epi8, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
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
}

/// Loads one round key. SSE2 is part of the `x86_64` baseline.
#[inline(always)]
fn load_key(key: &Block) -> __m128i {
    // SAFETY: `key` is 16 readable bytes and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(key.as_ptr().cast()) }
}

/// Loads the whole schedule into registers.
#[inline(always)]
fn load_keys(round_keys: &[Block; 11]) -> [__m128i; 11] {
    round_keys.map(|k| load_key(&k))
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

/// AES-128 over one block. A CBC chain is serial, so this is latency-bound
/// on the 10 dependent `aesenc` steps.
#[target_feature(enable = "aes,ssse3")]
fn encrypt1(round_keys: &[Block; 11], w: [u32; 4]) -> [u32; 4] {
    let k = load_keys(round_keys);
    let mask = swap_mask();
    let mut s = _mm_xor_si128(words_to_state(w, mask), k[0]);
    for key in &k[1..10] {
        s = _mm_aesenc_si128(s, *key);
    }
    state_to_words(_mm_aesenclast_si128(s, k[10]), mask)
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
