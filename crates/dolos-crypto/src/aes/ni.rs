//! The AES-NI backend of [`super::Aes128`]: the crate's only `unsafe` code.
//!
//! Compiled on `x86_64` only. Every function here computes exactly the
//! word-domain function of the T-table path in `aes.rs` (4 big-endian
//! column words in, 4 out): the state is byte-swapped into the cipher's
//! byte order with one `pshufb`, run through `aesenc`/`aesenclast` with the
//! byte-order round keys of the shared schedule, and swapped back. The
//! lockstep tests in `aes.rs` and `mac.rs` pin this equivalence on every
//! host that has the instructions.
//!
//! [`Ni::cbc_chain`] absorbs a whole CBC-MAC chain in one call: the 11
//! round keys are loaded once, the state is swapped in and out once, and
//! between blocks it never leaves its register. Message bytes need no
//! swap at all: a 16-byte load of block bytes is already in the cipher's
//! byte order, and the length block `n` is the 64-bit lane `n`.
//!
//! Soundness rests on one type: [`Ni`] is a zero-sized proof that the CPU
//! supports AES-NI and SSSE3, and [`Ni::detect`] is its only constructor.
//! The `#[target_feature]` functions are reachable only through methods
//! taking that proof.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi64x,
    _mm_setr_epi32, _mm_setr_epi8, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
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

    /// A whole CBC-MAC chain; see [`super::Aes128::cbc_chain`].
    #[inline]
    pub(super) fn cbc_chain(
        self,
        round_keys: &[Block; 11],
        state: [u32; 4],
        parts: &[&[u8]],
        len_blocks: bool,
    ) -> [u32; 4] {
        // SAFETY: as in `encrypt_words`; `chain` needs the same features.
        unsafe { chain(round_keys, state, parts, len_blocks) }
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

/// AES-128 over one state already in the cipher's byte order. A CBC chain
/// is serial, so this is latency-bound on the 10 dependent `aesenc` steps.
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

/// CBC-MAC chaining from `state` over `parts`, each preceded by its length
/// block when `len_blocks` is set, with a short last chunk zero-padded.
#[target_feature(enable = "aes,ssse3")]
fn chain(round_keys: &[Block; 11], state: [u32; 4], parts: &[&[u8]], len_blocks: bool) -> [u32; 4] {
    let k = load_keys(round_keys);
    let mask = swap_mask();
    let mut s = words_to_state(state, mask);
    for part in parts {
        if len_blocks {
            // Bytes 0..8 little-endian: exactly the low 64-bit lane.
            let len = _mm_set_epi64x(0, part.len() as i64);
            s = encrypt_state(&k, _mm_xor_si128(s, len));
        }
        let (blocks, tail) = part.as_chunks::<16>();
        for block in blocks {
            s = encrypt_state(&k, _mm_xor_si128(s, load_block(block)));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 16];
            last[..tail.len()].copy_from_slice(tail);
            s = encrypt_state(&k, _mm_xor_si128(s, load_block(&last)));
        }
    }
    state_to_words(s, mask)
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
