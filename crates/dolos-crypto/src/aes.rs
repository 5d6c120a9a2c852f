//! AES-128 block cipher (FIPS-197), encrypt-only.
//!
//! Counter-mode encryption and PMAC only ever run the cipher in the
//! forward direction, so the inverse cipher is intentionally omitted. Three
//! implementations of the same function live here:
//!
//! * **AES-NI** (`aes/ni.rs`, `x86_64` only) — the hardware `aesenc`
//!   instructions. [`Aes128::new`] selects it once per key schedule when the
//!   CPU reports the `aes` feature.
//! * **T-table** — the portable software cipher, with round tables
//!   precomputed at compile time: one round is 16 table loads and 16 XORs.
//!   [`Aes128::new`] selects it on every other host.
//! * [`Aes128::encrypt_block_reference`] — the original table-free
//!   byte-oriented cipher, retained verbatim as the auditable
//!   specification. It is never selected; tests compare against it.
//!
//! The choice is made by the host, never by a flag, and is invisible in
//! every output byte: [`Aes128::encrypt_block`], the counter-mode pad
//! kernel [`Aes128::ctr4`] and the crate-internal PMAC entry points
//! (`Aes128::encrypt_sum`, `Aes128::encrypt_pair`) dispatch on it, and
//! every pad, MAC tag, Mi-SU entry and tree node in the workspace reaches
//! the cipher through one of them. The lockstep tests in this module force
//! each backend in turn and pin the entry points against the reference and
//! the FIPS-197 appendix vectors; `ctr.rs` pins pads and `mac.rs` pins
//! PMAC against byte-domain specifications built on the reference, and
//! `tests/aes_lockstep.rs` pins the host's selection the same way.
//!
//! No path changes *simulated* timing: the cycle model charges the fixed
//! Table-1 latencies regardless of how fast the host computes the function.

use core::fmt;

/// The AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// An AES block.
pub type Block = [u8; BLOCK_SIZE];

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by 2 in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// The round T-table: `TE0[x]` is the MixColumns output column (as a
/// big-endian word, row 0 in the high byte) for an input column whose row-0
/// byte is `SubBytes(x)` and whose other rows are zero:
/// `[2·S(x), S(x), S(x), 3·S(x)]`. The row-1/2/3 tables are byte rotations
/// of this one (`TE0[x].rotate_right(8·r)`), so a single 1 KiB table covers
/// the whole round at the cost of three register rotates.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s ^ s2;
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
};

/// Byte-rotated copies of [`TE0`] for rows 1–3, materialized at compile
/// time: four 1 KiB tables trade 3 register rotates per state byte for a
/// direct load each, which measurably matters at ~100M block encrypts per
/// full-scale bench run.
const fn rotated(table: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = table[i].rotate_right(bits);
        i += 1;
    }
    t
}
const TE1: [u32; 256] = rotated(&TE0, 8);
const TE2: [u32; 256] = rotated(&TE0, 16);
const TE3: [u32; 256] = rotated(&TE0, 24);

#[cfg(target_arch = "x86_64")]
mod ni;

/// The implementation an [`Aes128`] runs. Every backend computes the same
/// function; only host speed differs.
#[derive(Clone, Copy)]
enum Backend {
    /// The portable T-table rounds.
    Table,
    /// AES-NI, carrying the proof that the CPU supports it.
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Ni),
}

impl Backend {
    /// The fastest backend the running CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::Ni::detect() {
            return Backend::Ni(ni);
        }
        Backend::Table
    }
}

/// An expanded AES-128 key schedule (11 round keys).
///
/// # Examples
///
/// ```
/// use dolos_crypto::aes::Aes128;
///
/// // FIPS-197 Appendix B vector.
/// let key = Aes128::new(&[0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
/// let ct = key.encrypt_block(&[0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
///                              0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34]);
/// assert_eq!(ct[0], 0x39);
/// assert_eq!(ct[15], 0x32);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [Block; 11],
    /// The same schedule as big-endian column words, the layout the T-table
    /// rounds consume (`rk[4r + c]` = round `r`, column `c`).
    rk: [u32; 44],
    /// Chosen by the host, so it takes no part in equality or `Debug`.
    backend: Backend,
}

/// Two schedules are equal when their keys are: the backend is a host
/// property, not part of the value.
impl PartialEq for Aes128 {
    fn eq(&self, other: &Self) -> bool {
        self.round_keys == other.round_keys
    }
}

impl Eq for Aes128 {}

/// Key material must never leak through diagnostics: simulator state
/// (including `Aes128` values inside the Mi-SU/Ma-SU) is routinely
/// `Debug`-formatted into panic messages and verify JSON reports, so
/// the schedule bytes are redacted rather than derived.
impl fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aes128")
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the full round-key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut words = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            words[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&words[4 * r + c]);
            }
        }
        let mut rk = [0u32; 44];
        for (i, w) in rk.iter_mut().enumerate() {
            *w = u32::from_be_bytes(words[i]);
        }
        Self {
            round_keys,
            rk,
            backend: Backend::detect(),
        }
    }

    /// The same schedule forced onto the T-table backend, so tests cover it
    /// on hosts that would select AES-NI.
    #[cfg(test)]
    pub(crate) fn with_table_backend(key: &[u8; 16]) -> Self {
        Self {
            backend: Backend::Table,
            ..Self::new(key)
        }
    }

    /// The schedule on every backend this host can run: the T-table
    /// always, then AES-NI when the CPU has it.
    #[cfg(test)]
    pub(crate) fn on_each_backend(key: &[u8; 16]) -> Vec<Self> {
        let mut out = vec![Self::with_table_backend(key)];
        let host = Self::new(key);
        if !matches!(host.backend, Backend::Table) {
            out.push(host);
        }
        out
    }

    /// Encrypts one 16-byte block on the selected backend.
    ///
    /// Bit-for-bit identical to [`Self::encrypt_block_reference`]; the
    /// lockstep suite and the FIPS-197 vectors pin the equivalence. One
    /// PMAC block held in registers (`encrypt_pair`); no hot path
    /// calls it (PMAC derives its masks from it once per key).
    #[inline]
    pub fn encrypt_block(&self, plaintext: &Block) -> Block {
        self.encrypt_pair(u128::from_le_bytes(*plaintext), None)
            .to_le_bytes()
    }

    /// Writes four counter-mode pad blocks into `pad`: block `j` is
    /// `E_K(iv ⊕ (j << 56))`, with `iv` and every block given as
    /// `u128::from_le_bytes` of the block's bytes. Bits 56..64 are the
    /// block-index byte of the CTR IV layout (`ctr.rs`), so a caller passes
    /// the IV of block `4q` and gets blocks `4q..4q + 4`.
    ///
    /// This is the pad kernel behind every cacheline pad. The IV is
    /// assembled in registers, never in memory, and on AES-NI the four
    /// blocks run interleaved per round and are stored straight from the
    /// cipher state: the cipher's byte order is the pad's. The T-table
    /// backend computes the same bytes through its word representation.
    #[inline]
    pub fn ctr4(&self, iv: u128, pad: &mut [u8; 64]) {
        match self.backend {
            Backend::Table => {
                let blocks = core::array::from_fn(|j| {
                    words_from_bytes(&(iv ^ ((j as u128) << 56)).to_le_bytes())
                });
                let words = self.table_words4(blocks);
                for (chunk, block) in pad.chunks_exact_mut(BLOCK_SIZE).zip(&words) {
                    chunk.copy_from_slice(&bytes_from_words(block));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.ctr4(&self.round_keys, iv, pad),
        }
    }

    /// Returns `⊕ E_K(b_i ⊕ z_i)` over `blocks` and their `masks`, zipped,
    /// XORed with `E_K(x)` for an `extra` block `x` given as
    /// `u128::from_le_bytes` of its (already masked) bytes: PMAC's
    /// non-final blocks and their offsets (`mac.rs`). The sum is returned
    /// as `u128::from_le_bytes` of its bytes.
    ///
    /// The blocks are independent: each backend encrypts them one after
    /// another, and on AES-NI the out-of-order core overlaps their rounds.
    /// PMAC keeps only this XOR of them. Byte-identical on every backend to
    /// the same sum spelled with [`Self::encrypt_block_reference`].
    #[inline]
    pub(crate) fn encrypt_sum(
        &self,
        blocks: &[Block],
        masks: &[Block],
        extra: Option<u128>,
    ) -> u128 {
        match self.backend {
            Backend::Table => {
                let mut sum = extra.map_or(0, |x| self.encrypt_pair(x, None));
                for (block, z) in blocks.iter().zip(masks) {
                    let x = u128::from_le_bytes(*block) ^ u128::from_le_bytes(*z);
                    sum ^= self.encrypt_pair(x, None);
                }
                sum
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.encrypt_sum(&self.round_keys, blocks, masks, extra),
        }
    }

    /// Returns `E_K(x) ⊕ E_K(y)` (or `E_K(x)`), each block given and
    /// returned as `u128::from_le_bytes` of its bytes: PMAC blocks
    /// assembled in registers (header blocks, blocks that straddle two fed
    /// slices, the final block), already masked.
    #[inline]
    pub(crate) fn encrypt_pair(&self, x: u128, y: Option<u128>) -> u128 {
        match self.backend {
            Backend::Table => {
                let encrypt = |v: u128| {
                    let w = self.table_words(words_from_bytes(&v.to_le_bytes()));
                    u128::from_le_bytes(bytes_from_words(&w))
                };
                encrypt(x) ^ y.map_or(0, encrypt)
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.encrypt_pair(&self.round_keys, x, y),
        }
    }

    /// One block on the T-table backend, given (and returned) in the
    /// T-table state representation: 4 big-endian column words, row 0 in
    /// each word's high byte (see [`words_from_bytes`]).
    #[inline]
    fn table_words(&self, w: [u32; 4]) -> [u32; 4] {
        let rk = &self.rk;
        let mut w0 = w[0] ^ rk[0];
        let mut w1 = w[1] ^ rk[1];
        let mut w2 = w[2] ^ rk[2];
        let mut w3 = w[3] ^ rk[3];
        // SubBytes ∘ ShiftRows ∘ MixColumns ∘ AddRoundKey, one table lookup
        // per state byte: output column j reads row r from input column
        // j + r (mod 4). Unrolled by hand — with a literal round number every
        // schedule index is a constant, so the 9 rounds compile to straight
        // bounds-check-free loads with no loop-carried register shuffle
        // (measurably faster than the rolled loop on the bench host).
        macro_rules! round {
            ($r:literal) => {
                let t0 = TE0[(w0 >> 24) as usize]
                    ^ TE1[((w1 >> 16) & 0xff) as usize]
                    ^ TE2[((w2 >> 8) & 0xff) as usize]
                    ^ TE3[(w3 & 0xff) as usize]
                    ^ rk[4 * $r];
                let t1 = TE0[(w1 >> 24) as usize]
                    ^ TE1[((w2 >> 16) & 0xff) as usize]
                    ^ TE2[((w3 >> 8) & 0xff) as usize]
                    ^ TE3[(w0 & 0xff) as usize]
                    ^ rk[4 * $r + 1];
                let t2 = TE0[(w2 >> 24) as usize]
                    ^ TE1[((w3 >> 16) & 0xff) as usize]
                    ^ TE2[((w0 >> 8) & 0xff) as usize]
                    ^ TE3[(w1 & 0xff) as usize]
                    ^ rk[4 * $r + 2];
                let t3 = TE0[(w3 >> 24) as usize]
                    ^ TE1[((w0 >> 16) & 0xff) as usize]
                    ^ TE2[((w1 >> 8) & 0xff) as usize]
                    ^ TE3[(w2 & 0xff) as usize]
                    ^ rk[4 * $r + 3];
                w0 = t0;
                w1 = t1;
                w2 = t2;
                w3 = t3;
            };
        }
        round!(1);
        round!(2);
        round!(3);
        round!(4);
        round!(5);
        round!(6);
        round!(7);
        round!(8);
        round!(9);
        // Final round: SubBytes ∘ ShiftRows ∘ AddRoundKey (no MixColumns).
        let sb = |w: u32| SBOX[(w & 0xff) as usize] as u32;
        let t0 = (sb(w0 >> 24) << 24) | (sb(w1 >> 16) << 16) | (sb(w2 >> 8) << 8) | sb(w3);
        let t1 = (sb(w1 >> 24) << 24) | (sb(w2 >> 16) << 16) | (sb(w3 >> 8) << 8) | sb(w0);
        let t2 = (sb(w2 >> 24) << 24) | (sb(w3 >> 16) << 16) | (sb(w0 >> 8) << 8) | sb(w1);
        let t3 = (sb(w3 >> 24) << 24) | (sb(w0 >> 16) << 16) | (sb(w1 >> 8) << 8) | sb(w2);
        [t0 ^ rk[40], t1 ^ rk[41], t2 ^ rk[42], t3 ^ rk[43]]
    }

    /// Four independent blocks on the T-table backend, for [`Self::ctr4`]:
    /// interleaving them per round turns the table-load *latency* bound
    /// into a load *throughput* bound.
    #[inline]
    fn table_words4(&self, blocks: [[u32; 4]; 4]) -> [[u32; 4]; 4] {
        let rk = &self.rk;
        let mut s = blocks;
        for b in s.iter_mut() {
            b[0] ^= rk[0];
            b[1] ^= rk[1];
            b[2] ^= rk[2];
            b[3] ^= rk[3];
        }
        for round in 1..10 {
            let k0 = rk[4 * round];
            let k1 = rk[4 * round + 1];
            let k2 = rk[4 * round + 2];
            let k3 = rk[4 * round + 3];
            for b in s.iter_mut() {
                let t0 = TE0[(b[0] >> 24) as usize]
                    ^ TE1[((b[1] >> 16) & 0xff) as usize]
                    ^ TE2[((b[2] >> 8) & 0xff) as usize]
                    ^ TE3[(b[3] & 0xff) as usize]
                    ^ k0;
                let t1 = TE0[(b[1] >> 24) as usize]
                    ^ TE1[((b[2] >> 16) & 0xff) as usize]
                    ^ TE2[((b[3] >> 8) & 0xff) as usize]
                    ^ TE3[(b[0] & 0xff) as usize]
                    ^ k1;
                let t2 = TE0[(b[2] >> 24) as usize]
                    ^ TE1[((b[3] >> 16) & 0xff) as usize]
                    ^ TE2[((b[0] >> 8) & 0xff) as usize]
                    ^ TE3[(b[1] & 0xff) as usize]
                    ^ k2;
                let t3 = TE0[(b[3] >> 24) as usize]
                    ^ TE1[((b[0] >> 16) & 0xff) as usize]
                    ^ TE2[((b[1] >> 8) & 0xff) as usize]
                    ^ TE3[(b[2] & 0xff) as usize]
                    ^ k3;
                *b = [t0, t1, t2, t3];
            }
        }
        let sb = |w: u32| SBOX[(w & 0xff) as usize] as u32;
        for b in s.iter_mut() {
            let [w0, w1, w2, w3] = *b;
            let t0 = (sb(w0 >> 24) << 24) | (sb(w1 >> 16) << 16) | (sb(w2 >> 8) << 8) | sb(w3);
            let t1 = (sb(w1 >> 24) << 24) | (sb(w2 >> 16) << 16) | (sb(w3 >> 8) << 8) | sb(w0);
            let t2 = (sb(w2 >> 24) << 24) | (sb(w3 >> 16) << 16) | (sb(w0 >> 8) << 8) | sb(w1);
            let t3 = (sb(w3 >> 24) << 24) | (sb(w0 >> 16) << 16) | (sb(w1 >> 8) << 8) | sb(w2);
            *b = [t0 ^ rk[40], t1 ^ rk[41], t2 ^ rk[42], t3 ^ rk[43]];
        }
        s
    }

    /// Encrypts one 16-byte block with the byte-oriented reference cipher.
    ///
    /// This is the original table-free implementation, kept as the
    /// specification both backends are differentially tested against. Use
    /// [`Self::encrypt_block`] everywhere else.
    pub fn encrypt_block_reference(&self, plaintext: &Block) -> Block {
        let mut state = *plaintext;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[10]);
        state
    }
}

/// Packs a 16-byte block into the T-table state representation: 4 big-endian
/// column words (`w[c]` = bytes `4c..4c+4`, row 0 in the high byte).
/// [`bytes_from_words`] is the exact inverse.
#[inline]
fn words_from_bytes(b: &Block) -> [u32; 4] {
    [
        u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
        u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
        u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
        u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
    ]
}

/// Unpacks a T-table state (see [`words_from_bytes`]) back into block bytes.
#[inline]
fn bytes_from_words(w: &[u32; 4]) -> Block {
    let mut out = [0u8; BLOCK_SIZE];
    out[0..4].copy_from_slice(&w[0].to_be_bytes());
    out[4..8].copy_from_slice(&w[1].to_be_bytes());
    out[8..12].copy_from_slice(&w[2].to_be_bytes());
    out[12..16].copy_from_slice(&w[3].to_be_bytes());
    out
}

#[inline]
fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// Row-major shift on the column-major state layout: byte `i` sits at
/// row `i % 4`, column `i / 4`.
#[inline]
fn shift_rows(state: &mut Block) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[4 * col + row] = s[4 * ((col + row) % 4) + row];
        }
    }
}

#[inline]
fn mix_columns(state: &mut Block) {
    for col in 0..4 {
        let a0 = state[4 * col];
        let a1 = state[4 * col + 1];
        let a2 = state[4 * col + 2];
        let a3 = state[4 * col + 3];
        let t = a0 ^ a1 ^ a2 ^ a3;
        state[4 * col] = a0 ^ t ^ xtime(a0 ^ a1);
        state[4 * col + 1] = a1 ^ t ^ xtime(a1 ^ a2);
        state[4 * col + 2] = a2 ^ t ^ xtime(a2 ^ a3);
        state[4 * col + 3] = a3 ^ t ^ xtime(a3 ^ a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `key` maps `pt` to `expected` through the reference and, on
    /// every backend, through the block and pad-kernel entry points (block
    /// 0 of `ctr4` is the IV itself).
    fn assert_kat(key: &[u8; 16], pt: &Block, expected: &Block) {
        for aes in Aes128::on_each_backend(key) {
            assert_eq!(aes.encrypt_block_reference(pt), *expected);
            assert_eq!(aes.encrypt_block(pt), *expected);
            let mut pad = [0u8; 64];
            aes.ctr4(u128::from_le_bytes(*pt), &mut pad);
            assert_eq!(pad[..BLOCK_SIZE], *expected);
        }
    }

    /// FIPS-197 Appendix B: full known-answer test.
    #[test]
    fn fips197_appendix_b_vector() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_kat(&key, &pt, &expected);
    }

    /// FIPS-197 Appendix C.1: 000102…0f key over 00112233…ff plaintext.
    #[test]
    fn fips197_appendix_c1_vector() {
        let mut key = [0u8; 16];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut pt = [0u8; 16];
        for (i, b) in pt.iter_mut().enumerate() {
            *b = (i as u8) * 0x11;
        }
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_kat(&key, &pt, &expected);
    }

    /// Seeded random keys × random blocks: every backend's `encrypt_block`
    /// and `ctr4` equal the reference, bit for bit.
    #[test]
    fn every_backend_matches_reference_on_random_keys_and_blocks() {
        let mut rng = dolos_sim::rng::XorShift::new(0xae5_1a6e_0bac_c3d5);
        let mut random_block = || {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            b[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            b
        };
        for _ in 0..64 {
            let key = random_block();
            let backends = Aes128::on_each_backend(&key);
            for _ in 0..256 / 4 {
                let pts = [
                    random_block(),
                    random_block(),
                    random_block(),
                    random_block(),
                ];
                let expected = pts.map(|pt| backends[0].encrypt_block_reference(&pt));
                for aes in &backends {
                    for (pt, want) in pts.iter().zip(&expected) {
                        assert_eq!(aes.encrypt_block(pt), *want);
                    }
                    let iv = u128::from_le_bytes(pts[0]);
                    let mut pad = [0u8; 64];
                    aes.ctr4(iv, &mut pad);
                    for (j, got) in pad.chunks_exact(BLOCK_SIZE).enumerate() {
                        let block = (iv ^ ((j as u128) << 56)).to_le_bytes();
                        assert_eq!(got, backends[0].encrypt_block_reference(&block));
                    }
                }
            }
        }
    }

    /// `encrypt_sum` equals the XOR of reference encryptions of the masked
    /// blocks for every count from 0 to 20, with and without an extra
    /// register block, and
    /// `encrypt_pair` equals one or two, on every backend.
    #[test]
    fn masked_entry_points_match_reference_on_every_backend() {
        let block =
            |k: u8| -> Block { core::array::from_fn(|i| k.wrapping_mul(29) ^ (i as u8 * 7)) };
        let blocks: Vec<Block> = (0..20).map(block).collect();
        let masks: Vec<Block> = (100..120).map(block).collect();
        for aes in Aes128::on_each_backend(&[0x7e; 16]) {
            for n in 0..=blocks.len() {
                let mut want = [0u8; BLOCK_SIZE];
                for (b, z) in blocks[..n].iter().zip(&masks) {
                    let mut x = *b;
                    add_round_key(&mut x, z);
                    add_round_key(&mut want, &aes.encrypt_block_reference(&x));
                }
                let got = aes.encrypt_sum(&blocks[..n], &masks[..n], None);
                assert_eq!(got.to_le_bytes(), want, "{n} blocks");
                let extra = u128::from_le_bytes(blocks[19]);
                let got = aes.encrypt_sum(&blocks[..n], &masks[..n], Some(extra));
                add_round_key(&mut want, &aes.encrypt_block_reference(&blocks[19]));
                assert_eq!(got.to_le_bytes(), want, "{n} blocks and an extra");
            }
            for (b, z) in blocks.iter().zip(&masks) {
                let (x, y) = (u128::from_le_bytes(*b), u128::from_le_bytes(*z));
                let mut want = aes.encrypt_block_reference(b);
                assert_eq!(aes.encrypt_pair(x, None).to_le_bytes(), want);
                add_round_key(&mut want, &aes.encrypt_block_reference(z));
                assert_eq!(aes.encrypt_pair(x, Some(y)).to_le_bytes(), want);
            }
        }
    }

    #[test]
    fn backend_is_invisible_in_eq_and_debug() {
        let key = [0x5c; 16];
        let table = Aes128::with_table_backend(&key);
        let host = Aes128::new(&key);
        assert_eq!(table, host);
        assert_eq!(format!("{table:?}"), format!("{host:?}"));
        assert_ne!(table, Aes128::with_table_backend(&[0x5d; 16]));
    }

    #[test]
    fn fast_path_matches_reference_on_structured_blocks() {
        // Dense lockstep over structured patterns on every backend; the
        // seeded random sweep is the test above.
        let keys = [[0u8; 16], [0xFF; 16], [0xA5; 16], [1; 16]];
        for kb in keys {
            for key in Aes128::on_each_backend(&kb) {
                for i in 0..=255u8 {
                    let mut pt = [i; 16];
                    pt[(i % 16) as usize] ^= 0x5A;
                    assert_eq!(
                        key.encrypt_block(&pt),
                        key.encrypt_block_reference(&pt),
                        "key {kb:02x?} pattern {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_quad_matches_single_block_path() {
        // ctr4 must be byte-identical to four encrypt_block calls on the
        // blocks it derives from the IV, whatever the IV's index byte
        // already holds (XOR, not addition, sets blocks 1–3).
        for key in Aes128::on_each_backend(&[0x3Cu8; 16]) {
            for index in [0u128, 1, 4, 0xfc, 0xff] {
                let iv = 0x0123_4567_89ab_cdef_0011_2233_4455_6677 ^ (index << 56);
                let mut pad = [0u8; 64];
                key.ctr4(iv, &mut pad);
                for (j, got) in pad.chunks_exact(BLOCK_SIZE).enumerate() {
                    let block = (iv ^ ((j as u128) << 56)).to_le_bytes();
                    assert_eq!(got, key.encrypt_block(&block));
                    assert_eq!(got, key.encrypt_block_reference(&block));
                }
            }
        }
    }

    #[test]
    fn word_packing_round_trips() {
        let mut block = [0u8; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = 0x10 + i as u8;
        }
        assert_eq!(bytes_from_words(&words_from_bytes(&block)), block);
        assert_eq!(words_from_bytes(&block)[0], 0x1011_1213);
    }

    #[test]
    fn different_keys_give_different_ciphertext() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let pt = [7u8; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }

    #[test]
    fn encryption_is_deterministic() {
        let k = Aes128::new(&[3u8; 16]);
        let pt = [0x5au8; 16];
        assert_eq!(k.encrypt_block(&pt), k.encrypt_block(&pt));
    }

    #[test]
    fn xtime_matches_gf256() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
    }

    #[test]
    fn te0_encodes_mix_column_of_sbox() {
        // Spot-check the const table against the reference primitives.
        for &x in &[0u8, 1, 0x53, 0xFF] {
            let s = SBOX[x as usize];
            let expected = u32::from_be_bytes([xtime(s), s, s, s ^ xtime(s)]);
            assert_eq!(TE0[x as usize], expected, "TE0[{x:#x}]");
        }
    }

    #[test]
    fn debug_output_redacts_the_key_schedule() {
        // The schedule of an all-zero key starts 00…00 then 62 63 63 63;
        // none of those byte spellings may surface in Debug output (panic
        // messages and verify JSON format simulator state with {:?}).
        let key = Aes128::new(&[0u8; 16]);
        let printed = format!("{key:?}");
        assert!(printed.contains("redacted"), "got: {printed}");
        for rk in &key.round_keys {
            for b in rk {
                // No decimal or hex spelling of any schedule byte beyond
                // the struct name itself.
                assert!(
                    !printed.contains(&format!("{b}, ")) && !printed.contains(&format!("{b:#x}")),
                    "round-key byte {b} leaked into {printed}"
                );
            }
        }
        assert_eq!(format!("{:?}", Aes128::new(&[0x2b; 16])), printed);
    }
}
