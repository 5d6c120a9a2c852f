//! Osiris-style counter recovery through ECC probing.
//!
//! Osiris observes that the ECC bits written alongside each data line are
//! computed over the *plaintext*: decrypt a line with a candidate counter
//! and the ECC only matches if the counter was right. Counters therefore
//! only need to be persisted every `phase` updates (the "stop-loss"
//! parameter); after a crash the true counter lies within `phase`
//! increments of the persisted value and can be found by probing.
//!
//! The ECC here is a 64-bit checksum standing in for the DIMM's ECC code.
//! Real ECC is shorter; the paper (and Osiris) only require that a wrong
//! counter fails the check with high probability, which a 64-bit checksum
//! satisfies trivially. It is keyless and no integrity argument rests on
//! it: the MACs and the tree detect tampering, the checksum only picks the
//! counter.
//!
//! [`ecc64`] mixes the line's eight 64-bit words independently (each one
//! keyed by its position and put through a bijective 64-bit finalizer),
//! XORs the eight results and finalizes once more. The eight mixes share
//! no data, so they run side by side on the host; a byte-serial hash
//! would chain 64 multiplies on every Ma-SU write and every probe.

use dolos_crypto::aes::Aes128;
use dolos_crypto::ctr::{pad_line, IvBuilder};
use dolos_nvm::Line;

/// Default Osiris stop-loss: counters persist every 4th update.
pub const DEFAULT_PHASE: u64 = 4;

/// Position keys: word `i` of a line is mixed as `word ⊕ LANE_KEYS[i]`,
/// so equal words at different positions contribute differently.
const LANE_KEYS: [u64; 8] = {
    let mut keys = [0u64; 8];
    let mut i = 0;
    while i < 8 {
        keys[i] = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        i += 1;
    }
    keys
};

/// A bijective 64-bit mix (MurmurHash3's `fmix64`): flipping any input bit
/// changes the output.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Computes the 64-bit plaintext checksum standing in for ECC bits.
///
/// Each word's mix is a bijection and the others are unchanged, so any
/// change confined to one word (every single-bit flip) changes the result.
///
/// # Examples
///
/// ```
/// use dolos_secmem::ecc::ecc64;
///
/// assert_eq!(ecc64(&[1; 64]), ecc64(&[1; 64]));
/// assert_ne!(ecc64(&[1; 64]), ecc64(&[2; 64]));
/// ```
pub fn ecc64(plaintext: &Line) -> u64 {
    let (words, _) = plaintext.as_chunks::<8>();
    let mut acc = 0u64;
    for (word, key) in words.iter().zip(LANE_KEYS) {
        acc ^= mix(u64::from_le_bytes(*word) ^ key);
    }
    mix(acc)
}

/// Decrypts `ciphertext` (written at `addr`) with candidate counters
/// `base..base + window` and returns the first counter whose plaintext
/// matches `ecc`, along with that plaintext.
///
/// Returns `None` if no candidate matches — either the data was tampered
/// with or the counter drifted beyond the stop-loss window, both of which
/// recovery must treat as integrity failures.
///
/// # Examples
///
/// ```
/// use dolos_crypto::{aes::Aes128, ctr::{generate_pad, xor_in_place, IvBuilder}};
/// use dolos_secmem::ecc::{ecc64, probe_counter};
///
/// let key = Aes128::new(&[5; 16]);
/// let plaintext = [7u8; 64];
/// let true_counter = 10;
/// let iv = IvBuilder::new().address(0x40).counter(true_counter).build();
/// let mut ct = plaintext;
/// xor_in_place(&mut ct, &generate_pad(&key, &iv, 64));
///
/// // Persisted counter is stale (8); probe finds the true value.
/// let (counter, pt) = probe_counter(&key, 0x40, &ct, ecc64(&plaintext), 8, 4).unwrap();
/// assert_eq!(counter, true_counter);
/// assert_eq!(pt, plaintext);
/// ```
pub fn probe_counter(
    key: &Aes128,
    addr: u64,
    ciphertext: &Line,
    ecc: u64,
    base: u64,
    window: u64,
) -> Option<(u64, Line)> {
    for candidate in base..base.saturating_add(window).saturating_add(1) {
        let iv = IvBuilder::new().address(addr).counter(candidate).build();
        let pad = pad_line(key, &iv);
        let mut plaintext = *ciphertext;
        dolos_crypto::ctr::xor_in_place(&mut plaintext, &pad);
        if ecc64(&plaintext) == ecc {
            return Some((candidate, plaintext));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmt::tests::random_line;
    use dolos_crypto::ctr::{generate_pad, xor_in_place};
    use dolos_sim::rng::XorShift;

    fn encrypt(key: &Aes128, addr: u64, counter: u64, plaintext: &Line) -> Line {
        let iv = IvBuilder::new().address(addr).counter(counter).build();
        let mut ct = *plaintext;
        xor_in_place(&mut ct, &generate_pad(key, &iv, 64));
        ct
    }

    #[test]
    fn ecc_distinguishes_lines() {
        let mut a = [0u8; 64];
        let b = a;
        a[63] = 1;
        assert_ne!(ecc64(&a), ecc64(&b));
    }

    /// `ecc64` as the Osiris discriminator, on seeded random data: every
    /// single-bit flip of a line changes it, no wrong counter in a 64-wide
    /// probe window matches, and 2^16 random lines never collide.
    #[test]
    fn ecc_discriminates_flips_counters_and_lines() {
        let mut rng = XorShift::new(0xecc_0028_5eed);
        for _ in 0..16 {
            let line = random_line(&mut rng);
            let ecc = ecc64(&line);
            for bit in 0..512 {
                let mut flipped = line;
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(ecc64(&flipped), ecc, "bit {bit}");
            }
        }

        for _ in 0..64 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            let key = Aes128::new(&key);
            let addr = rng.next_below(1 << 30) * 64;
            let counter = 64 + rng.next_below(1 << 40);
            let pt = random_line(&mut rng);
            let ct = encrypt(&key, addr, counter, &pt);
            // The true counter is the window's last candidate, so any of
            // the 64 wrong ones before it would be found first.
            let found = probe_counter(&key, addr, &ct, ecc64(&pt), counter - 64, 64);
            assert_eq!(found, Some((counter, pt)));
            assert!(probe_counter(&key, addr, &ct, ecc64(&pt), counter + 1, 63).is_none());
        }

        let mut eccs: Vec<u64> = (0..1 << 16)
            .map(|_| ecc64(&random_line(&mut rng)))
            .collect();
        eccs.sort_unstable();
        eccs.dedup();
        assert_eq!(eccs.len(), 1 << 16);
    }

    #[test]
    fn probe_finds_exact_counter() {
        let key = Aes128::new(&[1; 16]);
        let pt = [0x3Cu8; 64];
        let ct = encrypt(&key, 64, 5, &pt);
        let found = probe_counter(&key, 64, &ct, ecc64(&pt), 5, 0);
        assert_eq!(found, Some((5, pt)));
    }

    #[test]
    fn probe_scans_stop_loss_window() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        for drift in 0..=DEFAULT_PHASE {
            let true_counter = 100 + drift;
            let ct = encrypt(&key, 128, true_counter, &pt);
            let found = probe_counter(&key, 128, &ct, ecc64(&pt), 100, DEFAULT_PHASE);
            assert_eq!(found.map(|(c, _)| c), Some(true_counter));
        }
    }

    #[test]
    fn probe_fails_beyond_window() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        let ct = encrypt(&key, 128, 200, &pt);
        assert!(probe_counter(&key, 128, &ct, ecc64(&pt), 100, 4).is_none());
    }

    #[test]
    fn probe_detects_tampered_ciphertext() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        let mut ct = encrypt(&key, 128, 3, &pt);
        ct[0] ^= 0xFF;
        assert!(probe_counter(&key, 128, &ct, ecc64(&pt), 0, 8).is_none());
    }

    #[test]
    fn probe_is_address_sensitive() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        let ct = encrypt(&key, 128, 3, &pt);
        // Relocated line: probing at the wrong address never matches.
        assert!(probe_counter(&key, 192, &ct, ecc64(&pt), 0, 8).is_none());
    }
}
