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
//! [`ecc64`] multiplies each of the line's eight 64-bit words by an odd
//! constant of its own position, XORs the eight products and finalizes the
//! sum once. A multiply by an odd constant is a bijection of `u64`, so a
//! change confined to one word changes that word's product alone, and the
//! bijective finalizer passes the change on. The eight multiplies share no
//! data and run side by side on the host, ahead of a single finalizer on
//! every Ma-SU write and every probe candidate.
//!
//! [`probe_counter`] takes its pads from the caller. The Ma-SU hands it a
//! lookup in its pad memo, which holds each line's newest pad until another
//! line evicts it: a probe then computes the stale candidates' pads and
//! finds the true counter's pad already made.

use dolos_nvm::Line;

/// Default Osiris stop-loss: counters persist every 4th update.
pub const DEFAULT_PHASE: u64 = 4;

/// Position keys: word `i` of a line is multiplied by `LANE_KEYS[i]`, an
/// odd multiple of the golden ratio, so each multiply is a bijection and
/// equal words at different positions contribute differently.
const LANE_KEYS: [u64; 8] = {
    let mut keys = [0u64; 8];
    let mut i = 0;
    while i < 8 {
        keys[i] = (2 * i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        i += 1;
    }
    keys
};

/// A bijective 64-bit finalizer (MurmurHash3's `fmix64`), applied once to
/// the XOR of the position-keyed products: flipping any bit of that sum
/// changes the output, and every output bit depends on every sum bit.
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
/// Each word's product is a bijection of the word and the others are
/// unchanged, so any change confined to one word (every single-bit flip)
/// changes the result.
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
        acc ^= u64::from_le_bytes(*word).wrapping_mul(key);
    }
    mix(acc)
}

/// Decrypts `ciphertext` with candidate counters `base..=base + window`,
/// in ascending order, and returns the first counter whose plaintext
/// matches `ecc`, along with that plaintext.
///
/// `pad(counter)` must return the line's counter-mode pad under that
/// counter; whether it computes or memoizes it cannot change the result.
///
/// Returns `None` if no candidate matches — either the data was tampered
/// with or the counter drifted beyond the stop-loss window, both of which
/// recovery must treat as integrity failures.
///
/// # Examples
///
/// ```
/// use dolos_crypto::{aes::Aes128, ctr::{generate_pad, pad_line, xor_in_place, IvBuilder}};
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
/// let pad = |c| pad_line(&key, &IvBuilder::new().address(0x40).counter(c).build());
/// let (counter, pt) = probe_counter(pad, &ct, ecc64(&plaintext), 8, 4).unwrap();
/// assert_eq!(counter, true_counter);
/// assert_eq!(pt, plaintext);
/// ```
pub fn probe_counter(
    mut pad: impl FnMut(u64) -> Line,
    ciphertext: &Line,
    ecc: u64,
    base: u64,
    window: u64,
) -> Option<(u64, Line)> {
    for candidate in base..base.saturating_add(window).saturating_add(1) {
        let mut plaintext = *ciphertext;
        dolos_crypto::ctr::xor_in_place(&mut plaintext, &pad(candidate));
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
    use dolos_crypto::aes::Aes128;
    use dolos_crypto::ctr::{pad_line, xor_in_place, IvBuilder};
    use dolos_crypto::padcache::PadCache;
    use dolos_sim::rng::XorShift;

    /// The pad source with no memo: every candidate's pad made afresh.
    fn fresh(key: &Aes128, addr: u64) -> impl FnMut(u64) -> Line + '_ {
        move |counter| {
            pad_line(
                key,
                &IvBuilder::new().address(addr).counter(counter).build(),
            )
        }
    }

    fn encrypt(key: &Aes128, addr: u64, counter: u64, plaintext: &Line) -> Line {
        let mut ct = *plaintext;
        xor_in_place(&mut ct, &fresh(key, addr)(counter));
        ct
    }

    fn random_key(rng: &mut XorShift) -> Aes128 {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
        Aes128::new(&key)
    }

    #[test]
    fn ecc_distinguishes_lines() {
        let mut a = [0u8; 64];
        let b = a;
        a[63] = 1;
        assert_ne!(ecc64(&a), ecc64(&b));
    }

    /// `ecc64` as the Osiris discriminator, on seeded random data: each of
    /// a line's 512 single-bit flips changes it (on the all-zero and
    /// all-one lines too), no wrong counter in a 64-wide probe window
    /// matches, and 2^16 random lines never collide.
    #[test]
    fn ecc_discriminates_flips_counters_and_lines() {
        let mut rng = XorShift::new(0xecc_0028_5eed);
        let lines: Vec<Line> = (0..64)
            .map(|_| random_line(&mut rng))
            .chain([[0; 64], [0xFF; 64]])
            .collect();
        for line in lines {
            let ecc = ecc64(&line);
            for bit in 0..512 {
                let mut flipped = line;
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(ecc64(&flipped), ecc, "bit {bit} of {line:?}");
            }
        }

        for _ in 0..64 {
            let key = random_key(&mut rng);
            let addr = rng.next_below(1 << 30) * 64;
            let counter = 64 + rng.next_below(1 << 40);
            let pt = random_line(&mut rng);
            let ct = encrypt(&key, addr, counter, &pt);
            // The true counter is the window's last candidate, so any of
            // the 64 wrong ones before it would be found first.
            let found = probe_counter(fresh(&key, addr), &ct, ecc64(&pt), counter - 64, 64);
            assert_eq!(found, Some((counter, pt)));
            let past = probe_counter(fresh(&key, addr), &ct, ecc64(&pt), counter + 1, 63);
            assert!(past.is_none());
        }

        let mut eccs: Vec<u64> = (0..1 << 16)
            .map(|_| ecc64(&random_line(&mut rng)))
            .collect();
        eccs.sort_unstable();
        eccs.dedup();
        assert_eq!(eccs.len(), 1 << 16);
    }

    /// A probe through the Ma-SU's pad memo returns exactly what freshly
    /// made pads give, whatever the memo holds: the line's true pad (every
    /// lag from 0 to the stop-loss), nothing, the same line's pad at an
    /// older or a newer counter, or another line's pad in the same slot;
    /// and it rejects a tampered line. Afterwards the memo still serves
    /// only correct pads, and a probe that found the true pad memoized
    /// computed only its stale candidates.
    #[test]
    fn memoized_probe_matches_fresh_pads() {
        const SLOTS: u64 = 4;
        let mut rng = XorShift::new(0x05_1415_0036);
        for round in 0..64u64 {
            let key = random_key(&mut rng);
            let addr = rng.next_below(1 << 30) * 64;
            let alias = addr + SLOTS * 64 * (1 + rng.next_below(1 << 20));
            let truth = DEFAULT_PHASE + rng.next_below(1 << 40);
            let pt = random_line(&mut rng);
            let ct = encrypt(&key, addr, truth, &pt);
            let mut tampered = ct;
            tampered[rng.next_below(64) as usize] ^= 1 << rng.next_below(8);
            for lag in 0..=DEFAULT_PHASE {
                let base = truth - lag;
                // What the slot holds before the probe.
                let memos: [Option<(u64, u64)>; 6] = [
                    Some((addr, truth)),
                    None,
                    Some((addr, base.saturating_sub(1))),
                    Some((addr, truth + 1 + round % 3)),
                    Some((addr, base)),
                    Some((alias, truth)),
                ];
                for memo in memos {
                    for line in [&ct, &tampered] {
                        let mut cache = PadCache::new(SLOTS as usize);
                        if let Some((a, c)) = memo {
                            cache.pad(&key, a, c);
                        }
                        let expected =
                            probe_counter(fresh(&key, addr), line, ecc64(&pt), base, DEFAULT_PHASE);
                        let pads = |c| cache.pad(&key, addr, c);
                        let got = probe_counter(pads, line, ecc64(&pt), base, DEFAULT_PHASE);
                        assert_eq!(got, expected, "lag {lag}, memo {memo:?}");
                        if line == &ct {
                            assert_eq!(got, Some((truth, pt)));
                        } else {
                            assert_eq!(got, None);
                        }
                        if memo == Some((addr, truth)) && line == &ct {
                            // Only the stale candidates were computed.
                            assert_eq!((cache.hits(), cache.misses()), (1, lag + 1));
                        }
                        for (a, c) in [(addr, truth), (addr, base), (alias, truth)] {
                            assert_eq!(cache.pad(&key, a, c), fresh(&key, a)(c));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probe_finds_exact_counter() {
        let key = Aes128::new(&[1; 16]);
        let pt = [0x3Cu8; 64];
        let ct = encrypt(&key, 64, 5, &pt);
        let found = probe_counter(fresh(&key, 64), &ct, ecc64(&pt), 5, 0);
        assert_eq!(found, Some((5, pt)));
    }

    #[test]
    fn probe_scans_stop_loss_window() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        for drift in 0..=DEFAULT_PHASE {
            let true_counter = 100 + drift;
            let ct = encrypt(&key, 128, true_counter, &pt);
            let found = probe_counter(fresh(&key, 128), &ct, ecc64(&pt), 100, DEFAULT_PHASE);
            assert_eq!(found.map(|(c, _)| c), Some(true_counter));
        }
    }

    #[test]
    fn probe_fails_beyond_window() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        let ct = encrypt(&key, 128, 200, &pt);
        assert!(probe_counter(fresh(&key, 128), &ct, ecc64(&pt), 100, 4).is_none());
    }

    #[test]
    fn probe_detects_tampered_ciphertext() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        let mut ct = encrypt(&key, 128, 3, &pt);
        ct[0] ^= 0xFF;
        assert!(probe_counter(fresh(&key, 128), &ct, ecc64(&pt), 0, 8).is_none());
    }

    #[test]
    fn probe_is_address_sensitive() {
        let key = Aes128::new(&[1; 16]);
        let pt = [9u8; 64];
        let ct = encrypt(&key, 128, 3, &pt);
        // Relocated line: probing at the wrong address never matches.
        assert!(probe_counter(fresh(&key, 192), &ct, ecc64(&pt), 0, 8).is_none());
    }
}
