//! Lockstep differential pins: the AES backend this host selects (AES-NI
//! on `x86_64` CPUs that have it, the T-table cipher elsewhere) against the
//! retained byte-oriented reference, and the allocation-free pad paths
//! against `generate_pad`.
//!
//! The selected backend is the single function every simulated pad byte,
//! MAC tag and tree node flows through; any divergence from the reference
//! would silently change ciphertexts, MACs and therefore
//! recovery/conformance behaviour everywhere. These tests are the contract
//! that lets the rest of the workspace treat `encrypt_block` as *the*
//! FIPS-197 cipher. The unit tests in `src/aes.rs` force each backend in
//! turn, so the backend this host does not select is covered there.

use dolos_crypto::aes::Aes128;
use dolos_crypto::ctr::{generate_pad, pad_into, pad_line, IvBuilder, MAX_PAD_BYTES};
use dolos_sim::rng::XorShift;

fn random_bytes16(rng: &mut XorShift) -> [u8; 16] {
    let mut b = [0u8; 16];
    for chunk in b.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    b
}

/// Seeded random keys × random blocks: selected backend == reference, bit
/// for bit.
#[test]
fn fast_aes_matches_reference_on_random_keys_and_blocks() {
    let mut rng = XorShift::new(0x00d0_105a_e5f0_0d5e);
    for _ in 0..64 {
        let key = Aes128::new(&random_bytes16(&mut rng));
        for _ in 0..256 {
            let pt = random_bytes16(&mut rng);
            assert_eq!(key.encrypt_block(&pt), key.encrypt_block_reference(&pt));
        }
    }
}

/// FIPS-197 Appendix B through the selected backend.
#[test]
fn fast_aes_fips197_appendix_b() {
    let key = Aes128::new(&[
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ]);
    let ct = key.encrypt_block(&[
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ]);
    assert_eq!(
        ct,
        [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32
        ]
    );
}

/// FIPS-197 Appendix C.1 through the selected backend.
#[test]
fn fast_aes_fips197_appendix_c1() {
    let mut kb = [0u8; 16];
    for (i, b) in kb.iter_mut().enumerate() {
        *b = i as u8;
    }
    let mut pt = [0u8; 16];
    for (i, b) in pt.iter_mut().enumerate() {
        *b = (i as u8) * 0x11;
    }
    assert_eq!(
        Aes128::new(&kb).encrypt_block(&pt),
        [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a
        ]
    );
}

/// `pad_line` equals `generate_pad(.., 64)` across an address × counter
/// sweep covering page boundaries and counter bit edges.
#[test]
fn pad_line_matches_generate_pad_across_sweeps() {
    let key = Aes128::new(&[0x5a; 16]);
    let addresses = [0u64, 64, 4032, 4096, 4160, 1 << 20, (1 << 40) - 64];
    let counters = [0u64, 1, 255, 256, 65535, 1 << 32, u64::MAX];
    for &addr in &addresses {
        for &ctr in &counters {
            let iv = IvBuilder::new().address(addr).counter(ctr).build();
            assert_eq!(
                pad_line(&key, &iv).to_vec(),
                generate_pad(&key, &iv, 64),
                "addr {addr:#x} counter {ctr:#x}"
            );
        }
    }
}

/// `pad_into` equals `generate_pad` for every length class, including
/// partial tail blocks and the 256-block maximum.
#[test]
fn pad_into_matches_generate_pad_across_lengths() {
    let key = Aes128::new(&[0x33; 16]);
    let iv = IvBuilder::new().address(8192).counter(99).build();
    for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 512, MAX_PAD_BYTES] {
        let mut buf = vec![0xAB; len];
        pad_into(&key, &iv, &mut buf);
        assert_eq!(buf, generate_pad(&key, &iv, len), "len {len}");
    }
}

/// A maximum-length pad never repeats a 16-byte block: all 256 block
/// indices produce distinct pad material (the wraparound bug this PR fixes
/// would have made blocks 256+ collide with blocks 0+; the guard now caps
/// the pad at exactly the collision-free range).
#[test]
fn max_length_pad_blocks_are_pairwise_distinct() {
    let key = Aes128::new(&[0x77; 16]);
    let iv = IvBuilder::new().address(0x2040).counter(5).build();
    let pad = generate_pad(&key, &iv, MAX_PAD_BYTES);
    let mut blocks: Vec<&[u8]> = pad.chunks_exact(16).collect();
    assert_eq!(blocks.len(), 256);
    blocks.sort();
    blocks.dedup();
    assert_eq!(blocks.len(), 256, "pad material repeated within one IV");
}
