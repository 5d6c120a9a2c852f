//! Microbenchmarks of the functional crypto substrate (host wall-clock, not
//! simulated cycles — the simulated costs come from Table 1's latency model).

use dolos_bench::microbench::{bb, Bench};

use dolos_crypto::aes::Aes128;
use dolos_crypto::ctr::{generate_pad, pad_line, xor_in_place, IvBuilder};
use dolos_crypto::mac::MacEngine;
use dolos_crypto::padcache::PadCache;
use dolos_secmem::bmt::BonsaiMerkleTree;

fn main() {
    let mut b = Bench::from_args("crypto");

    let key = Aes128::new(&[7; 16]);
    let block = [0x5A; 16];
    // `aes_fast` vs `aes_reference`: the backend `Aes128::new` selected on
    // this host (AES-NI or the T-table) against the byte-oriented
    // specification it is lockstep-pinned to.
    b.run("aes128_encrypt_block", || key.encrypt_block(bb(&block)));
    b.run("aes_fast_encrypt_block", || key.encrypt_block(bb(&block)));
    b.run("aes_reference_encrypt_block", || {
        key.encrypt_block_reference(bb(&block))
    });

    let iv = IvBuilder::new().address(0x4000).counter(17).build();
    b.run("ctr_pad_64B", || generate_pad(bb(&key), bb(&iv), 64));
    b.run("aes_fast_pad_line_64B", || pad_line(bb(&key), bb(&iv)));

    let pad = generate_pad(&key, &iv, 64);
    b.run("line_xor_encrypt", || {
        let mut line = [0xABu8; 64];
        xor_in_place(&mut line, bb(&pad));
        line
    });

    let mac = MacEngine::new([9; 16]);
    let line = [0x11u8; 64];
    b.run("cbc_mac_64B", || mac.tag(bb(&line)));
    b.run("cbc_mac_parts", || {
        mac.tag_parts(bb(&[&line[..32], &line[32..], &line[..8]]))
    });
    b.run("aes_fast_cbc_mac_streaming", || {
        let mut s = mac.streamer(3);
        s.part(bb(&line[..32]));
        s.part(bb(&line[32..]));
        s.part(bb(&line[..8]));
        s.finish()
    });

    // Parent-MAC memoization (DESIGN.md §17). A leaf update only marks its
    // parent chain dirty; `root` after an update materializes that chain
    // (the miss path), while `root` on a clean tree returns the memoized
    // register (the hit path). The gap between these two rows is the host
    // work the deferral removes from every write that is never observed.
    let mut tree = BonsaiMerkleTree::new(256, &mac);
    b.run("mac_cache_parent_miss", || {
        tree.update_leaf(bb(&mac), 5, bb(&line));
        tree.root(&mac)
    });
    tree.root(&mac);
    b.run("mac_cache_parent_hit", || tree.root(bb(&mac)));

    // Counter-block pad cache on the Ma-SU read path: a repeated
    // (address, counter) pair returns the cached pad (hit); a fresh counter
    // re-runs the AES pad (miss + refill).
    let mut pads = PadCache::new(256);
    let mut counter = 0u64;
    b.run("mac_cache_pad_miss", || {
        counter += 1;
        pads.pad(bb(&key), 0x4000, counter)
    });
    pads.pad(&key, 0x4000, 7);
    b.run("mac_cache_pad_hit", || pads.pad(bb(&key), 0x4000, 7));
}
