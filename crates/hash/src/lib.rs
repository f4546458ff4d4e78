//! # fastsim-hash
//!
//! A tiny vendored byte hasher for the memoization hot path, in the
//! FxHash/wyhash family: 8 bytes per multiply, no lookup tables, no
//! per-call setup, and a SplitMix64-style final avalanche so the low bits
//! are usable as open-addressing probe starts.
//!
//! The p-action cache fingerprints every encoded configuration with
//! [`hash64`]. The standard library's default `SipHash` is keyed and
//! DoS-resistant — properties the simulator does not need (configuration
//! bytes are not attacker-controlled) and pays for on every lookup. This
//! hasher is ~4× cheaper on the short (16–80 byte) configuration strings
//! the encoder produces, and 64-bit fingerprints make full-byte
//! comparisons necessary only on genuine table matches.
//!
//! The workspace stays zero-external-deps: this crate is ~60 lines of
//! pure integer arithmetic with a pinned reference vector so the function
//! can never drift silently (frozen snapshots and merge determinism rely
//! on equal bytes hashing equally on every platform).
//!
//! It also holds the workspace's one FNV-1a fold ([`FNV1A_OFFSET`],
//! [`fnv1a_lane`], [`fnv1a`]), behind the warm-cache fingerprint and the
//! job journal's record checksums.

#![deny(missing_docs)]

/// Multiplier from FxHash (the golden-ratio constant also used by
/// SplitMix64's increment), applied per 8-byte lane.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).rotate_left(23).wrapping_mul(K)
}

/// SplitMix64 finalizer: full-avalanche bit mixing so every output bit
/// depends on every input bit (linear-probe quality depends on this).
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// 64-bit fingerprint of `bytes`. Deterministic across platforms and
/// processes (no random keying), length-aware (a prefix never collides
/// with its extension by construction), and cheap: one rotate-multiply
/// per 8 input bytes plus a constant-time finish.
#[inline]
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = K ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        // The length term in the seed disambiguates zero-padded tails.
        h = mix(h, u64::from_le_bytes(tail));
    }
    avalanche(h)
}

/// FNV-1a-64 offset basis: the state a fold starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a-64 step over a whole `u64` lane: xor it in, multiply by the
/// FNV prime. Fingerprints of structured values fold one lane per field.
#[inline]
pub fn fnv1a_lane(h: &mut u64, lane: u64) {
    *h = (*h ^ lane).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Standard byte-wise FNV-1a-64 of `bytes`: the lane step fed one byte at
/// a time.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV1A_OFFSET;
    for &b in bytes {
        fnv1a_lane(&mut h, u64::from(b));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_prng::for_each_case;

    /// The function is part of the on-disk/merge determinism contract:
    /// pin reference outputs so a change can never land unnoticed.
    #[test]
    fn reference_vectors_pinned() {
        assert_eq!(hash64(b""), 0xe220_a839_7b1d_cdaf);
        assert_eq!(hash64(b"a"), 0x04c0_129e_3000_0708);
        assert_eq!(hash64(b"fastsim"), 0x19f0_5034_c649_ed09);
        assert_eq!(hash64(&[0u8; 16]), 0x77b0_b330_43f6_7b16);
    }

    /// The journal's record checksums are byte-wise FNV-1a-64 on disk: pin
    /// the standard test vectors.
    #[test]
    fn fnv1a_standard_vectors_pinned() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        for_each_case(0x4a54, 512, |seed, rng| {
            let len = rng.range_usize(0..96);
            let mut a: Vec<u8> = (0..len).map(|_| rng.next_u8()).collect();
            assert_eq!(hash64(&a), hash64(&a.clone()), "seed {seed:#x}");
            if !a.is_empty() {
                let i = rng.range_usize(0..a.len());
                let bit = 1u8 << rng.range_u32(0..8);
                a[i] ^= bit;
                let flipped = hash64(&a);
                a[i] ^= bit;
                assert_ne!(hash64(&a), flipped, "seed {seed:#x}: single-bit flip must matter");
            }
        });
    }

    #[test]
    fn zero_padding_does_not_collide_with_truncation() {
        // Tail handling must not make "abc" equal "abc\0\0".
        for n in 0..24usize {
            let a = vec![7u8; n];
            let mut b = a.clone();
            b.push(0);
            assert_ne!(hash64(&a), hash64(&b), "len {n}");
        }
    }

    /// The avalanche must spread short, structured keys (our encoded
    /// configurations are low-entropy little-endian counters) across the
    /// low bits used for table probing.
    #[test]
    fn low_bits_spread_for_structured_keys() {
        let mut buckets = [0u32; 64];
        for i in 0..4096u32 {
            let mut key = [0u8; 16];
            key[..4].copy_from_slice(&i.to_le_bytes());
            buckets[(hash64(&key) & 63) as usize] += 1;
        }
        let (min, max) = buckets.iter().fold((u32::MAX, 0), |(lo, hi), &b| {
            (lo.min(b), hi.max(b))
        });
        // Perfectly uniform would be 64 per bucket; accept a loose band.
        assert!(min > 16 && max < 192, "skewed: min {min} max {max}");
    }
}
