//! Key hashing and partitioning.
//!
//! A hand-rolled Fx-style multiply-xor hash (the rustc hash): very fast on
//! short keys, good enough distribution for partitioning, and dependency-
//! free. HashDoS resistance is irrelevant here — keys come from the job's
//! own dataset.
//!
//! Range reduction (hash → partition, hash → table slot) uses Lemire's
//! multiply-shift instead of `%`: `(hash * n) >> 64` maps a uniform 64-bit
//! hash onto `0..n` without a division, which costs ~20 cycles against the
//! multiply's ~3 on current cores. The map consumes the *high* hash bits,
//! which the Murmur3 finalizer fully avalanches.

const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

/// A key of at most [`SHORT_KEY`] bytes as two little-endian words
/// (bytes 0..8 and 8..16), zero above its length: what a copy into a
/// zeroed 16-byte buffer would hold, read with fixed-width loads
/// instead of a variable-length copy. Past 8 bytes the second word is
/// the key's last eight bytes shifted down over the bytes the first
/// already holds; 4–7 bytes are two overlapping `u32`s; 1–3 bytes the
/// first, middle and last byte. The branches split on length classes
/// only, so a stream of equal-length keys predicts them all.
#[inline]
pub(crate) fn load_short(bytes: &[u8]) -> (u64, u64) {
    let n = bytes.len();
    debug_assert!(n <= SHORT_KEY);
    let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    if n >= 8 {
        let hi = u64_at(n - 8).checked_shr(8 * (16 - n) as u32).unwrap_or(0);
        return (u64_at(0), hi);
    }
    if n >= 4 {
        let u32_at = |i: usize| {
            u64::from(u32::from_le_bytes(
                bytes[i..i + 4].try_into().expect("4 bytes"),
            ))
        };
        return (u32_at(0) | u32_at(n - 4) << (8 * (n - 4)), 0);
    }
    if n == 0 {
        return (0, 0);
    }
    let byte_at = |i: usize| u64::from(bytes[i]) << (8 * i);
    (byte_at(0) | byte_at(n / 2) | byte_at(n - 1), 0)
}

/// The longest key [`load_short`] takes.
pub(crate) const SHORT_KEY: usize = 16;

#[inline]
fn fx_round(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Fx-style hash of a byte string: one multiply-xor round per 8-byte
/// little-endian word, the last partial word zero-padded with its length
/// in the top byte, then a Murmur3 finalizer.
#[inline]
pub fn fxhash64(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    if n <= SHORT_KEY {
        let (lo, hi) = load_short(bytes);
        return fxhash_short(lo, hi, n);
    }
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = fx_round(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder().len();
    if rem != 0 {
        // The tail is the top of the key's last eight bytes.
        let last = bytes[n - 8..].try_into().expect("8-byte tail");
        h = fx_round(
            h,
            u64::from_le_bytes(last) >> (8 * (8 - rem)) | (rem as u64) << 56,
        );
    }
    finish(h)
}

/// [`fxhash64`] of a key of `n` ≤ [`SHORT_KEY`] bytes, given as its
/// [`load_short`] words: callers that keep the words (the group index's
/// inline keys) load the key once.
#[inline]
pub(crate) fn fxhash_short(lo: u64, hi: u64, n: usize) -> u64 {
    // The same rounds on the two loaded words: round one takes bytes
    // 0..8 (a partial word under 8 bytes carries the length mark, picked
    // by a select), round two bytes 8..16 (marked unless whole) and runs
    // only for a key with bytes past 8 — a branch that follows
    // `load_short`'s own length-class branch.
    let tail_mark = ((n & 7) as u64) << 56;
    let first = fx_round(0, lo | if n < 8 { tail_mark } else { 0 });
    finish(if n > 8 {
        fx_round(first, hi | tail_mark)
    } else {
        first
    })
}

/// Murmur3 finalizer: full avalanche so every bit of the hash — the
/// partitioner and the group table both consume the high bits via
/// multiply-shift — depends on every input bit.
#[inline]
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Lemire multiply-shift fast range reduction: maps a uniform 64-bit
/// `hash` onto `0..n` without a division.
#[inline]
pub fn fast_range(hash: u64, n: usize) -> usize {
    ((u128::from(hash) * n as u128) >> 64) as usize
}

/// The destination partition (rank) of `key` among `n_parts` — the
/// default hash-partitioner of both frameworks.
#[inline]
pub fn partition_of(key: &[u8], n_parts: usize) -> usize {
    fast_range(fxhash64(key), n_parts)
}

/// [`partition_of`] for a key whose hash is already known (the shuffle
/// plumbs hashes computed by the combiner through
/// [`crate::Emitter::emit_hashed`] so they are not recomputed).
#[inline]
pub fn partition_of_hashed(hash: u64, n_parts: usize) -> usize {
    fast_range(hash, n_parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_hash_differently() {
        let inputs: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| format!("key-{i}").into_bytes())
            .collect();
        let hashes: std::collections::HashSet<u64> = inputs.iter().map(|b| fxhash64(b)).collect();
        assert_eq!(hashes.len(), inputs.len());
    }

    #[test]
    fn short_keys_of_different_length_differ() {
        assert_ne!(fxhash64(b"a"), fxhash64(b"a\0"));
        assert_ne!(fxhash64(b""), fxhash64(b"\0"));
    }

    #[test]
    fn partitioning_is_roughly_balanced() {
        let n_parts = 16;
        let mut counts = vec![0usize; n_parts];
        for i in 0..16_000u32 {
            counts[partition_of(format!("word{i}").as_bytes(), n_parts)] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max < min * 2, "partition imbalance: min {min}, max {max}");
    }

    /// The reference tail formula: copy the remainder into a zeroed word,
    /// length in the top byte. `fxhash64` must equal it bit for bit, or
    /// partitions, group order and peaks would move.
    fn fxhash64_byte_copy(bytes: &[u8]) -> u64 {
        let mut h = 0u64;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().unwrap());
            h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] = rem.len() as u8;
            h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(SEED);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    #[test]
    fn hash_is_bit_identical_to_the_byte_copy_formula() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for len in 0..=40usize {
            for trial in 0..64 {
                let key: Vec<u8> = (0..len)
                    .map(|i| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Trial 0 is all NUL, trial 1 all 0xFF: the
                        // padding and top-byte edge cases.
                        match trial {
                            0 => 0,
                            1 => 0xFF,
                            _ => (x >> (i % 8 * 8)) as u8,
                        }
                    })
                    .collect();
                assert_eq!(fxhash64(&key), fxhash64_byte_copy(&key), "{key:?}");
            }
        }
        // Pinned values, so the reference itself cannot drift.
        for (key, want) in PINNED {
            assert_eq!(fxhash64(key), *want, "{key:?}");
        }
    }

    /// `fxhash64` values pinned from the byte-copy formula.
    const PINNED: &[(&[u8], u64)] = &[
        (b"", 0x0000_0000_0000_0000),
        (b"a", 0x6b16_d05a_8091_cb5f),
        (b"mimir", 0x289c_f921_1c15_90cd),
        (b"wikipedia", 0x9d2d_b912_0ba3_7951),
        (b"supercalifragilistic", 0x89d8_fa64_9d91_24b9),
        (
            b"0123456789abcdef0123456789abcdef01234567",
            0x986f_b343_91c1_f9fe,
        ),
    ];

    #[test]
    fn load_short_matches_a_zero_padded_copy() {
        let src: Vec<u8> = (1..=16).collect();
        for n in 0..=SHORT_KEY {
            let mut word = [0u8; 16];
            word[..n].copy_from_slice(&src[..n]);
            let (lo, hi) = load_short(&src[..n]);
            assert_eq!(
                u128::from(lo) | u128::from(hi) << 64,
                u128::from_le_bytes(word),
                "n = {n}"
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(fxhash64(b"mimir"), fxhash64(b"mimir"));
    }

    #[test]
    fn fast_range_is_total_and_balanced() {
        for n in [1usize, 3, 7, 16, 1000] {
            let mut counts = vec![0usize; n];
            for i in 0..(n as u64 * 1000) {
                let d = fast_range(fxhash64(&i.to_le_bytes()), n);
                assert!(d < n);
                counts[d] += 1;
            }
            let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(max < min * 2, "n={n}: min {min}, max {max}");
        }
    }

    #[test]
    fn fast_range_extremes() {
        assert_eq!(fast_range(0, 17), 0);
        assert_eq!(fast_range(u64::MAX, 17), 16);
        assert_eq!(fast_range(u64::MAX, 1), 0);
    }

    #[test]
    fn partition_of_matches_hashed_variant() {
        for i in 0..1000u64 {
            let k = i.to_le_bytes();
            for n in [1usize, 2, 7, 64] {
                assert_eq!(partition_of(&k, n), partition_of_hashed(fxhash64(&k), n));
            }
        }
    }
}
