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

/// Fx-style hash of a byte string.
#[inline]
pub fn fxhash64(bytes: &[u8]) -> u64 {
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        tail[7] = rem.len() as u8; // length-distinguish short tails
        let w = u64::from_le_bytes(tail);
        h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
    // Murmur3 finalizer: full avalanche so every bit of the hash — the
    // partitioner and the group table both consume the high bits via
    // multiply-shift — depends on every input bit.
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
