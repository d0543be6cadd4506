//! Small codecs for the fixed-width keys and values the benchmarks use,
//! so application code does not hand-roll byte fiddling.

/// Encodes a `u64` little-endian (the WordCount value, BFS vertex id…).
#[inline]
pub fn enc_u64(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Decodes a `u64` from an 8-byte slice.
///
/// # Panics
/// Panics if `b` is not exactly 8 bytes.
#[inline]
pub fn dec_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte u64 value"))
}

/// Encodes a pair of `u64`s (the paper's 128-bit edge representation).
#[inline]
pub fn enc_u64_pair(a: u64, b: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

/// Decodes a pair of `u64`s from a 16-byte slice.
///
/// # Panics
/// Panics if `b` is not exactly 16 bytes.
#[inline]
pub fn dec_u64_pair(b: &[u8]) -> (u64, u64) {
    (dec_u64(&b[..8]), dec_u64(&b[8..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        for v in [0, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(dec_u64(&enc_u64(v)), v);
        }
    }

    #[test]
    fn pair_roundtrip() {
        assert_eq!(dec_u64_pair(&enc_u64_pair(3, u64::MAX)), (3, u64::MAX));
    }
}
