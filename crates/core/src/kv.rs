//! Byte-level KV encoding.
//!
//! The default layout is the paper's: an 8-byte header of two `u32`
//! lengths followed by the key and value bytes. The KV-hint optimization
//! drops header halves: a `Fixed(n)` side stores just the payload, a
//! `CStr` side stores the payload plus one NUL terminator. Every buffer in
//! the framework — container pages, send-buffer partitions, the wire —
//! carries this encoding, so a hint shrinks storage *and* communication,
//! as the paper observes.

use crate::hash::{load_short, SHORT_KEY};
use crate::{KvMeta, LenHint, MimirError, Result};

/// Checks `bytes` against a hint.
///
/// # Errors
/// [`MimirError::HintViolation`] if a `Fixed` length mismatches or a
/// `CStr` payload contains an interior NUL.
#[inline]
pub(crate) fn validate(hint: LenHint, bytes: &[u8], what: &str) -> Result<()> {
    match hint {
        LenHint::Var => Ok(()),
        LenHint::Fixed(n) if bytes.len() == n => Ok(()),
        LenHint::Fixed(n) => Err(MimirError::HintViolation(format!(
            "{what} of {} B under Fixed({n}) hint",
            bytes.len()
        ))),
        LenHint::CStr if !has_nul(bytes) => Ok(()),
        LenHint::CStr => Err(MimirError::HintViolation(format!(
            "{what} contains an interior NUL under the CStr hint"
        ))),
    }
}

/// Whether `bytes` holds a NUL, by a zero-byte test on whole 8-byte
/// words: a key of up to 16 bytes is tested on its two [`load_short`]
/// words, padded with `0x01` bytes; a longer one word by word, plus its
/// (overlapping) last eight bytes.
#[inline]
fn has_nul(bytes: &[u8]) -> bool {
    const ONES: u64 = u64::MAX / 0xFF;
    // Nonzero exactly when `w` has a zero byte.
    let zero_bytes = |w: u64| w.wrapping_sub(ONES) & !w & (ONES << 7);
    let n = bytes.len();
    if n <= SHORT_KEY {
        // Pad with 0x01 bytes, which are not NUL.
        let (lo, hi) = load_short(bytes);
        let pad = |from: usize| ONES.checked_shl(8 * from as u32).unwrap_or(0);
        return zero_bytes(lo | pad(n)) | zero_bytes(hi | pad(n.saturating_sub(8))) != 0;
    }
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    bytes
        .chunks_exact(8)
        .chain([&bytes[n - 8..]])
        .any(|w| zero_bytes(word(w)) != 0)
}

#[inline]
fn side_len(hint: LenHint, bytes: &[u8]) -> usize {
    hint.overhead() + bytes.len()
}

/// Encoded size of one KV under `meta` (assumes hints validated).
#[inline]
pub fn encoded_len(meta: KvMeta, key: &[u8], val: &[u8]) -> usize {
    side_len(meta.key, key) + side_len(meta.val, val)
}

#[inline]
fn push_side(hint: LenHint, bytes: &[u8], out: &mut Vec<u8>) {
    match hint {
        LenHint::Var => {
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        LenHint::Fixed(_) => out.extend_from_slice(bytes),
        LenHint::CStr => {
            out.extend_from_slice(bytes);
            out.push(0);
        }
    }
}

/// Appends the encoding of `(key, val)` to `out` (assumes hints were
/// already validated at the emit boundary).
#[inline]
pub fn encode_push(meta: KvMeta, key: &[u8], val: &[u8], out: &mut Vec<u8>) {
    push_side(meta.key, key, out);
    push_side(meta.val, val, out);
}

#[inline]
pub(crate) fn write_side(hint: LenHint, bytes: &[u8], out: &mut [u8], off: usize) -> usize {
    match hint {
        LenHint::Var => {
            out[off..off + 4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
            out[off + 4..off + 4 + bytes.len()].copy_from_slice(bytes);
            off + 4 + bytes.len()
        }
        LenHint::Fixed(_) => {
            out[off..off + bytes.len()].copy_from_slice(bytes);
            off + bytes.len()
        }
        LenHint::CStr => {
            out[off..off + bytes.len()].copy_from_slice(bytes);
            out[off + bytes.len()] = 0;
            off + bytes.len() + 1
        }
    }
}

/// Encodes `(key, val)` into the front of `out` (which must be at least
/// [`encoded_len`] bytes), returning the bytes written. Allocation-free
/// counterpart of [`encode_push`] for writing straight into pages.
#[inline]
pub(crate) fn encode_into(meta: KvMeta, key: &[u8], val: &[u8], out: &mut [u8]) -> usize {
    let off = write_side(meta.key, key, out, 0);
    write_side(meta.val, val, out, off)
}

#[inline]
pub(crate) fn decode_side(
    hint: LenHint,
    buf: &[u8],
    off: usize,
) -> (std::ops::Range<usize>, usize) {
    match hint {
        LenHint::Var => {
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("u32 length prefix"))
                as usize;
            (off + 4..off + 4 + len, off + 4 + len)
        }
        LenHint::Fixed(n) => (off..off + n, off + n),
        LenHint::CStr => {
            let nul = buf[off..]
                .iter()
                .position(|&b| b == 0)
                .expect("NUL terminator in CStr-encoded buffer");
            (off..off + nul, off + nul + 1)
        }
    }
}

/// Lengths-only walk over the KV starting at `off`: the byte ranges of
/// its key and value and the offset just past it. Only headers and
/// terminators are read — no payload slice is formed — so boundary scans
/// ([`crate::KvContainer::push_run`]) and full decodes ([`decode_one`])
/// share one walk.
#[inline]
pub(crate) fn kv_span(
    meta: KvMeta,
    buf: &[u8],
    off: usize,
) -> (std::ops::Range<usize>, std::ops::Range<usize>, usize) {
    let (krange, koff) = decode_side(meta.key, buf, off);
    let (vrange, end) = decode_side(meta.val, buf, koff);
    (krange, vrange, end)
}

/// Decodes the KV starting at the beginning of `buf`, returning
/// `(key, val, bytes_consumed)`, or `None` if `buf` is empty.
///
/// # Panics
/// Panics on a truncated or malformed buffer — encoded buffers are
/// framework-internal, so that is a bug, not an input error.
#[inline]
pub fn decode_one(meta: KvMeta, buf: &[u8]) -> Option<(&[u8], &[u8], usize)> {
    if buf.is_empty() {
        return None;
    }
    let (krange, vrange, end) = kv_span(meta, buf, 0);
    Some((&buf[krange], &buf[vrange], end))
}

/// Iterator over the KVs of an encoded buffer.
pub struct KvDecoder<'a> {
    meta: KvMeta,
    buf: &'a [u8],
}

impl<'a> KvDecoder<'a> {
    /// Decodes `buf`, which must hold zero or more whole KVs under `meta`.
    pub fn new(meta: KvMeta, buf: &'a [u8]) -> Self {
        Self { meta, buf }
    }
}

impl<'a> Iterator for KvDecoder<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, v, used) = decode_one(self.meta, self.buf)?;
        self.buf = &self.buf[used..];
        Some((k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(meta: KvMeta, kvs: &[(&[u8], &[u8])]) {
        let mut buf = Vec::new();
        for (k, v) in kvs {
            validate(meta.key, k, "key").unwrap();
            validate(meta.val, v, "value").unwrap();
            encode_push(meta, k, v, &mut buf);
        }
        let decoded: Vec<(Vec<u8>, Vec<u8>)> = KvDecoder::new(meta, &buf)
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            kvs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(decoded, expected, "meta {meta:?}");
        assert_eq!(
            buf.len(),
            kvs.iter()
                .map(|(k, v)| encoded_len(meta, k, v))
                .sum::<usize>()
        );
    }

    #[test]
    fn var_var_roundtrip() {
        roundtrip(
            KvMeta::var(),
            &[(b"hello", b"world"), (b"", b""), (b"k", b"vvvvvvvvvv")],
        );
    }

    #[test]
    fn wordcount_hint_roundtrip() {
        roundtrip(
            KvMeta::cstr_key_u64_val(),
            &[
                (b"the", &7u64.to_le_bytes()),
                (b"supercalifragilistic", &1u64.to_le_bytes()),
            ],
        );
    }

    #[test]
    fn fixed_fixed_roundtrip() {
        roundtrip(
            KvMeta::fixed(8, 16),
            &[(&[1u8; 8], &[2u8; 16]), (&[3u8; 8], &[4u8; 16])],
        );
    }

    #[test]
    fn mixed_hints_roundtrip() {
        let meta = KvMeta {
            key: LenHint::Var,
            val: LenHint::CStr,
        };
        roundtrip(meta, &[(b"anything\0here", b"no nuls")]);
    }

    #[test]
    fn hint_savings_match_paper_arithmetic() {
        // The paper's Figure 7 case: variable word key, u64 value.
        let word = b"wikipedia";
        let val = 42u64.to_le_bytes();
        let plain = encoded_len(KvMeta::var(), word, &val);
        let hinted = encoded_len(KvMeta::cstr_key_u64_val(), word, &val);
        assert_eq!(plain, 8 + 9 + 8);
        assert_eq!(hinted, 9 + 1 + 8);
        assert_eq!(plain - hinted, 7); // 8-byte header → 1-byte NUL
    }

    #[test]
    fn fixed_hint_violations_are_rejected() {
        assert!(validate(LenHint::Fixed(8), b"short", "key").is_err());
        assert!(validate(LenHint::Fixed(5), b"exact", "key").is_ok());
    }

    #[test]
    fn cstr_hint_rejects_interior_nul() {
        assert!(validate(LenHint::CStr, b"a\0b", "key").is_err());
        assert!(validate(LenHint::CStr, b"ab", "key").is_ok());
        assert!(validate(LenHint::CStr, b"", "key").is_ok());
    }

    #[test]
    fn has_nul_finds_a_nul_at_every_position() {
        for len in 0..=40usize {
            // 0x01 and 0x80 are the bytes a borrow-based zero test could
            // mistake for NUL.
            for fill in [b'a', 0x01, 0x80, 0xFF] {
                let clean = vec![fill; len];
                assert!(!has_nul(&clean), "len {len} fill {fill:#x}");
                for at in 0..len {
                    let mut key = clean.clone();
                    key[at] = 0;
                    assert!(has_nul(&key), "len {len} NUL at {at}");
                }
            }
        }
    }

    #[test]
    fn decoder_on_empty_buffer_yields_nothing() {
        assert_eq!(KvDecoder::new(KvMeta::var(), b"").count(), 0);
    }
}
