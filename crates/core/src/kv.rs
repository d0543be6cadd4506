//! Byte-level KV encoding.
//!
//! The default layout is the paper's: an 8-byte header of two `u32`
//! lengths followed by the key and value bytes. The KV-hint optimization
//! drops header halves: a `Fixed(n)` side stores just the payload, a
//! `CStr` side stores the payload plus one NUL terminator. Every buffer in
//! the framework — container pages, send-buffer partitions, the wire —
//! carries this encoding, so a hint shrinks storage *and* communication,
//! as the paper observes.
//!
//! Code that encodes or walks many KVs under one [`KvMeta`] resolves the
//! hints once: `with_sides!` compiles its body for each hint pair over
//! the `Side` types, so the shuffler's placing loop and the run walks
//! pay no hint match a KV. A walk over a run ([`decode_one`], the sinks'
//! run paths) checks that every KV lies inside it — runs cross process
//! boundaries — and answers a KV the run ends inside with
//! [`MimirError::MalformedRun`].

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

/// Copies `src` into `dst`, which has its length: a value or key of
/// 4–16 bytes as two overlapping fixed-width moves, anything else by
/// `copy_from_slice`. A copy of a length known only at run time is
/// otherwise a `memcpy` call, the largest cost of placing an 8-byte
/// value.
#[inline(always)]
pub(crate) fn copy_short(dst: &mut [u8], src: &[u8]) {
    let n = src.len();
    if (8..=16).contains(&n) {
        dst[..8].copy_from_slice(&src[..8]);
        dst[n - 8..].copy_from_slice(&src[n - 8..]);
    } else if (4..8).contains(&n) {
        dst[..4].copy_from_slice(&src[..4]);
        dst[n - 4..].copy_from_slice(&src[n - 4..]);
    } else {
        dst.copy_from_slice(src);
    }
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

/// Appends the encoding of `(key, val)` to `out` (assumes hints were
/// already validated at the emit boundary).
#[inline]
pub fn encode_push(meta: KvMeta, key: &[u8], val: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + encoded_len(meta, key, val), 0);
    encode_into(meta, key, val, &mut out[start..]);
}

/// Encodes `(key, val)` into the front of `out` (which must be at least
/// [`encoded_len`] bytes), returning the bytes written. Allocation-free
/// counterpart of [`encode_push`] for writing straight into pages.
#[inline]
pub(crate) fn encode_into(meta: KvMeta, key: &[u8], val: &[u8], out: &mut [u8]) -> usize {
    let (k, v) = (side_len(meta.key, key), side_len(meta.val, val));
    put_side(meta.key, key, &mut out[..k]);
    put_side(meta.val, val, &mut out[k..k + v]);
    k + v
}

/// One side of the encoding with its hint resolved to a type, so code
/// generic over a pair of them ([`with_sides!`]) pays the hint match once
/// a run or a batch instead of once a KV.
pub(crate) trait Side: Copy {
    /// Bytes the encoding adds to the payload.
    fn overhead(self) -> usize;

    /// [`validate`] under this side's hint.
    fn check(self, bytes: &[u8], what: &str) -> Result<()>;

    /// Encodes `bytes` into `out`, which is exactly
    /// `overhead() + bytes.len()` long.
    fn put(self, bytes: &[u8], out: &mut [u8]);

    /// Splits the side encoded at the front of `buf` into its payload and
    /// the bytes after it: `None` if `buf` ends first (a short `Var`
    /// payload or `Fixed` side, a `CStr` with no terminator).
    fn take(self, buf: &[u8]) -> Option<(&[u8], &[u8])>;
}

/// A [`LenHint::Var`] side: a little-endian `u32` length, then the bytes.
#[derive(Clone, Copy)]
pub(crate) struct VarSide;

/// A [`LenHint::Fixed`] side: exactly this many bare bytes.
#[derive(Clone, Copy)]
pub(crate) struct FixedSide(pub(crate) usize);

/// A [`LenHint::CStr`] side: the bytes, then one NUL.
#[derive(Clone, Copy)]
pub(crate) struct CStrSide;

impl Side for VarSide {
    #[inline(always)]
    fn overhead(self) -> usize {
        4
    }

    #[inline(always)]
    fn check(self, _bytes: &[u8], _what: &str) -> Result<()> {
        Ok(())
    }

    #[inline(always)]
    fn put(self, bytes: &[u8], out: &mut [u8]) {
        let (len, payload) = out.split_at_mut(4);
        len.copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        copy_short(payload, bytes);
    }

    #[inline(always)]
    fn take(self, buf: &[u8]) -> Option<(&[u8], &[u8])> {
        let (len, rest) = buf.split_first_chunk::<4>()?;
        rest.split_at_checked(u32::from_le_bytes(*len) as usize)
    }
}

impl Side for FixedSide {
    #[inline(always)]
    fn overhead(self) -> usize {
        0
    }

    #[inline(always)]
    fn check(self, bytes: &[u8], what: &str) -> Result<()> {
        if bytes.len() == self.0 {
            return Ok(());
        }
        validate(LenHint::Fixed(self.0), bytes, what)
    }

    #[inline(always)]
    fn put(self, bytes: &[u8], out: &mut [u8]) {
        copy_short(out, bytes);
    }

    #[inline(always)]
    fn take(self, buf: &[u8]) -> Option<(&[u8], &[u8])> {
        buf.split_at_checked(self.0)
    }
}

impl Side for CStrSide {
    #[inline(always)]
    fn overhead(self) -> usize {
        1
    }

    #[inline(always)]
    fn check(self, bytes: &[u8], what: &str) -> Result<()> {
        if !has_nul(bytes) {
            return Ok(());
        }
        validate(LenHint::CStr, bytes, what)
    }

    #[inline(always)]
    fn put(self, bytes: &[u8], out: &mut [u8]) {
        let (payload, nul) = out.split_at_mut(bytes.len());
        copy_short(payload, bytes);
        nul[0] = 0;
    }

    #[inline(always)]
    fn take(self, buf: &[u8]) -> Option<(&[u8], &[u8])> {
        let nul = buf.iter().position(|&b| b == 0)?;
        Some((&buf[..nul], &buf[nul + 1..]))
    }
}

/// Evaluates `$body` with `$k` and `$v` bound to `meta`'s key and value
/// hints as [`Side`] values: one copy of the body per hint pair, each
/// compiled for its pair.
macro_rules! with_sides {
    ($meta:expr, |$k:ident, $v:ident| $body:expr) => {{
        use $crate::kv::{CStrSide, FixedSide, VarSide};
        use $crate::LenHint::{CStr, Fixed, Var};
        let meta: $crate::KvMeta = $meta;
        match (meta.key, meta.val) {
            (Var, Var) => {
                let ($k, $v) = (VarSide, VarSide);
                $body
            }
            (Var, Fixed(n)) => {
                let ($k, $v) = (VarSide, FixedSide(n));
                $body
            }
            (Var, CStr) => {
                let ($k, $v) = (VarSide, CStrSide);
                $body
            }
            (Fixed(m), Var) => {
                let ($k, $v) = (FixedSide(m), VarSide);
                $body
            }
            (Fixed(m), Fixed(n)) => {
                let ($k, $v) = (FixedSide(m), FixedSide(n));
                $body
            }
            (Fixed(m), CStr) => {
                let ($k, $v) = (FixedSide(m), CStrSide);
                $body
            }
            (CStr, Var) => {
                let ($k, $v) = (CStrSide, VarSide);
                $body
            }
            (CStr, Fixed(n)) => {
                let ($k, $v) = (CStrSide, FixedSide(n));
                $body
            }
            (CStr, CStr) => {
                let ($k, $v) = (CStrSide, CStrSide);
                $body
            }
        }
    }};
}
pub(crate) use with_sides;

/// [`Side::put`] under a hint known only at run time: `out` is exactly
/// the side's encoded length.
#[inline]
pub(crate) fn put_side(hint: LenHint, bytes: &[u8], out: &mut [u8]) {
    match hint {
        LenHint::Var => VarSide.put(bytes, out),
        LenHint::Fixed(n) => FixedSide(n).put(bytes, out),
        LenHint::CStr => CStrSide.put(bytes, out),
    }
}

/// [`Side::take`] under a hint known only at run time: how a KMVC reader
/// walks a chunk whose storage its header names.
#[inline]
pub(crate) fn take_side(hint: LenHint, buf: &[u8]) -> Option<(&[u8], &[u8])> {
    match hint {
        LenHint::Var => VarSide.take(buf),
        LenHint::Fixed(n) => FixedSide(n).take(buf),
        LenHint::CStr => CStrSide.take(buf),
    }
}

/// Splits the KV encoded at the front of `buf` into its key, its value
/// and the bytes after it, or `None` if `buf` ends inside it.
#[inline]
pub(crate) fn take_kv<K: Side, V: Side>(k: K, v: V, buf: &[u8]) -> Option<(&[u8], &[u8], &[u8])> {
    let (key, rest) = k.take(buf)?;
    let (val, rest) = v.take(rest)?;
    Some((key, val, rest))
}

/// The KVs of an encoded run under the hint pair `(k, v)`, in order,
/// ending with a [`MimirError::MalformedRun`] item if the run ends
/// inside a KV: the checked walk every sink's run path takes.
pub(crate) struct RunKvs<'a, K, V> {
    k: K,
    v: V,
    run_len: usize,
    rest: &'a [u8],
}

impl<'a, K: Side, V: Side> RunKvs<'a, K, V> {
    #[inline]
    pub(crate) fn new(k: K, v: V, run: &'a [u8]) -> Self {
        Self {
            k,
            v,
            run_len: run.len(),
            rest: run,
        }
    }
}

impl<'a, K: Side, V: Side> Iterator for RunKvs<'a, K, V> {
    type Item = Result<(&'a [u8], &'a [u8])>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let Some((key, val, rest)) = take_kv(self.k, self.v, self.rest) else {
            let at = self.run_len - self.rest.len();
            self.rest = &[];
            return Some(Err(malformed(at, self.run_len)));
        };
        self.rest = rest;
        Some(Ok((key, val)))
    }
}

/// The error for a run with no whole KV at byte `offset` of its
/// `run_len`: a short run, or a garbled length or terminator.
#[cold]
pub(crate) fn malformed(offset: usize, run_len: usize) -> MimirError {
    MimirError::MalformedRun { offset, run_len }
}

/// A KV [`decode_one`] read: its key, its value and the bytes it took.
pub type DecodedKv<'a> = (&'a [u8], &'a [u8], usize);

/// Decodes the KV starting at the beginning of `buf`, returning
/// `(key, val, bytes_consumed)`, or `None` if `buf` is empty.
///
/// # Errors
/// [`MimirError::MalformedRun`] if `buf` ends inside the KV: a truncated
/// buffer, or a length prefix or `CStr` terminator that does not fit it.
/// Encoded bytes can come from another process (the UDS transport) or a
/// spill file, so a malformed buffer is an input error, not a bug.
#[inline]
pub fn decode_one(meta: KvMeta, buf: &[u8]) -> Result<Option<DecodedKv<'_>>> {
    if buf.is_empty() {
        return Ok(None);
    }
    with_sides!(meta, |k, v| match take_kv(k, v, buf) {
        Some((key, val, rest)) => Ok(Some((key, val, buf.len() - rest.len()))),
        None => Err(malformed(0, buf.len())),
    })
}

/// Iterator over the KVs of an encoded buffer the framework wrote itself
/// — a container page or a cached partition. Runs that crossed a
/// transport are walked by the sinks' checked passes instead
/// ([`crate::KvSink::accept_run`]).
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

    /// # Panics
    /// On a buffer that ends inside a KV, which the framework's own pages
    /// never do.
    fn next(&mut self) -> Option<Self::Item> {
        let (k, v, used) = decode_one(self.meta, self.buf).expect("KvDecoder over whole KVs")?;
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
