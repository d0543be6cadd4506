//! Result encoding for multi-process worlds.
//!
//! With the in-process backend a rank's result moves to the caller as a
//! plain Rust value. With the UDS backend ranks are forked processes,
//! so [`crate::run_world_on`] needs each rank's result as bytes. [`Wire`]
//! is the minimal self-describing encoding that makes the same SPMD
//! closure runnable on both backends: little-endian fixed-width
//! integers, `u64` length prefixes for sequences, and a presence byte
//! for `Option`.
//!
//! Implementations exist for the primitive types, `String`, `Vec<T>`,
//! `Option<T>`, and tuples up to arity 6 — enough to carry test and
//! bench results. Downstream crates implement it for their own result
//! types.

use mimir_obs::Counter;

/// A value that can cross a process boundary as bytes.
///
/// `wire_read` consumes from the front of `buf` and returns `None` on
/// truncated or malformed input (decoding must never panic: the bytes
/// crossed a process boundary).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn wire_write(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `buf`, advancing it.
    fn wire_read(buf: &mut &[u8]) -> Option<Self>;
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn wire_read(buf: &mut &[u8]) -> Option<Self> {
                let bytes = take(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64, f64);

impl Wire for usize {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (*self as u64).wire_write(out);
    }
    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::wire_read(buf)?).ok()
    }
}

impl Wire for bool {
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_read(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for () {
    fn wire_write(&self, _out: &mut Vec<u8>) {}
    fn wire_read(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl Wire for String {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u64).wire_write(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::wire_read(buf)?;
        let bytes = take(buf, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u64).wire_write(out);
        for item in self {
            item.wire_write(out);
        }
    }
    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::wire_read(buf)?;
        // Guard against corrupt length prefixes: never pre-reserve more
        // items than bytes remain.
        if len > buf.len() && std::mem::size_of::<T>() > 0 {
            return None;
        }
        let mut out = Vec::with_capacity(len.min(buf.len().max(1)));
        for _ in 0..len {
            out.push(T::wire_read(buf)?);
        }
        Some(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_write(out);
            }
        }
    }
    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_read(buf)? {
            0 => Some(None),
            1 => Some(Some(T::wire_read(buf)?)),
            _ => None,
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn wire_write(&self, out: &mut Vec<u8>) {
                $(self.$idx.wire_write(out);)+
            }
            fn wire_read(buf: &mut &[u8]) -> Option<Self> {
                Some(($($name::wire_read(buf)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// One `u64` per counter, in declaration order.
impl Wire for mimir_obs::CommCounters {
    fn wire_write(&self, out: &mut Vec<u8>) {
        let mut words = Vec::new();
        Counter::words(self, &mut words);
        words.iter().for_each(|w| w.wire_write(out));
    }
    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        Counter::from_words(&mut std::iter::from_fn(|| u64::wire_read(buf)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut bytes = Vec::new();
        v.wire_write(&mut bytes);
        let mut slice = &bytes[..];
        assert_eq!(T::wire_read(&mut slice), Some(v));
        assert!(slice.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-7i64);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip(());
        roundtrip(usize::MAX);
        roundtrip("héllo".to_string());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![vec![b'a'], vec![], vec![b'b', b'c']]);
        roundtrip(Some(vec![(1u64, "x".to_string())]));
        roundtrip(None::<u64>);
        roundtrip((1u8, 2u64, "three".to_string(), vec![4u32], Some(5i64), ()));
    }

    #[test]
    fn truncated_input_is_none_not_panic() {
        let mut bytes = Vec::new();
        vec![1u64, 2, 3].wire_write(&mut bytes);
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert_eq!(Vec::<u64>::wire_read(&mut slice), None, "cut at {cut}");
        }
        // A corrupt (huge) length prefix must not OOM the decoder.
        let mut slice: &[u8] = &u64::MAX.to_le_bytes();
        assert_eq!(Vec::<u64>::wire_read(&mut slice), None);
    }

    #[test]
    fn comm_stats_roundtrip() {
        let s = mimir_obs::CommCounters {
            sends: 3,
            bytes_recvd: 999,
            wire_bytes_sent: 17,
            handshake_ns: 42,
            ..Default::default()
        };
        roundtrip(s);
    }
}
