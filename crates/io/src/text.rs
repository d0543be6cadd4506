//! Zero-copy record iteration over in-memory text buffers.
//!
//! Ranks hold their input split as one contiguous byte buffer (read once,
//! per the I/O model); map phases then iterate records without further
//! allocation, per the perf-book guidance on avoiding per-line `String`s.

/// Iterator over `\n`-terminated lines of a byte buffer, yielding slices
/// without the terminator. A final unterminated line is yielded too;
/// empty lines are skipped.
pub struct LineReader<'a> {
    rest: &'a [u8],
}

impl<'a> LineReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { rest: data }
    }
}

impl<'a> Iterator for LineReader<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            if self.rest.is_empty() {
                return None;
            }
            let (line, rest) = match self.rest.iter().position(|&b| b == b'\n') {
                Some(pos) => (&self.rest[..pos], &self.rest[pos + 1..]),
                None => (self.rest, &[][..]),
            };
            self.rest = rest;
            if !line.is_empty() {
                return Some(line);
            }
        }
    }
}

/// Calls `f` for every non-empty line of `data`.
pub fn for_each_line(data: &[u8], mut f: impl FnMut(&[u8])) {
    for line in LineReader::new(data) {
        f(line);
    }
}

/// Iterator over the whitespace-separated words of `text`: the words of
/// `text.split(u8::is_ascii_whitespace)`, empty ones dropped. `'\n'` is
/// whitespace, so the words of a whole share are the words of its lines
/// in [`LineReader`] order.
///
/// The scan classifies 64 bytes at a time into a whitespace bitmask (see
/// `whitespace_mask`), turns it into word-start and word-end masks with
/// one bit of carry from the block before, and cuts each word out by
/// `trailing_zeros` — no per-byte branch. The buffer's tail is classified
/// from a copy padded with spaces, which also closes a word that runs to
/// the end of `text`.
pub fn words(text: &[u8]) -> impl Iterator<Item = &[u8]> {
    Words {
        text,
        next_block: 0,
        base: 0,
        starts: 0,
        ends: 0,
        carry: 0,
    }
}

const BLOCK: usize = 64;

struct Words<'a> {
    text: &'a [u8],
    /// Offset of the next block to classify; past `text.len()` once the
    /// padded tail block has been classified.
    next_block: usize,
    /// Offset of the block `starts` and `ends` describe.
    base: usize,
    /// Bit `i`: a word starts at `base + i`. Bits already yielded are
    /// cleared.
    starts: u64,
    /// Bit `i`: a word ends just before `base + i`.
    ends: u64,
    /// 1 if the last byte of the block before `base` is in a word.
    carry: u64,
}

impl Words<'_> {
    /// Classifies the next block. False once the whole text (and the
    /// padded block after it) has been classified.
    fn advance(&mut self) -> bool {
        let at = self.next_block;
        let rest = match self.text.get(at..) {
            Some(rest) => rest,
            None => return false,
        };
        let ws = match rest.first_chunk::<BLOCK>() {
            Some(block) => whitespace_mask(block),
            None => {
                let mut block = [b' '; BLOCK];
                block[..rest.len()].copy_from_slice(rest);
                whitespace_mask(&block)
            }
        };
        let word = !ws;
        let prev = (word << 1) | self.carry;
        self.starts = word & !prev;
        self.ends = ws & prev;
        self.carry = word >> 63;
        self.base = at;
        self.next_block = at + BLOCK;
        true
    }
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        // Between calls the scan is outside a word: every end before the
        // lowest pending start has been consumed.
        while self.starts == 0 {
            if !self.advance() {
                return None;
            }
        }
        let start = self.base + self.starts.trailing_zeros() as usize;
        self.starts &= self.starts - 1;
        while self.ends == 0 {
            // The padded tail block always ends a word, so the text
            // cannot run out here.
            if !self.advance() {
                return Some(&self.text[start..]);
            }
        }
        let end = self.base + self.ends.trailing_zeros() as usize;
        self.ends &= self.ends - 1;
        Some(&self.text[start..end])
    }
}

/// Bit `i` set iff `block[i]` is ASCII whitespace (`u8::is_ascii_whitespace`:
/// space, `\t`, `\n`, `\x0C`, `\r`).
///
/// Portable SWAR: per 8-byte word, a byte equals `c` exactly when
/// `x ^ c` is a zero byte, which `((t & 0x7F..) + 0x7F..) | t` detects in
/// each byte's top bit without a carry into the next byte. The five
/// top-bit masks are combined, and a multiply gathers the eight top bits
/// into one byte of the block mask.
#[inline]
fn whitespace_mask(block: &[u8; BLOCK]) -> u64 {
    const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const ONES: u64 = 0x0101_0101_0101_0101;
    /// Moves bit `8i` of its operand to bit `56 + i`.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    #[inline(always)]
    fn nonzero_tops(t: u64) -> u64 {
        ((t & LO7) + LO7) | t
    }
    let mut mask = 0;
    for (i, word) in block.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        let not_ws = nonzero_tops(x ^ (ONES * 0x20))
            & nonzero_tops(x ^ (ONES * 0x09))
            & nonzero_tops(x ^ (ONES * 0x0A))
            & nonzero_tops(x ^ (ONES * 0x0C))
            & nonzero_tops(x ^ (ONES * 0x0D));
        let tops = (!not_ws >> 7) & ONES;
        mask |= (tops.wrapping_mul(GATHER) >> 56) << (8 * i);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_with_and_without_trailing_newline() {
        let got: Vec<_> = LineReader::new(b"a\nbb\nccc").collect();
        assert_eq!(got, vec![&b"a"[..], b"bb", b"ccc"]);
        let got: Vec<_> = LineReader::new(b"a\nbb\n").collect();
        assert_eq!(got, vec![&b"a"[..], b"bb"]);
    }

    #[test]
    fn empty_lines_are_skipped() {
        let got: Vec<_> = LineReader::new(b"\n\na\n\n\nb\n").collect();
        assert_eq!(got, vec![&b"a"[..], b"b"]);
        assert_eq!(LineReader::new(b"").count(), 0);
        assert_eq!(LineReader::new(b"\n\n").count(), 0);
    }

    #[test]
    fn words_split_on_any_whitespace() {
        let got: Vec<_> = words(b"  the quick\tbrown   fox ").collect();
        assert_eq!(got, vec![&b"the"[..], b"quick", b"brown", b"fox"]);
        assert_eq!(words(b"   \t ").count(), 0);
    }

    #[test]
    fn for_each_line_visits_all() {
        let mut n = 0;
        for_each_line(b"x\ny\nz", |_| n += 1);
        assert_eq!(n, 3);
    }
}
