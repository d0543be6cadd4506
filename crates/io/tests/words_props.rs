//! Property tests of the block word scanner: `words(buf)` must yield
//! exactly the non-empty pieces of `buf.split(u8::is_ascii_whitespace)`,
//! whatever the bytes, the length and the buffer's alignment, including
//! words that span or end exactly at a 64-byte block edge.

use mimir_datagen::Xoshiro256pp;
use mimir_io::{words, LineReader};

/// The reference semantics, written independently of the scanner.
fn oracle(buf: &[u8]) -> Vec<&[u8]> {
    buf.split(u8::is_ascii_whitespace)
        .filter(|w| !w.is_empty())
        .collect()
}

fn check(buf: &[u8]) {
    let got: Vec<&[u8]> = words(buf).collect();
    assert_eq!(got, oracle(buf), "buffer {buf:?}");
}

/// Separators, bytes that look like separators but are not (`0x0B`, NUL,
/// bytes ≥ 0x80), and letters.
const ALPHABET: &[u8] = b" \t\n\x0C\r\x0B\0\x80\xFF\xA0\x85abcxyz";

fn random_buf(rng: &mut Xoshiro256pp, len: usize) -> Vec<u8> {
    // Vary the whitespace density so long words and long gaps both occur.
    let ws_percent = rng.gen_range(0..101);
    (0..len)
        .map(|_| {
            if rng.gen_range(0..100) < ws_percent {
                b" \t\n\x0C\r"[rng.gen_range(0..5)]
            } else {
                ALPHABET[rng.gen_range(5..ALPHABET.len())]
            }
        })
        .collect()
}

#[test]
fn random_buffers_at_every_offset_match_the_split() {
    let mut rng = Xoshiro256pp::seed_from_u64(34);
    let mut backing = vec![0u8; 64 + 300];
    for len in 0..=300 {
        for _ in 0..4 {
            let body = random_buf(&mut rng, len);
            for offset in 0..64 {
                backing[offset..offset + len].copy_from_slice(&body);
                check(&backing[offset..offset + len]);
            }
        }
    }
}

#[test]
fn every_byte_value_classifies_like_is_ascii_whitespace() {
    for b in 0..=255u8 {
        for len in [1usize, 7, 8, 63, 64, 65] {
            let mut buf = vec![b'a'; len];
            buf[len / 2] = b;
            check(&buf);
            let mut buf = vec![b' '; len];
            buf[len / 2] = b;
            check(&buf);
        }
    }
}

#[test]
fn words_longer_than_a_block_and_across_block_edges() {
    for len in [63usize, 64, 65, 127, 128, 129, 200] {
        let long = vec![b'w'; len];
        check(&long);
        for lead in [0usize, 1, 30, 63, 64] {
            let mut buf = vec![b' '; lead];
            buf.extend_from_slice(&long);
            check(&buf);
            buf.push(b'\n');
            check(&buf);
            buf.extend_from_slice(b"tail");
            check(&buf);
        }
    }
    // A word ending exactly at each block edge, then one starting there.
    for edge in [64usize, 128, 192] {
        let mut buf = vec![b'x'; edge + 64];
        buf[edge] = b' ';
        check(&buf);
        buf[edge - 1] = b'\t';
        check(&buf);
    }
}

#[test]
fn buffers_ending_inside_a_word_or_inside_whitespace() {
    for len in 0..=130 {
        let word_end: Vec<u8> = (0..len)
            .map(|i| if i % 9 == 3 { b' ' } else { b'q' })
            .collect();
        check(&word_end);
        let ws_end: Vec<u8> = (0..len)
            .map(|i| if i % 9 < 3 { b'q' } else { b'\r' })
            .collect();
        check(&ws_end);
    }
    check(b"");
    check(&[b' '; 64]);
    check(&[b'z'; 64]);
}

#[test]
fn whole_share_equals_lines_then_words() {
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    for len in [0usize, 1, 64, 100, 1000, 5000] {
        let buf = random_buf(&mut rng, len);
        let per_line: Vec<&[u8]> = LineReader::new(&buf).flat_map(words).collect();
        assert_eq!(words(&buf).collect::<Vec<_>>(), per_line);
    }
}
