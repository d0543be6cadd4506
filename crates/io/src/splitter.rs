//! Input splitting: sharding a byte stream across ranks at record
//! boundaries.
//!
//! Both frameworks read file input the same way the originals do: the byte
//! range of the input is divided evenly across ranks, and each rank's range
//! is then snapped to record boundaries so that no record is processed
//! twice or split in half. The ownership rule is the standard one (shared
//! by Hadoop splits and MR-MPI's file reader): a rank owns exactly the
//! records whose *first byte* falls inside its raw byte range.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

use crate::{IoError, IoModel, Result};

/// Evenly divides `total` bytes into `parts` contiguous ranges.
/// The first `total % parts` ranges get one extra byte.
pub fn byte_ranges(total: u64, parts: usize) -> Vec<Range<u64>> {
    assert!(parts > 0, "need at least one part");
    let base = total / parts as u64;
    let extra = total % parts as u64;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0u64;
    for i in 0..parts as u64 {
        let len = base + u64::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Snaps a raw byte range to record boundaries within `data`.
///
/// * Start: a range beginning at 0 keeps its start; otherwise it skips
///   forward past the record that began before it (records starting at
///   `start` exist iff `data[start-1]` is a delimiter).
/// * End: a range whose last raw byte is a delimiter ends there; otherwise
///   it extends to finish the record that straddles its raw end.
///
/// Adjacent raw ranges produce adjacent aligned ranges, so applying this
/// to the output of [`byte_ranges`] covers every record exactly once.
pub fn align_range(data: &[u8], raw: Range<usize>, delim: u8) -> Range<usize> {
    let len = data.len();
    let raw_end = raw.end.min(len);
    let mut start = raw.start.min(len);
    if start > 0 {
        match data[start - 1..].iter().position(|&b| b == delim) {
            Some(pos) => start = start - 1 + pos + 1,
            None => start = len,
        }
    }
    let mut end = raw_end;
    if end > 0 && end < len && data[end - 1] != delim {
        end = data[end..]
            .iter()
            .position(|&b| b == delim)
            .map_or(len, |p| end + p + 1);
    }
    start..end.max(start)
}

/// Splits `data` into `parts` record-aligned ranges covering every record
/// exactly once.
pub fn split_records(data: &[u8], parts: usize, delim: u8) -> Vec<Range<usize>> {
    byte_ranges(data.len() as u64, parts)
        .into_iter()
        .map(|r| align_range(data, r.start as usize..r.end as usize, delim))
        .collect()
}

/// Reads rank `rank`-of-`n_ranks`'s record-aligned share of the file at
/// `path`, charging the read to `model`. The read window and the share
/// are [`mimir_datagen::with_huge_pages`] buffers.
///
/// # Errors
/// OS failures opening, seeking, or reading the file.
pub fn read_split(
    path: &Path,
    rank: usize,
    n_ranks: usize,
    delim: u8,
    model: &IoModel,
) -> Result<Vec<u8>> {
    let mut file = File::open(path).map_err(IoError::os(format!("opening input {path:?}")))?;
    let total = file
        .metadata()
        .map_err(IoError::os(format!("stat {path:?}")))?
        .len();
    let raw = byte_ranges(total, n_ranks)
        .into_iter()
        .nth(rank)
        .expect("rank < n_ranks");

    // Read the raw range plus one lookback byte (for the start rule) and a
    // growing lookahead window (until the end rule can find a delimiter or
    // EOF), then align in memory.
    let read_start = raw.start.saturating_sub(1);
    let mut lookahead: u64 = 64 * 1024;
    let buf = loop {
        let window_end = (raw.end + lookahead).min(total);
        let len = (window_end - read_start) as usize;
        let mut b = mimir_datagen::with_huge_pages(len);
        b.resize(len, 0);
        file.seek(SeekFrom::Start(read_start))
            .map_err(IoError::os(format!("seeking {path:?}")))?;
        file.read_exact(&mut b)
            .map_err(IoError::os(format!("reading {path:?}")))?;
        let tail_start = (raw.end - read_start) as usize;
        if window_end == total || b[tail_start..].contains(&delim) {
            break b;
        }
        lookahead = lookahead.saturating_mul(4);
    };
    model.charge_read(buf.len());

    let local_raw = (raw.start - read_start) as usize..(raw.end - read_start) as usize;
    let aligned = align_range(&buf, local_raw, delim);
    let mut out = mimir_datagen::with_huge_pages(aligned.len());
    out.extend_from_slice(&buf[aligned]);
    Ok(out)
}

/// Evenly divides `n_records` fixed-size records into `parts` contiguous
/// record ranges (for binary datasets — points, edges — where records
/// never straddle and no delimiter scan is needed).
pub fn record_ranges(n_records: u64, parts: usize) -> Vec<Range<u64>> {
    byte_ranges(n_records, parts)
}

/// Reads rank `rank`-of-`n_ranks`'s share of a binary file of
/// `record_size`-byte records, charging the read to `model`. The share
/// lands in a [`mimir_datagen::with_huge_pages`] buffer.
///
/// # Errors
/// OS failures, or a file whose length is not a whole number of records.
pub fn read_fixed_split(
    path: &Path,
    rank: usize,
    n_ranks: usize,
    record_size: usize,
    model: &IoModel,
) -> Result<Vec<u8>> {
    assert!(record_size > 0, "record size must be non-zero");
    let mut file = File::open(path).map_err(IoError::os(format!("opening input {path:?}")))?;
    let total_bytes = file
        .metadata()
        .map_err(IoError::os(format!("stat {path:?}")))?
        .len();
    if total_bytes % record_size as u64 != 0 {
        return Err(IoError::CorruptSpill(format!(
            "{path:?}: {total_bytes} B is not a multiple of {record_size}-byte records"
        )));
    }
    let n_records = total_bytes / record_size as u64;
    let range = record_ranges(n_records, n_ranks)
        .into_iter()
        .nth(rank)
        .expect("rank < n_ranks");
    let start = range.start * record_size as u64;
    let len = ((range.end - range.start) as usize) * record_size;
    let mut buf = mimir_datagen::with_huge_pages(len);
    file.seek(SeekFrom::Start(start))
        .map_err(IoError::os(format!("seeking {path:?}")))?;
    let reading = IoError::os(format!("reading {path:?}"));
    match file.take(len as u64).read_to_end(&mut buf) {
        Ok(n) if n == len => {}
        Ok(_) => return Err(reading(std::io::ErrorKind::UnexpectedEof.into())),
        Err(e) => return Err(reading(e)),
    }
    model.charge_read(buf.len());
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(data: &[u8]) -> Vec<Vec<u8>> {
        data.split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn byte_ranges_cover_exactly() {
        let rs = byte_ranges(10, 3);
        assert_eq!(rs, vec![0..4, 4..7, 7..10]);
        let rs = byte_ranges(3, 5);
        assert_eq!(rs.iter().map(|r| r.end - r.start).sum::<u64>(), 3);
        assert_eq!(rs.last().unwrap().end, 3);
    }

    #[test]
    fn split_records_covers_every_record_once() {
        let data = b"aa\nbbbb\nc\ndddd\nee\nf\n";
        let expected = records(data);
        for parts in 1..=(data.len() + 2) {
            let ranges = split_records(data, parts, b'\n');
            let mut collected = Vec::new();
            for r in &ranges {
                collected.extend(records(&data[r.clone()]));
            }
            assert_eq!(collected, expected, "parts={parts}");
        }
    }

    #[test]
    fn split_aligns_on_exact_boundaries() {
        // Crafted so a raw boundary falls exactly after a delimiter:
        // "ab\ncd\n" split into 2 → raw 0..3 / 3..6.
        let data = b"ab\ncd\n";
        let ranges = split_records(data, 2, b'\n');
        assert_eq!(&data[ranges[0].clone()], b"ab\n");
        assert_eq!(&data[ranges[1].clone()], b"cd\n");
    }

    #[test]
    fn split_records_without_trailing_newline() {
        let data = b"one\ntwo\nthree";
        for parts in 1..=6 {
            let ranges = split_records(data, parts, b'\n');
            let mut collected = Vec::new();
            for r in &ranges {
                collected.extend(records(&data[r.clone()]));
            }
            assert_eq!(collected, records(data), "parts={parts}");
        }
    }

    #[test]
    fn one_giant_record_goes_to_one_part() {
        let data = b"xxxxxxxxxxxxxxxxxxxx";
        let ranges = split_records(data, 4, b'\n');
        let owners: Vec<_> = ranges
            .iter()
            .filter(|r| !data[(*r).clone()].is_empty())
            .collect();
        assert_eq!(owners.len(), 1);
        assert_eq!(owners[0], &(0..data.len()));
    }

    #[test]
    fn empty_input() {
        let ranges = split_records(b"", 3, b'\n');
        assert!(ranges.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn read_split_matches_in_memory_split() {
        let dir = std::env::temp_dir().join(format!("mimir-split-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.txt");
        let mut content = Vec::new();
        for i in 0..1000 {
            content.extend_from_slice(format!("record-{i} with some text\n").as_bytes());
        }
        std::fs::write(&path, &content).unwrap();

        let model = IoModel::free();
        for n_ranks in [1, 3, 7] {
            let expected = split_records(&content, n_ranks, b'\n');
            for rank in 0..n_ranks {
                let got = read_split(&path, rank, n_ranks, b'\n', &model).unwrap();
                assert_eq!(
                    got,
                    content[expected[rank].clone()].to_vec(),
                    "rank {rank}/{n_ranks}"
                );
            }
        }
        assert!(model.stats().bytes_read > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_split_with_long_lines_grows_lookahead() {
        let dir = std::env::temp_dir().join(format!("mimir-split-long-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("long.txt");
        // One 300 KiB record then small ones: forces the lookahead to grow
        // past its initial 64 KiB window for rank 0's end alignment.
        let mut content = vec![b'z'; 300 * 1024];
        content.push(b'\n');
        content.extend_from_slice(b"tail-1\ntail-2\n");
        std::fs::write(&path, &content).unwrap();

        let model = IoModel::free();
        let expected = split_records(&content, 4, b'\n');
        for rank in 0..4 {
            let got = read_split(&path, rank, 4, b'\n', &model).unwrap();
            assert_eq!(got, content[expected[rank].clone()].to_vec(), "rank {rank}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fixed_split_covers_every_record_once() {
        let dir = std::env::temp_dir().join(format!("mimir-fixed-split-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.bin");
        // 101 records of 12 bytes, numbered.
        let mut content = Vec::new();
        for i in 0..101u32 {
            content.extend_from_slice(&i.to_le_bytes());
            content.extend_from_slice(&[0u8; 8]);
        }
        std::fs::write(&path, &content).unwrap();
        let model = IoModel::free();
        for parts in [1usize, 3, 7] {
            let mut seen = Vec::new();
            for rank in 0..parts {
                let share = read_fixed_split(&path, rank, parts, 12, &model).unwrap();
                assert_eq!(share.len() % 12, 0, "whole records only");
                for rec in share.chunks_exact(12) {
                    seen.push(u32::from_le_bytes(rec[0..4].try_into().unwrap()));
                }
            }
            assert_eq!(seen, (0..101).collect::<Vec<_>>(), "parts={parts}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Text shares read through huge-page-advised buffers are the
    /// in-memory split's, on a file of several huge pages whose size is
    /// not a multiple of one.
    #[test]
    fn text_shares_in_huge_page_buffers_match_the_in_memory_split() {
        let dir = std::env::temp_dir().join(format!("mimir-split-huge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.txt");
        let content: Vec<u8> = (0..200_000u32)
            .flat_map(|i| format!("record-{i} {}\n", "x".repeat(i as usize % 40)).into_bytes())
            .collect();
        assert!(content.len() > 5 << 20 && !content.len().is_multiple_of(2 << 20));
        std::fs::write(&path, &content).unwrap();
        let model = IoModel::free();
        for n_ranks in [1, 2] {
            let expected = split_records(&content, n_ranks, b'\n');
            for (rank, want) in expected.into_iter().enumerate() {
                let got = read_split(&path, rank, n_ranks, b'\n', &model).unwrap();
                assert!(got == content[want], "rank {rank}/{n_ranks}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A share read into a huge-page-advised buffer, and the edges parsed
    /// from it into another, hold exactly the file's bytes and edges — on
    /// a file of several huge pages whose size is not a multiple of one.
    #[test]
    fn huge_page_buffers_hold_the_file_exactly() {
        let dir = std::env::temp_dir().join(format!("mimir-fixed-huge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.bin");
        let n_edges = (5 << 20) / 16 + 3;
        let content: Vec<u8> = (0..2 * n_edges as u64)
            .flat_map(|i| (i * 0x9E37_79B9).to_le_bytes())
            .collect();
        assert_ne!(content.len() % (2 << 20), 0);
        std::fs::write(&path, &content).unwrap();
        let model = IoModel::free();
        for parts in [1usize, 3] {
            let mut at = 0;
            for rank in 0..parts {
                let share = read_fixed_split(&path, rank, parts, 16, &model).unwrap();
                assert_eq!(
                    share,
                    content[at..at + share.len()],
                    "parts={parts} rank={rank}"
                );
                at += share.len();
                let want: Vec<(u64, u64)> = share
                    .chunks_exact(16)
                    .map(|c| {
                        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
                        (word(&c[..8]), word(&c[8..]))
                    })
                    .collect();
                assert_eq!(mimir_datagen::parse_edges(&share), want, "parts={parts}");
            }
            assert_eq!(at, content.len(), "parts={parts}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fixed_split_rejects_ragged_files() {
        let dir = std::env::temp_dir().join(format!("mimir-fixed-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.bin");
        std::fs::write(&path, [0u8; 13]).unwrap();
        let model = IoModel::free();
        assert!(read_fixed_split(&path, 0, 2, 12, &model).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
