use std::io::{BufWriter, Write};
use std::path::Path;

/// Materializes a generated corpus to a file, one rank share at a time,
/// for the file-input code path (the paper's datasets live on the
/// parallel file system and are read back through the input splitter).
///
/// `generate` is called with `(rank, n_shares)` and must return that
/// share's bytes; shares are concatenated in rank order.
///
/// # Errors
/// Propagates OS failures creating or writing the file.
pub fn write_corpus(
    path: &Path,
    n_shares: usize,
    mut generate: impl FnMut(usize, usize) -> Vec<u8>,
) -> std::io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut total = 0u64;
    for share in 0..n_shares {
        let data = generate(share, n_shares);
        w.write_all(&data)?;
        total += data.len() as u64;
    }
    w.flush()?;
    Ok(total)
}

/// Materializes a point dataset as packed 12-byte little-endian records
/// (3 × f32), the binary layout the octree benchmark reads back.
///
/// # Errors
/// Propagates OS failures.
pub fn write_points(
    path: &Path,
    gen: &crate::PointGen,
    total_points: usize,
    n_shares: usize,
) -> std::io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut written = 0u64;
    for share in 0..n_shares {
        for p in gen.generate(share, n_shares, total_points) {
            for c in p {
                w.write_all(&c.to_le_bytes())?;
            }
            written += 12;
        }
    }
    w.flush()?;
    Ok(written)
}

/// Materializes a Graph500 edge list as packed 16-byte records
/// (2 × u64 LE), the binary layout the BFS benchmark reads back.
///
/// # Errors
/// Propagates OS failures.
pub fn write_edges(path: &Path, graph: &crate::Graph500, n_shares: usize) -> std::io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut written = 0u64;
    for share in 0..n_shares {
        for (u, v) in graph.edges(share, n_shares) {
            w.write_all(&u.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
            written += 16;
        }
    }
    w.flush()?;
    Ok(written)
}

/// Size of an x86-64 transparent huge page.
const HUGE_PAGE: usize = 2 << 20;

/// An empty vector with room for `capacity` elements, whose 2 MiB-aligned
/// interior the kernel is asked to back with transparent huge pages
/// (`madvise(MADV_HUGEPAGE)`, on Linux only). The advice is a hint and
/// covers only pages first touched after it, so fill the vector after
/// this call: a 32 MiB input buffer then takes about a thousand page
/// faults instead of eight thousand, whatever state earlier buffers left
/// the heap in. Where the advice does not apply the vector is plain.
pub fn with_huge_pages<T>(capacity: usize) -> Vec<T> {
    let v = Vec::with_capacity(capacity);
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        let at = v.as_ptr() as usize;
        let start = at.next_multiple_of(HUGE_PAGE);
        let end = (at + v.capacity() * std::mem::size_of::<T>()) / HUGE_PAGE * HUGE_PAGE;
        if end > start {
            // SAFETY: `start..end` lies inside `v`'s allocation, which
            // nothing else references yet, and the advice changes how its
            // pages are backed, not what they hold. A refusal is ignored.
            unsafe { madvise(start as *mut _, end - start, MADV_HUGEPAGE) };
        }
    }
    v
}

/// Parses packed 12-byte point records back into points.
pub fn parse_points(bytes: &[u8]) -> Vec<crate::Point> {
    bytes
        .chunks_exact(12)
        .map(|c| {
            [
                f32::from_le_bytes(c[0..4].try_into().expect("f32")),
                f32::from_le_bytes(c[4..8].try_into().expect("f32")),
                f32::from_le_bytes(c[8..12].try_into().expect("f32")),
            ]
        })
        .collect()
}

/// Parses packed 16-byte edge records back into edges.
/// The edges land in a [`with_huge_pages`] buffer.
pub fn parse_edges(bytes: &[u8]) -> Vec<(u64, u64)> {
    let mut edges = with_huge_pages(bytes.len() / 16);
    edges.extend(bytes.chunks_exact(16).map(|c| {
        (
            u64::from_le_bytes(c[0..8].try_into().expect("u64")),
            u64::from_le_bytes(c[8..16].try_into().expect("u64")),
        )
    }));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformWords;

    #[test]
    fn writes_concatenated_shares() {
        let dir = std::env::temp_dir().join(format!("mimir-writer-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        let g = UniformWords::new(1);
        let total = write_corpus(&path, 3, |r, n| g.generate(r, n, 3000)).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, total);
        let expected: Vec<u8> = (0..3).flat_map(|r| g.generate(r, 3, 3000)).collect();
        assert_eq!(on_disk, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn points_roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("mimir-points-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.bin");
        let gen = crate::PointGen::new(5);
        let written = write_points(&path, &gen, 1000, 4).unwrap();
        assert_eq!(written, 1000 * 12);
        let bytes = std::fs::read(&path).unwrap();
        let parsed = parse_points(&bytes);
        let expected: Vec<crate::Point> = (0..4).flat_map(|r| gen.generate(r, 4, 1000)).collect();
        assert_eq!(parsed, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edges_roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("mimir-edges-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.bin");
        let graph = crate::Graph500::new(8, 3);
        let written = write_edges(&path, &graph, 2).unwrap();
        assert_eq!(written, graph.n_edges() * 16);
        let bytes = std::fs::read(&path).unwrap();
        let parsed = parse_edges(&bytes);
        let expected: Vec<(u64, u64)> = (0..2).flat_map(|r| graph.edges(r, 2)).collect();
        assert_eq!(parsed, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
