//! The five workloads: what runs, on which input, and why it is here.
//!
//! Inputs are generated once per run from `--seed` by `mimir-datagen` and
//! written to files; the program under test sees only the files. The
//! serial reference is computed from the same files, outside all timing.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use mimir_apps::bfs::{bfs_serial, BfsOptions, BfsResult};
use mimir_apps::octree::{octree_serial, OcOptions, OcResult};
use mimir_apps::wordcount::{wordcount_serial, WcOptions};
use mimir_core::{MimirContext, TransportKind};
use mimir_datagen::{
    parse_edges, parse_points, write_corpus, write_edges, write_points, Graph500, Point, PointGen,
    UniformWords, WikipediaWords,
};

/// Ranks in every world: one per core of the 2-core reference box.
pub const N_RANKS: usize = 2;

const MIB: usize = 1024 * 1024;

/// Which of the paper's applications a workload runs, with its options.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    Wc(WcOptions),
    Oc(OcOptions),
    Bfs(BfsOptions),
}

/// A generated dataset. Two workloads naming the same input share one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `UniformWords { vocab: 8192, word_len: 8 }`, this many bytes.
    Uniform { bytes: usize },
    /// `WikipediaWords { vocab: 20000, zipf_s: 1.0 }`, this many bytes.
    Zipf { bytes: usize },
    /// `PointGen` normal-distributed 3-D points.
    Points { n: usize },
    /// `Graph500` Kronecker graph, edge factor 16.
    Graph { scale: u32 },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub job: Job,
    pub transport: TransportKind,
    pub input: Input,
}

const UNIFORM: Input = Input::Uniform { bytes: 128 * MIB };

/// The workload table. Names, order and reasons are mirrored in
/// `BENCHMARK.json` and `README.md`; a unit test keeps them in step.
pub fn all() -> Vec<Workload> {
    let plain = WcOptions::default();
    vec![
        Workload {
            name: "wc_uniform",
            why: "every word crosses the shuffle into a KVC, then a duplicate-heavy convert: \
                  shuffle, kvc and convert dominate; combiner, partial reducer and cache idle",
            job: Job::Wc(plain),
            transport: TransportKind::Inproc,
            input: UNIFORM,
        },
        Workload {
            name: "wc_uniform_uds",
            why: "same input and job as wc_uniform over forked ranks on Unix sockets: \
                  the gap between the two is the UDS backend and nothing else",
            job: Job::Wc(plain),
            transport: TransportKind::Uds,
            input: UNIFORM,
        },
        Workload {
            name: "wc_zipf_opt",
            why: "hint+pr+cps on Zipf text: the combiner absorbs the duplicates, so exchange is \
                  idle and tokenising plus the fold tables do the work; shuffle changes predict flat",
            job: Job::Wc(WcOptions::all()),
            transport: TransportKind::Inproc,
            input: Input::Zipf { bytes: 256 * MIB },
        },
        Workload {
            name: "oc_points",
            why: "iterative multi-stage: one full job per octree level over resident points, \
                  so per-job fixed costs (buffers, barriers, teardown) are paid per level",
            job: Job::Oc(OcOptions::default()),
            transport: TransportKind::Inproc,
            input: Input::Points { n: 4 * MIB },
        },
        Workload {
            name: "bfs_graph500",
            why: "partition stage groups 2^18 distinct keys, then a level-synchronous traversal \
                  over the cross-job cache: collective latency, not bandwidth, sets the time",
            job: Job::Bfs(BfsOptions::default()),
            transport: TransportKind::Inproc,
            input: Input::Graph { scale: 18 },
        },
    ]
}

impl Input {
    pub fn file_name(&self) -> String {
        match *self {
            Input::Uniform { bytes } => format!("uniform-{}m.txt", bytes / MIB),
            Input::Zipf { bytes } => format!("zipf-{}m.txt", bytes / MIB),
            Input::Points { n } => format!("points-{n}.bin"),
            Input::Graph { scale } => format!("graph500-s{scale}.bin"),
        }
    }

    /// Human-readable size, recorded in the result file.
    pub fn describe(&self) -> String {
        match *self {
            Input::Uniform { bytes } => {
                format!("UniformWords vocab=8192 word_len=8, {} MiB", bytes / MIB)
            }
            Input::Zipf { bytes } => {
                format!("WikipediaWords vocab=20000 zipf_s=1.0, {} MiB", bytes / MIB)
            }
            Input::Points { n } => format!("PointGen sigma=0.5, {n} points"),
            Input::Graph { scale } => format!("Graph500 scale={scale} edge_factor=16"),
        }
    }

    /// Generates the dataset from `seed` and writes it to `dir`, returning
    /// the file and its size in bytes.
    ///
    /// # Errors
    /// OS failures writing the file.
    pub fn write(&self, seed: u64, dir: &Path) -> std::io::Result<(PathBuf, u64)> {
        let path = dir.join(self.file_name());
        let bytes = match *self {
            Input::Uniform { bytes } => {
                let g = UniformWords {
                    vocab: 8192,
                    word_len: 8,
                    seed,
                };
                write_corpus(&path, N_RANKS, |share, n| g.generate(share, n, bytes))?
            }
            Input::Zipf { bytes } => {
                let g = WikipediaWords {
                    vocab: 20_000,
                    zipf_s: 1.0,
                    seed,
                };
                write_corpus(&path, N_RANKS, |share, n| g.generate(share, n, bytes))?
            }
            Input::Points { n } => write_points(&path, &PointGen::new(seed), n, N_RANKS)?,
            Input::Graph { scale } => write_edges(&path, &Graph500::new(scale, seed), N_RANKS)?,
        };
        Ok((path, bytes))
    }
}

// ---------------------------------------------------------------------
// Output digests
// ---------------------------------------------------------------------

/// An order-independent digest of a job's output: a wrapping sum of one
/// mixed hash per output item, the item count, and one auxiliary scalar
/// (octree: final level; BFS: tree depth). Per-rank digests add up to the
/// whole output's digest, so ranks return three `u64`s instead of their
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub sum: u64,
    pub items: u64,
    pub aux: u64,
}

impl Digest {
    /// Adds one `(key bytes, number)` item.
    pub fn add(&mut self, key: &[u8], n: u64) {
        // FNV-1a over the key, then a splitmix64 finaliser over key-hash
        // and number. Deliberately not the framework's own hash.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut z = h ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.sum = self.sum.wrapping_add(z ^ (z >> 31));
        self.items += 1;
    }

    /// Folds another rank's digest into this one.
    pub fn merge(&mut self, other: &Digest) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.items += other.items;
        self.aux = self.aux.max(other.aux);
    }

    pub fn of_counts<'a>(counts: impl IntoIterator<Item = (&'a [u8], u64)>) -> Digest {
        let mut d = Digest::default();
        for (k, n) in counts {
            d.add(k, n);
        }
        d
    }

    pub fn of_octree(r: &OcResult) -> Digest {
        let mut d = Digest::of_counts(r.local_dense.iter().map(|(k, n)| (&k[..], *n)));
        d.aux = r.final_level as u64;
        d
    }

    /// Visited set and depth only: which parent a vertex got is a race the
    /// BFS is allowed to settle either way, so it is not in the digest
    /// (the warm-up repeat's whole tree goes through `validate_bfs_tree`).
    pub fn of_bfs(r: &BfsResult) -> Digest {
        let mut d = Digest::of_counts(r.parents.keys().map(|v| (&[][..], *v)));
        d.aux = u64::from(r.depth);
        d
    }
}

/// What the serial reference says the outputs must be.
pub struct Reference {
    /// Digest of the application's output.
    pub job: Digest,
    /// Digest the staged replay must reproduce. The same as `job` except
    /// for BFS, whose replay covers the partition stage only and so is
    /// checked against serial vertex degrees.
    pub replay: Digest,
    /// BFS only: every edge and the reference distances, for the one full
    /// `validate_bfs_tree` on the warm-up repeat.
    pub bfs: Option<BfsReference>,
}

pub struct BfsReference {
    pub edges: Vec<(u64, u64)>,
    pub root: u64,
    pub dist: HashMap<u64, u32>,
}

/// Computes the reference for `job` over the whole input file.
///
/// # Errors
/// OS failures reading the file.
pub fn reference(job: &Job, path: &Path) -> std::io::Result<Reference> {
    let bytes = std::fs::read(path)?;
    Ok(match job {
        Job::Wc(_) => {
            let counts = wordcount_serial(&[&bytes]);
            let d = Digest::of_counts(counts.iter().map(|(k, n)| (&k[..], *n)));
            Reference {
                job: d,
                replay: d,
                bfs: None,
            }
        }
        Job::Oc(o) => {
            let d = Digest::of_octree(&octree_serial(
                &parse_points(&bytes),
                o.density,
                o.max_depth,
            ));
            Reference {
                job: d,
                replay: d,
                bfs: None,
            }
        }
        Job::Bfs(_) => {
            let edges = parse_edges(&bytes);
            let root = edges
                .iter()
                .flat_map(|&(u, v)| [u, v])
                .min()
                .expect("graph has edges");
            let dist = bfs_serial(&edges, root);
            let mut job = Digest::of_counts(dist.keys().map(|v| (&[][..], *v)));
            job.aux = u64::from(dist.values().copied().max().unwrap_or(0));
            let mut degree: HashMap<u64, u64> = HashMap::new();
            for &(u, v) in &edges {
                *degree.entry(u).or_insert(0) += 1;
                *degree.entry(v).or_insert(0) += 1;
            }
            let replay = Digest::of_counts(degree.iter().map(|(v, n)| (&[][..], mix2(*v, *n))));
            Reference {
                job,
                replay,
                bfs: Some(BfsReference { edges, root, dist }),
            }
        }
    })
}

/// Folds a vertex and its degree into the one number a digest item takes.
pub fn mix2(vertex: u64, degree: u64) -> u64 {
    vertex
        .rotate_left(32)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(degree)
}

// ---------------------------------------------------------------------
// Rank-side input loading
// ---------------------------------------------------------------------

/// A rank's share of the input, read and parsed.
pub enum Loaded {
    Text(Vec<u8>),
    Points(Vec<Point>),
    Edges { edges: Vec<(u64, u64)>, root: u64 },
}

impl Loaded {
    pub fn bytes(&self) -> u64 {
        (match self {
            Loaded::Text(t) => t.len(),
            Loaded::Points(p) => p.len() * 12,
            Loaded::Edges { edges, .. } => edges.len() * 16,
        }) as u64
    }
}

/// Reads and parses this rank's split of the input file — the part of
/// set-up the system (not the generator) is responsible for.
///
/// # Errors
/// I/O failures, rendered.
pub fn load(ctx: &mut MimirContext<'_>, job: &Job, path: &Path) -> Result<Loaded, String> {
    let e = |e: mimir_core::MimirError| e.to_string();
    Ok(match job {
        Job::Wc(_) => Loaded::Text(ctx.read_text_split(path).map_err(e)?),
        Job::Oc(_) => Loaded::Points(parse_points(&ctx.read_fixed_split(path, 12).map_err(e)?)),
        Job::Bfs(_) => {
            let edges = parse_edges(&ctx.read_fixed_split(path, 16).map_err(e)?);
            let root = mimir_apps::bfs::pick_root(ctx.comm(), &edges);
            Loaded::Edges { edges, root }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_rank_split_but_not_content() {
        let items: Vec<(&[u8], u64)> = vec![(b"alpha", 3), (b"beta", 1), (b"gamma", 7)];
        let whole = Digest::of_counts(items.iter().copied());
        let mut rev = Digest::of_counts(items.iter().rev().copied());
        assert_eq!(whole, rev);
        let mut split = Digest::of_counts(items[..1].iter().copied());
        split.merge(&Digest::of_counts(items[1..].iter().copied()));
        assert_eq!(whole, split);
        rev.add(b"delta", 1);
        assert_ne!(whole, rev);
        let moved = Digest::of_counts([(&b"alpha"[..], 1u64), (b"beta", 3), (b"gamma", 7)]);
        assert_ne!(whole.sum, moved.sum, "swapping two counts must show");
    }

    #[test]
    fn workload_names_are_unique_and_inputs_shared_only_by_the_uds_pair() {
        let ws = all();
        assert_eq!(ws.len(), 5);
        for (i, a) in ws.iter().enumerate() {
            for b in &ws[i + 1..] {
                assert_ne!(a.name, b.name);
                if a.input == b.input {
                    assert_eq!((a.name, b.name), ("wc_uniform", "wc_uniform_uds"));
                }
            }
        }
    }
}
