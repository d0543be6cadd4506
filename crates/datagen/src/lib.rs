//! # mimir-datagen — workload generators for the Mimir reproduction
//!
//! The paper evaluates on four datasets; each generator here reproduces
//! the statistical properties the evaluation depends on:
//!
//! * [`UniformWords`] — the *WC (Uniform)* dataset: "a synthetic dataset
//!   whose words are randomly generated following a uniform distribution".
//! * [`WikipediaWords`] — a stand-in for the *WC (Wikipedia)* PUMA
//!   dataset, which the paper uses because it is "highly heterogeneous in
//!   terms of type and length of words" and "highly imbalanced". We
//!   reproduce those operative properties with Zipf-distributed word
//!   frequencies and variable word lengths (see DESIGN.md substitutions).
//! * [`PointGen`] — the octree-clustering dataset: 3-D points whose
//!   position "follows a normal distribution with a 0.5 standard
//!   deviation", clustered around the unit-cube centre.
//! * [`Graph500`] — the Graph500 Kronecker generator: scale-free graphs
//!   with an average degree of 32 (edge factor 16).
//!
//! All generators are deterministic in `(seed, rank, n_ranks)`, so every
//! rank of a simulated world can produce its own share of the dataset
//! without communication, and repeated runs see identical data.

mod graph500;
mod points;
mod rng;
mod wikipedia;
mod words;
mod writer;

pub use graph500::Graph500;
pub use points::{Point, PointGen};
pub use rng::{rank_rng, splitmix64, RankRng, Xoshiro256pp};
pub use wikipedia::WikipediaWords;
pub use words::UniformWords;
pub use writer::{
    parse_edges, parse_points, with_huge_pages, write_corpus, write_edges, write_points,
};

/// Number of words per generated text line (both corpora).
pub(crate) const WORDS_PER_LINE: usize = 10;
