//! Staged replay: the workload's job shape, composed here from `core`'s
//! least-parameterised public pieces so that each stage is one timed call
//! on materialised input.
//!
//! The application functions run map, shuffle, convert and reduce behind
//! one call; from outside there is nothing to time but the whole. The
//! replay does what `MapReduceJob` does for the shape the workload takes —
//! same constructors, same order, same barriers — with a span around each
//! stage, and must produce the same output digest. Shapes:
//!
//! * grouped (`wc_uniform`, `wc_uniform_uds`, the BFS partition stage):
//!   map → `Shuffler` into a `KvContainer` → barrier → `convert` →
//!   `for_each_group` reduce → barrier → collect;
//! * compress + partial (`wc_zipf_opt`): map → `CombinerTable` → flush
//!   into a `Shuffler` over a `PartialReducer` → barrier → `into_output`
//!   → barrier → collect;
//! * `oc_points` and the BFS traversal are loops of whole jobs over
//!   application-private state: they get the root span `apps.job` only.

use std::path::Path;
use std::time::Instant;

use mimir_core::{
    convert, typed, CombinerTable, Emitter, KvContainer, KvMeta, MimirContext, PartialReducer,
    Shuffler,
};
use mimir_io::{words, IoModel, LineReader};
use mimir_mpi::{run_world_result_on, Comm};

use crate::e2e::{config, node_map, run_app, Sample};
use crate::json::Json;
use crate::probes::Machine;
use crate::spans::{self, chrome_trace, Span, SpanLog, NO_PARENT};
use crate::workloads::{load, mix2, Digest, Job, Loaded, Reference, Workload, N_RANKS};

const NAMES: &[&str] = &[
    "replay",
    "io.tokenize",
    "core.shuffle.emit_loop",
    "core.shuffle.finish",
    "mpi.barrier_wait",
    "core.convert",
    "core.convert.mkv",
    "core.reduce",
    "core.combiner.emit_loop",
    "core.partial.finalize",
    "mpi.barrier_end",
    "apps.collect",
    "apps.job",
];
const REPLAY: usize = 0;
const TOKENIZE: usize = 1;
const EMIT_LOOP: usize = 2;
const FINISH: usize = 3;
const BARRIER: usize = 4;
const CONVERT: usize = 5;
const MKV: usize = 6;
const REDUCE: usize = 7;
const COMBINER: usize = 8;
const PARTIAL: usize = 9;
const BARRIER_END: usize = 10;
const COLLECT: usize = 11;
const APP: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Grouped,
    CompressPartial,
    AppOnly,
}

fn shape_of(job: &Job) -> (Shape, KvMeta) {
    match job {
        Job::Wc(o) => {
            let meta = if o.hint {
                KvMeta::cstr_key_u64_val()
            } else {
                KvMeta::var()
            };
            match (o.partial_reduce, o.compress) {
                (false, false) => (Shape::Grouped, meta),
                (true, true) => (Shape::CompressPartial, meta),
                // No workload takes the mixed shapes; they would get the
                // root span only.
                _ => (Shape::AppOnly, meta),
            }
        }
        Job::Bfs(o) => (
            Shape::Grouped,
            if o.hint {
                KvMeta::fixed(8, 8)
            } else {
                KvMeta::var()
            },
        ),
        Job::Oc(_) => (Shape::AppOnly, KvMeta::var()),
    }
}

/// The map function of the replayed stage, as the application writes it.
fn map_into(input: &Loaded, em: &mut dyn Emitter) -> mimir_core::Result<()> {
    match input {
        Loaded::Text(text) => {
            let one = typed::enc_u64(1);
            for line in LineReader::new(text) {
                for w in words(line) {
                    em.emit(w, &one)?;
                }
            }
        }
        Loaded::Edges { edges, .. } => {
            for &(u, v) in edges {
                em.emit(&typed::enc_u64(u), &typed::enc_u64(v))?;
                em.emit(&typed::enc_u64(v), &typed::enc_u64(u))?;
            }
        }
        Loaded::Points(_) => {}
    }
    Ok(())
}

/// Swallows KVs: what the map costs with nothing downstream.
#[derive(Default)]
struct NullEmitter {
    kvs: u64,
    bytes: u64,
}

impl Emitter for NullEmitter {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> mimir_core::Result<()> {
        self.kvs += 1;
        self.bytes += (key.len() + val.len()) as u64;
        std::hint::black_box((key, val));
        Ok(())
    }
}

/// Counts what the combiner flushes on its way to the shuffler (a few
/// thousand KVs; the grouped shape's millions go uncounted and direct).
struct Counting<'a, E: Emitter> {
    inner: &'a mut E,
    kvs: u64,
    bytes: u64,
}

impl<E: Emitter> Emitter for Counting<'_, E> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> mimir_core::Result<()> {
        self.kvs += 1;
        self.bytes += (key.len() + val.len()) as u64;
        self.inner.emit(key, val)
    }
}

fn sum_u64(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
}

/// Scalars a rank reports next to its spans.
#[derive(Default)]
struct RankScalars {
    replay: Digest,
    app: Digest,
    rounds: u64,
    unique_keys: u64,
    combiner_in: u64,
    combiner_out: u64,
}

impl RankScalars {
    fn into_wire(self) -> Vec<u64> {
        vec![
            self.replay.sum,
            self.replay.items,
            self.replay.aux,
            self.app.sum,
            self.app.items,
            self.app.aux,
            self.rounds,
            self.unique_keys,
            self.combiner_in,
            self.combiner_out,
        ]
    }

    fn from_wire(w: &[u64]) -> Option<RankScalars> {
        let [rs, ri, ra, a_s, ai, aa, rounds, unique_keys, combiner_in, combiner_out] = w[..]
        else {
            return None;
        };
        Some(RankScalars {
            replay: Digest {
                sum: rs,
                items: ri,
                aux: ra,
            },
            app: Digest {
                sum: a_s,
                items: ai,
                aux: aa,
            },
            rounds,
            unique_keys,
            combiner_in,
            combiner_out,
        })
    }
}

fn digest_output(job: &Job, out: KvContainer) -> mimir_core::Result<Digest> {
    let mut d = Digest::default();
    let bfs = matches!(job, Job::Bfs(_));
    out.drain(|k, v| {
        if bfs {
            d.add(&[], mix2(typed::dec_u64(k), typed::dec_u64(v)));
        } else {
            d.add(k, typed::dec_u64(v));
        }
        Ok(())
    })?;
    Ok(d)
}

/// What a replayed stage works on: this rank's pool, the job (for its
/// reduce and digest), its KV encoding, and the loaded input.
struct Stage<'a> {
    pool: &'a mimir_mem::MemPool,
    job: &'a Job,
    meta: KvMeta,
    input: &'a Loaded,
}

fn grouped(
    comm: &mut Comm,
    stage: &Stage<'_>,
    mapped: &NullEmitter,
    log: &mut SpanLog,
    s: &mut RankScalars,
) -> mimir_core::Result<()> {
    let Stage {
        pool,
        job,
        meta,
        input,
    } = *stage;
    let buf = config(mimir_core::TransportKind::Inproc).comm_buf_size;
    let root = log.begin(REPLAY, NO_PARENT);

    // The map emits straight into the shuffler, as in the job; what it
    // emits was counted by the map-only pass.
    let (kvs, bytes) = (mapped.kvs, mapped.bytes);
    let id = log.begin(EMIT_LOOP, root);
    let mut shuffler = Shuffler::new(comm, pool, meta, buf, KvContainer::new(pool, meta))?;
    map_into(input, &mut shuffler)?;
    log.end(id, kvs, bytes);

    let id = log.begin(FINISH, root);
    let (kvc, stats) = shuffler.finish()?;
    s.rounds = stats.rounds;
    log.end(id, stats.rounds, kvc.bytes());

    log.time(BARRIER, root, || (comm.barrier(), 0, 0));

    let id = log.begin(CONVERT, root);
    let kmvc = convert(kvc, pool)?;
    s.unique_keys = kmvc.n_groups() as u64;
    log.end(id, s.unique_keys, kmvc.bytes());

    // WordCount sums the ones; the BFS partition stage has no reduce of
    // its own (it builds an adjacency map), so the replay counts degrees.
    let id = log.begin(REDUCE, root);
    let mut out = KvContainer::new(pool, meta);
    let count_only = matches!(job, Job::Bfs(_));
    kmvc.for_each_group(|k, vals| {
        let total: u64 = if count_only {
            vals.len() as u64
        } else {
            vals.map(typed::dec_u64).sum()
        };
        out.push(k, &typed::enc_u64(total))
    })?;
    log.end(id, out.len(), out.bytes());

    log.time(BARRIER_END, root, || (comm.barrier(), 0, 0));

    let id = log.begin(COLLECT, root);
    let (n, b) = (out.len(), out.bytes());
    s.replay = digest_output(job, out)?;
    log.end(id, n, b);
    log.end(root, kvs, bytes);

    // Outside the root: how long a bare walk over the KMVC takes, the
    // floor under any reduce.
    let id = log.begin(MKV, NO_PARENT);
    let mut values = 0u64;
    kmvc.for_each_group(|k, vals| {
        values += std::hint::black_box((k, vals.len())).1 as u64;
        Ok(())
    })?;
    log.end(id, values, kmvc.bytes());
    Ok(())
}

fn compress_partial(
    comm: &mut Comm,
    stage: &Stage<'_>,
    log: &mut SpanLog,
    s: &mut RankScalars,
) -> mimir_core::Result<()> {
    let Stage {
        pool,
        job,
        meta,
        input,
    } = *stage;
    let buf = config(mimir_core::TransportKind::Inproc).comm_buf_size;
    let root = log.begin(REPLAY, NO_PARENT);

    let id = log.begin(COMBINER, root);
    let sink = PartialReducer::new(pool, meta, Box::new(sum_u64))?;
    let mut shuffler = Shuffler::new(comm, pool, meta, buf, sink)?;
    let mut table = CombinerTable::new(pool, meta, Box::new(sum_u64))?;
    map_into(input, &mut table)?;
    s.combiner_in = table.kvs_in();
    s.combiner_out = table.unique_keys() as u64;
    log.end(id, s.combiner_in, table.bytes() as u64);

    let id = log.begin(EMIT_LOOP, root);
    let mut counting = Counting {
        inner: &mut shuffler,
        kvs: 0,
        bytes: 0,
    };
    table.flush_into(&mut counting)?;
    let (kvs, bytes) = (counting.kvs, counting.bytes);
    drop(table);
    log.end(id, kvs, bytes);

    let id = log.begin(FINISH, root);
    let (reducer, stats) = shuffler.finish()?;
    s.rounds = stats.rounds;
    log.end(id, stats.rounds, 0);

    log.time(BARRIER, root, || (comm.barrier(), 0, 0));

    let id = log.begin(PARTIAL, root);
    s.unique_keys = reducer.unique_keys() as u64;
    let out = reducer.into_output(pool, meta)?;
    log.end(id, out.len(), out.bytes());

    log.time(BARRIER_END, root, || (comm.barrier(), 0, 0));

    let id = log.begin(COLLECT, root);
    let (n, b) = (out.len(), out.bytes());
    s.replay = digest_output(job, out)?;
    log.end(id, n, b);
    log.end(root, s.combiner_in, bytes);
    Ok(())
}

fn rank_body(
    comm: &mut Comm,
    origin: Instant,
    nodes: &mimir_mem::NodeMap,
    w: &Workload,
    input: &Path,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let e = |e: mimir_core::MimirError| e.to_string();
    let pool = nodes.pool_for_rank(comm.rank());
    let mut log = SpanLog::new(origin, comm.rank());
    let mut s = RankScalars::default();
    let (shape, meta) = shape_of(&w.job);

    let mut ctx =
        MimirContext::new(comm, pool.clone(), IoModel::free(), config(w.transport)).map_err(e)?;
    let loaded = load(&mut ctx, &w.job, input)?;

    if shape != Shape::AppOnly {
        // The map alone, before anything else is timed.
        let id = log.begin(TOKENIZE, NO_PARENT);
        let mut null = NullEmitter::default();
        map_into(&loaded, &mut null).map_err(e)?;
        log.end(id, null.kvs, loaded.bytes());
        ctx.comm().barrier();
        let stage = Stage {
            pool: &pool,
            job: &w.job,
            meta,
            input: &loaded,
        };
        match shape {
            Shape::Grouped => grouped(ctx.comm(), &stage, &null, &mut log, &mut s),
            _ => compress_partial(ctx.comm(), &stage, &mut log, &mut s),
        }
        .map_err(e)?;
    }
    // Applications whose loop the replay cannot reach run whole, under
    // one span: BFS (the traversal) and the octree.
    if shape == Shape::AppOnly || matches!(w.job, Job::Bfs(_)) {
        ctx.comm().barrier();
        let id = log.begin(APP, NO_PARENT);
        let (out, m) = run_app(&mut ctx, &w.job, &loaded)?;
        log.end(id, m.kvs_emitted, m.kv_bytes);
        s.app = out.digest();
    }
    Ok((s.into_wire(), log.into_wire()))
}

/// One rank's shuffle self time (emit loop + finish − the map inside it),
/// its map-only time, and the bytes each moved.
struct RankShuffle {
    self_s: f64,
    tokenize_s: f64,
    kv_bytes: f64,
    input_bytes: f64,
}

/// The traced run of one workload, reduced over ranks.
pub struct Replay {
    ranks: Vec<Vec<Span>>,
    shape: Shape,
    rounds: u64,
    unique_keys: u64,
    combiner_ratio: f64,
    job_wall_s: f64,
    span_cost_ns: f64,
    /// Digest mismatches; the caller counts them as failed operations.
    pub failures: Vec<String>,
}

/// What one begin/end pair costs, for `trace.overhead_share`.
fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut log = SpanLog::new(Instant::now(), 0);
    log.spans.reserve(N);
    let t = Instant::now();
    for _ in 0..N {
        let id = log.begin(0, NO_PARENT);
        log.end(id, 0, 0);
    }
    std::hint::black_box(&log.spans);
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Runs the staged replay in a fresh world on the workload's transport.
///
/// # Errors
/// A rank failed; a digest mismatch is not an error here but an entry in
/// [`Replay::failures`].
pub fn run(
    w: &Workload,
    input: &Path,
    reference: &Reference,
    job_wall_s: f64,
) -> Result<Replay, String> {
    let origin = Instant::now();
    let nodes = node_map()?;
    let per_rank = run_world_result_on(w.transport, N_RANKS, |comm| {
        rank_body(comm, origin, &nodes, w, input)
    })
    .map_err(|e| e.to_string())?;

    let (shape, _) = shape_of(&w.job);
    let mut r = Replay {
        ranks: Vec::new(),
        shape,
        rounds: 0,
        unique_keys: 0,
        combiner_ratio: 1.0,
        job_wall_s,
        span_cost_ns: span_cost_ns(),
        failures: Vec::new(),
    };
    let (mut replay, mut app) = (Digest::default(), Digest::default());
    let (mut c_in, mut c_out) = (0u64, 0u64);
    for (scalars, spans) in &per_rank {
        let s = RankScalars::from_wire(scalars).ok_or("malformed replay scalars")?;
        replay.merge(&s.replay);
        app.merge(&s.app);
        r.rounds = r.rounds.max(s.rounds);
        r.unique_keys += s.unique_keys;
        c_in += s.combiner_in;
        c_out += s.combiner_out;
        r.ranks.push(spans::from_wire(spans));
    }
    if c_out > 0 {
        r.combiner_ratio = c_in as f64 / c_out as f64;
    }
    if shape != Shape::AppOnly && replay != reference.replay {
        r.failures.push(format!(
            "replay digest {replay:?} differs from the reference {:?}",
            reference.replay
        ));
    }
    if (shape == Shape::AppOnly || matches!(w.job, Job::Bfs(_))) && app != reference.job {
        r.failures.push(format!(
            "traced job digest {app:?} differs from the reference {:?}",
            reference.job
        ));
    }
    Ok(r)
}

impl Replay {
    /// Duration of the named span on each rank that has one, in seconds.
    fn durs(&self, name: usize) -> Vec<f64> {
        self.ranks
            .iter()
            .filter_map(|spans| spans.iter().find(|s| s.name == name as u64))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// A stage takes as long as its slowest rank; a stage the shape does
    /// not have takes no time.
    fn max_s(&self, name: usize) -> f64 {
        self.durs(name).into_iter().fold(0.0, f64::max)
    }

    /// What each rank's shuffle and map cost, from its spans.
    fn per_rank_shuffle(&self) -> Vec<RankShuffle> {
        self.ranks
            .iter()
            .map(|spans| {
                let find = |n: usize| spans.iter().find(|s| s.name == n as u64);
                let s = |n: usize| find(n).map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
                // In the grouped shape the map runs inside the emit loop;
                // in the compress shape the loop is a bare table flush.
                let inside = if self.shape == Shape::Grouped {
                    s(TOKENIZE)
                } else {
                    0.0
                };
                RankShuffle {
                    self_s: (s(EMIT_LOOP) + s(FINISH) - inside).max(0.0),
                    tokenize_s: s(TOKENIZE),
                    kv_bytes: find(EMIT_LOOP).map_or(0.0, |s| s.bytes as f64),
                    input_bytes: find(TOKENIZE).map_or(0.0, |s| s.bytes as f64),
                }
            })
            .collect()
    }

    /// Every staged-replay metric of the table.
    pub fn metrics(&self, write_s: f64, last: &Sample, m: &Machine) -> Vec<(&'static str, f64)> {
        let sh = self.per_rank_shuffle();
        let shuffle_self = sh.iter().map(|r| r.self_s).fold(0.0, f64::max);
        // Rates are per rank (one core each), and the slowest rank's.
        let rate = |bytes: f64, secs: f64| if secs > 0.0 { bytes / 1e6 / secs } else { 0.0 };
        let slowest = |rates: Vec<f64>| rates.into_iter().fold(f64::INFINITY, f64::min);
        let shuffle_mb_s = slowest(sh.iter().map(|r| rate(r.kv_bytes, r.self_s)).collect());
        let tokenize_mb_s = slowest(
            sh.iter()
                .map(|r| rate(r.input_bytes, r.tokenize_s))
                .collect(),
        );

        let root = if self.shape == Shape::AppOnly {
            APP
        } else {
            REPLAY
        };
        let mut coverage = f64::INFINITY;
        let mut overhead = 0.0f64;
        for spans in &self.ranks {
            let Some(id) = spans.iter().position(|s| s.name == root as u64) else {
                continue;
            };
            let dur = spans[id].dur_ns().max(1) as f64;
            coverage = coverage.min(1.0 - spans::self_ns(spans, id) as f64 / dur);
            overhead = overhead.max(spans.len() as f64 * self.span_cost_ns / dur);
        }
        // The job as the replay saw it: the replayed stages for the
        // WordCount shapes, the whole application where it ran whole.
        let job_s = if self.max_s(APP) > 0.0 {
            self.max_s(APP)
        } else {
            self.max_s(REPLAY)
        };
        vec![
            ("datagen.write_s", write_s),
            ("io.tokenize_s", self.max_s(TOKENIZE)),
            ("io.tokenize_mb_s", tokenize_mb_s),
            ("core.shuffle.emit_loop_s", self.max_s(EMIT_LOOP)),
            ("core.shuffle.finish_s", self.max_s(FINISH)),
            ("core.shuffle.self_s", shuffle_self),
            ("core.shuffle.mb_s", shuffle_mb_s),
            (
                "core.shuffle.of_memcpy",
                shuffle_mb_s / (m.memcpy_gb_s * 1e3),
            ),
            ("core.shuffle.rounds", self.rounds as f64),
            ("mpi.barrier_wait_s", self.max_s(BARRIER)),
            ("core.convert_s", self.max_s(CONVERT)),
            ("core.convert.mkv_s", self.max_s(MKV)),
            ("core.convert.unique_keys", self.unique_keys as f64),
            ("core.reduce_s", self.max_s(REDUCE)),
            ("core.combiner.emit_loop_s", self.max_s(COMBINER)),
            ("core.combiner.ratio", self.combiner_ratio),
            ("core.partial.finalize_s", self.max_s(PARTIAL)),
            ("apps.collect_s", self.max_s(COLLECT)),
            ("apps.job_s", job_s),
            ("apps.kv_bytes", last.counts.kv_bytes as f64),
            ("apps.kvs_emitted", last.counts.kvs_emitted as f64),
            ("apps.rounds", last.counts.rounds as f64),
            ("apps.iterations", last.counts.iterations as f64),
            (
                "trace.coverage",
                if coverage.is_finite() { coverage } else { 0.0 },
            ),
            ("trace.replay_ratio", job_s / self.job_wall_s),
            ("trace.overhead_share", overhead),
        ]
    }

    /// Notes on the trace's own quality, for the human reader.
    pub fn notes(&self, metrics: &[(&'static str, f64)]) -> Vec<String> {
        let get = |n: &str| {
            metrics
                .iter()
                .find(|(k, _)| *k == n)
                .map_or(0.0, |(_, v)| *v)
        };
        let mut notes = Vec::new();
        if self.shape != Shape::AppOnly && get("trace.coverage") < 0.95 {
            notes.push(format!(
                "trace.coverage {:.3} is below 0.95: time inside the replay is unattributed",
                get("trace.coverage")
            ));
        }
        let ratio = get("trace.replay_ratio");
        if !(0.9..=1.15).contains(&ratio) {
            notes.push(format!(
                "trace.replay_ratio {ratio:.3} is outside [0.9, 1.15]: the replay does not \
                 stand for the job on this run"
            ));
        }
        notes
    }

    /// Writes `out/trace_<workload>.json` for `chrome://tracing`.
    ///
    /// # Errors
    /// OS failures writing the file.
    pub fn write_chrome_trace(&self, workload: &str) -> Result<(), String> {
        let path = format!("out/trace_{workload}.json");
        let doc: Json = chrome_trace(NAMES, &self.ranks);
        std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))
    }
}
