//! Machine references and layer probes: numbers that do not depend on
//! the workload, measured once per traced run.
//!
//! A *reference* is what this box does with no framework in the way
//! (memcpy, a bare channel, a bare socket pair): the ceiling a layer is
//! compared with. A *probe* calls one layer's public functions in a tight
//! loop. Every probe is timed by this file, from outside the layer.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use mimir_apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir_core::{
    typed, GroupIndex, KvCache, KvContainer, KvMeta, MimirContext, Partitioner, TransportKind,
};
use mimir_io::{IoModel, SpillStore};
use mimir_mem::{MemPool, GIB};
use mimir_mpi::{run_world_result_on, Comm, ReduceOp};
use mrmpi::{MrMpiConfig, OocMode};

use crate::e2e::config;
use crate::hygiene::{llc_bytes, Scratch};
use crate::stats::median;
use crate::workloads::{Digest, Input, N_RANKS};

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;
/// Message and buffer size of the bandwidth probes: one comm buffer.
const BUF: usize = 64 * KIB;

/// The workload-independent part of a traced run.
pub struct Machine {
    values: Vec<(&'static str, f64)>,
    /// `ref.memcpy_gb_s`, which the staged replay divides by.
    pub memcpy_gb_s: f64,
}

impl Machine {
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.values.clone()
    }
}

fn us_per(t: Instant, n: usize) -> f64 {
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn mb_s(t: Instant, bytes: usize) -> f64 {
    bytes as f64 / 1e6 / t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// Machine references
// ---------------------------------------------------------------------

/// Single-thread copy bandwidth over arrays at least four times the
/// last-level cache, so the copy streams from memory.
fn memcpy_gb_s() -> f64 {
    let llc = llc_bytes().unwrap_or(32 * MIB as u64) as usize;
    let len = (256 * MIB).max(4 * llc);
    let src = vec![0x5Au8; len];
    let mut dst = vec![0u8; len];
    dst.copy_from_slice(&src); // touch every page of both arrays
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            len as f64 / 1e9 / t.elapsed().as_secs_f64()
        })
        .collect();
    println!(
        "# ref.memcpy: {} MiB arrays, last-level cache {} MiB",
        len / MIB,
        llc / MIB
    );
    median(&rates)
}

fn channel_pingpong_us() -> f64 {
    const N: usize = 20_000;
    let (to_echo, echo_rx) = mpsc::channel::<u64>();
    let (to_main, main_rx) = mpsc::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in echo_rx {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let t = Instant::now();
        for i in 0..N as u64 {
            to_echo.send(i).expect("echo thread alive");
            black_box(main_rx.recv().expect("echo thread alive"));
        }
        let us = us_per(t, N);
        drop(to_echo);
        us
    })
}

fn uds_pingpong_us() -> std::io::Result<f64> {
    const N: usize = 20_000;
    let (mut a, mut b) = UnixStream::pair()?;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut buf = [0u8; 8];
            while b.read_exact(&mut buf).is_ok() && b.write_all(&buf).is_ok() {}
        });
        let mut buf = [7u8; 8];
        let t = Instant::now();
        for _ in 0..N {
            a.write_all(&buf)?;
            a.read_exact(&mut buf)?;
        }
        let us = us_per(t, N);
        drop(a); // the echo thread's read fails and it ends
        Ok(us)
    })
}

fn uds_stream_mb_s() -> std::io::Result<f64> {
    const N: usize = 2_000;
    let (mut a, mut b) = UnixStream::pair()?;
    std::thread::scope(|s| {
        let reader = s.spawn(move || -> std::io::Result<()> {
            let mut buf = vec![0u8; BUF];
            for _ in 0..N {
                b.read_exact(&mut buf)?;
            }
            b.write_all(&[1])
        });
        let buf = vec![0xA5u8; BUF];
        let t = Instant::now();
        for _ in 0..N {
            a.write_all(&buf)?;
        }
        a.read_exact(&mut [0u8; 1])?;
        let rate = mb_s(t, N * BUF);
        reader.join().expect("reader thread")?;
        Ok(rate)
    })
}

// ---------------------------------------------------------------------
// mpi probes
// ---------------------------------------------------------------------

struct MpiProbe {
    spawn_s: f64,
    pingpong_us: f64,
    stream_mb_s: f64,
    alltoallv_mb_s: f64,
    allreduce_us: f64,
    barrier_us: f64,
}

/// Iteration counts: the socket backend is slower per operation, and a
/// probe should cost about as long on either.
struct Scale {
    pingpong: usize,
    stream: usize,
    collective: usize,
}

fn mpi_rank(comm: &mut Comm, called: Instant, n: &Scale) -> Vec<f64> {
    const TAG: u32 = 1;
    comm.barrier();
    let spawn_s = called.elapsed().as_secs_f64();
    let me = comm.rank();
    let peer = 1 - me;

    comm.barrier();
    let t = Instant::now();
    for _ in 0..n.pingpong {
        if me == 0 {
            comm.send(peer, TAG, &[0u8; 8]);
            black_box(comm.recv(peer, TAG));
        } else {
            let m = comm.recv(peer, TAG);
            comm.send(peer, TAG, &m);
        }
    }
    let pingpong_us = us_per(t, n.pingpong);

    let buf = vec![0xA5u8; BUF];
    comm.barrier();
    let t = Instant::now();
    if me == 0 {
        for _ in 0..n.stream {
            comm.send(peer, TAG, &buf);
        }
        comm.recv(peer, TAG + 1);
    } else {
        for _ in 0..n.stream {
            black_box(comm.recv(peer, TAG));
        }
        comm.send(peer, TAG + 1, &[1]);
    }
    let stream_mb_s = mb_s(t, n.stream * BUF);

    const ROUNDS: usize = 1_000;
    let mut recv = vec![0u8; BUF];
    comm.barrier();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let parts = [&buf[..BUF / 2], &buf[BUF / 2..]];
        black_box(comm.alltoallv_into(&parts, &mut recv));
    }
    let alltoallv_mb_s = mb_s(t, ROUNDS * BUF);

    comm.barrier();
    let t = Instant::now();
    for _ in 0..n.collective {
        black_box(comm.allreduce_u64(ReduceOp::Sum, 1));
    }
    let allreduce_us = us_per(t, n.collective);

    let t = Instant::now();
    for _ in 0..n.collective {
        comm.barrier();
    }
    let barrier_us = us_per(t, n.collective);

    vec![
        spawn_s,
        pingpong_us,
        stream_mb_s,
        alltoallv_mb_s,
        allreduce_us,
        barrier_us,
    ]
}

fn mpi_probe(kind: TransportKind) -> Result<MpiProbe, String> {
    let scale = match kind {
        TransportKind::Inproc => Scale {
            pingpong: 20_000,
            stream: 2_000,
            collective: 20_000,
        },
        TransportKind::Uds => Scale {
            pingpong: 5_000,
            stream: 1_000,
            collective: 5_000,
        },
    };
    // Spawn cost from three bare worlds and the probe world itself.
    let mut spawns = Vec::new();
    for _ in 0..3 {
        let called = Instant::now();
        let per_rank = run_world_result_on(kind, N_RANKS, |comm| -> Result<f64, String> {
            comm.barrier();
            Ok(called.elapsed().as_secs_f64())
        })
        .map_err(|e| e.to_string())?;
        spawns.push(per_rank.into_iter().fold(0.0, f64::max));
    }
    let called = Instant::now();
    let per_rank = run_world_result_on(kind, N_RANKS, |comm| -> Result<Vec<f64>, String> {
        Ok(mpi_rank(comm, called, &scale))
    })
    .map_err(|e| e.to_string())?;
    // Rank 0 drives the point-to-point probes; collectives end together.
    let r0 = &per_rank[0];
    spawns.push(per_rank.iter().map(|r| r[0]).fold(0.0, f64::max));
    Ok(MpiProbe {
        spawn_s: median(&spawns),
        pingpong_us: r0[1],
        stream_mb_s: r0[2],
        alltoallv_mb_s: r0[3],
        allreduce_us: r0[4],
        barrier_us: r0[5],
    })
}

// ---------------------------------------------------------------------
// mem and core probes
// ---------------------------------------------------------------------

fn ns_per(t: Instant, n: usize) -> f64 {
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn core_probes(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    const N: usize = 1 << 20;
    let e = |e: mimir_core::MimirError| e.to_string();
    let pool = MemPool::new("probe", BUF, GIB).map_err(|e| e.to_string())?;

    drop(pool.alloc_page().map_err(|e| e.to_string())?); // warm the free list
    let t = Instant::now();
    for _ in 0..N {
        drop(black_box(pool.alloc_page().map_err(|e| e.to_string())?));
    }
    out.push(("mem.page_cycle_ns", ns_per(t, N)));

    let t = Instant::now();
    for _ in 0..N {
        drop(black_box(
            pool.try_reserve(4096).map_err(|e| e.to_string())?,
        ));
    }
    out.push(("mem.reserve_ns", ns_per(t, N)));

    // The grouping engine's two regimes: every key new (BFS partition),
    // and 8 Ki keys seen over and over (uniform WordCount).
    let mut unique = GroupIndex::new(&pool).map_err(e)?;
    let t = Instant::now();
    for i in 0..N as u64 {
        black_box(unique.insert(&i.to_le_bytes()).map_err(e)?);
    }
    out.push(("core.group.insert_unique_ns", ns_per(t, N)));
    drop(unique);

    let mut dup = GroupIndex::new(&pool).map_err(e)?;
    let t = Instant::now();
    for i in 0..N as u64 {
        // A multiplicative scramble, so successive keys are not neighbours.
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 51; // 13 bits: 8 Ki keys
        black_box(dup.insert(&k.to_le_bytes()).map_err(e)?);
    }
    out.push(("core.group.insert_dup_ns", ns_per(t, N)));
    drop(dup);

    // One comm buffer's worth of encoded KVs, appended over and over.
    let meta = KvMeta::var();
    let mut run = Vec::with_capacity(BUF);
    let mut i = 0u64;
    while run.len() + 24 <= BUF / 2 {
        mimir_core::encode_push(meta, &i.to_le_bytes(), &typed::enc_u64(1), &mut run);
        i += 1;
    }
    const RUNS: usize = 4_096; // 128 MiB in all
    let mut kvc = KvContainer::new(&pool, meta);
    let t = Instant::now();
    for _ in 0..RUNS {
        black_box(kvc.push_run(&run).map_err(e)?);
    }
    out.push(("core.kvc.push_run_mb_s", mb_s(t, RUNS * run.len())));
    drop(kvc);

    const CYCLES: usize = 100_000;
    let mut cache = KvCache::default();
    let mut frontier = KvContainer::new(&pool, meta);
    frontier.push(b"vertex", b"parent").map_err(e)?;
    cache.insert("probe", frontier, Partitioner::hash().fingerprint(N_RANKS));
    let t = Instant::now();
    for _ in 0..CYCLES {
        let held = cache.checkout("probe", &pool).map_err(e)?;
        cache.checkin("probe", black_box(held));
    }
    out.push(("core.cache.cycle_us", us_per(t, CYCLES)));
    Ok(())
}

// ---------------------------------------------------------------------
// The comparator
// ---------------------------------------------------------------------

/// The comparator's input: `wc_uniform`'s generator at a quarter of the
/// size. MR-MPI takes ten times as long as Mimir on this job, and a
/// traced run has seconds, not a minute, for an informational number.
const COMPARATOR: Input = Input::Uniform { bytes: 32 * MIB };

/// WordCount on [`COMPARATOR`] by both frameworks, in the same harness:
/// `(mrmpi wall, mimir wall)`, each one run of max-over-ranks time with
/// the input in the page cache. The paper's speed claim, informational.
fn comparator(scratch: &Scratch, seed: u64) -> Result<(f64, f64), String> {
    let dir = scratch.inputs().join("comparator");
    std::fs::create_dir_all(&dir).map_err(|e| format!("comparator input: {e}"))?;
    let (input, _) = COMPARATOR
        .write(seed, &dir)
        .map_err(|e| format!("comparator input: {e}"))?;
    let spill = scratch.spill_dir();
    std::fs::create_dir_all(&spill).map_err(|e| format!("spill directory: {e}"))?;

    let (mr_wall, mr_digest) = wordcount_wall(&input, Some(&spill))?;
    let (mimir_wall, mimir_digest) = wordcount_wall(&input, None)?;
    let _ = std::fs::remove_file(&input);
    if mr_digest != mimir_digest {
        return Err(format!(
            "MR-MPI and Mimir disagree on the word counts: {mr_digest:?} vs {mimir_digest:?}"
        ));
    }
    Ok((mr_wall, mimir_wall))
}

/// One WordCount of `input` in a fresh in-process world — on MR-MPI when
/// given a spill directory, on Mimir otherwise: max-over-ranks wall time
/// and the output digest.
fn wordcount_wall(input: &Path, mrmpi_spill: Option<&Path>) -> Result<(f64, Digest), String> {
    // MR-MPI holds seven pages at its widest and a page must hold a
    // rank's whole KV set (about 45 MiB here) to stay in memory: 64 MiB
    // pages, no budget.
    let cfg = MrMpiConfig {
        page_size: 64 * MIB,
        ooc: OocMode::Error,
    };
    let per_rank = run_world_result_on(
        TransportKind::Inproc,
        N_RANKS,
        |comm| -> Result<Vec<u64>, String> {
            let pool = MemPool::unlimited(format!("cmp{}", comm.rank()), BUF);
            let mut ctx = MimirContext::new(
                comm,
                pool.clone(),
                IoModel::free(),
                config(TransportKind::Inproc),
            )
            .map_err(|e| e.to_string())?;
            let text = ctx.read_text_split(input).map_err(|e| e.to_string())?;
            ctx.comm().barrier();
            let t = Instant::now();
            let counts = match mrmpi_spill {
                Some(dir) => {
                    let store = SpillStore::in_dir(dir, IoModel::free());
                    wordcount_mrmpi(ctx.comm(), pool, store, cfg, &text, false)
                        .map_err(|e| e.to_string())?
                        .0
                }
                None => {
                    wordcount_mimir(&mut ctx, &text, &WcOptions::default())
                        .map_err(|e| e.to_string())?
                        .0
                }
            };
            let ns = t.elapsed().as_nanos() as u64;
            let d = Digest::of_counts(counts.iter().map(|(k, n)| (&k[..], *n)));
            Ok(vec![ns, d.sum, d.items])
        },
    )
    .map_err(|e| e.to_string())?;
    let mut digest = Digest::default();
    let mut wall = 0.0f64;
    for r in &per_rank {
        wall = wall.max(r[0] as f64 / 1e9);
        digest.merge(&Digest {
            sum: r[1],
            items: r[2],
            aux: 0,
        });
    }
    Ok((wall, digest))
}

/// Measures every reference and probe.
///
/// # Errors
/// A probe could not run at all (no socket pair, a world that will not
/// start): a traced run without its references is not a result.
pub fn measure(scratch: &Scratch, seed: u64) -> Result<Machine, String> {
    let mut v: Vec<(&'static str, f64)> = Vec::new();
    let memcpy = memcpy_gb_s();
    let chan_us = channel_pingpong_us();
    let uds_us = uds_pingpong_us().map_err(|e| format!("socket-pair ping-pong: {e}"))?;
    let uds_mb = uds_stream_mb_s().map_err(|e| format!("socket-pair stream: {e}"))?;
    v.push(("ref.memcpy_gb_s", memcpy));
    v.push(("ref.channel_pingpong_us", chan_us));
    v.push(("ref.uds_pingpong_us", uds_us));
    v.push(("ref.uds_stream_mb_s", uds_mb));

    let p = mpi_probe(TransportKind::Inproc)?;
    v.push(("mpi.inproc.spawn_s", p.spawn_s));
    v.push(("mpi.inproc.pingpong_us", p.pingpong_us));
    v.push(("mpi.inproc.stream_mb_s", p.stream_mb_s));
    v.push(("mpi.inproc.alltoallv_mb_s", p.alltoallv_mb_s));
    v.push(("mpi.inproc.allreduce_us", p.allreduce_us));
    v.push(("mpi.inproc.barrier_us", p.barrier_us));
    v.push(("mpi.inproc.pingpong_of_ref", chan_us / p.pingpong_us));
    v.push((
        "mpi.inproc.stream_of_memcpy",
        p.stream_mb_s / (memcpy * 1e3),
    ));
    v.push((
        "mpi.inproc.alltoallv_of_memcpy",
        p.alltoallv_mb_s / (memcpy * 1e3),
    ));

    let p = mpi_probe(TransportKind::Uds)?;
    v.push(("mpi.uds.spawn_s", p.spawn_s));
    v.push(("mpi.uds.pingpong_us", p.pingpong_us));
    v.push(("mpi.uds.stream_mb_s", p.stream_mb_s));
    v.push(("mpi.uds.alltoallv_mb_s", p.alltoallv_mb_s));
    v.push(("mpi.uds.allreduce_us", p.allreduce_us));
    v.push(("mpi.uds.barrier_us", p.barrier_us));
    v.push(("mpi.uds.pingpong_of_ref", uds_us / p.pingpong_us));
    v.push(("mpi.uds.stream_of_ref", p.stream_mb_s / uds_mb));
    v.push(("mpi.uds.alltoallv_of_ref", p.alltoallv_mb_s / uds_mb));

    core_probes(&mut v)?;

    let (mr, mimir) = comparator(scratch, seed)?;
    v.push(("mrmpi.wc_wall_s", mr));
    v.push(("mrmpi.speedup", mr / mimir));

    Ok(Machine {
        values: v,
        memcpy_gb_s: memcpy,
    })
}
