//! Reduce-side equi-join — a classic MapReduce pattern beyond the
//! paper's benchmarks, exercising tagged values and multi-input maps.
//!
//! Two synthetic datasets are joined on `user_id`:
//! * `users`:     (user_id, region)
//! * `purchases`: (user_id, amount)
//!
//! The map tags each record with its source; the reduce pairs every
//! purchase with its user's region and aggregates revenue per region.
//!
//! Run with: `cargo run --release -p mimir --example reduce_side_join`

use mimir::prelude::*;
use mimir_core::typed;

const RANKS: usize = 4;
const USERS: u64 = 10_000;
const PURCHASES_PER_RANK: u64 = 50_000;
const REGIONS: [&str; 4] = ["north", "south", "east", "west"];

fn main() {
    let nodes = NodeMap::new(RANKS, RANKS, 64 * 1024, 64 << 20).expect("node map");
    let nodes2 = nodes.clone();

    let per_rank = run_world(RANKS, move |comm| {
        let rank = comm.rank() as u64;
        let pool = nodes2.pool_for_rank(comm.rank());
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
            .expect("context");

        // Value layout: 1 tag byte + payload. Tag 0 = user record
        // (payload: region index), tag 1 = purchase (payload: u64 cents).
        let out = ctx
            .job()
            .kv_meta(KvMeta {
                key: mimir_core::LenHint::Fixed(8),
                val: mimir_core::LenHint::Var,
            })
            .map(&mut |em| {
                // This rank's slice of the user table…
                let mut uid = rank;
                while uid < USERS {
                    let region = (uid % REGIONS.len() as u64) as u8;
                    em.emit(&typed::enc_u64(uid), &[0u8, region])?;
                    uid += RANKS as u64;
                }
                // …and a stream of purchases with a cheap LCG.
                let mut state = 0x1234_5678u64.wrapping_add(rank);
                for _ in 0..PURCHASES_PER_RANK {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let uid = (state >> 13) % USERS;
                    let cents = (state >> 40) % 10_000;
                    let mut val = vec![1u8];
                    val.extend_from_slice(&typed::enc_u64(cents));
                    em.emit(&typed::enc_u64(uid), &val)?;
                }
                Ok(())
            })
            .reduce(&mut |_uid, vals, em| {
                // One user record and many purchases per key.
                let mut region: Option<u8> = None;
                let mut total = 0u64;
                let mut n = 0u64;
                for v in vals {
                    match v[0] {
                        0 => region = Some(v[1]),
                        _ => {
                            total += typed::dec_u64(&v[1..]);
                            n += 1;
                        }
                    }
                }
                let region = region.expect("every purchase has a user");
                if n > 0 {
                    em.emit(&[region], &typed::enc_u64_pair(total, n))?;
                }
                Ok(())
            })
            .expect("join job");

        // Aggregate (region -> revenue) locally; regions are few.
        let mut local = [(0u64, 0u64); REGIONS.len()];
        out.output
            .drain(|k, v| {
                let (cents, n) = typed::dec_u64_pair(v);
                local[k[0] as usize].0 += cents;
                local[k[0] as usize].1 += n;
                Ok(())
            })
            .expect("drain join output");
        local
    });

    let mut totals = [(0u64, 0u64); REGIONS.len()];
    for local in per_rank {
        for (i, (cents, n)) in local.iter().enumerate() {
            totals[i].0 += cents;
            totals[i].1 += n;
        }
    }
    println!(
        "revenue by region ({} purchases joined against {USERS} users):",
        RANKS as u64 * PURCHASES_PER_RANK
    );
    for (i, name) in REGIONS.iter().enumerate() {
        println!(
            "  {name:<6} ${:>12.2}  ({} purchases)",
            totals[i].0 as f64 / 100.0,
            totals[i].1
        );
    }
    let joined: u64 = totals.iter().map(|&(_, n)| n).sum();
    assert_eq!(joined, RANKS as u64 * PURCHASES_PER_RANK);
    println!("peak node memory: {} KiB", nodes.max_node_peak() / 1024);
}
