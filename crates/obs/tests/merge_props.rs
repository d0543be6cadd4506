//! Property: cross-rank report merging is order-independent.
//!
//! A gathered run merges per-rank [`RankReport`]s in whatever order the
//! collective delivered them; the cluster aggregate must not depend on
//! it. Sums commute, maxes commute, cache-name records key-merge by
//! name — this test exercises all of it, every counter of every section,
//! over seeded random reports and random permutations, no external
//! property-test crate needed.

use mimir_obs::{CacheNameRecord, Json, RankReport};

/// xorshift64*: tiny seeded PRNG, deterministic across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A fresh value for every number in `v` (histogram slots included).
/// Times are whole milliseconds; counters stay below 2^40 so sums over a
/// few ranks are exact in JSON's f64 numbers.
fn randomize(rng: &mut Rng, times: bool, v: &mut Json) {
    match v {
        Json::Arr(items) => items.iter_mut().for_each(|i| randomize(rng, times, i)),
        _ if times => *v = Json::Num((1 + rng.below(10_000)) as f64 / 1000.0),
        _ => *v = Json::Num((1 + rng.below(1 << 40)) as f64),
    }
}

/// A report with every counter of every section randomized and
/// non-zero — filled through the report's own JSON form, so a counter
/// added to any section is covered without touching this test — and cache
/// names that overlap across ranks to exercise key-merge.
fn random_report(rng: &mut Rng, rank: usize) -> RankReport {
    let mut v = RankReport::new(rank).to_json();
    let Json::Obj(sections) = &mut v else {
        unreachable!("a report serializes to an object")
    };
    for (name, section) in sections.iter_mut() {
        if let Json::Obj(fields) = section {
            let times = name == "times";
            fields
                .iter_mut()
                .for_each(|(_, f)| randomize(rng, times, f));
        }
    }
    let mut r = RankReport::from_json(&v).unwrap();
    r.events_dropped = rng.below(100);
    // 0–3 distinct cache names drawn from a small pool so ranks share
    // names.
    for _ in 0..rng.below(4) {
        let name = format!("c{}", rng.below(5));
        if r.cache_names.iter().all(|c| c.name != name) {
            r.cache_names.push(CacheNameRecord {
                name,
                bytes: rng.below(1 << 24),
                elisions: rng.below(1 << 16),
            });
        }
    }
    r
}

/// Every number under a counter section of `v`, flattened.
fn counter_values(v: &Json) -> Vec<f64> {
    fn walk(v: &Json, out: &mut Vec<f64>) {
        match v {
            Json::Num(n) => out.push(*n),
            Json::Arr(items) => items.iter().for_each(|i| walk(i, out)),
            Json::Obj(fields) => fields.iter().for_each(|(_, f)| walk(f, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    if let Json::Obj(sections) = v {
        for (_, section) in sections {
            if let Json::Obj(_) = section {
                walk(section, &mut out);
            }
        }
    }
    out
}

#[test]
fn random_reports_fill_every_counter() {
    let mut rng = Rng(0x5eed_0003);
    let r = random_report(&mut rng, 0);
    let values = counter_values(&r.to_json());
    assert!(!values.is_empty());
    assert!(values.iter().all(|&n| n > 0.0), "a counter stayed zero");
}

/// Folds `reports` in the order given by `perm` into a neutral
/// accumulator (rank/ranks zeroed so the base contributes nothing).
fn fold(reports: &[RankReport], perm: &[usize]) -> RankReport {
    let mut acc = RankReport::new(0);
    acc.ranks = 0;
    for &i in perm {
        acc.merge(&reports[i]);
    }
    acc
}

#[test]
fn merge_is_order_independent() {
    let mut rng = Rng(0x5eed_0001);
    for trial in 0..50 {
        let n = 2 + (rng.below(7) as usize);
        let reports: Vec<RankReport> = (0..n).map(|r| random_report(&mut rng, r)).collect();
        let identity: Vec<usize> = (0..n).collect();
        let baseline = fold(&reports, &identity).to_json_string();
        // A few random permutations per world.
        for _ in 0..4 {
            let mut perm = identity.clone();
            for i in (1..n).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                perm.swap(i, j);
            }
            let shuffled = fold(&reports, &perm).to_json_string();
            assert_eq!(
                baseline, shuffled,
                "merge depended on order (trial {trial}, perm {perm:?})"
            );
        }
    }
}

#[test]
fn merge_is_associative_pairwise() {
    let mut rng = Rng(0x5eed_0002);
    for _ in 0..50 {
        let a = random_report(&mut rng, 0);
        let b = random_report(&mut rng, 1);
        let c = random_report(&mut rng, 2);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.to_json_string(), right.to_json_string());
    }
}

#[test]
fn merge_sums_waits_and_maxes_skew() {
    // Spot-check the new diagnosis counters against hand arithmetic, so
    // the property tests can't both be fooled by a sign-flip.
    let mut a = RankReport::new(0);
    a.shuffle.sync_wait_ns = 100;
    a.job.barrier_wait_ns = 7;
    a.shuffle.imbalance_permille = 1200;
    a.shuffle.gini_permille = 300;
    a.mem.oom_events = 1;
    let mut b = RankReport::new(1);
    b.shuffle.sync_wait_ns = 50;
    b.shuffle.imbalance_permille = 3000;
    b.shuffle.gini_permille = 100;
    a.merge(&b);
    assert_eq!(a.shuffle.sync_wait_ns, 150);
    assert_eq!(a.job.barrier_wait_ns, 7);
    assert_eq!(a.shuffle.imbalance_permille, 3000);
    assert_eq!(a.shuffle.gini_permille, 300);
    assert_eq!(a.mem.oom_events, 1);
    assert_eq!(a.ranks, 2);
}
