//! The octree level map against the bisection it replaces: at every depth
//! from 1 to `MAX_DEPTH`, `map_level`'s quantised digits must equal
//! `octant_path`'s, and its packed-prefix probe must keep exactly the
//! points whose parent octant is active — for generated points and for
//! the coordinates where a quantiser goes wrong first: dyadic boundaries
//! and their neighbours, the ends of the unit interval, values outside
//! it, NaN, infinities and subnormals.

use mimir_apps::octree::{map_level, octant_path, pack, Point, MAX_DEPTH};
use mimir_datagen::PointGen;

fn emitted(points: &[Point], level: usize, active: &[u64]) -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    map_level(points, level, active, |k| {
        keys.push(k.to_vec());
        Ok::<_, ()>(())
    })
    .unwrap();
    keys
}

fn parent(path: &[u8]) -> u64 {
    pack(&path[..path.len() - 1])
}

/// Checks `points` at every depth: with every parent prefix active the
/// map emits each point's `octant_path`, in order; with every other
/// prefix dropped it emits exactly the points whose parent stayed.
fn matches_bisection(points: &[Point]) {
    for level in 1..=MAX_DEPTH {
        let paths: Vec<Vec<u8>> = points.iter().map(|&p| octant_path(p, level)).collect();
        let mut active: Vec<u64> = paths.iter().map(|k| parent(k)).collect();
        active.sort_unstable();
        active.dedup();

        let got = emitted(points, level, &active);
        assert_eq!(got.len(), points.len(), "level {level}: a probe missed");
        for ((p, want), got) in points.iter().zip(&paths).zip(&got) {
            assert_eq!(got, want, "level {level}, point {p:?}");
        }

        let kept: Vec<u64> = active.iter().copied().step_by(2).collect();
        let want: Vec<Vec<u8>> = paths
            .into_iter()
            .filter(|k| kept.binary_search(&parent(k)).is_ok())
            .collect();
        assert_eq!(emitted(points, level, &kept), want, "level {level}");
    }
}

#[test]
fn digits_match_octant_path_on_generated_points() {
    for sigma in [0.5, 0.01] {
        let points = PointGen { sigma, seed: 3 }.generate(0, 1, 20_000);
        matches_bisection(&points);
    }
}

#[test]
fn digits_match_octant_path_on_edge_coordinates() {
    let mut coords = vec![
        0.0,
        -0.0,
        1.0 - f32::EPSILON,
        1.0 - f32::EPSILON / 2.0, // the largest f32 below 1
        1.0,
        1.5,
        7.0,
        f32::MAX,
        f32::INFINITY,
        -f32::MIN_POSITIVE,
        -0.25,
        -1.0,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        f32::from_bits(1), // the smallest subnormal
        1e-40,             // a subnormal
    ];
    for d in 1..=8 {
        let scale = (1u32 << d) as f32;
        for k in 0..=(1u32 << d) {
            let b = k as f32 / scale;
            coords.extend([b, b.next_down(), b.next_up()]);
        }
    }
    let n = coords.len();
    let points: Vec<Point> = (0..n)
        .flat_map(|i| {
            let [a, b, c] = [coords[i], coords[(i * 7 + 1) % n], coords[(i * 31 + 2) % n]];
            [[a, b, c], [b, c, a], [c, a, b]]
        })
        .collect();
    matches_bisection(&points);
}

#[test]
fn packed_prefixes_keep_digit_order() {
    assert_eq!(pack(&[]), 0);
    assert_eq!(pack(&[7]), 7);
    assert_eq!(pack(&[1, 0, 7]), 0o107);
    assert_eq!(pack(&[7; MAX_DEPTH]), u64::MAX >> 1);
}
