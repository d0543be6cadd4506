//! Order statistics for repeat samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the builder's driver uses to
//! judge this benchmark's spread: `compare` and the driver must agree on
//! what an inter-quartile range is.

/// The five numbers printed for every timed metric, plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&v);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1,
            median,
            q3,
            max: v[v.len() - 1],
        })
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0, which no metric of this benchmark is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).expect("median of no samples").median
}

/// `(q1, median, q3)` of an ascending slice, as Python's
/// `statistics.quantiles(v, n=4)` computes them. A single sample is its
/// own three quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0, 2.0, 2.0]).unwrap().spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }
}
