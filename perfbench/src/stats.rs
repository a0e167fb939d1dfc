//! Order statistics over the timed samples.

/// The `.tail` statistic keeps at least this many samples strictly beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values`; the mean of the two middle values for an even count.
///
/// # Panics
/// On an empty slice or a NaN sample (both are bugs in the caller).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// The highest percentile of a sample set that still has [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is: the share of samples at or below `value`, in %.
    pub percentile: f64,
    /// How many samples the statistic was taken over.
    pub samples: usize,
}

/// The tail statistic, or `None` when there are too few samples for any
/// percentile to have [`TAIL_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: sorted(values)[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Nearest-rank quantile `q` in `[0, 1]` of a non-empty sample set.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let s = sorted(values);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        // Only the smallest sample has ten beyond it.
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        // Shuffled 1..=40: the tail is the 30th smallest, the 75th percentile.
        let values: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40 + 1)).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_with_ties_counts_positions_not_values() {
        let mut values = vec![5.0; 12];
        values.push(9.0);
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 5.0);
        assert_eq!(t.samples, 13);
        assert!((t.percentile - 300.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = [0.4, 0.1, 0.3, 0.2];
        assert_eq!(nearest_rank(&v, 0.5), 0.2);
        assert_eq!(nearest_rank(&v, 0.95), 0.4);
        assert_eq!(nearest_rank(&v, 0.0), 0.1);
    }
}
