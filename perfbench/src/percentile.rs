//! Exact percentiles over per-request samples.
//!
//! Every latency the benchmark reports comes from here, never from the
//! program's bucketed metrics histograms: those snap to bucket bounds
//! that are 4× apart, so two different runs can print the same value.

/// The fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples sorted once, queried for any number of percentiles.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `samples`.
    ///
    /// # Panics
    ///
    /// Panics if a sample is NaN, which no timer produces.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
        Samples { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The median of a small set, such as a few repeated set-ups, where
    /// no tail is reported: the middle sample, or the mean of the middle
    /// two.
    ///
    /// # Panics
    ///
    /// Panics if there are no samples.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        assert!(n > 0, "median of no samples");
        (self.sorted[(n - 1) / 2] + self.sorted[n / 2]) / 2.0
    }

    /// The nearest-rank `p`-th percentile (`0 < p < 100`): the smallest
    /// sample with at least `p`% of the samples at or below it. Refused,
    /// with the number of samples above it, unless at least
    /// [`MIN_BEYOND`] samples are strictly greater than the value; ties
    /// with the value do not count as beyond it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
        let n = self.sorted.len();
        if n == 0 {
            return Err(format!("p{p}: no samples"));
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let value = self.sorted[rank.clamp(1, n) - 1];
        let beyond = n - self.sorted.partition_point(|&s| s <= value);
        if beyond < MIN_BEYOND {
            return Err(format!(
                "p{p}: only {beyond} of {n} samples lie above it (need {MIN_BEYOND})"
            ));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_hand_computed_oracle() {
        // 1..=40: p50 is the 20th value, p75 the 30th; 20 and 10 lie above.
        let s = Samples::new((1..=40).rev().map(f64::from).collect());
        assert_eq!(s.count(), 40);
        assert_eq!(s.percentile(50.0), Ok(20.0));
        assert_eq!(s.percentile(75.0), Ok(30.0));
        // p76: rank ceil(30.4) = 31, value 31, only 9 above.
        assert!(s.percentile(76.0).is_err());
    }

    #[test]
    fn ties_with_the_value_are_not_beyond_it() {
        // Twenty 5s then ten 9s: p50 → rank 15 → 5; above it lie the ten 9s.
        let mut v = vec![5.0; 20];
        v.extend([9.0; 10]);
        let s = Samples::new(v);
        assert_eq!(s.percentile(50.0), Ok(5.0));
        // p66.7 → rank 21 → 9; nothing lies above a 9.
        assert!(s.percentile(66.7).is_err());
        // Eleven 5s then ten 9s at p50 → rank 11 → 5 with ten above: kept;
        // twelve 5s and nine 9s at p50 → rank 11 → 5 with nine above: refused.
        let mut v = vec![5.0; 11];
        v.extend([9.0; 10]);
        assert_eq!(Samples::new(v).percentile(50.0), Ok(5.0));
        let mut v = vec![5.0; 12];
        v.extend([9.0; 9]);
        assert!(Samples::new(v).percentile(50.0).is_err());
    }

    #[test]
    fn median_of_a_few_samples() {
        assert_eq!(Samples::new(vec![4.0, 1.0, 3.0]).median(), 3.0);
        assert_eq!(Samples::new(vec![4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Samples::new(vec![7.0]).median(), 7.0);
    }

    #[test]
    fn one_sample_and_no_sample_are_refused() {
        let one = Samples::new(vec![3.5]);
        assert_eq!(one.count(), 1);
        let err = one.percentile(50.0).unwrap_err();
        assert!(err.contains("0 of 1"), "{err}");
        assert!(Samples::new(Vec::new()).percentile(50.0).is_err());
    }

    #[test]
    fn p95_needs_two_hundred_distinct_samples() {
        let s = Samples::new((0..200).map(f64::from).collect());
        assert_eq!(s.percentile(95.0), Ok(189.0));
        let s = Samples::new((0..199).map(f64::from).collect());
        assert!(s.percentile(95.0).is_err());
    }
}
