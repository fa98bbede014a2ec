//! Sample summaries: the one helper every latency figure goes through,
//! plus the quartile spread `compare` and the steadiness check use.

/// Median, one tail percentile and the sample count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank tail percentile, as measured.
    pub tail: f64,
    /// Samples ranked beyond the tail percentile.
    pub beyond: usize,
}

/// Fewer samples than this beyond a percentile and the percentile is one
/// or two outliers, not a property of the system.
pub const MIN_BEYOND: usize = 10;

impl Summary {
    /// The tail percentile, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn supported_tail(&self) -> Option<f64> {
        (self.beyond >= MIN_BEYOND).then_some(self.tail)
    }
}

/// Summarize `samples` (sorted in place, once): p50, the `tail_pct`
/// percentile (`0.5 < tail_pct < 1`) and n, by nearest rank like
/// `pdsm_bench::percentile`. `None` for an empty sample.
pub fn summarize(samples: &mut [f64], tail_pct: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let n = samples.len();
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    let tail_rank = rank(tail_pct);
    Some(Summary {
        n,
        p50: samples[rank(0.5) - 1],
        tail: samples[tail_rank - 1],
        beyond: n - tail_rank,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(median, (Q3 - Q1) / median)` with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives — the spread the benchmark
/// contract is judged by. Needs two values; a zero median has no relative
/// spread.
pub fn quartile_spread(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let med = median(values)?;
    if n < 2 || med == 0.0 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((med, (quartile(3) - quartile(1)) / med.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computed_percentiles() {
        // 1..=200 shuffled by a stride: p50 is the 100th value, p95 the
        // 190th, ten samples beyond it.
        let mut s: Vec<f64> = (0..200).map(|i| ((i * 77) % 200 + 1) as f64).collect();
        let sum = summarize(&mut s, 0.95).unwrap();
        assert_eq!(sum.n, 200);
        assert_eq!(sum.p50, 100.0);
        assert_eq!(sum.tail, 190.0);
        assert_eq!(sum.beyond, 10);
        assert_eq!(sum.supported_tail(), Some(190.0));
    }

    #[test]
    fn tail_is_null_with_fewer_than_ten_samples_beyond() {
        let mut s: Vec<f64> = (1..=199).map(|i| i as f64).collect();
        let sum = summarize(&mut s, 0.95).unwrap();
        // ceil(0.95 * 199) = 190 → nine samples beyond.
        assert_eq!(sum.tail, 190.0);
        assert_eq!(sum.beyond, 9);
        assert_eq!(sum.supported_tail(), None);
        assert!(summarize(&mut [], 0.95).is_none());
        let one = summarize(&mut [7.0], 0.95).unwrap();
        assert_eq!((one.p50, one.tail, one.beyond), (7.0, 7.0, 0));
    }

    #[test]
    fn quartiles_agree_with_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let (med, spread) = quartile_spread(&v).unwrap();
        assert_eq!(med, 5.5);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (med, spread) = quartile_spread(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(med, 2.0);
        assert!((spread - 1.0).abs() < 1e-12);
        assert!(quartile_spread(&[1.0]).is_none());
    }
}
