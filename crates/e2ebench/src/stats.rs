//! Order statistics of the benchmark's samples.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported: a tail read off fewer is one slow request, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Sorted copy of `xs` (NaNs would be a harness bug; they sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`: the mean of the two middle samples when the count is
/// even.  `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Smallest and largest of `xs`.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    Some((*v.first()?, *v.last()?))
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it (`0 < p ≤ 100`).  `None` for
/// no samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The lower quartile of `xs` (nearest rank): what a run reports of its
/// repetitions' end-to-end timings.  On a shared host whatever else runs
/// only ever adds time, for seconds to a minute at a stretch, by up to
/// half.  The lower quartile reads the undisturbed repetitions as long as
/// a third of them are; the median gives way once half are disturbed,
/// and the minimum is one lucky sample.
pub fn lower_quartile(xs: &[f64]) -> Option<f64> {
    percentile(xs, 25.0)
}

/// [`percentile`], but only when at least [`MIN_BEYOND`] samples lie
/// strictly beyond its rank.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let rank = (p / 100.0 * xs.len() as f64).ceil() as usize;
    if xs.len() < rank + MIN_BEYOND {
        return None;
    }
    percentile(xs, p)
}

/// Share of `xs` above `limit`; 0 for no samples.
pub fn share_above(xs: &[f64], limit: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x > limit).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_picks_a_sample_never_interpolates() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 95.0), None);
    }

    #[test]
    fn the_lower_quartile_ignores_a_disturbed_majority() {
        assert_eq!(lower_quartile(&[]), None);
        // nine repetitions, six of them half again as slow
        let xs = [3.0, 2.0, 3.1, 2.1, 3.0, 3.2, 2.05, 3.0, 3.1];
        assert_eq!(lower_quartile(&xs), Some(2.1));
        // two or three samples: the smallest
        assert_eq!(lower_quartile(&[5.0, 4.0]), Some(4.0));
        assert_eq!(lower_quartile(&[5.0, 4.0, 6.0]), Some(4.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        // p95 leaves five beyond: not reported
        assert_eq!(tail_percentile(&xs, 95.0), None);
        // one sample fewer and p90 leaves only nine beyond rank 90
        assert_eq!(tail_percentile(&xs[..99], 90.0), None);
        // p95 needs 200 samples
        let ys: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&ys, 95.0), Some(190.0));
        assert_eq!(tail_percentile(&ys[..199], 95.0), None);
    }

    #[test]
    fn share_above_counts_strictly_greater() {
        assert_eq!(share_above(&[], 1.0), 0.0);
        assert_eq!(share_above(&[0.5, 1.0, 2.0, 3.0], 1.0), 0.5);
    }
}
