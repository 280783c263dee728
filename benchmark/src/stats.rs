//! Estimators: the percentile picker, the best-quartile pass estimator and
//! the quartiles the acceptance check is stated in.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Samples a percentile must have *beyond* it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p` (in `(0, 1)`) of `samples`: the mean of the order
/// statistics within ±1 % of the sample count around the nearest-rank
/// percentile.
///
/// Why not the single order statistic: with a few hundred samples the tail
/// is sparse, and a lone gap next to the percentile's rank (measured on
/// `paper_engines`: 21.4 ms at rank 206 of 216, 26.9 ms at rank 207) lets a
/// ±10 m change of the inputs swap two operations across it and move the
/// "p95" by 25 %. With tens of thousands of samples the window changes
/// nothing.
///
/// Refuses (with the reason) when fewer than [`MIN_BEYOND`] samples lie on
/// the far side of the percentile's rank: a tail estimate resting on a
/// handful of samples is noise, not a number.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = (n - rank.min(n)).min(rank - 1);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has only {beyond} samples beyond it (need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let window = n / 100;
    Ok(mean(
        &sorted[(rank - 1).saturating_sub(window)..(rank + window).min(n)],
    ))
}

/// The best-quartile value of per-pass (or per-set-up) measurements: the
/// `ceil(n / 4)`-th best — 3rd best of 10, 2nd best of 5.
///
/// Interference on a shared machine only ever adds time, so the quiet
/// passes are the program; the very best one is still an outlier-prone
/// extreme, the quartile is not.
pub fn best_quartile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best_quartile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    sorted[values.len().div_ceil(4) - 1]
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // j = i * (n + 1) / 4, clamped to [1, n - 1]; delta is the remainder.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median — the spread the benchmark
/// is accepted or rejected on.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Plain median (mean of the two central values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when `b`
/// is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 is rank 190, ten beyond.
        assert_eq!(percentile(&samples, 0.95).unwrap(), 190.0);
        assert_eq!(percentile(&samples, 0.50).unwrap(), 100.0);
        // 199 samples: rank 190 leaves nine beyond — refused.
        assert!(percentile(&samples[..199], 0.95).is_err());
        // A median needs ten on each side.
        assert!(percentile(&samples[..20], 0.50).is_err());
        assert_eq!(percentile(&samples[..21], 0.50).unwrap(), 11.0);
        // Order of the input does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.95).unwrap(), 190.0);
        // A lone gap next to the rank is averaged over the ±1 % window
        // (here ranks 188..=192), not reported whole.
        let mut gapped = samples.clone();
        for v in &mut gapped[190..] {
            *v += 50.0;
        }
        assert_eq!(percentile(&gapped, 0.95).unwrap(), 210.0);
    }

    #[test]
    fn best_quartile_is_third_of_ten_and_second_of_five() {
        let ten = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0];
        assert_eq!(best_quartile(&ten, Better::Lower), 3.0);
        assert_eq!(best_quartile(&ten, Better::Higher), 8.0);
        let five = [5.0, 4.0, 1.0, 3.0, 2.0];
        assert_eq!(best_quartile(&five, Better::Lower), 2.0);
        assert_eq!(best_quartile(&five, Better::Higher), 4.0);
        assert_eq!(best_quartile(&[7.0], Better::Lower), 7.0);
        // One interfered pass does not move the estimate.
        let mut noisy = ten;
        noisy[1] = 100.0;
        assert_eq!(best_quartile(&noisy, Better::Lower), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 4.0, 5.5));
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_mean_and_worsening() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, Better::Lower) < 0.0);
    }
}
