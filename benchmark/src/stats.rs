//! The arithmetic behind every reported number: the undisturbed level of a
//! set of timings, medians, sampled percentiles with the "ten samples
//! beyond" rule, and quartiles.

/// Median of `values` (mean of the two middle values for an even count).
/// An empty slice yields 0, which is what an absent per-layer metric reads.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The level `values` reach when the host leaves the program alone: the mean
/// of the values from the 0.75 up to the 0.95 quantile, counted from the
/// worst (`higher_is_better` says which end that is). With 24 values that is
/// the third- to sixth-best, with 15 the second- to fourth-best.
///
/// The calibration box is two virtual cores of a shared host, and what the
/// host takes away it takes for seconds to minutes at a time: throughput
/// then sits 15-30 % lower and no value ever reads higher for it. The middle
/// of the values follows how much of a run was disturbed (it moved 27 %
/// between runs of one build); this band stays at the undisturbed level as
/// long as a quarter of the values reach it, and leaves out the very best
/// (one of 15, two of 24), which a lucky draw of address-space layout can
/// own.
pub fn undisturbed(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !higher_is_better {
        v.reverse();
    }
    let from = v.len() * 3 / 4;
    let to = (v.len() * 19 / 20).max(from + 1);
    v[from..to].iter().sum::<f64>() / (to - from) as f64
}

/// Whether `n` samples resolve percentile `p` (0 < p < 1): at least ten
/// samples must lie beyond it, or the reading is set by a handful of
/// outliers and does not repeat.
pub fn resolves(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0
}

/// Nearest-rank percentile `p` of `samples` (sorted in place), or `None`
/// when fewer than ten samples lie beyond it.
pub fn percentile(samples: &mut [u32], p: f64) -> Option<u32> {
    if !resolves(samples.len(), p) {
        return None;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so spreads
/// printed here can be checked against that one-liner. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median;
/// 0 when there are too few values to have quartiles.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ignores_one_descheduled_interval() {
        assert_eq!(median(&[100.0, 102.0, 99.0, 101.0, 17.0, 100.0]), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn undisturbed_sits_in_the_upper_band_and_skips_the_lucky_draw() {
        // 24 rates: 14 disturbed ones, 9 at the undisturbed level, one lucky.
        let mut rates = vec![60.0; 14];
        rates.extend([100.0, 101.0, 99.0, 100.0, 100.0, 102.0, 98.0, 100.0, 100.0]);
        rates.push(170.0);
        // Sorted, places 18..22 hold 100, 100, 100, 101.
        assert_eq!(undisturbed(&rates, true), 401.0 / 4.0);
        // Times: the best are the lowest. 15 values, ranks 2-4 from the best.
        let mut times = vec![9.0; 10];
        times.extend([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(undisturbed(&times, false), 3.0);
        assert_eq!(undisturbed(&[5.0, 1.0, 3.0], true), 5.0);
        assert_eq!(undisturbed(&[5.0, 1.0, 3.0], false), 1.0);
        assert_eq!(undisturbed(&[], true), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 999 samples leaves 9.99 beyond: unresolved. 1000 resolves.
        assert!(!resolves(999, 0.99));
        assert!(resolves(1000, 0.99));
        assert!(resolves(20, 0.5));
        assert!(!resolves(19, 0.5));
        let mut few: Vec<u32> = (1..=999).collect();
        assert_eq!(percentile(&mut few, 0.99), None);
        let mut enough: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut enough, 0.99), Some(990));
        assert_eq!(percentile(&mut enough, 0.5), Some(500));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
