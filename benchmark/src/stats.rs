//! Order statistics over whole windows and over sets of runs.

/// Percentile `p` (0..=100) of an ascending slice, linearly interpolated
/// between the two nearest ranks (rank = p/100 · (n−1)); 0 for an empty
/// slice (a metric the run did not exercise).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted slice; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `aa` computes the spread the way the
/// driver does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Completion rates (1/s) of `blocks` consecutive blocks of equally many
/// completions: block `j` holds completions `j·k .. (j+1)·k` (k =
/// n ÷ blocks, the remainder at the end is left out) and lasts from the
/// completion before its first to its last, the first block from the
/// window's start. `done_s`: completion times, seconds from window
/// start. Fewer completions than `blocks` make one block each.
pub fn block_rates(done_s: &[f64], blocks: usize) -> Vec<f64> {
    let done = sorted(done_s);
    let blocks = blocks.min(done.len());
    if blocks == 0 {
        return Vec::new();
    }
    let per = done.len() / blocks;
    let mut rates = Vec::with_capacity(blocks);
    let mut from = 0.0;
    for block in 1..=blocks {
        let to = done[block * per - 1];
        if to > from {
            rates.push(per as f64 / (to - from));
        }
        from = to;
    }
    rates
}

/// Max ÷ min of the medians of `slices` equal time slices of a window:
/// how much the host's speed wandered during the run. A noise
/// indicator, not a gate. `samples` are (completion offset s, value).
pub fn slice_spread(samples: &[(f64, f64)], window_s: f64, slices: usize) -> f64 {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(at, v) in samples {
        let i = ((at / window_s * slices as f64) as usize).min(slices - 1);
        buckets[i].push(v);
    }
    let medians: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .collect();
    let max = medians.iter().copied().fold(f64::MIN, f64::max);
    let min = medians.iter().copied().fold(f64::MAX, f64::min);
    if medians.is_empty() || min <= 0.0 {
        return 0.0;
    }
    max / min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_cases() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // rank = 0.9 · 4 = 3.6 → 40 + 0.6 · 10
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
        // even count: the median is the mean of the middle pair
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!(q, [1.5, 4.0, 12.0]);
    }

    #[test]
    fn block_rates_time_equal_counts_of_completions() {
        // seven completions in three blocks of two; the seventh is left out
        let done = [0.5, 1.0, 1.1, 1.2, 2.2, 3.2, 9.0];
        let rates = block_rates(&done, 3);
        assert_eq!(rates.len(), 3);
        assert!((rates[0] - 2.0).abs() < 1e-12); // 2 in 0 → 1.0
        assert!((rates[1] - 10.0).abs() < 1e-9); // 2 in 1.0 → 1.2
        assert!((rates[2] - 1.0).abs() < 1e-12); // 2 in 1.2 → 3.2
        // fewer completions than blocks: one block each
        assert_eq!(block_rates(&[0.25, 0.75], 48), vec![4.0, 2.0]);
        assert!(block_rates(&[], 48).is_empty());
    }

    #[test]
    fn slice_spread_is_ratio_of_extreme_slice_medians() {
        // two slices over 2 s: medians 1 and 3
        let s = [(0.1, 1.0), (0.5, 1.0), (1.2, 3.0), (1.9, 3.0)];
        assert_eq!(slice_spread(&s, 2.0, 2), 3.0);
    }
}
