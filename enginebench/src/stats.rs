//! Summary statistics that stay put when a workload mixes schemas of very
//! different cost.
//!
//! A pooled median over a mix lands wherever the cumulative count crosses
//! one half; when that point falls on the boundary between two schemas'
//! latency clusters, a few calls more or less of one schema move it by the
//! gap between the clusters. Taking each schema's (group's) median first
//! and combining the medians by geometric mean removes that dependence on
//! the mix, and a ratio of two such figures is the geometric mean of the
//! per-group ratios. The same holds for any other percentile.

use std::collections::BTreeMap;

/// Percentiles are reported only with at least this many samples beyond
/// them: above a high percentile, below a low one.
pub const MIN_TAIL: usize = 10;

/// The median of `values` (the mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples:
/// `⌈q·n⌉`, at least 1.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile of `values` by nearest rank, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it (above it for `q ≥ 0.5`, below
/// it otherwise).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(n, q);
    let beyond = if q >= 0.5 { n - rank } else { rank - 1 };
    if beyond < MIN_TAIL {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The geometric mean of positive `values`; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Each group's samples, in group order.
pub fn by_group(samples: &[(usize, f64)]) -> BTreeMap<usize, Vec<f64>> {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(g, v) in samples {
        groups.entry(g).or_default().push(v);
    }
    groups
}

/// The mix-robust median: the geometric mean over groups of each group's
/// median; 0 when there are no samples.
pub fn group_median(samples: &[(usize, f64)]) -> f64 {
    let medians: Vec<f64> = by_group(samples).values().map(|v| median(v)).collect();
    geomean(&medians)
}

/// The mix-robust `q`-quantile: the geometric mean over groups of each
/// group's [`percentile`]; `None` when there are no samples or some group
/// has too few.
pub fn group_percentile(samples: &[(usize, f64)], q: f64) -> Option<f64> {
    let per_group: Option<Vec<f64>> = by_group(samples)
        .values()
        .map(|v| percentile(v, q))
        .collect();
    per_group.filter(|p| !p.is_empty()).map(|p| geomean(&p))
}

/// How much of a whole the measured parts explain: the sum of the parts'
/// medians over the whole's median.
pub fn coverage(part_medians: &[f64], whole_median: f64) -> f64 {
    part_medians.iter().sum::<f64>() / whole_median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // p99 of 100 samples has one sample above it, p5 four below it.
        assert_eq!(percentile(&hundred, 0.99), None);
        assert_eq!(percentile(&hundred, 0.05), None);
        assert_eq!(percentile(&hundred, 0.2), Some(20.0));

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&thousand, 0.05), Some(50.0));
        assert_eq!(percentile(&thousand[..219], 0.05), Some(792.0));
        assert_eq!(percentile(&thousand[..199], 0.05), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn group_percentile_needs_every_group() {
        let mut s: Vec<(usize, f64)> = (1..=220).map(|v| (0, f64::from(v))).collect();
        s.extend((1..=220).map(|v| (1, 100.0 * f64::from(v))));
        // Each group's p5 is its 11th value: 11 and 1100.
        assert!((group_percentile(&s, 0.05).unwrap() - 110.0).abs() < 1e-9);
        s.push((2, 1.0));
        assert_eq!(group_percentile(&s, 0.05), None);
        assert_eq!(group_percentile(&[], 0.05), None);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn group_median_ignores_the_mix() {
        // Group 0 is cheap, group 1 expensive. The pooled median jumps
        // from one cluster to the other when one call more of group 1
        // lands in the sample; the per-group geomean does not move.
        let mix = |cheap: usize, dear: usize| -> Vec<(usize, f64)> {
            let mut s = vec![(0, 10.0); cheap];
            s.extend(vec![(1, 1000.0); dear]);
            s
        };
        let (a, b) = (mix(50, 49), mix(49, 50));
        let pooled = |s: &[(usize, f64)]| median(&s.iter().map(|&(_, v)| v).collect::<Vec<_>>());
        assert_eq!((pooled(&a), pooled(&b)), (10.0, 1000.0));
        assert!((group_median(&a) - 100.0).abs() < 1e-9);
        assert!((group_median(&b) - 100.0).abs() < 1e-9);
        assert_eq!(group_median(&[]), 0.0);
    }

    #[test]
    fn coverage_is_parts_over_whole() {
        assert!((coverage(&[1.0, 2.0, 3.0], 6.0) - 1.0).abs() < 1e-12);
        assert!((coverage(&[45.0], 50.0) - 0.9).abs() < 1e-12);
        assert_eq!(coverage(&[], 5.0), 0.0);
    }
}
