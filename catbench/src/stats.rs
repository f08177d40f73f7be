//! Order statistics over raw samples.

/// Samples a reported percentile needs beyond it, so a single outlier
/// cannot be the figure.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of `values`. Refused
/// (`None`) unless at least [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples is rank 190: exactly ten lie beyond it.
        assert_eq!(percentile(&values, 95.0), Some(190.0));
        assert_eq!(percentile(&values[..199], 95.0), None);
        // A median needs twenty samples.
        assert_eq!(percentile(&values[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&values[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
