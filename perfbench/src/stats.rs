//! Order statistics over measured samples, on `salsa_metrics::LatencySeries`.
//!
//! A series stores whatever unit it is fed (the benchmark feeds it ms).
//! `f64::INFINITY` is a legal sample: a request that never completed sorts
//! above every finished one.

use salsa_metrics::LatencySeries;

/// `values` as a series.
pub fn series(values: &[f64]) -> LatencySeries {
    let mut series = LatencySeries::new();
    for &v in values {
        series.record_secs(v);
    }
    series
}

/// Nearest-rank `q`-quantile of `series`; NaN when it is empty, so an
/// unmeasured metric is refused instead of reading as 0.
pub fn quantile(series: &LatencySeries, q: f64) -> f64 {
    if series.is_empty() {
        f64::NAN
    } else {
        series.quantile_secs(q)
    }
}

/// Samples strictly above the rank of quantile `q`: a quantile is only
/// meaningful when at least ten samples lie beyond it.
pub fn beyond(series: &LatencySeries, q: f64) -> usize {
    let n = series.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    n.saturating_sub(rank)
}

/// Median of `values` (nearest rank); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&series(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = series(&values);
        assert_eq!(
            (quantile(&s, 0.5), quantile(&s, 0.9), quantile(&s, 0.99)),
            (500.0, 900.0, 990.0)
        );
        assert_eq!((beyond(&s, 0.90), beyond(&s, 0.99)), (100, 10));
    }

    #[test]
    fn unfinished_requests_sort_last() {
        let mut values = vec![1.0; 99];
        values.push(f64::INFINITY);
        values.push(f64::INFINITY);
        assert_eq!(quantile(&series(&values), 0.99), f64::INFINITY);
    }

    #[test]
    fn an_empty_series_is_not_a_zero() {
        let empty = series(&[]);
        assert!(quantile(&empty, 0.5).is_nan());
        assert_eq!(beyond(&empty, 0.99), 0);
    }
}
