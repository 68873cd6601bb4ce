//! Median-of-windows and quantile arithmetic.

/// Median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank quantile of raw samples: the smallest sample with at
/// least `q·n` samples at or below it. Reorders `samples`. `None` for an
/// empty slice.
pub fn quantile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(*samples.select_nth_unstable(rank - 1).1)
}

/// One measured window's reading of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// As the clock read it.
    pub raw: f64,
    /// Normalised to the nominal host speed (see `calib`).
    pub value: f64,
    /// Samples the reading rests on.
    pub samples: usize,
}

/// A metric over the measured windows: the median of the normalised
/// window values is the reported value; the raw median and the range
/// show what the normalisation did and how far single windows strayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverWindows {
    /// Median of the normalised window values: the reported one.
    pub median: f64,
    /// Median of the raw window values.
    pub raw_median: f64,
    /// Smallest normalised window value.
    pub min: f64,
    /// Largest normalised window value.
    pub max: f64,
    /// Fewest samples any window's value rests on.
    pub samples: usize,
}

impl OverWindows {
    /// Summarises the windows; `None` when there are none.
    pub fn of(windows: &[Window]) -> Option<OverWindows> {
        let values: Vec<f64> = windows.iter().map(|w| w.value).collect();
        let raw: Vec<f64> = windows.iter().map(|w| w.raw).collect();
        Some(OverWindows {
            median: median(&values)?,
            raw_median: median(&raw)?,
            min: values.iter().copied().fold(f64::MAX, f64::min),
            max: values.iter().copied().fold(f64::MIN, f64::max),
            samples: windows.iter().map(|w| w.samples).min()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Ten windows with one wild outlier: the median ignores it.
        let w = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 250.0];
        assert_eq!(median(&w), Some(10.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(&mut [], 0.5), None);
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.50), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut v, 0.0), Some(1));
        let mut one = [7u32];
        assert_eq!(quantile(&mut one, 0.99), Some(7));
        // 1000 samples: p99 has ten samples at or beyond it.
        let mut v: Vec<u32> = (0..1000).collect();
        assert_eq!(quantile(&mut v, 0.99), Some(989));
    }

    #[test]
    fn over_windows_reports_medians_range_and_fewest_samples() {
        assert_eq!(OverWindows::of(&[]), None);
        let w = |raw: f64, value: f64, samples: usize| Window {
            raw,
            value,
            samples,
        };
        let o = OverWindows::of(&[w(30.0, 3.0, 100), w(10.0, 1.0, 80), w(20.0, 2.0, 120)]).unwrap();
        assert_eq!(
            o,
            OverWindows {
                median: 2.0,
                raw_median: 20.0,
                min: 1.0,
                max: 3.0,
                samples: 80
            }
        );
    }
}
