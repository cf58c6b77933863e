//! Percentiles over latency samples.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; `NaN`
/// when there are none. Failed operations enter the samples as a
/// penalty latency, so they count as missing every percentile.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 50.0), 50.0);
        assert_eq!(pct(&v, 99.0), 99.0);
        assert_eq!(pct(&v, 100.0), 100.0);
        assert_eq!(pct(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(pct(&[], 50.0).is_nan());
    }
}
