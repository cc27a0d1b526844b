//! Percentiles and medians over wall-time samples.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs 1 000 samples and a p50 needs 20. Anything
//! thinner is refused rather than printed as a number that would not
//! repeat.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// The `q`-quantile (`0 < q < 1`) of `samples`, by linear interpolation
/// between order statistics. `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if (n as f64) * (1.0 - q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of a non-empty slice (no sample-count floor: used for
/// per-replay aggregates, of which a run holds a handful).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Wall-time samples of one operation class, in nanoseconds, each with
/// the speed-gauge segment it was taken in.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<f64>,
    segment: Vec<usize>,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.push_at(ns, 0);
    }

    /// Record one sample taken in gauge segment `segment`.
    pub fn push_at(&mut self, ns: u64, segment: usize) {
        self.ns.push(ns as f64);
        self.segment.push(segment);
    }

    /// Scale every sample by the factor of the segment it was taken in
    /// (see [`crate::speed`]).
    pub fn rescale(&mut self, factors: &[f64]) {
        for (ns, k) in self.ns.iter_mut().zip(&self.segment) {
            *ns *= factors[*k];
        }
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.segment.extend_from_slice(&other.segment);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all samples, in seconds.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<f64>() / 1e9
    }

    /// The `q`-quantile in nanoseconds (see [`percentile`]).
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        percentile(&self.ns, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(11.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
