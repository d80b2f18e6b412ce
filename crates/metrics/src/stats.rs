//! Streaming statistics (Welford) and nearest-rank percentiles.

/// Streaming mean / variance / min / max accumulator (Welford's method —
/// numerically stable for long experiment sweeps).
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    pub fn new() -> Running {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Nearest-rank percentile of an **unsorted** slice: the element whose sorted
/// position is `round(q · (n − 1))`, `q ∈ [0, 1]`. This is the same
/// definition `dagsched_obs::LogHist::quantile_bucket` buckets, so flat and
/// histogram summaries agree. Returns `None` on an empty slice.
pub fn percentile(xs: &[u64], q: f64) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_moments_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.std() - 2.0).abs() < 1e-12); // classic example set
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn empty_running_is_zeroed() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.std(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.std() - whole.std()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_single_element_is_that_element() {
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7], q), Some(7));
        }
    }

    #[test]
    fn percentile_nearest_rank_odd_and_even() {
        // Odd length: ranks land exactly. n=5 → rank(q) = round(4q).
        let odd = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&odd, 0.0), Some(10));
        assert_eq!(percentile(&odd, 0.5), Some(30));
        assert_eq!(percentile(&odd, 0.75), Some(40));
        assert_eq!(percentile(&odd, 1.0), Some(50));
        // Even length: n=4 → rank(0.5) = round(1.5) = 2 (banker's-free
        // f64::round, halves away from zero).
        let even = [1, 2, 3, 4];
        assert_eq!(percentile(&even, 0.5), Some(3));
        assert_eq!(percentile(&even, 0.25), Some(2));
        assert_eq!(percentile(&even, 1.0), Some(4));
    }

    #[test]
    fn percentile_handles_ties_and_unsorted_input() {
        let xs = [5, 1, 5, 5, 2, 5, 5];
        assert_eq!(percentile(&xs, 0.5), Some(5));
        assert_eq!(percentile(&xs, 0.0), Some(1));
        assert_eq!(percentile(&xs, 1.0), Some(5));
    }

    #[test]
    fn percentile_is_clamped_outside_unit_interval() {
        let xs = [3, 1, 2];
        assert_eq!(percentile(&xs, -1.0), Some(1));
        assert_eq!(percentile(&xs, 2.0), Some(3));
    }
}
