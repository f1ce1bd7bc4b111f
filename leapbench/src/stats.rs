//! Exact latency percentiles with bounded memory, and the percentile
//! selection rule every reported tail follows.

/// Samples below this many nanoseconds are counted in a dense per-ns
/// table; slower ones are kept individually. Both are exact, so a
/// reported percentile is a measured nanosecond value, not a bucket edge.
const DENSE_NS: usize = 1 << 16;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// An exact latency distribution: per-nanosecond counts below
/// [`DENSE_NS`] plus the raw slow samples. Memory stays bounded by the
/// dense table (touched sparsely) plus the slow tail, independent of how
/// many fast operations a run completes.
#[derive(Default, Clone)]
pub struct LatHist {
    dense: Vec<u32>,
    slow: Vec<u64>,
    n: u64,
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        self.n += 1;
        if (ns as usize) < DENSE_NS {
            if self.dense.is_empty() {
                self.dense = vec![0; DENSE_NS];
            }
            self.dense[ns as usize] += 1;
        } else {
            self.slow.push(ns);
        }
    }

    pub fn merge(&mut self, other: &LatHist) {
        if !other.dense.is_empty() {
            if self.dense.is_empty() {
                self.dense = vec![0; DENSE_NS];
            }
            for (a, b) in self.dense.iter_mut().zip(&other.dense) {
                *a += b;
            }
        }
        self.slow.extend_from_slice(&other.slow);
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The nearest-rank quantile at `pm` per mille, in nanoseconds;
    /// `None` when empty.
    pub fn quantile(&mut self, pm: u64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = rank_of(self.n, pm);
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        self.slow.sort_unstable();
        let idx = usize::try_from(rank - seen - 1).expect("rank fits in usize");
        Some(self.slow[idx])
    }
}

/// 1-based nearest rank of the `pm`-per-mille quantile among `n` samples.
fn rank_of(n: u64, pm: u64) -> u64 {
    (n * pm).div_ceil(1000).max(1)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] samples beyond the
/// `pm`-per-mille nearest-rank percentile — the rule for reporting it.
pub fn supported(n: u64, pm: u64) -> bool {
    n > 0 && n - rank_of(n, pm) >= MIN_BEYOND
}

/// The highest of p99, p95, p90 and p50 that `n` samples support, in per
/// mille; `None` when not even the median has ten samples beyond it.
pub fn tail_pm(n: u64) -> Option<u64> {
    [990, 950, 900, 500]
        .into_iter()
        .find(|&pm| supported(n, pm))
}

/// Nearest-rank quantile of raw samples (sorts `v`); 0 when empty.
pub fn quantile_of(v: &mut [u64], pm: u64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[usize::try_from(rank_of(v.len() as u64, pm) - 1).expect("rank fits")]
}

/// Median of floats (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median_f64(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_over_dense_and_slow_samples() {
        let mut h = LatHist::default();
        for v in 1..=100u64 {
            h.record(v * 1000); // 1 µs .. 100 µs: crosses the dense limit
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(500), Some(50_000));
        assert_eq!(h.quantile(990), Some(99_000));
        assert_eq!(h.quantile(1000), Some(100_000));
        assert_eq!(h.quantile(1), Some(1_000));
    }

    #[test]
    fn merge_adds_both_parts() {
        let (mut a, mut b) = (LatHist::default(), LatHist::default());
        a.record(10);
        a.record(100_000);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(500), Some(20));
        assert_eq!(a.quantile(1000), Some(100_000));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(supported(1000, 990));
        assert!(!supported(999, 990));
        assert!(!supported(0, 500));
        assert!(supported(20, 500));
        assert!(!supported(19, 500));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(tail_pm(5000), Some(990));
        assert_eq!(tail_pm(300), Some(950));
        assert_eq!(tail_pm(100), Some(900));
        assert_eq!(tail_pm(25), Some(500));
        assert_eq!(tail_pm(5), None);
    }

    #[test]
    fn raw_quantiles_and_medians() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile_of(&mut v, 500), 3);
        assert_eq!(quantile_of(&mut [], 500), 0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
