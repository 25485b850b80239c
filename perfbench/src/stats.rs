//! Exact order statistics over raw samples, and the ratio helpers every
//! derived metric goes through.
//!
//! Percentiles are taken from the sorted samples themselves (nearest-rank),
//! never from a bucketed histogram, so a p50 reads 812.4 µs rather than a
//! power-of-two bucket edge. A tail percentile is only reported when the
//! sample leaves at least [`MIN_BEYOND`] observations above it.

use std::time::Duration;

/// Observations a percentile must leave above it before it is reported:
/// p99 needs 1,000 samples, p90 needs 100.
pub const MIN_BEYOND: usize = 10;

/// A bag of latency observations in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank `q`-quantile in nanoseconds (`q` in (0, 1]); `None`
    /// when empty.
    pub fn quantile_ns(&mut self, q: f64) -> Option<u64> {
        self.sort();
        nearest_rank(&self.ns, q)
    }

    /// Median in microseconds; `None` when empty.
    pub fn p50_us(&mut self) -> Option<f64> {
        self.quantile_ns(0.5).map(ns_to_us)
    }

    /// The `q`-quantile in microseconds, only when the sample supports it
    /// (at least [`MIN_BEYOND`] observations above the quantile).
    pub fn supported_us(&mut self, q: f64) -> Option<f64> {
        if supports(self.len(), q) {
            self.quantile_ns(q).map(ns_to_us)
        } else {
            None
        }
    }

    /// Sum of all observations in seconds.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }
}

/// Latency samples bucketed by the fixed-length time slice of the
/// measured window they completed in. Throughput and percentiles are
/// reported as the median over whole slices, so a burst of interference
/// from outside the program moves one slice, not the run's figure.
#[derive(Clone, Debug)]
pub struct Sliced {
    origin: std::time::Instant,
    slice: Duration,
    slices: Vec<Samples>,
}

impl Default for Sliced {
    /// No slices: records nothing until replaced by [`Sliced::new`].
    fn default() -> Sliced {
        Sliced::new(std::time::Instant::now(), Duration::from_secs(1), 0)
    }
}

impl Sliced {
    /// `count` slices of `slice` each, starting at `origin`.
    pub fn new(origin: std::time::Instant, slice: Duration, count: usize) -> Sliced {
        Sliced { origin, slice, slices: vec![Samples::default(); count] }
    }

    /// Record an operation that finished at `end` after `latency`; one
    /// finishing outside the window is ignored.
    pub fn push(&mut self, end: std::time::Instant, latency: Duration) {
        let Some(since) = end.checked_duration_since(self.origin) else { return };
        let idx = (since.as_nanos() / self.slice.as_nanos().max(1)) as usize;
        if let Some(s) = self.slices.get_mut(idx) {
            s.push(latency);
        }
    }

    pub fn merge(&mut self, other: &Sliced) {
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.extend(b);
        }
    }

    /// Operations recorded in all slices.
    pub fn len(&self) -> usize {
        self.slices.iter().map(Samples::len).sum()
    }

    /// Median over slices of operations completed per second.
    pub fn rate_median(&self) -> f64 {
        let per_s = self.slice.as_secs_f64();
        let rates: Vec<f64> = self.slices.iter().map(|s| ratio(s.len() as f64, per_s)).collect();
        median(&rates)
    }

    /// Median over slices of each slice's `q`-quantile in microseconds;
    /// `None` unless every slice supports the quantile.
    pub fn quantile_median_us(&self, q: f64) -> Option<f64> {
        let per_slice: Option<Vec<f64>> =
            self.slices.iter().map(|s| s.clone().supported_us(q)).collect();
        per_slice.filter(|v| !v.is_empty()).map(|v| median(&v))
    }
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Does a sample of `n` leave [`MIN_BEYOND`] observations above its
/// `q`-quantile?
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= MIN_BEYOND as f64 - 1e-9
}

/// Nearest-rank quantile of an ascending slice: the smallest value with at
/// least `q·n` observations at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of real values (mean of the middle pair for even counts); 0.0
/// when empty.
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

/// Range over median — how far repeated measurements of one quantity
/// disagree; 0.0 with fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    ratio(hi - lo, median(values))
}

/// `num / den`, or 0.0 when the base is zero (a layer the workload never
/// reached reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time this process has consumed so far, exited threads included,
/// in seconds (`utime + stime` of `/proc/self/stat`, in the kernel's fixed
/// 100 Hz user-visible ticks). Time the host stole from the virtual CPU
/// is not charged to the process.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks / TICKS_PER_S
}

/// CPU time the calling thread has consumed so far, in seconds, at
/// nanosecond resolution (`/proc/thread-self/schedstat`).
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5));
        assert_eq!(nearest_rank(&v, 0.9), Some(9));
        assert_eq!(nearest_rank(&v, 0.99), Some(10));
        assert_eq!(nearest_rank(&v, 1.0), Some(10));
        assert_eq!(nearest_rank(&v, 0.01), Some(1));
        assert_eq!(nearest_rank(&[7], 0.5), Some(7));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn percentiles_are_exact_not_bucket_edges() {
        let mut s = Samples::default();
        for ns in [900_000, 1_100_000, 1_000_000] {
            s.push_ns(ns);
        }
        // A log2 histogram would report 1023 or 2047 µs here.
        assert_eq!(s.p50_us(), Some(1000.0));
        s.push(Duration::from_micros(3));
        assert_eq!(s.quantile_ns(0.25), Some(3_000));
        assert_eq!(s.quantile_ns(1.0), Some(1_100_000));
        assert!((s.total_s() - 0.003003).abs() < 1e-12);
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        assert!(!supports(999, 0.99));
        assert!(supports(1_000, 0.99));
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        let mut s = Samples::default();
        for i in 0..999 {
            s.push_ns(i);
        }
        assert_eq!(s.supported_us(0.99), None);
        s.push_ns(5_000_000);
        assert_eq!(s.supported_us(0.99), Some(0.989));
    }

    #[test]
    fn median_spread_and_ratio() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn sliced_reports_medians_over_whole_slices() {
        let t0 = std::time::Instant::now();
        let sec = Duration::from_secs(1);
        let mut a = Sliced::new(t0, sec, 3);
        // Slice 0: 20 ops of 1 µs; slice 1: 40 ops of 2 µs; slice 2: 30
        // ops of 3 µs; one op after the window and one before it.
        for (slice, n, us) in [(0u64, 20, 1u64), (1, 40, 2), (2, 30, 3), (3, 5, 9)] {
            for _ in 0..n {
                a.push(t0 + Duration::from_millis(slice * 1000 + 500), Duration::from_micros(us));
            }
        }
        a.push(t0 - Duration::from_millis(1), Duration::from_micros(9));
        assert_eq!(a.len(), 90);
        assert_eq!(a.rate_median(), 30.0);
        assert_eq!(a.quantile_median_us(0.5), Some(2.0));
        // p99 needs 1,000 samples in every slice.
        assert_eq!(a.quantile_median_us(0.99), None);
        let mut b = Sliced::new(t0, sec, 3);
        b.push(t0, Duration::from_micros(1));
        b.merge(&a);
        assert_eq!(b.len(), 91);
    }

    #[test]
    fn merged_samples_resort() {
        let mut a = Samples::default();
        a.push_ns(10);
        assert_eq!(a.quantile_ns(1.0), Some(10));
        let mut b = Samples::default();
        b.push_ns(20);
        b.push_ns(1);
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.quantile_ns(0.5), Some(10));
        assert_eq!(a.quantile_ns(1.0), Some(20));
    }
}
