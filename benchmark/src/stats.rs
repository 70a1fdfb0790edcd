//! Order statistics for rep samples and per-call latency histograms.

/// Order statistics of one metric's samples (reps, batches or set-ups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The figure reported for the metric: see [`summarize`].
    value: f64,
    /// Whether `value` is a rank of the samples the rest describes (it is
    /// not where it was drawn from slices of them, see [`crate::quiet`]).
    ranked: bool,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The same samples, reported at their median. For the timings of
    /// threads that wait for each other, which the host moves both ways:
    /// while it runs its two vCPUs in turns on one core, a rep passes no
    /// cache line between cores and reads a third of its cost (`handoff`:
    /// 27 ns against 65). Up to a seventh of a run's reps did, so a low rank
    /// would flip between the two figures.
    pub fn at_median(self) -> Summary {
        Summary {
            value: self.median,
            ..self
        }
    }

    /// The same samples, with `value` as the figure reported: one drawn
    /// from the run's quietest slices (see [`crate::quiet`]), beside which
    /// the order statistics of the whole reps are still printed.
    pub fn reported_as(self, value: f64) -> Summary {
        Summary {
            value,
            ranked: false,
            ..self
        }
    }

    /// How far the reported figure moves from sample to sample, as far as
    /// this run can tell: the spread of the samples where the figure is
    /// one of their ranks, nothing where it is not.
    pub fn spread_of_value(&self) -> Option<f64> {
        self.ranked.then(|| self.spread())
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0, so constant-zero counts do not divide by zero).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, so a
/// spread printed here equals the one a reviewer recomputes from the raw
/// values. One sample yields that sample three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    core::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // `delta` may exceed 4 or fall below 0 at the clamped ends, where
        // Python extrapolates; keep its arithmetic.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Share of a metric's samples that lie below the figure reported for it.
const REPORTED_RANK: f64 = 0.05;

/// Summarises samples. The figure reported is their 5th percentile
/// (interpolated between order statistics, as numpy's default does), unless
/// the caller names the median or a figure drawn from slices instead.
///
/// The recording host is a small VM on a shared machine. Its neighbours
/// only ever add time to what one thread does: a cache-resident loop costs
/// 6 ns a call or, while the core's other half is busy, 9 and more, and a
/// run may spend a tenth of its time in the slow state or nine tenths. The
/// lower the rank, the less a figure moved from run to run; the 5th still
/// rests on a dozen of a run's 250 samples, not on one. It is what the
/// per-layer metrics (driver batches, span reps) are reported at; the
/// end-to-end timings, which carry bounds, are read off slices instead
/// (see [`crate::quiet`]). Counts that repeat read the same at any rank.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = REPORTED_RANK * (sorted.len() - 1) as f64;
    let below = sorted[rank as usize];
    let above = sorted[(rank as usize + 1).min(sorted.len() - 1)];
    Summary {
        value: below + (above - below) * rank.fract(),
        ranked: true,
        median,
        q1,
        q3,
        min: sorted[0],
        n: values.len(),
    }
}

/// Upper edge of the 1-ns bins; longer calls go to an exact overflow list.
const HIST_BINS: usize = 1 << 16;

/// Latency histogram with 1-ns bins below 65.5 µs and an exact list above.
///
/// `Instant` ticks in whole nanoseconds, so a plain "sorted[n/2]" median
/// of a 6-ns operation can only move in 17 % steps. Percentiles are
/// therefore interpolated inside the bin that holds the rank (the
/// grouped-data quantile), which moves smoothly with the bin's occupancy.
pub struct Hist {
    bins: Box<[u32]>,
    over: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            bins: vec![0u32; HIST_BINS].into_boxed_slice(),
            over: Vec::new(),
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.n += 1;
        match self.bins.get_mut(ns as usize) {
            Some(bin) => *bin += 1,
            None => self.over.push(ns),
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
        self.over.extend_from_slice(&other.over);
        self.n += other.n;
    }

    pub fn clear(&mut self) {
        self.bins.fill(0);
        self.over.clear();
        self.n = 0;
    }

    /// The `q` quantile (0 < q < 1) in ns, interpolated inside its bin;
    /// 0 for an empty histogram (the caller reports `n` alongside).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * self.n as f64;
        let mut below = 0.0;
        for (ns, &c) in self.bins.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && below + c > rank {
                return ns as f64 + (rank - below) / c;
            }
            below += c;
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        let idx = ((rank - below) as usize).min(over.len().saturating_sub(1));
        over.get(idx).map_or(HIST_BINS as f64, |&ns| ns as f64)
    }
}

/// Bins of a [`LogHist`]: one per ns below 64 ns, then 32 per power of two
/// up to 2^32 ns.
const LOG_BINS: usize = 64 + 26 * 32;

/// Latency histogram small enough to keep one per slice of a rep (3.5 KB):
/// exact below 64 ns, bins 3 % wide above. Read through a [`LogHistSum`].
#[derive(Clone)]
pub struct LogHist {
    bins: Box<[u32; LOG_BINS]>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            bins: Box::new([0; LOG_BINS]),
            n: 0,
        }
    }
}

impl LogHist {
    /// The bin holding `ns`.
    #[inline]
    fn bin(ns: u64) -> usize {
        let ns = ns.min(u32::MAX as u64);
        if ns < 64 {
            return ns as usize;
        }
        let octave = ns.ilog2() as usize;
        64 + (octave - 6) * 32 + ((ns >> (octave - 5)) as usize & 31)
    }

    /// Lower edge and width of `bin`, in ns.
    fn edge(bin: usize) -> (u64, u64) {
        if bin < 64 {
            return (bin as u64, 1);
        }
        let (octave, sub) = ((bin - 64) / 32 + 6, (bin - 64) % 32);
        let width = 1u64 << (octave - 5);
        ((32 + sub as u64) * width, width)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.bins[Self::bin(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
        self.n += other.n;
    }

    pub fn clear(&mut self) {
        self.bins.fill(0);
        self.n = 0;
    }
}

/// A weighted sum of [`LogHist`]s. Percentiles are interpolated inside
/// their bin, as [`Hist`]'s are.
pub struct LogHistSum {
    bins: Box<[f64; LOG_BINS]>,
}

impl Default for LogHistSum {
    fn default() -> Self {
        LogHistSum {
            bins: Box::new([0.0; LOG_BINS]),
        }
    }
}

impl LogHistSum {
    pub fn add(&mut self, hist: &LogHist, weight: f64) {
        for (a, &b) in self.bins.iter_mut().zip(hist.bins.iter()) {
            *a += weight * b as f64;
        }
    }

    /// The `q` quantile (0 < q < 1) in ns; 0 for an empty sum.
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = q * self.bins.iter().sum::<f64>();
        let mut below = 0.0;
        for (bin, &c) in self.bins.iter().enumerate() {
            if c > 0.0 && below + c > rank {
                let (lo, width) = LogHist::edge(bin);
                return lo as f64 + width as f64 * (rank - below) / c;
            }
            below += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
    }

    #[test]
    fn summary_reports_min_count_and_relative_spread() {
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.median, s.min, s.n), (30.0, 10.0, 5));
        // numpy.percentile([10, 20, 30, 40, 50], 5) == 12.0
        assert_eq!(s.value(), 12.0);
        assert_eq!(s.at_median().value(), 30.0);
        assert_eq!(summarize(&[1.0, 2.0]).value(), 1.05);
        assert_eq!(summarize(&[7.0]).value(), 7.0);
        let hundred_one: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(summarize(&hundred_one).value(), 5.0);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_interpolates_inside_a_bin() {
        let mut h = Hist::new();
        // 100 samples at 6 ns, 100 at 7 ns: the median sits on the edge.
        for _ in 0..100 {
            h.record(6);
            h.record(7);
        }
        assert!((h.percentile(0.5) - 7.0).abs() < 1e-9);
        assert!((h.percentile(0.25) - 6.5).abs() < 1e-9);
        assert!((h.percentile(0.99) - 7.98).abs() < 1e-9);
    }

    #[test]
    fn percentile_reaches_the_overflow_list() {
        let mut h = Hist::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.995), 1_000_000.0);
        assert!(h.percentile(0.5) < 11.0);
    }

    #[test]
    fn log_histogram_is_exact_below_64_ns_and_within_its_bin_above() {
        fn percentile(hist: &LogHist, q: f64) -> f64 {
            let mut sum = LogHistSum::default();
            sum.add(hist, 1.0);
            sum.percentile(q)
        }
        let mut h = LogHist::default();
        assert_eq!(percentile(&h, 0.99), 0.0);
        for _ in 0..100 {
            h.record(6);
            h.record(7);
        }
        assert!((percentile(&h, 0.25) - 6.5).abs() < 1e-9);
        assert!((percentile(&h, 0.99) - 7.98).abs() < 1e-9);
        // Every value lands in a bin that holds it, and bins tile the range.
        for ns in [
            63,
            64,
            65,
            127,
            128,
            1000,
            65_535,
            1 << 20,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let bin = LogHist::bin(ns);
            let (lo, width) = LogHist::edge(bin);
            let ns = ns.min(u32::MAX as u64);
            assert!(bin < LOG_BINS && lo <= ns && ns < lo + width, "{ns}");
            assert!(width * 32 <= lo.max(32), "{ns}: bins at most 1/32 wide");
        }
        let mut tail = LogHist::default();
        for _ in 0..980 {
            tail.record(40);
        }
        for _ in 0..20 {
            tail.record(2400);
        }
        let p99 = percentile(&tail, 0.99);
        assert!((2368.0..2432.0).contains(&p99), "{p99}");
        let mut both = tail.clone();
        both.merge(&h);
        assert_eq!(both.count(), 1200);
        both.clear();
        assert_eq!(both.count(), 0);
        // Weighted: `h` twice over counts like 400 calls of 6 to 7 ns
        // under `tail`'s thousand.
        let mut sum = LogHistSum::default();
        sum.add(&tail, 1.0);
        sum.add(&h, 2.0);
        assert!((sum.percentile(0.1) - 6.7).abs() < 1e-9);
        assert!((40.0..41.0).contains(&sum.percentile(0.5)));
    }

    #[test]
    fn empty_histogram_reads_zero_and_merge_adds() {
        let mut a = Hist::new();
        assert_eq!(a.percentile(0.99), 0.0);
        let mut b = Hist::new();
        b.record(5);
        b.record(70_000);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        a.clear();
        assert_eq!(a.count(), 0);
    }
}
