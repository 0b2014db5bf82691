//! Log-linear (HDR-style) histograms with lock-free recording.
//!
//! Latencies in the elision runtime span five orders of magnitude — a fast
//! HTM commit is tens of nanoseconds, a contended lock acquisition can be
//! milliseconds — so linear buckets are useless and exact reservoirs are
//! too expensive for the hot path. A log-linear layout (the HdrHistogram
//! scheme) keeps relative error bounded by the sub-bucket resolution at
//! every magnitude: values are grouped by their floor-log2 into *tiers*,
//! and each tier is split into [`SUB_BUCKETS`] linear sub-buckets.
//!
//! Recording is three `Relaxed` updates (bucket, value sum, running
//! maximum) of words that only ever grow: plain stores when the recording
//! thread owns the lane the histogram lives in
//! ([`rtle_htm::lanes::Writer`]), atomic read-modify-writes when it shares
//! it. Two [`HistSnapshot`]s of one histogram can be subtracted
//! ([`HistSnapshot::since`] — how a telemetry window is cut), and
//! snapshots of several can be summed ([`HistSnapshot::merged`] — how the
//! recorder's per-thread lanes become one distribution).

use std::sync::atomic::{AtomicU64, Ordering};

use rtle_htm::lanes::Writer;

use crate::json::Json;

/// Linear sub-buckets per power-of-two tier. 32 gives ~3% worst-case
/// relative error, plenty for p50/p99 reporting.
pub const SUB_BUCKETS: usize = 32;
const SUB_SHIFT: u32 = 5; // log2(SUB_BUCKETS)
/// Power-of-two tiers covered. Tier 0 holds values `< 2*SUB_BUCKETS`
/// exactly; the top tier caps recording at ~2^44, far above any latency
/// we time in ns or cycles.
pub const TIERS: usize = 40;
const BUCKETS: usize = TIERS * SUB_BUCKETS;

/// A concurrent log-linear histogram of `u64` values (unit-agnostic:
/// nanoseconds, simulator cycles, or plain counts like retries). The
/// buckets are inline (10 KiB), so a histogram sits wherever its owner
/// does — inside one recorder lane, on lines no other lane touches.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    /// Sum of recorded values (wrapping is acceptable for a diagnostics
    /// mean).
    total: AtomicU64,
    /// Running maximum, written only on increase.
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            total: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `v`.
    ///
    /// Values below `2 * SUB_BUCKETS` are recorded exactly (tiers 0 and 1
    /// are both linear with step 1); above that, the tier is
    /// `floor(log2(v))` and the sub-bucket takes the next [`SUB_SHIFT`]
    /// bits below the leading one.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v < (2 * SUB_BUCKETS) as u64 {
            return v as usize;
        }
        let tier = 63 - v.leading_zeros(); // >= 6 here
        let sub = ((v >> (tier - SUB_SHIFT)) & (SUB_BUCKETS as u64 - 1)) as usize;
        // Tiers 0 and 1 (values < 64) occupy indices 0..2*SUB_BUCKETS at
        // unit resolution, so the log region for tier t starts at index
        // 2*SUB_BUCKETS + (t - 6)*SUB_BUCKETS = (t - 4)*SUB_BUCKETS.
        let logical_tier = (tier as usize - (SUB_SHIFT as usize - 1)).min(TIERS - 1);
        logical_tier * SUB_BUCKETS + sub
    }

    /// Lower bound of the value range covered by bucket `idx` — the value
    /// reported for every sample that landed in the bucket.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < 2 * SUB_BUCKETS {
            return idx as u64;
        }
        let logical_tier = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        let tier = logical_tier as u32 + SUB_SHIFT - 1;
        (1u64 << tier) | (sub << (tier - SUB_SHIFT))
    }

    /// Records one sample from any thread: the histogram is shared by
    /// whoever records into it, so every word is bumped atomically.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_by(Writer::keyed(0), v);
    }

    /// Records one sample as `by`, a writer of the lane this histogram
    /// lives in: the bucket, the value sum, and (only when it grows) the
    /// maximum.
    #[inline]
    pub fn record_by(&self, by: Writer, v: u64) {
        by.bump(&self.counts[Self::bucket_index(v)], 1);
        // A zero (the usual retry count) moves neither the sum nor the max.
        if v > 0 {
            by.bump(&self.total, v);
            // ordering: monotonic statistics words with no synchronization
            // role; each is exact on its own once the recording threads are
            // quiet, which is all a snapshot or a window difference needs.
            if v > self.max.load(Ordering::Relaxed) {
                if by.owns_lane() {
                    self.max.store(v, Ordering::Relaxed);
                } else {
                    self.max.fetch_max(v, Ordering::Relaxed);
                }
            }
        }
    }

    /// An immutable snapshot (not atomic with respect to concurrent
    /// recording: a racing sample's bucket, sum and maximum may straddle
    /// it, which skews a mean by at most that sample).
    pub fn snapshot(&self) -> HistSnapshot {
        // ordering: statistics reads, as in `record`.
        let buckets: Vec<(u64, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_floor(i), n))
            })
            .collect();
        HistSnapshot {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            total: self.total.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a [`Histogram`]: only non-empty buckets, as
/// `(floor_value, count)` pairs sorted by value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub total: u64,
    /// Largest recorded value (exact, not bucket-floored).
    pub max: u64,
    /// Non-empty buckets: `(bucket_floor, count)`, ascending by floor.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Sums many snapshots bucket-wise — e.g. the lanes' shares of a
    /// window into one merged window, or a whole window series into a
    /// full-run distribution.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a HistSnapshot>) -> HistSnapshot {
        let mut buckets = std::collections::BTreeMap::<u64, u64>::new();
        let (mut count, mut total, mut max) = (0u64, 0u64, 0u64);
        for s in parts {
            count += s.count;
            total = total.wrapping_add(s.total);
            max = max.max(s.max);
            for &(floor, n) in &s.buckets {
                *buckets.entry(floor).or_insert(0) += n;
            }
        }
        HistSnapshot {
            count,
            total,
            max,
            buckets: buckets.into_iter().collect(),
        }
    }

    /// What was recorded between `earlier` and `self`, two snapshots of
    /// the **same** histogram: every bucket and the value sum only grow,
    /// so the difference is exact per word, and successive differences
    /// telescope — their sum is the last snapshot. The running maximum
    /// cannot be subtracted; the difference reports the floor of its top
    /// non-empty bucket (an underestimate by at most one sub-bucket
    /// width, like every percentile).
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut before = earlier.buckets.iter().peekable();
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(floor, n)| {
                let was = before.next_if(|&&(f, _)| f == floor).map_or(0, |&(_, n)| n);
                (n > was).then_some((floor, n - was))
            })
            .collect();
        HistSnapshot {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            total: self.total.wrapping_sub(earlier.total),
            max: buckets.last().map_or(0, |&(floor, _)| floor),
            buckets,
        }
    }

    /// Mean of recorded values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` (bucket floor — an
    /// underestimate by at most one sub-bucket width). `0` when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(floor, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return floor;
            }
        }
        self.max
    }

    /// JSON form: summary statistics plus the sparse bucket list.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("mean", Json::Num(self.mean())),
            ("max", Json::UInt(self.max)),
            ("p50", Json::UInt(self.percentile(0.50))),
            ("p90", Json::UInt(self.percentile(0.90))),
            ("p99", Json::UInt(self.percentile(0.99))),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(v, n)| Json::Arr(vec![Json::UInt(v), Json::UInt(n)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a snapshot from [`Self::to_json`] output. Returns `None`
    /// on schema mismatch.
    pub fn from_json(j: &Json) -> Option<HistSnapshot> {
        let buckets = j
            .get("buckets")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let p = pair.as_arr()?;
                Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(HistSnapshot {
            count: j.get("count")?.as_u64()?,
            // `total` is not exported; reconstruct an approximation from
            // mean * count for diff purposes.
            total: (j.get("mean")?.as_f64()? * j.get("count")?.as_u64()? as f64).round() as u64,
            max: j.get("max")?.as_u64()?,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_exact() {
        let h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 64);
        assert_eq!(s.buckets.len(), 64);
        assert!(s.buckets.iter().all(|&(floor, n)| n == 1 && floor < 64));
        assert_eq!(s.max, 63);
    }

    #[test]
    fn relative_error_bounded() {
        let h = Histogram::new();
        for shift in 6..40u32 {
            let v = (1u64 << shift) + (1u64 << shift.saturating_sub(2));
            h.record(v);
            let idx = Histogram::bucket_index(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            let err = (v - floor) as f64 / v as f64;
            assert!(err < 1.0 / SUB_BUCKETS as f64 + 1e-9, "err {err} at {v}");
        }
    }

    #[test]
    fn percentiles_monotone_and_sane() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let s = h.snapshot();
        let p50 = s.percentile(0.50);
        let p90 = s.percentile(0.90);
        let p99 = s.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max);
        assert!((450..=550).contains(&p50), "p50 {p50}");
        assert!((850..=950).contains(&p90), "p90 {p90}");
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn json_round_trip() {
        let h = Histogram::new();
        for v in [0, 1, 17, 900, 65_537, 1 << 30] {
            h.record(v);
        }
        let s = h.snapshot();
        let j = s.to_json();
        let back = HistSnapshot::from_json(&crate::json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back.count, s.count);
        assert_eq!(back.max, s.max);
        assert_eq!(back.buckets, s.buckets);
        assert_eq!(back.percentile(0.99), s.percentile(0.99));
    }

    #[test]
    fn differences_telescope_to_the_last_snapshot() {
        let h = Histogram::new();
        let mut cuts = vec![h.snapshot()];
        for round in 0..4u64 {
            for i in 0..50 * round {
                h.record(i * 131 % 70_000 + round);
            }
            cuts.push(h.snapshot());
        }
        let windows: Vec<HistSnapshot> = cuts.windows(2).map(|w| w[1].since(&w[0])).collect();
        assert_eq!(
            windows[0],
            HistSnapshot::default(),
            "nothing recorded in round 0"
        );
        assert_eq!(windows[1].count, 50);
        let sum = HistSnapshot::merged(&windows);
        let last = cuts.last().unwrap();
        assert_eq!(
            (sum.count, sum.total, &sum.buckets),
            (last.count, last.total, &last.buckets)
        );
        for w in &windows {
            assert_eq!(
                w.max,
                w.buckets.last().map_or(0, |b| b.0),
                "max = top bucket floor"
            );
            assert!(w.max <= last.max);
        }
    }

    #[test]
    fn merged_equals_single_histogram() {
        let parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        let whole = Histogram::new();
        for i in 0..800u64 {
            let v = i * 97 % 50_000;
            parts[(i % 4) as usize].record(v);
            whole.record(v);
        }
        let snaps: Vec<HistSnapshot> = parts.iter().map(Histogram::snapshot).collect();
        assert_eq!(HistSnapshot::merged(&snaps), whole.snapshot());
        assert_eq!(HistSnapshot::merged([]), HistSnapshot::default());
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
