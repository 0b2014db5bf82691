//! Windowed telemetry: successive differences of the recorder's
//! monotonic lanes, kept as a bounded time series.
//!
//! Cumulative counters answer "how did the run go overall"; they cannot
//! show a 50 ms lemming collapse or a pessimistic-audit stall, because
//! the healthy minutes around the incident average it away. This module
//! adds the time dimension: a rotator closes a window every N
//! milliseconds, and each closed window becomes a [`WindowSnapshot`]
//! (per-window p50/p99/p999 latency, abort-cause rates, path-mix) in a
//! bounded [`TimeSeries`] ring.
//!
//! # A window is a difference of two readings
//!
//! Writers never know about windows: they bump their recorder lane
//! (`lane.rs`), whose words only grow. A rotation reads every lane
//! ([`WindowCounts`]), subtracts the reading that opened the window
//! ([`WindowCounts::since`]), and keeps the new reading to open the next
//! one — the technique of every `since` in this workspace. Nothing is
//! reset, so nothing can be lost or counted twice: each word's window
//! values telescope, and `sum(all windows) == cumulative` holds word for
//! word once writers quiesce. A sample racing a rotation lands in this
//! window or the next (its bucket and its value sum possibly one window
//! apart, which skews two window means by that one sample). Rotations
//! are serialized by one mutex, off the hot path; a rotation writes
//! nothing a recording thread reads or writes.
//!
//! `tests/window_stress.rs` checks the telescoping under 8 writers and a
//! 1 ms rotator.

use std::sync::{Arc, Mutex};

use rtle_htm::lanes::PerLane;
use rtle_htm::AbortCode;

use crate::event::{PATHS, PATH_LABELS};
use crate::hist::HistSnapshot;
use crate::json::Json;
use crate::lane::Lane;

/// The counts of one window (or one lane's share of it) — or, as a
/// reading of a lane, everything counted so far.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowCounts {
    /// Commits per path, indexed by [`crate::PathKind::index`].
    pub commits: [u64; PATHS],
    /// Aborts per class, indexed by [`AbortCode::index`].
    pub aborts: [u64; AbortCode::KINDS],
    /// Explicit aborts per [`AbortCode::explicit_bucket`].
    pub explicit: [u64; AbortCode::EXPLICIT_CODES],
    /// Operation latency distribution for the window.
    pub latency: HistSnapshot,
}

impl WindowCounts {
    /// What was counted between `earlier` and `self`, two readings of
    /// the same lane (see the module docs).
    pub fn since(&self, earlier: &WindowCounts) -> WindowCounts {
        fn sub<const N: usize>(now: &[u64; N], then: &[u64; N]) -> [u64; N] {
            std::array::from_fn(|i| now[i] - then[i])
        }
        WindowCounts {
            commits: sub(&self.commits, &earlier.commits),
            aborts: sub(&self.aborts, &earlier.aborts),
            explicit: sub(&self.explicit, &earlier.explicit),
            latency: self.latency.since(&earlier.latency),
        }
    }

    /// Field-wise sum (merges the lanes' shares of a window, or a series
    /// of windows).
    pub fn merge(&mut self, other: &WindowCounts) {
        for (d, s) in self.commits.iter_mut().zip(other.commits) {
            *d += s;
        }
        for (d, s) in self.aborts.iter_mut().zip(other.aborts) {
            *d += s;
        }
        for (d, s) in self.explicit.iter_mut().zip(other.explicit) {
            *d += s;
        }
        self.latency = HistSnapshot::merged([&self.latency, &other.latency]);
    }

    /// Total commits across paths.
    pub fn total_commits(&self) -> u64 {
        self.commits.iter().sum()
    }

    /// Total aborts across causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Total attempts: every one committed or aborted.
    pub fn attempts(&self) -> u64 {
        self.total_commits() + self.total_aborts()
    }
}

/// One closed window: its counts plus its position on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Zero-based window index (the number of rotations before it).
    pub index: u64,
    /// Window start, ns since the process epoch ([`crate::epoch`]) —
    /// the same timebase live scrapes and flight records use, so a
    /// window seen in an offline timeline lines up with a scrape of the
    /// same run.
    pub start_ns: u64,
    /// Actual window length in ns (rotator jitter makes this differ
    /// slightly from the configured period).
    pub len_ns: u64,
    /// Merged counts for the window.
    pub counts: WindowCounts,
}

impl WindowSnapshot {
    /// Latency at quantile `q` (`0.5`, `0.99`, `0.999`, ...).
    pub fn latency_p(&self, q: f64) -> u64 {
        self.counts.latency.percentile(q)
    }

    /// Operations whose latency was recorded in this window.
    pub fn ops(&self) -> u64 {
        self.counts.latency.count
    }

    /// Fraction of commits that took the pessimistic lock path
    /// (`0.0` when the window saw no commits).
    pub fn fallback_rate(&self) -> f64 {
        let total = self.counts.total_commits();
        if total == 0 {
            return 0.0;
        }
        self.counts.commits[crate::PathKind::Lock.index()] as f64 / total as f64
    }

    /// Commits per second over the window's actual length.
    pub fn commit_rate(&self) -> f64 {
        if self.len_ns == 0 {
            return 0.0;
        }
        self.counts.total_commits() as f64 * 1e9 / self.len_ns as f64
    }

    /// Aborts per commit (`aborts / max(commits, 1)`), the storm signal.
    pub fn aborts_per_commit(&self) -> f64 {
        self.counts.total_aborts() as f64 / self.counts.total_commits().max(1) as f64
    }

    /// Explicit aborts recorded for protocol code `code`; 0 for a code
    /// without a bucket of its own ([`AbortCode::explicit_bucket`]).
    pub fn explicit_aborts(&self, code: u8) -> u64 {
        AbortCode::Explicit(code)
            .explicit_bucket()
            .map_or(0, |bucket| self.counts.explicit[bucket])
    }

    /// JSON form: timeline position, derived rates, percentiles, and the
    /// full latency histogram (commit/abort maps keyed by stable label).
    pub fn to_json(&self) -> Json {
        let label_map = |labels: &[&str], counts: &[u64]| {
            Json::Obj(
                labels
                    .iter()
                    .zip(counts)
                    .map(|(&l, &n)| (l.to_string(), Json::UInt(n)))
                    .collect(),
            )
        };
        Json::obj([
            ("index", Json::UInt(self.index)),
            ("start_ns", Json::UInt(self.start_ns)),
            ("len_ns", Json::UInt(self.len_ns)),
            ("ops", Json::UInt(self.ops())),
            ("p50_ns", Json::UInt(self.latency_p(0.50))),
            ("p99_ns", Json::UInt(self.latency_p(0.99))),
            ("p999_ns", Json::UInt(self.latency_p(0.999))),
            ("commit_rate", Json::Num(self.commit_rate())),
            ("fallback_rate", Json::Num(self.fallback_rate())),
            ("aborts_per_commit", Json::Num(self.aborts_per_commit())),
            ("commits", label_map(&PATH_LABELS, &self.counts.commits)),
            ("aborts", label_map(&AbortCode::LABELS, &self.counts.aborts)),
            (
                "explicit_codes",
                Json::Arr(
                    self.counts
                        .explicit
                        .iter()
                        .enumerate()
                        .filter(|&(_, &n)| n > 0)
                        .map(|(c, &n)| Json::Arr(vec![Json::UInt(c as u64), Json::UInt(n)]))
                        .collect(),
                ),
            ),
            ("latency", self.counts.latency.to_json()),
        ])
    }

    /// Rebuilds a snapshot from [`Self::to_json`] output; `None` on shape
    /// mismatch. Derived fields (rates, percentiles) are recomputed from
    /// the counts rather than trusted from the document.
    pub fn from_json(j: &Json) -> Option<WindowSnapshot> {
        fn labelled<const N: usize>(j: &Json, labels: &[&str; N]) -> Option<[u64; N]> {
            let mut out = [0u64; N];
            for (i, &l) in labels.iter().enumerate() {
                out[i] = j.get(l)?.as_u64()?;
            }
            Some(out)
        }
        let mut explicit = [0u64; AbortCode::EXPLICIT_CODES];
        for pair in j.get("explicit_codes")?.as_arr()? {
            let p = pair.as_arr()?;
            let code = u8::try_from(p.first()?.as_u64()?).ok()?;
            explicit[AbortCode::Explicit(code).explicit_bucket()?] = p.get(1)?.as_u64()?;
        }
        Some(WindowSnapshot {
            index: j.get("index")?.as_u64()?,
            start_ns: j.get("start_ns")?.as_u64()?,
            len_ns: j.get("len_ns")?.as_u64()?,
            counts: WindowCounts {
                commits: labelled(j.get("commits")?, &PATH_LABELS)?,
                aborts: labelled(j.get("aborts")?, &AbortCode::LABELS)?,
                explicit,
                latency: HistSnapshot::from_json(j.get("latency")?)?,
            },
        })
    }
}

/// A bounded ring of closed windows, oldest first. When full, the oldest
/// window is dropped and counted in [`TimeSeries::dropped`].
#[derive(Debug, Default)]
pub struct TimeSeries {
    cap: usize,
    dropped: u64,
    buf: std::collections::VecDeque<WindowSnapshot>,
}

impl TimeSeries {
    /// An empty series keeping at most `cap` windows (min 1).
    pub fn new(cap: usize) -> TimeSeries {
        TimeSeries {
            cap: cap.max(1),
            dropped: 0,
            buf: std::collections::VecDeque::new(),
        }
    }

    /// Appends a closed window, evicting the oldest at capacity.
    pub fn push(&mut self, w: WindowSnapshot) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(w);
    }

    /// Windows currently retained, oldest first.
    pub fn windows(&self) -> Vec<WindowSnapshot> {
        self.buf.iter().cloned().collect()
    }

    /// Retained window count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no window has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Windows evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The result of one rotation: the merged closed window plus the
/// per-lane shares it was merged from (tests use the latter to check
/// merged == sum of per-thread windows).
#[derive(Debug, Clone)]
pub struct WindowRotation {
    /// The closed window, all lanes merged.
    pub merged: WindowSnapshot,
    /// Per-lane counts, lane-index order.
    pub per_lane: Vec<WindowCounts>,
}

/// What the rotator keeps between rotations.
struct Open {
    /// The closed windows.
    series: TimeSeries,
    /// Start of the open window, ns since the process epoch.
    start_ns: u64,
    /// The per-lane readings that opened it.
    opened_at: Vec<WindowCounts>,
}

/// The windowed-telemetry collector: closes windows over a recorder's
/// lanes ([`crate::Recorder::windows`]). Any thread may rotate. See the
/// module docs.
pub struct WindowCollector {
    lanes: Arc<PerLane<Lane>>,
    window_len_ns: u64,
    open: Mutex<Open>,
}

impl WindowCollector {
    /// A collector over a recorder's `lanes` (a [`crate::Recorder`]
    /// configured with `window_len_ms > 0` makes one), rotating
    /// `window_len_ms`-long windows into a series of at most `series_cap`
    /// snapshots.
    pub(crate) fn over(
        lanes: Arc<PerLane<Lane>>,
        window_len_ms: u64,
        series_cap: usize,
    ) -> WindowCollector {
        WindowCollector {
            window_len_ns: window_len_ms.max(1) * 1_000_000,
            open: Mutex::new(Open {
                series: TimeSeries::new(series_cap),
                // Window starts, flight records and live scrapes all speak
                // the process-epoch timebase; the first window opens
                // *now*, not at the epoch.
                start_ns: crate::epoch::now_ns(),
                opened_at: lanes.iter().map(Lane::read).collect(),
            }),
            lanes,
        }
    }

    /// Configured window length in ns.
    pub fn window_len_ns(&self) -> u64 {
        self.window_len_ns
    }

    /// The index of the open window (== windows closed so far).
    pub fn epoch(&self) -> u64 {
        let open = self.open.lock().unwrap();
        open.series.dropped() + open.series.len() as u64
    }

    /// Closes the open window unconditionally: reads the lanes, pushes
    /// what they counted since the window opened onto the series, and
    /// returns it. Rotators are serialized by the collector's mutex
    /// (writers never take it).
    pub fn rotate(&self) -> WindowRotation {
        Self::close(&self.lanes, &mut self.open.lock().unwrap())
    }

    /// Rotates only if the open window has reached the configured
    /// length; the rotator thread calls this on its tick.
    pub fn maybe_rotate(&self) -> Option<WindowRotation> {
        let mut open = self.open.lock().unwrap();
        let due = crate::epoch::now_ns().saturating_sub(open.start_ns) >= self.window_len_ns;
        due.then(|| Self::close(&self.lanes, &mut open))
    }

    fn close(lanes: &PerLane<Lane>, open: &mut Open) -> WindowRotation {
        let now = crate::epoch::now_ns();
        let read: Vec<WindowCounts> = lanes.iter().map(Lane::read).collect();
        let per_lane: Vec<WindowCounts> = read
            .iter()
            .zip(&open.opened_at)
            .map(|(now, then)| now.since(then))
            .collect();
        let mut counts = WindowCounts::default();
        for lane in &per_lane {
            counts.merge(lane);
        }
        let merged = WindowSnapshot {
            index: open.series.dropped() + open.series.len() as u64,
            start_ns: open.start_ns,
            len_ns: now.saturating_sub(open.start_ns).max(1),
            counts,
        };
        open.series.push(merged.clone());
        open.start_ns = now;
        open.opened_at = read;
        WindowRotation { merged, per_lane }
    }

    /// The closed-window series, oldest first.
    pub fn series(&self) -> Vec<WindowSnapshot> {
        self.open.lock().unwrap().series.windows()
    }

    /// Windows evicted from the bounded series so far.
    pub fn series_dropped(&self) -> u64 {
        self.open.lock().unwrap().series.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttemptEvent, PathKind};
    use crate::trace::RecordKind;
    use crate::{ObsConfig, Recorder};
    use rtle_htm::lanes::{Writer, LANES};

    fn commit(path: PathKind, latency: u64) -> AttemptEvent {
        AttemptEvent {
            path,
            abort: None,
            attempt: 0,
            latency,
        }
    }

    /// A recorder cutting `window_len_ms`-long windows into a series of
    /// at most `series_cap`.
    fn windowed(window_len_ms: u64, series_cap: usize) -> Recorder {
        Recorder::new(ObsConfig {
            window_len_ms,
            window_series_cap: series_cap,
            ..ObsConfig::default()
        })
    }

    /// Counts one attempt on the lane logical thread `key` selects.
    fn attempt(r: &Recorder, key: u64, ev: AttemptEvent) {
        r.record(Writer::keyed(key), 0, RecordKind::Attempt(ev));
    }

    /// Records one operation latency on the lane `key` selects.
    fn latency(r: &Recorder, key: u64, ns: u64) {
        r.record_op_latency(Writer::keyed(key), ns);
    }

    #[test]
    fn rotation_cuts_distinct_windows() {
        let r = windowed(1_000, 16);
        let c = r.windows().unwrap();
        attempt(&r, 0, commit(PathKind::FastHtm, 10));
        latency(&r, 0, 100);
        let w1 = c.rotate().merged;
        assert_eq!(w1.index, 0);
        assert_eq!(w1.counts.commits, [1, 0, 0, 0]);
        assert_eq!(w1.ops(), 1);

        attempt(&r, 1, commit(PathKind::Lock, 20));
        attempt(
            &r,
            1,
            AttemptEvent {
                path: PathKind::SlowHtm,
                abort: Some(AbortCode::Explicit(4)),
                attempt: 1,
                latency: 0,
            },
        );
        let w2 = c.rotate().merged;
        assert_eq!(w2.index, 1);
        assert_eq!(w2.counts.commits, [0, 0, 0, 1]);
        assert_eq!(w2.explicit_aborts(4), 1);
        assert_eq!(w2.fallback_rate(), 1.0);
        assert_eq!(c.series().len(), 2);

        let w3 = c.rotate().merged;
        assert_eq!(w3.counts, WindowCounts::default(), "nothing recorded");
    }

    #[test]
    fn merged_window_is_sum_of_lanes() {
        let r = windowed(1_000, 16);
        let c = r.windows().unwrap();
        for key in 0..8u64 {
            for _ in 0..=key {
                attempt(&r, key, commit(PathKind::FastHtm, 5));
                latency(&r, key, 50 * (key + 1));
            }
        }
        let rot = c.rotate();
        assert_eq!(rot.per_lane.len(), LANES + 1, "and the overflow lane");
        for (key, lane) in rot.per_lane.iter().enumerate() {
            let expected = if key < 8 { key as u64 + 1 } else { 0 };
            assert_eq!(lane.commits[0], expected, "lane {key}");
        }
        let mut sum = WindowCounts::default();
        for s in &rot.per_lane {
            sum.merge(s);
        }
        assert_eq!(rot.merged.counts, sum);
        assert_eq!(rot.merged.ops(), (1..=8u64).sum::<u64>());
    }

    #[test]
    fn windows_telescope_to_the_cumulative_reading() {
        let r = windowed(1_000, 64);
        let c = r.windows().unwrap();
        let mut all = WindowCounts::default();
        for round in 0..5u64 {
            // Logical keys beyond LANES share lanes; the books stay exact.
            for key in 0..36u64 {
                attempt(&r, key, commit(PathKind::SlowHtm, key));
                latency(&r, key, 100 * (key + round) + 7);
            }
            let w = c.rotate().merged;
            assert_eq!(
                w.counts.commits,
                [0, 36, 0, 0],
                "round {round} counted once"
            );
            assert_eq!(w.ops(), 36);
            assert_eq!(
                w.counts.latency.max,
                w.counts.latency.buckets.last().unwrap().0
            );
            all.merge(&w.counts);
        }
        let mut cumulative = WindowCounts::default();
        for lane in c.lanes.iter() {
            cumulative.merge(&lane.read());
        }
        // The cumulative maximum is exact; a window's is its top bucket.
        assert!(all.latency.max <= cumulative.latency.max);
        all.latency.max = cumulative.latency.max;
        assert_eq!(all, cumulative);
    }

    #[test]
    fn series_is_bounded_and_counts_drops() {
        let r = windowed(1_000, 3);
        let c = r.windows().unwrap();
        for i in 0..5u64 {
            latency(&r, 0, i + 1);
            c.rotate();
        }
        let series = c.series();
        assert_eq!(series.len(), 3);
        assert_eq!(c.series_dropped(), 2);
        assert_eq!(
            series.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest windows evicted first"
        );
    }

    #[test]
    fn maybe_rotate_respects_the_deadline() {
        // 1000 ms window: the deadline cannot have passed yet.
        let r = windowed(1_000, 4);
        let c = r.windows().unwrap();
        assert!(c.maybe_rotate().is_none());
        // 1 ms window: spin past the deadline, measured on the process
        // epoch's clock like the collector's own.
        let r = windowed(1, 4);
        let c = r.windows().unwrap();
        let base = crate::epoch::now_ns();
        while crate::epoch::now_ns() < base + 2_000_000 {
            std::hint::spin_loop();
        }
        assert!(c.maybe_rotate().is_some());
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn windows_are_anchored_to_the_process_epoch() {
        let before = crate::epoch::now_ns();
        let r = windowed(1, 4);
        let c = r.windows().unwrap();
        latency(&r, 0, 5);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let w = c.rotate().merged;
        assert!(
            w.start_ns >= before,
            "first window starts at collector birth ({} >= {before}), not at the epoch",
            w.start_ns
        );
        assert!(
            w.len_ns < 1_000_000_000,
            "len is the window, not process uptime"
        );
        assert_eq!(
            w.start_ns + w.len_ns,
            c.series()[0].start_ns + c.series()[0].len_ns
        );
    }

    #[test]
    fn window_json_round_trips() {
        let r = windowed(50, 8);
        let c = r.windows().unwrap();
        for i in 0..100u64 {
            attempt(&r, i % 2, commit(PathKind::FastHtm, i));
            latency(&r, i % 2, i * 17 + 3);
        }
        attempt(
            &r,
            0,
            AttemptEvent {
                path: PathKind::SlowHtm,
                abort: Some(AbortCode::Conflict),
                attempt: 2,
                latency: 0,
            },
        );
        attempt(
            &r,
            1,
            AttemptEvent {
                path: PathKind::Lock,
                abort: Some(AbortCode::Explicit(6)),
                attempt: 3,
                latency: 0,
            },
        );
        let w = c.rotate().merged;
        let text = w.to_json().to_string_pretty();
        let back =
            WindowSnapshot::from_json(&crate::json::parse(&text).unwrap()).expect("round-trip");
        assert_eq!(back, w);
        assert_eq!(back.latency_p(0.999), w.latency_p(0.999));

        // A window without an `stm` entry is a shape mismatch.
        let mut old = w.to_json();
        let Json::Obj(fields) = &mut old else {
            panic!("a window is an object")
        };
        let Some(Json::Obj(commits)) = fields.get_mut("commits") else {
            panic!("with a commits map")
        };
        assert_eq!(commits.remove("stm"), Some(Json::UInt(0)));
        assert_eq!(WindowSnapshot::from_json(&old), None);
    }

    #[test]
    fn percentiles_come_from_window_latency() {
        let r = windowed(50, 8);
        let c = r.windows().unwrap();
        for v in 1..=1000u64 {
            latency(&r, 0, v);
        }
        let w = c.rotate().merged;
        assert!(w.latency_p(0.5) >= 450 && w.latency_p(0.5) <= 550);
        assert!(w.latency_p(0.99) <= w.latency_p(0.999));
        assert_eq!(w.ops(), 1000);
    }
}
