//! The [`Recorder`]: one object that absorbs timestamped records
//! (attempts and holder instants), latency samples, and adaptive-policy
//! decisions. It has one export, its [`crate::registry::LiveSource`]
//! reading (served live and written by `--json` tools through
//! [`crate::registry`]), and typed readers for in-process use:
//! [`Recorder::counts`], [`Recorder::cs_latency`], [`Recorder::lock_hold`],
//! [`Recorder::records`] and [`Recorder::decisions`]. None of them resets
//! anything.
//!
//! A recorder is shared behind an `Arc`: the lock runtime (or the
//! simulator) holds one and feeds it from the hot path; the harness
//! reads it at any time. Everything on the recording side is
//! lock-free, `Relaxed`, and lands in the recording writer's own lane
//! (`lane.rs`) — a handful of bumps on lines no other running thread
//! writes, plain stores on a lane the thread owns, and one two-word ring
//! store per attempt — except the decision list, which is a mutex-guarded
//! ring of the newest [`DECISIONS_KEPT`] decisions because decisions
//! happen at most once per adaptation window and always under the elided
//! lock. The list is bounded because a recording adaptive lock decides
//! for as long as it runs: one whose slow path goes idle shrinks and
//! collapses, re-enables on the next demand, and shrinks again.
//!
//! A recorder is fed by claimed writers ([`Writer::current`], the runtime)
//! or by keyed ones ([`Writer::keyed`], the simulator's logical threads),
//! never both: a keyed bump racing a lane owner's plain store could lose
//! an update ([`rtle_htm::lanes`]).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use rtle_htm::lanes::{PerLane, Writer};
use rtle_htm::AbortCode;

use crate::event::{commit_counters, AdaptDecision};
use crate::hist::HistSnapshot;
use crate::lane::Lane;
use crate::ring::Ring;
use crate::trace::{Record, RecordKind};
use crate::window::{WindowCollector, WindowCounts};

/// Version stamped into every exported document. Bump on any
/// backwards-incompatible change to the JSON layout.
///
/// History: v1 = cumulative counters/histograms only; v2 added the
/// `windows` time series (and the windowed-telemetry documents built on
/// it), and later, without a bump, the software rung's `stm` entry in
/// per-path commit maps; v3 dropped the sampling rate — every operation
/// of a recorded lock is recorded; v4 deleted the recorder's second export
/// (the `observability` object of `diag --json`), wrote the flight
/// record's resident records as Chrome events (thread, time and holder
/// instants; its `events_recorded` went), and dropped the live export's
/// totals that are sums of exported parts. See the [`crate::json`] module
/// docs for the migration policy.
pub const SCHEMA_VERSION: u64 = 4;

/// Record slots per lane: 16 KiB a lane, 256 KiB a recorder, which reads
/// as +0.2 MB (0.6 %) on `shard_batch`'s 33 MB `peak_rss_mb` against the
/// 64 KiB of the one-word ring this replaced. The per-record cost does not
/// depend on it (256 slots measured the same); 1024 attempts are several
/// lock-holder spans' worth of context on every thread's track.
pub const RING_SLOTS: usize = 1024;

/// Static configuration for a [`Recorder`]. How many threads record is
/// not part of it: the lanes and the ring size are constants
/// ([`rtle_htm::lanes::LANES`], [`RING_SLOTS`]).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Unit of every latency value fed to this recorder: `"ns"` for the
    /// real runtime, `"cycles"` for the simulator. Purely descriptive —
    /// stamped into flight records and traces so downstream tooling never
    /// mixes units.
    pub latency_unit: &'static str,
    /// Windowed-telemetry period in milliseconds; `0` (the default)
    /// disables the window collector.
    pub window_len_ms: u64,
    /// Closed windows retained in the bounded time series.
    pub window_series_cap: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            latency_unit: "ns",
            window_len_ms: 0,
            window_series_cap: 256,
        }
    }
}

/// Adaptive decisions a recorder keeps, newest last; older ones are
/// dropped and counted ([`Recorder::decisions_dropped`]). A decision
/// comes at most once per adaptation window (32 lock acquisitions), so
/// this keeps at least the last 32 768 acquisitions' worth — more than
/// any reader prints — in about 64 KiB.
pub const DECISIONS_KEPT: usize = 1024;

/// The newest [`DECISIONS_KEPT`] decisions, oldest first, and the count
/// of older ones dropped.
#[derive(Default)]
struct DecisionLog {
    kept: VecDeque<AdaptDecision>,
    dropped: u64,
}

/// Collects timestamped records, latency histograms, and adaptive
/// decisions. See the module docs.
pub struct Recorder {
    cfg: ObsConfig,
    /// Everything the recording threads count, one lane per thread.
    lanes: Arc<PerLane<Lane>>,
    /// Everything they stamp: the one record stream ([`crate::trace`]).
    ring: Ring<2, RING_SLOTS>,
    decisions: Mutex<DecisionLog>,
    windows: Option<WindowCollector>,
}

impl Recorder {
    /// A recorder with the given configuration.
    pub fn new(cfg: ObsConfig) -> Recorder {
        let lanes = Arc::new(PerLane::new(Lane::new));
        Recorder {
            ring: Ring::new(),
            decisions: Mutex::default(),
            windows: (cfg.window_len_ms > 0).then(|| {
                WindowCollector::over(Arc::clone(&lanes), cfg.window_len_ms, cfg.window_series_cap)
            }),
            lanes,
            cfg,
        }
    }

    /// The window collector, when `window_len_ms > 0` was configured.
    /// The harness's rotator thread drives [`WindowCollector::rotate`]
    /// through this.
    pub fn windows(&self) -> Option<&WindowCollector> {
        self.windows.as_ref()
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Records one thing `by` saw happen at `ts` (an attempt's start, an
    /// instant's time; the recorder's latency unit, on the process epoch
    /// for real time) on `by`'s lane, on the track of `by`'s key: an
    /// attempt is counted once (windows are cut from the same counters,
    /// not fed a copy), and the packed record goes to the lane's ring
    /// segment.
    #[inline]
    pub fn record(&self, by: Writer, ts: u64, kind: RecordKind) {
        self.push(by, by.key(), ts, kind);
    }

    #[inline]
    fn push(&self, by: Writer, track: u64, ts: u64, kind: RecordKind) {
        if let RecordKind::Attempt(ev) = kind {
            self.lanes.of(by).count(by, ev);
        }
        let rec = Record {
            tid: Record::tid_of(track),
            ts,
            kind,
        };
        self.ring.push(by, |generation| rec.pack(generation));
    }

    /// Records one end-to-end operation latency for the telemetry
    /// windows (no-op without a window collector). The caller is
    /// expected to measure from the operation's *intended* start so the
    /// per-window p99/p999 are coordinated-omission-corrected.
    #[inline]
    pub fn record_op_latency(&self, by: Writer, latency_ns: u64) {
        if self.windows.is_some() {
            self.lanes.of(by).op_latency.record_by(by, latency_ns);
        }
    }

    /// Appends an adaptive-policy decision to the decision list, stamped
    /// now on the process epoch, from the calling thread's lane.
    pub fn record_decision(&self, d: AdaptDecision) {
        self.decide(Writer::current(), d, crate::epoch::now_ns());
    }

    /// Appends an adaptive-policy decision with an explicit timestamp in
    /// the recorder's latency unit, from keyed writer 0 (the simulator
    /// passes its sim clock).
    pub fn record_decision_at(&self, d: AdaptDecision, ts: u64) {
        self.decide(Writer::keyed(0), d, ts);
    }

    /// Appends `d` to the decision list (dropping the oldest at
    /// [`DECISIONS_KEPT`]) and puts it on the record timeline as a
    /// process-scoped instant (track 0) carrying the post-decision orec
    /// count.
    fn decide(&self, by: Writer, d: AdaptDecision, ts: u64) {
        self.push(by, 0, ts, RecordKind::Adapt(d.action, d.orecs_after));
        let mut log = self.decisions.lock().unwrap();
        if log.kept.len() == DECISIONS_KEPT {
            log.kept.pop_front();
            log.dropped += 1;
        }
        log.kept.push_back(d);
    }

    /// The newest [`DECISIONS_KEPT`] decisions traced, oldest first.
    pub fn decisions(&self) -> Vec<AdaptDecision> {
        self.decisions
            .lock()
            .unwrap()
            .kept
            .iter()
            .cloned()
            .collect()
    }

    /// Decisions dropped from the list since creation.
    pub fn decisions_dropped(&self) -> u64 {
        self.decisions.lock().unwrap().dropped
    }

    /// Total records published to the ring — attempts and instants
    /// (monotone; includes overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.ring.pushed()
    }

    /// The resident records, sorted by time. Racy with concurrent
    /// recording (torn slots are discarded — [`crate::trace`]).
    pub fn records(&self) -> Vec<Record> {
        let mut out: Vec<Record> = self.ring.resident().filter_map(Record::unpack).collect();
        out.sort_by_key(|r| (r.ts, r.tid));
        out
    }

    /// The event counters summed over the lanes: commits per path,
    /// aborts per class and per explicit code, and the operation latencies
    /// windows cut. Each word only grows; the words are read one after
    /// another, so equalities between them hold only at quiescence.
    pub fn counts(&self) -> WindowCounts {
        let mut sum = WindowCounts::default();
        for lane in self.lanes.iter() {
            sum.merge(&lane.read());
        }
        sum
    }

    /// Critical-section latency of committed attempts, merged over the
    /// lanes: one sample per commit.
    pub fn cs_latency(&self) -> HistSnapshot {
        self.hist(|l| l.cs_latency.snapshot())
    }

    /// Fallback-lock hold time per acquisition, merged over the lanes: the
    /// latency of the lock path's commits.
    pub fn lock_hold(&self) -> HistSnapshot {
        self.hist(|l| l.lock_hold.snapshot())
    }

    /// One of the lanes' histograms, merged.
    fn hist(&self, of: impl Fn(&Lane) -> HistSnapshot) -> HistSnapshot {
        let parts: Vec<HistSnapshot> = self.lanes.iter().map(of).collect();
        HistSnapshot::merged(&parts)
    }
}

/// The recorder's one export: a reading of its lanes that resets nothing,
/// so a scrape every second disturbs neither the recording threads nor
/// the typed readers above. Each fact is exported once: a total that is
/// the sum of exported parts (all commits, all attempts, the latency
/// sample count) is left to the reader to sum.
impl crate::registry::LiveSource for Recorder {
    fn live_snapshot(&self) -> crate::registry::SourceSnapshot {
        let counts = self.counts();
        let mut counters: Vec<(String, u64)> = commit_counters(counts.commits).collect();
        for (label, n) in AbortCode::LABELS.iter().zip(counts.aborts) {
            counters.push((format!("aborts_{label}"), n));
        }
        for (c, n) in counts.explicit.into_iter().enumerate() {
            if n > 0 {
                counters.push((format!("explicit_code_{c}"), n));
            }
        }
        let cs = self.cs_latency();
        let hold = self.lock_hold();
        let mut gauges: Vec<(String, f64)> = vec![
            ("cs_latency_p50".into(), cs.percentile(0.50) as f64),
            ("cs_latency_p99".into(), cs.percentile(0.99) as f64),
            ("cs_latency_max".into(), cs.max as f64),
            ("lock_hold_p99".into(), hold.percentile(0.99) as f64),
        ];
        let mut windows = Vec::new();
        if let Some(w) = &self.windows {
            counters.push(("windows_closed".into(), w.epoch()));
            counters.push(("windows_dropped".into(), w.series_dropped()));
            gauges.push((
                "window_len_ms".into(),
                (w.window_len_ns() / 1_000_000) as f64,
            ));
            windows = w.series();
            let tail = windows
                .len()
                .saturating_sub(crate::registry::SCRAPE_WINDOW_TAIL);
            windows.drain(..tail);
        }
        crate::registry::SourceSnapshot {
            kind: "recorder",
            counters,
            gauges,
            windows,
            labels: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AdaptAction, AttemptEvent, PathKind};
    use crate::json::Json;
    use crate::registry::LiveSource;
    use crate::window::WindowSnapshot;

    fn key(k: u64) -> Writer {
        Writer::keyed(k)
    }

    fn commit(path: PathKind, attempt: u8, latency: u64) -> RecordKind {
        RecordKind::Attempt(AttemptEvent {
            path,
            abort: None,
            attempt,
            latency,
        })
    }

    fn abort(path: PathKind, code: AbortCode, attempt: u8) -> RecordKind {
        RecordKind::Attempt(AttemptEvent {
            path,
            abort: Some(code),
            attempt,
            latency: 0,
        })
    }

    #[test]
    fn counters_and_histograms_populate() {
        let r = Recorder::new(ObsConfig::default());
        r.record(key(0), 0, commit(PathKind::FastHtm, 0, 100));
        r.record(key(0), 0, commit(PathKind::FastHtm, 2, 300));
        r.record(
            key(0),
            0,
            abort(PathKind::SlowHtm, AbortCode::Explicit(4), 1),
        );
        r.record(key(0), 0, commit(PathKind::Lock, 3, 9_000));
        r.record(key(0), 9_000, RecordKind::EpochBump(7));
        let c = r.counts();
        assert_eq!((c.total_commits(), c.total_aborts()), (3, 1));
        assert_eq!(c.commits, [2, 0, 0, 1], "fast, slow, stm, lock");
        assert_eq!(c.explicit, [0, 0, 0, 0, 1, 0, 0, 0]);
        assert_eq!(r.cs_latency().count, 3);
        let hold = r.lock_hold();
        assert_eq!(
            (hold.count, hold.max),
            (1, 9_000),
            "a lock-path commit is the hold-time sample"
        );
        let attempts = r.records().iter().filter_map(Record::attempt).count();
        assert_eq!(attempts, 4, "instants are not attempts");
        assert_eq!((c.attempts(), r.pushed()), (4, 5));
    }

    #[test]
    fn an_explicit_code_past_the_buckets_counts_only_in_its_class() {
        // TL2's SW_ACTIVE (34) is not WRITE_FLAG_SET (2) on any export.
        let r = Recorder::new(ObsConfig {
            window_len_ms: 1_000,
            ..ObsConfig::default()
        });
        r.record(
            key(0),
            0,
            abort(PathKind::FastHtm, AbortCode::Explicit(34), 0),
        );
        let c = r.counts();
        assert_eq!(c.explicit, [0; AbortCode::EXPLICIT_CODES]);
        assert_eq!(c.aborts[AbortCode::Explicit(34).index()], 1);
        assert_eq!(c.total_aborts(), 1);
        let live = r.live_snapshot().counters;
        assert!(live.contains(&("aborts_explicit".to_string(), 1)));
        assert!(!live.iter().any(|(k, _)| k.starts_with("explicit_code_")));
        let w = r.windows().unwrap().rotate().merged;
        assert_eq!((w.explicit_aborts(34), w.explicit_aborts(2)), (0, 0));
        assert_eq!(w.counts.aborts[AbortCode::Explicit(34).index()], 1);
    }

    #[test]
    fn records_come_back_timestamped_and_in_time_order() {
        let r = Recorder::new(ObsConfig::default());
        r.record(key(3), 1_000, commit(PathKind::Lock, 0, 500));
        r.record(key(4), 1_100, commit(PathKind::SlowHtm, 0, 50));
        r.record(key(3), 1_500, RecordKind::EpochBump(7));
        r.record_decision_at(
            AdaptDecision {
                action: AdaptAction::Grow,
                orecs_before: 64,
                orecs_after: 128,
                slow_commits: 2,
                slow_aborts: 11,
                hot_slot: None,
            },
            1_200,
        );
        let records = r.records();
        let seen: Vec<(u16, u64, &str)> =
            records.iter().map(|r| (r.tid, r.ts, r.label())).collect();
        assert_eq!(
            seen,
            [
                (3, 1_000, "lock_held"),
                (4, 1_100, "slow_commit"),
                (0, 1_200, "adapt_grow"),
                (3, 1_500, "epoch_bump"),
            ]
        );
        assert_eq!(records[0].dur(), 500);
        assert_eq!(records[2].kind, RecordKind::Adapt(AdaptAction::Grow, 128));
        assert_eq!(r.pushed(), 4);
    }

    #[test]
    fn record_decision_stamps_the_process_epoch() {
        // Pin the epoch well before the recorder exists: a stamp taken on
        // a private epoch would land near zero.
        let pinned = crate::epoch::now_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let r = Recorder::new(ObsConfig::default());
        let before = crate::epoch::now_ns();
        assert!(before >= pinned + 20_000_000);
        r.record_decision(AdaptDecision {
            action: AdaptAction::Collapse,
            orecs_before: 1,
            orecs_after: 1,
            slow_commits: 0,
            slow_aborts: 0,
            hot_slot: None,
        });
        let ts = r.records()[0].ts;
        assert!(
            ts >= before && ts <= crate::epoch::now_ns(),
            "stamped at {ts}"
        );
        // On the caller's lane, on the process track.
        let slot = r.ring.resident().position(|w| Record::unpack(w).is_some());
        assert_eq!(slot.map(|s| s / RING_SLOTS), Some(Writer::current().lane()));
        assert_eq!(r.records()[0].tid, 0);
    }

    #[test]
    fn the_lane_comes_from_the_full_key_and_the_stored_id_wraps() {
        // Keys past the 10-bit id field — a process that has spawned more
        // than 1023 threads — still record on their own lanes (8 and 1),
        // under distinct ids.
        let r = Recorder::new(ObsConfig::default());
        for i in 0..RING_SLOTS as u64 + 5 {
            r.record(key(5_000), i, commit(PathKind::FastHtm, 0, 1));
        }
        r.record(key(6_001), 9_999_999, commit(PathKind::SlowHtm, 0, 1));
        let lane_of = |tid: u16| {
            let slot = r
                .ring
                .resident()
                .position(|w| Record::unpack(w).is_some_and(|rec| rec.tid == tid));
            slot.expect("recorded") / RING_SLOTS
        };
        assert_eq!(lane_of(Record::tid_of(5_000)), 8);
        assert_eq!(lane_of(Record::tid_of(6_001)), 1);
        let records = r.records();
        assert_eq!(
            records.len(),
            RING_SLOTS + 1,
            "one full segment of key 5000, and key 6001's record beside it"
        );
        assert_eq!(records[0].ts, 5, "a lane keeps its most recent records");
        assert_eq!(records.last().unwrap().tid, 6_001 % 1_024);
    }

    #[test]
    fn windowed_recorder_rotates_and_exports_its_windows() {
        assert!(
            Recorder::new(ObsConfig::default()).windows().is_none(),
            "window collector must be opt-in"
        );
        let r = Recorder::new(ObsConfig {
            window_len_ms: 50,
            ..ObsConfig::default()
        });
        for i in 0..40u64 {
            r.record(key(i % 2), 0, commit(PathKind::FastHtm, 0, 100));
            r.record_op_latency(key(i % 2), 1_000 + i * 10);
        }
        let rot = r.windows().expect("collector configured").rotate();
        assert_eq!(rot.merged.ops(), 40);
        assert_eq!(
            rot.merged.counts.commits[0], 40,
            "windows are cut from the lanes"
        );
        assert_eq!(
            r.counts().total_commits(),
            40,
            "which count each attempt once"
        );

        let series = r.windows().unwrap().series();
        assert_eq!(series.len(), 1);
        assert!(series[0].latency_p(0.999) >= series[0].latency_p(0.5));
        let scrape = [("r".to_string(), r.live_snapshot())];
        let text = crate::registry::render_json(&scrape, 0).to_string();
        let parsed = crate::json::parse(&text).unwrap();
        let windows = parsed.get("sources").and_then(Json::as_arr).unwrap()[0]
            .get("windows")
            .and_then(Json::as_arr)
            .unwrap();
        let back: Vec<_> = windows
            .iter()
            .filter_map(WindowSnapshot::from_json)
            .collect();
        assert_eq!(back, series);
    }

    #[test]
    fn live_snapshot_is_non_destructive() {
        let r = Recorder::new(ObsConfig {
            window_len_ms: 50,
            ..ObsConfig::default()
        });
        for i in 0..32u64 {
            r.record(key(0), 0, commit(PathKind::FastHtm, 0, 100 + i));
            r.record_op_latency(key(0), 500);
        }
        r.windows().unwrap().rotate();

        let live1 = r.live_snapshot();
        let live2 = r.live_snapshot();
        assert_eq!(
            live1.counters, live2.counters,
            "scrapes must not drain anything"
        );
        assert!(live1
            .counters
            .contains(&("commits_fast_htm".to_string(), 32)));
        assert_eq!(live1.windows.len(), 1);
        assert_eq!(live1.windows[0].ops(), 32);

        // The typed readers still see every resident record after any
        // number of scrapes.
        assert_eq!(r.records().len(), 32);
        assert_eq!(r.counts().total_commits(), 32);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = Arc::new(Recorder::new(ObsConfig::default()));
        // The runtime's way: every thread records on the lane it claimed.
        let threads: Vec<_> = (0..8u64)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let me = Writer::current();
                    for i in 0..10_000u64 {
                        if i % 5 == 4 {
                            r.record(me, 0, abort(PathKind::SlowHtm, AbortCode::Conflict, 0));
                        } else {
                            r.record(me, 0, commit(PathKind::FastHtm, 1, i % 1_000));
                        }
                    }
                })
            })
            .collect();
        // Read while writers are running: must never panic, and every
        // word read is a monotonic count bounded by the final one. The
        // words are read one after another, not atomically, so equalities
        // *between* them (cs_latency.count == commits) hold only at
        // quiescence, below.
        let mut last = 0;
        for _ in 0..20 {
            let c = r.counts();
            assert!(c.total_commits() >= last && c.total_commits() <= 8 * 8_000);
            assert!(r.cs_latency().count <= 8 * 8_000);
            assert!(c.total_aborts() <= 8 * 2_000 && c.attempts() <= 8 * 10_000);
            last = c.total_commits();
        }
        for t in threads {
            t.join().unwrap();
        }
        let c = r.counts();
        assert_eq!(c.total_commits(), 8 * 8_000);
        assert_eq!(c.total_aborts(), 8 * 2_000);
        assert_eq!(r.cs_latency().count, c.total_commits());
        assert_eq!(c.attempts(), 8 * 10_000);
    }

    #[test]
    fn logical_keys_beyond_the_lanes_keep_exact_books() {
        // The simulator drives one recorder from one OS thread with its
        // logical thread ids as keys; 36 of them share 16 lanes.
        let r = Recorder::new(ObsConfig {
            latency_unit: "cycles",
            window_len_ms: 1_000,
            ..ObsConfig::default()
        });
        for k in 0..36u64 {
            for i in 0..=k {
                r.record(
                    key(k),
                    0,
                    commit(PathKind::SlowHtm, (i % 4) as u8, 10 * k + i),
                );
                r.record_op_latency(key(k), 1_000 + k);
            }
            r.record(
                key(k),
                0,
                abort(PathKind::FastHtm, AbortCode::Explicit(k as u8), 0),
            );
        }
        let ops: u64 = (1..=36).sum();
        let c = r.counts();
        assert_eq!(c.total_commits(), ops);
        assert_eq!(c.total_aborts(), 36);
        // Codes 0..8 have buckets; the other 28 count only in the class.
        assert_eq!(c.explicit, [1; AbortCode::EXPLICIT_CODES]);
        let cs = r.cs_latency();
        assert_eq!(cs.count, ops);
        assert_eq!(cs.max, 10 * 35 + 35, "the cumulative maximum is exact");
        assert_eq!(c.attempts(), ops + 36);
        assert_eq!(
            r.records().len() as u64,
            ops + 36,
            "no lane segment wrapped"
        );
        let w = r.windows().unwrap().rotate().merged;
        assert_eq!(
            (w.counts.total_commits(), w.counts.total_aborts(), w.ops()),
            (ops, 36, ops)
        );
    }
}
