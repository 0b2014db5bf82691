//! The [`Recorder`]: one object that absorbs timestamped records
//! (attempts and holder instants), latency samples, and adaptive-policy
//! decisions, and produces schema-versioned [`ObsSnapshot`]s (exported as
//! JSON by every `--json` tool and served live through
//! [`crate::registry`]).
//!
//! A recorder is shared behind an `Arc`: the lock runtime (or the
//! simulator) holds one and feeds it from the hot path; the harness
//! snapshots it at any time. Everything on the recording side is
//! lock-free, `Relaxed`, and lands in the recording writer's own lane
//! (`lane.rs`) — a handful of bumps on lines no other running thread
//! writes, plain stores on a lane the thread owns, and one two-word ring
//! store per attempt — except the full decision list, which is a
//! mutex-guarded `Vec` because decisions happen at most once per
//! adaptation window and always under the elided lock.
//!
//! A recorder is fed by claimed writers ([`Writer::current`], the runtime)
//! or by keyed ones ([`Writer::keyed`], the simulator's logical threads),
//! never both: a keyed bump racing a lane owner's plain store could lose
//! an update ([`rtle_htm::lanes`]).

use std::sync::{Arc, Mutex};

use rtle_htm::lanes::{PerLane, Writer};
use rtle_htm::AbortCode;

use crate::event::{commit_counters, AdaptDecision, AttemptEvent, PATH_LABELS};
use crate::hist::HistSnapshot;
use crate::json::Json;
use crate::lane::Lane;
use crate::ring::Ring;
use crate::trace::{Record, RecordKind};
use crate::window::{WindowCollector, WindowCounts, WindowSnapshot};

/// Version stamped into every exported snapshot. Bump on any
/// backwards-incompatible change to the JSON layout.
///
/// History: v1 = cumulative counters/histograms only; v2 added the
/// `windows` time series (and the windowed-telemetry documents built on
/// it), and later, without a bump, the software rung's `stm` entry in
/// per-path commit maps; v3 dropped the sampling rate — every operation
/// of a recorded lock is recorded. See the [`crate::json`] module docs
/// for the migration policy.
pub const SCHEMA_VERSION: u64 = 3;

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
    /// stamped into snapshots so downstream tooling never mixes units.
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

/// Collects timestamped records, latency histograms, and adaptive
/// decisions. See the module docs.
pub struct Recorder {
    cfg: ObsConfig,
    /// Everything the recording threads count, one lane per thread.
    lanes: Arc<PerLane<Lane>>,
    /// Everything they stamp: the one record stream ([`crate::trace`]).
    ring: Ring<2, RING_SLOTS>,
    decisions: Mutex<Vec<AdaptDecision>>,
    windows: Option<WindowCollector>,
}

/// `(label, count)` pairs sorted by label — the order the JSON object
/// form carries.
fn labelled(labels: &[&str], counts: &[u64]) -> Vec<(String, u64)> {
    let mut pairs: Vec<(String, u64)> = labels
        .iter()
        .zip(counts)
        .map(|(&l, &n)| (l.to_string(), n))
        .collect();
    pairs.sort();
    pairs
}

impl Recorder {
    /// A recorder with the given configuration.
    pub fn new(cfg: ObsConfig) -> Recorder {
        let lanes = Arc::new(PerLane::new(Lane::new));
        Recorder {
            ring: Ring::new(),
            decisions: Mutex::new(Vec::new()),
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

    /// Appends `d` to the decision list and puts it on the record timeline
    /// as a process-scoped instant (track 0) carrying the post-decision
    /// orec count.
    fn decide(&self, by: Writer, d: AdaptDecision, ts: u64) {
        self.push(by, 0, ts, RecordKind::Adapt(d.action, d.orecs_after));
        self.decisions.lock().unwrap().push(d);
    }

    /// The decisions traced so far.
    pub fn decisions(&self) -> Vec<AdaptDecision> {
        self.decisions.lock().unwrap().clone()
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

    /// The event counters summed over the lanes.
    fn counts(&self) -> WindowCounts {
        let mut sum = WindowCounts::default();
        for lane in self.lanes.iter() {
            sum.merge(&lane.read());
        }
        sum
    }

    /// One of the lanes' histograms, merged.
    fn hist(&self, of: impl Fn(&Lane) -> HistSnapshot) -> HistSnapshot {
        let parts: Vec<HistSnapshot> = self.lanes.iter().map(of).collect();
        HistSnapshot::merged(&parts)
    }

    /// A point-in-time snapshot of everything the recorder holds. Reads
    /// only: neither the counters nor the ring are reset.
    pub fn snapshot(&self) -> ObsSnapshot {
        let counts = self.counts();
        ObsSnapshot {
            schema_version: SCHEMA_VERSION,
            latency_unit: self.cfg.latency_unit.to_string(),
            commits: labelled(&PATH_LABELS, &counts.commits),
            aborts: labelled(&AbortCode::LABELS, &counts.aborts),
            explicit_codes: (0u64..)
                .zip(counts.explicit)
                .filter(|&(_, n)| n > 0)
                .collect(),
            cs_latency: self.hist(|l| l.cs_latency.snapshot()),
            lock_hold: self.hist(|l| l.lock_hold.snapshot()),
            retries: self.hist(|l| l.retries.snapshot()),
            decisions: self.decisions(),
            events_recorded: counts.attempts(),
            recent_events: self
                .ring
                .resident()
                .filter_map(|words| Record::unpack(words)?.attempt())
                .collect(),
            windows: self
                .windows
                .as_ref()
                .map(WindowCollector::series)
                .unwrap_or_default(),
        }
    }
}

/// Live scraping reads the same lanes as [`Recorder::snapshot`], and like
/// it resets nothing, so a scrape every second cannot disturb the
/// end-of-run export (and vice versa).
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
        counters.push(("events_recorded".into(), counts.attempts()));
        let cs = self.hist(|l| l.cs_latency.snapshot());
        let hold = self.hist(|l| l.lock_hold.snapshot());
        counters.push(("cs_latency_count".into(), cs.count));
        counters.push(("lock_hold_count".into(), hold.count));
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

/// A complete, self-describing export of a [`Recorder`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// [`SCHEMA_VERSION`] at export time.
    pub schema_version: u64,
    /// `"ns"` or `"cycles"` — the unit of every latency field below.
    pub latency_unit: String,
    /// Commits by path label.
    pub commits: Vec<(String, u64)>,
    /// Aborts by class label ([`AbortCode::LABELS`]).
    pub aborts: Vec<(String, u64)>,
    /// Explicit aborts by protocol code, for the codes with a
    /// bucket of their own ([`AbortCode::explicit_bucket`]).
    pub explicit_codes: Vec<(u64, u64)>,
    /// Critical-section latency of committed attempts.
    pub cs_latency: HistSnapshot,
    /// Fallback lock hold time per acquisition.
    pub lock_hold: HistSnapshot,
    /// Attempts before commit (0 = committed first try).
    pub retries: HistSnapshot,
    /// Adaptive-policy decision trace, oldest first.
    pub decisions: Vec<AdaptDecision>,
    /// Total attempt events recorded (monotone; the ring keeps only the
    /// most recent of them).
    pub events_recorded: u64,
    /// Attempt events resident in the ring at snapshot time, lane by lane
    /// and oldest first within a lane.
    pub recent_events: Vec<AttemptEvent>,
    /// Closed telemetry windows (oldest first); empty when the recorder
    /// was configured without a window collector. Schema v2.
    pub windows: Vec<WindowSnapshot>,
}

impl ObsSnapshot {
    /// Total commits across paths.
    pub fn total_commits(&self) -> u64 {
        self.commits.iter().map(|&(_, n)| n).sum()
    }

    /// Total aborts across causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().map(|&(_, n)| n).sum()
    }

    /// JSON form (the schema that `--json` files carry).
    pub fn to_json(&self) -> Json {
        fn counts(pairs: &[(String, u64)]) -> Json {
            Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect(),
            )
        }
        Json::obj([
            ("schema_version", Json::UInt(self.schema_version)),
            ("latency_unit", Json::Str(self.latency_unit.clone())),
            ("commits", counts(&self.commits)),
            ("aborts", counts(&self.aborts)),
            (
                "explicit_codes",
                Json::Arr(
                    self.explicit_codes
                        .iter()
                        .map(|&(c, n)| Json::Arr(vec![Json::UInt(c), Json::UInt(n)]))
                        .collect(),
                ),
            ),
            ("cs_latency", self.cs_latency.to_json()),
            ("lock_hold", self.lock_hold.to_json()),
            ("retries", self.retries.to_json()),
            (
                "decisions",
                Json::Arr(self.decisions.iter().map(AdaptDecision::to_json).collect()),
            ),
            ("events_recorded", Json::UInt(self.events_recorded)),
            (
                "recent_events",
                Json::Arr(
                    self.recent_events
                        .iter()
                        .map(AttemptEvent::to_json)
                        .collect(),
                ),
            ),
            (
                "windows",
                Json::Arr(self.windows.iter().map(WindowSnapshot::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AdaptAction, PathKind};

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
        let s = r.snapshot();
        assert_eq!(s.total_commits(), 3);
        assert_eq!(s.total_aborts(), 1);
        assert_eq!(
            s.commits,
            vec![
                ("fast_htm".to_string(), 2),
                ("lock".to_string(), 1),
                ("slow_htm".to_string(), 0),
                ("stm".to_string(), 0)
            ]
        );
        assert_eq!(s.explicit_codes, vec![(4, 1)]);
        assert_eq!(s.cs_latency.count, 3);
        assert_eq!(s.retries.count, 3);
        assert_eq!(
            (s.lock_hold.count, s.lock_hold.max),
            (1, 9_000),
            "a lock-path commit is the hold-time sample"
        );
        assert_eq!(s.recent_events.len(), 4, "instants are not attempt events");
        assert_eq!((s.events_recorded, r.pushed()), (4, 5));
    }

    #[test]
    fn an_explicit_code_past_the_buckets_counts_only_in_its_class() {
        use crate::registry::LiveSource;
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
        let s = r.snapshot();
        assert_eq!(s.explicit_codes, vec![]);
        let aborts: std::collections::BTreeMap<_, _> = s.aborts.into_iter().collect();
        assert_eq!(aborts["explicit"], 1);
        assert_eq!(aborts.values().sum::<u64>(), 1);
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

    /// The export of one fixed recording, pinned byte for byte by
    /// `tests/golden/obs_snapshot.json`. Regenerate after an intentional
    /// schema change with
    /// `BLESS=1 cargo test -p rtle-obs --lib json_export_matches`.
    #[test]
    fn json_export_matches_the_golden_file() {
        let r = Recorder::new(ObsConfig {
            latency_unit: "cycles",
            ..ObsConfig::default()
        });
        for i in 0..12u64 {
            r.record(
                key(i % 4),
                0,
                commit(PathKind::FastHtm, (i % 3) as u8, i * 13),
            );
        }
        r.record(key(1), 0, abort(PathKind::SlowHtm, AbortCode::Conflict, 0));
        r.record(key(2), 0, commit(PathKind::Lock, 5, 4_000));
        r.record_decision(AdaptDecision {
            action: AdaptAction::Grow,
            orecs_before: 64,
            orecs_after: 128,
            slow_commits: 2,
            slow_aborts: 11,
            hot_slot: Some((17, 9)),
        });
        let text = r.snapshot().to_json().to_string_pretty();
        crate::json::parse(&text).expect("export parses");

        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_snapshot.json");
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(&path, &text).expect("write golden file");
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with BLESS=1",
                path.display()
            )
        });
        assert_eq!(
            text, expected,
            "obs_snapshot.json drifted; run `BLESS=1 cargo test -p rtle-obs --lib json_export_matches` \
             and review the diff"
        );
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
            r.snapshot().total_commits(),
            40,
            "which count each attempt once"
        );

        let snap = r.snapshot();
        assert_eq!(snap.windows.len(), 1);
        assert!(snap.windows[0].latency_p(0.999) >= snap.windows[0].latency_p(0.5));
        let parsed = crate::json::parse(&snap.to_json().to_string()).unwrap();
        let windows = parsed.get("windows").and_then(Json::as_arr).unwrap();
        let back: Vec<_> = windows
            .iter()
            .filter_map(WindowSnapshot::from_json)
            .collect();
        assert_eq!(back, snap.windows);
    }

    #[test]
    fn live_snapshot_is_non_destructive() {
        use crate::registry::LiveSource;
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
        assert!(live1
            .counters
            .contains(&("events_recorded".to_string(), 32)));
        assert_eq!(live1.windows.len(), 1);
        assert_eq!(live1.windows[0].ops(), 32);

        // The end-of-run snapshot still sees every resident ring event
        // after any number of scrapes.
        let snap = r.snapshot();
        assert_eq!(snap.recent_events.len(), 32);
        assert_eq!(snap.total_commits(), 32);
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
        // Snapshot while writers are running: must never panic, and every
        // word it reads is a monotonic count bounded by the final one. The
        // words are read one after another, not atomically, so equalities
        // *between* them (cs_latency.count == commits) hold only at
        // quiescence, below.
        let mut last = 0;
        for _ in 0..20 {
            let s = r.snapshot();
            assert!(s.total_commits() >= last && s.total_commits() <= 8 * 8_000);
            assert!(s.cs_latency.count <= 8 * 8_000 && s.retries.count <= 8 * 8_000);
            assert!(s.total_aborts() <= 8 * 2_000 && s.events_recorded <= 8 * 10_000);
            last = s.total_commits();
        }
        for t in threads {
            t.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.total_commits(), 8 * 8_000);
        assert_eq!(s.total_aborts(), 8 * 2_000);
        assert_eq!(s.cs_latency.count, s.total_commits());
        assert_eq!(s.retries.count, 8 * 8_000);
        assert_eq!(s.events_recorded, 8 * 10_000);
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
        let s = r.snapshot();
        assert_eq!(s.total_commits(), ops);
        assert_eq!(s.total_aborts(), 36);
        // Codes 0..8 have buckets; the other 28 count only in the class.
        assert_eq!(
            s.explicit_codes.iter().map(|&(_, n)| n).sum::<u64>(),
            AbortCode::EXPLICIT_CODES as u64
        );
        assert_eq!((s.cs_latency.count, s.retries.count), (ops, ops));
        assert_eq!(
            s.cs_latency.max,
            10 * 35 + 35,
            "the cumulative maximum is exact"
        );
        assert_eq!(s.events_recorded, ops + 36);
        assert_eq!(
            s.recent_events.len() as u64,
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
