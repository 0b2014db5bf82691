//! The [`Recorder`]: one object that absorbs attempt events, latency
//! samples, and adaptive-policy decisions, and produces schema-versioned
//! [`ObsSnapshot`]s (exported as JSON by every `--json` tool and served
//! live through [`crate::registry`]).
//!
//! A recorder is shared behind an `Arc`: the lock runtime (or the
//! simulator) holds one and feeds it from the hot path; the harness
//! snapshots it at any time. Everything on the recording side is
//! lock-free and `Relaxed` — a handful of fetch-adds and one ring store
//! per *sampled* operation — except decision tracing, which is a
//! mutex-guarded `Vec` because decisions happen at most once per
//! adaptation window and always under the elided lock.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::event::{AdaptDecision, AdaptAction, AttemptEvent, Outcome, PathKind};
use crate::hist::{HistSnapshot, Histogram};
use crate::json::Json;
use crate::ring::EventRing;
use crate::trace::{TraceKind, Tracer};
use crate::window::{WindowCollector, WindowSnapshot};

/// Version stamped into every exported snapshot. Bump on any
/// backwards-incompatible change to the JSON layout.
///
/// History: v1 = cumulative counters/histograms only; v2 added the
/// `windows` time series (and the windowed-telemetry documents built on
/// it). See the [`crate::json`] module docs for the migration policy.
pub const SCHEMA_VERSION: u64 = 2;

/// Static configuration for a [`Recorder`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Sample 1 in `2^sample_shift` operations for event/histogram
    /// recording. `0` records every operation; `4` records 1 in 16.
    pub sample_shift: u32,
    /// Slots per ring stripe (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Independent ring stripes (rounded up to a power of two). More
    /// stripes means less cross-thread contention on the ring cursors.
    pub stripes: usize,
    /// Unit of every latency value fed to this recorder: `"ns"` for the
    /// real runtime, `"cycles"` for the simulator. Purely descriptive —
    /// stamped into snapshots so downstream tooling never mixes units.
    pub latency_unit: &'static str,
    /// Trace-ring stripes (rounded up to a power of two). Ignored when
    /// the `trace` feature is off.
    pub trace_stripes: usize,
    /// Trace slots per stripe (rounded up to a power of two). Ignored
    /// when the `trace` feature is off.
    pub trace_capacity: usize,
    /// Windowed-telemetry period in milliseconds; `0` (the default)
    /// disables the window collector entirely, keeping the hot path free
    /// of even the forwarding branch's target.
    pub window_len_ms: u64,
    /// Closed windows retained in the bounded time series.
    pub window_series_cap: usize,
    /// Window collector stripes (rounded up to a power of two); stripe
    /// = `thread_key & (stripes - 1)`.
    pub window_stripes: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_shift: 0,
            ring_capacity: 1024,
            stripes: 8,
            latency_unit: "ns",
            trace_stripes: 8,
            trace_capacity: 4096,
            window_len_ms: 0,
            window_series_cap: 256,
            window_stripes: 8,
        }
    }
}

const PATHS: usize = 3;
const OUTCOMES: usize = 7; // index = Outcome kind code; 0 is Commit (unused)
const EXPLICIT_CODES: usize = 8;

fn path_index(p: PathKind) -> usize {
    match p {
        PathKind::FastHtm => 0,
        PathKind::SlowHtm => 1,
        PathKind::Lock => 2,
    }
}

/// Collects attempt events, latency histograms, and adaptive decisions.
/// See the module docs.
pub struct Recorder {
    cfg: ObsConfig,
    sample_mask: u64,
    ring: EventRing,
    /// Critical-section latency of committed attempts.
    cs_latency: Histogram,
    /// Time the fallback lock was held per acquisition.
    lock_hold: Histogram,
    /// Attempts needed before an operation committed (0 = first try).
    retries: Histogram,
    commits: [AtomicU64; PATHS],
    aborts: [AtomicU64; OUTCOMES],
    explicit_codes: [AtomicU64; EXPLICIT_CODES],
    decisions: Mutex<Vec<AdaptDecision>>,
    tracer: Tracer,
    windows: Option<WindowCollector>,
}

impl Recorder {
    /// A recorder with the given configuration.
    pub fn new(cfg: ObsConfig) -> Recorder {
        Recorder {
            sample_mask: (1u64 << cfg.sample_shift.min(63)) - 1,
            ring: EventRing::new(cfg.stripes, cfg.ring_capacity),
            cs_latency: Histogram::new(),
            lock_hold: Histogram::new(),
            retries: Histogram::new(),
            commits: Default::default(),
            aborts: Default::default(),
            explicit_codes: Default::default(),
            decisions: Mutex::new(Vec::new()),
            tracer: Tracer::new(cfg.trace_stripes, cfg.trace_capacity),
            windows: (cfg.window_len_ms > 0).then(|| {
                WindowCollector::new(cfg.window_len_ms, cfg.window_series_cap, cfg.window_stripes)
            }),
            cfg,
        }
    }

    /// The window collector, when `window_len_ms > 0` was configured.
    /// The harness's rotator thread drives [`WindowCollector::rotate`]
    /// through this.
    pub fn windows(&self) -> Option<&WindowCollector> {
        self.windows.as_ref()
    }

    /// The recorder's causal tracer (inert unless the `trace` feature is
    /// on — see [`crate::trace`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// The sampling period (`2^sample_shift`): one in this many
    /// operations is recorded. Callers that sample with a decrementing
    /// per-thread ticket (cheaper than a masked counter on the hot path)
    /// reload the ticket from this.
    #[inline]
    pub fn sample_period(&self) -> u64 {
        self.sample_mask + 1
    }

    /// Records one attempt event: bumps the path/outcome counters, feeds
    /// the retry and critical-section histograms on commit, and publishes
    /// the packed event to the ring. `thread_key` picks the ring stripe.
    #[inline]
    pub fn record_attempt(&self, thread_key: u64, ev: AttemptEvent) {
        match ev.outcome {
            Outcome::Commit => {
                self.commits[path_index(ev.path)].fetch_add(1, Relaxed);
                self.cs_latency.record(ev.latency);
                self.retries.record(ev.attempt as u64);
            }
            other => {
                self.aborts[other.kind_index()].fetch_add(1, Relaxed);
                if let Outcome::AbortExplicit(c) = other {
                    self.explicit_codes[c as usize % EXPLICIT_CODES].fetch_add(1, Relaxed);
                }
            }
        }
        if let Some(w) = &self.windows {
            w.record_attempt(thread_key, ev);
        }
        self.ring.push(thread_key, ev.pack());
    }

    /// Records one end-to-end operation latency into the open telemetry
    /// window (no-op without a window collector). Unlike attempt events
    /// this is fed for **every** operation, not just sampled ones —
    /// honest tail percentiles cannot be sampled — and the caller is
    /// expected to measure from the operation's *intended* start so the
    /// per-window p99/p999 are coordinated-omission-corrected.
    #[inline]
    pub fn record_op_latency(&self, thread_key: u64, latency_ns: u64) {
        if let Some(w) = &self.windows {
            w.record_latency(thread_key, latency_ns);
        }
    }

    /// Records how long the fallback lock was held, in the recorder's
    /// latency unit.
    #[inline]
    pub fn record_lock_hold(&self, duration: u64) {
        self.lock_hold.record(duration);
    }

    /// Appends an adaptive-policy decision to the trace, stamped with the
    /// tracer's current clock.
    pub fn record_decision(&self, d: AdaptDecision) {
        let ts = self.tracer.now();
        self.record_decision_at(d, ts);
    }

    /// Appends an adaptive-policy decision with an explicit timestamp in
    /// the recorder's latency unit (the simulator passes its sim clock),
    /// and mirrors it onto the causal-trace timeline as a process-scoped
    /// instant (`arg` = the post-decision orec count).
    pub fn record_decision_at(&self, d: AdaptDecision, ts: u64) {
        let kind = match d.action {
            AdaptAction::Shrink => TraceKind::AdaptShrink,
            AdaptAction::Grow => TraceKind::AdaptGrow,
            AdaptAction::Collapse => TraceKind::AdaptCollapse,
            AdaptAction::Reenable => TraceKind::AdaptReenable,
        };
        self.tracer.instant_at(0, kind, ts, d.orecs_after);
        self.decisions.lock().unwrap().push(d);
    }

    /// The decisions traced so far.
    pub fn decisions(&self) -> Vec<AdaptDecision> {
        self.decisions.lock().unwrap().clone()
    }

    /// A point-in-time snapshot of everything the recorder holds.
    ///
    /// Count lists are sorted by label — the same order the JSON object
    /// form carries — so a snapshot compares equal after a round-trip.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut commit_labels = [PathKind::FastHtm, PathKind::SlowHtm, PathKind::Lock];
        commit_labels.sort_by_key(|p| p.label());
        let outcome_labels = [
            "commit",
            "conflict",
            "capacity",
            "explicit",
            "unsupported",
            "nested",
            "spurious",
        ];
        let mut aborts: Vec<(String, u64)> = outcome_labels
            .iter()
            .enumerate()
            .skip(1) // index 0 is "commit", not an abort
            .map(|(i, &l)| (l.to_string(), self.aborts[i].load(Relaxed)))
            .collect();
        aborts.sort();
        ObsSnapshot {
            schema_version: SCHEMA_VERSION,
            latency_unit: self.cfg.latency_unit.to_string(),
            sample_shift: self.cfg.sample_shift,
            commits: commit_labels
                .iter()
                .map(|&p| {
                    (
                        p.label().to_string(),
                        self.commits[path_index(p)].load(Relaxed),
                    )
                })
                .collect(),
            aborts,
            explicit_codes: self
                .explicit_codes
                .iter()
                .enumerate()
                .filter_map(|(c, n)| {
                    let n = n.load(Relaxed);
                    (n > 0).then_some((c as u64, n))
                })
                .collect(),
            cs_latency: self.cs_latency.snapshot(),
            lock_hold: self.lock_hold.snapshot(),
            retries: self.retries.snapshot(),
            decisions: self.decisions(),
            events_recorded: self.ring.pushed(),
            recent_events: self.ring.drain(),
            windows: self
                .windows
                .as_ref()
                .map(WindowCollector::series)
                .unwrap_or_default(),
        }
    }
}

/// Live scraping reads the same atomics as [`Recorder::snapshot`] but
/// **non-destructively**: no ring drain, no counter reset, so a scrape
/// every second cannot disturb the end-of-run export (and vice versa).
/// Lives here rather than in `registry.rs` because it reads the
/// recorder's private counter fields directly.
impl crate::registry::LiveSource for Recorder {
    fn live_snapshot(&self) -> crate::registry::SourceSnapshot {
        const PATH_LABELS: [&str; PATHS] = ["fast_htm", "slow_htm", "lock"];
        const ABORT_LABELS: [&str; OUTCOMES] = [
            "commit",
            "conflict",
            "capacity",
            "explicit",
            "unsupported",
            "nested",
            "spurious",
        ];
        let mut counters: Vec<(String, u64)> = Vec::new();
        for (i, label) in PATH_LABELS.iter().enumerate() {
            counters.push((format!("commits_{label}"), self.commits[i].load(Relaxed)));
        }
        for (i, label) in ABORT_LABELS.iter().enumerate().skip(1) {
            counters.push((format!("aborts_{label}"), self.aborts[i].load(Relaxed)));
        }
        for (c, n) in self.explicit_codes.iter().enumerate() {
            let n = n.load(Relaxed);
            if n > 0 {
                counters.push((format!("explicit_code_{c}"), n));
            }
        }
        counters.push(("events_recorded".into(), self.ring.pushed()));
        let cs = self.cs_latency.snapshot();
        let hold = self.lock_hold.snapshot();
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
            gauges.push(("window_len_ms".into(), (w.window_len_ns() / 1_000_000) as f64));
            windows = w.series();
            let tail = windows.len().saturating_sub(crate::registry::SCRAPE_WINDOW_TAIL);
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

impl Outcome {
    /// Index into the per-outcome abort counter array (1..=6; commit is 0
    /// and never used as an abort index).
    pub(crate) fn kind_index(self) -> usize {
        match self {
            Outcome::Commit => 0,
            Outcome::AbortConflict => 1,
            Outcome::AbortCapacity => 2,
            Outcome::AbortExplicit(_) => 3,
            Outcome::AbortUnsupported => 4,
            Outcome::AbortNested => 5,
            Outcome::AbortSpurious => 6,
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
    /// Sampling rate the data was collected at (1 in `2^sample_shift`).
    pub sample_shift: u32,
    /// Sampled commits by path label.
    pub commits: Vec<(String, u64)>,
    /// Sampled aborts by outcome label.
    pub aborts: Vec<(String, u64)>,
    /// Sampled explicit aborts by protocol code.
    pub explicit_codes: Vec<(u64, u64)>,
    /// Critical-section latency of committed attempts.
    pub cs_latency: HistSnapshot,
    /// Fallback lock hold time per acquisition.
    pub lock_hold: HistSnapshot,
    /// Attempts before commit (0 = committed first try).
    pub retries: HistSnapshot,
    /// Adaptive-policy decision trace, oldest first.
    pub decisions: Vec<AdaptDecision>,
    /// Total events pushed to the ring (monotone, includes overwritten).
    pub events_recorded: u64,
    /// Events resident in the ring at snapshot time.
    pub recent_events: Vec<AttemptEvent>,
    /// Closed telemetry windows (oldest first); empty when the recorder
    /// was configured without a window collector. Schema v2.
    pub windows: Vec<WindowSnapshot>,
}

impl ObsSnapshot {
    /// Total sampled commits across paths.
    pub fn total_commits(&self) -> u64 {
        self.commits.iter().map(|&(_, n)| n).sum()
    }

    /// Total sampled aborts across causes.
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
            ("sample_shift", Json::UInt(self.sample_shift as u64)),
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

    /// Rebuilds a snapshot from [`Self::to_json`] output. `None` on
    /// schema mismatch (including an unknown `schema_version`).
    pub fn from_json(j: &Json) -> Option<ObsSnapshot> {
        let version = j.get("schema_version")?.as_u64()?;
        if version != SCHEMA_VERSION {
            return None;
        }
        fn counts(j: &Json) -> Option<Vec<(String, u64)>> {
            match j {
                Json::Obj(m) => m
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                    .collect(),
                _ => None,
            }
        }
        fn decision(j: &Json) -> Option<AdaptDecision> {
            let action = match j.get("action")?.as_str()? {
                "shrink" => AdaptAction::Shrink,
                "grow" => AdaptAction::Grow,
                "collapse" => AdaptAction::Collapse,
                "reenable" => AdaptAction::Reenable,
                _ => return None,
            };
            let hot_slot = match (j.get("hot_slot"), j.get("hot_slot_conflicts")) {
                (Some(s), Some(c)) => Some((s.as_u64()?, c.as_u64()?)),
                _ => None,
            };
            Some(AdaptDecision {
                action,
                orecs_before: j.get("orecs_before")?.as_u64()?,
                orecs_after: j.get("orecs_after")?.as_u64()?,
                slow_commits: j.get("slow_commits")?.as_u64()?,
                slow_aborts: j.get("slow_aborts")?.as_u64()?,
                hot_slot,
            })
        }
        fn attempt(j: &Json) -> Option<AttemptEvent> {
            let path = match j.get("path")?.as_str()? {
                "fast_htm" => PathKind::FastHtm,
                "slow_htm" => PathKind::SlowHtm,
                "lock" => PathKind::Lock,
                _ => return None,
            };
            let outcome = match j.get("outcome")?.as_str()? {
                "commit" => Outcome::Commit,
                "conflict" => Outcome::AbortConflict,
                "capacity" => Outcome::AbortCapacity,
                "explicit" => {
                    Outcome::AbortExplicit(j.get("abort_code")?.as_u64()? as u8)
                }
                "unsupported" => Outcome::AbortUnsupported,
                "nested" => Outcome::AbortNested,
                "spurious" => Outcome::AbortSpurious,
                _ => return None,
            };
            Some(AttemptEvent {
                path,
                outcome,
                attempt: j.get("attempt")?.as_u64()? as u8,
                latency: j.get("latency")?.as_u64()?,
            })
        }
        Some(ObsSnapshot {
            schema_version: version,
            latency_unit: j.get("latency_unit")?.as_str()?.to_string(),
            sample_shift: j.get("sample_shift")?.as_u64()? as u32,
            commits: counts(j.get("commits")?)?,
            aborts: counts(j.get("aborts")?)?,
            explicit_codes: j
                .get("explicit_codes")?
                .as_arr()?
                .iter()
                .map(|pair| {
                    let p = pair.as_arr()?;
                    Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
                })
                .collect::<Option<Vec<_>>>()?,
            cs_latency: HistSnapshot::from_json(j.get("cs_latency")?)?,
            lock_hold: HistSnapshot::from_json(j.get("lock_hold")?)?,
            retries: HistSnapshot::from_json(j.get("retries")?)?,
            decisions: j
                .get("decisions")?
                .as_arr()?
                .iter()
                .map(decision)
                .collect::<Option<Vec<_>>>()?,
            events_recorded: j.get("events_recorded")?.as_u64()?,
            recent_events: j
                .get("recent_events")?
                .as_arr()?
                .iter()
                .map(attempt)
                .collect::<Option<Vec<_>>>()?,
            windows: j
                .get("windows")?
                .as_arr()?
                .iter()
                .map(WindowSnapshot::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn commit(path: PathKind, attempt: u8, latency: u64) -> AttemptEvent {
        AttemptEvent {
            path,
            outcome: Outcome::Commit,
            attempt,
            latency,
        }
    }

    #[test]
    fn sampling_period() {
        assert_eq!(Recorder::new(ObsConfig::default()).sample_period(), 1);
        let sixteenth = Recorder::new(ObsConfig {
            sample_shift: 4,
            ..ObsConfig::default()
        });
        assert_eq!(sixteenth.sample_period(), 16);
    }

    #[test]
    fn counters_and_histograms_populate() {
        let r = Recorder::new(ObsConfig::default());
        r.record_attempt(0, commit(PathKind::FastHtm, 0, 100));
        r.record_attempt(0, commit(PathKind::FastHtm, 2, 300));
        r.record_attempt(
            0,
            AttemptEvent {
                path: PathKind::SlowHtm,
                outcome: Outcome::AbortExplicit(4),
                attempt: 1,
                latency: 0,
            },
        );
        r.record_attempt(0, commit(PathKind::Lock, 3, 9_000));
        r.record_lock_hold(8_500);
        let s = r.snapshot();
        assert_eq!(s.total_commits(), 3);
        assert_eq!(s.total_aborts(), 1);
        assert_eq!(
            s.commits,
            vec![
                ("fast_htm".to_string(), 2),
                ("lock".to_string(), 1),
                ("slow_htm".to_string(), 0)
            ]
        );
        assert_eq!(s.explicit_codes, vec![(4, 1)]);
        assert_eq!(s.cs_latency.count, 3);
        assert_eq!(s.retries.count, 3);
        assert_eq!(s.lock_hold.count, 1);
        assert_eq!(s.recent_events.len(), 4);
    }

    #[test]
    fn json_export_round_trips_snapshot() {
        let r = Recorder::new(ObsConfig {
            latency_unit: "cycles",
            ..ObsConfig::default()
        });
        for i in 0..200u64 {
            r.record_attempt(i % 4, commit(PathKind::FastHtm, (i % 3) as u8, i * 13));
        }
        r.record_attempt(
            1,
            AttemptEvent {
                path: PathKind::SlowHtm,
                outcome: Outcome::AbortConflict,
                attempt: 0,
                latency: 0,
            },
        );
        r.record_lock_hold(4_000);
        r.record_decision(AdaptDecision {
            action: AdaptAction::Grow,
            orecs_before: 64,
            orecs_after: 128,
            slow_commits: 2,
            slow_aborts: 11,
            hot_slot: Some((17, 9)),
        });
        let snap = r.snapshot();

        let text = snap.to_json().to_string_pretty();
        let parsed = crate::json::parse(&text).expect("export parses");
        let back = ObsSnapshot::from_json(&parsed).expect("schema round-trips");
        assert_eq!(back, snap);
        assert_eq!(back.decisions[0].action, AdaptAction::Grow);
        assert_eq!(back.latency_unit, "cycles");
    }

    #[test]
    fn windowed_recorder_rotates_and_round_trips() {
        assert!(
            Recorder::new(ObsConfig::default()).windows().is_none(),
            "window collector must be opt-in"
        );
        let r = Recorder::new(ObsConfig {
            window_len_ms: 50,
            window_stripes: 2,
            ..ObsConfig::default()
        });
        for i in 0..40u64 {
            r.record_attempt(i % 2, commit(PathKind::FastHtm, 0, 100));
            r.record_op_latency(i % 2, 1_000 + i * 10);
        }
        let rot = r.windows().expect("collector configured").rotate();
        assert_eq!(rot.merged.ops(), 40);
        assert_eq!(rot.merged.counts.commits[0], 40, "attempts forwarded");

        let snap = r.snapshot();
        assert_eq!(snap.windows.len(), 1);
        assert!(snap.windows[0].latency_p(0.999) >= snap.windows[0].latency_p(0.5));
        let parsed = crate::json::parse(&snap.to_json().to_string()).unwrap();
        let back = ObsSnapshot::from_json(&parsed).expect("v2 round-trips");
        assert_eq!(back, snap);
    }

    #[test]
    fn live_snapshot_is_non_destructive() {
        use crate::registry::LiveSource;
        let r = Recorder::new(ObsConfig {
            window_len_ms: 50,
            ..ObsConfig::default()
        });
        for i in 0..32u64 {
            r.record_attempt(0, commit(PathKind::FastHtm, 0, 100 + i));
            r.record_op_latency(0, 500);
        }
        r.windows().unwrap().rotate();

        let live1 = r.live_snapshot();
        let live2 = r.live_snapshot();
        assert_eq!(live1.counters, live2.counters, "scrapes must not drain anything");
        assert!(live1.counters.contains(&("commits_fast_htm".to_string(), 32)));
        assert!(live1.counters.contains(&("events_recorded".to_string(), 32)));
        assert_eq!(live1.windows.len(), 1);
        assert_eq!(live1.windows[0].ops(), 32);

        // The destructive end-of-run snapshot still sees every resident
        // ring event after any number of scrapes.
        let snap = r.snapshot();
        assert_eq!(snap.recent_events.len(), 32);
        assert_eq!(snap.total_commits(), 32);
    }

    #[test]
    fn from_json_rejects_unknown_schema_version() {
        let r = Recorder::new(ObsConfig::default());
        let mut j = r.snapshot().to_json();
        if let Json::Obj(m) = &mut j {
            m.insert("schema_version".into(), Json::UInt(999));
        }
        assert!(ObsSnapshot::from_json(&j).is_none());
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = Arc::new(Recorder::new(ObsConfig::default()));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        if i % 5 == 4 {
                            r.record_attempt(
                                t,
                                AttemptEvent {
                                    path: PathKind::SlowHtm,
                                    outcome: Outcome::AbortConflict,
                                    attempt: 0,
                                    latency: 0,
                                },
                            );
                        } else {
                            r.record_attempt(t, commit(PathKind::FastHtm, 1, i % 1_000));
                        }
                    }
                })
            })
            .collect();
        // Snapshot while writers are running: must never panic or tear.
        for _ in 0..20 {
            let s = r.snapshot();
            assert!(s.total_commits() <= 8 * 8_000);
            assert!(s.cs_latency.count == s.total_commits());
        }
        for t in threads {
            t.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.total_commits(), 8 * 8_000);
        assert_eq!(s.total_aborts(), 8 * 2_000);
        assert_eq!(s.retries.count, 8 * 8_000);
        assert_eq!(s.events_recorded, 8 * 10_000);
    }
}
