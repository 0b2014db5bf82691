//! The collapse watchdog: inspects each closed telemetry window and
//! flags the failure signatures the paper's elision runtimes exhibit
//! under pathological load, dumping a postmortem "flight record" on
//! trigger.
//!
//! Three signatures are recognised:
//!
//! * **Fallback collapse** (the classic TLE lemming effect): the
//!   pessimistic-lock share of commits spikes past `FALLBACK_SPIKE`
//!   **while** the commit rate falls below `COMMIT_FLOOR_FRAC` of the
//!   trailing healthy mean. Either alone is benign — a
//!   lock-heavy-but-fast phase, or a quiet period — together they mean
//!   the lock convoy is starving HTM.
//! * **Conflict storm**: aborts-per-commit stays above
//!   `STORM_ABORTS_PER_COMMIT` for `STORM_WINDOWS` consecutive windows
//!   (sustained OREC_CONFLICT storms from pessimistic audits stamping the
//!   orec table look exactly like this).
//! * **Convoy stall**: two consecutive windows whose p99 latency each
//!   exceeds the window length itself, and whose mean commit rate is at
//!   most `STALL_RATE_FRAC` of the trailing mean. This is the quiet convoy
//!   the other two miss: when waiters politely wait (spin, then park)
//!   behind a long pessimistic hold, nothing aborts and nothing falls
//!   back — throughput simply halves while every op's latency blows past
//!   a full window. The latency guard keeps genuinely idle periods (low
//!   rate, instant ops) from masquerading as a stall. The two windows'
//!   *mean* rate is compared, not each window's: a stall that hovers at
//!   half the healthy rate puts one window a little above half and the
//!   next below, and a per-window test never sees two in a row.
//!
//! The watchdog arms only after `WARMUP_WINDOWS` healthy windows so
//! startup noise cannot trigger it, and collapsed windows (those that
//! fired, and armed windows whose p99 passed the window length) are kept
//! **out** of the trailing mean so a long incident cannot normalise
//! itself. A window that lasted more than `OVERRUN_FACTOR` times its
//! nominal length is no evidence either way: it neither fires nor enters
//! the mean.
//!
//! On trigger, [`flight_record`] assembles the postmortem JSON: the
//! triggering verdict, the trailing window series, and the records
//! resident in the recorder's ring as Chrome `trace_event` objects — each
//! attempt on its thread's track at its time, beside the lock holders'
//! instants, so the record names the thread that held the lock. Enough
//! for offline `diag --timeline` analysis without any live re-run.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use rtle_htm::atomic::RelaxedWord;

use crate::json::Json;
use crate::recorder::{Recorder, SCHEMA_VERSION};
use crate::registry::{LiveSource, SourceSnapshot};
use crate::trace::chrome_event;
use crate::window::WindowSnapshot;

// Thresholds for the collapse signatures, tuned on the `slo_bench`
// single-lock collapse reproduction: a healthy elided map stays under 5%
// fallback and ~0.5 aborts/commit even under storms, while a convoyed
// single lock blows through all three thresholds at once.

/// Fallback-rate spike threshold (fraction of commits on the lock
/// path) for the collapse signature.
const FALLBACK_SPIKE: f64 = 0.5;
/// Commit-rate floor, as a fraction of the trailing healthy mean.
const COMMIT_FLOOR_FRAC: f64 = 0.35;
/// Aborts-per-commit level that counts a window toward a storm.
const STORM_ABORTS_PER_COMMIT: f64 = 4.0;
/// Consecutive stormy windows required to flag a conflict storm.
const STORM_WINDOWS: usize = 2;
/// Commit-rate fraction (of the trailing mean) that two consecutive
/// windows' mean rate must not exceed for a convoy stall.
const STALL_RATE_FRAC: f64 = 0.5;
/// p99-latency floor for a stall window, as a multiple of the
/// window length (1.0 = ops are waiting longer than a whole window).
const STALL_P99_FACTOR: f64 = 1.0;
/// A window whose measured length passes its nominal length by this
/// factor is skipped. The rotator closes a window within a quarter of
/// its nominal length after it is due, so a window twice as long means
/// the rotator itself went a whole window without CPU: the whole
/// process was starved, and the window's rate and latency measure the
/// host, not the lock.
const OVERRUN_FACTOR: u64 = 2;
/// Healthy windows required before the watchdog arms.
const WARMUP_WINDOWS: usize = 3;
/// Trailing-mean horizon (healthy windows remembered).
const TRAILING: usize = 8;
/// Windows with fewer total commits than this are ignored entirely
/// (idle tails, rotator jitter).
const MIN_COMMITS: u64 = 16;

/// Which signature fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseKind {
    /// Fallback-rate spike + commit-rate floor.
    FallbackCollapse,
    /// Sustained aborts-per-commit storm.
    ConflictStorm,
    /// Sustained rate halving with p99 past the window length: a quiet
    /// lock convoy with no abort or fallback evidence.
    ConvoyStall,
}

impl CollapseKind {
    /// Stable lowercase label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            CollapseKind::FallbackCollapse => "fallback_collapse",
            CollapseKind::ConflictStorm => "conflict_storm",
            CollapseKind::ConvoyStall => "convoy_stall",
        }
    }

    /// Small numeric code for atomic mirrors (0 is reserved for "no
    /// verdict yet").
    pub fn code(self) -> u64 {
        match self {
            CollapseKind::FallbackCollapse => 1,
            CollapseKind::ConflictStorm => 2,
            CollapseKind::ConvoyStall => 3,
        }
    }
}

/// One watchdog verdict: the signature plus the evidence it fired on.
#[derive(Debug, Clone, PartialEq)]
pub struct CollapseEvent {
    /// Which signature fired.
    pub kind: CollapseKind,
    /// Index of the window that tripped it.
    pub window_index: u64,
    /// That window's fallback rate.
    pub fallback_rate: f64,
    /// That window's commit rate (commits/s).
    pub commit_rate: f64,
    /// Trailing healthy-mean commit rate at trigger time.
    pub trailing_commit_rate: f64,
    /// That window's aborts-per-commit ratio.
    pub aborts_per_commit: f64,
    /// That window's p99 latency (ns).
    pub latency_p99_ns: u64,
}

impl CollapseEvent {
    /// JSON form for exports and flight records.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind.label().into())),
            ("window_index", Json::UInt(self.window_index)),
            ("fallback_rate", Json::Num(self.fallback_rate)),
            ("commit_rate", Json::Num(self.commit_rate)),
            ("trailing_commit_rate", Json::Num(self.trailing_commit_rate)),
            ("aborts_per_commit", Json::Num(self.aborts_per_commit)),
            ("latency_p99_ns", Json::UInt(self.latency_p99_ns)),
        ])
    }
}

/// Scrape-visible mirror of the watchdog's state. The watchdog itself
/// is single-consumer and rides the rotator thread; the mirror is a
/// handful of `RelaxedWord`s the rotator publishes into on every
/// [`Watchdog::inspect`], so a live scrape can report armed/fired
/// status without touching the watchdog's internals or its thread.
#[derive(Debug, Default)]
pub struct WatchdogLive {
    /// 1 once armed.
    armed: RelaxedWord,
    windows_inspected: RelaxedWord,
    fired_total: RelaxedWord,
    /// [`CollapseKind::code`] of the most recent verdict, 0 if none.
    last_kind: RelaxedWord,
    /// Window index of the most recent verdict.
    last_window: RelaxedWord,
    /// Path of the most recent flight-record dump, if the harness wrote
    /// one. Scrape-side only; never touched by hot-path writers.
    flight_path: Mutex<Option<String>>,
}

impl WatchdogLive {
    /// A fresh mirror: disarmed, nothing fired.
    pub fn new() -> WatchdogLive {
        WatchdogLive::default()
    }

    /// True once the watchdog has seen its warmup windows.
    pub fn armed(&self) -> bool {
        self.armed.load() != 0
    }

    /// Total verdicts so far.
    pub fn fired_total(&self) -> u64 {
        self.fired_total.load()
    }

    /// Label of the most recent verdict, if any fired yet.
    pub fn last_kind(&self) -> Option<&'static str> {
        match self.last_kind.load() {
            1 => Some(CollapseKind::FallbackCollapse.label()),
            2 => Some(CollapseKind::ConflictStorm.label()),
            3 => Some(CollapseKind::ConvoyStall.label()),
            _ => None,
        }
    }

    /// Records where the harness dumped a flight record, so scrapes can
    /// advertise that a postmortem exists.
    pub fn set_flight_record_path(&self, path: impl Into<String>) {
        *self.flight_path.lock().unwrap() = Some(path.into());
    }

    /// The last recorded flight-record path, if any.
    pub fn flight_record_path(&self) -> Option<String> {
        self.flight_path.lock().unwrap().clone()
    }

    fn publish(&self, armed: bool, verdict: Option<&CollapseEvent>) {
        self.windows_inspected.fetch_add(1);
        self.armed.store(u64::from(armed));
        if let Some(ev) = verdict {
            self.fired_total.fetch_add(1);
            self.last_kind.store(ev.kind.code());
            self.last_window.store(ev.window_index);
        }
    }
}

impl LiveSource for WatchdogLive {
    fn live_snapshot(&self) -> SourceSnapshot {
        SourceSnapshot {
            kind: "watchdog",
            counters: vec![
                ("windows_inspected".into(), self.windows_inspected.load()),
                ("collapse_fired_total".into(), self.fired_total.load()),
                ("collapse_last_kind_code".into(), self.last_kind.load()),
                ("collapse_last_window".into(), self.last_window.load()),
            ],
            gauges: vec![
                ("armed".into(), if self.armed() { 1.0 } else { 0.0 }),
                (
                    "flight_record_available".into(),
                    if self.flight_path.lock().unwrap().is_some() {
                        1.0
                    } else {
                        0.0
                    },
                ),
            ],
            windows: Vec::new(),
            labels: Vec::new(),
        }
    }
}

/// The watchdog: feed it each closed window via [`Watchdog::inspect`].
/// Single-consumer by design — it rides the rotator thread.
pub struct Watchdog {
    /// The collector's nominal window length (ns), against which a
    /// window's measured `len_ns` is judged an overrun.
    nominal_len_ns: u64,
    /// Commit rates of recent *healthy* windows (collapsed windows are
    /// excluded so an incident cannot drag the baseline down to itself).
    trailing: VecDeque<f64>,
    /// Consecutive stormy windows seen so far.
    storm_run: usize,
    /// The commit rate of the previous window, when its p99 passed the
    /// window length: the first half of a convoy-stall pair.
    stall_prev: Option<f64>,
    events: Vec<CollapseEvent>,
    /// Optional scrape mirror, published on every inspect.
    live: Option<Arc<WatchdogLive>>,
}

impl Watchdog {
    /// A watchdog with the module's thresholds, for windows of
    /// `nominal_len_ns` (the collector's
    /// [`crate::window::WindowCollector::window_len_ns`]).
    pub fn new(nominal_len_ns: u64) -> Watchdog {
        Watchdog {
            nominal_len_ns,
            trailing: VecDeque::new(),
            storm_run: 0,
            stall_prev: None,
            events: Vec::new(),
            live: None,
        }
    }

    /// The scrape mirror for this watchdog, created on first call.
    /// Register the returned `Arc` with a
    /// [`crate::MetricsRegistry`]; every subsequent
    /// [`Watchdog::inspect`] publishes into it.
    pub fn live(&mut self) -> Arc<WatchdogLive> {
        Arc::clone(
            self.live
                .get_or_insert_with(|| Arc::new(WatchdogLive::new())),
        )
    }

    /// Mean commit rate of the trailing healthy windows (0.0 pre-warmup).
    pub fn trailing_commit_rate(&self) -> f64 {
        if self.trailing.is_empty() {
            return 0.0;
        }
        self.trailing.iter().sum::<f64>() / self.trailing.len() as f64
    }

    /// Inspects one closed window; returns the verdict if a signature
    /// fired. Verdicts are also accumulated in [`Watchdog::events`].
    pub fn inspect(&mut self, w: &WindowSnapshot) -> Option<CollapseEvent> {
        if w.counts.total_commits() < MIN_COMMITS
            || w.len_ns > self.nominal_len_ns.saturating_mul(OVERRUN_FACTOR)
        {
            // Idle or overrun window: no evidence either way; do not
            // advance the storm run or pollute the trailing mean.
            return None;
        }
        let commit_rate = w.commit_rate();
        let trailing_rate = self.trailing_commit_rate();
        let armed = self.trailing.len() >= WARMUP_WINDOWS;

        let mut fired: Option<CollapseKind> = None;
        let p99_past = w.latency_p(0.99) as f64 >= w.len_ns as f64 * STALL_P99_FACTOR;
        if armed {
            let collapsed = w.fallback_rate() >= FALLBACK_SPIKE
                && commit_rate <= trailing_rate * COMMIT_FLOOR_FRAC;
            if collapsed {
                fired = Some(CollapseKind::FallbackCollapse);
            }
            if w.aborts_per_commit() >= STORM_ABORTS_PER_COMMIT {
                self.storm_run += 1;
                if fired.is_none() && self.storm_run >= STORM_WINDOWS {
                    fired = Some(CollapseKind::ConflictStorm);
                    self.storm_run = 0;
                }
            } else {
                self.storm_run = 0;
            }
            self.stall_prev = match self.stall_prev {
                _ if !p99_past => None,
                Some(prev)
                    if fired.is_none()
                        && (prev + commit_rate) / 2.0 <= trailing_rate * STALL_RATE_FRAC =>
                {
                    fired = Some(CollapseKind::ConvoyStall);
                    None
                }
                _ => Some(commit_rate),
            };
        }

        let verdict = match fired {
            Some(kind) => {
                let ev = CollapseEvent {
                    kind,
                    window_index: w.index,
                    fallback_rate: w.fallback_rate(),
                    commit_rate,
                    trailing_commit_rate: trailing_rate,
                    aborts_per_commit: w.aborts_per_commit(),
                    latency_p99_ns: w.latency_p(0.99),
                };
                self.events.push(ev.clone());
                Some(ev)
            }
            // A window whose ops waited longer than the window itself is
            // no healthy baseline, whatever its rate: let in, a stall's
            // first windows drag the mean down toward the stall.
            None if armed && p99_past => None,
            None => {
                self.trailing.push_back(commit_rate);
                if self.trailing.len() > TRAILING {
                    self.trailing.pop_front();
                }
                None
            }
        };
        if let Some(live) = &self.live {
            let armed_now = self.trailing.len() >= WARMUP_WINDOWS;
            live.publish(armed || armed_now, verdict.as_ref());
        }
        verdict
    }

    /// Every verdict so far, oldest first.
    pub fn events(&self) -> &[CollapseEvent] {
        &self.events
    }
}

/// Assembles the postmortem flight-record document (`kind:
/// "flight-record"`): the triggering verdict, the trailing window
/// series, and `rec`'s resident records, time-ordered, as Chrome
/// `trace_event` objects of one process ([`chrome_event`]). Written to a
/// file by the harness, read back by `diag --timeline`. `taken_at_ns` is
/// stamped from the shared [`crate::epoch`] timebase, so the record can
/// be lined up against live scrapes of the same process.
pub fn flight_record(trigger: &CollapseEvent, windows: &[WindowSnapshot], rec: &Recorder) -> Json {
    Json::obj([
        ("kind", Json::Str("flight-record".into())),
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("tool", Json::Str("watchdog".into())),
        ("taken_at_ns", Json::UInt(crate::epoch::now_ns())),
        ("latency_unit", Json::Str(rec.config().latency_unit.into())),
        ("trigger", trigger.to_json()),
        (
            "windows",
            Json::Arr(windows.iter().map(WindowSnapshot::to_json).collect()),
        ),
        (
            "records",
            Json::Arr(rec.records().iter().map(|r| chrome_event(r, 1)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::HistSnapshot;
    use crate::window::WindowCounts;
    use rtle_htm::AbortCode;

    /// The collectors' nominal window length: the tests' windows are 100
    /// or 125 ms long unless a test says otherwise.
    const NOMINAL: u64 = 125_000_000;

    /// Builds a window snapshot the way a rotator would have produced
    /// it from live counters: fast / slow / lock commits, conflict +
    /// explicit aborts, and a flat latency distribution at `lat_ns`.
    fn window(
        index: u64,
        len_ms: u64,
        [fast, slow, lock]: [u64; 3],
        conflicts: u64,
        orec_explicit: u64,
        lat_ns: u64,
    ) -> WindowSnapshot {
        let commits = [fast, slow, 0, lock];
        let total_ops = commits.iter().sum::<u64>();
        let mut aborts = [0u64; AbortCode::KINDS];
        aborts[AbortCode::Conflict.index()] = conflicts;
        aborts[AbortCode::Explicit(0).index()] = orec_explicit;
        let mut explicit = [0u64; 8];
        explicit[4] = orec_explicit; // OREC_CONFLICT protocol code
        WindowSnapshot {
            index,
            start_ns: index * len_ms * 1_000_000,
            len_ns: len_ms * 1_000_000,
            counts: WindowCounts {
                commits,
                aborts,
                explicit,
                latency: HistSnapshot {
                    count: total_ops,
                    total: total_ops * lat_ns,
                    max: lat_ns,
                    buckets: vec![(lat_ns, total_ops)],
                },
            },
        }
    }

    /// Replays the collapse trace recorded from a single-lock
    /// `slo_bench`-style run: ~9.5k commits/s nearly all on HTM, then
    /// pessimistic audits convoy the lock — fallback share jumps to
    /// ~70% while throughput drops 15x and OREC_CONFLICT aborts storm.
    /// The watchdog must fire on the first collapsed window.
    #[test]
    fn fires_on_recorded_single_lock_collapse() {
        let mut wd = Watchdog::new(NOMINAL);
        for i in 0..5 {
            let w = window(i, 100, [900, 45, 5], 60, 12, 8_000);
            assert_eq!(wd.inspect(&w), None, "healthy window {i} must not fire");
        }
        let baseline = wd.trailing_commit_rate();
        assert!(baseline > 9_000.0, "baseline {baseline}");

        let collapsed = window(5, 100, [15, 3, 42], 180, 5_000, 2_500_000);
        let ev = wd.inspect(&collapsed).expect("collapse must trigger");
        assert_eq!(ev.kind, CollapseKind::FallbackCollapse);
        assert_eq!(ev.window_index, 5);
        assert!(ev.fallback_rate > 0.5, "fallback {}", ev.fallback_rate);
        assert!(
            ev.commit_rate < baseline * 0.35,
            "rate {} vs baseline {baseline}",
            ev.commit_rate
        );
        assert_eq!(wd.events().len(), 1);

        // The incident must not become the new baseline: a second
        // collapsed window still fires.
        let ev2 = wd.inspect(&window(6, 100, [10, 2, 50], 200, 6_000, 3_000_000));
        assert_eq!(ev2.unwrap().kind, CollapseKind::FallbackCollapse);
        assert!(
            (wd.trailing_commit_rate() - baseline).abs() < 1.0,
            "collapsed windows must stay out of the trailing mean"
        );
    }

    #[test]
    fn stays_silent_on_the_sharded_trace_at_identical_load() {
        // The sharded run under the same storm: audits pin one shard,
        // the rest keep committing — fallback stays low, rate dips but
        // stays above the floor.
        let mut wd = Watchdog::new(NOMINAL);
        for i in 0..5 {
            assert!(wd
                .inspect(&window(i, 100, [920, 60, 8], 70, 15, 7_000))
                .is_none());
        }
        for i in 5..8 {
            // Storm windows: ~20% dip, modest fallback, some conflicts.
            let w = window(i, 100, [700, 80, 30], 300, 400, 40_000);
            assert!(wd.inspect(&w).is_none(), "sharded storm window {i} fired");
        }
        assert!(wd.events().is_empty());
    }

    #[test]
    fn sustained_orec_storm_fires_without_a_rate_floor() {
        let mut wd = Watchdog::new(NOMINAL);
        for i in 0..4 {
            wd.inspect(&window(i, 100, [800, 100, 10], 80, 20, 9_000));
        }
        // Aborts-per-commit ~5.5 but commit rate holds: only the storm
        // signature applies, and only after two consecutive windows.
        let stormy = |i| window(i, 100, [500, 300, 20], 1_500, 3_000, 30_000);
        assert_eq!(wd.inspect(&stormy(4)), None, "one stormy window is noise");
        let ev = wd.inspect(&stormy(5)).expect("second consecutive window");
        assert_eq!(ev.kind, CollapseKind::ConflictStorm);
        assert!(ev.aborts_per_commit >= 4.0);

        // A healthy window resets the run.
        assert!(wd
            .inspect(&window(6, 100, [800, 100, 10], 80, 20, 9_000))
            .is_none());
        assert_eq!(wd.inspect(&stormy(7)), None, "run was reset");
    }

    /// Replays the `slo_bench` single-lock trace: blocking audits convoy
    /// the lock but every waiter politely yields — fallback stays ~2%,
    /// aborts near zero, yet throughput drops to a third and p99 blows
    /// past the window length. Only the convoy-stall signature can see
    /// this shape, and it needs two consecutive windows.
    #[test]
    fn convoy_stall_fires_without_fallback_or_abort_evidence() {
        let mut wd = Watchdog::new(NOMINAL);
        for i in 0..5 {
            let w = window(i, 125, [780, 0, 15], 10, 8, 150_000);
            assert_eq!(wd.inspect(&w), None, "healthy window {i} must not fire");
        }
        let baseline = wd.trailing_commit_rate();
        // ~220 commits / 125 ms with 150-260 ms p99 and no abort storm.
        let stalled = |i, lat| window(i, 125, [215, 0, 5], 12, 10, lat);
        assert_eq!(
            wd.inspect(&stalled(5, 150_000_000)),
            None,
            "one window is noise"
        );
        let ev = wd
            .inspect(&stalled(6, 260_000_000))
            .expect("second stalled window");
        assert_eq!(ev.kind, CollapseKind::ConvoyStall);
        assert!(
            ev.fallback_rate < 0.05,
            "no fallback evidence: {}",
            ev.fallback_rate
        );
        assert!(ev.aborts_per_commit < 0.5, "no abort evidence");
        assert!(ev.commit_rate < baseline * 0.5);
        assert!(ev.latency_p99_ns >= 125_000_000);

        // A healthy window resets the run; an idle drain tail (low rate
        // but instant ops) fails the latency guard and never counts.
        assert!(wd
            .inspect(&window(7, 125, [780, 0, 15], 10, 8, 150_000))
            .is_none());
        assert_eq!(wd.inspect(&stalled(8, 130_000_000)), None, "run was reset");
        let idle_tail = window(9, 125, [50, 0, 1], 0, 0, 700_000);
        assert_eq!(
            wd.inspect(&idle_tail),
            None,
            "fast idle tail is not a stall"
        );
        assert_eq!(
            wd.inspect(&stalled(10, 130_000_000)),
            None,
            "tail reset the run"
        );
    }

    /// A stall that holds the rate just under half the healthy mean (the
    /// `slo_bench` single lock once its waiters park instead of spinning):
    /// the stalled windows stay out of the trailing mean, so the second in
    /// a row still reads as stalled. Let in, the first would drag the
    /// mean down far enough that the second reads as healthy.
    #[test]
    fn a_stall_does_not_drag_its_own_baseline_down() {
        let mut wd = Watchdog::new(NOMINAL);
        for i in 0..8 {
            let w = window(i, 125, [785, 0, 15], 10, 8, 150_000);
            assert_eq!(wd.inspect(&w), None, "healthy window {i} must not fire");
        }
        let stalled = |i| window(i, 125, [385, 0, 5], 12, 10, 200_000_000);
        assert_eq!(wd.inspect(&stalled(8)), None, "one window is noise");
        let ev = wd
            .inspect(&stalled(9))
            .expect("the second stalled window fires");
        assert_eq!(ev.kind, CollapseKind::ConvoyStall);
    }

    /// A stall that hovers around half the healthy rate, one window a
    /// little above half and the next below (the shape of the `slo_bench`
    /// single lock's failing series: 1 959, 925, 1 419, 1 413 commits/s
    /// against ~2 850). Judged window by window, no two in a row fall
    /// below half, and each one above drags the mean down; judged by the
    /// pair's mean rate, the second window fires.
    #[test]
    fn a_stall_hovering_at_half_the_rate_fires() {
        let mut wd = Watchdog::new(NOMINAL);
        for i in 0..8 {
            let w = window(i, 125, [785, 0, 15], 10, 8, 150_000);
            assert_eq!(wd.inspect(&w), None, "healthy window {i} must not fire");
        }
        let baseline = wd.trailing_commit_rate();
        // 440 and 320 commits per 125 ms: 0.55 and 0.40 of the healthy
        // 6 400 commits/s, with every op late by more than a window.
        let hover = |i, commits| window(i, 125, [commits, 0, 5], 12, 10, 200_000_000);
        assert_eq!(wd.inspect(&hover(8, 435)), None, "one window is noise");
        let ev = wd
            .inspect(&hover(9, 315))
            .expect("the pair's mean rate is under half the trailing mean");
        assert_eq!(ev.kind, CollapseKind::ConvoyStall);
        assert_eq!(ev.trailing_commit_rate, baseline, "the hover stayed out");
    }

    /// A window that lasted far past its nominal length — the whole
    /// process went without CPU, rotator included (the sharded map's
    /// window that lasted 1.12 s of 125 ms) — neither fires nor enters
    /// the trailing mean, however slow and late its ops look.
    #[test]
    fn an_overrun_window_neither_fires_nor_enters_the_mean() {
        let mut wd = Watchdog::new(NOMINAL);
        for i in 0..8 {
            let w = window(i, 125, [785, 0, 15], 10, 8, 150_000);
            assert_eq!(wd.inspect(&w), None, "healthy window {i} must not fire");
        }
        let baseline = wd.trailing_commit_rate();
        // Nine nominal lengths with one nominal window's commits.
        let overrun = |i, lat| window(i, 1_125, [785, 0, 15], 10, 8, lat);
        assert_eq!(wd.inspect(&overrun(8, 300_000_000)), None);
        assert_eq!(
            wd.trailing_commit_rate(),
            baseline,
            "an overrun window stays out of the mean"
        );
        // Two in a row whose p99 passes even their own length.
        assert_eq!(wd.inspect(&overrun(9, 1_200_000_000)), None);
        assert_eq!(wd.inspect(&overrun(10, 1_200_000_000)), None);
        assert!(wd.events().is_empty(), "{:?}", wd.events());
        assert_eq!(wd.trailing_commit_rate(), baseline);
    }

    #[test]
    fn warmup_and_idle_windows_never_fire() {
        let mut wd = Watchdog::new(NOMINAL);
        // Unarmed: even a blatant collapse shape is ignored pre-warmup.
        let bad = window(0, 100, [2, 1, 60], 500, 900, 5_000_000);
        assert_eq!(wd.inspect(&bad), None);
        let after_warmup = wd.trailing_commit_rate();
        assert!(after_warmup > 0.0, "pre-warmup windows build the baseline");
        // Idle windows (below min_commits) are skipped entirely.
        assert_eq!(wd.inspect(&window(1, 100, [3, 0, 1], 0, 0, 100)), None);
        assert_eq!(
            wd.trailing_commit_rate(),
            after_warmup,
            "idle windows not tracked"
        );
    }

    #[test]
    fn live_mirror_tracks_arming_and_verdicts() {
        let mut wd = Watchdog::new(NOMINAL);
        let live = wd.live();
        assert!(!live.armed());
        assert_eq!(live.fired_total(), 0);
        assert_eq!(live.last_kind(), None);

        for i in 0..5 {
            wd.inspect(&window(i, 100, [900, 45, 5], 60, 12, 8_000));
        }
        assert!(live.armed(), "mirror must arm after warmup");
        assert_eq!(live.fired_total(), 0);

        wd.inspect(&window(5, 100, [15, 3, 42], 180, 5_000, 2_500_000))
            .expect("collapse fires");
        assert_eq!(live.fired_total(), 1);
        assert_eq!(live.last_kind(), Some("fallback_collapse"));
        assert_eq!(live.last_window.load(), 5);

        assert!(live.flight_record_path().is_none());
        live.set_flight_record_path("/tmp/flight.json");
        assert_eq!(
            live.flight_record_path().as_deref(),
            Some("/tmp/flight.json")
        );
        let snap = live.live_snapshot();
        assert_eq!(snap.kind, "watchdog");
        assert!(snap
            .counters
            .contains(&("collapse_fired_total".to_string(), 1)));
        assert!(snap.gauges.contains(&("armed".to_string(), 1.0)));
        assert!(snap
            .gauges
            .contains(&("flight_record_available".to_string(), 1.0)));
    }

    #[test]
    fn flight_record_document_shape() {
        use crate::recorder::ObsConfig;
        let mut wd = Watchdog::new(NOMINAL);
        let mut windows = Vec::new();
        for i in 0..4 {
            let w = window(i, 100, [900, 45, 5], 60, 12, 8_000);
            wd.inspect(&w);
            windows.push(w);
        }
        let collapsed = window(4, 100, [15, 3, 42], 180, 5_000, 2_500_000);
        let trigger = wd.inspect(&collapsed).unwrap();
        windows.push(collapsed);

        let r = Recorder::new(ObsConfig::default());
        r.record(
            rtle_htm::lanes::Writer::keyed(5),
            2_000,
            crate::RecordKind::Attempt(crate::event::AttemptEvent {
                path: crate::event::PathKind::Lock,
                abort: None,
                attempt: 7,
                latency: 1_000_000,
            }),
        );
        r.record(
            rtle_htm::lanes::Writer::keyed(5),
            1_002_000,
            crate::RecordKind::EpochBump(3),
        );
        let doc = flight_record(&trigger, &windows, &r);
        let text = doc.to_string_pretty();
        let back = crate::json::parse(&text).expect("flight record parses");
        assert_eq!(
            back.get("kind").and_then(Json::as_str),
            Some("flight-record")
        );
        assert_eq!(
            back.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert!(
            back.get("taken_at_ns").and_then(Json::as_u64).is_some(),
            "flight records carry the process-epoch timestamp"
        );
        assert_eq!(
            back.get("trigger")
                .and_then(|t| t.get("kind"))
                .and_then(Json::as_str),
            Some("fallback_collapse")
        );
        let ws = back.get("windows").and_then(Json::as_arr).unwrap();
        assert_eq!(ws.len(), 5);
        let last = WindowSnapshot::from_json(&ws[4]).expect("windows round-trip");
        assert_eq!(last.index, 4);
        // The holder's span and its instant, on its thread's track, in
        // time order.
        let records = back.get("records").and_then(Json::as_arr).unwrap();
        let seen: Vec<_> = records
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str),
                    e.get("tid").and_then(Json::as_u64),
                    e.get("args").and_then(|a| a.get("raw_ts")?.as_u64()),
                )
            })
            .collect();
        assert_eq!(
            seen,
            [
                (Some("lock_held"), Some(5), Some(2_000)),
                (Some("epoch_bump"), Some(5), Some(1_002_000)),
            ]
        );
    }
}
