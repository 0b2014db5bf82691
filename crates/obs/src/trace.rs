//! Causal tracing: per-thread lock-free span buffers and Chrome
//! `trace_event` export.
//!
//! Counters (the rest of this crate) answer *how often*; this module
//! answers *when* and *in what order* — which lock-holder span a burst of
//! slow-path commits overlapped, when the write flag went up, where the
//! adaptive policy resized. Events are recorded into the two-word
//! instance of [`crate::ring::Ring`] (the attempt-event ring is the
//! one-word instance), in the segment of the lane the record's thread id
//! selects, and exported as Chrome `trace_event` JSON that loads directly
//! in Perfetto.
//!
//! A trace record needs more bits than an attempt event (timestamp +
//! duration + argument), so it packs into **two** `u64` words instead of
//! one. Torn reads are detected with a 7-bit *generation tag* stored in
//! both words: the ring stores word 1, then word 0 (which carries the
//! valid bit); a racy drain accepts a pair only when both tags match. A
//! tag collision needs the same slot to be mid-overwrite exactly 128
//! generations apart — acceptable for a diagnostics buffer, and
//! impossible once writers have quiesced.
//!
//! ```text
//! word 0: bit 63     valid
//!         bits 62..56 generation tag (7)
//!         bits 55..50 kind (6)
//!         bits 49..40 thread id (10, saturating)
//!         bits 39..0  duration (40, saturating)
//! word 1: bits 63..57 generation tag (7)
//!         bits 56..16 timestamp (41, saturating — ns or sim cycles)
//!         bits 15..0  argument (16, saturating)
//! ```
//!
//! With the `trace` cargo feature **off**, [`Tracer`] is a zero-sized
//! type and every recording method is an empty `#[inline]` stub — the
//! fast path pays nothing, which `crates/bench/tests/overhead.rs`
//! asserts. The record/export *data* types below are never gated: they
//! manipulate plain values and let tools parse traces in any build.

use crate::json::Json;

/// What a trace record describes. Spans have a duration; instants are
/// points in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Committed fast-path HTM attempt (span).
    FastCommit,
    /// Aborted fast-path HTM attempt; `arg` = abort kind code (span).
    FastAbort,
    /// Committed slow-path attempt while a lock was held (span).
    SlowCommit,
    /// Aborted slow-path attempt; `arg` = explicit abort code (span).
    SlowAbort,
    /// Critical section run while holding the fallback lock (span).
    LockHeld,
    /// RW-TLE lock holder raised the write flag (instant).
    WriteFlagSet,
    /// FG-TLE lock holder released its orecs by bumping the epoch;
    /// `arg` = the epoch the holder ran at (instant).
    EpochBump,
    /// Adaptive policy halved the active orec range; `arg` = new size.
    AdaptShrink,
    /// Adaptive policy doubled the active orec range; `arg` = new size.
    AdaptGrow,
    /// Adaptive policy disabled the instrumented path; `arg` = new size.
    AdaptCollapse,
    /// Adaptive policy re-enabled the instrumented path; `arg` = size.
    AdaptReenable,
}

/// Every kind, in `code()` order (handy for exhaustive tests).
pub const TRACE_KINDS: [TraceKind; 11] = [
    TraceKind::FastCommit,
    TraceKind::FastAbort,
    TraceKind::SlowCommit,
    TraceKind::SlowAbort,
    TraceKind::LockHeld,
    TraceKind::WriteFlagSet,
    TraceKind::EpochBump,
    TraceKind::AdaptShrink,
    TraceKind::AdaptGrow,
    TraceKind::AdaptCollapse,
    TraceKind::AdaptReenable,
];

impl TraceKind {
    /// Stable event name used in Chrome exports.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::FastCommit => "fast_commit",
            TraceKind::FastAbort => "fast_abort",
            TraceKind::SlowCommit => "slow_commit",
            TraceKind::SlowAbort => "slow_abort",
            TraceKind::LockHeld => "lock_held",
            TraceKind::WriteFlagSet => "write_flag_set",
            TraceKind::EpochBump => "epoch_bump",
            TraceKind::AdaptShrink => "adapt_shrink",
            TraceKind::AdaptGrow => "adapt_grow",
            TraceKind::AdaptCollapse => "adapt_collapse",
            TraceKind::AdaptReenable => "adapt_reenable",
        }
    }

    /// The kind for a Chrome event name (inverse of [`Self::label`]).
    pub fn from_label(s: &str) -> Option<TraceKind> {
        TRACE_KINDS.into_iter().find(|k| k.label() == s)
    }

    /// `true` for kinds with a duration ("X" complete events).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            TraceKind::FastCommit
                | TraceKind::FastAbort
                | TraceKind::SlowCommit
                | TraceKind::SlowAbort
                | TraceKind::LockHeld
        )
    }

    /// `true` for the adaptive-policy instants (process-scoped in the
    /// Chrome export; everything else is thread-scoped).
    pub fn is_process_scoped(self) -> bool {
        matches!(
            self,
            TraceKind::AdaptShrink
                | TraceKind::AdaptGrow
                | TraceKind::AdaptCollapse
                | TraceKind::AdaptReenable
        )
    }

    fn code(self) -> u64 {
        match self {
            TraceKind::FastCommit => 0,
            TraceKind::FastAbort => 1,
            TraceKind::SlowCommit => 2,
            TraceKind::SlowAbort => 3,
            TraceKind::LockHeld => 4,
            TraceKind::WriteFlagSet => 5,
            TraceKind::EpochBump => 6,
            TraceKind::AdaptShrink => 7,
            TraceKind::AdaptGrow => 8,
            TraceKind::AdaptCollapse => 9,
            TraceKind::AdaptReenable => 10,
        }
    }

    fn from_code(c: u64) -> Option<TraceKind> {
        TRACE_KINDS.get(c as usize).copied()
    }
}

const TID_BITS: u32 = 10;
const DUR_BITS: u32 = 40;
const TS_BITS: u32 = 41;
const ARG_BITS: u32 = 16;
const TAG_MASK: u64 = 0x7f;

const W0_VALID: u64 = 1 << 63;
const W0_TAG_SHIFT: u32 = 56;
const W0_KIND_SHIFT: u32 = 50;
const W0_TID_SHIFT: u32 = DUR_BITS; // 40
const W1_TAG_SHIFT: u32 = 57;
const W1_TS_SHIFT: u32 = ARG_BITS; // 16

/// One decoded trace record. Field widths saturate on packing — see the
/// module docs for the exact layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Recording thread (saturates at 1023).
    pub tid: u16,
    /// What happened.
    pub kind: TraceKind,
    /// Start time in the tracer's unit (ns on hardware, cycles in the
    /// simulator), relative to the tracer's epoch.
    pub ts: u64,
    /// Duration in the same unit; 0 for instants.
    pub dur: u64,
    /// Kind-specific argument (abort code, epoch, orec count, ...).
    pub arg: u64,
}

impl TraceRecord {
    /// Packs the record into two words carrying generation tag `tag`.
    pub fn pack(self, tag: u64) -> (u64, u64) {
        let tag = tag & TAG_MASK;
        let w0 = W0_VALID
            | (tag << W0_TAG_SHIFT)
            | (self.kind.code() << W0_KIND_SHIFT)
            | ((self.tid as u64).min((1 << TID_BITS) - 1) << W0_TID_SHIFT)
            | self.dur.min((1 << DUR_BITS) - 1);
        let w1 = (tag << W1_TAG_SHIFT)
            | (self.ts.min((1 << TS_BITS) - 1) << W1_TS_SHIFT)
            | self.arg.min((1 << ARG_BITS) - 1);
        (w0, w1)
    }

    /// Decodes a word pair. `None` for an empty slot, a torn pair
    /// (generation tags disagree), or an unknown kind code.
    pub fn unpack(w0: u64, w1: u64) -> Option<TraceRecord> {
        if w0 & W0_VALID == 0 {
            return None;
        }
        if (w0 >> W0_TAG_SHIFT) & TAG_MASK != (w1 >> W1_TAG_SHIFT) & TAG_MASK {
            return None; // torn: words from different generations
        }
        Some(TraceRecord {
            tid: ((w0 >> W0_TID_SHIFT) & ((1 << TID_BITS) - 1)) as u16,
            kind: TraceKind::from_code((w0 >> W0_KIND_SHIFT) & 0x3f)?,
            ts: (w1 >> W1_TS_SHIFT) & ((1 << TS_BITS) - 1),
            dur: w0 & ((1 << DUR_BITS) - 1),
            arg: w1 & ((1 << ARG_BITS) - 1),
        })
    }
}

/// Records [`TraceRecord`]s into a bounded ring of 32768 slots (2048 per
/// lane).
/// With the `trace` feature off this is a zero-sized type whose methods
/// do nothing — see the module docs.
#[derive(Default)]
pub struct Tracer {
    #[cfg(feature = "trace")]
    ring: crate::ring::Ring<2, 2048>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Whether this build records traces (`trace` feature on).
    #[inline]
    pub const fn enabled(&self) -> bool {
        cfg!(feature = "trace")
    }

    /// Nanoseconds since the process epoch ([`crate::epoch`]) — the
    /// timebase of window starts, flight records and live scrapes.
    /// Returns 0 with the feature off — callers gate on [`Self::enabled`]
    /// so the clock read itself is compiled out.
    #[inline]
    pub fn now(&self) -> u64 {
        if cfg!(feature = "trace") {
            crate::epoch::now_ns()
        } else {
            0
        }
    }

    /// Records a span with an explicit start time (simulator clock).
    #[inline]
    pub fn span_at(&self, tid: u64, kind: TraceKind, ts: u64, dur: u64, arg: u64) {
        #[cfg(not(feature = "trace"))]
        let _ = (tid, kind, ts, dur, arg);
        #[cfg(feature = "trace")]
        self.push(TraceRecord {
            tid: tid.min(u16::MAX as u64) as u16,
            kind,
            ts,
            dur,
            arg,
        });
    }

    /// Records a span that ends now and lasted `dur` nanoseconds.
    #[inline]
    pub fn span_ending_now(&self, tid: u64, kind: TraceKind, dur: u64, arg: u64) {
        #[cfg(not(feature = "trace"))]
        let _ = (tid, kind, dur, arg);
        #[cfg(feature = "trace")]
        self.span_at(tid, kind, self.now().saturating_sub(dur), dur, arg);
    }

    /// Records an instant at an explicit time (simulator clock).
    #[inline]
    pub fn instant_at(&self, tid: u64, kind: TraceKind, ts: u64, arg: u64) {
        self.span_at(tid, kind, ts, 0, arg);
    }

    /// Records an instant happening now.
    #[inline]
    pub fn instant_now(&self, tid: u64, kind: TraceKind, arg: u64) {
        #[cfg(not(feature = "trace"))]
        let _ = (tid, kind, arg);
        #[cfg(feature = "trace")]
        self.instant_at(tid, kind, self.now(), arg);
    }

    #[cfg(feature = "trace")]
    #[inline]
    fn push(&self, rec: TraceRecord) {
        self.ring.push(rec.tid as u64, |generation| {
            let (w0, w1) = rec.pack(generation);
            [w0, w1]
        });
    }

    /// Total records published (monotone; includes overwritten ones).
    /// Always 0 with the feature off.
    pub fn recorded(&self) -> u64 {
        #[cfg(not(feature = "trace"))]
        {
            0
        }
        #[cfg(feature = "trace")]
        {
            self.ring.pushed()
        }
    }

    /// Collects the resident records, sorted by start time. Racy with
    /// concurrent pushes (torn pairs are discarded — module docs).
    /// Always empty with the feature off.
    pub fn drain(&self) -> Vec<TraceRecord> {
        #[cfg(not(feature = "trace"))]
        {
            Vec::new()
        }
        #[cfg(feature = "trace")]
        {
            let mut out: Vec<TraceRecord> = self
                .ring
                .resident()
                .filter_map(|[w0, w1]| TraceRecord::unpack(w0, w1))
                .collect();
            out.sort_by_key(|r| (r.ts, r.tid, r.dur));
            out
        }
    }
}

/// One record as a Chrome `trace_event` object. Spans become `"X"`
/// (complete) events with `dur`; instants become `"i"` events with a
/// thread or process `s` scope. Times are exported in microseconds (the
/// trace_event unit) as fractional values, and the exact raw values ride
/// along under `args` so tools can round-trip losslessly.
pub fn chrome_event(rec: &TraceRecord, pid: u64) -> Json {
    let mut args = vec![
        ("raw_ts", Json::UInt(rec.ts)),
        ("raw_dur", Json::UInt(rec.dur)),
    ];
    if rec.arg != 0 || !rec.kind.is_span() {
        args.push(("arg", Json::UInt(rec.arg)));
    }
    let mut pairs = vec![
        ("name", Json::Str(rec.kind.label().into())),
        ("cat", Json::Str("rtle".into())),
        (
            "ph",
            Json::Str(if rec.kind.is_span() { "X" } else { "i" }.into()),
        ),
        ("ts", Json::Num(rec.ts as f64 / 1_000.0)),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(rec.tid as u64)),
        ("args", Json::obj(args)),
    ];
    if rec.kind.is_span() {
        pairs.push(("dur", Json::Num(rec.dur as f64 / 1_000.0)));
    } else {
        pairs.push((
            "s",
            Json::Str(
                if rec.kind.is_process_scoped() {
                    "p"
                } else {
                    "t"
                }
                .into(),
            ),
        ));
    }
    Json::obj(pairs)
}

/// A `"M"` process-name metadata event (labels the pid row in Perfetto).
pub fn chrome_process_name(pid: u64, name: &str) -> Json {
    Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("ts", Json::Num(0.0)),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(0)),
        ("args", Json::obj([("name", Json::Str(name.into()))])),
    ])
}

/// Wraps pre-built events into the JSON-object trace format Perfetto
/// loads: `{"traceEvents": [...], "displayTimeUnit": "...", ...}`.
/// `unit` documents what the raw timestamps mean ("ns" or "cycles").
pub fn chrome_document(events: Vec<Json>, unit: &str) -> Json {
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".into())),
        (
            "otherData",
            Json::obj([
                ("tool", Json::Str("rtle-trace".into())),
                ("raw_time_unit", Json::Str(unit.into())),
            ]),
        ),
    ])
}

/// Records → complete single-process Chrome trace document.
pub fn to_chrome_json(records: &[TraceRecord], process: &str, unit: &str) -> Json {
    let mut events = vec![chrome_process_name(1, process)];
    events.extend(records.iter().map(|r| chrome_event(r, 1)));
    chrome_document(events, unit)
}

/// Rebuilds records from a document produced by [`to_chrome_json`] /
/// [`chrome_document`] (metadata events are skipped). `None` when the
/// document does not have the trace_event shape.
pub fn records_from_chrome_json(j: &Json) -> Option<Vec<TraceRecord>> {
    let events = j.get("traceEvents")?.as_arr()?;
    let mut out = Vec::new();
    for e in events {
        let ph = e.get("ph")?.as_str()?;
        if ph == "M" {
            continue;
        }
        let kind = TraceKind::from_label(e.get("name")?.as_str()?)?;
        let args = e.get("args")?;
        out.push(TraceRecord {
            tid: e.get("tid")?.as_u64()? as u16,
            kind,
            ts: args.get("raw_ts")?.as_u64()?,
            dur: args.get("raw_dur")?.as_u64()?,
            arg: args.get("arg").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Some(out)
}

/// Structural validation of a Chrome trace document: every event must
/// carry the keys Perfetto requires (`name`/`ph`/`ts`/`pid`/`tid`, plus
/// `dur` for `"X"` spans and `s` for `"i"` instants). Returns the event
/// count, or what is missing.
pub fn validate_chrome(j: &Json) -> Result<usize, String> {
    let Some(events) = j.get("traceEvents").and_then(Json::as_arr) else {
        return Err("document has no traceEvents array".into());
    };
    for (i, e) in events.iter().enumerate() {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("event {i} is missing required key `{key}`"));
            }
        }
        match e.get("ph").and_then(Json::as_str) {
            Some("X") => {
                if e.get("dur").is_none() {
                    return Err(format!("complete event {i} has no `dur`"));
                }
            }
            Some("i") => {
                if e.get("s").is_none() {
                    return Err(format!("instant event {i} has no scope `s`"));
                }
            }
            Some("M") => {}
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tid: u16, kind: TraceKind, ts: u64, dur: u64, arg: u64) -> TraceRecord {
        TraceRecord {
            tid,
            kind,
            ts,
            dur,
            arg,
        }
    }

    #[test]
    fn pack_round_trips_every_kind() {
        for (i, kind) in TRACE_KINDS.into_iter().enumerate() {
            let r = rec(i as u16 * 3, kind, 1_000 * i as u64, 77, i as u64);
            let (w0, w1) = r.pack(i as u64);
            assert_eq!(TraceRecord::unpack(w0, w1), Some(r), "{kind:?}");
        }
    }

    #[test]
    fn saturating_fields_do_not_corrupt_neighbours() {
        let r = rec(u16::MAX, TraceKind::LockHeld, u64::MAX, u64::MAX, u64::MAX);
        let (w0, w1) = r.pack(0);
        let back = TraceRecord::unpack(w0, w1).unwrap();
        assert_eq!(back.tid, (1 << TID_BITS) - 1);
        assert_eq!(back.ts, (1 << TS_BITS) - 1);
        assert_eq!(back.dur, (1 << DUR_BITS) - 1);
        assert_eq!(back.arg, (1 << ARG_BITS) - 1);
        assert_eq!(back.kind, TraceKind::LockHeld);
    }

    #[test]
    fn torn_pairs_and_empty_slots_are_rejected() {
        assert_eq!(TraceRecord::unpack(0, 0), None);
        let a = rec(1, TraceKind::FastCommit, 10, 5, 0);
        let b = rec(1, TraceKind::SlowCommit, 900, 5, 0);
        let (w0_new, _) = a.pack(3);
        let (_, w1_old) = b.pack(2);
        assert_eq!(TraceRecord::unpack(w0_new, w1_old), None, "tag mismatch");
    }

    #[test]
    fn chrome_export_has_perfetto_shape_and_round_trips() {
        let records = vec![
            rec(0, TraceKind::LockHeld, 100, 900, 0),
            rec(1, TraceKind::SlowCommit, 150, 40, 0),
            rec(0, TraceKind::WriteFlagSet, 120, 0, 0),
            rec(0, TraceKind::AdaptGrow, 500, 0, 128),
            rec(2, TraceKind::FastAbort, 1_200, 30, 4),
        ];
        let doc = to_chrome_json(&records, "rtle", "ns");
        // Survives the hand-rolled writer + parser.
        let text = doc.to_string_pretty();
        let parsed = crate::json::parse(&text).expect("trace JSON parses");
        // Perfetto-required keys on every event.
        let n = validate_chrome(&parsed).expect("valid trace_event shape");
        assert_eq!(n, records.len() + 1, "events + process_name metadata");
        // Exact record round-trip via the raw args.
        let back = records_from_chrome_json(&parsed).expect("records parse back");
        assert_eq!(back, records);
        // Instants carry the right scopes.
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let scope_of = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|e| e.get("s"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(scope_of("write_flag_set").as_deref(), Some("t"));
        assert_eq!(scope_of("adapt_grow").as_deref(), Some("p"));
        assert_eq!(scope_of("lock_held"), None, "spans have no scope");
    }

    #[test]
    fn validator_rejects_missing_keys() {
        let doc = Json::obj([(
            "traceEvents",
            Json::Arr(vec![Json::obj([
                ("name", Json::Str("x".into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(0.0)),
                ("pid", Json::UInt(1)),
                // tid missing
            ])]),
        )]);
        assert!(validate_chrome(&doc).unwrap_err().contains("tid"));
    }

    #[test]
    fn disabled_tracer_is_inert_when_feature_off() {
        let t = Tracer::new();
        t.span_ending_now(0, TraceKind::FastCommit, 10, 0);
        t.instant_now(0, TraceKind::EpochBump, 3);
        if !t.enabled() {
            assert_eq!(t.recorded(), 0);
            assert!(t.drain().is_empty());
            assert_eq!(std::mem::size_of::<Tracer>(), 0, "ZST when off");
        } else {
            assert_eq!(t.recorded(), 2);
        }
    }

    #[cfg(feature = "trace")]
    mod recording {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn records_spans_and_instants() {
            let t = Tracer::new();
            assert!(t.enabled());
            t.span_at(3, TraceKind::LockHeld, 1_000, 500, 0);
            t.span_at(4, TraceKind::SlowCommit, 1_100, 50, 0);
            t.instant_at(3, TraceKind::EpochBump, 1_500, 7);
            let records = t.drain();
            assert_eq!(records.len(), 3);
            assert_eq!(records[0].kind, TraceKind::LockHeld);
            assert_eq!(records[0].dur, 500);
            assert_eq!(records[2].arg, 7);
            assert!(records.windows(2).all(|w| w[0].ts <= w[1].ts), "sorted");
            assert_eq!(t.recorded(), 3);
        }

        #[test]
        fn span_ending_now_is_stamped_on_the_process_epoch() {
            // Pin the epoch well before the tracer exists: a tracer with a
            // private epoch would stamp its first span near zero.
            let pinned = crate::epoch::now_ns();
            std::thread::sleep(std::time::Duration::from_millis(20));
            let t = Tracer::new();
            let before = crate::epoch::now_ns();
            assert!(before >= pinned + 20_000_000);
            t.span_ending_now(0, TraceKind::FastCommit, 5, 0);
            let after = crate::epoch::now_ns();
            let r = t.drain();
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].dur, 5);
            assert!(
                r[0].ts + 5 >= before && r[0].ts + 5 <= after,
                "span ends at {} on the epoch clock, outside [{before}, {after}]",
                r[0].ts + 5
            );
        }

        #[test]
        fn a_tid_keeps_its_lane_segments_most_recent_records() {
            let t = Tracer::new();
            for i in 0..5_000u64 {
                t.span_at(0, TraceKind::FastCommit, i, 1, 0);
            }
            t.span_at(1, TraceKind::SlowCommit, 9_999, 1, 0);
            let r = t.drain();
            assert_eq!(
                r.len(),
                2048 + 1,
                "one lane segment of tid 0, one record of tid 1"
            );
            assert_eq!(r[0].ts, 5_000 - 2048);
            assert_eq!(r.last().unwrap().tid, 1);
            assert_eq!(t.recorded(), 5_001);
        }

        #[test]
        fn concurrent_pushes_never_yield_torn_records() {
            let t = Arc::new(Tracer::new());
            let threads: Vec<_> = (0..8u64)
                .map(|id| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        for i in 0..20_000u64 {
                            // Four tids, so two writers per lane segment;
                            // thread and `i` ride in both words, so a torn
                            // pair that slipped through the generation tag
                            // would decode to an impossible record.
                            t.span_at(id % 4, TraceKind::SlowCommit, i << 3 | id, i, id);
                        }
                    })
                })
                .collect();
            for _ in 0..50 {
                for r in t.drain() {
                    assert_eq!(r.kind, TraceKind::SlowCommit);
                    assert_eq!((r.ts & 7, r.ts >> 3), (r.arg, r.dur), "torn {r:?}");
                    assert_eq!(r.arg % 4, r.tid as u64);
                }
            }
            for th in threads {
                th.join().unwrap();
            }
            assert_eq!(t.recorded(), 8 * 20_000);
        }
    }
}
