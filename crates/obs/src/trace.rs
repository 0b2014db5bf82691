//! The one record: what a recorded thread did and when, and its Chrome
//! `trace_event` reading.
//!
//! Counters (the rest of this crate) answer *how often*; the record
//! stream answers *when* and *in what order* — which lock-holder span a
//! burst of slow-path commits overlapped, when the write flag went up,
//! where the adaptive policy resized. Everything the recorder writes down
//! about a moment in time is one [`Record`]: an attempt (a span: thread,
//! path, abort class, explicit code, attempt index, start, duration) or one
//! of the instants (write-flag raise, epoch bump, adaptive decision).
//! Records live in the recorder's one [`crate::ring::Ring`], in the
//! segment of the recording writer's lane ([`rtle_htm::lanes::Writer`]);
//! the watchdog's flight record and `diag --trace` are readings of it, both
//! in the Chrome form below (which loads directly in Perfetto). A new thing to record is a new [`RecordKind`], never a second ring.
//!
//! A record packs into **two** `u64` words. Torn reads are detected with
//! a 7-bit *generation tag* stored in both: the ring stores word 1, then
//! word 0 (which carries the valid bit); a racy reader accepts a pair
//! only when both tags match. A tag collision needs the same slot to be
//! mid-overwrite exactly 128 generations apart — acceptable for a
//! diagnostics buffer, and impossible once writers have quiesced.
//!
//! ```text
//! word 0: bit 63      valid
//!         bits 62..56 generation tag (7)
//!         bits 55..52 kind (4)
//!         bits 51..42 thread id (10: the thread key's low bits, wrapping)
//!         bits 41..0  start / instant time (42, saturating — ns since the
//!                     process epoch, ~73 min, or sim cycles)
//! word 1: bits 63..57 generation tag (7)
//!         bits 56..0  payload (57), by kind:
//!           attempt      path (2) | abort (3): 0 = commit, 1 + `AbortCode::index`
//!                        | explicit code (8) | attempt index (8)
//!                        | duration (36, saturating, ~68 s of ns)
//!           epoch bump   the epoch the holder ran at (saturating)
//!           adaptive     action (2) | active orecs afterwards (55,
//!                        saturating)
//! ```

use rtle_htm::AbortCode;

use crate::event::{AdaptAction, AttemptEvent, PathKind, PATHS};
use crate::json::Json;

/// What a [`Record`] describes. An attempt is a span (its
/// [`AttemptEvent::latency`] is the duration); the rest are instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One attempt on one path, with how it ended.
    Attempt(AttemptEvent),
    /// The RW-TLE lock holder raised the write flag.
    WriteFlagSet,
    /// The FG-TLE lock holder released its orecs by bumping the epoch;
    /// carries the epoch the holder ran at.
    EpochBump(u64),
    /// The adaptive policy decided; carries the active orec count after
    /// the decision. Process-scoped in the Chrome export.
    Adapt(AdaptAction, u64),
}

/// Chrome event names of attempt spans, `[committed, aborted]` per path in
/// [`PathKind::index`] order (the lock path's span is the holding window).
const SPAN_LABELS: [[&str; 2]; PATHS] = [
    ["fast_commit", "fast_abort"],
    ["slow_commit", "slow_abort"],
    ["stm_commit", "stm_abort"],
    ["lock_held", "lock_abort"],
];
/// Chrome event names of adaptive decisions, in [`AdaptAction::ALL`] order.
const ADAPT_LABELS: [&str; 4] = [
    "adapt_shrink",
    "adapt_grow",
    "adapt_collapse",
    "adapt_reenable",
];

const KIND_ATTEMPT: u64 = 0;
const KIND_WRITE_FLAG: u64 = 1;
const KIND_EPOCH_BUMP: u64 = 2;
const KIND_ADAPT: u64 = 3;

const TAG_MASK: u64 = 0x7f;
const W0_VALID: u64 = 1 << 63;
const W0_TAG_SHIFT: u32 = 56;
const W0_KIND_SHIFT: u32 = 52;
const TID_BITS: u32 = 10;
const TS_BITS: u32 = 42;
const W1_TAG_SHIFT: u32 = 57;
const PAYLOAD_BITS: u32 = W1_TAG_SHIFT;
const DUR_BITS: u32 = 36;
const ATTEMPT_SHIFT: u32 = DUR_BITS; // 36
const EXPLICIT_SHIFT: u32 = ATTEMPT_SHIFT + 8; // 44
const ABORT_SHIFT: u32 = EXPLICIT_SHIFT + 8; // 52
const PATH_SHIFT: u32 = ABORT_SHIFT + 3; // 55
const ADAPT_ACTION_SHIFT: u32 = PAYLOAD_BITS - 2; // 55

const fn mask(bits: u32) -> u64 {
    (1 << bits) - 1
}

/// One decoded record. Field widths are the module docs' layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Recording thread ([`Record::tid_of`] its key).
    pub tid: u16,
    /// Start of the span, or the instant's time, in the recorder's unit
    /// (ns since the process epoch on hardware, cycles in the simulator).
    pub ts: u64,
    /// What happened.
    pub kind: RecordKind,
}

impl Record {
    /// The stored id of the thread with key `thread_key`: its low 10
    /// bits. (The *lane* a record lands in comes from the full key.)
    #[inline]
    pub fn tid_of(thread_key: u64) -> u16 {
        (thread_key & mask(TID_BITS)) as u16
    }

    /// The attempt this record describes, if it is one.
    pub fn attempt(&self) -> Option<AttemptEvent> {
        match self.kind {
            RecordKind::Attempt(ev) => Some(ev),
            _ => None,
        }
    }

    /// Duration in the recorder's unit; 0 for instants.
    pub fn dur(&self) -> u64 {
        self.attempt().map_or(0, |ev| ev.latency)
    }

    /// Stable event name used in Chrome exports.
    pub fn label(&self) -> &'static str {
        match self.kind {
            RecordKind::Attempt(ev) => {
                SPAN_LABELS[ev.path.index()][usize::from(ev.abort.is_some())]
            }
            RecordKind::WriteFlagSet => "write_flag_set",
            RecordKind::EpochBump(_) => "epoch_bump",
            RecordKind::Adapt(action, _) => ADAPT_LABELS[action as usize],
        }
    }

    /// Packs the record into two words carrying generation tag `tag`.
    #[inline]
    pub fn pack(self, tag: u64) -> [u64; 2] {
        let tag = tag & TAG_MASK;
        let (kind, payload) = match self.kind {
            RecordKind::Attempt(ev) => (
                KIND_ATTEMPT,
                ((ev.path.index() as u64) << PATH_SHIFT)
                    | (ev.abort.map_or(0, |code| 1 + code.index() as u64) << ABORT_SHIFT)
                    | (match ev.abort {
                        Some(AbortCode::Explicit(c)) => u64::from(c) << EXPLICIT_SHIFT,
                        _ => 0,
                    })
                    | ((ev.attempt as u64) << ATTEMPT_SHIFT)
                    | ev.latency.min(mask(DUR_BITS)),
            ),
            RecordKind::WriteFlagSet => (KIND_WRITE_FLAG, 0),
            RecordKind::EpochBump(epoch) => (KIND_EPOCH_BUMP, epoch.min(mask(PAYLOAD_BITS))),
            RecordKind::Adapt(action, orecs) => (
                KIND_ADAPT,
                ((action as u64) << ADAPT_ACTION_SHIFT) | orecs.min(mask(ADAPT_ACTION_SHIFT)),
            ),
        };
        [
            W0_VALID
                | (tag << W0_TAG_SHIFT)
                | (kind << W0_KIND_SHIFT)
                | ((self.tid as u64 & mask(TID_BITS)) << TS_BITS)
                | self.ts.min(mask(TS_BITS)),
            (tag << W1_TAG_SHIFT) | payload,
        ]
    }

    /// Decodes a word pair. `None` for an empty slot, a torn pair
    /// (generation tags disagree), or an unknown kind or abort code.
    pub fn unpack([w0, w1]: [u64; 2]) -> Option<Record> {
        if w0 & W0_VALID == 0 {
            return None;
        }
        if (w0 >> W0_TAG_SHIFT) & TAG_MASK != w1 >> W1_TAG_SHIFT {
            return None; // torn: words from different generations
        }
        let payload = w1 & mask(PAYLOAD_BITS);
        let kind = match (w0 >> W0_KIND_SHIFT) & 0xf {
            KIND_ATTEMPT => RecordKind::Attempt(AttemptEvent {
                path: PathKind::ALL[(payload >> PATH_SHIFT) as usize],
                abort: match (payload >> ABORT_SHIFT) & 0x7 {
                    0 => None,
                    code => Some(AbortCode::from_index(
                        code as usize - 1,
                        (payload >> EXPLICIT_SHIFT) as u8,
                    )?),
                },
                attempt: (payload >> ATTEMPT_SHIFT) as u8,
                latency: payload & mask(DUR_BITS),
            }),
            KIND_WRITE_FLAG => RecordKind::WriteFlagSet,
            KIND_EPOCH_BUMP => RecordKind::EpochBump(payload),
            KIND_ADAPT => RecordKind::Adapt(
                AdaptAction::ALL[(payload >> ADAPT_ACTION_SHIFT) as usize],
                payload & mask(ADAPT_ACTION_SHIFT),
            ),
            _ => return None,
        };
        Some(Record {
            tid: ((w0 >> TS_BITS) & mask(TID_BITS)) as u16,
            ts: w0 & mask(TS_BITS),
            kind,
        })
    }
}

/// One record as a Chrome `trace_event` object. Attempts become `"X"`
/// (complete) events with `dur` and, under `args`, the attempt itself
/// ([`AttemptEvent::to_json`]: outcome, attempt index, exact latency and —
/// for explicit aborts — the protocol code); instants become `"i"` events
/// with a thread or process `s` scope and their argument. Times are
/// exported in microseconds (the trace_event unit) as fractional values,
/// and the exact `raw_ts` rides along under `args` so a reader keeps the
/// exact stamp.
pub fn chrome_event(rec: &Record, pid: u64) -> Json {
    let instant = |scope: &str, arg: u64| {
        (
            Json::obj([("arg", Json::UInt(arg))]),
            [
                ("ph", Json::Str("i".into())),
                ("s", Json::Str(scope.into())),
            ],
        )
    };
    let (mut args, shape) = match rec.kind {
        RecordKind::Attempt(ev) => (
            ev.to_json(),
            [
                ("ph", Json::Str("X".into())),
                ("dur", Json::Num(ev.latency as f64 / 1_000.0)),
            ],
        ),
        RecordKind::WriteFlagSet => instant("t", 0),
        RecordKind::EpochBump(epoch) => instant("t", epoch),
        RecordKind::Adapt(_, orecs) => instant("p", orecs),
    };
    if let Json::Obj(args) = &mut args {
        args.insert("raw_ts".into(), Json::UInt(rec.ts));
    }
    let mut pairs = vec![
        ("name", Json::Str(rec.label().into())),
        ("cat", Json::Str("rtle".into())),
        ("ts", Json::Num(rec.ts as f64 / 1_000.0)),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(rec.tid as u64)),
        ("args", args),
    ];
    pairs.extend(shape);
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

    fn rec(tid: u16, ts: u64, kind: RecordKind) -> Record {
        Record { tid, ts, kind }
    }

    fn attempt(path: PathKind, abort: Option<AbortCode>, attempt: u8, latency: u64) -> RecordKind {
        RecordKind::Attempt(AttemptEvent {
            path,
            abort,
            attempt,
            latency,
        })
    }

    /// A commit, then one abort of every class carrying explicit code
    /// `explicit`.
    fn endings(explicit: u8) -> impl Iterator<Item = Option<AbortCode>> {
        std::iter::once(None)
            .chain((0..AbortCode::KINDS).map(move |i| AbortCode::from_index(i, explicit)))
    }

    /// Every kind, each at the zero and at the saturation point of every
    /// field it carries.
    fn corner_cases() -> Vec<Record> {
        let tid_max = mask(TID_BITS) as u16;
        let ts_max = mask(TS_BITS);
        let mut cases = vec![
            rec(0, 0, RecordKind::WriteFlagSet),
            rec(tid_max, ts_max, RecordKind::WriteFlagSet),
            rec(0, 0, RecordKind::EpochBump(0)),
            rec(tid_max, ts_max, RecordKind::EpochBump(mask(PAYLOAD_BITS))),
        ];
        for action in AdaptAction::ALL {
            cases.push(rec(0, 0, RecordKind::Adapt(action, 0)));
            cases.push(rec(
                tid_max,
                ts_max,
                RecordKind::Adapt(action, mask(ADAPT_ACTION_SHIFT)),
            ));
        }
        for path in PathKind::ALL {
            for abort in endings(0) {
                cases.push(rec(0, 0, attempt(path, abort, 0, 0)));
            }
            for abort in endings(u8::MAX) {
                cases.push(rec(
                    tid_max,
                    ts_max,
                    attempt(path, abort, u8::MAX, mask(DUR_BITS)),
                ));
            }
        }
        cases
    }

    #[test]
    fn pack_round_trips_every_field_of_every_kind_at_both_ends() {
        for (i, r) in corner_cases().into_iter().enumerate() {
            assert_eq!(Record::unpack(r.pack(i as u64)), Some(r), "{r:?}");
        }
    }

    #[test]
    fn saturating_fields_do_not_corrupt_neighbours() {
        let wide = rec(
            u16::MAX,
            u64::MAX,
            attempt(PathKind::Lock, Some(AbortCode::Explicit(9)), 3, u64::MAX),
        );
        assert_eq!(
            Record::unpack(wide.pack(5)),
            Some(rec(
                mask(TID_BITS) as u16,
                mask(TS_BITS),
                attempt(
                    PathKind::Lock,
                    Some(AbortCode::Explicit(9)),
                    3,
                    mask(DUR_BITS)
                ),
            ))
        );
        let back = |kind| Record::unpack(rec(1, 2, kind).pack(0)).unwrap().kind;
        assert_eq!(
            back(RecordKind::EpochBump(u64::MAX)),
            RecordKind::EpochBump(mask(PAYLOAD_BITS))
        );
        assert_eq!(
            back(RecordKind::Adapt(AdaptAction::Reenable, u64::MAX)),
            RecordKind::Adapt(AdaptAction::Reenable, mask(ADAPT_ACTION_SHIFT))
        );
    }

    #[test]
    fn empty_torn_and_unknown_slots_decode_to_none() {
        assert_eq!(Record::unpack([0, 0]), None);
        let [w0_new, _] = rec(1, 10, attempt(PathKind::FastHtm, None, 0, 5)).pack(3);
        let [_, w1_old] = rec(1, 900, attempt(PathKind::SlowHtm, None, 0, 5)).pack(2);
        assert_eq!(Record::unpack([w0_new, w1_old]), None, "tag mismatch");
        for unknown in KIND_ADAPT + 1..16 {
            let [w0, w1] = rec(1, 10, RecordKind::WriteFlagSet).pack(3);
            let w0 = w0 & !(0xf << W0_KIND_SHIFT) | unknown << W0_KIND_SHIFT;
            assert_eq!(Record::unpack([w0, w1]), None, "kind {unknown}");
        }
        let [w0, w1] = rec(1, 10, attempt(PathKind::Lock, None, 0, 5)).pack(3);
        let past_the_classes = (1 + AbortCode::KINDS as u64) << ABORT_SHIFT;
        assert_eq!(Record::unpack([w0, w1 | past_the_classes]), None);
    }

    /// The packed words of one attempt per path and ending (explicit code
    /// 0), and of an explicit abort with code 255, as literals: the ring
    /// and Chrome layouts cannot drift with the vocabulary that fills them.
    #[test]
    fn the_attempt_layout_is_pinned() {
        const W0: u64 = 0xd500_1c00_0000_03e8;
        #[rustfmt::skip]
        const W1: [[u64; 1 + AbortCode::KINDS]; PATHS] = [
            [0xaa00_0020_0000_012c, 0xaa10_0020_0000_012c, 0xaa20_0020_0000_012c,
             0xaa30_0020_0000_012c, 0xaa40_0020_0000_012c, 0xaa50_0020_0000_012c,
             0xaa60_0020_0000_012c],
            [0xaa80_0020_0000_012c, 0xaa90_0020_0000_012c, 0xaaa0_0020_0000_012c,
             0xaab0_0020_0000_012c, 0xaac0_0020_0000_012c, 0xaad0_0020_0000_012c,
             0xaae0_0020_0000_012c],
            [0xab00_0020_0000_012c, 0xab10_0020_0000_012c, 0xab20_0020_0000_012c,
             0xab30_0020_0000_012c, 0xab40_0020_0000_012c, 0xab50_0020_0000_012c,
             0xab60_0020_0000_012c],
            [0xab80_0020_0000_012c, 0xab90_0020_0000_012c, 0xaba0_0020_0000_012c,
             0xabb0_0020_0000_012c, 0xabc0_0020_0000_012c, 0xabd0_0020_0000_012c,
             0xabe0_0020_0000_012c],
        ];
        let pinned = |path, abort, words: [u64; 2]| {
            let r = rec(7, 1_000, attempt(path, abort, 2, 300));
            assert_eq!(r.pack(0x55), words, "{path:?} {abort:?}");
            assert_eq!(Record::unpack(words), Some(r));
        };
        for (path, row) in PathKind::ALL.into_iter().zip(W1) {
            for (abort, w1) in endings(0).zip(row) {
                pinned(path, abort, [W0, w1]);
            }
        }
        let code_255 = Some(AbortCode::Explicit(255));
        pinned(PathKind::SlowHtm, code_255, [W0, 0xaabf_f020_0000_012c]);
    }

    #[test]
    fn the_stored_thread_id_wraps() {
        assert_eq!(Record::tid_of(5), 5);
        assert_eq!(Record::tid_of(1_023), 1_023);
        assert_eq!(Record::tid_of(5_000), 5_000 % 1_024);
        assert_ne!(Record::tid_of(5_000), Record::tid_of(6_001));
    }

    #[test]
    fn chrome_export_has_perfetto_shape_and_exact_stamps() {
        let records = corner_cases();
        let mut events = vec![chrome_process_name(1, "rtle")];
        events.extend(records.iter().map(|r| chrome_event(r, 1)));
        // Survives the hand-rolled writer + parser.
        let text = chrome_document(events, "ns").to_string_pretty();
        let parsed = crate::json::parse(&text).expect("trace JSON parses");
        // Perfetto-required keys on every event.
        let n = validate_chrome(&parsed).expect("valid trace_event shape");
        assert_eq!(n, records.len() + 1, "events + process_name metadata");
        // Each record's event, in order, carries its name, thread, exact
        // stamp and — for a span — the whole attempt.
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        for (e, r) in events[1..].iter().zip(&records) {
            assert_eq!(e.get("name").and_then(Json::as_str), Some(r.label()));
            assert_eq!(e.get("tid").and_then(Json::as_u64), Some(r.tid as u64));
            let args = e.get("args").expect("args");
            assert_eq!(args.get("raw_ts").and_then(Json::as_u64), Some(r.ts));
            if let Some(Json::Obj(want)) = r.attempt().map(|ev| ev.to_json()) {
                for (key, value) in &want {
                    assert_eq!(args.get(key), Some(value), "{r:?}: {key}");
                }
            }
        }
        // Instants carry the right scopes.
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
        // An abort span says why and at which attempt.
        let abort = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("slow_abort"))
            .filter_map(|e| e.get("args"))
            .find(|a| a.get("abort_code").and_then(Json::as_u64) == Some(255))
            .expect("an explicit slow-path abort");
        assert_eq!(
            abort.get("outcome").and_then(Json::as_str),
            Some("explicit")
        );
        assert_eq!(abort.get("attempt").and_then(Json::as_u64), Some(255));
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
}
