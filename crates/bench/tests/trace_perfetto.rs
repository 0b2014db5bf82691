//! Acceptance test for the record stream's Chrome reading: a
//! deterministic 8-thread FG-TLE run exports a Chrome `trace_event`
//! document that (a) passes the same structural checks Perfetto applies
//! before loading, (b) carries every record's exact stamp through a full
//! write → parse, (c) has a span on every path that committed, every abort
//! span saying why and at which attempt, and (d) shows at least one
//! lock-holder span overlapping a *committed* slow-path span — the
//! paper's central claim ("slow-path transactions commit while the lock
//! is held") made visible on a timeline.

use std::sync::Arc;

use rtle_obs::trace::{chrome_document, chrome_event, chrome_process_name, validate_chrome};
use rtle_obs::{parse_json, Json, ObsConfig, PathKind, Recorder};
use rtle_sim::{Access, CostModel, Engine, OpSpec, RunMode, SimMethod, Workload};

/// Thread 0 is HTM-hostile (locks every op); the others run disjoint
/// two-access ops that succeed on the instrumented slow path while the
/// lock is held.
struct Mix {
    remaining: Vec<u64>,
}

impl Workload for Mix {
    fn next_op(&mut self, thread: usize) -> OpSpec {
        let base = 1_000 * thread as u64;
        OpSpec {
            trace: vec![
                Access {
                    line: base,
                    write: false,
                },
                Access {
                    line: base + 1,
                    write: true,
                },
            ],
            setup_cycles: 20,
            htm_hostile: thread == 0,
            ..Default::default()
        }
    }
    fn next_op_again(&mut self, thread: usize) -> OpSpec {
        self.next_op(thread)
    }
    fn commit(&mut self, thread: usize) {
        self.remaining[thread] -= 1;
    }
    fn remaining(&self, thread: usize) -> Option<u64> {
        Some(self.remaining[thread])
    }
}

#[test]
fn eight_thread_fg_tle_trace_loads_in_perfetto_shape() {
    const THREADS: usize = 8;
    // Thread 0 leaves seven records per op (five doomed fast attempts, the
    // holding window, the epoch bump): 100 ops stay inside its segment.
    const OPS: u64 = 100;
    let rec = Arc::new(Recorder::new(ObsConfig {
        latency_unit: "cycles",
        ..ObsConfig::default()
    }));
    let stats = Engine::new(
        SimMethod::FgTle { orecs: 1024 },
        THREADS,
        CostModel::default(),
        RunMode::FixedWork,
        Mix {
            remaining: vec![OPS; THREADS],
        },
    )
    .with_recorder(Arc::clone(&rec))
    .run();
    assert_eq!(stats.ops, OPS * THREADS as u64);
    assert!(stats.slow_commits > 0, "slow path must commit: {stats:?}");

    let records = rec.records();

    // (a) Structural validity of the export, after a real parse of the
    // serialized text (not just the in-memory tree).
    let mut events = vec![chrome_process_name(1, "fg-tle-sim")];
    events.extend(records.iter().map(|r| chrome_event(r, 1)));
    let text = chrome_document(events, "cycles").to_string_pretty();
    let parsed = parse_json(&text).expect("exported trace is valid JSON");
    let n = validate_chrome(&parsed).expect("trace_event structure");
    assert_eq!(n, records.len() + 1, "all records exported plus metadata");

    // (b) Each record's event carries its exact cycle stamp under
    // `args.raw_ts` (the `ts` field is in microseconds).
    let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    for (e, r) in events[1..].iter().zip(&records) {
        let raw_ts = e.get("args").and_then(|a| a.get("raw_ts"));
        assert_eq!(raw_ts.and_then(Json::as_u64), Some(r.ts), "{r:?}");
        assert_eq!(e.get("tid").and_then(Json::as_u64), Some(r.tid as u64));
    }

    // (c) Every path that committed has its span, and every abort span
    // carries its outcome, its attempt index and — when explicit — the
    // protocol code.
    let named = |name: &str| {
        let named = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name));
        named.collect::<Vec<_>>()
    };
    assert!(stats.fast_commits > 0 && stats.lock_commits > 0);
    for span in ["fast_commit", "slow_commit", "lock_held"] {
        assert!(!named(span).is_empty(), "no {span} span");
    }
    assert!(
        named("stm_commit").is_empty(),
        "FG-TLE has no software rung"
    );
    let mut aborts = named("fast_abort");
    aborts.extend(named("slow_abort"));
    assert_eq!(aborts.len() as u64, stats.aborts(), "no segment wrapped");
    let mut explicit = 0;
    for e in aborts {
        let args = e.get("args").expect("args");
        let outcome = args.get("outcome").and_then(Json::as_str).expect("outcome");
        assert_ne!(outcome, "commit");
        assert!(args.get("attempt").and_then(Json::as_u64).is_some());
        let has_code = args.get("abort_code").and_then(Json::as_u64).is_some();
        assert_eq!(has_code, outcome == "explicit", "{outcome}");
        explicit += u64::from(has_code);
    }
    assert_eq!(
        explicit, stats.aborts_eager_owned,
        "orec-conflict self-aborts"
    );

    // (d) A lock-holder span overlaps a committed slow-path span from a
    // different thread.
    let spans_on = |path| {
        let on_path = records
            .iter()
            .filter(move |r| r.attempt().map(|a| (a.path, a.abort)) == Some((path, None)));
        on_path.collect::<Vec<_>>()
    };
    let lock_spans = spans_on(PathKind::Lock);
    let slow_commits = spans_on(PathKind::SlowHtm);
    assert_eq!(lock_spans.len() as u64, stats.lock_commits);
    assert_eq!(slow_commits.len() as u64, stats.slow_commits);
    let overlap = lock_spans.iter().any(|l| {
        slow_commits
            .iter()
            .any(|s| s.tid != l.tid && s.ts < l.ts + l.dur() && l.ts < s.ts + s.dur())
    });
    assert!(
        overlap,
        "a slow-path commit must overlap a concurrent lock-holder span"
    );

    // Thread tracks cover all 8 simulated threads over the whole run.
    let tids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.tid as u64).collect();
    assert!(tids.len() >= THREADS, "every thread appears in the trace");
}
