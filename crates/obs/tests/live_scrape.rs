//! Live-telemetry plane integration tests.
//!
//! * A golden-file test pinning the Prometheus text exposition: the
//!   registry is fed hand-built deterministic sources (no wall-clock
//!   values appear in the text format by design), and the rendered page
//!   is compared against `tests/golden/live_metrics.prom`.
//! * A golden-file test pinning the JSON page (`/json`, the documents'
//!   writer): a recorder with a fixed recording, a lock's source and a
//!   watchdog mirror, rendered at a fixed `taken_at_ns` and compared
//!   against `tests/golden/live_registry.json`.
//!
//!   Regenerate either after an intentional format change with:
//!
//!   ```sh
//!   BLESS=1 cargo test -p rtle-obs --test live_scrape
//!   ```
//!
//! * A scrape-under-load test: 8 writers hammer a registered recorder
//!   while the main thread scrapes continuously; every sample must be
//!   present at the end and counters must read monotonically — scraping
//!   is non-destructive and never perturbs writers.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use rtle_htm::lanes::Writer;
use rtle_htm::AbortCode;
use rtle_obs::{
    AttemptEvent, Histogram, Json, LiveServer, LiveSource, MetricsRegistry, ObsConfig, PathKind,
    RecordKind, Recorder, SourceSnapshot, Watchdog, WindowCounts, WindowSnapshot,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `text` with the golden file `name`, or rewrites the file
/// under `BLESS=1`.
fn check_golden(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).expect("write golden file");
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
        "{name} drifted; run `BLESS=1 cargo test -p rtle-obs --test live_scrape` \
         and review the diff"
    );
}

/// A fully deterministic window: fixed index, fixed counts, a latency
/// histogram built from fixed samples (bucket floors are deterministic).
fn fixed_window(index: u64, ops: u64) -> WindowSnapshot {
    let mut counts = WindowCounts::default();
    counts.commits[PathKind::FastHtm as usize] = ops * 7 / 10;
    counts.commits[PathKind::SlowHtm as usize] = ops * 2 / 10;
    counts.commits[PathKind::Lock as usize] = ops - counts.commits[0] - counts.commits[1];
    counts.aborts[AbortCode::Conflict.index()] = ops / 5;
    let h = Histogram::new();
    for i in 0..ops {
        h.record(500 + i * 37);
    }
    counts.latency = h.snapshot();
    WindowSnapshot {
        index,
        // Wall-clock-ish fields: deliberately nonzero here to prove the
        // text exposition never includes them.
        start_ns: 123_456_789 + index,
        len_ns: 100_000_000,
        counts,
    }
}

struct FixedSource {
    kind: &'static str,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    windows: Vec<WindowSnapshot>,
    labels: Vec<(String, String)>,
}

impl LiveSource for FixedSource {
    fn live_snapshot(&self) -> SourceSnapshot {
        SourceSnapshot {
            kind: self.kind,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            windows: self.windows.clone(),
            labels: self.labels.clone(),
        }
    }
}

fn deterministic_registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    // Two sources sharing metric names: the golden pins that `# TYPE` is
    // emitted once per metric name, not once per source.
    registry.register(
        "single_lock",
        Arc::new(FixedSource {
            kind: "recorder",
            counters: vec![
                ("commits_fast_htm".into(), 900),
                ("commits_lock".into(), 100),
                ("aborts_conflict".into(), 40),
            ],
            gauges: vec![("cs_latency_p99".into(), 1536.0)],
            windows: vec![fixed_window(3, 100), fixed_window(4, 80)],
            labels: Vec::new(),
        }),
    );
    registry.register(
        "sharded16",
        Arc::new(FixedSource {
            kind: "shard_map",
            counters: vec![("commits_fast_htm".into(), 1800), ("shards".into(), 16)],
            gauges: vec![
                ("load_imbalance".into(), 1.25),
                // Exercises label escaping and name sanitization paths.
                ("lock_fallback_rate".into(), 0.0625),
            ],
            windows: Vec::new(),
            labels: Vec::new(),
        }),
    );
    registry.register(
        // A name needing sanitization ends up as a clean label value and
        // a legal metric suffix.
        "dog\"with\\quirks",
        Arc::new(FixedSource {
            kind: "watchdog",
            counters: vec![("collapse_fired_total".into(), 1)],
            gauges: vec![("armed".into(), 1.0)],
            windows: Vec::new(),
            labels: Vec::new(),
        }),
    );
    registry
}

#[test]
fn prometheus_text_matches_the_golden_file() {
    let text = deterministic_registry().to_prometheus();
    // The exposition must carry no wall-clock values: scrape time and
    // window start/length are epoch-relative runtime facts, not metrics.
    assert!(!text.contains("start_ns"), "{text}");
    assert!(!text.contains("taken_at"), "{text}");
    assert!(!text.contains("123456"), "window start leaked:\n{text}");

    check_golden("live_metrics.prom", &text);
}

/// The JSON page of a registry whose every value is fixed: a recorder fed
/// one fixed recording by keyed writers (it has no window collector, whose
/// windows start on the clock), the source of a lock with a software
/// fallback (the lock's own crate depends on this one, so its source is
/// written out here as the lock reports it: commits per path, aborts per
/// speculative path, fallback rate, backend label) and the mirror of a
/// watchdog that armed on fixed windows.
#[test]
fn json_page_matches_the_golden_file() {
    let rec = Arc::new(Recorder::new(ObsConfig::default()));
    let attempt = |key: u64, path, abort, attempt: u8, latency: u64| {
        let ev = AttemptEvent {
            path,
            abort,
            attempt,
            latency,
        };
        rec.record(Writer::keyed(key), 0, RecordKind::Attempt(ev));
    };
    for i in 0..12u64 {
        attempt(i % 4, PathKind::FastHtm, None, (i % 3) as u8, 100 + i * 13);
    }
    attempt(1, PathKind::SlowHtm, Some(AbortCode::Conflict), 0, 0);
    attempt(1, PathKind::SlowHtm, Some(AbortCode::Explicit(4)), 1, 0);
    attempt(1, PathKind::SlowHtm, None, 2, 700);
    attempt(2, PathKind::Stm, None, 3, 2_500);
    attempt(3, PathKind::Lock, None, 5, 4_000);

    let mut watchdog = Watchdog::new();
    let mirror = watchdog.live();
    for i in 0..4 {
        assert_eq!(watchdog.inspect(&fixed_window(i, 100)), None);
    }

    let registry = MetricsRegistry::new();
    registry.register(
        "bank",
        Arc::new(FixedSource {
            kind: "lock",
            counters: vec![
                ("commits_fast_htm".into(), 12),
                ("commits_slow_htm".into(), 1),
                ("commits_stm".into(), 1),
                ("commits_lock".into(), 1),
                ("aborts_fast".into(), 0),
                ("aborts_slow".into(), 2),
            ],
            gauges: vec![("lock_fallback_rate".into(), 1.0 / 15.0)],
            windows: Vec::new(),
            labels: vec![("software_backend".into(), "tl2".into())],
        }),
    );
    registry.register("bank_recorder", rec);
    registry.register("bank_watchdog", mirror);
    let text =
        rtle_obs::registry::render_json(&registry.scrape(), 1_234_567_890).to_string_pretty();
    rtle_obs::parse_json(&text).expect("the page parses");
    check_golden("live_registry.json", &text);
}

#[test]
fn golden_page_is_also_what_the_http_endpoint_serves() {
    use std::io::{Read as _, Write as _};

    let registry = Arc::new(deterministic_registry());
    let server = LiveServer::start(Arc::clone(&registry), "127.0.0.1:0").unwrap();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    let body = resp.split_once("\r\n\r\n").expect("headers + body").1;
    assert_eq!(body, registry.to_prometheus());
}

#[test]
fn eight_writers_scrape_under_load_loses_nothing_and_never_blocks() {
    const WRITERS: u64 = 8;
    const OPS_PER_WRITER: u64 = 40_000;

    // A recorder counts every attempt it is fed: the test counts exact
    // totals.
    let rec = Arc::new(Recorder::new(ObsConfig::default()));
    let registry = Arc::new(MetricsRegistry::new());
    registry.register("hot", Arc::clone(&rec) as Arc<dyn LiveSource>);

    let commits_of = |scrape: &[(String, SourceSnapshot)]| -> u64 {
        scrape[0]
            .1
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("commits_"))
            .map(|(_, v)| v)
            .sum()
    };

    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut scrapes = 0u64;
            while !done.load(Relaxed) {
                let scrape = registry.scrape();
                let now = commits_of(&scrape);
                assert!(
                    now >= last,
                    "counters must read monotonically under load ({now} < {last})"
                );
                last = now;
                // The text renderers must also hold up mid-load.
                let _ = rtle_obs::registry::render_prometheus(&scrape);
                scrapes += 1;
            }
            scrapes
        })
    };

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let rec = Arc::clone(&rec);
            scope.spawn(move || {
                let me = rtle_htm::lanes::Writer::current();
                for i in 0..OPS_PER_WRITER {
                    rec.record(
                        me,
                        i,
                        RecordKind::Attempt(AttemptEvent {
                            path: PathKind::FastHtm,
                            abort: None,
                            attempt: 0,
                            latency: i & 0xffff,
                        }),
                    );
                }
            });
        }
    });
    done.store(true, Relaxed);
    let scrapes = scraper.join().expect("scraper never panics");
    assert!(scrapes > 0, "the scraper must have run during the load");

    // Every sample is present: scraping drained nothing.
    let final_scrape = registry.scrape();
    assert_eq!(
        commits_of(&final_scrape),
        WRITERS * OPS_PER_WRITER,
        "no lost samples after {scrapes} concurrent scrapes"
    );
    let json = rtle_obs::registry::render_json(&final_scrape, 0);
    let back = rtle_obs::parse_json(&json.to_string_pretty()).unwrap();
    let counters = back
        .get("sources")
        .and_then(Json::as_arr)
        .and_then(|s| s[0].get("counters"))
        .expect("counters object");
    assert_eq!(
        counters.get("commits_fast_htm").and_then(Json::as_u64),
        Some(WRITERS * OPS_PER_WRITER)
    );
}
