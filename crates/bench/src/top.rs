//! `diag top`: a refreshing terminal view over a live scrape endpoint.
//!
//! Connects to the `/json` route of an [`rtle_obs::LiveServer`] (started
//! by `slo_bench --live`), parses the `live-registry` document, and
//! renders one compact panel per source:
//! commit-path mix and latency percentiles for recorders, imbalance
//! gauges for sharded maps, armed/fired state for collapse watchdogs.
//! Pure functions ([`fetch_live`], [`render_top`]) do the work so tests
//! can drive them without a terminal.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rtle_htm::AbortCode;
use rtle_obs::{Json, WindowSnapshot, PATH_LABELS, SCHEMA_VERSION};

/// One `diag top` session.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Endpoint address, `host:port`.
    pub addr: String,
    /// Refreshes before exiting; 0 means "until the endpoint goes away".
    pub iters: u64,
    /// Delay between refreshes, ms.
    pub interval_ms: u64,
}

/// Fetches `route` from `addr` over one short-lived HTTP/1.0 connection
/// and returns the response body (headers checked for a 200).
pub fn http_get_body(addr: &str, route: &str) -> Result<String, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(5))).ok();
    conn.set_write_timeout(Some(Duration::from_secs(5))).ok();
    write!(conn, "GET {route} HTTP/1.0\r\n\r\n").map_err(|e| format!("send request: {e}"))?;
    let mut resp = String::new();
    conn.read_to_string(&mut resp)
        .map_err(|e| format!("read response: {e}"))?;
    let (head, body) = resp
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("{route}: {status}"));
    }
    Ok(body.to_string())
}

/// Fetches and validates the `/json` live-registry document.
pub fn fetch_live(addr: &str) -> Result<Json, String> {
    let body = http_get_body(addr, "/json")?;
    let doc = rtle_obs::parse_json(&body).map_err(|e| format!("bad JSON from {addr}: {e:?}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some("live-registry") {
        return Err("not a live-registry document".into());
    }
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(v) if v == SCHEMA_VERSION => Ok(doc),
        v => Err(format!(
            "schema version {v:?} is not the version this build reads ({SCHEMA_VERSION})"
        )),
    }
}

fn counter(src: &Json, key: &str) -> u64 {
    src.get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn gauge(src: &Json, key: &str) -> f64 {
    src.get("gauges")
        .and_then(|g| g.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A latency for the text views (`diag top`, `diag --slo`, `diag --timeline`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64 * 100.0
    }
}

/// The commit-path mix every commit-counting source exports:
/// `commits N: fast x% / slow x% / stm x% / lock x%`.
fn render_commits(out: &mut String, src: &Json) {
    use std::fmt::Write as _;
    let per_path = PATH_LABELS.map(|path| counter(src, &format!("commits_{path}")));
    let commits: u64 = per_path.iter().sum();
    let shares: Vec<String> = PATH_LABELS
        .iter()
        .zip(per_path)
        .map(|(path, n)| format!("{} {:.1}%", path.trim_end_matches("_htm"), pct(n, commits)))
        .collect();
    let _ = writeln!(out, "  commits {commits}: {}", shares.join(" / "));
}

fn render_recorder(out: &mut String, src: &Json) {
    use std::fmt::Write as _;
    render_commits(out, src);
    let aborts: Vec<(&str, u64)> = AbortCode::LABELS
        .iter()
        .map(|label| (*label, counter(src, &format!("aborts_{label}"))))
        .filter(|(_, n)| *n > 0)
        .collect();
    if aborts.is_empty() {
        let _ = writeln!(out, "  aborts: none");
    } else {
        let total: u64 = aborts.iter().map(|(_, n)| n).sum();
        let mix: Vec<String> = aborts
            .iter()
            .map(|(label, n)| format!("{label} {:.1}%", pct(*n, total)))
            .collect();
        let _ = writeln!(out, "  aborts {total}: {}", mix.join(" / "));
    }
    // Per-window tail: newest last, exactly as the registry exports it.
    if let Some(windows) = src.get("windows").and_then(Json::as_arr) {
        for w in windows.iter().filter_map(WindowSnapshot::from_json) {
            let _ = writeln!(
                out,
                "  window {:>4}: {:>7} ops  p50 {:>8}  p99 {:>8}  p999 {:>8}  fallback {:>5.1}%",
                w.index,
                w.ops(),
                fmt_ns(w.latency_p(0.50)),
                fmt_ns(w.latency_p(0.99)),
                fmt_ns(w.latency_p(0.999)),
                w.fallback_rate() * 100.0,
            );
        }
    }
}

fn render_lock(out: &mut String, src: &Json) {
    use std::fmt::Write as _;
    render_commits(out, src);
    let _ = writeln!(
        out,
        "  aborts: fast {} / slow {}, lock fallback {:.4}",
        counter(src, "aborts_fast"),
        counter(src, "aborts_slow"),
        gauge(src, "lock_fallback_rate"),
    );
}

fn render_shard_map(out: &mut String, src: &Json) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  {} shards, {} ops routed: load imbalance {:.2}, abort imbalance {:.2}, \
         lock fallback {:.4}",
        counter(src, "shards"),
        counter(src, "routed_total"),
        gauge(src, "load_imbalance"),
        gauge(src, "abort_imbalance"),
        gauge(src, "lock_fallback_rate"),
    );
}

fn render_watchdog(out: &mut String, src: &Json) {
    use std::fmt::Write as _;
    let fired = counter(src, "collapse_fired_total");
    let state = if fired > 0 {
        let kind = match counter(src, "collapse_last_kind_code") {
            1 => "fallback_collapse",
            2 => "conflict_storm",
            3 => "convoy_stall",
            _ => "?",
        };
        format!(
            "FIRED x{fired} ({kind} at window {})",
            counter(src, "collapse_last_window")
        )
    } else if gauge(src, "armed") >= 1.0 {
        "armed, silent".to_string()
    } else {
        "warming up".to_string()
    };
    let flight = if gauge(src, "flight_record_available") >= 1.0 {
        ", flight record available"
    } else {
        ""
    };
    let _ = writeln!(
        out,
        "  {state} after {} windows{flight}",
        counter(src, "windows_inspected")
    );
}

/// Renders one refresh of the top view from a live-registry document.
pub fn render_top(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let taken_ms = doc.get("taken_at_ns").and_then(Json::as_u64).unwrap_or(0) / 1_000_000;
    let _ = writeln!(
        out,
        "rtle live telemetry — t+{taken_ms}ms since process epoch"
    );
    let Some(sources) = doc.get("sources").and_then(Json::as_arr) else {
        let _ = writeln!(out, "  (no sources)");
        return out;
    };
    if sources.is_empty() {
        let _ = writeln!(out, "  (no sources registered yet)");
    }
    for src in sources {
        let name = src.get("name").and_then(Json::as_str).unwrap_or("?");
        let kind = src.get("kind").and_then(Json::as_str).unwrap_or("?");
        // Identity labels (e.g. which software TM backs the lock) ride
        // in the header so every panel says *what* it is measuring.
        let mut tags = String::new();
        if let Some(Json::Obj(labels)) = src.get("labels") {
            for (k, v) in labels {
                if let Some(v) = v.as_str() {
                    let _ = write!(tags, " [{k}={v}]");
                }
            }
        }
        let _ = writeln!(out, "\n== {name} ({kind}){tags} ==");
        match kind {
            "recorder" => render_recorder(&mut out, src),
            "lock" => render_lock(&mut out, src),
            "shard_map" => render_shard_map(&mut out, src),
            "watchdog" => render_watchdog(&mut out, src),
            _ => {
                // Unknown source kinds still show their raw counters, so
                // a newer endpoint degrades readably on an older viewer.
                if let Some(Json::Obj(counters)) = src.get("counters") {
                    for (k, v) in counters {
                        if let Some(n) = v.as_u64() {
                            let _ = writeln!(out, "  {k}: {n}");
                        }
                    }
                }
            }
        }
    }
    out
}

/// The interactive loop: clear-screen + render, `interval_ms` apart.
/// Returns an error only when the *first* fetch fails (bad address); a
/// later fetch failure means the run ended and exits cleanly.
pub fn run_top(cfg: &TopConfig) -> Result<(), String> {
    let mut shown = 0u64;
    loop {
        match fetch_live(&cfg.addr) {
            Ok(doc) => {
                // ANSI clear + home — the standard terminal refresh idiom.
                print!("\x1b[2J\x1b[H{}", render_top(&doc));
                let _ = std::io::stdout().flush();
                shown += 1;
            }
            Err(e) if shown == 0 => return Err(e),
            Err(_) => {
                eprintln!("diag top: endpoint gone, exiting");
                return Ok(());
            }
        }
        if cfg.iters != 0 && shown >= cfg.iters {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(cfg.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_htm::atomic::RelaxedWord;
    use rtle_obs::{LiveServer, LiveSource, MetricsRegistry, SourceSnapshot};
    use std::sync::Arc;

    struct FakeLock {
        fast: RelaxedWord,
    }

    impl LiveSource for FakeLock {
        fn live_snapshot(&self) -> SourceSnapshot {
            SourceSnapshot {
                kind: "recorder",
                counters: vec![
                    ("commits_fast_htm".into(), self.fast.load()),
                    ("commits_lock".into(), 25),
                    ("aborts_conflict".into(), 10),
                ],
                gauges: vec![("cs_latency_p99".into(), 420.0)],
                windows: Vec::new(),
                labels: vec![("software_backend".into(), "tl2".into())],
            }
        }
    }

    struct FakeDog;

    impl LiveSource for FakeDog {
        fn live_snapshot(&self) -> SourceSnapshot {
            SourceSnapshot {
                kind: "watchdog",
                counters: vec![
                    ("windows_inspected".into(), 12),
                    ("collapse_fired_total".into(), 1),
                    ("collapse_last_kind_code".into(), 1),
                    ("collapse_last_window".into(), 9),
                ],
                gauges: vec![
                    ("armed".into(), 1.0),
                    ("flight_record_available".into(), 1.0),
                ],
                windows: Vec::new(),
                labels: Vec::new(),
            }
        }
    }

    #[test]
    fn fetch_and_render_against_a_real_endpoint() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(
            "demo",
            Arc::new(FakeLock {
                fast: RelaxedWord::new(75),
            }),
        );
        registry.register("demo_watchdog", Arc::new(FakeDog));
        let server = LiveServer::start(Arc::clone(&registry), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();

        let doc = fetch_live(&addr).expect("fetch parses and validates");
        let view = render_top(&doc);
        assert!(
            view.contains("== demo (recorder) [software_backend=tl2] =="),
            "{view}"
        );
        assert!(
            view.contains("commits 100: fast 75.0% / slow 0.0% / stm 0.0% / lock 25.0%"),
            "{view}"
        );
        assert!(view.contains("aborts 10: conflict 100.0%"), "{view}");
        assert!(
            view.contains("FIRED x1 (fallback_collapse at window 9)"),
            "{view}"
        );
        assert!(view.contains("flight record available"), "{view}");

        // The loop terminates after the requested refresh count.
        run_top(&TopConfig {
            addr: addr.clone(),
            iters: 1,
            interval_ms: 1,
        })
        .expect("one refresh against a live endpoint");
    }

    #[test]
    fn bad_endpoints_are_clean_errors() {
        // Nothing listens here: connect fails, first fetch reports it.
        let err = fetch_live("127.0.0.1:1").unwrap_err();
        assert!(err.contains("connect"), "{err}");

        let registry = Arc::new(MetricsRegistry::new());
        let server = LiveServer::start(registry, "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let err = http_get_body(&addr, "/nope").unwrap_err();
        assert!(err.contains("404"), "{err}");
        // An empty registry still renders (no sources yet).
        let view = render_top(&fetch_live(&addr).unwrap());
        assert!(view.contains("no sources registered yet"), "{view}");
    }
}
