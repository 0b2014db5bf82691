//! The command-line surface, end to end: the real `slo_bench`, `diag`
//! and figure binaries, driven as an operator would drive them, with the
//! documents they write checked through the library's own parser and
//! validators. What is asserted here is what no in-process test can see:
//! exit codes, files on disk, and the live endpoint *while a run is hot*.
//!
//! One seeded `slo_bench --quick --live` run serves every SLO check. Its
//! collapse is physics, not timing luck: the storm's blocking audits
//! serialize on the single lock well past its capacity, while the
//! sharded map under the identical arrival schedule keeps up — so the
//! watchdog asymmetry below holds on a loaded 1-core host. What needs
//! slack is the *detection*: a convoy stall is two consecutive stalled
//! windows, and `--quick`'s 3 s schedule makes the storm 600 ms: four or
//! more stalled windows in 12 loaded runs of 12. (A 2 s schedule's 400 ms
//! storm spans three windows, the first spent building the backlog —
//! exactly two stalled windows in 5 runs of 24, no verdict in one of ~50.)
//! The schedule is `--quick`'s own, the same in every build: 3 000 ops/s
//! offered with 16 ms audit holds, so the collapse is forced by the holds,
//! not by the CPU — the single lock's storm capacity is one hold per ~15
//! operations, about 950 ops/s, and its storm windows complete about a
//! third of their arrivals, deep under `convoy_stall`'s half-rate rule,
//! while the sharded map spreads the same holds over 16 shards. At 6 000
//! ops/s with 8 ms holds the depth was the same, but a debug sharded map
//! beside two CPU hogs spent so much CPU on the storm's audit sweeps that
//! its own rate halved with p99 past the window — a real stall of the
//! host, which the watchdog rightly reported, in 5 runs of 8.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rtle_bench::slo::load_versioned;
use rtle_bench::top::http_get_body;
use rtle_obs::{parse_json, Json, WindowSnapshot};

const SLO_BENCH: &str = env!("CARGO_BIN_EXE_slo_bench");
const DIAG: &str = env!("CARGO_BIN_EXE_diag");

/// Where `--flight-dir flight` puts the single lock's flight record.
const FLIGHT: &str = "flight/slo_flight_single_lock.json";

/// A child process or scraper still going after this long has hung.
const DEADLINE: Duration = Duration::from_secs(60);

/// Kills the child when dropped, so a failed assertion cannot leave a
/// load generator running behind the test.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `bin` in `dir` with the whitespace-separated `args`: files are
/// named relative to `dir`, so no argument ever contains a space.
fn spawn(bin: &str, dir: &Path, args: &str) -> KillOnDrop {
    let child = Command::new(bin)
        .args(args.split_whitespace())
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    KillOnDrop(child)
}

/// Waits for the child's exit code; still running at `deadline` is a
/// failure (and the drop kills it), not a stall.
fn exit_code(mut child: KillOnDrop, deadline: Instant) -> Option<i32> {
    loop {
        if let Some(status) = child.0.try_wait().expect("wait for child") {
            return status.code();
        }
        assert!(
            Instant::now() < deadline,
            "child still running after {DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `bin args…` in `dir` to completion under [`DEADLINE`].
fn run(bin: &str, dir: &Path, args: &str) -> Option<i32> {
    exit_code(spawn(bin, dir, args), Instant::now() + DEADLINE)
}

/// A fresh working directory for one test, under cargo's target tmpdir.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn text_of<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    j.get(key).and_then(Json::as_str)
}

/// Reads a document a binary wrote; it must parse and carry the current
/// schema version, as every export does at top level.
fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("read the document");
    load_versioned(&text).expect("a current, parseable document")
}

/// How long a failed scrape waits for `slo_bench` to finish its run
/// before the panic (and the drop kills it).
const EXIT_WAIT: Duration = Duration::from_secs(20);

/// Fails the live check with what a post-mortem needs: waits (at most
/// [`EXIT_WAIT`]) for the bench to exit, so its `slo.json` and flight
/// record are written, keeps the last scraped `/json` page beside them as
/// `last_scrape.json`, and names the directory and the exit status.
fn collapse_not_visible(why: String, bench: &mut KillOnDrop, dir: &Path, last: Option<&str>) -> ! {
    let waited = Instant::now() + EXIT_WAIT;
    let status = loop {
        match bench.0.try_wait() {
            Ok(Some(status)) => break status.to_string(),
            Ok(None) if Instant::now() < waited => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => break format!("still running after {EXIT_WAIT:?}"),
            Err(e) => break format!("unknown ({e})"),
        }
    };
    let kept = match last.map(|page| std::fs::write(dir.join("last_scrape.json"), page)) {
        Some(Ok(())) => "last_scrape.json".to_string(),
        Some(Err(e)) => format!("no last_scrape.json ({e})"),
        None => "no /json page (none was scraped)".to_string(),
    };
    let slo = if dir.join("slo.json").exists() {
        "slo.json"
    } else {
        "no slo.json"
    };
    panic!(
        "{why}; slo_bench: {status}; {} holds {slo} and {kept}",
        dir.display()
    );
}

/// Scrapes `/metrics` and `/json` against the running load until the
/// forced single-lock collapse is visible in both: the watchdog mirror
/// flipped to fired and the closed windows exported.
fn scrape_until_collapse_is_visible(
    addr: &str,
    deadline: Instant,
    bench: &mut KillOnDrop,
    dir: &Path,
) {
    let mut scrapes = 0u64;
    let mut last: Option<String> = None;
    loop {
        if Instant::now() >= deadline {
            collapse_not_visible(
                format!("collapse never became visible over {scrapes} scrapes"),
                bench,
                dir,
                last.as_deref(),
            );
        }
        let pages = (
            http_get_body(addr, "/metrics"),
            http_get_body(addr, "/json"),
        );
        let (Ok(metrics), Ok(json)) = pages else {
            collapse_not_visible(
                format!("endpoint went away after {scrapes} scrapes without a visible collapse"),
                bench,
                dir,
                last.as_deref(),
            );
        };
        scrapes += 1;
        let doc = load_versioned(&json).expect("a current, parseable live document");
        assert_eq!(text_of(&doc, "kind"), Some("live-registry"));
        assert!(doc.get("taken_at_ns").and_then(Json::as_u64).is_some());
        let sources = doc.get("sources").and_then(Json::as_arr).expect("sources");
        // The two routes must agree on which sources exist.
        for s in sources {
            let name = text_of(s, "name").expect("source name");
            assert!(
                metrics.contains(&format!("source=\"{name}\"")),
                "{name} in /json but missing from /metrics"
            );
        }
        let named = |name| sources.iter().find(|s| text_of(s, "name") == Some(name));
        let fired = named("single_lock_watchdog")
            .and_then(|s| s.get("counters")?.get("collapse_fired_total")?.as_u64())
            .is_some_and(|n| n >= 1);
        let windows_seen = named("single_lock")
            .and_then(|s| s.get("windows")?.as_arr())
            .is_some_and(|w| !w.is_empty());
        if fired && windows_seen {
            assert!(
                metrics.contains("rtle_collapse_fired_total{source=\"single_lock_watchdog\""),
                "fired watchdog missing from the Prometheus page"
            );
            assert!(
                metrics.contains(",window=\""),
                "per-window gauges must be exported"
            );
            return;
        }
        last = Some(json);
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The saved export of the same run: the single lock tripped the
/// watchdog and left a parseable flight record; the sharded map stayed
/// silent.
fn check_slo_export(dir: &Path) {
    let doc = load(&dir.join("slo.json"));
    assert_eq!(text_of(&doc, "tool"), Some("slo_bench"));
    let configs = doc
        .get("slo")
        .and_then(|s| s.get("configs")?.as_arr())
        .expect("slo.configs");
    assert_eq!(configs.len(), 2, "single_lock + sharded");
    for c in configs {
        let name = text_of(c, "name").expect("name");
        let windows = c.get("windows").and_then(Json::as_arr).expect("windows");
        assert!(windows.len() >= 4, "{name}: too few windows");
        for w in windows {
            WindowSnapshot::from_json(w).expect("window round-trips");
        }
        let dogs = c.get("watchdog").and_then(Json::as_arr).expect("watchdog");
        if name == "single_lock" {
            assert!(
                !dogs.is_empty(),
                "single-lock collapse must trip the watchdog"
            );
            let record = text_of(c, "flight_record");
            assert_eq!(record, Some(FLIGHT), "collapse must dump a flight record");
            assert_eq!(
                text_of(&load(&dir.join(FLIGHT)), "kind"),
                Some("flight-record")
            );
        } else {
            assert!(dogs.is_empty(), "{name} must stay silent at identical load");
        }
    }
}

#[test]
fn forced_collapse_is_visible_live_in_the_export_and_to_the_viewers() {
    let dir = scratch("slo");
    std::fs::create_dir(dir.join("flight")).expect("create flight directory");
    let deadline = Instant::now() + DEADLINE;
    let mut bench = spawn(
        SLO_BENCH,
        &dir,
        "--quick --live 127.0.0.1:0 --live-port-file port --flight-dir flight --json slo.json",
    );
    let addr = loop {
        match std::fs::read_to_string(dir.join("port")) {
            Ok(addr) if !addr.is_empty() => break addr,
            _ => assert!(Instant::now() < deadline, "live endpoint never came up"),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    scrape_until_collapse_is_visible(&addr, deadline, &mut bench, &dir);
    assert_eq!(exit_code(bench, deadline), Some(0), "slo_bench failed");

    check_slo_export(&dir);
    // The offline viewers must render both document kinds.
    assert_eq!(run(DIAG, &dir, "--slo slo.json"), Some(0));
    assert_eq!(run(DIAG, &dir, &format!("--timeline {FLIGHT}")), Some(0));
    // The endpoint died with the bench: a bounded `diag top` against it
    // is a clean exit-1 error, not a hang or a panic. (Rendering against
    // a live endpoint is covered by the `top` unit tests.)
    assert_eq!(run(DIAG, &dir, &format!("top {addr} --iters 1")), Some(1));
}

#[test]
fn diag_quick_run_writes_a_parseable_document_and_a_clean_trace() {
    let dir = scratch("diag");
    let args = "8 --quick --json diag.json --trace diag.trace.json --heatmap";
    assert_eq!(run(DIAG, &dir, args), Some(0));
    let doc = load(&dir.join("diag.json"));
    let methods = doc.get("methods").and_then(Json::as_arr).expect("methods");
    assert!(!methods.is_empty(), "no methods in diag output");
    // The trace has no version of its own: it is Chrome's format.
    let text = std::fs::read_to_string(dir.join("diag.trace.json")).expect("read trace");
    let trace = parse_json(&text).expect("trace json parses");
    let events = rtle_obs::trace::validate_chrome(&trace).expect("Chrome trace_event shape");
    assert!(
        events >= methods.len(),
        "an event per method process at least"
    );
}

#[test]
fn malformed_arguments_are_usage_errors_not_different_experiments() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    // An unparsable thread count is not a request for the full-scale
    // 36-thread default.
    assert_eq!(run(DIAG, dir, "eight --quick"), Some(2));
    // `diag`'s flags mean nothing to a figure binary, which must say so
    // rather than run and print no heatmap.
    let fig05 = env!("CARGO_BIN_EXE_fig05");
    assert_eq!(run(fig05, dir, "--quick --heatmap"), Some(1));
}
