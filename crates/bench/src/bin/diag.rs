//! Diagnostic harness: the abort composition, path distribution and
//! latency percentiles behind the Figure 5/6 headline numbers, per
//! method, collected through an attempt-level recorder attached to the
//! simulator. Not a paper figure — the equivalent of the "lightweight
//! statistics" analysis of §6.2.1.
//!
//! ```sh
//! cargo run -p rtle-bench --release --bin diag -- \
//!     [threads] [--quick] [--json out.json] [--heatmap] [--trace out.trace.json]
//! cargo run -p rtle-bench --release --bin diag -- --slo run.json
//! cargo run -p rtle-bench --release --bin diag -- --timeline flight.json
//! cargo run -p rtle-bench --release --bin diag -- top 127.0.0.1:9090
//! ```
//!
//! `top ADDR` connects to a live scrape endpoint (`slo_bench --live`)
//! and renders a refreshing per-source view:
//! commit-path mix, window latency percentiles, abort composition,
//! shard imbalance and watchdog status. `--iters N` bounds the refresh
//! count (0 = until the endpoint goes away, the default);
//! `--interval-ms N` sets the refresh period.
//!
//! `--heatmap` prints the per-orec conflict hot-spot report; `--trace`
//! writes a Chrome `trace_event` document loadable in Perfetto
//! (<https://ui.perfetto.dev>), one process per method.
//!
//! `--slo FILE` / `--timeline FILE` are offline viewers: they render a
//! saved `slo_bench` export (verdict summary / per-window timeline) or
//! a watchdog flight record without running anything. A file written by
//! an older build (schema mismatch) is a clean error telling you to
//! regenerate it, never a panic.

use rtle_bench::diag::{
    diag_to_json, diag_trace_to_json, print_diag_table, print_heatmap_report, run_diag,
};
use rtle_bench::slo::{load_versioned, render_slo, render_timeline, SloViewError};
use rtle_bench::BenchArgs;
use rtle_obs::Json;
use std::path::PathBuf;

fn write_doc(path: &std::path::Path, doc: String) {
    if let Err(e) = std::fs::write(path, doc + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Loads a schema-checked `slo_bench`/flight-record document and renders
/// it with `render`. Any failure — unreadable file, bad JSON, stale
/// schema, wrong shape — is a diagnostic on stderr and exit 1.
fn view_file(path: &std::path::Path, render: fn(&Json) -> Result<String, SloViewError>) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("diag: cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    match load_versioned(&text).and_then(|doc| render(&doc)) {
        Ok(rendered) => {
            print!("{rendered}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("diag: {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Parses and runs `diag top ADDR [--iters N] [--interval-ms N]`.
fn run_top_command(rest: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!("usage: diag top ADDR [--iters N] [--interval-ms N]");
        std::process::exit(1);
    };
    let mut cfg = rtle_bench::top::TopConfig {
        addr: String::new(),
        iters: 0,
        interval_ms: 1_000,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => {
                cfg.iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--interval-ms" => {
                cfg.interval_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            flag if flag.starts_with('-') => usage(),
            addr if cfg.addr.is_empty() => cfg.addr = addr.to_string(),
            _ => usage(),
        }
    }
    if cfg.addr.is_empty() {
        usage();
    }
    match rtle_bench::top::run_top(&cfg) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("diag top: {e}");
            std::process::exit(1);
        }
    }
}

/// The flags only `diag` understands, split off before the shared
/// parser sees (and rejects) them.
#[derive(Default)]
struct DiagFlags {
    /// `--trace PATH`: write the Chrome `trace_event` document there.
    trace: Option<PathBuf>,
    /// `--heatmap`: print the per-orec conflict hot-spot report.
    heatmap: bool,
    /// `--slo FILE`: render a saved export's verdict summary.
    slo: Option<PathBuf>,
    /// `--timeline FILE`: render a saved export's or flight record's
    /// per-window timeline.
    timeline: Option<PathBuf>,
}

const USAGE: &str = "usage: diag [THREADS] [--quick] [--json PATH] [--heatmap] [--trace PATH]
       diag --slo FILE | --timeline FILE
       diag top ADDR [--iters N] [--interval-ms N]";

/// A malformed argument: says what was wrong, prints the usage, exit 2.
fn usage_error(what: std::fmt::Arguments<'_>) -> ! {
    eprintln!("diag: {what}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn split_flags(raw: Vec<String>) -> (DiagFlags, Vec<String>) {
    let mut own = DiagFlags::default();
    let mut shared = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        let mut path = || {
            it.next()
                .map(PathBuf::from)
                .unwrap_or_else(|| usage_error(format_args!("{a} requires a path argument")))
        };
        match a.as_str() {
            "--trace" => own.trace = Some(path()),
            "--heatmap" => own.heatmap = true,
            "--slo" => own.slo = Some(path()),
            "--timeline" => own.timeline = Some(path()),
            _ => shared.push(a),
        }
    }
    (own, shared)
}

fn main() {
    // The `top` subcommand owns its own flags; dispatch before the
    // flag parsers see (and reject) them.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("top") {
        run_top_command(&raw[1..]);
    }
    let (own, shared) = split_flags(raw);
    let args = BenchArgs::try_parse_args(shared).unwrap_or_else(|bad| {
        eprintln!("diag: unrecognized flag: {bad}");
        eprintln!("{USAGE}");
        std::process::exit(1);
    });
    if let Some(path) = own.slo.as_deref() {
        view_file(path, render_slo);
    }
    if let Some(path) = own.timeline.as_deref() {
        view_file(path, render_timeline);
    }
    // No positional means the paper's 36 threads; one that is not a
    // number is a typo, not a request for the full-scale default.
    let threads: usize = match args.rest.first() {
        None => 36,
        Some(s) => s.parse().unwrap_or_else(|_| {
            usage_error(format_args!("thread count must be a number, got {s:?}"))
        }),
    };
    let sim_ms = if args.quick { 1 } else { 2 };
    let rows = run_diag(threads, sim_ms);
    print_diag_table(threads, &rows);
    if own.heatmap {
        println!();
        print_heatmap_report(&rows);
    }
    if let Some(path) = args.json.as_deref() {
        write_doc(path, diag_to_json(threads, &rows).to_string_pretty());
    }
    if let Some(path) = own.trace.as_deref() {
        write_doc(path, diag_trace_to_json(&rows).to_string_pretty());
    }
}
