//! Open-loop SLO harness: windowed tail latency of `single_lock` vs
//! `sharded` under an identical arrival schedule with a mid-run hot-key
//! storm, plus the collapse watchdog and flight-recorder dumps.
//!
//! ```text
//! slo_bench [--quick] [--flight-dir DIR] [--json PATH]
//!           [--live ADDR] [--live-port-file PATH]
//! ```
//!
//! The schedule (rate, duration, audit holds, seed) is `SloConfig`'s:
//! `--quick` is the tier-1 scale, no flag the full one.
//!
//! `--live ADDR` (e.g. `127.0.0.1:9090`, or port `0` for ephemeral)
//! serves the run's telemetry at `/metrics` and `/json` while it runs —
//! point `diag top ADDR` at it to watch the collapse live.
//! `--live-port-file` writes the bound address for scripted scrapers.
//!
//! The JSON export carries the full schema-versioned `slo` section;
//! view saved runs with `diag --slo FILE` / `diag --timeline FILE`.

use rtle_bench::slo::{render_slo, run_slo, SloConfig};

struct Args {
    cfg: SloConfig,
    json: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: slo_bench [--quick] [--flight-dir DIR] [--json PATH] \
         [--live ADDR] [--live-port-file PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mut cfg = SloConfig::full();
    let mut json = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                cfg = SloConfig {
                    flight_dir: cfg.flight_dir,
                    live: cfg.live,
                    live_port_file: cfg.live_port_file,
                    ..SloConfig::quick()
                }
            }
            "--flight-dir" => {
                cfg.flight_dir = Some(it.next().map(Into::into).unwrap_or_else(|| usage()))
            }
            "--live" => cfg.live = Some(it.next().unwrap_or_else(|| usage())),
            "--live-port-file" => {
                cfg.live_port_file = Some(it.next().map(Into::into).unwrap_or_else(|| usage()))
            }
            "--json" => json = Some(it.next().map(Into::into).unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    Args { cfg, json }
}

fn main() {
    let args = parse_args();
    let cfg = &args.cfg;
    eprintln!(
        "slo_bench: {} threads, {:.0} ops/s for {} ms ({} ms windows), storm={}, seed={:#x}",
        cfg.threads, cfg.rate, cfg.duration_ms, cfg.window_ms, cfg.storm, cfg.seed
    );
    let outcomes = run_slo(cfg);
    let doc = rtle_bench::slo::doc_to_json(cfg, &outcomes);
    print!("{}", render_slo(&doc).expect("fresh export always renders"));
    for o in &outcomes {
        if let Some(p) = &o.flight_path {
            eprintln!("slo_bench: flight record written: {}", p.display());
        }
    }
    if let Some(path) = &args.json {
        std::fs::write(path, doc.to_string_pretty()).expect("write JSON export");
        eprintln!("slo_bench: wrote {}", path.display());
    }
}
