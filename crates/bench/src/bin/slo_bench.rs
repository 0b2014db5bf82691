//! Open-loop SLO harness: windowed tail latency of `single_lock` vs
//! `sharded` under an identical arrival schedule with a mid-run hot-key
//! storm, plus the collapse watchdog and flight-recorder dumps.
//!
//! ```text
//! slo_bench [--quick] [--seed N] [--threads N] [--shards N]
//!           [--rate OPS_S] [--duration-ms N] [--window-ms N]
//!           [--no-storm] [--flight-dir DIR] [--json PATH]
//!           [--live ADDR] [--live-port-file PATH]
//! ```
//!
//! `--live ADDR` (e.g. `127.0.0.1:9090`, or port `0` for ephemeral)
//! serves the run's telemetry at `/metrics` and `/json` while it runs —
//! point `diag top ADDR` at it to watch the collapse live.
//! `--live-port-file` writes the bound address for scripted scrapers.
//!
//! The JSON export carries the full schema-versioned `slo` section;
//! view saved runs with `diag --slo FILE` / `diag --timeline FILE`.

use rtle_bench::slo::{render_slo, render_timeline, run_slo, SloConfig};

struct Args {
    cfg: SloConfig,
    json: Option<std::path::PathBuf>,
    timeline: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: slo_bench [--quick] [--seed N] [--threads N] [--shards N] \
         [--rate OPS_S] [--duration-ms N] [--window-ms N] [--no-storm] \
         [--audit-hold-ms N] [--audit-boost N] [--storm-write-pct N] \
         [--timeline] [--flight-dir DIR] [--json PATH] \
         [--live ADDR] [--live-port-file PATH]"
    );
    std::process::exit(2);
}

fn num(it: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    it.next()
        .and_then(|v| {
            if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                v.parse().ok()
            }
        })
        .unwrap_or_else(|| {
            eprintln!("slo_bench: {flag} needs a number");
            usage()
        })
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mut cfg = SloConfig::full();
    let mut json = None;
    let mut timeline = false;
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
            "--seed" => cfg.seed = num(&mut it, "--seed"),
            "--threads" => cfg.threads = num(&mut it, "--threads") as usize,
            "--shards" => cfg.shards = (num(&mut it, "--shards") as usize).next_power_of_two(),
            "--rate" => cfg.rate = num(&mut it, "--rate") as f64,
            "--duration-ms" => cfg.duration_ms = num(&mut it, "--duration-ms"),
            "--window-ms" => cfg.window_ms = num(&mut it, "--window-ms").max(10),
            "--no-storm" => cfg.storm = false,
            "--audit-hold-ms" => cfg.audit_hold_ms = num(&mut it, "--audit-hold-ms"),
            "--audit-boost" => cfg.storm_audit_boost = num(&mut it, "--audit-boost").max(1),
            "--storm-write-pct" => cfg.storm_write_pct = num(&mut it, "--storm-write-pct").min(100),
            "--timeline" => timeline = true,
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
    Args {
        cfg,
        json,
        timeline,
    }
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
    if args.timeline {
        print!(
            "{}",
            render_timeline(&doc).expect("fresh export always renders")
        );
    }
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
