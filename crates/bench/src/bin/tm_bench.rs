//! Three-way software-TM comparison: NOrec vs TL2 vs the full RTLE
//! stack on the disjoint-write / shared-hot-key / read-mostly mixes.
//! See [`rtle_bench::tm`] for why each mix is in the set.
//!
//! Emits a `perf-baseline`-kind JSON document (`--json PATH`) whose rows
//! are thread-ns per committed transaction (lower is better, like every
//! other exported row). Committed-ops counts ride along for eyeballing.
//!
//! ```sh
//! cargo run -p rtle-bench --release --bin tm_bench            # full
//! cargo run -p rtle-bench --release --bin tm_bench -- --quick # smoke
//! ```

use std::process::exit;
use std::time::Duration;

use rtle_bench::tm::{committed_ratio, render, run_suite, TmMix, DEFAULT_THREADS};
use rtle_bench::BenchArgs;
use rtle_obs::{Json, SCHEMA_VERSION};

fn main() {
    let args = BenchArgs::parse();
    let threads = DEFAULT_THREADS;
    // Quick mode keeps tier-1 fast; the full run is long enough — and
    // best-of-2 — so that a single descheduled NOrec committer (the
    // pathology TL2 avoids on the disjoint mix) cannot masquerade as a
    // regression in the compare gate.
    let (dur, trials) = if args.quick {
        (Duration::from_millis(60), 1)
    } else {
        (Duration::from_millis(400), 2)
    };

    let results = run_suite(threads, dur, trials);
    print!("{}", render(&results, threads, dur));

    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("tool", Json::Str("tm_bench".into())),
            ("kind", Json::Str("perf-baseline".into())),
            ("latency_unit", Json::Str("ns".into())),
            ("threads", Json::UInt(threads as u64)),
            ("duration_ms", Json::UInt(dur.as_millis() as u64)),
            (
                "disjoint_write_tl2_over_norec",
                Json::Num(
                    committed_ratio(&results, TmMix::DisjointWrite, "tl2", "norec")
                        .unwrap_or(0.0),
                ),
            ),
            (
                "committed_ops",
                Json::Obj(
                    results
                        .iter()
                        .map(|m| (m.row.clone(), Json::UInt(m.committed)))
                        .collect(),
                ),
            ),
            (
                "benches",
                Json::Arr(
                    results
                        .iter()
                        .map(|m| {
                            let r = m.to_bench_result();
                            Json::obj([
                                ("name", Json::Str(r.name)),
                                ("ns_per_op", Json::Num(r.ns_per_op)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_string_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        }
        println!("wrote {}", path.display());
    }
}
