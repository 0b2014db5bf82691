//! Throughput scaling of [`ShardedTxMap`] vs a single `ElidableLock`.
//!
//! Runs the same mixed workload (76% `get`, 10% `insert`, 10%
//! `remove`, 4% pessimistic audit scans, uniform keys) at 1–8 threads
//! against a 1-shard map — which *is* a single `ElidableLock` guarding
//! one transactional map — and an N-shard map (default 16), and reports
//! committed-ops throughput. Emits a `perf-baseline`-kind JSON document
//! (`--json PATH`) with the sharded run's merged per-shard observability
//! report embedded under `shard_stats`.
//!
//! The audit fraction is what makes the comparison honest rather than a
//! hash-table microbenchmark: audits are maintenance scans that must run
//! under the lock (irrevocable, HTM-unfriendly work), and a lock-holder
//! descheduled mid-scan strands every thread that next needs *that*
//! lock — with one global lock that is every auditor in the process,
//! with N shards it is the ~1/N of traffic routed to the stranded shard.
//! This is exactly the single-big-lock pathology sharding exists to
//! contain, and it is what the speedup figure measures.
//!
//! ```sh
//! cargo run -p rtle-bench --release --bin shard_bench            # full
//! cargo run -p rtle-bench --release --bin shard_bench -- --quick # smoke
//! ```

use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtle_bench::report::BenchResult;
use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::prng::SplitMix64;
use rtle_obs::{Json, LiveServer, MetricsRegistry, SCHEMA_VERSION};
use rtle_shard::ShardedTxMap;

struct Args {
    quick: bool,
    threads: usize,
    shards: usize,
    json: Option<String>,
    seed: u64,
    /// One op in `audit_one_in` is a pessimistic audit sweep.
    audit_one_in: u64,
    /// Passes over the scan window per audit (sets the sweep's length).
    audit_passes: u64,
    /// `--live ADDR`: serve each run's map at `/metrics` and `/json`
    /// while the sweep executes.
    live: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        threads: 8,
        shards: 16,
        json: None,
        seed: 0x5ba4d,
        audit_one_in: 2_048,
        audit_passes: 256,
        live: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--threads" => args.threads = num(it.next()) as usize,
            "--shards" => args.shards = num(it.next()) as usize,
            "--seed" => args.seed = num(it.next()),
            "--audit-one-in" => args.audit_one_in = num(it.next()).max(1),
            "--audit-passes" => args.audit_passes = num(it.next()).max(1),
            "--json" => args.json = Some(it.next().unwrap_or_else(|| usage())),
            "--live" => args.live = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if !args.shards.is_power_of_two() || args.shards == 0 {
        eprintln!("--shards must be a power of two");
        exit(2);
    }
    args
}

fn num(s: Option<String>) -> u64 {
    let s = s.unwrap_or_else(|| usage());
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.unwrap_or_else(|_| usage())
}

fn usage() -> ! {
    eprintln!(
        "usage: shard_bench [--quick] [--threads N] [--shards N] [--seed S] \
         [--audit-one-in N] [--audit-passes P] [--json PATH] [--live ADDR]"
    );
    exit(2);
}

struct RunOutcome {
    ops_per_ms: f64,
    ns_per_op: f64,
    map: Arc<ShardedTxMap>,
}

/// The partition a key belongs to — the same hash and bit-slice the
/// `partitions`-shard map routes by, computed independently of the map
/// under test so both configurations see identical per-thread streams.
fn part_of(key: u64, partitions: usize) -> usize {
    if partitions == 1 {
        return 0;
    }
    (rtle_htm::hash::wang_mix64(key) >> (64 - partitions.trailing_zeros())) as usize
}

/// Partitioned mixed workload: the key space is split into `partitions`
/// slices (by the exact hash/bit-slice a `partitions`-shard map routes
/// by), each thread owns an exclusive set of partitions, and runs 80%
/// `get` / 10% `insert` / 10% `remove` over its own keys — the
/// per-client regime sharding serves. One op in `audit_one_in` is a
/// pessimistic audit: `audit_passes` verification passes over each owned
/// partition, under the owning shard's lock
/// ([`ShardedTxMap::with_shard_locked`]).
///
/// Both configurations run the identical per-thread key streams and the
/// identical audit sweeps; only the lock granularity differs. At
/// `shards == partitions` every partition is one shard, so threads never
/// share a lock and an audit freezes only the auditor's own data. At
/// `shards == 1` the same streams funnel through one `ElidableLock`:
/// non-audit traffic still speculates concurrently (refined TLE at
/// work), but every audit pins the global lock — and, with FG-TLE, its
/// sweep stamps essentially the whole orec table, so concurrent slow
/// paths abort (`OREC_CONFLICT`) until the audit drains. A descheduled
/// auditor then strands the entire process, which is exactly the
/// single-big-lock pathology this benchmark quantifies.
/// The per-run workload shape shared by every configuration of the
/// sweep, so single-lock and sharded runs are compared on identical work.
#[derive(Clone, Copy)]
struct Workload {
    keys: u64,
    ops_per_thread: u64,
    seed: u64,
    audit_one_in: u64,
    audit_passes: u64,
}

fn run_mixed(
    shards: usize,
    partitions: usize,
    threads: usize,
    w: Workload,
    live: Option<(&MetricsRegistry, &str)>,
) -> RunOutcome {
    let Workload { keys, ops_per_thread, seed, audit_one_in, audit_passes } = w;
    let map: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::with_builder(
        shards,
        // Size each shard so total capacity covers the key range with the
        // 2x headroom TxMap wants, independent of shard count.
        ((keys as usize * 2) / shards).max(64),
        ElidableLock::builder().policy(ElisionPolicy::FgTle { orecs: 128 }),
    ));
    if let Some((registry, label)) = live {
        // Registered before the clock starts, so a scraper watching the
        // endpoint sees every run of the sweep from its first op.
        map.register_live(registry, label);
    }
    // Pre-populate half the key range so gets actually hit.
    for k in (0..keys).step_by(2) {
        map.insert(k, k);
    }
    // Each partition's keys, computed once outside the measured region (a
    // real system would keep this via per-shard iteration).
    let owned: Arc<Vec<Vec<u64>>> = Arc::new(
        (0..partitions)
            .map(|p| (0..keys).filter(|&k| part_of(k, partitions) == p).collect())
            .collect(),
    );
    // Extra lock sections committed by audits (beyond their one workload
    // op), for the exact-commit sanity check below.
    let audit_extra = AtomicU64::new(0);
    let before = map.merged_stats();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let map = Arc::clone(&map);
            let owned = Arc::clone(&owned);
            let audit_extra = &audit_extra;
            scope.spawn(move || {
                // This thread's exclusive partitions and key pool.
                let my_parts: Vec<usize> = if partitions >= threads {
                    (0..partitions).filter(|p| p % threads == t).collect()
                } else {
                    vec![t % partitions] // more threads than partitions: share
                };
                let pool: Vec<u64> = my_parts
                    .iter()
                    .flat_map(|&p| owned[p].iter().copied())
                    .collect();
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
                let mut extra = 0u64;
                for _ in 0..ops_per_thread {
                    let k = pool[rng.below(pool.len() as u64) as usize];
                    if rng.below(audit_one_in) == 0 {
                        // Rare pessimistic audit: verify this thread's own
                        // partitions, one lock section per partition
                        // (maintenance work that must not speculate). The
                        // sharded map pins only the auditor's own shards;
                        // the single lock pins the world.
                        let mut acc = 0u64;
                        for &p in &my_parts {
                            let keys_of = &owned[p];
                            extra += 1;
                            acc = map.with_shard_locked(map.shard_of(keys_of[0]), |m, ctx| {
                                let mut a = acc;
                                for _ in 0..audit_passes {
                                    for &key in keys_of {
                                        a = a.wrapping_add(m.get(ctx, key).unwrap_or(0));
                                    }
                                }
                                a
                            });
                        }
                        extra -= 1; // the audit itself is one workload op
                        std::hint::black_box(acc);
                    } else {
                        match rng.below(10) {
                            0 => {
                                map.insert(k, k);
                            }
                            1 => {
                                map.remove(k);
                            }
                            _ => {
                                std::hint::black_box(map.get(k));
                            }
                        }
                    }
                }
                audit_extra.fetch_add(extra, Ordering::Relaxed);
            });
        }
    });
    let elapsed = t0.elapsed();
    // Sanity: every workload op commits exactly once; an audit commits one
    // lock section per owned partition.
    let committed = map.merged_stats().since(&before).ops;
    let workload_ops = threads as u64 * ops_per_thread;
    assert_eq!(
        committed,
        workload_ops + audit_extra.load(Ordering::Relaxed),
        "every submitted op must commit exactly once"
    );
    // Throughput is counted in workload ops (an audit is one op no matter
    // how many shard sections it visits), so the two configurations are
    // compared on identical work.
    RunOutcome {
        ops_per_ms: workload_ops as f64 / elapsed.as_secs_f64() / 1e3,
        ns_per_op: elapsed.as_nanos() as f64 / workload_ops.max(1) as f64,
        map,
    }
}

fn main() {
    let args = parse_args();
    let (keys, ops_per_thread) = if args.quick { (1024, 48_000) } else { (2048, 96_000) };

    let live = args.live.as_ref().map(|addr| {
        let registry = Arc::new(MetricsRegistry::new());
        let server = LiveServer::start(Arc::clone(&registry), addr.as_str())
            .unwrap_or_else(|e| {
                eprintln!("shard_bench: cannot bind live endpoint on {addr}: {e}");
                exit(1);
            });
        eprintln!("shard_bench: live endpoint at http://{}/metrics", server.addr());
        (registry, server)
    });

    println!(
        "shard_bench: mixed 80/10/10 over {keys} keys, {} ops/thread, \
         audit 1/{} x {} passes, seed {:#x}",
        ops_per_thread, args.audit_one_in, args.audit_passes, args.seed
    );
    println!(
        "{:<28}{:>10}{:>16}{:>12}",
        "configuration", "threads", "ops/ms", "ns/op"
    );

    let mut results: Vec<BenchResult> = Vec::new();
    let mut headline: Vec<(f64, f64)> = Vec::new(); // (single, sharded) at max threads
    let thread_points: Vec<usize> = if args.quick {
        vec![args.threads]
    } else {
        vec![1, 2, 4, args.threads]
    };
    let mut sharded_report = None;
    for &threads in &thread_points {
        let mut pair = (0.0, 0.0);
        for shards in [1, args.shards] {
            let label = format!("shard{shards}_mixed_{threads}thr");
            let out = run_mixed(
                shards,
                args.shards,
                threads,
                Workload {
                    keys,
                    ops_per_thread,
                    seed: args.seed,
                    audit_one_in: args.audit_one_in,
                    audit_passes: args.audit_passes,
                },
                live.as_ref().map(|(r, _)| (r.as_ref(), label.as_str())),
            );
            println!(
                "{label:<28}{threads:>10}{:>16.1}{:>12.1}",
                out.ops_per_ms, out.ns_per_op
            );
            if std::env::var_os("SHARD_BENCH_DEBUG").is_some() {
                eprintln!("  [debug] {label}: {:?}", out.map.merged_stats());
            }
            results.push(BenchResult {
                name: label,
                ns_per_op: out.ns_per_op,
            });
            if shards == 1 {
                pair.0 = out.ops_per_ms;
            } else {
                pair.1 = out.ops_per_ms;
                if threads == args.threads {
                    sharded_report = Some(out.map.report());
                }
            }
        }
        if threads == args.threads {
            headline = vec![pair];
        }
    }

    let (single, sharded) = headline[0];
    let speedup = sharded / single.max(f64::MIN_POSITIVE);
    println!(
        "\n{}-shard speedup over single lock at {} threads: {speedup:.2}x",
        args.shards, args.threads
    );

    let report = sharded_report.expect("sharded run at max threads always happens");
    println!(
        "sharded run: load imbalance {:.2}, abort imbalance {:.2}, lock fallback rate {:.4}",
        report.load_imbalance(),
        report.abort_imbalance(),
        report.merged.lock_fallback_rate()
    );

    if let Some(path) = args.json {
        // perf-baseline kind: named lower-is-better rows; the extra
        // fields (speedup + the merged shard-stats document) ride along
        // for the tier-1 smoke gate and operators.
        let doc = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("tool", Json::Str("shard_bench".into())),
            ("kind", Json::Str("perf-baseline".into())),
            ("latency_unit", Json::Str("ns".into())),
            ("threads", Json::UInt(args.threads as u64)),
            ("shards", Json::UInt(args.shards as u64)),
            ("seed", Json::UInt(args.seed)),
            ("speedup_at_max_threads", Json::Num(speedup)),
            ("shard_stats", report.to_json()),
            (
                "benches",
                Json::Arr(
                    results
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("ns_per_op", Json::Num(r.ns_per_op)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("wrote {path}");
    }
}
