//! The open-loop SLO harness: windowed tail-latency measurement of the
//! elision runtimes under a fixed arrival schedule, with a collapse
//! watchdog riding the window rotator.
//!
//! # Why open-loop
//!
//! A closed-loop benchmark (each thread issues the next operation when
//! the previous one returns) measures *service* time and silently
//! forgives stalls: while the lock convoys, the loop simply stops
//! submitting, so the stall shows up in one unlucky sample instead of
//! the hundreds of requests that would have arrived meanwhile — the
//! classic coordinated-omission error. This harness instead draws a
//! SplitMix64-seeded schedule of **intended** arrival times
//! (exponential inter-arrival at a target rate) before touching the
//! lock, and charges every operation from its intended start: when the
//! runtime falls behind, the queueing delay lands in the percentiles of
//! every window it poisoned, exactly as a latency SLO would account it.
//!
//! # Workload
//!
//! 80% `get` / 10% `insert` / 10% `remove` with Zipf-ish skew (a
//! configurable share of ops aimed at a small hot set), plus rare
//! pessimistic audits — verify-and-refresh sweeps whose write-backs
//! stamp the orec table of the scope they pin, so concurrent slow
//! paths there abort. A mid-run **hot-key storm** (the middle fifth of
//! the schedule) shrinks the hot set to a strided handful of keys,
//! turns the mix write-heavy, and multiplies the audit frequency — the
//! forced-collapse stimulus. The identical schedule (same seed, same
//! arrival times, same key and audit draws) runs against two
//! configurations:
//!
//! * `single_lock` — one `ElidableLock` + `TxMap`, operations through
//!   [`rtle_core::ElidableLock::execute`]; every audit pins the world and
//!   the storm convoys the lock.
//! * `sharded` — a [`ShardedTxMap`] whose shards share one windowed
//!   [`Recorder`]; audits pin one shard, and the same storm stays a
//!   local nuisance.
//!
//! A rotator thread closes telemetry windows every `window_ms` and
//! feeds each to a [`Watchdog`]; on the first collapse verdict the
//! flight record (trailing windows + the recorder's resident records) is dumped
//! to a JSON file for offline `diag --timeline` analysis.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtle_core::{Ctx, ElidableLock, ElisionPolicy, RetryPolicy};
use rtle_htm::atomic::{RelaxedWord, StopFlag};
use rtle_htm::prng::SplitMix64;
use rtle_obs::{
    flight_record, CollapseEvent, HistSnapshot, Json, LiveServer, LiveSource, MetricsRegistry,
    ObsConfig, Recorder, Watchdog, WindowSnapshot, SCHEMA_VERSION,
};
use rtle_shard::{ShardedTxMap, TxMap};

use crate::top::fmt_ns;

/// All knobs of one SLO run (both configurations share it).
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Worker (load-generator) threads.
    pub threads: usize,
    /// Target total arrival rate, operations per second.
    pub rate: f64,
    /// Scheduled load duration in ms (the run tail-drains past it when
    /// the system falls behind — that is the point).
    pub duration_ms: u64,
    /// Telemetry window length in ms.
    pub window_ms: u64,
    /// Key-space size.
    pub keys: u64,
    /// Percent of operations aimed at the hot set (Zipf-ish skew).
    pub hot_pct: u64,
    /// Hot-set size outside the storm.
    pub hot_keys: u64,
    /// Inject the mid-run hot-key storm (middle fifth of the schedule:
    /// hot set shrinks to `storm_keys`, writes surge to
    /// `storm_write_pct`, audits multiply by `storm_audit_boost`).
    pub storm: bool,
    /// Hot-set size during the storm (strided, so the keys scatter
    /// across shards — the stress is the skew, not one unlucky shard).
    pub storm_keys: u64,
    /// Percent of storm ops that are writes (insert/remove).
    pub storm_write_pct: u64,
    /// One op in this many is a pessimistic audit scan (outside storm).
    pub audit_one_in: u64,
    /// Audit-frequency multiplier during the storm.
    pub storm_audit_boost: u64,
    /// Scan passes over the key space per audit.
    pub audit_passes: u64,
    /// How long each audit *holds its lock across a blocking wait*
    /// (checkpoint-style I/O under quiesce), in ms. This is the
    /// collapse stimulus that lock granularity actually decides: the
    /// hold blocks one shard on the sharded map but the whole world on
    /// the single lock — without saturating the CPU, so the difference
    /// survives even on a single-core host.
    pub audit_hold_ms: u64,
    /// Shard count for the sharded configuration (power of two).
    pub shards: usize,
    /// Schedule seed: same seed = same arrivals, keys and audit draws.
    pub seed: u64,
    /// Worst-window p99 SLO target, ms.
    pub p99_target_ms: f64,
    /// Worst-window p999 SLO target, ms.
    pub p999_target_ms: f64,
    /// Closed windows retained per run.
    pub series_cap: usize,
    /// Where collapse flight records are written (`None` disables the
    /// dump; the watchdog still reports verdicts).
    pub flight_dir: Option<PathBuf>,
    /// Bind address for the live scrape endpoint (`None` disables it).
    /// Each target's recorder and watchdog mirror — plus the sharded
    /// map itself — register with one [`MetricsRegistry`] served at
    /// `/metrics` and `/json` for the whole run.
    pub live: Option<String>,
    /// Where to write the endpoint's actual address (useful with a
    /// `:0` ephemeral port — the `tests/cli.rs` scraper reads this).
    pub live_port_file: Option<PathBuf>,
}

impl SloConfig {
    /// The full-size run.
    pub fn full() -> SloConfig {
        SloConfig {
            // Enough workers that an audit's blocking hold occupies one
            // generator — and every op queued behind a held shard
            // another — without starving the schedule: the open-loop
            // backlog must come from the system under test, not from
            // the harness running out of threads. Cheap even on a
            // 1-core host — workers sleep between arrivals.
            threads: 32,
            // The rate is chosen against the audit holds, not the CPU:
            // during the storm the single lock serializes one
            // `audit_hold_ms` hold every `audit_one_in /
            // storm_audit_boost` ≈ 15.6 ops, capping it near 950 ops/s —
            // about a third of the offered 3k (forced collapse) — while
            // the sharded map spreads the same holds over all shards and
            // keeps up. Low enough that workers' sleeps stay honest
            // even on a single core, and that the storm's audit sweeps
            // (one op in 16, four passes over the key space each) leave
            // a debug sharded map beside busy neighbours CPU to spare:
            // at 6k with 8 ms holds the same capacity ratio held, but
            // the sweeps cost twice the CPU and that map stalled for
            // real.
            rate: 3_000.0,
            duration_ms: 6_000,
            window_ms: 200,
            keys: 2_048,
            hot_pct: 90,
            hot_keys: 32,
            storm: true,
            storm_keys: 16,
            storm_write_pct: 30,
            audit_one_in: 1_500,
            storm_audit_boost: 96,
            audit_passes: 4,
            audit_hold_ms: 16,
            shards: 16,
            seed: 0x510_b42d,
            // Sized for the sharded map on a busy host: its storm
            // windows queue behind the 16 ms blocking holds of one
            // shard (worst-window p99 about 90 ms, release, 2 cores),
            // while the convoyed single lock, serving a third of the
            // storm's arrivals, backlogs for most of the storm's length
            // (p99 about 3.6 s) — the verdicts separate cleanly with
            // margin on both sides.
            p99_target_ms: 400.0,
            p999_target_ms: 800.0,
            series_cap: 512,
            flight_dir: None,
            live: None,
            live_port_file: None,
        }
    }

    /// The tier-1 smoke scale: same shape, ~3 s wall time. The 600 ms
    /// storm spans almost five 125 ms windows, so the watchdog's
    /// two-consecutive-stalled-windows rule has slack; a 2 s schedule's
    /// 400 ms storm spans three, the first spent building the backlog,
    /// and left it none.
    pub fn quick() -> SloConfig {
        SloConfig {
            duration_ms: 3_000,
            window_ms: 125,
            keys: 1_024,
            ..SloConfig::full()
        }
    }

    fn duration_ns(&self) -> u64 {
        self.duration_ms * 1_000_000
    }

    /// `[storm_start, storm_end)` in schedule-ns: the middle fifth.
    fn storm_span(&self) -> (u64, u64) {
        (self.duration_ns() * 2 / 5, self.duration_ns() * 3 / 5)
    }
}

/// One configuration under test. Both wrap the same transactional map
/// type; only the lock granularity differs.
enum Target {
    /// One `ElidableLock` guarding one `TxMap` (the collapse candidate).
    /// Boxed: the lock (orec table + stats) dwarfs the sharded variant's
    /// handle, and the target is matched once per op, never moved.
    SingleLock {
        lock: Box<ElidableLock>,
        map: TxMap<u64>,
    },
    /// The sharded map; shards share the harness recorder. `Arc` so the
    /// map can double as a registered live-scrape source.
    Sharded { map: Arc<ShardedTxMap> },
}

impl Target {
    /// One workload op (`action`: 0 insert, 1 remove, else get), with
    /// the latency charged from `intended` into `rec`, the target's
    /// recorder. Both targets are timed here, the same way: the sharded
    /// map's per-key API picks its lock internally, so only the harness
    /// sees a whole operation of either.
    fn op(&self, rec: &Recorder, intended: Instant, action: u64, key: u64) {
        match self {
            Target::SingleLock { lock, map } => {
                lock.execute(|ctx: &Ctx<'_>| match action {
                    0 => {
                        map.insert(ctx, key, key);
                    }
                    1 => {
                        map.remove(ctx, key);
                    }
                    _ => {
                        std::hint::black_box(map.get(ctx, key));
                    }
                });
            }
            Target::Sharded { map } => match action {
                0 => {
                    map.insert(key, key);
                }
                1 => {
                    map.remove(key);
                }
                _ => {
                    std::hint::black_box(map.get(key));
                }
            },
        }
        rec.record_op_latency(
            rtle_htm::lanes::Writer::current(),
            intended.elapsed().as_nanos() as u64,
        );
    }

    /// One pessimistic audit: a verify-and-refresh sweep over the key
    /// space under a real lock, then a blocking hold (`audit_hold_ms`,
    /// modeling checkpoint I/O done while quiesced) before releasing.
    /// The first pass *writes back* every present key — stamping the
    /// orec table, so concurrent slow paths on the pinned scope abort
    /// with OREC_CONFLICT for the section's whole duration — and the
    /// remaining passes re-verify read-only. Identical work in both
    /// targets; the single lock pins the world for the hold, the
    /// sharded map only `probe_key`'s shard.
    fn audit(&self, rec: &Recorder, intended: Instant, cfg: &SloConfig, probe_key: u64) {
        fn sweep(m: &TxMap<u64>, ctx: &Ctx<'_>, cfg: &SloConfig) -> u64 {
            let mut acc = 0u64;
            for pass in 0..cfg.audit_passes {
                for k in 0..cfg.keys {
                    if let Some(v) = m.get(ctx, k) {
                        acc = acc.wrapping_add(v);
                        if pass == 0 {
                            m.insert(ctx, k, v); // refresh: write-stamps the orec
                        }
                    }
                }
            }
            acc
        }
        let hold = Duration::from_millis(cfg.audit_hold_ms);
        let acc = match self {
            Target::SingleLock { lock, map } => {
                let section = lock.lock_section();
                let acc = sweep(map, section.ctx(), cfg);
                std::thread::sleep(hold);
                acc
            }
            Target::Sharded { map } => map.with_shard_locked(map.shard_of(probe_key), |m, ctx| {
                let acc = sweep(m, ctx, cfg);
                std::thread::sleep(hold);
                acc
            }),
        };
        std::hint::black_box(acc);
        rec.record_op_latency(
            rtle_htm::lanes::Writer::current(),
            intended.elapsed().as_nanos() as u64,
        );
    }
}

/// The worst (highest-p99) window of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstWindow {
    /// Window index on the run's timeline.
    pub index: u64,
    /// Its p99 latency, ns.
    pub p99_ns: u64,
    /// Its p999 latency, ns.
    pub p999_ns: u64,
}

/// Everything one configuration's run produced.
#[derive(Debug)]
pub struct SloOutcome {
    /// `"single_lock"` or `"sharded<N>"`.
    pub name: String,
    /// The closed-window series, oldest first.
    pub windows: Vec<WindowSnapshot>,
    /// All windows' latency merged: the full-run distribution.
    pub merged_latency: HistSnapshot,
    /// Operations submitted by the schedule (and completed — workers
    /// drain their schedule even when late).
    pub ops_submitted: u64,
    /// Completed ops per second of wall time (tail drain included).
    pub achieved_rate: f64,
    /// The worst window by p99, among windows that saw ops.
    pub worst: Option<WorstWindow>,
    /// Worst-window p99 within `p99_target_ms`?
    pub p99_met: bool,
    /// Worst-window p999 within `p999_target_ms`?
    pub p999_met: bool,
    /// Watchdog verdicts, oldest first.
    pub watchdog_events: Vec<CollapseEvent>,
    /// Flight-record path, when the watchdog fired and a dump directory
    /// was configured.
    pub flight_path: Option<PathBuf>,
}

fn exp_gap_ns(rng: &mut SplitMix64, mean_ns: f64) -> u64 {
    // Inverse-CDF exponential; f64() is in [0, 1), so 1-u is in (0, 1].
    (-mean_ns * (1.0 - rng.f64()).ln()) as u64
}

/// Sleeps until `target_ns` on the schedule clock. Pure sleep, no spin
/// phase: sub-100 µs arrival jitter is irrelevant against millisecond
/// SLO targets, while a spin-wait tail across many workers would eat
/// the whole budget of a small host and masquerade as system latency.
fn wait_until(t0: Instant, target_ns: u64) {
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= target_ns {
            return;
        }
        std::thread::sleep(Duration::from_nanos(target_ns - now));
    }
}

/// Runs one configuration under the schedule. The returned outcome owns
/// everything the JSON export needs. `wd` rides the window rotator; its
/// live mirror, like the recorder and map sources, was registered by
/// [`run_slo`] before the scrape endpoint was announced.
fn run_target(
    cfg: &SloConfig,
    name: String,
    target: Target,
    rec: Arc<Recorder>,
    mut wd: Watchdog,
) -> SloOutcome {
    let target = Arc::new(target);
    // Pre-populate half the key range so gets hit (outside the clock).
    for k in (0..cfg.keys).step_by(2) {
        match &*target {
            Target::SingleLock { lock, map } => {
                lock.execute(|ctx: &Ctx<'_>| {
                    map.insert(ctx, k, k);
                });
            }
            Target::Sharded { map } => {
                map.insert(k, k);
            }
        }
    }

    let stop = Arc::new(StopFlag::new());
    let submitted = RelaxedWord::new(0);
    let (storm_lo, storm_hi) = cfg.storm_span();
    // The run's windows start with it. The window open until now began
    // when the recorder was built: it holds the set-up and, for the
    // second target, the whole run of the first one, idle here. Close it
    // before the watchdog sees a window, and leave it out of the outcome.
    let setup = rec
        .windows()
        .expect("harness recorder always has windows")
        .rotate()
        .merged
        .index;
    let of_run = move |series: Vec<WindowSnapshot>| -> Vec<WindowSnapshot> {
        series.into_iter().filter(|w| w.index > setup).collect()
    };
    let t0 = Instant::now();

    // The rotator + watchdog thread: closes windows on schedule, feeds
    // each to the watchdog, dumps the flight record on first trigger.
    let rotator = {
        let rec = Arc::clone(&rec);
        let stop = Arc::clone(&stop);
        let flight_to = cfg
            .flight_dir
            .as_ref()
            .map(|d| d.join(format!("slo_flight_{name}.json")));
        let tick = Duration::from_millis((cfg.window_ms / 4).max(5));
        std::thread::spawn(move || {
            let live_mirror = wd.live();
            let mut flight_path = None;
            let coll = rec.windows().expect("harness recorder always has windows");
            loop {
                let done = stop.is_raised();
                let closed = if done {
                    // Final rotation collects the partial tail window.
                    Some(coll.rotate())
                } else {
                    coll.maybe_rotate()
                };
                if let Some(rot) = closed {
                    if let Some(ev) = wd.inspect(&rot.merged) {
                        if let (Some(path), None) = (&flight_to, &flight_path) {
                            let doc = flight_record(&ev, &of_run(coll.series()), &rec);
                            if std::fs::write(path, doc.to_string_pretty()).is_ok() {
                                live_mirror.set_flight_record_path(path.display().to_string());
                                flight_path = Some(path.clone());
                            }
                        }
                    }
                }
                if done {
                    return (wd.events().to_vec(), flight_path);
                }
                std::thread::sleep(tick);
            }
        })
    };

    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let target = Arc::clone(&target);
            let rec = Arc::clone(&rec);
            let submitted = &submitted;
            scope.spawn(move || {
                let mut rng =
                    SplitMix64::new(cfg.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let mean_gap_ns = cfg.threads as f64 / cfg.rate * 1e9;
                let mut next_ns = exp_gap_ns(&mut rng, mean_gap_ns);
                let mut count = 0u64;
                while next_ns < cfg.duration_ns() {
                    // The schedule never waits for the system: `next_ns`
                    // advances by draw, and the op is charged from it.
                    wait_until(t0, next_ns);
                    let intended = t0 + Duration::from_nanos(next_ns);
                    let in_storm = cfg.storm && (storm_lo..storm_hi).contains(&next_ns);

                    let draw = rng.next_u64();
                    let key = if rng.below(100) < cfg.hot_pct {
                        if in_storm {
                            // Strided storm set: scorching keys that still
                            // scatter across shards — the stimulus is the
                            // skew + audits, not one overloaded shard.
                            (draw % cfg.storm_keys) * (cfg.keys / cfg.storm_keys.max(1))
                        } else {
                            (draw % cfg.hot_keys) * (cfg.keys / cfg.hot_keys.max(1))
                        }
                    } else {
                        draw % cfg.keys
                    };
                    let audit_period = if in_storm {
                        (cfg.audit_one_in / cfg.storm_audit_boost).max(1)
                    } else {
                        cfg.audit_one_in
                    };
                    if rng.below(audit_period) == 0 {
                        // Audits probe a uniform key: background integrity
                        // scans are not tied to the hot set, so the sharded
                        // target spreads them over all shards.
                        let probe = rng.below(cfg.keys);
                        target.audit(&rec, intended, cfg, probe);
                    } else {
                        // 80/10/10 get/insert/remove normally; the storm
                        // turns write-heavy (flash-crowd updates).
                        let action = if in_storm {
                            if rng.below(100) < cfg.storm_write_pct {
                                draw % 2 // insert or remove
                            } else {
                                9
                            }
                        } else {
                            rng.below(10)
                        };
                        target.op(&rec, intended, action, key);
                    }
                    count += 1;
                    next_ns += exp_gap_ns(&mut rng, mean_gap_ns);
                }
                submitted.fetch_add(count);
            });
        }
    });
    let wall = t0.elapsed();
    stop.raise();
    let (watchdog_events, flight_path) = rotator.join().expect("rotator never panics");

    let windows = of_run(
        rec.windows()
            .expect("harness recorder always has windows")
            .series(),
    );
    let merged_latency = HistSnapshot::merged(
        windows
            .iter()
            .map(|w| &w.counts.latency)
            .collect::<Vec<_>>(),
    );
    let worst = windows
        .iter()
        .filter(|w| w.ops() > 0)
        .max_by_key(|w| w.latency_p(0.99))
        .map(|w| WorstWindow {
            index: w.index,
            p99_ns: w.latency_p(0.99),
            p999_ns: w.latency_p(0.999),
        });
    let ops_submitted = submitted.load();
    SloOutcome {
        p99_met: worst
            .as_ref()
            .is_none_or(|w| (w.p99_ns as f64) <= cfg.p99_target_ms * 1e6),
        p999_met: worst
            .as_ref()
            .is_none_or(|w| (w.p999_ns as f64) <= cfg.p999_target_ms * 1e6),
        name,
        windows,
        merged_latency,
        ops_submitted,
        achieved_rate: ops_submitted as f64 / wall.as_secs_f64(),
        worst,
        watchdog_events,
        flight_path,
    }
}

fn harness_recorder(cfg: &SloConfig) -> Arc<Recorder> {
    Arc::new(Recorder::new(ObsConfig {
        window_len_ms: cfg.window_ms,
        window_series_cap: cfg.series_cap,
        ..ObsConfig::default()
    }))
}

/// The nominal window length of a harness recorder's collector.
fn window_len_ns(rec: &Recorder) -> u64 {
    rec.windows()
        .expect("harness recorder always has windows")
        .window_len_ns()
}

/// Runs the identical schedule against both configurations:
/// `single_lock` first, then `sharded<N>`.
///
/// Both use FG-TLE with the anti-starvation cap (`max_slow_attempts`)
/// set: an SLO-sensitive deployment bounds per-operation work, which is
/// also what makes a convoy *visible* — once an audit pins a scope for
/// longer than a few slow retries, waiters stop speculating and queue
/// on the lock, so a coarse-lock collapse shows up as the fallback-rate
/// spike the watchdog keys on instead of unbounded invisible spinning.
pub fn run_slo(cfg: &SloConfig) -> Vec<SloOutcome> {
    let policy = ElisionPolicy::FgTle { orecs: 128 };
    let retry = RetryPolicy {
        max_slow_attempts: Some(6),
        ..RetryPolicy::default()
    };
    let capacity = (cfg.keys as usize) * 2;

    let single_rec = harness_recorder(cfg);
    let single = Target::SingleLock {
        lock: Box::new(
            ElidableLock::builder()
                .policy(policy)
                .retry(retry)
                .recorder(Arc::clone(&single_rec))
                .build(),
        ),
        map: TxMap::with_capacity(capacity),
    };
    let mut single_wd = Watchdog::new(window_len_ns(&single_rec));

    let sharded_rec = harness_recorder(cfg);
    let sharded_name = format!("sharded{}", cfg.shards);
    let map = Arc::new(ShardedTxMap::with_builder(
        cfg.shards,
        (capacity / cfg.shards).max(64),
        ElidableLock::builder()
            .policy(policy)
            .retry(retry)
            .recorder(Arc::clone(&sharded_rec)),
    ));
    let mut sharded_wd = Watchdog::new(window_len_ns(&sharded_rec));

    // The live scrape endpoint, when asked for: one registry + server
    // outlives both target runs, so an operator watching `diag top` sees
    // the single-lock collapse and the sharded recovery back to back.
    // Every source of both runs is registered before the address is
    // announced, so the first scrape already sees the full source set.
    let live = cfg.live.as_ref().map(|addr| {
        let registry = Arc::new(MetricsRegistry::new());
        let sources: [(String, Arc<dyn LiveSource>); 5] = [
            ("single_lock".into(), single_rec.clone()),
            ("single_lock_watchdog".into(), single_wd.live()),
            (sharded_name.clone(), sharded_rec.clone()),
            (format!("{sharded_name}_map"), map.clone()),
            (format!("{sharded_name}_watchdog"), sharded_wd.live()),
        ];
        for (name, source) in sources {
            registry.register(name, source);
        }
        let server = LiveServer::start(registry, addr.as_str())
            .unwrap_or_else(|e| panic!("cannot bind live endpoint on {addr}: {e}"));
        eprintln!("slo: live endpoint at http://{}/metrics", server.addr());
        if let Some(path) = &cfg.live_port_file {
            std::fs::write(path, server.addr().to_string()).expect("write live port file");
        }
        server
    });

    let single_out = run_target(cfg, "single_lock".into(), single, single_rec, single_wd);
    let sharded = Target::Sharded { map };
    let sharded_out = run_target(cfg, sharded_name, sharded, sharded_rec, sharded_wd);

    if let Some(mut server) = live {
        server.shutdown();
    }
    vec![single_out, sharded_out]
}

/// JSON form of one outcome (full per-window series plus verdicts).
pub fn outcome_to_json(cfg: &SloConfig, o: &SloOutcome) -> Json {
    let worst = match &o.worst {
        Some(w) => Json::obj([
            ("index", Json::UInt(w.index)),
            ("p99_ns", Json::UInt(w.p99_ns)),
            ("p999_ns", Json::UInt(w.p999_ns)),
        ]),
        None => Json::Null,
    };
    Json::obj([
        ("name", Json::Str(o.name.clone())),
        ("ops_submitted", Json::UInt(o.ops_submitted)),
        ("achieved_rate", Json::Num(o.achieved_rate)),
        ("overall_latency", o.merged_latency.to_json()),
        ("worst_window", worst),
        (
            "verdicts",
            Json::obj([
                (
                    "p99_target_ns",
                    Json::UInt((cfg.p99_target_ms * 1e6) as u64),
                ),
                ("p99_met", Json::Bool(o.p99_met)),
                (
                    "p999_target_ns",
                    Json::UInt((cfg.p999_target_ms * 1e6) as u64),
                ),
                ("p999_met", Json::Bool(o.p999_met)),
            ]),
        ),
        (
            "watchdog",
            Json::Arr(
                o.watchdog_events
                    .iter()
                    .map(CollapseEvent::to_json)
                    .collect(),
            ),
        ),
        (
            "flight_record",
            match &o.flight_path {
                Some(p) => Json::Str(p.display().to_string()),
                None => Json::Null,
            },
        ),
        (
            "windows",
            Json::Arr(o.windows.iter().map(WindowSnapshot::to_json).collect()),
        ),
    ])
}

/// The schema-versioned `slo` section of the export document.
pub fn slo_section(cfg: &SloConfig, outcomes: &[SloOutcome]) -> Json {
    Json::obj([
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("threads", Json::UInt(cfg.threads as u64)),
        ("rate_ops_s", Json::Num(cfg.rate)),
        ("duration_ms", Json::UInt(cfg.duration_ms)),
        ("window_ms", Json::UInt(cfg.window_ms)),
        ("keys", Json::UInt(cfg.keys)),
        ("storm", Json::Bool(cfg.storm)),
        ("seed", Json::UInt(cfg.seed)),
        (
            "configs",
            Json::Arr(outcomes.iter().map(|o| outcome_to_json(cfg, o)).collect()),
        ),
    ])
}

/// The complete `slo_bench` export: the document header (`load_versioned`
/// checks its `schema_version`) around the `slo` section.
pub fn doc_to_json(cfg: &SloConfig, outcomes: &[SloOutcome]) -> Json {
    Json::obj([
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("tool", Json::Str("slo_bench".into())),
        ("slo", slo_section(cfg, outcomes)),
    ])
}

/// Why a saved SLO/flight-record document could not be rendered.
#[derive(Debug, PartialEq, Eq)]
pub enum SloViewError {
    /// The file is not valid JSON.
    Parse(String),
    /// The document's `schema_version` does not match this build's
    /// [`SCHEMA_VERSION`] — regenerate the file rather than re-reading
    /// an old layout (see the migration policy in `rtle_obs::json`).
    Schema {
        /// Version found in the document, when present.
        found: Option<u64>,
        /// The version this build understands.
        expected: u64,
    },
    /// Valid JSON of the right version but not the expected shape.
    Shape(&'static str),
}

impl std::fmt::Display for SloViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloViewError::Parse(e) => write!(f, "not valid JSON: {e}"),
            SloViewError::Schema { found, expected } => match found {
                Some(v) => write!(
                    f,
                    "schema version {v} is not the version this build reads ({expected}); \
                     re-run the producing tool to regenerate the document"
                ),
                None => write!(f, "document carries no schema_version field"),
            },
            SloViewError::Shape(what) => write!(f, "unexpected document shape: {what}"),
        }
    }
}

/// Parses a saved document and checks its schema version — the clean
/// (non-panicking) front door for `diag`'s file views.
pub fn load_versioned(text: &str) -> Result<Json, SloViewError> {
    let j = rtle_obs::parse_json(text).map_err(|e| SloViewError::Parse(format!("{e:?}")))?;
    match j.get("schema_version").and_then(Json::as_u64) {
        Some(v) if v == SCHEMA_VERSION => Ok(j),
        found => Err(SloViewError::Schema {
            found,
            expected: SCHEMA_VERSION,
        }),
    }
}

fn timeline_rows(out: &mut String, windows: &[Json]) -> Result<(), SloViewError> {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  {:>5} {:>8} {:>10} {:>10} {:>10} {:>12} {:>9} {:>8}",
        "win", "ops", "p50", "p99", "p999", "commit/s", "fallback", "ab/cmt"
    );
    for w in windows {
        let w = WindowSnapshot::from_json(w).ok_or(SloViewError::Shape("window entry"))?;
        let _ = writeln!(
            out,
            "  {:>5} {:>8} {:>10} {:>10} {:>10} {:>12.0} {:>8.1}% {:>8.2}",
            w.index,
            w.ops(),
            fmt_ns(w.latency_p(0.50)),
            fmt_ns(w.latency_p(0.99)),
            fmt_ns(w.latency_p(0.999)),
            w.commit_rate(),
            w.fallback_rate() * 100.0,
            w.aborts_per_commit(),
        );
    }
    Ok(())
}

/// Renders the per-window timeline of a saved `slo_bench` document or
/// watchdog flight record (`diag --timeline FILE`).
pub fn render_timeline(doc: &Json) -> Result<String, SloViewError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    if doc.get("kind").and_then(Json::as_str) == Some("flight-record") {
        let trigger = doc
            .get("trigger")
            .ok_or(SloViewError::Shape("no trigger"))?;
        let _ = writeln!(
            out,
            "flight record: {} at window {} (commit rate {:.0}/s vs trailing {:.0}/s, \
             fallback {:.1}%, {:.2} aborts/commit)",
            trigger.get("kind").and_then(Json::as_str).unwrap_or("?"),
            trigger
                .get("window_index")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            trigger
                .get("commit_rate")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            trigger
                .get("trailing_commit_rate")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            trigger
                .get("fallback_rate")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                * 100.0,
            trigger
                .get("aborts_per_commit")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        let windows = doc
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or(SloViewError::Shape("no windows array"))?;
        timeline_rows(&mut out, windows)?;
        let _ = writeln!(
            out,
            "  records in ring: {}",
            doc.get("records")
                .and_then(Json::as_arr)
                .map_or(0, |a| a.len())
        );
        return Ok(out);
    }
    let configs = doc
        .get("slo")
        .and_then(|s| s.get("configs"))
        .and_then(Json::as_arr)
        .ok_or(SloViewError::Shape(
            "not an slo_bench document (no slo.configs)",
        ))?;
    for c in configs {
        let _ = writeln!(
            out,
            "== {} ==",
            c.get("name").and_then(Json::as_str).unwrap_or("?")
        );
        let windows = c
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or(SloViewError::Shape("config without windows"))?;
        timeline_rows(&mut out, windows)?;
    }
    Ok(out)
}

/// Renders the SLO verdict summary of a saved `slo_bench` document
/// (`diag --slo FILE`).
pub fn render_slo(doc: &Json) -> Result<String, SloViewError> {
    use std::fmt::Write as _;
    let slo = doc
        .get("slo")
        .ok_or(SloViewError::Shape("no slo section"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "slo: {} threads, {:.0} ops/s target, {} ms windows, storm={}",
        slo.get("threads").and_then(Json::as_u64).unwrap_or(0),
        slo.get("rate_ops_s").and_then(Json::as_f64).unwrap_or(0.0),
        slo.get("window_ms").and_then(Json::as_u64).unwrap_or(0),
        matches!(slo.get("storm"), Some(Json::Bool(true))),
    );
    let configs = slo
        .get("configs")
        .and_then(Json::as_arr)
        .ok_or(SloViewError::Shape("no configs"))?;
    for c in configs {
        let name = c.get("name").and_then(Json::as_str).unwrap_or("?");
        let verdicts = c
            .get("verdicts")
            .ok_or(SloViewError::Shape("no verdicts"))?;
        let worst = c.get("worst_window");
        let (wp99, wp999, widx) = match worst {
            Some(w) if w.get("p99_ns").is_some() => (
                w.get("p99_ns").and_then(Json::as_u64).unwrap_or(0),
                w.get("p999_ns").and_then(Json::as_u64).unwrap_or(0),
                w.get("index").and_then(Json::as_u64).unwrap_or(0),
            ),
            _ => (0, 0, 0),
        };
        let verdict = |key: &str| match verdicts.get(key) {
            Some(Json::Bool(true)) => "met",
            Some(Json::Bool(false)) => "MISSED",
            _ => "?",
        };
        let dog = c
            .get("watchdog")
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len());
        let _ = writeln!(
            out,
            "  {name:<14} worst window {widx}: p99 {} [{}]  p999 {} [{}]  watchdog: {}",
            fmt_ns(wp99),
            verdict("p99_met"),
            fmt_ns(wp999),
            verdict("p999_met"),
            if dog == 0 {
                "silent".to_string()
            } else {
                format!("{dog} verdict(s)")
            },
        );
        if let Some(Json::Str(p)) = c.get("flight_record") {
            let _ = writeln!(out, "  {:<14} flight record: {p}", "");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature schedule that keeps test wall time sane while still
    /// exercising the full pipeline (arrivals, windows, verdicts, JSON).
    fn tiny(storm: bool) -> SloConfig {
        SloConfig {
            threads: 2,
            rate: 3_000.0,
            duration_ms: 400,
            window_ms: 50,
            keys: 128,
            hot_pct: 80,
            hot_keys: 8,
            storm,
            storm_keys: 4,
            storm_write_pct: 50,
            audit_one_in: 4_000,
            storm_audit_boost: 4,
            audit_passes: 2,
            audit_hold_ms: 1,
            shards: 4,
            seed: 0xabc,
            p99_target_ms: 500.0,
            p999_target_ms: 2_000.0,
            series_cap: 64,
            flight_dir: None,
            live: None,
            live_port_file: None,
        }
    }

    #[test]
    fn tiny_run_produces_windows_and_round_trips() {
        let cfg = tiny(false);
        let outcomes = run_slo(&cfg);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].name, "single_lock");
        assert_eq!(outcomes[1].name, "sharded4");
        for o in &outcomes {
            assert!(o.ops_submitted > 200, "{}: {}", o.name, o.ops_submitted);
            assert!(!o.windows.is_empty(), "{} produced no windows", o.name);
            assert_eq!(
                o.merged_latency.count, o.ops_submitted,
                "{}: every op's latency must land in some window",
                o.name
            );
            let w = o.worst.as_ref().expect("ops were recorded");
            assert!(w.p99_ns <= w.p999_ns.max(w.p99_ns));
        }
        let doc = doc_to_json(&cfg, &outcomes);
        let text = doc.to_string_pretty();
        let back = load_versioned(&text).expect("export must parse and be current");
        let summary = render_slo(&back).expect("summary renders");
        assert!(summary.contains("single_lock"));
        assert!(summary.contains("sharded4"));
        let timeline = render_timeline(&back).expect("timeline renders");
        assert!(timeline.contains("== single_lock =="));
        assert!(timeline.contains("p999"));
    }

    #[test]
    fn each_run_opens_its_own_first_window() {
        // The sharded recorder is built before the single-lock run; its
        // first window must not span that run.
        let cfg = tiny(false);
        let window_ns = cfg.window_ms * 1_000_000;
        for o in run_slo(&cfg) {
            let first = o.windows.first().expect("windows");
            assert!(
                first.len_ns <= 2 * window_ns,
                "{}: first window spans {} ns",
                o.name,
                first.len_ns
            );
        }
    }

    #[test]
    fn stale_schema_is_a_clean_error_not_a_panic() {
        let doc = Json::obj([
            ("schema_version", Json::UInt(1)),
            ("tool", Json::Str("slo_bench".into())),
        ]);
        let err = load_versioned(&doc.to_string_pretty()).unwrap_err();
        assert_eq!(
            err,
            SloViewError::Schema {
                found: Some(1),
                expected: SCHEMA_VERSION
            }
        );
        assert!(err.to_string().contains("re-run the producing tool"));
        let err = load_versioned("{not json").unwrap_err();
        assert!(matches!(err, SloViewError::Parse(_)));
        let err = load_versioned(&format!("{{\"schema_version\": {SCHEMA_VERSION}}}"))
            .map(|j| render_slo(&j).unwrap_err())
            .unwrap();
        assert_eq!(err, SloViewError::Shape("no slo section"));
    }

    #[test]
    fn live_endpoint_serves_while_the_run_is_hot() {
        use std::io::{Read as _, Write as _};

        let dir = std::env::temp_dir().join(format!("rtle_slo_live_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let cfg = SloConfig {
            live: Some("127.0.0.1:0".into()),
            live_port_file: Some(port_file.clone()),
            ..tiny(false)
        };

        // A scraper racing the run: wait for the port file, then GET both
        // routes while the workload is still generating load.
        let scraper = {
            let port_file = port_file.clone();
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                let addr = loop {
                    if let Ok(s) = std::fs::read_to_string(&port_file) {
                        if !s.trim().is_empty() {
                            break s.trim().to_string();
                        }
                    }
                    assert!(Instant::now() < deadline, "port file never appeared");
                    std::thread::sleep(Duration::from_millis(5));
                };
                let get = |route: &str| {
                    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
                    write!(conn, "GET {route} HTTP/1.0\r\n\r\n").unwrap();
                    let mut resp = String::new();
                    conn.read_to_string(&mut resp).expect("read response");
                    resp
                };
                (get("/metrics"), get("/json"))
            })
        };
        let outcomes = run_slo(&cfg);
        let (metrics, json) = scraper.join().expect("scraper never panics");

        assert_eq!(outcomes.len(), 2);
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(
            metrics.contains(r#"source="single_lock",kind="recorder""#),
            "recorder registered before the clock started:\n{metrics}"
        );
        assert!(
            metrics.contains("rtle_windows_inspected"),
            "watchdog mirror registered:\n{metrics}"
        );
        assert!(json.starts_with("HTTP/1.1 200 OK"), "{json}");
        let body = json.split("\r\n\r\n").nth(1).expect("json body");
        let doc = rtle_obs::parse_json(body).expect("live JSON parses");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("live-registry")
        );
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_is_deterministic_across_targets() {
        // Same seed, two runs: the submitted-op counts must match
        // exactly — the schedule is fixed before the system reacts.
        let cfg = tiny(true);
        let a = run_slo(&cfg);
        let b = run_slo(&cfg);
        assert_eq!(a[0].ops_submitted, b[0].ops_submitted);
        assert_eq!(a[1].ops_submitted, b[1].ops_submitted);
        assert_eq!(
            a[0].ops_submitted, a[1].ops_submitted,
            "both configurations get the identical arrival schedule"
        );
    }
}
