//! The repo benchmark: five closed-loop workloads, layer probes and a
//! traced run over the refined-TLE stack, measured from outside through
//! the crates' public functions and stats snapshots. See `README.md`.
//!
//! ```text
//! rtle-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass over one workload: trace 0 prints the end-to-end metrics
//!     (intervals, each in a fresh child process), trace 1 the
//!     per-layer metrics (probes, counters, span self times); the last line
//!     of stdout is the result as one JSON object
//! rtle-benchmark run --seed <n> --out <file>
//!     both passes over every workload; writes the result file
//! rtle-benchmark compare <a.json>[,<a.json>...] <b.json>[,<b.json>...]
//!     result files of two commits against the bounds of BENCHMARK.json
//! ```

mod harness;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rtle_obs::{parse_json, Json};

use harness::{Counters, Plan, Worker, Workload, LATENCY_EVERY, THREADS};
use report::{metrics_json, num_array, object, Spec, Verdict};
use stats::{median, undisturbed};
use trace::{chrome_trace_json, NoTrace, SpanBuf, SpanName, TraceSummary};
use workloads::{AvlMixed, HolderCoexist, RmwDisjoint, ShardBatch, StmCompose};

/// Warm-up before a measured interval: caches, the orec and stripe tables
/// and the structures' steady-state shape settle well inside it (intervals
/// after 0.2 s and after 0.5 s of warm-up read the same).
const WARMUP: Duration = Duration::from_millis(250);
/// Measured intervals of the end-to-end pass; `--seconds` is split evenly.
/// Each interval runs in a fresh process, see [`end_to_end`].
const INTERVALS: u32 = 24;
/// Where the trace files go: `benchmark/out/`.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Calls `$f::<W>($args)` with the workload type named `$name`.
macro_rules! with_workload {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            RmwDisjoint::NAME => $f::<RmwDisjoint>($($arg),*),
            AvlMixed::NAME => $f::<AvlMixed>($($arg),*),
            HolderCoexist::NAME => $f::<HolderCoexist>($($arg),*),
            ShardBatch::NAME => $f::<ShardBatch>($($arg),*),
            StmCompose::NAME => $f::<StmCompose>($($arg),*),
            other => Err(format!(
                "unknown workload `{other}` (one of {:?})",
                workloads::NAMES
            )),
        }
    };
}

/// `--key value` pairs of one subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `args`; a flag outside `known` is an error, not ignored.
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") && known.contains(&&key[2..]) => {
                    pairs.push((key[2..].to_string(), value.clone()))
                }
                _ => {
                    return Err(format!(
                        "expected `--flag value` with a flag of {known:?}, got `{}`",
                        pair.join(" ")
                    ))
                }
            }
        }
        Ok(Flags(pairs))
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn number(&self, key: &str) -> Result<u64, String> {
        let text = self.required(key)?;
        text.parse()
            .map_err(|_| format!("--{key} takes a whole number, got `{text}`"))
    }
}

/// One pass over one workload.
struct Pass {
    seed: u64,
    traced: bool,
    /// Warm-up and measured interval of every run the pass makes.
    plan: Plan,
    /// Calls per probe batch.
    probe_ops: usize,
}

impl Pass {
    /// The pass the driver and `run` make: `seconds` split evenly over the
    /// `INTERVALS` intervals.
    fn of_seconds(seed: u64, seconds: u64, traced: bool) -> Pass {
        Pass {
            seed,
            traced,
            plan: Plan {
                warmup: WARMUP,
                interval: Duration::from_secs(seconds) / INTERVALS,
            },
            probe_ops: probes::BATCH_OPS,
        }
    }
}

/// What one pass found.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `Err` names the exit invariant the quiescent structures broke.
    exit_oracle: Result<(), String>,
    metrics: Json,
    /// Everything else the result file records about the pass.
    detail: Vec<(String, Json)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.exit_oracle.is_ok()
    }

    /// The four keys of the result object the driver reads.
    fn result(&self) -> Vec<(String, Json)> {
        vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted.max(1))),
            // A broken exit invariant is at least one failed operation.
            (
                "failed".into(),
                Json::UInt(self.failed.max(u64::from(self.exit_oracle.is_err()))),
            ),
            ("metrics".into(), self.metrics.clone()),
        ]
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs the per-op and exit oracles' tally.
fn audit<L: Workload>(wl: &L, workers: &[L::Worker<'_>]) -> (u64, u64, Result<(), String>) {
    (
        workers.iter().map(|w| w.tally().attempted).sum(),
        workers.iter().map(|w| w.tally().failed).sum(),
        wl.verify(workers),
    )
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What one fresh process measured: its set-up, one warm-up, one interval.
#[derive(Clone, Debug, PartialEq)]
struct IntervalReport {
    /// Process start to structures built, prefilled and tapes generated.
    setup_s: f64,
    /// The undisturbed level of the interval's slices.
    ops_per_s: f64,
    /// Operations over time of the whole interval, disturbed slices and all.
    whole_ops_per_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    exit_oracle: Result<(), String>,
    policy: String,
    tape_entries: Vec<f64>,
}

impl IntervalReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("ops_per_s", Json::Num(self.ops_per_s)),
            ("whole_ops_per_s", Json::Num(self.whole_ops_per_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "exit_oracle",
                self.exit_oracle.clone().err().map_or(Json::Null, Json::Str),
            ),
            ("policy", Json::Str(self.policy.clone())),
            ("tape_entries", num_array(self.tape_entries.iter().copied())),
        ])
    }

    fn from_json(j: &Json) -> Option<IntervalReport> {
        let num = |key: &str| j.get(key).and_then(Json::as_f64);
        let count = |key: &str| j.get(key).and_then(Json::as_u64);
        Some(IntervalReport {
            setup_s: num("setup_s")?,
            ops_per_s: num("ops_per_s")?,
            whole_ops_per_s: num("whole_ops_per_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            exit_oracle: match j.get("exit_oracle")? {
                Json::Str(breach) => Err(breach.clone()),
                _ => Ok(()),
            },
            policy: j.get("policy")?.as_str()?.to_string(),
            tape_entries: j
                .get("tape_entries")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
        })
    }
}

/// What an `interval` child does: set up, warm up, measure one interval
/// with tracing off, check the oracles.
fn one_interval<L: Workload>(
    seed: u64,
    plan: &Plan,
    started: Instant,
) -> Result<IntervalReport, String> {
    let wl = L::build(seed);
    let setup_s = started.elapsed().as_secs_f64();
    let mut workers: Vec<_> = (0..THREADS).map(|t| wl.worker(t)).collect();
    let m = harness::run(&wl, &mut workers, &mut [NoTrace, NoTrace], plan);
    let (attempted, failed, exit_oracle) = audit(&wl, &workers);
    Ok(IntervalReport {
        setup_s,
        // Without slices (an interval too short to cut) the whole interval
        // is all there is.
        ops_per_s: if m.slice_ops_per_s.is_empty() {
            m.ops_per_s
        } else {
            undisturbed(&m.slice_ops_per_s, true)
        },
        whole_ops_per_s: m.ops_per_s,
        peak_rss_mb: peak_rss_mb()?,
        attempted,
        failed,
        exit_oracle,
        policy: wl.policy(),
        tape_entries: wl.tapes().iter().map(|t| t.len() as f64).collect(),
    })
}

/// Runs one `interval` child of this executable and parses its report.
fn interval_in_child(workload: &str, seed: u64, plan: &Plan) -> Result<IntervalReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "interval",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .args(["--warmup-ms", &plan.warmup.as_millis().to_string()])
        .args(["--interval-ms", &plan.interval.as_millis().to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the interval child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    parse_json(text.trim())
        .ok()
        .filter(|_| out.status.success())
        .and_then(|j| IntervalReport::from_json(&j))
        .ok_or_else(|| format!("interval child failed: {} `{}`", out.status, text.trim()))
}

/// End-to-end metrics out of the intervals' reports: the undisturbed level
/// of the two timings over the processes, the median of their peak RSS.
fn summarise(reports: &[IntervalReport], spec: &Spec) -> Result<Outcome, String> {
    let column =
        |f: &dyn Fn(&IntervalReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
    let (ops, setup, rss) = (
        column(&|r| r.ops_per_s),
        column(&|r| r.setup_s),
        column(&|r| r.peak_rss_mb),
    );
    let values = [
        ("ops_per_s", undisturbed(&ops, true)),
        ("setup_s", undisturbed(&setup, false)),
        ("peak_rss_mb", median(&rss)),
    ];
    let behind = [
        ("ops_per_s", ops),
        ("whole_ops_per_s", column(&|r| r.whole_ops_per_s)),
        ("setup_s", setup),
        ("peak_rss_mb", rss),
    ];
    let first = reports.first().ok_or("no interval was measured")?;
    Ok(Outcome {
        attempted: reports.iter().map(|r| r.attempted).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        exit_oracle: reports.iter().try_for_each(|r| r.exit_oracle.clone()),
        metrics: metrics_json(&spec.end_to_end, &values)?,
        detail: vec![
            ("policy".into(), Json::Str(first.policy.clone())),
            (
                "tape_entries".into(),
                num_array(first.tape_entries.iter().copied()),
            ),
            (
                "behind".into(),
                object(
                    behind
                        .iter()
                        .map(|(n, v)| (n.to_string(), num_array(v.iter().copied()))),
                ),
            ),
        ],
    })
}

/// The end-to-end pass: tracing off, `INTERVALS` intervals, each in a fresh
/// process, summarised by [`undisturbed`] twice: over the slices of each
/// interval, then over the processes.
///
/// Why processes: on the calibration box a process keeps one throughput
/// level for its whole life and the next process of the same binary and
/// seed lands on another: a tenth away on `rmw_disjoint`, up to a factor of
/// two for the reader of `holder_coexist` (address-space layout decides
/// which tree nodes share an orec with the holder's writes; with
/// randomisation off the reader's spread between processes halves, around
/// one arbitrary draw). Intervals of one process share that draw and any
/// summary of them inherits it; intervals of `INTERVALS` processes sample it
/// that many times. Each child also times its own set-up and reads its own
/// peak RSS, so those are summarised over as many processes.
///
/// Why the undisturbed level and not the middle: see [`undisturbed`]. Twenty
/// minutes of back-to-back intervals that crossed a disturbed stretch of
/// the host, cut into runs of 24: the interquartile mean of whole intervals
/// ranged over 27 % on `stm_compose` (24 % `avl_mixed`, 28 %
/// `holder_coexist`), this summary over 11 % (13 %, 16 %).
fn end_to_end<L: Workload>(pass: &Pass, spec: &Spec) -> Result<Outcome, String> {
    let plan = pass.plan;
    let reports = (0..INTERVALS)
        .map(|_| interval_in_child(L::NAME, pass.seed, &plan))
        .collect::<Result<Vec<_>, _>>()?;
    let mut outcome = summarise(&reports, spec)?;
    outcome.detail.extend([
        ("warmup_s".into(), Json::Num(plan.warmup.as_secs_f64())),
        ("interval_s".into(), Json::Num(plan.interval.as_secs_f64())),
    ]);
    Ok(outcome)
}

/// Per-layer metrics out of the counter deltas of one run.
fn counter_metrics(c: &Counters, counted: Duration) -> Vec<(&'static str, f64)> {
    let (h, k, s) = (&c.htm, &c.core, &c.stm);
    let attempts = k.fast_commits
        + k.slow_commits
        + k.stm_commits
        + k.lock_acquisitions
        + k.fast_aborts
        + k.slow_aborts;
    let orec_conflicts = k.aborts_by_code[usize::from(rtle_core::abort_codes::OREC_CONFLICT)];
    vec![
        ("htm.starts", h.starts as f64),
        ("htm.commits", h.commits as f64),
        ("htm.commit_ratio", share(h.commits, h.starts)),
        ("htm.aborts_conflict", h.aborts_conflict as f64),
        ("htm.aborts_capacity", h.aborts_capacity as f64),
        ("htm.aborts_unsupported", h.aborts_unsupported as f64),
        ("core.attempts_per_op", share(attempts, k.ops)),
        ("core.fast_commit_share", share(k.fast_commits, k.ops)),
        ("core.slow_commit_share", share(k.slow_commits, k.ops)),
        (
            "core.lock_fallback_share",
            share(k.lock_acquisitions, k.ops),
        ),
        (
            "core.time_locked_share",
            k.time_locked.as_secs_f64() / counted.as_secs_f64(),
        ),
        ("core.orec_conflict_aborts", orec_conflicts as f64),
        ("shard.load_imbalance", c.load_imbalance),
        (
            "shard.lock_fallback_share",
            share(c.shard.lock_acquisitions, c.shard.ops),
        ),
        ("stm.spec_share", share(s.commits_spec, s.commits())),
        ("stm.sw_share", share(s.commits_sw, s.commits())),
        ("stm.locked_share", share(s.commits_locked, s.commits())),
        ("stm.plan_restarts", s.plan_restarts as f64),
        ("stm.parks", s.parks as f64),
        ("hytm.sw_commits", c.sw_commits as f64),
        (
            "hytm.sw_commit_ratio",
            share(c.sw_commits, c.sw_commits + c.sw_aborts),
        ),
        (
            "hytm.validations_per_commit",
            share(c.sw_validations, c.sw_commits),
        ),
    ]
}

/// Per-layer metrics out of the traced run's spans.
fn span_metrics<L: Workload>(bufs: &[SpanBuf], all: &TraceSummary) -> Vec<(&'static str, f64)> {
    use SpanName::*;
    let clients = TraceSummary::merge(bufs, L::LATENCY_THREADS);
    let holder = TraceSummary::merge(bufs, L::HOLDER_THREAD.as_slice());
    let avl = [AvlContains, AvlInsert, AvlRemove];
    vec![
        ("core.execute_self_ns", clients.median_self(CoreExecute)),
        ("core.holder_section_ns", holder.median_dur(CoreExecute)),
        ("avltree.body_span_ns", all.median_dur_of(&avl)),
        ("avltree.wasted_body_share", all.wasted_share(&avl)),
        (
            "shard.batch_ns_per_op",
            all.median_dur(ShardExecuteBatch) / workloads::shard_batch::BATCH as f64,
        ),
        ("shard.transfer_ns", all.median_dur(ShardTransfer)),
        ("shard.multi_get_ns", all.median_dur(ShardMultiGet)),
        ("stm.atomically_self_ns", all.median_self(StmAtomically)),
    ]
}

/// The per-layer pass: probes, a short untraced run, the traced run.
fn per_layer<L: Workload>(pass: &Pass, spec: &Spec) -> Result<Outcome, String> {
    let mut values = probes::run(pass.seed, pass.probe_ops);

    let wl = L::build(pass.seed);
    let mut workers: Vec<_> = (0..THREADS).map(|t| wl.worker(t)).collect();
    let plan = pass.plan;
    let untraced = harness::run(&wl, &mut workers, &mut [NoTrace, NoTrace], &plan);
    let epoch = Instant::now();
    let mut bufs = [SpanBuf::new(0, epoch), SpanBuf::new(1, epoch)];
    let traced = harness::run(&wl, &mut workers, &mut bufs, &plan);
    let (attempted, failed, exit_oracle) = audit(&wl, &workers);

    values.extend(counter_metrics(&traced.counters, traced.counted));
    let spans = TraceSummary::merge(&bufs, &[0, 1]);
    values.extend(span_metrics::<L>(&bufs, &spans));
    let (fast, slow) = (untraced.ops_per_s, traced.ops_per_s);
    values.push(("bench.trace_overhead_share", 1.0 - slow / fast));
    // What each client and one call saw in the untraced run: diagnostics of
    // one process, without a bound (see the README for why). A percentile
    // reads 0 when the samples do not resolve it (fewer than ten beyond it).
    let percentile = |p: Option<u32>| p.map_or(0.0, f64::from);
    values.extend([
        ("diag.holder_ops_per_s", untraced.thread_ops_per_s[0]),
        ("diag.reader_ops_per_s", untraced.thread_ops_per_s[1]),
        ("diag.call_p50_ns", percentile(untraced.call_p50_ns)),
        ("diag.call_p99_ns", percentile(untraced.call_p99_ns)),
    ]);

    let trace_file = Path::new(OUT_DIR).join(format!("trace_{}.json", L::NAME));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&trace_file, chrome_trace_json(L::NAME, &bufs)))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    Ok(Outcome {
        attempted,
        failed,
        exit_oracle,
        metrics: metrics_json(&spec.per_layer, &values)?,
        detail: vec![
            ("policy".into(), Json::Str(wl.policy())),
            ("interval_s".into(), Json::Num(plan.interval.as_secs_f64())),
            (
                "latency_samples".into(),
                Json::UInt(untraced.latency_samples as u64),
            ),
            (
                "latency_sampling".into(),
                Json::Str(format!(
                    "1 in {LATENCY_EVERY} calls of threads {:?}",
                    L::LATENCY_THREADS
                )),
            ),
            ("untraced_ops_per_s".into(), Json::Num(fast)),
            ("traced_ops_per_s".into(), Json::Num(slow)),
            (
                "trace_file".into(),
                Json::Str(trace_file.display().to_string()),
            ),
            (
                "span_counts".into(),
                object(
                    SpanName::ALL
                        .iter()
                        .map(|&n| (n.as_str().to_string(), Json::UInt(spans.count(n)))),
                ),
            ),
        ],
    })
}

/// One pass of workload `L`; prints every metric by name with its unit.
fn measure<L: Workload>(pass: &Pass) -> Result<Outcome, String> {
    let spec = Spec::embedded();
    let outcome = if pass.traced {
        per_layer::<L>(pass, &spec)?
    } else {
        end_to_end::<L>(pass, &spec)?
    };
    if let Json::Obj(metrics) = &outcome.metrics {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{:<16}{name:<32}{value:>18.4} {unit}", L::NAME);
        }
    }
    if let Err(breach) = &outcome.exit_oracle {
        eprintln!("{}: exit oracle failed: {breach}", L::NAME);
    }
    Ok(outcome)
}

/// Refuses to measure with fewer cores than client threads.
fn require_cores() -> Result<(), String> {
    if nproc() < THREADS {
        return Err(format!(
            "{} cores for {THREADS} client threads: the clients would time-share a core and \
             the numbers would measure the scheduler; refusing to emit results",
            nproc()
        ));
    }
    Ok(())
}

fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let seconds = flags.number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let traced = match flags.required("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let pass = Pass::of_seconds(flags.number("seed")?, seconds, traced);
    require_cores()?;
    // An incorrect run still reports (with `"correct": false`); only a run
    // that could not measure exits non-zero.
    let outcome = with_workload!(flags.required("workload")?, measure(&pass))?;
    println!("{}", object(outcome.result()));
    Ok(ExitCode::SUCCESS)
}

/// The hidden `interval` subcommand [`end_to_end`] runs its children as:
/// prints one [`IntervalReport`] as JSON.
fn cmd_interval(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "warmup-ms", "interval-ms"])?;
    let seed = flags.number("seed")?;
    let plan = Plan {
        warmup: Duration::from_millis(flags.number("warmup-ms")?),
        interval: Duration::from_millis(flags.number("interval-ms")?),
    };
    let report = with_workload!(
        flags.required("workload")?,
        one_interval(seed, &plan, started)
    )?;
    println!("{}", report.to_json());
    Ok(ExitCode::SUCCESS)
}

/// First line of `program args...`'s output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "out"])?;
    let spec = Spec::embedded();
    let seed = flags.number("seed")?;
    let out = PathBuf::from(flags.required("out")?);
    require_cores()?;

    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for workload in &spec.workloads {
        let mut sections = Vec::new();
        for (section, traced) in [("end_to_end", false), ("per_layer", true)] {
            let pass = Pass::of_seconds(seed, spec.run_seconds, traced);
            let outcome = with_workload!(workload.as_str(), measure(&pass))?;
            all_correct &= outcome.correct();
            let mut doc = outcome.result();
            doc.extend(outcome.detail);
            if let Err(breach) = outcome.exit_oracle {
                doc.push(("exit_oracle".into(), Json::Str(breach)));
            }
            sections.push((section.to_string(), object(doc)));
        }
        per_workload.push((workload.clone(), object(sections)));
    }

    let doc = Json::obj([
        ("tool", Json::Str("rtle-benchmark".into())),
        ("seed", Json::UInt(seed)),
        ("run_seconds", Json::UInt(spec.run_seconds)),
        ("threads", Json::UInt(THREADS as u64)),
        ("nproc", Json::UInt(nproc() as u64)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads", object(per_workload)),
    ]);
    std::fs::write(&out, doc.to_string_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "an oracle failed: see `correct`/`exit_oracle` in {}",
            out.display()
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two comma-separated lists of result files".into());
    };
    let load = |paths: &String| -> Result<Vec<Json>, String> {
        paths
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                parse_json(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    let rows = report::compare(&Spec::embedded(), &load(a)?, &load(b)?)?;
    println!(
        "{:<16}{:<18}{:>14}{:>14} {:<6}{:>22}{:>8}{:>8}  verdict",
        "workload", "metric", "a", "b", "unit", "b/a (base a)", "bound", "spread"
    );
    for r in &rows {
        println!(
            "{:<16}{:<18}{:>14.4}{:>14.4} {:<6}{:>10.4} ({:>9.4}){:>7.0}%{:>8}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.b / r.a,
            r.a,
            r.bound * 100.0,
            // Not measured with one run per side.
            r.spread
                .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(match (count(Verdict::Worse), count(Verdict::Unresolved)) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(2),
        _ => ExitCode::FAILURE,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("interval") => cmd_interval(&args[1..], started),
        Some(flag) if flag.starts_with("--") => cmd_measure(&args),
        _ => Err(
            "usage: rtle-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                  \x20      rtle-benchmark run --seed <n> --out <file>\n\
                  \x20      rtle-benchmark compare <a.json>[,<a.json>...] <b.json>[,<b.json>...]"
                .into(),
        ),
    };
    result.unwrap_or_else(|message| {
        eprintln!("rtle-benchmark: {message}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests;
