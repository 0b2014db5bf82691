//! `tm_bench`: three-way software-TM comparison — NOrec vs TL2 vs the
//! full RTLE stack — on the workload mixes where their designs differ.
//!
//! * **disjoint-write**: every thread writes only its own key partition.
//!   TL2's per-stripe write locks let all writers commit concurrently;
//!   NOrec serializes every writer on its single global clock (and a
//!   writer preempted mid-commit leaves everyone spinning on an odd
//!   clock), so this mix is where TL2's extra read-barrier cost pays off.
//! * **shared-hot-key**: all threads hammer one cell. Value-based
//!   validation (NOrec) shrugs off clock churn when the value happens to
//!   be unchanged; version-based validation (TL2) aborts on every stripe
//!   bump. Neither beats HTM here — the mix exists to show the trade-off.
//! * **read-mostly**: long reads, rare writes — every runtime should do
//!   well; regressions here are barrier overhead, not algorithm.
//!
//! Every engine executes the *same* closure through the word-level
//! [`DynAccess`] barrier, so measured differences are runtime, not
//! workload. Committed operations over a fixed wall-clock duration is
//! the headline number; the JSON export reshapes it as ns/commit so the
//! rows read lower = better like every other exported row.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::{DynAccess, TxAccess, TxCell};
use rtle_hytm::{Norec, Tl2};

use crate::report::BenchResult;

/// Thread count both the baseline rows and the acceptance ratio use.
pub const DEFAULT_THREADS: usize = 8;
/// Keys owned by each thread (the disjoint-write partition size).
const CELLS_PER_THREAD: usize = 64;
/// Cells touched per disjoint-write transaction.
const TOUCH: usize = 8;
/// Read-mostly: one write every this many transactions.
const WRITE_PERIOD: u64 = 16;

/// One of the three compared runtimes, each wrapping the same barrier.
pub enum TmEngine {
    /// Pure NOrec software transactions (no hardware attempts).
    Norec(Norec),
    /// Pure TL2 software transactions (no hardware attempts).
    Tl2(Tl2),
    /// The full refined-TLE stack: HTM fast/slow paths over the lock.
    /// Boxed so the enum stays near the software-TM variants' size.
    Rtle(Box<ElidableLock>),
}

impl TmEngine {
    /// Stable engine label (JSON row key component).
    pub fn label(&self) -> &'static str {
        match self {
            TmEngine::Norec(_) => "norec",
            TmEngine::Tl2(_) => "tl2",
            TmEngine::Rtle(_) => "rtle",
        }
    }

    /// Runs one transaction of `body` to commit.
    fn run(&self, body: &dyn Fn(&dyn DynAccess)) {
        match self {
            TmEngine::Norec(tm) => tm.execute(|ctx| body(ctx)),
            TmEngine::Tl2(tm) => tm.execute(|ctx| body(ctx)),
            TmEngine::Rtle(lock) => lock.execute(|ctx| body(ctx)),
        }
    }

    /// A fresh instance of every compared engine, in stable order.
    pub fn fleet() -> Vec<TmEngine> {
        vec![
            TmEngine::Norec(Norec::new()),
            TmEngine::Tl2(Tl2::new()),
            TmEngine::Rtle(Box::new(
                ElidableLock::builder()
                    .policy(ElisionPolicy::FgTle { orecs: 4096 })
                    .build(),
            )),
        ]
    }
}

/// The compared workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmMix {
    /// Per-thread key partitions, write-heavy.
    DisjointWrite,
    /// One cell everybody increments.
    SharedHotKey,
    /// Scattered reads, 1-in-16 writes.
    ReadMostly,
}

impl TmMix {
    /// All mixes, in report order.
    pub const ALL: [TmMix; 3] = [TmMix::DisjointWrite, TmMix::SharedHotKey, TmMix::ReadMostly];

    /// Stable mix label (JSON row key component).
    pub fn label(self) -> &'static str {
        match self {
            TmMix::DisjointWrite => "disjoint-write",
            TmMix::SharedHotKey => "shared-hot-key",
            TmMix::ReadMostly => "read-mostly",
        }
    }

    /// JSON-row-safe form of the label.
    fn key(self) -> &'static str {
        match self {
            TmMix::DisjointWrite => "disjoint_write",
            TmMix::SharedHotKey => "shared_hot_key",
            TmMix::ReadMostly => "read_mostly",
        }
    }

    /// One transaction of this mix for thread `t`, iteration `i`, over a
    /// table of `threads * CELLS_PER_THREAD` cells. All shared accesses go
    /// through `a`, so the closure is retry-safe on every engine.
    fn transact(self, a: &dyn DynAccess, cells: &[TxCell<u64>], t: usize, i: u64) {
        let base = t * CELLS_PER_THREAD;
        match self {
            TmMix::DisjointWrite => {
                for k in 0..TOUCH as u64 {
                    let c = &cells[base + ((i * 7 + k * 5) % CELLS_PER_THREAD as u64) as usize];
                    let v = a.load(c);
                    a.store(c, v + 1);
                }
            }
            TmMix::SharedHotKey => {
                let hot = &cells[0];
                let v = a.load(hot);
                a.store(hot, v + 1);
                let own = &cells[base + (i % CELLS_PER_THREAD as u64) as usize];
                let w = a.load(own);
                a.store(own, w + 1);
            }
            TmMix::ReadMostly => {
                let mut acc = 0u64;
                for k in 0..TOUCH as u64 {
                    let c = &cells[((i * 31 + k * 13 + t as u64) % cells.len() as u64) as usize];
                    acc = acc.wrapping_add(a.load(c));
                }
                std::hint::black_box(acc);
                if i.is_multiple_of(WRITE_PERIOD) {
                    let own = &cells[base + (i % CELLS_PER_THREAD as u64) as usize];
                    let v = a.load(own);
                    a.store(own, v + 1);
                }
            }
        }
    }

    /// Increments a committed transaction contributes to the table sum —
    /// the conservation oracle the tests check. `None` when it depends on
    /// the iteration index (read-mostly).
    fn increments_per_commit(self) -> Option<u64> {
        match self {
            TmMix::DisjointWrite => Some(TOUCH as u64),
            TmMix::SharedHotKey => Some(2),
            TmMix::ReadMostly => None,
        }
    }
}

/// One engine × mix measurement.
#[derive(Debug, Clone)]
pub struct TmMeasurement {
    /// Engine label ("norec" / "tl2" / "rtle").
    pub engine: &'static str,
    /// Mix label ("disjoint-write" / ...).
    pub mix: &'static str,
    /// JSON row name, `tm_<engine>_<mix>_<threads>thr`.
    pub row: String,
    /// Transactions committed across all threads.
    pub committed: u64,
    /// Wall-clock measurement duration.
    pub elapsed: Duration,
    /// Worker thread count.
    pub threads: usize,
}

impl TmMeasurement {
    /// Thread-seconds per committed transaction, in ns — the
    /// lower-is-better reshaping the exported rows use.
    pub fn ns_per_commit(&self) -> f64 {
        self.elapsed.as_nanos() as f64 * self.threads as f64 / self.committed.max(1) as f64
    }

    /// The perf-baseline row for this measurement.
    pub fn to_bench_result(&self) -> BenchResult {
        BenchResult {
            name: self.row.clone(),
            ns_per_op: self.ns_per_commit(),
        }
    }
}

/// Runs `mix` on `engine` with `threads` workers for `dur` and returns
/// the measurement. Also checks write conservation where the mix's
/// per-commit increment count is fixed — a committed-ops number that
/// double-counts or loses transactions would make the whole comparison
/// meaningless.
pub fn run_mix(engine: &TmEngine, mix: TmMix, threads: usize, dur: Duration) -> TmMeasurement {
    let cells: Vec<TxCell<u64>> = (0..threads * CELLS_PER_THREAD)
        .map(|_| TxCell::new(0))
        .collect();
    let committed = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + dur;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (cells, committed, engine) = (&cells, &committed, &engine);
            scope.spawn(move || {
                let mut local = 0u64;
                let mut i = 0u64;
                while Instant::now() < deadline {
                    engine.run(&|a| mix.transact(a, cells, t, i));
                    local += 1;
                    i += 1;
                }
                committed.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    let committed = committed.load(Ordering::Relaxed);
    if let Some(per) = mix.increments_per_commit() {
        let sum: u64 = cells.iter().map(TxCell::read_plain).sum();
        assert_eq!(
            sum,
            committed * per,
            "{} on {}: table sum disagrees with committed count",
            mix.label(),
            engine.label()
        );
    }
    TmMeasurement {
        engine: engine.label(),
        mix: mix.label(),
        row: format!("tm_{}_{}_{threads}thr", engine.label(), mix.key()),
        committed,
        elapsed,
        threads,
    }
}

/// The full three-way sweep: every mix × every engine, best-of-`trials`
/// by committed count. Fresh engines per trial, so clocks and stripe
/// tables start cold each time. Best-of matters on oversubscribed hosts:
/// a single descheduled NOrec committer convoys the whole run, and
/// best-of-N keeps that scheduler roulette out of the regression gate
/// while still showing the *capability* of each runtime.
pub fn run_suite(threads: usize, dur: Duration, trials: usize) -> Vec<TmMeasurement> {
    let mut out = Vec::new();
    for mix in TmMix::ALL {
        let mut best: Vec<Option<TmMeasurement>> = vec![None; 3];
        for _ in 0..trials.max(1) {
            for (slot, engine) in TmEngine::fleet().iter().enumerate() {
                let m = run_mix(engine, mix, threads, dur);
                if best[slot].as_ref().is_none_or(|b| m.committed > b.committed) {
                    best[slot] = Some(m);
                }
            }
        }
        out.extend(best.into_iter().flatten());
    }
    out
}

/// Committed-ops ratio `num_engine / den_engine` on `mix`, if both rows
/// are present.
pub fn committed_ratio(
    results: &[TmMeasurement],
    mix: TmMix,
    num_engine: &str,
    den_engine: &str,
) -> Option<f64> {
    let find = |e: &str| {
        results
            .iter()
            .find(|m| m.mix == mix.label() && m.engine == e)
    };
    let num = find(num_engine)?.committed;
    let den = find(den_engine)?.committed.max(1);
    Some(num as f64 / den as f64)
}

/// Renders the comparison table plus the headline TL2-vs-NOrec ratio
/// line the acceptance gate greps for.
pub fn render(results: &[TmMeasurement], threads: usize, dur: Duration) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== tm_bench: NOrec vs TL2 vs RTLE ({threads} threads, {}ms/mix, committed ops) ==",
        dur.as_millis()
    );
    let engines = ["norec", "tl2", "rtle"];
    let _ = write!(s, "{:<16}", "mix");
    for e in engines {
        let _ = write!(s, "{e:>12}");
    }
    let _ = writeln!(s);
    for mix in TmMix::ALL {
        let _ = write!(s, "{:<16}", mix.label());
        for e in engines {
            let c = results
                .iter()
                .find(|m| m.mix == mix.label() && m.engine == e)
                .map_or(0, |m| m.committed);
            let _ = write!(s, "{c:>12}");
        }
        let _ = writeln!(s);
    }
    if let Some(r) = committed_ratio(results, TmMix::DisjointWrite, "tl2", "norec") {
        let _ = writeln!(
            s,
            "disjoint-write: tl2/norec committed-ops ratio = {r:.2}"
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every engine commits every mix, the conservation oracle inside
    /// `run_mix` holds, and row names are stable.
    #[test]
    fn three_way_smoke_commits_and_conserves() {
        let dur = Duration::from_millis(25);
        let results = run_suite(2, dur, 1);
        assert_eq!(results.len(), 9, "3 mixes x 3 engines");
        for m in &results {
            assert!(m.committed > 0, "{} on {} committed nothing", m.mix, m.engine);
            assert!(m.ns_per_commit().is_finite() && m.ns_per_commit() > 0.0);
        }
        assert!(results.iter().any(|m| m.row == "tm_tl2_disjoint_write_2thr"));
        let text = render(&results, 2, dur);
        assert!(text.contains("disjoint-write: tl2/norec committed-ops ratio ="), "{text}");
        assert!(
            committed_ratio(&results, TmMix::DisjointWrite, "tl2", "norec").is_some()
        );
    }

    #[test]
    fn baseline_rows_reshape_to_ns_per_commit() {
        let m = TmMeasurement {
            engine: "tl2",
            mix: "disjoint-write",
            row: "tm_tl2_disjoint_write_8thr".into(),
            committed: 1000,
            elapsed: Duration::from_millis(100),
            threads: 8,
        };
        let r = m.to_bench_result();
        assert_eq!(r.name, "tm_tl2_disjoint_write_8thr");
        // 100ms * 8 threads / 1000 commits = 800_000 ns/commit.
        assert!((r.ns_per_op - 800_000.0).abs() < 1e-6);
    }
}
