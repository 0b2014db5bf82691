//! The closed-loop driver shared by all workloads.
//!
//! Two client threads each replay their own op tape: the next call is
//! issued when the previous one returns, as a caller of a lock library
//! does. Nothing is shared between the clients in the loop itself — each
//! reads the clock around one call in [`LATENCY_EVERY`], uses that same
//! reading to notice the interval's and its slices' boundaries, and logs its
//! own (time, ops) marks — so the harness adds no cache line the program
//! under test does not already contend on.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use rtle_core::StatsSnapshot;
use rtle_htm::HtmStats;
use rtle_stm::StmStatsSnapshot;

use crate::stats::percentile;
use crate::trace::Trace;

/// Client threads of every workload. Callers of a lock library are the
/// machine's cores; the box this benchmark is calibrated on has two.
pub const THREADS: usize = 2;

/// One public call in this many is timed, per thread.
pub const LATENCY_EVERY: u64 = 64;

/// Slices a measured interval is cut into (50 ms each at the catalogue's
/// run length): what [`crate::stats::undisturbed`] picks the interval's
/// rate from.
pub const SLICES: usize = 15;

/// Entries per thread tape (replayed cyclically).
pub const TAPE_LEN: usize = 1 << 20;

/// One workload: the structures under test plus the per-thread op tapes,
/// all generated from the seed at set-up.
pub trait Workload: Sync + Sized {
    const NAME: &'static str;
    /// Threads whose calls feed `diag.call_p50_ns`/`diag.call_p99_ns` and the
    /// layer-span medians (all clients, unless the roles differ).
    const LATENCY_THREADS: &'static [usize] = &[0, 1];
    /// The client that holds the lock by design, if the workload has one.
    const HOLDER_THREAD: Option<usize> = None;

    type Worker<'a>: Worker
    where
        Self: 'a;

    /// Builds the structures, prefills them and generates the tapes.
    fn build(seed: u64) -> Self;
    /// The pinned `ElisionPolicy`/`RetryPolicy`, for the result file.
    fn policy(&self) -> String;
    /// Client `tid`'s replay state (tape position and private oracle).
    fn worker(&self, tid: usize) -> Self::Worker<'_>;
    /// The tapes, one per client.
    fn tapes(&self) -> &[Vec<u64>];
    /// Public stats snapshots of every layer the workload drives.
    fn counters(&self) -> Counters;
    /// Exit oracle over the quiescent structures; `Err` names the breach.
    fn verify(&self, workers: &[Self::Worker<'_>]) -> Result<(), String>;
}

/// One client's replay state.
pub trait Worker: Send {
    /// Replays the next tape entry through one public call, checks the
    /// result against the private oracle, and returns the number of
    /// logical operations the call completed.
    fn call<T: Trace>(&mut self, tr: &T) -> u64;
    /// The per-op oracle's count so far.
    fn tally(&self) -> Tally;
}

/// Operations compared with an oracle, and those that disagreed with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one compared operation; `ok` says whether it agreed.
    #[inline]
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Snapshots of the layers' public counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub htm: HtmStats,
    pub core: StatsSnapshot,
    pub stm: StmStatsSnapshot,
    /// Software-TM (`hytm`) commits, aborts and read-set validations,
    /// summed over the backends the workload's locks carry.
    pub sw_commits: u64,
    pub sw_aborts: u64,
    pub sw_validations: u64,
    /// Merged stats of the workload's sharded map (zero without one) and
    /// `max/mean` of the operations routed per shard since construction.
    pub shard: StatsSnapshot,
    pub load_imbalance: f64,
}

impl Counters {
    /// Deltas relative to `earlier` (gauges keep the later value).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let (a, b) = (&self.stm, &earlier.stm);
        Counters {
            htm: self.htm.since(&earlier.htm),
            core: self.core.since(&earlier.core),
            stm: StmStatsSnapshot {
                commits_spec: a.commits_spec - b.commits_spec,
                commits_sw: a.commits_sw - b.commits_sw,
                commits_locked: a.commits_locked - b.commits_locked,
                parks: a.parks - b.parks,
                wakes_notified: a.wakes_notified - b.wakes_notified,
                wakes_timeout: a.wakes_timeout - b.wakes_timeout,
                retry_reruns: a.retry_reruns - b.retry_reruns,
                plan_restarts: a.plan_restarts - b.plan_restarts,
                wakeups_sent: a.wakeups_sent - b.wakeups_sent,
            },
            sw_commits: self.sw_commits - earlier.sw_commits,
            sw_aborts: self.sw_aborts - earlier.sw_aborts,
            sw_validations: self.sw_validations - earlier.sw_validations,
            shard: self.shard.since(&earlier.shard),
            load_imbalance: self.load_imbalance,
        }
    }
}

/// How long one run warms up and then measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: Duration,
    pub interval: Duration,
}

/// What one client logged over the measured interval.
struct ClientLog {
    /// (time, ops so far): the end of the warm-up, every slice boundary the
    /// client noticed, the end of the interval.
    marks: Vec<(u64, u64)>,
    /// Nanoseconds, saturating at 4.29 s: half the memory of `u64`, so the
    /// harness's own buffers stay a small part of `peak_rss_mb`.
    samples: Vec<u32>,
}

impl ClientLog {
    fn first(&self) -> (u64, u64) {
        self.marks[0]
    }

    fn last(&self) -> (u64, u64) {
        self.marks[self.marks.len() - 1]
    }

    /// Operations completed by time `t`, interpolated between the marks.
    fn ops_at(&self, t: u64) -> f64 {
        let next = self.marks.partition_point(|&(at, _)| at <= t);
        if next == 0 {
            return self.first().1 as f64;
        }
        let (t_a, ops_a) = self.marks[next - 1];
        match self.marks.get(next) {
            Some(&(t_b, ops_b)) => {
                ops_a as f64 + (ops_b - ops_a) as f64 * (t - t_a) as f64 / (t_b - t_a) as f64
            }
            None => ops_a as f64,
        }
    }
}

/// Ops/s of all clients together in each of [`SLICES`] equal slices of the
/// time every client was inside its measured interval.
fn slice_rates(logs: &[ClientLog]) -> Vec<f64> {
    let from = logs.iter().map(|l| l.first().0).max().unwrap_or(0);
    let to = logs.iter().map(|l| l.last().0).min().unwrap_or(0);
    if to <= from {
        return Vec::new();
    }
    let edge = |i: usize| from + (to - from) * i as u64 / SLICES as u64;
    (0..SLICES)
        .map(|i| {
            let (a, b) = (edge(i), edge(i + 1));
            let ops: f64 = logs.iter().map(|l| l.ops_at(b) - l.ops_at(a)).sum();
            ops / ((b - a).max(1) as f64 / 1e9)
        })
        .collect()
}

fn client_loop<W: Worker, T: Trace>(w: &mut W, tr: &T, t0: Instant, plan: &Plan) -> ClientLog {
    let warm_ns = plan.warmup.as_nanos() as u64;
    let end_ns = warm_ns + plan.interval.as_nanos() as u64;
    let slice_ns = (plan.interval.as_nanos() as u64 / SLICES as u64).max(1);
    let mut samples = Vec::with_capacity(1 << 18);
    let mut marks = Vec::with_capacity(SLICES + 2);
    let mut next_mark = warm_ns;
    let (mut ops, mut calls) = (0u64, 0u64);
    loop {
        if calls % LATENCY_EVERY != 0 {
            ops += w.call(tr);
            calls += 1;
            continue;
        }
        let before = t0.elapsed().as_nanos() as u64;
        ops += w.call(tr);
        calls += 1;
        let after = t0.elapsed().as_nanos() as u64;
        if marks.is_empty() {
            if after < warm_ns {
                continue;
            }
            tr.start_recording();
        } else {
            samples.push(u32::try_from(after - before).unwrap_or(u32::MAX));
        }
        if after >= next_mark || after >= end_ns {
            marks.push((after, ops));
            // The first boundary after now: a stall that spans several
            // slices leaves one mark, not a burst of empty slices.
            next_mark = warm_ns + ((after - warm_ns) / slice_ns + 1) * slice_ns;
        }
        if after >= end_ns {
            return ClientLog { marks, samples };
        }
    }
}

/// The measured interval of one run.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Logical operations per second, all clients.
    pub ops_per_s: f64,
    /// The same for each client alone.
    pub thread_ops_per_s: [f64; THREADS],
    /// Ops/s of all clients in each slice of the interval.
    pub slice_ops_per_s: Vec<f64>,
    /// Latency of one public call over the sampled calls of the workload's
    /// latency threads; `None` when the samples do not resolve it.
    pub call_p50_ns: Option<u32>,
    pub call_p99_ns: Option<u32>,
    pub latency_samples: usize,
    /// Layer counter deltas from the end of the warm-up to the end of the run.
    pub counters: Counters,
    /// Wall time the counter deltas cover.
    pub counted: Duration,
}

/// Runs `workers` (one per client thread) closed-loop for `plan`, each
/// recording through its own tracer, and returns the interval's numbers.
pub fn run<L: Workload, T: Trace + Send>(
    wl: &L,
    workers: &mut [L::Worker<'_>],
    tracers: &mut [T],
    plan: &Plan,
) -> Measured {
    assert_eq!(workers.len(), THREADS);
    assert_eq!(tracers.len(), THREADS);
    let start = Barrier::new(THREADS + 1);
    let (logs, before, counted_from) = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(w, tr)| {
                let start = &start;
                s.spawn(move || {
                    // Each client's time zero is its own exit from the
                    // barrier: they leave it within microseconds of each
                    // other, and the interval is over a second long.
                    start.wait();
                    client_loop(w, &*tr, Instant::now(), plan)
                })
            })
            .collect();
        start.wait();
        // This thread sleeps through the warm-up and snapshots the
        // counters at its end (off by a wake-up, against seconds counted).
        std::thread::sleep(plan.warmup);
        let before = wl.counters();
        let counted_from = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, before, counted_from)
    });
    let counted = counted_from.elapsed();
    let counters = wl.counters().since(&before);

    let mut thread_ops_per_s = [0.0; THREADS];
    for (rate, log) in thread_ops_per_s.iter_mut().zip(&logs) {
        let ((t_a, ops_a), (t_b, ops_b)) = (log.first(), log.last());
        *rate = (ops_b - ops_a) as f64 / ((t_b - t_a).max(1) as f64 / 1e9);
    }
    let slice_ops_per_s = slice_rates(&logs);
    let mut samples: Vec<u32> = L::LATENCY_THREADS
        .iter()
        .flat_map(|&t| logs[t].samples.iter().copied())
        .collect();
    Measured {
        ops_per_s: thread_ops_per_s.iter().sum(),
        thread_ops_per_s,
        slice_ops_per_s,
        call_p50_ns: percentile(&mut samples, 0.5),
        call_p99_ns: percentile(&mut samples, 0.99),
        latency_samples: samples.len(),
        counters,
        counted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_rates_interpolate_each_client_and_sum_them() {
        // 15 slices of 1 ms. Client A is steady at 100 K ops/s; client B
        // marks a stall over the middle third and runs at A's rate around it.
        let ms = 1_000_000;
        let a = ClientLog {
            marks: vec![(0, 0), (15 * ms, 1500)],
            samples: Vec::new(),
        };
        let b = ClientLog {
            marks: vec![(0, 7), (5 * ms, 507), (10 * ms, 507), (15 * ms, 1007)],
            samples: Vec::new(),
        };
        assert_eq!(b.ops_at(0), 7.0);
        assert_eq!(b.ops_at(2 * ms + ms / 2), 257.0);
        assert_eq!(b.ops_at(7 * ms), 507.0);
        assert_eq!(b.ops_at(99 * ms), 1007.0);
        let rates = slice_rates(&[a, b]);
        assert_eq!(rates.len(), SLICES);
        for (i, rate) in rates.iter().enumerate() {
            let want = if (5..10).contains(&i) { 1e5 } else { 2e5 };
            assert!((rate - want).abs() < 1.0, "slice {i}: {rate}");
        }
        // Clients whose intervals do not overlap have no common slice.
        let early = ClientLog {
            marks: vec![(0, 0), (ms, 10)],
            samples: Vec::new(),
        };
        let late = ClientLog {
            marks: vec![(2 * ms, 0), (3 * ms, 10)],
            samples: Vec::new(),
        };
        assert!(slice_rates(&[early, late]).is_empty());
    }
}
