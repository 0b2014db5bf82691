//! Execution statistics, mirroring the "various lightweight statistics" the
//! paper instruments its runs with (§6.2.1): per-path commit counts, abort
//! counts by cause, lock acquisitions, and total time spent with the lock
//! held. Figures 6 and 7 are plotted directly from these quantities.
//!
//! Each fact is counted once: a commit bumps its path's word and nothing
//! else. A total — [`StatsSnapshot::ops`], the sum of the per-path
//! commits — is summed by [`ExecStats::snapshot`], never counted.

use std::time::Duration;

use rtle_htm::lanes::Lanes;
use rtle_htm::AbortCode;
use rtle_obs::{PathKind, PATHS};

// Counter indices into the lanes.
/// Commits per path: `COMMITS + PathKind::index()`, 0..=3.
const COMMITS: usize = 0;
const FAST_ABORTS: usize = 4;
const _: () = assert!(FAST_ABORTS == COMMITS + PATHS);
const SLOW_ABORTS: usize = 5;
/// Aborts reported against a path that cannot abort at this level — a
/// caller bug (the pessimistic path completes in one attempt; a software
/// backend retries internally and keeps its own abort books), but counted
/// rather than silently dropped so release-build misuse is observable.
const LOCK_PATH_ABORTS: usize = 6;
const TIME_LOCKED_NS: usize = 7;
/// Aborts per class: `ABORTS + AbortCode::index()`.
const ABORTS: usize = 8;
/// Explicit aborts broken down by runtime code: `ABORTS_BY_CODE + b` for
/// the code's `AbortCode::explicit_bucket` `b` (`crate::abort_codes::*`).
const ABORTS_BY_CODE: usize = ABORTS + AbortCode::KINDS;
const COUNTERS: usize = ABORTS_BY_CODE + AbortCode::EXPLICIT_CODES;

/// Relaxed counters attached to one [`crate::ElidableLock`], kept in
/// per-thread lanes: counting an operation is a plain store to a line no
/// other running thread writes, and — the lanes being block-aligned — not
/// one the lock word or the lock's read-mostly configuration lives on.
#[derive(Debug, Default)]
pub struct ExecStats {
    lanes: Lanes<COUNTERS>,
}

impl ExecStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// One critical section completed by committing on `path`.
    #[inline]
    pub(crate) fn record_commit(&self, path: PathKind) {
        self.lanes.add(COMMITS + path.index(), 1);
    }

    #[inline]
    pub(crate) fn record_abort(&self, path: PathKind, code: AbortCode) {
        let lane = self.lanes.mine();
        lane.add(
            match path {
                PathKind::FastHtm => FAST_ABORTS,
                PathKind::SlowHtm => SLOW_ABORTS,
                PathKind::Stm | PathKind::Lock => {
                    debug_assert!(false, "{path:?} path cannot abort (code {code:?})");
                    LOCK_PATH_ABORTS
                }
            },
            1,
        );
        lane.add(ABORTS + code.index(), 1);
        if let Some(bucket) = code.explicit_bucket() {
            lane.add(ABORTS_BY_CODE + bucket, 1);
        }
    }

    /// One holding of the lock, `ns` long.
    #[inline]
    pub(crate) fn record_time_locked(&self, ns: u64) {
        self.lanes.add(TIME_LOCKED_NS, ns);
    }

    /// Number of slow-path HTM commits so far (used by the adaptive
    /// heuristic as its benefit signal).
    #[inline]
    pub(crate) fn slow_commits_now(&self) -> u64 {
        self.lanes.sum(COMMITS + PathKind::SlowHtm.index())
    }

    #[inline]
    pub(crate) fn slow_aborts_now(&self) -> u64 {
        self.lanes.sum(SLOW_ABORTS)
    }

    /// Consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let c = self.lanes.sums();
        let aborts = |code: AbortCode| c[ABORTS + code.index()];
        StatsSnapshot {
            ops: c[COMMITS..COMMITS + PATHS].iter().sum(),
            fast_commits: c[COMMITS + PathKind::FastHtm.index()],
            slow_commits: c[COMMITS + PathKind::SlowHtm.index()],
            stm_commits: c[COMMITS + PathKind::Stm.index()],
            lock_acquisitions: c[COMMITS + PathKind::Lock.index()],
            fast_aborts: c[FAST_ABORTS],
            slow_aborts: c[SLOW_ABORTS],
            aborts_conflict: aborts(AbortCode::Conflict),
            aborts_capacity: aborts(AbortCode::Capacity),
            aborts_explicit: aborts(AbortCode::Explicit(0)),
            aborts_unsupported: aborts(AbortCode::Unsupported),
            aborts_other: aborts(AbortCode::Nested) + aborts(AbortCode::Spurious),
            aborts_by_code: std::array::from_fn(|i| c[ABORTS_BY_CODE + i]),
            lock_path_aborts: c[LOCK_PATH_ABORTS],
            time_locked: Duration::from_nanos(c[TIME_LOCKED_NS]),
            taken_at_ns: rtle_obs::epoch::now_ns(),
        }
    }
}

/// Immutable view of [`ExecStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Critical sections completed (by any path): the sum of
    /// [`StatsSnapshot::commits`], taken by [`ExecStats::snapshot`].
    pub ops: u64,
    /// Commits on the uninstrumented fast path.
    pub fast_commits: u64,
    /// Commits on the instrumented slow path (concurrent with a holder).
    pub slow_commits: u64,
    /// Commits on a pluggable software-TM backend (the lock-free
    /// fallback installed via `with_software_backend`; zero without one).
    pub stm_commits: u64,
    /// Times the lock was actually acquired (pessimistic executions).
    pub lock_acquisitions: u64,
    /// Hardware aborts on the fast path.
    pub fast_aborts: u64,
    /// Hardware aborts on the slow path.
    pub slow_aborts: u64,
    /// Aborts caused by data conflicts.
    pub aborts_conflict: u64,
    /// Aborts caused by capacity overflow.
    pub aborts_capacity: u64,
    /// Explicit aborts (see [`crate::abort_codes`] and `aborts_by_code`).
    pub aborts_explicit: u64,
    /// Aborts from HTM-unfriendly operations.
    pub aborts_unsupported: u64,
    /// Nested/spurious aborts.
    pub aborts_other: u64,
    /// Explicit aborts by runtime code (index = `crate::abort_codes::*`);
    /// a code at or past [`AbortCode::EXPLICIT_CODES`] counts only in
    /// `aborts_explicit`.
    pub aborts_by_code: [u64; AbortCode::EXPLICIT_CODES],
    /// Aborts misreported against the pessimistic path (always 0 unless a
    /// caller violates the recording contract; see `ExecStats`).
    pub lock_path_aborts: u64,
    /// Total wall time some thread held the lock.
    pub time_locked: Duration,
    /// When this snapshot was taken, in ns since the process-start
    /// monotonic epoch ([`rtle_obs::epoch`]) — the same timebase live
    /// scrapes, window series, and flight records use, so offline
    /// reports can be lined up against a scrape of the same run. Zero
    /// for hand-built snapshots. `merge` keeps the later stamp; `since`
    /// yields the interval between the two snapshots.
    pub taken_at_ns: u64,
}

impl StatsSnapshot {
    /// Commits per path, in [`PathKind::index`] order (the lock path's
    /// are the acquisitions).
    pub fn commits(&self) -> [u64; PATHS] {
        [
            self.fast_commits,
            self.slow_commits,
            self.stm_commits,
            self.lock_acquisitions,
        ]
    }

    /// Fraction of completed operations that fell back to the lock — the
    /// "failure rate" the paper quotes for ccTSA (§6.4.2).
    pub fn lock_fallback_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.lock_acquisitions as f64 / self.ops as f64
        }
    }

    /// Completed operations per millisecond of `elapsed` wall time — the
    /// paper's throughput metric.
    pub fn ops_per_ms(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / elapsed.as_secs_f64() / 1e3
        }
    }

    /// Field-wise sum of two snapshots — the aggregation sharded
    /// containers use to present one lock-shaped view over many locks.
    /// Saturating, like every other snapshot combinator.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            ops: self.ops.saturating_add(other.ops),
            fast_commits: self.fast_commits.saturating_add(other.fast_commits),
            slow_commits: self.slow_commits.saturating_add(other.slow_commits),
            stm_commits: self.stm_commits.saturating_add(other.stm_commits),
            lock_acquisitions: self
                .lock_acquisitions
                .saturating_add(other.lock_acquisitions),
            fast_aborts: self.fast_aborts.saturating_add(other.fast_aborts),
            slow_aborts: self.slow_aborts.saturating_add(other.slow_aborts),
            aborts_conflict: self.aborts_conflict.saturating_add(other.aborts_conflict),
            aborts_capacity: self.aborts_capacity.saturating_add(other.aborts_capacity),
            aborts_explicit: self.aborts_explicit.saturating_add(other.aborts_explicit),
            aborts_unsupported: self
                .aborts_unsupported
                .saturating_add(other.aborts_unsupported),
            aborts_other: self.aborts_other.saturating_add(other.aborts_other),
            aborts_by_code: std::array::from_fn(|i| {
                self.aborts_by_code[i].saturating_add(other.aborts_by_code[i])
            }),
            lock_path_aborts: self.lock_path_aborts.saturating_add(other.lock_path_aborts),
            time_locked: self.time_locked.saturating_add(other.time_locked),
            taken_at_ns: self.taken_at_ns.max(other.taken_at_ns),
        }
    }

    /// Counter deltas relative to `earlier`.
    ///
    /// All subtractions saturate: the counters race under `Relaxed`
    /// loads, so a snapshot taken "later" can trail `earlier` on an
    /// individual field, and a plain `-` would panic in debug builds.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            ops: self.ops.saturating_sub(earlier.ops),
            fast_commits: self.fast_commits.saturating_sub(earlier.fast_commits),
            slow_commits: self.slow_commits.saturating_sub(earlier.slow_commits),
            stm_commits: self.stm_commits.saturating_sub(earlier.stm_commits),
            lock_acquisitions: self
                .lock_acquisitions
                .saturating_sub(earlier.lock_acquisitions),
            fast_aborts: self.fast_aborts.saturating_sub(earlier.fast_aborts),
            slow_aborts: self.slow_aborts.saturating_sub(earlier.slow_aborts),
            aborts_conflict: self.aborts_conflict.saturating_sub(earlier.aborts_conflict),
            aborts_capacity: self.aborts_capacity.saturating_sub(earlier.aborts_capacity),
            aborts_explicit: self.aborts_explicit.saturating_sub(earlier.aborts_explicit),
            aborts_unsupported: self
                .aborts_unsupported
                .saturating_sub(earlier.aborts_unsupported),
            aborts_other: self.aborts_other.saturating_sub(earlier.aborts_other),
            aborts_by_code: std::array::from_fn(|i| {
                self.aborts_by_code[i].saturating_sub(earlier.aborts_by_code[i])
            }),
            lock_path_aborts: self
                .lock_path_aborts
                .saturating_sub(earlier.lock_path_aborts),
            time_locked: self.time_locked.saturating_sub(earlier.time_locked),
            taken_at_ns: self.taken_at_ns.saturating_sub(earlier.taken_at_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = ExecStats::new();
        for path in PathKind::ALL {
            s.record_commit(path);
        }
        s.record_abort(PathKind::FastHtm, AbortCode::Conflict);
        s.record_abort(PathKind::SlowHtm, AbortCode::Explicit(4));
        s.record_time_locked(5_000);

        let snap = s.snapshot();
        assert_eq!(snap.ops, 4, "every commit, on any path, completes one op");
        assert_eq!(snap.commits(), [1; PATHS]);
        assert_eq!(snap.stm_commits, 1);
        assert_eq!(snap.fast_commits, 1);
        assert_eq!(snap.slow_commits, 1);
        assert_eq!(snap.lock_acquisitions, 1);
        assert_eq!(snap.fast_aborts, 1);
        assert_eq!(snap.slow_aborts, 1);
        assert_eq!(snap.aborts_conflict, 1);
        assert_eq!(snap.aborts_explicit, 1);
        assert_eq!(snap.time_locked, Duration::from_micros(5));
        assert!(snap.taken_at_ns > 0, "snapshots stamp the process epoch");
    }

    /// A commit is one fact: recording it changes exactly one lane word,
    /// its path's, by one.
    #[test]
    fn a_recorded_commit_changes_exactly_one_lane_word() {
        let s = ExecStats::new();
        for path in PathKind::ALL {
            let before = s.lanes.sums();
            s.record_commit(path);
            let after = s.lanes.sums();
            let changed: Vec<(usize, u64)> = (0..COUNTERS)
                .filter(|&i| after[i] != before[i])
                .map(|i| (i, after[i] - before[i]))
                .collect();
            assert_eq!(changed, [(COMMITS + path.index(), 1)], "{path:?}");
        }
    }

    #[test]
    fn aborts_are_booked_by_class_and_low_explicit_code() {
        let s = ExecStats::new();
        for code in [
            AbortCode::Explicit(4),
            AbortCode::Explicit(34),
            AbortCode::Nested,
            AbortCode::Spurious,
            AbortCode::Unsupported,
            AbortCode::Capacity,
        ] {
            s.record_abort(PathKind::FastHtm, code);
        }
        let snap = s.snapshot();
        assert_eq!(snap.aborts_explicit, 2);
        let mut by_code = [0; AbortCode::EXPLICIT_CODES];
        by_code[4] = 1;
        assert_eq!(snap.aborts_by_code, by_code, "code 34 has no bucket");
        assert_eq!(snap.aborts_other, 2, "nested + spurious");
        assert_eq!((snap.aborts_unsupported, snap.aborts_capacity), (1, 1));
        assert_eq!((snap.fast_aborts, snap.aborts_conflict), (6, 0));
    }

    #[test]
    fn epoch_stamps_merge_to_latest_and_diff_to_interval() {
        let a = StatsSnapshot {
            ops: 10,
            taken_at_ns: 1_000,
            ..Default::default()
        };
        let b = StatsSnapshot {
            ops: 20,
            taken_at_ns: 4_500,
            ..Default::default()
        };
        assert_eq!(
            a.merge(&b).taken_at_ns,
            4_500,
            "merged view is as fresh as its freshest part"
        );
        assert_eq!(
            b.since(&a).taken_at_ns,
            3_500,
            "delta carries the measurement interval"
        );
        assert_eq!(a.since(&b).taken_at_ns, 0, "racing order saturates");
    }

    #[test]
    fn derived_metrics() {
        let snap = StatsSnapshot {
            ops: 1000,
            lock_acquisitions: 15,
            ..Default::default()
        };
        assert!((snap.lock_fallback_rate() - 0.015).abs() < 1e-12);
        let tput = snap.ops_per_ms(Duration::from_secs(1));
        assert!((tput - 1.0).abs() < 1e-9, "1000 ops / 1000 ms");
        assert_eq!(StatsSnapshot::default().lock_fallback_rate(), 0.0);
        assert_eq!(StatsSnapshot::default().ops_per_ms(Duration::ZERO), 0.0);
    }

    #[test]
    fn since_subtracts() {
        let a = StatsSnapshot {
            ops: 10,
            fast_commits: 4,
            ..Default::default()
        };
        let b = StatsSnapshot {
            ops: 25,
            fast_commits: 9,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.ops, 15);
        assert_eq!(d.fast_commits, 5);
    }

    /// Relaxed counters can make a "later" snapshot trail an earlier one
    /// on individual fields; `since` must clamp to zero, not panic.
    #[test]
    fn since_saturates_on_racing_counters() {
        let earlier = StatsSnapshot {
            ops: 100,
            fast_commits: 90,
            slow_aborts: 7,
            aborts_by_code: [3; 8],
            lock_path_aborts: 1,
            ..Default::default()
        };
        let later = StatsSnapshot {
            ops: 99, // trails despite being sampled later
            fast_commits: 95,
            ..Default::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.ops, 0);
        assert_eq!(d.fast_commits, 5);
        assert_eq!(d.slow_aborts, 0);
        assert_eq!(d.aborts_by_code, [0; 8]);
        assert_eq!(d.lock_path_aborts, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lock_path_abort_is_a_debug_assertion() {
        let s = ExecStats::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.record_abort(PathKind::Lock, AbortCode::Conflict)
        }));
        assert!(r.is_err(), "misuse must trip the debug assertion");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn lock_path_abort_is_counted_in_release() {
        let s = ExecStats::new();
        s.record_abort(PathKind::Lock, AbortCode::Conflict);
        let snap = s.snapshot();
        assert_eq!(snap.lock_path_aborts, 1, "misuse is observable");
        assert_eq!(snap.aborts_conflict, 1);
        assert_eq!(snap.fast_aborts, 0);
        assert_eq!(snap.slow_aborts, 0);
    }
}
