//! Statistics for the software TMs: software commits by flavour, aborts,
//! value-based validations and time spent in software attempts. The
//! paper's Figures 8–10 are plotted from the simulator's `SimStats`, not
//! from these.
//!
//! Each fact is counted once: a commit bumps its kind's word and nothing
//! else. [`TmStatsSnapshot::ops`] is the sum of the two commit kinds,
//! taken by [`TmStats::snapshot`], never counted.

use std::time::Duration;

use rtle_htm::lanes::Lanes;

/// How one software transaction committed — the software half of
/// Figure 9's categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitKind {
    /// Software transaction whose commit phase succeeded inside a reduced
    /// hardware transaction.
    StmFastCommit,
    /// Software transaction that committed under the single global lock.
    StmSlowCommit,
}

// Counter indices into the lanes.
const STM_FAST_COMMIT: usize = 0;
const STM_SLOW_COMMIT: usize = 1;
const SW_ABORTS: usize = 2;
const VALIDATIONS: usize = 3;
const SW_TIME_NS: usize = 4;
const COUNTERS: usize = 5;

/// Relaxed counters for one TM instance, in per-thread lanes.
#[derive(Debug, Default)]
pub struct TmStats {
    lanes: Lanes<COUNTERS>,
}

impl TmStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// One transaction completed by a commit of `kind`.
    #[inline]
    pub(crate) fn record_commit(&self, kind: CommitKind) {
        self.lanes.add(
            match kind {
                CommitKind::StmFastCommit => STM_FAST_COMMIT,
                CommitKind::StmSlowCommit => STM_SLOW_COMMIT,
            },
            1,
        );
    }

    #[inline]
    pub(crate) fn record_sw_abort(&self) {
        self.lanes.add(SW_ABORTS, 1);
    }

    #[inline]
    pub(crate) fn record_validations(&self, n: u64) {
        self.lanes.add(VALIDATIONS, n);
    }

    /// One software attempt, `ns` long.
    #[inline]
    pub(crate) fn record_sw_time(&self, ns: u64) {
        self.lanes.add(SW_TIME_NS, ns);
    }

    /// Consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> TmStatsSnapshot {
        let c = self.lanes.sums();
        TmStatsSnapshot {
            ops: c[STM_FAST_COMMIT] + c[STM_SLOW_COMMIT],
            stm_fast_commit: c[STM_FAST_COMMIT],
            stm_slow_commit: c[STM_SLOW_COMMIT],
            sw_aborts: c[SW_ABORTS],
            validations: c[VALIDATIONS],
            sw_time: Duration::from_nanos(c[SW_TIME_NS]),
        }
    }
}

/// Immutable view of [`TmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TmStatsSnapshot {
    /// Transactions completed: `stm_fast_commit + stm_slow_commit`,
    /// summed by [`TmStats::snapshot`].
    pub ops: u64,
    /// Software commits via the reduced hardware transaction.
    pub stm_fast_commit: u64,
    /// Software commits under the single global lock.
    pub stm_slow_commit: u64,
    /// Software-transaction (validation) aborts.
    pub sw_aborts: u64,
    /// Total value-based read-set validations performed.
    pub validations: u64,
    /// Total wall time spent running software attempts.
    pub sw_time: Duration,
}

impl TmStatsSnapshot {
    /// Committed software transactions (either commit flavour).
    pub fn stm_commits(&self) -> u64 {
        self.stm_fast_commit + self.stm_slow_commit
    }

    /// Average value-based validations per committed software transaction —
    /// the paper's Figure 10 metric.
    pub fn validations_per_stm_txn(&self) -> f64 {
        let c = self.stm_commits();
        if c == 0 {
            0.0
        } else {
            self.validations as f64 / c as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validations_per_txn() {
        let s = TmStats::new();
        s.record_validations(6);
        s.record_commit(CommitKind::StmFastCommit);
        s.record_commit(CommitKind::StmSlowCommit);
        let snap = s.snapshot();
        assert_eq!(snap.stm_commits(), 2);
        assert!((snap.validations_per_stm_txn() - 3.0).abs() < 1e-12);
    }

    /// A commit is one fact: recording it changes exactly one lane word,
    /// its kind's, by one.
    #[test]
    fn a_recorded_commit_changes_exactly_one_lane_word() {
        let s = TmStats::new();
        for (kind, word) in [
            (CommitKind::StmFastCommit, STM_FAST_COMMIT),
            (CommitKind::StmSlowCommit, STM_SLOW_COMMIT),
        ] {
            let before = s.lanes.sums();
            s.record_commit(kind);
            let after = s.lanes.sums();
            let changed: Vec<(usize, u64)> = (0..COUNTERS)
                .filter(|&i| after[i] != before[i])
                .map(|i| (i, after[i] - before[i]))
                .collect();
            assert_eq!(changed, [(word, 1)], "{kind:?}");
        }
        assert_eq!(s.snapshot().ops, 2);
    }

    #[test]
    fn empty_snapshot_is_quiet() {
        let snap = TmStats::new().snapshot();
        assert_eq!(snap.validations_per_stm_txn(), 0.0);
    }
}
