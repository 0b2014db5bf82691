//! Statistics for the hybrid/software TMs — the quantities behind the
//! paper's Figures 8 (slow-path throughput split), 9 (execution-type
//! distribution) and 10 (value-based validations per transaction).

use std::time::Duration;

use rtle_htm::lanes::Lanes;

/// How one transaction ultimately committed — the categories of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitKind {
    /// Entirely in hardware, no global-clock update (no software txns ran).
    HtmFast,
    /// Entirely in hardware, but had to bump the global clock because
    /// software transactions were running.
    HtmSlow,
    /// Software transaction whose commit phase succeeded inside a reduced
    /// hardware transaction.
    StmFastCommit,
    /// Software transaction that committed under the single global lock.
    StmSlowCommit,
}

// Counter indices into the lanes.
const OPS: usize = 0;
const HTM_FAST: usize = 1;
const HTM_SLOW: usize = 2;
const STM_FAST_COMMIT: usize = 3;
const STM_SLOW_COMMIT: usize = 4;
const HW_ABORTS: usize = 5;
const SW_ABORTS: usize = 6;
const VALIDATIONS: usize = 7;
const SW_TIME_NS: usize = 8;
const COUNTERS: usize = 9;

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

    /// One transaction completed by a commit of `kind`: counted on the
    /// kind and on `ops`.
    #[inline]
    pub(crate) fn record_commit(&self, kind: CommitKind) {
        let lane = self.lanes.mine();
        lane.add(
            match kind {
                CommitKind::HtmFast => HTM_FAST,
                CommitKind::HtmSlow => HTM_SLOW,
                CommitKind::StmFastCommit => STM_FAST_COMMIT,
                CommitKind::StmSlowCommit => STM_SLOW_COMMIT,
            },
            1,
        );
        lane.add(OPS, 1);
    }

    #[inline]
    pub(crate) fn record_hw_abort(&self) {
        self.lanes.add(HW_ABORTS, 1);
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
            ops: c[OPS],
            htm_fast: c[HTM_FAST],
            htm_slow: c[HTM_SLOW],
            stm_fast_commit: c[STM_FAST_COMMIT],
            stm_slow_commit: c[STM_SLOW_COMMIT],
            hw_aborts: c[HW_ABORTS],
            sw_aborts: c[SW_ABORTS],
            validations: c[VALIDATIONS],
            sw_time: Duration::from_nanos(c[SW_TIME_NS]),
        }
    }
}

/// Immutable view of [`TmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TmStatsSnapshot {
    /// Transactions completed.
    pub ops: u64,
    /// Hardware commits without a clock bump.
    pub htm_fast: u64,
    /// Hardware commits that bumped the global clock.
    pub htm_slow: u64,
    /// Software commits via the reduced hardware transaction.
    pub stm_fast_commit: u64,
    /// Software commits under the single global lock.
    pub stm_slow_commit: u64,
    /// Hardware-attempt aborts.
    pub hw_aborts: u64,
    /// Software-transaction (validation) aborts.
    pub sw_aborts: u64,
    /// Total value-based read-set validations performed.
    pub validations: u64,
    /// Total wall time spent running software transactions (Figure 8's
    /// denominator).
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

    /// Fraction of commits of each kind, in Figure 9's order
    /// (HTMFast, HTMSlow, STMFastCommit, STMSlowCommit).
    pub fn exec_fractions(&self) -> [f64; 4] {
        let total =
            (self.htm_fast + self.htm_slow + self.stm_fast_commit + self.stm_slow_commit) as f64;
        if total == 0.0 {
            return [0.0; 4];
        }
        [
            self.htm_fast as f64 / total,
            self.htm_slow as f64 / total,
            self.stm_fast_commit as f64 / total,
            self.stm_slow_commit as f64 / total,
        ]
    }

    /// Counter deltas relative to `earlier`.
    pub fn since(&self, earlier: &TmStatsSnapshot) -> TmStatsSnapshot {
        TmStatsSnapshot {
            ops: self.ops - earlier.ops,
            htm_fast: self.htm_fast - earlier.htm_fast,
            htm_slow: self.htm_slow - earlier.htm_slow,
            stm_fast_commit: self.stm_fast_commit - earlier.stm_fast_commit,
            stm_slow_commit: self.stm_slow_commit - earlier.stm_slow_commit,
            hw_aborts: self.hw_aborts - earlier.hw_aborts,
            sw_aborts: self.sw_aborts - earlier.sw_aborts,
            validations: self.validations - earlier.validations,
            sw_time: self.sw_time.saturating_sub(earlier.sw_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let s = TmStats::new();
        s.record_commit(CommitKind::HtmFast);
        s.record_commit(CommitKind::HtmFast);
        s.record_commit(CommitKind::HtmSlow);
        s.record_commit(CommitKind::StmFastCommit);
        let f = s.snapshot().exec_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.5).abs() < 1e-12);
    }

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

    #[test]
    fn empty_snapshot_is_quiet() {
        let snap = TmStats::new().snapshot();
        assert_eq!(snap.exec_fractions(), [0.0; 4]);
        assert_eq!(snap.validations_per_stm_txn(), 0.0);
    }
}
