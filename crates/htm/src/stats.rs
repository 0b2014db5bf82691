//! Global HTM event counters.
//!
//! The paper's evaluation leans on "lightweight statistics" (§6.2.1):
//! commits and aborts per path, broken down by cause. These counters are the
//! emulated equivalent of the hardware performance events a real TSX study
//! would read. They are process-global, relaxed, and kept in per-thread
//! [`Lanes`] so that counting a transaction writes no line another running
//! thread writes and takes no locked instruction.
//!
//! Each fact is counted once: an attempt bumps one word, its commit or
//! its abort class. [`HtmStats::starts`] is the sum of those, taken by
//! [`HtmStats::snapshot`]; no word counts begins.

use crate::abort::AbortCode;
use crate::lanes::{Lanes, Writer};

const COMMITS: usize = 0;
/// Aborts per class: `ABORTS + AbortCode::index()`.
const ABORTS: usize = 1;
const COUNTERS: usize = ABORTS + AbortCode::KINDS;

static EVENTS: Lanes<COUNTERS> = Lanes::new();

/// Immutable snapshot of the global HTM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtmStats {
    /// Transactions that ran to an end: `commits + aborts()`, summed at
    /// snapshot time (an attempt still in flight is not counted yet).
    pub starts: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts caused by data conflicts.
    pub aborts_conflict: u64,
    /// Aborts caused by footprint capacity overflow.
    pub aborts_capacity: u64,
    /// Explicit program-requested aborts.
    pub aborts_explicit: u64,
    /// Aborts from operations HTM cannot commit.
    pub aborts_unsupported: u64,
    /// Aborts from unsupported nesting.
    pub aborts_nested: u64,
    /// Injected/spurious aborts.
    pub aborts_spurious: u64,
}

impl HtmStats {
    /// Reads the current counter values.
    pub fn snapshot() -> Self {
        let c = EVENTS.sums();
        let aborts = |code: AbortCode| c[ABORTS + code.index()];
        HtmStats {
            starts: c[COMMITS] + c[ABORTS..].iter().sum::<u64>(),
            commits: c[COMMITS],
            aborts_conflict: aborts(AbortCode::Conflict),
            aborts_capacity: aborts(AbortCode::Capacity),
            aborts_explicit: aborts(AbortCode::Explicit(0)),
            aborts_unsupported: aborts(AbortCode::Unsupported),
            aborts_nested: aborts(AbortCode::Nested),
            aborts_spurious: aborts(AbortCode::Spurious),
        }
    }

    /// Total aborts of any cause.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_explicit
            + self.aborts_unsupported
            + self.aborts_nested
            + self.aborts_spurious
    }

    /// Counter deltas since `earlier` (saturating, in case of interleaved
    /// resets).
    pub fn since(&self, earlier: &HtmStats) -> HtmStats {
        HtmStats {
            starts: self.starts.saturating_sub(earlier.starts),
            commits: self.commits.saturating_sub(earlier.commits),
            aborts_conflict: self.aborts_conflict.saturating_sub(earlier.aborts_conflict),
            aborts_capacity: self.aborts_capacity.saturating_sub(earlier.aborts_capacity),
            aborts_explicit: self.aborts_explicit.saturating_sub(earlier.aborts_explicit),
            aborts_unsupported: self
                .aborts_unsupported
                .saturating_sub(earlier.aborts_unsupported),
            aborts_nested: self.aborts_nested.saturating_sub(earlier.aborts_nested),
            aborts_spurious: self.aborts_spurious.saturating_sub(earlier.aborts_spurious),
        }
    }
}

/// Counts how one attempt by `by` ended: a commit, or an abort with a
/// code.
#[inline]
pub(crate) fn record_end(by: Writer, abort: Option<AbortCode>) {
    EVENTS
        .of(by)
        .add(abort.map_or(COMMITS, |code| ABORTS + code.index()), 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{swhtm, TxCell};

    #[test]
    fn commit_and_abort_counted() {
        let before = HtmStats::snapshot();
        let c = TxCell::new(0u64);
        swhtm::try_txn(|| c.write(1)).unwrap();
        let _: Result<(), AbortCode> = swhtm::try_txn(|| crate::abort(1));
        let d = HtmStats::snapshot().since(&before);
        assert!(d.starts >= 2);
        assert!(d.commits >= 1);
        assert!(d.aborts_explicit >= 1);
        assert!(d.aborts() >= 1);
    }

    /// An attempt is one fact: it changes exactly one lane word, its
    /// commit or its abort class, by one. The lanes are process-global and
    /// sibling tests run transactions too, so a trial whose difference
    /// carries a sibling's bumps is run again; a second word bumped per
    /// attempt would show in every trial.
    #[test]
    fn an_attempt_changes_exactly_one_lane_word() {
        let c = TxCell::new(0u64);
        let changed_by = |attempt: &dyn Fn()| {
            for _ in 0..10_000 {
                let before = EVENTS.sums();
                attempt();
                let after = EVENTS.sums();
                let changed: Vec<(usize, u64)> = (0..COUNTERS)
                    .filter(|&i| after[i] != before[i])
                    .map(|i| (i, after[i] - before[i]))
                    .collect();
                if let [(_, 1)] = changed[..] {
                    return changed;
                }
                std::thread::yield_now();
            }
            panic!("no attempt changed exactly one lane word by one");
        };
        let commit = || swhtm::try_txn(|| c.write(1)).unwrap();
        assert_eq!(changed_by(&commit), [(COMMITS, 1)]);
        let abort = || {
            let _ = swhtm::try_txn(|| crate::abort(1));
        };
        let explicit = ABORTS + AbortCode::Explicit(1).index();
        assert_eq!(changed_by(&abort), [(explicit, 1)]);
    }

    #[test]
    fn since_saturates() {
        let a = HtmStats {
            starts: 5,
            ..Default::default()
        };
        let b = HtmStats {
            starts: 3,
            ..Default::default()
        };
        assert_eq!(b.since(&a).starts, 0);
        assert_eq!(a.since(&b).starts, 2);
    }
}
