//! Global HTM event counters.
//!
//! The paper's evaluation leans on "lightweight statistics" (§6.2.1):
//! commits and aborts per path, broken down by cause. These counters are the
//! emulated equivalent of the hardware performance events a real TSX study
//! would read. They are process-global, relaxed, and kept in per-thread
//! [`Lanes`] so that counting a transaction writes no line another running
//! thread writes and takes no locked instruction.

use crate::abort::AbortCode;
use crate::lanes::{Lane, Lanes, Writer};

const STARTS: usize = 0;
const COMMITS: usize = 1;
/// Aborts per class: `ABORTS + AbortCode::index()`.
const ABORTS: usize = 2;
const COUNTERS: usize = ABORTS + AbortCode::KINDS;

static EVENTS: Lanes<COUNTERS> = Lanes::new();

/// The lane `by` writes; the runtime looks it up once per transaction
/// attempt.
#[inline]
pub(crate) fn lane(by: Writer) -> Lane<'static, COUNTERS> {
    EVENTS.of(by)
}

/// Immutable snapshot of the global HTM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtmStats {
    /// Transactions begun.
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
            starts: c[STARTS],
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

#[inline]
pub(crate) fn record_start(lane: Lane<'_, COUNTERS>) {
    lane.add(STARTS, 1);
}

/// Counts how one started attempt ended: a commit, or an abort with a code.
#[inline]
pub(crate) fn record_end(lane: Lane<'_, COUNTERS>, abort: Option<AbortCode>) {
    lane.add(abort.map_or(COMMITS, |code| ABORTS + code.index()), 1);
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
