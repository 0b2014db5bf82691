//! The FG-TLE epoch counter (`global_seq_number`, §4.2).
//!
//! The thread holding the lock increments the counter **twice**: once right
//! after acquiring the lock and once just before releasing it. Acquiring an
//! ownership record is a single store of the current (odd) epoch; the
//! pre-release increment implicitly releases every orec at once — an orec is
//! *owned* exactly when its stored epoch is `>=` the snapshot a slow-path
//! transaction took before starting (`local_seq_number`).
//!
//! Invariants maintained here:
//! * the counter is odd while a critical section runs under the lock, even
//!   otherwise;
//! * snapshots taken while the lock is free are strictly greater than every
//!   epoch stored by past critical sections.

use rtle_htm::TxCell;

/// The global sequence (epoch) counter of one [`crate::ElidableLock`].
///
/// Stored in a [`TxCell`] so slow-path hardware transactions may read it
/// transactionally if they wish; the protocol itself only needs plain reads
/// (the snapshot is taken *before* the transaction starts).
#[derive(Debug)]
pub struct SeqEpoch {
    counter: TxCell<u64>,
}

impl Default for SeqEpoch {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqEpoch {
    /// New counter at 0 (even: no critical section running).
    pub fn new() -> Self {
        SeqEpoch::starting_at(0)
    }

    /// New counter at an arbitrary even value — exists so overflow
    /// behavior near `u64::MAX` is testable without 2^63 critical
    /// sections.
    pub fn starting_at(value: u64) -> Self {
        assert_eq!(value & 1, 0, "epoch must start even (no section running)");
        SeqEpoch {
            counter: TxCell::new(value),
        }
    }

    /// Plain snapshot — the `local_seq_number` of the FG-TLE pseudo-code.
    /// Taken by slow-path threads before they start a hardware transaction.
    #[inline]
    pub fn snapshot(&self) -> u64 {
        self.counter.read_plain()
    }

    /// Post-acquire increment (even → odd). Returns the new, odd epoch the
    /// holder will store into orecs it acquires.
    ///
    /// Only the lock holder calls this, so a plain read-modify-write is
    /// race-free, and its read is one load (see
    /// [`TxCell::read_unvalidated`]).
    #[inline]
    pub fn begin_locked_section(&self) -> u64 {
        let v = self.counter.read_unvalidated();
        debug_assert_eq!(v & 1, 0, "epoch must be even when the lock is acquired");
        let odd = v.wrapping_add(1);
        self.counter.write(odd);
        odd
    }

    /// Pre-release increment (odd → even): implicitly releases every orec
    /// the holder acquired, without aborting slow-path transactions.
    #[inline]
    pub fn end_locked_section(&self) {
        let v = self.counter.read_unvalidated();
        debug_assert_eq!(v & 1, 1, "epoch must be odd while the lock is held");
        self.counter.write(v.wrapping_add(1));
    }

    /// Whether an orec stamped `orec_epoch` is owned from the point of view
    /// of a transaction whose snapshot is `local_seq` (Figure 3's
    /// comparisons): owned iff `orec_epoch >= local_seq`.
    ///
    /// Across a wraparound of the 64-bit counter this comparison is
    /// *conservative*: stamps from before the wrap are numerically huge and
    /// read as owned by post-wrap snapshots, so affected slow-path
    /// transactions abort spuriously (never the unsafe direction). The
    /// window heals as post-wrap critical sections re-stamp the orecs.
    #[inline]
    pub fn owned(orec_epoch: u64, local_seq: u64) -> bool {
        orec_epoch >= local_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_parity_lifecycle() {
        let e = SeqEpoch::new();
        assert_eq!(e.snapshot(), 0);
        let odd = e.begin_locked_section();
        assert_eq!(odd, 1);
        assert_eq!(e.snapshot(), 1);
        e.end_locked_section();
        assert_eq!(e.snapshot(), 2);
        assert_eq!(e.begin_locked_section(), 3);
        e.end_locked_section();
        assert_eq!(e.snapshot(), 4);
    }

    #[test]
    fn ownership_rule() {
        // Holder acquired the lock: epoch 1; it stamps orecs with 1.
        // A slow-path txn that started *during* this critical section has
        // local_seq == 1 and must see the orec as owned.
        assert!(SeqEpoch::owned(1, 1));
        // A txn started after release (snapshot 2) must see it free.
        assert!(!SeqEpoch::owned(1, 2));
        // Orecs from even older sections are free too.
        assert!(!SeqEpoch::owned(1, 4));
        // And a new section's stamps (3) are owned for snapshot 3.
        assert!(SeqEpoch::owned(3, 3));
        assert!(!SeqEpoch::owned(3, 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "even")]
    fn double_begin_is_a_bug() {
        let e = SeqEpoch::new();
        e.begin_locked_section();
        e.begin_locked_section();
    }

    #[test]
    fn wraparound_preserves_parity_lifecycle() {
        // u64::MAX is odd, so the last pre-wrap section begins at MAX and
        // ends by wrapping to 0 — parity (even = free, odd = held) must
        // survive the wrap without panicking.
        let e = SeqEpoch::starting_at(u64::MAX - 1);
        assert_eq!(e.begin_locked_section(), u64::MAX);
        e.end_locked_section();
        assert_eq!(e.snapshot(), 0, "counter wraps to 0, which is even");
        assert_eq!(e.begin_locked_section(), 1);
        e.end_locked_section();
        assert_eq!(e.snapshot(), 2);
    }

    #[test]
    fn wraparound_ownership_is_conservative() {
        // A stamp from the final pre-wrap section vs. a post-wrap snapshot:
        // the orec looks owned (spurious abort), never un-owned while the
        // stamping section still runs.
        let pre_wrap_stamp = u64::MAX;
        assert!(
            SeqEpoch::owned(pre_wrap_stamp, 0),
            "stale pre-wrap stamps read as owned by post-wrap snapshots (safe direction)"
        );
        // Within the pre-wrap section itself the rule is exact.
        assert!(SeqEpoch::owned(pre_wrap_stamp, u64::MAX));
        // Once post-wrap sections re-stamp, exactness returns.
        assert!(SeqEpoch::owned(1, 1));
        assert!(!SeqEpoch::owned(1, 2));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn starting_at_rejects_odd() {
        let _ = SeqEpoch::starting_at(u64::MAX);
    }
}
