//! The software-transaction descriptor: a value-logging read set and a
//! buffering write set ([`rtle_htm::RedoLog`], the same log the emulated
//! HTM buffers into). Aborts unwind on the `Sw` channel of
//! [`rtle_htm::unwind`], mirroring what `rtle-htm` does for emulated
//! hardware transactions.

use rtle_htm::stripe::Footprint;
use rtle_htm::unwind::{self, Channel};
use rtle_htm::{AbortCode, RedoLog, TxCell};

/// Explicitly aborts the current software transaction attempt by
/// unwinding on the software channel — validation failures inside the
/// backends, and external retry drivers (`rtle-stm`'s participant
/// enrollment backs off a held lock this way). Only meaningful under
/// [`crate::SwPhase::attempt`] (the backend `execute` loops run on it), which
/// catches the unwind and counts the abort.
pub fn abort_sw() -> ! {
    unwind::raise(Channel::Sw, AbortCode::Conflict)
}

/// One logged read: the cell and the value observed (NOrec validates *by
/// value*, which is what makes it immune to false conflicts).
#[derive(Clone, Copy)]
pub(crate) struct ReadEntry {
    pub cell: *const TxCell<u64>,
    pub value: u64,
}

/// Per-attempt software transaction state: the buffering write set every
/// [`crate::tm::SoftwareTm`] backend works on, and what each validates
/// its reads with — NOrec a value log under a clock snapshot, TL2 the
/// versioned-lock protocol's footprint. Public only because it appears in
/// the trait's method signatures; all of its contents and operations are
/// crate-private.
#[derive(Default)]
pub struct SwDescriptor {
    /// NOrec: the even global sequence clock value the value log is
    /// consistent with.
    pub(crate) snapshot: u64,
    pub(crate) reads: Vec<ReadEntry>,
    pub(crate) writes: RedoLog<TxCell<u64>>,
    /// TL2: read-version and read/write stripes in the instance's table.
    pub(crate) footprint: Footprint,
}

impl SwDescriptor {
    /// Begins an attempt at clock value `snapshot`, with empty logs.
    pub(crate) fn reset(&mut self, snapshot: u64) {
        self.snapshot = snapshot;
        self.reads.clear();
        self.writes.clear();
        self.footprint.begin(snapshot);
    }

    /// Logs a validated read.
    pub(crate) fn log_read(&mut self, cell: *const TxCell<u64>, value: u64) {
        self.reads.push(ReadEntry { cell, value });
    }

    /// Re-checks every logged read by value. Returns `false` on mismatch.
    pub(crate) fn reads_still_valid(&self) -> bool {
        self.reads.iter().all(|e| {
            // SAFETY: cells outlive the transaction (captured from live
            // references within the executing closure).
            unsafe { (*e.cell).read_plain() == e.value }
        })
    }

    pub(crate) fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_log_appends_and_truncate_restores() {
        let a = TxCell::new(0u64);
        let b = TxCell::new(0u64);
        let mut d = SwDescriptor::default();
        d.reset(2);
        assert!(d.is_read_only());
        d.writes.log_write(&a, 1);
        d.writes.log_write(&b, 2);
        d.writes.log_write(&a, 3);
        assert_eq!(d.writes.lookup(&a), Some(3), "the latest write");
        assert_eq!(d.writes.lookup(&b), Some(2));
        assert_eq!(d.writes.iter().count(), 3, "every write appends");
        d.writes.truncate(2);
        assert_eq!(d.writes.lookup(&a), Some(1), "the earlier value is back");
        assert!(!d.is_read_only());
        d.writes.truncate(0);
        assert!(d.is_read_only(), "a log truncated to 0 commits read-only");
    }

    #[test]
    fn value_validation_detects_change() {
        let a = TxCell::new(10u64);
        let mut d = SwDescriptor::default();
        d.reset(2);
        d.log_read(&a, a.read_plain());
        assert!(d.reads_still_valid());
        a.write(11);
        assert!(!d.reads_still_valid());
        // Value-based: restoring the value re-validates (ABA is fine for
        // NOrec's semantics).
        a.write(10);
        assert!(d.reads_still_valid());
    }

    #[test]
    fn reset_clears_logs() {
        let a = TxCell::new(0u64);
        let mut d = SwDescriptor::default();
        d.writes.log_write(&a, 1);
        d.log_read(&a, 0);
        d.reset(4);
        assert!(d.is_read_only());
        assert!(d.reads.is_empty());
        assert_eq!(d.snapshot, 4);
    }
}
