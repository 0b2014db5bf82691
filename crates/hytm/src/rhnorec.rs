//! Reduced-Hardware NOrec (Matveev & Shavit, TRANSACT 2014) — the hybrid TM
//! the paper compares refined TLE against (§6.2.2).
//!
//! Protocol, as characterized by the paper:
//!
//! 1. Transactions first attempt to run **entirely in hardware**. At commit
//!    they check whether software transactions are running: if none, they
//!    commit without touching shared metadata (`HTMFast`); otherwise they
//!    must bump the global NOrec clock (`HTMSlow`) so that software readers
//!    revalidate — the single update that, under load, makes the clock's
//!    cache line a scalability chokepoint (the effect behind Figures 8–10).
//! 2. After the hardware budget is exhausted, the transaction restarts as a
//!    NOrec-style **software transaction** (value-logged reads, buffered
//!    writes). Its commit phase — snapshot check, write-back, clock bump —
//!    runs inside a small *reduced* hardware transaction (`STMFastCommit`);
//!    if that keeps failing, the committer acquires the clock (even → odd
//!    CAS), halting every hardware and software commit, and writes back
//!    under that single global lock (`STMSlowCommit`).
//!
//! Step 1 is `rtle-core`'s ladder: an `ElidableLock` built with
//! `ElisionPolicy::Tle` and this backend (`with_software_backend`) makes
//! the paper's five hardware attempts on the process's HTM, gates
//! [`SoftwareTm::hw_commit_hook`] on its software-presence counter (read
//! inside the hardware transaction, so a software entry dooms it), and
//! falls back to step 2. This type is step 2 and the hook.

use rtle_htm::TxCell;

use crate::abort_codes;
use crate::ctx::{hw_commit_bump, sgl_commit, sw_read, validate, wait_even};
use crate::descriptor::SwDescriptor;
use crate::stats::{CommitKind, TmStats};
use crate::tm::SoftwareTm;

/// Reduced-hardware commit attempts before the SGL fallback (paper: 5).
pub const COMMIT_ATTEMPTS: u32 = 5;

/// The software half of a Reduced-Hardware NOrec hybrid TM.
#[derive(Debug, Default)]
pub struct RhNorec {
    clock: TxCell<u64>,
    stats: TmStats,
}

impl RhNorec {
    /// A fresh instance with the paper's commit budget (5).
    pub fn new() -> Self {
        Self::default()
    }

    /// Live statistics.
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }
}

impl SoftwareTm for RhNorec {
    fn name(&self) -> &'static str {
        "rh-norec"
    }

    fn stats(&self) -> &TmStats {
        &self.stats
    }

    fn begin(&self, d: &mut SwDescriptor) {
        d.reset(wait_even(&self.clock));
    }

    fn read(&self, d: &mut SwDescriptor, cell: &TxCell<u64>) -> u64 {
        sw_read(d, &self.clock, &self.stats, cell)
    }

    /// Software commit: reduced hardware transaction first, SGL after.
    fn commit(&self, d: &mut SwDescriptor) -> CommitKind {
        if d.is_read_only() {
            // Serialized at the last validation point; nothing to publish.
            return CommitKind::StmFastCommit;
        }

        for _ in 0..COMMIT_ATTEMPTS {
            let r = rtle_htm::try_txn(|| {
                // The snapshot check subscribes to the clock: any racing
                // commit (hardware or software) aborts this one.
                if self.clock.read() != d.snapshot {
                    rtle_htm::abort(abort_codes::CLOCK_CHANGED);
                }
                for w in &d.writes {
                    // SAFETY: cells outlive the transaction; transactional
                    // writes keep the write-back atomic.
                    unsafe { (*w.cell).write(w.value) };
                }
                self.clock.write(d.snapshot + 2);
            });
            match r {
                Ok(()) => return CommitKind::StmFastCommit,
                Err(_) => {
                    // Extend the snapshot (aborts the transaction if any
                    // logged read changed value).
                    d.snapshot = validate(d, &self.clock, &self.stats);
                }
            }
        }

        // SGL fallback: acquire the clock (odd), halting all commits.
        sgl_commit(d, &self.clock, &self.stats);
        CommitKind::StmSlowCommit
    }

    /// RH-NOrec's hardware commit instrumentation, run only while software
    /// transactions are live: bump the clock so they revalidate, as NOrec.
    fn hw_commit_hook(&self) {
        hw_commit_bump(&self.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norec::Norec;
    use rtle_htm::{swhtm, AbortCode};

    /// The hook both NOrec-family backends run inside a committing hardware
    /// transaction: +2 on an even clock, `SGL_HELD` on an odd one. Whether
    /// it runs at all is the lock's decision (its software presence).
    #[test]
    fn hw_commit_hook_bumps_an_even_clock_and_bails_on_an_odd_one() {
        let rh = RhNorec::new();
        let norec = Norec::new();
        for (tm, clock) in [
            (&rh as &dyn SoftwareTm, &rh.clock),
            (&norec as &dyn SoftwareTm, &norec.clock),
        ] {
            let name = tm.name();
            assert_eq!(swhtm::try_txn(|| tm.hw_commit_hook()), Ok(()), "{name}");
            assert_eq!(clock.read_plain(), 2, "{name}: clock moved by two");

            clock.write(3);
            assert_eq!(
                swhtm::try_txn(|| tm.hw_commit_hook()),
                Err(AbortCode::Explicit(abort_codes::SGL_HELD)),
                "{name}"
            );
            assert_eq!(clock.read_plain(), 3, "{name}: aborted hook wrote nothing");
        }
    }
}
