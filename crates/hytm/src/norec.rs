//! NOrec (Dalessandro, Spear, Scott; PPoPP 2010): "streamlining STM by
//! abolishing ownership records".
//!
//! One global sequence clock; even = quiescent, odd = a writer is committing
//! (the clock's odd state doubles as a single global commit lock). Reads are
//! logged *by value* and re-validated whenever the clock moves, which makes
//! NOrec immune to false conflicts — the property the paper calls out when
//! explaining why it is a strong software baseline (§6.2.2).

// Hot path, no `unwrap` or `panic!` outside tests: every NOrec read,
// validation and commit runs here.
#![warn(clippy::unwrap_used, clippy::panic)]

use rtle_htm::TxCell;

use crate::ctx::{hw_commit_bump, sgl_commit, sw_read, wait_even, TmCtx};
use crate::descriptor::SwDescriptor;
use crate::stats::{CommitKind, TmStats};
use crate::tm::{run_sw, SoftwareTm};

/// A NOrec software transactional memory instance.
///
/// All data accessed inside its transactions must live in
/// [`TxCell`]s and be accessed through the [`TmCtx`] passed to the closure.
#[derive(Debug, Default)]
pub struct Norec {
    pub(crate) clock: TxCell<u64>,
    stats: TmStats,
}

impl Norec {
    /// A fresh NOrec instance (clock at zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Live statistics.
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Runs `cs` as one atomic transaction, retrying on validation aborts
    /// until it commits. Returns the committed execution's result.
    pub fn execute<R>(&self, cs: impl Fn(&TmCtx<'_>) -> R) -> R {
        run_sw(self, cs)
    }
}

impl SoftwareTm for Norec {
    fn name(&self) -> &'static str {
        "norec"
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

    /// NOrec commit: read-only transactions are already serialized at their
    /// last validation point; writers acquire the clock (even → odd CAS),
    /// write back, and release (odd → even+2). Every commit counts as
    /// `StmSlowCommit` — plain NOrec has no hardware-assisted commit tier.
    fn commit(&self, d: &mut SwDescriptor) -> CommitKind {
        if d.is_read_only() {
            return CommitKind::StmSlowCommit;
        }
        sgl_commit(d, &self.clock, &self.stats);
        CommitKind::StmSlowCommit
    }

    /// A hardware commit publishes to NOrec readers by bumping the clock.
    fn hw_commit_hook(&self) {
        hw_commit_bump(&self.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_transactions() {
        let tm = Norec::new();
        let a = TxCell::new(1u64);
        let b = TxCell::new(2u64);
        let sum = tm.execute(|ctx| {
            let s = ctx.read(&a) + ctx.read(&b);
            ctx.write(&a, s);
            s
        });
        assert_eq!(sum, 3);
        assert_eq!(a.read_plain(), 3);
        assert_eq!(tm.stats().snapshot().ops, 1);
    }

    #[test]
    fn read_only_commit_does_not_advance_clock() {
        let tm = Norec::new();
        let a = TxCell::new(1u64);
        let before = tm.clock.read_plain();
        let _ = tm.execute(|ctx| ctx.read(&a));
        assert_eq!(
            tm.clock.read_plain(),
            before,
            "read-only commit is invisible"
        );
    }

    #[test]
    fn writer_commit_advances_clock_by_two() {
        let tm = Norec::new();
        let a = TxCell::new(1u64);
        let before = tm.clock.read_plain();
        tm.execute(|ctx| ctx.write(&a, 2));
        assert_eq!(tm.clock.read_plain(), before + 2);
        assert_eq!(tm.clock.read_plain() % 2, 0);
    }

    #[test]
    fn concurrent_transfers_conserve_sum() {
        const ACCOUNTS: usize = 16;
        const THREADS: usize = 4;
        const OPS: usize = 1500;
        let tm = Arc::new(Norec::new());
        let accts: Arc<Vec<TxCell<u64>>> =
            Arc::new((0..ACCOUNTS).map(|_| TxCell::new(100)).collect());

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (tm, accts) = (Arc::clone(&tm), Arc::clone(&accts));
                std::thread::spawn(move || {
                    let mut x = 0x243f6a8885a308d3u64 ^ (t as u64 + 1);
                    for _ in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let from = (x as usize) % ACCOUNTS;
                        let to = ((x >> 32) as usize) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        tm.execute(|ctx| {
                            let f = ctx.read(&accts[from]);
                            if f > 0 {
                                ctx.write(&accts[from], f - 1);
                                let tv = ctx.read(&accts[to]);
                                ctx.write(&accts[to], tv + 1);
                            }
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = accts.iter().map(|a| a.read_plain()).sum();
        assert_eq!(total, ACCOUNTS as u64 * 100);
    }

    #[test]
    fn opacity_no_torn_snapshots() {
        // Two cells updated together must never be observed out of sync by
        // another transaction (NOrec provides opacity via revalidation).
        let tm = Arc::new(Norec::new());
        let a = Arc::new(TxCell::new(500u64));
        let b = Arc::new(TxCell::new(500u64));
        let stop = Arc::new(rtle_htm::atomic::StopFlag::new());

        let writer = {
            let (tm, a, b, stop) = (
                Arc::clone(&tm),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.is_raised() {
                    i += 1;
                    let d = i % 20;
                    tm.execute(|ctx| {
                        let av = ctx.read(&a);
                        if av >= d {
                            ctx.write(&a, av - d);
                            let bv = ctx.read(&b);
                            ctx.write(&b, bv + d);
                        }
                    });
                }
            })
        };

        for _ in 0..2_000 {
            let (av, bv) = tm.execute(|ctx| (ctx.read(&a), ctx.read(&b)));
            assert_eq!(av + bv, 1_000, "torn snapshot");
        }
        stop.raise();
        writer.join().unwrap();
    }

    #[test]
    fn validations_are_counted() {
        let tm = Norec::new();
        let a = TxCell::new(0u64);
        // Transaction that observes a clock move mid-flight.
        tm.execute(|ctx| {
            let _ = ctx.read(&a);
            // Simulate an external writer commit between our reads.
            if tm.clock.read_plain() == 0 {
                tm.clock.write(2);
            }
            let _ = ctx.read(&a);
        });
        assert!(tm.stats().snapshot().validations >= 1);
    }
}
