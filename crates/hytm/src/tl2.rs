//! TL2 (Dice, Shalev, Shavit; DISC 2006): software TM with per-stripe
//! versioned write-locks and a global version clock.
//!
//! Where NOrec serializes every writer commit through one global sequence
//! lock, TL2 writers lock only the stripes their write set hashes to, so
//! disjoint writers commit concurrently — exactly the regime (disjoint-write
//! pressure) where the NOrec fallback collapses. The price is version-based
//! validation: false conflicts from stripe aliasing, and no immunity to the
//! ABA-style silent updates NOrec's value logging shrugs off.
//!
//! The protocol is [`rtle_htm::stripe`]'s — the one the emulated HTM runs
//! on its global table — on a table of this instance's own; this file
//! supplies what differs:
//!
//! * **Stripe map** — the cell's *word* address, Fibonacci-hashed.
//! * **Begin** — `rv` is a fresh sample of the instance's clock.
//! * **Read** — through the footprint, loading with a strongly atomic
//!   plain read. A stripe newer than `rv` extends the snapshot (sample
//!   first, then revalidate) instead of aborting.
//! * **Commit (writers)** — each write stripe is waited for through the
//!   one waiting loop, bounded (a preempted holder must not wedge every
//!   writer forever), and the log is written back with strongly atomic
//!   stores, which doom racing hardware transactions.
//!
//! Versions compare in wrapping order, so the clock survives wraparound;
//! [`Tl2::starting_at`] exists so tests can pin the clock near `u64::MAX`.

// Hot path, no `unwrap` or `panic!` outside tests: every TL2 software-rung
// read and commit runs here.
#![warn(clippy::unwrap_used, clippy::panic)]

use rtle_htm::stripe::{BoxedTable, Table};
use rtle_htm::wait::backoff_until;
use rtle_htm::{thread_token, AbortCode, TxCell};

use crate::descriptor::{abort_sw, SwDescriptor};
use crate::stats::{CommitKind, TmStats};
use crate::tm::{run_sw, SoftwareTm};
use crate::TmCtx;

/// Default number of version-lock stripes (power of two).
pub const DEFAULT_STRIPES: usize = 4096;

/// Probes of one locked stripe (the last thousand of them a yield apart)
/// before a committing transaction gives up and aborts.
const STRIPE_WAIT_PROBES: u32 = 1 << 10;

/// A TL2 software transactional memory instance.
///
/// All data accessed inside its transactions must live in [`TxCell`]s and
/// be accessed through the [`TmCtx`] passed to the closure.
#[derive(Debug)]
pub struct Tl2 {
    /// Version clock and versioned write-locks (a power of two of them).
    table: BoxedTable,
    stats: TmStats,
}

impl Default for Tl2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Tl2 {
    /// A fresh instance with [`DEFAULT_STRIPES`] stripes, clock at zero.
    pub fn new() -> Self {
        Self::with_stripes(DEFAULT_STRIPES)
    }

    /// A fresh instance with `stripes` version locks (rounded up to a
    /// power of two, minimum 1).
    pub fn with_stripes(stripes: usize) -> Self {
        Self::build(stripes.max(1).next_power_of_two(), 0)
    }

    /// A fresh instance whose clock (and every stripe version) starts at
    /// `clock` — for wraparound tests pinning the clock near `u64::MAX`.
    ///
    /// Panics if `clock` is odd (an odd clock would read as a locked
    /// stripe / in-flight commit that never completes).
    pub fn starting_at(clock: u64) -> Self {
        Self::build(DEFAULT_STRIPES, clock)
    }

    fn build(stripes: usize, clock: u64) -> Self {
        Tl2 {
            table: Table::boxed(stripes, clock),
            stats: TmStats::new(),
        }
    }

    /// Live statistics.
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Current global version clock (diagnostics/tests).
    pub fn clock(&self) -> u64 {
        self.table.clock()
    }

    /// Runs `cs` as one atomic transaction, retrying on validation aborts
    /// until it commits. Returns the committed execution's result.
    pub fn execute<R>(&self, cs: impl Fn(&TmCtx<'_>) -> R) -> R {
        run_sw(self, cs)
    }

    /// Stripe index for a cell address (Fibonacci hash over the word
    /// address — cheap and uniform enough that disjoint working sets land
    /// on disjoint stripes with high probability).
    #[inline]
    fn stripe_for(&self, cell: *const TxCell<u64>) -> u32 {
        let addr = cell as usize as u64 >> 3;
        (addr.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32 & (self.table.stripes() - 1) as u32
    }

    /// Books the read-set validations a step of the protocol cost and
    /// unwinds the attempt if the step failed.
    fn settle<T>(&self, d: &mut SwDescriptor, step: Result<T, AbortCode>) -> T {
        let validations = std::mem::take(&mut d.footprint.validations);
        if validations > 0 {
            self.stats.record_validations(validations);
        }
        step.unwrap_or_else(|_| abort_sw())
    }
}

impl SoftwareTm for Tl2 {
    fn name(&self) -> &'static str {
        "tl2"
    }

    fn stats(&self) -> &TmStats {
        &self.stats
    }

    fn begin(&self, d: &mut SwDescriptor) {
        d.reset(self.table.clock());
    }

    fn read(&self, d: &mut SwDescriptor, cell: &TxCell<u64>) -> u64 {
        if let Some(v) = d.writes.lookup(cell) {
            return v;
        }
        let stripe = self.stripe_for(cell);
        // Fails on a lock, a word that moved, or a failed extension.
        let read = self
            .table
            .read(&mut d.footprint, stripe, || cell.read_plain());
        self.settle(d, read)
    }

    /// A write later truncated away ([`crate::SwPhase::truncate_writes`])
    /// leaves its stripe in the footprint: commit locks and re-versions it
    /// with nothing written under it, which is at worst a false conflict.
    fn write(&self, d: &mut SwDescriptor, cell: &TxCell<u64>, value: u64) {
        d.writes.log_write(cell, value);
        d.footprint.write(self.stripe_for(cell));
    }

    fn commit(&self, d: &mut SwDescriptor) -> CommitKind {
        let owner = thread_token();
        let acquire = |stripe| {
            let (mut prev, mut probes) = (None, 0);
            backoff_until(|| {
                prev = self.table.try_lock(stripe, owner).ok();
                probes += 1;
                prev.is_some() || probes == STRIPE_WAIT_PROBES
            });
            prev
        };
        let committed = self.table.commit(&mut d.footprint, acquire, || {
            for w in &d.writes {
                // SAFETY: cells outlive the transaction (captured from live
                // references inside the executing closure). The stores are
                // strongly atomic (they doom racing hardware transactions),
                // and the held stripe locks exclude every conflicting software
                // commit.
                unsafe { (*w.cell).write(w.value) };
            }
        });
        self.settle(d, committed);
        CommitKind::StmFastCommit
    }

    /// TL2's stripe versions cannot observe a hardware commit (hardware
    /// writes don't bump stripe versions), so hardware must yield while
    /// TL2 transactions are live.
    fn hw_commit_hook(&self) {
        rtle_htm::abort(crate::abort_codes::SW_ACTIVE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_transactions() {
        let tm = Tl2::new();
        let a = TxCell::new(1u64);
        let b = TxCell::new(2u64);
        let sum = tm.execute(|ctx| {
            let s = ctx.read(&a) + ctx.read(&b);
            ctx.write(&a, s);
            s
        });
        assert_eq!(sum, 3);
        assert_eq!(a.read_plain(), 3);
        let s = tm.stats().snapshot();
        assert_eq!(s.ops, 1);
        assert_eq!(
            s.stm_fast_commit, 1,
            "TL2 commits are always StmFast: {s:?}"
        );
    }

    #[test]
    fn read_only_commit_does_not_advance_clock() {
        let tm = Tl2::new();
        let a = TxCell::new(1u64);
        let before = tm.clock();
        let _ = tm.execute(|ctx| ctx.read(&a));
        assert_eq!(tm.clock(), before, "read-only commit is invisible");
    }

    #[test]
    fn writer_commit_leaves_the_clock_alone() {
        let tm = Tl2::new();
        let a = TxCell::new(1u64);
        let before = tm.clock();
        tm.execute(|ctx| ctx.write(&a, 2));
        assert_eq!(tm.clock(), before, "a commit only samples the clock");
        // The written stripe carries the commit version, drawn past it.
        assert_eq!(tm.table.load(tm.stripe_for(&a)), before + 2);
    }

    #[test]
    fn an_own_write_exemption_never_crosses_instances() {
        // This thread's descriptor last committed on `a`'s stripe 0 at
        // version 2; then a nested transaction releases `b`'s stripe 0 at
        // that same version under the outer one's read. Taking it for the
        // outer transaction's own write would lose the nested update.
        let (a, b) = (Tl2::with_stripes(1), Tl2::with_stripes(1));
        let (x, y) = (TxCell::new(0u64), TxCell::new(0u64));
        a.execute(|ctx| ctx.write(&x, 1));
        assert_eq!(a.table.load(0), 2);
        let first = std::cell::Cell::new(true);
        b.execute(|ctx| {
            let v = ctx.read(&y);
            if first.replace(false) {
                b.execute(|inner| {
                    let w = inner.read(&y);
                    inner.write(&y, w + 1);
                });
                assert_eq!(b.table.load(0), 2);
            }
            ctx.write(&y, v + 1);
        });
        assert_eq!(y.read_plain(), 2, "no lost update");
        assert!(b.stats().snapshot().sw_aborts >= 1);
    }

    #[test]
    fn stale_read_is_rejected() {
        // A transaction that read x before a conflicting commit must abort
        // rather than commit a value derived from the stale read.
        let tm = Tl2::new();
        let x = TxCell::new(0u64);
        let first = std::cell::Cell::new(true);
        tm.execute(|ctx| {
            let v = ctx.read(&x);
            if first.replace(false) {
                // A conflicting writer commits between our read and commit.
                tm.execute(|inner| {
                    let w = inner.read(&x);
                    inner.write(&x, w + 1);
                });
            }
            ctx.write(&x, v + 1);
        });
        assert_eq!(x.read_plain(), 2, "no lost update");
        assert!(
            tm.stats().snapshot().sw_aborts >= 1,
            "stale attempt aborted"
        );
        assert!(tm.stats().snapshot().validations >= 1);
    }

    #[test]
    fn a_stripe_read_twice_still_fails_validation_after_a_foreign_commit() {
        // The read log keeps both reads of x; the commit's validation must
        // still meet the foreign version on x's stripe.
        let tm = Tl2::new();
        let (x, y) = (TxCell::new(0u64), TxCell::new(0u64));
        let first = std::cell::Cell::new(true);
        tm.execute(|ctx| {
            let v = ctx.read(&x);
            assert_eq!(ctx.read(&x), v);
            if first.replace(false) {
                tm.execute(|inner| inner.write(&x, 10));
            }
            ctx.write(&y, v);
        });
        assert_eq!(y.read_plain(), 10, "the stale attempt did not commit");
        assert_eq!(tm.stats().snapshot().sw_aborts, 1);
    }

    #[test]
    fn concurrent_transfers_conserve_sum() {
        const ACCOUNTS: usize = 16;
        const THREADS: usize = 4;
        const OPS: usize = 1500;
        let tm = Arc::new(Tl2::new());
        let accts: Arc<Vec<TxCell<u64>>> =
            Arc::new((0..ACCOUNTS).map(|_| TxCell::new(100)).collect());

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (tm, accts) = (Arc::clone(&tm), Arc::clone(&accts));
                std::thread::spawn(move || {
                    let mut x = 0x243f_6a88_85a3_08d3u64 ^ (t as u64 + 1);
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
        let tm = Arc::new(Tl2::new());
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

    // ---- clock wraparound (the TatasLock::starting_at pattern) --------

    #[test]
    fn starting_at_rejects_odd() {
        let r = std::panic::catch_unwind(|| Tl2::starting_at(1));
        assert!(r.is_err(), "odd starting clock must be rejected");
    }

    #[test]
    fn wraparound_preserves_parity_and_commits() {
        // Pin the stripes two commits below wraparound and drive one across.
        let tm = Tl2::starting_at(u64::MAX - 3); // even: 2^64 - 4
        let a = TxCell::new(0u64);
        let stripe = tm.stripe_for(&a);
        for i in 1..=4u64 {
            tm.execute(|ctx| {
                let v = ctx.read(&a);
                ctx.write(&a, v + 1);
            });
            assert_eq!(a.read_plain(), i);
            assert!(
                tm.table.load(stripe).is_multiple_of(2),
                "versions stay even across wrap"
            );
        }
        // (2^64 - 4) + 4*2 wraps to 4; the clock was only ever sampled.
        assert_eq!((tm.table.load(stripe), tm.clock()), (4, u64::MAX - 3));
    }

    #[test]
    fn wraparound_validation_is_exact() {
        // A post-wrap commit version (small number) must still read as
        // *newer* than a pre-wrap snapshot (huge number), so a stale
        // transaction spanning the wrap aborts instead of committing.
        let tm = Tl2::starting_at(u64::MAX - 1); // 2^64 - 2
        let x = TxCell::new(0u64);
        let first = std::cell::Cell::new(true);
        tm.execute(|ctx| {
            let v = ctx.read(&x); // rv = 2^64 - 2
            if first.replace(false) {
                // Conflicting commit draws a version past the wrap: 0.
                tm.execute(|inner| {
                    let w = inner.read(&x);
                    inner.write(&x, w + 1);
                });
                assert_eq!(tm.table.load(tm.stripe_for(&x)), 0, "version wrapped");
            }
            ctx.write(&x, v + 1);
        });
        assert_eq!(x.read_plain(), 2, "no lost update across the wrap");
        assert!(tm.stats().snapshot().sw_aborts >= 1);
    }

    #[test]
    fn stripe_aliasing_is_safe() {
        // One stripe for everything: every commit conflicts, but results
        // stay correct (false conflicts cost retries, never correctness).
        let tm = Arc::new(Tl2::with_stripes(1));
        let a = Arc::new(TxCell::new(0u64));
        let b = Arc::new(TxCell::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (tm, a, b) = (Arc::clone(&tm), Arc::clone(&a), Arc::clone(&b));
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        tm.execute(|ctx| {
                            let c = if t == 0 { &*a } else { &*b };
                            let v = ctx.read(c);
                            ctx.write(c, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.read_plain(), 500);
        assert_eq!(b.read_plain(), 500);
    }
}
