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
//! Protocol:
//!
//! * **Begin** — sample the global clock (`rv`, always even).
//! * **Read** — check the stripe unlocked and not newer than `rv`, load the
//!   value, re-check the stripe word unchanged; abort otherwise.
//! * **Commit (writers)** — lock the write stripes in ascending index order
//!   (bounded TATAS spin, then abort), advance the clock (`wv`), validate
//!   the read set against `rv` unless `wv == rv + 2` (nobody else
//!   committed), write back, release every stripe at version `wv`.
//!
//! All version comparisons use wrapping order (`newer_than`), so the clock
//! survives wraparound exactly like [`rtle_core`-style epoch counters];
//! [`Tl2::starting_at`] exists so tests can pin the clock near `u64::MAX`.

use std::sync::atomic::{AtomicU64, Ordering};

use rtle_htm::TxCell;

use crate::descriptor::{abort_sw, SwDescriptor};
use crate::stats::{CommitKind, TmStats};
use crate::tm::{run_sw, SoftwareTm};
use crate::TmCtx;

/// Default number of version-lock stripes (power of two).
pub const DEFAULT_STRIPES: usize = 4096;

/// Spin bounds for the stripe-lock TATAS loop — the same exponential
/// backoff discipline as `rtle-core`'s lock (`BACKOFF_MIN..BACKOFF_MAX`,
/// then a saturated yielding pause).
const BACKOFF_MIN: u32 = 1 << 4;
const BACKOFF_MAX: u32 = 1 << 14;
/// Saturated-pause rounds on one locked stripe before the transaction
/// gives up and aborts (bounded spin: a preempted lock holder must not
/// wedge every writer forever).
const MAX_SATURATED_ROUNDS: u32 = 1024;

/// `true` iff version `v` is newer than snapshot `rv` in wrapping order.
/// Exact for distances below 2^63 — far beyond any reachable in-flight
/// span, since each commit advances the clock by 2.
#[inline]
fn newer_than(v: u64, rv: u64) -> bool {
    v != rv && v.wrapping_sub(rv) < u64::MAX / 2
}

/// A TL2 software transactional memory instance.
///
/// All data accessed inside its transactions must live in [`TxCell`]s and
/// be accessed through the [`TmCtx`] passed to the closure.
#[derive(Debug)]
pub struct Tl2 {
    /// Global version clock; always even (advanced by 2 per writer commit).
    clock: AtomicU64,
    /// Versioned write-locks: even = version of the last commit that wrote
    /// the stripe, odd = locked (`previous_version | 1`).
    stripes: Box<[AtomicU64]>,
    mask: usize,
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
        let n = stripes.max(1).next_power_of_two();
        Self::build(n, 0)
    }

    /// A fresh instance whose clock (and every stripe version) starts at
    /// `clock` — for wraparound tests pinning the clock near `u64::MAX`.
    ///
    /// Panics if `clock` is odd (an odd clock would read as a locked
    /// stripe / in-flight commit that never completes).
    pub fn starting_at(clock: u64) -> Self {
        assert!(clock.is_multiple_of(2), "TL2 clock must start even");
        Self::build(DEFAULT_STRIPES, clock)
    }

    fn build(stripes: usize, clock: u64) -> Self {
        Tl2 {
            clock: AtomicU64::new(clock),
            stripes: (0..stripes).map(|_| AtomicU64::new(clock)).collect(),
            mask: stripes - 1,
            stats: TmStats::new(),
        }
    }

    /// Live statistics.
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Current global version clock (diagnostics/tests).
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
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
    fn stripe_for(&self, cell: *const TxCell<u64>) -> usize {
        let addr = cell as usize as u64 >> 3;
        (addr.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    /// Restores the pre-lock version of every held stripe (commit abort).
    fn rollback(&self, held: &[(usize, u64)]) {
        for &(i, prev) in held {
            self.stripes[i].store(prev, Ordering::Release);
        }
    }

    /// Locks stripe `i` with bounded exponential-backoff spinning.
    /// Returns the pre-lock version; aborts the transaction (after
    /// rolling back `held`) once the spin budget saturates.
    fn lock_stripe(&self, i: usize, held: &[(usize, u64)]) -> u64 {
        let mut backoff = BACKOFF_MIN;
        let mut saturated = 0u32;
        loop {
            let w = self.stripes[i].load(Ordering::Acquire);
            if w & 1 == 0
                && self.stripes[i]
                    .compare_exchange(w, w | 1, Ordering::Acquire, Ordering::Acquire)
                    .is_ok()
            {
                return w;
            }
            // Locked (or the CAS raced): back off exponentially, then
            // yield — a preempted holder needs the CPU to release.
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            if backoff < BACKOFF_MAX {
                backoff <<= 1;
            } else {
                std::thread::yield_now();
                saturated += 1;
                if saturated >= MAX_SATURATED_ROUNDS {
                    self.rollback(held);
                    abort_sw();
                }
            }
        }
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
        d.reset(self.clock.load(Ordering::SeqCst));
    }

    fn read(&self, d: &mut SwDescriptor, cell: &TxCell<u64>) -> u64 {
        if let Some(v) = d.writes.lookup(cell) {
            return v;
        }
        let s = self.stripe_for(cell);
        let w1 = self.stripes[s].load(Ordering::Acquire);
        let val = cell.read_plain();
        let w2 = self.stripes[s].load(Ordering::Acquire);
        if w1 & 1 == 1 || w1 != w2 || newer_than(w1, d.snapshot) {
            // Locked, changed underneath us, or written after our snapshot.
            abort_sw();
        }
        d.log_read(cell, val);
        val
    }

    fn commit(&self, d: &mut SwDescriptor) -> CommitKind {
        if d.is_read_only() {
            // Every read was validated against rv at read time; a read-only
            // transaction serializes at its begin point for free.
            return CommitKind::StmFastCommit;
        }

        // Lock the write stripes in ascending index order (no deadlock).
        let mut idxs: Vec<usize> = d.writes.iter().map(|w| self.stripe_for(w.cell)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        let mut held: Vec<(usize, u64)> = Vec::with_capacity(idxs.len());
        for &i in &idxs {
            let prev = self.lock_stripe(i, &held);
            held.push((i, prev));
        }

        let wv = self.clock.fetch_add(2, Ordering::SeqCst).wrapping_add(2);
        // Seeded mutant (`tl2-stale-read-mutant`, never default): skip the
        // read-set revalidation precisely when the clock advanced — the
        // one case it matters. The fuzz campaign's pinned seed and the
        // model checker's TL2 mutant config must both catch this.
        #[cfg(not(feature = "tl2-stale-read-mutant"))]
        let clock_advanced = wv != d.snapshot.wrapping_add(2);
        #[cfg(feature = "tl2-stale-read-mutant")]
        let clock_advanced = false;
        if clock_advanced {
            // Someone committed since our snapshot: revalidate the read
            // set. Stripes we hold ourselves are checked at their pre-lock
            // version.
            self.stats.record_validation();
            for r in &d.reads {
                let i = self.stripe_for(r.cell);
                let w = match held.binary_search_by_key(&i, |h| h.0) {
                    Ok(p) => held[p].1,
                    Err(_) => self.stripes[i].load(Ordering::Acquire),
                };
                if w & 1 == 1 || newer_than(w, d.snapshot) {
                    self.rollback(&held);
                    abort_sw();
                }
            }
        }

        for w in &d.writes {
            // SAFETY: cells outlive the transaction (captured from live
            // references inside the executing closure). The stores are
            // strongly atomic (they doom racing hardware transactions),
            // and the held stripe locks exclude every conflicting software
            // commit.
            unsafe { (*w.cell).write(w.value) };
        }
        for &(i, _) in &held {
            self.stripes[i].store(wv, Ordering::Release);
        }
        CommitKind::StmFastCommit
    }

    /// TL2's stripe versions cannot observe a hardware commit (hardware
    /// writes don't bump stripe versions), so hardware must yield while
    /// TL2 transactions are live.
    fn hw_commit_hook(&self) -> bool {
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
        assert_eq!(s.stm_fast_commit, 1, "TL2 commits are always StmFast: {s:?}");
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
    fn writer_commit_advances_clock_by_two() {
        let tm = Tl2::new();
        let a = TxCell::new(1u64);
        let before = tm.clock();
        tm.execute(|ctx| ctx.write(&a, 2));
        assert_eq!(tm.clock(), before + 2);
        assert!(tm.clock().is_multiple_of(2));
        // The written stripe carries the commit version.
        let s = tm.stripe_for(&a);
        assert_eq!(tm.stripes[s].load(Ordering::SeqCst), before + 2);
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
        assert!(tm.stats().snapshot().sw_aborts >= 1, "stale attempt aborted");
        assert!(tm.stats().snapshot().validations >= 1);
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
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer = {
            let (tm, a, b, stop) = (
                Arc::clone(&tm),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
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
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }

    // ---- clock wraparound (the SeqEpoch::starting_at pattern) ----------

    #[test]
    fn starting_at_rejects_odd() {
        let r = std::panic::catch_unwind(|| Tl2::starting_at(1));
        assert!(r.is_err(), "odd starting clock must be rejected");
    }

    #[test]
    fn wraparound_preserves_parity_and_commits() {
        // Pin the clock two commits below wraparound and drive it across.
        let tm = Tl2::starting_at(u64::MAX - 3); // even: 2^64 - 4
        let a = TxCell::new(0u64);
        for i in 1..=4u64 {
            tm.execute(|ctx| {
                let v = ctx.read(&a);
                ctx.write(&a, v + 1);
            });
            assert_eq!(a.read_plain(), i);
            assert!(tm.clock().is_multiple_of(2), "clock stays even across wrap");
        }
        // (2^64 - 4) + 4*2 wraps to 4.
        assert_eq!(tm.clock(), 4);
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
                // Conflicting commit wraps the clock to 0.
                tm.execute(|inner| {
                    let w = inner.read(&x);
                    inner.write(&x, w + 1);
                });
                assert_eq!(tm.clock(), 0, "clock wrapped");
            }
            ctx.write(&x, v + 1);
        });
        assert_eq!(x.read_plain(), 2, "no lost update across the wrap");
        assert!(tm.stats().snapshot().sw_aborts >= 1);
    }

    #[test]
    fn newer_than_wrapping_order() {
        assert!(newer_than(2, 0));
        assert!(!newer_than(0, 2), "older is not newer");
        assert!(!newer_than(6, 6), "equal is not newer");
        // Across the wrap: 0 is two commits after 2^64 - 2.
        assert!(newer_than(0, u64::MAX - 1));
        assert!(!newer_than(u64::MAX - 1, 0));
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
