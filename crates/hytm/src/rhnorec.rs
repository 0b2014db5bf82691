//! Reduced-Hardware NOrec (Matveev & Shavit, TRANSACT 2014) — the hybrid TM
//! the paper compares refined TLE against (§6.2.2).
//!
//! Protocol, as characterized by the paper:
//!
//! 1. Transactions first attempt to run **entirely in hardware**. At commit
//!    they check the count of running software transactions: if zero, they
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

use rtle_htm::{swhtm, TxCell};

use crate::abort_codes;
use crate::ctx::{sgl_commit, sw_read, validate, wait_even, TmCtx};
use crate::descriptor::SwDescriptor;
use crate::stats::{CommitKind, TmStats};
use crate::tm::{run_sw, SoftwareTm};

/// Hardware attempts before falling to the software path (paper: 5).
pub const HW_ATTEMPTS: u32 = 5;
/// Reduced-hardware commit attempts before the SGL fallback (paper: 5).
pub const COMMIT_ATTEMPTS: u32 = 5;

/// A Reduced-Hardware NOrec hybrid TM instance.
#[derive(Debug)]
pub struct RhNorec {
    clock: TxCell<u64>,
    /// Number of software transactions currently running. Hardware
    /// transactions read it (transactionally) at commit time to decide
    /// whether the clock bump is required.
    sw_count: TxCell<u64>,
    stats: TmStats,
}

impl Default for RhNorec {
    fn default() -> Self {
        Self::new()
    }
}

impl RhNorec {
    /// A fresh instance with the paper's attempt budgets (5 and 5).
    pub fn new() -> Self {
        RhNorec {
            clock: TxCell::new(0),
            sw_count: TxCell::new(0),
            stats: TmStats::new(),
        }
    }

    /// Live statistics (Figures 8–10 are derived from these).
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Number of software transactions currently running (diagnostics).
    pub fn sw_running(&self) -> u64 {
        self.sw_count.read_plain()
    }

    /// Runs `cs` as one atomic transaction: hardware first, software after.
    pub fn execute<R>(&self, cs: impl Fn(&TmCtx<'_>) -> R) -> R {
        // Phase 1: entirely-in-hardware attempts.
        for _ in 0..HW_ATTEMPTS {
            match swhtm::try_txn(|| {
                let ctx = TmCtx::hw();
                let r = cs(&ctx);
                // Commit-time instrumentation: the *only* metadata work on
                // the hardware path.
                let bumped = self.hw_commit_hook();
                (r, bumped)
            }) {
                Ok((r, bumped)) => {
                    self.stats.record_commit(if bumped {
                        CommitKind::HtmSlow
                    } else {
                        CommitKind::HtmFast
                    });
                    return r;
                }
                Err(code) => {
                    self.stats.record_hw_abort();
                    if !code.may_retry() {
                        break;
                    }
                }
            }
        }

        // Phase 2: software transaction, driven by the shared retry loop
        // (which brackets it with enter_sw/exit_sw so the software counter
        // cannot leak even if the closure panics).
        run_sw(self, cs)
    }

    /// Software commit: reduced hardware transaction first, SGL after.
    fn sw_commit(&self, d: &mut SwDescriptor) -> CommitKind {
        if d.is_read_only() {
            // Serialized at the last validation point; nothing to publish.
            return CommitKind::StmFastCommit;
        }

        for _ in 0..COMMIT_ATTEMPTS {
            let r = swhtm::try_txn(|| {
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

    fn commit(&self, d: &mut SwDescriptor) -> CommitKind {
        self.sw_commit(d)
    }

    fn enter_sw(&self) {
        self.sw_count.fetch_add_plain(1);
    }

    fn exit_sw(&self) {
        // Decrement (wrapping add of -1).
        self.sw_count.fetch_add_plain(u64::MAX);
    }

    /// RH-NOrec's hardware commit instrumentation: if software transactions
    /// are running, bump the clock so they revalidate; an odd clock means an
    /// SGL commit is in progress (it may write back at any moment) — bail.
    fn hw_commit_hook(&self) -> bool {
        if self.sw_count.read() > 0 {
            let c = self.clock.read();
            if c & 1 == 1 {
                rtle_htm::abort(abort_codes::SGL_HELD);
            }
            self.clock.write(c + 2);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_commits_in_hardware() {
        let tm = RhNorec::new();
        let a = TxCell::new(1u64);
        let v = tm.execute(|ctx| {
            let v = ctx.read(&a) + 41;
            ctx.write(&a, v);
            v
        });
        assert_eq!(v, 42);
        assert_eq!(a.read_plain(), 42);
        let s = tm.stats().snapshot();
        assert_eq!(s.htm_fast, 1, "uncontended txn commits HTMFast: {s:?}");
        assert_eq!(s.stm_commits(), 0);
    }

    #[test]
    fn unsupported_op_falls_to_software() {
        let tm = RhNorec::new();
        let a = TxCell::new(0u64);
        tm.execute(|ctx| {
            rtle_htm::htm_unfriendly_instruction();
            let v = ctx.read(&a);
            ctx.write(&a, v + 1);
        });
        assert_eq!(a.read_plain(), 1);
        let s = tm.stats().snapshot();
        assert_eq!(s.stm_commits(), 1, "must commit as a software txn: {s:?}");
        assert!(s.hw_aborts >= 1);
        assert_eq!(tm.sw_running(), 0, "sw_count restored");
    }

    #[test]
    fn hardware_bumps_clock_only_when_sw_running() {
        let tm = RhNorec::new();
        let a = TxCell::new(0u64);

        let c0 = tm.clock.read_plain();
        tm.execute(|ctx| ctx.write(&a, 1));
        assert_eq!(tm.clock.read_plain(), c0, "HTMFast: no clock traffic");

        // Pretend a software transaction is running.
        tm.sw_count.fetch_add_plain(1);
        tm.execute(|ctx| ctx.write(&a, 2));
        tm.sw_count.fetch_add_plain(u64::MAX);
        assert_eq!(tm.clock.read_plain(), c0 + 2, "HTMSlow: clock bumped");
        let s = tm.stats().snapshot();
        assert_eq!(s.htm_fast, 1);
        assert_eq!(s.htm_slow, 1);
    }

    #[test]
    fn software_readers_see_hardware_commits_consistently() {
        // A software transaction's revalidation must catch hardware commits
        // that changed its read set.
        let tm = Arc::new(RhNorec::new());
        let a = Arc::new(TxCell::new(500u64));
        let b = Arc::new(TxCell::new(500u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let hw_writer = {
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
                    let d = i % 10;
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

        // Reader that always goes through the software path.
        for _ in 0..500 {
            let (av, bv) = tm.execute(|ctx| {
                rtle_htm::htm_unfriendly_instruction(); // force software
                (ctx.read(&a), ctx.read(&b))
            });
            assert_eq!(av + bv, 1_000, "software snapshot tore");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        hw_writer.join().unwrap();
        assert_eq!(a.read_plain() + b.read_plain(), 1_000);
    }

    #[test]
    fn concurrent_mixed_transfers_conserve_sum() {
        const ACCOUNTS: usize = 16;
        const THREADS: usize = 4;
        const OPS: usize = 1000;
        let tm = Arc::new(RhNorec::new());
        let accts: Arc<Vec<TxCell<u64>>> =
            Arc::new((0..ACCOUNTS).map(|_| TxCell::new(100)).collect());

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (tm, accts) = (Arc::clone(&tm), Arc::clone(&accts));
                std::thread::spawn(move || {
                    let mut x = 0x9e3779b97f4a7c15u64 ^ (t as u64 + 1);
                    for i in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let from = (x as usize) % ACCOUNTS;
                        let to = ((x >> 32) as usize) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        // Every 8th op is forced onto the software path so
                        // hardware and software genuinely interleave.
                        let force_sw = i % 8 == 0;
                        tm.execute(|ctx| {
                            if force_sw {
                                rtle_htm::htm_unfriendly_instruction();
                            }
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
        let s = tm.stats().snapshot();
        assert!(s.stm_commits() > 0, "software path exercised: {s:?}");
        assert!(
            s.htm_fast + s.htm_slow > 0,
            "hardware path exercised: {s:?}"
        );
        assert_eq!(tm.sw_running(), 0);
    }
}
