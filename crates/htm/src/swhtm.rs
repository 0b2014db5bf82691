//! The software-emulated best-effort HTM runtime.
//!
//! The protocol is TL2-flavoured lazy versioning, packaged to *look like*
//! hardware: user code calls [`try_txn`] with a closure, reads and writes
//! [`crate::TxCell`]s freely inside it, and either gets the closure's result
//! (the transaction committed atomically) or an [`AbortCode`] explaining why
//! the attempt failed. Retry policy is entirely the caller's business, just
//! as with `xbegin`.
//!
//! Protocol outline:
//!
//! 1. **Begin** — snapshot the global clock as `rv`; optionally inject a
//!    spurious abort (configurable rate).
//! 2. **Read barrier** — read own redo log first; otherwise sample the
//!    stripe word, load the value, re-sample. Abort on a locked stripe or a
//!    version newer than `rv` (the snapshot can no longer be extended —
//!    best-effort HTM aborts rather than revalidates).
//! 3. **Write barrier** — buffer the word in the redo log; count distinct
//!    lines against the write capacity.
//! 4. **Commit** — read-only transactions commit immediately (their reads
//!    were each validated against `rv`). Writers lock their write stripes,
//!    draw a commit version `wv`, validate the read set (unless `wv == rv+2`,
//!    the TL2 "nobody else committed" shortcut), write back the redo log and
//!    release the stripes at version `wv`. The write-back window is covered
//!    by the stripe locks, which both transactional *and plain* readers
//!    respect — commits are atomic for everyone (strong atomicity).
//!
//! Control transfer on abort unwinds on [`Channel::Htm`] of
//! [`crate::unwind`]; the runner catches exactly that channel and translates
//! it back into an `Err(AbortCode)`. Genuine panics propagate unchanged.

use std::sync::atomic::AtomicU64;

use crate::abort::{self, AbortCode};
use crate::config;
use crate::descriptor::{self, with_txn};
use crate::stats;
use crate::stripe;
use crate::unwind::{self, Channel};

/// Runs `f` as one software transaction attempt.
///
/// Returns `Ok(result)` if the transaction committed, `Err(code)` if it
/// aborted (in which case no effect of `f` on any [`crate::TxCell`] is
/// visible — writes were buffered and discarded).
///
/// Nested calls on the same thread flatten into the outer transaction: the
/// inner closure runs inline and an abort anywhere unwinds the whole flat
/// nest, mirroring Intel RTM's flat nesting.
///
/// # Panics
///
/// Re-raises any non-abort panic from `f` after rolling the transaction
/// back, so invariant violations in user code still surface.
pub fn try_txn<R>(f: impl FnOnce() -> R) -> Result<R, AbortCode> {
    if descriptor::in_sw_txn() {
        // Flat nesting: run inline as part of the enclosing transaction. An
        // abort unwinds straight through to the outer runner's catch.
        return Ok(f());
    }

    stats::record_start();
    if let Some(code) = injected_abort() {
        stats::record_abort(code);
        return Err(code);
    }

    let rv = stripe::clock();
    with_txn(|t| t.reset(rv, config::read_capacity(), config::write_capacity()));

    /// Marks the thread as inside a transaction until dropped — on commit,
    /// on abort, and when a foreign unwind passes through.
    struct Active;
    impl Drop for Active {
        fn drop(&mut self) {
            descriptor::set_active(false);
        }
    }
    descriptor::set_active(true);
    let active = Active;
    // An aborted attempt's redo log is simply never written back; the next
    // begin's reset discards it.
    let outcome = unwind::catch(Channel::Htm, f).and_then(|value| commit().map(|()| value));
    drop(active);

    match outcome {
        Ok(_) => stats::record_commit(),
        Err(code) => stats::record_abort(code),
    }
    outcome
}

/// Commit protocol for the descriptor on this thread. On `Err`, all stripe
/// locks taken here have been released with their old versions restored.
fn commit() -> Result<(), AbortCode> {
    with_txn(|t| {
        if t.write_stripes.is_empty() {
            // Read-only: every read was individually validated against rv.
            return Ok(());
        }
        let owner = descriptor::thread_token();

        // Phase 1: lock the write set.
        let mut locked: Vec<(u32, u64)> = Vec::with_capacity(t.write_stripes.len() as usize);
        for s in t.write_stripes.iter() {
            match stripe::try_lock(s, owner) {
                Ok(prev) => locked.push((s, prev)),
                Err(_) => {
                    for &(ls, prev) in &locked {
                        stripe::unlock(ls, prev);
                    }
                    return Err(AbortCode::Conflict);
                }
            }
        }

        // Phase 2: draw the commit version.
        let wv = stripe::next_commit_version();

        // Phase 3: validate the read set (unless no one committed since rv).
        // A stripe we locked ourselves is validated against the version it
        // held *before* we locked it — skipping that check is the classic
        // TL2 lost-update bug (two readers of the same line both locking it
        // for write and both committing).
        if wv != t.rv + 2 {
            for s in t.read_stripes.iter() {
                let w = stripe::load(s);
                let bad = if stripe::is_locked(w) {
                    if stripe::owner_of(w) == owner {
                        locked
                            .iter()
                            .find(|&&(ls, _)| ls == s)
                            .map(|&(_, prev)| prev)
                            .expect("self-locked stripe must be in the locked list")
                            > t.rv
                    } else {
                        true
                    }
                } else {
                    w > t.rv
                };
                if bad {
                    for &(ls, prev) in &locked {
                        stripe::unlock(ls, prev);
                    }
                    return Err(AbortCode::Conflict);
                }
            }
        }

        // Phase 4: write back under the stripe locks, then release at wv.
        for e in &t.redo {
            // SAFETY: `cell` was captured from a live `&TxCell` earlier in
            // this same transaction; the cell cannot have been dropped while
            // a reference existed, and the log does not outlive try_txn.
            unsafe { (*e.cell).store(e.value, std::sync::atomic::Ordering::Release) };
        }
        for &(ls, _) in &locked {
            stripe::unlock(ls, wv);
        }
        Ok(())
    })
}

/// Transactional read barrier for `cell` (called via `TxCell::read`).
#[inline]
pub(crate) fn read_barrier(cell: &AtomicU64) -> u64 {
    let addr = cell as *const AtomicU64 as usize;
    let idx = stripe::stripe_index(addr);

    let (rv, own) = with_txn(|t| (t.rv, t.redo.lookup(cell)));
    if let Some(v) = own {
        return v;
    }

    let w1 = stripe::load(idx);
    if stripe::is_locked(w1) || w1 > rv {
        abort::raise(AbortCode::Conflict);
    }
    let val = cell.load(std::sync::atomic::Ordering::Acquire);
    let w2 = stripe::load(idx);
    if w2 != w1 {
        abort::raise(AbortCode::Conflict);
    }

    let over = with_txn(|t| t.read_stripes.insert(idx) && t.read_stripes.len() > t.read_capacity);
    if over {
        abort::raise(AbortCode::Capacity);
    }
    val
}

/// Transactional write barrier for `cell` (called via `TxCell::write`).
#[inline]
pub(crate) fn write_barrier(cell: &AtomicU64, value: u64) {
    let addr = cell as *const AtomicU64 as usize;
    let idx = stripe::stripe_index(addr);

    // Eager sanity check: a stripe currently locked by another committer is
    // a conflict we will certainly lose; abort now (hardware would too).
    let w = stripe::load(idx);
    if stripe::is_locked(w) && stripe::owner_of(w) != descriptor::thread_token() {
        abort::raise(AbortCode::Conflict);
    }

    let over = with_txn(|t| {
        t.redo.log_write(cell, value);
        t.write_stripes.insert(idx) && t.write_stripes.len() > t.write_capacity
    });
    if over {
        abort::raise(AbortCode::Capacity);
    }
}

/// Begin-time abort injection (chaos hooks): spurious, conflict and
/// capacity each tick an independent per-thread counter and fire every Nth
/// begin. Checked in that order, so overlapping rates report the
/// highest-priority code deterministically.
fn injected_abort() -> Option<AbortCode> {
    let spurious = config::spurious_one_in();
    if spurious != 0 && tick(0, spurious) {
        return Some(AbortCode::Spurious);
    }
    let conflict = config::conflict_one_in();
    if conflict != 0 && tick(1, conflict) {
        return Some(AbortCode::Conflict);
    }
    let capacity = config::capacity_one_in();
    if capacity != 0 && tick(2, capacity) {
        return Some(AbortCode::Capacity);
    }
    None
}

/// Per-thread injection ticker `which` (0=spurious, 1=conflict,
/// 2=capacity): returns true every `one_in`-th call.
fn tick(which: usize, one_in: u64) -> bool {
    thread_local! {
        static TICKS: std::cell::Cell<[u64; 3]> = const { std::cell::Cell::new([0; 3]) };
    }
    TICKS.with(|t| {
        let mut arr = t.get();
        arr[which] += 1;
        let fire = arr[which] >= one_in;
        if fire {
            arr[which] = 0;
        }
        t.set(arr);
        fire
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxCell;

    #[test]
    fn read_only_txn_commits() {
        let c = TxCell::new(7u64);
        assert_eq!(try_txn(|| c.read()), Ok(7));
    }

    #[test]
    fn write_txn_commits_and_is_visible() {
        let c = TxCell::new(1u64);
        try_txn(|| c.write(2)).unwrap();
        assert_eq!(c.read_plain(), 2);
    }

    #[test]
    fn aborted_txn_has_no_effect() {
        let c = TxCell::new(1u64);
        let r: Result<(), AbortCode> = try_txn(|| {
            c.write(99);
            crate::abort(5);
        });
        assert_eq!(r, Err(AbortCode::Explicit(5)));
        assert_eq!(c.read_plain(), 1);
    }

    #[test]
    fn read_own_write() {
        let c = TxCell::new(1u64);
        let seen = try_txn(|| {
            c.write(50);
            c.read()
        })
        .unwrap();
        assert_eq!(seen, 50);
        assert_eq!(c.read_plain(), 50);
    }

    #[test]
    fn flat_nesting_commits_together() {
        let a = TxCell::new(0u64);
        let b = TxCell::new(0u64);
        try_txn(|| {
            a.write(1);
            let inner = try_txn(|| {
                b.write(2);
                b.read()
            });
            assert_eq!(inner, Ok(2));
        })
        .unwrap();
        assert_eq!((a.read_plain(), b.read_plain()), (1, 2));
    }

    #[test]
    fn write_capacity_abort() {
        let cfg = crate::HtmConfig {
            write_capacity: 4,
            read_capacity: 1024,
            spurious_one_in: 0,
            ..crate::HtmConfig::default()
        };
        cfg.with_installed(|| {
            // Heap-allocate widely spaced cells: distinct lines.
            let cells: Vec<Box<TxCell<u64>>> =
                (0..64).map(|_| Box::new(TxCell::new(0u64))).collect();
            let r: Result<(), AbortCode> = try_txn(|| {
                for c in &cells {
                    c.write(1);
                }
            });
            assert_eq!(r, Err(AbortCode::Capacity));
            assert!(cells.iter().all(|c| c.read_plain() == 0));
        });
    }

    #[test]
    fn read_capacity_abort() {
        let cfg = crate::HtmConfig {
            write_capacity: 1024,
            read_capacity: 4,
            spurious_one_in: 0,
            ..crate::HtmConfig::default()
        };
        cfg.with_installed(|| {
            let cells: Vec<Box<TxCell<u64>>> =
                (0..64).map(|_| Box::new(TxCell::new(0u64))).collect();
            let r: Result<u64, AbortCode> = try_txn(|| cells.iter().map(|c| c.read()).sum());
            assert_eq!(r, Err(AbortCode::Capacity));
        });
    }

    #[test]
    fn spurious_injection_fires() {
        let cfg = crate::HtmConfig {
            spurious_one_in: 1,
            ..Default::default()
        };
        cfg.with_installed(|| {
            let r: Result<(), AbortCode> = try_txn(|| ());
            assert_eq!(r, Err(AbortCode::Spurious));
        });
    }

    #[test]
    fn conflict_and_capacity_injection_fire() {
        let cfg = crate::HtmConfig {
            conflict_one_in: 1,
            ..Default::default()
        };
        cfg.with_installed(|| {
            let r: Result<(), AbortCode> = try_txn(|| ());
            assert_eq!(r, Err(AbortCode::Conflict));
        });
        let cfg = crate::HtmConfig {
            capacity_one_in: 1,
            ..Default::default()
        };
        cfg.with_installed(|| {
            let r: Result<(), AbortCode> = try_txn(|| ());
            assert_eq!(r, Err(AbortCode::Capacity));
        });
    }

    #[test]
    fn injection_rate_one_in_two_fires_every_other_begin() {
        let cfg = crate::HtmConfig {
            spurious_one_in: 2,
            ..Default::default()
        };
        cfg.with_installed(|| {
            let outcomes: Vec<bool> = (0..6)
                .map(|_| try_txn(|| ()).is_err())
                .collect();
            assert_eq!(outcomes.iter().filter(|&&e| e).count(), 3, "{outcomes:?}");
        });
    }

    #[test]
    fn plain_store_dooms_concurrent_reader_snapshot() {
        // A transaction that read a cell must abort if a plain store lands
        // on it afterwards (validated here via a second read of the same
        // cell observing the doomed snapshot).
        let c = Box::new(TxCell::new(0u64));
        let r: Result<(), AbortCode> = try_txn(|| {
            let _ = c.read();
            // Simulate an intervening plain store from "another thread" by
            // calling the non-transactional path directly; the emulation
            // treats it as an external strongly-atomic write.
            c.store_plain_for_test(123);
            let _ = c.read(); // version now exceeds rv -> conflict
        });
        assert_eq!(r, Err(AbortCode::Conflict));
    }
}
