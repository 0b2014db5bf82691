//! The software-emulated best-effort HTM runtime.
//!
//! The protocol is TL2-flavoured lazy versioning, packaged to *look like*
//! hardware: user code calls [`try_txn`] with a closure, reads and writes
//! [`crate::TxCell`]s freely inside it, and either gets the closure's result
//! (the transaction committed atomically) or an [`AbortCode`] explaining why
//! the attempt failed. Retry policy is entirely the caller's business, just
//! as with `xbegin`.
//!
//! The protocol itself — stripe table, commit clock, read → extend →
//! validate, lock → stamp → release — lives in [`crate::stripe`], which
//! also carries the argument for why it is safe. This module is the
//! emulation's caller of it on [`stripe::GLOBAL`], plus what only hardware
//! has: capacity limits, abort injection and the eager write check.
//!
//! 1. **Begin** — no shared access at all. The read-version `rv` is the
//!    last clock value this thread observed (the sample its last writing
//!    commit drew at, or its last snapshot extension; 0 on a fresh
//!    thread), carried over in the thread's footprint. Optionally inject a
//!    spurious abort (configurable rate).
//! 2. **Read barrier** — read own redo log first; otherwise
//!    [`Table::read`](stripe::Table::read) through the cell's cache line:
//!    abort on a locked stripe, extend the snapshot over an unlocked
//!    stripe newer than `rv`. The footprint logs the line; once the log
//!    passes the read capacity, compact it and abort if its distinct
//!    lines still do.
//! 3. **Write barrier** — buffer the word in the redo log; the same for
//!    the write log against the write capacity.
//! 4. **Commit** — [`Table::commit`](stripe::Table::commit), trying each
//!    write stripe once (hardware does not wait) and writing the redo log
//!    back with raw `Release` stores. The write-back window is covered by
//!    the stripe locks, which both transactional *and plain* readers
//!    respect — commits are atomic for everyone (strong atomicity).
//!
//! Carrying `rv` over is also closer to the hardware than a begin-time
//! snapshot. Real HTM aborts a transaction only for lines already in its
//! read or write set; a snapshot fixed at begin aborts on *any* line
//! written since begin, read or not. With extension, a line written before
//! its first read is simply read at its new value. And lock subscription
//! is unaffected: an acquisition is a plain store, which publishes the
//! lock word at a fresh version, above any `rv` cached before it.
//!
//! Control transfer on abort unwinds on [`Channel::Htm`] of
//! [`crate::unwind`]; the runner catches exactly that channel and translates
//! it back into an `Err(AbortCode)`. Genuine panics propagate unchanged.

// Hot path, no `unwrap` or `panic!` outside tests: every emulated hardware
// transaction begins and commits here.
#![warn(clippy::unwrap_used, clippy::panic)]

use crate::abort::{self, AbortCode};
use crate::atomic::ProtocolWord;
use crate::config;
use crate::descriptor::{with_thread, SwTxn, ThreadState};
use crate::stats;
use crate::stripe::{self, GLOBAL};
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
    with_thread(|th| {
        if th.is_active() {
            // Flat nesting: run inline as part of the enclosing transaction.
            // An abort unwinds straight through to the outer runner's catch.
            return Ok(f());
        }

        let outcome = match injected_abort() {
            Some(code) => Err(code),
            None => {
                th.with_txn(SwTxn::reset);
                let active = th.activate();
                // An aborted attempt's redo log is simply never written
                // back; the next begin's reset discards it.
                let outcome = unwind::catch(Channel::Htm, f)
                    .and_then(|value| th.with_txn(|t| commit(t, th.token())).map(|()| value));
                drop(active);
                outcome
            }
        };
        stats::record_end(th.writer(), outcome.as_ref().err().copied());
        outcome
    })
}

/// Commits descriptor `t` of the thread holding `owner`: each write stripe
/// is tried once, the redo log written back under the stripe locks.
fn commit(t: &mut SwTxn, owner: u64) -> Result<(), AbortCode> {
    GLOBAL.commit(
        &mut t.footprint,
        |s| GLOBAL.try_lock(s, owner).ok(),
        || {
            for e in &t.redo {
                // SAFETY: `cell` was captured from a live `&TxCell` earlier in
                // this same transaction; the cell cannot have been dropped while
                // a reference existed, and the log does not outlive try_txn.
                unsafe { (*e.cell).store(e.value) };
            }
        },
    )
}

/// Transactional read barrier for `cell` (called via `TxCell::read`).
#[inline]
pub(crate) fn read_barrier(th: &ThreadState, cell: &ProtocolWord) -> u64 {
    let idx = stripe::stripe_index(cell as *const ProtocolWord as usize);
    let read = th.with_txn(|t| {
        if let Some(v) = t.redo.lookup(cell) {
            return Ok(v);
        }
        let fp = &mut t.footprint;
        let val = GLOBAL.read(fp, idx, || cell.load())?;
        // The log's length bounds its distinct lines from above: count
        // them exactly only once it passes the capacity.
        let cap = config::read_capacity();
        if fp.reads.len() > cap && fp.compact_reads() > cap {
            return Err(AbortCode::Capacity);
        }
        Ok(val)
    });
    match read {
        Ok(val) => val,
        Err(code) => abort::raise(code),
    }
}

/// Transactional write barrier for `cell` (called via `TxCell::write`).
#[inline]
pub(crate) fn write_barrier(th: &ThreadState, cell: &ProtocolWord, value: u64) {
    let idx = stripe::stripe_index(cell as *const ProtocolWord as usize);

    // Eager sanity check: a stripe currently locked by another committer is
    // a conflict we will certainly lose; abort now (hardware would too).
    let w = GLOBAL.load(idx);
    if stripe::is_locked(w) && stripe::owner_of(w) != th.token() {
        abort::raise(AbortCode::Conflict);
    }

    let over = th.with_txn(|t| {
        t.redo.log_write(cell, value);
        let fp = &mut t.footprint;
        fp.write(idx);
        let cap = config::write_capacity();
        fp.writes.len() > cap && fp.compact_writes() > cap
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

    #[repr(align(64))]
    struct Padded(TxCell<u64>);

    /// Five of `pool`'s cells, each on its own line, on five distinct
    /// stripes.
    fn five_lines(pool: &[Padded]) -> Vec<&TxCell<u64>> {
        let mut cells: Vec<&TxCell<u64>> = Vec::new();
        for p in pool {
            let s = stripe::stripe_index(p.0.addr());
            if cells.len() < 5 && cells.iter().all(|c| stripe::stripe_index(c.addr()) != s) {
                cells.push(&p.0);
            }
        }
        assert_eq!(cells.len(), 5, "sixteen lines on fewer than five stripes");
        cells
    }

    /// Runs `access` on the four first of `cells` a thousand times each,
    /// then on the fifth, under a capacity of 4 for both sets. Returns
    /// the outcome and how many accesses completed.
    fn at_capacity_four(access: impl Fn(&TxCell<u64>)) -> (Result<(), AbortCode>, u32) {
        let cfg = crate::HtmConfig {
            write_capacity: 4,
            read_capacity: 4,
            spurious_one_in: 0,
            ..crate::HtmConfig::default()
        };
        cfg.with_installed(|| {
            let pool: Vec<Padded> = (0..16).map(|_| Padded(TxCell::new(0))).collect();
            let cells = five_lines(&pool);
            let done = std::cell::Cell::new(0);
            let run = |lines: usize| {
                done.set(0);
                try_txn(|| {
                    for _ in 0..1_000 {
                        for c in &cells[..4] {
                            access(c);
                            done.set(done.get() + 1);
                        }
                    }
                    for c in &cells[4..lines] {
                        access(c);
                        done.set(done.get() + 1);
                    }
                })
            };
            assert_eq!(run(4), Ok(()), "four lines, a thousand times each");
            assert_eq!(done.get(), 4_000);
            (run(5), done.get())
        })
    }

    #[test]
    fn read_capacity_counts_distinct_lines_exactly() {
        let (fifth, done) = at_capacity_four(|c| {
            c.read();
        });
        assert_eq!((fifth, done), (Err(AbortCode::Capacity), 4_000));
    }

    #[test]
    fn write_capacity_counts_distinct_lines_exactly() {
        let (fifth, done) = at_capacity_four(|c| c.write(1));
        assert_eq!((fifth, done), (Err(AbortCode::Capacity), 4_000));
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
            let outcomes: Vec<bool> = (0..6).map(|_| try_txn(|| ()).is_err()).collect();
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
            let _ = c.read(); // version now exceeds rv; extension finds c changed
        });
        assert_eq!(r, Err(AbortCode::Conflict));
    }

    /// This thread's current read-version.
    fn rv_now() -> u64 {
        with_thread(|th| th.with_txn(|t| t.footprint.rv))
    }

    #[test]
    fn cached_rv_survives_an_idle_thread() {
        crate::HtmConfig::default().with_installed(|| {
            let cells: Vec<Box<TxCell<u64>>> = (0..3).map(|_| Box::new(TxCell::new(0))).collect();
            try_txn(|| cells[0].write(1)).unwrap();
            let stale = rv_now();

            // 10^4 foreign commits while this thread sits idle.
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        try_txn(|| cells.iter().for_each(|c| c.write(i))).unwrap();
                    }
                });
            });
            assert_eq!(rv_now(), stale, "nothing refreshes an idle thread's rv");

            // The first read extends over everything missed; the others are
            // then inside the snapshot.
            let rvs = try_txn(|| {
                cells
                    .iter()
                    .map(|c| (c.read(), rv_now()))
                    .collect::<Vec<_>>()
            })
            .expect("a stale rv costs an extension, never the transaction");
            assert!(rvs.iter().all(|&(v, _)| v == 9_999));
            assert!(
                rvs[0].1 >= stale + 2 * 10_000,
                "one extension, at the first read"
            );
            assert!(
                rvs.iter().all(|&(_, rv)| rv == rvs[0].1),
                "and no second one"
            );
        });
    }
}
