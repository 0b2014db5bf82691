//! Cross-thread correctness of the emulated HTM: transactions must be
//! serializable among themselves and atomic with respect to plain accesses
//! (strong atomicity), and aborted transactions must leave no trace.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtle_htm::{swhtm, AbortCode, TxCell};

/// Transfers between accounts must conserve the total: the classic
/// serializability smoke test. Each transfer reads two cells and writes two
/// cells in one transaction; any torn or lost update changes the sum.
#[test]
fn concurrent_transfers_conserve_sum() {
    const ACCOUNTS: usize = 32;
    const THREADS: usize = 4;
    const TRANSFERS: usize = 3_000;
    const INITIAL: u64 = 1_000;

    let accounts: Arc<Vec<TxCell<u64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TxCell::new(INITIAL)).collect());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let accounts = Arc::clone(&accounts);
            std::thread::spawn(move || {
                let mut rng = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1);
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut committed = 0u64;
                for _ in 0..TRANSFERS {
                    let from = (next() % ACCOUNTS as u64) as usize;
                    let to = (next() % ACCOUNTS as u64) as usize;
                    if from == to {
                        continue;
                    }
                    let amount = next() % 10;
                    // Retry until committed; contention is real here.
                    loop {
                        let r = swhtm::try_txn(|| {
                            let f = accounts[from].read();
                            if f < amount {
                                return false;
                            }
                            accounts[from].write(f - amount);
                            let tval = accounts[to].read();
                            accounts[to].write(tval + amount);
                            true
                        });
                        match r {
                            Ok(_) => {
                                committed += 1;
                                break;
                            }
                            Err(code) => assert!(code.may_retry(), "unexpected {code}"),
                        }
                    }
                }
                committed
            })
        })
        .collect();

    let total_committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_committed > 0);

    let sum: u64 = accounts.iter().map(|a| a.read_plain()).sum();
    assert_eq!(
        sum,
        ACCOUNTS as u64 * INITIAL,
        "money was created or destroyed"
    );
}

/// A plain (non-transactional) reader must never observe a half-committed
/// transaction: both cells are always updated together, so reader snapshots
/// of (a, b) must satisfy a + b == const whenever it wins the seqlock race.
#[test]
fn strong_atomicity_plain_reader_sees_whole_commits() {
    let a = Arc::new(TxCell::new(500u64));
    let b = Arc::new(TxCell::new(500u64));
    let stop = Arc::new(AtomicU64::new(0));

    let writer = {
        let (a, b, stop) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut i = 0u64;
            while stop.load(Ordering::Relaxed) == 0 {
                i += 1;
                let delta = i % 50;
                let _ = swhtm::try_txn(|| {
                    let av = a.read();
                    if av >= delta {
                        a.write(av - delta);
                        let bv = b.read();
                        b.write(bv + delta);
                    }
                });
            }
        })
    };

    // Plain reads: each individually is strongly atomic; a *pair* of reads
    // is not one atomic snapshot, so read both inside a read-only txn for
    // the invariant check, plus exercise the plain path for tearing.
    for _ in 0..2_000 {
        let _ = a.read_plain();
        let _ = b.read_plain();
        if let Ok((av, bv)) = swhtm::try_txn(|| (a.read(), b.read())) {
            assert_eq!(av + bv, 1_000, "snapshot saw a partial commit");
        }
    }

    stop.store(1, Ordering::Relaxed);
    writer.join().unwrap();
    assert_eq!(a.read_plain() + b.read_plain(), 1_000);
}

/// Two transactions racing on the same cell: exactly the committed ones'
/// increments must be present at the end (lost updates are forbidden).
#[test]
fn no_lost_updates_on_single_counter() {
    const THREADS: usize = 4;
    const INCS: usize = 4_000;
    let counter = Arc::new(TxCell::new(0u64));
    // The increments take less time than spawning the threads does: start
    // them together, or they run one after the other and race with nobody.
    let start = Arc::new(std::sync::Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (counter, start) = (Arc::clone(&counter), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut committed = 0u64;
                for i in 0..INCS {
                    loop {
                        // Every so often the read goes stale before the
                        // write: whoever runs during the yield commits in
                        // between, and this attempt must fail validation.
                        // (Optimised, the window is otherwise a few
                        // nanoseconds wide and nothing ever lands in it.)
                        let rmw = || {
                            let seen = counter.read();
                            if i % 8 == 0 {
                                std::thread::yield_now();
                            }
                            counter.write(seen + 1);
                        };
                        match swhtm::try_txn(rmw) {
                            Ok(()) => {
                                committed += 1;
                                break;
                            }
                            Err(c) => assert!(c.may_retry()),
                        }
                    }
                }
                committed
            })
        })
        .collect();

    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, (THREADS * INCS) as u64);
    assert_eq!(counter.read_plain(), total);
}

/// A plain store must doom concurrently running transactions that read the
/// cell earlier (strong atomicity, write direction).
#[test]
fn plain_store_aborts_conflicting_txn() {
    let c = Arc::new(TxCell::new(0u64));
    let barrier = Arc::new(std::sync::Barrier::new(2));

    let storer = {
        let (c, barrier) = (Arc::clone(&c), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait(); // txn has read c
            c.write(42); // plain store (not in a txn)
            barrier.wait(); // let the txn finish
        })
    };

    let r: Result<u64, AbortCode> = swhtm::try_txn(|| {
        let v = c.read();
        barrier.wait();
        barrier.wait(); // plain store has landed
                        // Reading again must observe the doomed snapshot and abort.
        v + c.read()
    });
    assert_eq!(r, Err(AbortCode::Conflict));
    storer.join().unwrap();
    assert_eq!(c.read_plain(), 42);
}
