//! Stress: transactions, plain CAS, plain fetch-add and seqlock reads all
//! hammering the same cells concurrently — the full strong-atomicity
//! surface at once.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtle_htm::{swhtm, TxCell};

/// Counter invariant under a mixed operation soup: the final value equals
/// the number of successful increments, no matter which mechanism
/// performed them.
#[test]
fn mixed_increment_mechanisms_agree() {
    let cell = Arc::new(TxCell::new(0u64));
    const PER_THREAD: u64 = 4_000;

    let total: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        // Mechanism 1: transactional read-modify-write.
        for _ in 0..2 {
            let cell = Arc::clone(&cell);
            handles.push(scope.spawn(move || {
                let mut done = 0u64;
                while done < PER_THREAD {
                    if swhtm::try_txn(|| cell.write(cell.read() + 1)).is_ok() {
                        done += 1;
                    }
                }
                done
            }));
        }
        // Mechanism 2: plain atomic fetch-add.
        {
            let cell = Arc::clone(&cell);
            handles.push(scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    cell.fetch_add_plain(1);
                }
                PER_THREAD
            }));
        }
        // Mechanism 3: CAS loop.
        {
            let cell = Arc::clone(&cell);
            handles.push(scope.spawn(move || {
                let mut done = 0u64;
                while done < PER_THREAD {
                    let cur = cell.read_plain();
                    if cell.compare_exchange_plain(cur, cur + 1) {
                        done += 1;
                    }
                }
                done
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(total, 4 * PER_THREAD);
    assert_eq!(
        cell.read_plain(),
        total,
        "an increment was lost across mechanisms"
    );
}

/// Seqlock readers racing a transactional 2-cell invariant plus plain CAS
/// churn on a third cell: readers must never see the pair out of sync.
#[test]
fn seqlock_readers_with_cas_noise() {
    let a = Arc::new(TxCell::new(100u64));
    let b = Arc::new(TxCell::new(100u64));
    let noise = Arc::new(TxCell::new(0u64));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let (a, b, stop) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&stop));
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let d = i % 7;
                    let _ = swhtm::try_txn(|| {
                        let av = a.read();
                        if av >= d {
                            a.write(av - d);
                            b.write(b.read() + d);
                        }
                    });
                }
            });
        }
        {
            let (noise, stop) = (Arc::clone(&noise), Arc::clone(&stop));
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let v = noise.read_plain();
                    let _ = noise.compare_exchange_plain(v, v + 1);
                }
            });
        }
        for _ in 0..20_000 {
            if let Ok((av, bv)) = swhtm::try_txn(|| (a.read(), b.read())) {
                assert_eq!(av + bv, 200, "pair invariant broken");
            }
            let _ = noise.read_plain();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(a.read_plain() + b.read_plain(), 200);
}

/// Capacity limits stay exact even while other threads commit (the
/// descriptor captures its limits at begin).
#[test]
fn capacity_under_concurrency() {
    use rtle_htm::{AbortCode, HtmConfig};
    let cells: Arc<Vec<Box<TxCell<u64>>>> =
        Arc::new((0..64).map(|_| Box::new(TxCell::new(0u64))).collect());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let (cells, stop) = (Arc::clone(&cells), Arc::clone(&stop));
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let _ = swhtm::try_txn(|| cells[i % 64].write(i as u64));
                }
            });
        }
        let cfg = HtmConfig {
            write_capacity: 4,
            read_capacity: 1 << 20,
            spurious_one_in: 0,
            ..HtmConfig::default()
        };
        cfg.with_installed(|| {
            for _ in 0..200 {
                let r: Result<(), AbortCode> = swhtm::try_txn(|| {
                    for c in cells.iter().take(16) {
                        c.write(1);
                    }
                });
                match r {
                    Err(AbortCode::Capacity) | Err(AbortCode::Conflict) => {}
                    other => panic!("expected capacity/conflict, got {other:?}"),
                }
            }
        });
        stop.store(true, Ordering::Relaxed);
    });
}
