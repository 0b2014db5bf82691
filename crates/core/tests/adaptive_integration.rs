//! End-to-end behaviour of the adaptive FG-TLE extension (§4.2.1): the
//! lock holder shrinks/disables the slow path when it buys nothing, and
//! keeps it when concurrent slow-path commits are happening.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy, TxCell};

/// Single-threaded lock-path-only workload: the slow path is pure
/// overhead, so the adaptive policy must shrink the active orecs and
/// eventually collapse to plain TLE.
#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: adaptive collapse relies on wall-clock pacing"
)]
fn adaptive_collapses_when_slow_path_is_useless() {
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::AdaptiveFgTle {
            initial_orecs: 256,
            max_orecs: 1024,
        })
        .build();
    let cell = TxCell::new(0u64);
    assert_eq!(lock.slow_path_enabled(), Some(true));
    let initial_active = lock.orec_table().unwrap().active_plain();
    assert_eq!(initial_active, 256);

    // Every op is HTM-hostile: always under the lock, never a concurrent
    // speculator — the adaptation window sees zero slow-path benefit.
    for _ in 0..5_000 {
        lock.execute(|ctx| {
            rtle_htm::htm_unfriendly_instruction();
            let v = ctx.read(&cell);
            ctx.write(&cell, v + 1);
        });
    }
    assert_eq!(cell.read_plain(), 5_000);
    assert_eq!(
        lock.slow_path_enabled(),
        Some(false),
        "idle slow path must collapse to plain TLE (active orecs: {})",
        lock.orec_table().unwrap().active_plain()
    );
}

/// A holder that keeps the lock while disjoint threads work: they can only
/// progress on the slow path, so it is used, and nothing is lost on it.
/// Whether the policy then *keeps* the slow path is decided from the
/// window's counts alone and asserted where those can be dictated:
/// `adaptive::tests::paying_slow_path_is_never_shrunk_or_collapsed`. What
/// the flag reads at the instant a real run stops depends on how the
/// scheduler cut the last windows.
#[test]
#[cfg_attr(miri, ignore = "needs real concurrent slow-path commits")]
fn adaptive_keeps_slow_path_when_it_pays() {
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::AdaptiveFgTle {
                initial_orecs: 256,
                max_orecs: 1024,
            })
            .build(),
    );
    let hot = Arc::new(TxCell::new(0u64));
    // One private cell per concurrent thread: truly disjoint footprints
    // (threads sharing a cell conflict with each other through the orecs
    // whenever one of them falls back to the lock — correctly).
    let cold: Arc<Vec<TxCell<u64>>> = Arc::new((0..2).map(|_| TxCell::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let cold_ops = Arc::new(AtomicU64::new(0));

    let (hot_ops, cold_done) = std::thread::scope(|scope| {
        // Pessimistic updater (always locks, writes `hot`). It keeps the
        // lock held until the disjoint threads make progress — while the
        // lock is held they can only progress via the slow path, so this
        // guarantees lock/slow-path overlap on any core count. (Merely
        // yielding between ops is not enough: on a single-CPU machine the
        // lock is released before the other threads ever get scheduled.)
        let updater = {
            let (lock, hot, stop) = (Arc::clone(&lock), Arc::clone(&hot), Arc::clone(&stop));
            let cold_ops = Arc::clone(&cold_ops);
            scope.spawn(move || {
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    lock.execute(|ctx| {
                        rtle_htm::htm_unfriendly_instruction();
                        let v = ctx.read(&hot);
                        ctx.write(&hot, v + 1);
                        let c0 = cold_ops.load(Ordering::Relaxed);
                        for _ in 0..200 {
                            if cold_ops.load(Ordering::Relaxed) >= c0 + 2 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    });
                    ops += 1;
                }
                ops
            })
        };
        // Disjoint reader-writers: succeed on the slow path while the
        // updater holds the lock.
        let readers: Vec<_> = (0..2usize)
            .map(|t| {
                let (lock, cold, stop) = (Arc::clone(&lock), Arc::clone(&cold), Arc::clone(&stop));
                let cold_ops = Arc::clone(&cold_ops);
                scope.spawn(move || {
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Start the next operation during a hold if one is
                        // coming. An operation that is already speculating
                        // when the lock is taken is doomed and waits the
                        // hold out (anti-lemming); should that happen to
                        // both threads at every acquisition, the slow path
                        // would never even be tried.
                        for _ in 0..20 {
                            if lock.is_held() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        lock.execute(|ctx| {
                            let v = ctx.read(&cold[t]);
                            ctx.write(&cold[t], v + 1);
                        });
                        cold_ops.fetch_add(1, Ordering::Relaxed);
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let cold_done: Vec<u64> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        (updater.join().unwrap(), cold_done)
    });

    let snap = lock.stats().snapshot();
    assert!(
        snap.slow_commits > 0,
        "slow path must have been used: {snap:?}"
    );
    assert_eq!(hot.read_plain(), hot_ops);
    assert_eq!(
        cold.iter().map(|c| c.read_plain()).collect::<Vec<_>>(),
        cold_done
    );
}

/// Resizes only ever happen while the lock is held; the data structure
/// stays correct across them (counter total is exact).
#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: multi-thread stress with wall-clock duration"
)]
fn adaptive_resizes_preserve_correctness() {
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::AdaptiveFgTle {
                initial_orecs: 4,
                max_orecs: 4096,
            })
            .build(),
    );
    let cells: Arc<Vec<TxCell<u64>>> = Arc::new((0..64).map(|_| TxCell::new(0)).collect());

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let (lock, cells) = (Arc::clone(&lock), Arc::clone(&cells));
            scope.spawn(move || {
                for i in 0..3_000usize {
                    let idx = (i * 7 + t * 13) % cells.len();
                    lock.execute(|ctx| {
                        if i % 50 == 0 {
                            rtle_htm::htm_unfriendly_instruction();
                        }
                        let v = ctx.read(&cells[idx]);
                        ctx.write(&cells[idx], v + 1);
                    });
                }
            });
        }
    });

    let total: u64 = cells.iter().map(|c| c.read_plain()).sum();
    assert_eq!(total, 4 * 3_000);
    let active = lock.orec_table().unwrap().active_plain();
    assert!(
        (1..=4096).contains(&active),
        "active stayed in range: {active}"
    );
}
