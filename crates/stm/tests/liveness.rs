//! Retry/wakeup liveness: blocked consumers must actually park (no
//! spinning) and must be woken by producer commits (no lost wakeups),
//! across every rung the producer can commit on.

use std::time::{Duration, Instant};

use rtle_core::ElisionPolicy;
use rtle_stm::{Stm, TxVar};
use rtle_structs::TxHashSet;

/// A consumer that retries on an empty counter parks and is woken by the
/// producer's commit — visible in the stats as parks ≥ 1 with notified
/// wakeups, not timeout recoveries.
#[test]
fn blocked_consumer_is_woken_by_producer_commit() {
    let space = Stm::new();
    let items = TxVar::new(0u64);
    const BATCHES: u64 = 16;

    std::thread::scope(|s| {
        let (space, items) = (&space, &items);
        let consumer = s.spawn(move || {
            let mut consumed = 0u64;
            while consumed < BATCHES {
                space.atomically(|tx| {
                    let n = tx.read(items);
                    tx.check(n > 0)?; // retry: park until a producer commits
                    tx.write(items, n - 1);
                    Ok(())
                });
                consumed += 1;
            }
            consumed
        });
        s.spawn(move || {
            for _ in 0..BATCHES {
                // Give the consumer time to drain and park again, so the
                // wakeup path (not the fast pre-park recheck) is exercised.
                std::thread::sleep(Duration::from_millis(2));
                space.atomically(|tx| {
                    let n = tx.read(items);
                    tx.write(items, n + 1);
                    Ok(())
                });
            }
        });
        assert_eq!(consumer.join().unwrap(), BATCHES);
    });

    let s = space.stats().snapshot();
    assert!(s.parks >= 1, "consumer never parked: {s:?}");
    assert!(s.wakes_notified >= 1, "no notified wakeup observed: {s:?}");
    assert!(s.wakeups_sent >= 1, "producer sent no wakeups: {s:?}");
}

/// Ping-pong handoff through a TxVar: each side blocks for the other's
/// parity. With lost wakeups every round would eat a 100 ms timeout
/// (≥ 40 s total); the wall-clock bound plus the notified/timeout split
/// proves wakeups are delivered by commits.
#[test]
fn ping_pong_has_no_lost_wakeups() {
    let space = Stm::new();
    let token = TxVar::new(0u64);
    const ROUNDS: u64 = 200;

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (space, token) = (&space, &token);
        s.spawn(move || {
            for i in 0..ROUNDS {
                space.atomically(|tx| {
                    let v = tx.read(token);
                    tx.check(v == 2 * i)?;
                    tx.write(token, v + 1);
                    Ok(())
                });
            }
        });
        s.spawn(move || {
            for i in 0..ROUNDS {
                space.atomically(|tx| {
                    let v = tx.read(token);
                    tx.check(v == 2 * i + 1)?;
                    tx.write(token, v + 1);
                    Ok(())
                });
            }
        });
    });
    let elapsed = t0.elapsed();

    assert_eq!(token.read_plain(), 2 * ROUNDS);
    let s = space.stats().snapshot();
    assert!(
        elapsed < Duration::from_secs(10),
        "handoffs relied on timeout recovery ({elapsed:?}): {s:?}"
    );
    assert!(
        s.wakes_notified > s.wakes_timeout,
        "most wakeups must be notifications, not timeouts: {s:?}"
    );
}

/// Wakeups also fire when the producer commits on the pessimistic rung
/// (LockOnly space): the wake runs after lock release, and the waiter
/// must see the published value.
#[test]
fn pessimistic_commits_wake_waiters_too() {
    let space = Stm::builder()
        .policy(ElisionPolicy::LockOnly)
        .software_backend(None)
        .build();
    let flag = TxVar::new(0u64);

    std::thread::scope(|s| {
        let (space, flag) = (&space, &flag);
        let waiter = s.spawn(move || {
            space.atomically(|tx| {
                let v = tx.read(flag);
                tx.check(v == 42)?;
                Ok(v)
            })
        });
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            space.atomically(|tx| {
                tx.write(flag, 42u64);
                Ok(())
            });
        });
        assert_eq!(waiter.join().unwrap(), 42);
    });
    let s = space.stats().snapshot();
    assert!(s.commits_locked >= 2, "{s:?}");
}

/// `or_else` with a retrying first branch parks on the *union* of both
/// branches' read sets: a producer filling either side wakes the waiter.
#[test]
fn or_else_parks_on_union_of_read_sets() {
    for fill_first in [true, false] {
        let space = Stm::new();
        let a = TxVar::new(0u64);
        let b = TxVar::new(0u64);

        std::thread::scope(|s| {
            let (space, a, b) = (&space, &a, &b);
            let chooser = s.spawn(move || {
                space.atomically(|tx| {
                    tx.or_else(
                        |tx| {
                            let v = tx.read(a);
                            tx.check(v > 0)?;
                            tx.write(a, v - 1);
                            Ok("a")
                        },
                        |tx| {
                            let v = tx.read(b);
                            tx.check(v > 0)?;
                            tx.write(b, v - 1);
                            Ok("b")
                        },
                    )
                })
            });
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                space.atomically(|tx| {
                    if fill_first {
                        tx.write(a, 1u64);
                    } else {
                        tx.write(b, 1u64);
                    }
                    Ok(())
                });
            });
            let got = chooser.join().unwrap();
            assert_eq!(got, if fill_first { "a" } else { "b" });
        });
    }
}

/// A retry-driven consumer over a space-domain structure: `any_key` +
/// `remove` + retry blocks until a producer inserts, and the read-set
/// must include a TxVar for the wakeup (the version var pattern).
#[test]
fn structure_consumer_blocks_via_version_var() {
    let space = Stm::new();
    let pool = TxHashSet::with_capacity(64);
    let version = TxVar::new(0u64); // bumped on every pool mutation
    const ITEMS: u64 = 10;

    std::thread::scope(|s| {
        let (space, pool, version) = (&space, &pool, &version);
        let consumer = s.spawn(move || {
            let mut got = Vec::new();
            while got.len() < ITEMS as usize {
                let k = space.atomically(|tx| {
                    let _ = tx.read(version); // wakeup dependency
                    match pool.any_key(tx) {
                        Some(k) => {
                            pool.remove(tx, k);
                            tx.write(version, tx.read(version) + 1);
                            Ok(k)
                        }
                        None => tx.retry(),
                    }
                });
                got.push(k);
            }
            got.sort_unstable();
            got
        });
        s.spawn(move || {
            for k in 0..ITEMS {
                std::thread::sleep(Duration::from_millis(1));
                space.atomically(|tx| {
                    pool.insert(tx, k);
                    tx.write(version, tx.read(version) + 1);
                    Ok(())
                });
            }
        });
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..ITEMS).collect::<Vec<u64>>());
    });
}
