//! One ladder, one set of books: whichever front door an operation comes
//! through (`execute`, `lock_section`, `Stm::atomically`) and whichever
//! rung commits it, it is counted exactly once on every lock it committed
//! on — `ops == fast_commits + slow_commits + stm_commits +
//! lock_acquisitions` — and a space lock's books agree with the space's
//! own rung mix, including `atomically`'s software rung, which commits on
//! the space lock without passing through `execute`.
//!
//! One test per binary: the chaos configuration is process-global.

use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy, RetryPolicy, StatsSnapshot};
use rtle_htm::{HtmConfig, TxCell};
use rtle_hytm::Tl2;
use rtle_shard::ShardedTxMap;
use rtle_stm::{Stm, TxVar};

const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 120;
const CALLS: u64 = THREADS * OPS_PER_THREAD;

fn assert_balanced(what: &str, policy: ElisionPolicy, s: &StatsSnapshot) {
    assert_eq!(
        s.ops,
        s.fast_commits + s.slow_commits + s.stm_commits + s.lock_acquisitions,
        "{what} under {}: {s:?}",
        policy.label()
    );
}

/// 8 threads of `atomically` over a hot `TxVar` plus a sharded-map
/// participant; returns after checking the space lock's and every shard
/// lock's books.
fn storm_space(space: &Stm, policy: ElisionPolicy, retry: RetryPolicy) {
    let map: ShardedTxMap<u64> =
        ShardedTxMap::with_builder(4, 64, space.lock_builder().policy(policy).retry(retry));
    let hot = TxVar::new(0u64);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (map, hot) = (&map, &hot);
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    space.atomically(|tx| {
                        let n = tx.read(hot);
                        tx.write(hot, n + 1);
                        tx.map_insert(map, (t * 31 + i) % 48, n);
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(hot.read_plain(), CALLS, "every transaction committed once");

    let mix = space.stats().snapshot();
    let books = space.lock().stats().snapshot();
    assert_balanced("space lock", policy, &books);
    // No transaction retried, so each is one commit on one rung — and
    // the space lock saw every one of them on that rung. (A pessimistic
    // plan restart is one more section on the locks it had taken.)
    assert_eq!(mix.commits(), CALLS);
    assert_eq!(books.fast_commits + books.slow_commits, mix.commits_spec);
    assert_eq!(books.stm_commits, mix.commits_sw);
    assert_eq!(
        books.lock_acquisitions,
        mix.commits_locked + mix.plan_restarts
    );
    for shard in map.shard_stats() {
        assert_balanced("participant shard", policy, &shard);
    }
}

#[test]
fn every_commit_is_counted_once_on_every_lock_under_every_policy() {
    // A tight speculation budget under injected aborts pushes real load
    // off the hardware rungs.
    let retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let chaos = HtmConfig {
        spurious_one_in: 3,
        conflict_one_in: 5,
        ..HtmConfig::current()
    };
    let policies = [
        ElisionPolicy::LockOnly,
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 64 },
        ElisionPolicy::AdaptiveFgTle {
            initial_orecs: 16,
            max_orecs: 256,
        },
    ];
    chaos.with_installed(|| {
        let (mut sw, mut locked) = (0, 0);
        for policy in policies {
            // `execute` and `lock_section` on one lock, with and without a
            // software fallback.
            for backend in [None, Some(Arc::new(Tl2::new()))] {
                let mut b = ElidableLock::builder().policy(policy).retry(retry);
                if let Some(tm) = backend {
                    b = b.with_software_backend(tm);
                }
                let lock = b.build();
                let cell = TxCell::new(0u64);
                std::thread::scope(|s| {
                    for _ in 0..THREADS {
                        s.spawn(|| {
                            for i in 0..OPS_PER_THREAD {
                                if i % 4 == 0 {
                                    let g = lock.lock_section();
                                    let v = g.ctx().read(&cell);
                                    g.ctx().write(&cell, v + 1);
                                } else {
                                    lock.execute(|ctx| {
                                        let v = ctx.read(&cell);
                                        ctx.write(&cell, v + 1);
                                    });
                                }
                            }
                        });
                    }
                });
                assert_eq!(cell.read_plain(), CALLS);
                let books = lock.stats().snapshot();
                assert_balanced("lock", policy, &books);
                assert_eq!(books.ops, CALLS, "{}: {books:?}", policy.label());
            }

            // `atomically` with the software rung (default NOrec), and
            // without it so exhausted speculation goes pessimistic.
            let with_sw = Stm::builder().policy(policy).retry(retry).build();
            storm_space(&with_sw, policy, retry);
            sw += with_sw.stats().snapshot().commits_sw;
            let without_sw = Stm::builder()
                .policy(policy)
                .retry(retry)
                .software_backend(None)
                .build();
            storm_space(&without_sw, policy, retry);
            locked += without_sw.stats().snapshot().commits_locked;
        }
        assert!(
            sw > 0 && locked > 0,
            "software {sw} / pessimistic {locked} rungs idle"
        );
    });
}
