//! One ladder, one set of books: whichever front door an operation comes
//! through (`execute`, `try_speculate`, `lock_section`, `Stm::atomically`,
//! a sharded map's cross-shard `transfer` and `multi_get`) and whichever
//! rung commits it, it is counted exactly once on every lock it committed
//! on — `ops == fast_commits + slow_commits + stm_commits +
//! lock_acquisitions` — and a space lock's books agree with the space's
//! own rung mix, including `atomically`'s software rung, which commits on
//! the space lock without passing through `execute`. A lock's recorder
//! keeps the same books: each rung's home counts and records its outcome
//! in one place, so at quiescence the recorder's commits per path and
//! aborts per class equal the lock's `ExecStats`.
//!
//! One test per binary: the chaos configuration is process-global.

use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy, RetryPolicy, StatsSnapshot};
use rtle_htm::{AbortCode, HtmConfig, TxCell};
use rtle_hytm::Tl2;
use rtle_obs::{ObsConfig, Recorder};
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

fn recorder() -> Arc<Recorder> {
    Arc::new(Recorder::new(ObsConfig::default()))
}

/// The recorder's books equal `books` (one lock's `ExecStats`, or the
/// merge of every lock that shares the recorder): commits per path,
/// aborts per class and per explicit-code bucket.
fn assert_recorded(what: &str, policy: ElisionPolicy, rec: &Recorder, books: &StatsSnapshot) {
    let what = format!("{what} under {}", policy.label());
    let counts = rec.counts();
    assert_eq!(counts.commits, books.commits(), "{what}: commits per path");
    let class = |code: AbortCode| counts.aborts[code.index()];
    assert_eq!(
        [
            class(AbortCode::Conflict),
            class(AbortCode::Capacity),
            class(AbortCode::Explicit(0)),
            class(AbortCode::Unsupported),
            class(AbortCode::Nested) + class(AbortCode::Spurious),
        ],
        [
            books.aborts_conflict,
            books.aborts_capacity,
            books.aborts_explicit,
            books.aborts_unsupported,
            books.aborts_other,
        ],
        "{what}: aborts per class"
    );
    assert_eq!(counts.explicit, books.aborts_by_code, "{what}: by code");
    assert_eq!(
        counts.total_aborts(),
        books.fast_aborts + books.slow_aborts,
        "{what}: aborts"
    );
}

/// 8 threads of `atomically` over a hot `TxVar` plus a sharded-map
/// participant whose shards share one recorder; returns after checking
/// the space lock's and every shard lock's books, and the recorder's.
fn storm_space(space: &Stm, policy: ElisionPolicy, retry: RetryPolicy) {
    let rec = recorder();
    let map: ShardedTxMap<u64> = ShardedTxMap::with_builder(
        4,
        64,
        space
            .lock_builder()
            .policy(policy)
            .retry(retry)
            .recorder(Arc::clone(&rec)),
    );
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
    assert_recorded("participant shards", policy, &rec, &map.merged_stats());
}

/// 8 threads on a 16-shard map whose shards share one recorder: inserts,
/// then transfers and 4-key `multi_get`s, most of them across shards —
/// ordered `lock_section` holdings that never pass through `execute`.
fn storm_shards(policy: ElisionPolicy, retry: RetryPolicy) {
    const ACCOUNTS: u64 = 64;
    let rec = recorder();
    let map: ShardedTxMap<u64> = ShardedTxMap::with_builder(
        16,
        64,
        ElidableLock::builder()
            .policy(policy)
            .retry(retry)
            .recorder(Arc::clone(&rec)),
    );
    for k in 0..ACCOUNTS {
        map.insert(k, 1_000);
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let map = &map;
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let k = (t * 37 + i * 11) % ACCOUNTS;
                    if i % 2 == 0 {
                        let _ = map.transfer(k, (k + 1 + i) % ACCOUNTS, 1);
                    } else {
                        let keys = [k, (k + 5) % ACCOUNTS, (k + 17) % ACCOUNTS, t];
                        assert!(map.multi_get(&keys).iter().all(Option::is_some));
                    }
                }
            });
        }
    });
    assert_eq!(map.total_plain(), ACCOUNTS * 1_000, "transfers conserve");
    let books = map.merged_stats();
    assert!(books.lock_acquisitions > 0, "no cross-shard holding ran");
    for shard in map.shard_stats() {
        assert_balanced("16-shard map", policy, &shard);
    }
    assert_recorded("16-shard map", policy, &rec, &books);
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
            // `execute`, `try_speculate` and `lock_section` on one
            // recorded lock, with and without a software fallback.
            for backend in [None, Some(Arc::new(Tl2::new()))] {
                let rec = recorder();
                let mut b = ElidableLock::builder()
                    .policy(policy)
                    .retry(retry)
                    .recorder(Arc::clone(&rec));
                if let Some(tm) = backend {
                    b = b.with_software_backend(tm);
                }
                let lock = b.build();
                let cell = TxCell::new(0u64);
                let bump = |ctx: &rtle_core::Ctx<'_>| {
                    let v = ctx.read(&cell);
                    ctx.write(&cell, v + 1);
                };
                std::thread::scope(|s| {
                    for _ in 0..THREADS {
                        s.spawn(|| {
                            for i in 0..OPS_PER_THREAD {
                                match i % 4 {
                                    0 => bump(lock.lock_section().ctx()),
                                    1 => {
                                        if lock.try_speculate(bump).is_err() {
                                            bump(lock.lock_section().ctx());
                                        }
                                    }
                                    _ => lock.execute(bump),
                                }
                            }
                        });
                    }
                });
                assert_eq!(cell.read_plain(), CALLS);
                let books = lock.stats().snapshot();
                assert_balanced("lock", policy, &books);
                assert_eq!(books.ops, CALLS, "{}: {books:?}", policy.label());
                assert_recorded("lock", policy, &rec, &books);
            }

            // Cross-shard `transfer` and `multi_get` on a 16-shard map.
            storm_shards(policy, retry);

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
