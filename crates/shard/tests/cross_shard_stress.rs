//! Cross-shard `transfer` stress under HTM chaos injection.
//!
//! 8 threads hammer a 16-shard account map with randomized transfers
//! (most spanning two shards, so every one exercises the ordered
//! two-lock acquisition), interleaved with `multi_get` snapshots and
//! pair-CAS traffic, while the chaos tickers kill a large fraction of
//! hardware attempts at birth — the same `spurious/conflict/capacity`
//! storm the fuzz harness uses. The assertions:
//!
//! * **conservation** — the sum of all balances is invariant, both in
//!   every mid-run `multi_get` snapshot (atomicity across shards) and at
//!   the end (0-divergence);
//! * **zero deadlocks** — the run completes; ascending shard-index
//!   acquisition makes a wait-for cycle impossible, and this test is the
//!   empirical witness under maximal fallback pressure (chaos pushes
//!   nearly everything onto the pessimistic path, where deadlock would
//!   actually bite);
//! * **no phantom failures** — a transfer between existing accounts with
//!   sufficient funds may only fail for insufficiency observed at
//!   transfer time, never `MissingFrom`/`MissingTo`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::prng::SplitMix64;
use rtle_htm::HtmConfig;
use rtle_shard::{ShardedTxMap, TransferError};

const ACCOUNTS: u64 = 256;
const INITIAL: u64 = 1_000;
const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 2_000;

fn stress(map: Arc<ShardedTxMap>, seed_base: u64) -> (u64, u64) {
    for k in 0..ACCOUNTS {
        map.insert(k, INITIAL);
    }
    let transfers_ok = Arc::new(AtomicU64::new(0));
    let transfers_insufficient = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let map = Arc::clone(&map);
            let ok = Arc::clone(&transfers_ok);
            let insufficient = Arc::clone(&transfers_insufficient);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(seed_base ^ (t as u64).wrapping_mul(0x9e37));
                for i in 0..OPS_PER_THREAD {
                    match rng.below(10) {
                        // 70%: a transfer between two random accounts.
                        0..=6 => {
                            let from = rng.below(ACCOUNTS);
                            let to = rng.below(ACCOUNTS);
                            let amount = rng.range_inclusive(1, 40);
                            match map.transfer(from, to, amount) {
                                Ok(()) => {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(TransferError::Insufficient { .. }) => {
                                    insufficient.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!(
                                    "thread {t} op {i}: phantom failure {e:?} — \
                                     all {ACCOUNTS} accounts exist and amounts cannot overflow"
                                ),
                            }
                        }
                        // 20%: an atomic snapshot of a random key window;
                        // per-window conservation cannot be asserted (money
                        // moves in and out of the window), but the read
                        // must be internally consistent — checked globally
                        // by the full-snapshot pass below.
                        7..=8 => {
                            let lo = rng.below(ACCOUNTS - 8);
                            let keys: Vec<u64> = (lo..lo + 8).collect();
                            let vals = map.multi_get(&keys);
                            assert!(
                                vals.iter().all(|v| v.is_some()),
                                "thread {t} op {i}: account vanished from snapshot"
                            );
                        }
                        // 10%: full-map snapshot — conservation must hold
                        // in every atomic cross-shard read, mid-run.
                        _ => {
                            let keys: Vec<u64> = (0..ACCOUNTS).collect();
                            let total: u64 = map.multi_get(&keys).into_iter().flatten().sum();
                            assert_eq!(
                                total,
                                ACCOUNTS * INITIAL,
                                "thread {t} op {i}: mid-run snapshot lost money"
                            );
                        }
                    }
                }
            });
        }
    });

    assert_eq!(
        map.total_plain(),
        ACCOUNTS * INITIAL,
        "final balances must conserve the initial total"
    );
    (
        transfers_ok.load(Ordering::Relaxed),
        transfers_insufficient.load(Ordering::Relaxed),
    )
}

/// The headline stress: chaos storm killing ~1/3 of hardware attempts,
/// pushing cross-shard traffic onto the ordered pessimistic path.
#[test]
fn transfers_conserve_under_chaos_storm() {
    let chaos = HtmConfig {
        spurious_one_in: 3,
        conflict_one_in: 7,
        capacity_one_in: 11,
        ..HtmConfig::default()
    };
    let map: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::with_builder(
        16,
        1024,
        ElidableLock::builder().policy(ElisionPolicy::FgTle { orecs: 128 }),
    ));
    let (ok, _) = chaos.with_installed(|| stress(Arc::clone(&map), 0xc405_0001));
    assert!(
        ok > 0,
        "no transfer ever succeeded — the workload is broken"
    );

    // The storm must actually have exercised the fallback machinery.
    let merged = map.merged_stats();
    assert!(
        merged.lock_acquisitions > 0,
        "chaos never forced the lock path: {merged:?}"
    );
    assert!(
        merged.fast_aborts + merged.slow_aborts > 0,
        "chaos injected no aborts: {merged:?}"
    );
}

/// Same workload, clean HTM: the fast path dominates and conservation
/// still holds (guards against bugs masked by constant fallback).
#[test]
fn transfers_conserve_without_chaos() {
    let map: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::new(16, 1024));
    let (ok, _) = HtmConfig::default().with_installed(|| stress(Arc::clone(&map), 0xc405_0002));
    assert!(ok > 0);
    let merged = map.merged_stats();
    assert!(
        merged.fast_commits > 0,
        "clean run must commit on HTM: {merged:?}"
    );
}

/// Pair-CAS across shards under chaos: each slot holds a generation
/// counter; every successful CAS bumps two slots' generations by exactly
/// one, so the final generation sum must equal initial + 2 × successes.
#[test]
fn cas_pair_generations_account_exactly_under_chaos() {
    const SLOTS: u64 = 64;
    let chaos = HtmConfig {
        spurious_one_in: 4,
        conflict_one_in: 9,
        ..HtmConfig::default()
    };
    let map: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::new(8, 512));
    for k in 0..SLOTS {
        map.insert(k, 0);
    }
    let successes = Arc::new(AtomicU64::new(0));
    chaos.with_installed(|| {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let map = Arc::clone(&map);
                let successes = Arc::clone(&successes);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xca50 ^ (t as u64) << 8);
                    for _ in 0..500 {
                        let a = rng.below(SLOTS);
                        let mut b = rng.below(SLOTS);
                        if a == b {
                            b = (b + 1) % SLOTS;
                        }
                        // Read current generations, then CAS both forward.
                        let vals = map.multi_get(&[a, b]);
                        let (ga, gb) =
                            (vals[0].expect("slot exists"), vals[1].expect("slot exists"));
                        if map.compare_and_swap_pair((a, ga, ga + 1), (b, gb, gb + 1)) {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
    });
    let total_generations: u64 = map.entries_plain().iter().map(|&(_, v)| v).sum();
    assert_eq!(
        total_generations,
        2 * successes.load(Ordering::Relaxed),
        "every successful pair-CAS bumps exactly two generations by one"
    );
    assert!(successes.load(Ordering::Relaxed) > 0);
}
