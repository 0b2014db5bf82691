//! The composable-transaction acceptance storm: 8 threads hammer one
//! closure that touches an `AvlSet`, a `TxHashSet`, and a `ShardedTxMap`
//! inside a single `atomically` block, under chaos-injected HTM aborts,
//! and every commit must be all-or-nothing across all three structures.
//!
//! Divergence is checked *exactly*, not statistically, via a
//! serialization-order oracle: every transaction also increments one hot
//! `TxVar` sequence counter, so each commit owns a unique position in the
//! space's serialization order. Replaying the per-op records in sequence
//! order against a sequential oracle must reproduce every result bit for
//! bit — any torn commit, lost write, or isolation violation shows up as
//! a divergence. (The hot counter doubles as a conflict magnet, forcing
//! the software and pessimistic rungs to carry real load.)

use std::sync::Mutex;

use rtle_avltree::AvlSet;
use rtle_core::ElisionPolicy;
use rtle_htm::HtmConfig;
use rtle_shard::ShardedTxMap;
use rtle_stm::{Stm, TxVar};
use rtle_structs::TxHashSet;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 250;
const KEY_SPACE: u64 = 48;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove(u64),
    Check(u64),
}

#[derive(Debug, Clone, Copy)]
struct Record {
    seq: u64,
    op: Op,
    /// Insert/Remove: "did it change the set"; Check: membership.
    result: bool,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs the storm against `space`, returning all per-op records.
fn run_storm(space: &Stm) -> Vec<Record> {
    let avl = AvlSet::with_key_range(KEY_SPACE);
    let hash = TxHashSet::with_capacity(1024);
    let map: ShardedTxMap<u64> = ShardedTxMap::with_builder(8, 256, space.lock_builder());
    let seq = TxVar::new(0u64);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (avl, hash, map, seq, records) = (&avl, &hash, &map, &seq, &records);
            s.spawn(move || {
                let mut rng = 0x9E3779B97F4A7C15u64 ^ (t as u64 + 1);
                let mut local = Vec::with_capacity(OPS_PER_THREAD);
                for _ in 0..OPS_PER_THREAD {
                    let r = xorshift(&mut rng);
                    let key = r % KEY_SPACE;
                    let op = match (r >> 32) % 5 {
                        0 | 1 => Op::Insert(key),
                        2 | 3 => Op::Remove(key),
                        _ => Op::Check(key),
                    };
                    let (seq_at, result) = space.atomically(|tx| {
                        let s = tx.read(seq);
                        tx.write(seq, s + 1);
                        let result = match op {
                            Op::Insert(k) => {
                                let fresh = avl.insert(tx, k);
                                let h = hash.insert(tx, k);
                                let m = tx.map_insert(map, k, k * 3 + 1).is_none();
                                assert_eq!(fresh, h, "avl/hash disagree inside tx");
                                assert_eq!(fresh, m, "avl/map disagree inside tx");
                                fresh
                            }
                            Op::Remove(k) => {
                                let had = avl.remove(tx, k);
                                let h = hash.remove(tx, k);
                                let m = tx.map_remove(map, k).is_some();
                                assert_eq!(had, h, "avl/hash disagree inside tx");
                                assert_eq!(had, m, "avl/map disagree inside tx");
                                had
                            }
                            Op::Check(k) => {
                                let a = avl.contains(tx, k);
                                let h = hash.contains(tx, k);
                                let m = tx.map_contains(map, k);
                                assert_eq!(a, h, "avl/hash disagree inside tx");
                                assert_eq!(a, m, "avl/map disagree inside tx");
                                a
                            }
                        };
                        Ok((s, result))
                    });
                    local.push(Record {
                        seq: seq_at,
                        op,
                        result,
                    });
                }
                records.lock().unwrap().extend(local);
            });
        }
    });

    // Sequence sanity: every commit owns a unique serialization slot.
    let total = THREADS * OPS_PER_THREAD;
    assert_eq!(
        seq.read_plain(),
        total as u64,
        "every op committed exactly once"
    );

    // Replay in serialization order against a sequential oracle.
    let mut all = records.into_inner().unwrap();
    all.sort_by_key(|r| r.seq);
    let mut oracle = std::collections::BTreeSet::new();
    let mut divergence = 0usize;
    for rec in &all {
        let expect = match rec.op {
            Op::Insert(k) => oracle.insert(k),
            Op::Remove(k) => oracle.remove(&k),
            Op::Check(k) => oracle.contains(&k),
        };
        if expect != rec.result {
            divergence += 1;
        }
    }
    assert_eq!(divergence, 0, "oracle replay diverged");

    // Final-state agreement: all three structures equal the oracle.
    let final_keys: Vec<u64> = oracle.iter().copied().collect();
    let mut avl_keys = avl.keys_plain();
    avl_keys.sort_unstable();
    let mut hash_keys = hash.keys_plain();
    hash_keys.sort_unstable();
    let mut map_keys: Vec<u64> = map.entries_plain().iter().map(|(k, _)| *k).collect();
    map_keys.sort_unstable();
    assert_eq!(avl_keys, final_keys, "avl final state");
    assert_eq!(hash_keys, final_keys, "hash final state");
    assert_eq!(map_keys, final_keys, "sharded map final state");
    avl.check_invariants_plain().expect("avl invariants hold");

    all
}

/// 8-thread chaos storm on a default (FG-TLE + NOrec) space: the HTM
/// randomly aborts, so commits flow through all three ladder rungs, and
/// the oracle must still see zero divergence.
#[test]
fn three_structure_storm_under_chaos_has_zero_divergence() {
    let chaos = HtmConfig {
        spurious_one_in: 3,
        conflict_one_in: 5,
        capacity_one_in: 17,
        ..HtmConfig::current()
    };
    chaos.with_installed(|| {
        // A tight speculation budget under heavy chaos guarantees the
        // software and pessimistic rungs carry real load.
        let space = Stm::builder()
            .retry(rtle_core::RetryPolicy {
                max_attempts: 2,
                ..rtle_core::RetryPolicy::default()
            })
            .build();
        run_storm(&space);
        let s = space.stats().snapshot();
        assert_eq!(s.commits(), (THREADS * OPS_PER_THREAD) as u64);
        assert!(
            s.commits_sw + s.commits_locked > 0,
            "chaos must push some commits off the speculation rung: {s:?}"
        );
    });
}

/// The same storm on a LockOnly space: every transaction takes the
/// pessimistic rung, exercising plan growth (restarts) and ordered
/// multi-lock acquisition exclusively.
#[test]
fn storm_on_lock_only_space_is_fully_pessimistic() {
    let space = Stm::builder()
        .policy(ElisionPolicy::LockOnly)
        .software_backend(None)
        .build();
    run_storm(&space);
    let s = space.stats().snapshot();
    assert_eq!(s.commits_locked, (THREADS * OPS_PER_THREAD) as u64);
    assert_eq!(s.commits_spec + s.commits_sw, 0);
    assert!(s.plan_restarts > 0, "plan growth must have occurred: {s:?}");
}

/// Torn-commit hunt: a writer transaction inserts a key into all three
/// structures while readers continuously assert the membership invariant
/// (in all three or in none) — under chaos, with removals mixed in.
#[test]
fn membership_invariant_never_tears() {
    let chaos = HtmConfig {
        spurious_one_in: 5,
        conflict_one_in: 9,
        ..HtmConfig::current()
    };
    chaos.with_installed(|| {
        let space = Stm::new();
        let avl = AvlSet::with_key_range(KEY_SPACE);
        let hash = TxHashSet::with_capacity(1024);
        let map: ShardedTxMap<u64> = ShardedTxMap::with_builder(4, 256, space.lock_builder());
        let space = &space;

        std::thread::scope(|s| {
            for t in 0..4 {
                let (avl, hash, map) = (&avl, &hash, &map);
                s.spawn(move || {
                    let mut rng = 0xD1B54A32D192ED03u64 ^ (t + 1);
                    for _ in 0..400 {
                        let r = xorshift(&mut rng);
                        let k = r % KEY_SPACE;
                        if r & 1 == 0 {
                            space.atomically(|tx| {
                                avl.insert(tx, k);
                                hash.insert(tx, k);
                                tx.map_insert(map, k, 1);
                                Ok(())
                            });
                        } else {
                            space.atomically(|tx| {
                                avl.remove(tx, k);
                                hash.remove(tx, k);
                                tx.map_remove(map, k);
                                Ok(())
                            });
                        }
                    }
                });
            }
            for _ in 0..4 {
                let (avl, hash, map) = (&avl, &hash, &map);
                s.spawn(move || {
                    let mut rng = 0x2545F4914F6CDD1Du64;
                    for _ in 0..400 {
                        let k = xorshift(&mut rng) % KEY_SPACE;
                        let (a, h, m) = space.atomically(|tx| {
                            Ok((
                                avl.contains(tx, k),
                                hash.contains(tx, k),
                                tx.map_contains(map, k),
                            ))
                        });
                        assert_eq!(a, h, "torn commit visible: avl vs hash for {k}");
                        assert_eq!(a, m, "torn commit visible: avl vs map for {k}");
                    }
                });
            }
        });
    });
}
