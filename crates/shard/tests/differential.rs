//! Differential proptests: `ShardedTxMap` against a single-`Mutex`
//! `BTreeMap` oracle, driven by the shared `rtle_fuzz::ops` generator
//! family so the sharded map is hammered by the exact streams (uniform,
//! duplicate-key churn, skewed) that the AVL proptests and chaos workers
//! already draw from. Every operation's *result* must match the oracle
//! op-for-op, and the final entry sets must be identical.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_fuzz::ops::{gen_ops, gen_ops_churn, gen_ops_skewed, SetOp};
use rtle_htm::prng::SplitMix64;
use rtle_htm::HtmConfig;
use rtle_shard::{MapOp, OpResult, ShardedTxMap, BATCH_CHUNK};

/// Deterministic value for a key, so value agreement is checked too (a
/// set-shaped oracle would miss value tearing).
fn val_for(k: u64, round: u64) -> u64 {
    k.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(round)
}

/// Applies one `SetOp` to the oracle, returning the map-shaped result.
fn apply_oracle(op: SetOp, round: u64, model: &Mutex<BTreeMap<u64, u64>>) -> Option<u64> {
    let mut m = model.lock().expect("oracle mutex");
    match op {
        SetOp::Insert(k) => m.insert(k, val_for(k, round)),
        SetOp::Remove(k) => m.remove(&k),
        SetOp::Contains(k) => m.get(&k).copied(),
    }
}

/// Applies the same op to the sharded map, mirroring the oracle's shape.
fn apply_sharded(op: SetOp, round: u64, map: &ShardedTxMap) -> Option<u64> {
    match op {
        SetOp::Insert(k) => map.insert(k, val_for(k, round)),
        SetOp::Remove(k) => map.remove(k),
        SetOp::Contains(k) => map.get(k),
    }
}

fn final_states_match(map: &ShardedTxMap, model: &Mutex<BTreeMap<u64, u64>>, label: &str) {
    let mut entries = map.entries_plain();
    entries.sort_unstable();
    let model_entries: Vec<(u64, u64)> = model
        .lock()
        .expect("oracle mutex")
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    assert_eq!(entries, model_entries, "[{label}] final entry sets diverge");
}

#[test]
fn uniform_streams_agree_across_shard_counts() {
    let mut rng = SplitMix64::new(0x5aad_0001);
    for shards in [1usize, 2, 16] {
        for case in 0..24u64 {
            let map: ShardedTxMap = ShardedTxMap::new(shards, 1024);
            let model = Mutex::new(BTreeMap::new());
            for (i, op) in gen_ops(&mut rng, 96, 50, 400).into_iter().enumerate() {
                let round = case.wrapping_mul(1000) + i as u64;
                assert_eq!(
                    apply_sharded(op, round, &map),
                    apply_oracle(op, round, &model),
                    "[{shards} shards, case {case}] result diverged on {op:?}"
                );
            }
            final_states_match(&map, &model, &format!("{shards} shards, case {case}"));
        }
    }
}

#[test]
fn churn_and_skewed_streams_agree() {
    let mut rng = SplitMix64::new(0x5aad_0002);
    for case in 0..12u64 {
        let map: ShardedTxMap = ShardedTxMap::new(8, 2048);
        let model = Mutex::new(BTreeMap::new());
        // Churn hammers tombstone reuse in a handful of slots; skewed
        // clusters probe chains (and shard routing) on the low keys.
        let mut ops = gen_ops_churn(&mut rng, 6, 500);
        ops.extend(gen_ops_skewed(&mut rng, 512, 500));
        for (i, op) in ops.into_iter().enumerate() {
            let round = case.wrapping_mul(10_000) + i as u64;
            assert_eq!(
                apply_sharded(op, round, &map),
                apply_oracle(op, round, &model),
                "[case {case}] result diverged on {op:?}"
            );
        }
        final_states_match(&map, &model, &format!("case {case}"));
    }
}

/// The batch form of a `SetOp` stream: value-stamped inserts, and the
/// membership probe alternating between `Get` and `Contains`; `key` maps
/// the generator's key onto the map's.
fn to_batch(ops: &[SetOp], round: u64, key: impl Fn(u64) -> u64) -> Vec<MapOp<u64>> {
    ops.iter()
        .enumerate()
        .map(|(i, &op)| match op {
            SetOp::Insert(k) => MapOp::Insert(key(k), val_for(key(k), round)),
            SetOp::Remove(k) => MapOp::Remove(key(k)),
            SetOp::Contains(k) if i % 2 == 0 => MapOp::Get(key(k)),
            SetOp::Contains(k) => MapOp::Contains(key(k)),
        })
        .collect()
}

/// The sequential model of one batched op.
fn apply_oracle_op(op: MapOp<u64>, m: &mut BTreeMap<u64, u64>) -> OpResult<u64> {
    match op {
        MapOp::Insert(k, v) => OpResult::Value(m.insert(k, v)),
        MapOp::Remove(k) => OpResult::Value(m.remove(&k)),
        MapOp::Get(k) => OpResult::Found(m.get(&k).copied()),
        MapOp::Contains(k) => OpResult::Present(m.contains_key(&k)),
    }
}

/// Runs `batch` through `execute_batch` and, in submission order, through
/// the model: results come back parallel to the input and per-key program
/// order within the batch holds, or the op that diverged is named.
fn batch_agrees(
    map: &ShardedTxMap,
    batch: &[MapOp<u64>],
    model: &mut BTreeMap<u64, u64>,
    label: &str,
) {
    let results = map.execute_batch(batch);
    assert_eq!(results.len(), batch.len(), "[{label}] result count");
    for (i, (&op, &got)) in batch.iter().zip(&results).enumerate() {
        assert_eq!(
            got,
            apply_oracle_op(op, model),
            "[{label}, op {i}] {op:?} diverged"
        );
    }
}

/// Churn batches (`gen_ops_churn` guarantees heavy same-key traffic, so
/// per-key order is exercised, not hoped for) on a 4-shard map built with
/// `policy`, against the model, batch after batch.
fn churn_batches_agree(policy: ElisionPolicy, seed: u64, label: &str) -> ShardedTxMap {
    let mut rng = SplitMix64::new(seed);
    let map: ShardedTxMap =
        ShardedTxMap::with_builder(4, 1024, ElidableLock::builder().policy(policy));
    let mut model = BTreeMap::new();
    for batch_no in 0..48u64 {
        let batch = to_batch(&gen_ops_churn(&mut rng, 24, 200), batch_no, |k| k);
        batch_agrees(
            &map,
            &batch,
            &mut model,
            &format!("{label}, batch {batch_no}"),
        );
    }
    final_states_match(&map, &Mutex::new(model), label);
    map
}

#[test]
fn batched_execution_agrees_under_lock_only() {
    let map = churn_batches_agree(ElisionPolicy::LockOnly, 0x5aad_0003, "LockOnly");
    assert_eq!(
        map.merged_stats().fast_commits,
        0,
        "LockOnly never speculates"
    );
}

#[test]
fn batched_execution_agrees_under_rw_tle() {
    churn_batches_agree(ElisionPolicy::RwTle, 0x5aad_0005, "RwTle");
}

/// Attempts that abort and rerun: injected conflict and spurious aborts at
/// begin, and a write capacity of two lines, so a chunk that writes more
/// aborts part-way through its body, after some of its result slots are
/// written. The rerun that commits must leave its own results in every
/// slot.
#[test]
fn batched_execution_agrees_when_attempts_abort_mid_chunk() {
    let chaos = HtmConfig {
        write_capacity: 2,
        conflict_one_in: 3,
        spurious_one_in: 5,
        ..HtmConfig::default()
    };
    chaos.with_installed(|| {
        let map = churn_batches_agree(ElisionPolicy::FgTle { orecs: 64 }, 0x5aad_0006, "chaos");
        let stats = map.merged_stats();
        assert!(
            stats.aborts_capacity > 0 && stats.aborts_conflict > 0,
            "attempts must abort mid-chunk and at begin: {stats:?}"
        );
        assert!(
            stats.fast_commits > 0 && stats.lock_acquisitions > 0,
            "{stats:?}"
        );
    });
}

/// A chunk's results all come from the attempt that commits it. Under a
/// two-line write capacity the chunk below aborts after its first `Get`
/// of `hot` (its inserts overflow the write set), while a second thread
/// keeps bumping `hot`: an aborted attempt's first `Get` would often have
/// seen an older value than the committing attempt's second one. Nothing
/// in the chunk writes `hot`, so the two must agree.
#[test]
fn a_chunk_reports_only_its_committing_attempt() {
    let cramped = HtmConfig {
        write_capacity: 2,
        ..HtmConfig::default()
    };
    cramped.with_installed(|| {
        let map: ShardedTxMap = ShardedTxMap::new(4, 1024);
        let hot = 0;
        let mut batch = vec![MapOp::Get(hot)];
        batch.extend(
            (1..)
                .filter(|&k| map.shard_of(k) == map.shard_of(hot))
                .take(8)
                .map(|k| MapOp::Insert(k, k)),
        );
        batch.push(MapOp::Get(hot));
        map.insert(hot, 0);
        let stop = AtomicBool::new(false);
        let torn = std::thread::scope(|s| {
            s.spawn(|| {
                for v in 1.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    map.insert(hot, v);
                }
            });
            let torn = (0..2_000)
                .filter(|_| {
                    let rs = map.execute_batch(&batch);
                    rs[0] != rs[batch.len() - 1]
                })
                .count();
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert_eq!(torn, 0, "chunks whose two reads of one key disagree");
        assert!(
            map.merged_stats().aborts_capacity > 0,
            "the chunk must abort part-way"
        );
    });
}

/// One key on every third op of a batch several chunks long: its shard's
/// group spans chunks, and each chunk must see the previous one's writes
/// to it.
#[test]
fn per_key_order_holds_across_chunks() {
    const HOT: u64 = 7;
    let mut rng = SplitMix64::new(0x5aad_0007);
    let map: ShardedTxMap = ShardedTxMap::new(2, 1024);
    let mut model = BTreeMap::new();
    for round in 0..8u64 {
        let batch: Vec<MapOp<u64>> = (0..6 * BATCH_CHUNK as u64)
            .map(|i| match (i % 3, i % 9) {
                (0, 0) => MapOp::Insert(HOT, round * 1000 + i),
                (0, 3) => MapOp::Get(HOT),
                (0, _) => MapOp::Remove(HOT),
                _ => {
                    let k = 100 + rng.below(64);
                    MapOp::Insert(k, val_for(k, i))
                }
            })
            .collect();
        let hot_shard_ops = batch
            .iter()
            .filter(|op| map.shard_of(op.key()) == map.shard_of(HOT))
            .count();
        assert!(
            hot_shard_ops > 2 * BATCH_CHUNK,
            "the hot group spans chunks"
        );
        batch_agrees(&map, &batch, &mut model, &format!("round {round}"));
    }
    final_states_match(&map, &Mutex::new(model), "across chunks");
}

/// Two threads batching into one map at once, each on its own keys and
/// checked against its own model: a shared grouping scratch would mix
/// one thread's op indices into the other's groups.
#[test]
fn concurrent_batches_keep_their_own_scratch() {
    let map: ShardedTxMap = ShardedTxMap::new(4, 2048);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for tid in 0..2u64 {
            let (map, start) = (&map, &start);
            s.spawn(move || {
                let mut rng = SplitMix64::new(0x5aad_0008 + tid);
                let mut model = BTreeMap::new();
                start.wait();
                for batch_no in 0..400u64 {
                    let ops = gen_ops_churn(&mut rng, 48, 96);
                    let batch = to_batch(&ops, batch_no, |k| 2 * k + tid);
                    batch_agrees(
                        map,
                        &batch,
                        &mut model,
                        &format!("thread {tid}, batch {batch_no}"),
                    );
                }
            });
        }
    });
}

/// `multi_get` must agree with the oracle for arbitrary (including
/// duplicate and absent) key vectors.
#[test]
fn multi_get_agrees_with_oracle() {
    let mut rng = SplitMix64::new(0x5aad_0004);
    let map: ShardedTxMap = ShardedTxMap::new(16, 1024);
    let model = Mutex::new(BTreeMap::new());
    for (i, op) in gen_ops(&mut rng, 128, 400, 600).into_iter().enumerate() {
        apply_sharded(op, i as u64, &map);
        apply_oracle(op, i as u64, &model);
    }
    for _ in 0..64 {
        let keys: Vec<u64> = (0..rng.range_inclusive(1, 24))
            .map(|_| rng.below(160)) // deliberately includes absent keys
            .collect();
        let got = map.multi_get(&keys);
        let m = model.lock().expect("oracle mutex");
        let want: Vec<Option<u64>> = keys.iter().map(|k| m.get(k).copied()).collect();
        assert_eq!(got, want, "multi_get diverged for {keys:?}");
    }
}
