//! The two companion data structures under elision — a hash set (short,
//! O(1)-line critical sections — RW-TLE's sweet spot, §3) and a sorted
//! linked list (O(n)-line reads that overflow best-effort HTM capacity) —
//! driven through the composable front door: every operation is an
//! `atomically` block, and the report shows which ladder rung (hardware
//! speculation, software TM, pessimistic lock) carried the commits.
//!
//! The final section composes *three* structures — the hash set, the
//! list, and a `ShardedTxMap` — inside one transaction, something the
//! per-lock `execute` API cannot express at all.
//!
//! ```sh
//! cargo run --release --example hash_and_list
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use refined_tle::prelude::*;
use rtle_avltree::xorshift64;

fn spaces() -> [(&'static str, Stm); 4] {
    [
        (
            "LockOnly",
            Stm::builder()
                .policy(ElisionPolicy::LockOnly)
                .software_backend(None)
                .build(),
        ),
        ("Tle", Stm::builder().policy(ElisionPolicy::Tle).build()),
        ("RwTle", Stm::builder().policy(ElisionPolicy::RwTle).build()),
        (
            "FgTle(512)+norec",
            Stm::builder()
                .policy(ElisionPolicy::FgTle { orecs: 512 })
                .build(),
        ),
    ]
}

fn header() {
    println!(
        "{:<18}{:>12}{:>10}{:>10}{:>10}",
        "space", "ops/ms", "spec", "sw", "locked"
    );
}

fn main() {
    println!("-- TxHashSet: 512-key mixed workload, 4 threads, 1s per space");
    header();
    for (label, space) in spaces() {
        let set = TxHashSet::with_capacity(4096);
        run(label, &space, |tx: &Tx<'_, '_>, key, pct| {
            if pct < 20 {
                set.insert(tx, key);
            } else if pct < 40 {
                set.remove(tx, key);
            } else {
                set.contains(tx, key);
            }
        });
    }

    println!("\n-- TxListSet: 400-key list (long read chains), 4 threads, 1s per space");
    header();
    for (label, space) in spaces() {
        if label == "LockOnly" {
            continue; // the list section compares the elision policies
        }
        let list = TxListSet::with_key_range(400);
        run(label, &space, |tx: &Tx<'_, '_>, key, pct| {
            let key = key % 400;
            if pct < 10 {
                list.insert(tx, key);
            } else if pct < 20 {
                list.remove(tx, key);
            } else {
                list.contains(tx, key);
            }
        });
    }

    composed();
}

/// Times a 4-thread run of `op` wrapped in `atomically` until `stop`.
fn run(label: &str, space: &Stm, op: impl for<'e, 'r> Fn(&Tx<'e, 'r>, u64, u64) + Sync) {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let (stop, op) = (&stop, &op);
        for t in 0..4u64 {
            scope.spawn(move || {
                let mut rng = 0xabc ^ (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    let r = xorshift64(&mut rng);
                    space.atomically(|tx| {
                        op(tx, (r >> 16) % 512, r % 100);
                        Ok(())
                    });
                }
            });
        }
        std::thread::sleep(Duration::from_secs(1));
        stop.store(true, Ordering::Relaxed);
    });
    let snap = space.stats().snapshot();
    println!(
        "{:<18}{:>12.1}{:>10}{:>10}{:>10}",
        label,
        snap.commits() as f64 / t0.elapsed().as_secs_f64() / 1e3,
        snap.commits_spec,
        snap.commits_sw,
        snap.commits_locked
    );
}

/// One closure over three structures: hash set + list + sharded map stay
/// membership-identical because each insert/remove transaction covers all
/// of them — impossible with per-structure `execute` sections.
fn composed() {
    const KEYS: u64 = 256;
    const OPS: u64 = 20_000;
    println!("\n-- composed: TxHashSet + TxListSet + ShardedTxMap in one transaction");
    header();

    let space = Stm::new();
    let set = TxHashSet::with_capacity(2048);
    let list = TxListSet::with_key_range(KEYS);
    let map: ShardedTxMap = ShardedTxMap::with_builder(8, 512, space.lock_builder());

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let (space, set, list, map) = (&space, &set, &list, &map);
        for t in 0..4u64 {
            scope.spawn(move || {
                let mut rng = 0xfeed ^ (t + 1);
                for _ in 0..OPS {
                    let r = xorshift64(&mut rng);
                    let k = r % KEYS;
                    match (r >> 32) % 3 {
                        0 => space.atomically(|tx| {
                            let a = set.insert(tx, k);
                            let b = list.insert(tx, k);
                            let c = tx.map_insert(map, k, k + 1).is_none();
                            assert_eq!(a, b, "set/list tore inside a transaction");
                            assert_eq!(a, c, "set/map tore inside a transaction");
                            Ok(())
                        }),
                        1 => space.atomically(|tx| {
                            let a = set.remove(tx, k);
                            let b = list.remove(tx, k);
                            let c = tx.map_remove(map, k).is_some();
                            assert_eq!(a, b, "set/list tore inside a transaction");
                            assert_eq!(a, c, "set/map tore inside a transaction");
                            Ok(())
                        }),
                        _ => space.atomically(|tx| {
                            let a = set.contains(tx, k);
                            let b = list.contains(tx, k);
                            let c = tx.map_contains(map, k);
                            assert_eq!(a, b, "set/list disagree inside a transaction");
                            assert_eq!(a, c, "set/map disagree inside a transaction");
                            Ok(())
                        }),
                    }
                }
            });
        }
    });

    let snap = space.stats().snapshot();
    println!(
        "{:<18}{:>12.1}{:>10}{:>10}{:>10}",
        "FgTle+norec",
        snap.commits() as f64 / t0.elapsed().as_secs_f64() / 1e3,
        snap.commits_spec,
        snap.commits_sw,
        snap.commits_locked
    );

    // Quiescent cross-check: all three structures hold the same keys.
    let mut set_keys = set.keys_plain();
    set_keys.sort_unstable();
    let mut list_keys = list.keys_plain();
    list_keys.sort_unstable();
    let mut map_keys: Vec<u64> = map.entries_plain().iter().map(|(k, _)| *k).collect();
    map_keys.sort_unstable();
    assert_eq!(set_keys, list_keys, "set and list diverged");
    assert_eq!(set_keys, map_keys, "set and map diverged");
    println!(
        "\ncomposed run agreed on all {} final keys across the three structures.",
        set_keys.len()
    );
}
