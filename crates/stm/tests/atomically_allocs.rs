//! A warm `atomically` call allocates nothing of its own: on the hardware
//! rung the transaction reads and writes through the space lock's `Ctx`
//! (the hardware's footprint and redo log are the only log), and the
//! buffers the other rungs log into are the thread's spare, handed back by
//! each call. After warm-up:
//!
//! - a lookup over `AvlSet` + `TxHashSet` + `ShardedTxMap` makes 0
//!   allocations per call (3 when every call built its two logs and the
//!   participant list);
//! - an `or_else` transfer between two `TxVar`s makes 0 (3: the two logs
//!   and `finish`'s waiter-list dedup);
//! - a touch — an instruction the hardware cannot run, then a `TxVar`
//!   increment on the software rung — makes fewer than 0.1: its call site
//!   starts on the software rung, and only the hardware re-probe, one
//!   warm call in 65, pays the aborted attempt's unwind (the boxed payload
//!   and the exception object) (2 when every touch tried the hardware
//!   first; 5 when it also built the two logs and the dedup).
//!
//! Its own test binary, so the counting `#[global_allocator]` is scoped to
//! it; the count is per thread, so the harness's threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtle_avltree::AvlSet;
use rtle_core::ElisionPolicy;
use rtle_htm::htm_unfriendly_instruction;
use rtle_shard::ShardedTxMap;
use rtle_stm::{Stm, TxVar};
use rtle_structs::TxHashSet;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a destructor-free, const-
// initialised thread-local, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 256;
const WARM_UP: u64 = 50;
const CALLS: u64 = 1_000;

/// Allocations per call of `op`, over `CALLS` calls after `WARM_UP`.
fn allocations_per_call(mut op: impl FnMut(u64)) -> f64 {
    (0..WARM_UP).for_each(&mut op);
    let before = ALLOCS.get();
    (WARM_UP..WARM_UP + CALLS).for_each(op);
    (ALLOCS.get() - before) as f64 / CALLS as f64
}

#[test]
fn a_warm_call_allocates_only_a_reprobes_unwind() {
    let space = Stm::builder()
        .policy(ElisionPolicy::FgTle { orecs: 128 })
        .build();
    let avl = AvlSet::with_key_range(KEYS);
    let hash = TxHashSet::with_capacity(2 * KEYS as usize);
    let map: ShardedTxMap = ShardedTxMap::with_builder(4, 2 * KEYS as usize, space.lock_builder());
    for key in (0..KEYS).step_by(2) {
        space.atomically(|tx| {
            avl.insert(tx, key);
            hash.insert(tx, key);
            tx.map_insert(&map, key, key + 1);
            Ok(())
        });
    }
    let accounts: Vec<TxVar<u64>> = (0..8).map(|_| TxVar::new(1_000)).collect();

    let before = space.stats().snapshot();
    let lookup = allocations_per_call(|i| {
        let key = i % KEYS;
        let found = space.atomically(|tx| {
            Ok([
                avl.contains(tx, key),
                hash.contains(tx, key),
                tx.map_contains(&map, key),
            ])
        });
        assert_eq!(found, [key.is_multiple_of(2); 3]);
    });
    let transfer = allocations_per_call(|i| {
        let (from, to) = (&accounts[i as usize % 8], &accounts[(i as usize + 3) % 8]);
        space.atomically(|tx| {
            tx.or_else(
                |tx| {
                    let balance = tx.read(from);
                    tx.check(balance >= 7)?;
                    tx.write(from, balance - 7);
                    tx.write(to, tx.read(to) + 7);
                    Ok(true)
                },
                |_| Ok(false),
            )
        });
    });
    let (spec, skips) = (space.stats().snapshot(), space.stats().spec_skips());
    let touch = allocations_per_call(|i| {
        let account = &accounts[i as usize % 8];
        space.atomically(|tx| {
            htm_unfriendly_instruction();
            tx.write(account, tx.read(account) + 1);
            Ok(())
        });
    });
    let after = space.stats().snapshot();

    // The lookups and transfers ran on the hardware rung, the touches on
    // the software rung (most of them skipping the hardware): the counts
    // are each rung's.
    let calls = 2 * (WARM_UP + CALLS);
    assert_eq!(spec.commits_spec - before.commits_spec, calls);
    assert_eq!(spec.commits() - before.commits(), calls);
    assert_eq!(after.commits_sw - spec.commits_sw, WARM_UP + CALLS);
    assert_eq!(after.commits() - spec.commits(), WARM_UP + CALLS);
    assert!(space.stats().spec_skips() - skips > CALLS * 9 / 10);
    let total: u64 = accounts.iter().map(TxVar::read_plain).sum();
    assert_eq!(total, 8 * 1_000 + WARM_UP + CALLS, "touches add one each");

    assert_eq!(
        (lookup, transfer),
        (0.0, 0.0),
        "allocations per warm call (lookup, transfer)"
    );
    assert!(
        touch < 0.1,
        "a warm touch made {touch} allocations per call"
    );
}
