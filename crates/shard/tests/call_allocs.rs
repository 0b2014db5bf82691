//! A warm call on the sharded map allocates only its answer: after
//! warm-up, `execute_batch` makes exactly one allocation (the returned
//! `Vec<OpResult>`), a cross-shard `multi_get` at most two (the returned
//! `Vec` and the guard list), and `transfer`, `compare_and_swap_pair` and
//! a single-key `insert` none. Before the batch driver grouped by a
//! counting sort in per-thread scratch, the same calls made 29.9 / 4 / 1 /
//! 1 / 0 here (≈ 31 for the benchmark's batches): a `Vec` per shard group,
//! an `Option` result vector, a `Vec` per chunk, the final re-collect; the
//! shard index lists and guard list of `multi_get`; the two-entry guard
//! `Vec` of every cross-shard pair. A batch too large for the scratch a
//! thread keeps frees its scratch on return, as every call did before.
//!
//! Its own test binary, so the counting `#[global_allocator]` is scoped to
//! it; the count is per thread, so the harness's threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_obs::{ObsConfig, Recorder};
use rtle_shard::{MapOp, ShardedTxMap};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (frees of another
    /// thread's blocks count against the freeing thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live_add(bytes: usize, sign: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + sign * bytes as i64));
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a destructor-free, const-
// initialised thread-local, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        live_add(layout.size(), 1);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(layout.size(), -1);
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        live_add(layout.size(), -1);
        live_add(new_size, 1);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 4096;
const WARM_UP: u64 = 50;
const CALLS: u64 = 1_000;

/// The benchmark's service map: 16 shards of FG-TLE(256), a default
/// (record-everything) `Recorder`, every key present with a balance of at
/// least `KEYS`.
fn service_map() -> ShardedTxMap {
    let map = ShardedTxMap::with_builder(
        16,
        1024,
        ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 256 })
            .recorder(Arc::new(Recorder::new(ObsConfig::default()))),
    );
    for k in 0..KEYS {
        map.insert(k, KEYS + k);
    }
    map
}

/// Allocations per call of `op(call_no)`, averaged over `CALLS` calls made
/// after `WARM_UP` of them.
fn allocations_per_call(mut op: impl FnMut(u64)) -> f64 {
    (0..WARM_UP).for_each(&mut op);
    let before = ALLOCS.get();
    (WARM_UP..WARM_UP + CALLS).for_each(&mut op);
    (ALLOCS.get() - before) as f64 / CALLS as f64
}

/// Two keys `>= from` that route to different shards.
fn cross_pair(map: &ShardedTxMap, from: u64) -> (u64, u64) {
    let b = (from + 1..KEYS)
        .find(|&k| map.shard_of(k) != map.shard_of(from))
        .expect("16 shards: a neighbour in another shard");
    (from, b)
}

#[test]
fn execute_batch_allocates_only_its_results() {
    let map = service_map();
    let per_call = allocations_per_call(|call| {
        // 32 mixed ops over every shard, a repeated key among them.
        let batch: [MapOp<u64>; 32] = std::array::from_fn(|i| {
            let k = (call * 32 + i as u64) % KEYS;
            match i % 4 {
                0 => MapOp::Insert(k, call),
                1 => MapOp::Contains(k),
                2 => MapOp::Get((call * 32) % KEYS),
                _ => MapOp::Get(k),
            }
        });
        assert_eq!(map.execute_batch(&batch).len(), 32);
    });
    assert_eq!(per_call, 1.0, "allocations per warm 32-op execute_batch");
}

#[test]
fn an_outsized_batch_keeps_no_scratch() {
    let map = service_map();
    let batch: Vec<MapOp<u64>> = (0..KEYS).map(MapOp::Get).collect();
    // Warm: the thread holds the scratch a 32-op batch leaves behind.
    for _ in 0..WARM_UP {
        assert_eq!(map.execute_batch(&batch[..32]).len(), 32);
    }
    let before = LIVE.get();
    assert_eq!(map.execute_batch(&batch).len(), batch.len());
    // Its index scratch would be one `usize` per op; the recorder's own
    // growth is far below half of that.
    let kept = LIVE.get() - before;
    let scratch = (batch.len() * std::mem::size_of::<usize>()) as i64;
    assert!(
        kept < scratch / 2,
        "a {}-op batch left {kept} bytes on its thread",
        batch.len()
    );
}

#[test]
fn multi_get_allocates_its_result_and_guard_list_at_most() {
    let map = service_map();
    let per_call = allocations_per_call(|call| {
        let keys = [
            call % KEYS,
            (call + 1) % KEYS,
            (call + 7) % KEYS,
            (call + 13) % KEYS,
        ];
        assert_eq!(map.multi_get(&keys).len(), 4);
    });
    assert!(
        per_call <= 2.0,
        "allocations per warm 4-key multi_get: {per_call}"
    );
}

#[test]
fn cross_shard_pairs_allocate_nothing() {
    let map = service_map();
    let transfer = allocations_per_call(|call| {
        let (a, b) = cross_pair(&map, call % (KEYS / 2));
        // Alternate the direction so balances stay put.
        let (from, to) = if call % 2 == 0 { (a, b) } else { (b, a) };
        map.transfer(from, to, 1)
            .expect("both accounts hold balance");
    });
    let cas = allocations_per_call(|call| {
        let (a, b) = cross_pair(&map, KEYS / 2 + call % (KEYS / 4));
        let (va, vb) = (map.get(a).expect("present"), map.get(b).expect("present"));
        assert!(map.compare_and_swap_pair((a, va, va + 1), (b, vb, vb + 1)));
    });
    assert_eq!(
        (transfer, cas),
        (0.0, 0.0),
        "allocations per warm cross-shard (transfer, compare_and_swap_pair)"
    );
}

#[test]
fn single_key_insert_allocates_nothing() {
    let map = service_map();
    let per_call = allocations_per_call(|call| {
        map.insert(call % KEYS, call);
    });
    assert_eq!(per_call, 0.0, "allocations per warm single-key insert");
}
