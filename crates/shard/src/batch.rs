//! Batched execution: amortize elision overhead by running many
//! operations per critical section, bounded for fairness.
//!
//! # Fairness bound
//!
//! A batch is grouped by destination shard and each shard's group is
//! executed in chunks of at most [`BATCH_CHUNK`] operations per critical
//! section. The bound is what keeps batching compatible with refined
//! TLE's concurrency story: one critical section's footprint is what the
//! slow path must avoid (RW-TLE's `write_flag` window, FG-TLE's orec
//! ownership), so an unbounded batch would let one caller pin a shard's
//! write flag / orec table for the whole batch and starve concurrent
//! speculators. With the chunk bound, any other thread's operation waits
//! behind at most `BATCH_CHUNK` batched operations (plus the retry policy
//! budget) before the shard's lock is released and re-elidable —
//! DESIGN.md §10 states the bound formally.
//!
//! Chunks also bound HTM capacity pressure: a chunk that fits the
//! hardware write set can still commit on the fast path, where a
//! whole-table batch never would.
//!
//! # What a call allocates
//!
//! Only the `Vec<OpResult>` it returns. The grouping is a stable counting
//! sort of op indices (per-shard counts, prefix sums, placement in
//! submission order) in the thread's scratch vector (`with_scratch`),
//! and each chunk's critical section writes its results straight into the
//! returned vector's slots. An aborted attempt may leave some of its
//! chunk's slots written; the attempt that commits — fast, slow or under
//! the lock — writes every slot of its chunk, last, and the slots are read
//! only after the batch returns. The thread keeps its scratch between
//! calls only up to the shard count plus a few chunks of op indices; a
//! larger batch allocates its own and frees it on return.

// Hot path, no `unwrap` or `panic!` outside tests: every batched op is
// grouped and run through here.
#![warn(clippy::unwrap_used, clippy::panic)]

use std::cell::Cell;

use rtle_htm::TxWord;

use crate::sharded::ShardedTxMap;

/// Maximum operations executed inside one critical section by
/// [`ShardedTxMap::execute_batch`]. See the module docs for why this is a
/// fairness (and HTM-capacity) bound.
pub const BATCH_CHUNK: usize = 64;

/// Op indices a thread's scratch keeps room for between calls, beyond its
/// map's shard count: a few chunks' worth. A call that grows the scratch
/// past that frees it on return, so one outsized batch does not pin its
/// memory on a long-lived thread.
const SCRATCH_KEEP_OPS: usize = 4 * BATCH_CHUNK;

thread_local! {
    /// The thread's index scratch between calls: `execute_batch`'s
    /// counting sort and `multi_get`'s shard set, grown once per thread,
    /// not once per call. Dropped with the thread.
    static SCRATCH: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on the thread's scratch vector, emptied, and hands it back
/// afterwards — like `rtle_hytm::SwPhase`'s spare descriptor — if its
/// capacity is at most `shards + 1 + SCRATCH_KEEP_OPS`; a larger one is
/// dropped. A nested call (or a thread tearing down its locals) finds the
/// slot empty and starts from a fresh vector, so re-entrancy costs an
/// allocation, never correctness; a panic in `f` just drops the vector.
pub(crate) fn with_scratch<R>(shards: usize, f: impl FnOnce(&mut Vec<usize>) -> R) -> R {
    let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
    scratch.clear();
    let r = f(&mut scratch);
    if scratch.capacity() <= shards + 1 + SCRATCH_KEEP_OPS {
        let _ = SCRATCH.try_with(|slot| slot.set(scratch));
    }
    r
}

/// One operation in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp<V: TxWord> {
    /// Insert or update `key`.
    Insert(u64, V),
    /// Remove `key`.
    Remove(u64),
    /// Look `key` up.
    Get(u64),
    /// Membership probe.
    Contains(u64),
}

impl<V: TxWord> MapOp<V> {
    /// The key this operation touches (every op touches exactly one).
    pub fn key(&self) -> u64 {
        match *self {
            MapOp::Insert(k, _) | MapOp::Remove(k) | MapOp::Get(k) | MapOp::Contains(k) => k,
        }
    }
}

/// Result of one batched operation, parallel to the input op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult<V: TxWord> {
    /// `Insert`/`Remove`: the previous/removed value.
    Value(Option<V>),
    /// `Get`: the current value.
    Found(Option<V>),
    /// `Contains`: membership.
    Present(bool),
}

impl<V: TxWord> ShardedTxMap<V> {
    /// Executes `ops` with per-key program order preserved, returning
    /// results parallel to the input. Operations are grouped by
    /// destination shard and each group runs as critical sections of at
    /// most [`BATCH_CHUNK`] operations (the fairness bound — see the
    /// module docs).
    ///
    /// Atomicity granularity is the chunk, not the batch: operations on
    /// *different* keys may interleave with concurrent threads between
    /// chunks. Two operations on the *same* key always route to the same
    /// shard and keep their relative order, because grouping is
    /// order-preserving within a shard.
    pub fn execute_batch(&self, ops: &[MapOp<V>]) -> Vec<OpResult<V>> {
        // Every slot is overwritten before it is read; the filler is any
        // value of the type.
        let mut results = vec![OpResult::Present(false); ops.len()];
        let slots = Cell::from_mut(&mut results[..]).as_slice_of_cells();
        let shards = self.shard_count();
        with_scratch(shards, |scratch| {
            // Stable counting sort of op indices by shard. `ends[s]` first
            // counts shard `s`'s ops into slot `s + 1`; the prefix sum
            // turns it into the group's first position; placement walks
            // the ops in submission order (same key ⇒ same shard ⇒ order
            // kept) and leaves `ends[s]` one past the group's last.
            scratch.resize(shards + 1 + ops.len(), 0);
            let (ends, order) = scratch.split_at_mut(shards + 1);
            for op in ops {
                ends[self.shard_of(op.key()) + 1] += 1;
            }
            for s in 1..shards {
                ends[s] += ends[s - 1];
            }
            for (i, op) in ops.iter().enumerate() {
                let at = &mut ends[self.shard_of(op.key())];
                order[*at] = i;
                *at += 1;
            }
            let mut begin = 0;
            for (shard, &end) in self.shards.iter().zip(&ends[..shards]) {
                let group = &order[begin..end];
                begin = end;
                if group.is_empty() {
                    continue;
                }
                shard.routed.add(0, group.len() as u64);
                for chunk in group.chunks(BATCH_CHUNK) {
                    // The closure may run several times (fast path abort →
                    // retry → lock path); it only reads `ops`, and each
                    // run rewrites its chunk's slots, so the committing
                    // run's results are the ones left.
                    shard.execute(|map, ctx| {
                        for &i in chunk {
                            slots[i].set(match ops[i] {
                                MapOp::Insert(k, v) => OpResult::Value(map.insert(ctx, k, v)),
                                MapOp::Remove(k) => OpResult::Value(map.remove(ctx, k)),
                                MapOp::Get(k) => OpResult::Found(map.get(ctx, k)),
                                MapOp::Contains(k) => OpResult::Present(map.contains(ctx, k)),
                            });
                        }
                    });
                }
            }
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_parallel_to_input() {
        let m: ShardedTxMap = ShardedTxMap::new(8, 256);
        let ops: Vec<MapOp<u64>> = (0..100).map(|k| MapOp::Insert(k, k * 3)).collect();
        let rs = m.execute_batch(&ops);
        assert_eq!(rs.len(), 100);
        assert!(rs.iter().all(|r| *r == OpResult::Value(None)));

        let ops = vec![
            MapOp::Get(5),
            MapOp::Contains(5),
            MapOp::Remove(5),
            MapOp::Get(5),
            MapOp::Contains(999),
        ];
        assert_eq!(
            m.execute_batch(&ops),
            vec![
                OpResult::Found(Some(15)),
                OpResult::Present(true),
                OpResult::Value(Some(15)),
                OpResult::Found(None),
                OpResult::Present(false),
            ]
        );
    }

    #[test]
    fn per_key_order_is_preserved() {
        let m: ShardedTxMap = ShardedTxMap::new(4, 64);
        // Same key repeatedly: later ops must observe earlier ones.
        let ops = vec![
            MapOp::Insert(7, 1),
            MapOp::Insert(7, 2),
            MapOp::Get(7),
            MapOp::Remove(7),
            MapOp::Get(7),
        ];
        assert_eq!(
            m.execute_batch(&ops),
            vec![
                OpResult::Value(None),
                OpResult::Value(Some(1)),
                OpResult::Found(Some(2)),
                OpResult::Value(Some(2)),
                OpResult::Found(None),
            ]
        );
    }

    #[test]
    fn batches_larger_than_the_chunk_bound_split() {
        let m: ShardedTxMap = ShardedTxMap::new(1, 2048); // one shard: one group of 500
        let ops: Vec<MapOp<u64>> = (0..500).map(|k| MapOp::Insert(k, k)).collect();
        let rs = m.execute_batch(&ops);
        assert_eq!(rs.len(), 500);
        assert_eq!(m.len_plain(), 500);
        // 500 ops / 64 per chunk = 8 critical sections on shard 0.
        let snap = m.shard_stats()[0];
        assert!(
            snap.ops >= 500 / BATCH_CHUNK as u64,
            "expected at least ceil(500/64) critical sections, saw {}",
            snap.ops
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let m: ShardedTxMap = ShardedTxMap::new(4, 64);
        assert!(m.execute_batch(&[]).is_empty());
    }
}
