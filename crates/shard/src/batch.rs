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

use rtle_htm::{HtmBackend, TxWord};

use crate::sharded::ShardedTxMap;

/// Maximum operations executed inside one critical section by
/// [`ShardedTxMap::execute_batch`]. See the module docs for why this is a
/// fairness (and HTM-capacity) bound.
pub const BATCH_CHUNK: usize = 64;

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

impl<V: TxWord, B: HtmBackend> ShardedTxMap<V, B> {
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
        // Group op indices by shard, preserving submission order within
        // each group (same key ⇒ same shard ⇒ order kept).
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shard_count()];
        for (i, op) in ops.iter().enumerate() {
            groups[self.shard_of(op.key())].push(i);
        }
        let mut results: Vec<Option<OpResult<V>>> = vec![None; ops.len()];
        for (sidx, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.shards[sidx];
            let n = group.len() as u64;
            shard.routed.add(0, n);
            for chunk in group.chunks(BATCH_CHUNK) {
                // The closure may run several times (fast path abort →
                // retry → lock path); it only reads `ops` and returns
                // fresh results, so re-execution is harmless. Results are
                // committed to `results` exactly once, after the final
                // (committed) attempt.
                let chunk_results: Vec<OpResult<V>> = shard.lock.execute(|ctx| {
                    chunk
                        .iter()
                        .map(|&i| match ops[i] {
                            MapOp::Insert(k, v) => {
                                OpResult::Value(shard.map.insert(ctx, k, v))
                            }
                            MapOp::Remove(k) => OpResult::Value(shard.map.remove(ctx, k)),
                            MapOp::Get(k) => OpResult::Found(shard.map.get(ctx, k)),
                            MapOp::Contains(k) => {
                                OpResult::Present(shard.map.contains(ctx, k))
                            }
                        })
                        .collect()
                });
                for (&i, r) in chunk.iter().zip(chunk_results) {
                    results[i] = Some(r);
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every op indexed into exactly one shard group"))
            .collect()
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
