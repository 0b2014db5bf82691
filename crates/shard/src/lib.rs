//! # rtle-shard: scaling refined TLE beyond one lock
//!
//! The paper's refined TLE (PPoPP 2016) extracts concurrency *around one
//! lock*: while a thread holds it, instrumented hardware transactions keep
//! committing alongside. This crate composes that primitive horizontally:
//! [`ShardedTxMap`] partitions a `u64 → V` map across a power-of-two
//! number of shards, each protected by its **own** [`rtle_core::ElidableLock`]
//! (own lock word, orec table, epoch, adaptive state), so independent keys
//! never share a conflict domain at all and refined TLE only has to earn
//! its keep *within* a shard.
//!
//! Three things make it more than an array of maps:
//!
//! * **Cross-shard transactions** ([`ShardedTxMap::transfer`],
//!   [`ShardedTxMap::multi_get`], [`ShardedTxMap::compare_and_swap_pair`])
//!   acquire the involved shards pessimistically in ascending shard-index
//!   order — deadlock-free by total order — on the *instrumented*
//!   lock-holder path, so single-shard traffic on those same shards keeps
//!   speculating concurrently (the paper's §3/§4 property, used as a
//!   composition mechanism).
//! * **Batched execution** ([`ShardedTxMap::execute_batch`]) groups
//!   operations by shard and amortizes elision overhead over up to
//!   [`BATCH_CHUNK`] operations per critical section — chunked so one
//!   batch cannot starve concurrent speculators.
//! * **Merged observability** ([`ShardedTxMap::report`]): per-shard
//!   [`rtle_core::StatsSnapshot`]s summed into one lock-shaped aggregate,
//!   load/abort imbalance metrics, and one export: the map's live source
//!   ([`ShardedTxMap::register_live`]), beside its shared recorder's.
//!
//! Shard configuration reuses the single-lock builder verbatim: pass an
//! [`rtle_core::ElidableLockBuilder`] template to
//! [`ShardedTxMap::with_builder`] and every shard is built from a clone.
//!
//! ```
//! use rtle_core::{ElidableLock, ElisionPolicy};
//! use rtle_shard::ShardedTxMap;
//!
//! let map = ShardedTxMap::with_builder(
//!     16,
//!     1024,
//!     ElidableLock::builder().policy(ElisionPolicy::FgTle { orecs: 64 }),
//! );
//! map.insert(1, 100);
//! map.insert(2, 50);
//! map.transfer(1, 2, 30).unwrap();
//! assert_eq!(map.multi_get(&[1, 2]), vec![Some(70), Some(80)]);
//! assert_eq!(map.report().merged.ops, map.merged_stats().ops);
//! ```

pub mod batch;
pub mod map;
pub mod obs;
mod shard;
pub mod sharded;

pub use batch::{MapOp, OpResult, BATCH_CHUNK};
pub use map::TxMap;
pub use obs::ShardReport;
pub use sharded::{ShardedTxMap, TransferError, DEFAULT_ORECS_PER_SHARD};
