//! # refined-tle: Refined Transactional Lock Elision, reproduced in Rust
//!
//! A from-scratch reproduction of *Refined Transactional Lock Elision*
//! (Dice, Kogan, Lev; PPoPP 2016): standard TLE plus the paper's RW-TLE
//! and FG-TLE refinements that let hardware transactions run concurrently
//! with a lock holder, together with every substrate the evaluation needs
//! — a software-emulated best-effort HTM, the NOrec and RHNOrec baselines,
//! the AVL-tree and bank micro-benchmarks, a sequence-assembler
//! application, and a deterministic simulator that regenerates the paper's
//! figures.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof for the examples and integration tests. Depend on the individual
//! crates for finer-grained builds.
//!
//! ```
//! use refined_tle::prelude::*;
//!
//! let lock = ElidableLock::builder().policy(ElisionPolicy::FgTle { orecs: 256 }).build();
//! let cell = TxCell::new(0u64);
//! lock.execute(|ctx| {
//!     let v = ctx.read(&cell);
//!     ctx.write(&cell, v + 1);
//! });
//! assert_eq!(cell.read_plain(), 1);
//! ```

pub use rtle_avltree as avltree;
pub use rtle_cctsa as cctsa;
pub use rtle_core as core;
pub use rtle_fuzz as fuzz;
pub use rtle_htm as htm;
pub use rtle_hytm as hytm;
pub use rtle_obs as obs;
pub use rtle_shard as shard;
pub use rtle_sim as sim;
pub use rtle_stm as stm;
pub use rtle_structs as structs;

/// The items most programs need.
///
/// The canonical front door for writing transactions is the composable
/// API: [`atomically`](rtle_stm::atomically) over [`TxVar`](rtle_stm::TxVar)s
/// and transactional structures, with [`Tx::retry`](rtle_stm::Tx::retry)
/// and [`or_else`](rtle_stm::or_else) for blocking and choice. Direct
/// `ElidableLock::execute` remains the low-level single-lock interface.
pub mod prelude {
    pub use rtle_avltree::AvlSet;
    pub use rtle_core::{
        Ctx, ElidableLock, ElidableLockBuilder, ElisionPolicy, LockedSection, RetryPolicy,
        StatsSnapshot, TatasLock,
    };
    pub use rtle_htm::{AbortCode, PlainAccess, TxAccess, TxCell};
    pub use rtle_hytm::{Norec, RhNorec, TmCtx};
    pub use rtle_obs::{AdaptAction, AdaptDecision, ObsConfig, PathKind, Recorder};
    pub use rtle_shard::{MapOp, OpResult, ShardedTxMap, TransferError};
    pub use rtle_stm::{atomically, or_else, Stm, StmBuilder, Tx, TxError, TxResult, TxVar};
    pub use rtle_structs::{TxHashSet, TxListSet};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let lock = ElidableLock::builder().policy(ElisionPolicy::Tle).build();
        let c = TxCell::new(1u64);
        let v = lock.execute(|ctx| ctx.read(&c));
        assert_eq!(v, 1);
    }

    /// The prelude must cover adaptive configuration and observability
    /// without reaching into `rtle_core` / `rtle_obs` paths directly.
    #[test]
    fn prelude_covers_adaptive_config_and_recorder() {
        use crate::prelude::*;
        use std::sync::Arc;
        let rec = Arc::new(Recorder::new(ObsConfig::default()));
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::AdaptiveFgTle {
                initial_orecs: 16,
                max_orecs: 256,
            })
            .recorder(Arc::clone(&rec))
            .build();
        let c = TxCell::new(0u64);
        lock.execute(|ctx| ctx.write(&c, 7));
        assert_eq!(c.read_plain(), 7);
        // AdaptAction/AdaptDecision are nameable from the prelude.
        let _names_resolve: Option<(AdaptAction, AdaptDecision)> = None;
    }

    #[test]
    fn prelude_covers_sharded_map() {
        use crate::prelude::*;
        let map: ShardedTxMap = ShardedTxMap::with_builder(
            4,
            64,
            ElidableLock::builder().policy(ElisionPolicy::FgTle { orecs: 32 }),
        );
        map.insert(1, 10);
        map.insert(2, 20);
        assert_eq!(map.transfer(1, 2, 5), Ok(()));
        assert_eq!(
            map.execute_batch(&[MapOp::Get(1), MapOp::Get(2)]),
            vec![OpResult::Found(Some(5)), OpResult::Found(Some(25))]
        );
        let _ = TransferError::MissingFrom;
        let snap: StatsSnapshot = map.merged_stats();
        assert!(snap.ops >= 4);
    }
}
