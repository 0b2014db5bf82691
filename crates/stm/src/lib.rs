//! # rtle-stm: composable transactions over the refined-TLE stack
//!
//! STM-Haskell's composition operators — `atomically`, `retry`,
//! `orElse` (Harris, Marlow, Peyton Jones, Herlihy; PPoPP 2005) — layered
//! on this workspace's refined transactional lock elision runtime (Dice,
//! Kogan, Lev; PPoPP 2016). One closure can read and write [`TxVar`]s,
//! space-domain structures (`AvlSet`, `TxHashSet`, anything generic over
//! `TxAccess`), and sharded maps with their own per-shard elidable locks —
//! and the whole thing commits all-or-nothing:
//!
//! ```
//! use rtle_stm::{Stm, TxVar};
//!
//! let space = Stm::new();
//! let a = TxVar::new(100u64);
//! let b = TxVar::new(0u64);
//! let moved = space.atomically(|tx| {
//!     let v = tx.read(&a);
//!     tx.write(&a, v - 10);
//!     tx.write(&b, tx.read(&b) + 10);
//!     Ok(v)
//! });
//! assert_eq!(moved, 100);
//! assert_eq!(a.read_plain() + b.read_plain(), 100);
//! ```
//!
//! ## The ladder
//!
//! `atomically` is not "an STM next to the TLE stack" — it *is* the stack,
//! driven one rung at a time (see `space.rs`): hardware speculation with
//! per-participant lock subscription, then the space's software-TM backend
//! with per-participant presence, then pessimistic acquisition of every
//! involved lock in ascending address order. Each rung reuses the exact
//! coexistence machinery `ElidableLock` already implements, and each rung
//! has one write log; the new code is the pessimistic rung's write
//! buffer, the enrollment protocol, and the retry/wakeup plane.
//!
//! ## Blocking and choice
//!
//! [`Tx::retry`] blocks the transaction until some [`TxVar`] it read
//! changes — no spinning; committing writers wake the vars they wrote.
//! [`Tx::or_else`] composes alternatives with first-branch rollback:
//!
//! ```
//! use rtle_stm::{Stm, TxVar, TxError};
//!
//! let space = Stm::new();
//! let fast = TxVar::new(0u64);
//! let slow = TxVar::new(3u64);
//! let got = space.atomically(|tx| {
//!     tx.or_else(
//!         |tx| {
//!             let n = tx.read(&fast);
//!             tx.check(n > 0)?;
//!             tx.write(&fast, n - 1);
//!             Ok("fast")
//!         },
//!         |tx| {
//!             let n = tx.read(&slow);
//!             tx.check(n > 0)?;
//!             tx.write(&slow, n - 1);
//!             Ok("slow")
//!         },
//!     )
//! });
//! assert_eq!(got, "slow");
//! let _ = TxError::Retry;
//! ```
//!
//! ## Scoping rules
//!
//! * All [`TxVar`]s and space-domain structures used through one space
//!   belong to that space (its lock is their domain). Using one var from
//!   two spaces is a data race by construction — don't.
//! * Participant locks (per-shard locks) must share the space's software
//!   backends: build them with [`Stm::lock_builder`].
//! * The free [`atomically`] uses a process-wide default space — fine for
//!   applications; libraries that want isolation create their own
//!   [`Stm`].

pub mod space;
pub mod tx;
pub mod var;

pub use space::{global, Stm, StmBuilder, StmStats, StmStatsSnapshot};
pub use tx::{Tx, TxError, TxResult};
pub use var::TxVar;

/// Runs `f` as one composable transaction on the process-wide default
/// space ([`global`]). See [`Stm::atomically`].
#[track_caller]
pub fn atomically<'env, R>(f: impl Fn(&Tx<'env, '_>) -> TxResult<R>) -> R {
    global().atomically(f)
}

/// Free-function form of [`Tx::or_else`]: run `a`, and if it retries,
/// roll back its writes and run `b`.
pub fn or_else<'env, 'run, R>(
    tx: &Tx<'env, 'run>,
    a: impl FnOnce(&Tx<'env, 'run>) -> TxResult<R>,
    b: impl FnOnce(&Tx<'env, 'run>) -> TxResult<R>,
) -> TxResult<R> {
    tx.or_else(a, b)
}
