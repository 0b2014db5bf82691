//! # rtle-core: refined transactional lock elision
//!
//! Faithful implementation of *Refined Transactional Lock Elision* (Dice,
//! Kogan, Lev; PPoPP 2016) — standard **TLE** plus the paper's two refined
//! variants, **RW-TLE** (§3) and **FG-TLE** (§4), the **adaptive FG-TLE**
//! extension sketched in §4.2.1, and the **lazy subscription** option of §5.
//!
//! The centerpiece is [`ElidableLock`]: a lock whose critical sections are
//! executed, whenever possible, as best-effort hardware transactions. Where
//! standard TLE stalls every speculating thread as soon as one thread holds
//! the lock, the refined variants let hardware transactions keep running on
//! an *instrumented slow path* concurrently with the (single) lock holder:
//!
//! * **RW-TLE**: only the lock holder's *writes* are instrumented (they set
//!   a `write_flag` the slow path subscribes to); slow-path transactions may
//!   not write at all — read-read parallelism with the lock holder.
//! * **FG-TLE**: the lock holder publishes its read/write footprint into two
//!   ownership-record arrays keyed by Wang-hash of the address; slow-path
//!   transactions check the orecs before every access and self-abort on
//!   potential conflicts — read *and* write parallelism, at the cost of
//!   instrumenting reads too.
//!
//! Critical sections are closures over a [`Ctx`] execution token whose
//! [`Ctx::read`]/[`Ctx::write`] accessors play the role GCC's transactional
//! instrumentation (libitm) plays in the paper: the same source runs
//! uninstrumented on the fast path, instrumented on the slow path, and
//! instrumented-under-lock when elision fails.
//!
//! ```
//! use rtle_core::{Ctx, ElidableLock, ElisionPolicy};
//! use rtle_htm::TxCell;
//!
//! let lock = ElidableLock::builder().policy(ElisionPolicy::FgTle { orecs: 64 }).build();
//! let counter = TxCell::new(0u64);
//! for _ in 0..10 {
//!     lock.execute(|ctx: &Ctx| {
//!         let v = ctx.read(&counter);
//!         ctx.write(&counter, v + 1);
//!     });
//! }
//! assert_eq!(counter.read_plain(), 10);
//! ```

// Test modules keep std atomics for their own harness flags (some
// SeqCst); production code names only `rtle_htm::atomic`'s types
// (clippy.toml), which this allow does not reach: clippy lints the
// non-test build of the library too.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod adaptive;
pub mod barrier;
pub mod elidable;
pub mod lock;
pub mod orec;
pub mod policy;
pub mod stats;

pub use barrier::Ctx;
pub use elidable::{ElidableLock, ElidableLockBuilder, LockedSection, SoftwarePresence};
pub use lock::TatasLock;
pub use orec::OrecTable;
pub use policy::{ElisionPolicy, RetryPolicy, Step};
pub use stats::{ExecStats, StatsSnapshot};

/// Re-export of the paper's `fast_hash` (\[25\], Thomas Wang) used for orec
/// indexing, and of the HTM word/cell types critical sections are built on.
pub use rtle_htm::hash::{fast_hash, wang_mix64};
pub use rtle_htm::{AbortCode, TxCell, TxWord};

/// Re-export of the observability crate so callers can install a
/// [`rtle_obs::Recorder`] via [`elidable::ElidableLockBuilder::recorder`]
/// without a separate dependency.
pub use rtle_obs as obs;

/// Explicit HTM abort codes used by the elision runtimes. Surfaced so tests
/// and tools can attribute aborts precisely.
pub mod abort_codes {
    /// Fast path found the lock held at (early or lazy) subscription time.
    pub const LOCK_HELD: u8 = 1;
    /// RW-TLE slow path found `write_flag` already set at start.
    pub const WRITE_FLAG_SET: u8 = 2;
    /// RW-TLE slow path attempted a write (read-only parallelism only).
    pub const RW_SLOW_WRITE: u8 = 3;
    /// FG-TLE slow path hit an orec owned by the lock holder.
    pub const OREC_CONFLICT: u8 = 4;
    /// Adaptive FG-TLE has the slow path disabled (plain-TLE mode).
    pub const FG_DISABLED: u8 = 5;
    /// Lazy subscription found the lock still held at commit time.
    pub const LAZY_LOCK_HELD: u8 = 6;
    /// A composable transaction found a participant lock (e.g. a shard
    /// lock it enrolled mid-transaction) held by a pessimistic owner.
    pub const PARTICIPANT_LOCK_HELD: u8 = 7;
}
