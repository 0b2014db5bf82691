//! # rtle-htm: a best-effort hardware transactional memory substrate
//!
//! The algorithms of *Refined Transactional Lock Elision* (Dice, Kogan, Lev;
//! PPoPP 2016) require a **best-effort HTM**: a facility that runs a block of
//! code atomically, aborts it on data conflicts or resource exhaustion, and
//! reports an abort code so that the caller can decide whether to retry
//! speculatively or fall back to a lock.
//!
//! The paper ran on Intel Haswell/Xeon RTM. This crate provides:
//!
//! * [`swhtm`] — a **software emulation** of such an HTM. Shared memory words
//!   live in [`TxCell`]s; inside a transaction every access is transparently
//!   tracked (exactly as cache-coherence hardware would track it), conflicts
//!   are detected at (emulated) cache-line granularity via a striped table of
//!   versioned locks, and commits are made atomic with respect to both other
//!   transactions and plain (non-transactional) accesses. The emulation is
//!   deliberately *best effort*: it has configurable read/write capacity
//!   limits and spurious-abort injection so that fallback paths get exercised.
//! * [`stripe`] — the versioned-lock (TL2) protocol the emulation is a
//!   caller of: stripe table, commit clock, read → extend → validate,
//!   lock → stamp → release, written once. `rtle-hytm`'s `Tl2` is its
//!   other caller.
//! * [`atomic`] — the protocol words: the workspace's only std atomics,
//!   one type per ordering contract, each method fixing its ordering.
//! * [`table`] — the one open-addressing table of `u64` keys (one slot
//!   line per key, linear probe, tombstones) whose payloads are
//!   `rtle-structs`' hash set, `rtle-shard`'s per-shard map and
//!   `rtle-cctsa`'s k-mer map.
//! * `rtm` *(feature `rtm`)* — a thin backend over the real Intel RTM
//!   intrinsics (`_xbegin`/`_xend`/`_xabort`/`_xtest`) with runtime CPUID
//!   detection, for machines that do have TSX.
//!
//! Both backends expose the same closure-based interface through
//! [`backend::HtmBackend`]. Explicit aborts and barrier-raised conflicts use
//! panic-based unwinding internally (the [`unwind`] channel), which
//! mirrors the "returns twice" control flow of `xbegin` without forcing user
//! code to thread `Result`s through every read.
//!
//! ## Granularity and strong atomicity
//!
//! Conflict detection is keyed by the *address* of the `TxCell`, right-shifted
//! by [`config::LINE_SHIFT`] — two cells on the same 64-byte line conflict
//! with each other, faithfully reproducing false sharing. Non-transactional
//! reads of a `TxCell` use a seqlock protocol against the line's versioned
//! lock, so a committing transaction appears atomic even to plain readers;
//! non-transactional writes bump the line version so in-flight transactions
//! observe them. This gives the *strong atomicity* that the paper's refined
//! TLE semantics rely on (data may be accessed both inside and outside
//! critical sections).
//!
//! ## Example
//!
//! ```
//! use rtle_htm::{TxCell, swhtm};
//!
//! let a = TxCell::new(10u64);
//! let b = TxCell::new(32u64);
//! let sum = swhtm::try_txn(|| a.read() + b.read()).unwrap();
//! assert_eq!(sum, 42);
//! ```

// Test modules keep std atomics for their own harness flags (some
// SeqCst); production code names only `rtle_htm::atomic`'s types
// (clippy.toml), which this allow does not reach: clippy lints the
// non-test build of the library too.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod abort;
pub mod access;
pub mod atomic;
pub mod backend;
pub mod cell;
pub mod config;
pub mod descriptor;
pub mod epoch;
pub mod hash;
pub mod lanes;
pub mod prng;
#[cfg(feature = "rtm")]
pub mod rtm;
pub mod stats;
pub mod stripe;
pub mod swhtm;
pub mod table;
pub mod unwind;
pub mod wait;
pub mod word;

pub use abort::AbortCode;
pub use access::{PlainAccess, TxAccess};
#[cfg(feature = "rtm")]
pub use backend::RtmBackend;
pub use backend::{HtmBackend, SwHtmBackend};
pub use cell::TxCell;
pub use config::HtmConfig;
pub use descriptor::{thread_token, RedoLog};
pub use stats::HtmStats;
pub use word::TxWord;

/// Returns `true` when the calling thread is currently inside a transaction
/// (software-emulated or, with the `rtm` feature, a real hardware one).
#[inline]
pub fn in_txn() -> bool {
    #[cfg(feature = "rtm")]
    if rtm::in_hw_txn() {
        return true;
    }
    descriptor::in_sw_txn()
}

/// Explicitly aborts the current transaction with `code`, transferring
/// control back to the [`swhtm::try_txn`] (or RTM `xbegin`) call site.
///
/// # Panics
///
/// Panics (with a normal panic) if the calling thread is not inside a
/// transaction; explicit aborts outside a transaction are a logic error.
#[inline]
pub fn abort(code: u8) -> ! {
    #[cfg(feature = "rtm")]
    if rtm::in_hw_txn() {
        rtm::hw_abort(code);
    }
    if descriptor::in_sw_txn() {
        abort::raise(AbortCode::Explicit(code));
    }
    panic!("rtle_htm::abort({code}) called outside a transaction");
}

/// Simulates executing an instruction that best-effort HTM cannot complete
/// (a system call, a page fault, the paper's divide-by-zero in Figure 12).
///
/// Inside a transaction this aborts with [`AbortCode::Unsupported`]; outside
/// a transaction it is a no-op, just like the real instruction would simply
/// execute.
#[inline]
pub fn htm_unfriendly_instruction() {
    if in_txn() {
        #[cfg(feature = "rtm")]
        if rtm::in_hw_txn() {
            rtm::hw_abort(abort::UNSUPPORTED_XABORT_CODE);
        }
        abort::raise(AbortCode::Unsupported);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_in_txn_by_default() {
        assert!(!in_txn());
    }

    #[test]
    fn unfriendly_instruction_is_noop_outside_txn() {
        htm_unfriendly_instruction();
    }

    #[test]
    fn unfriendly_instruction_aborts_inside_txn() {
        let r: Result<(), AbortCode> = swhtm::try_txn(htm_unfriendly_instruction);
        assert_eq!(r.unwrap_err(), AbortCode::Unsupported);
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn explicit_abort_outside_txn_panics() {
        abort(3);
    }
}
