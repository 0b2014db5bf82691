//! The protocol words: the workspace's one home of `std::sync::atomic`.
//!
//! Each shared word has a role, and each role has one ordering contract.
//! A type here is one contract: its methods take no `Ordering`, because
//! each fixes the one its role needs, and the reason is written on the
//! method. Everywhere else the std atomics and fences are disallowed
//! (`clippy.toml`), so a call site cannot choose a weaker ordering — it
//! can only choose a type.
//!
//! | type | role | orderings |
//! |---|---|---|
//! | [`ProtocolWord`] | the word behind a `TxCell`, the stripe words | Acquire load, Release store, Acquire CAS |
//! | [`Clock`] | the versioned-lock protocol's commit clock | SeqCst sample, SeqCst raise |
//! | [`LaneClaim`] | a counter lane's claim | Acquire claim, Release hand-back |
//! | [`StopFlag`] | a flag raised once and polled | Release raise, Acquire check |
//! | [`RelaxedWord`] | statistics, knobs, id allocators | Relaxed |
//! | [`store_load_fence`] | §4's orec stamp, the wait list's Dekker | SeqCst fence |
//!
//! Every type is `repr(transparent)` over the std atomic it wraps, so it
//! has that atomic's size and alignment (pinned below) and its methods,
//! all `#[inline]`, compile to the same loads, stores and fences.
//! Weakening an ordering here weakens it for every user of the role; the
//! interleaving model does not see orderings, so that is a change to
//! review here, against the reasons on the methods.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one module that names the std atomics and fences: each type fixes its role's orderings, and clippy.toml holds the rest of the workspace to these types"
)]

use std::mem::{align_of, size_of};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// A word that subscribes or publishes protocol state: the word behind
/// every `TxCell` (the lock word, the write flag, the epoch and the orecs
/// all route through it), the emulated HTM's write-back of committed
/// values, and the stripe words of the versioned-lock protocol.
#[derive(Debug)]
#[repr(transparent)]
pub struct ProtocolWord(AtomicU64);

impl ProtocolWord {
    /// A word holding `v`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        ProtocolWord(AtomicU64::new(v))
    }

    /// Acquire: a load subscribes protocol state (a lock word, a write
    /// flag, an epoch, an orec) or validates a stripe version against the
    /// read-version, so it must see everything its writer published.
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Release: a store publishes protocol state — a committed value's
    /// write-back, a stripe unlock at its new version (commit) or its
    /// pre-lock one (back-out) — after everything written before it.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Release)
    }

    /// Acquire on success and on failure: a stripe lock acquisition, whose
    /// winner reads what the stripe's last releaser published.
    #[inline]
    pub fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange(current, new, Ordering::Acquire, Ordering::Acquire)
    }
}

/// The versioned-lock protocol's commit clock.
///
/// The clock is the serialization spine: every read-version is a value it
/// held (a sample, or the clock after an extension raised it), and every
/// write-version is drawn past a sample taken once the write set is
/// locked. Safety rests on "a writer with `wv <= rv` sampled before the
/// clock reached `rv`", an argument about one total order of samples and
/// raises that every thread agrees on — hence SeqCst on both, not just
/// Acquire/AcqRel (the same `mov` / `lock cmpxchg` on x86-64). Whether
/// something weaker carries it is for a weak-memory model to show.
#[derive(Debug)]
#[repr(transparent)]
pub struct Clock(AtomicU64);

impl Clock {
    /// A clock reading `v`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        Clock(AtomicU64::new(v))
    }

    /// SeqCst: a read-version, or the floor a commit draws its version
    /// past; it joins the one total order of clock raises.
    #[inline]
    pub fn sample(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// SeqCst: raises the clock from `seen` to `to`, the clock's only
    /// write (an extension's). A writer that sampled below `to` must be
    /// ordered before the raise. Weak: it may fail spuriously, so the
    /// caller loops; `Err` carries the clock it found.
    #[inline]
    pub fn raise(&self, seen: u64, to: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange_weak(seen, to, Ordering::SeqCst, Ordering::SeqCst)
    }
}

/// A counter lane's claim: set while a live thread owns the lane.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct LaneClaim(AtomicBool);

impl LaneClaim {
    /// An unclaimed lane.
    #[inline]
    pub const fn new() -> Self {
        LaneClaim(AtomicBool::new(false))
    }

    /// Acquire: claims the lane if it is free. The claimer's plain bumps
    /// continue the sums the lane's last owner left, so it must see that
    /// owner's last stores (pairs with [`Self::hand_back`]).
    #[inline]
    pub fn try_claim(&self) -> bool {
        self.0
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire)
            .is_ok()
    }

    /// Release: hands the lane back from its owner's thread-local
    /// destructor, publishing the owner's last bumps to the next claimer.
    #[inline]
    pub fn hand_back(&self) {
        self.0.store(false, Ordering::Release)
    }
}

/// A flag raised once and polled until it is: a shutdown request, the end
/// of a storm, a partner's "I am in place".
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct StopFlag(AtomicBool);

impl StopFlag {
    /// A lowered flag.
    #[inline]
    pub const fn new() -> Self {
        StopFlag(AtomicBool::new(false))
    }

    /// Release: the poller that sees the flag sees everything written
    /// before it was raised.
    #[inline]
    pub fn raise(&self) {
        self.0.store(true, Ordering::Release)
    }

    /// Acquire: pairs with [`Self::raise`].
    #[inline]
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A word with no ordering role: every access is Relaxed, and nothing
/// stronger — a stronger ordering would imply a role it must never grow.
///
/// Its users: statistics (counter lanes, histograms, the conflict heatmap,
/// the watchdog's live mirror) — monotonic, advisory, exact once the
/// writing threads are quiet, so a racing sample is in this reading or
/// the next; the record ring's cursors and slots, self-validating (valid
/// bit stored last, generation tag in every word); configuration knobs,
/// self-contained values; id allocators, where only uniqueness matters;
/// and the wait list's count, written under the list's mutex and read
/// after a [`store_load_fence`].
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct RelaxedWord(AtomicU64);

impl RelaxedWord {
    /// A word holding `v`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        RelaxedWord(AtomicU64::new(v))
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed)
    }

    /// Relaxed wrapping add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Relaxed running maximum; returns the previous value.
    #[inline]
    pub fn fetch_max(&self, v: u64) -> u64 {
        self.0.fetch_max(v, Ordering::Relaxed)
    }
}

/// The full store-load fence (SeqCst). Two users:
///
/// * §4's orec stamp: the acquisition store must be ordered before the
///   holder's next data access, or a slow-path transaction could read the
///   old data after checking the old orec. The software emulation's
///   `TxCell` write already publishes a fresh stripe version, but on real
///   RTM the stamp is a plain store, so the protocol's fence stays.
/// * The wait list's Dekker handshake: a parking waiter stores its entry,
///   fences and re-checks; a waker stores the state that ends the wait,
///   fences and loads the waiter count. With a fence on each side, at
///   least one of them sees the other's store.
#[inline]
pub fn store_load_fence() {
    fence(Ordering::SeqCst)
}

// Each type is its std atomic, and nothing more.
const _: () = assert!(size_of::<ProtocolWord>() == size_of::<AtomicU64>());
const _: () = assert!(align_of::<ProtocolWord>() == align_of::<AtomicU64>());
const _: () = assert!(size_of::<Clock>() == size_of::<AtomicU64>());
const _: () = assert!(align_of::<Clock>() == align_of::<AtomicU64>());
const _: () = assert!(size_of::<LaneClaim>() == size_of::<AtomicBool>());
const _: () = assert!(align_of::<LaneClaim>() == align_of::<AtomicBool>());
const _: () = assert!(size_of::<StopFlag>() == size_of::<AtomicBool>());
const _: () = assert!(align_of::<StopFlag>() == align_of::<AtomicBool>());
const _: () = assert!(size_of::<RelaxedWord>() == size_of::<AtomicU64>());
const _: () = assert!(align_of::<RelaxedWord>() == align_of::<AtomicU64>());
