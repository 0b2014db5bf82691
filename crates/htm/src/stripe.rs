//! The global conflict table: striped, versioned lock words.
//!
//! Every [`crate::TxCell`] address maps (via its emulated cache line and
//! Wang's mix) to one *stripe*, a single `AtomicU64` that plays the role the
//! cache-coherence directory plays for real HTM:
//!
//! * **Unlocked** stripes hold an even *version* — the value of the global
//!   commit clock at the last commit that wrote the line.
//! * **Locked** stripes hold `(owner_token << 1) | 1`, taken by a committing
//!   transaction for the duration of its write-back (or by a plain
//!   non-transactional store for its brief update).
//!
//! The global clock is the TL2-style shared commit counter. Plain stores
//! also draw fresh clock values so that a store performed *after* a
//! transaction read a line is guaranteed to carry a version larger than
//! any read-version that transaction holds and dooms it — this is what
//! makes the emulation strongly atomic.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::{LINE_SHIFT, STRIPE_COUNT};
use crate::hash::wang_mix64;
use crate::lanes::Block;

/// The global commit clock. Starts at 2 and advances by 2 so that lock-bit
/// (LSB) and version never collide. Version 0 marks "never written".
///
/// Alone in its block: it is the one line every writing commit must pull
/// exclusive, so nothing read-mostly (the table below, configuration) may
/// share it.
static CLOCK: Block<AtomicU64> = Block(AtomicU64::new(2));

/// The table itself: a plain zeroed static (8 MiB of `.bss`, paged in as
/// stripes are first touched), so a stripe access is one indexed load.
static STRIPES: [AtomicU64; STRIPE_COUNT] = [const { AtomicU64::new(0) }; STRIPE_COUNT];

/// Maps a `TxCell` address to its stripe index.
#[inline]
pub fn stripe_index(addr: usize) -> u32 {
    (wang_mix64((addr >> LINE_SHIFT) as u64) & (STRIPE_COUNT as u64 - 1)) as u32
}

/// Loads the raw stripe word (Acquire).
#[inline]
pub fn load(idx: u32) -> u64 {
    STRIPES[idx as usize].load(Ordering::Acquire)
}

/// Whether a raw stripe word is currently locked.
#[inline]
pub fn is_locked(word: u64) -> bool {
    word & 1 == 1
}

/// Owner token of a locked stripe word.
#[inline]
pub fn owner_of(word: u64) -> u64 {
    debug_assert!(is_locked(word));
    word >> 1
}

/// Encodes a locked stripe word for `owner`.
#[inline]
pub fn locked_word(owner: u64) -> u64 {
    (owner << 1) | 1
}

/// Attempts to lock stripe `idx` for `owner`, expecting it unlocked with any
/// version. Returns `Ok(previous_version)` on success, `Err(current_word)`
/// if the stripe was locked (by anyone) or the CAS raced.
#[inline]
pub fn try_lock(idx: u32, owner: u64) -> Result<u64, u64> {
    let s = &STRIPES[idx as usize];
    let cur = s.load(Ordering::Acquire);
    if is_locked(cur) {
        return Err(cur);
    }
    match s.compare_exchange(
        cur,
        locked_word(owner),
        Ordering::Acquire,
        Ordering::Acquire,
    ) {
        Ok(_) => Ok(cur),
        Err(now) => Err(now),
    }
}

/// Spins until stripe `idx` is locked for `owner`; returns the previous
/// version. Used by plain (non-transactional) stores, which must always
/// succeed — exactly like an uninstrumented store eventually wins the cache
/// line on real hardware.
#[inline]
pub fn lock_spin(idx: u32, owner: u64) -> u64 {
    loop {
        match try_lock(idx, owner) {
            Ok(prev) => return prev,
            Err(_) => std::hint::spin_loop(),
        }
    }
}

/// Unlocks stripe `idx` by installing `version` (must be even).
#[inline]
pub fn unlock(idx: u32, version: u64) {
    debug_assert!(version & 1 == 0, "versions are even");
    STRIPES[idx as usize].store(version, Ordering::Release);
}

/// Samples the global clock (a snapshot extension's new read-version).
#[inline]
pub fn clock() -> u64 {
    CLOCK.load(Ordering::Acquire)
}

/// Address of the global clock word (layout tests: it must sit alone in a
/// [`crate::lanes::BLOCK_BYTES`] block).
#[doc(hidden)]
pub fn clock_addr() -> usize {
    &CLOCK as *const Block<AtomicU64> as usize
}

/// Advances the global clock and returns the new (even) commit version.
#[inline]
pub fn next_commit_version() -> u64 {
    CLOCK.fetch_add(2, Ordering::AcqRel) + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_word_roundtrip() {
        let w = locked_word(77);
        assert!(is_locked(w));
        assert_eq!(owner_of(w), 77);
        assert!(!is_locked(0));
        assert!(!is_locked(42 << 1));
    }

    #[test]
    fn clock_is_monotonic_and_even() {
        let a = next_commit_version();
        let b = next_commit_version();
        assert!(b > a);
        assert_eq!(a & 1, 0);
        assert_eq!(b & 1, 0);
        assert!(clock() >= b);
    }

    #[test]
    fn stripe_index_stable_and_in_range() {
        let x = 0xdead_beef_usize;
        assert_eq!(stripe_index(x), stripe_index(x));
        assert!((stripe_index(x) as usize) < STRIPE_COUNT);
    }

    #[test]
    fn same_line_same_stripe() {
        // Two addresses on the same 64-byte line must alias (false sharing).
        let base = 0x1000_0000_usize;
        assert_eq!(stripe_index(base), stripe_index(base + 63));
    }

    #[test]
    fn try_lock_and_unlock() {
        // Use a dedicated stripe index unlikely to collide with cells in
        // other tests: derived from a fixed bogus address.
        let idx = stripe_index(0xfeed_f00d_0000);
        let prev = lock_spin(idx, 5);
        // A second locker must fail while held.
        assert!(try_lock(idx, 6).is_err());
        unlock(idx, prev.max(2));
        let prev2 = try_lock(idx, 6).expect("unlocked now");
        unlock(idx, prev2);
    }
}
