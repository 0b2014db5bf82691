//! [`TxCell`]: a shared memory word the emulated HTM can track.
//!
//! Real HTM watches *every* memory access transparently through cache
//! coherence. Software cannot, so all shared words that participate in
//! transactions live in `TxCell`s. The cell's accessors dispatch on the
//! calling thread's execution mode:
//!
//! * inside a software transaction — [`crate::swhtm`] read/write barriers
//!   (version validation, redo-log buffering);
//! * inside a real hardware transaction (`rtm` feature) — plain atomic
//!   accesses (the hardware tracks them);
//! * outside any transaction — *strongly atomic* plain accesses: reads use a
//!   seqlock against the cell's stripe so a concurrent commit appears
//!   atomic, writes take the stripe lock and publish a fresh version so
//!   concurrent transactions observe the store and abort.
//!
//! This uniform dispatch is what lets the same data-structure code run on
//! the TLE fast path, the refined-TLE slow path, and under the lock.

use std::fmt;
use std::mem::{align_of, size_of};

use crate::atomic::ProtocolWord;
use crate::descriptor;
use crate::stripe::{self, GLOBAL};
use crate::swhtm;
use crate::wait::backoff_until;
use crate::word::TxWord;

/// A 64-bit-word shared cell, tracked by the emulated HTM.
///
/// `TxCell` is `Sync` (derived: its one field is a [`ProtocolWord`] and every
/// [`TxWord`] is `Send + Sync`): any thread may access it at any time,
/// transactionally or not; the emulation guarantees transactions serialize
/// with each other and with plain accesses.
#[repr(transparent)]
pub struct TxCell<T: TxWord> {
    raw: ProtocolWord,
    _marker: std::marker::PhantomData<T>,
}

impl<T: TxWord> TxCell<T> {
    /// Creates a cell holding `value`.
    #[inline]
    pub fn new(value: T) -> Self {
        TxCell {
            raw: ProtocolWord::new(value.to_word()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Reads the cell in the current execution mode (see module docs).
    #[inline]
    pub fn read(&self) -> T {
        #[cfg(feature = "rtm")]
        if crate::rtm::in_hw_txn() {
            return T::from_word(self.raw.load());
        }
        T::from_word(
            descriptor::if_active(|th| swhtm::read_barrier(th, &self.raw))
                .unwrap_or_else(|| self.seqlock_read()),
        )
    }

    /// Writes the cell in the current execution mode (see module docs).
    #[inline]
    pub fn write(&self, value: T) {
        #[cfg(feature = "rtm")]
        if crate::rtm::in_hw_txn() {
            self.raw.store(value.to_word());
            return;
        }
        let word = value.to_word();
        if descriptor::if_active(|th| swhtm::write_barrier(th, &self.raw, word)).is_none() {
            self.store_plain(word);
        }
    }

    /// Non-transactional read, regardless of mode. Used by code that is
    /// *known* to run outside transactions (statistics, validation between
    /// benchmark phases) and by tests.
    #[inline]
    pub fn read_plain(&self) -> T {
        T::from_word(self.seqlock_read())
    }

    /// Completely unsynchronized snapshot (single atomic load, no seqlock).
    /// Only meaningful when no transaction can be mid-commit, e.g. in
    /// quiescent phases — or for a word no transaction ever writes.
    ///
    /// The lock holder's own protocol words (an FG-TLE orec, the epoch,
    /// the active orec count, the adaptive `fg_enabled` flag) are such
    /// words: only the thread holding the lock writes them, always with a
    /// plain store, and transactions only read them. No commit can be
    /// writing one back, so the seqlock of [`Self::read_plain`] has
    /// nothing to wait out, and the lock's release → acquire orders every
    /// earlier holder's stores before the current holder's load. The
    /// holder reads them with this one load.
    #[inline]
    pub fn read_unvalidated(&self) -> T {
        T::from_word(self.raw.load())
    }

    /// Seqlock read against the cell's stripe: waits while a committer holds
    /// the line, retries if the version moved under the load.
    #[inline]
    fn seqlock_read(&self) -> u64 {
        let idx = stripe::stripe_index(self.addr());
        let mut val = 0;
        backoff_until(|| {
            let w1 = GLOBAL.load(idx);
            if stripe::is_locked(w1) {
                return false;
            }
            val = self.raw.load();
            GLOBAL.load(idx) == w1
        });
        val
    }

    /// The one plain (non-transactional) write path: waits for the stripe
    /// lock (a plain store must always succeed — exactly like an
    /// uninstrumented store eventually wins the cache line on real
    /// hardware), runs `access` on the raw word under it and releases — at
    /// a freshly drawn version, past the clock, if `access` reports that it
    /// stored, so that concurrent transactions that read the line are
    /// doomed (strong atomicity); at the old version otherwise, invisibly.
    #[inline]
    fn under_stripe_lock<R>(&self, access: impl FnOnce(&ProtocolWord) -> (bool, R)) -> R {
        let idx = stripe::stripe_index(self.addr());
        let owner = descriptor::thread_token();
        let mut prev = 0;
        backoff_until(|| GLOBAL.try_lock(idx, owner).map(|p| prev = p).is_ok());
        let (stored, result) = access(&self.raw);
        GLOBAL.unlock(
            idx,
            if stored {
                GLOBAL.next_version(prev)
            } else {
                prev
            },
        );
        result
    }

    /// Plain store (see [`Self::under_stripe_lock`]).
    #[inline]
    fn store_plain(&self, word: u64) {
        self.under_stripe_lock(|raw| (true, raw.store(word)));
    }

    /// Plain atomic fetch-add on the raw word (only sensible for integer
    /// payloads). Strongly atomic like a plain store, and dooms conflicting
    /// transactions. Returns the previous value. Must not be called inside
    /// a software transaction.
    pub fn fetch_add_plain(&self, delta: u64) -> T {
        debug_assert!(
            !descriptor::in_sw_txn(),
            "fetch_add_plain inside a software transaction"
        );
        T::from_word(self.under_stripe_lock(|raw| {
            let cur = raw.load();
            raw.store(cur.wrapping_add(delta));
            (true, cur)
        }))
    }

    /// Plain (non-transactional) compare-and-swap: stores `new` iff the
    /// cell holds `expected`, dooming subscribed transactions when it does
    /// (a failed CAS is invisible).
    ///
    /// Returns `true` iff the exchange happened. Must not be called inside
    /// a software transaction (it would bypass the redo log); debug-asserted.
    pub fn compare_exchange_plain(&self, expected: T, new: T) -> bool {
        debug_assert!(
            !descriptor::in_sw_txn(),
            "compare_exchange_plain inside a software transaction"
        );
        self.under_stripe_lock(|raw| {
            let hit = raw.load() == expected.to_word();
            if hit {
                raw.store(new.to_word());
            }
            (hit, hit)
        })
    }

    /// Test hook: forces the plain-store path even while a software
    /// transaction is active on this thread (modelling an external
    /// non-transactional writer).
    #[doc(hidden)]
    pub fn store_plain_for_test(&self, value: T) {
        self.store_plain(value.to_word());
    }

    /// Reinterprets this cell as a word-typed cell. Sound because `TxCell`
    /// is `repr(transparent)` over one [`ProtocolWord`] for every payload
    /// type and all payloads round-trip through the same raw word. Used by
    /// software TMs that keep heterogeneous redo logs.
    #[inline]
    pub fn as_word_cell(&self) -> &TxCell<u64> {
        // SAFETY: identical layout (repr(transparent) over ProtocolWord);
        // TxWord conversions are bit-faithful. A reference cast, not a data
        // read: no payload memory is dereferenced, so no Acquire is needed.
        unsafe { &*(self as *const TxCell<T> as *const TxCell<u64>) }
    }

    /// The cell's stable memory address. This is what FG-TLE hashes to an
    /// ownership record, and what the emulated HTM hashes to a conflict
    /// stripe — both at cache-line granularity.
    #[inline]
    pub fn addr(&self) -> usize {
        &self.raw as *const ProtocolWord as usize
    }
}

// One transparent word whatever the payload, so `as_word_cell` is sound.
const _: () = assert!(size_of::<TxCell<bool>>() == size_of::<ProtocolWord>());
const _: () = assert!(align_of::<TxCell<bool>>() == align_of::<ProtocolWord>());

impl<T: TxWord + fmt::Debug> fmt::Debug for TxCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TxCell")
            .field(&self.read_unvalidated())
            .finish()
    }
}

impl<T: TxWord + Default> Default for TxCell<T> {
    fn default() -> Self {
        TxCell::new(T::default())
    }
}

impl<T: TxWord> From<T> for TxCell<T> {
    fn from(v: T) -> Self {
        TxCell::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_read_write_roundtrip() {
        let c = TxCell::new(5u64);
        assert_eq!(c.read(), 5);
        c.write(9);
        assert_eq!(c.read(), 9);
        assert_eq!(c.read_plain(), 9);
        assert_eq!(c.read_unvalidated(), 9);
    }

    #[test]
    fn typed_cells() {
        let b = TxCell::new(true);
        b.write(false);
        assert!(!b.read());

        let i = TxCell::new(-7i64);
        assert_eq!(i.read(), -7);

        let f = TxCell::new(2.5f64);
        assert_eq!(f.read(), 2.5);
    }

    #[test]
    fn debug_and_default() {
        let c: TxCell<u32> = TxCell::default();
        assert_eq!(c.read(), 0);
        assert_eq!(format!("{c:?}"), "TxCell(0)");
        let d: TxCell<u32> = 3u32.into();
        assert_eq!(d.read(), 3);
    }

    #[test]
    fn fetch_add_plain_accumulates() {
        use std::sync::Arc;
        let c = Arc::new(TxCell::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.fetch_add_plain(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read_plain(), 4000);
    }

    #[test]
    fn word_cell_view_aliases_payload() {
        let c = TxCell::new(true);
        let w = c.as_word_cell();
        assert_eq!(w.read_plain(), 1);
        w.write(0);
        assert!(!c.read_plain());
    }

    #[test]
    fn compare_exchange_plain_semantics() {
        let c = TxCell::new(5u64);
        assert!(!c.compare_exchange_plain(4, 9));
        assert_eq!(c.read_plain(), 5);
        assert!(c.compare_exchange_plain(5, 9));
        assert_eq!(c.read_plain(), 9);
    }

    #[test]
    fn compare_exchange_races_have_single_winner() {
        use std::sync::Arc;
        let c = Arc::new(TxCell::new(0u64));
        let winners: u32 = (0..8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || u32::from(c.compare_exchange_plain(0, i + 1)))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(winners, 1);
        assert_ne!(c.read_plain(), 0);
    }

    #[test]
    fn plain_accesses_cross_threads() {
        use std::sync::Arc;
        let c = Arc::new(TxCell::new(0u64));
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.write(i);
                        let v = c.read();
                        assert!(v < 4);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
    }
}
