//! The elided lock itself: a test-and-test-and-set spin lock with bounded
//! exponential backoff, exactly the lock the paper's evaluation uses
//! ("a simple test-and-test-and-set lock with exponential backoff", §6.2).
//!
//! The lock word is a [`TxCell`] so that speculating hardware transactions
//! can **subscribe** to it: a transactional read of the word puts it in the
//! transaction's read set, and a subsequent acquisition (a plain
//! compare-and-swap) dooms every subscribed transaction — the mechanism
//! TLE's correctness rests on. The word counts: odd is held, and an
//! acquisition and a release each add one (wrapping), so a held value
//! names its holding ([`TatasLock::await_release`] waits for that value to
//! move). That makes it FG-TLE's `global_seq_number` (§4.2): a holder
//! stamps orecs with the odd value its acquisition installed, a slow path
//! snapshots the word (`TatasLock::seq`) before it begins, and the
//! release frees every orec at once.

use rtle_htm::wait::{self, WaitList};
use rtle_htm::TxCell;

/// Test-and-test-and-set spin lock with exponential backoff, built on a
/// transactionally visible word; waits that outlast the backoff park.
///
/// Not reentrant; no fairness/anti-starvation machinery (the paper
/// explicitly leaves that out, §6.2.1, noting it is trivial to add).
#[derive(Debug, Default)]
pub struct TatasLock {
    /// Alone on its line: every holding writes it twice, and to the
    /// emulated HTM a line is a stripe, so any cell beside it would be, to
    /// every subscribed transaction, the lock word itself.
    word: OwnLine<TxCell<u64>>,
    /// Boxed onto a line of its own: a waiter that registers writes the
    /// list's count, and speculating transactions hold the word's line.
    waiters: Box<OwnLine<WaitList>>,
}

/// A `T` alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct OwnLine<T>(T);

impl<T> std::ops::Deref for OwnLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl TatasLock {
    /// A new, free lock.
    pub fn new() -> Self {
        TatasLock::default()
    }

    /// A free lock whose word starts at `seq` (even): exercises the wrap
    /// at `u64::MAX` without 2^63 holdings.
    #[cfg(test)]
    pub(crate) fn starting_at(seq: u64) -> Self {
        assert_eq!(seq & 1, 0, "a free lock's word is even");
        TatasLock {
            word: OwnLine(TxCell::new(seq)),
            waiters: Box::default(),
        }
    }

    /// The word, one plain load: FG-TLE's `local_seq_number`, which a slow
    /// path takes before it begins. An orec stamped at or after it
    /// ([`crate::orec`]) belongs to a holding that was running then, or
    /// began since.
    #[inline]
    pub(crate) fn seq(&self) -> u64 {
        self.word.read_plain()
    }

    /// Non-transactional probe: is the lock currently held?
    ///
    /// This is the *test* step done before starting a hardware transaction
    /// (Figure 1's "is lock available?" diamond) — probing outside the
    /// transaction avoids pointless aborts while the lock is held.
    #[inline]
    pub fn is_held(&self) -> bool {
        self.seq() & 1 == 1
    }

    /// Transactional probe: reads the lock word *inside* the current
    /// hardware transaction, adding it to the read set. Any later
    /// acquisition aborts the subscriber. Returns whether the lock was held
    /// at subscription time.
    #[inline]
    pub fn subscribe(&self) -> bool {
        self.word.read() & 1 == 1
    }

    /// One acquisition attempt (test, then atomic test-and-set). Returns
    /// the odd value it installed on success. The CAS is a strongly atomic
    /// plain write, so it dooms every transaction subscribed to the lock
    /// word.
    #[inline]
    pub fn try_acquire(&self) -> Option<u64> {
        let seq = self.seq();
        let held = seq.wrapping_add(1);
        (seq & 1 == 0 && self.word.compare_exchange_plain(seq, held)).then_some(held)
    }

    /// Acquires the lock: test-and-test-and-set with exponential backoff;
    /// past ~0.7 ms the waiter parks until a release wakes it ([`wait::until`]).
    /// Returns the odd value the acquisition installed: the holding's
    /// FG-TLE epoch.
    pub fn acquire(&self) -> u64 {
        let mut held = 0;
        wait::until(self.waiters(), || {
            self.try_acquire().map(|seq| held = seq).is_some()
        });
        held
    }

    /// Releases the lock: the holder, a held word's only writer, stores the
    /// next (even) value — FG-TLE's pre-release epoch bump, which frees
    /// every orec the holding stamped — then wakes parked waiters if the
    /// wait list's count, loaded after a `store_load_fence`, says there are
    /// any.
    #[inline]
    pub fn release(&self) {
        let seq = self.word.read_unvalidated();
        debug_assert!(seq & 1 == 1, "release of a free TatasLock");
        self.word.write(seq.wrapping_add(1));
        self.waiters().wake_all();
    }

    /// Waits, like [`Self::acquire`], until the holding seen on entry ends
    /// (at once on a free lock); a holding that begins after it does not
    /// extend the wait. "We spin until the lock is not held after every
    /// failure" (§6.2.1, citing Kleen's TSX anti-patterns \[16\]), read as
    /// "no *fast* transaction starts into a held lock": a refined lock's
    /// retry goes to the slow path, and only `policy::awaits_release`'s
    /// aborts wait here.
    pub fn await_release(&self) {
        let seen = self.word.read_plain();
        wait::until(self.waiters(), || {
            seen & 1 == 0 || self.word.read_plain() != seen
        });
    }

    /// The list its waiters park on (a holder quiescing software, too).
    pub(crate) fn waiters(&self) -> &WaitList {
        &self.waiters
    }

    /// Address of the word.
    pub(crate) fn word_addr(&self) -> usize {
        self.word.addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_release_roundtrip() {
        let l = TatasLock::new();
        assert!(!l.is_held());
        l.acquire();
        assert!(l.is_held());
        assert_eq!(l.try_acquire(), None);
        l.release();
        assert!(!l.is_held());
        assert_eq!(l.try_acquire(), Some(3));
        l.release();
    }

    /// The word is FG-TLE's epoch: even while free, odd while held, one
    /// more per acquisition and per release; an acquisition returns the
    /// value it installed.
    #[test]
    fn the_word_counts_holdings_with_parity() {
        let l = TatasLock::new();
        assert_eq!(l.seq(), 0);
        assert_eq!(l.acquire(), 1);
        assert_eq!(l.seq(), 1);
        l.release();
        assert_eq!(l.seq(), 2);
        assert_eq!(l.acquire(), 3);
        l.release();
        assert_eq!(l.seq(), 4);
    }

    /// `u64::MAX` is odd, so the last pre-wrap holding is `MAX` and its
    /// release wraps the word to 0, which is even: parity survives the
    /// wrap (and, in a debug build, the release does not overflow).
    #[test]
    fn parity_survives_the_wrap() {
        let l = TatasLock::starting_at(u64::MAX - 1);
        assert_eq!(l.acquire(), u64::MAX);
        assert!(l.is_held());
        l.release();
        assert_eq!(l.seq(), 0, "the word wraps to 0, which is even");
        assert!(!l.is_held());
        assert_eq!(l.acquire(), 1);
        l.release();
        assert_eq!(l.seq(), 2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn starting_at_rejects_a_held_word() {
        let _ = TatasLock::starting_at(u64::MAX);
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(TatasLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let inside = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (l, counter, inside) =
                    (Arc::clone(&l), Arc::clone(&counter), Arc::clone(&inside));
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        l.acquire();
                        let now = inside.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        assert_eq!(now, 0, "two threads inside the lock");
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        inside.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        l.release();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 2000);
    }

    #[test]
    fn subscription_dooms_speculator() {
        // A transaction subscribes to a free lock; the lock is then taken
        // (plain store). The transaction must fail.
        let l = TatasLock::new();
        let r = rtle_htm::swhtm::try_txn(|| {
            assert!(!l.subscribe());
            // Simulate a concurrent acquisition landing mid-transaction.
            l.word.store_plain_for_test(1);
            // Re-reading observes the doomed snapshot -> conflict abort.
            l.subscribe()
        });
        assert!(r.is_err());
        // Clean up the forced state.
        l.release();
    }

    #[test]
    fn await_release_returns_when_the_holding_it_saw_ends() {
        let l = Arc::new(TatasLock::new());
        l.acquire();
        let entered = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (done, returned) = std::sync::mpsc::channel();
        let waiter = {
            let (l, entered) = (Arc::clone(&l), Arc::clone(&entered));
            std::thread::spawn(move || {
                entered.store(true, std::sync::atomic::Ordering::SeqCst);
                l.await_release();
                done.send(()).unwrap();
            })
        };
        while !entered.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Past the spin phase: the waiter has read the word and parked.
        std::thread::sleep(std::time::Duration::from_millis(50));
        // A release and a new holding before the waiter runs again.
        l.release();
        l.acquire();
        let ended = returned.recv_timeout(std::time::Duration::from_secs(5));
        l.release();
        waiter.join().unwrap();
        assert!(ended.is_ok(), "the wait outlived the holding it saw");
    }

    #[test]
    fn await_release_returns_at_once_on_a_free_lock() {
        let l = TatasLock::new();
        l.await_release();
        l.acquire();
        l.release();
        l.await_release();
        assert!(!l.is_held());
    }
}
