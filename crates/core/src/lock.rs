//! The elided lock itself: a test-and-test-and-set spin lock with bounded
//! exponential backoff, exactly the lock the paper's evaluation uses
//! ("a simple test-and-test-and-set lock with exponential backoff", §6.2).
//!
//! The lock word is a [`TxCell`] so that speculating hardware transactions
//! can **subscribe** to it: a transactional read of the word puts it in the
//! transaction's read set, and a subsequent acquisition (a plain
//! compare-and-swap) dooms every subscribed transaction — the mechanism
//! TLE's correctness rests on.

use rtle_htm::wait::{self, WaitList};
use rtle_htm::TxCell;

const FREE: u64 = 0;
const HELD: u64 = 1;

/// Test-and-test-and-set spin lock with exponential backoff, built on a
/// transactionally visible word; waits that outlast the backoff park.
///
/// Not reentrant; no fairness/anti-starvation machinery (the paper
/// explicitly leaves that out, §6.2.1, noting it is trivial to add).
#[derive(Debug, Default)]
pub struct TatasLock {
    word: TxCell<u64>,
    /// Boxed onto a line of its own: a waiter that registers writes the
    /// list's count, and speculating transactions hold the word's line.
    waiters: Box<OwnLine>,
}

/// A [`WaitList`] alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct OwnLine(WaitList);

impl TatasLock {
    /// A new, free lock.
    pub fn new() -> Self {
        TatasLock::default()
    }

    /// Non-transactional probe: is the lock currently held?
    ///
    /// This is the *test* step done before starting a hardware transaction
    /// (Figure 1's "is lock available?" diamond) — probing outside the
    /// transaction avoids pointless aborts while the lock is held.
    #[inline]
    pub fn is_held(&self) -> bool {
        self.word.read_plain() == HELD
    }

    /// Transactional probe: reads the lock word *inside* the current
    /// hardware transaction, adding it to the read set. Any later
    /// acquisition aborts the subscriber. Returns whether the lock was held
    /// at subscription time.
    #[inline]
    pub fn subscribe(&self) -> bool {
        self.word.read() == HELD
    }

    /// One acquisition attempt (test, then atomic test-and-set). Returns
    /// `true` on success. The CAS is a strongly atomic plain write, so it
    /// dooms every transaction subscribed to the lock word.
    #[inline]
    pub fn try_acquire(&self) -> bool {
        !self.is_held() && self.word.compare_exchange_plain(FREE, HELD)
    }

    /// Acquires the lock: test-and-test-and-set with exponential backoff;
    /// past ~0.7 ms the waiter parks until a release wakes it ([`wait::until`]).
    pub fn acquire(&self) {
        wait::until(self.waiters(), || self.try_acquire());
    }

    /// Releases the lock: stores FREE, then wakes parked waiters if the wait
    /// list's count, loaded after a `fence(SeqCst)`, says there are any.
    #[inline]
    pub fn release(&self) {
        debug_assert!(self.is_held(), "release of a free TatasLock");
        self.word.write(FREE);
        self.waiters().wake_all();
    }

    /// Waits, like [`Self::acquire`], until the lock is observed free. Used
    /// by the retry policy: "we spin until the lock is not held after every
    /// failure" (§6.2.1, citing Kleen's TSX anti-patterns \[16\]).
    pub fn spin_while_held(&self) {
        wait::until(self.waiters(), || !self.is_held());
    }

    /// The list its waiters park on (a holder quiescing software, too).
    pub(crate) fn waiters(&self) -> &WaitList {
        &self.waiters.0
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
        assert!(!l.try_acquire());
        l.release();
        assert!(!l.is_held());
        assert!(l.try_acquire());
        l.release();
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
            l.word.store_plain_for_test(HELD);
            // Re-reading observes the doomed snapshot -> conflict abort.
            l.subscribe()
        });
        assert!(r.is_err());
        // Clean up the forced state.
        l.release();
    }

    #[test]
    fn spin_while_held_returns_when_freed() {
        let l = Arc::new(TatasLock::new());
        l.acquire();
        let waiter = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.spin_while_held();
                true
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        l.release();
        assert!(waiter.join().unwrap());
    }
}
