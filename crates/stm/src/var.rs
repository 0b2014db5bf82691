//! [`TxVar`]: a transactional variable that composable transactions can
//! block on.
//!
//! A `TxVar<T>` is a [`TxCell`] plus a *waiter list*. The cell is ordinary
//! transactional state — the space lock's domain, read and written through
//! whatever execution mode the `atomically` ladder is in. The waiter list
//! is what makes `retry` a *blocking* primitive instead of a spin: a
//! transaction that gives up via [`crate::Tx::retry`] parks one `Waiter`
//! on every `TxVar` in its read set, and every committing transaction that
//! wrote a `TxVar` wakes that var's list after its writes are visible.
//!
//! The wakeup protocol (no lost wakeups):
//!
//! 1. the parker **registers** its waiter on each read var's list,
//! 2. then re-validates every logged read value plainly,
//! 3. and only parks if nothing changed.
//!
//! A writer that commits before step 2 is seen by the validation (the
//! parker reruns immediately); a writer that commits after step 2 finds
//! the waiter already registered (step 1 happened first) and notifies it.
//! A ~100 ms timeout backstops the protocol — a timed-out waiter
//! revalidates and re-parks, so even a missed edge costs bounded latency,
//! and the `wakes_timeout` statistic makes such bugs visible instead of
//! silent.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rtle_htm::{TxCell, TxWord};

/// A transactional variable: shared state read and written inside
/// [`crate::atomically`] blocks, with a waiter list so transactions that
/// [`crate::Tx::retry`] after reading it are woken when it changes.
#[derive(Debug)]
pub struct TxVar<T: TxWord> {
    cell: TxCell<T>,
    waiters: WaitList,
}

impl<T: TxWord> TxVar<T> {
    /// Creates a variable holding `value`.
    pub fn new(value: T) -> Self {
        TxVar {
            cell: TxCell::new(value),
            waiters: WaitList::new(),
        }
    }

    /// Non-transactional snapshot read — setup, teardown, assertions.
    pub fn read_plain(&self) -> T {
        self.cell.read_plain()
    }

    pub(crate) fn cell(&self) -> &TxCell<T> {
        &self.cell
    }

    pub(crate) fn waiters(&self) -> &WaitList {
        &self.waiters
    }
}

impl<T: TxWord + Default> Default for TxVar<T> {
    fn default() -> Self {
        TxVar::new(T::default())
    }
}

/// The parked transactions waiting for one [`TxVar`] to change.
///
/// A coarse `Mutex<Vec<..>>` is deliberate: the list is touched only on
/// the *blocking* path (a transaction that already gave up) and on the
/// commit of a transaction that wrote the var — never on the speculative
/// fast path, so a fine-grained structure would optimize the part of the
/// protocol that is waiting anyway.
#[derive(Debug, Default)]
pub(crate) struct WaitList {
    inner: Mutex<Vec<Arc<Waiter>>>,
}

impl WaitList {
    pub(crate) fn new() -> Self {
        WaitList::default()
    }

    /// Adds `w` to the list, purging stale entries (waiters whose owning
    /// thread gave up — sole `Arc` holder — or that were already notified)
    /// so abandoned registrations from timed-out parks cannot accumulate.
    pub(crate) fn register(&self, w: &Arc<Waiter>) {
        let mut list = self.inner.lock().unwrap();
        list.retain(|old| Arc::strong_count(old) > 1 && !old.is_notified());
        list.push(Arc::clone(w));
    }

    /// Drains the list and notifies every waiter. Returns how many were
    /// notified. Called *after* the waking transaction's writes are
    /// visible (post-commit / post-release).
    pub(crate) fn wake_all(&self) -> usize {
        let drained: Vec<Arc<Waiter>> = {
            let mut list = self.inner.lock().unwrap();
            list.drain(..).collect()
        };
        let n = drained.len();
        for w in &drained {
            w.notify();
        }
        n
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }
}

/// One parked transaction: a notified flag under a mutex plus a condvar.
#[derive(Debug, Default)]
pub(crate) struct Waiter {
    state: Mutex<bool>,
    cv: Condvar,
}

impl Waiter {
    pub(crate) fn new() -> Self {
        Waiter::default()
    }

    pub(crate) fn notify(&self) {
        let mut notified = self.state.lock().unwrap();
        *notified = true;
        self.cv.notify_all();
    }

    pub(crate) fn is_notified(&self) -> bool {
        *self.state.lock().unwrap()
    }

    /// Blocks until notified or `timeout` elapses. Returns whether the
    /// wakeup was a notification (vs the timeout backstop).
    pub(crate) fn park(&self, timeout: Duration) -> bool {
        let mut notified = self.state.lock().unwrap();
        while !*notified {
            let (guard, result) = self.cv.wait_timeout(notified, timeout).unwrap();
            notified = guard;
            if result.timed_out() {
                return *notified;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn notify_before_park_returns_immediately() {
        let w = Arc::new(Waiter::new());
        w.notify();
        assert!(w.park(Duration::from_secs(5)));
    }

    #[test]
    fn park_times_out_without_notification() {
        let w = Arc::new(Waiter::new());
        assert!(!w.park(Duration::from_millis(5)));
    }

    #[test]
    fn wake_all_drains_and_notifies() {
        let list = WaitList::new();
        let a = Arc::new(Waiter::new());
        let b = Arc::new(Waiter::new());
        list.register(&a);
        list.register(&b);
        assert_eq!(list.wake_all(), 2);
        assert_eq!(list.wake_all(), 0, "list drained");
        assert!(a.is_notified());
        assert!(b.is_notified());
    }

    #[test]
    fn register_purges_abandoned_waiters() {
        let list = WaitList::new();
        {
            let abandoned = Arc::new(Waiter::new());
            list.register(&abandoned);
        } // sole owner dropped: entry is stale
        let live = Arc::new(Waiter::new());
        list.register(&live);
        assert_eq!(list.len(), 1, "stale entry purged on register");
    }

    #[test]
    fn cross_thread_wakeup() {
        let list = Arc::new(WaitList::new());
        let w = Arc::new(Waiter::new());
        list.register(&w);
        let l2 = Arc::clone(&list);
        let t = thread::spawn(move || {
            l2.wake_all();
        });
        assert!(w.park(Duration::from_secs(5)), "woken by notification");
        t.join().unwrap();
    }

    #[test]
    fn txvar_plain_roundtrip() {
        let v = TxVar::new(7u64);
        assert_eq!(v.read_plain(), 7);
        let d: TxVar<u64> = TxVar::default();
        assert_eq!(d.read_plain(), 0);
    }
}
