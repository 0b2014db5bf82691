//! The one way to wait for another thread. Every wait spins first (the
//! paper's §6.2 test-and-test-and-set backoff, saturating after 32 752
//! `pause`s, ~0.7 ms); then [`backoff_until`] yields between probes, for
//! holds short by construction, and [`until`] takes the one [`park`], for
//! holds of any length. The park cannot lose a wakeup: the waiter
//! registers, re-checks, then sleeps; the waker stores, then
//! [`WaitList::wake_all`]s; each fences `SeqCst` between its store and its
//! load (a Dekker pattern, explored by `rtle-check`'s `park` machine).

use std::hint;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Initial backoff spin count; doubled after each failed probe.
const BACKOFF_MIN: u32 = 1 << 4;
/// Backoff ceiling.
const BACKOFF_MAX: u32 = 1 << 14;

/// The longest a parked waiter sleeps before it re-checks.
pub const BACKSTOP: Duration = Duration::from_millis(100);

/// `n` spin-loop hints: the pause between two probes.
#[inline]
pub fn pause(n: u32) {
    for _ in 0..n {
        hint::spin_loop();
    }
}

/// The spin phase: probes `done` (first at once) with exponential backoff
/// between probes; `false` once the backoff saturates.
#[inline(always)]
fn spin(done: &mut impl FnMut() -> bool) -> bool {
    let mut backoff = BACKOFF_MIN;
    while !done() {
        if backoff > BACKOFF_MAX {
            return false;
        }
        pause(backoff);
        backoff <<= 1;
    }
    true
}

/// Waits until `done`: the spin phase, then `BACKOFF_MAX` pauses and a
/// yield between probes. A bounded wait is a `done` that counts probes.
#[inline(always)]
pub fn backoff_until(mut done: impl FnMut() -> bool) {
    if spin(&mut done) {
        return;
    }
    std::thread::yield_now();
    while !done() {
        pause(BACKOFF_MAX);
        std::thread::yield_now();
    }
}

/// Waits until `done`: the spin phase, then [`park`]s on `list` until a
/// re-check finds `done` (its maker then calls [`WaitList::wake_all`]).
/// `false` if a park ended by the [`BACKSTOP`], not a notification.
pub fn until(list: &WaitList, mut done: impl FnMut() -> bool) -> bool {
    let mut notified = true;
    if !spin(&mut done) {
        while let Some(woken) = park(&[list], &mut done) {
            notified &= woken;
        }
    }
    notified
}

/// The park: registers one waiter on each of `lists`, re-checks `done` and
/// sleeps unless it holds. `None` when the re-check found `done`; else
/// whether a notification, not the [`BACKSTOP`], ended the sleep.
pub fn park(lists: &[&WaitList], done: impl FnOnce() -> bool) -> Option<bool> {
    let waiter = Arc::new(Waiter::new());
    lists.iter().for_each(|list| list.register(&waiter));
    (!done()).then(|| waiter.park(BACKSTOP))
}

/// The waiters parked on one word or variable; wakers read the count.
#[derive(Debug, Default)]
pub struct WaitList {
    /// Entries (stale ones too), stored under `inner`.
    count: AtomicUsize,
    inner: Mutex<Vec<Arc<Waiter>>>,
}

impl WaitList {
    /// An empty list.
    pub const fn new() -> Self {
        WaitList {
            count: AtomicUsize::new(0),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Adds `w`, purging stale entries (sole `Arc` holder, or notified),
    /// then fences: the caller's re-check is ordered after it.
    fn register(&self, w: &Arc<Waiter>) {
        let mut list = self.inner.lock().unwrap();
        list.retain(|old| Arc::strong_count(old) > 1 && !old.is_notified());
        list.push(Arc::clone(w));
        self.count.store(list.len(), Ordering::Relaxed); // ordering: under the mutex
        fence(Ordering::SeqCst); // ordering: the waiter's half of the Dekker
    }

    /// Notifies and drains every registered waiter; returns how many were
    /// listed. Call it after the store that ends the wait.
    pub fn wake_all(&self) -> usize {
        // ordering: the waker's half of the Dekker; with `register`'s fence
        // it orders the count load.
        fence(Ordering::SeqCst);
        if self.count.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut list = self.inner.lock().unwrap();
        self.count.store(0, Ordering::Relaxed); // ordering: under the mutex
        list.drain(..).map(|w| w.notify()).count()
    }
}

/// One parked thread: a notified flag under a mutex plus a condvar.
#[derive(Debug, Default)]
struct Waiter {
    state: Mutex<bool>,
    cv: Condvar,
}

impl Waiter {
    fn new() -> Self {
        Waiter::default()
    }

    fn notify(&self) {
        *self.state.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn is_notified(&self) -> bool {
        *self.state.lock().unwrap()
    }

    /// Blocks until notified or `timeout` elapses; whether notified.
    fn park(&self, timeout: Duration) -> bool {
        let guard = self.state.lock().unwrap();
        *self
            .cv
            .wait_timeout_while(guard, timeout, |n| !*n)
            .unwrap()
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    impl WaitList {
        fn len(&self) -> usize {
            self.inner.lock().unwrap().len()
        }
    }

    #[test]
    fn first_probe_is_immediate_and_a_counting_probe_bounds_the_wait() {
        let mut probes = 0;
        backoff_until(|| {
            probes += 1;
            true
        });
        assert_eq!(probes, 1);

        // Well past saturation (11 doublings): the loop keeps probing.
        let mut probes = 0;
        backoff_until(|| {
            probes += 1;
            probes == 16
        });
        assert_eq!(probes, 16);
    }

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
    fn a_handoff_storm_ends_every_park_by_notification() {
        // Two threads pass a turn back and forth through one list. Each
        // holds its turn past the spin phase, so the other parks, and each
        // hand-off is a store and a `wake_all` — a release. A park that
        // ended by the backstop would be a lost wakeup.
        const ROUNDS: u64 = 30;
        let turn = Arc::new(AtomicU64::new(0));
        let list = Arc::new(WaitList::new());
        let player = |me: u64| {
            let (turn, list) = (Arc::clone(&turn), Arc::clone(&list));
            thread::spawn(move || {
                let (mut woken, mut all_notified) = (0, true);
                for round in (me..ROUNDS).step_by(2) {
                    all_notified &= until(&list, || turn.load(Ordering::Acquire) == round);
                    thread::sleep(Duration::from_millis(10));
                    turn.store(round + 1, Ordering::Release);
                    woken += list.wake_all();
                }
                (woken, all_notified)
            })
        };
        let (a, b) = (player(0), player(1));
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert!(a.1 && b.1, "a park ended by the backstop");
        assert!(
            a.0 + b.0 >= ROUNDS as usize / 4,
            "the waits did not reach the park: {} wakes over {ROUNDS} hand-offs",
            a.0 + b.0
        );
    }
}
