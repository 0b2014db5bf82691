//! The paper's Figure 4 scenario, end-to-end: a lock used as a *barrier*
//! (an empty critical section whose completion is supposed to imply the
//! previous critical section finished).
//!
//! * Standard TLE preserves the pattern: no critical section can complete
//!   while the lock is held.
//! * Refined TLE (eager) breaks it (§5): the empty critical section
//!   commits on the slow path while the holder is still inside.
//! * Refined TLE with lazy subscription restores it.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use refined_tle::prelude::*;

struct Fixture {
    lock: ElidableLock,
    go_flag: AtomicBool,
    ptr: TxCell<u64>, // 0 = "null"
}

/// Runs the Figure 4 interaction once; returns the value of `Ptr` that
/// thread 2 observed after its empty critical section.
fn run_figure4(policy: ElisionPolicy, retry: RetryPolicy) -> u64 {
    let fx = Arc::new(Fixture {
        lock: ElidableLock::builder().policy(policy).retry(retry).build(),
        go_flag: AtomicBool::new(false),
        ptr: TxCell::new(0),
    });

    let observed = Arc::new(AtomicU64::new(u64::MAX));

    std::thread::scope(|scope| {
        // Thread 1: Lock(L); GoFlag = 1; <long work>; Ptr = non-null;
        // Unlock(L). Forced onto the pessimistic path so the lock is
        // genuinely held throughout.
        {
            let fx = Arc::clone(&fx);
            scope.spawn(move || {
                fx.lock.execute(|ctx| {
                    rtle_htm::htm_unfriendly_instruction();
                    fx.go_flag.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(120));
                    ctx.write(&fx.ptr, 0x1000);
                });
            });
        }
        // Thread 2: wait for GoFlag; empty critical section; read Ptr.
        {
            let fx = Arc::clone(&fx);
            let observed = Arc::clone(&observed);
            scope.spawn(move || {
                while !fx.go_flag.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                fx.lock.execute(|_ctx| {}); // the "barrier"
                observed.store(fx.ptr.read_plain(), Ordering::SeqCst);
            });
        }
    });

    observed.load(Ordering::SeqCst)
}

#[test]
fn standard_tle_preserves_barrier_pattern() {
    let v = run_figure4(ElisionPolicy::Tle, RetryPolicy::default());
    assert_eq!(v, 0x1000, "TLE: empty CS must wait for the holder");
}

#[test]
fn eager_fg_tle_breaks_barrier_pattern() {
    // §5: "Thread 2 may successfully execute the empty critical section
    // using a hardware transaction on the slow path while the lock L is
    // held, and may thus see a NULL value in Ptr."
    let v = run_figure4(ElisionPolicy::FgTle { orecs: 64 }, RetryPolicy::default());
    assert_eq!(
        v, 0,
        "refined TLE (eager) should complete the empty CS concurrently and observe null"
    );
}

#[test]
fn eager_rw_tle_breaks_barrier_pattern() {
    let v = run_figure4(ElisionPolicy::RwTle, RetryPolicy::default());
    assert_eq!(
        v, 0,
        "RW-TLE (eager) also completes the empty CS concurrently"
    );
}

#[test]
fn lazy_subscription_restores_barrier_pattern() {
    let retry = RetryPolicy {
        lazy_subscription: true,
        ..Default::default()
    };
    let v = run_figure4(ElisionPolicy::FgTle { orecs: 64 }, retry);
    assert_eq!(
        v, 0x1000,
        "lazy subscription must restore the Figure 4 semantics"
    );
}

#[test]
fn lazy_subscription_restores_barrier_for_rw_tle_too() {
    let retry = RetryPolicy {
        lazy_subscription: true,
        ..Default::default()
    };
    let v = run_figure4(ElisionPolicy::RwTle, retry);
    assert_eq!(v, 0x1000);
}
