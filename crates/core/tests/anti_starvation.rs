//! The anti-starvation extension (§6.2.1: "It is trivial to add an
//! anti-starvation mechanism to these synchronization methods"): capping
//! the slow-path retries of one operation forces it onto the lock queue,
//! bounding its total work even against a perpetual lock holder that keeps
//! conflicting with it.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtle_core::{abort_codes, ElidableLock, ElisionPolicy, RetryPolicy, TxCell};

/// Shared fixture: a holder that camps on the lock writing `shared`, and a
/// victim op that also writes `shared` (so its slow-path attempts always
/// hit the holder's orecs).
fn run_victim(cap: Option<u32>) -> (rtle_core::StatsSnapshot, Duration) {
    let retry = RetryPolicy {
        max_slow_attempts: cap,
        ..Default::default()
    };
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 64 })
            .retry(retry)
            .build(),
    );
    let shared = Arc::new(TxCell::new(0u64));
    let holder_in = Arc::new(AtomicBool::new(false));
    let victim_done = Arc::new(AtomicBool::new(false));

    let elapsed = std::thread::scope(|scope| {
        {
            let (lock, shared, holder_in, victim_done) = (
                Arc::clone(&lock),
                Arc::clone(&shared),
                Arc::clone(&holder_in),
                Arc::clone(&victim_done),
            );
            scope.spawn(move || {
                lock.execute(|ctx| {
                    rtle_htm::htm_unfriendly_instruction();
                    // Touch `shared` so its orec is write-owned throughout.
                    let v = ctx.read(&shared);
                    ctx.write(&shared, v + 1);
                    holder_in.store(true, Ordering::SeqCst);
                    let start = std::time::Instant::now();
                    while !victim_done.load(Ordering::SeqCst)
                        && start.elapsed() < Duration::from_millis(400)
                    {
                        std::hint::spin_loop();
                    }
                });
            });
        }
        while !holder_in.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let t0 = std::time::Instant::now();
        lock.execute(|ctx| {
            let v = ctx.read(&shared);
            ctx.write(&shared, v + 1);
        });
        let d = t0.elapsed();
        victim_done.store(true, Ordering::SeqCst);
        d
    });

    assert_eq!(shared.read_plain(), 2);
    (lock.stats().snapshot(), elapsed)
}

#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: victim runs against an Instant-based deadline"
)]
fn capped_slow_retries_escalate_to_the_lock() {
    let (snap, _) = run_victim(Some(3));
    // The victim burned exactly its slow budget on orec conflicts, then
    // queued on the lock (2 acquisitions: holder + victim).
    assert_eq!(snap.lock_acquisitions, 2, "{snap:?}");
    assert_eq!(
        snap.aborts_by_code[abort_codes::OREC_CONFLICT as usize],
        3,
        "victim used its capped slow budget: {snap:?}"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: victim runs against an Instant-based deadline"
)]
fn uncapped_victim_keeps_speculating() {
    let (snap, _) = run_victim(None);
    // Without the cap the victim retries the slow path until the holder
    // leaves (the paper's configuration), then commits speculatively —
    // only the holder ever took the lock.
    assert_eq!(snap.lock_acquisitions, 1, "{snap:?}");
    assert!(
        snap.aborts_by_code[abort_codes::OREC_CONFLICT as usize] > 3,
        "unbounded retries churn on the owned orec: {snap:?}"
    );
    assert_eq!(
        snap.fast_commits + snap.slow_commits,
        1,
        "victim committed speculatively"
    );
}
