//! Waiters behind a long hold sleep: a holder keeps the lock for 200 ms
//! while two threads try to run a critical section on it (three threads;
//! written for a 2-core box, where spinning waiters would take both cores).
//! Past their backoff the waiters park on the lock's wait list, so their
//! on-CPU time over the hold, read from `/proc/thread-self/schedstat`,
//! stays under a tenth of the hold.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rtle_core::{ElidableLock, ElisionPolicy, TxCell};

const HOLD: Duration = Duration::from_millis(200);

/// The calling thread's time on a CPU so far, in ns (the first field of
/// `/proc/thread-self/schedstat`).
fn on_cpu_ns() -> u64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU time in ns")
}

#[test]
fn waiters_behind_a_long_hold_stay_off_the_cpu() {
    let lock = ElidableLock::builder().policy(ElisionPolicy::Tle).build();
    let cell = TxCell::new(0u64);
    let held = AtomicBool::new(false);

    let waiters_cpu: Vec<u64> = std::thread::scope(|s| {
        s.spawn(|| {
            let section = lock.lock_section();
            held.store(true, Ordering::SeqCst);
            std::thread::sleep(HOLD);
            drop(section);
        });
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    while !held.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    let t0 = on_cpu_ns();
                    lock.execute(|ctx| ctx.write(&cell, ctx.read(&cell) + 1));
                    on_cpu_ns() - t0
                })
            })
            .collect();
        waiters.into_iter().map(|w| w.join().unwrap()).collect()
    });

    assert_eq!(cell.read_plain(), 2, "both waiters ran after the hold");
    let total: u64 = waiters_cpu.iter().sum();
    assert!(
        total < HOLD.as_nanos() as u64 / 10,
        "waiters spent {:?} on a CPU over a {HOLD:?} hold (per waiter {:?} ns)",
        Duration::from_nanos(total),
        waiters_cpu
    );
}
