//! A body that fits the fast path's read capacity but not the slow path's
//! (an FG-TLE slow attempt also reads an orec for each line it reads)
//! meets a 200 ms holding. Its slow attempt aborts on capacity, which a
//! retry against the same holding would only repeat, so it waits out the
//! holding off the CPU (read from `/proc/thread-self/schedstat`, as in
//! `parked_waiters.rs`) and then commits on the fast path.

#![cfg(target_os = "linux")]

use std::time::Duration;

use rtle_core::{ElidableLock, ElisionPolicy, TxCell};
use rtle_htm::config::{HtmConfig, DEFAULT_READ_CAPACITY};

const HOLD: Duration = Duration::from_millis(200);

/// Distinct lines the body reads: inside the read capacity with the lock
/// word, over it with the orec lines the slow path adds.
const LINES: usize = 4000;

/// A cell alone on its cache line.
#[repr(align(64))]
struct OwnLine(TxCell<u64>);

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
fn slow_capacity_abort_waits_out_the_holding_off_the_cpu() {
    assert_eq!(HtmConfig::current().read_capacity, DEFAULT_READ_CAPACITY);
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::FgTle { orecs: 8192 })
        .build();
    let cells: Vec<OwnLine> = (0..LINES).map(|_| OwnLine(TxCell::new(1))).collect();
    let held = std::sync::Barrier::new(2);

    let (sum, victim_cpu) = std::thread::scope(|s| {
        s.spawn(|| {
            let section = lock.lock_section();
            held.wait();
            std::thread::sleep(HOLD);
            drop(section);
        });
        let victim = s.spawn(|| {
            held.wait();
            let t0 = on_cpu_ns();
            let sum = lock.execute(|ctx| cells.iter().map(|c| ctx.read(&c.0)).sum::<u64>());
            (sum, on_cpu_ns() - t0)
        });
        victim.join().unwrap()
    });

    assert_eq!(sum, LINES as u64);
    let snap = lock.stats().snapshot();
    assert!(
        snap.aborts_capacity >= 1,
        "the slow attempt overflowed: {snap:?}"
    );
    assert_eq!(
        (snap.fast_commits, snap.slow_commits, snap.lock_acquisitions),
        (1, 0, 1),
        "the victim committed on the fast path after the release: {snap:?}"
    );
    assert!(
        victim_cpu < HOLD.as_nanos() as u64 / 10,
        "the victim spent {:?} on a CPU over a {HOLD:?} hold: {snap:?}",
        Duration::from_nanos(victim_cpu)
    );
}
