//! The one waiting loop: every wait for a word another thread holds —
//! the elided lock, a stripe lock, an odd sequence clock — is a caller of
//! [`backoff_until`].

use std::hint;

/// Initial backoff spin count; doubled after each failed probe.
const BACKOFF_MIN: u32 = 1 << 4;
/// Backoff ceiling.
const BACKOFF_MAX: u32 = 1 << 14;

/// Probes `done` with bounded exponential backoff between probes, and once
/// the backoff saturates spins `BACKOFF_MAX` then yields the CPU. The
/// first probe is immediate, so an uncontended wait costs the probe alone.
/// A bounded wait is a `done` that counts its probes and gives up.
///
/// Pure spinning is right for the short holds TLE expects, but once
/// backoff saturates the hold is long (a pessimistic section doing real
/// work — or a holder the scheduler has preempted), and on an
/// oversubscribed host a pure spinner steals entire scheduler quanta from
/// the very holder it waits for, multiplying the convoy. The yield keeps
/// the paper's test-and-test-and-set-with-backoff shape (§6.2) while
/// degrading gracefully when threads outnumber cores.
#[inline]
pub fn backoff_until(mut done: impl FnMut() -> bool) {
    let mut backoff = BACKOFF_MIN;
    while !done() {
        for _ in 0..backoff {
            hint::spin_loop();
        }
        if backoff < BACKOFF_MAX {
            backoff <<= 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
