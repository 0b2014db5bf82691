//! The one clock of runtime telemetry: nanoseconds since a process-wide
//! epoch.
//!
//! Every telemetry consumer — recorded attempts and holder instants, the
//! lock's time held, the software rung's time, live scrapes, window series,
//! watchdog flight records, offline `diag --timeline` replays — needs to
//! agree on what "t = 0" means, or their offsets cannot be correlated. The
//! epoch is pinned the first time anything reads the clock and is immutable
//! from then on; callers that want a local origin subtract two [`now_ns`]
//! readings.
//!
//! On x86_64 with an invariant TSC (CPUID `0x8000_0007`, EDX bit 8: the
//! counter ticks at one rate in every power state), a reading is one
//! `rdtsc` and a multiply, about half the price of `Instant::now`. The rate
//! is calibrated once against `Instant`, when the epoch is pinned, by
//! spinning 200 µs. Anywhere else the clock reads `Instant`.

// Hot path, no `unwrap` or `panic!` outside tests: the clock of every
// recorded attempt, lock hold and software attempt.
#![warn(clippy::unwrap_used, clippy::panic)]

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How long pinning the epoch spins to calibrate the TSC against
/// `Instant`: each end of the span is read to within a few tens of ns, so
/// the rate is good to a few parts in 10⁴.
const CALIBRATION: Duration = Duration::from_micros(200);

/// The process's clock: its epoch, and how it reads time since then.
struct Clock {
    epoch: Instant,
    source: Source,
}

enum Source {
    /// TSC ticks since `base`, times `ns_per_tick` (32.32 fixed point).
    Tsc { base: u64, ns_per_tick: u64 },
    /// `Instant`, where there is no invariant TSC.
    Instant,
}

static CLOCK: OnceLock<Clock> = OnceLock::new();

#[inline]
fn clock() -> &'static Clock {
    CLOCK.get_or_init(Clock::pin)
}

/// The process-wide epoch. Pinned on first use of the clock; every later
/// call returns the same instant.
pub fn process_epoch() -> Instant {
    clock().epoch
}

/// Nanoseconds elapsed since [`process_epoch`], saturating at `u64::MAX`
/// (≈584 years — effectively never).
#[inline]
pub fn now_ns() -> u64 {
    clock().now_ns()
}

impl Clock {
    /// Pins the epoch now, on the TSC where it is invariant.
    fn pin() -> Clock {
        #[cfg(target_arch = "x86_64")]
        if tsc::invariant() {
            return Clock::calibrated();
        }
        Clock::on_instant(Instant::now())
    }

    /// The `Instant` clock, from `epoch`.
    fn on_instant(epoch: Instant) -> Clock {
        Clock {
            epoch,
            source: Source::Instant,
        }
    }

    /// The TSC clock: pins the epoch at a paired reading of both clocks,
    /// spins [`CALIBRATION`], and takes the rate from a second pair.
    #[cfg(target_arch = "x86_64")]
    fn calibrated() -> Clock {
        let (epoch, base) = tsc::paired();
        while epoch.elapsed() < CALIBRATION {
            std::hint::spin_loop();
        }
        let (end, tick) = tsc::paired();
        let ns = end.saturating_duration_since(epoch).as_nanos();
        let ticks = u128::from(tick.saturating_sub(base).max(1));
        Clock {
            epoch,
            source: Source::Tsc {
                base,
                ns_per_tick: u64::try_from((ns << 32) / ticks).unwrap_or(u64::MAX),
            },
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        match self.source {
            #[cfg(target_arch = "x86_64")]
            Source::Tsc { base, ns_per_tick } => ns_of_tick(tsc::read(), base, ns_per_tick),
            #[cfg(not(target_arch = "x86_64"))]
            Source::Tsc { .. } => unreachable!("the TSC clock is pinned only on x86_64"),
            Source::Instant => u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

/// Where `tick` lies on the epoch timebase of a clock pinned at tick
/// `base`: 0 for a tick taken before it, `u64::MAX` past the range.
#[inline]
fn ns_of_tick(tick: u64, base: u64, ns_per_tick: u64) -> u64 {
    let ns = (u128::from(tick.saturating_sub(base)) * u128::from(ns_per_tick)) >> 32;
    u64::try_from(ns).unwrap_or(u64::MAX)
}

#[cfg(target_arch = "x86_64")]
mod tsc {
    use std::arch::x86_64::{__cpuid, _rdtsc};
    use std::time::Instant;

    /// Whether the TSC is invariant: CPUID leaf `0x8000_0007` exists and
    /// sets EDX bit 8.
    pub fn invariant() -> bool {
        // Leaf `0x8000_0000` reports the highest extended leaf.
        let top = __cpuid(0x8000_0000).eax;
        top >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
    }

    /// The time-stamp counter.
    #[inline]
    pub fn read() -> u64 {
        // SAFETY: `rdtsc` exists on every x86_64 processor and has no
        // preconditions.
        unsafe { _rdtsc() }
    }

    /// A tick and the instant it was read at: the narrowest of a few
    /// `Instant`–tick–`Instant` brackets, paired with its midpoint, so a
    /// preemption inside one bracket does not skew the calibration.
    pub fn paired() -> (Instant, u64) {
        let bracket = || {
            let before = Instant::now();
            let tick = read();
            let width = before.elapsed();
            (width, before + width / 2, tick)
        };
        let mut best = bracket();
        for _ in 0..4 {
            let next = bracket();
            if next.0 < best.0 {
                best = next;
            }
        }
        (best.1, best.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_pinned_once() {
        let a = process_epoch();
        std::thread::sleep(Duration::from_millis(2));
        let b = process_epoch();
        assert_eq!(a, b, "epoch must not drift between calls");
    }

    #[test]
    fn now_is_monotone_on_one_thread() {
        let mut last = now_ns();
        for _ in 0..200_000 {
            let now = now_ns();
            assert!(now >= last, "went back: {last} -> {now}");
            last = now;
        }
        std::thread::sleep(Duration::from_millis(2));
        assert!(now_ns() >= last + 2_000_000, "elapsed time must advance");
    }

    /// A reading of `clock` between two `Instant`s: the narrowest of a
    /// few such brackets, as in `tsc::paired`, so one preemption between
    /// the reads does not skew it.
    fn bracketed(clock: &Clock) -> (Instant, u64, Instant) {
        (0..5)
            .map(|_| {
                let before = Instant::now();
                let ns = clock.now_ns();
                (before, ns, Instant::now())
            })
            .min_by_key(|&(before, _, after)| after - before)
            .expect("five brackets")
    }

    /// Elapsed time over the same ≥ 20 ms span: on `clock`, on `Instant`
    /// between the midpoints of the two brackets, and on `Instant` from
    /// the first bracket's start to the last one's end.
    fn both_over_a_span(clock: &Clock) -> (f64, f64, f64) {
        let (b0, c0, a0) = bracketed(clock);
        std::thread::sleep(Duration::from_millis(25));
        let (b1, c1, a1) = bracketed(clock);
        let mid = |b: Instant, a: Instant| b + (a - b) / 2;
        let ns = |d: Duration| d.as_nanos() as f64;
        ((c1 - c0) as f64, ns(mid(b1, a1) - mid(b0, a0)), ns(a1 - b0))
    }

    #[test]
    fn the_clock_agrees_with_instant_to_a_thousandth() {
        let pinned = Clock::pin();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            matches!(pinned.source, Source::Tsc { .. }),
            tsc::invariant(),
            "the TSC is used exactly where it is invariant"
        );
        let (ours, real, _) = both_over_a_span(&pinned);
        assert!(real >= 20e6);
        assert!(
            (ours - real).abs() <= real / 1_000.0,
            "{ours} ns against Instant's {real} ns"
        );
    }

    #[test]
    fn a_tick_before_the_epoch_saturates_instead_of_wrapping() {
        let one = 1u64 << 32;
        assert_eq!(ns_of_tick(999, 1_000, one), 0);
        assert_eq!(ns_of_tick(0, u64::MAX, one), 0);
        assert_eq!(ns_of_tick(1_500, 1_000, one / 2), 250);
        assert_eq!(ns_of_tick(u64::MAX, 0, one), u64::MAX);
        assert_eq!(ns_of_tick(u64::MAX, 0, 2 * one), u64::MAX, "saturates");
    }

    #[test]
    fn the_instant_fallback_counts_from_its_epoch() {
        let clock = Clock::on_instant(Instant::now());
        let (ours, _, real) = both_over_a_span(&clock);
        assert!(ours <= real && real - ours < 1e6, "{ours} against {real}");
        let early = Clock::on_instant(Instant::now() + Duration::from_secs(60));
        assert_eq!(early.now_ns(), 0, "an instant before the epoch");
    }
}
