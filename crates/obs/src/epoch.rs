//! A single process-wide monotonic timebase.
//!
//! Every telemetry consumer — live scrapes, window series, watchdog
//! flight records, offline `diag --timeline` replays — needs to agree
//! on what "t = 0" means, or their offsets cannot be correlated. This
//! module pins one `Instant` the first time anything asks for it and
//! measures everything as nanoseconds since that epoch. The epoch is
//! process-global and immutable once taken; callers that want a local
//! origin subtract two [`now_ns`] readings.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-start monotonic epoch. Pinned on first call; every
/// subsequent call returns the same instant.
pub fn process_epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Where `at` lies on the epoch timebase: nanoseconds since
/// [`process_epoch`] (0 for an instant before it), saturating at
/// `u64::MAX` (≈584 years — effectively never). Stamps a reading the
/// caller already took, without another clock read.
#[inline]
pub fn ns_at(at: Instant) -> u64 {
    let ns = at.saturating_duration_since(process_epoch()).as_nanos();
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Nanoseconds elapsed since [`process_epoch`].
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_pinned_once() {
        let a = process_epoch();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = process_epoch();
        assert_eq!(a, b, "epoch must not drift between calls");
    }

    #[test]
    fn an_instant_is_stamped_without_reading_the_clock_again() {
        let before = now_ns();
        let at = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let stamp = ns_at(at);
        assert!(stamp >= before && stamp + 2_000_000 <= now_ns());
        assert_eq!(stamp, ns_at(at), "a function of the instant alone");
    }

    #[test]
    fn now_is_monotone() {
        let a = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = now_ns();
        assert!(b > a, "elapsed time must advance: {a} -> {b}");
    }
}
