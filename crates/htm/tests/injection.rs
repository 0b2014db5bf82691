//! Begin-time abort injection (the chaos hooks) and the configuration
//! round trip that installs nonzero rates. An installed rate reaches every
//! transaction in the process, and the library's unit tests assert on
//! attempt outcomes without taking the configuration mutex, so these
//! tests live in a binary of their own: no unit test shares a process with
//! an injection.

use rtle_htm::{swhtm, AbortCode, HtmConfig};

#[test]
fn spurious_injection_fires() {
    let cfg = HtmConfig {
        spurious_one_in: 1,
        ..Default::default()
    };
    cfg.with_installed(|| {
        let r: Result<(), AbortCode> = swhtm::try_txn(|| ());
        assert_eq!(r, Err(AbortCode::Spurious));
    });
}

#[test]
fn conflict_and_capacity_injection_fire() {
    let cfg = HtmConfig {
        conflict_one_in: 1,
        ..Default::default()
    };
    cfg.with_installed(|| {
        let r: Result<(), AbortCode> = swhtm::try_txn(|| ());
        assert_eq!(r, Err(AbortCode::Conflict));
    });
    let cfg = HtmConfig {
        capacity_one_in: 1,
        ..Default::default()
    };
    cfg.with_installed(|| {
        let r: Result<(), AbortCode> = swhtm::try_txn(|| ());
        assert_eq!(r, Err(AbortCode::Capacity));
    });
}

#[test]
fn injection_rate_one_in_two_fires_every_other_begin() {
    let cfg = HtmConfig {
        spurious_one_in: 2,
        ..Default::default()
    };
    cfg.with_installed(|| {
        let outcomes: Vec<bool> = (0..6).map(|_| swhtm::try_txn(|| ()).is_err()).collect();
        assert_eq!(outcomes.iter().filter(|&&e| e).count(), 3, "{outcomes:?}");
    });
}

#[test]
fn install_roundtrip() {
    let prev = HtmConfig::current();
    let cfg = HtmConfig {
        write_capacity: 8,
        read_capacity: 16,
        spurious_one_in: 5,
        conflict_one_in: 7,
        capacity_one_in: 9,
    };
    cfg.with_installed(|| {
        assert_eq!(HtmConfig::current(), cfg);
    });
    assert_eq!(HtmConfig::current(), prev);
}
