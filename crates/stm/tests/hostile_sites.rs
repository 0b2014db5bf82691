//! A call site whose body cannot commit in hardware stops paying for the
//! hardware attempt: after an `Unsupported` abort its next calls start on
//! the software rung, for a run that doubles on each hostile probe up to
//! 64 calls, and a probe that commits puts the site back on the hardware.
//!
//! The table is per thread and per call site, so each case runs on its
//! own test thread, and each helper below holds exactly one `atomically`
//! call site.

use std::sync::atomic::{AtomicBool, Ordering};

use rtle_htm::htm_unfriendly_instruction;
use rtle_stm::{Stm, StmStatsSnapshot, TxVar};

const WARM_UP: u64 = 100;
const CALLS: u64 = 1_000;

/// The one hostile call site: an instruction the hardware cannot run,
/// then an increment of `v`.
fn hostile(space: &Stm, v: &TxVar<u64>) {
    space.atomically(|tx| {
        htm_unfriendly_instruction();
        tx.write(v, tx.read(v) + 1);
        Ok(())
    });
}

/// The one friendly call site: the same increment, hardware-clean.
fn friendly(space: &Stm, v: &TxVar<u64>) {
    space.atomically(|tx| {
        tx.write(v, tx.read(v) + 1);
        Ok(())
    });
}

/// A call site whose body is hostile while `flag` is raised.
fn hostile_while(space: &Stm, flag: &AtomicBool, v: &TxVar<u64>) {
    space.atomically(|tx| {
        if flag.load(Ordering::Relaxed) {
            htm_unfriendly_instruction();
        }
        tx.write(v, tx.read(v) + 1);
        Ok(())
    });
}

/// The space's rung mix, its skips and its lock's unsupported aborts, now.
fn books(space: &Stm) -> (StmStatsSnapshot, u64, u64) {
    (
        space.stats().snapshot(),
        space.stats().spec_skips(),
        space.lock().stats().snapshot().aborts_unsupported,
    )
}

/// How far `books` moved since `before`: (commits on Spec, commits on Sw,
/// commits under locks, skips, unsupported aborts).
fn moved(space: &Stm, before: (StmStatsSnapshot, u64, u64)) -> [u64; 5] {
    let ((s, k, u), (s0, k0, u0)) = (books(space), before);
    [
        s.commits_spec - s0.commits_spec,
        s.commits_sw - s0.commits_sw,
        s.commits_locked - s0.commits_locked,
        k - k0,
        u - u0,
    ]
}

#[test]
fn a_hostile_site_probes_the_hardware_once_in_64_calls() {
    let space = Stm::new();
    let v = TxVar::new(0u64);
    (0..WARM_UP).for_each(|_| hostile(&space, &v));
    let before = books(&space);
    (0..CALLS).for_each(|_| hostile(&space, &v));
    let [spec, sw, locked, skips, unsupported] = moved(&space, before);

    assert_eq!(
        (spec, sw, locked),
        (0, CALLS, 0),
        "every call commits on Sw"
    );
    assert!(
        unsupported <= CALLS / 64 + 8,
        "{unsupported} unsupported aborts in {CALLS} warm calls"
    );
    assert_eq!(skips + unsupported, CALLS, "a call either skips or probes");
    assert_eq!(v.read_plain(), WARM_UP + CALLS);
}

#[test]
fn without_a_software_rung_every_call_tries_the_hardware() {
    let space = Stm::builder().software_backend(None).build();
    let v = TxVar::new(0u64);
    (0..WARM_UP).for_each(|_| hostile(&space, &v));
    let before = books(&space);
    (0..CALLS).for_each(|_| hostile(&space, &v));
    let [spec, sw, locked, skips, unsupported] = moved(&space, before);

    assert_eq!((spec, sw, locked), (0, 0, CALLS));
    assert_eq!(skips, 0);
    assert_eq!(unsupported, CALLS, "one hardware attempt per call");
}

#[test]
fn a_friendly_site_beside_a_hostile_one_never_skips() {
    let space = Stm::new();
    let (a, b) = (TxVar::new(0u64), TxVar::new(0u64));
    let before = books(&space);
    for _ in 0..CALLS {
        hostile(&space, &a);
        friendly(&space, &b);
    }
    let [spec, sw, locked, skips, unsupported] = moved(&space, before);

    assert_eq!(spec, CALLS, "every friendly call commits on Spec");
    assert_eq!((sw, locked), (CALLS, 0), "every hostile call commits on Sw");
    assert_eq!(skips + unsupported, CALLS, "only the hostile site skips");
    assert!(skips > CALLS / 2, "the hostile site learned: {skips} skips");
}

#[test]
fn a_site_that_turns_friendly_is_back_on_spec_within_64_calls() {
    let space = Stm::new();
    let (flag, v) = (AtomicBool::new(true), TxVar::new(0u64));
    (0..CALLS).for_each(|_| hostile_while(&space, &flag, &v));
    assert_eq!(books(&space).0.commits_spec, 0);

    flag.store(false, Ordering::Relaxed);
    let mut skipped = 0;
    loop {
        let before = books(&space);
        hostile_while(&space, &flag, &v);
        if moved(&space, before)[0] == 1 {
            break;
        }
        skipped += 1;
        assert!(
            skipped <= 64,
            "still off Spec after {skipped} friendly calls"
        );
    }
    let before = books(&space);
    (0..CALLS).for_each(|_| hostile_while(&space, &flag, &v));
    let [spec, _, _, skips, unsupported] = moved(&space, before);
    assert_eq!((spec, skips, unsupported), (CALLS, 0, 0), "back on Spec");
}

#[test]
fn a_site_hostile_once_in_8_calls_keeps_its_friendly_calls_on_spec() {
    let space = Stm::new();
    let (flag, v) = (AtomicBool::new(false), TxVar::new(0u64));
    let before = books(&space);
    for i in 0..CALLS {
        flag.store(i % 8 == 0, Ordering::Relaxed);
        hostile_while(&space, &flag, &v);
    }
    let [spec, sw, locked, _, _] = moved(&space, before);

    let friendly_calls = CALLS - CALLS.div_ceil(8);
    assert!(
        4 * spec >= 3 * friendly_calls,
        "{spec} of {friendly_calls} friendly calls committed on Spec"
    );
    assert_eq!(spec + sw + locked, CALLS);
    assert_eq!(v.read_plain(), CALLS);
}
