//! The standard model-checking suite: small closed configurations covering
//! every protocol variant, plus the deliberately broken lazy-subscription
//! mutant used as a regression test *for the oracle* — and the registry of
//! every machine's suite and mutants ([`explore_safe`],
//! [`explore_mutants`]) that `rtle-check model` walks.

use super::explore::{explore, Report};
use super::machine::{Op, Val};
use super::park::{park_register_mutant_config, park_release_mutant_config, park_suite, ParkState};
use super::tl2::{
    carry_wv_mutant_config, swhtm_mutant_config, tl2_mutant_config, tl2_suite, Tl2State,
};
use super::tle::{Config, Policy, Stamp, State, Subscription, ThreadSpec};

fn t(ops: Vec<Op>) -> ThreadSpec {
    ThreadSpec {
        ops,
        hostile: false,
    }
}

fn hostile(ops: Vec<Op>) -> ThreadSpec {
    ThreadSpec { ops, hostile: true }
}

/// FG-TLE over two orecs (location `l` → orec `l % 2`).
fn fg2(stamp: Stamp) -> Policy {
    Policy::FgTle { orecs: 2, stamp }
}

/// The invariant-pair workload: the hostile thread writes `x` then `y`
/// (invariant: `x == y` between critical sections) while the other thread
/// reads both. Any interleaving that observes `x=1, y=0` is the zombie.
fn invariant_pair(name: &str, policy: Policy, sub: Subscription, max_slow: u8) -> Config {
    Config {
        name: name.into(),
        policy,
        sub,
        threads: vec![
            hostile(vec![
                Op::Write(0, Val::Const(1)),
                Op::Write(1, Val::Const(1)),
            ]),
            t(vec![Op::Read(0), Op::Read(1)]),
        ],
        nloc: 2,
        max_fast_attempts: 2,
        max_slow_attempts: max_slow,
    }
}

/// Safe configurations: the checker must find **zero** violations in every
/// one of these, over every interleaving.
pub fn standard_suite() -> Vec<Config> {
    vec![
        // Two speculating incrementers racing on one counter: conflict
        // dooming, retry budgets, and the lock fallback all get exercised;
        // the oracle additionally rules out lost updates.
        Config {
            name: "tle-eager-counter".into(),
            policy: Policy::Tle,
            sub: Subscription::Eager,
            threads: vec![
                t(vec![Op::Read(0), Op::Write(0, Val::LastReadPlus(0, 1))]),
                t(vec![Op::Read(0), Op::Write(0, Val::LastReadPlus(0, 1))]),
            ],
            nloc: 1,
            max_fast_attempts: 2,
            max_slow_attempts: 0,
        },
        // Hostile writer vs. speculating reader on the invariant pair.
        invariant_pair("tle-eager-pair", Policy::Tle, Subscription::Eager, 0),
        // Same workload, lazy subscription with the safe commit-time check.
        invariant_pair("tle-lazysafe-pair", Policy::Tle, Subscription::LazySafe, 0),
        // RW-TLE: the reader may speculate while the writer holds the lock,
        // but write_flag must fence it away from torn observations — and
        // once both its slow attempts have died it queues on the lock.
        invariant_pair(
            "rwtle-reader-vs-writer",
            Policy::RwTle,
            Subscription::Eager,
            2,
        ),
        // RW-TLE with a read-only holder: the slow reader can commit
        // *while the lock is held* (the paper's §3 win).
        Config {
            name: "rwtle-reader-vs-reader".into(),
            policy: Policy::RwTle,
            sub: Subscription::Eager,
            threads: vec![
                hostile(vec![Op::Read(0)]),
                t(vec![Op::Read(0), Op::Read(1)]),
            ],
            nloc: 2,
            max_fast_attempts: 2,
            max_slow_attempts: 2,
        },
        // FG-TLE, disjoint footprints (loc 0 -> orec 0, loc 1 -> orec 1):
        // the slow writer can commit concurrently with the holder.
        Config {
            name: "fgtle-disjoint".into(),
            policy: fg2(Stamp::Held),
            sub: Subscription::Eager,
            threads: vec![
                hostile(vec![Op::Write(0, Val::Const(1))]),
                t(vec![Op::Read(1), Op::Write(1, Val::LastReadPlus(1, 1))]),
            ],
            nloc: 2,
            max_fast_attempts: 2,
            max_slow_attempts: 2,
        },
        // FG-TLE, overlapping footprints: orec checks must doom the slow
        // reader racing the invariant-pair holder.
        invariant_pair("fgtle-conflict", fg2(Stamp::Held), Subscription::Eager, 2),
        // Three threads around one location: writer plus two observers,
        // one of which copies x into y.
        Config {
            name: "tle-eager-3thread".into(),
            policy: Policy::Tle,
            sub: Subscription::Eager,
            threads: vec![
                hostile(vec![Op::Write(0, Val::Const(1))]),
                t(vec![Op::Read(0)]),
                t(vec![Op::Read(0), Op::Write(1, Val::LastReadPlus(0, 0))]),
            ],
            nloc: 2,
            max_fast_attempts: 1,
            max_slow_attempts: 0,
        },
    ]
}

/// The seeded bug: lazy subscription with no commit-time lock check. The
/// explorer must report a non-serializable history for this configuration
/// (the zombie transaction reads `x=1, y=0` mid-critical-section and
/// commits) — if it ever stops doing so, the oracle itself has regressed.
pub fn mutant_config() -> Config {
    invariant_pair(
        "tle-lazyunsafe-mutant",
        Policy::Tle,
        Subscription::LazyUnsafe,
        0,
    )
}

/// The seeded FG-TLE off-by-one ([`Stamp::PreAcquireMutant`]) on the invariant pair.
pub fn fgtle_stamp_mutant_config() -> Config {
    invariant_pair(
        "fgtle-stamp-pre-acquire-mutant",
        fg2(Stamp::PreAcquireMutant),
        Subscription::Eager,
        2,
    )
}

/// Explores every safe configuration of every machine: each report must
/// come back clean. A new machine's suite joins here.
pub fn explore_safe() -> Vec<Report> {
    let mut reports: Vec<Report> = standard_suite().iter().map(explore::<State>).collect();
    reports.extend(tl2_suite().iter().map(explore::<Tl2State>));
    reports.extend(park_suite().iter().map(explore::<ParkState>));
    reports
}

/// Explores every seeded mutant — the oracle's own regression tests: the
/// unsafe-lazy-subscription zombie, the FG-TLE pre-acquisition stamp, the
/// TL2 skipped-revalidation stale read, the swhtm extension that
/// revalidates before it raises the clock and the commit that carries its
/// `wv` must each show a `non-serializable` history; the two park mutants
/// — a release that skips the waiter count, a waiter that registers after
/// its re-check — must each lose a wakeup (`bad-terminal`). Each report
/// comes with the violation kind that catches it.
pub fn explore_mutants() -> Vec<(Report, &'static str)> {
    vec![
        (explore::<State>(&mutant_config()), "non-serializable"),
        (
            explore::<State>(&fgtle_stamp_mutant_config()),
            "non-serializable",
        ),
        (
            explore::<Tl2State>(&tl2_mutant_config()),
            "non-serializable",
        ),
        (
            explore::<Tl2State>(&swhtm_mutant_config()),
            "non-serializable",
        ),
        (
            explore::<Tl2State>(&carry_wv_mutant_config()),
            "non-serializable",
        ),
        (
            explore::<ParkState>(&park_release_mutant_config()),
            "bad-terminal",
        ),
        (
            explore::<ParkState>(&park_register_mutant_config()),
            "bad-terminal",
        ),
    ]
}
