//! Characterisation of what the engine builds for one attempt: the exact
//! watch list (line, from, write — in order), the commit write set, the
//! end event and the forced cause, per path, for one fixed operation.
//!
//! The simulator is deterministic and its figures are judged byte for
//! byte, so the order of watches (it decides which orec slot a conflict
//! names), the times they start at and whether the xorshift generator was
//! stepped are all behaviour. These tests drive the engine through
//! `on_ready` only and read the attempt it left pending.
//!
//! The whole file is test code (`engine.rs` declares it under
//! `#[cfg(test)]`); the attribute is repeated on the first item so that a
//! line count cutting each file at its unindented `#[cfg(test)]` sees that.

#[cfg(test)]
use super::*;
use crate::workload::Access;

/// Every op is the same spec.
struct Fixed(OpSpec);

impl Workload for Fixed {
    fn next_op(&mut self, _thread: usize) -> OpSpec {
        self.0.clone()
    }
    fn next_op_again(&mut self, _thread: usize) -> OpSpec {
        self.0.clone()
    }
    fn commit(&mut self, _thread: usize) {}
}

/// Workload lines 10, 11, 12 with the given store flags; 40 cycles of
/// setup, 25 of compute inside the section.
fn spec(writes: [bool; 3]) -> OpSpec {
    OpSpec {
        trace: (0..3)
            .map(|i| Access {
                line: 10 + i as u64,
                write: writes[i],
            })
            .collect(),
        setup_cycles: 40,
        cs_compute: 25,
        ..Default::default()
    }
}

/// Read, write, read.
fn rwr() -> OpSpec {
    spec([false, true, false])
}

const NOW: u64 = 1_000;
/// `NOW` + the spec's setup cycles.
const START: u64 = 1_040;
const CS_START: u64 = 900;
const FREE_AT: u64 = 5_000;

fn engine_with(method: SimMethod, cost: CostModel, spec: OpSpec) -> Engine<Fixed> {
    let mut e = Engine::new(method, 1, cost, RunMode::FixedWork, Fixed(spec));
    e.now = NOW;
    e
}

fn engine(method: SimMethod, spec: OpSpec) -> Engine<Fixed> {
    engine_with(method, CostModel::default(), spec)
}

/// A holder whose section covers `START` and releases at `FREE_AT`.
fn hold(e: &mut Engine<Fixed>, first_write: Option<u64>) {
    e.locks[0].free_at = FREE_AT;
    e.locks[0].cs.push_back(CsRecord {
        start: CS_START,
        end: FREE_AT - 25,
        first_write,
    });
}

fn watches(e: &Engine<Fixed>) -> Vec<(u64, u64, bool)> {
    e.ts[0]
        .pending
        .as_ref()
        .expect("an attempt is in flight")
        .watches
        .iter()
        .map(|w| (w.line, w.from, w.write))
        .collect()
}

fn pending(e: &Engine<Fixed>) -> &Attempt {
    e.ts[0].pending.as_ref().expect("an attempt is in flight")
}

/// The one event `on_ready` scheduled.
fn only_event(e: &Engine<Fixed>) -> (u64, EvKind) {
    assert_eq!(e.events.len(), 1, "exactly one event scheduled");
    let Reverse((time, _, kind)) = *e.events.peek().unwrap();
    (time, kind)
}

#[test]
fn fast_attempt() {
    let mut e = engine(SimMethod::Tle, rwr());
    e.on_ready(0);
    let d = |l| e.data_line(l);
    assert_eq!(
        watches(&e),
        vec![
            (e.lock_line(0), START, false),
            (d(10), 1_085, false),
            (d(11), 1_089, true),
            (d(12), 1_093, false),
        ]
    );
    let a = pending(&e);
    assert_eq!(a.path, PathKind::FastHtm);
    assert_eq!(a.t0, START);
    assert_eq!(a.commit_writes, vec![d(11)]);
    assert_eq!(a.forced, None);
    assert!(!a.rh_hw && !a.lazy_lock);
    assert_eq!(only_event(&e), (1_152, EvKind::AttemptEnd(0)));
}

#[test]
fn fast_attempt_lazy_subscription() {
    let mut e = engine(SimMethod::Tle, rwr()).with_lazy_subscription(true);
    e.on_ready(0);
    // The lock joins the read set only for the commit's duration.
    assert_eq!(watches(&e)[0], (e.lock_line(0), 1_122, false));
    assert_eq!(watches(&e)[1], (e.data_line(10), 1_085, false));
    assert!(pending(&e).lazy_lock);
    assert_eq!(only_event(&e), (1_152, EvKind::AttemptEnd(0)));
}

#[test]
fn rw_slow_read_only_attempt() {
    let mut e = engine(SimMethod::RwTle, spec([false; 3]));
    hold(&mut e, None);
    e.on_ready(0);
    let d = |l| e.data_line(l);
    assert_eq!(
        watches(&e),
        vec![
            (e.flag_line(), CS_START, false),
            (e.lock_line(0), START, false),
            (d(10), 1_089, false),
            (d(11), 1_093, false),
            (d(12), 1_097, false),
        ]
    );
    let a = pending(&e);
    assert_eq!(a.path, PathKind::SlowHtm);
    assert_eq!(a.t0, START);
    assert!(a.commit_writes.is_empty());
    assert_eq!(a.forced, None);
    assert!(!a.rh_hw && !a.lazy_lock);
    assert_eq!(only_event(&e), (1_156, EvKind::AttemptEnd(0)));
}

/// The watches of an FG-TLE slow attempt under a covering section:
/// every access watches its data line from when it touches it and its
/// write orec from the section's start; a store also watches its read
/// orec.
fn fg_slow_watches(e: &Engine<Fixed>) -> Vec<(u64, u64, bool)> {
    let d = |l| e.data_line(l);
    vec![
        (d(10), 1_085, false),
        (e.w_orec_line(10), CS_START, false),
        (d(11), 1_103, true),
        (e.w_orec_line(11), CS_START, false),
        (e.r_orec_line(11), CS_START, false),
        (d(12), 1_121, false),
        (e.w_orec_line(12), CS_START, false),
    ]
}

#[test]
fn fg_slow_attempt_under_a_covering_section() {
    let mut e = engine(SimMethod::FgTle { orecs: 4 }, rwr());
    hold(&mut e, None);
    e.on_ready(0);
    assert_eq!(watches(&e), fg_slow_watches(&e));
    let a = pending(&e);
    assert_eq!(a.path, PathKind::SlowHtm);
    assert_eq!(a.t0, START);
    assert_eq!(a.commit_writes, vec![e.data_line(11)]);
    assert_eq!(a.forced, None);
    assert!(!a.rh_hw && !a.lazy_lock);
    assert_eq!(only_event(&e), (1_194, EvKind::AttemptEnd(0)));
}

#[test]
fn adaptive_fg_slow_attempt_subscribes_to_the_active_size_first() {
    let method = SimMethod::AdaptiveFgTle {
        initial: 4,
        max_orecs: 8,
    };
    let mut e = engine(method, rwr());
    hold(&mut e, None);
    e.on_ready(0);
    let mut expected = vec![(e.active_size_line(), START, false)];
    expected.extend(fg_slow_watches(&e));
    assert_eq!(watches(&e), expected);
    assert_eq!(only_event(&e), (1_194, EvKind::AttemptEnd(0)));
}

#[test]
fn rh_hardware_attempt_with_software_running() {
    let mut e = engine(SimMethod::RhNorec, rwr());
    e.sw_running = 1;
    e.on_ready(0);
    let d = |l| e.data_line(l);
    assert_eq!(
        watches(&e),
        vec![
            (e.sw_count_line(), 1_122, false),
            (e.clock_line(), 1_122, true),
            (d(10), 1_085, false),
            (d(11), 1_089, true),
            (d(12), 1_093, false),
        ]
    );
    let a = pending(&e);
    assert_eq!(a.path, PathKind::FastHtm);
    assert_eq!(a.t0, START);
    assert_eq!(a.commit_writes, vec![d(11)]);
    assert_eq!(a.forced, None);
    assert!(a.rh_hw && !a.lazy_lock);
    assert_eq!(only_event(&e), (1_152, EvKind::AttemptEnd(0)));
}

#[test]
fn rh_hardware_attempt_alone_leaves_the_clock_out() {
    let mut e = engine(SimMethod::RhNorec, rwr()).with_lazy_subscription(true);
    e.on_ready(0);
    assert_eq!(watches(&e).len(), 4);
    assert_eq!(watches(&e)[0], (e.sw_count_line(), 1_122, false));
    assert_eq!(watches(&e)[1], (e.data_line(10), 1_085, false));
    assert!(
        !pending(&e).lazy_lock,
        "RHNOrec has no lock to subscribe to"
    );
}

#[test]
fn software_attempt() {
    let mut e = engine(SimMethod::Norec, rwr()).with_spurious_aborts(0.999);
    let rng = e.rng;
    e.on_ready(0);
    let d = |l| e.data_line(l);
    assert_eq!(
        watches(&e),
        vec![
            (d(10), START, false),
            (d(11), 1_052, true),
            (d(12), 1_064, false),
        ]
    );
    let a = pending(&e);
    assert_eq!(a.path, PathKind::Stm);
    assert_eq!(a.t0, START);
    assert_eq!(a.commit_writes, vec![d(11)]);
    assert_eq!(a.forced, None);
    assert!(!a.rh_hw && !a.lazy_lock);
    assert_eq!(only_event(&e), (1_101, EvKind::SwAttemptEnd(0)));
    assert_eq!(e.rng, rng, "software attempts never draw");
    assert!(e.watchers.is_empty(), "and stay out of the eager index");
}

/// Which attempts step the generator, and what a forced abort is called.
#[test]
fn forced_cause_and_the_generator() {
    let tight = |read_capacity| CostModel {
        htm_read_capacity: read_capacity,
        ..CostModel::default()
    };
    // (method, lock held, read capacity, expected cause, generator stepped)
    let fg = SimMethod::FgTle { orecs: 4 };
    let cases = [
        // Inside capacity: the draw happens, and at 0.999 it hits.
        (SimMethod::Tle, false, 4_096, AbortCode::Spurious, true),
        (SimMethod::RhNorec, false, 4_096, AbortCode::Spurious, true),
        (fg, true, 4_096, AbortCode::Spurious, true),
        // Over capacity (3 distinct lines): no draw.
        (SimMethod::Tle, false, 2, AbortCode::Capacity, false),
        (SimMethod::RhNorec, false, 2, AbortCode::Capacity, false),
        // The slow path's orec reads double the footprint: 6 > 5 ≥ 3.
        (SimMethod::Tle, false, 5, AbortCode::Spurious, true),
        (fg, true, 5, AbortCode::Capacity, false),
    ];
    for (method, held, capacity, cause, stepped) in cases {
        let mut e = engine_with(method, tight(capacity), rwr()).with_spurious_aborts(0.999);
        if held {
            hold(&mut e, None);
        }
        let rng = e.rng;
        e.on_ready(0);
        let a = pending(&e);
        let what = format!("{method:?} with read capacity {capacity}");
        assert_eq!(a.forced, Some(cause), "{what}");
        assert_eq!(e.rng != rng, stepped, "{what}");
    }
    // RW-TLE's read-only slow path has no capacity test and always draws.
    let mut e =
        engine_with(SimMethod::RwTle, tight(2), spec([false; 3])).with_spurious_aborts(0.999);
    hold(&mut e, None);
    let rng = e.rng;
    e.on_ready(0);
    assert_eq!(pending(&e).forced, Some(AbortCode::Spurious));
    assert_ne!(e.rng, rng);
}

/// The aborts decided before an attempt is built: one abort booked in one
/// class, no attempt left pending, no draw, and the thread woken at the
/// release (or after the abort penalty, whichever is later).
#[test]
fn pre_decided_aborts_and_their_wake_times() {
    let hostile = || OpSpec {
        htm_hostile: true,
        ..rwr()
    };
    let fg = SimMethod::FgTle { orecs: 4 };
    struct Case {
        name: &'static str,
        method: SimMethod,
        spec: OpSpec,
        /// `Some(first_write)` holds the lock over `START`.
        held: Option<Option<u64>>,
        owned_orec: bool,
        /// (hostile, eager_owned) class counts.
        class: (u64, u64),
        wake: u64,
        waits: bool,
    }
    let cases = [
        Case {
            name: "fast, hostile",
            method: SimMethod::Tle,
            spec: hostile(),
            held: None,
            owned_orec: false,
            class: (1, 0),
            wake: START + 45 + 4 + 160,
            waits: false,
        },
        Case {
            name: "rw slow, hostile",
            method: SimMethod::RwTle,
            spec: hostile(),
            held: Some(None),
            owned_orec: false,
            class: (1, 0),
            wake: FREE_AT,
            waits: true,
        },
        Case {
            name: "rw slow, flag raised",
            method: SimMethod::RwTle,
            spec: spec([false; 3]),
            held: Some(Some(950)),
            owned_orec: false,
            class: (0, 1),
            wake: FREE_AT,
            waits: true,
        },
        Case {
            name: "rw slow, own write",
            method: SimMethod::RwTle,
            spec: rwr(),
            held: Some(None),
            owned_orec: false,
            class: (0, 1),
            wake: FREE_AT,
            waits: true,
        },
        Case {
            name: "fg slow, hostile",
            method: fg,
            spec: hostile(),
            held: Some(None),
            owned_orec: false,
            class: (1, 0),
            wake: FREE_AT,
            waits: true,
        },
        Case {
            name: "fg slow, owned orec",
            method: fg,
            spec: rwr(),
            held: Some(None),
            owned_orec: true,
            class: (0, 1),
            wake: FREE_AT,
            waits: true,
        },
    ];
    for c in cases {
        let mut e = engine(c.method, c.spec).with_spurious_aborts(0.999);
        if let Some(first_write) = c.held {
            hold(&mut e, first_write);
        }
        if c.owned_orec {
            let line = e.w_orec_line(10);
            e.last_write.insert(line, CS_START + 50);
        }
        let rng = e.rng;
        e.on_ready(0);
        assert!(e.ts[0].pending.is_none(), "{}", c.name);
        assert_eq!(e.stats.aborts(), 1, "{}", c.name);
        assert_eq!(
            (e.stats.aborts_hostile, e.stats.aborts_eager_owned),
            c.class,
            "{}",
            c.name
        );
        assert_eq!(
            e.stats.orec_heatmap.total_conflicts(),
            c.owned_orec as u64,
            "{}",
            c.name
        );
        assert_eq!(only_event(&e), (c.wake, EvKind::Ready(0)), "{}", c.name);
        assert_eq!(e.locks[0].waiters, c.waits as u32, "{}", c.name);
        assert_eq!(e.rng, rng, "{}: no draw", c.name);
    }

    // A release that comes before the abort has been paid for does not
    // wake the thread early. RW-TLE's own-write abort is charged at the
    // store (the second access), the others at the attempt's start.
    let mut e = engine(SimMethod::RwTle, rwr());
    hold(&mut e, None);
    e.locks[0].free_at = 1_100;
    e.on_ready(0);
    assert_eq!(only_event(&e), (START + 45 + 2 * 4 + 160, EvKind::Ready(0)));
    let mut e = engine(fg, hostile());
    hold(&mut e, None);
    e.locks[0].free_at = 1_100;
    e.on_ready(0);
    assert_eq!(only_event(&e), (START + 160, EvKind::Ready(0)));

    // Plain TLE books nothing: it waits, and re-decides one cycle after
    // the release.
    let mut e = engine(SimMethod::Tle, rwr());
    hold(&mut e, None);
    e.on_ready(0);
    assert_eq!(e.stats.aborts(), 0);
    assert_eq!(only_event(&e), (FREE_AT + 1, EvKind::Ready(0)));
    assert_eq!(e.locks[0].waiters, 1);
}
