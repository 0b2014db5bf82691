//! The harness on its own: the explorer, the judge, the PCT hunt, the
//! shrinker and replay driven by a toy [`Machine`] that has nothing to do
//! with TLE or TL2 — two threads incrementing one counter with a
//! non-atomic read-then-write. The drivers must find the lost update, so
//! they are verified independently of the protocol models they drive.

use rtle_check::model::{explore, judge, CommitPath, Committed, HOp, Machine};
use rtle_fuzz::schedule::{hunt, replay};

/// `x` and, per thread, what it has done: nothing yet, read `v`, or
/// written `v + 1` and committed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Racy {
    x: [u64; 1],
    read: [Option<u64>; 2],
    committed: Vec<Option<Committed>>,
}

impl Machine for Racy {
    type Config = ();
    const PATH_LABELS: &'static str = "racy/-/-";

    fn name(_: &()) -> &str {
        "toy-racy-counter"
    }
    fn threads(_: &()) -> usize {
        2
    }
    fn horizon_hint(_: &()) -> u64 {
        4
    }
    fn initial(_: &()) -> Self {
        Racy {
            x: [0],
            read: [None; 2],
            committed: vec![None; 2],
        }
    }
    fn enabled(&self, _: &(), t: usize) -> bool {
        self.committed[t].is_none()
    }
    fn step(&mut self, _: &(), t: usize) {
        match self.read[t] {
            None => self.read[t] = Some(self.x[0]),
            Some(v) => {
                self.x[0] = v + 1;
                let ops = vec![HOp::Read(0, v), HOp::Write(0, v + 1)];
                self.committed[t] = Some(Committed {
                    thread: t as u8,
                    path: CommitPath::Fast,
                    ops,
                });
            }
        }
    }
    fn terminal(&self) -> bool {
        self.committed.iter().all(Option::is_some)
    }
    fn invariant_violation(&self) -> Option<String> {
        None
    }
    fn data(&self) -> &[u64] {
        &self.x
    }
    fn committed(&self) -> &[Option<Committed>] {
        &self.committed
    }
}

#[test]
fn explorer_reports_the_lost_update() {
    let r = explore::<Racy>(&());
    assert_eq!(r.config, "toy-racy-counter");
    assert_eq!(r.path_labels, "racy/-/-");
    // Six interleavings of two 2-step threads reach three distinct
    // terminals: T0;T1 and T1;T0 (x = 2, serializable) and the torn one
    // (both read 0, x = 1), whatever order the two writes landed in.
    assert_eq!((r.terminals, r.fast_commit_terminals), (3, 3), "{r:?}");
    assert_eq!(r.violation_count, 1);
    assert_eq!(r.violations[0].kind, "non-serializable");
}

#[test]
fn hunt_catches_shrinks_and_replay_reproduces() {
    let report = hunt::<Racy>(&(), 0xf422, 64);
    let f = report
        .failure
        .expect("PCT must interleave the two increments within 64 runs");
    assert_eq!(f.kind, "non-serializable");
    // The minimal witness: one thread reads, then the other runs (or at
    // least reads) before the first writes. Deterministic completion
    // supplies the rest, so shrinking must get below the full 4 steps.
    assert!(
        f.schedule.len() < f.original_len,
        "not shrunk: {:?}",
        f.schedule
    );

    let state = replay::<Racy>(&(), &f.schedule);
    assert_eq!(
        state,
        replay::<Racy>(&(), &f.schedule),
        "replay is bit-identical"
    );
    assert_eq!(state.x, [1], "both increments committed, one was lost");
    let (kind, detail) = judge(&state)
        .violation
        .expect("the shrunk schedule still fails");
    assert_eq!(
        (kind, detail),
        (f.kind, f.detail.clone()),
        "same verdict as the witness"
    );

    // And the whole hunt is a pure function of its seed.
    let again = hunt::<Racy>(&(), 0xf422, 64)
        .failure
        .expect("deterministic");
    assert_eq!(again.witness(), f.witness());
}
