//! Greedy schedule shrinking.
//!
//! A raw failing schedule from a PCT run is long and mostly irrelevant —
//! aborted attempts, threads that never interact with the bug. The
//! shrinker reduces it with two deterministic passes while the failure
//! keeps reproducing (same violation *kind* under replay):
//!
//! 1. **Drop**: delete segments, halving the segment size from `len/2`
//!    down to single steps (ddmin-flavoured greedy deletion).
//! 2. **Rotate**: rotate small windows left one step, adopting a rotation
//!    only when it still fails *and* is lexicographically smaller — a
//!    canonicalization that converges and tends to cluster the
//!    bug-relevant context switches.
//!
//! Replay of a shrunk schedule skips entries whose thread is disabled and
//! completes the run deterministically (see [`crate::schedule::replay`]),
//! so any subsequence of a valid schedule is itself replayable.
//!
//! The shrinker knows nothing of machines — the `fails` callback owns
//! replay and judgment — so every [`rtle_check::model::Machine`] shares it.

/// Shrinks `schedule` while `fails(candidate)` keeps reporting the
/// original violation kind. Returns the reduced schedule (possibly
/// unchanged). Pure and deterministic.
pub fn shrink_schedule(schedule: &[u8], fails: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut cur = schedule.to_vec();
    debug_assert!(fails(&cur), "shrinker fed a non-failing schedule");

    // Pass 1: greedy segment deletion.
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut cand = cur.clone();
            cand.drain(start..end);
            if fails(&cand) {
                cur = cand; // keep position: the next segment slid into place
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }

    // Pass 2: bounded left-rotations, adopted only when lexicographically
    // smaller (guarantees termination) and still failing.
    for window in [4usize, 2] {
        let mut i = 0;
        while i + window <= cur.len() {
            let mut cand = cur.clone();
            cand[i..i + window].rotate_left(1);
            if cand < cur && fails(&cand) {
                cur = cand;
            } else {
                i += 1;
            }
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_check::model::{judge, mutant_config, State};
    use rtle_htm::prng::SplitMix64;

    use crate::schedule::{replay, run_pct};

    /// Find a failing schedule on the mutant, shrink it, and verify the
    /// shrunk schedule still fails and got no longer.
    #[test]
    fn shrunk_mutant_schedule_still_fails() {
        let cfg = mutant_config();
        let mut rng = SplitMix64::new(0x51de_0001);
        let mut checked = 0;
        let mut horizon = 12;
        for _ in 0..256 {
            let run = run_pct::<State>(&cfg, &mut rng, 3, horizon);
            horizon = (run.schedule.len() as u64).max(4);
            let Some((kind, _)) = judge(&run.state).violation else {
                continue;
            };
            let fails = |s: &[u8]| matches!(judge(&replay::<State>(&cfg, s)).violation, Some((k, _)) if k == kind);
            let shrunk = shrink_schedule(&run.schedule, fails);
            assert!(fails(&shrunk), "shrunk schedule must still fail");
            assert!(shrunk.len() <= run.schedule.len());
            checked += 1;
            if checked >= 5 {
                break;
            }
        }
        assert!(
            checked > 0,
            "no failing schedule found on the mutant in 256 runs"
        );
    }
}
