//! Randomized PCT hunts over the TL2 small-step machine.
//!
//! The exact mirror of [`crate::schedule`] for the software-TM model in
//! [`rtle_check::model::tl2`]: PCT priority schedules drive
//! [`Tl2State`] at 4–8 threads, every terminal state is judged by
//! [`judge_tl2_terminal`] (the explorer's own oracle), and a finding is
//! shrunk with the shared [`shrink_schedule`] and carried in the same
//! [`Failure`] / [`HuntReport`] shapes — so a TL2 finding replays and
//! reports exactly like a TLE one. The `fast`/`slow`/`lock` terminal
//! counters map to read-only / writer / atomic-fallback commits, the
//! same convention [`rtle_check::model::explore_tl2`] uses.

use rtle_check::model::{judge_tl2_terminal, CommitPath, Op, Tl2Config, Tl2State, Val};
use rtle_htm::prng::SplitMix64;

use crate::pct::Pct;
use crate::schedule::{Failure, HuntReport, MAX_STEPS};
use crate::shrink::shrink_schedule;

/// One randomized TL2 run: the schedule taken and the state it ended in.
#[derive(Debug, Clone)]
pub struct Tl2RunOutcome {
    /// Thread choices in step order.
    pub schedule: Vec<u8>,
    /// The (terminal, unless `stuck`) state reached.
    pub state: Tl2State,
}

/// Runs `cfg` once under a PCT schedule drawn from `rng`.
pub fn run_pct_tl2(cfg: &Tl2Config, rng: &mut SplitMix64, depth: u32, horizon: u64) -> Tl2RunOutcome {
    let mut pct = Pct::new(rng, cfg.threads.len(), depth, horizon);
    let mut state = Tl2State::initial(cfg);
    let mut schedule = Vec::new();
    let mut step = 0u64;
    while !state.terminal() && step < MAX_STEPS {
        let enabled: Vec<usize> = (0..cfg.threads.len())
            .filter(|&t| state.enabled(cfg, t))
            .collect();
        if enabled.is_empty() {
            break; // stuck; judge_tl2_terminal reports the missing commits
        }
        let t = pct.pick(step, &enabled);
        state.step(cfg, t);
        schedule.push(t as u8);
        step += 1;
    }
    Tl2RunOutcome { schedule, state }
}

/// Deterministically replays `schedule` against a fresh initial state,
/// with the same skip-disabled / complete-deterministically contract as
/// [`crate::schedule::replay`] — any subsequence of a valid schedule is
/// itself replayable.
pub fn replay_tl2(cfg: &Tl2Config, schedule: &[u8]) -> Tl2State {
    let mut state = Tl2State::initial(cfg);
    for &t in schedule {
        let t = t as usize;
        if t < cfg.threads.len() && state.enabled(cfg, t) {
            state.step(cfg, t);
        }
    }
    let mut guard = 0u64;
    while !state.terminal() && guard < MAX_STEPS {
        match (0..cfg.threads.len()).find(|&t| state.enabled(cfg, t)) {
            Some(t) => state.step(cfg, t),
            None => break,
        }
        guard += 1;
    }
    state
}

/// Which commit paths the run's history exercised:
/// `(read_only, writer, atomic_fallback)`.
fn paths_taken(state: &Tl2State) -> (bool, bool, bool) {
    let mut ro = false;
    let mut wr = false;
    let mut at = false;
    for c in state.committed().iter().flatten() {
        match c.path {
            CommitPath::Fast => ro = true,
            CommitPath::Slow => wr = true,
            CommitPath::Lock => at = true,
        }
    }
    (ro, wr, at)
}

/// Fuzzes `cfg` for up to `max_iters` PCT runs from `seed`, stopping at
/// the first oracle violation (which is then greedily shrunk). Pure
/// function of `(cfg, seed, max_iters)`, like [`crate::schedule::hunt`].
pub fn hunt_tl2(cfg: &Tl2Config, seed: u64, max_iters: u64) -> HuntReport {
    cfg.validate();
    let mut rng = SplitMix64::new(seed);
    // Same adaptive change-point horizon as the TLE hunt: start from a
    // crude static estimate (TL2 writers take more commit steps than TLE
    // threads, hence the larger slack), then track observed length.
    let mut horizon: u64 = cfg
        .threads
        .iter()
        .map(|t| t.len() as u64 + 6)
        .sum::<u64>()
        .max(8);
    let mut report = HuntReport {
        config: cfg.name.clone(),
        iterations: 0,
        fast_terminals: 0,
        slow_terminals: 0,
        lock_terminals: 0,
        failure: None,
    };
    for it in 0..max_iters {
        report.iterations = it + 1;
        let depth = 2 + rng.below(3) as u32;
        let run = run_pct_tl2(cfg, &mut rng, depth, horizon);
        horizon = (run.schedule.len() as u64).max(4);
        let (ro, wr, at) = paths_taken(&run.state);
        report.fast_terminals += ro as u64;
        report.slow_terminals += wr as u64;
        report.lock_terminals += at as u64;
        if let Some((kind, _)) = judge_tl2_terminal(cfg, &run.state) {
            let shrunk = shrink_schedule(cfg, &run.schedule, kind, |c, s| {
                let st = replay_tl2(c, s);
                matches!(judge_tl2_terminal(c, &st), Some((k, _)) if k == kind)
            });
            let final_state = replay_tl2(cfg, &shrunk);
            let detail = judge_tl2_terminal(cfg, &final_state)
                .map(|(_, d)| d)
                .unwrap_or_else(|| "shrunk schedule no longer fails (shrinker bug)".into());
            report.failure = Some(Failure {
                config: cfg.name.clone(),
                seed,
                iteration: it,
                kind,
                detail,
                schedule: shrunk,
                original_len: run.schedule.len(),
            });
            return report;
        }
    }
    report
}

/// A random *safe* TL2 configuration at 4–8 threads: any violation the
/// oracle reports against one of these is a genuine protocol/model bug,
/// never an expected mutant. Pure function of the rng stream.
pub fn random_safe_tl2_config(rng: &mut SplitMix64, idx: u64) -> Tl2Config {
    let nthreads = rng.range_inclusive(4, 8) as usize;
    let nloc = rng.range_inclusive(2, 4) as u8;
    // Stripes from heavy aliasing (1: every location shares one
    // version-lock) to fully disjoint.
    let stripes = rng.range_inclusive(1, nloc as u64) as u8;
    let mut threads = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        let nops = rng.range_inclusive(1, 3) as usize;
        let mut ops = Vec::with_capacity(nops);
        let mut readable: Option<u8> = None;
        for _ in 0..nops {
            let loc = rng.below(nloc as u64) as u8;
            if rng.bool() {
                readable = Some(loc);
                ops.push(Op::Read(loc));
            } else {
                let val = match readable {
                    Some(l) if rng.bool() => Val::LastReadPlus(l, 1 + rng.below(3)),
                    _ => Val::Const(1 + rng.below(7)),
                };
                ops.push(Op::Write(loc, val));
            }
        }
        threads.push(ops);
    }
    Tl2Config {
        name: format!("fuzz-tl2-rand-{idx}"),
        threads,
        nloc,
        stripes,
        max_attempts: rng.range_inclusive(1, 2) as u8,
        stale_read_mutant: false,
        extension: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_check::model::{tl2_mutant_config, tl2_suite};

    #[test]
    fn recorded_schedule_replays_to_identical_state() {
        let cfg = &tl2_suite()[0];
        let mut rng = SplitMix64::new(0xdead_beef);
        for _ in 0..32 {
            let run = run_pct_tl2(cfg, &mut rng, 3, 64);
            assert!(run.state.terminal());
            let replayed = replay_tl2(cfg, &run.schedule);
            assert_eq!(replayed, run.state, "replay must be bit-identical");
        }
    }

    #[test]
    fn random_safe_tl2_configs_validate_and_terminate() {
        let mut rng = SplitMix64::new(0x0420_0002);
        for idx in 0..16 {
            let cfg = random_safe_tl2_config(&mut rng, idx);
            cfg.validate();
            assert!(cfg.threads.len() >= 4 && cfg.threads.len() <= 8);
            let run = run_pct_tl2(&cfg, &mut rng, 3, 256);
            assert!(run.state.terminal(), "{}: run did not terminate", cfg.name);
        }
    }

    #[test]
    fn hunt_tl2_is_deterministic_in_seed() {
        let cfg = tl2_mutant_config();
        let a = hunt_tl2(&cfg, 0x5eed, 128);
        let b = hunt_tl2(&cfg, 0x5eed, 128);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(
            a.failure.map(|f| f.witness()),
            b.failure.map(|f| f.witness())
        );
    }

    #[test]
    fn tl2_suite_hunts_stay_clean() {
        for cfg in tl2_suite() {
            let r = hunt_tl2(&cfg, 0x712f_0001, 48);
            assert!(
                r.clean(),
                "{}: fuzzer found a violation the explorer did not: {:?}",
                cfg.name,
                r.failure
            );
        }
    }
}
