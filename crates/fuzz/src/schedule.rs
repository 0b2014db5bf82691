//! Driving the `rtle-check` protocol machines under randomized schedules.
//!
//! Where `rtle-check`'s exhaustive DFS proves small configurations correct
//! over *every* interleaving (2–3 threads, tiny footprints), this module
//! samples *long, asymmetric* interleavings the DFS cannot reach: 4–8
//! threads, bigger programs, PCT priority schedules. Every driver here is
//! generic over [`Machine`], so each exists once for every protocol model,
//! and every terminal state is judged by the same
//! [`rtle_check::model::judge`] oracle the explorer uses: a fuzzer finding
//! and an explorer finding speak the same language — and every finding
//! carries the schedule that produced it, replayable and shrinkable.

use rtle_check::model::{judge, Machine};
use rtle_htm::prng::SplitMix64;

use crate::pct::Pct;
use crate::shrink::shrink_schedule;

/// Hard cap on steps per run; a run exceeding it is reported as `stuck`
/// (the machines' bounded retry budgets make this unreachable unless the
/// model itself regresses).
pub const MAX_STEPS: u64 = 1_000_000;

/// One randomized run: the schedule taken and the state it ended in.
#[derive(Debug, Clone)]
pub struct RunOutcome<M> {
    /// Thread choices in step order.
    pub schedule: Vec<u8>,
    /// The (terminal, unless `stuck`) state reached.
    pub state: M,
}

/// Runs `cfg` once under a PCT schedule drawn from `rng`.
pub fn run_pct<M: Machine>(
    cfg: &M::Config,
    rng: &mut SplitMix64,
    depth: u32,
    horizon: u64,
) -> RunOutcome<M> {
    let mut pct = Pct::new(rng, M::threads(cfg), depth, horizon);
    let mut state = M::initial(cfg);
    let mut schedule = Vec::new();
    let mut step = 0u64;
    while !state.terminal() && step < MAX_STEPS {
        let enabled = state.enabled_threads(cfg);
        if enabled.is_empty() {
            break; // stuck; judge reports the missing commits
        }
        let t = pct.pick(step, &enabled);
        state.step(cfg, t);
        schedule.push(t as u8);
        step += 1;
    }
    RunOutcome { schedule, state }
}

/// Deterministically replays `schedule` against a fresh initial state.
///
/// Entries naming a disabled (or out-of-range) thread are skipped — that
/// is what makes *shrunk* schedules, whose entries were recorded in a
/// different context, replayable. After the schedule is exhausted the run
/// is completed deterministically (lowest-id enabled thread first), so a
/// replay always reaches a terminal state.
pub fn replay<M: Machine>(cfg: &M::Config, schedule: &[u8]) -> M {
    let mut state = M::initial(cfg);
    for &t in schedule {
        let t = t as usize;
        if t < M::threads(cfg) && state.enabled(cfg, t) {
            state.step(cfg, t);
        }
    }
    let mut guard = 0u64;
    while !state.terminal() && guard < MAX_STEPS {
        match (0..M::threads(cfg)).find(|&t| state.enabled(cfg, t)) {
            Some(t) => state.step(cfg, t),
            None => break,
        }
        guard += 1;
    }
    state
}

/// One fuzzer finding: the configuration, the seed and iteration that
/// produced it, the (shrunk) schedule, and the oracle's complaint.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Configuration name.
    pub config: String,
    /// The hunt seed (replays the whole hunt).
    pub seed: u64,
    /// Iteration within the hunt at which the failure surfaced.
    pub iteration: u64,
    /// Violation class from the oracle (`non-serializable`, `bad-terminal`).
    pub kind: &'static str,
    /// Human-readable oracle detail, recomputed on the shrunk schedule.
    pub detail: String,
    /// Shrunk schedule (replayable via [`replay`]).
    pub schedule: Vec<u8>,
    /// Schedule length before shrinking, for shrink-quality reporting.
    pub original_len: usize,
}

impl Failure {
    /// The canonical witness block. Byte-for-byte identical for the same
    /// (config, seed, budget) — the contract `fuzz replay <seed>` and the
    /// seed-replay determinism test rely on.
    pub fn witness(&self) -> String {
        format!(
            "config: {}\nseed: {:#x}\niteration: {}\nkind: {}\nschedule ({} steps, shrunk from {}): {:?}\ndetail: {}",
            self.config,
            self.seed,
            self.iteration,
            self.kind,
            self.schedule.len(),
            self.original_len,
            self.schedule,
            self.detail,
        )
    }
}

/// Aggregate result of fuzzing one configuration.
#[derive(Debug, Clone)]
pub struct HuntReport {
    /// Configuration name.
    pub config: String,
    /// The machine's names for the three commit paths
    /// ([`Machine::PATH_LABELS`]).
    pub path_labels: &'static str,
    /// Iterations actually run (stops early on the first failure).
    pub iterations: u64,
    /// Runs whose history contained a fast-path commit.
    pub fast_terminals: u64,
    /// Runs whose history contained a slow-path commit.
    pub slow_terminals: u64,
    /// Runs whose history contained an under-lock commit.
    pub lock_terminals: u64,
    /// The first failure found, shrunk, if any.
    pub failure: Option<Failure>,
}

impl HuntReport {
    /// True iff no violation was found.
    pub fn clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Fuzzes `cfg` for up to `max_iters` PCT runs from `seed`, stopping at
/// the first oracle violation (which is then greedily shrunk). Pure
/// function of `(cfg, seed, max_iters)`.
pub fn hunt<M: Machine>(cfg: &M::Config, seed: u64, max_iters: u64) -> HuntReport {
    let mut rng = SplitMix64::new(seed);
    // Change-point horizon. PCT's guarantee is 1/(n·k^(d-1)) with `k` the
    // *actual* execution length — overshooting k wastes change points past
    // the end of the run, collapsing the catch rate quadratically for
    // depth-3 bugs. Start with the machine's crude static estimate, then
    // track the observed schedule length run over run (still a pure
    // function of the seed).
    let mut horizon = M::horizon_hint(cfg).max(8);
    let mut report = HuntReport {
        config: M::name(cfg).to_string(),
        path_labels: M::PATH_LABELS,
        iterations: 0,
        fast_terminals: 0,
        slow_terminals: 0,
        lock_terminals: 0,
        failure: None,
    };
    for it in 0..max_iters {
        report.iterations = it + 1;
        // Depth 2–4: most protocol bugs (zombie reads, missed
        // subscriptions) need one or two forced preemptions.
        let depth = 2 + rng.below(3) as u32;
        let run = run_pct::<M>(cfg, &mut rng, depth, horizon);
        horizon = (run.schedule.len() as u64).max(4);
        let verdict = judge(&run.state);
        report.fast_terminals += verdict.fast as u64;
        report.slow_terminals += verdict.slow as u64;
        report.lock_terminals += verdict.lock as u64;
        if let Some((kind, _)) = verdict.violation {
            let still_fails = |s: &[u8]| matches!(judge(&replay::<M>(cfg, s)).violation, Some((k, _)) if k == kind);
            let shrunk = shrink_schedule(&run.schedule, still_fails);
            let detail = judge(&replay::<M>(cfg, &shrunk))
                .violation
                .map(|(_, d)| d)
                .unwrap_or_else(|| "shrunk schedule no longer fails (shrinker bug)".into());
            report.failure = Some(Failure {
                config: report.config.clone(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_check::model::{mutant_config, standard_suite, tl2_mutant_config, tl2_suite};
    use rtle_check::model::{State, Tl2State};

    fn replays_bit_identically<M: Machine + std::fmt::Debug>(cfg: &M::Config) {
        let mut rng = SplitMix64::new(0xdead_beef);
        for _ in 0..32 {
            let run = run_pct::<M>(cfg, &mut rng, 3, 64);
            assert!(run.state.terminal());
            assert_eq!(replay::<M>(cfg, &run.schedule), run.state);
        }
    }

    #[test]
    fn recorded_schedule_replays_to_identical_state() {
        replays_bit_identically::<State>(&standard_suite()[0]);
        replays_bit_identically::<Tl2State>(&tl2_suite()[0]);
    }

    fn hunts_deterministically<M: Machine>(cfg: &M::Config) {
        let a = hunt::<M>(cfg, 0x5eed, 128);
        let b = hunt::<M>(cfg, 0x5eed, 128);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(
            a.failure.map(|f| f.witness()),
            b.failure.map(|f| f.witness())
        );
    }

    #[test]
    fn hunt_is_deterministic_in_seed() {
        hunts_deterministically::<State>(&mutant_config());
        hunts_deterministically::<Tl2State>(&tl2_mutant_config());
    }

    #[test]
    fn tl2_suite_hunts_stay_clean() {
        for cfg in tl2_suite() {
            let r = hunt::<Tl2State>(&cfg, 0x712f_0001, 48);
            assert!(
                r.clean(),
                "{}: fuzzer found a violation the explorer did not: {:?}",
                cfg.name,
                r.failure
            );
        }
    }
}
