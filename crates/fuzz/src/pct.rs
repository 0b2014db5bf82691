//! PCT-style randomized scheduling (Burckhardt et al., *A Randomized
//! Scheduler with Probabilistic Guarantees of Finding Bugs*, ASPLOS 2010).
//!
//! Each run assigns the threads random distinct high priorities, then picks
//! `d-1` random *priority-change points* along the execution. At every
//! step the highest-priority enabled thread runs; when a change point is
//! reached, the running thread's priority drops below everyone else's.
//! For a bug of depth `d` (one needing `d` ordering constraints) over `n`
//! threads and `k` steps, a single run finds it with probability at least
//! `1/(n·k^(d-1))` — far better than naive random walks for the zombie /
//! missed-subscription interleavings this repo hunts.
//!
//! All randomness comes from the caller's [`SplitMix64`], so a run is a
//! pure function of its seed: every failure replays from one `u64`.

use rtle_htm::prng::SplitMix64;

/// One run's priority state.
#[derive(Debug, Clone)]
pub struct Pct {
    /// Per-thread priority; higher runs first. Initial values are distinct
    /// and all above any lowered value.
    prio: Vec<u64>,
    /// Sorted step indices at which the running thread's priority drops.
    change_at: Vec<u64>,
    /// Next unconsumed entry of `change_at`.
    next: usize,
    /// Next lowered priority to hand out (counts down; stays above 0).
    low: u64,
}

impl Pct {
    /// A fresh scheduler for `nthreads` threads with `depth` `d` (so
    /// `d-1` change points) over an execution of roughly `horizon` steps.
    pub fn new(rng: &mut SplitMix64, nthreads: usize, depth: u32, horizon: u64) -> Self {
        assert!(nthreads >= 1);
        let depth = depth.max(1) as u64;
        // Distinct initial priorities strictly above every lowered value
        // (lowered values live in [1, depth]), randomly permuted.
        let mut prio: Vec<u64> = (0..nthreads as u64).map(|i| depth + 1 + i).collect();
        for i in (1..nthreads).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            prio.swap(i, j);
        }
        let mut change_at: Vec<u64> = (0..depth - 1).map(|_| rng.below(horizon.max(1))).collect();
        change_at.sort_unstable();
        Pct {
            prio,
            change_at,
            next: 0,
            low: depth,
        }
    }

    /// Chooses which of the `enabled` thread indices runs at `step`, and
    /// applies any due priority-change point to it.
    pub fn pick(&mut self, step: u64, enabled: &[usize]) -> usize {
        debug_assert!(!enabled.is_empty());
        let mut best = enabled[0];
        for &t in &enabled[1..] {
            if self.prio[t] > self.prio[best] {
                best = t;
            }
        }
        while self.next < self.change_at.len() && self.change_at[self.next] <= step {
            self.low -= 1;
            self.prio[best] = self.low;
            self.next += 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let picks = |seed: u64| -> Vec<usize> {
            let mut rng = SplitMix64::new(seed);
            let mut pct = Pct::new(&mut rng, 4, 3, 100);
            (0..100).map(|s| pct.pick(s, &[0, 1, 2, 3])).collect()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different seeds, different schedule");
    }

    #[test]
    fn priorities_change_at_change_points() {
        // With all threads always enabled, the scheduled thread only ever
        // changes at a change point — at most d-1 distinct switches.
        let mut rng = SplitMix64::new(42);
        let mut pct = Pct::new(&mut rng, 6, 4, 200);
        let picks: Vec<usize> = (0..200).map(|s| pct.pick(s, &[0, 1, 2, 3, 4, 5])).collect();
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches <= 3,
            "depth 4 allows at most 3 switches, saw {switches}"
        );
    }

    #[test]
    fn restricted_enabled_set_respected() {
        let mut rng = SplitMix64::new(3);
        let mut pct = Pct::new(&mut rng, 8, 2, 50);
        for s in 0..50 {
            let t = pct.pick(s, &[2, 5]);
            assert!(t == 2 || t == 5);
        }
    }
}
