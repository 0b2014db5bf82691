//! Random *safe* configurations of each machine for the sweep: 4–8
//! threads, bigger footprints than the exhaustive explorer can afford.

use rtle_check::model::{
    Config, Extension, Op, Policy, Stamp, Subscription, ThreadSpec, Tl2Config, Val,
};
use rtle_htm::prng::SplitMix64;

/// One thread body of 1–3 reads and writes over `nloc` locations; a
/// `LastReadPlus` write always follows a read of its location.
fn random_ops(rng: &mut SplitMix64, nloc: u8) -> Vec<Op> {
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
    ops
}

/// A random *safe* configuration at 4–8 threads: any violation the oracle
/// reports against one of these is a genuine protocol/model bug, never an
/// expected mutant. Pure function of the rng stream.
pub fn random_safe_config(rng: &mut SplitMix64, idx: u64) -> Config {
    let nthreads = rng.range_inclusive(4, 8) as usize;
    let nloc = rng.range_inclusive(2, 4) as u8;
    let policy = match rng.below(3) {
        0 => Policy::Tle,
        1 => Policy::RwTle,
        _ => Policy::FgTle {
            orecs: rng.range_inclusive(1, 3) as u8,
            stamp: Stamp::Held,
        },
    };
    let sub = if rng.bool() {
        Subscription::Eager
    } else {
        Subscription::LazySafe
    };
    let mut threads = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        let hostile = rng.below(4) == 0;
        let ops = random_ops(rng, nloc);
        threads.push(ThreadSpec { ops, hostile });
    }
    let has_slow = !matches!(policy, Policy::Tle);
    Config {
        name: format!("fuzz-rand-{idx}"),
        policy,
        sub,
        threads,
        nloc,
        max_fast_attempts: rng.range_inclusive(1, 2) as u8,
        max_slow_attempts: if has_slow {
            rng.range_inclusive(1, 2) as u8
        } else {
            0
        },
    }
}

/// A random *safe* TL2 configuration at 4–8 threads: any violation the
/// oracle reports against one of these is a genuine protocol/model bug,
/// never an expected mutant — the runtime's protocol (cached read-version,
/// sample-first snapshot extension) hunted at 4–8 threads, not only
/// explored at 2–3. Pure function of the rng stream.
pub fn random_safe_tl2_config(rng: &mut SplitMix64, idx: u64) -> Tl2Config {
    let nthreads = rng.range_inclusive(4, 8) as usize;
    let nloc = rng.range_inclusive(2, 4) as u8;
    // Stripes from heavy aliasing (1: every location shares one
    // version-lock) to fully disjoint.
    let stripes = rng.range_inclusive(1, nloc as u64) as u8;
    let mut threads = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        threads.push(vec![random_ops(rng, nloc)]);
    }
    Tl2Config {
        name: format!("fuzz-swhtm-rand-{idx}"),
        threads,
        nloc,
        stripes,
        max_attempts: rng.range_inclusive(1, 2) as u8,
        stale_read_mutant: false,
        carry_wv_mutant: false,
        extension: Extension::SampleFirst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::run_pct;
    use rtle_check::model::{Machine, State, Tl2State};

    #[test]
    fn random_safe_configs_validate_and_terminate() {
        let mut rng = SplitMix64::new(0x0420_0001);
        for idx in 0..16 {
            let cfg = random_safe_config(&mut rng, idx);
            assert!(cfg.threads.len() >= 4 && cfg.threads.len() <= 8);
            let run = run_pct::<State>(&cfg, &mut rng, 3, 256);
            assert!(run.state.terminal(), "{}: run did not terminate", cfg.name);
        }
    }

    #[test]
    fn random_safe_tl2_configs_validate_and_terminate() {
        let mut rng = SplitMix64::new(0x0420_0002);
        for idx in 0..16 {
            let cfg = random_safe_tl2_config(&mut rng, idx);
            assert!(cfg.threads.len() >= 4 && cfg.threads.len() <= 8);
            let run = run_pct::<Tl2State>(&cfg, &mut rng, 3, 256);
            assert!(run.state.terminal(), "{}: run did not terminate", cfg.name);
        }
    }
}
