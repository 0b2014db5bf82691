//! The runtime chaos layer: hammer the *real* `ElidableLock` + `AvlSet`
//! stack under injected HTM misery, against a differential oracle.
//!
//! Where the schedule fuzzer drives the small-step *model*, this module
//! attacks the actual runtime: worker threads run seeded op streams over a
//! shared AVL set while the emulated HTM injects bursts of spurious /
//! conflict / capacity aborts (the `rtle-htm` config hooks) and a
//! dedicated *staller* thread repeatedly forces the pessimistic path and
//! sits on the lock — the regime where zombie reads and missed
//! subscriptions would turn into wrong answers.
//!
//! **Oracle.** Each worker owns a disjoint key partition of the shared
//! tree. Set membership of a key is changed only by the key's owner, so
//! every worker's `(op, result)` stream must match a sequential
//! `BTreeSet` replay of its own partition exactly, op by op — even though
//! the tree structure (rotations, root) is fully shared and contended.
//! At the end, the tree's key set must equal the union of the partition
//! models, and the AVL structural invariants must hold.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtle_avltree::AvlSet;
use rtle_core::{ElidableLock, ElisionPolicy, RetryPolicy};
use rtle_htm::prng::SplitMix64;
use rtle_htm::HtmConfig;
use rtle_hytm::{Norec, SoftwareTm, Tl2};

use crate::ops;

/// Which software-TM backend (if any) the plan installs as the lock's
/// concurrent fallback tier. With a backend installed, exhausted
/// speculation runs as a software transaction instead of serializing
/// behind the lock — so the chaos oracle then exercises the STM commit
/// protocol (and its coexistence with raw HTM commits) instead of the
/// pessimistic path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosBackend {
    /// Value-validating NOrec.
    Norec,
    /// Per-stripe versioned write-locks (TL2).
    Tl2,
}

/// One chaos campaign description.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Worker threads (each owns `keys_per_worker` keys).
    pub workers: usize,
    /// Size of each worker's private key partition.
    pub keys_per_worker: u64,
    /// Ops per worker.
    pub ops_per_worker: u64,
    /// Lock policy under test.
    pub policy: ElisionPolicy,
    /// HTM configuration installed for the run (abort-injection storm).
    pub htm: HtmConfig,
    /// Run a dedicated staller thread that repeatedly forces the
    /// pessimistic path (`htm_unfriendly_instruction`) and lingers in the
    /// critical section, creating long lock-held windows for the slow
    /// path to speculate through.
    pub staller: bool,
    /// Spin iterations the staller burns inside each critical section.
    pub stall_spins: u32,
    /// Software-TM fallback installed on the lock (`None` = classic
    /// HTM-or-lock elision).
    pub software: Option<ChaosBackend>,
    /// Fast-path HTM attempts before falling back (STM tier or lock).
    /// The injected abort streams are *periodic* (every Nth transaction),
    /// so `k` consecutive aborts need `k` consecutive integers covered by
    /// the periods — impossible for the default budget of 5 under the
    /// 3/7/11 storm. Software-backed plans lower this so worker
    /// *mutations* (not just staller probes) actually reach the STM tier.
    pub max_attempts: u32,
}

impl ChaosPlan {
    /// The tier-1 quick profile: small but still multi-path.
    pub fn quick(seeded_storm: bool) -> Self {
        ChaosPlan {
            workers: 4,
            keys_per_worker: 48,
            ops_per_worker: 1_500,
            policy: ElisionPolicy::FgTle { orecs: 512 },
            htm: if seeded_storm {
                HtmConfig {
                    spurious_one_in: 3,
                    conflict_one_in: 7,
                    capacity_one_in: 11,
                    ..HtmConfig::default()
                }
            } else {
                HtmConfig::default()
            },
            staller: true,
            stall_spins: 3_000,
            software: None,
            max_attempts: 5,
        }
    }

    /// The tier-1 quick profile with the TL2 software tier installed:
    /// the same seeded storm, but exhausted speculation commits through
    /// TL2's stripe locks while fresh attempts still commit in raw HTM —
    /// the hybrid regime the `SoftwareTm` glue must keep coherent. The
    /// staller becomes a long *software* transaction instead of a lock
    /// hold, so expect `stm_commits` instead of `lock_acquisitions`.
    pub fn quick_tl2(seeded_storm: bool) -> Self {
        ChaosPlan {
            software: Some(ChaosBackend::Tl2),
            // Two attempts: adjacent injected-abort pairs exist under the
            // 3/7/11 periods, so a steady fraction of worker mutations
            // exhausts speculation and commits through TL2.
            max_attempts: 2,
            ..ChaosPlan::quick(seeded_storm)
        }
    }

    /// The 8-thread spurious-abort storm regression profile (p = 0.5):
    /// 7 workers + 1 staller, every other hardware attempt dies at birth.
    pub fn storm8() -> Self {
        ChaosPlan {
            workers: 7,
            keys_per_worker: 64,
            ops_per_worker: 8_000,
            policy: ElisionPolicy::FgTle { orecs: 512 },
            htm: HtmConfig {
                spurious_one_in: 2,
                ..HtmConfig::default()
            },
            staller: true,
            // Long lock-held windows: slow-path commits need time to thread
            // through the holder's read-orec stamps and the writer storm.
            stall_spins: 200_000,
            software: None,
            max_attempts: 5,
        }
    }

    /// The 8-thread storm with the TL2 software tier: the full-campaign
    /// counterpart of [`ChaosPlan::quick_tl2`].
    pub fn storm8_tl2() -> Self {
        ChaosPlan {
            software: Some(ChaosBackend::Tl2),
            max_attempts: 2,
            ..ChaosPlan::storm8()
        }
    }
}

/// Outcome of a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Oracle divergences (empty on a clean run). Each entry pins the
    /// worker, op index, operation, and expected/observed results.
    pub divergences: Vec<String>,
    /// Whether the final tree keys equal the union of partition models
    /// and the AVL invariants held.
    pub final_state_ok: bool,
    /// Total completed operations (workers + staller).
    pub ops: u64,
    /// Fast-path (uninstrumented HTM) commits.
    pub fast_commits: u64,
    /// Slow-path (instrumented, lock-held) commits.
    pub slow_commits: u64,
    /// Pessimistic lock acquisitions.
    pub lock_acquisitions: u64,
    /// Software-TM commits (zero unless the plan installs a backend).
    pub stm_commits: u64,
    /// Total hardware aborts observed (fast + slow).
    pub aborts: u64,
}

impl ChaosReport {
    /// True iff the differential oracle saw no divergence at all.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty() && self.final_state_ok
    }

    /// True iff the run exercised all three commit paths — the assertion
    /// that the fallback machinery actually ran, not just the fast path.
    pub fn all_paths_exercised(&self) -> bool {
        self.fast_commits > 0 && self.slow_commits > 0 && self.lock_acquisitions > 0
    }

    /// True iff the run exercised the hybrid regime a software-backed
    /// plan targets: raw HTM commits *and* software-TM commits in the
    /// same run. (With a backend installed the lock is never contended —
    /// exhausted speculation goes to the STM tier — so
    /// [`ChaosReport::all_paths_exercised`] does not apply.)
    pub fn hybrid_paths_exercised(&self) -> bool {
        self.fast_commits > 0 && self.stm_commits > 0
    }
}

/// Runs one chaos campaign. Deterministic per-worker op streams derive
/// from `seed`; thread interleaving is real (OS) nondeterminism, which is
/// the point — the oracle holds for *every* interleaving.
pub fn run_chaos(plan: &ChaosPlan, seed: u64) -> ChaosReport {
    assert!(plan.workers >= 1);
    let range = plan.workers as u64 * plan.keys_per_worker;
    let set = Arc::new(AvlSet::with_key_range(range));
    let mut builder = ElidableLock::builder()
        .policy(plan.policy)
        .retry(RetryPolicy {
            max_attempts: plan.max_attempts,
            ..RetryPolicy::default()
        });
    if let Some(backend) = plan.software {
        builder = builder.with_software_backend(match backend {
            ChaosBackend::Norec => Arc::new(Norec::new()) as Arc<dyn SoftwareTm>,
            ChaosBackend::Tl2 => Arc::new(Tl2::new()) as Arc<dyn SoftwareTm>,
        });
    }
    let lock = Arc::new(builder.build());

    plan.htm.with_installed(|| {
        let stop = Arc::new(AtomicBool::new(false));
        // Raised inside the staller's first critical section: the workers
        // start beside a holder, however short their run.
        let stalled = Arc::new(AtomicBool::new(!plan.staller));

        let staller = plan.staller.then(|| {
            let (lock, set, stop) = (Arc::clone(&lock), Arc::clone(&set), Arc::clone(&stop));
            let stalled = Arc::clone(&stalled);
            let spins = plan.stall_spins;
            std::thread::spawn(move || {
                let mut held = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    lock.execute(|ctx| {
                        // Force the pessimistic path, then linger: a long
                        // lock-held window for slow-path speculation. The
                        // probe is read-only, so FG-TLE only stamps read
                        // orecs and concurrent slow *readers* stay clean.
                        rtle_htm::htm_unfriendly_instruction();
                        let _ = set.contains(ctx, held % range);
                        stalled.store(true, Ordering::Relaxed);
                        // A lock holder off the CPU: with fewer cores than
                        // threads, what runs the workers *beside* the hold.
                        // (As a software transaction it holds nothing.)
                        if !ctx.is_speculative() {
                            std::thread::yield_now();
                        }
                        for _ in 0..spins {
                            std::hint::spin_loop();
                        }
                    });
                    held += 1;
                    // Breathe: let the fast path commit between stalls.
                    std::thread::yield_now();
                }
                held
            })
        });

        let workers: Vec<_> = (0..plan.workers)
            .map(|w| {
                let (lock, set) = (Arc::clone(&lock), Arc::clone(&set));
                let stalled = Arc::clone(&stalled);
                let (kpw, opw) = (plan.keys_per_worker, plan.ops_per_worker);
                std::thread::spawn(move || {
                    let mut rng =
                        SplitMix64::new(seed ^ (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let base = w as u64 * kpw;
                    let mut model: BTreeSet<u64> = BTreeSet::new();
                    let mut divergences = Vec::new();
                    let stream = ops::gen_ops(&mut rng, kpw, opw, opw);
                    while !stalled.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    for (i, rel_op) in stream.into_iter().enumerate() {
                        let op = rel_op.offset(base);
                        let got = lock.execute(|ctx| ops::apply_avl(&set, ctx, op));
                        let expected = ops::apply_model(rel_op, &mut model);
                        if got != expected {
                            divergences.push(format!(
                                "worker {w} op {i} {op:?}: expected {expected}, got {got}"
                            ));
                        }
                    }
                    (model, divergences)
                })
            })
            .collect();

        let mut divergences = Vec::new();
        let mut expected_keys = Vec::new();
        for (w, h) in workers.into_iter().enumerate() {
            let (model, divs) = h.join().expect("worker panicked");
            divergences.extend(divs);
            let base = w as u64 * plan.keys_per_worker;
            expected_keys.extend(model.into_iter().map(|k| base + k));
        }
        stop.store(true, Ordering::Relaxed);
        let staller_ops = match staller {
            Some(h) => h.join().expect("staller panicked"),
            None => 0,
        };

        let final_state_ok =
            set.keys_plain() == expected_keys && set.check_invariants_plain().is_ok();
        let snap = lock.stats().snapshot();
        ChaosReport {
            divergences,
            final_state_ok,
            ops: plan.workers as u64 * plan.ops_per_worker + staller_ops,
            fast_commits: snap.fast_commits,
            slow_commits: snap.slow_commits,
            lock_acquisitions: snap.lock_acquisitions,
            stm_commits: snap.stm_commits,
            aborts: snap.fast_aborts + snap.slow_aborts,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small smoke run: no storm, just partitioned workers — must be
    /// divergence-free and commit mostly on the fast path.
    #[test]
    fn calm_run_is_clean() {
        let plan = ChaosPlan {
            workers: 2,
            keys_per_worker: 32,
            ops_per_worker: 400,
            policy: ElisionPolicy::Tle,
            htm: HtmConfig::default(),
            staller: false,
            stall_spins: 0,
            software: None,
            max_attempts: 5,
        };
        let r = run_chaos(&plan, 0x00ca_0001);
        assert!(r.clean(), "divergences: {:?}", r.divergences);
        assert!(r.fast_commits > 0);
    }

    /// The tier-1 profile leaves the fast path: its workers start beside
    /// the staller's first hold, so slow commits and lock acquisitions do
    /// not depend on how the scheduler interleaves a run this short (the
    /// gate `fuzz run` applies).
    #[test]
    fn quick_plan_exercises_all_three_paths() {
        let r = run_chaos(&ChaosPlan::quick(true), 0x00ca_0003);
        assert!(r.clean(), "divergences: {:?}", r.divergences);
        assert!(r.all_paths_exercised(), "need f, s and l commits: {r:?}");
    }

    /// TL2-backed smoke run: a seeded abort storm pushes exhausted
    /// speculation into the software tier, so the differential oracle
    /// judges TL2 commits interleaved with raw HTM commits over the same
    /// shared tree. Must stay divergence-free with both regimes present.
    #[test]
    fn tl2_backed_storm_is_clean_and_hybrid() {
        let plan = ChaosPlan {
            workers: 2,
            keys_per_worker: 24,
            ops_per_worker: 500,
            staller: false,
            stall_spins: 0,
            ..ChaosPlan::quick_tl2(true)
        };
        let r = run_chaos(&plan, 0x00ca_0002);
        assert!(r.clean(), "divergences: {:?}", r.divergences);
        assert!(
            r.hybrid_paths_exercised(),
            "need HTM and STM commits in one run: {r:?}"
        );
        assert_eq!(r.lock_acquisitions, 0, "STM tier replaces the lock path");
    }
}
