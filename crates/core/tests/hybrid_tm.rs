//! The paper's hybrid baseline, RH-NOrec (§6.2.2), run the one way it
//! runs: an `ElidableLock` under plain TLE with `RhNorec` as its software
//! backend. The lock's ladder makes the hardware attempts and gates the
//! backend's commit hook on its software presence; the backend runs the
//! software transaction and its reduced-hardware commit.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtle_core::{AbortCode, ElidableLock, ElisionPolicy, RetryPolicy, TxCell};
use rtle_htm::prng::SplitMix64;
use rtle_htm::{swhtm, TxAccess};
use rtle_hytm::abort_codes::SW_ACTIVE;
use rtle_hytm::{RhNorec, Tl2};

/// A TLE lock whose software fallback is `rh`: RH-NOrec.
fn rh_lock(rh: &Arc<RhNorec>) -> ElidableLock {
    ElidableLock::builder()
        .policy(ElisionPolicy::Tle)
        .with_software_backend(rh.clone())
        .build()
}

#[test]
fn single_thread_commits_in_hardware() {
    let rh = Arc::new(RhNorec::new());
    let lock = rh_lock(&rh);
    let a = TxCell::new(1u64);
    let v = lock.execute(|ctx| {
        let v = ctx.read(&a) + 41;
        ctx.write(&a, v);
        v
    });
    assert_eq!(v, 42);
    assert_eq!(a.read_plain(), 42);
    let s = lock.stats().snapshot();
    assert_eq!(
        s.fast_commits, 1,
        "uncontended txn commits in hardware: {s:?}"
    );
    assert_eq!(rh.stats().snapshot().stm_commits(), 0);
}

#[test]
fn unsupported_op_falls_to_software() {
    let rh = Arc::new(RhNorec::new());
    let lock = rh_lock(&rh);
    let a = TxCell::new(0u64);
    lock.execute(|ctx| {
        rtle_htm::htm_unfriendly_instruction();
        let v = ctx.read(&a);
        ctx.write(&a, v + 1);
    });
    assert_eq!(a.read_plain(), 1);
    let s = lock.stats().snapshot();
    assert_eq!(s.stm_commits, 1, "must commit as a software txn: {s:?}");
    assert_eq!(
        s.aborts_unsupported, 1,
        "gives up after one unsupported abort"
    );
    assert_eq!(rh.stats().snapshot().stm_commits(), 1);
}

/// The gate lives in the lock: no presence, no hook — a TL2 backend's hook
/// would abort every hardware commit. While a presence is held, the hook
/// runs and the fast attempts abort `Explicit(SW_ACTIVE)` until the op
/// falls to the software rung.
#[test]
fn hardware_commits_run_the_hook_only_while_a_software_presence_is_held() {
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::Tle)
        .with_software_backend(Arc::new(Tl2::new()))
        .build();
    let a = TxCell::new(0u64);

    assert_eq!(swhtm::try_txn(|| lock.participant_commit_hook()), Ok(()));
    lock.execute(|ctx| ctx.write(&a, 1));
    let before = lock.stats().snapshot();
    assert_eq!(
        (before.fast_commits, before.fast_aborts, before.stm_commits),
        (1, 0, 0),
        "{before:?}"
    );

    let presence = lock.try_software_presence().expect("the lock is free");
    assert_eq!(
        swhtm::try_txn(|| lock.participant_commit_hook()),
        Err(AbortCode::Explicit(SW_ACTIVE))
    );
    lock.execute(|ctx| ctx.write(&a, 2));
    drop(presence);
    let d = lock.stats().snapshot().since(&before);
    let budget = u64::from(RetryPolicy::default().max_attempts);
    assert_eq!(
        (d.fast_aborts, d.aborts_explicit),
        (budget, budget),
        "{d:?}"
    );
    assert_eq!((d.fast_commits, d.stm_commits), (0, 1), "{d:?}");
    assert_eq!(a.read_plain(), 2);

    // The presence is gone: hardware commits run no hook again.
    lock.execute(|ctx| ctx.write(&a, 3));
    assert_eq!(lock.stats().snapshot().since(&before).fast_commits, 1);
}

/// A software transaction's revalidation catches hardware commits that
/// changed its read set: the hook bumped the clock because the reader's
/// presence was up.
#[test]
fn software_readers_see_hardware_commits_consistently() {
    let rh = Arc::new(RhNorec::new());
    let lock = rh_lock(&rh);
    let a = TxCell::new(500u64);
    let b = TxCell::new(500u64);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let d = i % 10;
                lock.execute(|ctx| {
                    let av = ctx.read(&a);
                    if av >= d {
                        ctx.write(&a, av - d);
                        let bv = ctx.read(&b);
                        ctx.write(&b, bv + d);
                    }
                });
            }
        });
        for _ in 0..500 {
            let (av, bv) = lock.execute(|ctx| {
                rtle_htm::htm_unfriendly_instruction(); // force software
                (ctx.read(&a), ctx.read(&b))
            });
            assert_eq!(av + bv, 1_000, "software snapshot tore");
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(a.read_plain() + b.read_plain(), 1_000);
    assert!(lock.stats().snapshot().stm_commits >= 500);
}

#[test]
fn concurrent_mixed_transfers_conserve_sum() {
    const ACCOUNTS: usize = 16;
    const THREADS: usize = 4;
    const OPS: usize = 1000;
    let rh = Arc::new(RhNorec::new());
    let lock = rh_lock(&rh);
    let accts: Vec<TxCell<u64>> = (0..ACCOUNTS).map(|_| TxCell::new(100)).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (lock, accts) = (&lock, &accts);
            s.spawn(move || {
                let mut rng = SplitMix64::new(0x9e37_79b9 ^ (t as u64 + 1));
                for i in 0..OPS {
                    let from = rng.below(ACCOUNTS as u64) as usize;
                    let to = rng.below(ACCOUNTS as u64) as usize;
                    // Every 8th op is forced onto the software path so
                    // hardware and software genuinely interleave.
                    let force_sw = i % 8 == 0;
                    lock.execute(|ctx| {
                        if force_sw {
                            rtle_htm::htm_unfriendly_instruction();
                        }
                        let f = ctx.read(&accts[from]);
                        if from != to && f > 0 {
                            ctx.write(&accts[from], f - 1);
                            let tv = ctx.read(&accts[to]);
                            ctx.write(&accts[to], tv + 1);
                        }
                    });
                }
            });
        }
    });
    let total: u64 = accts.iter().map(|a| a.read_plain()).sum();
    assert_eq!(total, ACCOUNTS as u64 * 100);
    let s = lock.stats().snapshot();
    assert_eq!(s.ops as usize, THREADS * OPS, "{s:?}");
    assert!(
        s.stm_commits >= (THREADS * OPS / 8) as u64,
        "software path exercised: {s:?}"
    );
    assert!(s.fast_commits > 0, "hardware path exercised: {s:?}");
    assert_eq!(rh.stats().snapshot().stm_commits(), s.stm_commits);
}

/// A tiny straight-line transactional program over `N` cells.
#[derive(Debug, Clone)]
enum Step {
    Read(usize),
    /// `cells[dst] = cells[src] + k`
    AddInto {
        src: usize,
        dst: usize,
        k: u64,
    },
    Write {
        dst: usize,
        v: u64,
    },
}

fn gen_step(rng: &mut SplitMix64, n: u64) -> Step {
    match rng.below(3) {
        0 => Step::Read(rng.below(n) as usize),
        1 => Step::AddInto {
            src: rng.below(n) as usize,
            dst: rng.below(n) as usize,
            k: rng.below(100),
        },
        _ => Step::Write {
            dst: rng.below(n) as usize,
            v: rng.below(1000),
        },
    }
}

fn gen_prog(rng: &mut SplitMix64, n: u64, max_len: u64) -> Vec<Step> {
    (0..rng.below(max_len)).map(|_| gen_step(rng, n)).collect()
}

fn apply_model(model: &mut [u64], prog: &[Step]) {
    for s in prog {
        match s {
            Step::Read(_) => {}
            Step::AddInto { src, dst, k } => model[*dst] = model[*src] + k,
            Step::Write { dst, v } => model[*dst] = *v,
        }
    }
}

fn apply_tm<A: TxAccess + ?Sized>(a: &A, cells: &[TxCell<u64>], prog: &[Step]) {
    for s in prog {
        match s {
            Step::Read(i) => {
                let _ = a.load(&cells[*i]);
            }
            Step::AddInto { src, dst, k } => {
                let v = a.load(&cells[*src]) + k;
                a.store(&cells[*dst], v);
            }
            Step::Write { dst, v } => a.store(&cells[*dst], *v),
        }
    }
}

/// Differential equivalence against a sequential model for arbitrary
/// transaction programs, mixing hardware and (forced) software commits.
#[test]
fn rhnorec_matches_model() {
    let mut rng = SplitMix64::new(0x51e9_4002);
    for _case in 0..96 {
        let rh = Arc::new(RhNorec::new());
        let lock = rh_lock(&rh);
        let cells: Vec<TxCell<u64>> = (0..6).map(|_| TxCell::new(0)).collect();
        let mut model = vec![0u64; 6];
        let mut forced = 0;
        for _ in 0..rng.below(12) {
            let prog = gen_prog(&mut rng, 6, 12);
            let force_sw = rng.bool();
            forced += u64::from(force_sw);
            lock.execute(|ctx| {
                if force_sw {
                    rtle_htm::htm_unfriendly_instruction();
                }
                apply_tm(ctx, &cells, &prog)
            });
            apply_model(&mut model, &prog);
        }
        for (c, m) in cells.iter().zip(&model) {
            assert_eq!(c.read_plain(), *m);
        }
        // Commit kinds partition the ops: a forced op commits in software,
        // every other one in hardware.
        let s = lock.stats().snapshot();
        assert_eq!(
            (s.stm_commits, s.fast_commits + s.stm_commits),
            (forced, s.ops)
        );
        assert_eq!(rh.stats().snapshot().stm_commits(), forced);
    }
}
