//! Concurrent AVL-set tests: the same tree code running under every
//! synchronization method of the paper's evaluation, checked for
//! linearizable set semantics via operation-count accounting and
//! post-run structural invariants.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use rtle_avltree::{xorshift64, AvlSet};
use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::{PlainAccess, TxAccess};
use rtle_hytm::{Norec, RhNorec};

const KEY_RANGE: u64 = 256;
const THREADS: usize = 4;
const OPS: usize = 1_200;

#[derive(Clone, Copy)]
enum Op {
    Insert,
    Remove,
    Find,
}

/// Applies one set operation through an arbitrary barrier implementation;
/// returns the set-size delta it caused.
fn apply<A: TxAccess>(set: &AvlSet, a: &A, op: Op, key: u64) -> i64 {
    match op {
        Op::Insert => i64::from(set.insert(a, key)),
        Op::Remove => -i64::from(set.remove(a, key)),
        Op::Find => {
            let _ = set.contains(a, key);
            0
        }
    }
}

/// Drives the mixed workload from `THREADS` threads through `exec` (one
/// synchronized critical section per call) and returns the accumulated
/// size delta.
fn workload(exec: impl Fn(Op, u64) -> i64 + Sync) -> i64 {
    let balance = AtomicI64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let exec = &exec;
            let balance = &balance;
            scope.spawn(move || {
                let mut rng = 0x1234_5678_9abc_def0u64 ^ (t as u64 + 1);
                for _ in 0..OPS {
                    let r = xorshift64(&mut rng);
                    let key = (r >> 16) % KEY_RANGE;
                    let op = match r % 4 {
                        0 => Op::Insert,
                        1 => Op::Remove,
                        _ => Op::Find,
                    };
                    balance.fetch_add(exec(op, key), Ordering::Relaxed);
                }
            });
        }
    });
    balance.load(Ordering::Relaxed)
}

fn check(set: &AvlSet, balance: i64, label: &str) {
    set.check_invariants_plain()
        .unwrap_or_else(|e| panic!("{label}: invariants broken after concurrent run: {e}"));
    assert!(balance >= 0, "{label}: negative balance");
    assert_eq!(
        set.len_plain() as i64,
        balance,
        "{label}: lost or phantom updates"
    );
}

#[test]
fn avl_under_elision_policies() {
    for policy in [
        ElisionPolicy::LockOnly,
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 1 },
        ElisionPolicy::FgTle { orecs: 256 },
        ElisionPolicy::AdaptiveFgTle {
            initial_orecs: 64,
            max_orecs: 1024,
        },
    ] {
        let set = AvlSet::with_key_range(KEY_RANGE);
        let lock = ElidableLock::builder().policy(policy).build();
        let balance = workload(|op, key| lock.execute(|ctx| apply(&set, ctx, op, key)));
        check(&set, balance, &policy.label());
        assert_eq!(
            lock.stats().snapshot().ops as usize,
            THREADS * OPS,
            "{}",
            policy.label()
        );
    }
}

#[test]
fn avl_under_lazy_subscription_fg() {
    let retry = rtle_core::RetryPolicy {
        lazy_subscription: true,
        ..Default::default()
    };
    let set = AvlSet::with_key_range(KEY_RANGE);
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::FgTle { orecs: 256 })
        .retry(retry)
        .build();
    let balance = workload(|op, key| lock.execute(|ctx| apply(&set, ctx, op, key)));
    check(&set, balance, "FG-TLE(256)+lazy");
}

#[test]
fn avl_under_norec() {
    let set = AvlSet::with_key_range(KEY_RANGE);
    let tm = Norec::new();
    let balance = workload(|op, key| tm.execute(|ctx| apply(&set, ctx, op, key)));
    check(&set, balance, "NOrec");
    assert_eq!(tm.stats().snapshot().ops as usize, THREADS * OPS);
}

#[test]
fn avl_under_rhnorec() {
    let set = AvlSet::with_key_range(KEY_RANGE);
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::Tle)
        .with_software_backend(Arc::new(RhNorec::new()))
        .build();
    let balance = workload(|op, key| lock.execute(|ctx| apply(&set, ctx, op, key)));
    check(&set, balance, "RHNOrec");
    assert_eq!(lock.stats().snapshot().ops as usize, THREADS * OPS);
}

#[test]
fn avl_htm_hostile_updater_with_finders() {
    // The Figure 12 corner case, as a correctness test: one thread whose
    // updates always abort HTM (forcing the lock), others doing finds.
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 4096 })
            .build(),
    );
    let set = Arc::new(AvlSet::with_key_range(KEY_RANGE));

    // Pre-fill half the range.
    {
        let a = PlainAccess;
        for k in (0..KEY_RANGE).step_by(2) {
            set.insert(&a, k);
        }
    }

    std::thread::scope(|scope| {
        // Hostile updater.
        {
            let (lock, set) = (Arc::clone(&lock), Arc::clone(&set));
            scope.spawn(move || {
                let mut rng = 7u64;
                for _ in 0..400 {
                    let key = xorshift64(&mut rng) % KEY_RANGE;
                    let ins = xorshift64(&mut rng).is_multiple_of(2);
                    lock.execute(|ctx| {
                        rtle_htm::htm_unfriendly_instruction();
                        if ins {
                            set.insert(ctx, key);
                        } else {
                            set.remove(ctx, key);
                        }
                    });
                }
            });
        }
        // Finders.
        for t in 0..3 {
            let (lock, set) = (Arc::clone(&lock), Arc::clone(&set));
            scope.spawn(move || {
                let mut rng = 100 + t as u64;
                for _ in 0..2_000 {
                    let key = xorshift64(&mut rng) % KEY_RANGE;
                    lock.execute(|ctx| {
                        let _ = set.contains(ctx, key);
                    });
                }
            });
        }
    });

    set.check_invariants_plain().unwrap();
    let snap = lock.stats().snapshot();
    assert!(
        snap.lock_acquisitions >= 400,
        "hostile updates must lock: {snap:?}"
    );
}
