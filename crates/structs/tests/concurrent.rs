//! Concurrent correctness of the extra data structures under every
//! synchronization method — including the linked list's designed behavior
//! of overflowing HTM capacity and escalating to the lock.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::TxAccess;
use rtle_hytm::{Norec, RhNorec};
use rtle_structs::{TxHashSet, TxListSet};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[derive(Clone, Copy)]
enum Op {
    Insert,
    Remove,
    Find,
}

fn drive(threads: usize, ops: usize, range: u64, exec: impl Fn(Op, u64) -> i64 + Sync) -> i64 {
    let balance = AtomicI64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let exec = &exec;
            let balance = &balance;
            scope.spawn(move || {
                let mut rng = 0xfeed_beef ^ (t as u64 + 1);
                for _ in 0..ops {
                    let r = xorshift(&mut rng);
                    let key = (r >> 16) % range;
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

fn apply_hash<A: TxAccess + ?Sized>(s: &TxHashSet, a: &A, op: Op, key: u64) -> i64 {
    match op {
        Op::Insert => i64::from(s.insert(a, key)),
        Op::Remove => -i64::from(s.remove(a, key)),
        Op::Find => {
            let _ = s.contains(a, key);
            0
        }
    }
}

fn apply_list<A: TxAccess + ?Sized>(s: &TxListSet, a: &A, op: Op, key: u64) -> i64 {
    match op {
        Op::Insert => i64::from(s.insert(a, key)),
        Op::Remove => -i64::from(s.remove(a, key)),
        Op::Find => {
            let _ = s.contains(a, key);
            0
        }
    }
}

#[test]
fn hashset_under_all_policies() {
    for policy in [
        ElisionPolicy::LockOnly,
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 256 },
    ] {
        let set = TxHashSet::with_capacity(2048);
        let lock = ElidableLock::builder().policy(policy).build();
        let balance = drive(4, 1_500, 512, |op, key| {
            lock.execute(|ctx| apply_hash(&set, ctx, op, key))
        });
        assert!(balance >= 0, "{}", policy.label());
        assert_eq!(
            set.len_plain() as i64,
            balance,
            "{}: lost updates",
            policy.label()
        );
    }
}

#[test]
fn hashset_under_tms() {
    let set = TxHashSet::with_capacity(2048);
    let norec = Norec::new();
    let balance = drive(4, 1_200, 512, |op, key| {
        norec.execute(|ctx| apply_hash(&set, ctx, op, key))
    });
    assert_eq!(set.len_plain() as i64, balance, "NOrec");

    let set2 = TxHashSet::with_capacity(2048);
    let rh = ElidableLock::builder()
        .policy(ElisionPolicy::Tle)
        .with_software_backend(Arc::new(RhNorec::new()))
        .build();
    let balance2 = drive(4, 1_200, 512, |op, key| {
        rh.execute(|ctx| apply_hash(&set2, ctx, op, key))
    });
    assert_eq!(set2.len_plain() as i64, balance2, "RHNOrec");
    assert_eq!(rh.stats().snapshot().ops, 4 * 1_200, "RHNOrec");
}

#[test]
fn list_under_policies_with_capacity_pressure() {
    // 600-key range: traversals overflow the default 4096-line read
    // capacity only rarely, but with a tightened capacity the lock path
    // must absorb long operations — correctness must hold either way.
    let cfg = rtle_htm::HtmConfig {
        read_capacity: 128,
        write_capacity: 128,
        spurious_one_in: 0,
        ..rtle_htm::HtmConfig::default()
    };
    cfg.with_installed(|| {
        for policy in [ElisionPolicy::Tle, ElisionPolicy::FgTle { orecs: 256 }] {
            let set = TxListSet::with_key_range(600);
            let lock = ElidableLock::builder().policy(policy).build();
            let balance = drive(3, 500, 600, |op, key| {
                lock.execute(|ctx| apply_list(&set, ctx, op, key))
            });
            set.check_invariants_plain().unwrap();
            assert_eq!(set.len_plain() as i64, balance, "{}", policy.label());
            let snap = lock.stats().snapshot();
            assert!(
                snap.aborts_capacity > 0 || snap.lock_acquisitions > 0,
                "{}: long chains should pressure HTM capacity: {snap:?}",
                policy.label()
            );
        }
    });
}

#[test]
fn list_sequential_differential() {
    use std::collections::BTreeSet;
    let set = TxListSet::with_key_range(128);
    let mut model = BTreeSet::new();
    let a = rtle_htm::PlainAccess;
    let mut rng = 0x1234u64;
    for _ in 0..5_000 {
        let r = xorshift(&mut rng);
        let key = (r >> 8) % 128;
        match r % 3 {
            0 => assert_eq!(set.insert(&a, key), model.insert(key)),
            1 => assert_eq!(set.remove(&a, key), model.remove(&key)),
            _ => assert_eq!(set.contains(&a, key), model.contains(&key)),
        }
    }
    assert_eq!(set.keys_plain(), model.into_iter().collect::<Vec<_>>());
    set.check_invariants_plain().unwrap();
}
