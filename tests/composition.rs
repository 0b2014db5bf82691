//! Multi-structure transactions: one critical section updating an AVL
//! set, a hash set and plain counters atomically, under every method.
//! (The condensed, asserting version of `examples/reservations.rs`.)

use std::sync::Arc;

use refined_tle::prelude::*;
use rtle_avltree::xorshift64;

const RESOURCES: u64 = 16;
const CAPACITY: u64 = 8;

struct Sys {
    members: AvlSet,
    remaining: Vec<TxCell<u64>>,
    bookings: TxHashSet,
}

impl Sys {
    fn new() -> Self {
        let members = AvlSet::with_key_range(64);
        let a = PlainAccess;
        for c in 0..64 {
            members.insert(&a, c);
        }
        Sys {
            members,
            remaining: (0..RESOURCES).map(|_| TxCell::new(CAPACITY)).collect(),
            bookings: TxHashSet::with_capacity(4096),
        }
    }

    fn reserve<A: TxAccess + ?Sized>(&self, a: &A, res: u64, member: u64) -> bool {
        if !self.members.contains(a, member) {
            return false;
        }
        let key = res << 16 | member;
        if self.bookings.contains(a, key) {
            return false;
        }
        let left = a.load(&self.remaining[res as usize]);
        if left == 0 {
            return false;
        }
        a.store(&self.remaining[res as usize], left - 1);
        self.bookings.insert(a, key);
        true
    }

    fn cancel<A: TxAccess + ?Sized>(&self, a: &A, res: u64, member: u64) -> bool {
        let key = res << 16 | member;
        if !self.bookings.remove(a, key) {
            return false;
        }
        let left = a.load(&self.remaining[res as usize]);
        a.store(&self.remaining[res as usize], left + 1);
        true
    }

    fn check(&self) {
        let a = PlainAccess;
        let keys = self.bookings.keys_plain();
        let mut total_used = 0;
        for r in 0..RESOURCES {
            let used = CAPACITY - a.load(&self.remaining[r as usize]);
            assert!(used <= CAPACITY, "capacity overdrawn on resource {r}");
            let recorded = keys.iter().filter(|&&k| k >> 16 == r).count() as u64;
            assert_eq!(
                used, recorded,
                "resource {r}: {used} used vs {recorded} booked"
            );
            total_used += used;
        }
        assert_eq!(total_used as usize, keys.len());
    }
}

fn drive(policy: ElisionPolicy) {
    let sys = Arc::new(Sys::new());
    let lock = Arc::new(ElidableLock::builder().policy(policy).build());

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            scope.spawn(move || {
                let mut rng = 0xc0de ^ (t + 1);
                for i in 0..2_500u64 {
                    let r = xorshift64(&mut rng);
                    let res = r % RESOURCES;
                    let member = (r >> 16) % 64;
                    lock.execute(|ctx| {
                        if i % 64 == 0 {
                            rtle_htm::htm_unfriendly_instruction();
                        }
                        if (r >> 40).is_multiple_of(3) {
                            sys.cancel(ctx, res, member);
                        } else {
                            sys.reserve(ctx, res, member);
                        }
                    });
                }
            });
        }
    });
    sys.check();
}

#[test]
fn composition_under_tle() {
    drive(ElisionPolicy::Tle);
}

#[test]
fn composition_under_rw_tle() {
    drive(ElisionPolicy::RwTle);
}

#[test]
fn composition_under_fg_tle() {
    drive(ElisionPolicy::FgTle { orecs: 512 });
}

#[test]
fn composition_under_adaptive() {
    drive(ElisionPolicy::AdaptiveFgTle {
        initial_orecs: 32,
        max_orecs: 2048,
    });
}

#[test]
fn composition_under_norec() {
    let sys = Arc::new(Sys::new());
    let tm = Arc::new(Norec::new());
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let sys = Arc::clone(&sys);
            let tm = Arc::clone(&tm);
            scope.spawn(move || {
                let mut rng = 0xd00d ^ (t + 1);
                for _ in 0..1_500u64 {
                    let r = xorshift64(&mut rng);
                    let res = r % RESOURCES;
                    let member = (r >> 16) % 64;
                    tm.execute(|ctx| {
                        if (r >> 40).is_multiple_of(3) {
                            sys.cancel(ctx, res, member);
                        } else {
                            sys.reserve(ctx, res, member);
                        }
                    });
                }
            });
        }
    });
    sys.check();
}

#[test]
fn composition_under_rhnorec() {
    let sys = Arc::new(Sys::new());
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::Tle)
            .with_software_backend(Arc::new(RhNorec::new()))
            .build(),
    );
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            scope.spawn(move || {
                let mut rng = 0xf00d ^ (t + 1);
                for i in 0..1_500u64 {
                    let r = xorshift64(&mut rng);
                    let res = r % RESOURCES;
                    let member = (r >> 16) % 64;
                    lock.execute(|ctx| {
                        if i % 32 == 0 {
                            rtle_htm::htm_unfriendly_instruction();
                        }
                        if (r >> 40).is_multiple_of(3) {
                            sys.cancel(ctx, res, member);
                        } else {
                            sys.reserve(ctx, res, member);
                        }
                    });
                }
            });
        }
    });
    sys.check();
    assert_eq!(lock.stats().snapshot().ops, 4 * 1_500);
}
