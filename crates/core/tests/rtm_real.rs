//! Refined TLE on *real* Intel RTM hardware (feature `rtm`).
//!
//! Run with `cargo test -p rtle-core --features rtm --test rtm_real`. Each
//! test is a no-op (with a note) on machines whose CPU does not commit RTM
//! transactions; where it does, the process's HTM is RTM, so the elision
//! runtimes execute genuine `xbegin`-based transactions: lock
//! subscription, write-flag subscription and orec checks are all tracked
//! by the processor, not the software emulation.
#![cfg(feature = "rtm")]

use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::{rtm, TxCell};

fn rtm_available() -> bool {
    if !rtm::rtm_supported() {
        eprintln!("skipping: CPU does not advertise RTM");
        return false;
    }
    // Some kernels/microcode advertise RTM but force-abort every
    // transaction; probe before asserting on commit counts.
    let committed = (0..50).filter(|_| rtm::try_txn(|| ()).is_ok()).count();
    if committed == 0 {
        eprintln!("skipping: RTM advertised but transactions never commit (force-abort?)");
        return false;
    }
    // Every test below would otherwise pass on the emulation unnoticed.
    assert_eq!(
        rtle_htm::htm_name(),
        "rtm",
        "RTM commits here, so the process must run its transactions on it"
    );
    true
}

#[test]
fn raw_rtm_txn_commits_and_aborts() {
    if !rtm_available() {
        return;
    }
    assert_eq!(rtm::try_txn(|| 21 * 2), Ok(42));
    // Explicit abort surfaces its code.
    let r: Result<(), _> = rtm::try_txn(|| rtm::hw_abort(3));
    assert_eq!(r, Err(rtle_htm::AbortCode::Explicit(3)));
    assert!(!rtm::in_hw_txn());
    assert!(!rtm::actually_in_hw_txn());
}

#[test]
fn elidable_lock_counter_on_real_htm() {
    if !rtm_available() {
        return;
    }
    for policy in [
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 64 },
    ] {
        let lock = Arc::new(ElidableLock::builder().policy(policy).build());
        let cell = Arc::new(TxCell::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (lock, cell) = (Arc::clone(&lock), Arc::clone(&cell));
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        lock.execute(|ctx| {
                            let v = ctx.read(&cell);
                            ctx.write(&cell, v + 1);
                        });
                    }
                });
            }
        });
        assert_eq!(cell.read_plain(), 8_000, "{}", policy.label());
        let snap = lock.stats().snapshot();
        assert!(
            snap.fast_commits > 0,
            "{}: some executions must have committed in real hardware: {snap:?}",
            policy.label()
        );
    }
}

#[test]
fn real_htm_subscription_respects_lock() {
    if !rtm_available() {
        return;
    }
    // Mutual exclusion with mixed speculative/pessimistic executions: a
    // CS that sometimes executes an HTM-hostile operation (a syscall-ish
    // slow path via a volatile TLS write storm is unreliable; use the
    // explicit hostile helper which xaborts under the rtm feature).
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 256 })
            .build(),
    );
    let a = Arc::new(TxCell::new(0u64));
    let b = Arc::new(TxCell::new(0u64));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (lock, a, b) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
            scope.spawn(move || {
                for i in 0..1_500u64 {
                    lock.execute(|ctx| {
                        if (i + t) % 97 == 0 {
                            // Force the pessimistic path now and then.
                            rtle_htm::htm_unfriendly_instruction();
                        }
                        // a and b must move in lockstep.
                        let av = ctx.read(&a);
                        ctx.write(&a, av + 1);
                        let bv = ctx.read(&b);
                        ctx.write(&b, bv + 1);
                    });
                }
            });
        }
    });
    assert_eq!(a.read_plain(), 6_000);
    assert_eq!(b.read_plain(), 6_000);
    let snap = lock.stats().snapshot();
    assert!(
        snap.lock_acquisitions > 0,
        "hostile ops must lock: {snap:?}"
    );
}
