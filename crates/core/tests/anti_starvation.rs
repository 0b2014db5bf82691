//! The anti-starvation extension (§6.2.1: "It is trivial to add an
//! anti-starvation mechanism to these synchronization methods"): capping
//! the slow-path retries of one operation forces it onto the lock queue,
//! bounding its total work even against a perpetual lock holder that keeps
//! conflicting with it. The conflict that churns is a data conflict, one
//! `policy::awaits_release` retries; an owned orec is one it waits out, so
//! a victim that meets one aborts once and commits after the release.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtle_core::obs::PathKind;
use rtle_core::{abort_codes, ElidableLock, ElisionPolicy, OrecTable, RetryPolicy, TxCell};

const OREC_COUNT: usize = 64;

/// A cell alone on its cache line: an orec covers a line.
#[repr(align(64))]
struct OwnLine(TxCell<u64>);

/// What the victim's slow-path attempts run into.
#[derive(Clone, Copy)]
enum Against {
    /// The holder's plain stores to a line the attempt reads: a data
    /// conflict, which a retry may outlive (the next store may come
    /// after it commits).
    HolderStores,
    /// The write-owned orec of `shared`, which the holding keeps.
    OwnedOrec,
}

/// Shared fixture: a holder that camps on the lock writing `shared` (so
/// its orec is owned throughout) and storing to `line` in a loop, and a
/// victim op that writes `shared` — after reading `line` across one of
/// the holder's stores on every slow-path attempt when `against` is
/// [`Against::HolderStores`].
fn run_victim(cap: Option<u32>, against: Against) -> (rtle_core::StatsSnapshot, Duration) {
    let retry = RetryPolicy {
        max_slow_attempts: cap,
        ..Default::default()
    };
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: OREC_COUNT })
            .retry(retry)
            .build(),
    );
    let shared = Arc::new(OwnLine(TxCell::new(0)));
    // Of two lines, one whose orec is not `shared`'s.
    let slot = |cell: &OwnLine| OrecTable::index(cell as *const OwnLine as usize, OREC_COUNT);
    let line = Arc::new([OwnLine(TxCell::new(0)), OwnLine(TxCell::new(0))]);
    let pick = usize::from(slot(&line[0]) == slot(&shared));
    assert_ne!(slot(&line[pick]), slot(&shared));
    let stores = Arc::new(AtomicU64::new(0));
    let holder_in = Arc::new(AtomicBool::new(false));
    let holder_leaving = Arc::new(AtomicBool::new(false));
    let victim_done = Arc::new(AtomicBool::new(false));

    let elapsed = std::thread::scope(|scope| {
        {
            let (lock, shared, line, stores, holder_in, holder_leaving, victim_done) = (
                Arc::clone(&lock),
                Arc::clone(&shared),
                Arc::clone(&line),
                Arc::clone(&stores),
                Arc::clone(&holder_in),
                Arc::clone(&holder_leaving),
                Arc::clone(&victim_done),
            );
            scope.spawn(move || {
                lock.execute(|ctx| {
                    rtle_htm::htm_unfriendly_instruction();
                    // Touch `shared` so its orec is write-owned throughout.
                    let v = ctx.read(&shared.0);
                    ctx.write(&shared.0, v + 1);
                    holder_in.store(true, Ordering::SeqCst);
                    let start = std::time::Instant::now();
                    while !victim_done.load(Ordering::SeqCst)
                        && start.elapsed() < Duration::from_millis(400)
                    {
                        // A plain store: it stamps no orec.
                        let n = stores.load(Ordering::SeqCst);
                        line[pick].0.write(n + 1);
                        stores.store(n + 1, Ordering::SeqCst);
                    }
                    holder_leaving.store(true, Ordering::SeqCst);
                });
            });
        }
        while !holder_in.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let t0 = std::time::Instant::now();
        lock.execute(|ctx| {
            if matches!(against, Against::HolderStores) && ctx.mode() == PathKind::SlowHtm {
                // Read `line`, let the holder store to it twice, read it
                // again: the second store lands after the first read.
                let _ = ctx.read(&line[pick].0);
                let seen = stores.load(Ordering::SeqCst);
                while stores.load(Ordering::SeqCst) < seen + 2
                    && !holder_leaving.load(Ordering::SeqCst)
                {
                    std::hint::spin_loop();
                }
                let _ = ctx.read(&line[pick].0);
            }
            let v = ctx.read(&shared.0);
            ctx.write(&shared.0, v + 1);
        });
        let d = t0.elapsed();
        victim_done.store(true, Ordering::SeqCst);
        d
    });

    assert_eq!(shared.0.read_plain(), 2);
    (lock.stats().snapshot(), elapsed)
}

#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: victim runs against an Instant-based deadline"
)]
fn capped_slow_retries_escalate_to_the_lock() {
    let (snap, _) = run_victim(Some(3), Against::HolderStores);
    // The victim burned exactly its slow budget on conflicts with the
    // holder's stores, then queued on the lock (2 acquisitions: holder +
    // victim).
    assert_eq!(snap.lock_acquisitions, 2, "{snap:?}");
    assert_eq!(
        snap.aborts_conflict, 3,
        "victim used its capped slow budget: {snap:?}"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: victim runs against an Instant-based deadline"
)]
fn uncapped_victim_keeps_speculating() {
    let (snap, _) = run_victim(None, Against::HolderStores);
    // Without the cap the victim retries the slow path until the holder
    // leaves (the paper's configuration), then commits speculatively —
    // only the holder ever took the lock.
    assert_eq!(snap.lock_acquisitions, 1, "{snap:?}");
    assert!(
        snap.aborts_conflict > 3,
        "unbounded retries churn on the holder's stores: {snap:?}"
    );
    assert_eq!(
        snap.fast_commits + snap.slow_commits,
        1,
        "victim committed speculatively"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: victim runs against an Instant-based deadline"
)]
fn owned_orec_victim_aborts_once_and_commits_after_the_release() {
    for cap in [None, Some(3)] {
        let (snap, _) = run_victim(cap, Against::OwnedOrec);
        // One slow attempt meets the owned orec and waits out the holding;
        // the cap is not spent, and the retry is a fast attempt, which
        // starts only on a free lock.
        assert_eq!(
            snap.aborts_by_code[abort_codes::OREC_CONFLICT as usize],
            1,
            "cap {cap:?}: {snap:?}"
        );
        assert_eq!(snap.lock_acquisitions, 1, "cap {cap:?}: {snap:?}");
        assert_eq!(
            (snap.fast_commits, snap.slow_commits),
            (1, 0),
            "cap {cap:?}: the victim committed after the release: {snap:?}"
        );
    }
}
