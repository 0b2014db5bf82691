//! `or_else` rollback on every rung: a first branch that wrote a `TxVar`
//! and inserted into an `AvlSet` and then retried leaves no trace, and
//! only the second branch's effects commit.
//!
//! The hardware rung cannot roll back half a transaction, so there the
//! first branch's retry aborts the attempt as unsupported and the software
//! rung reruns the whole transaction. The software rung writes through its
//! backend descriptor's append-only log and rolls back by truncating it,
//! so its cases run on every backend.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtle_avltree::AvlSet;
use rtle_core::ElisionPolicy;
use rtle_htm::htm_unfriendly_instruction;
use rtle_hytm::{Norec, RhNorec, SoftwareTm, Tl2};
use rtle_stm::{Stm, StmStatsSnapshot, TxVar};

/// How long a test waits for a retrying transaction to park before it
/// judges the retry broken.
const PARK_DEADLINE: Duration = Duration::from_secs(10);

/// Builds one software backend.
type MakeBackend = fn() -> Arc<dyn SoftwareTm>;

/// Runs `case` once per software backend, each on a fresh thread: the
/// table of hostile call sites is per thread, so a case's first call
/// always probes the hardware.
fn on_each_backend(case: fn(&str, &Stm)) {
    let backends: [(&str, MakeBackend); 3] = [
        ("norec", || Arc::new(Norec::new())),
        ("tl2", || Arc::new(Tl2::new())),
        ("rh-norec", || Arc::new(RhNorec::new())),
    ];
    for (name, backend) in backends {
        std::thread::spawn(move || {
            let space = Stm::builder().software_backend(Some(backend())).build();
            case(name, &space);
        })
        .join()
        .unwrap_or_else(|_| panic!("{name}: the case failed"));
    }
}

/// Runs the composed transaction once on `space` and checks that only the
/// second branch committed. `hostile` starts the body with an instruction
/// the hardware cannot run. Returns the space's stats delta and how many
/// more unsupported aborts its lock counted.
fn roll_back_first_branch(space: &Stm, hostile: bool) -> (StmStatsSnapshot, u64) {
    let avl = AvlSet::with_key_range(64);
    let (first, second) = (TxVar::new(0u64), TxVar::new(0u64));
    let (stats0, unsupported0) = (
        space.stats().snapshot(),
        space.lock().stats().snapshot().aborts_unsupported,
    );
    let got = space.atomically(|tx| {
        if hostile {
            htm_unfriendly_instruction();
        }
        tx.or_else(
            |tx| {
                tx.write(&first, 1);
                avl.insert(tx, 10);
                tx.retry()
            },
            |tx| {
                tx.write(&second, tx.read(&first) + 2);
                avl.insert(tx, 20);
                Ok("second")
            },
        )
    });
    assert_eq!(got, "second");
    assert_eq!(first.read_plain(), 0, "the first branch's write is gone");
    assert_eq!(second.read_plain(), 2, "the second branch saw none of it");
    let a = rtle_htm::PlainAccess;
    assert!(!avl.contains(&a, 10), "the first branch's insert is gone");
    assert!(avl.contains(&a, 20));
    let stats = space.stats().snapshot();
    let delta = StmStatsSnapshot {
        commits_spec: stats.commits_spec - stats0.commits_spec,
        commits_sw: stats.commits_sw - stats0.commits_sw,
        commits_locked: stats.commits_locked - stats0.commits_locked,
        parks: stats.parks - stats0.parks,
        ..StmStatsSnapshot::default()
    };
    let unsupported = space.lock().stats().snapshot().aborts_unsupported - unsupported0;
    (delta, unsupported)
}

fn committed(spec: u64, sw: u64, locked: u64) -> StmStatsSnapshot {
    StmStatsSnapshot {
        commits_spec: spec,
        commits_sw: sw,
        commits_locked: locked,
        ..StmStatsSnapshot::default()
    }
}

#[test]
fn spec_hands_a_stored_then_retried_branch_to_the_software_rung() {
    let space = Stm::builder()
        .policy(ElisionPolicy::FgTle { orecs: 128 })
        .build();
    let (delta, unsupported) = roll_back_first_branch(&space, false);
    assert_eq!(delta, committed(0, 1, 0));
    assert_eq!(unsupported, 1, "exactly the rollback's abort");
}

#[test]
fn sw_truncates_the_first_branch() {
    on_each_backend(|name, space| {
        let (delta, unsupported) = roll_back_first_branch(space, true);
        assert_eq!(delta, committed(0, 1, 0), "{name}");
        assert_eq!(
            unsupported, 1,
            "{name}: exactly the hostile instruction's abort"
        );
    });
}

#[test]
fn locked_truncates_the_first_branch() {
    let space = Stm::builder()
        .policy(ElisionPolicy::LockOnly)
        .software_backend(None)
        .build();
    let (delta, unsupported) = roll_back_first_branch(&space, false);
    assert_eq!(delta, committed(0, 0, 1));
    assert_eq!(unsupported, 0);
}

/// Writes `x = 1`, then an `or_else` whose first branch writes `x = 2`
/// and `y` and retries, and whose second reads both. On the software rung
/// the log holds two entries for `x`: truncating the branch away must
/// bring back the first. A log that superseded `x`'s entry in place would
/// read and commit `x = 2`.
fn truncate_back_to_an_earlier_write_of_the_same_cell(name: &str, space: &Stm) {
    let (x, y) = (TxVar::new(0u64), TxVar::new(0u64));
    let got = space.atomically(|tx| {
        htm_unfriendly_instruction();
        tx.write(&x, 1);
        tx.or_else(
            |tx| {
                tx.write(&x, 2);
                tx.write(&y, 3);
                tx.retry()
            },
            |tx| Ok((tx.read(&x), tx.read(&y))),
        )
    });
    assert_eq!(got, (1, 0), "{name}: the second branch sees x = 1");
    assert_eq!((x.read_plain(), y.read_plain()), (1, 0), "{name}");
    assert_eq!(space.stats().snapshot().commits_sw, 1, "{name}");
}

#[test]
fn a_truncated_write_restores_the_same_cells_earlier_write() {
    on_each_backend(truncate_back_to_an_earlier_write_of_the_same_cell);
}

/// On TL2 the truncated write to `y` leaves `y`'s stripe in the footprint,
/// so the commit locks it and releases it at a new version with nothing
/// written under it. That is harmless: `y` keeps its value, and the next
/// software transaction reads and writes it as usual.
#[test]
fn a_truncated_tl2_stripe_is_only_re_versioned() {
    std::thread::spawn(|| {
        let space = Stm::builder()
            .software_backend(Some(Arc::new(Tl2::new())))
            .build();
        let (x, y) = (TxVar::new(0u64), TxVar::new(0u64));
        space.atomically(|tx| {
            htm_unfriendly_instruction();
            tx.or_else(
                |tx| {
                    tx.write(&y, 3);
                    tx.retry()
                },
                |tx| {
                    tx.write(&x, tx.read(&x) + 1);
                    Ok(())
                },
            )
        });
        assert_eq!((x.read_plain(), y.read_plain()), (1, 0));
        let next = space.atomically(|tx| {
            htm_unfriendly_instruction();
            let v = tx.read(&y) + 1;
            tx.write(&y, v);
            Ok(v)
        });
        assert_eq!((next, y.read_plain()), (1, 1));
        assert_eq!(space.stats().snapshot().commits_sw, 2);
    })
    .join()
    .unwrap();
}

/// Spins until `space` counts a park, for at most [`PARK_DEADLINE`].
/// Returns whether it did.
fn parks_in_time(space: &Stm) -> bool {
    let deadline = Instant::now() + PARK_DEADLINE;
    while space.stats().snapshot().parks == 0 {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Runs `body`'s retrying transaction on a second thread until it parks,
/// then opens the gate it waits on. Returns the mark as the parked
/// transaction left it, and what the woken transaction returned.
fn park_then_open(
    name: &str,
    space: &Stm,
    (mark, gate): (&TxVar<u64>, &TxVar<u64>),
    body: fn(&Stm, &TxVar<u64>, &TxVar<u64>) -> u64,
) -> (u64, u64) {
    std::thread::scope(|s| {
        let waiter = s.spawn(|| body(space, mark, gate));
        let parked = parks_in_time(space);
        let at_park = mark.read_plain();
        // Open the gate before judging, so a failure cannot strand the
        // waiter.
        space.atomically(|tx| {
            tx.write(gate, 7);
            Ok(())
        });
        let got = waiter.join().unwrap();
        assert!(
            parked,
            "{name}: the retry did not park within {PARK_DEADLINE:?}: it \
             published its store or reran without blocking"
        );
        (at_park, got)
    })
}

/// A whole-transaction retry after a store: on the hardware rung the store
/// is already in the hardware's redo log, so the attempt cannot commit
/// read-only. It aborts as unsupported, and the software rung reruns it,
/// truncates its write log, commits read-only and parks — with nothing
/// published.
#[test]
fn a_retry_after_a_store_publishes_nothing() {
    on_each_backend(|name, space| {
        let (mark, gate) = (TxVar::new(0u64), TxVar::new(0u64));
        let (parked, got) = park_then_open(name, space, (&mark, &gate), |space, mark, gate| {
            space.atomically(|tx| {
                tx.write(mark, tx.read(mark) + 1);
                let open = tx.read(gate);
                tx.check(open > 0)?;
                Ok(open)
            })
        });
        assert_eq!(parked, 0, "{name}: a parked retry published its store");
        assert_eq!(got, 7, "{name}");
        assert_eq!(
            mark.read_plain(),
            1,
            "{name}: the committed rerun stored once"
        );
        assert!(
            space.lock().stats().snapshot().aborts_unsupported >= 1,
            "{name}"
        );
    });
}

/// A retry that read back its own store parks on the other vars it read:
/// the value it read came from its write log, not from memory, so the
/// revalidation before parking must not count it as changed.
#[test]
fn a_retry_that_read_its_own_write_parks() {
    on_each_backend(|name, space| {
        let (mark, gate) = (TxVar::new(0u64), TxVar::new(0u64));
        let (parked, got) = park_then_open(name, space, (&mark, &gate), |space, mark, gate| {
            space.atomically(|tx| {
                tx.write(mark, 5);
                let own = tx.read(mark);
                tx.check(tx.read(gate) > 0)?;
                Ok(own)
            })
        });
        assert_eq!((parked, got), (0, 5), "{name}");
        assert_eq!(mark.read_plain(), 5, "{name}");
    });
}
