//! `or_else` rollback on every rung: a first branch that wrote a `TxVar`
//! and inserted into an `AvlSet` and then retried leaves no trace, and
//! only the second branch's effects commit.
//!
//! The hardware rung cannot roll back half a transaction, so there the
//! first branch's retry aborts the attempt as unsupported and the software
//! rung reruns the whole transaction on its append-only log.

use rtle_avltree::AvlSet;
use rtle_core::ElisionPolicy;
use rtle_htm::htm_unfriendly_instruction;
use rtle_stm::{Stm, StmStatsSnapshot, TxVar};

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
    let space = Stm::new();
    let (delta, unsupported) = roll_back_first_branch(&space, true);
    assert_eq!(delta, committed(0, 1, 0));
    assert_eq!(unsupported, 1, "exactly the hostile instruction's abort");
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

/// A whole-transaction retry after a store: on the hardware rung the store
/// is already in the hardware's redo log, so the attempt cannot commit
/// read-only. It aborts as unsupported, and the software rung reruns it,
/// logs the reads and parks — with nothing published.
#[test]
fn a_retry_after_a_store_publishes_nothing() {
    let space = Stm::new();
    let (mark, gate) = (TxVar::new(0u64), TxVar::new(0u64));
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            space.atomically(|tx| {
                tx.write(&mark, tx.read(&mark) + 1);
                let open = tx.read(&gate);
                tx.check(open > 0)?;
                Ok(open)
            })
        });
        while space.stats().snapshot().parks == 0 {
            std::thread::yield_now();
        }
        let parked = mark.read_plain();
        // Open the gate before judging, so a failure cannot strand the
        // waiter.
        space.atomically(|tx| {
            tx.write(&gate, 7);
            Ok(())
        });
        assert_eq!(waiter.join().unwrap(), 7);
        assert_eq!(parked, 0, "a parked retry published its store");
    });
    assert_eq!(mark.read_plain(), 1, "the committed rerun stored once");
    assert!(space.lock().stats().snapshot().aborts_unsupported >= 1);
}
