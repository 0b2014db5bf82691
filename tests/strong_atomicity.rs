//! §1's semantic claim, exercised for real: refined TLE "allows to use
//! our technique with lock-based programs that may access the same data
//! concurrently inside and outside of a critical section", and the order
//! in which critical-section stores become visible is preserved even for
//! readers outside any critical section.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use refined_tle::prelude::*;

/// Raises `stop` when dropped — also when the checking thread panics, so a
/// failed assertion ends the test instead of leaving its partner threads
/// spinning on a flag nobody will ever set.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A writer increments `seq` then `data` (in that order) inside critical
/// sections; plain readers outside any critical section must never
/// observe `data > seq` (publication order) and must see both values
/// monotonically non-decreasing (no rollback artifacts become visible).
#[test]
fn outside_readers_see_ordered_committed_state() {
    for policy in [
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 128 },
    ] {
        let lock = Arc::new(ElidableLock::builder().policy(policy).build());
        let seq = Arc::new(TxCell::new(0u64));
        let data = Arc::new(TxCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            // Two writers (so speculation, aborts and the lock path all
            // get exercised).
            for _ in 0..2 {
                let (lock, seq, data, stop) = (
                    Arc::clone(&lock),
                    Arc::clone(&seq),
                    Arc::clone(&data),
                    Arc::clone(&stop),
                );
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        i += 1;
                        lock.execute(|ctx| {
                            if i.is_multiple_of(64) {
                                // Occasionally force the pessimistic path.
                                rtle_htm::htm_unfriendly_instruction();
                            }
                            let s = ctx.read(&seq);
                            ctx.write(&seq, s + 1);
                            let d = ctx.read(&data);
                            ctx.write(&data, d + 1);
                        });
                    }
                });
            }
            // Plain reader, entirely outside critical sections.
            {
                let (seq, data, stop) = (Arc::clone(&seq), Arc::clone(&data), Arc::clone(&stop));
                scope.spawn(move || {
                    let _stop = StopOnDrop(&stop);
                    let mut last_seq = 0u64;
                    let mut last_data = 0u64;
                    // At least 30 000 looks, and not done before the
                    // writers have published anything to look at.
                    let mut looks = 0u32;
                    while looks < 30_000 || last_data == 0 {
                        looks += 1;
                        // Read in publication-reverse order: data first,
                        // then seq. Committed order (seq before data in
                        // program order within the CS, atomically
                        // published) implies data_now <= seq_now.
                        let d = data.read_plain();
                        let s = seq.read_plain();
                        assert!(d <= s, "publication order violated: data={d} seq={s}");
                        assert!(s >= last_seq, "seq went backwards");
                        assert!(d >= last_data, "data went backwards");
                        last_seq = s;
                        last_data = d;
                    }
                });
            }
        });

        let (s, d) = (seq.read_plain(), data.read_plain());
        assert_eq!(s, d, "{}: writers finished their pairs", policy.label());
        assert!(s > 0);
    }
}

/// Data modified *outside* any critical section must doom speculating
/// transactions that read it (strong atomicity in the write direction).
#[test]
fn outside_writes_are_respected_by_speculation() {
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 64 })
            .build(),
    );
    let cell = Arc::new(TxCell::new(0u64));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Outside writer: plain stores, no critical section at all.
        {
            let (cell, stop) = (Arc::clone(&cell), Arc::clone(&stop));
            scope.spawn(move || {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 2;
                    cell.write(v); // plain (non-transactional) store
                }
            });
        }
        // Speculating reader: each CS reads the cell twice; when the
        // speculation commits, the two reads must agree (the transaction
        // would have aborted otherwise). Speculation only — once `execute`
        // falls back to the lock its reads are plain, and nothing orders two
        // plain reads against a writer that never takes the lock.
        {
            let (lock, cell, stop) = (Arc::clone(&lock), Arc::clone(&cell), Arc::clone(&stop));
            scope.spawn(move || {
                let _stop = StopOnDrop(&stop);
                let mut committed = 0u32;
                for _ in 0..20_000 {
                    if let Ok((a, b)) = lock.try_speculate(|ctx| (ctx.read(&cell), ctx.read(&cell)))
                    {
                        assert_eq!(a, b, "torn snapshot across an outside write");
                        committed += 1;
                    }
                }
                assert!(committed > 0, "no speculation ever committed");
            });
        }
    });
}
