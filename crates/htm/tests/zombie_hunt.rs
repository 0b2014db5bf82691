//! Zombie hunt for the snapshot extension.
//!
//! A transaction's read-version is not sampled at begin: it is whatever
//! clock value the thread last saw, and a read that meets a newer line
//! extends the snapshot (sample the clock, revalidate the read set,
//! advance). The failure this must never produce is the zombie view — a
//! committed read-only transaction returning a pair's old first half and
//! new second half. This binary holds nothing else, so the chaos
//! configuration it installs races with no other test.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicBool, Ordering};

use rtle_htm::{swhtm, HtmConfig, TxCell};

/// Raises `stop` when dropped, so a failed assertion ends the storm.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[repr(align(128))]
struct Padded(TxCell<u64>);

#[test]
fn read_only_transactions_never_see_half_a_pair() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const READS: usize = 10_000;
    /// Never-written lines each scanner reads between the two halves. They
    /// sit behind `x` in the read set, so an extension spends its time
    /// revalidating them *after* `x` — a window wide enough for a whole
    /// pair commit, which an extension that sampled the clock only
    /// afterwards would take into the snapshot unchecked. (Tried against
    /// exactly that bug: caught within a second, debug and release.)
    const FILLERS: usize = 1024;

    let chaos = HtmConfig {
        spurious_one_in: 7,
        conflict_one_in: 11,
        ..HtmConfig::default()
    };
    chaos.with_installed(|| {
        let x = Padded(TxCell::new(0));
        let y = Padded(TxCell::new(0));
        // Unrelated traffic, read between the two halves: a line newer than
        // the scanner's rv that is not part of the pair, so the extension it
        // triggers is the only thing standing between old `x` and new `y`.
        let noise = Padded(TxCell::new(0));
        let fillers: Vec<Padded> = (0..FILLERS).map(|_| Padded(TxCell::new(0))).collect();
        let stop = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (x, y, noise, fillers, stop) = (&x, &y, &noise, &fillers, &stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // The pair moves together, or not at all.
                        let _ = swhtm::try_txn(|| {
                            let v = x.0.read();
                            x.0.write(v + 1);
                            y.0.write(v + 1);
                        });
                        if w % 2 == 0 {
                            let _ = swhtm::try_txn(|| noise.0.write(noise.0.read() + 1));
                        } else {
                            noise.0.write(w as u64); // plain store: bumps the clock too
                        }
                        // Pace the writers to the scanners: about one pair
                        // and one noise write per scan, in any build profile.
                        let _ = swhtm::try_txn(|| fillers.iter().map(|f| f.0.read()).sum::<u64>());
                    }
                });
            }
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (x, y, noise, fillers, stop) = (&x, &y, &noise, &fillers, &stop);
                    scope.spawn(move || {
                        let _stop = StopOnDrop(stop);
                        let mut committed = 0u64;
                        for i in 0..READS {
                            let seen = swhtm::try_txn(|| {
                                let a = x.0.read();
                                let zeros: u64 = fillers.iter().map(|f| f.0.read()).sum();
                                assert_eq!(zeros, 0);
                                if (i + r) % 2 == 0 {
                                    let _ = noise.0.read();
                                }
                                if i % 64 == 0 {
                                    std::thread::yield_now();
                                }
                                (a, y.0.read())
                            });
                            if let Ok((a, b)) = seen {
                                assert_eq!(a, b, "zombie: old x with new y (or the reverse)");
                                committed += 1;
                            }
                        }
                        committed
                    })
                })
                .collect();
            let committed: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(committed > 0, "no read-only transaction ever committed");
        });

        assert_eq!(x.0.read_plain(), y.0.read_plain(), "the pair ends in step");
        assert!(x.0.read_plain() > 0, "writers made progress");
    });
}
