//! Randomized-history tests for the emulated HTM.
//!
//! Single-threaded histories drive arbitrary operation mixes from a
//! seeded [`SplitMix64`] stream while a sequential reference model
//! predicts the exact outcome: a committed transaction applies all its
//! writes; an aborted one applies none; plain accesses apply
//! immediately. Seeds are fixed, so every run explores the same
//! histories and failures reproduce bit-for-bit.

use rtle_htm::prng::SplitMix64;
use rtle_htm::{swhtm, AbortCode, HtmConfig, TxCell};

/// One step of a generated history.
#[derive(Debug, Clone)]
enum Step {
    /// Plain write `cells[i] = v`.
    PlainWrite { i: usize, v: u64 },
    /// Transaction writing the given (index, value) pairs, then optionally
    /// self-aborting with the code.
    Txn {
        writes: Vec<(usize, u64)>,
        abort_with: Option<u8>,
    },
}

fn gen_step(rng: &mut SplitMix64, ncells: usize) -> Step {
    if rng.bool() {
        Step::PlainWrite {
            i: rng.below(ncells as u64) as usize,
            v: rng.next_u64(),
        }
    } else {
        let writes = (0..rng.below(6))
            .map(|_| (rng.below(ncells as u64) as usize, rng.next_u64()))
            .collect();
        let abort_with = rng.bool().then(|| rng.below(256) as u8);
        Step::Txn { writes, abort_with }
    }
}

/// The cells always equal the sequential reference model after any
/// history of plain writes and (possibly self-aborting) transactions.
#[test]
fn history_matches_reference() {
    // The sibling `write_capacity_respected` installs write capacities of
    // 1–31 process-wide; hold the configuration at its default for as long
    // as this test assumes it.
    HtmConfig::default().with_installed(|| {
        let mut rng = SplitMix64::new(0x51e9_0001);
        for _case in 0..256 {
            let cells: Vec<TxCell<u64>> = (0..8).map(|_| TxCell::new(0)).collect();
            let mut model = [0u64; 8];
            let steps: Vec<Step> = (0..rng.below(40)).map(|_| gen_step(&mut rng, 8)).collect();

            for step in &steps {
                match step {
                    Step::PlainWrite { i, v } => {
                        cells[*i].write(*v);
                        model[*i] = *v;
                    }
                    Step::Txn { writes, abort_with } => {
                        let r = swhtm::try_txn(|| {
                            for (i, v) in writes {
                                cells[*i].write(*v);
                            }
                            if let Some(code) = abort_with {
                                rtle_htm::abort(*code);
                            }
                        });
                        match (r, abort_with) {
                            (Ok(()), None) => {
                                for (i, v) in writes {
                                    model[*i] = *v;
                                }
                            }
                            (Err(AbortCode::Explicit(c)), Some(expected)) => {
                                assert_eq!(c, *expected);
                            }
                            (other, _) => {
                                panic!("unexpected outcome {other:?} for {step:?}")
                            }
                        }
                    }
                }
            }

            for (cell, expected) in cells.iter().zip(model.iter()) {
                assert_eq!(cell.read_plain(), *expected);
            }
        }
    });
}

/// Read-your-own-writes inside a transaction, for arbitrary write
/// sequences: the last buffered value wins.
#[test]
fn read_own_writes() {
    let mut rng = SplitMix64::new(0x51e9_0002);
    for _case in 0..256 {
        let values: Vec<u64> = (0..rng.range_inclusive(1, 19))
            .map(|_| rng.next_u64())
            .collect();
        let c = TxCell::new(u64::MAX);
        let last = *values.last().unwrap();
        let seen = swhtm::try_txn(|| {
            for v in &values {
                c.write(*v);
            }
            c.read()
        })
        .unwrap();
        assert_eq!(seen, last);
        assert_eq!(c.read_plain(), last);
    }
}

/// Capacity limits are enforced exactly: writing n distinct heap cells
/// succeeds iff n does not exceed the configured write capacity.
/// (Heap-allocated cells land on distinct lines with overwhelming
/// probability; we allow the rare alias by asserting one-sided.)
#[test]
fn write_capacity_respected() {
    let mut rng = SplitMix64::new(0x51e9_0003);
    for _case in 0..128 {
        let n = rng.range_inclusive(1, 39) as usize;
        let cap = rng.range_inclusive(1, 31) as u32;
        let cfg = HtmConfig {
            write_capacity: cap,
            read_capacity: 1 << 20,
            spurious_one_in: 0,
            ..HtmConfig::default()
        };
        let outcome = cfg.with_installed(|| {
            let cells: Vec<Box<TxCell<u64>>> = (0..n).map(|_| Box::new(TxCell::new(0))).collect();
            swhtm::try_txn(|| {
                for c in &cells {
                    c.write(1);
                }
            })
        });
        if n > cap as usize {
            // More distinct cells than capacity: must abort unless stripes
            // aliased (possible but rare); accept only Capacity as an error.
            if let Err(code) = outcome {
                assert_eq!(code, AbortCode::Capacity);
            }
        } else {
            assert!(outcome.is_ok(), "n={n} cap={cap} -> {outcome:?}");
        }
    }
}

/// Abort codes surface in priority order even with mixed failure causes:
/// explicit aborts raised before capacity overflow report Explicit.
#[test]
fn explicit_abort_before_capacity() {
    let cfg = HtmConfig {
        write_capacity: 1,
        read_capacity: 1 << 20,
        spurious_one_in: 0,
        ..HtmConfig::default()
    };
    let r = cfg.with_installed(|| {
        let c = TxCell::new(0u64);
        swhtm::try_txn(|| {
            c.write(1);
            rtle_htm::abort(11);
        })
    });
    assert_eq!(r, Err(AbortCode::Explicit(11)));
}
