//! Backend-agreement storm: the same seeded 8-thread op streams replayed
//! against NOrec, TL2, and a `Mutex<BTreeMap>` oracle must land on
//! byte-identical final memory, with commit/abort accounting that
//! conserves every operation.
//!
//! The workload is all read-modify-write *additions* (hot shared cells
//! plus one private cell per thread), so the final memory is a pure
//! function of the op multiset — independent of the real OS
//! interleaving. That is exactly what lets a lost update (a stale read
//! surviving to commit) show up as a deterministic numeric divergence
//! instead of scheduling luck: if any backend ever commits a transaction
//! whose read was overwritten in between, a delta vanishes and the
//! equality fails.

use std::collections::BTreeMap;
use std::sync::Mutex;

use rtle_htm::prng::SplitMix64;
use rtle_htm::TxCell;
use rtle_hytm::{run_sw, Norec, SoftwareTm, Tl2, TmStatsSnapshot};

const THREADS: usize = 8;
/// Shared cells every thread hammers (the storm).
const HOT_CELLS: usize = 4;
/// Hot cells plus one private cell per thread.
const CELLS: usize = HOT_CELLS + THREADS;
const OPS_PER_THREAD: usize = 400;

/// One storm op: `cells[cell] += delta`, as one transaction.
#[derive(Debug, Clone, Copy)]
struct AddOp {
    cell: usize,
    delta: u64,
}

/// The shared generator: thread `t`'s stream is a pure function of
/// `(seed, t)`, so every backend (and the oracle) replays the identical
/// workload. Storm mix: ~3/4 of the ops hit the hot shared cells, the
/// rest stay on the thread's private cell.
fn gen_stream(seed: u64, t: usize) -> Vec<AddOp> {
    let mut rng = SplitMix64::new(seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..OPS_PER_THREAD)
        .map(|_| AddOp {
            cell: if rng.below(4) < 3 {
                rng.below(HOT_CELLS as u64) as usize
            } else {
                HOT_CELLS + t
            },
            delta: 1 + rng.below(9),
        })
        .collect()
}

/// Replays all streams through a software TM with 8 real threads.
fn run_tm(tm: &dyn SoftwareTm, seed: u64) -> (Vec<u64>, TmStatsSnapshot) {
    let cells: Vec<TxCell<u64>> = (0..CELLS).map(|_| TxCell::new(0)).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cells = &cells;
            s.spawn(move || {
                for op in gen_stream(seed, t) {
                    run_sw(tm, |ctx| {
                        let v = ctx.read(&cells[op.cell]);
                        // Yield inside the read-write window of contended
                        // ops: on a single-core host the threads would
                        // otherwise serialize timeslice by timeslice and
                        // the storm would never produce an overlapping
                        // transaction. The handoff invites another thread
                        // to commit to the same cell mid-transaction —
                        // the stale-read window validation must catch.
                        if op.cell < HOT_CELLS {
                            std::thread::yield_now();
                        }
                        ctx.write(&cells[op.cell], v + op.delta);
                    });
                }
            });
        }
    });
    (
        cells.iter().map(|c| c.read_plain()).collect(),
        tm.stats().snapshot(),
    )
}

/// The oracle: the same streams, same 8 threads, every RMW under one
/// `Mutex<BTreeMap>` — trivially serializable by construction.
fn run_mutex_oracle(seed: u64) -> Vec<u64> {
    let map = Mutex::new(BTreeMap::<usize, u64>::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let map = &map;
            s.spawn(move || {
                for op in gen_stream(seed, t) {
                    *map.lock().unwrap().entry(op.cell).or_insert(0) += op.delta;
                }
            });
        }
    });
    let m = map.into_inner().unwrap();
    (0..CELLS)
        .map(|i| m.get(&i).copied().unwrap_or(0))
        .collect()
}

/// Every op's delta, summed — what the final memory must add up to if no
/// committed increment was lost or double-applied.
fn total_delta(seed: u64) -> u64 {
    (0..THREADS)
        .flat_map(|t| gen_stream(seed, t))
        .map(|op| op.delta)
        .sum()
}

fn check_conservation(name: &str, seed: u64, finals: &[u64], snap: &TmStatsSnapshot) {
    assert_eq!(
        snap.ops,
        (THREADS * OPS_PER_THREAD) as u64,
        "{name}: every transaction must be accounted"
    );
    assert_eq!(
        snap.stm_fast_commit + snap.stm_slow_commit,
        snap.ops,
        "{name}: commit kinds must partition the op count"
    );
    assert_eq!(
        finals.iter().sum::<u64>(),
        total_delta(seed),
        "{name}: committed increments must be conserved"
    );
}

#[test]
fn norec_tl2_and_mutex_oracle_agree_under_storm() {
    for seed in [0xa9_4ee0_0001u64, 0xa9_4ee0_0002] {
        let oracle = run_mutex_oracle(seed);
        let norec = Norec::new();
        let (norec_final, norec_snap) = run_tm(&norec, seed);
        let tl2 = Tl2::new();
        let (tl2_final, tl2_snap) = run_tm(&tl2, seed);

        // Byte-identical final state across all three executors.
        assert_eq!(
            norec_final, oracle,
            "seed {seed:#x}: NOrec diverged from the oracle"
        );
        assert_eq!(
            tl2_final, oracle,
            "seed {seed:#x}: TL2 diverged from the oracle"
        );
        assert_eq!(norec_final, tl2_final, "seed {seed:#x}: backends disagree");

        check_conservation("norec", seed, &norec_final, &norec_snap);
        check_conservation("tl2", seed, &tl2_final, &tl2_snap);

        // The storm must actually have been a storm for the agreement to
        // mean anything: contention on the hot cells forces validation
        // aborts, and the lost-update hazard those aborts prevent is the
        // thing being tested.
        assert!(
            norec_snap.sw_aborts + tl2_snap.sw_aborts > 0,
            "seed {seed:#x}: no backend ever aborted — storm too gentle to test anything"
        );
    }
}

#[test]
fn streams_are_pure_functions_of_seed_and_thread() {
    for t in 0..THREADS {
        let a = gen_stream(0xf422, t);
        let b = gen_stream(0xf422, t);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.cell == y.cell && x.delta == y.delta));
    }
}
