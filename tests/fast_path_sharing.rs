//! What the fast path shares between threads: the commit clock, and
//! nothing else.
//!
//! Layout: every counter lane and the global clock sit in blocks of their
//! own, so no statistic shares a line with another thread's statistics,
//! with the lock word, or with the lock's read-mostly configuration.
//! Books: per-thread lanes are an implementation detail — `HtmStats`,
//! `ExecStats` and recorder snapshots must still equal what the threads
//! actually did, exactly, also when more threads run than there are lanes
//! (some bump the shared overflow lane) and when threads exit mid-run (their
//! lanes pass to threads started later, which continue the sums).
//!
//! One storm per binary: `HtmStats` and the chaos configuration are
//! process-global.

use std::mem::{align_of, size_of};
use std::sync::Arc;
use std::time::Instant;

use rtle_core::{ElidableLock, ElisionPolicy, ExecStats};
use rtle_htm::atomic::{Clock, RelaxedWord};
use rtle_htm::config::{LINE_SHIFT, STRIPE_COUNT};
use rtle_htm::lanes::{Block, Lanes, PerLane, Writer, BLOCK_BYTES, LANES};
use rtle_htm::wait::WaitList;
use rtle_htm::{stripe, swhtm, AbortCode, HtmConfig, HtmStats, TxCell};
use rtle_obs::{Histogram, ObsConfig, Recorder};

/// Three threads per lane over a storm.
const THREADS: usize = 3 * LANES;

/// Runs `work(rounds)` on [`THREADS`] threads and returns what each one
/// reports. `2 × LANES` start together behind a barrier, so half of them
/// bump the overflow lane at the same time; the first `LANES` of them stop
/// after a quarter of the rounds and exit, and only then do the last
/// `LANES` start, claiming the lanes handed back while the long runners
/// are still going.
fn storm<T: Send>(rounds: u64, work: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let work = &work;
    let start = &std::sync::Barrier::new(2 * LANES);
    std::thread::scope(|s| {
        let first: Vec<_> = (0..2 * LANES)
            .map(|t| {
                s.spawn(move || {
                    start.wait();
                    work(if t < LANES { rounds / 4 } else { rounds })
                })
            })
            .collect();
        let mut first = first.into_iter();
        let mut done: Vec<T> = first
            .by_ref()
            .take(LANES)
            .map(|h| h.join().unwrap())
            .collect();
        let late: Vec<_> = (0..LANES).map(|_| s.spawn(move || work(rounds))).collect();
        done.extend(first.chain(late).map(|h| h.join().unwrap()));
        done
    })
}

#[test]
fn lanes_and_clock_sit_alone_in_their_blocks() {
    const { assert!(BLOCK_BYTES >= 128, "a line and its prefetch pair") };
    assert!(align_of::<Lanes<1>>() >= BLOCK_BYTES);
    assert_eq!(
        size_of::<Lanes<1>>(),
        (LANES + 1) * BLOCK_BYTES,
        "one block per lane, and one for the overflow lane"
    );

    // The clock's block holds the clock and padding, nothing else.
    assert_eq!(size_of::<Block<Clock>>(), BLOCK_BYTES);
    assert_eq!(stripe::clock_addr() % BLOCK_BYTES, 0);

    // ExecStats starts and ends on block boundaries, so whatever else an
    // ElidableLock holds — lock word, policy, retry — lives on other lines.
    assert!(align_of::<ExecStats>() >= BLOCK_BYTES);
    assert_eq!(size_of::<ExecStats>() % BLOCK_BYTES, 0);
    let lock = ElidableLock::builder().build();
    let (base, stats) = (
        &lock as *const ElidableLock as usize,
        lock.stats() as *const ExecStats as usize,
    );
    assert_eq!(stats % BLOCK_BYTES, 0);
    assert!(stats >= base && stats + size_of::<ExecStats>() <= base + size_of::<ElidableLock>());

    // Heap lanes — the recorder's counters and histograms, the record
    // ring's segments — start on block boundaries and never share a
    // block, whatever the size of a lane (here: not a multiple of anything).
    type Odd = [RelaxedWord; 5131];
    let lanes = PerLane::<Odd>::new(|| [const { RelaxedWord::new(0) }; 5131]);
    let starts: Vec<usize> = lanes
        .iter()
        .map(|lane| lane as *const Odd as usize)
        .collect();
    assert_eq!(starts.len(), LANES + 1);
    assert!(starts.iter().all(|s| s % BLOCK_BYTES == 0));
    assert!(starts
        .windows(2)
        .all(|w| w[1] >= (w[0] + size_of::<Odd>()).next_multiple_of(BLOCK_BYTES)));
    for key in 0..2 * LANES {
        assert_eq!(
            lanes.of(Writer::keyed(key as u64)) as *const Odd as usize,
            starts[key % LANES]
        );
    }
}

#[test]
fn the_lock_word_sits_alone_on_its_line() {
    let lock = ElidableLock::builder().build();
    let base = &lock as *const ElidableLock as usize;
    let [word, others @ ..] = lock.cell_addrs();
    assert_eq!(word % 64, 0, "the word starts its line");
    assert!(word >= base && word + 64 <= base + size_of::<ElidableLock>());
    // To the emulated HTM a line is a stripe: a cell on the word's line
    // would be, to every subscribed attempt, the lock word itself.
    assert!(others.iter().all(|cell| cell / 64 != word / 64));
    let stats = lock.stats() as *const ExecStats as usize;
    assert!(stats >= word + 64 || stats + size_of::<ExecStats>() <= word);
}

// ---- the emulated HTM's conflict table follows the data ----------------

/// One window of data: as many lines as the table has stripes (64 MiB).
const WINDOW: usize = STRIPE_COUNT << LINE_SHIFT;

/// A window-aligned address, where glibc places a thread's arena.
const ARENA: usize = 0x7f3c_0000_0000;

/// The line of `stripe::GLOBAL` that holds the stripe of `addr`.
fn table_line(addr: usize) -> usize {
    stripe::stripe_addr(stripe::stripe_index(addr)) / 64
}

#[test]
fn no_two_lines_of_a_window_share_a_stripe() {
    let mut seen = vec![false; STRIPE_COUNT];
    for addr in (ARENA..ARENA + WINDOW).step_by(64) {
        let s = stripe::stripe_index(addr) as usize;
        assert!(!seen[s], "{addr:#x} aliases an earlier line of its window");
        seen[s] = true;
    }
}

#[test]
fn dense_data_pages_in_a_table_block_per_data_block() {
    // holder_coexist's arena: 4 MiB of dense nodes at no particular
    // alignment. Its 65 536 lines span 17 blocks of 4 096, each one 32 KiB
    // block of the table: 8 pages, 9 if the table is not page-aligned.
    let (base, bytes) = (0x5610_2a3b_4cc0, 4 << 20);
    let mut pages: Vec<usize> = (base..base + bytes)
        .step_by(64)
        .map(|a| stripe::stripe_addr(stripe::stripe_index(a)) >> 12)
        .collect();
    pages.sort_unstable();
    pages.dedup();
    let all = (STRIPE_COUNT * 8) >> 12;
    assert!(
        pages.len() <= 160,
        "{} of the table's {all} pages",
        pages.len()
    );
}

#[test]
fn power_of_two_strides_never_share_a_table_line() {
    // From 64 B to 128 KiB, from every line of a window.
    for addr in (ARENA..ARENA + WINDOW).step_by(64) {
        for k in 0..12 {
            let stride = 64 << k;
            assert_ne!(
                table_line(addr),
                table_line(addr + stride),
                "{addr:#x} and {stride} B on"
            );
        }
    }
}

#[test]
fn padded_cells_of_64_threads_keep_64_table_lines() {
    // rmw_disjoint's cells: 128 B apart, from any 128 B-aligned start.
    for start in (0..WINDOW / 2).step_by(128 * 4_099) {
        let mut lines: Vec<usize> = (0..64)
            .map(|t| table_line(ARENA + start + 128 * t))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 64, "cells from {:#x}", ARENA + start);
    }
}

#[test]
fn neighbouring_windows_do_not_map_line_for_line() {
    // glibc's arenas sit 64 MiB apart: the same offset into two of them
    // must not meet on one stripe.
    for w in 0..64 {
        let base = ARENA + w * WINDOW;
        for offset in (0..WINDOW).step_by(64 * 31) {
            assert_ne!(
                stripe::stripe_index(base + offset),
                stripe::stripe_index(base + WINDOW + offset),
                "{:#x}",
                base + offset
            );
        }
    }
}

/// The protocol words of `rtle_htm::atomic` are their std atomics (each
/// pins its size and alignment), so nothing that holds them moved: these
/// are the sizes the structures had when they held std atomics — but for
/// the lock, which grew by one block when its word got a line of its own.
/// (The lock's size includes std's `Mutex`, hence the platform gate.)
#[test]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn the_protocol_words_kept_every_layout() {
    assert_eq!(
        (size_of::<TxCell<u64>>(), align_of::<TxCell<u64>>()),
        (8, 8)
    );
    assert_eq!(size_of::<ElidableLock>(), 4736);
    assert_eq!(size_of::<WaitList>(), 40);
    assert_eq!(size_of::<Block<Clock>>(), 128);
    assert_eq!(size_of::<Block<[RelaxedWord; 16]>>(), 128, "one lane block");
    assert_eq!(size_of::<Histogram>(), 10256);
}

/// What one thread saw its own attempts do.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Seen {
    starts: u64,
    commits: u64,
    conflict: u64,
    capacity: u64,
    explicit: u64,
    spurious: u64,
}

#[test]
fn snapshots_equal_the_per_thread_ground_truth() {
    const ROUNDS: u64 = 300;
    let chaos = HtmConfig {
        spurious_one_in: 5,
        conflict_one_in: 9,
        capacity_one_in: 13,
        ..HtmConfig::default()
    };
    chaos.with_installed(|| {
        // Phase 1 — bare transactions: each thread tallies its own
        // outcomes; the global snapshot must be their sum.
        let hot = TxCell::new(0u64);
        let before = HtmStats::snapshot();
        let seen: Vec<Seen> = storm(ROUNDS, |rounds| {
            let salt = rtle_htm::thread_token();
            let mut seen = Seen::default();
            for i in 0..rounds {
                seen.starts += 1;
                match swhtm::try_txn(|| {
                    hot.write(hot.read() + 1);
                    if (i + salt).is_multiple_of(17) {
                        rtle_htm::abort(3);
                    }
                }) {
                    Ok(()) => seen.commits += 1,
                    Err(AbortCode::Conflict) => seen.conflict += 1,
                    Err(AbortCode::Capacity) => seen.capacity += 1,
                    Err(AbortCode::Explicit(_)) => seen.explicit += 1,
                    Err(AbortCode::Spurious) => seen.spurious += 1,
                    Err(other) => panic!("unexpected abort {other}"),
                }
            }
            seen
        });
        let total = seen.iter().fold(Seen::default(), |a, b| Seen {
            starts: a.starts + b.starts,
            commits: a.commits + b.commits,
            conflict: a.conflict + b.conflict,
            capacity: a.capacity + b.capacity,
            explicit: a.explicit + b.explicit,
            spurious: a.spurious + b.spurious,
        });
        let d = HtmStats::snapshot().since(&before);
        assert_eq!(
            Seen {
                starts: d.starts,
                commits: d.commits,
                conflict: d.aborts_conflict,
                capacity: d.aborts_capacity,
                explicit: d.aborts_explicit,
                spurious: d.aborts_spurious,
            },
            total
        );
        assert_eq!(hot.read_plain(), total.commits, "and the commits were real");
        assert!(total.commits > 0 && total.spurious > 0 && total.explicit > 0);

        // Phase 2 — through a lock: every attempt the lock counts is one
        // the HTM counted, every call is one op, and the per-thread
        // pessimistic sections are all on the books.
        const SECTIONS: u64 = 5;
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 64 })
            .build();
        let cell = TxCell::new(0u64);
        let before = HtmStats::snapshot();
        let calls: u64 = storm(ROUNDS, |rounds| {
            for _ in 0..rounds {
                lock.execute(|ctx| ctx.write(&cell, ctx.read(&cell) + 1));
            }
            for _ in 0..SECTIONS {
                let section = lock.lock_section();
                let ctx = section.ctx();
                ctx.write(&cell, ctx.read(&cell) + 1);
            }
            rounds + SECTIONS
        })
        .into_iter()
        .sum();
        let d = HtmStats::snapshot().since(&before);
        let books = lock.stats().snapshot();
        assert_eq!(cell.read_plain(), calls);
        assert_eq!(books.ops, calls);
        assert_eq!(
            books.ops,
            books.fast_commits + books.slow_commits + books.stm_commits + books.lock_acquisitions
        );
        assert!(books.lock_acquisitions >= THREADS as u64 * SECTIONS);
        assert_eq!(d.commits, books.fast_commits + books.slow_commits);
        assert_eq!(d.aborts(), books.fast_aborts + books.slow_aborts);
        assert_eq!(d.starts, d.commits + d.aborts());
        assert_eq!(
            books.fast_aborts + books.slow_aborts,
            books.aborts_conflict
                + books.aborts_capacity
                + books.aborts_explicit
                + books.aborts_unsupported
                + books.aborts_other
        );

        // Phase 3 — the recorder is one more lane user. It records every
        // operation, windows are on, lanes change hands and
        // overflow: every attempt is on the recorder's books exactly once,
        // in the cumulative counts, its histograms, its ring cursors and
        // the window cut from the same lanes.
        let rec = Arc::new(Recorder::new(ObsConfig {
            window_len_ms: 1_000,
            ..ObsConfig::default()
        }));
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 64 })
            .recorder(Arc::clone(&rec))
            .build();
        let cell = TxCell::new(0u64);
        let calls: u64 = storm(ROUNDS, |rounds| {
            for _ in 0..rounds {
                let start = Instant::now();
                lock.execute(|ctx| ctx.write(&cell, ctx.read(&cell) + 1));
                rec.record_op_latency(Writer::current(), start.elapsed().as_nanos() as u64);
            }
            rounds
        })
        .into_iter()
        .sum();
        let books = lock.stats().snapshot();
        let counts = rec.counts();
        let aborts = books.fast_aborts + books.slow_aborts;
        assert_eq!(cell.read_plain(), calls);
        assert_eq!(
            counts.commits,
            [
                books.fast_commits,
                books.slow_commits,
                books.stm_commits,
                books.lock_acquisitions,
            ],
            "fast, slow, stm, lock"
        );
        assert_eq!(counts.total_commits(), calls);
        assert_eq!(counts.total_aborts(), aborts);
        assert!(aborts > 0, "the chaos reached this lock too");
        assert_eq!(rec.cs_latency().count, calls);
        assert_eq!(rec.lock_hold().count, books.lock_acquisitions);
        assert_eq!(counts.attempts(), calls + aborts);
        // Every pessimistic FG-TLE section also stamps its epoch bump.
        assert_eq!(rec.pushed(), calls + aborts + books.lock_acquisitions);
        let window = rec.windows().unwrap().rotate().merged;
        assert_eq!(
            window.counts.total_commits(),
            calls,
            "counted once, not once per view"
        );
        assert_eq!(window.counts.total_aborts(), aborts);
        assert_eq!(window.ops(), calls);
    });
}
