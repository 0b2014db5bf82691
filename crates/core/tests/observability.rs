//! Integration tests for attempt-level observability: the recorder wired
//! through `ElidableLock::execute`, reading it under concurrent recording,
//! adaptive decision tracing from a real workload, and the watchdog's
//! flight record of a real lock.

#![allow(
    clippy::disallowed_types,
    reason = "the test's own harness flags and counters, at the orderings it chose; the code under test uses `rtle_htm::atomic`"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtle_core::adaptive::Adaptation;
use rtle_core::obs::watchdog::{flight_record, CollapseEvent, CollapseKind};
use rtle_core::obs::{Json, ObsConfig, PathKind, Record, RecordKind, Recorder, DECISIONS_KEPT};
use rtle_core::{Ctx, ElidableLock, ElisionPolicy, TxCell};
use rtle_htm::lanes::Writer;

fn recorded_lock(policy: ElisionPolicy) -> (Arc<ElidableLock>, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new(ObsConfig::default()));
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(policy)
            .recorder(Arc::clone(&rec))
            .build(),
    );
    (lock, rec)
}

/// A single-threaded run populates every recorder surface: per-path
/// commits, the latency histogram, the record ring, and lock-hold samples
/// when the pessimistic path runs.
#[test]
fn recorder_captures_fast_and_lock_paths() {
    let (lock, rec) = recorded_lock(ElisionPolicy::Tle);
    let c = TxCell::new(0u64);
    for i in 0..100u64 {
        lock.execute(|ctx: &Ctx| {
            // Every 10th op is forced onto the pessimistic path.
            if i % 10 == 9 {
                rtle_htm::htm_unfriendly_instruction();
            }
            let v = ctx.read(&c);
            ctx.write(&c, v + 1);
        });
    }
    assert_eq!(c.read_plain(), 100);

    let counts = rec.counts();
    assert_eq!(counts.commits[PathKind::FastHtm.index()], 90);
    assert_eq!(counts.commits[PathKind::Lock.index()], 10);
    assert_eq!(counts.total_commits(), 100);
    assert!(counts.total_aborts() >= 10, "unsupported aborts recorded");
    let cs = rec.cs_latency();
    assert_eq!(cs.count, 100);
    assert_eq!(rec.lock_hold().count, 10);
    assert!(cs.percentile(0.99) >= cs.percentile(0.50));
    assert!(!rec.records().is_empty());
    // The recorder's view agrees with the exact ExecStats counters.
    let stats = lock.stats().snapshot();
    assert_eq!(stats.fast_commits, 90);
    assert_eq!(stats.lock_acquisitions, 10);
}

/// An operation that finishes on a software backend is on the recorder's
/// books like any other: its aborted speculative attempts, then one
/// commit on the `stm` path, so recorder and `ExecStats` agree on commits
/// per path.
#[test]
fn software_rung_commits_reach_the_recorder() {
    let rec = Arc::new(Recorder::new(ObsConfig::default()));
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::Tle)
        .with_software_backend(Arc::new(rtle_hytm::Tl2::new()))
        .recorder(Arc::clone(&rec))
        .build();
    let c = TxCell::new(0u64);
    for i in 0..40u64 {
        lock.execute(|ctx: &Ctx| {
            // Every fourth op exhausts speculation and lands on TL2.
            if i % 4 == 3 {
                rtle_htm::htm_unfriendly_instruction();
            }
            let v = ctx.read(&c);
            ctx.write(&c, v + 1);
        });
    }
    assert_eq!(c.read_plain(), 40);

    let stats = lock.stats().snapshot();
    assert_eq!((stats.stm_commits, stats.lock_acquisitions), (10, 0));
    let counts = rec.counts();
    assert_eq!(counts.total_commits(), stats.ops);
    assert_eq!(counts.commits[PathKind::Stm.index()], stats.stm_commits);
    assert_eq!(
        counts.commits[PathKind::FastHtm.index()],
        stats.fast_commits
    );
    assert_eq!(counts.total_aborts(), stats.fast_aborts + stats.slow_aborts);
    assert_eq!(rec.cs_latency().count, stats.ops);
    assert_eq!(rec.lock_hold().count, 0, "the lock was never held");
    // The commit comes after the speculative attempts it gave up on.
    let stm = rec
        .records()
        .into_iter()
        .filter_map(|r| r.attempt())
        .find(|ev| ev.path == PathKind::Stm)
        .expect("an stm commit in the ring");
    assert_eq!(stm.attempt, 1, "after the one hopeless fast attempt");
}

/// One attempt, one record: under contention every attempt of a recorded
/// operation — committed or aborted, on any path — is exactly one ring
/// push, and the only other pushes are the holder's epoch bumps.
#[test]
#[cfg_attr(miri, ignore = "4-thread contended run: slow under the interpreter")]
fn every_attempt_is_one_record_and_instants_are_the_rest() {
    const THREADS: u64 = 4;
    const OPS: u64 = 2_000;
    let (lock, rec) = recorded_lock(ElisionPolicy::FgTle { orecs: 4 });
    let c = TxCell::new(0u64);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (lock, c) = (&lock, &c);
            s.spawn(move || {
                for i in 0..OPS {
                    lock.execute(|ctx: &Ctx| {
                        // A steady trickle of lock holders to contend with.
                        if (i + t) % 16 == 0 {
                            rtle_htm::htm_unfriendly_instruction();
                        }
                        let v = ctx.read(c);
                        ctx.write(c, v + 1);
                    });
                }
            });
        }
    });
    assert_eq!(c.read_plain(), THREADS * OPS);

    let stats = lock.stats().snapshot();
    let attempts = stats.ops + stats.fast_aborts + stats.slow_aborts;
    assert!(stats.lock_acquisitions >= THREADS * OPS / 16);
    assert_eq!(rec.counts().attempts(), attempts);
    // An FG-TLE holder bumps the epoch once per section.
    assert_eq!(rec.pushed(), attempts + stats.lock_acquisitions);
    let bumps = rec
        .records()
        .iter()
        .filter(|r| matches!(r.kind, RecordKind::EpochBump(_)))
        .count();
    assert!(bumps > 0, "the instants share the attempts' ring");
}

/// A recorded lock records every operation: the recorder's books equal
/// the exact ExecStats counters, under TLE and both refined slow paths.
#[test]
fn the_recorder_books_every_operation() {
    for policy in [
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 64 },
    ] {
        let (lock, rec) = recorded_lock(policy);
        let c = TxCell::new(0u64);
        for _ in 0..800 {
            lock.execute(|ctx: &Ctx| {
                let v = ctx.read(&c);
                ctx.write(&c, v + 1);
            });
        }
        let stats = lock.stats().snapshot();
        assert_eq!(stats.ops, 800, "{policy:?}");
        assert_eq!(rec.counts().total_commits(), stats.ops, "{policy:?}");
    }
}

/// An open-loop harness charges each operation's latency from its
/// *intended* start into the windowed telemetry: `execute`, then
/// `record_op_latency` measured from the scheduled arrival. An operation
/// scheduled in the past shows its queueing delay in the window
/// percentiles (coordinated-omission correction), and the window sees
/// every op.
#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive: asserts on Instant-derived start latency"
)]
fn op_latency_from_the_intended_start_lands_in_windows() {
    let rec = Arc::new(Recorder::new(ObsConfig {
        window_len_ms: 1_000,
        ..ObsConfig::default()
    }));
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::Tle)
        .recorder(Arc::clone(&rec))
        .build();
    let c = TxCell::new(0u64);
    let backlogged = std::time::Instant::now() - std::time::Duration::from_millis(5);
    for _ in 0..64u64 {
        lock.execute(|ctx: &Ctx| {
            let v = ctx.read(&c);
            ctx.write(&c, v + 1);
        });
        rec.record_op_latency(Writer::current(), backlogged.elapsed().as_nanos() as u64);
    }
    assert_eq!(c.read_plain(), 64);
    let w = rec
        .windows()
        .expect("window collector configured")
        .rotate()
        .merged;
    assert_eq!(w.ops(), 64, "every op lands in the window");
    // >= 5ms minus the histogram's one-sub-bucket floor underestimate.
    assert!(
        w.latency_p(0.50) >= 4_800_000,
        "queueing delay from the intended start must be charged: p50 = {} ns",
        w.latency_p(0.50)
    );
    assert_eq!(rec.windows().unwrap().series().len(), 1);
    assert_eq!(
        rec.counts().total_commits(),
        64,
        "and every op's attempts are booked"
    );
}

/// Eight threads hammer a recorded lock (histograms + ExecStats) while
/// the main thread reads both continuously: no panics, no torn values,
/// and the final counts add up.
#[test]
#[cfg_attr(
    miri,
    ignore = "8-thread hammer: minutes under the interpreter; covered by TSan instead"
)]
fn concurrent_hammer_while_snapshotting() {
    const THREADS: usize = 8;
    const OPS: usize = 3_000;
    let (lock, rec) = recorded_lock(ElisionPolicy::FgTle { orecs: 64 });
    let c = Arc::new(TxCell::new(0u64));
    let done = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (lock, c) = (Arc::clone(&lock), Arc::clone(&c));
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    lock.execute(|ctx: &Ctx| {
                        let v = ctx.read(&c);
                        ctx.write(&c, v + 1);
                    });
                }
            })
        })
        .collect();

    let observer = {
        let (lock, rec, done) = (Arc::clone(&lock), Arc::clone(&rec), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut last = lock.stats().snapshot();
            while !done.load(Ordering::Relaxed) {
                let now = lock.stats().snapshot();
                let delta = now.since(&last); // must never panic (saturating)
                assert!(delta.ops <= (THREADS * OPS) as u64);
                let before = rec.counts().total_commits();
                let cs = rec.cs_latency().count;
                let commits = rec.counts().total_commits();
                let after = rec.counts().total_commits();
                // Commit counters and histogram cells are separate relaxed
                // atomics, read one by one while the workers keep
                // committing. Two sources of skew: at most one in-flight
                // op per thread (caught between its histogram record and
                // its commit-counter bump), plus every op that committed
                // between the two readings. The bracketing readings bound
                // the latter. Exact equality is asserted after joining
                // below.
                let slack = THREADS as u64 + after.saturating_sub(before);
                assert!(cs.abs_diff(commits) <= slack);
                last = now;
            }
        })
    };

    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    observer.join().unwrap();

    assert_eq!(c.read_plain(), (THREADS * OPS) as u64);
    let stats = lock.stats().snapshot();
    assert_eq!(stats.ops, (THREADS * OPS) as u64);
    let commits = rec.counts().total_commits();
    assert_eq!(commits, (THREADS * OPS) as u64);
    assert_eq!(rec.cs_latency().count, commits);
    assert_eq!(
        stats.fast_commits + stats.slow_commits + stats.lock_acquisitions,
        commits,
        "recorder and exact counters agree"
    );
}

/// Adaptive FG-TLE under a lock-heavy workload with an idle slow path
/// emits traceable shrink/collapse decisions through the installed
/// recorder — the §4.2.1 adaptation is observable end to end.
#[test]
fn adaptive_workload_emits_decision_events() {
    let (lock, rec) = recorded_lock(ElisionPolicy::AdaptiveFgTle {
        initial_orecs: 16,
        max_orecs: 1024,
    });
    let c = TxCell::new(0u64);
    // Single-threaded and HTM-unfriendly: every operation takes the lock,
    // the slow path stays idle, and the policy shrinks 16 -> 1 and then
    // collapses to plain TLE. 32-acquisition windows x (4 shrinks + 2
    // idle-at-1) need ~200 ops; run enough to cross all of them.
    for _ in 0..300 {
        lock.execute(|ctx: &Ctx| {
            rtle_htm::htm_unfriendly_instruction();
            let v = ctx.read(&c);
            ctx.write(&c, v + 1);
        });
    }
    assert_eq!(c.read_plain(), 300);
    assert_eq!(lock.slow_path_enabled(), Some(false), "collapsed");

    let decisions = rec.decisions();
    assert!(!decisions.is_empty(), "adaptation must be traceable");
    let labels: Vec<&str> = decisions.iter().map(|d| d.action.label()).collect();
    assert!(labels.contains(&"shrink"), "{labels:?}");
    assert!(labels.contains(&"collapse"), "{labels:?}");
    // Each shrink halves the range and records the idle window signal.
    let first = &decisions[0];
    assert_eq!(first.action.label(), "shrink");
    assert_eq!(first.orecs_before, 16);
    assert_eq!(first.orecs_after, 8);
    assert_eq!(first.slow_commits, 0);
    assert!(rec.lock_hold().count >= 300);
    assert_eq!(rec.counts().commits[PathKind::Lock.index()], 300);
}

/// A recording adaptive lock decides for as long as it runs: its idle slow
/// path shrinks and collapses, the periodic probe re-enables it, and it
/// shrinks again. The recorder keeps the newest `DECISIONS_KEPT` of those
/// decisions, ending with the newest, and counts the older ones dropped.
/// The same `Adaptation`, stepped beside the lock, names every decision.
#[test]
fn a_long_running_adaptive_lock_keeps_the_newest_decisions() {
    let (lock, rec) = recorded_lock(ElisionPolicy::AdaptiveFgTle {
        initial_orecs: 1024,
        max_orecs: 1024,
    });
    let mut replay = Adaptation {
        active: 1024,
        capacity: 1024,
        initial: 1024,
        enabled: true,
        ..Adaptation::default()
    };
    let mut made = Vec::new();
    // No attempt runs, so the slow path's totals stay (0, 0).
    while made.len() < 3 * DECISIONS_KEPT {
        drop(lock.lock_section());
        made.extend(replay.on_lock_acquired(|| (0, 0)));
    }
    let kept = rec.decisions();
    assert_eq!(kept.len(), DECISIONS_KEPT, "the list stays bounded");
    assert_eq!(
        kept,
        made[made.len() - DECISIONS_KEPT..],
        "the newest, in order"
    );
    assert_eq!(
        rec.decisions_dropped(),
        (made.len() - DECISIONS_KEPT) as u64
    );
}

/// The watchdog's flight record of a real lock names the thread that held
/// it, whichever front door it took: a thread whose body cannot commit in
/// hardware takes the FG-TLE lock through `execute`, another holds it
/// through `lock_section`, and the record carries each holding as a
/// lock-path span, with its epoch bump, on that thread's track.
#[test]
fn a_flight_record_names_the_holders_thread() {
    let (lock, rec) = recorded_lock(ElisionPolicy::FgTle { orecs: 64 });
    let c = TxCell::new(0u64);
    let (executor, sectioner) = std::thread::scope(|s| {
        let executor = s
            .spawn(|| {
                lock.execute(|ctx: &Ctx| {
                    rtle_htm::htm_unfriendly_instruction();
                    ctx.write(&c, ctx.read(&c) + 1);
                });
                Record::tid_of(Writer::current().key())
            })
            .join()
            .unwrap();
        let sectioner = s
            .spawn(|| {
                let section = lock.lock_section();
                section.ctx().write(&c, section.ctx().read(&c) + 1);
                drop(section);
                Record::tid_of(Writer::current().key())
            })
            .join()
            .unwrap();
        (executor, sectioner)
    });
    assert_ne!(executor, sectioner);
    assert_eq!(lock.stats().snapshot().lock_acquisitions, 2);

    let trigger = CollapseEvent {
        kind: CollapseKind::ConvoyStall,
        window_index: 0,
        fallback_rate: 1.0,
        commit_rate: 1.0,
        trailing_commit_rate: 10.0,
        aborts_per_commit: 0.0,
        latency_p99_ns: 0,
    };
    let doc = flight_record(&trigger, &[], &rec);
    let records = doc.get("records").and_then(Json::as_arr).expect("records");
    let on = |holder: u16, name: &str| {
        records.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some(name)
                && e.get("tid").and_then(Json::as_u64) == Some(u64::from(holder))
        })
    };
    for holder in [executor, sectioner] {
        assert!(on(holder, "lock_held"), "{holder}'s span: {records:?}");
        assert!(
            on(holder, "epoch_bump"),
            "and its instant on the same track"
        );
    }
}
