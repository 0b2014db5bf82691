//! Stress test for windows-as-differences: 8 writers hammer a windowed
//! [`Recorder`] while a rotator closes a window every millisecond. The
//! invariants under test are the module's core claims:
//!
//! * **conservation** — once writers quiesce and the tail window is
//!   closed, the field-wise sum over all closed windows equals exactly
//!   what the writers recorded, which is also exactly what the
//!   cumulative reading reports: every counter and every latency bucket;
//! * **merged == sum of lanes** — every rotation's merged window is the
//!   field-wise sum of its per-lane shares.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use rtle_htm::lanes::{Writer, LANES};
use rtle_htm::AbortCode;
use rtle_obs::window::WindowCounts;
use rtle_obs::{AttemptEvent, HistSnapshot, Histogram, ObsConfig, PathKind, RecordKind, Recorder};

const WRITERS: u64 = 8;
const OPS_PER_WRITER: u64 = 40_000;

#[test]
#[cfg_attr(
    miri,
    ignore = "timing-sensitive 8-writer stress: rotator paces on wall-clock sleeps"
)]
fn no_samples_lost_across_rotations() {
    let rec = Arc::new(Recorder::new(ObsConfig {
        window_len_ms: 1,
        window_series_cap: 1 << 16,
        ..ObsConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    // Rotations so far: every writer waits for one between the two halves
    // of its work, so the work spans windows however the threads are run.
    let rotated = Arc::new(AtomicU64::new(0));

    // The rotator: close a window every millisecond-ish tick (throttled so
    // the bounded series can provably retain every window), checking the
    // merged-equals-lane-sum invariant on every single rotation.
    let rotator = {
        let rec = Arc::clone(&rec);
        let stop = Arc::clone(&stop);
        let rotated = Arc::clone(&rotated);
        std::thread::spawn(move || {
            let mut rotations = 0u64;
            while !stop.load(Relaxed) {
                let rot = rec.windows().unwrap().rotate();
                assert_eq!(rot.per_lane.len(), LANES + 1);
                let mut sum = WindowCounts::default();
                for lane in &rot.per_lane {
                    sum.merge(lane);
                }
                assert_eq!(rot.merged.counts, sum, "rotation {rotations}");
                rotations += 1;
                rotated.store(rotations, Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            rotations
        })
    };

    // Each writer keeps its own ground-truth latency histogram.
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let rec = Arc::clone(&rec);
            let rotated = Arc::clone(&rotated);
            std::thread::spawn(move || {
                let truth = Histogram::new();
                let me = Writer::current();
                for i in 0..OPS_PER_WRITER {
                    if i == OPS_PER_WRITER / 2 {
                        let seen = rotated.load(Relaxed);
                        while rotated.load(Relaxed) == seen {
                            std::thread::yield_now();
                        }
                    }
                    let ev = if i % 5 == 4 {
                        AttemptEvent {
                            path: PathKind::SlowHtm,
                            abort: Some(AbortCode::Explicit(4)),
                            attempt: 1,
                            latency: 0,
                        }
                    } else {
                        AttemptEvent {
                            path: PathKind::FastHtm,
                            abort: None,
                            attempt: 0,
                            latency: i % 512,
                        }
                    };
                    rec.record(me, i, RecordKind::Attempt(ev));
                    let latency = 100 + (i * 7 + t) % 10_000;
                    rec.record_op_latency(me, latency);
                    truth.record(latency);
                }
                truth.snapshot()
            })
        })
        .collect();
    let truths: Vec<HistSnapshot> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    let truth = HistSnapshot::merged(&truths);

    stop.store(true, Relaxed);
    let rotations = rotator.join().unwrap();
    // Writers have quiesced; one more rotation closes the tail window.
    let windows = rec.windows().unwrap();
    windows.rotate();
    assert_eq!(
        windows.rotate().merged.counts,
        WindowCounts::default(),
        "nothing left over"
    );

    let series = windows.series();
    assert!(
        windows.series_dropped() == 0,
        "series cap must hold every window for this accounting"
    );
    let mut all = WindowCounts::default();
    for w in &series {
        all.merge(&w.counts);
    }
    let total_ops = WRITERS * OPS_PER_WRITER;
    assert_eq!(
        all.latency.count, total_ops,
        "lost or duplicated latency samples across {rotations} live rotations"
    );
    assert_eq!(all.commits, [total_ops / 5 * 4, 0, 0, 0], "lost commits");
    assert_eq!(
        all.aborts[AbortCode::Explicit(4).index()],
        total_ops / 5,
        "lost explicit aborts"
    );
    assert_eq!(all.explicit[4], total_ops / 5, "lost explicit-code counts");
    assert!(
        series.iter().map(|w| w.ops()).max().unwrap() < total_ops,
        "sanity: the work actually spread across windows"
    );

    // Every latency bucket and the value sum telescope to the writers'
    // ground truth; a window's `max` is the floor of its top bucket.
    assert_eq!(all.latency.buckets, truth.buckets);
    assert_eq!(all.latency.total, truth.total);
    assert_eq!(all.latency.max, truth.buckets.last().unwrap().0);

    // ... and the windows were cut from the same counters the cumulative
    // reading reports, each event counted once.
    let cumulative = rec.counts();
    assert_eq!(cumulative.commits, all.commits);
    assert_eq!(cumulative.aborts, all.aborts);
    assert_eq!(cumulative.explicit, all.explicit);
    assert_eq!(rec.cs_latency().count, all.total_commits());
    assert_eq!(cumulative.attempts(), total_ops);

    // Window indexes are the rotation count, strictly consecutive.
    for (i, pair) in series.windows(2).enumerate() {
        assert_eq!(pair[1].index, pair[0].index + 1, "gap after window {i}");
    }
}

#[test]
fn merged_window_equals_sum_of_per_thread_windows() {
    // Deterministic single-threaded shape check: distinct per-thread
    // loads land in distinct lanes (direct key selection) and the merged
    // window is exactly their sum.
    let rec = Recorder::new(ObsConfig {
        window_len_ms: 1_000,
        window_series_cap: 16,
        ..ObsConfig::default()
    });
    for t in 0..WRITERS {
        let by = Writer::keyed(t);
        for i in 0..(t + 1) * 10 {
            let ev = AttemptEvent {
                path: PathKind::FastHtm,
                abort: None,
                attempt: 0,
                latency: i,
            };
            rec.record(by, 0, RecordKind::Attempt(ev));
            rec.record_op_latency(by, 1_000 * (t + 1));
        }
    }
    let rot = rec.windows().unwrap().rotate();
    let mut sum = WindowCounts::default();
    for (t, lane) in rot.per_lane.iter().enumerate() {
        let expected = if (t as u64) < WRITERS {
            (t as u64 + 1) * 10
        } else {
            0
        };
        assert_eq!(
            lane.commits[0], expected,
            "lane {t} holds exactly its thread's commits"
        );
        assert_eq!(lane.latency.count, expected);
        sum.merge(lane);
    }
    assert_eq!(rot.merged.counts, sum);
    assert_eq!(rot.merged.ops(), (1..=WRITERS).map(|t| t * 10).sum::<u64>());
}
