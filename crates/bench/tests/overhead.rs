//! Acceptance check: recording must be pay-for-what-you-use. A recorder,
//! which records every operation, must stay under a fixed per-operation
//! price over the same lock without one.

use rtle_core::{Ctx, ElidableLock, ElisionPolicy};
use rtle_htm::TxCell;
use rtle_obs::{ObsConfig, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Batches used for the median estimate.
const BATCHES: usize = 7;

/// Minimum wall time per batch during calibration.
const MIN_BATCH_NANOS: u128 = 1_000_000; // 1 ms

/// Measures `op` and returns the median ns/op over [`BATCHES`] batches,
/// after calibrating the per-batch iteration count to at least 1 ms of
/// wall time (so timer granularity is irrelevant).
fn measure_ns<F: FnMut()>(mut op: F) -> f64 {
    // Calibrate: double the batch size until a batch takes >= 1 ms.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        let el = t.elapsed().as_nanos();
        if el >= MIN_BATCH_NANOS || iters >= 1 << 28 {
            break;
        }
        // Jump close to the target, then keep doubling conservatively.
        let scale = (MIN_BATCH_NANOS / el.max(1)).clamp(2, 1 << 10) as u64;
        iters = iters.saturating_mul(scale);
    }
    let mut samples = [0f64; BATCHES];
    for s in &mut samples {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        *s = t.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[BATCHES / 2]
}

#[test]
fn measures_something_positive() {
    let mut x = 0u64;
    let ns = measure_ns(|| x = std::hint::black_box(x).wrapping_add(1));
    assert!(ns > 0.0 && ns < 1e6, "implausible ns/op: {ns}");
}

/// Not inlined, so every lock is measured through the same machine code.
#[inline(never)]
fn rmw_ns(lock: &ElidableLock) -> f64 {
    let cell = TxCell::new(0u64);
    measure_ns(|| {
        lock.execute(|ctx: &Ctx| {
            let v = ctx.read(&cell);
            ctx.write(&cell, v + 1);
        });
    })
}

/// Paired rounds of the recorder tripwire.
const ROUNDS: usize = 9;

#[test]
fn disabled_recording_adds_no_measurable_overhead() {
    // Each round measures the bare lock and the recorded one back to
    // back, so the two sides of a difference share the host's state of
    // that moment; the median of the per-round differences then ignores
    // the rounds a burst of host noise hit on one side only. (A minimum
    // of each side over the rounds, subtracted, can pair a lucky bare
    // round with an unlucky recorded one.)
    let mut taxes: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let lock = ElidableLock::builder().policy(ElisionPolicy::Tle).build();
            let bare = rmw_ns(&lock);
            let lock = ElidableLock::builder()
                .policy(ElisionPolicy::Tle)
                .recorder(Arc::new(Recorder::new(ObsConfig::default())))
                .build();
            rmw_ns(&lock) - bare
        })
        .collect();
    taxes.sort_by(f64::total_cmp);
    let tax = taxes[ROUNDS / 2];
    // The fixed price of recording every operation: two reads of the
    // telemetry clock (one `rdtsc` each on an invariant TSC), plain stores
    // to the lane's counter and two histograms, one two-word ring push —
    // all on the recording thread's own lane, with no locked instruction;
    // 55–95 ns on a 2-core Xeon VM. A tripwire, not a tuning target: `obs.recorder_tax_ns` in
    // `benchmark/` is the measurement. Only meaningful in optimized builds
    // (debug keeps every call frame).
    if !cfg!(debug_assertions) {
        assert!(
            tax < 100.0,
            "every-op recording costs too much: median {tax:.1} ns over {ROUNDS} paired rounds {taxes:.1?}"
        );
    }
}
