//! Quickstart: protect a shared structure with an elidable lock and watch
//! where the executions actually ran.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use refined_tle::prelude::*;

fn main() {
    // A lock running the paper's FG-TLE algorithm with 256 ownership
    // records. Swap the policy to compare: LockOnly, Tle, RwTle,
    // FgTle { orecs }, AdaptiveFgTle { .. }.
    let lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 256 })
            .build(),
    );

    // Shared data lives in TxCells so the (software-emulated) HTM can
    // track it on every path.
    let hits = Arc::new(TxCell::new(0u64));
    let misses = Arc::new(TxCell::new(0u64));

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let lock = Arc::clone(&lock);
            let hits = Arc::clone(&hits);
            let misses = Arc::clone(&misses);
            scope.spawn(move || {
                for i in 0..50_000u64 {
                    // Each critical section reads and updates both counters
                    // atomically. `ctx` routes every access through the
                    // right barrier for the path this execution runs on
                    // (fast HTM, instrumented slow HTM, or under the lock).
                    lock.execute(|ctx| {
                        if (i * 2654435761 + t) % 3 == 0 {
                            let h = ctx.read(&hits);
                            ctx.write(&hits, h + 1);
                        } else {
                            let m = ctx.read(&misses);
                            ctx.write(&misses, m + 1);
                        }
                    });
                }
            });
        }
    });

    let total = hits.read_plain() + misses.read_plain();
    assert_eq!(total, 4 * 50_000, "no update was lost");

    let snap = lock.stats().snapshot();
    println!("executed {total} critical sections");
    println!("  fast HTM commits : {}", snap.fast_commits);
    println!(
        "  slow HTM commits : {} (ran concurrently with a lock holder)",
        snap.slow_commits
    );
    println!("  lock acquisitions: {}", snap.lock_acquisitions);
    println!(
        "  HTM aborts       : {}",
        snap.fast_aborts + snap.slow_aborts
    );
    println!("  time under lock  : {:?}", snap.time_locked);
    println!(
        "  fallback rate    : {:.4}%",
        snap.lock_fallback_rate() * 100.0
    );
}
