//! The paper's AVL micro-benchmark (§6.2), run for real on the software
//! HTM: a shared set under a configurable operation mix, compared across
//! synchronization methods.
//!
//! ```sh
//! cargo run --release --example avl_set [key_range] [update_pct] [threads] [secs]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use refined_tle::prelude::*;
use rtle_avltree::xorshift64;
use rtle_htm::atomic::StopFlag;

fn main() {
    let mut args = std::env::args().skip(1);
    let key_range: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8192);
    let update_pct: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let secs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    println!(
        "AVL set: {key_range} keys, {update_pct}% insert + {update_pct}% remove, \
         {threads} threads, {secs}s per method\n"
    );
    println!(
        "{:<18}{:>12}{:>10}{:>10}{:>10}{:>12}",
        "method", "ops/ms", "fast", "slow", "locked", "fallback%"
    );

    for policy in [
        ElisionPolicy::LockOnly,
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 16 },
        ElisionPolicy::FgTle { orecs: 1024 },
        ElisionPolicy::AdaptiveFgTle {
            initial_orecs: 64,
            max_orecs: 8192,
        },
    ] {
        run_one(policy, key_range, update_pct, threads, secs);
    }
}

fn run_one(policy: ElisionPolicy, key_range: u64, update_pct: u64, threads: usize, secs: u64) {
    let set = Arc::new(AvlSet::with_key_range(key_range));
    {
        let a = PlainAccess;
        for k in (0..key_range).step_by(2) {
            set.insert(&a, k);
        }
    }
    let lock = Arc::new(ElidableLock::builder().policy(policy).build());
    let stop = Arc::new(StopFlag::new());
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        for t in 0..threads {
            let set = Arc::clone(&set);
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut rng = 0xbeef ^ (t as u64 + 1);
                while !stop.is_raised() {
                    let r = xorshift64(&mut rng);
                    let key = (r >> 16) % key_range;
                    let pct = r % 100;
                    lock.execute(|ctx| {
                        if pct < update_pct {
                            set.insert(ctx, key);
                        } else if pct < 2 * update_pct {
                            set.remove(ctx, key);
                        } else {
                            set.contains(ctx, key);
                        }
                    });
                }
            });
        }
        std::thread::sleep(Duration::from_secs(secs));
        stop.raise();
    });

    let elapsed = t0.elapsed();
    set.check_invariants_plain().expect("tree intact after run");
    let snap = lock.stats().snapshot();
    println!(
        "{:<18}{:>12.1}{:>10}{:>10}{:>10}{:>11.3}%",
        policy.label(),
        snap.ops_per_ms(elapsed),
        snap.fast_commits,
        snap.slow_commits,
        snap.lock_acquisitions,
        snap.lock_fallback_rate() * 100.0
    );
}
