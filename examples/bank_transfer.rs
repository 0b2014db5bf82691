//! The paper's bank-accounts corner case (§6.3), rewritten on the
//! composable-transaction front door: every transfer is one `atomically`
//! block over [`TxVar`] accounts, and the same closure commits through
//! hardware speculation, the software TM, or pessimistic locking as the
//! space's ladder decides. `or_else` expresses the overdraft policy
//! (transfer the full amount, or fall back to draining what's there)
//! without any method-specific code.
//!
//! ```sh
//! cargo run --release --example bank_transfer [threads] [transfers]
//! ```

use std::time::Instant;

use refined_tle::prelude::*;
use rtle_avltree::xorshift64;

const ACCOUNTS: u64 = 256;
const INITIAL: u64 = 1_000;

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let transfers: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(50_000);

    println!("bank: {ACCOUNTS} accounts, {threads} threads x {transfers} transfers\n");
    println!(
        "{:<18}{:>12}{:>8}{:>8}{:>8}{:>14}",
        "space", "ops/ms", "spec", "sw", "locked", "total-after"
    );

    for (label, space) in [
        (
            "LockOnly",
            Stm::builder()
                .policy(ElisionPolicy::LockOnly)
                .software_backend(None)
                .build(),
        ),
        ("Tle", Stm::builder().policy(ElisionPolicy::Tle).build()),
        ("RwTle", Stm::builder().policy(ElisionPolicy::RwTle).build()),
        (
            "FgTle(1024)+norec",
            Stm::builder()
                .policy(ElisionPolicy::FgTle { orecs: 1024 })
                .build(),
        ),
    ] {
        let accounts: Vec<TxVar<u64>> = (0..ACCOUNTS).map(|_| TxVar::new(INITIAL)).collect();
        let t0 = Instant::now();

        std::thread::scope(|scope| {
            let (space, accounts) = (&space, &accounts);
            for t in 0..threads {
                scope.spawn(move || {
                    let mut rng = 0xaced ^ (t as u64 + 1);
                    for _ in 0..transfers {
                        let r = xorshift64(&mut rng);
                        let from = r % ACCOUNTS;
                        let mut to = (r >> 24) % ACCOUNTS;
                        if to == from {
                            to = (to + 1) % ACCOUNTS;
                        }
                        let amt = (r >> 48) % 10;
                        space.atomically(|tx| {
                            tx.or_else(
                                // Preferred: the full transfer, if funded.
                                |tx| {
                                    let f = tx.read(&accounts[from as usize]);
                                    tx.check(f >= amt)?;
                                    tx.write(&accounts[from as usize], f - amt);
                                    let t = tx.read(&accounts[to as usize]);
                                    tx.write(&accounts[to as usize], t + amt);
                                    Ok(amt)
                                },
                                // Fallback: drain whatever is there. The
                                // abandoned branch's writes rolled back.
                                |tx| {
                                    let f = tx.read(&accounts[from as usize]);
                                    tx.write(&accounts[from as usize], 0);
                                    let t = tx.read(&accounts[to as usize]);
                                    tx.write(&accounts[to as usize], t + f);
                                    Ok(f)
                                },
                            )
                        });
                    }
                });
            }
        });

        let elapsed = t0.elapsed();
        let total: u64 = accounts.iter().map(|a| a.read_plain()).sum();
        assert_eq!(total, ACCOUNTS * INITIAL, "{label}: money not conserved!");
        let snap = space.stats().snapshot();
        let ops = threads as u64 * transfers;
        println!(
            "{:<18}{:>12.1}{:>8}{:>8}{:>8}{:>14}",
            label,
            ops as f64 / elapsed.as_secs_f64() / 1e3,
            snap.commits_spec,
            snap.commits_sw,
            snap.commits_locked,
            total
        );
    }
    println!(
        "\nconservation held on every space (sum == {} for all).",
        ACCOUNTS * INITIAL
    );
}
