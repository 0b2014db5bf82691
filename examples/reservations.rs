//! A vacation-style reservation system (in the spirit of the STAMP
//! benchmarks), rewritten on composable transactions: a customer AVL set,
//! three capacity tables of [`TxVar`] counters, and a booking hash set,
//! all updated by one `atomically` closure that commits all-or-nothing.
//!
//! Two demonstrations on top of the throughput run:
//!
//! * **Blocking reservations** — `reserve` retries when a
//!   resource is sold out; the reserver *parks* (no spinning) and is
//!   woken by a cancellation's commit, because capacities are `TxVar`s.
//! * **Choice** — `reserve_any_kind` chains `or_else` across the three
//!   resource kinds: book a flight, or a room, or a car, or block until
//!   any of the three frees up (the retry parks on the union of all
//!   three read sets).
//!
//! Invariant: for every resource, `capacity - remaining == live bookings`.
//!
//! ```sh
//! cargo run --release --example reservations [threads] [ops]
//! ```

use std::time::Instant;

use refined_tle::prelude::*;
use rtle_avltree::xorshift64;

const CUSTOMERS: u64 = 512;
const RESOURCES: u64 = 64; // per kind
const CAPACITY: u64 = 32; // units per resource

/// One resource kind: flights, rooms or cars. Capacities are `TxVar`s so
/// sold-out reservers can block on them and cancellations wake them.
struct Table {
    remaining: Vec<TxVar<u64>>,
}

impl Table {
    fn new() -> Self {
        Table {
            remaining: (0..RESOURCES).map(|_| TxVar::new(CAPACITY)).collect(),
        }
    }
}

struct System {
    customers: AvlSet,
    kinds: [Table; 3],
    /// Booking keys: kind << 40 | resource << 20 | customer.
    bookings: TxHashSet,
}

impl System {
    fn new() -> Self {
        let customers = AvlSet::with_key_range(CUSTOMERS);
        {
            let a = PlainAccess;
            for c in 0..CUSTOMERS {
                customers.insert(&a, c);
            }
        }
        System {
            customers,
            kinds: [Table::new(), Table::new(), Table::new()],
            bookings: TxHashSet::with_capacity((3 * RESOURCES * CAPACITY * 4) as usize),
        }
    }

    fn booking_key(kind: u64, resource: u64, customer: u64) -> u64 {
        (kind << 40) | (resource << 20) | customer
    }

    /// One reservation attempt inside a transaction. `Ok(false)` means
    /// "cannot ever succeed as-is" (unknown customer / double booking);
    /// a sold-out resource *retries* — the caller blocks until capacity
    /// returns.
    fn reserve<'e>(
        &'e self,
        tx: &Tx<'e, '_>,
        kind: usize,
        resource: u64,
        customer: u64,
    ) -> TxResult<bool> {
        if !self.customers.contains(tx, customer) {
            return Ok(false);
        }
        let key = Self::booking_key(kind as u64, resource, customer);
        if self.bookings.contains(tx, key) {
            return Ok(false); // already booked
        }
        let cell = &self.kinds[kind].remaining[resource as usize];
        let left = tx.read(cell);
        tx.check(left > 0)?; // sold out: park until a cancellation commits
        tx.write(cell, left - 1);
        self.bookings.insert(tx, key);
        Ok(true)
    }

    /// Cancels a booking; returns whether one existed. Committing this
    /// wakes reservers blocked on the freed capacity.
    fn cancel<'e>(
        &'e self,
        tx: &Tx<'e, '_>,
        kind: usize,
        resource: u64,
        customer: u64,
    ) -> TxResult<bool> {
        let key = Self::booking_key(kind as u64, resource, customer);
        if !self.bookings.remove(tx, key) {
            return Ok(false);
        }
        let cell = &self.kinds[kind].remaining[resource as usize];
        let left = tx.read(cell);
        tx.write(cell, left + 1);
        Ok(true)
    }

    /// Books `resource` in *any* kind for `customer`: flight, or room, or
    /// car — or blocks until one of the three frees up. The `or_else`
    /// chain rolls back each sold-out branch and parks on the union of
    /// all three capacity vars.
    fn reserve_any_kind<'e>(
        &'e self,
        tx: &Tx<'e, '_>,
        resource: u64,
        customer: u64,
    ) -> TxResult<usize> {
        tx.or_else(
            |tx| self.reserve(tx, 0, resource, customer).map(|_| 0),
            |tx| {
                tx.or_else(
                    |tx| self.reserve(tx, 1, resource, customer).map(|_| 1),
                    |tx| self.reserve(tx, 2, resource, customer).map(|_| 2),
                )
            },
        )
    }

    /// Global invariant check (quiescent).
    fn check(&self) {
        let bookings = self.bookings.keys_plain();
        for (kind, table) in self.kinds.iter().enumerate() {
            for r in 0..RESOURCES {
                let used = CAPACITY - table.remaining[r as usize].read_plain();
                let recorded = bookings
                    .iter()
                    .filter(|&&k| k >> 40 == kind as u64 && (k >> 20) & 0xfffff == r)
                    .count() as u64;
                assert_eq!(
                    used, recorded,
                    "kind {kind} resource {r}: {used} used vs {recorded} booked"
                );
            }
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let ops: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(40_000);

    throughput(threads, ops);
    blocking_demo();
    choice_demo();
}

/// Mixed reserve/cancel throughput across space configurations.
fn throughput(threads: usize, ops: u64) {
    println!("reservations: {threads} threads x {ops} ops, 3 kinds x {RESOURCES} resources\n");
    println!(
        "{:<18}{:>12}{:>8}{:>8}{:>8}{:>10}",
        "space", "ops/ms", "spec", "sw", "locked", "booked"
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
        let sys = System::new();
        let t0 = Instant::now();

        std::thread::scope(|scope| {
            let (space, sys) = (&space, &sys);
            for t in 0..threads {
                scope.spawn(move || {
                    let mut rng = 0x7ab1e ^ (t as u64 + 1);
                    for _ in 0..ops {
                        let r = xorshift64(&mut rng);
                        let kind = (r % 3) as usize;
                        let resource = (r >> 8) % RESOURCES;
                        let customer = (r >> 24) % CUSTOMERS;
                        if (r >> 60).is_multiple_of(4) {
                            space.atomically(|tx| sys.cancel(tx, kind, resource, customer));
                        } else {
                            // Throughput mode must not block on sold-out
                            // resources: or_else turns the retry into a no.
                            space.atomically(|tx| {
                                tx.or_else(
                                    |tx| sys.reserve(tx, kind, resource, customer),
                                    |_| Ok(false),
                                )
                            });
                        }
                    }
                });
            }
        });

        let elapsed = t0.elapsed();
        sys.check();
        let snap = space.stats().snapshot();
        println!(
            "{:<18}{:>12.1}{:>8}{:>8}{:>8}{:>10}",
            label,
            (threads as u64 * ops) as f64 / elapsed.as_secs_f64() / 1e3,
            snap.commits_spec,
            snap.commits_sw,
            snap.commits_locked,
            sys.bookings.len_plain()
        );
    }
    println!("\nall invariants held (capacity used == live bookings for every resource).");
}

/// Oversubscribe one resource: CAPACITY + 8 reservers compete for
/// CAPACITY slots, block, and a canceller frees slots one by one. Every
/// blocked reserver is parked (no spinning) and woken by a commit.
fn blocking_demo() {
    let space = Stm::new();
    let sys = System::new();
    const WAITERS: u64 = CAPACITY + 8;

    std::thread::scope(|scope| {
        let (space, sys) = (&space, &sys);
        for customer in 0..WAITERS {
            scope.spawn(move || {
                space.atomically(|tx| sys.reserve(tx, 0, 7, customer));
            });
        }
        scope.spawn(move || {
            // Free 8 slots with distinct cancellations once the table
            // has sold out (each commit wakes the parked reservers).
            let mut cancelled = 0u64;
            let mut probe = 0u64;
            while cancelled < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let customer = probe % WAITERS;
                probe += 1;
                if space.atomically(|tx| sys.cancel(tx, 0, 7, customer)) {
                    cancelled += 1;
                }
            }
        });
    });

    sys.check();
    let snap = space.stats().snapshot();
    assert_eq!(
        sys.kinds[0].remaining[7].read_plain(),
        0,
        "every freed slot was re-booked"
    );
    println!(
        "\nblocking demo: {WAITERS} reservers on {CAPACITY} slots — parks={} notified-wakes={} \
         (blocked reservers slept, cancellations woke them)",
        snap.parks, snap.wakes_notified
    );
}

/// `or_else` choice across resource kinds.
fn choice_demo() {
    let space = Stm::new();
    let sys = System::new();

    // Sell out resource 3 of kinds 0 and 1 entirely.
    for kind in 0..2 {
        for customer in 0..CAPACITY {
            space.atomically(|tx| sys.reserve(tx, kind, 3, customer));
        }
    }
    // The chooser must land on kind 2 (flights and rooms are gone).
    let kind = space.atomically(|tx| sys.reserve_any_kind(tx, 3, 500));
    sys.check();
    assert_eq!(kind, 2, "or_else chain fell through to the last kind");
    println!("choice demo: flight/room sold out, or_else booked kind {kind} (car).");
}
