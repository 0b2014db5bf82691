//! [`Shard`]: one shard's lock and the map it guards, and the one way to
//! hold several shards' locks at once.
//!
//! # The map is reachable only with its lock
//!
//! A shard's `lock` and `map` are private to this module. Code outside
//! reaches the map in three ways, each of which covers it by the shard's
//! lock:
//!
//! * [`Shard::execute`] — the speculation ladder: the closure receives the
//!   map with the `Ctx` of the attempt `ElidableLock::execute` runs it in;
//! * [`with_shards_locked`] — the pessimistic lock-holder path: the closure
//!   receives each held shard's map with the `Ctx` of its held section;
//! * [`Shard::parts`] — the lock and the map together, the enrollment
//!   entry point `ShardedTxMap::shard_parts` hands to `rtle-stm`, which
//!   enrolls the lock in the transaction before every access it routes.
//!
//! # Lock order
//!
//! [`with_shards_locked`] sorts and dedups the shard indices it is given,
//! then takes the locks in ascending index order. It is the crate's only
//! caller of `ElidableLock::lock_section` — the crate's `clippy.toml`
//! disallows the method everywhere else — so no section can hold two shard
//! locks taken in any other order, and a thread only ever waits for a shard
//! whose index is above every index it holds: a wait-for cycle would need
//! an index descent.

// Hot path, no `unwrap` or `panic!` outside tests: every sharded-map call
// reaches its shard through here.
#![warn(clippy::unwrap_used, clippy::panic)]

use rtle_core::{Ctx, ElidableLock, LockedSection};
use rtle_htm::lanes::Lanes;
use rtle_htm::TxWord;

use crate::map::TxMap;

/// One shard: an [`ElidableLock`] and the [`TxMap`] it guards.
pub(crate) struct Shard<V: TxWord> {
    lock: ElidableLock,
    map: TxMap<V>,
    /// Operations routed to this shard (single-key, batched, and
    /// cross-shard legs all count): an advisory load metric every routed
    /// op of every thread bumps, so it is a counter lane set of its own —
    /// no line shared with the read-mostly lock and map headers beside
    /// it, nor with another thread's bumps.
    pub(crate) routed: Lanes<1>,
}

impl<V: TxWord + Default> Shard<V> {
    /// A shard of `capacity` slots guarded by `lock`.
    pub(crate) fn new(lock: ElidableLock, capacity: usize) -> Self {
        Shard {
            lock,
            map: TxMap::with_capacity(capacity),
            routed: Lanes::new(),
        }
    }
}

impl<V: TxWord> Shard<V> {
    /// The shard's lock, for its statistics, heatmap, recorder and
    /// backend.
    pub(crate) fn lock(&self) -> &ElidableLock {
        &self.lock
    }

    /// The map's slot count, fixed at construction.
    pub(crate) fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Runs `cs` over the map on the shard lock's speculation ladder.
    #[inline]
    pub(crate) fn execute<R>(&self, cs: impl Fn(&TxMap<V>, &Ctx<'_>) -> R) -> R {
        self.lock.execute(|ctx| cs(&self.map, ctx))
    }

    /// The lock and the map, for a caller that enrolls the lock before it
    /// touches the map (see the module docs).
    pub(crate) fn parts(&self) -> (&ElidableLock, &TxMap<V>) {
        (&self.lock, &self.map)
    }
}

/// The shards a [`with_shards_locked`] section holds.
pub(crate) struct Held<'h, 'a, V: TxWord> {
    shards: &'a [Shard<V>],
    /// The held shards' indices: ascending, distinct, parallel to
    /// `sections`.
    idxs: &'h [usize],
    sections: &'h [LockedSection<'a>],
}

impl<'h, 'a, V: TxWord> Held<'h, 'a, V> {
    /// Shard `idx`'s map and the `Ctx` of its held section.
    ///
    /// # Panics
    ///
    /// Panics if the section does not hold shard `idx`.
    pub(crate) fn shard(&self, idx: usize) -> (&'a TxMap<V>, &'h Ctx<'a>) {
        let at = self
            .idxs
            .binary_search(&idx)
            .expect("a section is asked only for the shards it holds");
        (&self.shards[idx].map, self.sections[at].ctx())
    }

    /// Every held shard's index, map and section `Ctx`, in ascending
    /// index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &'a TxMap<V>, &'h Ctx<'a>)> + '_ {
        self.idxs
            .iter()
            .zip(self.sections)
            .map(|(&i, s)| (i, &self.shards[i].map, s.ctx()))
    }
}

/// Runs `f` with the lock of every shard in `idxs` held, on the
/// instrumented lock-holder path: sorts and dedups `idxs` in place (the
/// first `n` entries end up the distinct indices, ascending), then takes
/// the locks in ascending index order (the module docs' deadlock-freedom
/// argument). One or two shards hold their sections in an array; only a
/// wider set allocates a `Vec`. Either way the sections drop front to
/// back, so the locks are released in ascending order as well: release
/// order does not matter for deadlock freedom, only acquisition order
/// does.
///
/// # Panics
///
/// Panics if an index is not below `shards.len()`.
#[expect(
    clippy::disallowed_methods,
    reason = "the one place shard locks are taken, after sorting their indices"
)]
pub(crate) fn with_shards_locked<V: TxWord, R>(
    shards: &[Shard<V>],
    idxs: &mut [usize],
    f: impl FnOnce(&Held<'_, '_, V>) -> R,
) -> R {
    idxs.sort_unstable();
    let mut n = usize::from(!idxs.is_empty());
    for j in 1..idxs.len() {
        if idxs[j] != idxs[n - 1] {
            idxs[n] = idxs[j];
            n += 1;
        }
    }
    let idxs = &idxs[..n];
    let enter = |i: usize| shards[i].lock.lock_section();
    let run = |sections: &[LockedSection<'_>]| {
        f(&Held {
            shards,
            idxs,
            sections,
        })
    };
    match *idxs {
        [i] => run(&[enter(i)]),
        [lo, hi] => run(&[enter(lo), enter(hi)]),
        _ => run(&idxs.iter().map(|&i| enter(i)).collect::<Vec<_>>()),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use rtle_core::ElisionPolicy;
    use rtle_htm::PlainAccess;

    use super::*;

    fn shards(n: usize) -> Vec<Shard<u64>> {
        (0..n)
            .map(|_| Shard::new(ElidableLock::builder().build(), 16))
            .collect()
    }

    #[test]
    fn a_section_holds_each_listed_shard_once_in_ascending_order() {
        let shards = shards(4);
        let mut idxs = [3, 1, 3, 0, 1];
        let held: Vec<usize> = with_shards_locked(&shards, &mut idxs, |held| {
            held.iter().map(|(i, ..)| i).collect()
        });
        assert_eq!(held, [0, 1, 3]);
        assert_eq!(idxs[..3], [0, 1, 3], "the distinct indices lead, sorted");
        // Each listed shard's map is written under its own section.
        with_shards_locked(&shards, &mut [2, 0], |held| {
            for i in [2, 0] {
                let (map, ctx) = held.shard(i);
                map.insert(ctx, i as u64, 10 + i as u64);
            }
        });
        for (i, (s, sections)) in shards.iter().zip([2, 1, 1, 1]).enumerate() {
            let want = (i % 2 == 0).then_some(10 + i as u64);
            assert_eq!(s.map.get(&PlainAccess, i as u64), want, "shard {i}");
            assert_eq!(s.lock.stats().snapshot().lock_acquisitions, sections);
        }
    }

    /// Two threads lock the same two shards, one listing them `[a, b]`
    /// and the other `[b, a]`. Taken in the listed order, each would soon
    /// hold one lock while it waits for the other's; sorted, they never
    /// wait on each other in a cycle. The main thread hears from them
    /// through a channel with a deadline, so a deadlock fails the test
    /// instead of hanging it (the two stuck threads are left behind).
    #[test]
    fn opposite_orders_of_two_shards_never_deadlock() {
        const ITERS: u64 = 10_000;
        let shards: Arc<[Shard<u64>]> = (0..2)
            .map(|_| {
                Shard::new(
                    ElidableLock::builder()
                        .policy(ElisionPolicy::LockOnly)
                        .build(),
                    16,
                )
            })
            .collect();
        let (done, finished) = mpsc::channel();
        let workers: Vec<_> = [[0, 1], [1, 0]]
            .into_iter()
            .map(|order| {
                let (shards, done) = (Arc::clone(&shards), done.clone());
                std::thread::spawn(move || {
                    for n in 0..ITERS {
                        let mut idxs = order;
                        with_shards_locked(&shards, &mut idxs, |held| {
                            for i in order {
                                let (map, ctx) = held.shard(i);
                                map.insert(ctx, order[0] as u64, n);
                            }
                        });
                    }
                    done.send(()).expect("the test thread waits for both");
                })
            })
            .collect();
        // With only the workers' senders left, a worker that panics ends
        // the wait early instead of reading as a deadlock.
        drop(done);
        let deadline = Instant::now() + Duration::from_secs(10);
        for _ in 0..2 {
            let left = deadline.saturating_duration_since(Instant::now());
            match finished.recv_timeout(left) {
                Ok(()) => {}
                Err(RecvTimeoutError::Timeout) => {
                    panic!("two sections that list the same shards in opposite orders deadlocked")
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for w in workers {
            w.join().expect("a worker panicked");
        }
        for s in shards.iter() {
            assert_eq!(s.lock.stats().snapshot().lock_acquisitions, 2 * ITERS);
        }
    }
}
