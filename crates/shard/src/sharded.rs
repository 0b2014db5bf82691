//! [`ShardedTxMap`]: the sharded transactional map.
//!
//! # Routing
//!
//! Keys route to shards by the *high* bits of the Thomas Wang mix
//! (`wang_mix64(key) >> (64 - shard_bits)`), while each shard's [`TxMap`]
//! indexes its probe chains with the *low* bits of the same mix. Using
//! disjoint bit ranges keeps the two hash layers independent: conditioning
//! on "key landed in shard s" does not bias the in-shard slot
//! distribution (reusing the low bits for both would collapse each
//! shard's table onto a 1/`shards` stride of its slots).
//!
//! # Concurrency
//!
//! Each shard owns a full [`ElidableLock`] — its own lock word, orec
//! table, epoch, and adaptive policy — so the paper's refined-TLE
//! concurrency story applies *per shard*: a lock holder in shard 3
//! serializes nothing in shard 5, and even within shard 3 the
//! instrumented slow path keeps committing non-conflicting operations
//! alongside the holder (§3/§4).
//!
//! # Cross-shard transactions and deadlock freedom
//!
//! Multi-key operations that span shards ([`ShardedTxMap::multi_get`],
//! [`ShardedTxMap::transfer`], [`ShardedTxMap::compare_and_swap_pair`])
//! acquire every involved shard's lock **pessimistically, in ascending
//! shard-index order**, through the crate's one multi-shard section
//! constructor, which sorts the indices it is given before it takes any
//! lock ([`ElidableLock::lock_section`] is called nowhere else in the
//! crate, and its `clippy.toml` disallows the method elsewhere). Deadlock
//! freedom is the classical total-order argument: a thread only ever
//! blocks on a shard index strictly greater than every index it already
//! holds, so any wait-for cycle would need an index descent — impossible.
//! Taking the instrumented lock-holder path (rather than attempting a
//! multi-lock hardware transaction) is deliberate: best-effort HTM gives
//! no progress guarantee, and obstruction-free multi-lock commit would
//! re-introduce unbounded mutual aborts; the ordered pessimistic spine
//! always completes in one attempt (§4.1's property), while single-shard
//! traffic on the same shards keeps speculating concurrently on the
//! instrumented slow path.

// Hot path, no `unwrap` or `panic!` outside tests: every sharded-map call is
// routed through here.
#![warn(clippy::unwrap_used, clippy::panic)]

use rtle_core::{Ctx, ElidableLock, ElidableLockBuilder, ElisionPolicy};
use rtle_htm::hash::wang_mix64;
use rtle_htm::TxWord;

use crate::batch::with_scratch;
use crate::map::TxMap;
use crate::shard::{with_shards_locked, Held, Shard};

/// Default orecs per shard for [`ShardedTxMap::new`]: small, because each
/// shard's conflict domain is already 1/`shards` of the key space —
/// PAPERS.md's "progressive TM" point that small per-domain conflict
/// tables beat one big one.
pub const DEFAULT_ORECS_PER_SHARD: usize = 128;

/// A transactional `u64 → V` map partitioned over `shards` independent
/// [`ElidableLock`]-protected [`TxMap`]s. See the module docs for the
/// routing, concurrency, and deadlock-freedom design.
pub struct ShardedTxMap<V: TxWord = u64> {
    pub(crate) shards: Box<[Shard<V>]>,
    /// `64 - log2(shards)`; shard index = `wang_mix64(key) >> shift`.
    shift: u32,
}

/// Outcome of [`ShardedTxMap::transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// The debited account does not exist.
    MissingFrom,
    /// The credited account does not exist.
    MissingTo,
    /// The debited account's balance is below the transfer amount.
    Insufficient {
        /// Balance found at transfer time.
        balance: u64,
    },
    /// The credit would overflow the destination balance.
    Overflow,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::MissingFrom => write!(f, "debited account missing"),
            TransferError::MissingTo => write!(f, "credited account missing"),
            TransferError::Insufficient { balance } => {
                write!(f, "insufficient balance {balance}")
            }
            TransferError::Overflow => write!(f, "credit overflows destination"),
        }
    }
}

impl ShardedTxMap<u64> {
    /// A map with `shards` shards (power of two) of `capacity_per_shard`
    /// slots each, every shard running FG-TLE with
    /// [`DEFAULT_ORECS_PER_SHARD`] orecs. Use [`ShardedTxMap::with_builder`]
    /// for full control.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        Self::with_builder(
            shards,
            capacity_per_shard,
            ElidableLock::builder().policy(ElisionPolicy::FgTle {
                orecs: DEFAULT_ORECS_PER_SHARD,
            }),
        )
    }
}

impl<V: TxWord + Default> ShardedTxMap<V> {
    /// A map whose every shard is built from one [`ElidableLockBuilder`]
    /// template — policy, retry, backend, and recorder are cloned per
    /// shard, so shard configuration is exactly the single-lock builder
    /// API. A shared recorder aggregates all shards' attempt streams into
    /// one observability snapshot; software-TM fallbacks registered on
    /// the template are likewise shared (`Arc`-cloned) across shards, so
    /// one global clock/stripe table serializes software transactions
    /// from every shard.
    ///
    /// `shards` must be a power of two (routing uses the top
    /// `log2(shards)` bits of the Wang mix).
    pub fn with_builder(
        shards: usize,
        capacity_per_shard: usize,
        template: ElidableLockBuilder,
    ) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "shard count must be a power of two"
        );
        assert!(shards <= 1 << 16, "shard count cap: 65536");
        let bits = shards.trailing_zeros();
        ShardedTxMap {
            shards: (0..shards)
                .map(|_| Shard::new(template.clone().build(), capacity_per_shard))
                .collect(),
            // For 1 shard, bits = 0 and a 64-bit shift would be UB; route
            // everything to shard 0 via a full shift of a zeroed index.
            shift: 64 - bits,
        }
    }
}

impl<V: TxWord> ShardedTxMap<V> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        (wang_mix64(key) >> self.shift) as usize
    }

    #[inline]
    fn route(&self, key: u64) -> &Shard<V> {
        let s = &self.shards[self.shard_of(key)];
        s.routed.add(0, 1);
        s
    }

    /// Runs `f` over shard `idx`'s map under its lock — the pessimistic,
    /// instrumented lock-holder path, never speculation. For maintenance
    /// operations that must not run in a hardware transaction (audits,
    /// scans with irrevocable side effects, HTM-unfriendly work), shard by
    /// shard (incremental audits, per-shard compaction sweeps);
    /// [`Self::shard_of`] names the shard of a key. The shard's other
    /// traffic keeps speculating on the instrumented slow path while `f`
    /// runs, and every *other* shard is completely unaffected — the
    /// single-lock pathology (one pessimistic op stalling the whole map)
    /// shrinks to one shard.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.shard_count()`.
    pub fn with_shard_locked<R>(&self, idx: usize, f: impl FnOnce(&TxMap<V>, &Ctx<'_>) -> R) -> R {
        self.shards[idx].routed.add(0, 1);
        with_shards_locked(&self.shards, &mut [idx], |held| {
            let (map, ctx) = held.shard(idx);
            f(map, ctx)
        })
    }

    /// The lock and store of `key`'s shard — the composable-transaction
    /// enrollment surface. `rtle-stm`'s `atomically` adapters fetch the
    /// pair, enroll the lock in the transaction's participant set
    /// (speculative subscription / software presence / ordered pessimistic
    /// acquisition), and route the [`TxMap`] access through the
    /// transaction's own barriers. Direct callers should prefer the
    /// [`Self::get`]-family operations, which drive the shard's own
    /// speculation ladder.
    pub fn shard_parts(&self, key: u64) -> (&ElidableLock, &TxMap<V>) {
        self.route(key).parts()
    }

    /// Looks `key` up. Single-shard: speculates on the key's shard only.
    pub fn get(&self, key: u64) -> Option<V> {
        self.route(key).execute(|map, ctx| map.get(ctx, key))
    }

    /// Membership probe.
    pub fn contains(&self, key: u64) -> bool {
        self.route(key).execute(|map, ctx| map.contains(ctx, key))
    }

    /// Inserts or updates `key`; returns the previous value, if any.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        self.route(key)
            .execute(|map, ctx| map.insert(ctx, key, value))
    }

    /// Removes `key`; returns the removed value.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.route(key).execute(|map, ctx| map.remove(ctx, key))
    }

    /// Atomically reads every key in `keys`, returning values parallel to
    /// the input. Keys within one shard read under a single critical
    /// section; keys spanning shards use the ordered cross-shard path, so
    /// the result is one consistent snapshot across all involved shards.
    pub fn multi_get(&self, keys: &[u64]) -> Vec<Option<V>> {
        let Some(&first) = keys.first() else {
            return Vec::new();
        };
        // The involved shards in the thread's scratch: the call allocates
        // its result and, across more than two shards, the section list —
        // nothing else.
        with_scratch(self.shard_count(), |idxs| {
            idxs.extend(keys.iter().map(|&k| self.shard_of(k)));
            if idxs.iter().all(|&i| i == idxs[0]) {
                return self
                    .route(first)
                    .execute(|map, ctx| keys.iter().map(|&k| map.get(ctx, k)).collect());
            }
            with_shards_locked(&self.shards, idxs, |held| {
                for (i, ..) in held.iter() {
                    self.shards[i].routed.add(0, 1);
                }
                keys.iter()
                    .map(|&k| {
                        let (map, ctx) = held.shard(self.shard_of(k));
                        map.get(ctx, k)
                    })
                    .collect()
            })
        })
    }
}

impl<V: TxWord + PartialEq> ShardedTxMap<V> {
    /// Atomically compares-and-swaps *two* entries: iff `k1` currently
    /// maps to `expect1` **and** `k2` maps to `expect2`, both are updated
    /// (to `new1`/`new2`) in one transaction. Returns whether the swap
    /// happened. The two keys may live in different shards — the paper's
    /// §3/§4 concurrency story lifted to a sharded setting.
    pub fn compare_and_swap_pair(
        &self,
        (k1, expect1, new1): (u64, V, V),
        (k2, expect2, new2): (u64, V, V),
    ) -> bool {
        let (s1, s2) = (self.shard_of(k1), self.shard_of(k2));
        if s1 == s2 {
            return self.route(k1).execute(|map, ctx| {
                let ok = map.get(ctx, k1) == Some(expect1) && map.get(ctx, k2) == Some(expect2);
                if ok {
                    map.insert(ctx, k1, new1);
                    map.insert(ctx, k2, new2);
                }
                ok
            });
        }
        for s in [s1, s2] {
            self.shards[s].routed.add(0, 1);
        }
        with_shards_locked(&self.shards, &mut [s1, s2], |held| {
            let ((m1, c1), (m2, c2)) = (held.shard(s1), held.shard(s2));
            let ok = m1.get(c1, k1) == Some(expect1) && m2.get(c2, k2) == Some(expect2);
            if ok {
                m1.insert(c1, k1, new1);
                m2.insert(c2, k2, new2);
            }
            ok
        })
    }
}

impl ShardedTxMap<u64> {
    /// Atomically moves `amount` from `from`'s balance to `to`'s. Both
    /// accounts must exist and the debit must not overdraw; on any error
    /// neither balance changes. Cross-shard transfers take the ordered
    /// pessimistic path; same-shard transfers speculate like any other
    /// single-shard operation.
    // `#[inline]`: compiled into the caller's crate, as the map's generic
    // methods are (see `ElidableLock`'s impl).
    #[inline]
    pub fn transfer(&self, from: u64, to: u64, amount: u64) -> Result<(), TransferError> {
        let (sf, st) = (self.shard_of(from), self.shard_of(to));
        if sf == st {
            return self
                .route(from)
                .execute(|map, ctx| Self::transfer_in(map, ctx, map, ctx, from, to, amount));
        }
        for s in [sf, st] {
            self.shards[s].routed.add(0, 1);
        }
        with_shards_locked(&self.shards, &mut [sf, st], |held| {
            let ((fm, fc), (tm, tc)) = (held.shard(sf), held.shard(st));
            Self::transfer_in(fm, fc, tm, tc, from, to, amount)
        })
    }

    /// The transfer body, generic over the two (map, access) legs so the
    /// same logic runs single-shard speculative and cross-shard locked.
    fn transfer_in<A1, A2>(
        from_map: &TxMap<u64>,
        af: &A1,
        to_map: &TxMap<u64>,
        at: &A2,
        from: u64,
        to: u64,
        amount: u64,
    ) -> Result<(), TransferError>
    where
        A1: rtle_htm::TxAccess + ?Sized,
        A2: rtle_htm::TxAccess + ?Sized,
    {
        let bal_from = from_map.get(af, from).ok_or(TransferError::MissingFrom)?;
        let bal_to = to_map.get(at, to).ok_or(TransferError::MissingTo)?;
        if from == to {
            // Degenerate self-transfer: validated, then a no-op.
            return if bal_from >= amount {
                Ok(())
            } else {
                Err(TransferError::Insufficient { balance: bal_from })
            };
        }
        let debited = bal_from
            .checked_sub(amount)
            .ok_or(TransferError::Insufficient { balance: bal_from })?;
        let credited = bal_to.checked_add(amount).ok_or(TransferError::Overflow)?;
        from_map.insert(af, from, debited);
        to_map.insert(at, to, credited);
        Ok(())
    }

    /// Sum of all values (balances), read under every shard's lock at
    /// once (see [`Self::entries_plain`]).
    pub fn total_plain(&self) -> u64 {
        self.with_all_locked(|held| {
            held.iter()
                .flat_map(|(_, map, ctx)| map.entries(ctx))
                .map(|(_, v)| v)
                .sum()
        })
    }
}

impl<V: TxWord> ShardedTxMap<V> {
    /// Runs `f` with every shard's lock held: the whole map at one
    /// instant. Counts no routed operation.
    fn with_all_locked<R>(&self, f: impl FnOnce(&Held<'_, '_, V>) -> R) -> R {
        with_shards_locked(
            &self.shards,
            &mut (0..self.shard_count()).collect::<Vec<_>>(),
            f,
        )
    }

    /// Live entries across all shards, read under every shard's lock at
    /// once (see [`Self::entries_plain`]).
    pub fn len_plain(&self) -> usize {
        self.with_all_locked(|held| held.iter().map(|(_, map, ctx)| map.len(ctx)).sum())
    }

    /// All entries across all shards, unordered. For setup, audits and
    /// exit checks: it holds every shard's lock for one O(total capacity)
    /// scan, so it reads one consistent snapshot of the map, and meanwhile
    /// each shard's other traffic runs only on its instrumented slow path
    /// or waits. A caller that holds a shard's lock (inside
    /// [`Self::with_shard_locked`]) must not call it.
    pub fn entries_plain(&self) -> Vec<(u64, V)> {
        self.with_all_locked(|held| {
            held.iter()
                .flat_map(|(_, map, ctx)| map.entries(ctx))
                .collect()
        })
    }
}

impl<V: TxWord> std::fmt::Debug for ShardedTxMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTxMap")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.shards[0].capacity())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_covers_all_shards_and_is_stable() {
        let m: ShardedTxMap = ShardedTxMap::new(16, 64);
        let mut seen = [false; 16];
        for k in 0..4096u64 {
            let s = m.shard_of(k);
            assert!(s < 16);
            assert_eq!(s, m.shard_of(k), "routing must be deterministic");
            seen[s] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "4096 keys must touch all 16 shards"
        );
    }

    #[test]
    fn one_shard_edge_case_routes_everything_to_zero() {
        let m: ShardedTxMap = ShardedTxMap::new(1, 128);
        for k in [0u64, 1, u64::MAX - 2] {
            assert_eq!(m.shard_of(k), 0);
        }
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.get(5), Some(50));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = ShardedTxMap::new(12, 64);
    }

    #[test]
    fn single_key_ops_route_and_work() {
        let m: ShardedTxMap = ShardedTxMap::new(8, 64);
        for k in 0..200u64 {
            assert_eq!(m.insert(k, k + 1000), None);
        }
        for k in 0..200u64 {
            assert_eq!(m.get(k), Some(k + 1000));
            assert!(m.contains(k));
        }
        assert_eq!(m.len_plain(), 200);
        for k in (0..200u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k + 1000));
        }
        assert_eq!(m.len_plain(), 100);
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(5), Some(1005));
    }

    #[test]
    fn multi_get_spans_shards_consistently() {
        let m: ShardedTxMap = ShardedTxMap::new(16, 64);
        let keys: Vec<u64> = (0..64).collect();
        for &k in &keys {
            m.insert(k, k * 2);
        }
        let vals = m.multi_get(&keys);
        assert_eq!(vals.len(), keys.len());
        for (k, v) in keys.iter().zip(&vals) {
            assert_eq!(*v, Some(k * 2));
        }
        assert!(m.multi_get(&[]).is_empty());
        // Repeated + missing keys.
        let vals = m.multi_get(&[3, 3, 9999]);
        assert_eq!(vals, vec![Some(6), Some(6), None]);
    }

    #[test]
    fn cas_pair_same_and_cross_shard() {
        let m: ShardedTxMap = ShardedTxMap::new(4, 64);
        // Find two keys in the same shard and two in different shards.
        let mut same = None;
        let mut cross = None;
        for a in 0..64u64 {
            for b in (a + 1)..64u64 {
                if m.shard_of(a) == m.shard_of(b) && same.is_none() {
                    same = Some((a, b));
                }
                if m.shard_of(a) != m.shard_of(b) && cross.is_none() {
                    cross = Some((a, b));
                }
            }
        }
        for (a, b) in [same.unwrap(), cross.unwrap()] {
            m.insert(a, 1);
            m.insert(b, 2);
            assert!(m.compare_and_swap_pair((a, 1, 10), (b, 2, 20)));
            assert_eq!((m.get(a), m.get(b)), (Some(10), Some(20)));
            // Second CAS against stale expectations must fail untouched.
            assert!(!m.compare_and_swap_pair((a, 1, 99), (b, 20, 99)));
            assert_eq!((m.get(a), m.get(b)), (Some(10), Some(20)));
        }
    }

    #[test]
    fn transfer_conserves_and_validates() {
        let m: ShardedTxMap = ShardedTxMap::new(8, 64);
        m.insert(1, 100);
        m.insert(2, 50);
        assert_eq!(m.transfer(1, 2, 30), Ok(()));
        assert_eq!((m.get(1), m.get(2)), (Some(70), Some(80)));
        assert_eq!(
            m.transfer(1, 2, 71),
            Err(TransferError::Insufficient { balance: 70 })
        );
        assert_eq!(m.transfer(999, 2, 1), Err(TransferError::MissingFrom));
        assert_eq!(m.transfer(1, 999, 1), Err(TransferError::MissingTo));
        assert_eq!(m.total_plain(), 150, "errors must leave balances untouched");
        m.insert(3, u64::MAX);
        assert_eq!(m.transfer(1, 3, 1), Err(TransferError::Overflow));
        assert_eq!(m.get(1), Some(70), "failed credit must not debit");
        // Self-transfer: validated no-op.
        assert_eq!(m.transfer(1, 1, 70), Ok(()));
        assert_eq!(
            m.transfer(1, 1, 71),
            Err(TransferError::Insufficient { balance: 70 })
        );
        assert_eq!(m.get(1), Some(70));
    }
}
