//! Seeded analyzer mutants — deliberately broken code the static
//! analyzer must catch.
//!
//! Same contract as the model checker's `tle-lazyunsafe-mutant`: the
//! mutant is compiled only behind an off-by-default cargo feature so it
//! can never ship, but its *source* is always visible to `rtle-check
//! analyze`, whose lock-order pass must report the descending
//! acquisition below. The tier-1 script fails if the mutant goes
//! unreported (analyzer regression) and separately type-checks this file
//! with the feature enabled so the seeded code cannot rot.

use rtle_htm::{HtmBackend, TxWord};

use crate::sharded::ShardedTxMap;

impl<V: TxWord, B: HtmBackend> ShardedTxMap<V, B> {
    /// Atomically swaps the values stored under `k1` and `k2`, *with the
    /// deadlock-freedom spine deliberately broken*: when the keys span
    /// shards, the locks are acquired in **descending** index order.
    /// Run concurrently against any correctly ascending cross-shard
    /// operation, this can deadlock — exactly the bug the lock-order
    /// pass exists to reject at analysis time.
    #[cfg(feature = "mutant-lock-order")]
    pub fn swap_values_descending(&self, k1: u64, k2: u64) -> bool {
        let (s1, s2) = (self.shard_of(k1), self.shard_of(k2));
        if s1 == s2 {
            let s = &self.shards[s1];
            return s
                .lock
                .execute(|ctx| match (s.map.get(ctx, k1), s.map.get(ctx, k2)) {
                    (Some(v1), Some(v2)) => {
                        s.map.insert(ctx, k1, v2);
                        s.map.insert(ctx, k2, v1);
                        true
                    }
                    _ => false,
                });
        }
        let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        // BUG (seeded): `hi` is locked while `lo` is still wanted — the
        // exact index descent the module docs prove impossible for the
        // real cross-shard operations.
        let g_hi = self.shards[hi].lock.lock_section();
        let g_lo = self.shards[lo].lock.lock_section();
        let (g1, g2) = if s1 == lo {
            (&g_lo, &g_hi)
        } else {
            (&g_hi, &g_lo)
        };
        match (
            self.shards[s1].map.get(g1.ctx(), k1),
            self.shards[s2].map.get(g2.ctx(), k2),
        ) {
            (Some(v1), Some(v2)) => {
                self.shards[s1].map.insert(g1.ctx(), k1, v2);
                self.shards[s2].map.insert(g2.ctx(), k2, v1);
                true
            }
            _ => false,
        }
    }
}
