//! The five workloads and what they share: seeded generators, the private
//! bitmap oracle, and the counters every `ElidableLock` exposes.
//!
//! A tape entry is one `u64`: the entry kind in the low byte and the keys
//! or values above it. Tapes are generated at set-up from the seed with
//! SplitMix64, one independent stream per (workload, thread); the program
//! under test only ever sees the generated operations.

pub mod avl_mixed;
pub mod holder_coexist;
pub mod rmw_disjoint;
pub mod shard_batch;
pub mod stm_compose;

use rtle_avltree::AvlSet;
use rtle_core::{ElidableLock, RetryPolicy};
use rtle_htm::prng::SplitMix64;
use rtle_htm::{HtmStats, PlainAccess};

use crate::harness::{Counters, Workload};

pub use avl_mixed::AvlMixed;
pub use holder_coexist::HolderCoexist;
pub use rmw_disjoint::RmwDisjoint;
pub use shard_batch::ShardBatch;
pub use stm_compose::StmCompose;

/// Workload names, in the order `run` executes them. Later issues cite
/// these names; `BENCHMARK.json` lists the same five.
pub const NAMES: [&str; 5] = [
    RmwDisjoint::NAME,
    AvlMixed::NAME,
    HolderCoexist::NAME,
    ShardBatch::NAME,
    StmCompose::NAME,
];

/// The generator of stream `stream` (one per thread, plus one for the
/// prefill) of workload `tag` under `seed`.
pub fn stream(seed: u64, tag: &str, stream: u64) -> SplitMix64 {
    let tag = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    SplitMix64::new(seed ^ tag.rotate_left(17) ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Request id of thread `tid`'s `seq`-th call.
#[inline]
pub fn request_id(tid: usize, seq: u64) -> u64 {
    ((tid as u64) << 48) | seq
}

/// The retry policy every workload pins: the paper's (5 fast attempts,
/// early subscription, unlimited slow retries), stated rather than
/// inherited so a changed default cannot silently move the benchmark.
pub fn pinned_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        lazy_subscription: false,
        give_up_on_unsupported: true,
        max_slow_attempts: None,
    }
}

/// `ElisionPolicy` and `RetryPolicy` of `lock`, for the result file.
pub fn policy_of(lock: &ElidableLock) -> String {
    format!("{:?} {:?}", lock.policy(), lock.retry_policy())
}

/// Counters of a workload that drives exactly one `ElidableLock`.
pub fn lock_counters(lock: &ElidableLock) -> Counters {
    Counters {
        htm: HtmStats::snapshot(),
        core: lock.stats().snapshot(),
        ..Counters::default()
    }
}

/// A client's private record of which keys it expects in a set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap(Vec<u64>);

impl Bitmap {
    pub fn new(keys: u64) -> Self {
        Bitmap(vec![0; keys.div_ceil(64) as usize])
    }

    #[inline]
    pub fn get(&self, key: u64) -> bool {
        self.0[(key / 64) as usize] >> (key % 64) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, key: u64, present: bool) {
        let (word, bit) = (&mut self.0[(key / 64) as usize], 1u64 << (key % 64));
        if present {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The keys set, ascending.
    pub fn keys(&self) -> Vec<u64> {
        (0..self.0.len() as u64 * 64)
            .filter(|&k| self.get(k))
            .collect()
    }
}

/// Fills `set` half-full: every key of the range with probability one half,
/// inserted in a seeded random order so the tree shape is a random one.
/// Returns the membership bitmap.
pub fn prefill_half(set: &AvlSet, rng: &mut SplitMix64) -> Bitmap {
    let mut keys: Vec<u64> = (0..set.key_range()).filter(|_| rng.bool()).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut present = Bitmap::new(set.key_range());
    for &k in &keys {
        set.insert(&PlainAccess, k);
        present.set(k, true);
    }
    present
}

/// Exit oracle of the AVL workloads: the tree is a valid AVL tree and holds
/// exactly the keys the clients' private bitmaps say it holds.
pub fn verify_avl(set: &AvlSet, expected_keys: Vec<u64>) -> Result<(), String> {
    set.check_invariants_plain()?;
    let got = set.keys_plain();
    if got == expected_keys {
        Ok(())
    } else {
        Err(format!(
            "tree holds {} keys, the clients' bitmaps {}",
            got.len(),
            expected_keys.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_tracks_membership() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(129));
        b.set(129, true);
        b.set(3, true);
        b.set(3, false);
        assert_eq!(b.keys(), vec![129]);
    }

    #[test]
    fn streams_differ_by_seed_tag_and_index() {
        let first = |mut r: SplitMix64| r.next_u64();
        let base = first(stream(1, "a", 0));
        assert_eq!(base, first(stream(1, "a", 0)));
        assert_ne!(base, first(stream(2, "a", 0)));
        assert_ne!(base, first(stream(1, "b", 0)));
        assert_ne!(base, first(stream(1, "a", 1)));
    }
}
