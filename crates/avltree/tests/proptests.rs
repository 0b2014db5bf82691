//! Randomized differential testing of the AVL set against `BTreeSet`,
//! driven by the shared [`rtle_fuzz::ops`] generator family (seeded
//! [`SplitMix64`] streams; failures reproduce from the fixed seeds).
//!
//! The generators live in `rtle-fuzz` so the proptests, the chaos runner,
//! and the mixed-policy agreement test all draw from one audited source.
//! Unlike this file's original local generators, `gen_ops` can never
//! produce an empty op vector or an all-`Contains` one: every case
//! actually mutates the tree.

use std::collections::BTreeSet;

use rtle_avltree::AvlSet;
use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_fuzz::ops::{self, SetOp};
use rtle_htm::prng::SplitMix64;
use rtle_htm::PlainAccess;

/// Plain (sequential) execution matches BTreeSet exactly, and the AVL
/// structural invariants hold after every operation sequence.
#[test]
fn sequential_matches_btreeset() {
    let mut rng = SplitMix64::new(0x51e9_a411);
    for case in 0..128 {
        let ops = ops::gen_ops(&mut rng, 64, 1, 200);
        assert!(ops.iter().any(|op| op.is_mutation()));
        let set = AvlSet::with_key_range(64);
        let mut model = BTreeSet::new();
        let a = PlainAccess;
        for op in ops {
            assert_eq!(
                ops::apply_avl(&set, &a, op),
                ops::apply_model(op, &mut model)
            );
        }
        assert!(set.check_invariants_plain().is_ok(), "case {case}");
        assert_eq!(set.keys_plain(), model.iter().copied().collect::<Vec<_>>());
    }
}

/// Duplicate-key churn over a tiny hot set: the already-present /
/// already-absent branches and repeated rebalances around the same keys.
#[test]
fn churn_matches_btreeset() {
    let mut rng = SplitMix64::new(0x51e9_a415);
    for case in 0..64 {
        let hot = 1 + rng.below(6);
        let ops = ops::gen_ops_churn(&mut rng, hot, 400);
        let set = AvlSet::with_key_range(64);
        let mut model = BTreeSet::new();
        let a = PlainAccess;
        for op in ops {
            assert_eq!(
                ops::apply_avl(&set, &a, op),
                ops::apply_model(op, &mut model)
            );
        }
        assert!(
            set.check_invariants_plain().is_ok(),
            "case {case} (hot {hot})"
        );
        assert_eq!(set.keys_plain(), model.iter().copied().collect::<Vec<_>>());
    }
}

/// Skewed key draws (monotone-ish runs forcing rotation chains) stay
/// correct and balanced.
#[test]
fn skewed_matches_btreeset() {
    let mut rng = SplitMix64::new(0x51e9_a416);
    for case in 0..64 {
        let ops = ops::gen_ops_skewed(&mut rng, 512, 500);
        let set = AvlSet::with_key_range(512);
        let mut model = BTreeSet::new();
        let a = PlainAccess;
        for op in ops {
            assert_eq!(
                ops::apply_avl(&set, &a, op),
                ops::apply_model(op, &mut model)
            );
        }
        assert!(set.check_invariants_plain().is_ok(), "case {case}");
        assert_eq!(set.keys_plain(), model.iter().copied().collect::<Vec<_>>());
    }
}

/// Executing the same operation sequence through an elided lock
/// (single-threaded, so speculation always succeeds or falls back
/// deterministically) produces identical results to plain execution.
#[test]
fn elided_execution_equals_plain() {
    let mut rng = SplitMix64::new(0x51e9_a412);
    for case in 0..48 {
        let ops = ops::gen_ops(&mut rng, 64, 1, 120);
        let orecs = [1usize, 16, 256][(case % 3) as usize];
        let plain_set = AvlSet::with_key_range(64);
        let elided_set = AvlSet::with_key_range(64);
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs })
            .build();
        let a = PlainAccess;

        for op in ops {
            let expected = ops::apply_avl(&plain_set, &a, op);
            let got = lock.execute(|ctx| ops::apply_avl(&elided_set, ctx, op));
            assert_eq!(got, expected, "case {case} {op:?}");
        }
        assert_eq!(plain_set.keys_plain(), elided_set.keys_plain());
        assert!(elided_set.check_invariants_plain().is_ok(), "case {case}");
    }
}

/// Tree height stays within the AVL bound 1.44·log2(n+2) for any
/// insertion order — including the skewed generator's rotation-chain
/// workloads.
#[test]
fn height_within_avl_bound() {
    let mut rng = SplitMix64::new(0x51e9_a413);
    for case in 0..64 {
        let set = AvlSet::with_key_range(2048);
        let a = PlainAccess;
        let mut keys = BTreeSet::new();
        if case % 2 == 0 {
            let n_keys = 1 + rng.below(299);
            while (keys.len() as u64) < n_keys {
                keys.insert(rng.below(2048));
            }
            for k in &keys {
                set.insert(&a, *k);
            }
        } else {
            for op in ops::gen_ops_skewed(&mut rng, 2048, 300) {
                if let SetOp::Insert(k) = op {
                    set.insert(&a, k);
                    keys.insert(k);
                }
            }
            if keys.is_empty() {
                set.insert(&a, 0);
                keys.insert(0);
            }
        }
        assert!(set.check_invariants_plain().is_ok());
        for k in &keys {
            assert!(set.contains(&a, *k));
        }
        let n = keys.len() as f64;
        let bound = (1.4405 * (n + 2.0).log2()).ceil() as usize + 1;
        assert!(
            set.root_height_plain() as usize <= bound,
            "height {} exceeds AVL bound {}",
            set.root_height_plain(),
            bound
        );
    }
}
