//! Mixed-policy agreement: the same op stream driven through TLE,
//! RW-TLE, and FG-TLE elidable locks must produce identical per-op
//! results, all equal to the `BTreeSet` model — the elision policy is a
//! performance choice, never a semantic one.
//!
//! The streams come from the shared `rtle_fuzz::ops` generators (uniform,
//! duplicate-key churn, skewed), and an abort-injection storm is
//! installed so the policies actually diverge in *path* (retries, lock
//! fallbacks) while having to agree in *result*.

use std::collections::BTreeSet;

use rtle_avltree::AvlSet;
use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_fuzz::ops::{self, SetOp};
use rtle_htm::prng::SplitMix64;
use rtle_htm::HtmConfig;

fn policies() -> Vec<ElisionPolicy> {
    vec![
        ElisionPolicy::Tle,
        ElisionPolicy::RwTle,
        ElisionPolicy::FgTle { orecs: 64 },
    ]
}

fn agree_on(stream: &[SetOp], range: u64, label: &str) {
    let sets: Vec<(ElisionPolicy, AvlSet, ElidableLock)> = policies()
        .into_iter()
        .map(|p| {
            (
                p,
                AvlSet::with_key_range(range),
                ElidableLock::builder().policy(p).build(),
            )
        })
        .collect();
    let mut model = BTreeSet::new();
    for (i, &op) in stream.iter().enumerate() {
        let expected = ops::apply_model(op, &mut model);
        for (policy, set, lock) in &sets {
            let got = lock.execute(|ctx| ops::apply_avl(set, ctx, op));
            assert_eq!(
                got, expected,
                "{label}: op {i} {op:?} disagrees with model under {policy:?}"
            );
        }
    }
    let expected_keys: Vec<u64> = model.into_iter().collect();
    for (policy, set, lock) in &sets {
        assert_eq!(
            set.keys_plain(),
            expected_keys,
            "{label}: final keys diverge under {policy:?}"
        );
        assert!(set.check_invariants_plain().is_ok(), "{label}: {policy:?}");
        assert!(lock.stats().snapshot().ops > 0);
    }
}

#[test]
fn all_policies_agree_on_shared_streams() {
    // Every third hardware begin dies: TLE waits/falls back, RW-TLE and
    // FG-TLE thread their distinct slow-path rules — results must match.
    let storm = HtmConfig {
        spurious_one_in: 3,
        ..HtmConfig::default()
    };
    storm.with_installed(|| {
        let mut rng = SplitMix64::new(0x3217_0001);
        for case in 0..8 {
            let uniform = ops::gen_ops(&mut rng, 96, 50, 300);
            agree_on(&uniform, 96, &format!("uniform/{case}"));
            let churn = ops::gen_ops_churn(&mut rng, 5, 300);
            agree_on(&churn, 96, &format!("churn/{case}"));
            let skewed = ops::gen_ops_skewed(&mut rng, 96, 300);
            agree_on(&skewed, 96, &format!("skewed/{case}"));
        }
    });
}
