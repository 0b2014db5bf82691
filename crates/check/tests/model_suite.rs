//! Acceptance tests for the interleaving checker: every safe configuration
//! explores clean, the protocol paths are actually exercised, and the
//! seeded mutants (unsafe lazy subscription; an FG-TLE holder stamping
//! with the pre-acquisition lock word; TL2 skipped revalidation;
//! swhtm validate-before-sample extension; a carried `wv`; the park's
//! two lost wakeups) are detected —
//! and every row's
//! state, terminal and path counts are pinned in `golden/model_rows.txt`.

use rtle_check::model::{
    carry_wv_mutant_config, explore, explore_mutants, explore_safe, fgtle_stamp_mutant_config,
    mutant_config, park_suite, standard_suite, swhtm_mutant_config, tl2_mutant_config, tl2_suite,
    Policy, Stamp, State, Tl2State,
};

#[test]
fn standard_suite_is_violation_free() {
    for cfg in standard_suite() {
        let r = explore::<State>(&cfg);
        assert!(
            r.clean(),
            "{}: {} violations, first: {:?}",
            r.config,
            r.violation_count,
            r.violations.first()
        );
        assert!(r.terminals > 0, "{}: no terminal states explored", r.config);
    }
}

#[test]
fn suite_exercises_every_commit_path() {
    let mut saw_fast = false;
    let mut saw_slow = false;
    let mut saw_lock = false;
    for cfg in standard_suite() {
        let r = explore::<State>(&cfg);
        saw_fast |= r.fast_commit_terminals > 0;
        saw_slow |= r.slow_commit_terminals > 0;
        saw_lock |= r.lock_commit_terminals > 0;
    }
    assert!(saw_fast, "no configuration ever committed on the fast path");
    assert!(saw_slow, "no configuration ever committed on the slow path");
    assert!(saw_lock, "no configuration ever committed under the lock");
}

#[test]
fn rw_tle_allows_concurrent_readers() {
    let cfg = standard_suite()
        .into_iter()
        .find(|c| c.name == "rwtle-reader-vs-reader")
        .expect("suite config exists");
    let r = explore::<State>(&cfg);
    assert!(r.clean(), "{:?}", r.violations.first());
    assert!(
        r.slow_commit_terminals > 0,
        "RW-TLE slow path never committed while the lock was held — the §3 refinement is not being modeled"
    );
}

#[test]
fn fg_tle_allows_disjoint_writers() {
    let cfg = standard_suite()
        .into_iter()
        .find(|c| c.name == "fgtle-disjoint")
        .expect("suite config exists");
    let r = explore::<State>(&cfg);
    assert!(r.clean(), "{:?}", r.violations.first());
    assert!(
        r.slow_commit_terminals > 0,
        "FG-TLE slow path never committed a disjoint write while the lock was held — the §4 refinement is not being modeled"
    );
}

#[test]
fn unsafe_lazy_subscription_mutant_is_caught() {
    let r = explore::<State>(&mutant_config());
    assert!(
        r.violation_count > 0,
        "the seeded lazy-subscription bug was NOT detected — oracle regression"
    );
    let v = r
        .violations
        .iter()
        .find(|v| v.kind == "non-serializable")
        .expect("the violation must be a serializability failure, not a structural one");
    // The canonical zombie: a torn read of the invariant pair.
    assert!(
        v.detail.contains("matches no serial order"),
        "unexpected violation detail: {}",
        v.detail
    );
}

/// The holder that stamps with the even word it acquired from lets a slow
/// reader that began during the holding read the invariant pair torn;
/// `fgtle-conflict` is the identical workload with the runtime's stamp,
/// and it is clean — so the catch is the stamp's, not the workload's.
#[test]
fn fgtle_pre_acquire_stamp_mutant_is_caught() {
    let mutant = fgtle_stamp_mutant_config();
    let r = explore::<State>(&mutant);
    let v = r
        .violations
        .iter()
        .find(|v| v.kind == "non-serializable")
        .expect("the pre-acquisition stamp was NOT detected — oracle regression");
    assert!(
        v.detail.contains("T1[Slow]{R0=1 R1=0}"),
        "unexpected violation detail: {}",
        v.detail
    );
    let safe = standard_suite()
        .into_iter()
        .find(|c| c.name == "fgtle-conflict")
        .expect("suite config exists");
    assert_eq!(
        safe.policy,
        Policy::FgTle {
            orecs: 2,
            stamp: Stamp::Held
        }
    );
    assert_eq!(
        (safe.threads.len(), safe.max_slow_attempts),
        (mutant.threads.len(), mutant.max_slow_attempts)
    );
    assert!(explore::<State>(&safe).clean());
}

#[test]
fn tl2_suite_is_violation_free_and_concurrent() {
    let mut saw_ro = false;
    let mut saw_writer = false;
    for cfg in tl2_suite() {
        let r = explore::<Tl2State>(&cfg);
        assert!(
            r.clean(),
            "{}: {} violations, first: {:?}",
            r.config,
            r.violation_count,
            r.violations.first()
        );
        assert!(r.terminals > 0, "{}: no terminal states explored", r.config);
        saw_ro |= r.fast_commit_terminals > 0;
        saw_writer |= r.slow_commit_terminals > 0;
    }
    assert!(saw_ro, "no TL2 configuration ever committed read-only");
    assert!(saw_writer, "no TL2 configuration ever committed a writer");
}

#[test]
fn path_coverage_counts_terminal_histories_on_every_machine() {
    // `Report` documents the three path counters as "terminal histories
    // containing at least one such commit" — so none can exceed the
    // terminal count, whatever the machine. A per-commit count would:
    // `swhtm-counter` commits three increments in every terminal.
    let reports = explore_safe()
        .into_iter()
        .chain(explore_mutants().into_iter().map(|(r, _)| r));
    let mut seen = 0;
    for r in reports {
        for (label, n) in [
            ("fast", r.fast_commit_terminals),
            ("slow", r.slow_commit_terminals),
            ("lock", r.lock_commit_terminals),
        ] {
            assert!(
                n <= r.terminals,
                "{}: {label} path counted {n} times over {} terminals ({})",
                r.config,
                r.terminals,
                r.path_labels
            );
        }
        seen += 1;
    }
    assert_eq!(
        seen,
        standard_suite().len() + tl2_suite().len() + park_suite().len() + 7,
        "the three suites and the seven seeded mutants"
    );
}

#[test]
fn tl2_stale_read_mutant_is_caught() {
    // The TL2 analog of the lazy-subscription contract: skipping read-set
    // revalidation must surface as a lost update the serializability
    // oracle flags.
    let r = explore::<Tl2State>(&tl2_mutant_config());
    let v = r
        .violations
        .iter()
        .find(|v| v.kind == "non-serializable")
        .expect("the seeded TL2 stale-read bug was NOT detected — oracle regression");
    assert!(
        v.detail.contains("matches no serial order"),
        "unexpected violation detail: {}",
        v.detail
    );
}

#[test]
fn swhtm_configurations_verify_and_the_extension_mutant_is_caught() {
    // The versioned-lock protocol as the runtime runs it — a cached
    // (stale) read-version and snapshot extension — is the whole safe
    // suite, including the mutant's own workload with the steps in the
    // right order.
    let swhtm = tl2_suite();
    assert!(swhtm.iter().all(|c| c.name.starts_with("swhtm-")));
    assert!(swhtm.iter().any(|c| c.name == "swhtm-extension-pair"));
    assert_eq!(swhtm.len(), 7, "six workloads and the extension pair");
    for cfg in &swhtm {
        let r = explore::<Tl2State>(cfg);
        assert!(r.clean(), "{}: {:?}", r.config, r.violations.first());
    }

    let r = explore::<Tl2State>(&swhtm_mutant_config());
    let v = r
        .violations
        .iter()
        .find(|v| v.kind == "non-serializable")
        .expect("the seeded validate-first extension was NOT detected — oracle regression");
    assert!(
        v.detail.contains("matches no serial order"),
        "unexpected violation detail: {}",
        v.detail
    );
}

#[test]
fn carried_wv_mutant_is_caught_with_both_bodies_of_one_thread() {
    // A commit that carries its drawn version as the next rv: the second
    // body of the same thread validates against it and loses the other
    // thread's increment.
    let r = explore::<Tl2State>(&carry_wv_mutant_config());
    let v = r
        .violations
        .iter()
        .find(|v| v.kind == "non-serializable")
        .expect("the seeded carried-wv bug was NOT detected — oracle regression");
    assert!(
        v.detail.contains("T0[Slow]{W0:=1}, T0[Slow]"),
        "unexpected violation detail: {}",
        v.detail
    );
}

#[test]
fn safe_lazy_subscription_is_clean_under_same_workload() {
    // Identical workload to the mutant, with only the commit-time check
    // restored: the violation must disappear. This pins the mutant's
    // failure to the missing instrumentation, not to the workload.
    let cfg = standard_suite()
        .into_iter()
        .find(|c| c.name == "tle-lazysafe-pair")
        .expect("suite config exists");
    let r = explore::<State>(&cfg);
    assert!(r.clean(), "{:?}", r.violations.first());
}

#[test]
fn every_row_matches_its_golden_counts() {
    // States, terminals and path coverage of every safe row and mutant: a
    // change to a machine that moves a count fails here and has to say why
    // (EXPERIMENTS.md keeps the before/after table). Re-bless with
    // `BLESS=1 cargo test -p rtle-check --test model_suite`.
    let mut actual = String::new();
    for r in explore_safe()
        .into_iter()
        .chain(explore_mutants().into_iter().map(|(r, _)| r))
    {
        actual += &format!(
            "{} states={} terminals={} {}={}/{}/{} violations={}\n",
            r.config,
            r.states,
            r.terminals,
            r.path_labels,
            r.fast_commit_terminals,
            r.slow_commit_terminals,
            r.lock_commit_terminals,
            r.violation_count
        );
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/model_rows.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(
        actual, expected,
        "a model row moved; explain it, then re-bless"
    );
}
