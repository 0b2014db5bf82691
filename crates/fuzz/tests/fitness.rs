//! The fuzzer's fitness and determinism contracts.
//!
//! * **Mutant fitness**: the PCT hunt must re-find `rtle-check`'s seeded
//!   lazy-subscription mutant from the documented seed within the
//!   documented budget. A fuzzer that can't is broken, whatever else it
//!   reports.
//! * **Seed-replay determinism**: the witness printed by
//!   `fuzz replay <seed>` is a pure function of (config, seed, budget) —
//!   two hunts from the same seed produce byte-for-byte identical
//!   witnesses, including the shrunk schedule.

use rtle_check::model::{judge, mutant_config, standard_suite, State};
use rtle_fuzz::corpus::{self, DOC_SEED, MUTANT_BUDGET};
use rtle_fuzz::schedule::{hunt, replay};

/// The lazy-subscription mutant's fitness hunt.
fn mutant_hunt(seed: u64, budget: u64) -> rtle_fuzz::HuntReport {
    let m = corpus::mutant("tle-lazyunsafe-mutant").expect("known mutant");
    (m.hunt)(seed, budget)
}

#[test]
fn documented_seed_catches_mutant_within_budget() {
    let report = mutant_hunt(DOC_SEED, MUTANT_BUDGET);
    let f = report
        .failure
        .expect("documented seed must catch the mutant within the budget");
    assert_eq!(
        f.kind, "non-serializable",
        "the zombie read is a serializability violation"
    );
    assert!(
        f.iteration < MUTANT_BUDGET,
        "caught at iteration {} >= budget {}",
        f.iteration,
        MUTANT_BUDGET
    );
    // The shrunk schedule, replayed from scratch, still exhibits the bug.
    let verdict = judge(&replay::<State>(&mutant_config(), &f.schedule));
    assert!(
        matches!(verdict.violation, Some(("non-serializable", _))),
        "shrunk witness schedule must reproduce the violation"
    );
}

#[test]
fn replay_witness_is_byte_for_byte_deterministic() {
    for seed in [DOC_SEED, 0x0001, 0xdead_beef] {
        let witness = || {
            mutant_hunt(seed, MUTANT_BUDGET)
                .failure
                .map(|f| f.witness())
        };
        let (wa, wb) = (witness(), witness());
        assert!(wa.is_some(), "seed {seed:#x} must catch the mutant");
        assert_eq!(
            wa, wb,
            "seed {seed:#x}: witness must be reproducible byte-for-byte"
        );
    }
}

/// The safe standard suite stays clean under the same randomized hunts
/// that catch the mutant — the fuzzer distinguishes broken from correct.
#[test]
fn standard_suite_stays_clean_under_fuzzing() {
    for cfg in standard_suite() {
        let report = hunt::<State>(&cfg, DOC_SEED, 128);
        assert!(
            report.clean(),
            "{}: unexpected violation: {:?}",
            cfg.name,
            report.failure.map(|f| f.witness())
        );
    }
}
