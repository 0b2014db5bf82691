//! The built-in regression corpus: seeds whose behaviour is pinned.
//!
//! Every entry is a deterministic contract — `fuzz corpus` replays each
//! one and fails loudly if the fuzzer's behaviour on that seed drifts
//! (oracle regression, scheduler change, shrinker change). The mutant
//! entries double as the fuzzer's *fitness test*: a fuzzer that can no
//! longer find a seeded bug — the TLE lazy-subscription zombie, the
//! FG-TLE holder stamping with the pre-acquisition lock word, the TL2
//! stale read, the swhtm validate-first extension, the carried `wv` or
//! either of the park's lost wakeups — within its budget is broken,
//! whatever else it reports.

use rtle_check::model::{
    carry_wv_mutant_config, fgtle_stamp_mutant_config, mutant_config, park_register_mutant_config,
    park_release_mutant_config, swhtm_mutant_config, tl2_mutant_config, ParkState, State, Tl2State,
};

use crate::schedule::{hunt, HuntReport};

/// The documented default seed (see EXPERIMENTS.md): `fuzz run --seed
/// 0xf422` must catch every seeded mutant, and `fuzz replay 0xf422` must
/// print the identical witness.
pub const DOC_SEED: u64 = 0xf422;

/// Default iteration budget of the shallow mutants' fitness hunts (both
/// are caught within a handful of runs from any seed).
pub const MUTANT_BUDGET: u64 = 256;

/// One seeded mutant and how to hunt it.
#[derive(Debug, Clone, Copy)]
pub struct Mutant {
    /// Its configuration name — the key `fuzz replay --mutant` and the
    /// corpus entries use.
    pub name: &'static str,
    /// Default iteration budget of its fitness hunt.
    pub budget: u64,
    /// The fitness hunt: `(seed, budget)` to report.
    pub hunt: fn(u64, u64) -> HuntReport,
}

/// Every seeded mutant of every machine — the same seven `rtle-check
/// model` must catch exhaustively. A new machine's mutant joins here.
pub const MUTANTS: [Mutant; 7] = [
    Mutant {
        name: "tle-lazyunsafe-mutant",
        budget: MUTANT_BUDGET,
        hunt: |seed, budget| hunt::<State>(&mutant_config(), seed, budget),
    },
    Mutant {
        name: "fgtle-stamp-pre-acquire-mutant",
        budget: MUTANT_BUDGET,
        hunt: |seed, budget| hunt::<State>(&fgtle_stamp_mutant_config(), seed, budget),
    },
    Mutant {
        name: "tl2-stale-read-mutant",
        budget: MUTANT_BUDGET,
        hunt: |seed, budget| hunt::<Tl2State>(&tl2_mutant_config(), seed, budget),
    },
    // A deep bug (the scanner must validate between the two writers'
    // commits and raise the clock after the second), so PCT's
    // 1/(n·k^(d-1)) bound bites: over seeds 0..80 the catch came at a
    // median of ~64 runs, worst 365.
    Mutant {
        name: "swhtm-validate-first-mutant",
        budget: 64 * MUTANT_BUDGET,
        hunt: |seed, budget| hunt::<Tl2State>(&swhtm_mutant_config(), seed, budget),
    },
    Mutant {
        name: "swhtm-carry-wv-mutant",
        budget: MUTANT_BUDGET,
        hunt: |seed, budget| hunt::<Tl2State>(&carry_wv_mutant_config(), seed, budget),
    },
    Mutant {
        name: "park-release-skips-check",
        budget: MUTANT_BUDGET,
        hunt: |seed, budget| hunt::<ParkState>(&park_release_mutant_config(), seed, budget),
    },
    Mutant {
        name: "park-register-after-recheck",
        budget: MUTANT_BUDGET,
        hunt: |seed, budget| hunt::<ParkState>(&park_register_mutant_config(), seed, budget),
    },
];

/// The mutant whose configuration is named `name`.
pub fn mutant(name: &str) -> Option<&'static Mutant> {
    MUTANTS.iter().find(|m| m.name == name)
}

/// One pinned corpus entry.
#[derive(Debug, Clone, Copy)]
pub struct CorpusEntry {
    /// Configuration name of the mutant this entry hunts ([`Mutant::name`]).
    pub mutant: &'static str,
    /// Hunt seed.
    pub seed: u64,
    /// Iteration budget.
    pub budget: u64,
    /// Expected violation kind (`""` = must stay clean — unused so far).
    pub expect_kind: &'static str,
    /// What this entry regression-tests.
    pub note: &'static str,
}

/// The pinned entries. Each runs against the seeded mutant it names;
/// distinct seeds cover distinct schedule families.
pub const ENTRIES: &[CorpusEntry] = &[
    CorpusEntry {
        mutant: "tle-lazyunsafe-mutant",
        seed: DOC_SEED,
        budget: MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "documented seed: the EXPERIMENTS.md lazy-subscription catch",
    },
    CorpusEntry {
        mutant: "tle-lazyunsafe-mutant",
        seed: 0x0001,
        budget: MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "smallest seed, independent schedule family",
    },
    CorpusEntry {
        mutant: "tle-lazyunsafe-mutant",
        seed: 0xdead_beef,
        budget: MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "third independent seed",
    },
    CorpusEntry {
        mutant: "fgtle-stamp-pre-acquire-mutant",
        seed: DOC_SEED,
        budget: MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "documented seed: the FG-TLE holder stamping with its pre-acquisition lock word, caught at run 5",
    },
    CorpusEntry {
        mutant: "tl2-stale-read-mutant",
        seed: DOC_SEED,
        budget: MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "documented seed: the TL2 stale-read (skipped revalidation) catch",
    },
    CorpusEntry {
        mutant: "swhtm-validate-first-mutant",
        seed: DOC_SEED,
        budget: 64 * MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "documented seed: the swhtm validate-before-sample extension, caught at run 353 (so not within MUTANT_BUDGET; this mutant's own budget is 64x)",
    },
    CorpusEntry {
        mutant: "swhtm-validate-first-mutant",
        seed: 0x0002,
        budget: MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "a seed that catches the swhtm extension within MUTANT_BUDGET",
    },
    CorpusEntry {
        mutant: "swhtm-carry-wv-mutant",
        seed: DOC_SEED,
        budget: MUTANT_BUDGET,
        expect_kind: "non-serializable",
        note: "documented seed: the carried-wv lost update, caught at run 5",
    },
    CorpusEntry {
        mutant: "park-release-skips-check",
        seed: DOC_SEED,
        budget: MUTANT_BUDGET,
        expect_kind: "bad-terminal",
        note: "documented seed: a release that never loads the waiter count strands a parked waiter, caught at run 0",
    },
    CorpusEntry {
        mutant: "park-register-after-recheck",
        seed: DOC_SEED,
        budget: MUTANT_BUDGET,
        expect_kind: "bad-terminal",
        note: "documented seed: a waiter that re-checks before it registers misses the release between, caught at run 31",
    },
];

/// Replays one corpus entry; `Ok(witness)` if the expectation held.
pub fn replay_entry(e: &CorpusEntry) -> Result<String, String> {
    let m = mutant(e.mutant).ok_or_else(|| format!("no seeded mutant named {:?}", e.mutant))?;
    match (m.hunt)(e.seed, e.budget).failure {
        Some(f) if f.kind == e.expect_kind => Ok(f.witness()),
        Some(f) => Err(format!(
            "{} seed {:#x}: expected kind {:?}, found {:?}",
            e.mutant, e.seed, e.expect_kind, f.kind
        )),
        None => Err(format!(
            "{} seed {:#x}: expected {:?} within {} iterations, found nothing",
            e.mutant, e.seed, e.expect_kind, e.budget
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_entry_holds() {
        for e in ENTRIES {
            replay_entry(e).unwrap_or_else(|err| panic!("corpus drift: {err} ({})", e.note));
        }
    }

    #[test]
    fn corpus_covers_every_seeded_mutant() {
        for m in MUTANTS {
            assert_eq!(
                (m.hunt)(1, 1).config,
                m.name,
                "the key is the config's own name"
            );
            assert!(
                ENTRIES.iter().any(|e| e.mutant == m.name),
                "no pinned corpus entry hunts {}",
                m.name
            );
        }
    }
}
