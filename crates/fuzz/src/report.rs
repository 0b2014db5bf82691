//! JSON export of fuzz campaign results, via `rtle-obs`'s writer.
//!
//! The document is self-describing (`tool`, `fuzz_schema_version`) and
//! deterministic for a given campaign, so CI can archive and diff runs.

use rtle_obs::Json;

use crate::chaos::ChaosReport;
use crate::schedule::HuntReport;

/// Schema version of the fuzz JSON document (bumped on layout changes).
/// v2: `tl2_mutant_fitness` and `tl2_chaos` sections, `stm_commits` in
/// chaos reports. v3: `mutant_fitness` is an array with one hunt per
/// seeded mutant, keyed by its `config` name (`tl2_mutant_fitness` is
/// folded into it).
pub const FUZZ_SCHEMA_VERSION: u64 = 3;

/// One hunt report as JSON.
pub fn hunt_json(r: &HuntReport) -> Json {
    let mut pairs = vec![
        ("config", Json::Str(r.config.clone())),
        ("iterations", Json::UInt(r.iterations)),
        ("fast_terminals", Json::UInt(r.fast_terminals)),
        ("slow_terminals", Json::UInt(r.slow_terminals)),
        ("lock_terminals", Json::UInt(r.lock_terminals)),
        ("clean", Json::Bool(r.clean())),
    ];
    if let Some(f) = &r.failure {
        pairs.push((
            "failure",
            Json::obj([
                ("kind", Json::Str(f.kind.into())),
                ("iteration", Json::UInt(f.iteration)),
                ("seed", Json::UInt(f.seed)),
                ("schedule_len", Json::UInt(f.schedule.len() as u64)),
                ("original_len", Json::UInt(f.original_len as u64)),
                ("detail", Json::Str(f.detail.clone())),
                (
                    "schedule",
                    Json::Arr(f.schedule.iter().map(|&t| Json::UInt(t as u64)).collect()),
                ),
            ]),
        ));
    }
    Json::obj(pairs)
}

/// One chaos report as JSON.
pub fn chaos_json(r: &ChaosReport) -> Json {
    Json::obj([
        ("clean", Json::Bool(r.clean())),
        ("final_state_ok", Json::Bool(r.final_state_ok)),
        ("ops", Json::UInt(r.ops)),
        ("fast_commits", Json::UInt(r.fast_commits)),
        ("slow_commits", Json::UInt(r.slow_commits)),
        ("lock_acquisitions", Json::UInt(r.lock_acquisitions)),
        ("stm_commits", Json::UInt(r.stm_commits)),
        ("aborts", Json::UInt(r.aborts)),
        (
            "divergences",
            Json::Arr(r.divergences.iter().map(|d| Json::Str(d.clone())).collect()),
        ),
    ])
}

/// The full campaign document. `mutants` holds one fitness hunt per
/// seeded mutant; `chaos` covers the classic HTM-or-lock runtime and
/// `tl2_chaos` the software-backed runtime tier.
pub fn campaign_json(
    seed: u64,
    mutants: &[HuntReport],
    hunts: &[HuntReport],
    chaos: Option<&ChaosReport>,
    tl2_chaos: Option<&ChaosReport>,
) -> Json {
    let mut pairs = vec![
        ("tool", Json::Str("rtle-fuzz".into())),
        ("fuzz_schema_version", Json::UInt(FUZZ_SCHEMA_VERSION)),
        ("seed", Json::UInt(seed)),
        (
            "mutant_fitness",
            Json::Arr(mutants.iter().map(hunt_json).collect()),
        ),
        ("hunts", Json::Arr(hunts.iter().map(hunt_json).collect())),
    ];
    if let Some(c) = chaos {
        pairs.push(("chaos", chaos_json(c)));
    }
    if let Some(c) = tl2_chaos {
        pairs.push(("tl2_chaos", chaos_json(c)));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn campaign_json_round_trips() {
        let mutants: Vec<_> = corpus::MUTANTS
            .iter()
            .map(|m| (m.hunt)(corpus::DOC_SEED, m.budget))
            .collect();
        let doc = campaign_json(corpus::DOC_SEED, &mutants, &[], None, None);
        let text = doc.to_string();
        let parsed = rtle_obs::parse_json(&text).expect("fuzz json parses");
        assert_eq!(
            parsed.get("fuzz_schema_version").and_then(Json::as_u64),
            Some(FUZZ_SCHEMA_VERSION)
        );
        let fitness = parsed
            .get("mutant_fitness")
            .and_then(Json::as_arr)
            .expect("mutant_fitness array");
        assert_eq!(fitness.len(), corpus::MUTANTS.len());
        for (entry, m) in fitness.iter().zip(corpus::MUTANTS) {
            assert_eq!(entry.get("config").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                entry.get("clean"),
                Some(&Json::Bool(false)),
                "{}: the hunt must have found the seeded bug",
                m.name
            );
        }
    }
}
