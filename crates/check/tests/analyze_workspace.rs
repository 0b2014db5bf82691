//! The analyzer's own acceptance gate, runnable as a plain cargo test:
//! the whole workspace must analyze clean (zero unsuppressed findings),
//! the seeded mutant must be caught, every suppression must carry a
//! reason, and the report must round-trip through the rtle-obs JSON
//! schema.

use std::path::Path;

use rtle_check::find_workspace_root;
use rtle_check::passes::{analyze_workspace, EXPECTED_MUTANTS, PASSES};
use rtle_obs::{parse_json, Json, SCHEMA_VERSION};

fn root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

#[test]
fn workspace_is_clean_and_mutants_are_caught() {
    let report = analyze_workspace(&root(), &PASSES);
    let live: Vec<String> = report.unsuppressed().map(|f| f.to_string()).collect();
    assert!(
        live.is_empty(),
        "unsuppressed findings:\n{}",
        live.join("\n")
    );
    assert_eq!(report.mutants.len(), 1, "mutant-publication, and only it");
    for m in &report.mutants {
        assert!(
            m.caught,
            "seeded mutant `{}` was not caught by the `{}` pass — analyzer regression",
            m.feature, m.pass
        );
    }
    assert!(report.ok());
    assert!(
        report.files > 50,
        "workspace scan looks truncated: {} files",
        report.files
    );
    assert!(
        report.functions > 50,
        "too few functions analyzed: {}",
        report.functions
    );
}

#[test]
fn suppressions_carry_reasons() {
    let report = analyze_workspace(&root(), &PASSES);
    let suppressed: Vec<_> = report.findings.iter().filter(|f| f.suppressed).collect();
    assert!(
        !suppressed.is_empty(),
        "expected the documented reference-reconstruction suppressions to exist"
    );
    for f in suppressed {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.is_empty()),
            "suppressed finding without a reason: {f}"
        );
    }
}

#[test]
fn report_round_trips_through_obs_json() {
    let report = analyze_workspace(&root(), &PASSES);
    let text = report.to_json().to_string_pretty();
    let back = parse_json(&text).expect("valid JSON");
    assert_eq!(
        back.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert_eq!(
        back.get("kind").and_then(Json::as_str),
        Some("check-findings")
    );
    assert_eq!(back.get("tool").and_then(Json::as_str), Some("rtle-check"));
    let findings = back
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings array");
    assert!(
        findings
            .iter()
            .all(|f| f.get("suppressed") == Some(&Json::Bool(true))),
        "unsuppressed findings in export"
    );
    assert_eq!(
        back.get("files").and_then(Json::as_u64),
        Some(report.files as u64)
    );
    // All three passes report, in order (then the annotation-hygiene
    // bucket), and none has a finding that gates.
    let passes = back
        .get("passes")
        .and_then(Json::as_arr)
        .expect("passes array");
    let names: Vec<_> = passes
        .iter()
        .filter_map(|p| p.get("name")?.as_str())
        .collect();
    assert_eq!(names[..PASSES.len()], PASSES);
    assert_eq!(names[PASSES.len()..], ["suppression"]);
    for p in passes {
        assert_eq!(p.get("findings").and_then(Json::as_u64), Some(0), "{p:?}");
    }
    let mutants = back
        .get("mutants")
        .and_then(Json::as_arr)
        .expect("mutants array");
    assert_eq!(mutants.len(), EXPECTED_MUTANTS.len());
    assert!(mutants
        .iter()
        .all(|m| m.get("caught").is_some_and(|c| *c == Json::Bool(true))));
}
