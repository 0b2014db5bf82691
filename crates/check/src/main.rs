//! `rtle-check` CLI: `rtle-check [model]`.
//!
//! Exhaustively checks the standard protocol configurations *and* verifies
//! that the seeded model mutants (lazy subscription, the FG-TLE stamp
//! from the pre-acquisition lock word, TL2 stale read, swhtm
//! validate-first extension, carried `wv`, the two park mutants) are
//! caught.
//!
//! Exit code 0 iff every safe configuration is clean and every mutant was
//! detected.

use std::process::ExitCode;

use rtle_check::model::{explore_mutants, explore_safe, Report};

/// Prints one explored configuration and returns whether it met its
/// contract: a safe configuration is clean over every interleaving, a
/// seeded mutant is caught as a violation of its `expect`ed kind.
fn print_model_row(r: &Report, expect: Option<&str>) -> bool {
    let row = format!(
        "model: {:<24} {:>7} states {:>6} terminals",
        r.config, r.states, r.terminals
    );
    if let Some(kind) = expect {
        let caught = r.violations.iter().any(|v| v.kind == kind);
        let verdict = if caught {
            format!(
                "MUTANT CAUGHT ({} violations, as required)",
                r.violation_count
            )
        } else {
            "MUTANT MISSED — oracle regression!".to_string()
        };
        println!("{row} -> {verdict}");
        if let Some(v) = r.violations.first() {
            println!("model:   witness: {} (schedule {:?})", v.detail, v.schedule);
        }
        return caught;
    }
    let verdict = if r.clean() {
        "OK".to_string()
    } else {
        format!("{} VIOLATIONS", r.violation_count)
    };
    println!(
        "{row} (paths {}: {}/{}/{}) -> {verdict}",
        r.path_labels, r.fast_commit_terminals, r.slow_commit_terminals, r.lock_commit_terminals,
    );
    for v in &r.violations {
        println!(
            "model:   [{}] {} (schedule {:?})",
            v.kind, v.detail, v.schedule
        );
    }
    r.clean()
}

/// One loop over every machine's safe suite (the TLE family, and the
/// versioned-lock protocol's cached-rv + snapshot-extension `swhtm-*`),
/// then over the seeded mutants — all through the one generic explorer.
fn run_model() -> bool {
    let safe = explore_safe().into_iter().map(|r| (r, None));
    let mutants = explore_mutants()
        .into_iter()
        .map(|(r, kind)| (r, Some(kind)));
    let mut ok = true;
    for (r, expect) in safe.chain(mutants) {
        ok &= print_model_row(&r, expect);
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [mode] if mode == "model" => {}
        other => {
            eprintln!("usage: rtle-check [model] (got {other:?})");
            return ExitCode::from(2);
        }
    }
    if run_model() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
