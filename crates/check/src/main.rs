//! `rtle-check` CLI:
//! `rtle-check [--root <path>] [--json <file>] [lint|analyze|model|all]`.
//!
//! * `lint` — run the site-local pass (the memory-ordering table) over the
//!   workspace sources.
//! * `analyze` — run the two path-sensitive flow passes (publication, §4
//!   fence) and verify the seeded analyzer mutant is caught.
//! * `model` — exhaustively check the standard protocol configurations
//!   *and* verify the seeded model mutants (lazy subscription, TL2 stale
//!   read, swhtm validate-first extension, carried `wv`) are caught.
//! * `all` (default) — all three passes in one reading of the sources,
//!   then the model.
//!
//! `lint`, `analyze` and `all` are pass filters over the one driver; with
//! `--json <file>` its report is exported through the rtle-obs JSON schema.
//!
//! Exit code 0 iff everything is clean (and every mutant was detected).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtle_check::find_workspace_root;
use rtle_check::model::{explore_mutants, explore_safe, Report};
use rtle_check::passes::{analyze_workspace, FLOW_PASSES, PASSES};

/// Runs `passes` over the workspace, printing under the `mode` label.
fn run_passes(mode: &str, root: &Path, passes: &[&'static str], json: Option<&Path>) -> bool {
    let report = analyze_workspace(root, passes);
    for f in report.unsuppressed() {
        println!("{mode}: {f}");
    }
    for m in &report.mutants {
        println!(
            "{mode}: mutant {:<22} [{}] -> {}",
            m.feature,
            m.pass,
            if m.caught {
                format!("CAUGHT ({} findings, as required)", m.findings)
            } else {
                "MISSED — analyzer regression!".to_string()
            }
        );
    }
    let suppressed = report.findings.iter().filter(|f| f.suppressed).count();
    let live = report.unsuppressed().count();
    println!(
        "{mode}: {} ({} passes, {} files, {} fns, {live} findings, {suppressed} suppressed, {} ms)",
        if report.ok() { "OK" } else { "FAILED" },
        passes.len(),
        report.files,
        report.functions,
        report.elapsed_ms
    );
    if let Some(path) = json {
        let text = report.to_json().to_string_pretty();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("{mode}: could not write {}: {e}", path.display());
            return false;
        }
        println!("{mode}: report written to {}", path.display());
    }
    report.ok()
}

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
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut mode = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" | "--json" => {
                let Some(v) = args.next() else {
                    eprintln!("rtle-check: {a} requires a path argument");
                    return ExitCode::from(2);
                };
                if a == "--root" {
                    root = Some(PathBuf::from(v));
                } else {
                    json = Some(PathBuf::from(v));
                }
            }
            "lint" | "analyze" | "model" | "all" => mode = a,
            other => {
                eprintln!(
                    "usage: rtle-check [--root <path>] [--json <file>] \
                     [lint|analyze|model|all] (got {other:?})"
                );
                return ExitCode::from(2);
            }
        }
    }
    let root = root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        find_workspace_root(&cwd)
            .or_else(|| find_workspace_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))))
    });

    let mut ok = true;
    let passes = match mode.as_str() {
        "lint" => &PASSES[FLOW_PASSES..],
        "analyze" => &PASSES[..FLOW_PASSES],
        "all" => &PASSES[..],
        _ => &[],
    };
    if !passes.is_empty() {
        let label = if mode == "all" { "check" } else { &mode };
        match &root {
            Some(r) => ok &= run_passes(label, r, passes, json.as_deref()),
            None => {
                eprintln!("rtle-check: could not locate the workspace root (use --root)");
                ok = false;
            }
        }
    }
    if mode == "model" || mode == "all" {
        ok &= run_model();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
