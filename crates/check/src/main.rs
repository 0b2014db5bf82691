//! `rtle-check` CLI: `rtle-check [--root <path>] [lint|model|all]`.
//!
//! * `lint` — audit every atomic site of the workspace sources against the
//!   memory-ordering table.
//! * `model` — exhaustively check the standard protocol configurations
//!   *and* verify the seeded model mutants (lazy subscription, TL2 stale
//!   read, swhtm validate-first extension, carried `wv`, the two park
//!   mutants) are caught.
//! * `all` (default) — `lint`, then `model`.
//!
//! Exit code 0 iff everything is clean (and every mutant was detected).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtle_check::find_workspace_root;
use rtle_check::model::{explore_mutants, explore_safe, Report};
use rtle_check::ordering::lint_workspace;

/// Audits the workspace's atomic sites, printing under the `mode` label.
fn run_lint(mode: &str, root: &Path) -> bool {
    let report = lint_workspace(root);
    for f in &report.findings {
        println!("{mode}: {f}");
    }
    let clean = report.findings.is_empty();
    println!(
        "{mode}: {} ({} sites in {} files, {} findings, {} ms)",
        if clean { "OK" } else { "FAILED" },
        report.sites,
        report.files,
        report.findings.len(),
        report.elapsed_ms
    );
    clean
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
    let mut mode = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                let Some(v) = args.next() else {
                    eprintln!("rtle-check: {a} requires a path argument");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(v));
            }
            "lint" | "model" | "all" => mode = a,
            other => {
                eprintln!("usage: rtle-check [--root <path>] [lint|model|all] (got {other:?})");
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
    if mode == "lint" || mode == "all" {
        let label = if mode == "all" { "check" } else { "lint" };
        match &root {
            Some(r) => ok &= run_lint(label, r),
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
