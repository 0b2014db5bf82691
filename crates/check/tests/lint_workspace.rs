//! The ordering table (`rtle-check lint`) must run clean on this
//! workspace: `cargo test` therefore enforces the invariant table even
//! when `scripts/tier1.sh` is skipped.

use std::path::Path;

use rtle_check::find_workspace_root;
use rtle_check::lexer::lex;
use rtle_check::ordering::{
    in_scope, lint_workspace, relative, rule_for, sites, workspace_sources, ORDERING_RULES,
};

#[test]
fn workspace_lint_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root locatable from crates/check");
    let report = lint_workspace(&root);
    assert!(report.sites >= 74, "only {} sites audited", report.sites);
    assert!(
        report.findings.is_empty(),
        "lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Recording is not a build option: there is one record stream, and a
/// recorded operation is a timestamped one. No crate may grow the `trace`
/// cargo feature back.
#[test]
fn no_manifest_declares_a_trace_feature() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let mut manifests = 0;
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = krate.expect("dir entry").path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        manifests += 1;
        let declares = text.lines().any(|line| {
            let (key, value) = line.split_once('=').unwrap_or((line, ""));
            key.trim() == "trace" || key.trim() == "default" && value.contains("\"trace\"")
        });
        assert!(
            !declares,
            "{} declares a `trace` feature",
            manifest.display()
        );
    }
    assert!(manifests >= 13, "only {manifests} crate manifests scanned");
}

/// The watchdog's live mirror imports its ordering (`use …::Relaxed`), so
/// every one of its atomic accesses is a bare `Relaxed` argument — four of
/// them inside a `vec![..]`: the scanner must find each, and each must
/// land on one of the three `obs/src/watchdog.rs` table rows rather than
/// go unaudited.
#[test]
fn watchdog_live_mirror_sites_match_their_table_rows() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let path = "crates/obs/src/watchdog.rs";
    let text = std::fs::read_to_string(root.join(path)).expect("watchdog source");
    let uses = sites(&lex(&text).0);
    assert!(
        uses.len() >= 12,
        "only {} live-mirror sites seen",
        uses.len()
    );
    for u in &uses {
        let rule = rule_for(path, &u.receiver, u.op)
            .unwrap_or_else(|| panic!("{path}:{}: `{}` matches no row", u.line, u.receiver));
        assert_eq!(rule.file_suffix, "obs/src/watchdog.rs");
        assert_eq!(u.orderings, ["Relaxed"], "{path}:{}", u.line);
    }
}

/// Every row of the invariant table covers at least one production atomic
/// site of the workspace: a row whose site is gone is deleted with it, not
/// left to bless a future atomic nobody reviewed.
#[test]
fn every_ordering_row_matches_a_production_site() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let mut used = vec![false; ORDERING_RULES.len()];
    for path in workspace_sources(&root) {
        let rel = relative(&root, &path);
        if !in_scope(&rel) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source");
        for u in sites(&lex(&text).0) {
            if let Some(rule) = rule_for(&rel, &u.receiver, u.op) {
                let row = ORDERING_RULES
                    .iter()
                    .position(|r| {
                        (r.file_suffix, r.receiver, r.op)
                            == (rule.file_suffix, rule.receiver, rule.op)
                    })
                    .expect("a table row");
                used[row] = true;
            }
        }
    }
    let stale: Vec<String> = ORDERING_RULES
        .iter()
        .zip(&used)
        .filter(|(_, &used)| !used)
        .map(|(r, _)| format!("{} `{}` {:?}", r.file_suffix, r.receiver, r.op))
        .collect();
    assert!(
        stale.is_empty(),
        "rows matching no production site: {stale:#?}"
    );
}
