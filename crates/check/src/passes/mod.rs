//! The three passes and their one driver.
//!
//! The driver ([`analyze_workspace`]) parses every workspace source file
//! some pass covers once — [`crate::syntax::parse_file`]: one token
//! stream, its comments, one item tree — lowers each of its functions with
//! [`crate::cfg`], and runs the passes over the lowering, each scoped to
//! the files whose invariants it encodes. Two are
//! path-sensitive **flow passes** (`rtle-check analyze`):
//!
//! | pass          | scope                         | invariant |
//! |---------------|-------------------------------|-----------|
//! | `publication` | htm cell/swhtm/stripe, hytm tl2, core lock/barrier, stm | Release publishes after init; raw reads behind Acquire |
//! | `fence`       | `core/src/orec.rs`, `hytm/src/tl2.rs` | §4 store-load fence post-dominates the stamp |
//!
//! and one is a **site-local pass** (`rtle-check lint`):
//!
//! | pass             | scope                        | invariant |
//! |------------------|------------------------------|-----------|
//! | `ordering-table` | [`ordering::ORDERING_SCOPE`] | every atomic site matches its [`ordering::ORDERING_RULES`] row, or (`ordering-unaudited`) carries `// ordering: <reason>` |
//!
//! Generic Rust hygiene is not a pass: `// SAFETY:` on every `unsafe`
//! block and no `unwrap`/`panic!` in the hot-path modules are clippy lints
//! (the root `Cargo.toml`'s `[workspace.lints]` table and each hot-path
//! module's `#![warn(clippy::unwrap_used, clippy::panic)]`). Nor are the
//! sharded map's two invariants: its map is private to `shard/src/shard.rs`
//! and reachable only with the shard's lock, and its one multi-shard
//! section constructor sorts before it locks, the only `lock_section` call
//! that `shard/clippy.toml` allows (DESIGN §7a).
//!
//! Findings can be suppressed with a `// lockcheck: <reason>` comment
//! within three lines of the site; the reason is
//! mandatory — an empty one is itself a finding. Functions gated behind
//! a `mutant-*` cargo feature are **seeded mutants**: their findings are
//! diverted into a per-feature bucket that must be non-empty, a
//! regression test for the analyzer itself.

pub mod fence;
pub mod ordering;
pub mod publication;

use std::fmt;
use std::path::{Path, PathBuf};

use rtle_obs::{Json, SCHEMA_VERSION};

use crate::cfg::{lower_fn, FnCfg};
use crate::syntax::{for_each_fn, parse_file, Comments};

/// The three passes: the two flow passes, then the site-local one.
pub const PASSES: [&str; 3] = ["publication", "fence", "ordering-table"];

/// How many of [`PASSES`] are flow passes (`rtle-check analyze` runs
/// those, `rtle-check lint` the rest).
pub const FLOW_PASSES: usize = 2;

/// A raw (line, message) finding from a single pass run.
#[derive(Debug)]
pub struct PassFinding {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

/// A workspace-level finding, after suppression processing.
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Pass name (one of [`PASSES`]; `ordering-unaudited` for the
    /// ordering table's no-row verdict; `suppression` for
    /// annotation-hygiene findings).
    pub pass: &'static str,
    /// Description.
    pub msg: String,
    /// Silenced by a `// lockcheck: <reason>` annotation?
    pub suppressed: bool,
    /// The annotation's reason text, when suppressed.
    pub reason: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.pass,
            self.msg
        )?;
        if self.suppressed {
            write!(f, " (suppressed: {})", self.reason.as_deref().unwrap_or(""))?;
        }
        Ok(())
    }
}

/// Outcome of one seeded mutant.
#[derive(Debug)]
pub struct MutantResult {
    /// Cargo feature gating the mutant (`mutant-publication`).
    pub feature: String,
    /// Pass expected to catch it.
    pub pass: &'static str,
    /// Did the expected pass report at least one finding in it?
    pub caught: bool,
    /// Total findings (all passes) inside the mutant.
    pub findings: usize,
}

/// The seeded mutants the workspace must contain and catch.
pub const EXPECTED_MUTANTS: &[(&str, &str)] = &[("mutant-publication", "publication")];

/// Whole-workspace analysis result.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The passes that ran.
    pub passes: Vec<&'static str>,
    /// Source files scanned.
    pub files: usize,
    /// Non-test functions analyzed.
    pub functions: usize,
    /// Wall-clock analysis time.
    pub elapsed_ms: u64,
    /// All findings (suppressed ones included, marked).
    pub findings: Vec<Finding>,
    /// Seeded-mutant outcomes, in [`EXPECTED_MUTANTS`] order.
    pub mutants: Vec<MutantResult>,
}

impl AnalysisReport {
    /// Findings that actually gate CI (not suppressed).
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Clean ⇔ zero unsuppressed findings *and* every mutant caught.
    pub fn ok(&self) -> bool {
        self.unsuppressed().count() == 0 && self.mutants.iter().all(|m| m.caught)
    }

    /// (unsuppressed, suppressed) findings of one pass; the ordering
    /// table's no-row verdict counts with its pass.
    fn pass_counts(&self, name: &str) -> (u64, u64) {
        let of = |f: &&Finding| {
            f.pass == name || (name == "ordering-table" && f.pass == "ordering-unaudited")
        };
        let mut live = 0;
        let mut supp = 0;
        for f in self.findings.iter().filter(of) {
            if f.suppressed {
                supp += 1;
            } else {
                live += 1;
            }
        }
        (live, supp)
    }

    /// The report as a JSON document in the rtle-obs export schema.
    pub fn to_json(&self) -> Json {
        let passes = self
            .passes
            .iter()
            .chain(&["suppression"])
            .map(|name| {
                let (live, supp) = self.pass_counts(name);
                Json::obj([
                    ("name", Json::Str((*name).into())),
                    ("findings", Json::UInt(live)),
                    ("suppressed", Json::UInt(supp)),
                ])
            })
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::obj([
                    ("path", Json::Str(f.path.display().to_string())),
                    ("line", Json::UInt(f.line as u64)),
                    ("pass", Json::Str(f.pass.into())),
                    ("msg", Json::Str(f.msg.clone())),
                    ("suppressed", Json::Bool(f.suppressed)),
                    ("reason", f.reason.clone().map_or(Json::Null, Json::Str)),
                ])
            })
            .collect();
        let mutants = self
            .mutants
            .iter()
            .map(|m| {
                Json::obj([
                    ("feature", Json::Str(m.feature.clone())),
                    ("pass", Json::Str(m.pass.into())),
                    ("caught", Json::Bool(m.caught)),
                    ("findings", Json::UInt(m.findings as u64)),
                ])
            })
            .collect();
        Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("tool", Json::Str("rtle-check".into())),
            ("kind", Json::Str("check-findings".into())),
            ("files", Json::UInt(self.files as u64)),
            ("functions", Json::UInt(self.functions as u64)),
            ("elapsed_ms", Json::UInt(self.elapsed_ms)),
            ("passes", Json::Arr(passes)),
            ("findings", Json::Arr(findings)),
            ("mutants", Json::Arr(mutants)),
        ])
    }
}

/// Which passes cover `path` (workspace-relative, `/`-separated).
fn passes_for(path_str: &str) -> Vec<&'static str> {
    const PUBLICATION_FILES: &[&str] = &[
        "htm/src/cell.rs",
        "htm/src/swhtm.rs",
        "htm/src/stripe.rs",
        "htm/src/mutants.rs",
        "hytm/src/tl2.rs",
        "core/src/lock.rs",
        "core/src/barrier.rs",
        // The composable-transaction layer: commit-time publication is
        // delegated to the lock/backend protocols, so the pass is near
        // vacuous today — in scope so any future Release-store fast path
        // added to the redo-log flush or the waiter wakeup is checked
        // automatically.
        "stm/src/space.rs",
        "stm/src/tx.rs",
        "stm/src/var.rs",
    ];
    // Files the §4 fence-dominance pass walks. TL2 has no orec stamps (its
    // commit-time validation shortcut replaces the §4 fence), so the pass
    // is vacuous there today — keeping the file in scope means any future
    // orec-style stamp added to the backend is checked automatically.
    const FENCE_FILES: &[&str] = &["core/src/orec.rs", "hytm/src/tl2.rs"];
    let mut v = Vec::new();
    if PUBLICATION_FILES.iter().any(|f| path_str.ends_with(f)) {
        v.push("publication");
    }
    if FENCE_FILES.iter().any(|f| path_str.ends_with(f)) {
        v.push("fence");
    }
    if ordering::ORDERING_SCOPE
        .iter()
        .any(|s| path_str.contains(s))
    {
        v.push("ordering-table");
    }
    v
}

fn run_pass(
    name: &'static str,
    path: &str,
    cfg: &FnCfg,
    comments: &Comments,
) -> Vec<(&'static str, PassFinding)> {
    let findings = match name {
        "publication" => publication::run(cfg),
        "fence" => fence::run(cfg),
        "ordering-table" => return ordering::run(path, cfg, comments),
        _ => unreachable!("{name} is not one of PASSES"),
    };
    findings.into_iter().map(|pf| (name, pf)).collect()
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The source files the passes cover: every crate's `src/` and the root
/// facade's `src/` (tests and examples are exercised by the model checker
/// and the compiler).
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    files
}

/// Runs those of `passes` that cover the file over its text — one parse,
/// and one lowering per non-test function; appends to `findings` /
/// `mutant_hits` and returns the number of functions it lowered (none
/// when no pass covers the file).
fn analyze_file(
    rel_path: &Path,
    text: &str,
    passes: &[&'static str],
    findings: &mut Vec<Finding>,
    mutant_hits: &mut Vec<(String, &'static str, usize)>,
) -> usize {
    let path_str = rel_path.to_string_lossy().replace('\\', "/");
    let mut active = passes_for(&path_str);
    active.retain(|p| passes.contains(p));
    if active.is_empty() {
        return 0;
    }
    let src = parse_file(text);
    let mut report = |pass: &'static str, mutant: Option<&str>, pf: PassFinding| {
        if let Some(feature) = mutant {
            mutant_hits.push((feature.to_string(), pass, pf.line));
            return;
        }
        let reason = src.comments.annotation(pf.line, "lockcheck:");
        if reason == Some("") {
            findings.push(Finding {
                path: rel_path.to_path_buf(),
                line: pf.line,
                pass: "suppression",
                msg: "`// lockcheck:` suppression with an empty reason \
                      (a reason is mandatory)"
                    .into(),
                suppressed: false,
                reason: None,
            });
        }
        findings.push(Finding {
            path: rel_path.to_path_buf(),
            line: pf.line,
            pass,
            msg: pf.msg,
            suppressed: reason.is_some(),
            reason: reason.map(str::to_string),
        });
    };
    let mut functions = 0;
    for_each_fn(&src.items, &mut |f, marker| {
        if marker == Some("test") {
            return;
        }
        functions += 1;
        let cfg = lower_fn(f, marker);
        for pass in &active {
            for (label, pf) in run_pass(pass, &path_str, &cfg, &src.comments) {
                report(label, cfg.mutant_feature(), pf);
            }
        }
    });
    functions
}

/// Runs `passes` (a subset of [`PASSES`]) over the workspace rooted at
/// `root`, reading each file once.
pub fn analyze_workspace(root: &Path, passes: &[&'static str]) -> AnalysisReport {
    let start = std::time::Instant::now();
    let mut findings = Vec::new();
    let mut mutant_hits: Vec<(String, &'static str, usize)> = Vec::new();
    let mut files = 0;
    let mut functions = 0;
    for path in workspace_sources(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        files += 1;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        functions += analyze_file(rel, &text, passes, &mut findings, &mut mutant_hits);
    }
    let mutants = EXPECTED_MUTANTS
        .iter()
        .filter(|(_, pass)| passes.contains(pass))
        .map(|&(feature, pass)| {
            let all = mutant_hits.iter().filter(|(f, _, _)| f == feature).count();
            let hit = mutant_hits
                .iter()
                .any(|(f, p, _)| f == feature && *p == pass);
            MutantResult {
                feature: feature.into(),
                pass,
                caught: hit,
                findings: all,
            }
        })
        .collect();
    AnalysisReport {
        passes: passes.to_vec(),
        files,
        functions,
        elapsed_ms: start.elapsed().as_millis() as u64,
        findings,
        mutants,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cfg::FnCfg;
    use crate::syntax::parse_file;

    /// Parses `src` and lowers its first function — the shared fixture
    /// loader for the per-pass test modules.
    pub(crate) fn lower_first(src: &str) -> FnCfg {
        let items = parse_file(src).items;
        let mut out = None;
        crate::syntax::for_each_fn(&items, &mut |f, cfg| {
            if out.is_none() {
                out = Some(lower_fn(f, cfg));
            }
        });
        out.expect("no fn parsed")
    }

    fn analyze_one(rel: &str, text: &str) -> (Vec<Finding>, Vec<(String, &'static str, usize)>) {
        let mut findings = Vec::new();
        let mut hits = Vec::new();
        analyze_file(Path::new(rel), text, &PASSES, &mut findings, &mut hits);
        (findings, hits)
    }

    /// The site-local pass's fixture loader (the retired lint's name).
    fn lint_str(fake_path: &str, code: &str) -> Vec<Finding> {
        analyze_one(fake_path, code).0
    }

    #[test]
    fn suppression_with_reason_marks_finding() {
        let src = "impl M {\n    fn peek(&self) -> u64 {\n        // lockcheck: advisory read, documented racy\n        unsafe { *self.slot.get() }\n    }\n}\n";
        let (f, _) = analyze_one("crates/htm/src/cell.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
        assert_eq!(
            f[0].reason.as_deref(),
            Some("advisory read, documented racy")
        );
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "impl M {\n    fn peek(&self) -> u64 {\n        // lockcheck:\n        unsafe { *self.slot.get() }\n    }\n}\n";
        let (f, _) = analyze_one("crates/htm/src/cell.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.pass == "suppression" && !f.suppressed));
    }

    #[test]
    fn mutant_findings_divert_to_bucket() {
        let src = "impl M {\n    #[cfg(feature = \"mutant-publication\")]\n    fn bad(&self, v: u64) {\n        self.ready.store(true, Ordering::Release);\n        unsafe { *self.slot.get() = v };\n    }\n}\n";
        let (f, hits) = analyze_one("crates/htm/src/mutants.rs", src);
        assert!(f.is_empty(), "mutant findings must not gate: {f:?}");
        assert!(
            hits.iter()
                .any(|(feat, pass, _)| feat == "mutant-publication" && *pass == "publication"),
            "{hits:?}"
        );
    }

    #[test]
    fn test_functions_are_skipped() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t(&self) -> u64 { unsafe { *self.slot.get() } }\n}\n";
        let (f, _) = analyze_one("crates/htm/src/cell.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_files_are_not_analyzed() {
        let src = "fn f(&self) -> u64 { unsafe { *self.slot.get() } }";
        let (f, _) = analyze_one("crates/bench/src/main.rs", src);
        assert!(f.is_empty());
    }

    #[test]
    fn report_json_has_schema_and_counts() {
        let report = AnalysisReport {
            passes: PASSES.to_vec(),
            files: 3,
            functions: 7,
            elapsed_ms: 12,
            findings: vec![Finding {
                path: PathBuf::from("crates/htm/src/cell.rs"),
                line: 4,
                pass: "publication",
                msg: "m".into(),
                suppressed: true,
                reason: Some("r".into()),
            }],
            mutants: vec![MutantResult {
                feature: "mutant-publication".into(),
                pass: "publication",
                caught: true,
                findings: 1,
            }],
        };
        assert!(report.ok());
        let j = report.to_json();
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("check-findings"));
        let text = j.to_string_pretty();
        let back = rtle_obs::parse_json(&text).expect("round-trip");
        assert_eq!(back.get("files").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn conforming_cell_load_passes() {
        let f = lint_str(
            "/ws/crates/htm/src/cell.rs",
            "impl X { fn read(&self) { self.raw.load(Ordering::Acquire); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_cell_load_flagged() {
        let f = lint_str(
            "/ws/crates/htm/src/cell.rs",
            "impl X { fn read(&self) { self.raw.load(Ordering::Relaxed); } }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, "ordering-table");
    }

    #[test]
    fn unaudited_atomic_needs_annotation() {
        let src = "fn f() { MYSTERY.store(1, Ordering::Relaxed); }";
        let f = lint_str("/ws/crates/core/src/other.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, "ordering-unaudited");

        let annotated =
            "fn f() {\n    // ordering: test-only knob, no sync role\n    MYSTERY.store(1, Ordering::Relaxed);\n}";
        let f = lint_str("/ws/crates/core/src/other.rs", annotated);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_imported_ordering_is_audited_like_a_qualified_one() {
        // `use std::sync::atomic::Ordering::Relaxed;` must not hide a site:
        // on a covered receiver a non-conforming bare ordering is a table
        // violation, on an uncovered one it is unaudited.
        let covered = "impl X { fn read(&self) { self.raw.load(Relaxed); } }";
        let f = lint_str("/ws/crates/htm/src/cell.rs", covered);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-table");

        let f = lint_str(
            "/ws/crates/core/src/other.rs",
            "fn f() { MYSTERY.store(1, Relaxed); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-unaudited");

        // And the watchdog's live-mirror rows now match real sites.
        let mirror =
            "fn f(&self) { self.fired.fetch_add(1, Relaxed); self.state.store(2, Release); }";
        let f = lint_str("/ws/crates/obs/src/watchdog.rs", mirror);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("store on `state`"), "{}", f[0].msg);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { X.load(Ordering::SeqCst); }\n}\n";
        let f = lint_str("/ws/crates/core/src/other.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn every_fetch_method_is_audited() {
        // The retired scanner's op list lacked `fetch_or/and/xor/min/update`.
        let f = lint_str(
            "/ws/crates/core/src/other.rs",
            "fn f() { FLAGS.fetch_or(1, Ordering::Relaxed); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-unaudited");
        // On a covered file it lands on the read-modify-write row.
        let f = lint_str(
            "/ws/crates/htm/src/lanes.rs",
            "fn f(&self) { self.w.fetch_or(1, Ordering::AcqRel); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-table");
        assert!(f[0].msg.starts_with("fetch_or on `w`"), "{}", f[0].msg);
    }

    #[test]
    fn atomics_inside_macro_arguments_are_seen() {
        let src = "fn f(&self) -> Vec<u64> { vec![self.a.load(Ordering::SeqCst), 1] }";
        let f = lint_str("/ws/crates/obs/src/watchdog.rs", src);
        let passes: Vec<_> = f.iter().map(|f| f.pass).collect();
        assert_eq!(passes, ["ordering-table"], "{f:?}");
    }

    #[test]
    fn lint_and_analyze_are_filters_over_the_one_driver() {
        let src = "impl M {\n    fn peek(&self) -> u64 {\n        HINT.load(Ordering::Relaxed);\n        unsafe { *self.slot.get() }\n    }\n}\n";
        let run = |passes: &[&'static str]| {
            let mut findings = Vec::new();
            analyze_file(
                Path::new("crates/htm/src/cell.rs"),
                src,
                passes,
                &mut findings,
                &mut Vec::new(),
            );
            findings.iter().map(|f| f.pass).collect::<Vec<_>>()
        };
        assert_eq!(run(&PASSES[..FLOW_PASSES]), ["publication"]);
        assert_eq!(run(&PASSES[FLOW_PASSES..]), ["ordering-unaudited"]);
        assert_eq!(run(&PASSES), ["publication", "ordering-unaudited"]);
    }
}
