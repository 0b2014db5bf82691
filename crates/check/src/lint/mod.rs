//! The static lint pass: walks the workspace sources and enforces the
//! concurrency-invariant table plus style rules that guard the hot paths.
//!
//! Rule families:
//!
//! 1. **Ordering table** — every atomic-ordering use inside
//!    [`rules::ORDERING_SCOPE`] must match a row of
//!    [`rules::ORDERING_RULES`] or carry a `// ordering: <reason>`
//!    annotation within three lines. Covered-but-nonconforming uses are
//!    violations; uncovered, unannotated uses are "unaudited" findings.
//! 2. **SAFETY comments** — every `unsafe` block or `unsafe impl` outside
//!    test code needs a `// SAFETY:` comment within three lines above.
//! 3. **Hot-path hygiene** — `unwrap`/`panic!` are banned outside tests in
//!    [`rules::HOT_PATH_FILES`].
//!
//! The §4 orec-fence discipline used to be rule family 2 here, enforced
//! by textual adjacency; it is now the path-sensitive `fence` pass in
//! [`crate::passes`] (see the migration note in [`rules`]).

pub mod rules;
pub mod source;

use std::fmt;
use std::path::{Path, PathBuf};

use rules::{ordering_uses, rule_for, violation_msg, AtomicOp};
use source::SourceFile;

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    /// File the finding is in (workspace-relative when possible).
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule family identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
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

/// The source files the lint pass covers: every crate's `src/`, the root
/// facade's `src/`, and the repository `tests/` and `examples/` trees are
/// *not* all equal — only `src/` trees are linted (tests/examples are
/// exercised by the model checker and the compiler).
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

fn rel<'a>(path: &'a Path, root: &Path) -> &'a Path {
    path.strip_prefix(root).unwrap_or(path)
}

/// Lints one parsed file; appends findings.
pub fn lint_file(root: &Path, path: &Path, sf: &SourceFile, findings: &mut Vec<Finding>) {
    let rp = rel(path, root).to_path_buf();
    let path_str = path.to_string_lossy().replace('\\', "/");

    // 1. Ordering table.
    if rules::ORDERING_SCOPE.iter().any(|s| path_str.contains(s)) {
        for stmt in sf.stmts.iter().filter(|s| !s.in_test) {
            for u in ordering_uses(stmt) {
                match rule_for(&path_str, &u.receiver, u.op) {
                    Some(rule) => {
                        if !u.orderings.iter().all(|o| rule.allowed.contains(&o.as_str())) {
                            findings.push(Finding {
                                path: rp.clone(),
                                line: u.line,
                                rule: "ordering-table",
                                msg: violation_msg(rule, &u),
                            });
                        }
                    }
                    None => {
                        if !sf.has_annotation(u.line, 3, "ordering:") {
                            findings.push(Finding {
                                path: rp.clone(),
                                line: u.line,
                                rule: "ordering-unaudited",
                                msg: format!(
                                    "atomic {} on `{}` with Ordering::{} has no invariant-table row and no `// ordering:` annotation",
                                    match u.op {
                                        AtomicOp::Fence => "fence",
                                        _ => "op",
                                    },
                                    if u.receiver.is_empty() { "<fence>" } else { &u.receiver },
                                    u.orderings.join("/")
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // 2. SAFETY comments on unsafe blocks / impls.
    for (idx, li) in sf.lines.iter().enumerate() {
        if li.in_test {
            continue;
        }
        let code = &li.code;
        let mut from = 0;
        while let Some(rel_at) = code[from..].find("unsafe") {
            let at = from + rel_at;
            from = at + "unsafe".len();
            // Whole-word check.
            let before_ok = at == 0
                || !code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = code[at + "unsafe".len()..].trim_start();
            if !before_ok {
                continue;
            }
            let needs_comment = if after.starts_with('{') || after.starts_with("impl") {
                true
            } else if after.is_empty() {
                // `unsafe` at end of line: peek the next code line.
                sf.lines
                    .get(idx + 1)
                    .map(|l| l.code.trim_start().starts_with('{'))
                    .unwrap_or(false)
            } else {
                false // `unsafe fn` etc.: a declaration, not a block
            };
            if needs_comment && !sf.has_annotation(idx + 1, 3, "SAFETY:") {
                findings.push(Finding {
                    path: rp.clone(),
                    line: idx + 1,
                    rule: "unsafe-safety-comment",
                    msg: "unsafe block/impl without a `// SAFETY:` comment within 3 lines".into(),
                });
            }
        }
    }

    // 3. Hot-path hygiene.
    if rules::HOT_PATH_FILES.iter().any(|f| path_str.ends_with(f)) {
        for (idx, li) in sf.lines.iter().enumerate() {
            if li.in_test {
                continue;
            }
            for pat in [".unwrap(", "panic!("] {
                if li.code.contains(pat) {
                    findings.push(Finding {
                        path: rp.clone(),
                        line: idx + 1,
                        rule: "hot-path-hygiene",
                        msg: format!(
                            "`{pat}` is banned in hot-path modules (use expect with an invariant message, or restructure)"
                        ),
                    });
                }
            }
        }
    }
}

/// Lints the whole workspace rooted at `root`. Returns all findings.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for path in workspace_sources(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let sf = SourceFile::parse(&text);
        lint_file(root, &path, &sf, &mut findings);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(fake_path: &str, code: &str) -> Vec<Finding> {
        let sf = SourceFile::parse(code);
        let mut out = Vec::new();
        lint_file(Path::new("/ws"), Path::new(fake_path), &sf, &mut out);
        out
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
        assert_eq!(f[0].rule, "ordering-table");
    }

    #[test]
    fn unaudited_atomic_needs_annotation() {
        let src = "fn f() { MYSTERY.store(1, Ordering::Relaxed); }";
        let f = lint_str("/ws/crates/core/src/other.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordering-unaudited");

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
        assert_eq!(f[0].rule, "ordering-table");

        let f = lint_str("/ws/crates/core/src/other.rs", "fn f() { MYSTERY.store(1, Relaxed); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "ordering-unaudited");

        // And the watchdog's live-mirror rows now match real sites.
        let mirror = "fn f(&self) { self.fired.fetch_add(1, Relaxed); self.state.store(2, Release); }";
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
    fn unsafe_without_safety_comment_flagged() {
        let f = lint_str("/ws/crates/htm/src/x.rs", "fn f() { unsafe { foo(); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-safety-comment");

        let ok = "fn f() {\n    // SAFETY: foo is sound here because reasons.\n    unsafe { foo(); }\n}";
        assert!(lint_str("/ws/crates/htm/src/x.rs", ok).is_empty());

        // `unsafe fn` declarations are not blocks.
        assert!(lint_str("/ws/crates/htm/src/x.rs", "pub unsafe fn g() {}").is_empty());
    }

    #[test]
    fn hot_path_unwrap_flagged() {
        let f = lint_str(
            "/ws/crates/core/src/elidable.rs",
            "fn f() { x.unwrap(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-path-hygiene");
        // expect() is allowed.
        assert!(lint_str(
            "/ws/crates/core/src/elidable.rs",
            "fn f() { x.expect(\"invariant\"); }"
        )
        .is_empty());
    }
}
