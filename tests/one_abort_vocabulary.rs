//! One abort vocabulary, by grep: `rtle_htm::AbortCode` is the only abort
//! enum, and its class labels are spelled in `htm/src/abort.rs` and
//! nowhere else, so the recorder, the statistics and the simulator stay
//! readers of that one table rather than copies of it. Textual on purpose
//! — the point is that a second vocabulary cannot come back unnoticed.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative paths of the production code of `crates/*/src`
/// (each file cut at its unindented `#[cfg(test)]`, comment lines
/// dropped) that contains `needle`.
fn production_files_containing(needle: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 100, "walked only {} files", files.len());
    let mut hits: Vec<String> = files
        .into_iter()
        .filter(|path| {
            let mut src = std::fs::read_to_string(path).expect("source file");
            if let Some(cut) = src.find("\n#[cfg(test)]") {
                src.truncate(cut);
            }
            src.lines()
                .filter(|line| !line.trim_start().starts_with("//"))
                .any(|line| line.contains(needle))
        })
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the workspace");
            rel.display().to_string().replace('\\', "/")
        })
        .collect();
    hits.sort();
    hits
}

#[test]
fn abort_code_is_the_only_abort_enum() {
    for gone in ["enum Outcome", "OUTCOME_LABELS", "ForcedCause"] {
        assert_eq!(
            production_files_containing(gone),
            Vec::<String>::new(),
            "`{gone}` is back"
        );
    }
}

#[test]
fn the_class_labels_are_spelled_only_in_the_table() {
    for label in ["\"unsupported\"", "\"nested\"", "\"spurious\""] {
        assert_eq!(
            production_files_containing(label),
            ["crates/htm/src/abort.rs"],
            "{label}"
        );
    }
}
