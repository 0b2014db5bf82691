//! One open-addressing table, by grep: the linear-probe step and the
//! tombstone encoding live in `rtle_htm::table` and nowhere else, so
//! `TxHashSet`, `TxMap` and `KmerMap` stay payloads of it rather than
//! copies. Textual on purpose — the point is that a second probe loop
//! cannot come back unnoticed.

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

/// Workspace-relative paths of the production code (each file cut at its
/// unindented `#[cfg(test)]`) of `crates/*/src` that contains `needle`.
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
            src.contains(needle)
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
fn the_probe_step_lives_only_in_the_table() {
    assert_eq!(
        production_files_containing("(i + 1) & self.mask"),
        ["crates/htm/src/table.rs"]
    );
}

#[test]
fn the_tombstone_encoding_lives_only_in_the_table() {
    assert_eq!(
        production_files_containing("const TOMBSTONE"),
        ["crates/htm/src/table.rs"]
    );
}
