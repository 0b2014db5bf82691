//! Golden-file tests for the parser and the CFG lowering.
//!
//! Each `tests/golden/<name>.rs` snippet has a checked-in `.ast` dump
//! (the parsed item tree) and a `.cfg` dump (every lowered function's
//! block graph and events). Run with `BLESS=1` to regenerate the
//! expectations after an intentional parser/lowering change:
//!
//! ```sh
//! BLESS=1 cargo test -p rtle-check --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use rtle_check::cfg::lower_fn;
use rtle_check::syntax::{dump_items, for_each_fn, parse_file};

const SNIPPETS: &[&str] = &["nested_closures", "match_guards", "early_returns"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, ext: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.{ext}"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name}.{ext} drifted; run `BLESS=1 cargo test -p rtle-check --test golden` \
         and review the diff"
    );
}

fn cfg_dump(src: &str) -> String {
    let items = parse_file(src).items;
    let mut out = String::new();
    for_each_fn(&items, &mut |f, mod_cfg| {
        let cfg = lower_fn(f, mod_cfg);
        let _ = write!(out, "{}", cfg.dump());
    });
    out
}

#[test]
fn golden_ast_and_cfg() {
    for name in SNIPPETS {
        let src =
            std::fs::read_to_string(golden_dir().join(format!("{name}.rs"))).expect("read snippet");
        check(name, "ast", &dump_items(&parse_file(&src).items));
        check(name, "cfg", &cfg_dump(&src));
    }
}

#[test]
fn early_returns_snippet_keeps_fence_discipline() {
    // The snippet's loop body stamps, fences, then stores — the fence
    // pass must see it as clean even across continue/break edges.
    let src = std::fs::read_to_string(golden_dir().join("early_returns.rs")).unwrap();
    let items = parse_file(&src).items;
    let mut findings = Vec::new();
    for_each_fn(&items, &mut |f, mod_cfg| {
        findings.extend(rtle_check::passes::fence::run(&lower_fn(f, mod_cfg)));
    });
    assert!(findings.is_empty(), "{findings:?}");
}
