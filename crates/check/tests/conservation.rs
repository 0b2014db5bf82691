//! Conservation: the one reading of the source loses nothing.
//!
//! The parser is lossy by design (types, generics, patterns) and
//! error-tolerant, so nothing in it *proves* that a function or an atomic
//! site reaches the passes. These tests hold that over the real workspace,
//! by counting the same thing two ways: once on the raw token stream, once
//! on what the parser and the lowering hand the passes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rtle_check::cfg::lower::ORDERING_NAMES;
use rtle_check::cfg::lower_fn;
use rtle_check::find_workspace_root;
use rtle_check::passes::ordering::{ordering_uses, ORDERING_SCOPE};
use rtle_check::passes::workspace_sources;
use rtle_check::syntax::{for_each_fn, parse_file, ParsedFile, Tok, TokKind};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// Every workspace source file, parsed, with its `/`-separated relative path.
fn sources() -> Vec<(String, ParsedFile)> {
    let root = root();
    let files: Vec<_> = workspace_sources(&root)
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable source");
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            (rel, parse_file(&text))
        })
        .collect();
    assert!(
        files.len() > 100,
        "workspace scan looks truncated: {} files",
        files.len()
    );
    files
}

/// Does the `fn` at `toks[at]` have a body — is a `{` met before a `;`
/// outside its parameter list and any array type?
fn has_body(toks: &[Tok], at: usize) -> bool {
    let mut depth = 0usize;
    for t in &toks[at..] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => return true,
            ";" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

#[test]
fn every_fn_token_with_a_body_is_lowered() {
    let mut total = 0;
    let mut lost = Vec::new();
    for (rel, src) in sources() {
        let mut parsed: Vec<(usize, &str)> = Vec::new();
        for_each_fn(&src.items, &mut |f, _| {
            if f.body.is_some() {
                parsed.push((f.line, &f.name));
            }
        });
        for (i, w) in src.toks.windows(2).enumerate() {
            if w[0].is("fn") && w[1].kind == TokKind::Ident && has_body(&src.toks, i) {
                total += 1;
                if !parsed.contains(&(w[0].line, &w[1].text)) {
                    lost.push(format!("{rel}:{}: fn {}", w[0].line, w[1].text));
                }
            }
        }
    }
    assert!(total > 1500, "only {total} fn tokens seen");
    assert!(
        lost.is_empty(),
        "{} of {total} functions never reach the passes:\n{}",
        lost.len(),
        lost.join("\n")
    );
}

#[test]
fn every_ordering_token_is_an_event() {
    let mut sites = 0;
    for (rel, src) in sources() {
        if !ORDERING_SCOPE.iter().any(|s| rel.contains(s)) {
            continue;
        }
        // The ordering names in production code, outside `use` items
        // (comments and literals are not tokens of their own).
        let mut in_tokens: BTreeMap<&str, usize> = BTreeMap::new();
        let mut in_use = false;
        for (i, t) in src.toks.iter().enumerate() {
            match t.text.as_str() {
                "use" => in_use = true,
                ";" => in_use = false,
                name if !in_use
                    && !src.in_test(i)
                    && t.kind == TokKind::Ident
                    && ORDERING_NAMES.contains(&name) =>
                {
                    *in_tokens.entry(name).or_default() += 1;
                }
                _ => {}
            }
        }
        // The ordering names the lowering's events carry.
        let mut in_events: BTreeMap<&str, usize> = BTreeMap::new();
        for_each_fn(&src.items, &mut |f, marker| {
            if marker == Some("test") {
                return;
            }
            for u in ordering_uses(&lower_fn(f, marker)) {
                for o in &u.orderings {
                    let name = ORDERING_NAMES
                        .iter()
                        .find(|n| *n == o)
                        .expect("a known ordering");
                    *in_events.entry(name).or_default() += 1;
                    sites += 1;
                }
            }
        });
        assert_eq!(
            in_tokens, in_events,
            "{rel}: ordering names in the token stream (left) that no Atomic/Fence event carries (right) — \
             an atomic inside a macro argument, a swallowed function, or a method the lowering does not know"
        );
    }
    assert!(sites >= 74, "only {sites} orderings audited");
}
