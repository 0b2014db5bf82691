//! Conservation: the token scanner loses no atomic site.
//!
//! The scanner recognises a site by its shape (an atomic method or `fence`
//! called with an ordering argument), so nothing in it *proves* that every
//! ordering of the source reaches the table. This test holds that over the
//! real workspace, by counting the same thing two ways: every ordering
//! name on the raw token stream, and the orderings the sites carry.

use std::collections::BTreeMap;
use std::path::Path;

use rtle_check::find_workspace_root;
use rtle_check::lexer::{lex, test_mask, TokKind};
use rtle_check::ordering::{in_scope, relative, sites, workspace_sources, ORDERING_NAMES};

#[test]
fn every_ordering_token_is_an_event() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let mut audited = 0;
    for path in workspace_sources(&root) {
        let rel = relative(&root, &path);
        if !in_scope(&rel) {
            continue;
        }
        let (toks, _) = lex(&std::fs::read_to_string(&path).expect("readable source"));
        let in_test = test_mask(&toks);
        // The ordering names in production code, outside `use` items
        // (comments and literals are not tokens of their own).
        let mut in_tokens: BTreeMap<String, usize> = BTreeMap::new();
        let mut in_use = false;
        for (i, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                "use" => in_use = true,
                ";" => in_use = false,
                name if !in_use
                    && !in_test[i]
                    && t.kind == TokKind::Ident
                    && ORDERING_NAMES.contains(&name) =>
                {
                    *in_tokens.entry(name.to_string()).or_default() += 1;
                }
                _ => {}
            }
        }
        // The ordering names the sites carry.
        let mut in_sites: BTreeMap<String, usize> = BTreeMap::new();
        for o in sites(&toks).into_iter().flat_map(|s| s.orderings) {
            *in_sites.entry(o).or_default() += 1;
            audited += 1;
        }
        assert_eq!(
            in_tokens, in_sites,
            "{rel}: ordering names in the token stream (left) that no site carries (right) — \
             an ordering held in a variable, or a method the scanner does not know"
        );
    }
    assert!(audited >= 74, "only {audited} orderings audited");
}
