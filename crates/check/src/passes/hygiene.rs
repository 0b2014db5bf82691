//! The two token-level site passes.
//!
//! * `unsafe-safety-comment` — every `unsafe` block or `unsafe impl`
//!   outside test code needs a `// SAFETY:` comment within three lines
//!   above (`unsafe fn` is a declaration, not a block).
//! * `hot-path-hygiene` — `.unwrap()` and `panic!` are banned outside
//!   tests in [`HOT_PATH_FILES`].
//!
//! Both read the one token stream the parser consumed, so they also see
//! inside macro arguments the item tree keeps opaque; the parser's
//! `cfg(test)` spans say what is test code.

use super::PassFinding;
use crate::syntax::ParsedFile;

/// Hot-path modules where `unwrap`/`panic!` are banned outside tests.
pub const HOT_PATH_FILES: &[&str] = &[
    "core/src/elidable.rs",
    "core/src/orec.rs",
    // Every attempt's ending is classified here.
    "htm/src/abort.rs",
    // The clock of every recorded attempt, lock hold and software attempt.
    "htm/src/epoch.rs",
    // Every counter bump of every layer.
    "htm/src/lanes.rs",
    "htm/src/swhtm.rs",
    // Every read, extension and commit of both the emulated HTM and TL2.
    "htm/src/stripe.rs",
    // Every abort of every rung unwinds through here: a stray panic in
    // the raise/catch pair would surface as a bogus abort or a lost one.
    "htm/src/unwind.rs",
    // The probe of every hash set, shard map and k-mer map operation.
    "htm/src/table.rs",
    "hytm/src/norec.rs",
    "hytm/src/tl2.rs",
    // Every recorded attempt is counted here.
    "obs/src/lane.rs",
    // Every batched op is grouped and run through here.
    "shard/src/batch.rs",
    "shard/src/map.rs",
    "shard/src/sharded.rs",
];

/// Runs whichever of the two passes is in `active` over one file.
pub fn run(src: &ParsedFile, active: &[&str]) -> Vec<(&'static str, PassFinding)> {
    let mut out = Vec::new();
    for (i, w) in src.toks.windows(3).enumerate() {
        let (a, b, c) = (&w[0], &w[1], &w[2]);
        let (pass, msg) = if a.is("unsafe") && (b.is("{") || b.is("impl")) {
            if src.comments.annotation(a.line, "SAFETY:").is_some() {
                continue;
            }
            (
                "unsafe-safety-comment",
                "unsafe block/impl without a `// SAFETY:` comment within 3 lines".to_string(),
            )
        } else if (a.is(".") && b.is("unwrap") && c.is("(")) || (a.is("panic") && b.is("!")) {
            (
                "hot-path-hygiene",
                format!(
                    "`{}` is banned in hot-path modules (use expect with an invariant message, or restructure)",
                    if a.is(".") { ".unwrap(" } else { "panic!(" }
                ),
            )
        } else {
            continue;
        };
        if active.contains(&pass) && !src.in_test(i) {
            out.push((pass, PassFinding { line: a.line, msg }));
        }
    }
    out
}
