//! `rtle-check` — the concurrency correctness gate for the refined-TLE
//! workspace.
//!
//! Two engines, both dependency-free:
//!
//! * the static side — one reading of the source ([`syntax`]: one lexer
//!   that keeps comments, one parser; [`cfg`](mod@cfg): one lowering to typed
//!   events) and the three [`passes`] over it: two path-sensitive flow
//!   passes (publication, the §4 fence) and one site-local one (the
//!   memory-ordering invariant table over `rtle-core`/`rtle-htm`/…).
//!   Generic Rust hygiene (`// SAFETY:` comments, `unwrap`/`panic!` bans
//!   in hot-path modules) is clippy's, from the workspace lint table; the
//!   sharded map's lockset and lock order are `rtle-shard`'s types and
//!   its `clippy.toml`.
//! * [`model`] — an exhaustive interleaving explorer over small closed
//!   configurations of the TLE / RW-TLE / FG-TLE / lazy-subscription state
//!   machines, validating every committed history against a
//!   serializability oracle. The suite includes a deliberately broken
//!   lazy-subscription mutant the checker must catch — a regression test
//!   for the oracle itself.
//!
//! Run both with `cargo run -p rtle-check` (see `main.rs` for flags); the
//! tier-1 script wires this into CI.

pub mod cfg;
pub mod model;
pub mod passes;
pub mod syntax;

use std::path::{Path, PathBuf};

/// Locates the workspace root: walks up from `start` looking for a
/// directory that contains both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
