//! `rtle-check` — the concurrency correctness gate for the refined-TLE
//! workspace.
//!
//! Two engines, both dependency-free:
//!
//! * [`ordering`] — the memory-ordering table: every atomic site of
//!   `rtle-core`/`rtle-htm`/`rtle-hytm`/`rtle-shard`/`rtle-stm` and the
//!   recording side of `rtle-obs`, read off one token stream ([`lexer`]),
//!   matches its table row or carries a `// ordering: <reason>` comment.
//!   The other source invariants are held elsewhere: generic Rust hygiene
//!   by clippy's workspace lint table, the sharded map's lockset and lock
//!   order by `rtle-shard`'s types and its `clippy.toml`, publication by
//!   the `UnsafeCell` ban in `clippy.toml`, and the §4 fence by the orec
//!   arrays' privacy and `tests/one_home.rs` (DESIGN §7a).
//! * [`model`] — an exhaustive interleaving explorer over small closed
//!   configurations of the TLE / RW-TLE / FG-TLE / lazy-subscription state
//!   machines, validating every committed history against a
//!   serializability oracle. The suite includes a deliberately broken
//!   lazy-subscription mutant the checker must catch — a regression test
//!   for the oracle itself.
//!
//! Run both with `cargo run -p rtle-check` (see `main.rs` for the
//! subcommands); the tier-1 script wires this into CI.

pub mod lexer;
pub mod model;
pub mod ordering;

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
