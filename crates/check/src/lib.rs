//! `rtle-check` — the interleaving model checker of the refined-TLE
//! workspace.
//!
//! [`model`] is an exhaustive interleaving explorer over small closed
//! configurations of the TLE / RW-TLE / FG-TLE / lazy-subscription state
//! machines, the versioned-lock protocol and the wait list's park,
//! validating every committed history against a serializability oracle.
//! The suite includes deliberately broken mutants the checker must catch —
//! regression tests for the oracle itself.
//!
//! The source invariants are held elsewhere, by the compiler and clippy
//! (DESIGN §7a): memory orderings by `rtle_htm::atomic`'s types and the
//! std-atomic ban in `clippy.toml`, publication by the `UnsafeCell` ban,
//! the sharded map's lockset and lock order by `rtle-shard`'s types and
//! its `clippy.toml`, and the §4 fence by the orec type's one mutator,
//! pinned by `tests/one_home.rs`.
//!
//! Run it with `cargo run -p rtle-check`; the tier-1 script wires this
//! into CI.

pub mod model;
