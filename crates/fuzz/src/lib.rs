//! `rtle-fuzz` — randomized schedule fuzzing and HTM chaos injection for
//! the refined-TLE workspace.
//!
//! `rtle-check`'s exhaustive explorer proves the protocol machines correct
//! over *every* interleaving, but only for 2–3 threads and tiny
//! footprints. The bugs the paper's companion work warns about (zombie
//! reads under lazy subscription, missed write-flag/orec subscriptions)
//! live in longer, asymmetric interleavings. This crate closes that gap
//! probabilistically, from both ends:
//!
//! * [`schedule`] + [`pct`] — a PCT-style randomized scheduler drives the
//!   same small-step machines at 4–8 threads and larger footprints, with
//!   every terminal judged by the explorer's serializability oracle. Run,
//!   replay and hunt are written once, generic over
//!   [`rtle_check::model::Machine`]: the TLE family, TL2 and the emulated
//!   HTM's swhtm protocol all go through them.
//! * [`configs`] — random safe 4–8-thread configurations of each machine.
//! * [`chaos`] — the *real* runtime (`ElidableLock` + `AvlSet`) is
//!   hammered under injected abort storms and lock-holder stalls, against
//!   a partitioned `BTreeSet` differential oracle — classic HTM-or-lock,
//!   and with the TL2 software tier installed (hybrid HTM/STM commits).
//! * [`shrink`] — greedy schedule reduction, so findings are small.
//! * [`corpus`] — pinned seeds, including the mutant *fitness tests*: the
//!   fuzzer must keep re-finding every seeded mutant `rtle-check` carries
//!   (lazy subscription, TL2 stale read, swhtm validate-first extension)
//!   within a bounded budget.
//!
//! Everything is a pure function of a `u64` seed (SplitMix64 streams), so
//! `fuzz replay <seed>` reproduces any model-level finding byte-for-byte.
//! The `fuzz` binary exposes `run | replay | corpus`; `scripts/tier1.sh`
//! wires its seeded quick mode into CI.

pub mod chaos;
pub mod configs;
pub mod corpus;
pub mod ops;
pub mod pct;
pub mod report;
pub mod schedule;
pub mod shrink;

pub use chaos::{run_chaos, ChaosBackend, ChaosPlan, ChaosReport};
pub use configs::{random_safe_config, random_safe_tl2_config};
pub use corpus::{DOC_SEED, MUTANT_BUDGET};
pub use ops::SetOp;
pub use pct::Pct;
pub use schedule::{hunt, replay, run_pct, Failure, HuntReport};
pub use shrink::shrink_schedule;
