//! # rtle-sim: deterministic evaluation substrate for the paper's figures
//!
//! The paper's evaluation (§6) ran on 4-core Haswell and 2×18-core Xeon
//! machines with real Intel RTM. This reproduction targets *scaling
//! shapes* — who wins at which thread count, where TLE collapses, where
//! RHNOrec's global clock melts down — which real threads on one core
//! cannot exhibit. Instead, this crate simulates the protocols with a
//! deterministic discrete-event engine:
//!
//! * **Logical threads** execute critical sections whose *access traces*
//!   (cache-line, read/write) come from real shadow data structures — the
//!   actual [`rtle_avltree::AvlSet`] / [`rtle_cctsa::KmerMap`] crates — so
//!   conflict structure (hot roots, shared k-mers, account collisions) is
//!   organic, not curve-fit.
//! * **Every protocol artifact is a cache line**: the lock word, RW-TLE's
//!   write flag, FG-TLE's orecs, NOrec/RHNOrec's global clock. An attempt
//!   carries `(line, watched_from)` read entries and commits only if no
//!   other commit wrote a watched line inside the watched window — one
//!   validation rule reproduces eager subscription, lazy subscription,
//!   orec ownership, and RHNOrec's reduced commit-window clock conflicts.
//! * A **cycle cost model** ([`cost::CostModel`]) prices accesses, barrier
//!   calls (un-inlined, as the paper laments), HTM begin/commit/abort and
//!   lock transfer; throughput converts through a machine profile's clock.
//!
//! Modelling simplifications (documented in DESIGN.md): conflicts abort at
//! the end of the attempt window rather than mid-flight (a uniform
//! pessimistic bias), and pessimistic executions pre-schedule their stores
//! as timed line-write events (sound: they cannot abort).

pub mod cost;
pub mod engine;
pub mod method;
pub mod stats;
pub mod workload;
pub mod workloads;

pub use cost::{CostModel, MachineProfile};
pub use engine::{Engine, RunMode};
pub use method::SimMethod;
pub use stats::SimStats;
pub use workload::{Access, OpSpec, Workload};
