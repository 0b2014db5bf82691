//! Exhaustive interleaving checker for the TLE protocol family.
//!
//! The module is a small-step operational model of the runtime in
//! `rtle-core`: each thread is a state machine walking the fast
//! (speculative), slow (speculative-while-locked) and pessimistic (under
//! lock) paths of TLE, RW-TLE and FG-TLE, over a tiny shared memory of
//! numbered locations — which of the three it tries next is *called*, not
//! modeled: `rtle_core::RetryPolicy::next_step`, the runtime's Figure 1.
//! The explorer ([`explore()`]) enumerates *every* interleaving of the
//! per-thread steps from a given configuration (DFS with memoized states)
//! and checks each terminal state against
//!
//! * structural invariants (lock word even, `write_flag` lowered,
//!   every thread — every body of a TL2 thread — committed exactly once),
//!   and
//! * a serializability oracle ([`oracle`]): the committed history must be
//!   equivalent to *some* serial order of the critical sections replayed
//!   over shadow memory.
//!
//! Conflict detection models a requester-wins HTM: any committed (plain or
//! under-lock) store to a line dooms every speculative transaction that has
//! the line in its read or write set; a doomed transaction aborts at its
//! next step. Lock subscription is exactly a transactional read of the lock
//! line, so eager subscription makes lock acquisition doom the subscriber —
//! while the [`Subscription::LazyUnsafe`] variant (no subscription, no
//! commit-time check) reproduces the zombie-transaction hazard the paper's
//! companion work warns about, and the oracle must catch it.
//!
//! Every protocol model implements [`Machine`] ([`machine`]); the explorer,
//! the terminal judge and — in `rtle-fuzz` — the PCT runner, replay,
//! shrinker and hunt are each written once against it. [`tle`] is the
//! machine above. [`tl2`] is the versioned-lock protocol of `rtle-htm`'s
//! `stripe.rs` (per-stripe versioned write-locks, a global version clock
//! only extensions write, a cached read-version, snapshot extension, the
//! own-write exemption) — the one TL2 that `rtle_hytm::Tl2` and the
//! emulated HTM both run — with its own safe suite and three seeded
//! mutants: a skipped commit-time revalidation ([`tl2_mutant_config`]), an
//! extension in the wrong step order ([`swhtm_mutant_config`]) and a
//! commit that carries its `wv` instead of its clock sample
//! ([`carry_wv_mutant_config`]). [`park`] is `rtle_htm::wait`'s park as the
//! lock runs it — register, re-check, park; release stores FREE, loads
//! the waiter count and wakes only when it is non-zero — with two seeded
//! lost wakeups ([`park_release_mutant_config`],
//! [`park_register_mutant_config`]). The judge must catch every mutant.

pub mod explore;
pub mod machine;
pub mod oracle;
pub mod park;
pub mod suite;
pub mod tl2;
pub mod tle;

pub use explore::{explore, judge, Report, TerminalVerdict, ViolationReport};
pub use machine::{AttemptLog, Machine, Op, Val};
pub use oracle::{find_serial_witness, CommitPath, Committed, HOp};
pub use park::{
    park_register_mutant_config, park_release_mutant_config, park_suite, ParkConfig, ParkMutant,
    ParkState,
};
pub use suite::{
    explore_mutants, explore_safe, fgtle_stamp_mutant_config, mutant_config, standard_suite,
};
pub use tl2::{
    carry_wv_mutant_config, swhtm_mutant_config, tl2_mutant_config, tl2_suite, Extension,
    Tl2Config, Tl2State,
};
pub use tle::{Config, Policy, Stamp, State, Subscription, ThreadSpec};
