//! # rtle-hytm: the paper's baseline transactional memories
//!
//! The evaluation of *Refined Transactional Lock Elision* (§6.2.2) compares
//! the refined TLE variants against two systems, both built here from
//! scratch on the same [`rtle_htm::TxCell`] substrate:
//!
//! * [`norec::Norec`] — the NOrec STM (Dalessandro, Spear, Scott; PPoPP
//!   2010): a software TM with **no ownership records**. A single global
//!   sequence clock orders writer commits; readers log *(address, value)*
//!   pairs and re-validate them by value whenever the clock moves. Writers
//!   commit under the clock's odd state (a de-facto single global lock for
//!   the write-back), so NOrec is immune to false conflicts but serializes
//!   writer commits.
//! * [`rhnorec::RhNorec`] — the software half of Reduced-Hardware NOrec
//!   (Matveev & Shavit, TRANSACT 2014, the hybrid the paper compares
//!   against). Transactions first try to run **entirely in hardware** —
//!   that is `rtle-core`'s `ElidableLock` ladder with this backend
//!   installed; while software transactions are running, committing
//!   hardware transactions must bump the global clock (forcing software
//!   readers to revalidate). A software transaction tries to execute its
//!   *commit phase* — write-back plus clock bump — inside a small
//!   ("reduced") hardware transaction, falling back to a clock-acquired
//!   single-global-lock commit that halts everything.
//!
//! Beyond the paper's baselines, [`tl2::Tl2`] is the TL2 STM (Dice,
//! Shalev, Shavit; DISC 2006): per-stripe versioned write-locks plus a
//! global version clock, so *disjoint* writers commit concurrently instead
//! of serializing through one sequence lock. It is an instance of the
//! versioned-lock protocol of [`rtle_htm::stripe`], which the emulated HTM
//! underneath runs too. All three are unified behind
//! the [`tm::SoftwareTm`] trait — begin/read/write/commit lifecycle plus
//! stats and the hardware commit-time hook — so `rtle-core`'s
//! `ElidableLock` can plug any *one* of them in as its software fallback
//! (`with_software_backend`; two protocols over one data set do not
//! validate against each other, so a lock has one). NOrec and TL2 also run
//! standalone through their `execute` (software only, the closed retry
//! loop [`tm::run_sw`]). One software transaction is a [`tm::SwPhase`]:
//! the thread's reusable descriptor, whichever driver runs it.
//!
//! [`stats::TmStats`] counts software commits by flavour (STMFastCommit /
//! STMSlowCommit), aborts and value-based validations. The paper's
//! Figures 8–10 are plotted from the simulator's statistics (`rtle-sim`'s
//! `SimStats`), not from these.

pub mod ctx;
pub mod descriptor;
pub mod norec;
pub mod rhnorec;
pub mod stats;
pub mod tl2;
pub mod tm;

pub use ctx::TmCtx;
pub use descriptor::abort_sw;
pub use norec::Norec;
pub use rhnorec::RhNorec;
pub use stats::{CommitKind, TmStats, TmStatsSnapshot};
pub use tl2::Tl2;
pub use tm::{run_sw, SoftwareTm, SwPhase};

/// Explicit abort codes used by the hybrid runtimes inside hardware
/// transactions.
pub mod abort_codes {
    /// Reduced hardware commit found the clock moved since the snapshot.
    pub const CLOCK_CHANGED: u8 = 32;
    /// Hardware fast path found the single-global-lock commit in progress
    /// (odd clock).
    pub const SGL_HELD: u8 = 33;
    /// Software transactions are live and the backend's validation protocol
    /// cannot observe hardware commits (TL2: stripe versions only change
    /// under software commit locks) — the hardware transaction yields.
    pub const SW_ACTIVE: u8 = 34;
}
