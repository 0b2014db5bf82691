//! The [`SoftwareTm`] trait: one begin/read/write/commit lifecycle shared
//! by every software transactional memory in this crate, plus the common
//! retry driver ([`run_sw`]) that executes a closure as a software
//! transaction against any backend.
//!
//! Extracting the lifecycle lets `rtle-core`'s `ElidableLock` treat the
//! software fallback as a pluggable backend (`with_software_backend`): the
//! adaptive policy can pick NOrec for hot-key workloads (value-based
//! validation, immune to false conflicts) and TL2 for disjoint-write
//! workloads (per-stripe commit locks, concurrent writer commits) without
//! the lock knowing anything about clocks or stripes.
//!
//! The trait is not designed for implementation outside this crate: the
//! descriptor's logging methods are crate-private, so foreign impls could
//! not do anything useful with it. It is `pub` only so trait objects can
//! cross the crate boundary.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use rtle_htm::unwind::{self, Channel};
use rtle_htm::TxCell;

use crate::ctx::TmCtx;
use crate::descriptor::SwDescriptor;
use crate::stats::{CommitKind, TmStats};

/// One software transactional memory: the begin/read/write/commit/abort
/// lifecycle plus the commit-time hook hardware transactions must run when
/// software transactions are live.
///
/// Aborts are signalled by unwinding ([`crate::abort_sw`]), never by
/// return value — [`run_sw`] catches the unwind, records the abort, and
/// retries from `begin`.
pub trait SoftwareTm: Send + Sync + std::fmt::Debug {
    /// Short stable backend name (`"norec"`, `"rh-norec"`, `"tl2"`) — shown
    /// in live-registry exports and `diag top`.
    fn name(&self) -> &'static str;

    /// The backend's statistics counters.
    fn stats(&self) -> &TmStats;

    /// Starts (or restarts) an attempt: clears the descriptor and takes a
    /// fresh consistent snapshot.
    fn begin(&self, d: &mut SwDescriptor);

    /// Transactional read barrier. Must return buffered writes
    /// (read-own-write) and abort the attempt on a consistency violation.
    fn read(&self, d: &mut SwDescriptor, cell: &TxCell<u64>) -> u64;

    /// Transactional write barrier. The default buffers into the write log
    /// (lazy versioning), which is what every backend here wants.
    fn write(&self, d: &mut SwDescriptor, cell: &TxCell<u64>, value: u64) {
        d.writes.log_write(cell, value);
    }

    /// Commit the attempt. Publishes the write log or aborts by unwinding.
    /// Returns which commit flavour was used (for [`TmStats`]).
    fn commit(&self, d: &mut SwDescriptor) -> CommitKind;

    /// Called once before the first attempt of a software transaction
    /// (e.g. RH-NOrec increments its software-transaction counter here).
    fn enter_sw(&self) {}

    /// Called once after the transaction committed or the thread unwound —
    /// the balancing bracket of [`SoftwareTm::enter_sw`], run from a drop
    /// guard so a panicking closure cannot leak it.
    fn exit_sw(&self) {}

    /// Commit-time instrumentation a *hardware* transaction must execute
    /// when software transactions may be running concurrently. Runs inside
    /// the hardware transaction; must either publish the hardware commit to
    /// the software validation protocol (NOrec: bump the global clock) or
    /// abort the hardware transaction (TL2: versioned stripes cannot
    /// observe hardware commits, so hardware yields). Returns whether
    /// instrumented work was done (drives the HtmFast/HtmSlow split).
    fn hw_commit_hook(&self) -> bool {
        false
    }
}

/// Runs `cs` as one software transaction against `tm`, retrying aborted
/// attempts until one commits. Records per-attempt wall time, the commit
/// kind, aborts, and the completed op on `tm`'s [`TmStats`].
///
/// The descriptor is kept for the thread's next call: its logs and TL2's
/// footprint tables are built once per thread, not once per transaction.
/// (A nested call finds no spare and builds its own.)
///
/// # Panics
///
/// Panics once the thread has destroyed its thread-locals, like
/// [`rtle_htm::swhtm::try_txn`]: a thread-local destructor cannot run a
/// transaction.
pub fn run_sw<R>(tm: &dyn SoftwareTm, cs: impl Fn(&TmCtx<'_>) -> R) -> R {
    thread_local! {
        static SPARE: Cell<Option<SwDescriptor>> = const { Cell::new(None) };
    }
    let _phase = SwPhase::enter(tm);
    let desc = RefCell::new(SPARE.take().unwrap_or_default());
    loop {
        if let Some(r) = sw_attempt(tm, &desc, &cs) {
            SPARE.set(Some(desc.into_inner()));
            return r;
        }
    }
}

/// Brackets one software transaction's `enter_sw`/`exit_sw` lifecycle.
/// `exit_sw` must run even if the closure panics for real (not an abort):
/// leaking e.g. RH-NOrec's software counter would force every future
/// hardware commit to bump the clock forever — hence a drop guard.
///
/// External retry drivers (`rtle-stm`'s `atomically`) hold one of these
/// around their own [`sw_attempt`] loop, so they can interleave per-attempt
/// work (presence acquisition, parking decisions) that [`run_sw`]'s closed
/// loop cannot express.
pub struct SwPhase<'a>(&'a dyn SoftwareTm);

impl<'a> SwPhase<'a> {
    /// Calls `tm.enter_sw()` and returns the guard whose drop exits it.
    pub fn enter(tm: &'a dyn SoftwareTm) -> Self {
        tm.enter_sw();
        SwPhase(tm)
    }
}

impl Drop for SwPhase<'_> {
    fn drop(&mut self) {
        self.0.exit_sw();
    }
}

/// One software-transaction attempt against `tm`: begin, run `cs`, commit.
/// Returns `Some(result)` on commit, `None` when the attempt aborted
/// (validation failure or an explicit [`crate::abort_sw`]) — the caller
/// decides whether and when to retry. Must run inside an
/// [`SwPhase::enter`] bracket; the descriptor is reused across attempts.
pub fn sw_attempt<R>(
    tm: &dyn SoftwareTm,
    desc: &RefCell<SwDescriptor>,
    cs: impl FnOnce(&TmCtx<'_>) -> R,
) -> Option<R> {
    let t0 = Instant::now();
    tm.begin(&mut desc.borrow_mut());
    let outcome = unwind::catch(Channel::Sw, || {
        let ctx = TmCtx::sw(tm, desc);
        let r = cs(&ctx);
        let kind = tm.commit(&mut desc.borrow_mut());
        (r, kind)
    });
    tm.stats().record_sw_time(t0.elapsed());
    match outcome {
        Ok((r, kind)) => {
            tm.stats().record_commit(kind);
            tm.stats().record_op();
            Some(r)
        }
        Err(_) => {
            tm.stats().record_sw_abort();
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norec::Norec;
    use crate::rhnorec::RhNorec;
    use crate::tl2::Tl2;

    fn backends() -> Vec<Box<dyn SoftwareTm>> {
        vec![
            Box::new(Norec::new()),
            Box::new(RhNorec::new()),
            Box::new(Tl2::new()),
        ]
    }

    #[test]
    fn every_backend_commits_through_the_driver() {
        for tm in backends() {
            let a = TxCell::new(1u64);
            let b = TxCell::new(2u64);
            let sum = run_sw(tm.as_ref(), |ctx| {
                let s = ctx.read(&a) + ctx.read(&b);
                ctx.write(&a, s);
                s
            });
            assert_eq!(sum, 3, "{}", tm.name());
            assert_eq!(a.read_plain(), 3, "{}", tm.name());
            let s = tm.stats().snapshot();
            assert_eq!(s.ops, 1, "{}: {s:?}", tm.name());
            assert_eq!(s.stm_commits(), 1, "{}: {s:?}", tm.name());
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = backends().iter().map(|b| b.name()).collect();
        assert_eq!(names, ["norec", "rh-norec", "tl2"]);
    }

    #[test]
    fn exit_sw_runs_on_real_panics() {
        // RH-NOrec's counter must not leak when the closure panics.
        let tm = RhNorec::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sw(&tm, |_ctx| -> u64 { panic!("real bug") })
        }));
        assert!(r.is_err());
        assert_eq!(tm.sw_running(), 0, "sw counter restored on panic");
    }

    #[test]
    fn read_own_write_via_default_write_barrier() {
        for tm in backends() {
            let a = TxCell::new(7u64);
            let v = run_sw(tm.as_ref(), |ctx| {
                ctx.write(&a, 11);
                ctx.read(&a)
            });
            assert_eq!(v, 11, "{}: read-own-write", tm.name());
            assert_eq!(a.read_plain(), 11, "{}", tm.name());
        }
    }
}
