//! The [`SoftwareTm`] trait: one begin/read/write/commit lifecycle shared
//! by every software transactional memory in this crate, plus
//! [`SwPhase`] — one software transaction: the owner of its per-attempt
//! [`SwDescriptor`] — and the closed retry loop over one phase
//! ([`run_sw`]).
//!
//! Extracting the lifecycle lets `rtle-core`'s `ElidableLock` treat the
//! software fallback as a pluggable backend (`with_software_backend`)
//! without knowing anything about clocks or stripes. A lock has *one*
//! backend, chosen when it is built: NOrec for hot-key workloads
//! (value-based validation, immune to false conflicts), RH-NOrec for the
//! paper's hybrid (NOrec with a reduced-hardware commit), or TL2 for
//! disjoint-write workloads (per-stripe commit locks, concurrent writer
//! commits). Two backends never run side by side over one data set —
//! neither validates against the other's write-back (DESIGN §14a).
//!
//! The lock, not the backend, knows whether software transactions are
//! live: its software-presence counter is raised around every software
//! attempt, and its hardware paths run [`SoftwareTm::hw_commit_hook`] only
//! while that counter, read inside the hardware transaction, is above
//! zero.
//!
//! The trait is not designed for implementation outside this crate: the
//! descriptor's logging methods are crate-private, so foreign impls could
//! not do anything useful with it. It is `pub` only so trait objects can
//! cross the crate boundary.

use std::cell::{Cell, RefCell};

use rtle_htm::epoch;
use rtle_htm::unwind::{self, Channel};
use rtle_htm::TxCell;

use crate::ctx::TmCtx;
use crate::descriptor::SwDescriptor;
use crate::stats::{CommitKind, TmStats};

/// One software transactional memory: the begin/read/write/commit/abort
/// lifecycle plus the commit-time hook hardware transactions must run
/// while software transactions are live.
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

    /// Transactional write barrier. The default appends to the write log
    /// (lazy versioning), which is what every backend here wants.
    fn write(&self, d: &mut SwDescriptor, cell: &TxCell<u64>, value: u64) {
        d.writes.log_write(cell, value);
    }

    /// Commit the attempt. Publishes the write log or aborts by unwinding.
    /// Returns which commit flavour was used (for [`TmStats`]).
    fn commit(&self, d: &mut SwDescriptor) -> CommitKind;

    /// Commit-time instrumentation a *hardware* transaction must execute
    /// while software transactions are running concurrently — the caller
    /// (`rtle-core`'s lock) decides that from its software presence. Runs
    /// inside the hardware transaction; must either publish the hardware
    /// commit to the software validation protocol (NOrec, RH-NOrec: bump
    /// the global clock) or abort the hardware transaction (TL2: versioned
    /// stripes cannot observe hardware commits, so hardware yields).
    fn hw_commit_hook(&self);
}

thread_local! {
    /// The thread's spare descriptor, between phases: its logs and TL2's
    /// footprint tables are built once per thread, not once per
    /// transaction. Dropped with the thread.
    static SPARE: Cell<Option<SwDescriptor>> = const { Cell::new(None) };
}

/// Runs `cs` as one software transaction against `tm`: one [`SwPhase`],
/// retrying aborted attempts until one commits.
///
/// # Panics
///
/// Panics once the thread has destroyed its thread-locals, like
/// [`rtle_htm::swhtm::try_txn`]: a thread-local destructor cannot run a
/// transaction.
pub fn run_sw<R>(tm: &dyn SoftwareTm, cs: impl Fn(&TmCtx<'_>) -> R) -> R {
    let phase = SwPhase::enter(tm);
    loop {
        if let Some(r) = phase.attempt(&cs) {
            return r;
        }
    }
}

/// One software transaction on `tm`: the descriptor its attempts run on —
/// the thread's spare one, handed back on drop, also when the closure
/// panics for real (a nested phase finds none and builds its own).
///
/// [`run_sw`] is the closed retry loop over one phase; external drivers
/// (`rtle-core`'s software rung, `rtle-stm`'s `atomically`) hold one
/// around their own loop, so they can interleave per-attempt work
/// (presence acquisition, parking decisions) the closed loop cannot
/// express.
pub struct SwPhase<'a> {
    tm: &'a dyn SoftwareTm,
    /// `Some` until drop hands the descriptor back to the thread.
    desc: Option<RefCell<SwDescriptor>>,
}

impl<'a> SwPhase<'a> {
    /// Takes the thread's descriptor; the returned guard's drop hands it
    /// back.
    ///
    /// # Panics
    ///
    /// As [`run_sw`].
    pub fn enter(tm: &'a dyn SoftwareTm) -> Self {
        SwPhase {
            tm,
            desc: Some(RefCell::new(SPARE.take().unwrap_or_default())),
        }
    }

    /// One attempt: begin, run `cs`, commit. Returns `Some(result)` on
    /// commit, `None` when the attempt aborted (validation failure or an
    /// explicit [`crate::abort_sw`]) — the caller decides whether and when
    /// to retry. Records the attempt's wall time, and the commit (kind and
    /// completed op) or the abort, on the backend's [`TmStats`].
    pub fn attempt<R>(&self, cs: impl FnOnce(&TmCtx<'_>) -> R) -> Option<R> {
        let (tm, desc) = (self.tm, self.desc.as_ref().expect("held until drop"));
        let t0 = epoch::now_ns();
        tm.begin(&mut desc.borrow_mut());
        let outcome = unwind::catch(Channel::Sw, || {
            let ctx = TmCtx::sw(tm, desc);
            let r = cs(&ctx);
            let kind = tm.commit(&mut desc.borrow_mut());
            (r, kind)
        });
        tm.stats()
            .record_sw_time(epoch::now_ns().saturating_sub(t0));
        match outcome {
            Ok((r, kind)) => {
                tm.stats().record_commit(kind);
                Some(r)
            }
            Err(_) => {
                tm.stats().record_sw_abort();
                None
            }
        }
    }

    /// Rolls the attempt in flight back to its first `len` writes, as
    /// `rtle-stm`'s `or_else` abandons a branch and its retry commits
    /// read-only (`len` 0).
    pub fn truncate_writes(&self, len: usize) {
        let desc = self.desc.as_ref().expect("held until drop");
        desc.borrow_mut().writes.truncate(len);
    }
}

impl Drop for SwPhase<'_> {
    fn drop(&mut self) {
        if let Some(desc) = self.desc.take() {
            // Whatever the attempts left in it — a real panic leaves the
            // logs mid-flight — the next `begin` resets. A thread already
            // tearing down its locals just drops it.
            let _ = SPARE.try_with(|spare| spare.set(Some(desc.into_inner())));
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
    fn a_descriptor_a_real_panic_left_mid_flight_is_reset_by_the_next_begin() {
        // The descriptor the panic left mid-flight (a logged read, a
        // buffered write, TL2 footprint entries) goes back to the thread
        // and is fully reset by the next `begin`.
        for tm in backends() {
            let a = TxCell::new(1u64);
            let b = TxCell::new(2u64);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_sw(tm.as_ref(), |ctx| -> u64 {
                    let v = ctx.read(&a);
                    ctx.write(&b, v + 40);
                    panic!("real bug")
                })
            }));
            assert!(r.is_err(), "{}", tm.name());
            assert_eq!(b.read_plain(), 2, "{}: nothing published", tm.name());

            let phase = SwPhase::enter(tm.as_ref());
            tm.begin(&mut phase.desc.as_ref().unwrap().borrow_mut());
            {
                let d = phase.desc.as_ref().unwrap().borrow();
                assert!(d.reads.is_empty() && d.is_read_only(), "{}", tm.name());
            }
            // And it runs a transaction that neither sees nor publishes
            // the stale write.
            assert_eq!(phase.attempt(|ctx| ctx.read(&b)), Some(2), "{}", tm.name());
            assert_eq!(b.read_plain(), 2, "{}", tm.name());
        }
    }

    #[test]
    fn a_phase_reuses_the_threads_descriptor_and_a_nested_one_builds_its_own() {
        let tm = Norec::new();
        let a = TxCell::new(0u64);
        // Grow the log once; the next phase on this thread finds the capacity.
        run_sw(&tm, |ctx| {
            for _ in 0..100 {
                let _ = ctx.read(&a);
            }
        });
        let outer = SwPhase::enter(&tm);
        assert!(outer.desc.as_ref().unwrap().borrow().reads.capacity() >= 100);
        let inner = SwPhase::enter(&tm);
        assert_eq!(inner.desc.as_ref().unwrap().borrow().reads.capacity(), 0);
        assert_eq!(inner.attempt(|ctx| ctx.read(&a)), Some(0));
    }

    #[test]
    fn short_lived_threads_drop_their_descriptor_with_them() {
        let tm = Tl2::new();
        let a = TxCell::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    run_sw(&tm, |ctx| {
                        let v = ctx.read(&a);
                        ctx.write(&a, v + 1);
                    })
                });
            }
        });
        assert_eq!(a.read_plain(), 64);
        assert_eq!(tm.stats().snapshot().ops, 64);
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
