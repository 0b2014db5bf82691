//! [`Tx`]: the in-flight composable transaction handle.
//!
//! One `Tx` is one *attempt* of an [`crate::atomically`] block, in one of
//! three execution modes mirroring the refined-TLE ladder:
//!
//! * **Spec** — inside a hardware transaction of the space lock's
//!   speculative phase (fast or slow path). Participant locks touched
//!   through [`Tx::map_get`] & co. are enrolled by *transactional lock
//!   subscription* ([`ElidableLock::subscribe_speculatively`]): if a
//!   participant is held, the attempt aborts; if it is acquired later, the
//!   lock word in the HTM read set dooms the transaction. The paper's
//!   single-lock subscription argument, applied per participant.
//! * **Sw** — inside a software-TM attempt on the space's backend.
//!   Enrollment raises the participant's `sw_running` presence
//!   ([`ElidableLock::try_software_presence`]) so pessimistic holders
//!   quiesce us; acquisition is *non-blocking* with a bounded spin —
//!   blocking while holding other presences would close a deadlock cycle
//!   with multi-lock pessimistic acquirers, so a stubbornly held lock
//!   aborts the attempt instead ([`rtle_hytm::abort_sw`]).
//! * **Locked** — every needed lock is held pessimistically, acquired in
//!   ascending address order (the same total order `rtle-shard` uses for
//!   cross-shard transfers, so the deadlock-freedom argument composes).
//!   Touching a lock outside the held plan unwinds on the `Restart` channel
//!   of [`rtle_htm::unwind`] ([`restart`]); the driver grows the plan and
//!   re-runs.
//!
//! In **every** mode the transaction buffers its writes in an append-only
//! redo log and flushes them at commit time. Append-only is what makes
//! [`Tx::or_else`] cheap: the abandoned first branch is rolled back by
//! truncating the write log to a checkpoint, while its reads stay logged —
//! STM-Haskell's semantics, where a nested-retry blocks on the *union* of
//! both branches' read sets.
//!
//! # Safety contract
//!
//! The logs hold raw `*const TxCell<u64>` pointers, exactly like the
//! software-TM descriptors in `rtle-hytm`: cells reached through the
//! closure's captured references must outlive the `atomically` call. The
//! dedicated entry points ([`Tx::read`], [`Tx::map_get`], …) enforce this
//! with `'env` bounds; the blanket [`TxAccess`] implementation (which lets
//! space-domain structures like `AvlSet` run unmodified) inherits the same
//! contract the descriptors document: do not feed it cells owned by the
//! closure's own stack frame.

use std::cell::RefCell;
use std::sync::Arc;

use rtle_core::{ElidableLock, SoftwarePresence};
use rtle_htm::unwind::{self, Channel};
use rtle_htm::{AbortCode, DynAccess, SwHtmBackend, TxAccess, TxCell, TxWord};
use rtle_hytm::SoftwareTm;
use rtle_shard::ShardedTxMap;

use crate::space::Stm;
use crate::var::{TxVar, WaitList};

/// The elidable-lock flavour composable transactions run over. The stack
/// is built on the emulated HTM backend throughout (chaos injection,
/// deterministic tests); a generic-`B` space would buy nothing here.
pub(crate) type Lock = ElidableLock<SwHtmBackend>;

/// Why a transaction attempt did not produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// The transaction asked to block until something in its read set
    /// changes ([`Tx::retry`]).
    Retry,
}

/// What an `atomically` closure returns: the value, or a request to block
/// and rerun. Compose with `?`.
pub type TxResult<T> = Result<T, TxError>;

/// One logged read: the cell, the value observed, and — for [`TxVar`]
/// reads — the var's waiter list, so `retry` knows where to park.
pub(crate) struct ReadRec {
    pub(crate) cell: *const TxCell<u64>,
    pub(crate) value: u64,
    pub(crate) waiters: Option<*const WaitList>,
}

/// One buffered write. `domain` is the owning lock's address, so the
/// pessimistic flush can route it through that lock's holder context
/// (stamping the right orecs / write flag for slow-path coexistence).
pub(crate) struct WriteRec {
    pub(crate) cell: *const TxCell<u64>,
    pub(crate) value: u64,
    pub(crate) domain: usize,
    pub(crate) waiters: Option<*const WaitList>,
}

/// Per-attempt state, owned by the driver so it survives the closure frame
/// (the flush and the park/wake bookkeeping run after `f` returns).
#[derive(Default)]
pub(crate) struct TxInner<'env> {
    pub(crate) reads: Vec<ReadRec>,
    pub(crate) writes: Vec<WriteRec>,
    /// Participant locks enrolled this attempt (the space lock excluded).
    pub(crate) enrolled: Vec<&'env Lock>,
    /// Set by a Locked-mode enrollment miss just before [`restart`].
    pub(crate) missing: Option<&'env Lock>,
}

impl<'env> TxInner<'env> {
    /// Fresh per-call state. The logs start above the allocator's
    /// thread-cache sizes on purpose: a log grown from empty is a chain of
    /// `realloc`s through those sizes, where glibc hands a thread chunks
    /// other threads' arenas own (anything it freed lately, say tree nodes
    /// the loader allocated) and `realloc` then locks the owning arena —
    /// all clients serialising on one arena is a third of the throughput.
    /// A request this size is always served from the thread's own arena.
    pub(crate) fn new() -> Self {
        TxInner {
            reads: Vec::with_capacity(64),
            writes: Vec::with_capacity(32),
            ..TxInner::default()
        }
    }

    pub(crate) fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.enrolled.clear();
        self.missing = None;
    }
}

/// The held pessimistic plan: each acquired lock's address paired with its
/// holder execution context (borrowed from the driver's `LockedSection`s).
pub(crate) struct LockedPlan<'s> {
    pub(crate) entries: Vec<(usize, &'s (dyn DynAccess + 's))>,
}

impl<'s> LockedPlan<'s> {
    pub(crate) fn access_for(&self, domain: usize) -> Option<&'s (dyn DynAccess + 's)> {
        self.entries
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, a)| *a)
    }
}

/// The attempt's execution mode (see module docs).
pub(crate) enum Mode<'env, 'run> {
    /// Hardware speculation under the space lock.
    Spec(&'run (dyn DynAccess + 'run)),
    /// Software-TM attempt on the space lock's backend.
    Sw {
        acc: &'run (dyn DynAccess + 'run),
        tm: &'run Arc<dyn SoftwareTm>,
        presences: &'run RefCell<Vec<SoftwarePresence<'env>>>,
    },
    /// Pessimistic: all planned locks held in address order.
    Locked(&'run LockedPlan<'run>),
}

/// The live transaction handle an [`crate::atomically`] closure receives.
///
/// `Tx` implements [`TxAccess`], so space-domain transactional structures
/// (`AvlSet`, `TxHashSet`, …) run inside the transaction unmodified:
/// `set.insert(tx, k)`. Sharded maps with their own locks participate via
/// the [`Tx::map_get`] / [`Tx::map_insert`] / [`Tx::map_remove`] /
/// [`Tx::map_contains`] adapters, which enroll the owning shard lock
/// before routing the operation.
pub struct Tx<'env, 'run> {
    pub(crate) space: &'env Stm,
    pub(crate) mode: Mode<'env, 'run>,
    pub(crate) inner: &'run RefCell<TxInner<'env>>,
}

impl<'env, 'run> Tx<'env, 'run> {
    pub(crate) fn new(
        space: &'env Stm,
        mode: Mode<'env, 'run>,
        inner: &'run RefCell<TxInner<'env>>,
    ) -> Self {
        Tx { space, mode, inner }
    }

    #[inline]
    fn space_domain(&self) -> usize {
        self.space.lock_addr()
    }

    /// Transactional read of a [`TxVar`]. The read is logged with the
    /// var's waiter list, so a later [`Tx::retry`] blocks on it.
    pub fn read<T: TxWord>(&self, var: &'env TxVar<T>) -> T {
        let word = self.load_raw(
            var.cell().as_word_cell(),
            self.space_domain(),
            Some(var.waiters() as *const WaitList),
        );
        T::from_word(word)
    }

    /// Transactional write of a [`TxVar`]. Buffered until commit; the
    /// var's waiter list is woken after the commit is visible.
    pub fn write<T: TxWord>(&self, var: &'env TxVar<T>, value: T) {
        self.store_raw(
            var.cell().as_word_cell(),
            value.to_word(),
            self.space_domain(),
            Some(var.waiters() as *const WaitList),
        );
    }

    /// Gives up this attempt and blocks until some [`TxVar`] in the read
    /// set changes, then reruns the whole transaction. Use with `?`:
    ///
    /// ```ignore
    /// let n = tx.read(&avail);
    /// if n == 0 { return tx.retry(); }
    /// ```
    ///
    /// The blocked transaction commits nothing (its buffered writes are
    /// discarded); the read set it parks on is the consistent snapshot the
    /// attempt observed. At least one `TxVar` must have been read — a
    /// retry with no vars in the read set has no wakeup source and panics
    /// rather than blocking forever.
    pub fn retry<T>(&self) -> TxResult<T> {
        Err(TxError::Retry)
    }

    /// `check(cond)?` — STM-Haskell's `check`: retry unless `cond` holds.
    pub fn check(&self, cond: bool) -> TxResult<()> {
        if cond {
            Ok(())
        } else {
            Err(TxError::Retry)
        }
    }

    /// Composes two alternatives: runs `a`; if it retries, rolls back its
    /// writes (truncating the append-only redo log to a checkpoint) and
    /// runs `b`. Reads from the abandoned branch stay logged, so a retry
    /// of the *composition* blocks on the union of both branches' read
    /// sets — exactly STM-Haskell's `orElse`. Nests freely.
    pub fn or_else<R>(
        &self,
        a: impl FnOnce(&Self) -> TxResult<R>,
        b: impl FnOnce(&Self) -> TxResult<R>,
    ) -> TxResult<R> {
        let checkpoint = self.inner.borrow().writes.len();
        match a(self) {
            Err(TxError::Retry) => {
                self.inner.borrow_mut().writes.truncate(checkpoint);
                b(self)
            }
            done => done,
        }
    }

    // ------------------------------------------------------------------
    // Sharded-map participation
    // ------------------------------------------------------------------

    /// Transactional `get` on a sharded map: enrolls the key's shard lock
    /// as a participant, then routes the probe through this transaction.
    pub fn map_get<V: TxWord>(
        &self,
        map: &'env ShardedTxMap<V, SwHtmBackend>,
        key: u64,
    ) -> Option<V> {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.get(&DomainAccess { tx: self, domain }, key)
    }

    /// Transactional membership test on a sharded map.
    pub fn map_contains<V: TxWord>(
        &self,
        map: &'env ShardedTxMap<V, SwHtmBackend>,
        key: u64,
    ) -> bool {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.contains(&DomainAccess { tx: self, domain }, key)
    }

    /// Transactional insert on a sharded map; returns the previous value.
    pub fn map_insert<V: TxWord>(
        &self,
        map: &'env ShardedTxMap<V, SwHtmBackend>,
        key: u64,
        value: V,
    ) -> Option<V> {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.insert(&DomainAccess { tx: self, domain }, key, value)
    }

    /// Transactional remove on a sharded map; returns the removed value.
    pub fn map_remove<V: TxWord>(
        &self,
        map: &'env ShardedTxMap<V, SwHtmBackend>,
        key: u64,
    ) -> Option<V> {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.remove(&DomainAccess { tx: self, domain }, key)
    }

    // ------------------------------------------------------------------
    // Enrollment
    // ------------------------------------------------------------------

    /// Enrolls a participant lock into this attempt (idempotent) and
    /// returns its domain id. Mode-specific protocol per module docs.
    pub(crate) fn enroll(&self, lock: &'env Lock) -> usize {
        let domain = lock as *const Lock as usize;
        if domain == self.space_domain() {
            return domain;
        }
        let already = self
            .inner
            .borrow()
            .enrolled
            .iter()
            .any(|l| std::ptr::eq(*l as *const Lock, lock as *const Lock));
        if already {
            return domain;
        }
        match &self.mode {
            Mode::Spec(_) => {
                // Aborts the hardware transaction if the participant is
                // held; otherwise its lock word joins the HTM read set.
                lock.subscribe_speculatively();
            }
            Mode::Sw { tm, presences, .. } => {
                // The space's validation protocol only covers participant
                // data if the participant's hardware commits run the same
                // backend's commit hook — require the shared Arc.
                assert!(
                    lock.software_backends().iter().any(|b| Arc::ptr_eq(b, tm)),
                    "composable transaction participant does not share the \
                     space's software backend; build participant locks with \
                     Stm::lock_builder() so hybrid validation covers them"
                );
                let mut presence = None;
                for _ in 0..PRESENCE_SPIN {
                    if let Some(p) = lock.try_software_presence() {
                        presence = Some(p);
                        break;
                    }
                    std::hint::spin_loop();
                }
                match presence {
                    Some(p) => presences.borrow_mut().push(p),
                    // Held by a pessimist: back off by aborting the
                    // attempt. Never block here — this thread may already
                    // hold presences on other locks, and a pessimist
                    // quiescing one of those while holding this lock
                    // would deadlock with us.
                    None => rtle_hytm::abort_sw(),
                }
            }
            Mode::Locked(plan) => {
                if plan.access_for(domain).is_none() {
                    self.inner.borrow_mut().missing = Some(lock);
                    restart();
                }
            }
        }
        self.inner.borrow_mut().enrolled.push(lock);
        domain
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Read barrier: redo-log lookup (read-own-write), then the mode's
    /// underlying access, then the read log.
    pub(crate) fn load_raw(
        &self,
        cell: &TxCell<u64>,
        domain: usize,
        waiters: Option<*const WaitList>,
    ) -> u64 {
        let ptr = cell as *const TxCell<u64>;
        {
            let inner = self.inner.borrow();
            if let Some(w) = inner.writes.iter().rev().find(|w| std::ptr::eq(w.cell, ptr)) {
                return w.value;
            }
        }
        let value = match &self.mode {
            Mode::Spec(acc) => acc.load_word(cell),
            Mode::Sw { acc, .. } => acc.load_word(cell),
            Mode::Locked(plan) => plan
                .access_for(domain)
                .expect("read from a domain that was never enrolled")
                .load_word(cell),
        };
        self.inner.borrow_mut().reads.push(ReadRec {
            cell: ptr,
            value,
            waiters,
        });
        value
    }

    /// Write barrier: append to the redo log. Nothing touches memory
    /// until the attempt flushes at commit time.
    pub(crate) fn store_raw(
        &self,
        cell: &TxCell<u64>,
        value: u64,
        domain: usize,
        waiters: Option<*const WaitList>,
    ) {
        self.inner.borrow_mut().writes.push(WriteRec {
            cell: cell as *const TxCell<u64>,
            value,
            domain,
            waiters,
        });
    }
}

/// How long a Sw-mode enrollment spins for a held participant lock before
/// aborting the attempt (see [`Tx::enroll`]).
const PRESENCE_SPIN: usize = 128;

/// Space-domain access: lets space-guarded structures (`AvlSet`,
/// `TxHashSet`, plain `TxCell` code) run inside the transaction directly.
impl TxAccess for Tx<'_, '_> {
    #[inline]
    fn load<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        T::from_word(self.load_raw(cell.as_word_cell(), self.space_domain(), None))
    }

    #[inline]
    fn store<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        self.store_raw(
            cell.as_word_cell(),
            value.to_word(),
            self.space_domain(),
            None,
        );
    }
}

/// Participant-domain access: the same barriers tagged with the owning
/// lock's domain, so Locked-mode routing picks the right holder context.
pub(crate) struct DomainAccess<'t, 'env, 'run> {
    pub(crate) tx: &'t Tx<'env, 'run>,
    pub(crate) domain: usize,
}

impl TxAccess for DomainAccess<'_, '_, '_> {
    #[inline]
    fn load<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        T::from_word(self.tx.load_raw(cell.as_word_cell(), self.domain, None))
    }

    #[inline]
    fn store<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        self.tx
            .store_raw(cell.as_word_cell(), value.to_word(), self.domain, None);
    }
}

// ----------------------------------------------------------------------
// Commit-time flush (driver side)
// ----------------------------------------------------------------------

/// Flushes the redo log through one access (Spec: inside the hardware
/// transaction; Sw: into the backend's buffered write set, published by
/// the backend commit). Log order is preserved, so later writes to the
/// same cell win.
///
/// # Safety (by contract, see module docs)
/// Cell pointers were captured from references live in the closure; the
/// flush runs while those references are still borrowed.
pub(crate) fn flush_via(inner: &TxInner<'_>, acc: &dyn DynAccess) {
    for w in &inner.writes {
        // SAFETY: the pointer was captured from a `&TxCell` that is still
        // borrowed by the closure this flush runs inside (module contract).
        // lockcheck: the deref only reconstructs the reference; the store
        // goes through the attempt's own transactional access barriers.
        let cell = unsafe { &*w.cell };
        acc.store_word(cell, w.value);
    }
}

/// Runs each enrolled participant's hardware commit hook — Spec-mode
/// commits must give participants' software backends their commit-time
/// instrumentation, exactly as the space lock's own attempt machinery
/// does for the space's backends. Must run inside the hardware
/// transaction, after the flush.
pub(crate) fn run_participant_hooks(inner: &TxInner<'_>) {
    for lock in &inner.enrolled {
        lock.participant_commit_hook();
    }
}

/// Pessimistic flush: every write goes through its owning domain's holder
/// context, stamping that lock's orecs / write flag so concurrent
/// slow-path hardware transactions on the participant observe the holder
/// mutating (the refined-TLE coexistence invariant).
pub(crate) fn flush_locked(inner: &TxInner<'_>, plan: &LockedPlan<'_>) {
    for w in &inner.writes {
        let acc = plan
            .access_for(w.domain)
            .expect("write to a domain missing from the locked plan");
        // SAFETY: the pointer was captured from a `&TxCell` that is still
        // borrowed by the closure this flush runs inside (module contract).
        // lockcheck: the deref only reconstructs the reference; the store
        // goes through the owning domain's holder-context barriers while
        // that domain's lock is held.
        let cell = unsafe { &*w.cell };
        acc.store_word(cell, w.value);
    }
}

// ----------------------------------------------------------------------
// Locked-mode restart (plan growth)
// ----------------------------------------------------------------------

/// Unwinds the current Locked-mode attempt for plan growth: it touched a
/// lock it does not hold, so the driver must widen the plan and
/// re-acquire. Caught by the `Restart`-channel catch around the attempt;
/// real panics propagate (leaving held locks poisoned, matching
/// `ElidableLock::execute`'s panic semantics).
pub(crate) fn restart() -> ! {
    unwind::raise(Channel::Restart, AbortCode::Conflict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_error_is_comparable() {
        assert_eq!(TxError::Retry, TxError::Retry);
    }

    /// A participant whose hardware commits do not run the space backend's
    /// commit hook is invisible to the software rung's validation: enrolling
    /// one there is a construction bug, refused loudly.
    #[test]
    #[should_panic(expected = "does not share")]
    fn a_participant_built_without_lock_builder_is_refused_on_the_software_rung() {
        // LockOnly: no speculation, so the first rung that runs is software.
        let space = Stm::builder()
            .policy(rtle_core::ElisionPolicy::LockOnly)
            .build();
        let foreign: ShardedTxMap<u64, SwHtmBackend> =
            ShardedTxMap::with_builder(2, 16, ElidableLock::builder());
        space.atomically(|tx| Ok(tx.map_get(&foreign, 1)));
    }
}
