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
//!   of [`rtle_htm::unwind`] (`restart`); the driver grows the plan and
//!   re-runs.
//!
//! Each rung has one write log, and the `Tx`'s store count is its length.
//! **Spec** and **Sw** read and write straight through the mode's `Ctx`:
//! the hardware transaction's redo log, or the software backend
//! descriptor's, answers read-own-write and is published by the commit,
//! so nothing is copied and nothing is flushed. On **Locked** a holder's
//! `Ctx` writes in place, so the rung buffers its writes itself and
//! flushes them through each owning lock's holder context at commit time.
//!
//! The logs are append-only, so off the hardware rung [`Tx::or_else`]
//! rolls the abandoned first branch back by truncating the log to the
//! store count the branch started at, while its reads stay logged —
//! STM-Haskell's semantics, where a nested retry blocks on the *union* of
//! both branches' read sets. A Sw [`Tx::retry`] truncates the log to
//! nothing, so it commits read-only. Hardware cannot roll back half a
//! transaction, so there a first branch that stored and then retries, and
//! a retry after a store, end the attempt with [`AbortCode::Unsupported`]
//! and the software rung reruns the transaction; a retry without stores
//! commits read-only and hands off to the next rung. The read log holds
//! the [`TxVar`] reads a retry parks on: not a read of a var the attempt
//! wrote, which saw its own write.
//!
//! The buffers are the thread's: a call takes the spare its last call
//! handed back, so a warm call allocates nothing.
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

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rtle_core::{Ctx, ElidableLock, SoftwarePresence};
use rtle_htm::unwind::{self, Channel};
use rtle_htm::wait::WaitList;
use rtle_htm::{abort, AbortCode, TxAccess, TxCell, TxWord};
use rtle_hytm::{SoftwareTm, SwPhase};
use rtle_shard::ShardedTxMap;

use crate::space::Stm;
use crate::var::TxVar;

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

/// One logged [`TxVar`] read (Sw and Locked): the cell, the value
/// observed, and the var's waiter list, so `retry` knows where to park.
pub(crate) struct ReadRec {
    pub(crate) cell: *const TxCell<u64>,
    pub(crate) value: u64,
    pub(crate) waiters: *const WaitList,
}

/// One buffered write (Locked). `domain` is the owning lock's address, so
/// the pessimistic flush can route it through that lock's holder context
/// (stamping the right orecs / write flag for slow-path coexistence).
pub(crate) struct WriteRec {
    pub(crate) cell: *const TxCell<u64>,
    pub(crate) value: u64,
    pub(crate) domain: usize,
}

/// A call's buffers, free of the call's lifetime so the thread can keep
/// them between calls.
#[derive(Default)]
pub(crate) struct Logs {
    pub(crate) reads: Vec<ReadRec>,
    pub(crate) writes: Vec<WriteRec>,
    /// Waiter lists of the [`TxVar`]s written, each once, in every mode.
    pub(crate) woken: Vec<*const WaitList>,
    /// Participant locks enrolled this attempt (the space lock excluded);
    /// each was a `&'env ElidableLock` (see [`TxInner::enrolled`]).
    enrolled: Vec<*const ElidableLock>,
}

impl Logs {
    const fn new() -> Self {
        Logs {
            reads: Vec::new(),
            writes: Vec::new(),
            woken: Vec::new(),
            enrolled: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.woken.clear();
        self.enrolled.clear();
    }
}

thread_local! {
    /// The thread's spare [`Logs`], between `atomically` calls.
    static SPARE: Cell<Logs> = const { Cell::new(Logs::new()) };
}

/// Per-call state, owned by the driver so it survives the closure frame
/// (the flush and the park/wake bookkeeping run after `f` returns). Its
/// buffers are the thread's spare, taken by [`TxInner::take`] and handed
/// back on drop, the way `rtle_hytm::SwPhase` lends its descriptor.
pub(crate) struct TxInner<'env> {
    pub(crate) logs: Logs,
    /// Stores this attempt made, on every rung: the length of the rung's
    /// one write log, so it is where a rollback truncates to.
    pub(crate) stores: usize,
    /// Set by a Locked-mode enrollment miss just before [`restart`].
    pub(crate) missing: Option<&'env ElidableLock>,
}

impl<'env> TxInner<'env> {
    /// Takes the thread's spare buffers; a nested call finds none and
    /// builds its own.
    pub(crate) fn take() -> Self {
        TxInner {
            logs: SPARE.try_with(Cell::take).unwrap_or_default(),
            stores: 0,
            missing: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.logs.clear();
        self.stores = 0;
        self.missing = None;
    }

    /// The participant locks this attempt enrolled.
    pub(crate) fn enrolled(&self) -> impl Iterator<Item = &'env ElidableLock> + '_ {
        self.logs.enrolled.iter().map(|&lock| {
            // SAFETY: `Tx::enroll` pushes only `&'env ElidableLock`s, and the list
            // is cleared before the buffers outlive this `TxInner<'env>`.
            // The deref only rebuilds a reference the caller held; nothing
            // is published through it.
            unsafe { &*lock }
        })
    }
}

impl Drop for TxInner<'_> {
    /// Hands the emptied buffers back to the thread — also when the
    /// closure panicked for real. A thread already tearing down its
    /// locals just drops them.
    fn drop(&mut self) {
        let mut logs = std::mem::take(&mut self.logs);
        logs.clear();
        let _ = SPARE.try_with(|spare| spare.set(logs));
    }
}

/// The held pessimistic plan: each acquired lock's address paired with its
/// holder execution context (borrowed from the driver's `LockedSection`s).
pub(crate) struct LockedPlan<'s> {
    pub(crate) entries: Vec<(usize, &'s Ctx<'s>)>,
}

impl<'s> LockedPlan<'s> {
    pub(crate) fn ctx_for(&self, domain: usize) -> Option<&'s Ctx<'s>> {
        self.entries
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, ctx)| *ctx)
    }
}

/// The attempt's execution mode (see module docs).
pub(crate) enum Mode<'env, 'run> {
    /// Hardware speculation under the space lock.
    Spec(&'run Ctx<'run>),
    /// Software-TM attempt on the space lock's backend; `phase` lends the
    /// descriptor whose write log `or_else` truncates.
    Sw {
        ctx: &'run Ctx<'run>,
        tm: &'run Arc<dyn SoftwareTm>,
        phase: &'run SwPhase<'run>,
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

    /// Transactional write of a [`TxVar`]. Visible to other threads at
    /// commit; the var's waiter list is woken after the commit is visible.
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
    /// The blocked transaction commits nothing (its writes are discarded);
    /// the read set it parks on is the consistent snapshot the attempt
    /// observed. At least one `TxVar` must have been read — a
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
    /// writes (truncating the append-only write log to a checkpoint) and
    /// runs `b`. Reads from the abandoned branch stay logged, so a retry
    /// of the *composition* blocks on the union of both branches' read
    /// sets — exactly STM-Haskell's `orElse`. Nests freely.
    ///
    /// On the hardware rung an `a` that stored cannot be rolled back on
    /// its own: the attempt aborts as unsupported and the software rung
    /// reruns the whole transaction.
    pub fn or_else<R>(
        &self,
        a: impl FnOnce(&Self) -> TxResult<R>,
        b: impl FnOnce(&Self) -> TxResult<R>,
    ) -> TxResult<R> {
        let (stores, woken) = {
            let inner = self.inner.borrow();
            (inner.stores, inner.logs.woken.len())
        };
        match a(self) {
            Err(TxError::Retry) => {
                let mut inner = self.inner.borrow_mut();
                if inner.stores != stores {
                    match &self.mode {
                        Mode::Spec(_) => {
                            drop(inner);
                            abort::raise(AbortCode::Unsupported);
                        }
                        Mode::Sw { phase, .. } => phase.truncate_writes(stores),
                        Mode::Locked(_) => inner.logs.writes.truncate(stores),
                    }
                    inner.stores = stores;
                }
                inner.logs.woken.truncate(woken);
                drop(inner);
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
    pub fn map_get<V: TxWord>(&self, map: &'env ShardedTxMap<V>, key: u64) -> Option<V> {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.get(&DomainAccess { tx: self, domain }, key)
    }

    /// Transactional membership test on a sharded map.
    pub fn map_contains<V: TxWord>(&self, map: &'env ShardedTxMap<V>, key: u64) -> bool {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.contains(&DomainAccess { tx: self, domain }, key)
    }

    /// Transactional insert on a sharded map; returns the previous value.
    pub fn map_insert<V: TxWord>(
        &self,
        map: &'env ShardedTxMap<V>,
        key: u64,
        value: V,
    ) -> Option<V> {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.insert(&DomainAccess { tx: self, domain }, key, value)
    }

    /// Transactional remove on a sharded map; returns the removed value.
    pub fn map_remove<V: TxWord>(&self, map: &'env ShardedTxMap<V>, key: u64) -> Option<V> {
        let (lock, shard) = map.shard_parts(key);
        let domain = self.enroll(lock);
        shard.remove(&DomainAccess { tx: self, domain }, key)
    }

    // ------------------------------------------------------------------
    // Enrollment
    // ------------------------------------------------------------------

    /// Enrolls a participant lock into this attempt (idempotent) and
    /// returns its domain id. Mode-specific protocol per module docs.
    pub(crate) fn enroll(&self, lock: &'env ElidableLock) -> usize {
        let domain = lock as *const ElidableLock as usize;
        if domain == self.space_domain() {
            return domain;
        }
        let already = self
            .inner
            .borrow()
            .logs
            .enrolled
            .contains(&(lock as *const ElidableLock));
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
                let presence = (0..PRESENCE_SPIN).find_map(|_| {
                    lock.try_software_presence().or_else(|| {
                        std::hint::spin_loop();
                        None
                    })
                });
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
                if plan.ctx_for(domain).is_none() {
                    self.inner.borrow_mut().missing = Some(lock);
                    restart();
                }
            }
        }
        self.inner.borrow_mut().logs.enrolled.push(lock);
        domain
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Read barrier. Spec and Sw read through the mode's `Ctx`, whose write
    /// log answers read-own-write; Locked looks up its own log first. A
    /// [`TxVar`] read from memory is logged for `retry` to park on.
    pub(crate) fn load_raw(
        &self,
        cell: &TxCell<u64>,
        domain: usize,
        waiters: Option<*const WaitList>,
    ) -> u64 {
        let ptr = cell as *const TxCell<u64>;
        let value = match &self.mode {
            Mode::Spec(ctx) => return ctx.read(cell),
            Mode::Sw { ctx, .. } => ctx.read(cell),
            Mode::Locked(plan) => {
                let inner = self.inner.borrow();
                if let Some(w) = inner.logs.writes.iter().rfind(|w| w.cell == ptr) {
                    return w.value;
                }
                drop(inner);
                plan.ctx_for(domain)
                    .expect("read from a domain that was never enrolled")
                    .read(cell)
            }
        };
        if let Some(wl) = waiters {
            let mut inner = self.inner.borrow_mut();
            if !inner.logs.woken.contains(&wl) {
                inner.logs.reads.push(ReadRec {
                    cell: ptr,
                    value,
                    waiters: wl,
                });
            }
        }
        value
    }

    /// Write barrier. Spec and Sw write through the mode's `Ctx` into its
    /// write log; Locked appends to its own, and nothing touches memory
    /// until the attempt flushes at commit time.
    pub(crate) fn store_raw(
        &self,
        cell: &TxCell<u64>,
        value: u64,
        domain: usize,
        waiters: Option<*const WaitList>,
    ) {
        let mut inner = self.inner.borrow_mut();
        match &self.mode {
            Mode::Spec(ctx) | Mode::Sw { ctx, .. } => ctx.write(cell, value),
            Mode::Locked(_) => inner.logs.writes.push(WriteRec {
                cell,
                value,
                domain,
            }),
        }
        inner.stores += 1;
        if let Some(wl) = waiters {
            if !inner.logs.woken.contains(&wl) {
                inner.logs.woken.push(wl);
            }
        }
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

/// Ends a Spec attempt inside its hardware transaction. A commit runs each
/// enrolled participant's hardware commit hook, giving participants'
/// software backends their commit-time instrumentation exactly as the
/// space lock's own attempt machinery does for the space's backends. A
/// retry commits read-only, which a retry after a store cannot: its
/// stores are in the hardware's redo log, so it aborts as unsupported and
/// the software rung reruns the transaction.
pub(crate) fn end_spec<R>(inner: &TxInner<'_>, r: &TxResult<R>) {
    match r {
        Ok(_) => inner
            .enrolled()
            .for_each(|lock| lock.participant_commit_hook()),
        Err(TxError::Retry) if inner.stores > 0 => abort::raise(AbortCode::Unsupported),
        Err(TxError::Retry) => {}
    }
}

/// Pessimistic flush: every write goes through its owning domain's holder
/// context, stamping that lock's orecs / write flag so concurrent
/// slow-path hardware transactions on the participant observe the holder
/// mutating (the refined-TLE coexistence invariant).
pub(crate) fn flush_locked(inner: &TxInner<'_>, plan: &LockedPlan<'_>) {
    for w in &inner.logs.writes {
        let ctx = plan
            .ctx_for(w.domain)
            .expect("write to a domain missing from the locked plan");
        // SAFETY: the pointer was captured from a `&TxCell` that is still
        // borrowed by the closure this flush runs inside (module contract).
        // The store goes through the owning domain's holder-context
        // barriers while that domain's lock is held.
        let cell = unsafe { &*w.cell };
        ctx.write(cell, w.value);
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
        let foreign: ShardedTxMap<u64> = ShardedTxMap::with_builder(2, 16, ElidableLock::builder());
        space.atomically(|tx| Ok(tx.map_get(&foreign, 1)));
    }
}
