//! [`ElidableLock`]: the Figure 1 state machine.
//!
//! ```text
//!            lock free?──yes──▶ fast HTM attempt (subscribe → run → commit)
//!               │no                   │abort ×5 ──────────────┐
//!               ▼                     ▼                        ▼
//!   TLE: wait for release   refined: slow HTM attempt    acquire the lock,
//!   then retry fast         (instrumented, unlimited     run instrumented CS,
//!                           while the lock is held)      release
//! ```
//!
//! Standard TLE takes the left column: the moment some thread holds the
//! lock, everyone else waits. The refined variants take the middle column:
//! speculation continues on the instrumented slow path, concurrent with the
//! single lock holder.

// Hot path, no `unwrap` or `panic!` outside tests: every elided critical
// section runs through here.
#![warn(clippy::unwrap_used, clippy::panic)]

use std::cell::Cell;
use std::sync::Arc;

use rtle_htm::lanes::Writer;
use rtle_htm::wait::{self, WaitList};
use rtle_htm::{AbortCode, TxCell};
use rtle_hytm::{SoftwareTm, SwPhase};
use rtle_obs::epoch::now_ns;
use rtle_obs::{
    commit_counters, AttemptEvent, LiveSource, MetricsRegistry, PathKind, RecordKind, Recorder,
    SourceSnapshot,
};

use crate::abort_codes;
use crate::adaptive::AdaptiveState;
use crate::barrier::{Ctx, Holder, Rung};
use crate::lock::TatasLock;
use crate::orec::OrecTable;
use crate::policy::{awaits_release, ElisionPolicy, RetryPolicy, Step};
use crate::stats::ExecStats;

/// A lock whose critical sections are executed speculatively on HTM
/// whenever possible, with the paper's refined slow paths.
///
/// # Panics in critical sections
///
/// A critical section that panics while holding the lock leaves the lock
/// held (poisoned), like a raw spin lock would; speculative executions that
/// panic roll back and re-raise.
pub struct ElidableLock {
    policy: ElisionPolicy,
    retry: RetryPolicy,
    lock: TatasLock,
    /// RW-TLE's write flag (§3), colocated with the lock conceptually.
    write_flag: TxCell<bool>,
    /// FG-TLE's ownership records; `None` for Lock/TLE/RW-TLE.
    orecs: Option<OrecTable>,
    /// Adaptive FG-TLE's "slow path enabled" flag (§4.2.1).
    fg_enabled: TxCell<bool>,
    adaptive: Option<AdaptiveState>,
    /// The pluggable software-TM fallback (`with_software_backend`). When
    /// set, operations that exhaust their speculation budget run as
    /// software transactions on it instead of acquiring the lock. One
    /// backend by construction: two protocols over one data set do not
    /// validate against each other's write-back (DESIGN §14a).
    sw_backend: Option<Arc<dyn SoftwareTm>>,
    /// Number of software transactions currently inside the backend. A
    /// [`TxCell`] so committing hardware transactions can subscribe to it:
    /// zero means no instrumentation needed, and a racing software entry
    /// (plain RMW) dooms them.
    sw_running: TxCell<u64>,
    stats: ExecStats,
    /// Attempt-level observability. `None` (the default) costs one branch
    /// per operation; installed, every attempt additionally pays two reads
    /// of the telemetry clock ([`rtle_obs::epoch`]: one `rdtsc` each where
    /// the TSC is invariant) for its start and its end, a few plain stores
    /// to counters on the thread's own lane and one two-word ring push.
    recorder: Option<Arc<Recorder>>,
}

/// The calling thread's handle on a lock's recorder, built by each rung's
/// home (`speculative_phase`, `software_attempt`, `enter_locked`), which
/// books its outcomes through it beside the lock's [`ExecStats`].
#[derive(Clone, Copy)]
pub(crate) struct Rec<'a> {
    recorder: &'a Recorder,
    by: Writer,
}

impl<'a> Rec<'a> {
    /// The calling thread's handle on `recorder`, if one is installed.
    #[inline]
    fn of(recorder: &'a Option<Arc<Recorder>>) -> Option<Self> {
        recorder.as_deref().map(|recorder| Rec {
            recorder,
            by: Writer::current(),
        })
    }

    /// Records the `n`th attempt of an operation, which ran from `t0` to
    /// `t1` (ns on the process epoch): `t0` is its timestamp, the
    /// difference its latency.
    #[inline]
    fn attempt(&self, path: PathKind, abort: Option<AbortCode>, n: u32, t0: u64, t1: u64) {
        let ev = AttemptEvent {
            path,
            abort,
            attempt: n.min(u8::MAX as u32) as u8,
            latency: t1.saturating_sub(t0),
        };
        self.recorder.record(self.by, t0, RecordKind::Attempt(ev));
    }

    /// Records a protocol instant (write-flag raise, epoch bump) at `at`.
    /// Only the lock holder calls this: an instant recorded inside a
    /// transaction that later aborts would be a lie.
    pub(crate) fn instant(&self, kind: RecordKind, at: u64) {
        self.recorder.record(self.by, at, kind);
    }
}

/// Fluent configuration for an [`ElidableLock`] — the one construction
/// entry point (the historical `new`/`with_retry`/`with_backend`/
/// `with_recorder` constructor matrix is gone):
///
/// ```
/// use std::sync::Arc;
/// use rtle_core::{ElidableLock, ElisionPolicy, RetryPolicy};
/// use rtle_obs::{ObsConfig, Recorder};
///
/// let lock = ElidableLock::builder()
///     .policy(ElisionPolicy::FgTle { orecs: 64 })
///     .retry(RetryPolicy { max_attempts: 3, ..Default::default() })
///     .recorder(Arc::new(Recorder::new(ObsConfig::default())))
///     .build();
/// assert_eq!(lock.retry_policy().max_attempts, 3);
/// ```
///
/// The builder is `Clone`, so it doubles as a *template*: sharded
/// containers clone one builder per shard, giving every shard an
/// identical configuration from a single description.
#[derive(Clone)]
pub struct ElidableLockBuilder {
    policy: ElisionPolicy,
    retry: RetryPolicy,
    recorder: Option<Arc<Recorder>>,
    sw_backend: Option<Arc<dyn SoftwareTm>>,
}

impl std::fmt::Debug for ElidableLockBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElidableLockBuilder")
            .field("policy", &self.policy.label())
            .field("retry", &self.retry)
            .field("recorder", &self.recorder.is_some())
            .field("software", &self.sw_backend.as_ref().map(|tm| tm.name()))
            .finish()
    }
}

impl Default for ElidableLockBuilder {
    fn default() -> Self {
        ElidableLockBuilder {
            policy: ElisionPolicy::Tle,
            retry: RetryPolicy::default(),
            recorder: None,
            sw_backend: None,
        }
    }
}

impl ElidableLockBuilder {
    /// Sets the elision policy (default: [`ElisionPolicy::Tle`]).
    pub fn policy(mut self, policy: ElisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the retry policy (default: the paper's 5-attempt policy).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a pluggable software-TM fallback ([`SoftwareTm`]): when
    /// speculation fails, the operation runs as a software transaction on
    /// this backend instead of acquiring the lock pessimistically — the
    /// fallback itself stays concurrent (NOrec: concurrent readers; TL2:
    /// concurrent disjoint writers too).
    ///
    /// A lock has one software backend: a second call replaces the first.
    pub fn with_software_backend(mut self, tm: Arc<dyn SoftwareTm>) -> Self {
        self.sw_backend = Some(tm);
        self
    }

    /// Installs an attempt-level [`Recorder`]; every operation then
    /// emits events, latency histograms, and adaptive decision traces.
    /// Shards built from one template share the recorder, so their
    /// attempt streams aggregate into a single observability snapshot.
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the lock.
    pub fn build(self) -> ElidableLock {
        ElidableLock::assemble(self.policy, self.retry, self.recorder, self.sw_backend)
    }
}

// The methods an operation runs that take no type parameter (the holder
// rung's entry and exit, the software rung's presence, the speculative
// subscription) are `#[inline]`: a caller in another crate — the sharded
// map, `atomically` — then compiles them into its own code, as it does the
// generic ones, and can inline them there, instead of calling the one copy
// compiled in this crate.
impl ElidableLock {
    /// Starts configuring a lock; see [`ElidableLockBuilder`].
    pub fn builder() -> ElidableLockBuilder {
        ElidableLockBuilder::default()
    }

    /// The one real constructor; every public entry point routes here.
    fn assemble(
        policy: ElisionPolicy,
        retry: RetryPolicy,
        recorder: Option<Arc<Recorder>>,
        sw_backend: Option<Arc<dyn SoftwareTm>>,
    ) -> Self {
        let orecs = policy.orec_capacity().map(OrecTable::new);
        if let (
            ElisionPolicy::AdaptiveFgTle {
                initial_orecs,
                max_orecs,
            },
            Some(t),
        ) = (policy, orecs.as_ref())
        {
            assert!(initial_orecs >= 1 && initial_orecs <= max_orecs);
            t.resize_active(initial_orecs);
        }
        let adaptive = match policy {
            ElisionPolicy::AdaptiveFgTle { initial_orecs, .. } => {
                Some(AdaptiveState::new(initial_orecs))
            }
            _ => None,
        };
        ElidableLock {
            policy,
            retry,
            lock: TatasLock::new(),
            write_flag: TxCell::new(false),
            orecs,
            fg_enabled: TxCell::new(true),
            adaptive,
            sw_backend,
            sw_running: TxCell::new(0),
            stats: ExecStats::new(),
            recorder,
        }
    }

    /// The installed recorder, if any. The lock feeds it from each calling
    /// thread's claimed lane ([`Writer::current`]), so it must not also be
    /// fed by keyed writers.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// The policy this lock runs.
    pub fn policy(&self) -> ElisionPolicy {
        self.policy
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Live statistics for this lock.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Addresses of the lock's cells, the lock word first (layout tests:
    /// the word sits alone on its line, and to the emulated HTM a line is a
    /// stripe).
    #[doc(hidden)]
    pub fn cell_addrs(&self) -> [usize; 4] {
        [
            self.lock.word_addr(),
            self.write_flag.addr(),
            self.fg_enabled.addr(),
            self.sw_running.addr(),
        ]
    }

    /// The orec table, if the policy has one (diagnostics).
    pub fn orec_table(&self) -> Option<&OrecTable> {
        self.orecs.as_ref()
    }

    /// Snapshot of the per-orec conflict-attribution heatmap (`None` for
    /// policies without orecs). Its [`crate::orec::OrecHeatmap::total_conflicts`]
    /// equals this lock's aggregate `OREC_CONFLICT` self-abort counter.
    pub fn orec_heatmap(&self) -> Option<crate::orec::OrecHeatmap> {
        self.orecs.as_ref().map(OrecTable::heatmap)
    }

    /// Adaptive FG-TLE diagnostics: whether the instrumented slow path is
    /// currently enabled (`None` for non-adaptive policies).
    pub fn slow_path_enabled(&self) -> Option<bool> {
        self.adaptive.as_ref().map(|_| self.fg_enabled.read_plain())
    }

    /// Executes `cs` as one critical section under this lock's policy.
    ///
    /// `cs` may run several times (speculative attempts that abort), so it
    /// must be idempotent-up-to-`Ctx` — all shared effects must go through
    /// [`Ctx::read`]/[`Ctx::write`], exactly as the paper requires all
    /// shared accesses in atomic blocks to be instrumented.
    pub fn execute<R>(&self, cs: impl Fn(&Ctx<'_>) -> R) -> R {
        if self.policy == ElisionPolicy::LockOnly {
            return self.run_under_lock(&cs, 0);
        }

        match self.speculative_phase(&cs) {
            Ok(r) => r,
            Err((attempts, _)) => {
                // Speculation budget exhausted. With a pluggable software TM
                // the operation stays concurrent (a software transaction)
                // instead of serializing behind the lock.
                if let Some(tm) = &self.sw_backend {
                    return self.run_software(&**tm, &cs, attempts);
                }
                self.run_under_lock(&cs, attempts)
            }
        }
    }

    /// Which instrumented slow path this lock's policy has, if any, with
    /// the state that path needs.
    #[inline]
    fn slow_path(&self) -> Option<SlowPath<'_>> {
        match (self.policy, &self.orecs) {
            (ElisionPolicy::RwTle, _) => Some(SlowPath::Rw),
            (_, Some(orecs)) => Some(SlowPath::Fg(orecs)),
            _ => None,
        }
    }

    /// Counts one speculative attempt's outcome and, when a recorder is
    /// installed (`timed` carries the attempt's start), records it. A
    /// commit completes the operation.
    fn note_attempt<R>(
        &self,
        path: PathKind,
        outcome: &Result<R, AbortCode>,
        attempt: u32,
        timed: Option<(Rec<'_>, u64)>,
    ) {
        let abort = outcome.as_ref().err().copied();
        match abort {
            None => self.stats.record_commit(path),
            Some(code) => self.stats.record_abort(path, code),
        }
        if let Some((rc, t0)) = timed {
            rc.attempt(path, abort, attempt, t0, now_ns());
        }
    }

    /// The speculative half of [`Self::execute`]'s ladder: whatever
    /// [`RetryPolicy::next_step`] (Figure 1) chooses — fast attempts while
    /// the lock is free, instrumented slow attempts while it is held — up
    /// to the retry policy's budgets, an abort waiting out the holding it
    /// met only if [`awaits_release`] says so. `Ok` carries the committed
    /// result; `Err` carries the attempt count for the caller's fallback
    /// decision and the abort that ended the phase (`None` when no attempt
    /// ran). Every attempt is counted, and recorded when the lock has a
    /// recorder, whichever front door ran the phase.
    fn speculative_phase<R>(
        &self,
        cs: &impl Fn(&Ctx<'_>) -> R,
    ) -> Result<R, (u32, Option<AbortCode>)> {
        // The recording decision is made once per phase, out of the retry
        // loop: a recorder-less phase runs the exact uninstrumented path.
        let rec = Rec::of(&self.recorder);
        let mut attempts = 0u32;
        let mut slow_attempts = 0u32;
        let mut last = None;
        let slow = self.slow_path();
        loop {
            let held = self.lock.is_held();
            let step = self
                .retry
                .next_step(slow.is_some(), held, attempts, slow_attempts);
            match (step, slow) {
                (Step::Fast, _) => {
                    let timed = rec.map(|rc| (rc, now_ns()));
                    let outcome = self.fast_attempt(cs);
                    self.note_attempt(PathKind::FastHtm, &outcome, attempts + slow_attempts, timed);
                    match outcome {
                        Ok(r) => return Ok(r),
                        Err(code) => {
                            attempts += 1;
                            last = Some(code);
                            if self.retry.give_up_on_unsupported && !code.may_retry() {
                                break;
                            }
                            if awaits_release(PathKind::FastHtm, code) {
                                self.lock.await_release();
                            }
                        }
                    }
                }
                (Step::Slow, Some(slow)) => {
                    // Refined TLE: speculate on the instrumented slow path,
                    // concurrently with the lock holder.
                    let timed = rec.map(|rc| (rc, now_ns()));
                    let outcome = self.slow_attempt(slow, cs);
                    self.note_attempt(PathKind::SlowHtm, &outcome, attempts + slow_attempts, timed);
                    match outcome {
                        Ok(r) => return Ok(r),
                        Err(code) => {
                            slow_attempts += 1;
                            last = Some(code);
                            if awaits_release(PathKind::SlowHtm, code) {
                                self.lock.await_release();
                            } else {
                                // A short fixed pause, then retry at once.
                                wait::pause(64);
                            }
                        }
                    }
                }
                // Standard TLE (`Slow` is only chosen with a slow path).
                (Step::AwaitRelease, _) | (Step::Slow, None) => self.lock.await_release(),
                (Step::Fallback, _) => break,
            }
        }

        Err((attempts + slow_attempts, last))
    }

    /// Runs `cs` speculatively only — the fast/slow HTM ladder with this
    /// lock's retry policy, **never** the software or pessimistic
    /// fallbacks. `Ok` carries the committed result. When the phase gives
    /// up — budget exhausted, or a non-retryable abort under
    /// `give_up_on_unsupported` — `Err` carries the abort that ended it:
    /// `Some(code)` of the last attempt, or `None` when no attempt ran
    /// (the policy is [`ElisionPolicy::LockOnly`], or the budget is zero).
    /// The caller chooses its own fallback and may let the abort inform
    /// it: [`AbortCode::Unsupported`] says the body cannot commit in
    /// hardware at all. This is the composable-transaction
    /// entry point: `rtle-stm`'s `atomically` drives its own
    /// HTM → software → pessimistic ladder, so it needs the speculative
    /// phase as a separable step.
    pub fn try_speculate<R>(&self, cs: impl Fn(&Ctx<'_>) -> R) -> Result<R, Option<AbortCode>> {
        if self.policy == ElisionPolicy::LockOnly {
            return Err(None);
        }
        self.speculative_phase(&cs).map_err(|(_, last)| last)
    }

    /// Whether the lock word is currently held (advisory snapshot).
    pub fn is_held(&self) -> bool {
        self.lock.is_held()
    }

    /// Subscribes the calling *hardware transaction* to this lock as a
    /// composable-transaction participant: transactionally reads the lock
    /// word (so a later acquisition dooms the transaction) and aborts at
    /// once with [`abort_codes::PARTICIPANT_LOCK_HELD`] if it is already
    /// held — a holder may be mutating this lock's data with instrumented
    /// under-lock writes the transaction cannot coexist with, because its
    /// barriers check a *different* lock's orecs/write-flag.
    ///
    /// Must be called inside a hardware transaction.
    #[inline]
    pub fn subscribe_speculatively(&self) {
        if self.lock.subscribe() {
            rtle_htm::abort(abort_codes::PARTICIPANT_LOCK_HELD);
        }
    }

    /// The software-TM fallback installed on this lock: empty or one
    /// backend. Composable transactions use this to drive the space lock's
    /// backend and to verify that a participant lock shares it (`Arc`
    /// identity), the precondition for the hybrid commit-hook protocol to
    /// cover both.
    pub fn software_backends(&self) -> &[Arc<dyn SoftwareTm>] {
        self.sw_backend.as_slice()
    }

    /// One non-blocking shot at the software-presence protocol: raises the
    /// `sw_running` counter iff the lock is observed free (re-checked after
    /// the raise, exactly like the internal software path). On success the
    /// returned guard keeps pessimistic acquirers of *this* lock waiting in
    /// `quiesce_software` until it drops — giving an external
    /// software transaction (e.g. an `atomically` space's backend touching
    /// this lock's data) the same holder exclusion the built-in software
    /// fallback enjoys. Returns `None` when the lock is held; the caller
    /// must back off *without blocking* (it may hold other presences, and
    /// blocking here closes a deadlock cycle with multi-lock acquirers).
    #[inline]
    pub fn try_software_presence(&self) -> Option<SoftwarePresence<'_>> {
        if self.lock.is_held() {
            return None;
        }
        self.sw_running.fetch_add_plain(1);
        // The guard exists from the raise on, so the retreat below is its
        // drop — the one place the counter comes back down.
        let presence = SoftwarePresence {
            counter: &self.sw_running,
            waiters: self.lock.waiters(),
        };
        // A holder that acquired between the check and the raise sees the
        // counter and waits in `quiesce_software`; we see the held lock and
        // retreat. Both sides eventually stop colliding because software
        // transactions are finite and lock holds are finite.
        (!self.lock.is_held()).then_some(presence)
    }

    /// One attempt on this lock's software rung: raises the presence
    /// (blocking — call it before enrolling any participant), runs `cs` as
    /// one [`SwPhase::attempt`], and counts a commit on this lock's
    /// [`ExecStats`] — and, when the lock has a recorder, records it, timed
    /// around the committing attempt, with `attempt` as its index within
    /// its operation (the attempts the operation made before this rung; the
    /// backend keeps its own abort books). `None` when the attempt
    /// aborted; the caller decides whether to retry. `phase` must have
    /// been entered on this lock's backend ([`Self::software_backends`]).
    ///
    /// Both software drivers go through here: [`Self::execute`]'s fallback
    /// retries it until it commits, and `rtle-stm`'s `atomically` bounds
    /// the retries and interleaves participant enrollment.
    pub fn software_attempt<R>(
        &self,
        phase: &SwPhase<'_>,
        attempt: u32,
        cs: impl FnOnce(&Ctx<'_>) -> R,
    ) -> Option<R> {
        // The lock holder's instrumented writes do not speak the backend's
        // validation protocol, so software transactions never overlap a
        // held lock (and vice versa — see `quiesce_software`): wait out the
        // holder and raise the presence.
        let _presence = loop {
            self.lock.await_release();
            if let Some(presence) = self.try_software_presence() {
                break presence;
            }
        };
        let timed = Rec::of(&self.recorder).map(|rc| (rc, now_ns()));
        let r = phase.attempt(|tmctx| cs(&Ctx(Rung::Software(tmctx))))?;
        self.stats.record_commit(PathKind::Stm);
        if let Some((rc, t0)) = timed {
            rc.attempt(PathKind::Stm, None, attempt, t0, now_ns());
        }
        Some(r)
    }

    /// Participant-side hardware commit hook: gives this lock's software
    /// backend its commit-time instrumentation if software transactions
    /// are live on it — the same `hw_commit_hooks` the lock's own
    /// hardware paths run, exposed for hardware transactions that touched
    /// this lock's data as composable-transaction participants (their
    /// commit otherwise bypasses this lock entirely).
    ///
    /// Must be called inside a hardware transaction.
    #[inline]
    pub fn participant_commit_hook(&self) {
        self.hw_commit_hooks();
    }

    /// The software backend this lock falls back to, by name
    /// (diagnostics / telemetry; `None` when no fallback is installed).
    pub fn software_backend_name(&self) -> Option<&'static str> {
        self.sw_backend.as_ref().map(|tm| tm.name())
    }

    /// Runs `cs` as a software transaction on `tm`: [`Self::software_attempt`]
    /// until one commits, after the `prior_attempts` speculative ones.
    fn run_software<R>(
        &self,
        tm: &dyn SoftwareTm,
        cs: &impl Fn(&Ctx<'_>) -> R,
        prior_attempts: u32,
    ) -> R {
        let phase = SwPhase::enter(tm);
        loop {
            if let Some(r) = self.software_attempt(&phase, prior_attempts, cs) {
                return r;
            }
        }
    }

    /// Lock-holder side of the software/pessimistic exclusion: after
    /// acquiring the lock, wait until no software transaction is inside
    /// the backend. New arrivals observe the held lock and retreat, so this
    /// terminates. A long wait parks; a [`SoftwarePresence`] drop wakes it.
    #[inline]
    fn quiesce_software(&self) {
        if self.sw_backend.is_some() {
            wait::until(self.lock.waiters(), || self.sw_running.read_plain() == 0);
        }
    }

    /// Hardware-commit hook: committing hardware transactions subscribe to
    /// the software presence counter and give the backend its chance to
    /// serialize against live software transactions (NOrec bumps its
    /// clock; TL2 aborts the hardware transaction, whose plain-store
    /// commits its stripe versions cannot observe). Zero-cost when no
    /// software transaction is running: one transactional read that also
    /// dooms this transaction should a software entry race in.
    #[inline]
    fn hw_commit_hooks(&self) {
        if let Some(tm) = &self.sw_backend {
            if self.sw_running.read() > 0 {
                tm.hw_commit_hook();
            }
        }
    }

    /// One uninstrumented fast-path attempt.
    fn fast_attempt<R>(&self, cs: &impl Fn(&Ctx<'_>) -> R) -> Result<R, AbortCode> {
        rtle_htm::try_txn(|| {
            if !self.retry.lazy_subscription && self.lock.subscribe() {
                rtle_htm::abort(abort_codes::LOCK_HELD);
            }
            let r = cs(&Ctx(Rung::Fast));
            if self.retry.lazy_subscription && self.lock.subscribe() {
                rtle_htm::abort(abort_codes::LAZY_LOCK_HELD);
            }
            self.hw_commit_hooks();
            r
        })
    }

    /// One instrumented slow-path attempt (lock observed held).
    fn slow_attempt<R>(
        &self,
        slow: SlowPath<'_>,
        cs: &impl Fn(&Ctx<'_>) -> R,
    ) -> Result<R, AbortCode> {
        // FG-TLE's local_seq_number: a lock-word snapshot *before* the
        // transaction begins (Figure 3 header comment).
        let local_seq = self.lock.seq();
        rtle_htm::try_txn(|| {
            let ctx = match slow {
                SlowPath::Rw => {
                    // Eager-return strategy (§6.3): subscribe to the lock so
                    // its release aborts us back onto the fast path — unless
                    // lazy subscription was requested, which replaces it.
                    if !self.retry.lazy_subscription {
                        let _ = self.lock.subscribe();
                    }
                    // Subscribe to the write flag; abort if already raised.
                    if self.write_flag.read() {
                        rtle_htm::abort(abort_codes::WRITE_FLAG_SET);
                    }
                    Ctx(Rung::SlowRw)
                }
                SlowPath::Fg(orecs) => {
                    if self.adaptive.is_some() && !self.fg_enabled.read() {
                        rtle_htm::abort(abort_codes::FG_DISABLED);
                    }
                    // Read the active size inside the transaction (§4.1:
                    // safe resizing requires slow transactions to read it).
                    let n = orecs.active_tx();
                    Ctx(Rung::SlowFg {
                        orecs,
                        local_seq,
                        n,
                    })
                }
            };
            let r = cs(&ctx);
            if self.retry.lazy_subscription && self.lock.subscribe() {
                rtle_htm::abort(abort_codes::LAZY_LOCK_HELD);
            }
            self.hw_commit_hooks();
            r
        })
    }

    /// Pessimistic execution: acquire the lock and run the (instrumented,
    /// for refined policies) critical section. Guaranteed to complete in
    /// one attempt — the property §4.1 highlights.
    fn run_under_lock<R>(&self, cs: &impl Fn(&Ctx<'_>) -> R, prior_attempts: u32) -> R {
        let section = self.enter_locked(prior_attempts);
        cs(&section.ctx)
    }

    /// The holder rung: acquires the lock and builds the guard whose drop
    /// leaves it — the one entry to pessimistic execution, shared by
    /// [`Self::execute`]'s fallback and [`Self::lock_section`]. The
    /// holding is the `prior_attempts`th attempt of its operation.
    #[inline]
    fn enter_locked(&self, prior_attempts: u32) -> LockedSection<'_> {
        let held = self.lock.acquire();
        self.quiesce_software();
        // Counted at acquisition (not completion) so concurrent observers
        // see the pessimistic execution while it is in flight; recorded at
        // the release, which ends its hold time.
        self.stats.record_commit(PathKind::Lock);
        let rec = Rec::of(&self.recorder);
        let t0 = now_ns();
        let holder = match (self.policy, &self.orecs) {
            (ElisionPolicy::RwTle, _) => Holder::Rw {
                write_flag: &self.write_flag,
                wrote: Cell::new(false),
                rec,
            },
            (_, Some(orecs)) => {
                if let Some(ad) = &self.adaptive {
                    // Resizes / mode flips are only legal right here, while
                    // holding the lock and before the CS runs (§4.2.1).
                    // Decisions are traced when a recorder is installed.
                    ad.on_lock_acquired(
                        orecs,
                        &self.fg_enabled,
                        &self.stats,
                        self.recorder.as_deref(),
                    );
                }
                // Holder-only words (`fg_enabled`, the active orec count)
                // are read with one load each: see
                // `TxCell::read_unvalidated`. The lock word the acquisition
                // installed is the holding's epoch.
                if self.fg_enabled.read_unvalidated() {
                    Holder::Fg {
                        orecs,
                        epoch_now: held,
                        n: orecs.active_plain(),
                        uniq_r: Cell::new(0),
                        uniq_w: Cell::new(0),
                    }
                } else {
                    // Collapsed to plain TLE: uninstrumented under lock.
                    Holder::Plain
                }
            }
            _ => Holder::Plain,
        };
        LockedSection {
            lock: self,
            ctx: Ctx(Rung::Holder(holder)),
            t0,
            rec,
            prior_attempts,
        }
    }

    /// Acquires the lock pessimistically and returns a guard exposing the
    /// instrumented lock-holder [`Ctx`]. This is the multi-lock face of
    /// [`ElidableLock::execute`]'s pessimistic path: while the guard
    /// lives, this thread *is* the §4 lock holder — concurrent operations
    /// on the same lock keep speculating on the instrumented slow path
    /// and may commit alongside it.
    ///
    /// Composing guards over several locks is how cross-domain (e.g.
    /// cross-shard) transactions are built; callers must acquire the
    /// guards in a globally consistent order (ascending shard index, for
    /// sharded containers) — that total order is the deadlock-freedom
    /// argument. Dropping the guard runs the holder exit protocol
    /// (write-flag reset) and releases the lock, which is FG-TLE's
    /// pre-release epoch bump.
    ///
    /// A panic while the guard is held leaves the lock held (poisoned),
    /// matching [`ElidableLock::execute`]'s panic semantics.
    #[inline]
    pub fn lock_section(&self) -> LockedSection<'_> {
        self.enter_locked(0)
    }
}

impl ElidableLock {
    /// Registers this lock with a live scrape registry under `name`:
    /// the lock itself (kind `"lock"`: commit-path mix including the
    /// software-TM path, plus the backend-name label) and, when a
    /// recorder is installed, the recorder as `<name>_recorder` — the
    /// same two-source pattern sharded maps use.
    pub fn register_live(self: &Arc<Self>, registry: &MetricsRegistry, name: &str) {
        registry.register(name, Arc::clone(self) as Arc<dyn LiveSource>);
        if let Some(rec) = self.recorder() {
            registry.register(
                format!("{name}_recorder"),
                Arc::clone(rec) as Arc<dyn LiveSource>,
            );
        }
    }
}

/// Live-registry view of one lock: the always-on [`ExecStats`] counters,
/// with the software-TM backend name as an identity label so `diag top`
/// and `/metrics` show which software path is live.
impl LiveSource for ElidableLock {
    fn live_snapshot(&self) -> SourceSnapshot {
        let s = self.stats.snapshot();
        let mut counters: Vec<(String, u64)> = commit_counters(s.commits()).collect();
        counters.push(("aborts_fast".into(), s.fast_aborts));
        counters.push(("aborts_slow".into(), s.slow_aborts));
        SourceSnapshot {
            kind: "lock",
            counters,
            gauges: vec![("lock_fallback_rate".into(), s.lock_fallback_rate())],
            windows: Vec::new(),
            labels: self
                .software_backend_name()
                .map(|n| ("software_backend".to_string(), n.to_string()))
                .into_iter()
                .collect(),
        }
    }
}

/// A held pessimistic critical section: the guard returned by
/// [`ElidableLock::lock_section`]. Access shared state through
/// [`LockedSection::ctx`]; the lock is released (after the holder exit
/// protocol) when the guard drops.
pub struct LockedSection<'a> {
    lock: &'a ElidableLock,
    ctx: Ctx<'a>,
    /// When the lock was taken, ns on the process epoch.
    t0: u64,
    /// The holder's recording handle, when the lock has a recorder, and
    /// the holding's attempt index within its operation.
    rec: Option<Rec<'a>>,
    prior_attempts: u32,
}

impl<'a> LockedSection<'a> {
    /// The instrumented lock-holder execution context.
    pub fn ctx(&self) -> &Ctx<'a> {
        &self.ctx
    }
}

impl Drop for LockedSection<'_> {
    /// The lock-holder exit protocol: record the holding, write-flag
    /// reset, then release (for FG-TLE the release is the epoch bump). One
    /// clock reading ends the holding for the record and `time_locked`.
    #[inline]
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A panicking critical section leaves the lock held (poisoned),
            // like a raw spin lock would.
            return;
        }
        let now = now_ns();
        if let Some(rc) = self.rec {
            // The holding window: also the recorder's lock-hold sample.
            rc.attempt(PathKind::Lock, None, self.prior_attempts, self.t0, now);
        }
        match &self.ctx.0 {
            // Reset the write flag before releasing the lock (§3).
            // Only this section can have raised the flag, and its own
            // `wrote` says whether it did.
            Rung::Holder(Holder::Rw {
                write_flag, wrote, ..
            }) if wrote.get() => {
                write_flag.write(false);
            }
            Rung::Holder(Holder::Fg { epoch_now, .. }) => {
                // The release below is the epoch bump: it frees every orec
                // at once without aborting slow-path transactions (§4.2).
                if let Some(rc) = self.rec {
                    rc.instant(RecordKind::EpochBump(*epoch_now), now);
                }
            }
            _ => {}
        }
        self.lock
            .stats
            .record_time_locked(now.saturating_sub(self.t0));
        self.lock.lock.release();
    }
}

/// An external software transaction's presence on one lock: while alive,
/// the lock's `sw_running` counter is raised, so pessimistic acquirers
/// wait in `quiesce_software` before touching the lock's data. Returned
/// by [`ElidableLock::try_software_presence`]; dropping it (including via
/// unwind, when a software attempt aborts) retreats the counter and wakes
/// a holder parked in `quiesce_software`.
pub struct SoftwarePresence<'a> {
    counter: &'a TxCell<u64>,
    waiters: &'a WaitList,
}

impl Drop for SoftwarePresence<'_> {
    fn drop(&mut self) {
        self.counter.fetch_add_plain(u64::MAX);
        self.waiters.wake_all();
    }
}

impl std::fmt::Debug for ElidableLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElidableLock")
            .field("policy", &self.policy.label())
            .field("htm", &rtle_htm::htm_name())
            .field("held", &self.lock.is_held())
            .finish_non_exhaustive()
    }
}

/// The instrumented slow path a refined policy speculates on while the
/// lock is held.
#[derive(Clone, Copy)]
enum SlowPath<'a> {
    /// RW-TLE (§3).
    Rw,
    /// FG-TLE (§4) over this lock's orec table.
    Fg(&'a OrecTable),
}

#[cfg(test)]
impl ElidableLock {
    /// One counted slow-path attempt and no after-abort wait: how the
    /// barrier tests probe a lock their own thread holds (an owned orec
    /// would otherwise wait for that thread's release).
    pub(crate) fn slow_attempt_once<R>(&self, cs: impl Fn(&Ctx<'_>) -> R) -> Option<R> {
        let slow = self.slow_path().expect("a refined policy");
        let outcome = self.slow_attempt(slow, &cs);
        self.note_attempt(PathKind::SlowHtm, &outcome, 0, None);
        outcome.ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// A cell alone on its cache line: an orec covers a line, and two
    /// small allocations may share one.
    #[repr(align(64))]
    struct OwnLine(TxCell<u64>);

    fn policies() -> Vec<ElisionPolicy> {
        vec![
            ElisionPolicy::LockOnly,
            ElisionPolicy::Tle,
            ElisionPolicy::RwTle,
            ElisionPolicy::FgTle { orecs: 1 },
            ElisionPolicy::FgTle { orecs: 64 },
            ElisionPolicy::AdaptiveFgTle {
                initial_orecs: 16,
                max_orecs: 1024,
            },
        ]
    }

    #[test]
    fn single_thread_counter_all_policies() {
        for p in policies() {
            let lock = ElidableLock::builder().policy(p).build();
            let c = TxCell::new(0u64);
            for _ in 0..100 {
                lock.execute(|ctx| {
                    let v = ctx.read(&c);
                    ctx.write(&c, v + 1);
                });
            }
            assert_eq!(c.read_plain(), 100, "{}", p.label());
            assert_eq!(lock.stats().snapshot().ops, 100);
        }
    }

    #[test]
    fn multi_thread_counter_all_policies() {
        const THREADS: usize = 4;
        const OPS: usize = 500;
        for p in policies() {
            let lock = Arc::new(ElidableLock::builder().policy(p).build());
            let c = Arc::new(TxCell::new(0u64));
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (lock, c) = (Arc::clone(&lock), Arc::clone(&c));
                    std::thread::spawn(move || {
                        for _ in 0..OPS {
                            lock.execute(|ctx| {
                                let v = ctx.read(&c);
                                ctx.write(&c, v + 1);
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(c.read_plain(), (THREADS * OPS) as u64, "{}", p.label());
        }
    }

    /// Read-only transactions must commit on the slow path *while the lock
    /// is held* for RW-TLE and FG-TLE — the paper's core claim.
    #[test]
    fn slow_path_commits_while_lock_held() {
        for p in [ElisionPolicy::RwTle, ElisionPolicy::FgTle { orecs: 64 }] {
            let lock = Arc::new(ElidableLock::builder().policy(p).build());
            let data = Arc::new(TxCell::new(7u64));
            let in_cs = Arc::new(AtomicBool::new(false));
            let reader_done = Arc::new(AtomicBool::new(false));

            // Holder: read-only critical section that lingers until the
            // reader finishes (or a timeout, to avoid deadlocking on a
            // regression — which the final assert then catches).
            let holder = {
                let (lock, data, in_cs, reader_done) = (
                    Arc::clone(&lock),
                    Arc::clone(&data),
                    Arc::clone(&in_cs),
                    Arc::clone(&reader_done),
                );
                std::thread::spawn(move || {
                    lock.execute(|ctx| {
                        // Force the pessimistic path deterministically.
                        rtle_htm::htm_unfriendly_instruction();
                        let _ = ctx.read(&data);
                        in_cs.store(true, Ordering::SeqCst);
                        let start = std::time::Instant::now();
                        while !reader_done.load(Ordering::SeqCst)
                            && start.elapsed() < std::time::Duration::from_secs(2)
                        {
                            std::hint::spin_loop();
                        }
                    });
                })
            };

            // The holder's first execution may commit on the fast path
            // (lock free); retry until the CS actually holds the lock.
            while !in_cs.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }

            if lock.stats().snapshot().lock_acquisitions > 0 {
                // Reader: read-only CS, must complete via the slow path
                // while the holder is still inside.
                let v = lock.execute(|ctx| ctx.read(&data));
                assert_eq!(v, 7);
                let snap = lock.stats().snapshot();
                assert!(
                    snap.slow_commits >= 1,
                    "{}: expected a slow-path commit, got {snap:?}",
                    p.label()
                );
            }
            reader_done.store(true, Ordering::SeqCst);
            holder.join().unwrap();
        }
    }

    /// A fast attempt that an acquisition dooms mid-body does not wait for
    /// the lock to come free: `next_step` sends its retry to the slow path,
    /// which commits beside the holder.
    #[test]
    fn doomed_fast_reader_commits_on_the_slow_path_while_held() {
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 64 })
                .build(),
        );
        let (data, newer) = (Arc::new(TxCell::new(7u64)), Arc::new(TxCell::new(0u64)));
        let in_body = Arc::new(AtomicBool::new(false));
        let in_cs = Arc::new(AtomicBool::new(false));
        let deadline = std::time::Duration::from_secs(2);

        let reader = {
            let (lock, data, newer, in_body, in_cs) = (
                Arc::clone(&lock),
                Arc::clone(&data),
                Arc::clone(&newer),
                Arc::clone(&in_body),
                Arc::clone(&in_cs),
            );
            std::thread::spawn(move || {
                let first = AtomicBool::new(true);
                lock.execute(|ctx| {
                    if first.swap(false, Ordering::SeqCst) {
                        // The first (fast) attempt: the lock is acquired
                        // under it; reading a word written after it began
                        // revalidates its subscription, which dooms it.
                        in_body.store(true, Ordering::SeqCst);
                        let start = std::time::Instant::now();
                        while !in_cs.load(Ordering::SeqCst) && start.elapsed() < deadline {
                            std::hint::spin_loop();
                        }
                        let _ = ctx.read(&newer);
                    }
                    ctx.read(&data)
                })
            })
        };

        while !in_body.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        newer.write(1);
        // The holder releases once the reader committed on the slow path,
        // or at the deadline.
        let held_through = lock.execute(|_| {
            rtle_htm::htm_unfriendly_instruction();
            in_cs.store(true, Ordering::SeqCst);
            let start = std::time::Instant::now();
            while lock.stats().snapshot().slow_commits == 0 {
                if start.elapsed() > deadline {
                    return false;
                }
                std::hint::spin_loop();
            }
            true
        });
        assert_eq!(reader.join().unwrap(), 7);
        let snap = lock.stats().snapshot();
        assert_eq!(
            snap.aborts_conflict, 1,
            "the reader's fast attempt was doomed: {snap:?}"
        );
        assert!(
            held_through && snap.slow_commits == 1,
            "the doomed reader waited for a free lock: {snap:?}"
        );
    }

    /// FG-TLE slow path: writers to disjoint data commit while the lock is
    /// held, provided the orecs do not alias.
    #[test]
    fn fg_slow_path_allows_disjoint_writes() {
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 8192 })
                .build(),
        );
        let holder_cell = Arc::new(OwnLine(TxCell::new(0)));
        let writer_cell = Arc::new(OwnLine(TxCell::new(0)));
        let in_cs = Arc::new(AtomicBool::new(false));
        let writer_done = Arc::new(AtomicBool::new(false));

        let holder = {
            let (lock, holder_cell, in_cs, writer_done) = (
                Arc::clone(&lock),
                Arc::clone(&holder_cell),
                Arc::clone(&in_cs),
                Arc::clone(&writer_done),
            );
            std::thread::spawn(move || {
                lock.execute(|ctx| {
                    rtle_htm::htm_unfriendly_instruction();
                    ctx.write(&holder_cell.0, 1);
                    in_cs.store(true, Ordering::SeqCst);
                    let start = std::time::Instant::now();
                    while !writer_done.load(Ordering::SeqCst)
                        && start.elapsed() < std::time::Duration::from_secs(2)
                    {
                        std::hint::spin_loop();
                    }
                });
            })
        };

        while !in_cs.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }

        if lock.stats().snapshot().lock_acquisitions > 0 {
            lock.execute(|ctx| {
                let v = ctx.read(&writer_cell.0);
                ctx.write(&writer_cell.0, v + 41);
            });
            let snap = lock.stats().snapshot();
            assert!(
                snap.slow_commits >= 1,
                "disjoint write should commit on slow path: {snap:?}"
            );
        }
        writer_done.store(true, Ordering::SeqCst);
        holder.join().unwrap();
        assert_eq!(writer_cell.0.read_plain(), 41);
        assert_eq!(holder_cell.0.read_plain(), 1);
    }

    /// With lazy subscription (§5), no critical section may complete while
    /// the lock is held — restoring the Figure 4 "lock as barrier" pattern.
    #[test]
    fn lazy_subscription_restores_barrier_semantics() {
        let retry = RetryPolicy {
            lazy_subscription: true,
            ..Default::default()
        };
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 64 })
                .retry(retry)
                .build(),
        );
        let in_cs = Arc::new(AtomicBool::new(false));
        let released = Arc::new(AtomicBool::new(false));
        let observer_finished_early = Arc::new(AtomicBool::new(false));

        let holder = {
            let (lock, in_cs, released) =
                (Arc::clone(&lock), Arc::clone(&in_cs), Arc::clone(&released));
            std::thread::spawn(move || {
                lock.execute(|_ctx| {
                    rtle_htm::htm_unfriendly_instruction();
                    in_cs.store(true, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    // Set *inside* the CS: if the observer returns before
                    // this is true, it completed while the lock was held.
                    released.store(true, Ordering::SeqCst);
                });
            })
        };

        while !in_cs.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        assert!(lock.stats().snapshot().lock_acquisitions > 0);
        // Empty critical section (the Figure 4 pattern). With lazy
        // subscription it must not return before the holder releases.
        lock.execute(|_ctx| {});
        if !released.load(Ordering::SeqCst) {
            observer_finished_early.store(true, Ordering::SeqCst);
        }
        assert!(
            !observer_finished_early.load(Ordering::SeqCst),
            "empty CS completed while the lock was held despite lazy subscription"
        );
        holder.join().unwrap();
    }

    /// Without lazy subscription, the same empty CS *does* complete while
    /// the lock is held under FG-TLE — the §5 caveat, demonstrated.
    #[test]
    fn eager_refined_tle_breaks_barrier_semantics() {
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 64 })
                .build(),
        );
        let in_cs = Arc::new(AtomicBool::new(false));
        let released = Arc::new(AtomicBool::new(false));

        let holder = {
            let (lock, in_cs, released) =
                (Arc::clone(&lock), Arc::clone(&in_cs), Arc::clone(&released));
            std::thread::spawn(move || {
                lock.execute(|_ctx| {
                    rtle_htm::htm_unfriendly_instruction();
                    in_cs.store(true, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    released.store(true, Ordering::SeqCst);
                });
            })
        };

        while !in_cs.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        assert!(lock.stats().snapshot().lock_acquisitions > 0);
        lock.execute(|_ctx| {});
        let finished_early = !released.load(Ordering::SeqCst);
        holder.join().unwrap();
        // The holder might have raced to release; only assert when the CS
        // really was concurrent (which the 100ms sleep makes overwhelmingly
        // likely).
        if lock.stats().snapshot().slow_commits >= 1 {
            assert!(
                finished_early,
                "FG-TLE should complete an empty CS concurrently"
            );
        }
    }

    /// Unsupported instructions force the lock path.
    #[test]
    fn unsupported_instruction_falls_back_to_lock() {
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 16 })
            .build();
        let c = TxCell::new(0u64);
        lock.execute(|ctx| {
            rtle_htm::htm_unfriendly_instruction();
            let v = ctx.read(&c);
            ctx.write(&c, v + 1);
        });
        assert_eq!(c.read_plain(), 1);
        let snap = lock.stats().snapshot();
        assert_eq!(snap.lock_acquisitions, 1);
        assert!(snap.aborts_unsupported >= 1);
        assert!(snap.time_locked > std::time::Duration::ZERO);
    }

    /// The retry budget is respected: a CS that always aborts explicitly
    /// uses exactly `max_attempts` fast attempts before locking.
    #[test]
    fn retry_budget_respected() {
        let lock = ElidableLock::builder().policy(ElisionPolicy::Tle).build();
        let tries = AtomicU64::new(0);
        lock.execute(|ctx| {
            if ctx.is_speculative() {
                tries.fetch_add(1, Ordering::Relaxed);
                rtle_htm::abort(42);
            }
        });
        assert_eq!(
            tries.load(Ordering::Relaxed),
            5,
            "paper's static 5-attempt policy"
        );
        let snap = lock.stats().snapshot();
        assert_eq!(snap.fast_aborts, 5);
        assert_eq!(snap.lock_acquisitions, 1);
    }

    #[test]
    fn debug_impl_mentions_policy() {
        let lock = ElidableLock::builder().policy(ElisionPolicy::RwTle).build();
        let s = format!("{lock:?}");
        assert!(s.contains("RW-TLE"));
        assert!(s.contains("swhtm"));
    }

    /// Heatmap invariant: every `OREC_CONFLICT` self-abort is attributed to
    /// exactly one orec slot, so the per-slot sums equal the aggregate
    /// counter even under multi-threaded contention.
    #[test]
    fn heatmap_conflicts_sum_to_aggregate_abort_counter() {
        const THREADS: usize = 8;
        const OPS: usize = 400;
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 4 })
                .build(),
        );
        // Many cells hashing over few orecs: slow-path attempts regularly
        // collide with the holder's acquired orecs.
        let cells: Arc<Vec<TxCell<u64>>> = Arc::new((0..64).map(|_| TxCell::new(0)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (lock, cells) = (Arc::clone(&lock), Arc::clone(&cells));
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        lock.execute(|ctx| {
                            let a = &cells[(t * 31 + i * 7) % cells.len()];
                            let b = &cells[(t * 13 + i * 3) % cells.len()];
                            let v = ctx.read(a);
                            ctx.write(b, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let heat = lock.orec_heatmap().expect("FG-TLE has orecs");
        let snap = lock.stats().snapshot();
        assert_eq!(
            heat.total_conflicts(),
            snap.aborts_by_code[abort_codes::OREC_CONFLICT as usize],
            "per-slot conflict sums match the aggregate self-abort counter"
        );
        assert_eq!(heat.conflicts.iter().sum::<u64>(), heat.total_conflicts());
    }

    #[test]
    fn builder_configures_the_full_matrix() {
        let retry = RetryPolicy {
            max_attempts: 3,
            lazy_subscription: true,
            ..Default::default()
        };
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 32 })
            .retry(retry)
            .recorder(Arc::new(rtle_obs::Recorder::new(
                rtle_obs::ObsConfig::default(),
            )))
            .build();
        assert_eq!(lock.policy(), ElisionPolicy::FgTle { orecs: 32 });
        assert_eq!(lock.retry_policy(), retry);
        assert!(lock.recorder().is_some());
        assert!(lock.orec_table().is_some());

        // The default builder is a plain-TLE lock on the emulated HTM.
        let plain = ElidableLock::builder().build();
        assert_eq!(plain.policy(), ElisionPolicy::Tle);
        assert_eq!(plain.retry_policy(), RetryPolicy::default());
        assert!(plain.recorder().is_none());
    }

    /// `register_live` puts the lock on a scrape registry as `name` and
    /// its recorder as `<name>_recorder`, and live scrapes then see every
    /// operation without disturbing the end-of-run snapshot.
    #[test]
    fn register_live_registers_the_lock_and_its_recorder() {
        let registry = MetricsRegistry::new();
        let rec = Arc::new(rtle_obs::Recorder::new(rtle_obs::ObsConfig {
            window_len_ms: 100,
            ..rtle_obs::ObsConfig::default()
        }));
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::Tle)
                .recorder(Arc::clone(&rec))
                .build(),
        );
        lock.register_live(&registry, "demo_lock");
        let c = TxCell::new(0u64);
        for _ in 0..50 {
            lock.execute(|ctx| {
                let v = ctx.read(&c);
                ctx.write(&c, v + 1);
            });
        }
        let scrape = registry.scrape();
        let names: Vec<&str> = scrape.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"demo_lock") && names.contains(&"demo_lock_recorder"));
        let source = |name: &str| &scrape.iter().find(|(n, _)| n == name).unwrap().1;
        let commits = |name: &str| -> u64 {
            source(name)
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("commits_"))
                .map(|&(_, n)| n)
                .sum()
        };
        assert_eq!(source("demo_lock").kind, "lock");
        assert_eq!(source("demo_lock_recorder").kind, "recorder");
        assert_eq!(commits("demo_lock"), 50);
        assert_eq!(
            commits("demo_lock_recorder"),
            50,
            "every op is visible to the scrape"
        );
        let text = registry.to_prometheus();
        assert!(
            text.contains("rtle_commits_fast_htm{source=\"demo_lock_recorder\",kind=\"recorder\"}")
        );
        assert!(Arc::ptr_eq(lock.recorder().unwrap(), &rec));
    }

    #[test]
    fn builder_is_the_only_constructor() {
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::RwTle)
            .retry(RetryPolicy {
                max_attempts: 2,
                ..Default::default()
            })
            .build();
        assert_eq!(lock.policy(), ElisionPolicy::RwTle);
        assert_eq!(lock.retry_policy().max_attempts, 2);
    }

    /// `lock_section` is the pessimistic path as a guard: it must hold the
    /// lock while live, run the instrumented holder protocol, and release
    /// on drop.
    #[test]
    fn lock_section_guard_holds_runs_instrumented_and_releases() {
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 16 })
            .build();
        let c = TxCell::new(0u64);
        {
            let g = lock.lock_section();
            assert_eq!(g.ctx().mode(), PathKind::Lock);
            let v = g.ctx().read(&c);
            g.ctx().write(&c, v + 9);
            // The guard is the lock holder; the lock word is set.
            assert!(lock.lock.is_held());
        }
        assert!(!lock.lock.is_held(), "drop releases");
        assert_eq!(c.read_plain(), 9);
        let snap = lock.stats().snapshot();
        assert_eq!(snap.ops, 1);
        assert_eq!(snap.lock_acquisitions, 1);
        assert!(snap.time_locked > std::time::Duration::ZERO);
    }

    /// Slow-path speculation commits concurrently with a `lock_section`
    /// holder, exactly as with the closure-based pessimistic path — the
    /// property cross-shard transactions rely on.
    #[test]
    fn slow_path_commits_while_section_guard_held() {
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 4096 })
                .build(),
        );
        let holder_cell = Arc::new(OwnLine(TxCell::new(0)));
        let other_cell = Arc::new(OwnLine(TxCell::new(0)));

        let g = lock.lock_section();
        g.ctx().write(&holder_cell.0, 1);

        // A concurrent operation on a disjoint cell commits on the slow
        // path while the guard is still alive.
        let t = {
            let (lock, other_cell) = (Arc::clone(&lock), Arc::clone(&other_cell));
            std::thread::spawn(move || {
                lock.execute(|ctx| {
                    let v = ctx.read(&other_cell.0);
                    ctx.write(&other_cell.0, v + 5);
                });
            })
        };
        t.join().unwrap();
        let snap = lock.stats().snapshot();
        assert!(
            snap.slow_commits >= 1,
            "disjoint op should commit on the slow path: {snap:?}"
        );
        drop(g);
        assert_eq!(other_cell.0.read_plain(), 5);
        assert_eq!(holder_cell.0.read_plain(), 1);
    }

    /// A software backend turns the "speculation exhausted" fallback into
    /// a software transaction: the lock is never acquired, and the commit
    /// lands on the STM path.
    #[test]
    fn software_backend_replaces_the_lock_fallback() {
        for tm in [
            Arc::new(rtle_hytm::Norec::new()) as Arc<dyn SoftwareTm>,
            Arc::new(rtle_hytm::Tl2::new()) as Arc<dyn SoftwareTm>,
        ] {
            let name = tm.name();
            let lock = ElidableLock::builder()
                .policy(ElisionPolicy::Tle)
                .with_software_backend(tm)
                .build();
            assert_eq!(lock.software_backend_name(), Some(name));
            let c = TxCell::new(0u64);
            for _ in 0..10 {
                lock.execute(|ctx| {
                    // Dooms every hardware attempt; the operation must
                    // complete on the software path, not under the lock.
                    rtle_htm::htm_unfriendly_instruction();
                    let v = ctx.read(&c);
                    ctx.write(&c, v + 1);
                });
            }
            assert_eq!(c.read_plain(), 10, "{name}");
            let snap = lock.stats().snapshot();
            assert_eq!(snap.stm_commits, 10, "{name}: all ops via STM");
            assert_eq!(snap.lock_acquisitions, 0, "{name}: lock never taken");
        }
    }

    /// Multi-threaded conservation through the software path: concurrent
    /// increments through a TL2 backend are neither lost nor duplicated,
    /// and hardware commits interleave correctly with software ones.
    #[test]
    fn software_backend_multithread_conservation() {
        const THREADS: usize = 4;
        const OPS: usize = 300;
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::Tle)
                .with_software_backend(Arc::new(rtle_hytm::Tl2::new()))
                .build(),
        );
        let c = Arc::new(TxCell::new(0u64));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (lock, c) = (Arc::clone(&lock), Arc::clone(&c));
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        lock.execute(|ctx| {
                            // Odd thread/op pairs force the software path;
                            // the rest stay eligible for hardware.
                            if (t + i) % 2 == 1 {
                                rtle_htm::htm_unfriendly_instruction();
                            }
                            let v = ctx.read(&c);
                            ctx.write(&c, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read_plain(), (THREADS * OPS) as u64);
        let snap = lock.stats().snapshot();
        assert!(snap.stm_commits > 0, "software path exercised: {snap:?}");
    }

    /// Software transactions and pessimistic lock holders exclude each
    /// other: a `lock_section` holder's uninstrumented writes never
    /// overlap a software transaction's validated reads.
    #[test]
    fn software_and_lock_holders_exclude_each_other() {
        const OPS: usize = 200;
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::Tle)
                .with_software_backend(Arc::new(rtle_hytm::Tl2::new()))
                .build(),
        );
        let c = Arc::new(TxCell::new(0u64));
        let sw = {
            let (lock, c) = (Arc::clone(&lock), Arc::clone(&c));
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    lock.execute(|ctx| {
                        rtle_htm::htm_unfriendly_instruction();
                        let v = ctx.read(&c);
                        ctx.write(&c, v + 1);
                    });
                }
            })
        };
        for _ in 0..OPS {
            let g = lock.lock_section();
            let v = g.ctx().read(&c);
            g.ctx().write(&c, v + 1);
        }
        sw.join().unwrap();
        assert_eq!(c.read_plain(), 2 * OPS as u64);
    }

    /// A lock has one software backend: a second `with_software_backend`
    /// replaces the first, like a second `.policy()`.
    #[test]
    fn a_second_software_backend_replaces_the_first() {
        let tl2: Arc<dyn SoftwareTm> = Arc::new(rtle_hytm::Tl2::new());
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 16 })
            .with_software_backend(Arc::new(rtle_hytm::Norec::new()))
            .with_software_backend(Arc::clone(&tl2))
            .build();
        assert_eq!(lock.software_backends().len(), 1);
        assert!(Arc::ptr_eq(&lock.software_backends()[0], &tl2));
        assert_eq!(lock.software_backend_name(), Some("tl2"));
    }

    /// The lock's own live source: kind `"lock"`, STM commits counted,
    /// and the software-backend name exported as an identity label all
    /// the way into the Prometheus exposition.
    #[test]
    fn register_live_exports_backend_name_label() {
        let registry = MetricsRegistry::new();
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::Tle)
                .with_software_backend(Arc::new(rtle_hytm::Tl2::new()))
                .build(),
        );
        lock.register_live(&registry, "demo");
        let c = TxCell::new(0u64);
        for _ in 0..5 {
            lock.execute(|ctx| {
                rtle_htm::htm_unfriendly_instruction();
                let v = ctx.read(&c);
                ctx.write(&c, v + 1);
            });
        }
        let scrape = registry.scrape();
        assert_eq!(scrape.len(), 1, "no recorder installed: just the lock");
        let snap = &scrape[0].1;
        assert_eq!(snap.kind, "lock");
        assert!(snap
            .counters
            .iter()
            .any(|(k, v)| k == "commits_stm" && *v == 5));
        assert_eq!(
            snap.labels,
            vec![("software_backend".to_string(), "tl2".to_string())]
        );
        let text = registry.to_prometheus();
        assert!(
            text.contains(
                "rtle_commits_stm{source=\"demo\",kind=\"lock\",software_backend=\"tl2\"} 5"
            ),
            "{text}"
        );
    }

    /// Ordered multi-lock acquisition: the composition pattern cross-shard
    /// transactions use. Two guards held at once, both instrumented.
    #[test]
    fn ordered_two_lock_sections_compose() {
        let a = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 8 })
            .build();
        let b = ElidableLock::builder().policy(ElisionPolicy::RwTle).build();
        let ca = TxCell::new(10u64);
        let cb = TxCell::new(0u64);
        {
            let ga = a.lock_section();
            let gb = b.lock_section();
            let v = ga.ctx().read(&ca);
            ga.ctx().write(&ca, v - 10);
            let w = gb.ctx().read(&cb);
            gb.ctx().write(&cb, w + 10);
        }
        assert_eq!(ca.read_plain(), 0);
        assert_eq!(cb.read_plain(), 10);
        assert!(!a.lock.is_held() && !b.lock.is_held());
    }
}
