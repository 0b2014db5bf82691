//! [`Stm`]: a transaction space and its `atomically` driver.
//!
//! A space owns one [`ElidableLock`] (the *space lock*) guarding every
//! [`TxVar`](crate::TxVar) and every space-domain structure used through
//! it; the lock's software backend is shared with participant locks.
//! [`Stm::atomically`] drives one composable transaction down the
//! refined-TLE ladder:
//!
//! 1. **Speculation** — the space lock's fast/slow hardware phase
//!    ([`ElidableLock::try_speculate`]), with participant locks enrolled
//!    by transactional subscription. Skipped by a call whose call site's
//!    last hardware attempt ended on an abort no retry can fix (see
//!    *Hostile call sites* below).
//! 2. **Software TM** — attempts on the space lock's backend, with
//!    participant presences keeping pessimistic holders quiesced. The
//!    attempt's descriptor holds the rung's only write log.
//! 3. **Pessimistic** — all discovered locks acquired in ascending
//!    address order; the plan grows by restart when the closure touches a
//!    lock it does not hold.
//!
//! A [`Tx::retry`] outcome on the software or pessimistic rung parks the
//! thread on the read-set vars' waiter lists (`rtle_htm::wait::park`) and
//! reruns the ladder from the top when woken.
//! Speculation logs no reads, so a retry there hands off to the next rung,
//! which logs the reads it parks on.
//!
//! # Hostile call sites
//!
//! A body that runs an instruction the hardware cannot commit aborts as
//! [`AbortCode::Unsupported`] on every hardware attempt, and under the
//! emulated HTM each such abort is an unwind that costs far more than the
//! software rung's commit. The calling thread remembers, per `atomically`
//! call site (`#[track_caller]`'s [`Location`], in a direct-mapped,
//! tag-checked table of 16 entries), whether the site's last hardware
//! attempt ended that way. When it did, the site's next *b* calls skip
//! rung 1 and start on the software rung; the call after them probes the
//! hardware again. *b* starts at 1 and doubles on each consecutive hostile
//! probe up to 64, and a probe that commits resets it.
//! Only a space with a software backend skips: without one the next rung
//! is the pessimistic one, which would serialize every other thread.
//! [`ElidableLock::execute`] never skips: its holder/reader coexistence
//! depends on every call trying the hardware.
//!
//! On real RTM an unsupported abort costs hundreds of cycles, not an
//! unwind, so there a skip saves only the wasted body.

use std::cell::{Cell, RefCell};
use std::panic::Location;
use std::sync::{Arc, OnceLock};

use rtle_core::{
    fast_hash, AbortCode, ElidableLock, ElidableLockBuilder, ElisionPolicy, LockedSection,
    RetryPolicy, SoftwarePresence,
};
use rtle_htm::lanes::Lanes;
use rtle_htm::unwind::{self, Channel};
use rtle_htm::wait;
use rtle_hytm::{Norec, SoftwareTm, SwPhase};

use crate::tx::{end_spec, flush_locked, LockedPlan, Mode, Tx, TxError, TxInner, TxResult};

/// Software attempts per ladder round before falling back to locks.
const SW_ATTEMPTS: usize = 8;

/// Entries in each thread's table of `atomically` call sites.
const SITES: usize = 16;

/// The most consecutive calls a hostile call site sends straight to the
/// software rung before it probes the hardware again.
const MAX_SKIP: u8 = 64;

/// Counters for the composable-transaction plane. All counters are
/// monotonic statistics read at quiescence or for telemetry, kept in
/// per-thread lanes (`Relaxed` throughout, per the workspace ordering
/// table in DESIGN.md §3).
#[derive(Debug, Default)]
pub struct StmStats {
    lanes: Lanes<COUNTERS>,
}

// Counter indices into the lanes.
const COMMITS_SPEC: usize = 0;
const COMMITS_SW: usize = 1;
const COMMITS_LOCKED: usize = 2;
const PARKS: usize = 3;
const WAKES_NOTIFIED: usize = 4;
const WAKES_TIMEOUT: usize = 5;
const RETRY_RERUNS: usize = 6;
const PLAN_RESTARTS: usize = 7;
const WAKEUPS_SENT: usize = 8;
const SPEC_SKIPS: usize = 9;
const COUNTERS: usize = 10;

/// Point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmStatsSnapshot {
    /// Transactions committed in the hardware speculation phase.
    pub commits_spec: u64,
    /// Transactions committed by the software-TM fallback.
    pub commits_sw: u64,
    /// Transactions committed under pessimistic locks.
    pub commits_locked: u64,
    /// Times a retrying transaction actually parked.
    pub parks: u64,
    /// Parks ended by a waker's notification.
    pub wakes_notified: u64,
    /// Parks ended by the timeout backstop.
    pub wakes_timeout: u64,
    /// Retries that skipped parking because a read had already changed.
    pub retry_reruns: u64,
    /// Locked-mode plan-growth restarts.
    pub plan_restarts: u64,
    /// Waiters notified by this space's committing writers.
    pub wakeups_sent: u64,
}

impl StmStatsSnapshot {
    /// Total committed transactions across all three rungs.
    pub fn commits(&self) -> u64 {
        self.commits_spec + self.commits_sw + self.commits_locked
    }
}

impl StmStats {
    /// Copies the counters.
    pub fn snapshot(&self) -> StmStatsSnapshot {
        let c = self.lanes.sums();
        StmStatsSnapshot {
            commits_spec: c[COMMITS_SPEC],
            commits_sw: c[COMMITS_SW],
            commits_locked: c[COMMITS_LOCKED],
            parks: c[PARKS],
            wakes_notified: c[WAKES_NOTIFIED],
            wakes_timeout: c[WAKES_TIMEOUT],
            retry_reruns: c[RETRY_RERUNS],
            plan_restarts: c[PLAN_RESTARTS],
            wakeups_sent: c[WAKEUPS_SENT],
        }
    }

    /// Calls that started on the software rung without a hardware
    /// attempt, because their call site's last attempt could not commit
    /// in hardware. Each is also counted on the rung that committed it,
    /// so this tells a call its site sent to software apart from one that
    /// aborted there. Summed over the lanes at each read.
    pub fn spec_skips(&self) -> u64 {
        self.lanes.sum(SPEC_SKIPS)
    }
}

/// What the calling thread has learned about one `atomically` call site.
#[derive(Clone, Copy)]
struct SiteState {
    /// The call site's [`Location`] address; 0 marks an empty entry.
    tag: usize,
    /// Calls left to send straight to the software rung.
    skip: u8,
    /// The next hostile probe's skip: 1, doubling up to [`MAX_SKIP`].
    backoff: u8,
}

const NO_SITE: SiteState = SiteState {
    tag: 0,
    skip: 0,
    backoff: 1,
};

thread_local! {
    static SITE_TABLE: [Cell<SiteState>; SITES] = const { [const { Cell::new(NO_SITE) }; SITES] };
}

/// One `atomically` call site's entry in the calling thread's table.
#[derive(Clone, Copy)]
struct Site {
    tag: usize,
    slot: usize,
}

impl Site {
    fn of(at: &'static Location<'static>) -> Site {
        let tag = at as *const Location<'static> as usize;
        Site {
            tag,
            slot: fast_hash(tag as u64, SITES as u64) as usize,
        }
    }

    /// Whether this call skips the hardware rung, counting the skip down.
    fn skips(self) -> bool {
        SITE_TABLE.with(|t| {
            let e = &t[self.slot];
            let s = e.get();
            let skip = s.tag == self.tag && s.skip > 0;
            if skip {
                e.set(SiteState {
                    skip: s.skip - 1,
                    ..s
                });
            }
            skip
        })
    }

    /// Learns from how the hardware rung ended: a commit forgets the site,
    /// an abort no retry can fix skips the next `backoff` calls and
    /// doubles it, any other abort teaches nothing.
    fn learn<T>(self, spec: &Result<T, Option<AbortCode>>) {
        let hostile = match spec {
            Ok(_) => false,
            Err(Some(code)) if !code.may_retry() => true,
            Err(_) => return,
        };
        SITE_TABLE.with(|t| {
            let e = &t[self.slot];
            let s = e.get();
            let mine = s.tag == self.tag;
            if hostile {
                let backoff = if mine { s.backoff } else { 1 };
                e.set(SiteState {
                    tag: self.tag,
                    skip: backoff,
                    backoff: (2 * backoff).min(MAX_SKIP),
                });
            } else if mine {
                e.set(NO_SITE);
            }
        })
    }
}

/// Which rung committed (internal bookkeeping).
#[derive(Clone, Copy)]
enum Rung {
    Spec,
    Sw,
    Locked,
}

/// Builder for a transaction space.
pub struct StmBuilder {
    policy: ElisionPolicy,
    retry: RetryPolicy,
    backend: Option<Arc<dyn SoftwareTm>>,
}

impl Default for StmBuilder {
    fn default() -> Self {
        StmBuilder {
            // FG-TLE by default: the space lock guards *all* vars and
            // space structures, so holder/speculation coexistence is what
            // keeps unrelated transactions parallel during pessimistic
            // episodes.
            policy: ElisionPolicy::FgTle { orecs: 128 },
            retry: RetryPolicy::default(),
            backend: Some(Arc::new(Norec::new())),
        }
    }
}

impl StmBuilder {
    /// Elision policy for the space lock (default: FG-TLE, 128 orecs).
    pub fn policy(mut self, policy: ElisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Retry policy for the space lock's speculative phase.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the software backend (default: one shared NOrec); `None`
    /// disables the software rung entirely.
    pub fn software_backend(mut self, backend: Option<Arc<dyn SoftwareTm>>) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the space.
    pub fn build(self) -> Stm {
        let mut b = ElidableLock::builder()
            .policy(self.policy)
            .retry(self.retry);
        if let Some(tm) = self.backend {
            b = b.with_software_backend(tm);
        }
        Stm {
            lock: b.build(),
            stats: StmStats::default(),
        }
    }
}

/// A transaction space: the front door for composable transactions.
#[derive(Debug)]
pub struct Stm {
    lock: ElidableLock,
    stats: StmStats,
}

impl Default for Stm {
    fn default() -> Self {
        Stm::new()
    }
}

impl Stm {
    /// A space with the default configuration (FG-TLE spec phase, one
    /// shared NOrec software backend).
    pub fn new() -> Self {
        Stm::builder().build()
    }

    /// Starts building a customized space.
    pub fn builder() -> StmBuilder {
        StmBuilder::default()
    }

    /// The space lock (telemetry: its [`rtle_core::ExecStats`] show the
    /// spec/software/pessimistic mix of the space's own phase).
    pub fn lock(&self) -> &ElidableLock {
        &self.lock
    }

    /// The composable-transaction counters.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// A lock builder pre-loaded with this space's software backend
    /// (the shared `Arc`). Participant locks — e.g. the per-shard locks of a
    /// `ShardedTxMap` built via `with_builder` — **must** be constructed
    /// from this, so the space's software rung validates against the same
    /// backend the participants' hardware commits publish to.
    pub fn lock_builder(&self) -> ElidableLockBuilder {
        let b = ElidableLock::builder();
        match self.lock.software_backends().first() {
            Some(tm) => b.with_software_backend(Arc::clone(tm)),
            None => b,
        }
    }

    pub(crate) fn lock_addr(&self) -> usize {
        &self.lock as *const ElidableLock as usize
    }

    /// Runs `f` as one composable transaction: every read and write in
    /// the closure commits atomically — across [`crate::TxVar`]s,
    /// space-domain structures, and enrolled sharded-map participants —
    /// or not at all. Blocks (without spinning) when `f` returns
    /// [`TxError::Retry`], until a read-set var changes.
    ///
    /// The closure may run any number of times and must be side-effect
    /// free outside its transactional accesses.
    ///
    /// A call site whose last hardware attempt could not commit in
    /// hardware starts its next calls on the software rung (see the
    /// module docs' *Hostile call sites*).
    #[track_caller]
    pub fn atomically<'env, R>(&'env self, f: impl Fn(&Tx<'env, '_>) -> TxResult<R>) -> R {
        // (`Location::caller` must be read here: inside a closure it
        // would name the closure, not this call's caller.)
        let here = Location::caller();
        let site = (!self.lock.software_backends().is_empty()).then(|| Site::of(here));
        let skip_spec = site.is_some_and(Site::skips);
        if skip_spec {
            self.stats.lanes.add(SPEC_SKIPS, 1);
        }
        let inner: RefCell<TxInner<'env>> = RefCell::new(TxInner::take());
        // Participant locks discovered in failed attempts seed the
        // pessimistic plan, so the Locked rung usually acquires the full
        // set on its first try instead of growing lock by lock.
        let mut known: Vec<&'env ElidableLock> = Vec::new();

        loop {
            // ---- Rung 1: hardware speculation --------------------------
            if !skip_spec {
                let spec = self.lock.try_speculate(|ctx| {
                    inner.borrow_mut().reset();
                    let tx = Tx::new(self, Mode::Spec(ctx), &inner);
                    let r = f(&tx);
                    end_spec(&inner.borrow(), &r);
                    r
                });
                if let Some(site) = site {
                    site.learn(&spec);
                }
                match spec {
                    Ok(Ok(v)) => {
                        self.finish(Rung::Spec, &inner);
                        return v;
                    }
                    // A retry's read set is the next rung's to log: the
                    // hardware kept none to park on.
                    Ok(Err(TxError::Retry)) | Err(_) => self.merge_known(&mut known, &inner),
                }
            }

            // ---- Rung 2: software TM -----------------------------------
            if let Some(committed) = self.software_rung(&f, &inner, &mut known) {
                match committed {
                    Ok(v) => {
                        self.finish(Rung::Sw, &inner);
                        return v;
                    }
                    Err(TxError::Retry) => {
                        self.park(&inner);
                        continue;
                    }
                }
            }

            // ---- Rung 3: ordered pessimistic locks ---------------------
            match self.locked_rung(&f, &inner, &mut known) {
                Ok(v) => {
                    self.finish(Rung::Locked, &inner);
                    return v;
                }
                Err(TxError::Retry) => {
                    self.park(&inner);
                    continue;
                }
            }
        }
    }

    /// One round of software-TM attempts. `Some(outcome)` when an attempt
    /// committed (possibly read-only with a retry request); `None` when
    /// the rung is exhausted or no backend is installed.
    fn software_rung<'env, R>(
        &'env self,
        f: &impl Fn(&Tx<'env, '_>) -> TxResult<R>,
        inner: &RefCell<TxInner<'env>>,
        known: &mut Vec<&'env ElidableLock>,
    ) -> Option<TxResult<R>> {
        let tm = self.lock.software_backends().first()?;
        let phase = SwPhase::enter(&**tm);
        let presences: RefCell<Vec<SoftwarePresence<'env>>> = RefCell::new(Vec::new());
        for _ in 0..SW_ATTEMPTS {
            // `software_attempt` raises the presence on the space lock
            // itself first (blocking is safe — this thread holds no other
            // presences or locks yet) and counts the commit on its stats.
            // Each rung books its own attempts, so its commit is attempt 0
            // of this rung, as a Locked rung's holdings are.
            let outcome = self.lock.software_attempt(&phase, 0, |ctx| {
                inner.borrow_mut().reset();
                let tx = Tx::new(
                    self,
                    Mode::Sw {
                        ctx,
                        tm,
                        phase: &phase,
                        presences: &presences,
                    },
                    inner,
                );
                let r = f(&tx);
                // A retry publishes nothing: it commits read-only.
                if r.is_err() {
                    phase.truncate_writes(0);
                }
                r
            });
            // The attempt (and, on success, its backend commit) is over:
            // release the participant presences before deciding what to
            // do next.
            presences.borrow_mut().clear();
            match outcome {
                Some(done) => return Some(done),
                None => self.merge_known(known, inner),
            }
        }
        None
    }

    /// The pessimistic rung: acquire the known plan in ascending lock
    /// address order, growing it via restarts until the closure runs to
    /// completion. Always commits (or retries) eventually — the plan is
    /// bounded by the locks the closure can touch.
    fn locked_rung<'env, R>(
        &'env self,
        f: &impl Fn(&Tx<'env, '_>) -> TxResult<R>,
        inner: &RefCell<TxInner<'env>>,
        known: &mut Vec<&'env ElidableLock>,
    ) -> TxResult<R> {
        let mut plan: Vec<&'env ElidableLock> = Vec::with_capacity(known.len() + 1);
        plan.push(&self.lock);
        plan.extend(known.iter().copied());
        sort_plan(&mut plan);
        loop {
            let sections: Vec<LockedSection<'env>> =
                plan.iter().map(|l| l.lock_section()).collect();
            let locked = LockedPlan {
                entries: plan
                    .iter()
                    .zip(&sections)
                    .map(|(l, s)| (*l as *const ElidableLock as usize, s.ctx()))
                    .collect(),
            };
            let attempt = unwind::catch(Channel::Restart, || {
                inner.borrow_mut().reset();
                let tx = Tx::new(self, Mode::Locked(&locked), inner);
                f(&tx)
            });
            match attempt {
                Ok(done) => {
                    if done.is_ok() {
                        flush_locked(&inner.borrow(), &locked);
                    }
                    drop(locked);
                    drop(sections); // releases the locks (writes visible)
                    return done;
                }
                Err(_) => {
                    self.stats.lanes.add(PLAN_RESTARTS, 1);
                    let missing = inner
                        .borrow_mut()
                        .missing
                        .take()
                        .expect("restart without a missing lock");
                    drop(locked);
                    drop(sections);
                    plan.push(missing);
                    sort_plan(&mut plan);
                    if !known.iter().any(|k| std::ptr::eq(*k, missing)) {
                        known.push(missing);
                    }
                }
            }
        }
    }

    /// Post-commit bookkeeping: count the commit and wake the waiter list
    /// of every [`crate::TxVar`] the transaction wrote. Runs strictly
    /// after the writes are visible (post HTM commit / backend commit /
    /// lock release).
    fn finish(&self, rung: Rung, inner: &RefCell<TxInner<'_>>) {
        self.stats.lanes.add(
            match rung {
                Rung::Spec => COMMITS_SPEC,
                Rung::Sw => COMMITS_SW,
                Rung::Locked => COMMITS_LOCKED,
            },
            1,
        );
        // `woken` holds each written var's list once.
        for &wl in &inner.borrow().logs.woken {
            // SAFETY: the list belongs to a `&'env TxVar` that outlives
            // this `atomically` call (enforced by `Tx::write`'s bound).
            // `wake_all` fences the rung's commit before its count load.
            let woken = unsafe { &*wl }.wake_all();
            self.stats.lanes.add(WAKEUPS_SENT, woken as u64);
        }
    }

    /// Blocks until some read-set var changes: register on every read
    /// var's waiter list, revalidate the logged reads, park — the park
    /// protocol of `rtle_htm::wait`, which has no lost wakeups.
    fn park(&self, inner: &RefCell<TxInner<'_>>) {
        let logs = &inner.borrow().logs;
        assert!(
            !logs.reads.is_empty(),
            "retry would block forever: the transaction read no TxVars, so \
             nothing can wake it (only TxVar reads register wakeups)"
        );
        // SAFETY: lists belong to `&'env TxVar`s outliving this call.
        // `park` fences its registration before the revalidation.
        let lists: Vec<_> = logs.reads.iter().map(|r| unsafe { &*r.waiters }).collect();
        let changed = || {
            // SAFETY: read-set cells outlive the atomically call. A
            // deliberately racy revalidation read: a stale value is caught
            // by the rerun's own transactional read, and TxCell's internal
            // Acquire floor orders the load itself.
            let changed = logs
                .reads
                .iter()
                .any(|r| unsafe { (*r.cell).read_plain() } != r.value);
            // Counted before the sleep, so the park shows while it lasts.
            self.stats
                .lanes
                .add(if changed { RETRY_RERUNS } else { PARKS }, 1);
            changed
        };
        if let Some(notified) = wait::park(&lists, changed) {
            let wake = if notified {
                WAKES_NOTIFIED
            } else {
                WAKES_TIMEOUT
            };
            self.stats.lanes.add(wake, 1);
        }
    }

    /// Remembers participant locks enrolled by a failed attempt, seeding
    /// the pessimistic plan.
    fn merge_known<'env>(
        &self,
        known: &mut Vec<&'env ElidableLock>,
        inner: &RefCell<TxInner<'env>>,
    ) {
        for l in inner.borrow().enrolled() {
            if !known.iter().any(|k| std::ptr::eq(*k, l)) {
                known.push(l);
            }
        }
    }
}

/// Ascending raw-address order — the global acquisition order shared with
/// `rtle-shard`'s cross-shard transfers (shards sort by index, and shard
/// locks live in one allocation, so index order *is* address order).
fn sort_plan(plan: &mut Vec<&ElidableLock>) {
    plan.sort_by_key(|l| *l as *const ElidableLock as usize);
    plan.dedup_by(|a, b| std::ptr::eq(*a, *b));
}

/// The process-wide default space backing the free [`crate::atomically`].
pub fn global() -> &'static Stm {
    static GLOBAL: OnceLock<Stm> = OnceLock::new();
    GLOBAL.get_or_init(Stm::new)
}
