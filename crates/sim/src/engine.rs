//! The discrete-event engine.
//!
//! ## Model
//!
//! Time is in cycles. Each logical thread alternates between non-critical
//! setup work and critical-section *attempts*. Every shared object — data,
//! the lock word, RW-TLE's write flag, FG-TLE's orecs, the NOrec clock,
//! RHNOrec's software-transaction counter — is a **cache line** identified
//! by a `u64`. The engine keeps, per line, the time of the last committed
//! write.
//!
//! A speculative attempt records *watch entries* `(line, from)` — "I had
//! this line in my read/write set from time `from`". At the attempt's end
//! event the engine validates: a committed write to a watched line at time
//! `≥ from` aborts the attempt. Choosing `from` per line expresses every
//! protocol subtlety uniformly:
//!
//! * early lock subscription: lock line watched from the attempt start;
//! * lazy subscription: lock line watched only from just before commit;
//! * FG-TLE orec ownership: orec lines watched from the start of the
//!   critical section that was active when the attempt began (the
//!   `local_seq_number` snapshot semantics of §4.2);
//! * RHNOrec's reduced commit window: the global clock watched only for
//!   the commit instrumentation's duration.
//!
//! Pessimistic executions (under a lock, or a software commit's
//! write-back) cannot abort, so their stores are pre-scheduled as timed
//! line-write events; event ordering guarantees any attempt ending later
//! observes them.
//!
//! ## One attempt: plan → launch → resolve
//!
//! *Which* rung a thread tries next is not decided here: `on_ready` and
//! `elision_decision` `match` on [`RetryPolicy::next_step`], the function
//! the runtime's `ElidableLock::speculative_phase` matches on, under the
//! paper's policy (five fast attempts, unlimited slow ones, no early
//! give-up: TSX reports no "unsupported" code).
//!
//! A path is a value, a `Plan`: its `PathKind`, the lead-in before the
//! first access, the per-access cost, the commit cost, the footprint
//! factor of the capacity test, the subscriptions it watches beside its
//! data (lock, write flag, active-size line, software count, clock),
//! whether accesses also watch their orecs, and the two commit-time
//! obligations (`rh_hw`, `lazy_lock`). `fast_plan`, `slow_plan`,
//! `rh_plan` and `sw_plan` are the only places that differ per method.
//! `Engine::launch` turns any plan into the in-flight `Attempt`: builds
//! the watch list, draws the forced cause, indexes the attempt for eager
//! conflicts and pushes its end event. Resolution is equally single:
//! `on_attempt_end` / `on_sw_attempt_end` find the outcome,
//! `Engine::abort` books a failed attempt and reschedules the thread —
//! the aborts decided before launching (a hostile instruction, a raised
//! write flag, an owned orec, ...) go through the same function — and
//! `Engine::book` is the one place an outcome reaches `SimStats`' class
//! counters *and* the recorder, software paths included.
//!
//! ## Simplifications
//!
//! Conflicting speculative attempts abort at the end of their window (real
//! HTM aborts mid-flight); the wasted time is slightly overestimated for
//! every method equally. A slow-path attempt that hits an already-owned
//! orec or a raised write flag is charged one abort and then waits for the
//! lock release, as the runtime waits: which aborts wait, on either path,
//! is `rtle_core::policy::awaits_release`, the one after-abort rule that
//! `Engine::abort` and `ElidableLock::speculative_phase` both call.
//! RHNOrec software writer commits serialize on the clock; a commit that
//! had to queue is classified as an SGL (slow) commit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rtle_core::abort_codes;
use rtle_core::adaptive::Adaptation;
use rtle_core::orec::{line_slot, OrecHeatmap};
use rtle_core::policy::awaits_release;
use rtle_core::{RetryPolicy, Step};
use rtle_htm::lanes::Writer;
use rtle_htm::AbortCode;
use rtle_obs::{AdaptAction, AttemptEvent, PathKind, RecordKind, Recorder};

use crate::cost::CostModel;
use crate::method::SimMethod;
use crate::stats::SimStats;
use crate::workload::{OpSpec, Workload};

/// How a run terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Threads stop starting operations after this many cycles (the
    /// paper's timed 5-second runs).
    FixedDuration(u64),
    /// Threads run until the workload reports no remaining operations
    /// (ccTSA's fixed total work; the result metric is the end time).
    FixedWork,
}

/// Wang-mix hasher for `u64` line ids (the default SipHash dominates the
/// simulator's profile otherwise).
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
        self.0 = rtle_htm::hash::wang_mix64(self.0);
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = rtle_htm::hash::wang_mix64(i);
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

#[derive(Debug, Clone, Copy)]
struct Watch {
    line: u64,
    from: u64,
    /// Whether this entry is in the attempt's *write* set (eager pairwise
    /// conflicts require at least one writer).
    write: bool,
}

/// When a [`Plan`]'s subscription joins the attempt's read/write set.
#[derive(Debug, Clone, Copy)]
enum Since {
    /// The attempt's start.
    Start,
    /// Just before commit: the attempt's end minus the plan's commit cost.
    Commit,
    /// A fixed time (the start of the covering critical section).
    At(u64),
}

/// A path as a value: everything that distinguishes one kind of attempt
/// from another. [`Engine::launch`] turns it into an [`Attempt`].
#[derive(Debug, Clone, Copy)]
struct Plan {
    path: PathKind,
    /// Cycles from the attempt's start to its first access.
    lead_in: u64,
    /// Cycles per access.
    per_access: u64,
    /// Cycles from the end of the section's work to the attempt's end.
    commit: u64,
    /// Tracked read lines per distinct line touched, for the capacity
    /// test (orec reads double it); 0 for a path with no capacity test.
    footprint: usize,
    /// What the attempt watches beside its data, ahead of it and in this
    /// order: `(line, since, write)`.
    subscriptions: [Option<(u64, Since, bool)>; 2],
    /// FG-TLE: every access also watches its write orec (a store its read
    /// orec too) from this time — the covering section's start.
    orecs_since: Option<u64>,
    rh_hw: bool,
    lazy_lock: bool,
}

#[derive(Debug)]
struct Attempt {
    t0: u64,
    /// `FastHtm`/`SlowHtm` for hardware attempts, `Stm` for a software
    /// transaction's read phase (never `Lock`: that path cannot abort).
    path: PathKind,
    watches: Vec<Watch>,
    commit_writes: Vec<u64>,
    /// Abort regardless of validation with this code: capacity, an
    /// injected spurious abort, or — the loser of an eager pairwise
    /// conflict — conflict.
    forced: Option<AbortCode>,
    /// RHNOrec hardware attempt: resolve the clock obligation at commit.
    rh_hw: bool,
    /// Lazy subscription (§5): check the lock *state* just before commit
    /// and abort if it is held (a write-timestamp watch cannot express
    /// "currently held", only "acquired during my window").
    lazy_lock: bool,
}

#[derive(Debug, Default)]
struct ThreadState {
    /// Failed fast-path attempts of the current operation.
    fast_used: u32,
    /// Failed slow-path attempts of the current operation.
    slow_used: u32,
    op_active: bool,
    pending: Option<Attempt>,
    sw_commit: Option<SwCommit>,
    done: bool,
    /// RHNOrec: currently in the software phase (sw_count contribution).
    in_sw_phase: bool,
}

#[derive(Debug, Clone, Copy)]
struct CsRecord {
    start: u64,
    end: u64,
    first_write: Option<u64>,
}

#[derive(Debug, Default)]
struct LockState {
    free_at: u64,
    cs: VecDeque<CsRecord>,
    /// Threads currently spin-waiting on this lock. Spinners bounce the
    /// lock word's cache line and slow the holder down — the coherence
    /// feedback behind the lemming effect [10]: more waiters → longer
    /// critical sections → more waiters.
    waiters: u32,
}

impl LockState {
    fn held(&self, t: u64) -> bool {
        t < self.free_at
    }

    /// The critical section covering time `t`, if any.
    fn covering(&self, t: u64) -> Option<CsRecord> {
        self.cs
            .iter()
            .rev()
            .find(|c| c.start <= t && t < c.end)
            .copied()
    }

    fn prune(&mut self, now: u64) {
        while let Some(front) = self.cs.front() {
            if front.end + 1_000_000 < now && self.cs.len() > 4 {
                self.cs.pop_front();
            } else {
                break;
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    /// Apply a committed/pessimistic write to `line` at the event time.
    LineWrite(u64),
    /// Thread finishes a speculative attempt: validate and commit/abort.
    AttemptEnd(u32),
    /// Thread finishes a software transaction's read phase.
    SwAttemptEnd(u32),
    /// A software writer commit's write-back completes.
    SwCommitDone(u32),
    /// Thread decides its next action.
    Ready(u32),
}

/// A software writer commit in flight.
#[derive(Debug, Clone, Copy)]
struct SwCommit {
    /// Start of the transaction attempt (for software-time accounting).
    t0: u64,
    /// Whether the committer had to queue behind another commit (the
    /// single-global-lock fallback classification).
    queued: bool,
}

type Ev = Reverse<(u64, u64, EvKind)>;

/// The simulator.
pub struct Engine<W: Workload> {
    method: SimMethod,
    threads: usize,
    cost: CostModel,
    mode: RunMode,
    /// The paper's static retry policy, read through
    /// [`RetryPolicy::next_step`].
    retry: RetryPolicy,
    /// Ablation: model §4.2's `uniq_*_orecs` shortcut (on by default).
    uniq_shortcut: bool,
    /// Uniform per-thread slowdown (SMT core sharing); scales the cost
    /// model and the workload's cycle quantities.
    time_scale: f64,
    /// Per-attempt probability of a microarchitectural abort (cache-set
    /// aliasing, SMT-induced capacity pressure). Seeds the fallback
    /// cascades real TSX exhibits at high thread counts.
    spurious_prob: f64,
    rng: u64,
    workload: W,

    now: u64,
    seq: u64,
    events: BinaryHeap<Ev>,
    last_write: LineMap<u64>,
    /// Reverse index of in-flight hardware attempts: line -> watchers
    /// (thread, watched-from, is-write). Drives the eager pairwise
    /// conflict detection in O(own-footprint) per attempt.
    watchers: LineMap<Vec<(u32, u64, bool)>>,
    locks: Vec<LockState>,
    ts: Vec<ThreadState>,
    /// NOrec/RHNOrec global clock: bump times (sorted) + committer queue.
    clock_bumps: Vec<u64>,
    clock_free_at: u64,
    sw_running: i64,
    /// Adaptive FG-TLE: the runtime's decision and its window
    /// ([`Adaptation::on_lock_acquired`]), fed `stats.slow_commits` and
    /// the running slow-path abort count below.
    adapt: Adaptation,
    slow_aborts: u64,
    stats: SimStats,
    last_completion: u64,
    /// Optional attempt-level recorder (latencies in simulator cycles).
    recorder: Option<Arc<Recorder>>,
}

// ---- line-space layout -------------------------------------------------

impl<W: Workload> Engine<W> {
    /// Builds an engine for `method` with `threads` logical threads.
    pub fn new(
        method: SimMethod,
        threads: usize,
        cost: CostModel,
        mode: RunMode,
        workload: W,
    ) -> Self {
        assert!(threads >= 1);
        let n_locks = match method {
            SimMethod::LockOnly { locks } => locks,
            _ => 1,
        };
        let adapt = match method {
            SimMethod::AdaptiveFgTle { initial, max_orecs } => Adaptation {
                active: (initial as u64).max(1),
                capacity: (max_orecs as u64).max(1),
                initial: (initial as u64).max(1),
                enabled: true,
                ..Default::default()
            },
            _ => Adaptation::default(),
        };
        let heat_capacity = match method {
            SimMethod::FgTle { orecs } => orecs,
            SimMethod::AdaptiveFgTle { max_orecs, .. } => max_orecs,
            _ => 0,
        };
        let stats = SimStats {
            orec_heatmap: OrecHeatmap {
                conflicts: vec![0; heat_capacity],
            },
            ..Default::default()
        };
        Engine {
            method,
            threads,
            cost,
            mode,
            retry: RetryPolicy {
                give_up_on_unsupported: false,
                ..Default::default()
            },
            uniq_shortcut: true,
            time_scale: 1.0,
            spurious_prob: 0.0,
            rng: 0x2545_f491_4f6c_dd1d,
            workload,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            last_write: LineMap::default(),
            watchers: LineMap::default(),
            locks: (0..n_locks).map(|_| LockState::default()).collect(),
            ts: (0..threads).map(|_| ThreadState::default()).collect(),
            clock_bumps: Vec::new(),
            clock_free_at: 0,
            sw_running: 0,
            adapt,
            slow_aborts: 0,
            stats,
            last_completion: 0,
            recorder: None,
        }
    }

    /// Installs an attempt-level recorder. The engine feeds it every
    /// attempt resolution — hardware, software and pessimistic, aborts
    /// decided before launching included — and every adaptive decision;
    /// latencies are in simulator **cycles** (configure the recorder with
    /// `latency_unit: "cycles"`). Keep a clone of the `Arc` to snapshot
    /// after the run.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attributes one slow-path conflict abort to an orec slot (as
    /// `OrecTable::note_conflict` does).
    fn note_orec_conflict(&mut self, slot: u64) {
        if let Some(c) = self.stats.orec_heatmap.conflicts.get_mut(slot as usize) {
            *c += 1;
        }
    }

    /// The orec slot a line-space id belongs to, if it is an orec line
    /// (read- and write-orec ranges both map back to their slot index).
    fn orec_slot_of_line(&self, line: u64) -> Option<u64> {
        let cap = self.orec_capacity();
        let base = self.orec_base();
        if cap > 0 && line >= base && line < base + 2 * cap {
            Some((line - base) % cap)
        } else {
            None
        }
    }

    /// Enables lazy lock subscription (§5) for elision methods.
    pub fn with_lazy_subscription(mut self, on: bool) -> Self {
        self.retry.lazy_subscription = on;
        self
    }

    /// Ablation switch for the lock holder's `uniq_*_orecs` barrier
    /// shortcut (§4.2); disabling it prices every under-lock access with
    /// the full barrier.
    pub fn with_uniq_shortcut(mut self, on: bool) -> Self {
        self.uniq_shortcut = on;
        self
    }

    /// Applies a uniform per-thread slowdown factor (e.g.
    /// [`crate::MachineProfile::smt_factor`]); call at most once.
    pub fn with_time_scale(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0);
        self.cost = self.cost.scaled(factor);
        self.time_scale = factor;
        self
    }

    /// Sets the per-attempt microarchitectural abort probability.
    pub fn with_spurious_aborts(mut self, prob: f64) -> Self {
        assert!((0.0..1.0).contains(&prob));
        self.spurious_prob = prob;
        self
    }

    /// Deterministic per-engine RNG draw in [0, 1).
    fn draw(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether this hardware attempt suffers a microarchitectural abort.
    fn spurious_abort(&mut self) -> bool {
        self.spurious_prob > 0.0 && self.draw() < self.spurious_prob
    }

    fn n_locks(&self) -> u64 {
        self.locks.len() as u64
    }

    fn lock_line(&self, id: usize) -> u64 {
        id as u64
    }

    fn clock_line(&self) -> u64 {
        self.n_locks()
    }

    fn sw_count_line(&self) -> u64 {
        self.n_locks() + 1
    }

    fn flag_line(&self) -> u64 {
        self.n_locks() + 2
    }

    /// Metadata line holding the active orec count (adaptive FG-TLE);
    /// slow-path attempts subscribe to it so resizes doom them (§4.1).
    fn active_size_line(&self) -> u64 {
        self.n_locks() + 3
    }

    fn orec_base(&self) -> u64 {
        self.n_locks() + 4
    }

    /// Allocated orec capacity (line-space layout; fixed per run).
    fn orec_capacity(&self) -> u64 {
        match self.method {
            SimMethod::FgTle { orecs } => orecs as u64,
            SimMethod::AdaptiveFgTle { max_orecs, .. } => max_orecs as u64,
            _ => 0,
        }
    }

    /// Orecs currently in use for hashing (≤ capacity; dynamic under the
    /// adaptive policy).
    fn active_orecs_now(&self) -> u64 {
        match self.method {
            SimMethod::FgTle { orecs } => orecs as u64,
            SimMethod::AdaptiveFgTle { .. } => self.adapt.active,
            _ => 0,
        }
    }

    fn is_adaptive(&self) -> bool {
        matches!(self.method, SimMethod::AdaptiveFgTle { .. })
    }

    /// Write-orec line for a workload line: the runtime's one line → orec
    /// map ([`line_slot`]), offset into the orec line space.
    fn w_orec_line(&self, data_line: u64) -> u64 {
        self.orec_base() + line_slot(data_line, self.active_orecs_now() as usize) as u64
    }

    /// Read-orec line for a workload line.
    fn r_orec_line(&self, data_line: u64) -> u64 {
        self.orec_base()
            + self.orec_capacity()
            + line_slot(data_line, self.active_orecs_now() as usize) as u64
    }

    fn data_line(&self, workload_line: u64) -> u64 {
        self.orec_base() + 2 * self.orec_capacity() + workload_line
    }

    // ---- event plumbing --------------------------------------------------

    fn push(&mut self, time: u64, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, kind)));
    }

    /// A committed write to `line` at `time`: applied now if `time` has
    /// come, else scheduled.
    fn write_line_at(&mut self, line: u64, time: u64) {
        if time <= self.now {
            let e = self.last_write.entry(line).or_insert(0);
            *e = (*e).max(time);
        } else {
            self.push(time, EvKind::LineWrite(line));
        }
    }

    fn last_write_of(&self, line: u64) -> u64 {
        self.last_write.get(&line).copied().unwrap_or(0)
    }

    // ---- main loop ---------------------------------------------------------

    /// Runs the simulation and returns the statistics together with the
    /// workload (so callers can verify shadow-state invariants).
    pub fn run_returning(mut self) -> (SimStats, W) {
        let stats = self.run_inner();
        (stats, self.workload)
    }

    /// Runs the simulation to completion and returns the statistics.
    pub fn run(mut self) -> SimStats {
        self.run_inner()
    }

    fn run_inner(&mut self) -> SimStats {
        for t in 0..self.threads {
            self.push(1 + 13 * t as u64, EvKind::Ready(t as u32));
        }

        while let Some(Reverse((time, _, kind))) = self.events.pop() {
            debug_assert!(time >= self.now, "event time went backwards");
            self.now = time;
            match kind {
                EvKind::LineWrite(line) => self.write_line_at(line, time),
                EvKind::Ready(t) => self.on_ready(t as usize),
                EvKind::AttemptEnd(t) => self.on_attempt_end(t as usize),
                EvKind::SwAttemptEnd(t) => self.on_sw_attempt_end(t as usize),
                EvKind::SwCommitDone(t) => self.on_sw_commit_done(t as usize),
            }
            if self.ts.iter().all(|t| t.done) {
                break;
            }
        }

        self.stats.sim_cycles = match self.mode {
            RunMode::FixedDuration(d) => d,
            RunMode::FixedWork => self.last_completion,
        };
        std::mem::take(&mut self.stats)
    }

    // ---- decisions -----------------------------------------------------------

    fn on_ready(&mut self, t: usize) {
        if self.ts[t].done {
            return;
        }
        if let RunMode::FixedDuration(d) = self.mode {
            if self.now >= d {
                self.ts[t].done = true;
                return;
            }
        }
        if let RunMode::FixedWork = self.mode {
            if !self.ts[t].op_active && self.workload.remaining(t) == Some(0) {
                self.ts[t].done = true;
                return;
            }
        }

        let fresh = !self.ts[t].op_active;
        let mut spec = if fresh {
            let th = &mut self.ts[t];
            th.op_active = true;
            (th.fast_used, th.slow_used) = (0, 0);
            self.workload.next_op(t)
        } else {
            self.workload.regenerate(t)
        };
        if self.time_scale != 1.0 {
            spec.setup_cycles = (spec.setup_cycles as f64 * self.time_scale) as u64;
            spec.cs_compute = (spec.cs_compute as f64 * self.time_scale) as u64;
        }
        let start = if fresh {
            self.now + spec.setup_cycles
        } else {
            self.now
        };

        match self.method {
            SimMethod::LockOnly { .. } => self.schedule_lock_execution(t, start, &spec),
            SimMethod::Tle
            | SimMethod::RwTle
            | SimMethod::FgTle { .. }
            | SimMethod::AdaptiveFgTle { .. } => self.elision_decision(t, start, spec),
            SimMethod::Norec => self.launch(t, start, &spec, self.sw_plan()),
            // RHNOrec has no lock to find held: hardware while the budget
            // lasts (a hostile operation skips it), then software.
            SimMethod::RhNorec => match self.next_step(t, false) {
                Step::Fast if !spec.htm_hostile => self.launch(t, start, &spec, self.rh_plan()),
                _ => self.enter_sw_phase(t, start, &spec),
            },
        }
        self.locks.iter_mut().for_each(|l| l.prune(self.now));
    }

    /// Figure 1's choice of rung for thread `t`'s current operation: the
    /// runtime's own function, under the paper's policy.
    fn next_step(&self, t: usize, lock_held: bool) -> Step {
        let th = &self.ts[t];
        self.retry
            .next_step(self.method.refined(), lock_held, th.fast_used, th.slow_used)
    }

    fn elision_decision(&mut self, t: usize, start: u64, spec: OpSpec) {
        let c = self.cost;
        let free_at = self.locks[0].free_at;
        match self.next_step(t, self.locks[0].held(start)) {
            Step::Fallback => self.schedule_lock_execution(t, start, &spec),
            // Standard TLE: wait for the release, then re-decide one
            // cycle after it.
            Step::AwaitRelease => self.await_release(t, free_at + 1),
            Step::Fast if spec.htm_hostile => {
                // The HTM-unfriendly instruction sits at the start of the
                // critical section (Figure 12 evaluated both placements
                // with similar results, §6.3): the attempt dies at once.
                let end = start + c.htm_begin + c.access + c.abort_penalty;
                self.abort(
                    t,
                    PathKind::FastHtm,
                    AbortCode::Unsupported,
                    start,
                    end,
                    end,
                );
            }
            Step::Fast => self.launch(t, start, &spec, self.fast_plan()),
            Step::Slow => match self.slow_plan(start, &spec) {
                Ok(plan) => self.launch(t, start, &spec, plan),
                // Decided before launching: one cheap abort.
                Err((code, end)) => self.abort(t, PathKind::SlowHtm, code, start, end, end),
            },
        }
    }

    // ---- plans: a path as a value ------------------------------------------------

    /// What every hardware path starts from: begin, plain accesses,
    /// commit, the data alone as footprint.
    fn hw_plan(&self, path: PathKind, subscriptions: [Option<(u64, Since, bool)>; 2]) -> Plan {
        Plan {
            path,
            lead_in: self.cost.htm_begin,
            per_access: self.cost.access,
            commit: self.cost.htm_commit,
            footprint: 1,
            subscriptions,
            orecs_since: None,
            rh_hw: false,
            lazy_lock: self.retry.lazy_subscription,
        }
    }

    /// The uninstrumented fast path: subscribe to the lock (early, or
    /// lazily just before commit).
    fn fast_plan(&self) -> Plan {
        let since = if self.retry.lazy_subscription {
            Since::Commit
        } else {
            Since::Start
        };
        self.hw_plan(
            PathKind::FastHtm,
            [Some((self.lock_line(0), since, false)), None],
        )
    }

    /// RHNOrec's hardware path: the fast path without a lock, plus the
    /// commit instrumentation — the sw-count read and (conditionally) the
    /// clock access live in the reduced window before commit. The clock
    /// bump is a *write* there, visible to the eager pairwise scan so
    /// concurrent bumps collide (the contention §6.2.2 blames for
    /// RHNOrec's collapse).
    fn rh_plan(&self) -> Plan {
        let sw_count = (self.sw_count_line(), Since::Commit, false);
        let clock = (self.sw_running > 0).then(|| (self.clock_line(), Since::Commit, true));
        Plan {
            rh_hw: true,
            lazy_lock: false, // RHNOrec has no lock to subscribe to
            ..self.hw_plan(PathKind::FastHtm, [Some(sw_count), clock])
        }
    }

    /// A software transaction's read phase: value-logged accesses, no
    /// hardware (no capacity, no injected aborts, no eager conflicts).
    fn sw_plan(&self) -> Plan {
        Plan {
            path: PathKind::Stm,
            lead_in: 0,
            per_access: self.cost.sw_access,
            commit: 0,
            footprint: 0,
            subscriptions: [None, None],
            orecs_since: None,
            rh_hw: false,
            lazy_lock: false,
        }
    }

    /// The instrumented slow path beside a lock holder (RW-TLE's or
    /// FG-TLE's), or — when the attempt is hopeless from the start — the
    /// abort it is charged instead, with the time that abort ends.
    fn slow_plan(&mut self, start: u64, spec: &OpSpec) -> Result<Plan, (AbortCode, u64)> {
        let c = self.cost;
        let lock = &self.locks[0];
        let cheap_abort = |code| Err((AbortCode::Explicit(code), start + c.abort_penalty));
        let hostile = Err((AbortCode::Unsupported, start + c.abort_penalty));

        if self.method == SimMethod::RwTle {
            let covering = lock.covering(start);
            let flag_raised = covering
                .and_then(|cs| cs.first_write)
                .is_some_and(|fw| fw <= start);
            if flag_raised {
                return cheap_abort(abort_codes::WRITE_FLAG_SET);
            }
            if spec.htm_hostile {
                return hostile;
            }
            if let Some(fw) = spec.first_write() {
                // Figure 2: the write barrier aborts the transaction at
                // the first write.
                let abort_at = start + c.htm_begin + (fw as u64 + 1) * c.access + c.abort_penalty;
                return Err((AbortCode::Explicit(abort_codes::RW_SLOW_WRITE), abort_at));
            }
            // Read-only: subscribe to the write flag (from the covering CS
            // start: a flag raised by that holder at any time dooms us)
            // and to the lock (eager return on release, §6.3). No
            // capacity test on this path.
            let cs_start = covering.map_or(start, |cs| cs.start);
            let flag = (self.flag_line(), Since::At(cs_start), false);
            let lock = (self.lock_line(0), Since::Start, false);
            return Ok(Plan {
                lead_in: c.htm_begin + c.access,
                footprint: 0,
                ..self.hw_plan(PathKind::SlowHtm, [Some(flag), Some(lock)])
            });
        }

        if spec.htm_hostile {
            return hostile;
        }
        if self.is_adaptive() && !self.adapt.enabled {
            // The adaptive policy collapsed to plain TLE: slow attempts
            // self-abort on the disabled flag.
            return cheap_abort(abort_codes::FG_DISABLED);
        }
        let cs_start = lock.covering(start).map_or(start, |cs| cs.start);
        // Eager ownership check: an orec stamped at/after the covering CS
        // start and before `start` is owned now — the paper's explicit
        // `htm_abort()` in the barrier.
        let owned_since = |orec: u64| self.last_write_of(orec) >= cs_start;
        let owned = spec.trace.iter().find_map(|a| {
            let w = self.w_orec_line(a.line);
            if owned_since(w) {
                return Some(w);
            }
            let r = a.write.then(|| self.r_orec_line(a.line));
            r.filter(|&r| owned_since(r))
        });
        if let Some(slot) = owned.and_then(|line| self.orec_slot_of_line(line)) {
            // Attribute-then-abort, like the runtime barrier: the heatmap
            // names the slot whose ownership killed this attempt.
            self.note_orec_conflict(slot);
            return cheap_abort(abort_codes::OREC_CONFLICT);
        }
        // Read the active orec count inside the transaction (§4.1): a
        // resize by the holder dooms this attempt.
        let active_size = self
            .is_adaptive()
            .then(|| (self.active_size_line(), Since::Start, false));
        Ok(Plan {
            per_access: c.access + c.slow_barrier_extra,
            // Orec reads roughly double the tracked read footprint.
            footprint: 2,
            // Watched from the CS start (local_seq snapshot semantics):
            // any stamp by the current-or-later holder aborts us; stamps
            // by earlier holders do not.
            orecs_since: Some(cs_start),
            ..self.hw_plan(PathKind::SlowHtm, [active_size, None])
        })
    }

    // ---- launch ------------------------------------------------------------------

    /// Puts one attempt of `spec` on `plan`'s path in flight from `start`:
    /// builds its watches, draws its forced cause, indexes it for eager
    /// conflicts and schedules its end.
    fn launch(&mut self, t: usize, start: u64, spec: &OpSpec, plan: Plan) {
        let c = self.cost;
        let hardware = plan.path != PathKind::Stm;
        let accesses = spec.trace.len();
        let first_access = start + plan.lead_in;
        let t1 = first_access + accesses as u64 * plan.per_access + spec.cs_compute + plan.commit;

        // The generator is stepped only by a hardware attempt that passed
        // its capacity test (if its path has one).
        let over_capacity = plan.footprint > 0 && {
            let (dr, dw) = spec.distinct_rw();
            plan.footprint * (dr + dw) > c.htm_read_capacity || dw > c.htm_write_capacity
        };
        let forced = if over_capacity {
            Some(AbortCode::Capacity)
        } else if hardware && self.spurious_abort() {
            Some(AbortCode::Spurious)
        } else {
            None
        };

        let per_access_watches = if plan.orecs_since.is_some() { 2 } else { 1 };
        let mut watches = Vec::with_capacity(2 + per_access_watches * accesses);
        for (line, since, write) in plan.subscriptions.into_iter().flatten() {
            let from = match since {
                Since::Start => start,
                Since::Commit => t1 - plan.commit,
                Since::At(time) => time,
            };
            watches.push(Watch { line, from, write });
        }
        let mut commit_writes = Vec::new();
        for (i, a) in spec.trace.iter().enumerate() {
            let line = self.data_line(a.line);
            watches.push(Watch {
                line,
                from: first_access + i as u64 * plan.per_access,
                write: a.write,
            });
            if let Some(from) = plan.orecs_since {
                let orec = |line| Watch {
                    line,
                    from,
                    write: false,
                };
                watches.push(orec(self.w_orec_line(a.line)));
                if a.write {
                    watches.push(orec(self.r_orec_line(a.line)));
                }
            }
            if a.write {
                commit_writes.push(line);
            }
        }

        let loses_eager_conflict = hardware && self.eager_conflict_scan(t, &watches);
        self.ts[t].pending = Some(Attempt {
            t0: start,
            path: plan.path,
            watches,
            commit_writes,
            forced: forced.or(loses_eager_conflict.then_some(AbortCode::Conflict)),
            rh_hw: plan.rh_hw,
            lazy_lock: plan.lazy_lock,
        });
        let end = if hardware {
            EvKind::AttemptEnd
        } else {
            EvKind::SwAttemptEnd
        };
        self.push(t1, end(t as u32));
    }

    /// Eager pairwise conflict between in-flight *hardware* attempts,
    /// modelling cache-coherence conflict detection: when two concurrent
    /// attempts touch the same line and at least one writes it, the one
    /// that reached the line *earlier* is invalidated by the later access
    /// (requester wins, as on Intel TSX). Registers the new attempt's
    /// `watches` in the per-line watcher index and returns `true` when
    /// the new attempt itself is doomed; doomed victims are `forced` to
    /// a conflict (unless already forced) and fail at their own end event.
    fn eager_conflict_scan(&mut self, me: usize, watches: &[Watch]) -> bool {
        let mut i_die = false;
        let mut victims: Vec<u32> = Vec::new();
        for w in watches {
            let list = self.watchers.entry(w.line).or_default();
            for &(other, ofrom, owrite) in list.iter() {
                if other as usize == me || !(w.write || owrite) {
                    continue;
                }
                if w.from >= ofrom {
                    victims.push(other);
                } else {
                    i_die = true;
                }
            }
            list.push((me as u32, w.from, w.write));
        }
        for v in victims {
            if let Some(oa) = &mut self.ts[v as usize].pending {
                oa.forced.get_or_insert(AbortCode::Conflict);
            }
        }
        i_die
    }

    /// Removes a finished attempt's entries from the watcher index.
    fn unindex_attempt(&mut self, me: usize, attempt: &Attempt) {
        for w in &attempt.watches {
            if let Some(list) = self.watchers.get_mut(&w.line) {
                list.retain(|e| e.0 as usize != me);
                if list.is_empty() {
                    self.watchers.remove(&w.line);
                }
            }
        }
    }

    // ---- attempt resolution -------------------------------------------------

    /// The one place a resolution reaches the books: an abort bumps its
    /// `SimStats` class counter, software time is accumulated, and the
    /// span `[t0, t1]` (simulator cycles) goes to the recorder when one is
    /// installed — so the two cannot disagree, on any path.
    fn book(&mut self, t: usize, path: PathKind, abort: Option<AbortCode>, t0: u64, t1: u64) {
        if path == PathKind::Stm {
            self.stats.cycles_in_sw += t1 - t0;
            if abort.is_some() {
                self.stats.sw_aborts += 1;
            }
        } else if let Some(code) = abort {
            let s = &mut self.stats;
            *match code {
                AbortCode::Conflict => &mut s.aborts_conflict,
                AbortCode::Capacity => &mut s.aborts_capacity,
                AbortCode::Spurious => &mut s.aborts_uarch,
                AbortCode::Unsupported => &mut s.aborts_hostile,
                AbortCode::Explicit(abort_codes::LAZY_LOCK_HELD) => &mut s.aborts_lazy,
                AbortCode::Explicit(_) => &mut s.aborts_eager_owned,
                AbortCode::Nested => unreachable!("the engine produces no {code:?} abort"),
            } += 1;
        }
        if let Some(rec) = &self.recorder {
            let ev = AttemptEvent {
                path,
                abort,
                attempt: self.ts[t].fast_used.min(u8::MAX as u32) as u8,
                latency: t1.saturating_sub(t0),
            };
            rec.record(Writer::keyed(t as u64), t0, RecordKind::Attempt(ev));
        }
    }

    /// One failed attempt over `[t0, t1]`: booked, charged to its path's
    /// budget, and the thread rescheduled — at `retry_at`, or at the
    /// lock's release if that is later and the abort is one of
    /// [`awaits_release`]'s.
    fn abort(
        &mut self,
        t: usize,
        path: PathKind,
        code: AbortCode,
        t0: u64,
        t1: u64,
        retry_at: u64,
    ) {
        self.book(t, path, Some(code), t0, t1);
        match path {
            PathKind::FastHtm => self.ts[t].fast_used += 1,
            PathKind::SlowHtm => {
                self.ts[t].slow_used += 1;
                self.slow_aborts += 1;
            }
            PathKind::Stm | PathKind::Lock => {}
        }
        if awaits_release(path, code) {
            self.await_release(t, retry_at);
        } else {
            self.push(retry_at, EvKind::Ready(t as u32));
        }
    }

    /// Thread `t` spins on the held lock and decides again at its
    /// release, but not before `earliest`.
    fn await_release(&mut self, t: usize, earliest: u64) {
        let lock = &mut self.locks[0];
        lock.waiters += 1;
        let wake = lock.free_at.max(earliest);
        self.push(wake, EvKind::Ready(t as u32));
    }

    fn on_attempt_end(&mut self, t: usize) {
        let attempt = self.ts[t].pending.take().expect("attempt in flight");
        self.unindex_attempt(t, &attempt);
        let t1 = self.now;

        let conflict_line = if attempt.forced.is_some() {
            None
        } else {
            attempt
                .watches
                .iter()
                .find(|w| self.last_write_of(w.line) >= w.from)
                .map(|w| w.line)
        };
        // RHNOrec hardware commit: clock obligations. An SGL/reduced
        // write-back in progress, or a racing bump in our commit window,
        // aborts us; otherwise we bump the clock ourselves.
        let rh_clock = attempt.rh_hw && self.sw_running > 0;
        let clock_busy = || {
            let commit_from = t1.saturating_sub(self.cost.htm_commit);
            self.clock_free_at > t1 || self.last_write_of(self.clock_line()) >= commit_from
        };
        let failure = if attempt.forced.is_some() {
            attempt.forced
        } else if conflict_line.is_some() {
            Some(AbortCode::Conflict)
        } else if attempt.lazy_lock && self.locks[0].held(t1) {
            // Lazy subscription: the lock must be free at commit time (§5).
            Some(AbortCode::Explicit(abort_codes::LAZY_LOCK_HELD))
        } else if rh_clock && clock_busy() {
            Some(AbortCode::Conflict)
        } else {
            None
        };

        if let Some(code) = failure {
            if attempt.path == PathKind::SlowHtm {
                // A slow-path validation failure on an orec line means the
                // holder stamped it during our window: attribute the abort
                // to that slot, like the runtime's subscription aborts.
                if let Some(slot) = conflict_line.and_then(|l| self.orec_slot_of_line(l)) {
                    self.note_orec_conflict(slot);
                }
            }
            let retry_at = t1 + self.cost.abort_penalty;
            self.abort(t, attempt.path, code, attempt.t0, t1, retry_at);
            return;
        }

        // Commit.
        for &line in &attempt.commit_writes {
            self.write_line_at(line, t1);
        }
        if rh_clock {
            self.write_line_at(self.clock_line(), t1);
            self.clock_bumps.push(t1);
            self.stats.htm_slow_commits += 1;
        } else if attempt.path == PathKind::FastHtm {
            self.stats.fast_commits += 1;
        } else {
            self.stats.slow_commits += 1;
        }
        self.book(t, attempt.path, None, attempt.t0, t1);
        self.complete_op(t, t1);
    }

    fn complete_op(&mut self, t: usize, at: u64) {
        if self.ts[t].in_sw_phase {
            self.ts[t].in_sw_phase = false;
            self.sw_running -= 1;
            self.write_line_at(self.sw_count_line(), at);
        }
        self.workload.commit(t);
        self.ts[t].op_active = false;
        self.stats.ops += 1;
        self.last_completion = self.last_completion.max(at);
        self.push(at + 1, EvKind::Ready(t as u32));
    }

    /// Number of global-clock bumps in `(after, upto]`.
    fn bumps_between(&self, after: u64, upto: u64) -> u64 {
        let lo = self.clock_bumps.partition_point(|&b| b <= after);
        let hi = self.clock_bumps.partition_point(|&b| b <= upto);
        (hi - lo) as u64
    }

    // ---- pessimistic lock execution ------------------------------------------

    fn schedule_lock_execution(&mut self, t: usize, start: u64, spec: &OpSpec) {
        let c = self.cost;
        let lock_id = if self.locks.len() > 1 {
            spec.lock_id % self.locks.len()
        } else {
            0
        };
        let contended = self.locks[lock_id].free_at > start;
        let s = self.locks[lock_id].free_at.max(start)
            + c.lock_acquire
            + if contended { c.lock_contended_extra } else { 0 };
        // Coherence degradation: spinners slow every store of the holder.
        let waiters = self.locks[lock_id].waiters;
        let slow_num = 100 + 6 * waiters.min(64) as u64;
        self.locks[lock_id].waiters = waiters / 2;

        // Adaptive FG-TLE: resizes/mode flips happen right here, while
        // holding the lock (§4.2.1); the store to the active-size line
        // dooms in-flight slow attempts that subscribed to it.
        if self.is_adaptive() {
            let slow_totals = (self.stats.slow_commits, self.slow_aborts);
            if let Some(mut d) = self.adapt.on_lock_acquired(|| slow_totals) {
                self.write_line_at(self.active_size_line(), s);
                if d.action == AdaptAction::Grow {
                    // Cite the hottest heatmap slot, like the runtime.
                    d.hot_slot = self
                        .stats
                        .orec_heatmap
                        .hottest(1)
                        .first()
                        .map(|&(slot, n)| (slot as u64, n));
                }
                if let Some(rec) = &self.recorder {
                    // Cycle-stamped so the decision instant lines up with
                    // the surrounding spans in the exported trace.
                    rec.record_decision_at(d, s);
                }
            }
        }
        let fg_instrumented = match self.method {
            SimMethod::FgTle { .. } => true,
            SimMethod::AdaptiveFgTle { .. } => self.adapt.enabled,
            _ => false,
        };

        // Per-policy instrumented cost of the critical section, computing
        // stamp times as we walk the trace.
        let mut time = s;
        let mut first_write: Option<u64> = None;
        let mut stamps: Vec<(u64, u64)> = Vec::new(); // (line, at)
        let mut data_writes: Vec<(u64, u64)> = Vec::new();
        let orecs = self.active_orecs_now();
        // §4.2 keeps *separate* uniq_r_orecs / uniq_w_orecs counters: the
        // read barrier goes trivial once all orecs are read-stamped even
        // if writes are still stamping (and vice versa). FG-TLE(1) reaches
        // that point after its first read — the reason it beats FG-TLE(4)
        // and FG-TLE(16) throughout the paper's evaluation.
        let mut stamped_r: HashMap<u64, ()> = HashMap::new();
        let mut stamped_w: HashMap<u64, ()> = HashMap::new();

        for a in &spec.trace {
            let extra = match self.method {
                SimMethod::FgTle { .. } | SimMethod::AdaptiveFgTle { .. } if fg_instrumented => {
                    let side = if a.write { &stamped_w } else { &stamped_r };
                    if !self.uniq_shortcut || (side.len() as u64) < orecs {
                        c.lock_barrier_extra
                    } else {
                        0
                    }
                }
                SimMethod::RwTle if a.write && first_write.is_none() => c.lock_barrier_extra,
                _ => 0,
            };
            time += (c.access + extra) * slow_num / 100;
            if fg_instrumented {
                let (oline, side) = if a.write {
                    (self.w_orec_line(a.line), &mut stamped_w)
                } else {
                    (self.r_orec_line(a.line), &mut stamped_r)
                };
                if side.insert(oline, ()).is_none() {
                    stamps.push((oline, time));
                }
            }
            if a.write {
                if first_write.is_none() {
                    first_write = Some(time);
                }
                data_writes.push((self.data_line(a.line), time));
            }
        }
        let e = time + spec.cs_compute * slow_num / 100;

        // Publish the stores as timed line writes.
        let lock_line = self.lock_line(lock_id);
        self.write_line_at(lock_line, s); // acquisition store (dooms subscribers)
        for (line, at) in stamps {
            self.write_line_at(line, at);
        }
        if matches!(self.method, SimMethod::RwTle) {
            if let Some(fw) = first_write {
                self.write_line_at(self.flag_line(), fw);
            }
        }
        for (line, at) in data_writes {
            self.write_line_at(line, at);
        }
        self.write_line_at(lock_line, e); // release store

        let lk = &mut self.locks[lock_id];
        lk.free_at = e + c.lock_release;
        lk.cs.push_back(CsRecord {
            start: s,
            end: e,
            first_write,
        });

        self.stats.lock_commits += 1;
        self.stats.cycles_locked += e - s;
        // The holding window [s, e], as the runtime records it — not
        // acquire-to-release: it is the span slow-path commits visibly
        // overlap with, and the recorder's lock-hold sample.
        self.book(t, PathKind::Lock, None, s, e);
        if let Some(rec) = &self.recorder {
            if matches!(self.method, SimMethod::RwTle) {
                if let Some(fw) = first_write {
                    rec.record(Writer::keyed(t as u64), fw, RecordKind::WriteFlagSet);
                }
            }
            if fg_instrumented {
                // Pre-release epoch bump (§4.2) at the CS end.
                rec.record(Writer::keyed(t as u64), e, RecordKind::EpochBump(0));
            }
        }
        self.complete_op(t, e + c.lock_release);
    }

    // ---- software transactions (NOrec / RHNOrec software phase) ---------------

    fn enter_sw_phase(&mut self, t: usize, start: u64, spec: &OpSpec) {
        if !self.ts[t].in_sw_phase {
            self.ts[t].in_sw_phase = true;
            self.sw_running += 1;
            self.write_line_at(self.sw_count_line(), start);
        }
        self.launch(t, start, spec, self.sw_plan());
    }

    /// End of a software transaction's read phase: pay for the value-based
    /// validations the clock traffic forced, check the read set, then
    /// commit (read-only: immediately; writer: serialized on the clock).
    fn on_sw_attempt_end(&mut self, t: usize) {
        let attempt = self.ts[t].pending.take().expect("sw attempt in flight");
        let c = self.cost;
        let t1 = self.now;

        // Every clock bump inside the window forced one value-based
        // validation pass over the read set (Figure 10's quantity).
        let v = self.bumps_between(attempt.t0, t1);
        self.stats.validations += v;
        let reads = attempt.watches.len() as u64;
        let t1v = t1 + v * reads * c.sw_validate_per_entry;

        let conflict = attempt
            .watches
            .iter()
            .any(|w| self.last_write_of(w.line) >= w.from);
        if conflict {
            let retry_at = t1v + c.abort_penalty / 2;
            self.abort(
                t,
                PathKind::Stm,
                AbortCode::Conflict,
                attempt.t0,
                t1v,
                retry_at,
            );
            return;
        }

        if attempt.commit_writes.is_empty() {
            // Read-only: serialized at the last validation point.
            self.stats.stm_fast_commits += 1;
            self.book(t, PathKind::Stm, None, attempt.t0, t1v);
            self.complete_op(t, t1v);
            return;
        }

        // Writer: the commit (reduced hardware transaction or, when it has
        // to queue behind another committer, the single-global-lock
        // fallback) serializes on the clock.
        let mut wlines = attempt.commit_writes;
        wlines.sort_unstable();
        wlines.dedup();
        let writeback = c.sw_commit + wlines.len() as u64 * c.sw_writeback_per_line;
        let cs = self.clock_free_at.max(t1v);
        let queued = cs > t1v;
        let end = cs + writeback;
        self.clock_free_at = end;
        self.clock_bumps.push(end);
        debug_assert!(
            self.clock_bumps.windows(2).all(|w| w[0] <= w[1]),
            "clock bumps stay sorted"
        );
        let cl = self.clock_line();
        self.write_line_at(cl, end);
        for line in wlines {
            self.write_line_at(line, end);
        }
        self.ts[t].sw_commit = Some(SwCommit {
            t0: attempt.t0,
            queued,
        });
        self.push(end, EvKind::SwCommitDone(t as u32));
    }

    fn on_sw_commit_done(&mut self, t: usize) {
        let commit = self.ts[t].sw_commit.take().expect("sw commit in flight");
        if commit.queued {
            self.stats.stm_slow_commits += 1;
        } else {
            self.stats.stm_fast_commits += 1;
        }
        self.book(t, PathKind::Stm, None, commit.t0, self.now);
        self.complete_op(t, self.now);
    }
}

#[cfg(test)]
mod pin;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Access;

    /// Minimal workload: every op reads `reads` lines then writes `writes`
    /// lines, all distinct per thread unless `shared` (then everyone hits
    /// the same lines).
    struct Synthetic {
        reads: usize,
        writes: usize,
        shared: bool,
        remaining: Vec<u64>,
        committed: u64,
    }

    impl Synthetic {
        fn new(threads: usize, reads: usize, writes: usize, shared: bool, per_thread: u64) -> Self {
            Synthetic {
                reads,
                writes,
                shared,
                remaining: vec![per_thread; threads],
                committed: 0,
            }
        }
    }

    impl Workload for Synthetic {
        fn next_op(&mut self, thread: usize) -> OpSpec {
            let base = if self.shared {
                0
            } else {
                1_000 * thread as u64
            };
            let mut trace = Vec::new();
            for i in 0..self.reads {
                trace.push(Access {
                    line: base + i as u64,
                    write: false,
                });
            }
            for i in 0..self.writes {
                trace.push(Access {
                    line: base + 500 + i as u64,
                    write: true,
                });
            }
            OpSpec {
                trace,
                setup_cycles: 30,
                ..Default::default()
            }
        }

        fn next_op_again(&mut self, thread: usize) -> OpSpec {
            self.next_op(thread)
        }

        fn commit(&mut self, thread: usize) {
            self.committed += 1;
            self.remaining[thread] = self.remaining[thread].saturating_sub(1);
        }

        fn remaining(&self, thread: usize) -> Option<u64> {
            Some(self.remaining[thread])
        }
    }

    fn run_fixed(method: SimMethod, threads: usize, shared: bool) -> SimStats {
        let w = Synthetic::new(threads, 8, 2, shared, 200);
        Engine::new(method, threads, CostModel::default(), RunMode::FixedWork, w).run()
    }

    #[test]
    fn lock_only_completes_all_ops() {
        let s = run_fixed(SimMethod::LockOnly { locks: 1 }, 4, false);
        assert_eq!(s.ops, 800);
        assert_eq!(s.lock_commits, 800);
        assert_eq!(s.fast_commits, 0);
        assert!(s.cycles_locked > 0);
        assert!(s.sim_cycles > 0);
    }

    #[test]
    fn tle_disjoint_ops_mostly_commit_fast() {
        let s = run_fixed(SimMethod::Tle, 4, false);
        assert_eq!(s.ops, 800);
        assert!(s.fast_commits >= 790, "disjoint ops speculate: {s:?}");
        assert_eq!(s.slow_commits, 0, "TLE has no slow path");
    }

    #[test]
    fn tle_scales_on_disjoint_work() {
        let s1 = run_fixed(SimMethod::Tle, 1, false);
        let s4 = run_fixed(SimMethod::Tle, 4, false);
        // Same per-thread work: 4 threads do 4x ops in barely more time.
        assert!(
            (s4.sim_cycles as f64) < (s1.sim_cycles as f64) * 1.5,
            "1thr: {} cycles, 4thr: {} cycles",
            s1.sim_cycles,
            s4.sim_cycles
        );
    }

    #[test]
    fn lock_only_serializes() {
        let s1 = run_fixed(SimMethod::LockOnly { locks: 1 }, 1, false);
        let s4 = run_fixed(SimMethod::LockOnly { locks: 1 }, 4, false);
        assert!(
            s4.sim_cycles > s1.sim_cycles * 3,
            "a single lock must serialize: {} vs {}",
            s4.sim_cycles,
            s1.sim_cycles
        );
    }

    #[test]
    fn contended_tle_aborts_but_completes() {
        let s = run_fixed(SimMethod::Tle, 4, true);
        assert_eq!(s.ops, 800);
        assert!(s.aborts() > 0, "shared writes must conflict: {s:?}");
        // Conflicting attempts serialize through abort-retry; whether the
        // 5-attempt budget ever exhausts here is timing-dependent, but the
        // run must cost far more than the uncontended one.
        let disjoint = run_fixed(SimMethod::Tle, 4, false);
        assert!(
            s.sim_cycles > disjoint.sim_cycles * 2,
            "contention must cost: shared={} disjoint={}",
            s.sim_cycles,
            disjoint.sim_cycles
        );
    }

    #[test]
    fn hostile_ops_exhaust_budget_and_lock() {
        struct Hostile {
            remaining: Vec<u64>,
        }
        impl Workload for Hostile {
            fn next_op(&mut self, thread: usize) -> OpSpec {
                OpSpec {
                    trace: vec![Access {
                        line: thread as u64,
                        write: true,
                    }],
                    setup_cycles: 10,
                    htm_hostile: true,
                    ..Default::default()
                }
            }
            fn next_op_again(&mut self, thread: usize) -> OpSpec {
                self.next_op(thread)
            }
            fn commit(&mut self, thread: usize) {
                self.remaining[thread] -= 1;
            }
            fn remaining(&self, thread: usize) -> Option<u64> {
                Some(self.remaining[thread])
            }
        }
        let s = Engine::new(
            SimMethod::Tle,
            2,
            CostModel::default(),
            RunMode::FixedWork,
            Hostile {
                remaining: vec![50; 2],
            },
        )
        .run();
        assert_eq!(s.ops, 100);
        assert_eq!(s.lock_commits, 100, "every op must fall back: {s:?}");
        assert_eq!(s.aborts(), 500, "5 attempts burned per op: {s:?}");
    }

    /// The recorder's books equal `SimStats`' on every method, software
    /// paths included: every resolution passes through the one `book`.
    #[test]
    fn recorder_sees_every_resolution() {
        use rtle_obs::ObsConfig;
        let mut methods = SimMethod::figure5_set();
        methods.push(SimMethod::AdaptiveFgTle {
            initial: 16,
            max_orecs: 1024,
        });
        for method in methods {
            let rec = Arc::new(Recorder::new(ObsConfig {
                latency_unit: "cycles",
                ..ObsConfig::default()
            }));
            let w = Synthetic::new(4, 8, 2, true, 200);
            let s = Engine::new(method, 4, CostModel::default(), RunMode::FixedWork, w)
                .with_recorder(Arc::clone(&rec))
                .run();
            let counts = rec.counts();
            let label = method.label();
            assert_eq!(s.ops, 800, "{label}");
            assert_eq!(counts.total_commits(), s.ops, "{label}: commits recorded");
            assert_eq!(
                counts.total_aborts(),
                s.aborts() + s.sw_aborts,
                "{label}: every simulated abort must be recorded"
            );
            let cs = rec.cs_latency();
            assert_eq!(cs.count, s.ops, "{label}");
            assert!(cs.percentile(0.5) > 0, "{label}: cycle latencies");
            assert_eq!(
                counts.commits,
                [
                    s.fast_commits + s.htm_slow_commits,
                    s.slow_commits,
                    s.stm_fast_commits + s.stm_slow_commits,
                    s.lock_commits,
                ],
                "{label}: fast, slow, stm, lock"
            );
        }
    }

    #[test]
    fn recorder_traces_adaptive_decisions_in_sim() {
        use rtle_obs::ObsConfig;
        let rec = Arc::new(Recorder::new(ObsConfig {
            latency_unit: "cycles",
            ..ObsConfig::default()
        }));
        // Single-threaded all-hostile ops: every op exhausts its HTM budget
        // and locks, the slow path stays idle (no concurrent thread ever
        // attempts it), and the adaptive holder shrinks its orec range and
        // finally collapses to plain TLE.
        struct Hostile {
            remaining: Vec<u64>,
        }
        impl Workload for Hostile {
            fn next_op(&mut self, thread: usize) -> OpSpec {
                OpSpec {
                    trace: vec![Access {
                        line: thread as u64,
                        write: true,
                    }],
                    setup_cycles: 10,
                    htm_hostile: true,
                    ..Default::default()
                }
            }
            fn next_op_again(&mut self, thread: usize) -> OpSpec {
                self.next_op(thread)
            }
            fn commit(&mut self, thread: usize) {
                self.remaining[thread] -= 1;
            }
            fn remaining(&self, thread: usize) -> Option<u64> {
                Some(self.remaining[thread])
            }
        }
        let s = Engine::new(
            SimMethod::AdaptiveFgTle {
                initial: 16,
                max_orecs: 1024,
            },
            1,
            CostModel::default(),
            RunMode::FixedWork,
            Hostile {
                remaining: vec![300],
            },
        )
        .with_recorder(Arc::clone(&rec))
        .run();
        assert_eq!(s.ops, 300);
        let decisions = rec.decisions();
        assert!(!decisions.is_empty(), "adaptation must be traced");
        let labels: Vec<&str> = decisions.iter().map(|d| d.action.label()).collect();
        assert!(labels.contains(&"shrink"), "{labels:?}");
        assert!(labels.contains(&"collapse"), "{labels:?}");
        assert_eq!(decisions[0].orecs_before, 16);
        assert_eq!(decisions[0].orecs_after, 8);
    }

    #[test]
    fn fg_tle_slow_path_commits_under_lock() {
        // Shared-read, disjoint-write workload with frequent lock holders.
        struct Mix {
            remaining: Vec<u64>,
        }
        impl Workload for Mix {
            fn next_op(&mut self, thread: usize) -> OpSpec {
                let hostile = thread == 0; // thread 0 always locks
                let base = 1_000 * thread as u64;
                OpSpec {
                    trace: vec![
                        Access {
                            line: base,
                            write: false,
                        },
                        Access {
                            line: base + 1,
                            write: true,
                        },
                    ],
                    setup_cycles: 20,
                    htm_hostile: hostile,
                    ..Default::default()
                }
            }
            fn next_op_again(&mut self, thread: usize) -> OpSpec {
                self.next_op(thread)
            }
            fn commit(&mut self, thread: usize) {
                self.remaining[thread] -= 1;
            }
            fn remaining(&self, thread: usize) -> Option<u64> {
                Some(self.remaining[thread])
            }
        }
        let s = Engine::new(
            SimMethod::FgTle { orecs: 1024 },
            4,
            CostModel::default(),
            RunMode::FixedWork,
            Mix {
                remaining: vec![200; 4],
            },
        )
        .run();
        assert_eq!(s.ops, 800);
        assert!(
            s.lock_commits >= 200,
            "hostile thread locks every op: {s:?}"
        );
        assert!(
            s.slow_commits > 0,
            "refined TLE must commit on the slow path: {s:?}"
        );
    }

    /// Slot-level conflict attribution mirrors the runtime heatmap: every
    /// attributed abort lands in exactly one slot, and the engine's record
    /// stream carries cycle-stamped lock-holder spans.
    #[test]
    fn fg_heatmap_attributes_slow_aborts_and_traces() {
        use rtle_obs::ObsConfig;
        // Fully shared footprint over 2 orecs: slow-path attempts keep
        // colliding with the holder's stamped orecs.
        struct Shared {
            remaining: Vec<u64>,
        }
        impl Workload for Shared {
            fn next_op(&mut self, thread: usize) -> OpSpec {
                OpSpec {
                    trace: vec![
                        Access {
                            line: 0,
                            write: false,
                        },
                        Access {
                            line: 1,
                            write: true,
                        },
                    ],
                    setup_cycles: 20,
                    htm_hostile: thread == 0, // thread 0 always locks
                    ..Default::default()
                }
            }
            fn next_op_again(&mut self, thread: usize) -> OpSpec {
                self.next_op(thread)
            }
            fn commit(&mut self, thread: usize) {
                self.remaining[thread] -= 1;
            }
            fn remaining(&self, thread: usize) -> Option<u64> {
                Some(self.remaining[thread])
            }
        }
        let rec = Arc::new(Recorder::new(ObsConfig {
            latency_unit: "cycles",
            ..ObsConfig::default()
        }));
        let s = Engine::new(
            SimMethod::FgTle { orecs: 2 },
            4,
            CostModel::default(),
            RunMode::FixedWork,
            Shared {
                remaining: vec![200; 4],
            },
        )
        .with_recorder(Arc::clone(&rec))
        .run();

        assert_eq!(s.ops, 800);
        let heat = &s.orec_heatmap;
        assert_eq!(heat.conflicts.len(), 2, "capacity-length heatmap");
        // Every eager OREC_CONFLICT self-abort is attributed to its slot,
        // and so is a validation abort on an orec line, nothing else.
        let orec_conflict = AbortCode::Explicit(abort_codes::OREC_CONFLICT);
        let eager = rec.counts().explicit[orec_conflict.explicit_bucket().unwrap()];
        assert!(
            eager > 0,
            "shared writes over 2 orecs must self-abort: {s:?}"
        );
        assert!(
            (eager..=eager + s.aborts_conflict).contains(&heat.total_conflicts()),
            "attribution invariant: {s:?}"
        );
        let hot = heat.hottest(8);
        assert!(!hot.is_empty());
        assert!(hot.windows(2).all(|w| w[0].1 >= w[1].1), "descending");

        let records = rec.records();
        let spans = |label| records.iter().filter(|r| r.label() == label).count();
        assert!(spans("lock_held") > 0, "holder spans on the timeline");
        assert!(spans("slow_commit") > 0, "slow-path commits recorded");
        assert!(
            records.windows(2).all(|w| w[0].ts <= w[1].ts),
            "records come back time-ordered"
        );
    }

    /// The lock-path record is the holding window `[s, e]` — the same
    /// number as the hold-time sample and `cycles_locked`, with no
    /// queueing or release cost in it.
    #[test]
    fn lock_path_record_is_the_holding_window() {
        use rtle_obs::ObsConfig;
        let rec = Arc::new(Recorder::new(ObsConfig {
            latency_unit: "cycles",
            ..ObsConfig::default()
        }));
        // Four threads queue on one lock: acquire-to-release latencies
        // grow with the queue, holding windows do not.
        let w = Synthetic::new(4, 8, 2, false, 50);
        let s = Engine::new(
            SimMethod::LockOnly { locks: 1 },
            4,
            CostModel::default(),
            RunMode::FixedWork,
            w,
        )
        .with_recorder(Arc::clone(&rec))
        .run();
        let (cs, hold) = (rec.cs_latency(), rec.lock_hold());
        assert_eq!(hold.count, s.lock_commits);
        assert_eq!(cs, hold, "one record, one meaning");
        assert_eq!(cs.total, s.cycles_locked);
        let held: u64 = rec.records().iter().map(|r| r.dur()).sum();
        assert_eq!(held, s.cycles_locked, "and the spans are the same windows");
    }
}
