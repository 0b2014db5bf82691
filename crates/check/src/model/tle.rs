//! The TLE-family protocol machine: configurations, per-thread phases, and
//! the small-step transition function ([`Machine`] for [`State`]).
//!
//! Fidelity notes (kept deliberately close to `rtle-core`):
//!
//! * A fast attempt with eager subscription reads the lock *inside* the
//!   transaction first (`Phase::FastSub`); if the lock is held it aborts
//!   (the runtime's `LOCK_HELD`), otherwise the subscription stays in the
//!   read set so a later acquisition dooms the transaction.
//! * RW-TLE slow attempts subscribe `write_flag` (never the lock — the lock
//!   is held by definition) and abort if it is raised; slow *writes* abort
//!   (`RW_SLOW_WRITE`). The holder raises the flag before its first write
//!   and lowers it before releasing the lock.
//! * The lock word is FG-TLE's epoch (§4.2), as the runtime's `TatasLock`
//!   word is: acquire and release each add one. FG-TLE slow attempts
//!   snapshot it when they start, then check (and thereby subscribe) the
//!   write orec before each read and both orecs before each write. The
//!   holder stamps the matching orec with the odd word *before* each access
//!   (elided when already stamped this holding — §4.2's duplicate-store
//!   elision); its release frees every orec at once. `owned(orec,
//!   local_seq) = orec >= local_seq`, exactly the runtime's rule.
//! * Threads observe the lock state in a separate probe step
//!   (`Phase::Decide`) before acting on it, so the model contains the
//!   real code's probe/act races.
//! * `Phase::Decide`'s choice of rung is Figure 1 itself: `State::decide`
//!   builds the runtime's `RetryPolicy` from the two budgets and `match`es
//!   on `rtle_core::RetryPolicy::next_step`, as the runtime and the
//!   simulator do. So a thread whose slow budget is spent under a held
//!   lock queues on the **lock** (`max_slow_attempts: Some(_)`, the only
//!   setting under which the DFS terminates).
//!
//! The model indexes orecs as `loc % orecs` instead of the runtime's
//! Thomas-Wang hash: the protocol logic is what is being checked, and a
//! transparent mapping lets configurations pin down aliasing exactly.

use rtle_core::{RetryPolicy, Step};

use super::machine::{validate_programs, AttemptLog, Machine, Op};
use super::oracle::{CommitPath, Committed};

/// Which refinement the lock runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Plain TLE: no speculation while the lock is held.
    Tle,
    /// RW-TLE (§3): read-only speculation under the lock, gated by
    /// `write_flag`.
    RwTle,
    /// FG-TLE (§4): read/write speculation under the lock, gated by
    /// ownership records.
    FgTle {
        /// Number of ownership records (addresses map as `loc % orecs`).
        orecs: u8,
        /// Which value the holder stamps orecs with.
        stamp: Stamp,
    },
}

/// The value an FG-TLE holder stamps its orecs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stamp {
    /// The lock word while held (odd): the runtime's rule.
    Held,
    /// The even word before this acquisition: the seeded off-by-one, whose
    /// stamps a slow attempt begun during the holding reads as free.
    PreAcquireMutant,
}

impl Policy {
    fn has_slow_path(self) -> bool {
        !matches!(self, Policy::Tle)
    }
}

/// How fast-path transactions subscribe to the elided lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subscription {
    /// Subscribe (transactionally read) the lock before the critical
    /// section. The safe textbook scheme.
    Eager,
    /// No subscription during the body; an atomic lock check at commit
    /// (models the instrumented / hardware-assisted safe lazy variant from
    /// the companion paper).
    LazySafe,
    /// No subscription and **no commit-time check** — the deliberately
    /// broken mutant. Zombie transactions can commit mid-critical-section
    /// state; the serializability oracle must flag it.
    LazyUnsafe,
}

/// One thread's program and disposition.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// The critical-section body.
    pub ops: Vec<Op>,
    /// A hostile thread goes straight for the lock (models an `Unsupported`
    /// abort — syscall, page fault — forcing the pessimistic path).
    pub hostile: bool,
}

/// A closed model configuration: policy, subscription mode, thread
/// programs, and retry budgets.
#[derive(Debug, Clone)]
pub struct Config {
    /// Display name (used in reports and violation messages).
    pub name: String,
    /// Which refinement the lock runs.
    pub policy: Policy,
    /// Fast-path lock subscription mode.
    pub sub: Subscription,
    /// Per-thread programs.
    pub threads: Vec<ThreadSpec>,
    /// Number of data locations (all start at 0).
    pub nloc: u8,
    /// Fast attempts before a thread gives up and takes the lock.
    pub max_fast_attempts: u8,
    /// Total slow-attempt budget per thread.
    pub max_slow_attempts: u8,
}

impl Config {
    /// Panics if the configuration is internally inconsistent (bad
    /// location indices, `LastReadPlus` without a preceding read).
    pub fn validate(&self) {
        validate_programs(self.threads.iter().map(|t| &t.ops[..]), self.nloc);
        if let Policy::FgTle { orecs, .. } = self.policy {
            assert!(orecs >= 1);
        }
    }
}

/// A cache line in the model: the lock word, the `write_flag`, a data
/// location, or an orec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Line {
    Lock,
    Flag,
    Data(u8),
    ROrec(u8),
    WOrec(u8),
}

/// Where a thread is in its lifecycle. Fast/Slow phases are speculative
/// (abortable); Lock phases run pessimistically under the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Probe the lock and choose a path.
    Decide,
    /// Eager subscription: transactional read of the lock.
    FastSub,
    /// Execute op `i` speculatively.
    FastOp(u8),
    /// Commit the fast transaction (lazy-safe checks the lock here).
    FastCommit,
    /// Begin a slow attempt: RW checks the flag, FG snapshots the word.
    SlowStart,
    /// FG: orec conflict check (and subscription) for op `i`.
    SlowCheck(u8),
    /// Execute op `i` speculatively under the slow path.
    SlowAccess(u8),
    /// Commit the slow transaction.
    SlowCommit,
    /// Acquire the lock (enabled only while it is free).
    LockAcquire,
    /// FG: stamp the orec for op `i`; RW: raise the flag before the first
    /// write.
    LockStamp(u8),
    /// Execute op `i` pessimistically.
    LockAccess(u8),
    /// RW: lower the flag.
    LockFinish,
    /// Release the lock and record the critical section in the history.
    LockRelease,
    /// Program complete.
    Done,
}

impl Phase {
    fn speculative(self) -> bool {
        matches!(
            self,
            Phase::FastSub
                | Phase::FastOp(_)
                | Phase::FastCommit
                | Phase::SlowStart
                | Phase::SlowCheck(_)
                | Phase::SlowAccess(_)
                | Phase::SlowCommit
        )
    }

    fn fast(self) -> bool {
        matches!(self, Phase::FastSub | Phase::FastOp(_) | Phase::FastCommit)
    }
}

/// Per-thread dynamic state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Thread {
    phase: Phase,
    fast_attempts: u8,
    slow_attempts: u8,
    /// Set when a published store hit this transaction's footprint; the
    /// next step aborts.
    doomed: bool,
    read_set: Vec<Line>,
    write_set: Vec<Line>,
    /// Write buffer, access log and last-read values of the attempt.
    log: AttemptLog,
    /// FG slow path: lock-word snapshot taken at `SlowStart`.
    local_seq: u64,
    /// RW lock path: whether this holder has raised `write_flag`.
    flag_raised: bool,
}

impl Thread {
    fn new(nloc: u8) -> Self {
        Thread {
            phase: Phase::Decide,
            fast_attempts: 0,
            slow_attempts: 0,
            doomed: false,
            read_set: Vec::new(),
            write_set: Vec::new(),
            log: AttemptLog::new(nloc),
            local_seq: 0,
            flag_raised: false,
        }
    }

    fn reset_attempt(&mut self) {
        self.doomed = false;
        self.read_set.clear();
        self.write_set.clear();
        self.log.reset();
        self.local_seq = 0;
        self.flag_raised = false;
    }

    fn subscribe(&mut self, line: Line) {
        if !self.read_set.contains(&line) {
            self.read_set.push(line);
        }
    }

    /// Speculative execution of one op against `data` (reads go through the
    /// write buffer; writes are buffered until commit).
    fn spec_access(&mut self, data: &[u64], op: Op) {
        match op {
            Op::Read(loc) => {
                let v = match self.log.buffered(loc) {
                    Some(v) => v, // read-own-write: line already in write set
                    None => {
                        self.subscribe(Line::Data(loc));
                        data[loc as usize]
                    }
                };
                self.log.read(loc, v);
            }
            Op::Write(loc, val) => {
                self.log.write_buffered(loc, val);
                if !self.write_set.contains(&Line::Data(loc)) {
                    self.write_set.push(Line::Data(loc));
                }
            }
        }
    }
}

/// Shared memory and metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shared {
    data: Vec<u64>,
    lock: u64,
    flag: bool,
    r_orecs: Vec<u64>,
    w_orecs: Vec<u64>,
}

impl Shared {
    fn held(&self) -> bool {
        !self.lock.is_multiple_of(2)
    }
}

/// One global model state: shared memory, every thread, and the committed
/// history (indexed by thread — each thread commits exactly once).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    shared: Shared,
    threads: Vec<Thread>,
    committed: Vec<Option<Committed>>,
}

impl Machine for State {
    type Config = Config;
    const PATH_LABELS: &'static str = "f/s/l";

    fn name(cfg: &Config) -> &str {
        &cfg.name
    }

    fn threads(cfg: &Config) -> usize {
        cfg.threads.len()
    }

    fn horizon_hint(cfg: &Config) -> u64 {
        cfg.threads.iter().map(|t| t.ops.len() as u64 + 4).sum()
    }

    /// Initial state for `cfg`: all locations 0, all threads at
    /// `Phase::Decide`.
    fn initial(cfg: &Config) -> Self {
        cfg.validate();
        let orecs = match cfg.policy {
            Policy::FgTle { orecs, .. } => orecs as usize,
            _ => 0,
        };
        State {
            shared: Shared {
                data: vec![0; cfg.nloc as usize],
                lock: 0,
                flag: false,
                r_orecs: vec![0; orecs],
                w_orecs: vec![0; orecs],
            },
            threads: cfg.threads.iter().map(|_| Thread::new(cfg.nloc)).collect(),
            committed: vec![None; cfg.threads.len()],
        }
    }

    fn data(&self) -> &[u64] {
        &self.shared.data
    }

    fn committed(&self) -> &[Option<Committed>] {
        &self.committed
    }

    fn terminal(&self) -> bool {
        self.threads.iter().all(|t| t.phase == Phase::Done)
    }

    fn invariant_violation(&self) -> Option<String> {
        if self.shared.held() {
            return Some("terminal state with the lock still held".into());
        }
        if self.shared.flag {
            return Some("terminal state with write_flag still raised".into());
        }
        if let Some(t) = self.committed.iter().position(|c| c.is_none()) {
            return Some(format!("thread {t} finished without committing"));
        }
        None
    }

    /// Disabled threads model the runtime's spin-wait loops.
    fn enabled(&self, cfg: &Config, t: usize) -> bool {
        let th = &self.threads[t];
        match th.phase {
            Phase::Done => false,
            Phase::LockAcquire => !self.shared.held(),
            Phase::Decide => Self::decide(cfg, &cfg.threads[t], self.shared.held(), th).is_some(),
            _ => true,
        }
    }

    fn step(&mut self, cfg: &Config, t: usize) {
        debug_assert!(self.enabled(cfg, t));
        if self.threads[t].doomed {
            // A conflicting store hit this transaction's footprint; the
            // hardware delivers the abort at the next instruction boundary.
            self.abort(t);
            return;
        }

        let spec = &cfg.threads[t];
        // Lines on which a store was published this step; dooms are applied
        // once the per-thread borrow below is released.
        let mut published: Vec<Line> = Vec::new();
        let mut commit: Option<CommitPath> = None;
        let mut abort = false;

        {
            let (shared, th) = (&mut self.shared, &mut self.threads[t]);
            match th.phase {
                Phase::Done => unreachable!("done threads are never enabled"),
                Phase::Decide => {
                    th.reset_attempt();
                    th.phase = Self::decide(cfg, spec, shared.held(), th)
                        .expect("a thread awaiting the release is not enabled");
                }

                // ---- fast path -------------------------------------------
                Phase::FastSub => {
                    th.subscribe(Line::Lock);
                    if shared.held() {
                        abort = true; // LOCK_HELD
                    } else if spec.ops.is_empty() {
                        th.phase = Phase::FastCommit;
                    } else {
                        th.phase = Phase::FastOp(0);
                    }
                }
                Phase::FastOp(i) => {
                    th.spec_access(&shared.data, spec.ops[i as usize]);
                    th.phase = if (i as usize + 1) < spec.ops.len() {
                        Phase::FastOp(i + 1)
                    } else {
                        Phase::FastCommit
                    };
                }
                Phase::FastCommit => {
                    if cfg.sub == Subscription::LazySafe && shared.held() {
                        // Safe lazy variant: atomic lock check fused with
                        // commit (LAZY_LOCK_HELD).
                        abort = true;
                    } else {
                        for &(loc, v) in th.log.writes() {
                            shared.data[loc as usize] = v;
                            published.push(Line::Data(loc));
                        }
                        commit = Some(CommitPath::Fast);
                    }
                }

                // ---- slow path -------------------------------------------
                Phase::SlowStart => match cfg.policy {
                    Policy::RwTle => {
                        th.subscribe(Line::Flag);
                        if shared.flag {
                            abort = true; // writer active
                        } else if spec.ops.is_empty() {
                            th.phase = Phase::SlowCommit;
                        } else {
                            th.phase = Phase::SlowAccess(0);
                        }
                    }
                    Policy::FgTle { .. } => {
                        th.local_seq = shared.lock;
                        th.phase = if spec.ops.is_empty() {
                            Phase::SlowCommit
                        } else {
                            Phase::SlowCheck(0)
                        };
                    }
                    Policy::Tle => unreachable!("plain TLE has no slow path"),
                },
                Phase::SlowCheck(i) => {
                    // FG only: check (and subscribe) the orecs guarding op i
                    // (Figure 3's read/write barriers).
                    let op = spec.ops[i as usize];
                    let h = Self::orec_index(cfg.policy, op.loc());
                    th.subscribe(Line::WOrec(h as u8));
                    let mut conflict = shared.w_orecs[h] >= th.local_seq;
                    if op.is_write() {
                        th.subscribe(Line::ROrec(h as u8));
                        conflict |= shared.r_orecs[h] >= th.local_seq;
                    }
                    if conflict {
                        abort = true;
                    } else {
                        th.phase = Phase::SlowAccess(i);
                    }
                }
                Phase::SlowAccess(i) => {
                    let op = spec.ops[i as usize];
                    if cfg.policy == Policy::RwTle && op.is_write() {
                        abort = true; // RW_SLOW_WRITE
                    } else {
                        th.spec_access(&shared.data, op);
                        th.phase = if (i as usize + 1) < spec.ops.len() {
                            match cfg.policy {
                                Policy::FgTle { .. } => Phase::SlowCheck(i + 1),
                                _ => Phase::SlowAccess(i + 1),
                            }
                        } else {
                            Phase::SlowCommit
                        };
                    }
                }
                Phase::SlowCommit => {
                    for &(loc, v) in th.log.writes() {
                        shared.data[loc as usize] = v;
                        published.push(Line::Data(loc));
                    }
                    commit = Some(CommitPath::Slow);
                }

                // ---- lock path -------------------------------------------
                Phase::LockAcquire => {
                    debug_assert!(!shared.held());
                    shared.lock = shared.lock.wrapping_add(1); // now odd
                    published.push(Line::Lock);
                    th.phase = if spec.ops.is_empty() {
                        Phase::LockFinish
                    } else {
                        Phase::LockStamp(0)
                    };
                }
                Phase::LockStamp(i) => {
                    let op = spec.ops[i as usize];
                    match cfg.policy {
                        Policy::RwTle => {
                            debug_assert!(op.is_write() && !th.flag_raised);
                            shared.flag = true;
                            published.push(Line::Flag);
                            th.flag_raised = true;
                        }
                        Policy::FgTle { stamp, .. } => {
                            let h = Self::orec_index(cfg.policy, op.loc());
                            let value = Self::stamp_value(stamp, shared.lock);
                            let (orecs, line) = if op.is_write() {
                                (&mut shared.w_orecs, Line::WOrec(h as u8))
                            } else {
                                (&mut shared.r_orecs, Line::ROrec(h as u8))
                            };
                            debug_assert!(orecs[h] < value);
                            orecs[h] = value;
                            published.push(line);
                        }
                        Policy::Tle => unreachable!("normalize skips TLE stamps"),
                    }
                    th.phase = Phase::LockAccess(i);
                }
                Phase::LockAccess(i) => {
                    match spec.ops[i as usize] {
                        Op::Read(loc) => th.log.read(loc, shared.data[loc as usize]),
                        Op::Write(loc, val) => {
                            shared.data[loc as usize] = th.log.write_through(loc, val);
                            published.push(Line::Data(loc));
                        }
                    }
                    th.phase = if (i as usize + 1) < spec.ops.len() {
                        Phase::LockStamp(i + 1)
                    } else {
                        Phase::LockFinish
                    };
                }
                Phase::LockFinish => {
                    debug_assert!(cfg.policy == Policy::RwTle && th.flag_raised);
                    shared.flag = false;
                    published.push(Line::Flag);
                    th.flag_raised = false;
                    th.phase = Phase::LockRelease;
                }
                Phase::LockRelease => {
                    debug_assert!(shared.held());
                    shared.lock = shared.lock.wrapping_add(1); // now even
                    published.push(Line::Lock);
                    commit = Some(CommitPath::Lock);
                }
            }
        }

        for line in published {
            Self::publish(&mut self.threads, t, line);
        }
        if abort {
            self.abort(t);
        } else if let Some(path) = commit {
            self.committed[t] = Some(self.threads[t].log.commit(t, path));
            self.threads[t].reset_attempt();
            self.threads[t].phase = Phase::Done;
        }
        self.normalize(cfg, t);
    }
}

impl State {
    /// Figure 1's choice of rung for a thread probing the lock at
    /// [`Phase::Decide`] — the runtime's `RetryPolicy`, the runtime's
    /// `next_step` — as the phase it moves to; `None` while it waits for
    /// the release (standard TLE's spin: the thread is disabled).
    fn decide(cfg: &Config, spec: &ThreadSpec, lock_held: bool, th: &Thread) -> Option<Phase> {
        let retry = RetryPolicy {
            max_attempts: cfg.max_fast_attempts.into(),
            max_slow_attempts: Some(cfg.max_slow_attempts.into()),
            ..RetryPolicy::default()
        };
        // A hostile thread's fast attempt dies `Unsupported`, which under
        // `give_up_on_unsupported` (the default) spends the fast budget.
        let fast_used = if spec.hostile {
            retry.max_attempts
        } else {
            th.fast_attempts.into()
        };
        let has_slow_path = cfg.policy.has_slow_path();
        match retry.next_step(has_slow_path, lock_held, fast_used, th.slow_attempts.into()) {
            Step::Fast => Some(match cfg.sub {
                Subscription::Eager => Phase::FastSub,
                _ if spec.ops.is_empty() => Phase::FastCommit,
                _ => Phase::FastOp(0),
            }),
            Step::Slow => Some(Phase::SlowStart),
            Step::Fallback => Some(Phase::LockAcquire),
            Step::AwaitRelease => None,
        }
    }

    fn orec_index(policy: Policy, loc: u8) -> usize {
        match policy {
            Policy::FgTle { orecs, .. } => loc as usize % orecs as usize,
            _ => 0,
        }
    }

    /// What a holder whose acquisition left the word at `held` stamps.
    fn stamp_value(stamp: Stamp, held: u64) -> u64 {
        held.wrapping_sub(u64::from(stamp == Stamp::PreAcquireMutant))
    }

    /// Dooms every *other* speculative thread whose footprint contains
    /// `line` (a store was just published on it).
    fn publish(threads: &mut [Thread], publisher: usize, line: Line) {
        for (u, th) in threads.iter_mut().enumerate() {
            if u != publisher
                && th.phase.speculative()
                && (th.read_set.contains(&line) || th.write_set.contains(&line))
            {
                th.doomed = true;
            }
        }
    }

    fn abort(&mut self, t: usize) {
        let th = &mut self.threads[t];
        if th.phase.fast() {
            th.fast_attempts += 1;
        } else {
            th.slow_attempts += 1;
        }
        th.reset_attempt();
        th.phase = Phase::Decide;
    }

    /// Skips phases that are no-ops under the current policy/state (e.g.
    /// TLE never stamps; an already-stamped FG orec elides the duplicate
    /// store, §4.2). Skip decisions only read state that nobody else can
    /// change concurrently (the holder's own orecs/flag), so eliding the
    /// scheduling point is sound.
    fn normalize(&mut self, cfg: &Config, t: usize) {
        loop {
            let spec = &cfg.threads[t];
            let th = &self.threads[t];
            let next = match th.phase {
                Phase::LockStamp(i) => {
                    let op = spec.ops[i as usize];
                    match cfg.policy {
                        Policy::Tle => Some(Phase::LockAccess(i)),
                        Policy::RwTle => {
                            if !op.is_write() || th.flag_raised {
                                Some(Phase::LockAccess(i))
                            } else {
                                None
                            }
                        }
                        Policy::FgTle { stamp, .. } => {
                            let h = Self::orec_index(cfg.policy, op.loc());
                            let arr = if op.is_write() {
                                &self.shared.w_orecs
                            } else {
                                &self.shared.r_orecs
                            };
                            if arr[h] >= Self::stamp_value(stamp, self.shared.lock) {
                                Some(Phase::LockAccess(i)) // duplicate stamp elided
                            } else {
                                None
                            }
                        }
                    }
                }
                Phase::LockFinish if !th.flag_raised => Some(Phase::LockRelease),
                _ => None,
            };
            match next {
                Some(p) => self.threads[t].phase = p,
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::super::suite::standard_suite;
    use super::*;

    /// Every reachable state of `cfg`: the explorer's DFS, keeping the
    /// states instead of judging them.
    fn reachable(cfg: &Config) -> HashSet<State> {
        let mut seen = HashSet::from([State::initial(cfg)]);
        let mut stack: Vec<State> = seen.iter().cloned().collect();
        while let Some(s) = stack.pop() {
            for t in s.enabled_threads(cfg) {
                let mut next = s.clone();
                next.step(cfg, t);
                if seen.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        seen
    }

    /// The corner the model's hand copy of Figure 1 used to get wrong: a
    /// thread that probes a *held* lock with its slow budget spent queues
    /// on the lock (the runtime's `Step::Fallback`); it does not sit out
    /// the holder and then go fast.
    #[test]
    fn a_spent_slow_budget_under_a_held_lock_queues_on_the_lock() {
        const READER: usize = 1;
        let cfg = standard_suite()
            .into_iter()
            .find(|c| c.name == "rwtle-reader-vs-writer")
            .expect("suite config exists");
        assert!(!cfg.threads[READER].hostile);
        let states = reachable(&cfg);
        let spent = |s: &State| s.threads[READER].slow_attempts == cfg.max_slow_attempts;

        let mut corner = 0;
        for s in &states {
            if s.threads[READER].phase == Phase::Decide && s.shared.held() && spent(s) {
                corner += 1;
                assert!(s.enabled(&cfg, READER), "the reader sits out the holder");
                let mut next = s.clone();
                next.step(&cfg, READER);
                assert_eq!(next.threads[READER].phase, Phase::LockAcquire);
            }
        }
        assert!(corner > 0, "the corner is never reached");

        // And it shows in the histories: the reader commits under the lock
        // in some terminal, always with both slow attempts behind it (the
        // one acquisition of the writer can cost it one fast attempt, never
        // its fast budget of two).
        let mut on_lock = 0;
        for s in states.iter().filter(|s| s.terminal()) {
            let reader = s.committed[READER].as_ref().expect("terminal: committed");
            if reader.path == CommitPath::Lock {
                on_lock += 1;
                assert!(spent(s), "lock commit with slow budget left");
                assert!(s.threads[READER].fast_attempts < cfg.max_fast_attempts);
            }
        }
        assert!(
            on_lock > 0,
            "no terminal has the reader commit under the lock"
        );
    }
}
