//! Small-step operational model of the TL2 software TM in
//! `crates/hytm/src/tl2.rs`, explored exhaustively like the TLE machine
//! in [`super::machine`].
//!
//! Fidelity notes (kept deliberately close to the runtime):
//!
//! * **Begin** samples the global clock into `rv` (always even).
//! * The **read barrier** is modeled as one atomic step per read: abort
//!   if the stripe is locked or its version is newer than `rv`, else
//!   load and log. The runtime's check/load/recheck sequence is exactly
//!   an implementation of this atomic load — collapsing it loses no
//!   behavior of *successful* reads, and failed reads abort either way.
//! * **Writer commit** is phased like the runtime: lock the sorted,
//!   deduplicated write stripes one step at a time (the bounded TATAS
//!   spin becomes an enabledness condition — a thread waiting on a held
//!   stripe is simply not schedulable), then bump the clock
//!   (`wv = clock + 2`, one atomic step, mirroring `fetch_add`), then
//!   validate the read set stripe by stripe — **skipped entirely when
//!   `wv == rv + 2`** (nobody else committed; the runtime's shortcut) —
//!   then write back and release every stripe at version `wv`.
//!   Write-back and release are single steps: every stripe they touch is
//!   locked, and the read barrier refuses locked stripes, so the
//!   intermediate states are unobservable.
//! * [`Tl2Config::stale_read_mutant`] skips the commit-time read-set
//!   revalidation even though the clock advanced — the same seeded bug
//!   the `tl2-stale-read-mutant` cargo feature reintroduces in the
//!   runtime. The serializability oracle must flag the resulting lost
//!   updates; if it ever stops doing so, the oracle has regressed.
//! * A thread that exhausts [`Tl2Config::max_attempts`] aborts runs its
//!   final attempt as **one atomic step** (enabled only while every
//!   stripe it touches is unlocked). The runtime has no such mode — it
//!   retries forever — but the model needs one so every thread commits
//!   in every terminal state while the clock (which aborted commits
//!   still advance, exactly like the runtime's `fetch_add`) stays
//!   bounded and the DFS terminates.
//!
//! # The swhtm configuration
//!
//! `rtle-htm`'s emulated HTM runs the same protocol with two differences,
//! selected by [`Tl2Config::extension`]:
//!
//! * **Cached read-version.** Begin reads no shared state: `rv` is the
//!   last clock value the thread observed. The model keeps the `Begin`
//!   step as that *earlier observation* — any number of other threads'
//!   steps may fall between it and the first read, so `rv` ranges over
//!   every clock value from the thread's start to its first access — and a
//!   retry does not pass through `Begin` again: it carries over the `rv`
//!   of the aborted attempt (its last extension sample or drawn `wv`).
//! * **Snapshot extension.** A read that meets an unlocked stripe newer
//!   than `rv` does not abort: it samples the clock (one step), revalidates
//!   the read set stripe by stripe against the old `rv` (one step each),
//!   advances `rv` to the sample and re-runs the read.
//!   [`Extension::ValidateFirst`] is the seeded bug — revalidate, *then*
//!   sample — which lets a writer commit between the two and land inside
//!   the new snapshot unchecked; the oracle must catch the zombie read.
//!
//! Stripes map as `loc % stripes` instead of the runtime's Fibonacci
//! hash, for the same reason the TLE model indexes orecs transparently:
//! configurations can then pin down aliasing exactly.

use super::explore::Report;
use super::machine::{Op, Val};
use super::oracle::{find_serial_witness, CommitPath, Committed, HOp};
use std::collections::HashSet;

/// Cap on recorded violations per configuration (counting continues) —
/// same budget as the TLE explorer.
const MAX_RECORDED_VIOLATIONS: usize = 5;

/// A closed TL2 model configuration.
#[derive(Debug, Clone)]
pub struct Tl2Config {
    /// Display name (reports and violation messages).
    pub name: String,
    /// Per-thread transaction bodies (each thread runs its body once, to
    /// commit). [`Op`]/[`Val`] are shared with the TLE machine.
    pub threads: Vec<Vec<Op>>,
    /// Number of data locations (all start at 0).
    pub nloc: u8,
    /// Number of version-lock stripes (addresses map as `loc % stripes`).
    pub stripes: u8,
    /// Aborts before the final attempt runs as one atomic step.
    pub max_attempts: u8,
    /// Skip commit-time read-set revalidation when the clock advanced —
    /// the seeded stale-read bug. Never set in the safe suite.
    pub stale_read_mutant: bool,
    /// `None`: `crates/hytm`'s TL2 — every attempt samples the clock at
    /// begin and a newer stripe aborts. `Some`: `crates/htm`'s swhtm — a
    /// cached `rv` carried across attempts, and snapshot extension in the
    /// given step order.
    pub extension: Option<Extension>,
}

/// The step order of a snapshot extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extension {
    /// Sample the clock, then revalidate the read set (the runtime).
    SampleFirst,
    /// Revalidate, then sample — the seeded bug. Never in the safe suite.
    ValidateFirst,
}

impl Tl2Config {
    /// Panics if the configuration is internally inconsistent (mirrors
    /// [`super::machine::Config::validate`]).
    pub fn validate(&self) {
        assert!(!self.threads.is_empty() && self.threads.len() <= 8);
        assert!(self.stripes >= 1);
        for ops in &self.threads {
            let mut seen = vec![false; self.nloc as usize];
            for op in ops {
                let loc = match *op {
                    Op::Read(l) | Op::Write(l, _) => l,
                };
                assert!((loc as usize) < self.nloc as usize, "loc out of range");
                match *op {
                    Op::Read(l) => seen[l as usize] = true,
                    Op::Write(_, Val::LastReadPlus(l, _)) => {
                        assert!(seen[l as usize], "LastReadPlus must follow a read of loc");
                    }
                    Op::Write(_, Val::Const(_)) => {}
                }
            }
        }
    }

    fn stripe_of(&self, loc: u8) -> u8 {
        loc % self.stripes
    }

    /// Every stripe thread `t`'s body can touch (atomic-fallback
    /// enabledness).
    fn footprint_stripes(&self, t: usize) -> Vec<u8> {
        let mut s: Vec<u8> = self.threads[t]
            .iter()
            .map(|op| {
                self.stripe_of(match *op {
                    Op::Read(l) | Op::Write(l, _) => l,
                })
            })
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Where a TL2 thread is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Sample the clock into `rv`.
    Begin,
    /// Execute op `i` (read barrier or write buffering).
    Op(u8),
    /// Extension on behalf of op `i`: sample the clock.
    ExtSample(u8),
    /// Extension on behalf of op `i`: revalidate the `j`-th read stripe.
    ExtValidate(u8, u8),
    /// Acquire the `k`-th sorted write stripe (enabled iff unlocked).
    LockStripe(u8),
    /// `wv = clock + 2; clock = wv` (the runtime's `fetch_add`).
    ClockBump,
    /// Validate the `j`-th read stripe against `rv`.
    Validate(u8),
    /// Apply the write buffer (all touched stripes held).
    WriteBack,
    /// Stamp every held stripe at `wv` and unlock.
    Release,
    /// Budget exhausted: run the whole body as one atomic step (enabled
    /// iff every footprint stripe is unlocked).
    Atomic,
    /// Committed.
    Done,
}

/// Per-thread dynamic state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Thread {
    phase: Phase,
    attempts: u8,
    /// Read-version: the clock snapshot from `Begin`, advanced by
    /// extension.
    rv: u64,
    /// During a sample-first extension, the `rv` being revalidated against
    /// (`rv` itself already holds the sample, as in the runtime).
    ext_rv: u64,
    /// Commit version from `ClockBump`.
    wv: u64,
    /// Stripes subscribed by the read barrier (insertion order, deduped).
    read_stripes: Vec<u8>,
    /// Sorted, deduplicated write stripes (computed entering commit).
    write_stripes: Vec<u8>,
    /// Speculative write buffer, last-write-wins per location.
    wbuf: Vec<(u8, u64)>,
    /// Data reads/writes of the current attempt, in program order.
    ops_log: Vec<HOp>,
    /// Last value read per location (for [`Val::LastReadPlus`]).
    last_read: Vec<Option<u64>>,
}

impl Thread {
    fn new(nloc: u8) -> Self {
        Thread {
            phase: Phase::Begin,
            attempts: 0,
            rv: 0,
            ext_rv: 0,
            wv: 0,
            read_stripes: Vec::new(),
            write_stripes: Vec::new(),
            wbuf: Vec::new(),
            ops_log: Vec::new(),
            last_read: vec![None; nloc as usize],
        }
    }

    fn reset_attempt(&mut self) {
        self.rv = 0;
        self.ext_rv = 0;
        self.wv = 0;
        self.read_stripes.clear();
        self.write_stripes.clear();
        self.wbuf.clear();
        self.ops_log.clear();
        for v in &mut self.last_read {
            *v = None;
        }
    }

    fn eval(&self, v: Val) -> u64 {
        match v {
            Val::Const(c) => c,
            Val::LastReadPlus(loc, k) => {
                self.last_read[loc as usize]
                    .expect("config validated: LastReadPlus follows a read")
                    + k
            }
        }
    }
}

/// One version-lock stripe: `owner` is the locking thread mid-commit;
/// `version` is the commit version of the last writer (updated at
/// release, like the runtime's even/odd word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Stripe {
    version: u64,
    owner: Option<u8>,
}

/// One global TL2 model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tl2State {
    data: Vec<u64>,
    stripes: Vec<Stripe>,
    /// Global version clock; always even.
    clock: u64,
    threads: Vec<Thread>,
    committed: Vec<Option<Committed>>,
}

impl Tl2State {
    /// Initial state for `cfg`: all locations 0, clock 0, every thread at
    /// [`Phase::Begin`].
    pub fn initial(cfg: &Tl2Config) -> Self {
        Tl2State {
            data: vec![0; cfg.nloc as usize],
            stripes: vec![
                Stripe {
                    version: 0,
                    owner: None,
                };
                cfg.stripes as usize
            ],
            clock: 0,
            threads: cfg.threads.iter().map(|_| Thread::new(cfg.nloc)).collect(),
            committed: vec![None; cfg.threads.len()],
        }
    }

    /// Final shared data (terminal-state inspection).
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// The committed history, one entry per thread.
    pub fn committed(&self) -> &[Option<Committed>] {
        &self.committed
    }

    /// All threads done?
    pub fn terminal(&self) -> bool {
        self.threads.iter().all(|t| t.phase == Phase::Done)
    }

    /// Structural invariants that must hold in a terminal state.
    pub fn terminal_invariant_violation(&self) -> Option<String> {
        if let Some(s) = self.stripes.iter().position(|s| s.owner.is_some()) {
            return Some(format!("terminal state with stripe {s} still locked"));
        }
        if !self.clock.is_multiple_of(2) {
            return Some(format!("terminal state with odd clock {}", self.clock));
        }
        if let Some(t) = self.committed.iter().position(|c| c.is_none()) {
            return Some(format!("thread {t} finished without committing"));
        }
        None
    }

    /// Is thread `t` able to take a step? A thread spinning on a held
    /// stripe (lock acquisition or the atomic fallback) is disabled, like
    /// the runtime's bounded TATAS spin.
    pub fn enabled(&self, cfg: &Tl2Config, t: usize) -> bool {
        let th = &self.threads[t];
        match th.phase {
            Phase::Done => false,
            Phase::LockStripe(k) => {
                self.stripes[th.write_stripes[k as usize] as usize].owner.is_none()
            }
            Phase::Atomic => cfg
                .footprint_stripes(t)
                .iter()
                .all(|&s| self.stripes[s as usize].owner.is_none()),
            _ => true,
        }
    }

    fn commit(&mut self, t: usize, path: CommitPath) {
        let ops = std::mem::take(&mut self.threads[t].ops_log);
        self.committed[t] = Some(Committed {
            thread: t as u8,
            path,
            ops,
        });
        let th = &mut self.threads[t];
        th.reset_attempt();
        th.phase = Phase::Done;
    }

    /// Executes one step of thread `t`. Caller must ensure
    /// [`Tl2State::enabled`] holds.
    pub fn step(&mut self, cfg: &Tl2Config, t: usize) {
        debug_assert!(self.enabled(cfg, t));
        let ops = &cfg.threads[t];
        match self.threads[t].phase {
            Phase::Done => unreachable!("done threads are never enabled"),

            Phase::Begin => {
                self.threads[t].rv = self.clock;
                if ops.is_empty() {
                    // Empty body: a read-only no-op commit.
                    self.commit(t, CommitPath::Fast);
                } else {
                    self.threads[t].phase = Phase::Op(0);
                }
            }

            Phase::Op(i) => {
                let op = ops[i as usize];
                match op {
                    Op::Read(loc) => {
                        let buffered = self.threads[t]
                            .wbuf
                            .iter()
                            .rev()
                            .find(|&&(l, _)| l == loc)
                            .map(|&(_, v)| v);
                        let v = match buffered {
                            Some(v) => v, // read-own-write, no barrier
                            None => {
                                let s = cfg.stripe_of(loc);
                                let stripe = self.stripes[s as usize];
                                let th = &mut self.threads[t];
                                if stripe.owner.is_some() {
                                    return self.abort_with_budget(cfg, t);
                                }
                                if stripe.version > th.rv {
                                    th.phase = match cfg.extension {
                                        None => return self.abort_with_budget(cfg, t),
                                        Some(Extension::ValidateFirst)
                                            if !th.read_stripes.is_empty() =>
                                        {
                                            Phase::ExtValidate(i, 0)
                                        }
                                        Some(_) => Phase::ExtSample(i),
                                    };
                                    return;
                                }
                                if !self.threads[t].read_stripes.contains(&s) {
                                    self.threads[t].read_stripes.push(s);
                                }
                                self.data[loc as usize]
                            }
                        };
                        let th = &mut self.threads[t];
                        th.last_read[loc as usize] = Some(v);
                        th.ops_log.push(HOp::Read(loc, v));
                    }
                    Op::Write(loc, val) => {
                        let th = &mut self.threads[t];
                        let v = th.eval(val);
                        match th.wbuf.iter_mut().find(|(l, _)| *l == loc) {
                            Some(slot) => slot.1 = v,
                            None => th.wbuf.push((loc, v)),
                        }
                        th.ops_log.push(HOp::Write(loc, v));
                    }
                }
                // Advance past the op just executed.
                let th = &mut self.threads[t];
                if (i as usize + 1) < ops.len() {
                    th.phase = Phase::Op(i + 1);
                } else if th.wbuf.is_empty() {
                    // Read-only: every read was validated against rv at
                    // read time; the transaction serializes at its begin
                    // point with no commit-time work (the runtime's
                    // `is_read_only` early return).
                    self.commit(t, CommitPath::Fast);
                } else {
                    let mut ws: Vec<u8> =
                        th.wbuf.iter().map(|&(l, _)| cfg.stripe_of(l)).collect();
                    ws.sort_unstable();
                    ws.dedup();
                    th.write_stripes = ws;
                    th.phase = Phase::LockStripe(0);
                }
            }

            Phase::ExtSample(i) => {
                let clock = self.clock;
                let th = &mut self.threads[t];
                th.ext_rv = std::mem::replace(&mut th.rv, clock);
                th.phase = match cfg.extension {
                    Some(Extension::SampleFirst) if !th.read_stripes.is_empty() => {
                        Phase::ExtValidate(i, 0)
                    }
                    // Nothing (left) to revalidate: the snapshot is extended.
                    _ => {
                        th.ext_rv = 0;
                        Phase::Op(i)
                    }
                };
            }

            Phase::ExtValidate(i, j) => {
                let th = &self.threads[t];
                let stripe = self.stripes[th.read_stripes[j as usize] as usize];
                let against = match cfg.extension {
                    Some(Extension::SampleFirst) => th.ext_rv,
                    _ => th.rv,
                };
                if stripe.owner.is_some() || stripe.version > against {
                    return self.abort_with_budget(cfg, t);
                }
                let th = &mut self.threads[t];
                th.phase = if (j as usize + 1) < th.read_stripes.len() {
                    Phase::ExtValidate(i, j + 1)
                } else if cfg.extension == Some(Extension::ValidateFirst) {
                    Phase::ExtSample(i)
                } else {
                    th.ext_rv = 0;
                    Phase::Op(i)
                };
            }

            Phase::LockStripe(k) => {
                let s = self.threads[t].write_stripes[k as usize];
                debug_assert!(self.stripes[s as usize].owner.is_none());
                self.stripes[s as usize].owner = Some(t as u8);
                let th = &mut self.threads[t];
                th.phase = if (k as usize + 1) < th.write_stripes.len() {
                    Phase::LockStripe(k + 1)
                } else {
                    Phase::ClockBump
                };
            }

            Phase::ClockBump => {
                self.clock += 2;
                let th = &mut self.threads[t];
                th.wv = self.clock;
                // Validation is skipped when nobody committed since rv
                // (the runtime's `wv == rv + 2` shortcut), when there is
                // nothing to validate — or by the seeded mutant, which is
                // exactly the bug the oracle must then catch.
                let skip = cfg.stale_read_mutant
                    || th.wv == th.rv + 2
                    || th.read_stripes.is_empty();
                th.phase = if skip { Phase::WriteBack } else { Phase::Validate(0) };
            }

            Phase::Validate(j) => {
                let th = &self.threads[t];
                let s = th.read_stripes[j as usize];
                let stripe = self.stripes[s as usize];
                // Stripes we hold ourselves were checked at their pre-lock
                // version — which is still `stripe.version`, since the
                // model keeps versions unchanged until release.
                let locked_by_other = stripe.owner.is_some_and(|o| o != t as u8);
                if locked_by_other || stripe.version > th.rv {
                    return self.abort_with_budget(cfg, t);
                }
                let th = &mut self.threads[t];
                th.phase = if (j as usize + 1) < th.read_stripes.len() {
                    Phase::Validate(j + 1)
                } else {
                    Phase::WriteBack
                };
            }

            Phase::WriteBack => {
                for &(loc, v) in &self.threads[t].wbuf.clone() {
                    self.data[loc as usize] = v;
                }
                self.threads[t].phase = Phase::Release;
            }

            Phase::Release => {
                let (wv, ws) = {
                    let th = &self.threads[t];
                    (th.wv, th.write_stripes.clone())
                };
                for s in ws {
                    let st = &mut self.stripes[s as usize];
                    debug_assert_eq!(st.owner, Some(t as u8));
                    st.version = wv;
                    st.owner = None;
                }
                self.commit(t, CommitPath::Slow);
            }

            Phase::Atomic => {
                // Budget exhausted: the whole body in one step, stripes
                // guaranteed free by enabledness.
                let mut wrote = false;
                for &op in ops {
                    match op {
                        Op::Read(loc) => {
                            let v = self.data[loc as usize];
                            let th = &mut self.threads[t];
                            th.last_read[loc as usize] = Some(v);
                            th.ops_log.push(HOp::Read(loc, v));
                        }
                        Op::Write(loc, val) => {
                            let v = self.threads[t].eval(val);
                            self.data[loc as usize] = v;
                            self.threads[t].ops_log.push(HOp::Write(loc, v));
                            let s = cfg.stripe_of(loc);
                            if !self.threads[t].write_stripes.contains(&s) {
                                self.threads[t].write_stripes.push(s);
                            }
                            wrote = true;
                        }
                    }
                }
                if wrote {
                    self.clock += 2;
                    let wv = self.clock;
                    for &s in &self.threads[t].write_stripes.clone() {
                        self.stripes[s as usize].version = wv;
                    }
                }
                self.commit(t, CommitPath::Lock);
            }
        }
    }

    fn abort_with_budget(&mut self, cfg: &Tl2Config, t: usize) {
        for s in &mut self.stripes {
            if s.owner == Some(t as u8) {
                s.owner = None;
            }
        }
        let th = &mut self.threads[t];
        th.attempts += 1;
        // swhtm carries the latest clock value the attempt saw — a drawn
        // `wv`, else its (possibly extended) `rv` — into the retry, which
        // does not sample again.
        let carried = cfg.extension.map(|_| th.rv.max(th.wv));
        th.reset_attempt();
        th.phase = match carried {
            _ if th.attempts >= cfg.max_attempts => Phase::Atomic,
            Some(rv) => {
                th.rv = rv;
                Phase::Op(0)
            }
            None => Phase::Begin,
        };
    }
}

/// Judges one terminal TL2 state: structural invariants first, then the
/// serializability oracle — the same two-stage verdict as
/// [`super::explore::judge_terminal`].
pub fn judge_tl2_terminal(cfg: &Tl2Config, state: &Tl2State) -> Option<(&'static str, String)> {
    if let Some(why) = state.terminal_invariant_violation() {
        return Some(("bad-terminal", why));
    }
    let entries: Vec<_> = state.committed().iter().flatten().collect();
    let init = vec![0u64; cfg.nloc as usize];
    if find_serial_witness(&init, state.data(), &entries).is_none() {
        let hist: Vec<String> = entries.iter().map(|e| e.to_string()).collect();
        return Some((
            "non-serializable",
            format!(
                "history [{}] with final memory {:?} matches no serial order",
                hist.join(", "),
                state.data()
            ),
        ));
    }
    None
}

/// Explores every interleaving of the TL2 configuration and checks every
/// terminal state. Returns the same [`Report`] shape as the TLE
/// explorer; `fast`/`slow`/`lock` terminal counters map to
/// read-only / writer / atomic-fallback commits.
pub fn explore_tl2(cfg: &Tl2Config) -> Report {
    cfg.validate();
    let mut report = Report {
        config: cfg.name.clone(),
        states: 0,
        terminals: 0,
        violation_count: 0,
        violations: Vec::new(),
        fast_commit_terminals: 0,
        slow_commit_terminals: 0,
        lock_commit_terminals: 0,
    };

    let initial = Tl2State::initial(cfg);
    let mut visited: HashSet<Tl2State> = HashSet::new();
    visited.insert(initial.clone());
    let mut stack: Vec<(Tl2State, Vec<u8>)> = vec![(initial, Vec::new())];

    while let Some((state, schedule)) = stack.pop() {
        report.states += 1;
        let enabled: Vec<usize> = (0..cfg.threads.len())
            .filter(|&t| state.enabled(cfg, t))
            .collect();
        if enabled.is_empty() {
            if state.terminal() {
                report.terminals += 1;
                let entries: Vec<_> = state.committed().iter().flatten().collect();
                for e in &entries {
                    match e.path {
                        CommitPath::Fast => report.fast_commit_terminals += 1,
                        CommitPath::Slow => report.slow_commit_terminals += 1,
                        CommitPath::Lock => report.lock_commit_terminals += 1,
                    }
                }
                if let Some((kind, detail)) = judge_tl2_terminal(cfg, &state) {
                    report.violation_count += 1;
                    if report.violations.len() < MAX_RECORDED_VIOLATIONS {
                        report.violations.push(super::explore::ViolationReport {
                            kind,
                            detail,
                            schedule: schedule.clone(),
                        });
                    }
                }
            } else {
                // A non-terminal state where every thread waits on a
                // stripe would be a lock-leak modeling bug; surface it.
                report.violation_count += 1;
                if report.violations.len() < MAX_RECORDED_VIOLATIONS {
                    report.violations.push(super::explore::ViolationReport {
                        kind: "stuck",
                        detail: "non-terminal state with no enabled thread".into(),
                        schedule: schedule.clone(),
                    });
                }
            }
            continue;
        }
        for t in enabled {
            let mut next = state.clone();
            next.step(cfg, t);
            if visited.insert(next.clone()) {
                let mut sched = schedule.clone();
                sched.push(t as u8);
                stack.push((next, sched));
            }
        }
    }
    report
}

fn inc(loc: u8) -> Vec<Op> {
    vec![Op::Read(loc), Op::Write(loc, Val::LastReadPlus(loc, 1))]
}

/// The five workloads of the safe suite, configured for one protocol
/// (`extension`), named `<protocol>-<workload>`.
fn workloads(protocol: &str, extension: Option<Extension>) -> Vec<Tl2Config> {
    let cfg = |name: &str, threads: Vec<Vec<Op>>, nloc, stripes, max_attempts| Tl2Config {
        name: format!("{protocol}-{name}"),
        threads,
        nloc,
        stripes,
        max_attempts,
        stale_read_mutant: false,
        extension,
    };
    vec![
        // Two incrementers on one counter: the commit-time revalidation
        // (and its wv == rv + 2 shortcut) carry the whole correctness
        // burden; the oracle additionally rules out lost updates.
        cfg("counter", vec![inc(0), inc(0)], 1, 2, 2),
        // Writer of the invariant pair vs a read-only scanner: the read
        // barrier must never let the scanner observe x=1, y=0.
        cfg(
            "invariant-pair",
            vec![
                vec![Op::Write(0, Val::Const(1)), Op::Write(1, Val::Const(1))],
                vec![Op::Read(0), Op::Read(1)],
            ],
            2,
            2,
            2,
        ),
        // Write skew: each thread reads the other's location and writes
        // its own. Commit-time validation must serialize them.
        cfg(
            "write-skew",
            vec![
                vec![Op::Read(0), Op::Write(1, Val::LastReadPlus(0, 1))],
                vec![Op::Read(1), Op::Write(0, Val::LastReadPlus(1, 1))],
            ],
            2,
            2,
            2,
        ),
        // Every location aliases one stripe: false conflicts must cost
        // retries, never correctness (the runtime's `with_stripes(1)`).
        cfg("aliased-stripes", vec![inc(0), inc(1)], 2, 1, 2),
        // Three threads: two disjoint writers (distinct stripes — they
        // may hold their locks concurrently) and a scanner across both.
        cfg(
            "3thread-disjoint",
            vec![
                vec![Op::Write(0, Val::Const(1))],
                vec![Op::Write(1, Val::Const(2))],
                vec![Op::Read(0), Op::Read(1)],
            ],
            2,
            2,
            1,
        ),
    ]
}

/// The extension workload: a scanner of the pair `(x, y)`, a writer of the
/// whole pair, and a writer of `y` alone. The lone `y` write is what makes
/// the scanner's second read meet a newer stripe *before* the pair writer
/// commits — the window in which a validate-first extension goes wrong.
fn extension_pair(name: &str, extension: Extension) -> Tl2Config {
    Tl2Config {
        name: name.into(),
        threads: vec![
            vec![Op::Write(1, Val::Const(5))],
            vec![Op::Write(0, Val::Const(1)), Op::Write(1, Val::Const(1))],
            vec![Op::Read(0), Op::Read(1)],
        ],
        nloc: 2,
        stripes: 2,
        max_attempts: 1,
        stale_read_mutant: false,
        extension: Some(extension),
    }
}

/// Safe configurations: the explorer must find **zero** violations in
/// every one, over every interleaving. Every workload runs as `tl2-*`
/// (`crates/hytm`'s TL2: begin-time sample, abort on a newer stripe) and
/// as `swhtm-*` (`crates/htm`: cached `rv`, snapshot extension).
pub fn tl2_suite() -> Vec<Tl2Config> {
    let mut suite = workloads("tl2", None);
    suite.extend(workloads("swhtm", Some(Extension::SampleFirst)));
    suite.push(extension_pair("swhtm-extension-pair", Extension::SampleFirst));
    suite
}

/// The seeded TL2 bug: skip read-set revalidation when the clock
/// advanced. Two incrementers then race to the classic lost update — the
/// explorer must report a non-serializable history, mirroring the
/// `tle-lazyunsafe-mutant` contract.
pub fn tl2_mutant_config() -> Tl2Config {
    Tl2Config {
        name: "tl2-stale-read-mutant".into(),
        threads: vec![inc(0), inc(0)],
        nloc: 1,
        stripes: 2,
        max_attempts: 2,
        stale_read_mutant: true,
        extension: None,
    }
}

/// The seeded extension bug: revalidate the read set, *then* sample the
/// clock. The pair writer commits between the two, the scanner's snapshot
/// jumps past it unchecked, and the scanner commits old `x` with new `y` —
/// the explorer must report a non-serializable history.
pub fn swhtm_mutant_config() -> Tl2Config {
    extension_pair("swhtm-validate-first-mutant", Extension::ValidateFirst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_clean() {
        for cfg in tl2_suite() {
            let r = explore_tl2(&cfg);
            assert!(r.terminals > 0, "{}: no terminal states", cfg.name);
            assert!(
                r.clean(),
                "{}: {} violations, first: {:?}",
                cfg.name,
                r.violation_count,
                r.violations.first()
            );
        }
    }

    #[test]
    fn counter_exercises_all_paths() {
        let cfg = &tl2_suite()[0];
        let r = explore_tl2(cfg);
        assert!(r.slow_commit_terminals > 0, "writer commits must appear");
        assert!(
            r.lock_commit_terminals > 0,
            "the budget-exhausted atomic fallback must be reachable"
        );
    }

    #[test]
    fn invariant_pair_has_read_only_commits() {
        let r = explore_tl2(&tl2_suite()[1]);
        assert!(r.fast_commit_terminals > 0, "read-only commits must appear");
        assert!(r.clean());
    }

    #[test]
    fn mutant_is_caught_as_non_serializable() {
        let r = explore_tl2(&tl2_mutant_config());
        assert!(
            r.violations.iter().any(|v| v.kind == "non-serializable"),
            "the stale-read mutant must produce a lost update; report: {r:?}"
        );
    }

    #[test]
    fn mutant_flag_is_the_only_difference() {
        // The same workload with validation enabled is clean — pinning the
        // violation on the skipped revalidation, not the workload.
        let mut cfg = tl2_mutant_config();
        cfg.stale_read_mutant = false;
        cfg.name = "tl2-stale-read-fixed".into();
        let r = explore_tl2(&cfg);
        assert!(r.clean(), "fixed config must be clean: {:?}", r.violations.first());
    }

    #[test]
    fn extension_mutant_is_caught_as_a_zombie_read() {
        let r = explore_tl2(&swhtm_mutant_config());
        assert!(
            r.violations.iter().any(|v| v.kind == "non-serializable"),
            "validate-before-sample must let a zombie read commit; report: {r:?}"
        );
    }

    #[test]
    fn extension_order_is_the_only_difference() {
        // The same workload, sampling first, is clean (it is in the safe
        // suite) — and it does extend: the scanner commits read-only in
        // terminals where both writers committed before its second read.
        let r = explore_tl2(&extension_pair("swhtm-extension-fixed", Extension::SampleFirst));
        assert!(r.clean(), "sample-first must be clean: {:?}", r.violations.first());
        assert!(r.fast_commit_terminals > 0);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let bad = Tl2Config {
            name: "bad".into(),
            threads: vec![vec![Op::Read(5)]],
            nloc: 1,
            stripes: 1,
            max_attempts: 1,
            stale_read_mutant: false,
            extension: None,
        };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
    }
}
