//! Small-step operational model of the versioned-lock protocol in
//! `crates/htm/src/stripe.rs` (`Table::{read, extend, validate,
//! commit}` over a `Footprint`) — the one copy of TL2 that both `rtle_hytm::Tl2`
//! (`crates/hytm/src/tl2.rs`) and the emulated HTM
//! (`crates/htm/src/swhtm.rs`) run, and the only one modeled (classic TL2 —
//! sample at every begin, abort on a newer stripe — runs nowhere).
//! [`Machine`] for [`Tl2State`], explored and fuzzed by the same drivers as
//! the TLE machine in [`super::tle`].
//!
//! Fidelity notes (kept deliberately close to the runtime):
//!
//! * **Cached read-version.** The runtime's begin reads no shared state:
//!   `rv` is the last clock value the thread observed. The model keeps a
//!   `Begin` step as that *earlier observation* — any number of other
//!   threads' steps may fall between it and the first read, so `rv` ranges
//!   over every clock value from the thread's start to its first access —
//!   and neither a retry nor the thread's next body passes through `Begin`
//!   again: each carries over the `rv` the thread holds (its last
//!   extension's clock, or its last commit's clock sample).
//!   (`rtle_hytm::Tl2`'s fresh sample at every begin is a carried-over `rv`
//!   plus an extension over an empty read set to a version the clock has
//!   already passed.)
//! * **Several bodies per thread.** A thread runs its bodies in order, each
//!   to commit, so the carried `rv` and the **own-write exemption** are
//!   explored: a stripe at exactly the thread's last commit version, in
//!   that commit's write set, does not count as newer than `rv` (the
//!   runtime's `Footprint::is_newer`). The oracle keeps one thread's
//!   committed bodies in program order.
//! * The **read barrier** is modeled as one atomic step per read: abort
//!   if the stripe is locked, extend the snapshot if its version is newer
//!   than `rv`, else load and log. The runtime's check/load/recheck
//!   sequence is exactly an implementation of this atomic load —
//!   collapsing it loses no behavior of *successful* reads, and failed
//!   reads abort either way.
//! * **Snapshot extension.** A read that meets an unlocked stripe newer
//!   than `rv` does not abort: it raises the clock to the stripe's version
//!   and takes the clock as `rv` (one step), revalidates the read set
//!   stripe by stripe against the old `rv` (one step each) and re-runs the
//!   read. The raise reads the stripe's version at its own step — the
//!   runtime's load of the word, taken that late. [`Extension::ValidateFirst`]
//!   is the seeded bug — revalidate, *then* raise — which lets a writer
//!   commit between the two and land inside the new snapshot unchecked;
//!   the oracle must catch the zombie read.
//! * **Writer commit** is phased like the runtime: lock the sorted,
//!   deduplicated write stripes one step at a time (the bounded TATAS
//!   spin becomes an enabledness condition — a thread waiting on a held
//!   stripe is simply not schedulable), then draw (`wv` = two past the
//!   newer of the clock and the held stripes' versions; the clock is not
//!   written, and `rv` becomes the clock sample), then validate the read
//!   set stripe by stripe against the old `rv` — every writer with reads
//!   validates — then write back and release every stripe at `wv`.
//!   Write-back and release are single steps: every stripe they touch is
//!   locked, and the read barrier refuses locked stripes, so the
//!   intermediate states are unobservable.
//! * [`Tl2Config::stale_read_mutant`] skips the commit-time read-set
//!   revalidation — the same seeded bug the `tl2-stale-read-mutant` cargo
//!   feature reintroduces in the runtime's `Table::commit` (feature of
//!   `rtle-htm`; tier-1 runs a storm of each instance under it).
//!   [`Tl2Config::carry_wv_mutant`] carries the drawn `wv` instead of the
//!   clock sample — a lost update once another writer draws the same `wv`.
//!   The serializability oracle must flag both; if it ever stops doing so,
//!   the oracle has regressed.
//! * A thread that exhausts [`Tl2Config::max_attempts`] aborts runs its
//!   body's final attempt as **one atomic step** (enabled only while every
//!   stripe it touches is unlocked), drawing its version as a commit does.
//!   The runtime has no such mode — it retries forever — but the model
//!   needs one so every body commits in every terminal state and the DFS
//!   terminates.
//!
//! Stripes map as `loc % stripes` instead of the runtime's Fibonacci
//! hash, for the same reason the TLE model indexes orecs transparently:
//! configurations can then pin down aliasing exactly.

use super::machine::{validate_programs, AttemptLog, Machine, Op, Val};
use super::oracle::{CommitPath, Committed};

/// A closed TL2 model configuration.
#[derive(Debug, Clone)]
pub struct Tl2Config {
    /// Display name (reports and violation messages).
    pub name: String,
    /// Per-thread programs: the transaction bodies each thread runs in
    /// order, each to commit (at most 8 bodies in all — the oracle tries
    /// every serial order). [`Op`]/[`Val`] are shared with the TLE machine.
    pub threads: Vec<Vec<Vec<Op>>>,
    /// Number of data locations (all start at 0).
    pub nloc: u8,
    /// Number of version-lock stripes (addresses map as `loc % stripes`).
    pub stripes: u8,
    /// Aborts of one body before its final attempt runs as one atomic step.
    pub max_attempts: u8,
    /// Skip commit-time read-set revalidation — the seeded stale-read bug.
    /// Never set in the safe suite.
    pub stale_read_mutant: bool,
    /// Carry the drawn `wv` as the next `rv` instead of the clock sample —
    /// the seeded carried-`wv` bug. Never set in the safe suite.
    pub carry_wv_mutant: bool,
    /// The step order of a snapshot extension: the runtime's, or the
    /// seeded bug's.
    pub extension: Extension,
}

/// The step order of a snapshot extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extension {
    /// Raise the clock, then revalidate the read set (the runtime).
    SampleFirst,
    /// Revalidate, then raise — the seeded bug. Never in the safe suite.
    ValidateFirst,
}

impl Tl2Config {
    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.threads.iter().all(|bodies| !bodies.is_empty()));
        let bodies: Vec<&[Op]> = self.threads.iter().flatten().map(|b| &b[..]).collect();
        validate_programs(bodies.into_iter(), self.nloc);
        assert!(self.stripes >= 1);
    }

    fn stripe_of(&self, loc: u8) -> u8 {
        loc % self.stripes
    }

    /// Thread `t`'s body `body`.
    fn body(&self, t: usize, body: u8) -> &[Op] {
        &self.threads[t][body as usize]
    }

    /// Where thread `t`'s body `body` commits in the history: threads in
    /// order, each one's bodies in program order.
    fn slot(&self, t: usize, body: u8) -> usize {
        self.threads[..t].iter().map(Vec::len).sum::<usize>() + body as usize
    }

    /// Every stripe a body can touch (atomic-fallback enabledness).
    fn footprint_stripes(&self, t: usize, body: u8) -> Vec<u8> {
        let mut s: Vec<u8> = self
            .body(t, body)
            .iter()
            .map(|op| self.stripe_of(op.loc()))
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Where a TL2 thread is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// The first body's `rv`: the clock as the thread last observed it.
    Begin,
    /// Execute op `i` (read barrier or write buffering).
    Op(u8),
    /// Extension on behalf of op `i`: raise the clock to the stripe's
    /// version and take it as `rv`.
    ExtSample(u8),
    /// Extension on behalf of op `i`: revalidate the `j`-th read stripe.
    ExtValidate(u8, u8),
    /// Acquire the `k`-th sorted write stripe (enabled iff unlocked).
    LockStripe(u8),
    /// Sample the clock and draw `wv` past it and the held stripes.
    Draw,
    /// Validate the `j`-th read stripe against the old `rv`.
    Validate(u8),
    /// Apply the write buffer (all touched stripes held).
    WriteBack,
    /// Stamp every held stripe at `wv` and unlock.
    Release,
    /// Budget exhausted: run the whole body as one atomic step (enabled
    /// iff every footprint stripe is unlocked).
    Atomic,
    /// Every body committed.
    Done,
}

/// Per-thread dynamic state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Thread {
    phase: Phase,
    /// The body being run.
    body: u8,
    attempts: u8,
    /// Read-version: the clock from `Begin`, raised by extension, replaced
    /// by the clock sample at each draw, carried across attempts and
    /// bodies.
    rv: u64,
    /// What validation checks against while `rv` already holds the newer
    /// value: during an extension the `rv` before the raise, during a
    /// commit the `rv` before the draw — as in the runtime.
    old_rv: u64,
    /// Commit version from `Draw`.
    wv: u64,
    /// Write stripes and version of the last writing commit: the own-write
    /// exemption.
    own: Vec<u8>,
    own_wv: u64,
    /// Stripes subscribed by the read barrier (insertion order, deduped).
    read_stripes: Vec<u8>,
    /// Sorted, deduplicated write stripes (computed entering commit).
    write_stripes: Vec<u8>,
    /// Write buffer, access log and last-read values of the attempt.
    log: AttemptLog,
}

impl Thread {
    fn new(nloc: u8) -> Self {
        Thread {
            phase: Phase::Begin,
            body: 0,
            attempts: 0,
            rv: 0,
            old_rv: 0,
            wv: 0,
            own: Vec::new(),
            own_wv: 0,
            read_stripes: Vec::new(),
            write_stripes: Vec::new(),
            log: AttemptLog::new(nloc),
        }
    }

    /// Forgets the attempt; `rv` and the own-write exemption carry over.
    fn reset_attempt(&mut self) {
        self.old_rv = 0;
        self.wv = 0;
        self.read_stripes.clear();
        self.write_stripes.clear();
        self.log.reset();
    }

    /// Whether stripe `s` at `version` counts as newer than `rv`: it is,
    /// and it is not this thread's own last write.
    fn is_newer(&self, s: u8, version: u64, rv: u64) -> bool {
        version > rv && !(version == self.own_wv && self.own.contains(&s))
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
    /// Global version clock; always even, written only by extension.
    clock: u64,
    threads: Vec<Thread>,
    /// One slot per body ([`Tl2Config::slot`]).
    committed: Vec<Option<Committed>>,
}

impl Machine for Tl2State {
    type Config = Tl2Config;
    /// Read-only / writer / atomic-fallback commits.
    const PATH_LABELS: &'static str = "ro/wr/atomic";

    fn name(cfg: &Tl2Config) -> &str {
        &cfg.name
    }

    fn threads(cfg: &Tl2Config) -> usize {
        cfg.threads.len()
    }

    /// TL2 writers take more commit steps than TLE threads, hence the
    /// larger slack.
    fn horizon_hint(cfg: &Tl2Config) -> u64 {
        cfg.threads
            .iter()
            .flatten()
            .map(|b| b.len() as u64 + 6)
            .sum()
    }

    /// Initial state for `cfg`: all locations 0, clock 0, every thread at
    /// `Phase::Begin`.
    fn initial(cfg: &Tl2Config) -> Self {
        cfg.validate();
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
            committed: vec![None; cfg.threads.iter().map(Vec::len).sum()],
        }
    }

    fn data(&self) -> &[u64] {
        &self.data
    }

    fn committed(&self) -> &[Option<Committed>] {
        &self.committed
    }

    fn terminal(&self) -> bool {
        self.threads.iter().all(|t| t.phase == Phase::Done)
    }

    fn invariant_violation(&self) -> Option<String> {
        if let Some(s) = self.stripes.iter().position(|s| s.owner.is_some()) {
            return Some(format!("terminal state with stripe {s} still locked"));
        }
        if !self.clock.is_multiple_of(2) {
            return Some(format!("terminal state with odd clock {}", self.clock));
        }
        if let Some(b) = self.committed.iter().position(|c| c.is_none()) {
            return Some(format!("body {b} finished without committing"));
        }
        None
    }

    /// A thread spinning on a held stripe (lock acquisition or the atomic
    /// fallback) is disabled, like the runtime's bounded TATAS spin.
    fn enabled(&self, cfg: &Tl2Config, t: usize) -> bool {
        let th = &self.threads[t];
        match th.phase {
            Phase::Done => false,
            Phase::LockStripe(k) => self.stripes[th.write_stripes[k as usize] as usize]
                .owner
                .is_none(),
            Phase::Atomic => cfg
                .footprint_stripes(t, th.body)
                .iter()
                .all(|&s| self.stripes[s as usize].owner.is_none()),
            _ => true,
        }
    }

    fn step(&mut self, cfg: &Tl2Config, t: usize) {
        debug_assert!(self.enabled(cfg, t));
        let ops = cfg.body(t, self.threads[t].body);
        match self.threads[t].phase {
            Phase::Done => unreachable!("done threads are never enabled"),

            Phase::Begin => {
                self.threads[t].rv = self.clock;
                self.start_body(cfg, t);
            }

            Phase::Op(i) => {
                let op = ops[i as usize];
                match op {
                    Op::Read(loc) => {
                        let v = match self.threads[t].log.buffered(loc) {
                            Some(v) => v, // read-own-write, no barrier
                            None => {
                                let s = cfg.stripe_of(loc);
                                let stripe = self.stripes[s as usize];
                                let th = &mut self.threads[t];
                                if stripe.owner.is_some() {
                                    return self.abort_with_budget(cfg, t);
                                }
                                if th.is_newer(s, stripe.version, th.rv) {
                                    th.phase = match cfg.extension {
                                        Extension::ValidateFirst if !th.read_stripes.is_empty() => {
                                            Phase::ExtValidate(i, 0)
                                        }
                                        _ => Phase::ExtSample(i),
                                    };
                                    return;
                                }
                                if !th.read_stripes.contains(&s) {
                                    th.read_stripes.push(s);
                                }
                                self.data[loc as usize]
                            }
                        };
                        self.threads[t].log.read(loc, v);
                    }
                    Op::Write(loc, val) => self.threads[t].log.write_buffered(loc, val),
                }
                // Advance past the op just executed.
                let th = &mut self.threads[t];
                if (i as usize + 1) < ops.len() {
                    th.phase = Phase::Op(i + 1);
                } else if th.log.writes().is_empty() {
                    // Read-only: every read was validated against rv at
                    // read time; the transaction serializes at its begin
                    // point with no commit-time work (the runtime's
                    // read-only early return).
                    self.commit(cfg, t, CommitPath::Fast);
                } else {
                    let mut ws: Vec<u8> = th
                        .log
                        .writes()
                        .iter()
                        .map(|&(l, _)| cfg.stripe_of(l))
                        .collect();
                    ws.sort_unstable();
                    ws.dedup();
                    th.write_stripes = ws;
                    th.phase = Phase::LockStripe(0);
                }
            }

            Phase::ExtSample(i) => {
                // The clock's only writer: raise it to the stripe's version.
                let s = cfg.stripe_of(ops[i as usize].loc());
                self.clock = self.clock.max(self.stripes[s as usize].version);
                let clock = self.clock;
                let th = &mut self.threads[t];
                th.old_rv = std::mem::replace(&mut th.rv, clock);
                th.phase = match cfg.extension {
                    Extension::SampleFirst if !th.read_stripes.is_empty() => {
                        Phase::ExtValidate(i, 0)
                    }
                    // Nothing (left) to revalidate: the snapshot is extended.
                    _ => {
                        th.old_rv = 0;
                        Phase::Op(i)
                    }
                };
            }

            Phase::ExtValidate(i, j) => {
                let th = &self.threads[t];
                let s = th.read_stripes[j as usize];
                let stripe = self.stripes[s as usize];
                let against = match cfg.extension {
                    Extension::SampleFirst => th.old_rv,
                    Extension::ValidateFirst => th.rv,
                };
                if stripe.owner.is_some() || th.is_newer(s, stripe.version, against) {
                    return self.abort_with_budget(cfg, t);
                }
                let th = &mut self.threads[t];
                th.phase = if (j as usize + 1) < th.read_stripes.len() {
                    Phase::ExtValidate(i, j + 1)
                } else if cfg.extension == Extension::ValidateFirst {
                    Phase::ExtSample(i)
                } else {
                    th.old_rv = 0;
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
                    Phase::Draw
                };
            }

            Phase::Draw => {
                let now = self.clock;
                let wv = self.draw(&self.threads[t].write_stripes);
                let th = &mut self.threads[t];
                th.wv = wv;
                // The runtime carries the sample; the seeded mutant the
                // version it drew.
                let carried = if cfg.carry_wv_mutant { wv } else { now };
                th.old_rv = std::mem::replace(&mut th.rv, carried);
                // Validation is skipped only when there is nothing to
                // validate — or by the seeded mutant, which is exactly the
                // bug the oracle must then catch.
                let skip = cfg.stale_read_mutant || th.read_stripes.is_empty();
                th.phase = if skip {
                    Phase::WriteBack
                } else {
                    Phase::Validate(0)
                };
            }

            Phase::Validate(j) => {
                let th = &self.threads[t];
                let s = th.read_stripes[j as usize];
                let stripe = self.stripes[s as usize];
                // Stripes we hold ourselves were checked at their pre-lock
                // version — which is still `stripe.version`, since the
                // model keeps versions unchanged until release.
                let locked_by_other = stripe.owner.is_some_and(|o| o != t as u8);
                if locked_by_other || th.is_newer(s, stripe.version, th.old_rv) {
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
                for &(loc, v) in self.threads[t].log.writes() {
                    self.data[loc as usize] = v;
                }
                self.threads[t].phase = Phase::Release;
            }

            Phase::Release => {
                let th = &mut self.threads[t];
                for &s in &th.write_stripes {
                    let st = &mut self.stripes[s as usize];
                    debug_assert_eq!(st.owner, Some(t as u8));
                    st.version = th.wv;
                    st.owner = None;
                }
                th.own.clone_from(&th.write_stripes);
                th.own_wv = th.wv;
                self.commit(cfg, t, CommitPath::Slow);
            }

            Phase::Atomic => {
                // Budget exhausted: the whole body in one step, stripes
                // guaranteed free by enabledness.
                for &op in ops {
                    let th = &mut self.threads[t];
                    match op {
                        Op::Read(loc) => th.log.read(loc, self.data[loc as usize]),
                        Op::Write(loc, val) => {
                            self.data[loc as usize] = th.log.write_through(loc, val);
                            let s = cfg.stripe_of(loc);
                            if !th.write_stripes.contains(&s) {
                                th.write_stripes.push(s);
                            }
                        }
                    }
                }
                if !self.threads[t].write_stripes.is_empty() {
                    let now = self.clock;
                    let wv = self.draw(&self.threads[t].write_stripes);
                    let th = &mut self.threads[t];
                    for &s in &th.write_stripes {
                        self.stripes[s as usize].version = wv;
                    }
                    th.rv = now;
                    th.own.clone_from(&th.write_stripes);
                    th.own_wv = wv;
                }
                self.commit(cfg, t, CommitPath::Lock);
            }
        }
    }
}

impl Tl2State {
    /// `wv` for the held `stripes`: two past the newer of the clock and
    /// their versions. The clock is not written.
    fn draw(&self, stripes: &[u8]) -> u64 {
        stripes
            .iter()
            .map(|&s| self.stripes[s as usize].version)
            .fold(self.clock, u64::max)
            + 2
    }

    /// Starts thread `t`'s current body at the `rv` it holds.
    fn start_body(&mut self, cfg: &Tl2Config, t: usize) {
        if cfg.body(t, self.threads[t].body).is_empty() {
            // Empty body: a read-only no-op commit.
            self.commit(cfg, t, CommitPath::Fast);
        } else {
            self.threads[t].phase = Phase::Op(0);
        }
    }

    /// Books thread `t`'s current body and moves on to its next, if any.
    fn commit(&mut self, cfg: &Tl2Config, t: usize, path: CommitPath) {
        let th = &mut self.threads[t];
        self.committed[cfg.slot(t, th.body)] = Some(th.log.commit(t, path));
        th.reset_attempt();
        th.attempts = 0;
        if (th.body as usize + 1) < cfg.threads[t].len() {
            th.body += 1;
            self.start_body(cfg, t);
        } else {
            // Nothing carries past the last body: done threads compare equal.
            *th = Thread {
                phase: Phase::Done,
                ..Thread::new(cfg.nloc)
            };
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
        // The retry does not sample again: it carries the `rv` the attempt
        // left — its last extension's clock, or its draw's clock sample.
        th.reset_attempt();
        th.phase = if th.attempts >= cfg.max_attempts {
            Phase::Atomic
        } else {
            Phase::Op(0)
        };
    }
}

fn inc(loc: u8) -> Vec<Op> {
    vec![Op::Read(loc), Op::Write(loc, Val::LastReadPlus(loc, 1))]
}

/// The extension workload: a scanner of the pair `(x, y)`, a writer of the
/// whole pair, and a writer of `y` alone. The lone `y` write is what makes
/// the scanner's second read meet a newer stripe *before* the pair writer
/// commits — the window in which a validate-first extension goes wrong.
fn extension_pair(name: &str, extension: Extension) -> Tl2Config {
    Tl2Config {
        name: name.into(),
        threads: vec![
            vec![vec![Op::Write(1, Val::Const(5))]],
            vec![vec![
                Op::Write(0, Val::Const(1)),
                Op::Write(1, Val::Const(1)),
            ]],
            vec![vec![Op::Read(0), Op::Read(1)]],
        ],
        nloc: 2,
        stripes: 2,
        max_attempts: 1,
        stale_read_mutant: false,
        carry_wv_mutant: false,
        extension,
    }
}

/// The carried-`rv` workload: a thread writes `x`, then increments `y`,
/// racing a lone incrementer of `y`. The incrementer draws the very
/// version the first thread's write of `x` drew, so a carried `wv` takes
/// its commit to `y` for one already seen.
fn carried_rv(name: &str, carry_wv_mutant: bool) -> Tl2Config {
    Tl2Config {
        name: name.into(),
        threads: vec![
            vec![vec![Op::Write(0, Val::Const(1))], inc(1)],
            vec![inc(1)],
        ],
        nloc: 2,
        stripes: 2,
        max_attempts: 2,
        stale_read_mutant: false,
        carry_wv_mutant,
        extension: Extension::SampleFirst,
    }
}

/// Safe configurations: the explorer must find **zero** violations in
/// every one, over every interleaving — six workloads, named
/// `swhtm-<workload>`, and the extension mutant's own workload with the
/// steps in the right order.
pub fn tl2_suite() -> Vec<Tl2Config> {
    let cfg = |name: &str, threads: Vec<Vec<Vec<Op>>>, nloc, stripes, max_attempts| Tl2Config {
        name: format!("swhtm-{name}"),
        threads,
        nloc,
        stripes,
        max_attempts,
        stale_read_mutant: false,
        carry_wv_mutant: false,
        extension: Extension::SampleFirst,
    };
    vec![
        // Incrementers on one counter, the first one twice: commit-time
        // revalidation carries the correctness burden, and the second
        // increment reads the first one's stripe under the own-write
        // exemption; the oracle additionally rules out lost updates.
        cfg("counter", vec![vec![inc(0), inc(0)], vec![inc(0)]], 1, 2, 2),
        // Writer of the invariant pair vs a read-only scanner: the read
        // barrier must never let the scanner observe x=1, y=0.
        cfg(
            "invariant-pair",
            vec![
                vec![vec![
                    Op::Write(0, Val::Const(1)),
                    Op::Write(1, Val::Const(1)),
                ]],
                vec![vec![Op::Read(0), Op::Read(1)]],
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
                vec![vec![Op::Read(0), Op::Write(1, Val::LastReadPlus(0, 1))]],
                vec![vec![Op::Read(1), Op::Write(0, Val::LastReadPlus(1, 1))]],
            ],
            2,
            2,
            2,
        ),
        // Every location aliases one stripe: false conflicts must cost
        // retries, never correctness (the runtime's `with_stripes(1)`).
        cfg("aliased-stripes", vec![vec![inc(0)], vec![inc(1)]], 2, 1, 2),
        // Three threads: two disjoint writers (distinct stripes — they
        // may hold their locks concurrently) and a scanner across both.
        cfg(
            "3thread-disjoint",
            vec![
                vec![vec![Op::Write(0, Val::Const(1))]],
                vec![vec![Op::Write(1, Val::Const(2))]],
                vec![vec![Op::Read(0), Op::Read(1)]],
            ],
            2,
            2,
            1,
        ),
        carried_rv("swhtm-carried-rv", false),
        extension_pair("swhtm-extension-pair", Extension::SampleFirst),
    ]
}

/// The seeded TL2 bug: skip read-set revalidation. Two incrementers then
/// race to the classic lost update — the explorer must report a
/// non-serializable history, mirroring the `tle-lazyunsafe-mutant`
/// contract. (The name is the one the runtime's cargo feature, tier-1 and
/// the fuzz corpus key on.)
pub fn tl2_mutant_config() -> Tl2Config {
    Tl2Config {
        name: "tl2-stale-read-mutant".into(),
        threads: vec![vec![inc(0)], vec![inc(0)]],
        nloc: 1,
        stripes: 2,
        max_attempts: 2,
        stale_read_mutant: true,
        carry_wv_mutant: false,
        extension: Extension::SampleFirst,
    }
}

/// The seeded extension bug: revalidate the read set, *then* raise the
/// clock. The pair writer commits between the two, the scanner's snapshot
/// jumps past it unchecked, and the scanner commits old `x` with new `y` —
/// the explorer must report a non-serializable history.
pub fn swhtm_mutant_config() -> Tl2Config {
    extension_pair("swhtm-validate-first-mutant", Extension::ValidateFirst)
}

/// The seeded carried-`wv` bug: a commit carries the version it drew
/// instead of its clock sample. On the carried-`rv` workload the lone
/// incrementer releases `y` at the version the other thread carried, that
/// thread's increment of `y` validates against it, and one increment is
/// lost — the explorer must report a non-serializable history.
pub fn carry_wv_mutant_config() -> Tl2Config {
    carried_rv("swhtm-carry-wv-mutant", true)
}

#[cfg(test)]
mod tests {
    use super::super::explore::explore;
    use super::*;

    #[test]
    fn suite_is_clean() {
        for cfg in tl2_suite() {
            let r = explore::<Tl2State>(&cfg);
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
        let r = explore::<Tl2State>(cfg);
        assert!(r.slow_commit_terminals > 0, "writer commits must appear");
        assert!(
            r.lock_commit_terminals > 0,
            "the budget-exhausted atomic fallback must be reachable"
        );
    }

    #[test]
    fn invariant_pair_has_read_only_commits() {
        let r = explore::<Tl2State>(&tl2_suite()[1]);
        assert!(r.fast_commit_terminals > 0, "read-only commits must appear");
        assert!(r.clean());
    }

    #[test]
    fn mutant_is_caught_as_non_serializable() {
        let r = explore::<Tl2State>(&tl2_mutant_config());
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
        let r = explore::<Tl2State>(&cfg);
        assert!(
            r.clean(),
            "fixed config must be clean: {:?}",
            r.violations.first()
        );
    }

    #[test]
    fn carried_wv_is_caught_as_a_lost_update() {
        let r = explore::<Tl2State>(&carry_wv_mutant_config());
        assert!(
            r.violations.iter().any(|v| v.kind == "non-serializable"),
            "carrying wv must lose an increment; report: {r:?}"
        );
        // Its workload carrying the sample is in the safe suite.
        assert!(tl2_suite().iter().any(|c| c.name == "swhtm-carried-rv"));
    }

    #[test]
    fn the_carried_rv_workload_needs_its_second_body() {
        // With the first thread's write of `x` gone, nothing is carried
        // and the mutant is harmless: the bug needs the body before.
        let mut cfg = carry_wv_mutant_config();
        cfg.threads[0].remove(0);
        let r = explore::<Tl2State>(&cfg);
        assert!(r.clean(), "{:?}", r.violations.first());
    }

    #[test]
    fn extension_mutant_is_caught_as_a_zombie_read() {
        let r = explore::<Tl2State>(&swhtm_mutant_config());
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
        let r = explore::<Tl2State>(&extension_pair(
            "swhtm-extension-fixed",
            Extension::SampleFirst,
        ));
        assert!(
            r.clean(),
            "sample-first must be clean: {:?}",
            r.violations.first()
        );
        assert!(r.fast_commit_terminals > 0);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let bad = |threads: Vec<Vec<Vec<Op>>>| Tl2Config {
            name: "bad".into(),
            threads,
            nloc: 1,
            stripes: 1,
            max_attempts: 1,
            stale_read_mutant: false,
            carry_wv_mutant: false,
            extension: Extension::SampleFirst,
        };
        assert!(
            std::panic::catch_unwind(|| bad(vec![vec![vec![Op::Read(5)]]]).validate()).is_err()
        );
        assert!(
            std::panic::catch_unwind(|| bad(vec![vec![]]).validate()).is_err(),
            "no body"
        );
    }
}
