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
//!   and a retry does not pass through `Begin` again: it carries over the
//!   `rv` of the aborted attempt (its last extension sample or drawn `wv`).
//!   (`rtle_hytm::Tl2`'s fresh sample at every begin is a carried-over `rv`
//!   plus an extension over an empty read set.)
//! * The **read barrier** is modeled as one atomic step per read: abort
//!   if the stripe is locked, extend the snapshot if its version is newer
//!   than `rv`, else load and log. The runtime's check/load/recheck
//!   sequence is exactly an implementation of this atomic load —
//!   collapsing it loses no behavior of *successful* reads, and failed
//!   reads abort either way.
//! * **Snapshot extension.** A read that meets an unlocked stripe newer
//!   than `rv` does not abort: it samples the clock (one step), revalidates
//!   the read set stripe by stripe against the old `rv` (one step each),
//!   advances `rv` to the sample and re-runs the read.
//!   [`Extension::ValidateFirst`] is the seeded bug — revalidate, *then*
//!   sample — which lets a writer commit between the two and land inside
//!   the new snapshot unchecked; the oracle must catch the zombie read.
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
//!   runtime's `Table::commit` (feature of `rtle-htm`; tier-1 runs a
//!   storm of each instance under it). The serializability oracle must
//!   flag the resulting lost updates; if it ever stops doing so, the
//!   oracle has regressed.
//! * A thread that exhausts [`Tl2Config::max_attempts`] aborts runs its
//!   final attempt as **one atomic step** (enabled only while every
//!   stripe it touches is unlocked). The runtime has no such mode — it
//!   retries forever — but the model needs one so every thread commits
//!   in every terminal state while the clock (which aborted commits
//!   still advance, exactly like the runtime's `fetch_add`) stays
//!   bounded and the DFS terminates.
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
    /// The step order of a snapshot extension: the runtime's, or the
    /// seeded bug's.
    pub extension: Extension,
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
    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self) {
        validate_programs(self.threads.iter().map(|ops| &ops[..]), self.nloc);
        assert!(self.stripes >= 1);
    }

    fn stripe_of(&self, loc: u8) -> u8 {
        loc % self.stripes
    }

    /// Every stripe thread `t`'s body can touch (atomic-fallback
    /// enabledness).
    fn footprint_stripes(&self, t: usize) -> Vec<u8> {
        let mut s: Vec<u8> = self.threads[t]
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
    /// The first attempt's `rv`: the clock as the thread last observed it.
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
    /// Write buffer, access log and last-read values of the attempt.
    log: AttemptLog,
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
            log: AttemptLog::new(nloc),
        }
    }

    fn reset_attempt(&mut self) {
        self.rv = 0;
        self.ext_rv = 0;
        self.wv = 0;
        self.read_stripes.clear();
        self.write_stripes.clear();
        self.log.reset();
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
        cfg.threads.iter().map(|t| t.len() as u64 + 6).sum()
    }

    /// Initial state for `cfg`: all locations 0, clock 0, every thread at
    /// [`Phase::Begin`].
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
            committed: vec![None; cfg.threads.len()],
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
        if let Some(t) = self.committed.iter().position(|c| c.is_none()) {
            return Some(format!("thread {t} finished without committing"));
        }
        None
    }

    /// A thread spinning on a held stripe (lock acquisition or the atomic
    /// fallback) is disabled, like the runtime's bounded TATAS spin.
    fn enabled(&self, cfg: &Tl2Config, t: usize) -> bool {
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

    fn step(&mut self, cfg: &Tl2Config, t: usize) {
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
                        let v = match self.threads[t].log.buffered(loc) {
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
                                        Extension::ValidateFirst if !th.read_stripes.is_empty() => {
                                            Phase::ExtValidate(i, 0)
                                        }
                                        _ => Phase::ExtSample(i),
                                    };
                                    return;
                                }
                                if !self.threads[t].read_stripes.contains(&s) {
                                    self.threads[t].read_stripes.push(s);
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
                    // `is_read_only` early return).
                    self.commit(t, CommitPath::Fast);
                } else {
                    let mut ws: Vec<u8> =
                        th.log.writes().iter().map(|&(l, _)| cfg.stripe_of(l)).collect();
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
                    Extension::SampleFirst if !th.read_stripes.is_empty() => {
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
                    Extension::SampleFirst => th.ext_rv,
                    Extension::ValidateFirst => th.rv,
                };
                if stripe.owner.is_some() || stripe.version > against {
                    return self.abort_with_budget(cfg, t);
                }
                let th = &mut self.threads[t];
                th.phase = if (j as usize + 1) < th.read_stripes.len() {
                    Phase::ExtValidate(i, j + 1)
                } else if cfg.extension == Extension::ValidateFirst {
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
                for &(loc, v) in self.threads[t].log.writes() {
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
                        Op::Read(loc) => self.threads[t].log.read(loc, self.data[loc as usize]),
                        Op::Write(loc, val) => {
                            self.data[loc as usize] = self.threads[t].log.write_through(loc, val);
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
}

impl Tl2State {
    fn commit(&mut self, t: usize, path: CommitPath) {
        let th = &mut self.threads[t];
        self.committed[t] = Some(th.log.commit(t, path));
        th.reset_attempt();
        th.phase = Phase::Done;
    }

    fn abort_with_budget(&mut self, cfg: &Tl2Config, t: usize) {
        for s in &mut self.stripes {
            if s.owner == Some(t as u8) {
                s.owner = None;
            }
        }
        let th = &mut self.threads[t];
        th.attempts += 1;
        // The retry does not sample again: it carries the latest clock
        // value the attempt saw — a drawn `wv`, else its (possibly
        // extended) `rv`.
        let carried = th.rv.max(th.wv);
        th.reset_attempt();
        th.phase = if th.attempts >= cfg.max_attempts {
            Phase::Atomic
        } else {
            th.rv = carried;
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
            vec![Op::Write(1, Val::Const(5))],
            vec![Op::Write(0, Val::Const(1)), Op::Write(1, Val::Const(1))],
            vec![Op::Read(0), Op::Read(1)],
        ],
        nloc: 2,
        stripes: 2,
        max_attempts: 1,
        stale_read_mutant: false,
        extension,
    }
}

/// Safe configurations: the explorer must find **zero** violations in
/// every one, over every interleaving — five workloads, named
/// `swhtm-<workload>`, and the extension mutant's own workload with the
/// steps in the right order.
pub fn tl2_suite() -> Vec<Tl2Config> {
    let cfg = |name: &str, threads: Vec<Vec<Op>>, nloc, stripes, max_attempts| Tl2Config {
        name: format!("swhtm-{name}"),
        threads,
        nloc,
        stripes,
        max_attempts,
        stale_read_mutant: false,
        extension: Extension::SampleFirst,
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
        extension_pair("swhtm-extension-pair", Extension::SampleFirst),
    ]
}

/// The seeded TL2 bug: skip read-set revalidation when the clock
/// advanced. Two incrementers then race to the classic lost update — the
/// explorer must report a non-serializable history, mirroring the
/// `tle-lazyunsafe-mutant` contract. (The name is the one the runtime's
/// cargo feature, tier-1 and the fuzz corpus key on.)
pub fn tl2_mutant_config() -> Tl2Config {
    Tl2Config {
        name: "tl2-stale-read-mutant".into(),
        threads: vec![inc(0), inc(0)],
        nloc: 1,
        stripes: 2,
        max_attempts: 2,
        stale_read_mutant: true,
        extension: Extension::SampleFirst,
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
        assert!(r.clean(), "fixed config must be clean: {:?}", r.violations.first());
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
        let r = explore::<Tl2State>(&extension_pair("swhtm-extension-fixed", Extension::SampleFirst));
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
            extension: Extension::SampleFirst,
        };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
    }
}
