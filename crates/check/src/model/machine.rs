//! The machine interface, and what every protocol machine shares.
//!
//! A protocol model is a type implementing [`Machine`]: a global state
//! that can say which threads may step, step one of them, and — once
//! every thread is done — hand over its final memory and committed
//! history. Everything that *drives* a machine is written once against
//! this trait: the exhaustive explorer and the terminal judge in
//! [`super::explore`](mod@super::explore), and `rtle-fuzz`'s PCT runner, replay, shrinker and
//! hunt. A new machine (the x86-TSO store-buffer model, say) is one
//! `impl Machine` and inherits all of them.
//!
//! The thread programs ([`Op`], [`Val`]) and the per-attempt bookkeeping
//! ([`AttemptLog`]: write buffer, access log, last-read values) are the
//! same for every transactional protocol, so they live here too.

use std::hash::Hash;

use super::oracle::{CommitPath, Committed, HOp};

/// A small-step protocol model over `Config`'s closed thread programs.
///
/// Contract the drivers rely on: all data locations start at 0; every
/// thread commits each of its critical sections as one [`Committed`]
/// entry, listed in the order it ran them; `step` is
/// deterministic; and a state with no enabled thread is either
/// [`terminal`](Machine::terminal) or a modeling bug (`stuck`).
pub trait Machine: Clone + Eq + Hash {
    /// The closed configuration a run starts from.
    type Config;
    /// How reports label the three [`CommitPath`]s, in `Fast/Slow/Lock`
    /// order (`"f/s/l"`, `"ro/wr/atomic"`).
    const PATH_LABELS: &'static str;

    /// Display name of `cfg` (reports and witnesses).
    fn name(cfg: &Self::Config) -> &str;
    /// Number of threads.
    fn threads(cfg: &Self::Config) -> usize;
    /// A crude static estimate of one run's length in steps — PCT's first
    /// change-point horizon, before observed lengths take over.
    fn horizon_hint(cfg: &Self::Config) -> u64;
    /// The initial state. Panics if `cfg` is internally inconsistent.
    fn initial(cfg: &Self::Config) -> Self;
    /// Is thread `t` able to take a step? Disabled threads model spin-waits.
    fn enabled(&self, cfg: &Self::Config, t: usize) -> bool;
    /// Executes one step of thread `t`, which must be enabled.
    fn step(&mut self, cfg: &Self::Config, t: usize);
    /// All threads done?
    fn terminal(&self) -> bool;
    /// Structural invariants that must hold in a terminal state; a
    /// human-readable complaint on violation.
    fn invariant_violation(&self) -> Option<String>;
    /// Shared data memory (judged in terminal states).
    fn data(&self) -> &[u64];
    /// The committed history, one entry per critical section, each
    /// thread's in program order (all present in a valid terminal state).
    fn committed(&self) -> &[Option<Committed>];

    /// The threads able to step, lowest id first.
    fn enabled_threads(&self, cfg: &Self::Config) -> Vec<usize> {
        (0..Self::threads(cfg))
            .filter(|&t| self.enabled(cfg, t))
            .collect()
    }
}

/// Value written by an [`Op::Write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Val {
    /// A constant.
    Const(u64),
    /// `k` plus the last value this thread read from `loc` in the same
    /// attempt. The program must read `loc` earlier.
    LastReadPlus(u8, u64),
}

/// One operation of a thread's critical-section program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read data location `loc`.
    Read(u8),
    /// Write `val` to data location `loc`.
    Write(u8, Val),
}

impl Op {
    /// Is this a write?
    pub fn is_write(self) -> bool {
        matches!(self, Op::Write(..))
    }

    /// The location accessed.
    pub fn loc(self) -> u8 {
        match self {
            Op::Read(l) | Op::Write(l, _) => l,
        }
    }
}

/// Panics unless `programs` is 1–8 thread bodies over `nloc` locations in
/// which every [`Val::LastReadPlus`] follows a read of its location.
///
/// Up to 8 threads are accepted: the exhaustive explorer stays at 2–3
/// (state-space limits), while `rtle-fuzz`'s randomized PCT scheduler
/// drives the same machines at 4–8.
pub fn validate_programs<'a>(programs: impl ExactSizeIterator<Item = &'a [Op]>, nloc: u8) {
    assert!((1..=8).contains(&programs.len()));
    for ops in programs {
        let mut seen = vec![false; nloc as usize];
        for op in ops {
            assert!(op.loc() < nloc, "loc out of range");
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

/// What one attempt at a critical section has buffered and observed;
/// every machine's per-thread state embeds one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttemptLog {
    /// Speculative write buffer, last-write-wins per location, published
    /// at commit.
    wbuf: Vec<(u8, u64)>,
    /// Data reads/writes of the current attempt, in program order.
    ops_log: Vec<HOp>,
    /// Last value read per location (for [`Val::LastReadPlus`]).
    last_read: Vec<Option<u64>>,
}

impl AttemptLog {
    /// An empty log over `nloc` locations.
    pub fn new(nloc: u8) -> Self {
        AttemptLog {
            wbuf: Vec::new(),
            ops_log: Vec::new(),
            last_read: vec![None; nloc as usize],
        }
    }

    /// Forgets the attempt (abort, or a fresh start).
    pub fn reset(&mut self) {
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
                self.last_read[loc as usize].expect("config validated: LastReadPlus follows a read")
                    + k
            }
        }
    }

    /// The buffered writes, in first-write order.
    pub fn writes(&self) -> &[(u8, u64)] {
        &self.wbuf
    }

    /// This attempt's own buffered write to `loc`, if any (a read must
    /// observe it instead of memory).
    pub fn buffered(&self, loc: u8) -> Option<u64> {
        self.wbuf.iter().find(|&&(l, _)| l == loc).map(|&(_, v)| v)
    }

    /// Logs a read of `loc` that observed `v`.
    pub fn read(&mut self, loc: u8, v: u64) {
        self.last_read[loc as usize] = Some(v);
        self.ops_log.push(HOp::Read(loc, v));
    }

    /// Logs a speculative write: buffered until commit.
    pub fn write_buffered(&mut self, loc: u8, val: Val) {
        let v = self.write_through(loc, val);
        match self.wbuf.iter_mut().find(|(l, _)| *l == loc) {
            Some(slot) => slot.1 = v,
            None => self.wbuf.push((loc, v)),
        }
    }

    /// Logs a pessimistic write and returns the value to store now.
    pub fn write_through(&mut self, loc: u8, val: Val) -> u64 {
        let v = self.eval(val);
        self.ops_log.push(HOp::Write(loc, v));
        v
    }

    /// Hands the access log over as thread `t`'s committed critical
    /// section; the caller resets the attempt.
    pub fn commit(&mut self, t: usize, path: CommitPath) -> Committed {
        Committed {
            thread: t as u8,
            path,
            ops: std::mem::take(&mut self.ops_log),
        }
    }
}
