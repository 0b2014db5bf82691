//! The execution context ([`Ctx`]) and its read/write barriers.
//!
//! In the paper, GCC compiles every critical section twice — an
//! uninstrumented *fast* path and an instrumented *slow* path whose every
//! shared access calls into a libitm-ABI library (§1). Here the critical
//! section is written once as a closure over a `Ctx`, and [`Ctx::read`] /
//! [`Ctx::write`] dispatch to the right barrier for the path being run:
//!
//! | mode        | RW-TLE                          | FG-TLE                              |
//! |-------------|---------------------------------|-------------------------------------|
//! | `FastHtm`   | plain access                    | plain access                        |
//! | `SlowHtm`   | writes self-abort (Fig. 2)      | orec checks before access (Fig. 3)  |
//! | `Lock`      | 1st write sets `write_flag`     | stamp orecs, `uniq_*` shortcut      |
//!
//! On the fourth path, `Stm`, every access delegates to the software
//! backend's own barriers.
//!
//! ("plain access" still goes through the HTM's own tracking when inside a
//! transaction — that is the hardware's job, not the instrumentation's.)

use std::cell::Cell;

use rtle_htm::{TxCell, TxWord};
use rtle_hytm::TmCtx;
use rtle_obs::{PathKind, RecordKind};

use crate::abort_codes;
use crate::elidable::Rec;
use crate::orec::{OrecKind, OrecTable};

/// Execution token passed to critical-section closures.
///
/// All shared accesses inside a critical section must go through
/// [`Ctx::read`] and [`Ctx::write`]; this is the contract the compiler
/// enforces in the paper's GCC-based setup and the type system encourages
/// here.
pub struct Ctx<'a>(pub(crate) Rung<'a>);

/// The rung of the ladder an execution runs on, carrying exactly the state
/// that rung's barriers need. Each variant is built by the one function
/// that enters the rung (`fast_attempt`, `slow_attempt`, `enter_locked`,
/// `software_attempt`), so a policy/path combination that cannot occur has
/// no representation.
pub(crate) enum Rung<'a> {
    /// Uninstrumented hardware transaction.
    Fast,
    /// RW-TLE slow path: reads are plain, writes self-abort (Figure 2).
    SlowRw,
    /// FG-TLE slow path: orec checks before every access (Figure 3).
    SlowFg {
        orecs: &'a OrecTable,
        /// Epoch snapshot taken before the transaction started.
        local_seq: u64,
        /// Active orec count, read transactionally so resizes doom
        /// in-flight transactions.
        n: usize,
    },
    /// Pessimistic execution holding the lock.
    Holder(Holder<'a>),
    /// Software transaction: accesses delegate to the backend's barriers.
    Software(&'a TmCtx<'a>),
}

/// The lock holder's instrumentation. The instrumented variants carry the
/// operation's `rec` when it is recorded, so protocol instants (write-flag
/// raise, epoch bump) land on the record timeline. Speculative rungs
/// never do: an instant recorded inside a transaction that later aborts
/// would be a lie.
pub(crate) enum Holder<'a> {
    /// Lock/TLE, and adaptive FG-TLE collapsed to plain TLE: none.
    Plain,
    /// RW-TLE: the first write raises `write_flag` (§3).
    Rw {
        write_flag: &'a TxCell<bool>,
        /// Whether this critical section raised the flag already.
        wrote: Cell<bool>,
        rec: Option<Rec<'a>>,
    },
    /// FG-TLE: stamp the orecs of every access with the holder's epoch.
    Fg {
        orecs: &'a OrecTable,
        /// The holding's epoch, the odd lock word its acquisition
        /// installed, stamped into acquired orecs.
        epoch_now: u64,
        n: usize,
        /// `uniq_r_orecs` / `uniq_w_orecs` (§4.2) — once all orecs are
        /// acquired the barrier becomes trivial.
        uniq_r: Cell<u32>,
        uniq_w: Cell<u32>,
        rec: Option<Rec<'a>>,
    },
}

impl Ctx<'_> {
    /// The path this execution runs on.
    #[inline]
    pub fn mode(&self) -> PathKind {
        match self.0 {
            Rung::Fast => PathKind::FastHtm,
            Rung::SlowRw | Rung::SlowFg { .. } => PathKind::SlowHtm,
            Rung::Software(_) => PathKind::Stm,
            Rung::Holder(_) => PathKind::Lock,
        }
    }

    /// Whether this execution is speculative (may abort and re-run).
    #[inline]
    pub fn is_speculative(&self) -> bool {
        !matches!(self.0, Rung::Holder(_))
    }

    /// Read barrier.
    #[inline]
    pub fn read<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        match self.0 {
            Rung::Fast => cell.read(),
            _ => self.read_instrumented(cell),
        }
    }

    /// Write barrier.
    #[inline]
    pub fn write<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        match self.0 {
            Rung::Fast => cell.write(value),
            _ => self.write_instrumented(cell, value),
        }
    }

    /// The read barrier of every rung but the fast one. Out of line, so
    /// the fast rung's access inlines at its call site; not `#[cold]`,
    /// because the slow rung and the holder run it on every access.
    #[inline(never)]
    fn read_instrumented<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        match &self.0 {
            // RW-TLE reads are uninstrumented on both sides.
            Rung::Fast | Rung::SlowRw | Rung::Holder(Holder::Plain | Holder::Rw { .. }) => {}
            Rung::SlowFg {
                orecs,
                local_seq,
                n,
            } => {
                // Figure 3, read_barrier, HTM side: abort if the write
                // orec is owned. The transactional orec read doubles as
                // a subscription (replacing the paper's fence argument).
                if let Some(slot) = orecs.read_conflict_slot(cell.addr(), *n, *local_seq) {
                    // Attribute, then abort: the abort unwinds at once,
                    // so every OREC_CONFLICT abort is attributed to
                    // exactly one slot (the heatmap invariant).
                    orecs.note_conflict(slot);
                    rtle_htm::abort(abort_codes::OREC_CONFLICT);
                }
            }
            Rung::Holder(Holder::Fg {
                orecs,
                epoch_now,
                n,
                uniq_r,
                ..
            }) => {
                // Figure 3, read_barrier, lock side, with the uniq
                // shortcut: stop hashing once every orec is owned.
                if (uniq_r.get() as usize) < *n
                    && orecs.stamp(OrecKind::Read, cell.addr(), *n, *epoch_now)
                {
                    uniq_r.set(uniq_r.get() + 1);
                }
            }
            Rung::Software(tm) => return tm.read(cell),
        }
        cell.read()
    }

    /// The write barrier of every rung but the fast one (see
    /// [`Ctx::read_instrumented`]).
    #[inline(never)]
    fn write_instrumented<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        match &self.0 {
            Rung::Fast | Rung::Holder(Holder::Plain) => {}
            // Figure 2: a slow-path transaction that needs to write cannot
            // commit under RW-TLE.
            Rung::SlowRw => rtle_htm::abort(abort_codes::RW_SLOW_WRITE),
            Rung::SlowFg {
                orecs,
                local_seq,
                n,
            } => {
                if let Some(slot) = orecs.write_conflict_slot(cell.addr(), *n, *local_seq) {
                    orecs.note_conflict(slot);
                    rtle_htm::abort(abort_codes::OREC_CONFLICT);
                }
            }
            Rung::Holder(Holder::Rw {
                write_flag,
                wrote,
                rec,
            }) => {
                // Figure 2, lock side: raise the write flag once. The plain
                // store dooms every subscribed slow-path transaction before
                // the data store below can be observed (the TSO argument of
                // §3, made explicit by the emulation's versioned stores).
                if !wrote.replace(true) {
                    write_flag.write(true);
                    if let Some(rc) = rec {
                        rc.instant(RecordKind::WriteFlagSet);
                    }
                }
            }
            Rung::Holder(Holder::Fg {
                orecs,
                epoch_now,
                n,
                uniq_w,
                ..
            }) => {
                if (uniq_w.get() as usize) < *n
                    && orecs.stamp(OrecKind::Write, cell.addr(), *n, *epoch_now)
                {
                    uniq_w.set(uniq_w.get() + 1);
                }
            }
            Rung::Software(tm) => return tm.write(cell, value),
        }
        cell.write(value);
    }

    /// Counters of distinct orecs acquired so far under the lock (§4.2's
    /// `uniq_r_orecs` / `uniq_w_orecs`); diagnostics.
    pub fn uniq_orecs(&self) -> (u32, u32) {
        match &self.0 {
            Rung::Holder(Holder::Fg { uniq_r, uniq_w, .. }) => (uniq_r.get(), uniq_w.get()),
            _ => (0, 0),
        }
    }

    /// The software backend driving a [`PathKind::Stm`] execution
    /// (`None` on hardware and lock paths).
    pub fn software_backend(&self) -> Option<&'static str> {
        match self.0 {
            Rung::Software(tm) => Some(tm.backend_name()),
            _ => None,
        }
    }
}

impl rtle_htm::TxAccess for Ctx<'_> {
    #[inline]
    fn load<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        self.read(cell)
    }

    #[inline]
    fn store<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        self.write(cell, value)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::policy::{ElisionPolicy, RetryPolicy};
    use crate::ElidableLock;

    /// Every test here obtains its `Ctx` from the ladder itself, never by
    /// building a `Rung` by hand, so each also checks *which* variant its
    /// policy × rung constructs: fast = `execute` on a free lock, holder =
    /// `lock_section`, slow = one `try_speculate` attempt while this thread
    /// holds the section guard, software = `execute` on a lock with a
    /// backend and a hardware-hostile critical section.
    fn variant(ctx: &Ctx<'_>) -> &'static str {
        match &ctx.0 {
            Rung::Fast => "Fast",
            Rung::SlowRw => "SlowRw",
            Rung::SlowFg { .. } => "SlowFg",
            Rung::Holder(Holder::Plain) => "Holder::Plain",
            Rung::Holder(Holder::Rw { .. }) => "Holder::Rw",
            Rung::Holder(Holder::Fg { .. }) => "Holder::Fg",
            Rung::Software(_) => "Software",
        }
    }

    /// A lock whose slow path gives up after one attempt, so a
    /// `try_speculate` against a held lock is exactly one slow attempt.
    fn lock(policy: ElisionPolicy) -> ElidableLock {
        ElidableLock::builder()
            .policy(policy)
            .retry(RetryPolicy {
                max_slow_attempts: Some(1),
                ..Default::default()
            })
            .build()
    }

    /// One 64-byte-aligned cache line of cells: all eight share an orec.
    #[repr(align(64))]
    struct Line([TxCell<u64>; 8]);

    fn lines(n: usize) -> Vec<Line> {
        (0..n)
            .map(|_| Line(std::array::from_fn(|_| TxCell::new(0))))
            .collect()
    }

    fn aborts(lock: &ElidableLock, code: u8) -> u64 {
        lock.stats().snapshot().aborts_by_code[code as usize]
    }

    /// Speculates `cs` on a second thread while the caller holds `l`'s
    /// section guard, expecting a *hopeless* slow abort with `code` — after
    /// which the speculator waits for the release, so it cannot share the
    /// holder's thread. Once the abort is counted, runs `release` (which
    /// drops the guard) and returns the speculator's (fast-path) result.
    fn hopeless_slow_attempt<R: Send>(
        l: &ElidableLock,
        code: u8,
        cs: impl Fn(&Ctx<'_>) -> R + Sync,
        release: impl FnOnce(),
    ) -> Option<R> {
        std::thread::scope(|s| {
            let speculator = s.spawn(|| l.try_speculate(&cs).ok());
            while aborts(l, code) == 0 {
                std::thread::yield_now();
            }
            release();
            speculator.join().expect("speculator panicked")
        })
    }

    #[test]
    fn each_policy_and_rung_constructs_its_variant() {
        const ADAPTIVE: ElisionPolicy = ElisionPolicy::AdaptiveFgTle {
            initial_orecs: 4,
            max_orecs: 16,
        };
        // (policy, execute on a free lock, slow attempt, holder)
        let table = [
            (
                ElisionPolicy::LockOnly,
                "Holder::Plain",
                None,
                "Holder::Plain",
            ),
            (ElisionPolicy::Tle, "Fast", None, "Holder::Plain"),
            (ElisionPolicy::RwTle, "Fast", Some("SlowRw"), "Holder::Rw"),
            (
                ElisionPolicy::FgTle { orecs: 4 },
                "Fast",
                Some("SlowFg"),
                "Holder::Fg",
            ),
            (ADAPTIVE, "Fast", Some("SlowFg"), "Holder::Fg"),
        ];
        for (policy, free, slow, holder) in table {
            let l = lock(policy);
            assert_eq!(l.execute(variant), free, "{}", policy.label());
            let g = l.lock_section();
            assert_eq!(variant(g.ctx()), holder, "{}", policy.label());
            assert_eq!(g.ctx().mode(), PathKind::Lock);
            assert!(!g.ctx().is_speculative());
            assert_eq!(policy.has_slow_path(), slow.is_some());
            if slow.is_some() {
                // (A policy without a slow path would wait for the guard.)
                let seen = l.try_speculate(|ctx| (variant(ctx), ctx.mode())).ok();
                assert_eq!(
                    seen,
                    slow.map(|v| (v, PathKind::SlowHtm)),
                    "{}",
                    policy.label()
                );
            }
            drop(g);

            // The software rung replaces the lock fallback on every
            // policy that speculates at all.
            let sw = ElidableLock::builder()
                .policy(policy)
                .with_software_backend(Arc::new(rtle_hytm::Norec::new()))
                .build();
            let seen = sw.execute(|ctx| {
                rtle_htm::htm_unfriendly_instruction();
                (variant(ctx), ctx.software_backend())
            });
            let expect = match policy {
                ElisionPolicy::LockOnly => ("Holder::Plain", None),
                _ => ("Software", Some("norec")),
            };
            assert_eq!(seen, expect, "{}", policy.label());
        }
    }

    #[test]
    fn fast_mode_reads_and_writes_plainly() {
        let c = TxCell::new(4u64);
        lock(ElisionPolicy::Tle).execute(|ctx| {
            assert_eq!(variant(ctx), "Fast");
            assert_eq!(ctx.mode(), PathKind::FastHtm);
            assert!(ctx.is_speculative());
            assert_eq!(ctx.read(&c), 4);
            ctx.write(&c, 5);
        });
        assert_eq!(c.read_plain(), 5);
    }

    #[test]
    fn under_lock_rwtle_sets_flag_once() {
        let l = lock(ElisionPolicy::RwTle);
        let c = TxCell::new(0u64);
        let g = l.lock_section();
        assert_eq!(variant(g.ctx()), "Holder::Rw");
        // Before the holder's first write a slow reader commits beside it.
        assert_eq!(l.try_speculate(|ctx| ctx.read(&c)).ok(), Some(0));
        g.ctx().write(&c, 1);
        g.ctx().write(&c, 2);
        // The first write raised the flag: slow readers now abort at start
        // and wait for the release.
        let seen = hopeless_slow_attempt(
            &l,
            abort_codes::WRITE_FLAG_SET,
            |ctx| ctx.read(&c),
            || drop(g),
        );
        assert_eq!(seen, Some(2));
        assert_eq!(aborts(&l, abort_codes::WRITE_FLAG_SET), 1);
        // The exit protocol reset the flag for the next holder's readers.
        let g = l.lock_section();
        assert_eq!(l.try_speculate(|ctx| ctx.read(&c)).ok(), Some(2));
        drop(g);
    }

    #[test]
    fn under_lock_fgtle_stamps_and_uniq_shortcut() {
        let l = lock(ElisionPolicy::FgTle { orecs: 2 });
        let g = l.lock_section();
        let Rung::Holder(Holder::Fg { epoch_now, .. }) = g.ctx().0 else {
            panic!("FG-TLE holder is {}", variant(g.ctx()));
        };
        for Line(line) in &lines(32) {
            g.ctx().write(&line[0], 7);
            let _ = g.ctx().read(&line[0]);
        }
        let (ur, uw) = g.ctx().uniq_orecs();
        assert!(uw <= 2 && ur <= 2, "cannot acquire more than all orecs");
        // With 32 distinct lines over 2 orecs, both are owned w.h.p.
        assert_eq!(uw, 2);
        let orecs = l.orec_table().expect("FG-TLE has orecs");
        assert_eq!(orecs.stamped_since(OrecKind::Write, epoch_now), 2);
    }

    #[test]
    fn the_holder_stamps_a_line_once() {
        let l = lock(ElisionPolicy::FgTle { orecs: 4096 });
        let line = &lines(1)[0].0;
        let g = l.lock_section();
        for (i, c) in line.iter().enumerate() {
            g.ctx().write(c, i as u64);
        }
        assert_eq!(g.ctx().uniq_orecs(), (0, 1), "eight words, one line");
    }

    #[test]
    fn a_slow_read_of_another_word_of_a_written_line_conflicts_on_its_slot() {
        let l = lock(ElisionPolicy::FgTle { orecs: 4096 });
        let lines = lines(8);
        let written = &lines[0].0;
        let base = written[0].addr();
        let slot = OrecTable::index(base, 4096);
        let untouched = lines
            .iter()
            .map(|Line(c)| c)
            .find(|c| OrecTable::index(c[0].addr(), 4096) != slot)
            .expect("eight lines do not all share one slot of 4096");
        let g = l.lock_section();
        g.ctx().write(&written[0], 1);
        assert_eq!(l.slow_attempt_once(|ctx| ctx.read(&written[5])), None);
        assert_eq!(aborts(&l, abort_codes::OREC_CONFLICT), 1);
        let h = l.orec_heatmap().expect("FG-TLE has orecs");
        assert_eq!((h.total_conflicts(), h.conflicts[slot]), (1, 1));
        assert_eq!(l.try_speculate(|ctx| ctx.read(&untouched[5])).ok(), Some(0));
        drop(g);
    }

    #[test]
    fn the_holder_stamps_with_its_sections_orec_count() {
        let l = lock(ElisionPolicy::AdaptiveFgTle {
            initial_orecs: 4,
            max_orecs: 16,
        });
        let lines = lines(64);
        let g = l.lock_section();
        let Rung::Holder(Holder::Fg { epoch_now, n, .. }) = g.ctx().0 else {
            panic!("adaptive FG-TLE holder is {}", variant(g.ctx()));
        };
        assert_eq!(n, 4);
        for Line(line) in &lines {
            g.ctx().write(&line[0], 1);
        }
        let orecs = l.orec_table().expect("FG-TLE has orecs");
        assert_eq!(orecs.stamped_since(OrecKind::Write, epoch_now), 4);
        // No stamp landed beyond the section's four slots.
        orecs.resize_active(16);
        assert_eq!(orecs.stamped_since(OrecKind::Write, epoch_now), 4);
        orecs.resize_active(4);
        // A slow write to any word of a written line conflicts, on the
        // line's slot.
        for (k, Line(line)) in lines.iter().enumerate() {
            let slot = OrecTable::index(line[0].addr(), 4);
            let before = l.orec_heatmap().expect("FG-TLE has orecs").conflicts[slot];
            assert_eq!(l.slow_attempt_once(|ctx| ctx.write(&line[7], 2)), None);
            let after = l.orec_heatmap().expect("FG-TLE has orecs").conflicts[slot];
            assert_eq!(after, before + 1, "line {k}");
        }
        assert_eq!(aborts(&l, abort_codes::OREC_CONFLICT), 64);
        drop(g);
    }

    #[test]
    fn slow_fgtle_read_conflict_aborts() {
        let l = lock(ElisionPolicy::FgTle { orecs: 1 }); // every address aliases
        let (held, c) = (TxCell::new(0u64), TxCell::new(0u64));
        let g = l.lock_section();
        // The holder owns the only write orec.
        g.ctx().write(&held, 1);
        assert_eq!(l.slow_attempt_once(|ctx| ctx.read(&c)), None);
        assert_eq!(aborts(&l, abort_codes::OREC_CONFLICT), 1);
    }

    #[test]
    fn slow_fgtle_write_conflicts_on_read_orec() {
        let l = lock(ElisionPolicy::FgTle { orecs: 1 });
        let (held, c) = (TxCell::new(0u64), TxCell::new(0u64));
        let g = l.lock_section();
        let _ = g.ctx().read(&held); // holder only *read*
                                     // Slow reads are fine...
        assert_eq!(
            l.try_speculate(|ctx| ctx.read(&c)).ok(),
            Some(0),
            "read-read parallelism"
        );
        // ...but a slow write to a read-owned orec must abort.
        assert_eq!(l.slow_attempt_once(|ctx| ctx.write(&c, 9)), None);
        assert_eq!(aborts(&l, abort_codes::OREC_CONFLICT), 1);
        assert_eq!(c.read_plain(), 0);
    }

    #[test]
    fn slow_rwtle_write_aborts() {
        let l = lock(ElisionPolicy::RwTle);
        let c = TxCell::new(0u64);
        let g = l.lock_section();
        hopeless_slow_attempt(
            &l,
            abort_codes::RW_SLOW_WRITE,
            |ctx| ctx.write(&c, 1),
            || {
                assert_eq!(c.read_plain(), 0, "no slow write beside the holder");
                drop(g);
            },
        );
        assert_eq!(aborts(&l, abort_codes::RW_SLOW_WRITE), 1);
        assert_eq!(
            c.read_plain(),
            1,
            "committed on the fast path after the release"
        );
    }

    #[test]
    fn slow_path_conflicts_are_attributed_to_their_slot() {
        let l = lock(ElisionPolicy::FgTle { orecs: 1 }); // every address aliases to slot 0
        let (held, c) = (TxCell::new(0u64), TxCell::new(0u64));
        let g = l.lock_section();
        let Rung::Holder(Holder::Fg { .. }) = g.ctx().0 else {
            panic!("FG-TLE holder is {}", variant(g.ctx()));
        };
        g.ctx().write(&held, 1);
        for _ in 0..3 {
            assert_eq!(l.slow_attempt_once(|ctx| ctx.read(&c)), None);
        }
        let h = l.orec_heatmap().expect("FG-TLE has orecs");
        assert_eq!(h.total_conflicts(), 3, "one attribution per self-abort");
        assert_eq!(h.conflicts, [3]);
    }

    #[test]
    fn write_flag_raise_is_recorded_once() {
        // A recorded operation that falls back to the lock hands its
        // recording context to the holder rung.
        let recorder = Arc::new(rtle_obs::Recorder::new(rtle_obs::ObsConfig::default()));
        let l = ElidableLock::builder()
            .policy(ElisionPolicy::RwTle)
            .recorder(Arc::clone(&recorder))
            .build();
        let c = TxCell::new(0u64);
        l.execute(|ctx| {
            rtle_htm::htm_unfriendly_instruction();
            ctx.write(&c, 1);
            ctx.write(&c, 2);
        });
        let records = recorder.records();
        let raises = records
            .iter()
            .filter(|r| r.kind == RecordKind::WriteFlagSet)
            .count();
        assert_eq!(raises, 1, "the flag instant is recorded once");
        let held = records
            .iter()
            .find(|r| r.label() == "lock_held")
            .expect("the holding window is a span");
        let raise = records.iter().find(|r| r.kind == RecordKind::WriteFlagSet);
        let at = raise.expect("counted above").ts;
        assert!(
            held.ts <= at && at <= held.ts + held.dur(),
            "raised at {at}, inside the holding window {held:?}"
        );
    }

    #[test]
    fn slow_fgtle_unowned_orecs_allow_writes() {
        let l = lock(ElisionPolicy::FgTle { orecs: 4 });
        let c = TxCell::new(0u64);
        // An earlier holder stamped `c`'s orec; its release bumped the
        // epoch past the stamp.
        l.lock_section().ctx().write(&c, 1);
        let _g = l.lock_section();
        let r = l
            .try_speculate(|ctx| {
                ctx.write(&c, 5);
                ctx.read(&c)
            })
            .ok();
        assert_eq!(r, Some(5));
        assert_eq!(c.read_plain(), 5);
    }
}
