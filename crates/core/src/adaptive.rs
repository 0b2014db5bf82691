//! Adaptive FG-TLE (§4.2.1) — the paper sketches it as future work; this is
//! a concrete implementation of the two knobs the sketch names:
//!
//! 1. **Resizing the active orec range.** "Changing the number of orecs can
//!    be trivially done while a thread is holding the lock" — the holder
//!    inspects recent slow-path benefit and grows the range when slow-path
//!    transactions keep dying on orec conflicts, or shrinks it when the
//!    slow path is idle (fewer orecs means the holder reaches the
//!    `uniq_*_orecs == N` shortcut sooner and pays less instrumentation).
//! 2. **Collapsing to plain TLE.** "Add a flag that is initially set and is
//!    always read by hardware transactions in the slow path" — when even
//!    one active orec buys nothing, the holder clears `fg_enabled`; slow
//!    path attempts then self-abort immediately and the runtime behaves
//!    like standard TLE. The flag is re-examined periodically so a changed
//!    workload can re-enable the slow path.
//!
//! All decisions are made by the lock holder (single writer), read by
//! everyone else — the same asymmetry the rest of FG-TLE enjoys.
//!
//! The decision — [`Adaptation::step`] — and the window around it —
//! [`Adaptation::on_lock_acquired`]: count sections, every [`WINDOW`]th
//! take the slow-path deltas, step, name the decision — are functions of
//! plain values, written once: the runtime applies the result to its
//! `OrecTable` and `fg_enabled` flag, the simulator (`rtle-sim`) to its
//! engine state.

use std::sync::Mutex;

use rtle_htm::TxCell;
use rtle_obs::{AdaptAction, AdaptDecision, Recorder};

use crate::orec::OrecTable;
use crate::stats::ExecStats;

/// Decision cadence: adapt every this many lock acquisitions.
pub const WINDOW: u64 = 32;
/// Re-enable probe cadence (in windows) once the slow path was disabled.
const REENABLE_WINDOWS: u64 = 32;
/// Grow when slow aborts exceed this multiple of slow commits.
const GROW_ABORT_FACTOR: u64 = 4;

/// What one lock's adaptation reads and may change: the decision's state
/// and the window bookkeeping around it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Adaptation {
    /// Orecs currently hashed over.
    pub active: u64,
    /// Orecs allocated: the growth limit.
    pub capacity: u64,
    /// The configured starting size, restored on re-enable.
    pub initial: u64,
    /// Whether the instrumented slow path is enabled.
    pub enabled: bool,
    /// Consecutive idle windows (enabled, no slow-path traffic).
    pub idle_windows: u64,
    /// Windows spent disabled since the collapse.
    pub disabled_windows: u64,
    /// Lock acquisitions counted so far.
    pub sections: u64,
    /// The lock's slow-path commit total at the last window boundary.
    pub last_slow_commits: u64,
    /// The lock's slow-path abort total at the last window boundary.
    pub last_slow_aborts: u64,
}

impl Adaptation {
    /// Counts one lock acquisition (the holder calls this right after
    /// acquiring, before the critical section runs: resizes are only
    /// legal in that window). Every [`WINDOW`]th closes a window: the
    /// lock's running `(slow commits, slow aborts)` totals are read from
    /// `slow_totals`, their deltas go through [`Self::step`], and a step
    /// that changed something is returned with the signals that
    /// triggered it. `hot_slot` is left for the caller's heatmap.
    pub fn on_lock_acquired(
        &mut self,
        slow_totals: impl FnOnce() -> (u64, u64),
    ) -> Option<AdaptDecision> {
        self.sections += 1;
        if !self.sections.is_multiple_of(WINDOW) {
            return None;
        }
        let (sc, sa) = slow_totals();
        let dsc = sc - std::mem::replace(&mut self.last_slow_commits, sc);
        let dsa = sa - std::mem::replace(&mut self.last_slow_aborts, sa);
        let orecs_before = self.active;
        let action = self.step(dsc, dsa)?;
        Some(AdaptDecision {
            action,
            orecs_before,
            orecs_after: self.active,
            slow_commits: dsc,
            slow_aborts: dsa,
            hot_slot: None,
        })
    }

    /// The decision for one window in which the slow path committed
    /// `dsc` times and aborted `dsa` times: updates `active`, `enabled`
    /// and the window counters in place and names what it did.
    pub fn step(&mut self, dsc: u64, dsa: u64) -> Option<AdaptAction> {
        if !self.enabled {
            // Collapsed to plain TLE. Slow-path attempts during this
            // state abort with FG_DISABLED and show up as slow aborts —
            // that is *demand*: threads found the lock held and wanted to
            // speculate. Re-enable immediately on demand, and probe
            // periodically even without it.
            self.disabled_windows += 1;
            if dsa > 0 || self.disabled_windows.is_multiple_of(REENABLE_WINDOWS) {
                self.active = self.initial.clamp(1, self.capacity);
                self.enabled = true;
                self.idle_windows = 0;
                return Some(AdaptAction::Reenable);
            }
            return None;
        }
        if dsc == 0 && dsa == 0 {
            // Slow path idle this window: the instrumentation under lock
            // is pure overhead. Shrink; after two consecutive idle windows
            // at a single orec, collapse to plain TLE.
            self.idle_windows += 1;
            if self.active > 1 {
                self.active /= 2;
                return Some(AdaptAction::Shrink);
            }
            if self.idle_windows >= 2 {
                self.enabled = false;
                self.disabled_windows = 0;
                return Some(AdaptAction::Collapse);
            }
        } else {
            self.idle_windows = 0;
            // Slow path keeps aborting: most likely orec aliasing.
            if dsa > GROW_ABORT_FACTOR * dsc.max(1) && self.active < self.capacity {
                self.active = (self.active * 2).min(self.capacity);
                return Some(AdaptAction::Grow);
            }
        }
        None
    }
}

/// Holder-maintained adaptation state for one lock. The active range and
/// the enabled flag live where the slow path reads them (`OrecTable`,
/// `fg_enabled`) and are copied in at every acquisition; the window
/// bookkeeping lives only here. The mutex is never contended — only the
/// thread holding the elided lock takes it — it is what lets a `&self`
/// method own the value without `unsafe`.
#[derive(Debug)]
pub(crate) struct AdaptiveState(Mutex<Adaptation>);

impl AdaptiveState {
    pub fn new(initial_orecs: usize) -> Self {
        AdaptiveState(Mutex::new(Adaptation {
            initial: initial_orecs as u64,
            ..Default::default()
        }))
    }

    /// Called by the lock holder right after acquiring the lock:
    /// [`Adaptation::on_lock_acquired`] → apply.
    ///
    /// Every resize / collapse / re-enable is traced to `recorder` (when
    /// one is installed) with the window's slow-commit/abort signal, so a
    /// run can be debugged from its decision history.
    pub fn on_lock_acquired(
        &self,
        orecs: &OrecTable,
        fg_enabled: &TxCell<bool>,
        stats: &ExecStats,
        recorder: Option<&Recorder>,
    ) {
        let mut state = self
            .0
            .lock()
            .expect("poisoned: a lock holder panicked mid-adaptation");
        state.active = orecs.active_plain() as u64;
        state.capacity = orecs.capacity() as u64;
        state.enabled = fg_enabled.read_unvalidated();
        let before = *state;
        let decision =
            state.on_lock_acquired(|| (stats.slow_commits_now(), stats.slow_aborts_now()));
        let Some(mut decision) = decision else { return };
        if state.active != before.active {
            orecs.resize_active(state.active as usize);
        }
        if state.enabled != before.enabled {
            fg_enabled.write(state.enabled);
        }
        if let Some(rec) = recorder {
            if decision.action == AdaptAction::Grow {
                // The conflict heatmap names the hottest slot, so a grow's
                // trace shows *where* the aliasing concentrated.
                decision.hot_slot = orecs
                    .heatmap()
                    .hottest(1)
                    .first()
                    .map(|&(slot, n)| (slot as u64, n));
            }
            rec.record_decision(decision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_htm::AbortCode;
    use rtle_obs::PathKind;

    fn run_windows(
        st: &AdaptiveState,
        orecs: &OrecTable,
        fg: &TxCell<bool>,
        stats: &ExecStats,
        k: u64,
    ) {
        for _ in 0..k * WINDOW {
            st.on_lock_acquired(orecs, fg, stats, None);
        }
    }

    #[test]
    fn idle_slow_path_shrinks_then_disables() {
        let st = AdaptiveState::new(8);
        let orecs = OrecTable::with_active(8, 8);
        let fg = TxCell::new(true);
        let stats = ExecStats::new();

        // 8 -> 4 -> 2 -> 1 takes 3 windows; two more idle windows disable.
        run_windows(&st, &orecs, &fg, &stats, 3);
        assert_eq!(orecs.active_plain(), 1);
        assert!(fg.read_plain());
        run_windows(&st, &orecs, &fg, &stats, 2);
        assert!(!fg.read_plain(), "collapsed to plain TLE");
    }

    #[test]
    fn aborting_slow_path_grows() {
        let st = AdaptiveState::new(2);
        let orecs = OrecTable::with_active(1024, 2);
        let fg = TxCell::new(true);
        let stats = ExecStats::new();

        // Simulate a window with heavy slow-path aborting and no commits.
        for _ in 0..WINDOW - 1 {
            st.on_lock_acquired(&orecs, &fg, &stats, None);
        }
        for _ in 0..100 {
            stats.record_abort(PathKind::SlowHtm, AbortCode::Explicit(4));
        }
        st.on_lock_acquired(&orecs, &fg, &stats, None);
        assert_eq!(orecs.active_plain(), 4, "doubled under abort pressure");
    }

    #[test]
    fn disabled_state_reenables_eventually() {
        let st = AdaptiveState::new(8);
        let orecs = OrecTable::with_active(8, 8);
        let fg = TxCell::new(true);
        let stats = ExecStats::new();

        run_windows(&st, &orecs, &fg, &stats, 5);
        assert!(!fg.read_plain());
        // After at most REENABLE_WINDOWS more idle windows, it probes
        // again; check the restored size at the moment of re-enablement.
        let mut reenabled = false;
        for _ in 0..REENABLE_WINDOWS {
            run_windows(&st, &orecs, &fg, &stats, 1);
            if fg.read_plain() {
                reenabled = true;
                break;
            }
        }
        assert!(reenabled, "slow path re-enabled for probing");
        assert_eq!(orecs.active_plain(), 8, "active restored to initial");
    }

    #[test]
    fn disabled_state_reenables_immediately_on_demand() {
        let st = AdaptiveState::new(8);
        let orecs = OrecTable::with_active(8, 8);
        let fg = TxCell::new(true);
        let stats = ExecStats::new();

        run_windows(&st, &orecs, &fg, &stats, 5);
        assert!(!fg.read_plain(), "collapsed");
        // Threads now find the lock held and attempt the slow path: their
        // FG_DISABLED aborts are the demand signal.
        for _ in 0..10 {
            stats.record_abort(PathKind::SlowHtm, AbortCode::Explicit(5));
        }
        run_windows(&st, &orecs, &fg, &stats, 1);
        assert!(fg.read_plain(), "re-enabled on demand within one window");
        assert_eq!(orecs.active_plain(), 8);
    }

    #[test]
    fn healthy_slow_path_keeps_size() {
        let st = AdaptiveState::new(16);
        let orecs = OrecTable::with_active(16, 16);
        let fg = TxCell::new(true);
        let stats = ExecStats::new();

        for w in 0..4u64 {
            for _ in 0..WINDOW - 1 {
                st.on_lock_acquired(&orecs, &fg, &stats, None);
            }
            // Commits dominate aborts in every window.
            for _ in 0..20 {
                stats.record_commit(PathKind::SlowHtm);
            }
            stats.record_abort(PathKind::SlowHtm, AbortCode::Conflict);
            st.on_lock_acquired(&orecs, &fg, &stats, None);
            assert_eq!(orecs.active_plain(), 16, "window {w}: size stable");
            assert!(fg.read_plain());
        }
    }

    /// What `adaptive_integration::adaptive_keeps_slow_path_when_it_pays`
    /// observes with real threads, decided here from counts alone: a window
    /// in which the slow path committed anything never shrinks the range or
    /// collapses the lock — not at a single orec, not between idle windows
    /// — and a collapsed lock that sees demand comes back and then stays.
    #[test]
    fn paying_slow_path_is_never_shrunk_or_collapsed() {
        let st = AdaptiveState::new(4);
        let orecs = OrecTable::with_active(4, 4);
        let fg = TxCell::new(true);
        let stats = ExecStats::new();
        let paying_window = |commits: u64| {
            for _ in 0..commits {
                stats.record_commit(PathKind::SlowHtm);
            }
            run_windows(&st, &orecs, &fg, &stats, 1);
        };

        for _ in 0..50 {
            paying_window(1);
            assert_eq!(orecs.active_plain(), 4, "one commit a window is enough");
            assert!(fg.read_plain());
        }
        // Shrunk to a single orec by idleness, the next idle window would
        // collapse: alternating paying and idle windows never get there.
        run_windows(&st, &orecs, &fg, &stats, 2);
        assert_eq!(orecs.active_plain(), 1);
        for _ in 0..50 {
            paying_window(1);
            run_windows(&st, &orecs, &fg, &stats, 1);
            assert!(fg.read_plain(), "a paying window resets the idle count");
            assert_eq!(orecs.active_plain(), 1);
        }
        // Collapsed for real; demand brings it back, and commits keep it.
        run_windows(&st, &orecs, &fg, &stats, 1);
        assert!(!fg.read_plain(), "two idle windows in a row collapse");
        stats.record_abort(PathKind::SlowHtm, AbortCode::Explicit(5));
        run_windows(&st, &orecs, &fg, &stats, 1);
        assert!(fg.read_plain(), "demand re-enables");
        for _ in 0..50 {
            paying_window(3);
            assert!(fg.read_plain());
            assert_eq!(orecs.active_plain(), 4);
        }
    }

    /// Every adaptation is traceable: the full shrink → collapse →
    /// re-enable → grow lifecycle appears in the recorder's decision
    /// trace, with the window signals that triggered each step.
    #[test]
    fn decisions_are_traced_with_signals() {
        let st = AdaptiveState::new(4);
        let orecs = OrecTable::with_active(1024, 4);
        let fg = TxCell::new(true);
        let stats = ExecStats::new();
        let rec = Recorder::new(rtle_obs::ObsConfig::default());
        let step = |k: u64| {
            for _ in 0..k * WINDOW {
                st.on_lock_acquired(&orecs, &fg, &stats, Some(&rec));
            }
        };

        // Idle: 4 -> 2 -> 1, then two more idle windows collapse.
        step(4);
        assert!(!fg.read_plain());
        // Demand (FG_DISABLED aborts) re-enables within one window.
        for _ in 0..5 {
            stats.record_abort(PathKind::SlowHtm, AbortCode::Explicit(5));
        }
        step(1);
        assert!(fg.read_plain());
        // Abort pressure grows the range; the aborts concentrate on one
        // orec slot, which the heatmap attributes.
        for _ in 0..100 {
            stats.record_abort(PathKind::SlowHtm, AbortCode::Explicit(4));
            orecs.note_conflict(3);
        }
        step(1);

        let actions: Vec<AdaptAction> = rec.decisions().iter().map(|d| d.action).collect();
        assert_eq!(
            actions,
            vec![
                AdaptAction::Shrink,   // 4 -> 2
                AdaptAction::Shrink,   // 2 -> 1
                AdaptAction::Collapse, // idle at 1
                AdaptAction::Reenable, // demand
                AdaptAction::Grow,     // abort pressure
            ]
        );
        let d = rec.decisions();
        assert_eq!((d[0].orecs_before, d[0].orecs_after), (4, 2));
        assert_eq!(d[3].orecs_after, 4, "re-enable restores initial size");
        assert!(d[3].slow_aborts >= 5, "demand signal captured");
        assert_eq!((d[4].orecs_before, d[4].orecs_after), (4, 8));
        assert!(d[4].slow_aborts >= 100);
        assert_eq!(d[4].hot_slot, Some((3, 100)), "grow cites the hot slot");
        assert!(d[..4].iter().all(|d| d.hot_slot.is_none()));
    }
}
