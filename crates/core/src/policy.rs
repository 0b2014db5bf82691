//! Elision policies and the retry policy — including Figure 1's choice
//! of rung, [`RetryPolicy::next_step`], the one function the runtime
//! (`ElidableLock::speculative_phase`) and the simulator's engine both
//! `match` on.

use rtle_htm::AbortCode;
use rtle_obs::PathKind;

use crate::abort_codes;

/// Which synchronization algorithm an [`crate::ElidableLock`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElisionPolicy {
    /// Never elide: every critical section acquires the lock. The paper's
    /// `Lock` baseline.
    LockOnly,
    /// Standard transactional lock elision: speculate while the lock is
    /// free, *wait* whenever it is held (Figure 1, left column).
    Tle,
    /// Refined TLE with write-only instrumentation (§3): read-only hardware
    /// transactions run concurrently with the lock holder until the
    /// holder's first write.
    RwTle,
    /// Refined TLE with full instrumentation over `orecs` ownership records
    /// (§4): any non-conflicting hardware transaction runs concurrently
    /// with the lock holder. The paper evaluates 1–8192 orecs.
    FgTle {
        /// Number of ownership records (the X of FG-TLE(X)).
        orecs: usize,
    },
    /// The adaptive extension sketched in §4.2.1: starts as FG-TLE with
    /// `initial_orecs` active, and the lock holder may resize the active
    /// orec range (up to `max_orecs`) or disable the slow path entirely
    /// based on observed benefit.
    AdaptiveFgTle {
        /// Active orecs at start.
        initial_orecs: usize,
        /// Allocated ceiling the holder may grow to.
        max_orecs: usize,
    },
}

impl ElisionPolicy {
    /// Whether this policy has an instrumented slow path at all.
    pub fn has_slow_path(self) -> bool {
        !matches!(self, ElisionPolicy::LockOnly | ElisionPolicy::Tle)
    }

    /// Whether the policy needs orec arrays.
    pub fn orec_capacity(self) -> Option<usize> {
        match self {
            ElisionPolicy::FgTle { orecs } => Some(orecs),
            ElisionPolicy::AdaptiveFgTle { max_orecs, .. } => Some(max_orecs),
            _ => None,
        }
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(self) -> String {
        match self {
            ElisionPolicy::LockOnly => "Lock".to_string(),
            ElisionPolicy::Tle => "TLE".to_string(),
            ElisionPolicy::RwTle => "RW-TLE".to_string(),
            ElisionPolicy::FgTle { orecs } => format!("FG-TLE({orecs})"),
            ElisionPolicy::AdaptiveFgTle { .. } => "FG-TLE(adaptive)".to_string(),
        }
    }
}

/// Retry policy: how speculation failures escalate to the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Fast-path HTM attempts before acquiring the lock. The paper's
    /// experiments use a static 5 (§2 footnote 1: raised from libitm's 2).
    /// Slow-path failures are *not* held against this budget (§6.2.1).
    pub max_attempts: u32,
    /// Subscribe to the lock just before commit instead of right after
    /// begin (§5). Restores the Figure 4 "lock as barrier" semantics for
    /// refined TLE at some cost in slow-path parallelism; always safe for
    /// RW-/FG-TLE because their slow paths are instrumented.
    pub lazy_subscription: bool,
    /// Abort the whole fast-path budget early on an abort that can never
    /// succeed (e.g. an unsupported instruction).
    pub give_up_on_unsupported: bool,
    /// Anti-starvation bound (§6.2.1 notes one is "trivial to add"): cap
    /// the *hopeful* slow-path retries of a single operation; once
    /// exceeded, the operation stops speculating and queues on the lock,
    /// which bounds its total work. `None` reproduces the paper's
    /// unlimited-slow-retries configuration.
    pub max_slow_attempts: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            lazy_subscription: false,
            give_up_on_unsupported: true,
            max_slow_attempts: None,
        }
    }
}

/// What Figure 1 does next for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The lock is free: one uninstrumented fast-path attempt.
    Fast,
    /// The lock is held and the policy is refined: one instrumented
    /// slow-path attempt, concurrent with the holder.
    Slow,
    /// The lock is held and there is no slow path (standard TLE): wait
    /// for the release, then decide again.
    AwaitRelease,
    /// A budget is spent: stop speculating (software TM or the lock).
    Fallback,
}

impl RetryPolicy {
    /// Figure 1's choice of rung, as a function of plain values: whether
    /// the elision policy has a slow path, whether the lock is held right
    /// now, and how many fast and slow attempts this operation has
    /// already failed. Slow attempts never consume the fast budget
    /// (§6.2.1); only [`Self::max_slow_attempts`] bounds them.
    #[inline]
    pub fn next_step(
        &self,
        has_slow_path: bool,
        lock_held: bool,
        fast_used: u32,
        slow_used: u32,
    ) -> Step {
        if fast_used >= self.max_attempts {
            Step::Fallback
        } else if !lock_held {
            Step::Fast
        } else if !has_slow_path {
            Step::AwaitRelease
        } else if self.max_slow_attempts.is_some_and(|cap| slow_used >= cap) {
            // Anti-starvation cap exceeded: take the lock, bounding this
            // operation's total work.
            Step::Fallback
        } else {
            Step::Slow
        }
    }
}

/// The one after-abort rule, the runtime's and the simulator's: whether an
/// attempt on `path` that aborted with `code` waits for the release of the
/// holding it met before [`RetryPolicy::next_step`] decides again — the
/// aborts a retry against the same holder would only repeat (DESIGN §4b).
pub fn awaits_release(path: PathKind, code: AbortCode) -> bool {
    match code {
        AbortCode::Explicit(code) => matches!(
            code,
            abort_codes::WRITE_FLAG_SET
                | abort_codes::RW_SLOW_WRITE
                | abort_codes::OREC_CONFLICT
                | abort_codes::FG_DISABLED
                | abort_codes::LAZY_LOCK_HELD
        ),
        // On the fast path the lock is free: nothing to wait for. On the
        // slow path a retry of the same body repeats these: its
        // instruction, or its footprint with the orec reads added.
        AbortCode::Unsupported | AbortCode::Capacity => path == PathKind::SlowHtm,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(ElisionPolicy::LockOnly.label(), "Lock");
        assert_eq!(ElisionPolicy::Tle.label(), "TLE");
        assert_eq!(ElisionPolicy::RwTle.label(), "RW-TLE");
        assert_eq!(ElisionPolicy::FgTle { orecs: 256 }.label(), "FG-TLE(256)");
    }

    #[test]
    fn slow_path_classification() {
        assert!(!ElisionPolicy::LockOnly.has_slow_path());
        assert!(!ElisionPolicy::Tle.has_slow_path());
        assert!(ElisionPolicy::RwTle.has_slow_path());
        assert!(ElisionPolicy::FgTle { orecs: 1 }.has_slow_path());
        assert!(ElisionPolicy::AdaptiveFgTle {
            initial_orecs: 64,
            max_orecs: 8192
        }
        .has_slow_path());
    }

    #[test]
    fn orec_capacity() {
        assert_eq!(ElisionPolicy::Tle.orec_capacity(), None);
        assert_eq!(ElisionPolicy::FgTle { orecs: 16 }.orec_capacity(), Some(16));
        assert_eq!(
            ElisionPolicy::AdaptiveFgTle {
                initial_orecs: 4,
                max_orecs: 1024
            }
            .orec_capacity(),
            Some(1024)
        );
    }

    /// Figure 1, as a table.
    #[test]
    fn next_step_is_figure_1() {
        let paper = RetryPolicy::default();
        let capped = RetryPolicy {
            max_slow_attempts: Some(2),
            ..paper
        };
        // (policy, has slow path, lock held, fast used, slow used) -> step
        let table = [
            // Budget exhausted: fall back, whatever else holds.
            (paper, false, false, 5, 0, Step::Fallback),
            (paper, true, true, 5, 0, Step::Fallback),
            (paper, true, false, 9, 9, Step::Fallback),
            // Lock free: fast, with or without a slow path.
            (paper, false, false, 0, 0, Step::Fast),
            (paper, true, false, 4, 0, Step::Fast),
            (capped, true, false, 0, 2, Step::Fast),
            // Held, no slow path: standard TLE waits.
            (paper, false, true, 0, 0, Step::AwaitRelease),
            (paper, false, true, 4, 0, Step::AwaitRelease),
            // Held, slow path: refined TLE speculates beside the holder.
            (paper, true, true, 0, 0, Step::Slow),
            (capped, true, true, 0, 1, Step::Slow),
            // Held, slow cap reached: queue on the lock.
            (capped, true, true, 0, 2, Step::Fallback),
            (capped, true, true, 3, 7, Step::Fallback),
        ];
        for (policy, slow_path, held, fast, slow, want) in table {
            assert_eq!(
                policy.next_step(slow_path, held, fast, slow),
                want,
                "slow_path={slow_path} held={held} fast={fast} slow={slow} cap={:?}",
                policy.max_slow_attempts
            );
        }
        // Slow attempts never consume the fast budget (§6.2.1): uncapped,
        // no number of them changes the answer.
        for slow in [0, 1, 5, 1_000, u32::MAX] {
            assert_eq!(paper.next_step(true, true, 4, slow), Step::Slow);
            assert_eq!(paper.next_step(true, false, 4, slow), Step::Fast);
        }
        let none = RetryPolicy {
            max_attempts: 0,
            ..paper
        };
        assert_eq!(none.next_step(true, false, 0, 0), Step::Fallback);
    }

    /// The after-abort rule, as a table: every explicit code the runtime
    /// raises and every other abort class, on both hardware paths.
    #[test]
    fn awaits_release_is_a_table() {
        use AbortCode::*;
        use PathKind::{FastHtm, SlowHtm};
        // (code, waits after a fast abort, waits after a slow abort)
        let table = [
            (Explicit(abort_codes::LOCK_HELD), false, false),
            (Explicit(abort_codes::WRITE_FLAG_SET), true, true),
            (Explicit(abort_codes::RW_SLOW_WRITE), true, true),
            (Explicit(abort_codes::OREC_CONFLICT), true, true),
            (Explicit(abort_codes::FG_DISABLED), true, true),
            (Explicit(abort_codes::LAZY_LOCK_HELD), true, true),
            (Explicit(abort_codes::PARTICIPANT_LOCK_HELD), false, false),
            (Conflict, false, false),
            (Capacity, false, true),
            (Unsupported, false, true),
            (Nested, false, false),
            (Spurious, false, false),
        ];
        for (code, fast, slow) in table {
            assert_eq!(awaits_release(FastHtm, code), fast, "fast {code:?}");
            assert_eq!(awaits_release(SlowHtm, code), slow, "slow {code:?}");
        }
        // The table names every class.
        let mut classes: Vec<usize> = table.iter().map(|(c, ..)| c.index()).collect();
        classes.dedup();
        assert_eq!(classes.len(), AbortCode::KINDS);
    }

    #[test]
    fn default_retry_matches_paper() {
        let r = RetryPolicy::default();
        assert_eq!(r.max_attempts, 5);
        assert!(!r.lazy_subscription);
        assert_eq!(
            r.max_slow_attempts, None,
            "unlimited slow retries, as evaluated"
        );
    }
}
