//! The recording vocabulary: the four paths of the ladder, how an
//! attempt can end, and what the adaptive policy can decide.
//!
//! An [`AttemptEvent`] describes the outcome of one pass through
//! `ElidableLock::execute`'s retry machinery: which path ran, how it
//! ended, how many attempts it took, and how long the critical section
//! was. With a thread and a start time it is one kind of the recorder's
//! one timestamped record ([`crate::trace::Record`], which also owns the
//! packed layout).

use rtle_htm::AbortCode;

use crate::json::Json;

/// Which rung of the ladder an execution runs on — the workspace's one
/// path vocabulary: what `Ctx::mode()` answers, what `ExecStats` and the
/// recorder count commits by, what every export labels them with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// The uninstrumented fast HTM path (lock observed free).
    FastHtm,
    /// The instrumented (write-flag / orec) slow HTM path, concurrent
    /// with a lock holder.
    SlowHtm,
    /// A software transaction on a pluggable `SoftwareTm` backend.
    Stm,
    /// The pessimistic fallback under the real lock.
    Lock,
}

/// Number of execution paths.
pub const PATHS: usize = 4;
/// Number of outcome kinds ([`Outcome::Commit`] is kind 0).
pub const OUTCOMES: usize = 7;
/// Explicit-abort protocol codes counted separately (code mod 8).
pub const EXPLICIT_CODES: usize = 8;

/// Stable lowercase path labels used in every export, in
/// [`PathKind::index`] order.
pub const PATH_LABELS: [&str; PATHS] = ["fast_htm", "slow_htm", "stm", "lock"];
/// The `commits_<label>` counters a live source exports for its per-path
/// commit counts (`commits` in [`PathKind::index`] order); viewers format
/// the same keys from [`PATH_LABELS`].
pub fn commit_counters(commits: [u64; PATHS]) -> impl Iterator<Item = (String, u64)> {
    PATH_LABELS
        .iter()
        .zip(commits)
        .map(|(label, n)| (format!("commits_{label}"), n))
}

/// Stable lowercase outcome labels used in every export, in
/// [`Outcome::index`] order (slot 0, "commit", is never an abort label).
pub const OUTCOME_LABELS: [&str; OUTCOMES] = [
    "commit",
    "conflict",
    "capacity",
    "explicit",
    "unsupported",
    "nested",
    "spurious",
];

impl PathKind {
    /// Every path, in [`Self::index`] order.
    pub const ALL: [PathKind; PATHS] = [
        PathKind::FastHtm,
        PathKind::SlowHtm,
        PathKind::Stm,
        PathKind::Lock,
    ];

    /// Position in every per-path table: the counter arrays,
    /// [`PATH_LABELS`] and the packed record's path field.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label used in JSON exports.
    pub fn label(self) -> &'static str {
        PATH_LABELS[self.index()]
    }

    /// The path for an export label (inverse of [`Self::label`]).
    pub fn from_label(label: &str) -> Option<PathKind> {
        Self::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The attempt committed.
    Commit,
    /// Aborted on a data conflict.
    AbortConflict,
    /// Aborted on read/write capacity exhaustion.
    AbortCapacity,
    /// Explicit abort with the runtime's protocol code (lock held,
    /// write-flag set, orec conflict, ...).
    AbortExplicit(u8),
    /// Aborted on an HTM-unfriendly instruction.
    AbortUnsupported,
    /// Aborted on illegal nesting.
    AbortNested,
    /// Spurious (microarchitectural) abort.
    AbortSpurious,
}

impl Outcome {
    /// The outcome for a given backend abort code.
    pub fn from_abort(code: AbortCode) -> Outcome {
        match code {
            AbortCode::Conflict => Outcome::AbortConflict,
            AbortCode::Capacity => Outcome::AbortCapacity,
            AbortCode::Explicit(c) => Outcome::AbortExplicit(c),
            AbortCode::Unsupported => Outcome::AbortUnsupported,
            AbortCode::Nested => Outcome::AbortNested,
            AbortCode::Spurious => Outcome::AbortSpurious,
        }
    }

    /// `true` for [`Outcome::Commit`].
    pub fn is_commit(self) -> bool {
        matches!(self, Outcome::Commit)
    }

    /// Position in every per-outcome table: the abort counter arrays,
    /// [`OUTCOME_LABELS`] and the packed record's outcome field.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Outcome::Commit => 0,
            Outcome::AbortConflict => 1,
            Outcome::AbortCapacity => 2,
            Outcome::AbortExplicit(_) => 3,
            Outcome::AbortUnsupported => 4,
            Outcome::AbortNested => 5,
            Outcome::AbortSpurious => 6,
        }
    }

    /// Stable lowercase label used in JSON exports ("commit",
    /// "conflict", "explicit", ...).
    pub fn label(self) -> &'static str {
        OUTCOME_LABELS[self.index()]
    }

    /// The outcome for an export label (inverse of [`Self::label`]);
    /// "explicit" comes back with protocol code 0.
    pub fn from_label(label: &str) -> Option<Outcome> {
        let kind = OUTCOME_LABELS.iter().position(|&l| l == label)?;
        Some(Outcome::from_codes(kind as u64, 0))
    }

    pub(crate) fn explicit_code(self) -> u64 {
        match self {
            Outcome::AbortExplicit(c) => c as u64,
            _ => 0,
        }
    }

    pub(crate) fn from_codes(kind: u64, explicit: u8) -> Outcome {
        match kind {
            0 => Outcome::Commit,
            1 => Outcome::AbortConflict,
            2 => Outcome::AbortCapacity,
            3 => Outcome::AbortExplicit(explicit),
            4 => Outcome::AbortUnsupported,
            5 => Outcome::AbortNested,
            _ => Outcome::AbortSpurious,
        }
    }
}

/// One attempt-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptEvent {
    /// Path the attempt ran on.
    pub path: PathKind,
    /// How it ended.
    pub outcome: Outcome,
    /// Zero-based attempt index within the operation (saturates at 255).
    pub attempt: u8,
    /// Duration of the attempt's critical section, in the recorder's
    /// latency unit (ns on hardware, cycles in the simulator); on the
    /// lock path, the window the lock was held for.
    pub latency: u64,
}

impl AttemptEvent {
    /// JSON form for exports.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("path", Json::Str(self.path.label().into())),
            ("outcome", Json::Str(self.outcome.label().into())),
            ("attempt", Json::UInt(self.attempt as u64)),
            ("latency", Json::UInt(self.latency)),
        ];
        if let Outcome::AbortExplicit(c) = self.outcome {
            pairs.push(("abort_code", Json::UInt(c as u64)));
        }
        Json::obj(pairs)
    }

    /// Rebuilds an event from [`Self::to_json`] output; `None` on shape
    /// mismatch.
    pub fn from_json(j: &Json) -> Option<AttemptEvent> {
        let outcome = match Outcome::from_label(j.get("outcome")?.as_str()?)? {
            Outcome::AbortExplicit(_) => {
                Outcome::AbortExplicit(j.get("abort_code")?.as_u64()? as u8)
            }
            other => other,
        };
        Some(AttemptEvent {
            path: PathKind::from_label(j.get("path")?.as_str()?)?,
            outcome,
            attempt: j.get("attempt")?.as_u64()? as u8,
            latency: j.get("latency")?.as_u64()?,
        })
    }
}

/// What the adaptive FG-TLE policy decided at a lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptAction {
    /// Halved the active orec range (slow path idle).
    Shrink,
    /// Doubled the active orec range (aborts dominate commits).
    Grow,
    /// Disabled the instrumented path entirely (collapse to TLE).
    Collapse,
    /// Re-enabled the instrumented path after a disabled period.
    Reenable,
}

impl AdaptAction {
    /// Every action, in the packed record's code order.
    pub const ALL: [AdaptAction; 4] = [
        AdaptAction::Shrink,
        AdaptAction::Grow,
        AdaptAction::Collapse,
        AdaptAction::Reenable,
    ];

    /// Stable lowercase label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            AdaptAction::Shrink => "shrink",
            AdaptAction::Grow => "grow",
            AdaptAction::Collapse => "collapse",
            AdaptAction::Reenable => "reenable",
        }
    }

    /// The action for an export label (inverse of [`Self::label`]).
    pub fn from_label(label: &str) -> Option<AdaptAction> {
        Self::ALL.into_iter().find(|a| a.label() == label)
    }
}

/// One adaptive-policy decision, with the window signal that triggered it.
///
/// These are rare (at most one per `WINDOW` lock acquisitions), so they
/// are stored unpacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptDecision {
    /// The action taken.
    pub action: AdaptAction,
    /// Active orec count before the decision.
    pub orecs_before: u64,
    /// Active orec count after the decision.
    pub orecs_after: u64,
    /// Slow-path commits observed in the decision window.
    pub slow_commits: u64,
    /// Slow-path aborts observed in the decision window.
    pub slow_aborts: u64,
    /// The hottest conflicting orec slot at decision time, as
    /// `(slot index, cumulative conflicts attributed to it)` — the
    /// per-orec evidence behind a [`AdaptAction::Grow`]. `None` when no
    /// conflicts were attributed or the policy had no heatmap.
    pub hot_slot: Option<(u64, u64)>,
}

impl AdaptDecision {
    /// JSON form for exports. `hot_slot` is emitted only when present,
    /// keeping pre-heatmap documents byte-identical.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("action", Json::Str(self.action.label().into())),
            ("orecs_before", Json::UInt(self.orecs_before)),
            ("orecs_after", Json::UInt(self.orecs_after)),
            ("slow_commits", Json::UInt(self.slow_commits)),
            ("slow_aborts", Json::UInt(self.slow_aborts)),
        ];
        if let Some((slot, conflicts)) = self.hot_slot {
            pairs.push(("hot_slot", Json::UInt(slot)));
            pairs.push(("hot_slot_conflicts", Json::UInt(conflicts)));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_indexes_are_one_table() {
        for (i, p) in PathKind::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(PathKind::from_label(p.label()), Some(p));
        }
        for (i, &label) in OUTCOME_LABELS.iter().enumerate() {
            let o = Outcome::from_label(label).expect("every label has an outcome");
            assert_eq!((o.index(), o.label()), (i, label));
        }
        assert_eq!(
            Outcome::from_label("explicit"),
            Some(Outcome::AbortExplicit(0))
        );
        for a in AdaptAction::ALL {
            assert_eq!(AdaptAction::from_label(a.label()), Some(a));
        }
        assert_eq!(PathKind::from_label("bogus"), None);
        assert_eq!(Outcome::from_label("bogus"), None);
        assert_eq!(AdaptAction::from_label("bogus"), None);
        let ev = AttemptEvent {
            path: PathKind::SlowHtm,
            outcome: Outcome::AbortExplicit(6),
            attempt: 4,
            latency: 99,
        };
        assert_eq!(AttemptEvent::from_json(&ev.to_json()), Some(ev));
    }

    #[test]
    fn abort_mapping_matches_backend_codes() {
        assert_eq!(
            Outcome::from_abort(AbortCode::Explicit(4)),
            Outcome::AbortExplicit(4)
        );
        assert_eq!(Outcome::from_abort(AbortCode::Conflict).label(), "conflict");
        assert!(!Outcome::from_abort(AbortCode::Capacity).is_commit());
        assert!(Outcome::Commit.is_commit());
    }
}
