//! The recording vocabulary: the four paths of the ladder and what the
//! adaptive policy can decide. How an attempt ended is not a vocabulary
//! of this crate: it is an `Option<AbortCode>` (`None`: committed), and
//! [`AbortCode`] in `rtle_htm` is the workspace's one table of abort
//! classes, labels and explicit-code buckets.
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
/// The `"outcome"` export label of a committed attempt; an aborted one
/// carries its [`AbortCode::label`].
const COMMIT_LABEL: &str = "commit";

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
}

/// One attempt-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptEvent {
    /// Path the attempt ran on.
    pub path: PathKind,
    /// How it ended: `None` if it committed, else why it aborted.
    pub abort: Option<AbortCode>,
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
            (
                "outcome",
                Json::Str(self.abort.map_or(COMMIT_LABEL, AbortCode::label).into()),
            ),
            ("attempt", Json::UInt(self.attempt as u64)),
            ("latency", Json::UInt(self.latency)),
        ];
        if let Some(AbortCode::Explicit(c)) = self.abort {
            pairs.push(("abort_code", Json::UInt(c as u64)));
        }
        Json::obj(pairs)
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
            assert_eq!(p.label(), PATH_LABELS[i]);
        }
    }

    #[test]
    fn every_ending_is_exported_under_its_label() {
        let ends =
            std::iter::once(None).chain((0..AbortCode::KINDS).map(|i| AbortCode::from_index(i, 6)));
        for abort in ends {
            let ev = AttemptEvent {
                path: PathKind::SlowHtm,
                abort,
                attempt: 4,
                latency: 99,
            };
            let j = ev.to_json();
            let label = abort.map_or("commit", AbortCode::label);
            assert_eq!(j.get("outcome").and_then(Json::as_str), Some(label));
            assert_eq!(j.get("path").and_then(Json::as_str), Some("slow_htm"));
            assert_eq!(j.get("attempt").and_then(Json::as_u64), Some(4));
            assert_eq!(j.get("latency").and_then(Json::as_u64), Some(99));
            let code = j.get("abort_code").and_then(Json::as_u64);
            assert_eq!(
                code.is_some(),
                matches!(abort, Some(AbortCode::Explicit(_)))
            );
        }
        let explicit = AttemptEvent {
            path: PathKind::Lock,
            abort: Some(AbortCode::Explicit(255)),
            attempt: 0,
            latency: 1,
        };
        let j = explicit.to_json();
        assert_eq!(j.get("abort_code").and_then(Json::as_u64), Some(255));
    }
}
