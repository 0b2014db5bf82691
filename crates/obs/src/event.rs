//! Attempt events and adaptive-policy decision events.
//!
//! An [`AttemptEvent`] describes the outcome of one pass through
//! `ElidableLock::execute`'s retry machinery: which path ran, how it
//! ended, how many attempts it took, and how long the critical section
//! was. To make recording tear-free with a single `Relaxed` store, the
//! event packs into **one** `u64` ([`AttemptEvent::pack`]):
//!
//! ```text
//! bit 63      : valid (distinguishes a written slot from an empty one)
//! bits 62..61 : path        (2 bits)
//! bits 60..58 : outcome kind (3 bits)
//! bits 57..50 : explicit abort code (8 bits)
//! bits 49..42 : attempt index (8 bits, saturating)
//! bits 41..0  : latency (42 bits, saturating — ns or sim cycles)
//! ```

use rtle_htm::AbortCode;

use crate::json::Json;

/// Which execution path an attempt ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// The uninstrumented fast HTM path.
    FastHtm,
    /// The instrumented (write-flag / orec / STM) slow path.
    SlowHtm,
    /// The pessimistic fallback under the real lock.
    Lock,
}

/// Number of execution paths.
pub const PATHS: usize = 3;
/// Number of outcome kinds ([`Outcome::Commit`] is kind 0).
pub const OUTCOMES: usize = 7;
/// Explicit-abort protocol codes counted separately (code mod 8).
pub const EXPLICIT_CODES: usize = 8;

/// Stable lowercase path labels used in every export, in
/// [`PathKind::index`] order.
pub const PATH_LABELS: [&str; PATHS] = ["fast_htm", "slow_htm", "lock"];
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
    pub const ALL: [PathKind; PATHS] = [PathKind::FastHtm, PathKind::SlowHtm, PathKind::Lock];

    /// Position in every per-path table: the counter arrays,
    /// [`PATH_LABELS`] and the packed event's path field.
    #[inline]
    pub fn index(self) -> usize {
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
    /// [`OUTCOME_LABELS`] and the packed event's kind field.
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

    fn explicit_code(self) -> u64 {
        match self {
            Outcome::AbortExplicit(c) => c as u64,
            _ => 0,
        }
    }

    fn from_codes(kind: u64, explicit: u8) -> Outcome {
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

const VALID_BIT: u64 = 1 << 63;
const LATENCY_BITS: u32 = 42;
const LATENCY_MASK: u64 = (1 << LATENCY_BITS) - 1;
const ATTEMPT_SHIFT: u32 = LATENCY_BITS; // 42
const EXPLICIT_SHIFT: u32 = ATTEMPT_SHIFT + 8; // 50
const KIND_SHIFT: u32 = EXPLICIT_SHIFT + 8; // 58
const PATH_SHIFT: u32 = KIND_SHIFT + 3; // 61

/// One attempt-level event. See the module docs for the packed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptEvent {
    /// Path the attempt ran on.
    pub path: PathKind,
    /// How it ended.
    pub outcome: Outcome,
    /// Zero-based attempt index within the operation (saturates at 255).
    pub attempt: u8,
    /// Duration of the attempt's critical section, in the recorder's
    /// latency unit (ns on hardware, cycles in the simulator). Saturates
    /// at 2^42 - 1 (~73 min in ns).
    pub latency: u64,
}

impl AttemptEvent {
    /// Packs the event into one `u64` with the valid bit set. An all-zero
    /// word is never a valid event, so empty ring slots are
    /// distinguishable without a separate occupancy map.
    #[inline]
    pub fn pack(self) -> u64 {
        VALID_BIT
            | ((self.path.index() as u64) << PATH_SHIFT)
            | ((self.outcome.index() as u64) << KIND_SHIFT)
            | (self.outcome.explicit_code() << EXPLICIT_SHIFT)
            | ((self.attempt as u64) << ATTEMPT_SHIFT)
            | self.latency.min(LATENCY_MASK)
    }

    /// Unpacks a word previously produced by [`Self::pack`]; `None` for a
    /// never-written (valid-bit-clear) slot.
    pub fn unpack(word: u64) -> Option<AttemptEvent> {
        if word & VALID_BIT == 0 {
            return None;
        }
        let kind = (word >> KIND_SHIFT) & 0x7;
        let explicit = ((word >> EXPLICIT_SHIFT) & 0xff) as u8;
        Some(AttemptEvent {
            path: PathKind::ALL[((word >> PATH_SHIFT) as usize & 0x3).min(PATHS - 1)],
            outcome: Outcome::from_codes(kind, explicit),
            attempt: ((word >> ATTEMPT_SHIFT) & 0xff) as u8,
            latency: word & LATENCY_MASK,
        })
    }

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
    fn pack_round_trips_every_field() {
        let cases = [
            AttemptEvent {
                path: PathKind::FastHtm,
                outcome: Outcome::Commit,
                attempt: 0,
                latency: 0,
            },
            AttemptEvent {
                path: PathKind::SlowHtm,
                outcome: Outcome::AbortExplicit(6),
                attempt: 4,
                latency: 123_456_789,
            },
            AttemptEvent {
                path: PathKind::Lock,
                outcome: Outcome::Commit,
                attempt: 255,
                latency: LATENCY_MASK,
            },
            AttemptEvent {
                path: PathKind::FastHtm,
                outcome: Outcome::AbortSpurious,
                attempt: 17,
                latency: 1,
            },
        ];
        for ev in cases {
            assert_eq!(AttemptEvent::unpack(ev.pack()), Some(ev), "{ev:?}");
        }
    }

    #[test]
    fn latency_saturates_instead_of_corrupting() {
        let ev = AttemptEvent {
            path: PathKind::Lock,
            outcome: Outcome::Commit,
            attempt: 1,
            latency: u64::MAX,
        };
        let back = AttemptEvent::unpack(ev.pack()).unwrap();
        assert_eq!(back.latency, LATENCY_MASK);
        assert_eq!(back.path, PathKind::Lock);
        assert_eq!(back.attempt, 1);
    }

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
        assert_eq!(PathKind::from_label("bogus"), None);
        assert_eq!(Outcome::from_label("bogus"), None);
        let ev = AttemptEvent {
            path: PathKind::SlowHtm,
            outcome: Outcome::AbortExplicit(6),
            attempt: 4,
            latency: 99,
        };
        assert_eq!(AttemptEvent::from_json(&ev.to_json()), Some(ev));
    }

    #[test]
    fn zero_word_is_not_an_event() {
        assert_eq!(AttemptEvent::unpack(0), None);
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
