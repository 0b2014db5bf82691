//! Abort codes: why a transaction attempt failed — the workspace's one
//! abort vocabulary.
//!
//! Real HTM aborts by rolling the processor back to the `xbegin` point and
//! materializing an abort status in `eax`. The software emulation mirrors
//! that by unwinding on the [`Channel::Htm`] channel of [`crate::unwind`]:
//! the runtime in [`crate::swhtm`] catches it, rolls the redo log back (by
//! discarding it) and returns the [`AbortCode`] to the caller.
//!
//! How an attempt ended is an `Option<AbortCode>` everywhere (`None`: it
//! committed), and every per-cause table — `HtmStats`, `ExecStats`, the
//! recorder's lanes, windows and packed records — is indexed by
//! [`AbortCode::index`] and labelled from [`AbortCode::LABELS`];
//! [`AbortCode::explicit_bucket`] is the one rule for which explicit codes
//! get a counter of their own.

// Hot path, no `unwrap` or `panic!` outside tests: every attempt's ending is
// classified here.
#![warn(clippy::unwrap_used, clippy::panic)]

use std::fmt;

use crate::unwind::{self, Channel};

/// The `xabort` immediate we use for [`AbortCode::Unsupported`] when running
/// on the real-RTM backend, so both backends report the same condition.
pub const UNSUPPORTED_XABORT_CODE: u8 = 0xfe;

/// Why a transaction aborted. Mirrors the information Intel RTM returns in
/// the `xbegin` status word, at the level of detail the elision policies
/// actually consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCode {
    /// Another thread's commit (or a non-transactional store) touched a line
    /// in this transaction's read or write set.
    Conflict,
    /// The transaction's footprint exceeded the emulated cache capacity.
    Capacity,
    /// The transaction called [`crate::abort()`](crate::abort()) with the given user code.
    /// Elision runtimes use distinct codes to distinguish "lock was held"
    /// from "orec owned" and so on.
    Explicit(u8),
    /// The transaction executed an operation best-effort HTM cannot commit
    /// (syscall, fault, ...). Never succeeds on retry.
    Unsupported,
    /// A nested transaction was requested and the backend does not flatten.
    Nested,
    /// Spurious abort (interrupt, TLB shootdown, emulated via injection).
    /// May well succeed on retry.
    Spurious,
}

impl AbortCode {
    /// Number of abort classes: the length of every per-cause table.
    pub const KINDS: usize = 6;
    /// Explicit codes below this are counted per code as well as in the
    /// class ([`Self::explicit_bucket`]).
    pub const EXPLICIT_CODES: usize = 8;
    /// Stable lowercase class labels, in [`Self::index`] order: what
    /// `Display` prints and every export is keyed by.
    pub const LABELS: [&'static str; Self::KINDS] = [
        "conflict",
        "capacity",
        "explicit",
        "unsupported",
        "nested",
        "spurious",
    ];

    /// Position of the code's class in every per-cause table.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            AbortCode::Conflict => 0,
            AbortCode::Capacity => 1,
            AbortCode::Explicit(_) => 2,
            AbortCode::Unsupported => 3,
            AbortCode::Nested => 4,
            AbortCode::Spurious => 5,
        }
    }

    /// The code of class `index` (inverse of [`Self::index`]); an explicit
    /// one carries `explicit`. `None` past the table.
    pub fn from_index(index: usize, explicit: u8) -> Option<AbortCode> {
        Some(match index {
            0 => AbortCode::Conflict,
            1 => AbortCode::Capacity,
            2 => AbortCode::Explicit(explicit),
            3 => AbortCode::Unsupported,
            4 => AbortCode::Nested,
            5 => AbortCode::Spurious,
            _ => return None,
        })
    }

    /// Stable lowercase class label ([`Self::LABELS`]).
    pub fn label(self) -> &'static str {
        Self::LABELS[self.index()]
    }

    /// The per-code counter of an explicit abort: its own code below
    /// [`Self::EXPLICIT_CODES`]; `None` for any other code, which counts
    /// only in the explicit class, and for every other class.
    #[inline]
    pub fn explicit_bucket(self) -> Option<usize> {
        match self {
            AbortCode::Explicit(c) if usize::from(c) < Self::EXPLICIT_CODES => Some(usize::from(c)),
            _ => None,
        }
    }

    /// Whether retrying the transaction on HTM can plausibly succeed.
    /// `Unsupported` never can; everything else is workload-dependent.
    #[inline]
    pub fn may_retry(self) -> bool {
        !matches!(self, AbortCode::Unsupported)
    }

    /// Whether the abort was requested by the program itself.
    #[inline]
    pub fn is_explicit(self) -> bool {
        matches!(self, AbortCode::Explicit(_))
    }
}

impl fmt::Display for AbortCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCode::Explicit(c) => write!(f, "{}({c})", self.label()),
            _ => f.write_str(self.label()),
        }
    }
}

/// Unwinds out of the current software transaction with `code`.
///
/// Must only be called while a software transaction is active; the runner in
/// [`crate::swhtm::try_txn`] is the matching catch point.
#[inline]
pub fn raise(code: AbortCode) -> ! {
    unwind::raise(Channel::Htm, code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(AbortCode::Conflict.to_string(), "conflict");
        assert_eq!(AbortCode::Explicit(7).to_string(), "explicit(7)");
        assert_eq!(AbortCode::Capacity.to_string(), "capacity");
    }

    #[test]
    fn retry_classification() {
        assert!(AbortCode::Conflict.may_retry());
        assert!(AbortCode::Capacity.may_retry());
        assert!(AbortCode::Spurious.may_retry());
        assert!(AbortCode::Explicit(0).may_retry());
        assert!(!AbortCode::Unsupported.may_retry());
    }

    #[test]
    fn labels_indexes_and_their_inverse_are_one_table() {
        for (i, &label) in AbortCode::LABELS.iter().enumerate() {
            let code = AbortCode::from_index(i, 9).expect("every label has a class");
            assert_eq!((code.index(), code.label()), (i, label));
        }
        assert_eq!(AbortCode::from_index(2, 9), Some(AbortCode::Explicit(9)));
        assert_eq!(AbortCode::from_index(AbortCode::KINDS, 0), None);
        assert_eq!(AbortCode::Spurious.to_string(), "spurious");
    }

    #[test]
    fn only_low_explicit_codes_get_a_bucket() {
        assert_eq!(AbortCode::Explicit(0).explicit_bucket(), Some(0));
        assert_eq!(AbortCode::Explicit(7).explicit_bucket(), Some(7));
        assert_eq!(AbortCode::Explicit(8).explicit_bucket(), None);
        assert_eq!(AbortCode::Explicit(34).explicit_bucket(), None);
        assert_eq!(AbortCode::Conflict.explicit_bucket(), None);
    }

    #[test]
    fn explicit_classification() {
        assert!(AbortCode::Explicit(1).is_explicit());
        assert!(!AbortCode::Conflict.is_explicit());
    }
}
