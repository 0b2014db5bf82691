//! Abort codes: why a transaction attempt failed.
//!
//! Real HTM aborts by rolling the processor back to the `xbegin` point and
//! materializing an abort status in `eax`. The software emulation mirrors
//! that by unwinding on the [`Channel::Htm`] channel of [`crate::unwind`]:
//! the runtime in [`crate::swhtm`] catches it, rolls the redo log back (by
//! discarding it) and returns the [`AbortCode`] to the caller.

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
            AbortCode::Conflict => write!(f, "conflict"),
            AbortCode::Capacity => write!(f, "capacity"),
            AbortCode::Explicit(c) => write!(f, "explicit({c})"),
            AbortCode::Unsupported => write!(f, "unsupported"),
            AbortCode::Nested => write!(f, "nested"),
            AbortCode::Spurious => write!(f, "spurious"),
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
    fn explicit_classification() {
        assert!(AbortCode::Explicit(1).is_explicit());
        assert!(!AbortCode::Conflict.is_explicit());
    }
}
