//! The one abort-by-unwind channel of the workspace.
//!
//! Real HTM aborts by rolling the processor back to the `xbegin` point.
//! Every software rung of the ladder mirrors that with a panic that some
//! enclosing runner catches, and all of them do it through this module:
//!
//! | [`Channel`] | raised by                                   | caught by                 |
//! |-------------|---------------------------------------------|---------------------------|
//! | `Htm`       | [`crate::abort()`], barrier conflicts       | [`crate::swhtm::try_txn`] |
//! | `Sw`        | `rtle_hytm::abort_sw`, validation failures  | `rtle_hytm::SwPhase`      |
//! | `Restart`   | `rtle-stm` touching a lock outside its plan | `Stm::atomically`         |
//!
//! One concrete payload type carries the channel tag and an [`AbortCode`];
//! [`catch`] translates unwinds on *its* channel into `Err(code)` and
//! resumes everything else untouched — an unwind on another channel on its
//! way to an outer runner, or a genuine panic. One process-wide panic hook,
//! installed from the cold [`raise`] path, keeps these unwinds off stderr
//! and defers to the previously installed hook for real panics.

// Hot path, no `unwrap` or `panic!` outside tests: every abort of every
// rung unwinds through here, and a stray panic in the raise/catch pair
// would surface as a bogus abort or a lost one.
#![warn(clippy::unwrap_used, clippy::panic)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::abort::AbortCode;

/// Which runner an unwind is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// An emulated hardware transaction aborting back to its `try_txn`.
    Htm,
    /// A software-TM attempt aborting back to its retry driver.
    Sw,
    /// A pessimistic composable transaction restarting with a wider plan.
    Restart,
}

/// The panic payload of every transactional unwind.
struct Unwind {
    channel: Channel,
    code: AbortCode,
}

/// Unwinds to the innermost enclosing [`catch`] on `channel`, which
/// returns `Err(code)`. Channels whose catcher ignores the code raise
/// [`AbortCode::Conflict`].
#[cold]
#[inline(never)]
#[expect(
    clippy::panic,
    reason = "the unwind is the abort mechanism itself; `catch` turns it into `Err(code)`"
)]
pub fn raise(channel: Channel, code: AbortCode) -> ! {
    // Installed here rather than at every begin: an attempt that never
    // aborts never needs the hook, and this path is already cold.
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Unwind>() {
                prev(info);
            }
        }));
    });
    panic::panic_any(Unwind { channel, code });
}

/// Runs `f`, translating an unwind raised on `channel` into `Err(code)`.
/// Unwinds on other channels and genuine panics are resumed unchanged.
pub fn catch<R>(channel: Channel, f: impl FnOnce() -> R) -> Result<R, AbortCode> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast_ref::<Unwind>() {
            Some(u) if u.channel == channel => Err(u.code),
            _ => panic::resume_unwind(payload),
        },
    }
}
