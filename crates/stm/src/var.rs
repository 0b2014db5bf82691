//! [`TxVar`]: a transactional variable that composable transactions can
//! block on.
//!
//! A `TxVar<T>` is a [`TxCell`] — transactional state in the space lock's
//! domain — plus a [`WaitList`], which makes `retry` block instead of
//! spin: a transaction that gives up via [`crate::Tx::retry`] parks on
//! the list of every `TxVar` it read (`rtle_htm::wait`'s park, with no
//! lost wakeups), and a commit that wrote a `TxVar` wakes its list.

use rtle_htm::wait::WaitList;
use rtle_htm::{TxCell, TxWord};

/// A transactional variable: shared state read and written inside
/// [`crate::atomically`] blocks, with a waiter list so transactions that
/// [`crate::Tx::retry`] after reading it are woken when it changes.
#[derive(Debug)]
pub struct TxVar<T: TxWord> {
    cell: TxCell<T>,
    waiters: WaitList,
}

impl<T: TxWord> TxVar<T> {
    /// Creates a variable holding `value`.
    pub fn new(value: T) -> Self {
        TxVar {
            cell: TxCell::new(value),
            waiters: WaitList::new(),
        }
    }

    /// Non-transactional snapshot read — setup, teardown, assertions.
    pub fn read_plain(&self) -> T {
        self.cell.read_plain()
    }

    pub(crate) fn cell(&self) -> &TxCell<T> {
        &self.cell
    }

    pub(crate) fn waiters(&self) -> &WaitList {
        &self.waiters
    }
}

impl<T: TxWord + Default> Default for TxVar<T> {
    fn default() -> Self {
        TxVar::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txvar_plain_roundtrip() {
        let v = TxVar::new(7u64);
        assert_eq!(v.read_plain(), 7);
        let d: TxVar<u64> = TxVar::default();
        assert_eq!(d.read_plain(), 0);
    }
}
