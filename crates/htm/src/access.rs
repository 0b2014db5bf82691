//! [`TxAccess`]: the interface between transactional data structures and
//! whatever synchronization runtime executes them.
//!
//! The paper's benchmark compares one AVL tree under many synchronization
//! methods (Lock, TLE, RW-TLE, FG-TLE(x), NOrec, RHNOrec). That works
//! because GCC emits barrier calls against a common ABI (libitm) and the
//! method is swapped by swapping the library. `TxAccess` is that ABI here:
//! data-structure code is generic over it, and each runtime provides an
//! implementation (`rtle_core::Ctx`, `rtle_hytm::TmCtx`, or [`PlainAccess`]
//! for unsynchronized sequential use).

use crate::cell::TxCell;
use crate::word::TxWord;

/// Read/write barriers a transactional runtime exposes to data-structure
/// code.
pub trait TxAccess {
    /// Reads `cell` under the runtime's barrier discipline.
    fn load<T: TxWord>(&self, cell: &TxCell<T>) -> T;
    /// Writes `cell` under the runtime's barrier discipline.
    fn store<T: TxWord>(&self, cell: &TxCell<T>, value: T);
}

/// Direct, unsynchronized access — for sequential setup/teardown phases and
/// single-threaded reference runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainAccess;

impl TxAccess for PlainAccess {
    #[inline]
    fn load<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        cell.read_plain()
    }

    #[inline]
    fn store<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        cell.write(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_access_roundtrip() {
        let c = TxCell::new(1u64);
        let a = PlainAccess;
        assert_eq!(a.load(&c), 1);
        a.store(&c, 2);
        assert_eq!(a.load(&c), 2);
    }

    fn generic_inc<A: TxAccess>(a: &A, c: &TxCell<u64>) {
        a.store(c, a.load(c) + 1);
    }

    #[test]
    fn generic_code_over_access() {
        let c = TxCell::new(0u64);
        generic_inc(&PlainAccess, &c);
        generic_inc(&PlainAccess, &c);
        assert_eq!(c.read_plain(), 2);
    }
}
