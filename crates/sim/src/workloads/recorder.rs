//! A [`TxAccess`] implementation that records the cache-line trace of an
//! operation run against a shadow data structure.

use std::cell::RefCell;

use rtle_htm::config::LINE_SHIFT;
use rtle_htm::{TxAccess, TxCell, TxWord};

use crate::workload::Access;

/// Records each access's line (address ≫ [`LINE_SHIFT`]) and direction while delegating
/// to plain reads/writes. Run *read-only* operations through it to obtain
/// search-path traces without mutating the shadow (mutations are applied
/// separately at commit time).
#[derive(Debug, Default)]
pub struct Recorder {
    log: RefCell<Vec<Access>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recorded trace, leaving the recorder empty.
    pub fn take(&self) -> Vec<Access> {
        std::mem::take(&mut self.log.borrow_mut())
    }
}

impl TxAccess for Recorder {
    #[inline]
    fn load<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        self.log.borrow_mut().push(Access {
            line: (cell.addr() >> LINE_SHIFT) as u64,
            write: false,
        });
        cell.read_plain()
    }

    #[inline]
    fn store<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        self.log.borrow_mut().push(Access {
            line: (cell.addr() >> LINE_SHIFT) as u64,
            write: true,
        });
        cell.write(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_avltree::AvlSet;
    use rtle_htm::PlainAccess;

    #[test]
    fn records_search_path() {
        let set = AvlSet::with_key_range(128);
        let a = PlainAccess;
        for k in 0..64 {
            set.insert(&a, k);
        }
        let rec = Recorder::new();
        assert!(set.contains(&rec, 13));
        let trace = rec.take();
        assert!(!trace.is_empty());
        assert!(trace.iter().all(|x| !x.write), "contains is read-only");
        // Depth of a 64-node AVL is ≤ 8; contains reads ≤ 2 links per node.
        assert!(trace.len() <= 2 * 8 + 1, "trace too long: {}", trace.len());
        assert!(rec.take().is_empty(), "take drains");
    }

    #[test]
    fn distinct_nodes_distinct_lines() {
        let set = AvlSet::with_key_range(16);
        let a = PlainAccess;
        for k in 0..16 {
            set.insert(&a, k);
        }
        let rec = Recorder::new();
        let _ = set.contains(&rec, 0);
        let left = rec.take();
        let _ = set.contains(&rec, 15);
        let right = rec.take();
        // The two extreme search paths share the root line but diverge.
        assert_ne!(
            left.last().unwrap().line,
            right.last().unwrap().line,
            "leftmost and rightmost leaves must be distinct lines"
        );
    }
}
