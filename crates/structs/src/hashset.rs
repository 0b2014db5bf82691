//! Open-addressing transactional hash set: [`rtle_htm::table`] with an
//! empty payload.

use rtle_htm::table::{Entry, Table};
use rtle_htm::{PlainAccess, TxAccess};

/// A fixed-capacity set of `u64` keys with linear-probing open addressing.
///
/// Deletions leave tombstones (probe chains stay intact); the structure
/// never rehashes, so size it at ≥ 2× the expected live keys plus churn.
/// All operations are generic over [`TxAccess`].
#[derive(Debug)]
pub struct TxHashSet {
    table: Table<()>,
}

impl TxHashSet {
    /// Allocates a set with at least `capacity` slots (rounded to a power
    /// of two). Keys up to `u64::MAX - 2` are supported.
    pub fn with_capacity(capacity: usize) -> Self {
        TxHashSet {
            table: Table::with_capacity(capacity),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.table.slots().len()
    }

    /// Membership test. Reads the probe chain only.
    pub fn contains<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> bool {
        self.table.find(a, key).is_some()
    }

    /// Inserts `key`; returns `false` if already present (read-only in
    /// that case — the §3 shape that lets RW-TLE commit it concurrently
    /// with a lock holder).
    pub fn insert<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> bool {
        match self
            .table
            .entry(a, key)
            .expect("TxHashSet full: size it at >= 2x the expected keys")
        {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.claim(a, key);
                true
            }
        }
    }

    /// Removes `key`; returns `false` if absent (read-only in that case).
    pub fn remove<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> bool {
        let Some(slot) = self.table.find(a, key) else {
            return false;
        };
        slot.vacate(a);
        true
    }

    /// Returns an arbitrary present key, transactionally — the classic
    /// "take any work item" shape for composable consumers: pair with a
    /// transactional `remove` and a `retry` when `None`, and the consumer
    /// blocks until a producer commits an insert. O(capacity) scan; size
    /// the set for the working set, not the key space.
    pub fn any_key<A: TxAccess + ?Sized>(&self, a: &A) -> Option<u64> {
        self.table.slots().iter().find_map(|slot| slot.key(a))
    }

    /// Live key count. O(capacity); quiescent use only.
    pub fn len_plain(&self) -> usize {
        let a = PlainAccess;
        self.table
            .slots()
            .iter()
            .filter(|slot| slot.key(&a).is_some())
            .count()
    }

    /// All keys, unordered. Quiescent use only.
    pub fn keys_plain(&self) -> Vec<u64> {
        let a = PlainAccess;
        self.table
            .slots()
            .iter()
            .filter_map(|slot| slot.key(&a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let s = TxHashSet::with_capacity(64);
        let a = PlainAccess;
        assert!(!s.contains(&a, 7));
        assert!(s.insert(&a, 7));
        assert!(!s.insert(&a, 7));
        assert!(s.contains(&a, 7));
        assert!(s.remove(&a, 7));
        assert!(!s.remove(&a, 7));
        assert!(!s.contains(&a, 7));
        assert_eq!(s.len_plain(), 0);
    }

    #[test]
    fn key_zero_and_one_are_fine() {
        // The EMPTY/TOMBSTONE sentinels must not collide with small keys.
        let s = TxHashSet::with_capacity(16);
        let a = PlainAccess;
        assert!(s.insert(&a, 0));
        assert!(s.insert(&a, 1));
        assert!(s.contains(&a, 0));
        assert!(s.contains(&a, 1));
        assert!(s.remove(&a, 0));
        assert!(s.contains(&a, 1));
    }

    #[test]
    fn tombstones_keep_probe_chains_intact() {
        let s = TxHashSet::with_capacity(8); // force collisions
        let a = PlainAccess;
        for k in 0..5 {
            assert!(s.insert(&a, k));
        }
        // Remove a middle-of-chain key; the rest must stay reachable.
        assert!(s.remove(&a, 2));
        for k in [0u64, 1, 3, 4] {
            assert!(s.contains(&a, k), "key {k} lost after tombstoning");
        }
        // Reinsertion reuses the tombstone.
        assert!(s.insert(&a, 2));
        assert_eq!(s.len_plain(), 5);
    }

    #[test]
    fn slots_are_line_padded() {
        assert_eq!(std::mem::size_of::<rtle_htm::table::Slot<()>>(), 64);
    }

    #[test]
    #[should_panic(expected = "TxHashSet full")]
    fn full_set_panics() {
        let s = TxHashSet::with_capacity(8);
        let a = PlainAccess;
        for k in 0..9 {
            s.insert(&a, k);
        }
    }
}
