//! The per-shard store: a fixed-capacity open-addressing transactional
//! map from `u64` keys to [`TxWord`] values — [`rtle_htm::table`] with a
//! value cell as the payload of the key's cache-line slot, so FG-TLE orec
//! traffic and HTM read/write sets stay per-entry, never per-table.

// Hot path, no `unwrap` or `panic!` outside tests: every shard's map
// operation runs here.
#![warn(clippy::unwrap_used, clippy::panic)]

use rtle_htm::table::{Entry, Table};
use rtle_htm::{TxAccess, TxCell, TxWord};

/// A fixed-capacity transactional `u64 → V` map with linear-probing open
/// addressing. Deletions leave tombstones (probe chains stay intact); the
/// structure never rehashes, so size it at ≥ 2× the expected live keys
/// plus churn. All operations are generic over [`TxAccess`], so the same
/// code runs uninstrumented on the HTM fast path, instrumented on the
/// slow path, and instrumented under the lock.
#[derive(Debug)]
pub struct TxMap<V: TxWord> {
    table: Table<TxCell<V>>,
}

impl<V: TxWord + Default> TxMap<V> {
    /// Allocates a map with at least `capacity` slots (rounded up to a
    /// power of two). Keys up to `u64::MAX - 2` are supported.
    pub fn with_capacity(capacity: usize) -> Self {
        TxMap {
            table: Table::with_capacity(capacity),
        }
    }
}

impl<V: TxWord> TxMap<V> {
    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.table.slots().len()
    }

    /// Looks `key` up; `None` when absent. Reads the probe chain only.
    pub fn get<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> Option<V> {
        self.table.find(a, key).map(|slot| a.load(&slot.payload))
    }

    /// Membership probe without reading the value cell.
    pub fn contains<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> bool {
        self.table.find(a, key).is_some()
    }

    /// Inserts or updates `key`; returns the previous value, if any.
    pub fn insert<A: TxAccess + ?Sized>(&self, a: &A, key: u64, value: V) -> Option<V> {
        match self
            .table
            .entry(a, key)
            .expect("TxMap full: size it at >= 2x the expected keys")
        {
            Entry::Occupied(slot) => {
                let prev = a.load(&slot.payload);
                a.store(&slot.payload, value);
                Some(prev)
            }
            Entry::Vacant(slot) => {
                a.store(&slot.payload, value);
                slot.claim(a, key);
                None
            }
        }
    }

    /// Removes `key`; returns the removed value, `None` if absent.
    pub fn remove<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> Option<V> {
        let slot = self.table.find(a, key)?;
        let prev = a.load(&slot.payload);
        slot.vacate(a);
        Some(prev)
    }

    /// Live entry count. O(capacity): reads every slot's key.
    pub fn len<A: TxAccess + ?Sized>(&self, a: &A) -> usize {
        self.table
            .slots()
            .iter()
            .filter(|slot| slot.key(a).is_some())
            .count()
    }

    /// All `(key, value)` entries, unordered. O(capacity).
    pub fn entries<A: TxAccess + ?Sized>(&self, a: &A) -> Vec<(u64, V)> {
        self.table
            .slots()
            .iter()
            .filter_map(|slot| Some((slot.key(a)?, a.load(&slot.payload))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use rtle_htm::PlainAccess;

    use super::*;

    #[test]
    fn basic_map_semantics() {
        let m: TxMap<u64> = TxMap::with_capacity(64);
        let a = PlainAccess;
        assert_eq!(m.get(&a, 7), None);
        assert_eq!(m.insert(&a, 7, 70), None);
        assert_eq!(m.insert(&a, 7, 71), Some(70), "update returns previous");
        assert_eq!(m.get(&a, 7), Some(71));
        assert!(m.contains(&a, 7));
        assert_eq!(m.remove(&a, 7), Some(71));
        assert_eq!(m.remove(&a, 7), None);
        assert_eq!(m.get(&a, 7), None);
        assert_eq!(m.len(&a), 0);
    }

    #[test]
    fn sentinel_keys_zero_and_one_work() {
        let m: TxMap<u64> = TxMap::with_capacity(16);
        let a = PlainAccess;
        assert_eq!(m.insert(&a, 0, 100), None);
        assert_eq!(m.insert(&a, 1, 101), None);
        assert_eq!(m.get(&a, 0), Some(100));
        assert_eq!(m.get(&a, 1), Some(101));
    }

    #[test]
    fn tombstones_keep_probe_chains_intact() {
        let m: TxMap<u64> = TxMap::with_capacity(8); // force collisions
        let a = PlainAccess;
        for k in 0..5 {
            assert_eq!(m.insert(&a, k, k * 10), None);
        }
        assert_eq!(m.remove(&a, 2), Some(20));
        for k in [0u64, 1, 3, 4] {
            assert_eq!(m.get(&a, k), Some(k * 10), "key {k} lost after tombstoning");
        }
        // Reinsertion reuses the tombstone.
        assert_eq!(m.insert(&a, 2, 22), None);
        assert_eq!(m.len(&a), 5);
        let mut entries = m.entries(&a);
        entries.sort_unstable();
        assert_eq!(entries[2], (2, 22));
    }

    #[test]
    fn slots_are_line_padded() {
        use rtle_htm::table::Slot;
        assert_eq!(std::mem::size_of::<Slot<TxCell<u64>>>(), 64);
        assert_eq!(std::mem::size_of::<Slot<TxCell<bool>>>(), 64);
    }

    #[test]
    #[should_panic(expected = "TxMap full")]
    fn full_map_panics() {
        let m: TxMap<u64> = TxMap::with_capacity(8);
        let a = PlainAccess;
        for k in 0..9 {
            m.insert(&a, k, 0);
        }
    }

    #[test]
    fn non_u64_values_work() {
        let m: TxMap<bool> = TxMap::with_capacity(16);
        let a = PlainAccess;
        assert_eq!(m.insert(&a, 3, true), None);
        assert_eq!(m.get(&a, 3), Some(true));
        assert_eq!(m.insert(&a, 3, false), Some(true));
    }
}
