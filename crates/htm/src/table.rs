//! The one open-addressing table: slot array, key encoding and linear
//! probe behind every fixed-capacity transactional hash structure of the
//! workspace. §3 motivates RW-TLE with a hash-table lookup/insert and
//! §6.4.1 transactifies ccTSA with "our own transaction-safe hash-map";
//! both are this table, and its fronts differ only in the payload a slot
//! carries — `rtle_structs::TxHashSet` (`()`), `rtle_shard::TxMap<V>`
//! (`TxCell<V>`) and `rtle_cctsa::KmerMap` (a count and two edge masks).
//!
//! Slots are indexed by the low bits of [`wang_mix64`]`(key)` and probed
//! linearly; a removal leaves a tombstone so later keys of the chain stay
//! reachable; nothing rehashes, so size a table at ≥ 2× its live keys plus
//! churn. A slot is one 64-byte line holding the key word and its payload,
//! so HTM conflict lines and FG-TLE orecs stay per entry, never per table.

// Hot path, no `unwrap` or `panic!` outside tests: the probe of every hash
// set, shard map and k-mer map operation.
#![warn(clippy::unwrap_used, clippy::panic)]

use crate::access::TxAccess;
use crate::cell::TxCell;
use crate::config::LINE_SHIFT;
use crate::hash::wang_mix64;

/// Key-word encoding: 0 = never used, 1 = tombstone, key + 2 = occupied.
const EMPTY: u64 = 0;
const TOMBSTONE: u64 = 1;

/// One slot: the key word and the front's payload, sharing one line.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct Slot<P> {
    word: TxCell<u64>,
    /// The front's per-key cells.
    pub payload: P,
}

impl<P> Slot<P> {
    /// The key this slot holds; `None` when it is empty or tombstoned.
    #[inline]
    pub fn key<A: TxAccess + ?Sized>(&self, a: &A) -> Option<u64> {
        // EMPTY and TOMBSTONE are exactly the words below 2.
        a.load(&self.word).checked_sub(2)
    }

    /// Stores `key` into a slot [`Table::entry`] returned as vacant.
    #[inline]
    pub fn claim<A: TxAccess + ?Sized>(&self, a: &A, key: u64) {
        a.store(&self.word, key + 2);
    }

    /// Tombstones the slot (its payload is left as it was).
    #[inline]
    pub fn vacate<A: TxAccess + ?Sized>(&self, a: &A) {
        a.store(&self.word, TOMBSTONE);
    }
}

/// Where a key lives, or where an insert of it goes.
#[derive(Debug)]
pub enum Entry<'t, P> {
    /// The slot holding the key.
    Occupied(&'t Slot<P>),
    /// The first tombstone the probe passed, else the empty slot that
    /// ended the chain.
    Vacant(&'t Slot<P>),
}

/// A fixed-capacity open-addressing table of `u64` keys with a payload
/// `P` per slot. Every probe is generic over [`TxAccess`], so the same
/// code runs on the HTM fast path, the instrumented slow path, under the
/// lock and sequentially.
#[derive(Debug)]
pub struct Table<P> {
    slots: Box<[Slot<P>]>,
    mask: u64,
}

impl<P: Default> Table<P> {
    /// At least `capacity` slots, rounded up to a power of two (≥ 8).
    /// Keys up to `u64::MAX - 2` are supported.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        Table {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            mask: cap as u64 - 1,
        }
    }
}

impl<P> Table<P> {
    /// The probe: walks `key`'s chain until it meets the key or an empty
    /// slot, loading only key words. `None` when the table has neither
    /// the key, an empty slot on its chain, nor a tombstone — full.
    ///
    /// # Panics
    ///
    /// Panics with `key too large` above `u64::MAX - 2`.
    #[inline]
    pub fn entry<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> Option<Entry<'_, P>> {
        assert!(key <= u64::MAX - 2, "key too large");
        let stored = key + 2;
        let mut i = wang_mix64(key) & self.mask;
        let mut tombstone = None;
        for _ in 0..self.slots.len() {
            let slot = &self.slots[i as usize];
            match a.load(&slot.word) {
                w if w == stored => return Some(Entry::Occupied(slot)),
                EMPTY => return Some(Entry::Vacant(tombstone.unwrap_or(slot))),
                TOMBSTONE => {
                    tombstone.get_or_insert(slot);
                }
                _ => {}
            }
            i = (i + 1) & self.mask;
        }
        tombstone.map(Entry::Vacant)
    }

    /// The slot holding `key`, if any (the same probe, read-only).
    #[inline]
    pub fn find<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> Option<&Slot<P>> {
        match self.entry(a, key)? {
            Entry::Occupied(slot) => Some(slot),
            Entry::Vacant(_) => None,
        }
    }

    /// Every slot, in index order (scans, quiescent iteration).
    pub fn slots(&self) -> &[Slot<P>] {
        &self.slots
    }

    /// Cache-line index of slot 0: slot `i` is line `line_base() + i`.
    /// Lets the simulator turn recorded addresses into stable,
    /// address-independent line ids.
    pub fn line_base(&self) -> u64 {
        (self.slots.as_ptr() as usize >> LINE_SHIFT) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::PlainAccess;

    /// Inserts `key` the way every front does; `false` if present.
    fn insert(t: &Table<()>, key: u64) -> bool {
        match t.entry(&PlainAccess, key).expect("table full") {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.claim(&PlainAccess, key);
                true
            }
        }
    }

    fn index_of<P>(t: &Table<P>, slot: &Slot<P>) -> usize {
        t.slots()
            .iter()
            .position(|s| std::ptr::eq(s, slot))
            .expect("slot of t")
    }

    #[test]
    fn keys_zero_and_one_sit_beside_the_sentinels() {
        let t: Table<()> = Table::with_capacity(16);
        let a = PlainAccess;
        assert!(t.find(&a, 0).is_none() && t.find(&a, 1).is_none());
        assert!(insert(&t, 0) && insert(&t, 1));
        assert!(!insert(&t, 0) && !insert(&t, 1));
        assert_eq!(t.find(&a, 0).and_then(|s| s.key(&a)), Some(0));
        assert_eq!(t.find(&a, 1).and_then(|s| s.key(&a)), Some(1));
        t.find(&a, 0).expect("present").vacate(&a);
        assert!(t.find(&a, 0).is_none());
        assert!(t.find(&a, 1).is_some());
    }

    #[test]
    fn removing_mid_chain_keeps_later_keys_reachable() {
        let t: Table<()> = Table::with_capacity(8); // forces collisions
        let a = PlainAccess;
        for k in 0..6 {
            assert!(insert(&t, k));
        }
        for gone in 0..6 {
            t.find(&a, gone).expect("present").vacate(&a);
            for k in (0..6).filter(|&k| k != gone) {
                assert!(
                    t.find(&a, k).is_some(),
                    "key {k} lost after removing {gone}"
                );
            }
            assert!(insert(&t, gone));
        }
    }

    #[test]
    fn an_insert_reuses_the_first_tombstone_it_passed() {
        let t: Table<()> = Table::with_capacity(8);
        let a = PlainAccess;
        for k in 0..8 {
            assert!(insert(&t, k));
        }
        // Full but for tombstones at slots 2 and 5: an absent key's probe
        // passes every slot, and its vacant slot is the first tombstone
        // after its home slot, wrapping.
        t.slots()[2].vacate(&a);
        t.slots()[5].vacate(&a);
        for (home, first) in [(1, 2), (2, 2), (4, 5), (6, 2)] {
            let key = (100..)
                .find(|&k| wang_mix64(k) & t.mask == home)
                .expect("a key homed there");
            let Some(Entry::Vacant(slot)) = t.entry(&a, key) else {
                panic!("key {key} homed at {home}: expected a vacant slot");
            };
            assert_eq!(index_of(&t, slot), first, "home {home}");
        }
    }

    #[test]
    fn a_full_table_has_no_entry() {
        let t: Table<()> = Table::with_capacity(8);
        let a = PlainAccess;
        for k in 0..8 {
            assert!(insert(&t, k));
        }
        assert!(t.entry(&a, 8).is_none(), "no empty slot, no tombstone");
        assert!(t.find(&a, 8).is_none());
        assert!(matches!(t.entry(&a, 3), Some(Entry::Occupied(_))));
    }

    #[test]
    #[should_panic(expected = "key too large")]
    fn keys_above_the_encoding_panic() {
        let t: Table<()> = Table::with_capacity(8);
        let _ = t.entry(&PlainAccess, u64::MAX - 1);
    }

    #[test]
    fn slots_are_one_line_for_every_payload() {
        #[derive(Default)]
        #[expect(dead_code, reason = "only the slot layout of the payload is measured")]
        struct KmerCells(TxCell<u32>, TxCell<u32>, TxCell<u32>);
        assert_eq!(std::mem::size_of::<Slot<()>>(), 64);
        assert_eq!(std::mem::size_of::<Slot<TxCell<u64>>>(), 64);
        assert_eq!(std::mem::size_of::<Slot<TxCell<bool>>>(), 64);
        assert_eq!(std::mem::size_of::<Slot<KmerCells>>(), 64);
        let t: Table<KmerCells> = Table::with_capacity(8);
        let lines: Vec<u64> = t
            .slots()
            .iter()
            .map(|s| (s as *const _ as u64) >> LINE_SHIFT)
            .collect();
        assert_eq!(lines, (0..8).map(|i| t.line_base() + i).collect::<Vec<_>>());
    }
}
