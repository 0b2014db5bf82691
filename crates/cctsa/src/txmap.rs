//! Transaction-safe open-addressing k-mer hash map.
//!
//! Replaces ccTSA's STL hash map with an implementation whose every shared
//! field is a [`TxCell`], so updates can run inside critical sections under
//! any synchronization method (the paper: "replacing the STL hash-map with
//! our own transaction-safe hash-map implementation", §6.4.1): the
//! workspace's one open-addressing table, [`rtle_htm::table`], with a
//! k-mer's count and edge masks as the payload of its slot.
//!
//! The coverage filter deletes by zeroing a count: the k-mer keeps its
//! slot, so the map never tombstones a key word.

use rtle_htm::table::{Entry, Table};
use rtle_htm::{PlainAccess, TxAccess, TxCell};

use crate::kmer::Kmer;

/// A k-mer's cells, on its key's line.
#[derive(Debug, Default)]
struct Counts {
    /// Occurrence count; 0 on a filtered-out entry (and an empty slot).
    count: TxCell<u32>,
    /// Bit b set: some read showed base b immediately before this k-mer.
    in_mask: TxCell<u32>,
    /// Bit b set: some read showed base b immediately after this k-mer.
    out_mask: TxCell<u32>,
}

impl Counts {
    /// `kmer`'s record; `None` when filtered out.
    fn info<A: TxAccess + ?Sized>(&self, a: &A, kmer: Kmer) -> Option<KmerInfo> {
        let count = a.load(&self.count);
        (count > 0).then(|| KmerInfo {
            kmer,
            count,
            in_mask: a.load(&self.in_mask),
            out_mask: a.load(&self.out_mask),
        })
    }
}

/// Snapshot of one k-mer's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerInfo {
    /// The k-mer.
    pub kmer: Kmer,
    /// Occurrences recorded.
    pub count: u32,
    /// In-edge base mask (bit b: base b preceded this k-mer in some read).
    pub in_mask: u32,
    /// Out-edge base mask (bit b: base b followed this k-mer in some read).
    pub out_mask: u32,
}

/// The transaction-safe k-mer map.
#[derive(Debug)]
pub struct KmerMap {
    table: Table<Counts>,
}

impl KmerMap {
    /// Allocates a map with at least `capacity` slots (rounded up to a
    /// power of two). Size it at ≥ 2× the expected number of distinct
    /// k-mers; the map panics when completely full.
    pub fn with_capacity(capacity: usize) -> Self {
        KmerMap {
            table: Table::with_capacity(capacity),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.table.slots().len()
    }

    /// Base cache-line index of the slot array: slot `i` occupies line
    /// `slot_line_base() + i` (entries are 64-byte sized and aligned).
    /// Lets the simulator translate recorded addresses into stable,
    /// address-independent line ids.
    pub fn slot_line_base(&self) -> u64 {
        self.table.line_base()
    }

    /// Records one occurrence of `kmer` with optional in/out edge labels.
    /// Returns `true` iff the k-mer was newly inserted.
    ///
    /// This is the critical section of the transactified assembler: one
    /// `record` call per k-mer per read position.
    pub fn record<A: TxAccess + ?Sized>(
        &self,
        a: &A,
        kmer: Kmer,
        prev: Option<u8>,
        next: Option<u8>,
    ) -> bool {
        self.merge(
            a,
            KmerInfo {
                kmer,
                count: 1,
                in_mask: prev.map_or(0, |b| 1 << b),
                out_mask: next.map_or(0, |b| 1 << b),
            },
        )
    }

    /// Adds `info`'s count and edges to its k-mer's record; `true` iff
    /// the k-mer was newly inserted. A mask cell is written only when
    /// `info` sets a new bit in it.
    fn merge<A: TxAccess + ?Sized>(&self, a: &A, info: KmerInfo) -> bool {
        let entry = self.table.entry(a, info.kmer.0);
        match entry.expect("KmerMap full: size it at ≥ 2× the expected distinct k-mers") {
            Entry::Occupied(slot) => {
                let e = &slot.payload;
                a.store(&e.count, a.load(&e.count).saturating_add(info.count));
                for (cell, bits) in [(&e.in_mask, info.in_mask), (&e.out_mask, info.out_mask)] {
                    let m = a.load(cell);
                    if m | bits != m {
                        a.store(cell, m | bits);
                    }
                }
                false
            }
            Entry::Vacant(slot) => {
                slot.claim(a, info.kmer.0);
                let e = &slot.payload;
                a.store(&e.count, info.count);
                a.store(&e.in_mask, info.in_mask);
                a.store(&e.out_mask, info.out_mask);
                true
            }
        }
    }

    /// Looks up `kmer`. A filtered-out entry (count 0) reports `None`.
    pub fn get<A: TxAccess + ?Sized>(&self, a: &A, kmer: Kmer) -> Option<KmerInfo> {
        self.table.find(a, kmer.0)?.payload.info(a, kmer)
    }

    /// Zeroes the count of every k-mer seen fewer than `min_count` times —
    /// ccTSA's coverage filter. Quiescent phase; returns how many were
    /// filtered out.
    pub fn filter_low_coverage(&self, min_count: u32) -> usize {
        self.filter_low_coverage_parallel(min_count, 1)
    }

    /// Parallel coverage filter: the slot array is split into chunks of
    /// work claimed by worker threads, mirroring how ccTSA parallelizes
    /// its processing phase over its hash-map shards (§6.4). Entries are
    /// disjoint, so no synchronization beyond the chunking is needed.
    pub fn filter_low_coverage_parallel(&self, min_count: u32, threads: usize) -> usize {
        assert!(threads >= 1);
        let slots = self.table.slots();
        let chunk = slots.len().div_ceil(threads);
        let total = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for slice in slots.chunks(chunk.max(1)) {
                let total = &total;
                scope.spawn(move || {
                    let a = PlainAccess;
                    let mut filtered = 0;
                    // An empty slot's count is 0, so only live k-mers match.
                    for slot in slice {
                        let c = a.load(&slot.payload.count);
                        if c > 0 && c < min_count {
                            a.store(&slot.payload.count, 0);
                            filtered += 1;
                        }
                    }
                    total.fetch_add(filtered, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        total.into_inner()
    }

    /// All live entries (count > 0). Quiescent use only.
    pub fn iter_plain(&self) -> impl Iterator<Item = KmerInfo> + '_ {
        let a = PlainAccess;
        self.table
            .slots()
            .iter()
            .filter_map(move |slot| slot.payload.info(&a, Kmer(slot.key(&a)?)))
    }

    /// Number of live k-mers. O(capacity); quiescent use only.
    pub fn len_plain(&self) -> usize {
        self.iter_plain().count()
    }

    /// Merges every live entry of `other` into `self` (quiescent).
    pub fn absorb_plain(&self, other: &KmerMap) {
        for info in other.iter_plain() {
            self.merge(&PlainAccess, info);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get() {
        let m = KmerMap::with_capacity(64);
        let a = PlainAccess;
        let k = Kmer::from_bases(&[0, 1, 2]);
        assert!(m.record(&a, k, None, Some(3)));
        assert!(!m.record(&a, k, Some(1), Some(3)));
        let info = m.get(&a, k).unwrap();
        assert_eq!(info.count, 2);
        assert_eq!(info.in_mask, 1 << 1);
        assert_eq!(info.out_mask, 1 << 3);
        assert_eq!(m.len_plain(), 1);
    }

    #[test]
    fn zero_kmer_is_storable() {
        // Kmer 0 = "AAA..."; the key encoding must not confuse it with an
        // empty slot.
        let m = KmerMap::with_capacity(8);
        let a = PlainAccess;
        assert!(m.record(&a, Kmer(0), None, None));
        assert!(m.get(&a, Kmer(0)).is_some());
        assert!(m.get(&a, Kmer(1)).is_none());
    }

    #[test]
    fn collisions_probe_linearly() {
        let m = KmerMap::with_capacity(8); // tiny: collisions guaranteed
        let a = PlainAccess;
        for v in 0..6u64 {
            assert!(m.record(&a, Kmer(v), None, None), "insert {v}");
        }
        for v in 0..6u64 {
            assert_eq!(m.get(&a, Kmer(v)).unwrap().count, 1, "get {v}");
        }
        assert_eq!(m.len_plain(), 6);
    }

    #[test]
    #[should_panic(expected = "KmerMap full")]
    fn full_map_panics() {
        let m = KmerMap::with_capacity(8);
        let a = PlainAccess;
        for v in 0..9u64 {
            m.record(&a, Kmer(v), None, None);
        }
    }

    #[test]
    #[should_panic(expected = "KmerMap full")]
    fn absorbing_into_a_full_map_panics() {
        let m = KmerMap::with_capacity(8);
        let other = KmerMap::with_capacity(8);
        let a = PlainAccess;
        for v in 0..8u64 {
            m.record(&a, Kmer(v), None, None);
        }
        other.record(&a, Kmer(8), None, None);
        m.absorb_plain(&other);
    }

    #[test]
    fn coverage_filter_tombstones() {
        let m = KmerMap::with_capacity(64);
        let a = PlainAccess;
        m.record(&a, Kmer(1), None, None);
        for _ in 0..3 {
            m.record(&a, Kmer(2), None, None);
        }
        assert_eq!(m.filter_low_coverage(2), 1);
        assert!(m.get(&a, Kmer(1)).is_none(), "filtered out");
        assert_eq!(m.get(&a, Kmer(2)).unwrap().count, 3);
        assert_eq!(m.len_plain(), 1);
        // Probing continues past the tombstone.
        m.record(&a, Kmer(1), None, None);
        assert_eq!(m.get(&a, Kmer(1)).unwrap().count, 1);
    }

    #[test]
    fn parallel_filter_matches_sequential() {
        let seq = KmerMap::with_capacity(1 << 10);
        let par = KmerMap::with_capacity(1 << 10);
        let a = PlainAccess;
        let mut x = 7u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = Kmer(x % 300);
            let reps = 1 + (x % 4);
            for _ in 0..reps {
                seq.record(&a, k, None, None);
                par.record(&a, k, None, None);
            }
        }
        let fs = seq.filter_low_coverage(3);
        let fp = par.filter_low_coverage_parallel(3, 4);
        assert_eq!(fs, fp, "same number filtered");
        let mut ks: Vec<_> = seq.iter_plain().map(|e| (e.kmer, e.count)).collect();
        let mut kp: Vec<_> = par.iter_plain().map(|e| (e.kmer, e.count)).collect();
        ks.sort_unstable();
        kp.sort_unstable();
        assert_eq!(ks, kp);
    }

    #[test]
    fn absorb_merges_counts_and_masks() {
        let x = KmerMap::with_capacity(32);
        let y = KmerMap::with_capacity(32);
        let a = PlainAccess;
        x.record(&a, Kmer(5), Some(0), None);
        y.record(&a, Kmer(5), None, Some(1));
        y.record(&a, Kmer(6), None, None);
        x.absorb_plain(&y);
        let info = x.get(&a, Kmer(5)).unwrap();
        assert_eq!(info.count, 2);
        assert_eq!(info.in_mask, 1);
        assert_eq!(info.out_mask, 2);
        assert_eq!(x.len_plain(), 2);
    }

    #[test]
    fn concurrent_records_under_plain_lock() {
        use rtle_core::{ElidableLock, ElisionPolicy};
        use std::sync::Arc;
        let m = Arc::new(KmerMap::with_capacity(4096));
        let lock = Arc::new(
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 256 })
                .build(),
        );
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (m, lock) = (Arc::clone(&m), Arc::clone(&lock));
                s.spawn(move || {
                    for i in 0..500u64 {
                        let kmer = Kmer((i * 7 + t) % 997);
                        lock.execute(|ctx| {
                            m.record(ctx, kmer, Some((i % 4) as u8), Some((t % 4) as u8));
                        });
                    }
                });
            }
        });
        let total: u64 = m.iter_plain().map(|e| e.count as u64).sum();
        assert_eq!(total, 4 * 500);
    }
}
