//! Ownership-record (orec) arrays for FG-TLE (§4).
//!
//! Two separate arrays record the lock holder's footprint: `r_orecs` for
//! reads and `w_orecs` for writes. They are separate so that an orec's
//! transition from unowned to *read*-owned does not abort hardware
//! transactions that only read addresses mapping to it (§4.2).
//!
//! An orec covers cache lines, not words: [`line_slot`] maps the line
//! `addr >> LINE_SHIFT` to its slot, so every cell on one 64-byte line
//! shares one orec — the granularity at which the hardware tracks
//! conflicts, the paper's "cache-line hashed" orecs, and the map the
//! simulator uses for its orec lines. The lock holder pays one stamp per
//! line it touches; a slow-path transaction that touches another word of
//! a line the holder wrote aborts, as it would on the hardware.
//!
//! Only the lock holder ever writes the arrays; slow-path hardware
//! transactions only read them. Stamping an orec stores the holding's
//! epoch, the odd value its acquisition installed in the lock word
//! ([`crate::TatasLock`]); the release, the word's next increment, releases
//! all orecs implicitly (`owned`).
//!
//! The *active* size can be changed by the lock holder while it holds the
//! lock (the adaptive extension of §4.2.1); slow-path transactions read the
//! active size inside their transaction, so a resize dooms them instead of
//! letting them index with a stale size.

// Hot path, no `unwrap` or `panic!` outside tests: every slow-path write
// stamps its orec here.
#![warn(clippy::unwrap_used, clippy::panic)]

use rtle_htm::atomic::{store_load_fence, RelaxedWord};
use rtle_htm::config::LINE_SHIFT;
use rtle_htm::hash::fast_hash;
use rtle_htm::TxCell;

/// The one address → orec map: the slot of cache line `line` under `n`
/// active orecs (the paper's `fast_hash(line, N)`). [`OrecTable::index`]
/// hashes a cell's line through it, and the simulator its data lines.
#[inline]
pub fn line_slot(line: u64, n: usize) -> usize {
    fast_hash(line, n as u64) as usize
}

/// Whether an orec stamped `stamp` is owned from the point of view of a
/// slow-path transaction whose lock-word snapshot is `local_seq` (Figure
/// 3's comparisons): owned iff `stamp >= local_seq` — stamped by the
/// holding running at the snapshot, or by one that began since.
///
/// Across a wraparound of the 64-bit word this comparison is
/// *conservative*: stamps from before the wrap are numerically huge and
/// read as owned by post-wrap snapshots, so affected slow-path
/// transactions abort spuriously (never the unsafe direction). Those
/// orecs stay owned: [`OrecTable::stamp`] elides a store below an orec's
/// value, so no post-wrap holding overwrites a pre-wrap stamp. At one
/// holding per nanosecond the word wraps after ~292 years.
#[inline]
fn owned(stamp: u64, local_seq: u64) -> bool {
    stamp >= local_seq
}

/// Which array an access stamps/checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrecKind {
    /// The read-ownership array (`r_orecs`).
    Read,
    /// The write-ownership array (`w_orecs`).
    Write,
}

/// One ownership record: the odd epoch of the last critical section that
/// stamped it. Slow-path transactions read it; its one mutator is
/// [`Orec::stamp`], the lock holder's store and §4's fence.
#[derive(Debug)]
#[repr(transparent)]
struct Orec(TxCell<u64>);

impl Orec {
    /// Stamps `epoch` and fences: the acquisition store must be ordered
    /// before the holder's next data access, or a slow-path transaction
    /// could read the old data after checking the old orec (§4's
    /// store-load fence). `TxCell::write` already publishes a fresh stripe
    /// version, but that is an artifact of the software emulation — on
    /// real RTM hardware the store is plain, so the fence stays
    /// (`rtle-check`'s `tests/one_home.rs` holds it on the line after the
    /// store).
    #[inline]
    fn stamp(&self, epoch: u64) {
        self.0.write(epoch);
        store_load_fence();
    }

    /// Transactional read: subscribes the slow path to the orec, so a later
    /// stamp by the holder aborts it.
    #[inline]
    fn read(&self) -> u64 {
        self.0.read()
    }

    /// One load (see [`TxCell::read_unvalidated`]): only lock holders
    /// stamp an orec, with a plain store, and transactions only read it.
    #[inline]
    fn read_unvalidated(&self) -> u64 {
        self.0.read_unvalidated()
    }
}

/// The pair of orec arrays attached to one [`crate::ElidableLock`].
#[derive(Debug)]
pub struct OrecTable {
    r_orecs: Box<[Orec]>,
    w_orecs: Box<[Orec]>,
    /// Number of orecs currently in use (≤ capacity). Read transactionally
    /// by the slow path; written only by the lock holder.
    active: TxCell<u64>,
    /// Conflict-attribution heatmap, capacity-indexed: how many slow-path
    /// self-aborts each slot caused. Plain (non-transactional) atomics on
    /// purpose — in the software HTM emulation they survive the explicit
    /// abort that immediately follows the increment, keeping the
    /// per-slot/aggregate invariant exact. (On real RTM the increment
    /// would roll back with the transaction; attribution there would need
    /// a post-abort re-check, noted in DESIGN.md §8.)
    conflicts: Box<[RelaxedWord]>,
}

impl OrecTable {
    /// Allocates a table with `capacity` orecs, all initially active.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "need at least one orec");
        OrecTable {
            r_orecs: (0..capacity).map(|_| Orec(TxCell::new(0))).collect(),
            w_orecs: (0..capacity).map(|_| Orec(TxCell::new(0))).collect(),
            active: TxCell::new(capacity as u64),
            conflicts: (0..capacity).map(|_| RelaxedWord::new(0)).collect(),
        }
    }

    /// Allocates a table with `capacity` orecs of which `active` are in use.
    pub fn with_active(capacity: usize, active: usize) -> Self {
        assert!(active >= 1 && active <= capacity);
        let t = OrecTable::new(capacity);
        t.active.write(active as u64);
        t
    }

    /// Total allocated orecs (resize ceiling).
    pub fn capacity(&self) -> usize {
        self.r_orecs.len()
    }

    /// Active orec count, outside a transaction (lock-holder / reporting
    /// use). One load: only the lock holder writes the count (see
    /// [`TxCell::read_unvalidated`]).
    pub fn active_plain(&self) -> usize {
        self.active.read_unvalidated() as usize
    }

    /// Active orec count, read transactionally (slow-path use: subscribes
    /// to resizes).
    #[inline]
    pub fn active_tx(&self) -> usize {
        self.active.read() as usize
    }

    /// Resizes the active portion. May only be called by the lock holder
    /// while it holds the lock (§4.2.1: "it is safe for the thread holding
    /// the lock to refine the conflict detection granularity by resizing
    /// the orecs array").
    pub fn resize_active(&self, new_active: usize) {
        assert!(new_active >= 1 && new_active <= self.capacity());
        self.active.write(new_active as u64);
    }

    /// Maps an address to its orec index under `n` active orecs: the slot
    /// of the address's cache line ([`line_slot`]), so all words of one
    /// line share an orec. A heatmap slot is therefore a line's orec.
    #[inline]
    pub fn index(addr: usize, n: usize) -> usize {
        line_slot((addr >> LINE_SHIFT) as u64, n)
    }

    /// Lock-holder barrier half: stamps the orec of `addr`'s line under the
    /// section's `n` active orecs with `epoch`, unless it already carries a
    /// stamp `>= epoch`. `n` is the count the holder read at lock
    /// acquisition, after any resize (§4.2.1 allows resizes only there).
    /// Returns `true` iff a store was performed (i.e. this orec was newly
    /// acquired by this critical section) — the caller maintains the
    /// `uniq_*_orecs` counter.
    #[inline]
    pub fn stamp(&self, kind: OrecKind, addr: usize, n: usize, epoch: u64) -> bool {
        let i = Self::index(addr, n);
        let orec = &self.array(kind)[i];
        // "we only store a value in the orec if that value is greater than
        // the value already stored there" — avoids both the duplicate store
        // and its fence (§4.2). One load: only lock holders write an orec,
        // and the lock's release → acquire orders every earlier holder's
        // stamps before this one's check.
        if orec.read_unvalidated() >= epoch {
            return false;
        }
        orec.stamp(epoch);
        true
    }

    /// Slow-path read barrier check (Figure 3, lines 2–5): inside a hardware
    /// transaction, is the *write* orec for `addr` owned? On conflict,
    /// returns the slot index, so the caller can attribute the self-abort
    /// before raising it. The transactional read also subscribes to the
    /// orec, so a later stamp by the holder aborts this transaction.
    #[inline]
    pub fn read_conflict_slot(&self, addr: usize, n: usize, local_seq: u64) -> Option<usize> {
        let i = Self::index(addr, n);
        owned(self.w_orecs[i].read(), local_seq).then_some(i)
    }

    /// Slow-path write barrier check (Figure 3, lines 16–20): inside a
    /// hardware transaction, is the read *or* write orec for `addr` owned?
    /// On conflict, returns the slot index.
    #[inline]
    pub fn write_conflict_slot(&self, addr: usize, n: usize, local_seq: u64) -> Option<usize> {
        let i = Self::index(addr, n);
        let conflict =
            owned(self.r_orecs[i].read(), local_seq) || owned(self.w_orecs[i].read(), local_seq);
        conflict.then_some(i)
    }

    /// Attributes one slow-path self-abort to `slot`. Called immediately
    /// before the explicit [`crate::abort_codes::OREC_CONFLICT`] abort, so
    /// each such abort is attributed exactly once and the per-slot counts
    /// sum to the aggregate counter.
    #[inline]
    pub fn note_conflict(&self, slot: usize) {
        self.conflicts[slot].fetch_add(1);
    }

    /// Point-in-time copy of the per-slot conflict counts.
    pub fn heatmap(&self) -> OrecHeatmap {
        OrecHeatmap {
            conflicts: self.conflicts.iter().map(RelaxedWord::load).collect(),
        }
    }

    /// How many of the active orecs carry stamps at least `epoch`
    /// (diagnostics / the adaptive heuristic's utilization signal).
    pub fn stamped_since(&self, kind: OrecKind, epoch: u64) -> usize {
        let n = self.active_plain();
        self.array(kind)[..n]
            .iter()
            .filter(|o| o.read_unvalidated() >= epoch)
            .count()
    }

    fn array(&self, kind: OrecKind) -> &[Orec] {
        match kind {
            OrecKind::Read => &self.r_orecs,
            OrecKind::Write => &self.w_orecs,
        }
    }
}

/// Which orec slots caused slow-path self-aborts: one conflict count per
/// slot, capacity-length. A snapshot of an [`OrecTable`]
/// ([`OrecTable::note_conflict`]), or the simulator's own books.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrecHeatmap {
    /// Per-slot attributed self-aborts.
    pub conflicts: Vec<u64>,
}

impl OrecHeatmap {
    /// Sum of per-slot conflict counts. Equals the lock's aggregate
    /// `OREC_CONFLICT` self-abort counter (the heatmap invariant —
    /// tested in `elidable.rs`).
    pub fn total_conflicts(&self) -> u64 {
        self.conflicts.iter().sum()
    }

    /// The `k` hottest slots by conflict count (descending; slots with
    /// zero conflicts are omitted).
    pub fn hottest(&self, k: usize) -> Vec<(usize, u64)> {
        let mut hot: Vec<(usize, u64)> = self
            .conflicts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(k);
        hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_rule() {
        // A holding acquired the lock: word 1; it stamps orecs with 1.
        // A slow-path txn that started *during* this holding has
        // local_seq == 1 and must see the orec as owned.
        assert!(owned(1, 1));
        // A txn started after release (snapshot 2) must see it free.
        assert!(!owned(1, 2));
        // Orecs from even older holdings are free too.
        assert!(!owned(1, 4));
        // And a new holding's stamps (3) are owned for snapshot 3.
        assert!(owned(3, 3));
        assert!(!owned(3, 4));
    }

    #[test]
    fn wraparound_ownership_is_conservative() {
        // A stamp from the final pre-wrap holding vs. a post-wrap snapshot:
        // the orec looks owned (spurious abort), never un-owned while the
        // stamping holding still runs.
        let pre_wrap_stamp = u64::MAX;
        assert!(
            owned(pre_wrap_stamp, 0),
            "stale pre-wrap stamps read as owned by post-wrap snapshots (safe direction)"
        );
        // Within the pre-wrap holding itself the rule is exact.
        assert!(owned(pre_wrap_stamp, u64::MAX));
        // An orec a post-wrap holding stamps follows the exact rule.
        assert!(owned(1, 1));
        assert!(!owned(1, 2));
    }

    #[test]
    fn stamp_once_per_epoch() {
        let t = OrecTable::new(16);
        assert!(t.stamp(OrecKind::Read, 0x1000, 16, 1));
        assert!(
            !t.stamp(OrecKind::Read, 0x1000, 16, 1),
            "second stamp is elided"
        );
        // A later critical section stamps again.
        assert!(t.stamp(OrecKind::Read, 0x1000, 16, 3));
    }

    #[test]
    fn conflict_visibility_follows_epochs() {
        let t = OrecTable::new(16);
        let addr = 0xbeef_usize;
        let n = t.active_plain();

        // Holder in epoch 1 stamps a write orec.
        t.stamp(OrecKind::Write, addr, n, 1);
        // Slow txn that started during epoch 1 sees the conflict...
        assert!(t.read_conflict_slot(addr, n, 1).is_some());
        assert!(t.write_conflict_slot(addr, n, 1).is_some());
        // ...but one that starts after release (snapshot 2) does not.
        assert!(t.read_conflict_slot(addr, n, 2).is_none());
        assert!(t.write_conflict_slot(addr, n, 2).is_none());
    }

    #[test]
    fn read_stamp_blocks_writers_not_readers() {
        let t = OrecTable::new(16);
        let addr = 0xcafe_usize;
        let n = t.active_plain();
        t.stamp(OrecKind::Read, addr, n, 1);
        assert!(
            t.read_conflict_slot(addr, n, 1).is_none(),
            "read-read is allowed"
        );
        assert!(
            t.write_conflict_slot(addr, n, 1).is_some(),
            "read-write is not"
        );
    }

    #[test]
    fn single_orec_aliases_everything() {
        let t = OrecTable::new(1);
        let n = t.active_plain();
        t.stamp(OrecKind::Write, 0x1, n, 1);
        assert!(
            t.read_conflict_slot(0x9999, n, 1).is_some(),
            "FG-TLE(1): any address conflicts"
        );
    }

    #[test]
    fn resize_active_changes_mapping_domain() {
        let t = OrecTable::with_active(64, 64);
        assert_eq!(t.active_plain(), 64);
        t.resize_active(4);
        assert_eq!(t.active_plain(), 4);
        // All indices now land in [0, 4).
        for a in 0..1000usize {
            assert!(OrecTable::index(a * 8, 4) < 4);
        }
    }

    #[test]
    fn stamped_since_counts_current_section_only() {
        let t = OrecTable::new(8);
        assert!(t.stamp(OrecKind::Write, 0x10, 8, 1));
        assert!(
            !t.stamp(OrecKind::Write, 0x38, 8, 1),
            "another word of the same line shares its orec"
        );
        t.stamp(OrecKind::Write, 0x40, 8, 1);
        let stamped = t.stamped_since(OrecKind::Write, 1);
        assert!((1..=2).contains(&stamped), "two lines may alias");
        assert_eq!(t.stamped_since(OrecKind::Write, 3), 0);
    }

    #[test]
    fn one_line_is_one_slot_and_the_simulator_shares_the_map() {
        for n in [1, 4, 16, 4096] {
            for line in 0..256u64 {
                let base = (line << LINE_SHIFT) as usize;
                let slot = OrecTable::index(base, n);
                assert_eq!(slot, line_slot(line, n));
                for word in 1..8 {
                    assert_eq!(OrecTable::index(base + 8 * word, n), slot);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = OrecTable::new(0);
    }

    #[test]
    fn conflict_slots_name_the_owned_slot() {
        let t = OrecTable::new(16);
        let addr = 0xbeef_usize;
        let n = t.active_plain();
        t.stamp(OrecKind::Write, addr, n, 3);
        let slot = t.read_conflict_slot(addr, n, 3).expect("conflict");
        assert_eq!(slot, OrecTable::index(addr, n));
        assert!(t.read_conflict_slot(addr, n, 4).is_none(), "released");
        // Read stamps surface through the write check only.
        let addr2 = 0x1234_usize;
        t.stamp(OrecKind::Read, addr2, n, 3);
        assert!(
            t.read_conflict_slot(addr2, n, 3).is_none()
                || OrecTable::index(addr2, n) == OrecTable::index(addr, n)
        );
        assert!(t.write_conflict_slot(addr2, n, 3).is_some());
    }

    #[test]
    fn heatmap_attribution_and_hottest() {
        let t = OrecTable::new(8);
        assert_eq!(t.heatmap().hottest(1), []);
        t.note_conflict(2);
        t.note_conflict(2);
        t.note_conflict(6);
        let h = t.heatmap();
        assert_eq!(h.conflicts.len(), 8, "capacity-length");
        assert_eq!(h.total_conflicts(), 3);
        assert_eq!(h.conflicts[2], 2);
        assert_eq!(h.hottest(10), vec![(2, 2), (6, 1)]);
        assert_eq!(h.hottest(1), vec![(2, 2)]);
    }
}
