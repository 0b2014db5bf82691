//! The versioned-lock protocol, written once: a [`Table`] of striped,
//! versioned lock words under one commit clock and the transaction-side
//! [`Footprint`] it works on. [`Table::read`], its snapshot extension and
//! [`Table::commit`] are the only copy of each TL2 step in the workspace.
//!
//! Every tracked address maps to one *stripe*, a single `AtomicU64` that
//! plays the role the cache-coherence directory plays for real HTM:
//!
//! * **Unlocked** stripes hold an even *version* — the value of the commit
//!   clock at the last commit that wrote the stripe.
//! * **Locked** stripes hold `(owner_token << 1) | 1`, taken by a committing
//!   transaction for the duration of its write-back (or by a plain
//!   non-transactional store for its brief update).
//!
//! The clock advances by 2 per writing commit, so lock bit (LSB) and
//! version never collide, and versions compare in wrapping order
//! ([`newer_than`]): the protocol survives clock wraparound.
//!
//! # The two instances
//!
//! * The emulated HTM ([`crate::swhtm`], [`crate::TxCell`]'s plain
//!   accesses) runs on [`GLOBAL`], the const-initialised process-wide
//!   table. Plain stores also draw fresh clock values, so a store performed
//!   *after* a transaction read a line carries a version newer than any
//!   read-version that transaction holds and dooms it — this is what makes
//!   the emulation strongly atomic.
//! * `rtle_hytm::Tl2` owns a [`BoxedTable`] per instance.
//!
//! A caller supplies exactly what differs between them: the address →
//! stripe map (cache line vs word), where `rv` comes from at begin (the
//! thread's cached value vs a clock sample), how a write-set stripe is
//! acquired ([`Table::try_lock`] once — hardware does not wait — vs in a
//! bounded wait; a plain store waits for as long as it takes), and
//! the write-back store (raw `Release` word vs strongly atomic
//! `TxCell::write`). Nothing here branches on which caller it serves.
//!
//! # Why a stale `rv` is safe
//!
//! The protocol needs only that `rv` is a value the clock held *no later
//! than* begin: every read is of an unlocked stripe with version not newer
//! than `rv`, unchanged across the load. A writer that releases a stripe
//! after we read it locked it before drawing its version; had it drawn a
//! version ≤ `rv` it would have held the lock since before our begin and
//! our read would have met the lock. So everything we read is the memory
//! state as of clock value `rv`, and an older `rv` only makes more stripes
//! look new. **Extension** keeps the invariant: once the clock is sampled
//! as `now`, a writer with version ≤ `now` that touches a stripe we read
//! holds or has released that stripe by the time we revalidate it, so
//! revalidation meets its lock or its version newer than the old `rv`; a
//! writer that locks later draws a version > `now`. The order matters — a
//! writer that slips in between a validation and a later clock sample
//! would be inside the new snapshot without having been checked. The
//! **shortcut** survives as well: `wv == rv + 2` means the clock stood at
//! `rv` when we bumped it — nobody drew a version since `rv` was observed.
//!
//! # Orderings
//!
//! Stripe words: `Acquire` loads and lock CAS, `Release` unlock. The clock
//! is sampled and bumped `SeqCst`: the shortcut infers "no other writer"
//! from the value our own bump returned, which is an argument about one
//! total order of bumps and samples that every thread agrees on. A
//! release-sequence argument may well carry it at `AcqRel`, but nothing
//! in the repo checks that (the models run under SC), and on x86-64 the
//! sample is the same `mov` and the bump the same `lock xadd` either way.
//! Relaxing it is the weak-memory model's job.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::abort::AbortCode;
use crate::config::{LINE_SHIFT, STRIPE_COUNT};
use crate::hash::wang_mix64;
use crate::lanes::Block;

/// Whether a raw stripe word is currently locked.
#[inline]
pub fn is_locked(word: u64) -> bool {
    word & 1 == 1
}

/// Owner token of a locked stripe word.
#[inline]
pub fn owner_of(word: u64) -> u64 {
    debug_assert!(is_locked(word));
    word >> 1
}

/// Encodes a locked stripe word for `owner`.
#[inline]
pub fn locked_word(owner: u64) -> u64 {
    (owner << 1) | 1
}

/// `true` iff version `v` is newer than read-version `rv` in wrapping
/// order. Exact for distances below 2^63 — 2^62 commits, far beyond any
/// span a transaction (or an idle thread's cached `rv`) can lag behind.
#[inline]
pub fn newer_than(v: u64, rv: u64) -> bool {
    v != rv && v.wrapping_sub(rv) < u64::MAX / 2
}

/// A small open-addressing set of stripe indices, used both to deduplicate
/// the read/write sets and to count distinct stripes against capacity
/// limits. `slots` stores `stripe + 1` so that 0 can be the empty sentinel,
/// indexed by the stripe index itself (already a hash of the address);
/// `order` remembers the occupied slots in insertion order, so iterating
/// and clearing cost the footprint, not the table's high-water mark.
#[derive(Debug, Default)]
pub(crate) struct StripeSet {
    slots: Vec<u32>,
    order: Vec<u32>,
}

impl StripeSet {
    const fn new() -> Self {
        StripeSet {
            slots: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Doubles the table (64 slots to start with) and re-seats the members
    /// in their insertion order.
    #[cold]
    fn grow(&mut self) {
        let members: Vec<u32> = self.iter().collect();
        self.slots = vec![0; (self.slots.len() * 2).max(64)];
        self.order.clear();
        for stripe in members {
            self.insert(stripe);
        }
    }

    /// Inserts `stripe`; returns `true` iff it was not already present.
    fn insert(&mut self, stripe: u32) -> bool {
        // Load factor below one half (also covers the empty table).
        if self.order.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() as u32 - 1;
        let key = stripe + 1;
        let mut i = stripe & mask;
        loop {
            let v = self.slots[i as usize];
            if v == key {
                return false;
            }
            if v == 0 {
                self.slots[i as usize] = key;
                self.order.push(i);
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn len(&self) -> u32 {
        self.order.len() as u32
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates the distinct stripes in insertion order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().map(|&i| self.slots[i as usize] - 1)
    }

    /// Empties the set, keeping the table. Returns how many slots it had
    /// to reset — the members, however large the table has grown.
    fn clear(&mut self) -> usize {
        for &i in &self.order {
            self.slots[i as usize] = 0;
        }
        let reset = self.order.len();
        self.order.clear();
        reset
    }
}

/// The transaction side of the protocol: what one transaction has read
/// and written, in stripes of one [`Table`]. Lives across transactions —
/// the sets keep their allocations, and `rv` is there for a caller that
/// carries it from one transaction to its next begin.
#[derive(Debug, Default)]
pub struct Footprint {
    /// Read-version: some value the clock held no later than begin.
    /// Advances by extension; a commit leaves its `wv` here, so this is
    /// always the latest clock value the footprint has observed.
    pub(crate) rv: u64,
    /// Distinct stripes read (validated at extension, and at commit when
    /// the transaction has writes).
    pub(crate) reads: StripeSet,
    /// Distinct stripes written (locked at commit).
    pub(crate) writes: StripeSet,
    /// Commit scratch: the write stripes in ascending order with their
    /// pre-lock versions. Empty outside `commit`.
    locked: Vec<(u32, u64)>,
    /// Read-set validations run so far (extensions and commits): a
    /// statistic, the caller's to read and reset.
    pub validations: u64,
}

impl Footprint {
    /// An empty footprint with `rv` 0.
    pub const fn new() -> Self {
        Footprint {
            rv: 0,
            reads: StripeSet::new(),
            writes: StripeSet::new(),
            locked: Vec::new(),
            validations: 0,
        }
    }

    /// Begins a transaction: empties both sets. `rv` must be a value the
    /// table's clock held no later than now — a fresh sample, or whatever
    /// this footprint last observed.
    #[inline]
    pub fn begin(&mut self, rv: u64) {
        self.rv = rv;
        self.reads.clear();
        self.writes.clear();
    }

    /// Notes that the transaction writes through `stripe`.
    #[inline]
    pub fn write(&mut self, stripe: u32) {
        self.writes.insert(stripe);
    }
}

/// A commit clock plus the stripe words it versions. `S` is the storage of
/// the words: an inline array for the process-global static, a boxed slice
/// per `Tl2` instance.
#[derive(Debug)]
pub struct Table<S> {
    /// Alone in its block: it is the one line every writing commit must
    /// pull exclusive, so nothing read-mostly (the words, the owner's other
    /// fields) may share it.
    clock: Block<AtomicU64>,
    words: S,
}

/// A heap-allocated table, sized at run time.
pub type BoxedTable = Table<Box<[AtomicU64]>>;

/// The emulated HTM's table: a plain zeroed static (8 MiB of `.bss`, paged
/// in as stripes are first touched), so a stripe access is one indexed load.
pub static GLOBAL: Table<[AtomicU64; STRIPE_COUNT]> = Table {
    clock: Block(AtomicU64::new(0)),
    words: [const { AtomicU64::new(0) }; STRIPE_COUNT],
};

/// The emulation's address → stripe map: the cell's cache line, Wang-mixed.
#[inline]
pub fn stripe_index(addr: usize) -> u32 {
    (wang_mix64((addr >> LINE_SHIFT) as u64) & (STRIPE_COUNT as u64 - 1)) as u32
}

/// Address of [`GLOBAL`]'s clock word (layout tests: it must sit alone in
/// a [`crate::lanes::BLOCK_BYTES`] block).
#[doc(hidden)]
pub fn clock_addr() -> usize {
    &GLOBAL.clock as *const Block<AtomicU64> as usize
}

impl BoxedTable {
    /// `stripes` words and a clock, all at version `start` — any even
    /// value, so tests can pin a table just below the clock's wraparound.
    ///
    /// # Panics
    ///
    /// Panics if `start` is odd — it would read as a locked stripe that
    /// never unlocks.
    pub fn boxed(stripes: usize, start: u64) -> Self {
        assert!(start & 1 == 0, "versions are even");
        Table {
            clock: Block(AtomicU64::new(start)),
            words: (0..stripes).map(|_| AtomicU64::new(start)).collect(),
        }
    }
}

impl<S: AsRef<[AtomicU64]>> Table<S> {
    /// Number of stripes (the modulus of the caller's address map).
    #[inline]
    pub fn stripes(&self) -> usize {
        self.words.as_ref().len()
    }

    /// Loads the raw stripe word.
    #[inline]
    pub fn load(&self, idx: u32) -> u64 {
        self.words.as_ref()[idx as usize].load(Ordering::Acquire)
    }

    /// Attempts to lock stripe `idx` for `owner`, expecting it unlocked with
    /// any version. Returns `Ok(previous_version)` on success,
    /// `Err(current_word)` if the stripe was locked (by anyone) or the CAS
    /// raced.
    #[inline]
    pub fn try_lock(&self, idx: u32, owner: u64) -> Result<u64, u64> {
        let s = &self.words.as_ref()[idx as usize];
        let cur = s.load(Ordering::Acquire);
        if is_locked(cur) {
            return Err(cur);
        }
        s.compare_exchange(
            cur,
            locked_word(owner),
            Ordering::Acquire,
            Ordering::Acquire,
        )
        .map(|_| cur)
    }

    /// Unlocks stripe `idx` by installing `version` (must be even).
    #[inline]
    pub fn unlock(&self, idx: u32, version: u64) {
        debug_assert!(version & 1 == 0, "versions are even");
        self.words.as_ref()[idx as usize].store(version, Ordering::Release);
    }

    /// Samples the clock: a read-version.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advances the clock and returns the new (even) commit version.
    #[inline]
    pub fn next_version(&self) -> u64 {
        self.clock.fetch_add(2, Ordering::SeqCst).wrapping_add(2)
    }

    /// Reads through `stripe` for `fp`: sample the stripe word, extend the
    /// snapshot if it is newer than `rv`, run `load`, resample. `Err` on a
    /// locked stripe, a failed extension, or a word that moved under the
    /// load.
    #[inline]
    pub fn read(
        &self,
        fp: &mut Footprint,
        stripe: u32,
        load: impl FnOnce() -> u64,
    ) -> Result<u64, AbortCode> {
        let w1 = self.load(stripe);
        if is_locked(w1) {
            return Err(AbortCode::Conflict);
        }
        if newer_than(w1, fp.rv) {
            self.extend(fp)?;
            // The version was published before the clock sample.
            debug_assert!(!newer_than(w1, fp.rv));
        }
        let val = load();
        if self.load(stripe) != w1 {
            return Err(AbortCode::Conflict);
        }
        fp.reads.insert(stripe);
        Ok(val)
    }

    /// Snapshot extension: a read met an unlocked stripe newer than `rv`.
    /// Samples the clock *first*, then checks that nothing read so far has
    /// changed since the old `rv`; on success the reads so far are equally
    /// the memory state as of the sample, which becomes `rv`.
    #[cold]
    fn extend(&self, fp: &mut Footprint) -> Result<(), AbortCode> {
        // Kept even when validation fails: a retry then begins from it.
        let rv = std::mem::replace(&mut fp.rv, self.clock());
        self.validate(fp, rv)
    }

    /// Checks that no stripe in the read set is locked by someone else or
    /// newer than `rv`. A stripe the transaction locked itself counts at
    /// the version it held *before* the lock — skipping that check is the
    /// classic TL2 lost-update bug (two readers of the same stripe both
    /// locking it for write and both committing).
    fn validate(&self, fp: &mut Footprint, rv: u64) -> Result<(), AbortCode> {
        fp.validations += 1;
        for s in fp.reads.iter() {
            let mut version = self.load(s);
            if is_locked(version) {
                // Ours iff it is in the lock list (complete before any
                // commit-time validation, empty during an extension).
                match fp.locked.binary_search_by_key(&s, |l| l.0) {
                    Ok(at) => version = fp.locked[at].1,
                    Err(_) => return Err(AbortCode::Conflict),
                }
            }
            if newer_than(version, rv) {
                return Err(AbortCode::Conflict);
            }
        }
        Ok(())
    }

    /// Commits `fp`: read-only transactions at once (their reads were each
    /// validated against `rv`); writers lock the write set through
    /// `acquire` in ascending stripe order, draw `wv`, validate the read
    /// set unless `wv == rv + 2`, run `write_back` under the locks and
    /// release every stripe at `wv`. On `Err` every lock taken here has
    /// been released at its pre-lock version and `write_back` has not run.
    ///
    /// `acquire` returns a stripe's pre-lock version once it holds the
    /// lock (through [`Table::try_lock`], waiting or not), `None` to give
    /// up. The bump that draws `wv` is the only shared word a commit writes
    /// besides its own stripes.
    #[inline]
    pub fn commit(
        &self,
        fp: &mut Footprint,
        mut acquire: impl FnMut(u32) -> Option<u64>,
        write_back: impl FnOnce(),
    ) -> Result<(), AbortCode> {
        if fp.writes.is_empty() {
            return Ok(());
        }

        debug_assert!(fp.locked.is_empty());
        fp.locked.extend(fp.writes.iter().map(|s| (s, 0)));
        fp.locked.sort_unstable();
        for held in 0..fp.locked.len() {
            match acquire(fp.locked[held].0) {
                Some(prev) => fp.locked[held].1 = prev,
                None => {
                    fp.locked.truncate(held);
                    return self.back_out(fp);
                }
            }
        }

        // Whatever happens next, wv is the latest clock value this
        // footprint has seen: a carried-over rv starts from it.
        let wv = self.next_version();
        let rv = std::mem::replace(&mut fp.rv, wv);

        // Seeded mutant (`tl2-stale-read-mutant`, never default): skip the
        // read-set revalidation precisely when the clock advanced — the
        // one case it matters. The storms of tier-1's mutant stage, the
        // fuzz campaign's pinned seed and the model checker's TL2 mutant
        // config must all catch this.
        #[cfg(not(feature = "tl2-stale-read-mutant"))]
        let clock_advanced = wv != rv.wrapping_add(2);
        #[cfg(feature = "tl2-stale-read-mutant")]
        let clock_advanced = false;
        if clock_advanced && self.validate(fp, rv).is_err() {
            return self.back_out(fp);
        }

        write_back();
        for (s, _) in fp.locked.drain(..) {
            self.unlock(s, wv);
        }
        Ok(())
    }

    /// Fails a commit: releases the stripes of the lock list at their
    /// pre-lock versions.
    #[cold]
    fn back_out(&self, fp: &mut Footprint) -> Result<(), AbortCode> {
        for (s, prev) in fp.locked.drain(..) {
            self.unlock(s, prev);
        }
        Err(AbortCode::Conflict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A private instance of the protocol: `cells` words over a table of
    /// `stripes` stripes starting at `start`, cell `i` on stripe
    /// `i % stripes`. Transactions run as `ME`; `plain_store` is what any
    /// other thread's committed write looks like.
    struct Mem {
        table: BoxedTable,
        cells: Vec<AtomicU64>,
    }

    const ME: u64 = 7;
    const OTHER: u64 = 9;

    impl Mem {
        fn new(stripes: usize, start: u64) -> Self {
            Mem {
                table: Table::boxed(stripes, start),
                cells: (0..8).map(|_| AtomicU64::new(0)).collect(),
            }
        }

        fn stripe(&self, cell: usize) -> u32 {
            (cell % self.table.stripes()) as u32
        }

        fn begin(&self) -> Footprint {
            let mut fp = Footprint::new();
            fp.begin(self.table.clock());
            fp
        }

        fn read(&self, fp: &mut Footprint, cell: usize) -> Result<u64, AbortCode> {
            self.table.read(fp, self.stripe(cell), || {
                self.cells[cell].load(Ordering::Acquire)
            })
        }

        /// Commits `fp` with `writes`, trying each stripe once.
        fn commit(&self, fp: &mut Footprint, writes: &[(usize, u64)]) -> Result<(), AbortCode> {
            for &(cell, _) in writes {
                fp.write(self.stripe(cell));
            }
            self.table.commit(
                fp,
                |s| self.table.try_lock(s, ME).ok(),
                || {
                    for &(cell, v) in writes {
                        self.cells[cell].store(v, Ordering::Release);
                    }
                },
            )
        }

        fn plain_store(&self, cell: usize, v: u64) {
            let s = self.stripe(cell);
            self.table.try_lock(s, OTHER).unwrap();
            self.cells[cell].store(v, Ordering::Release);
            self.table.unlock(s, self.table.next_version());
        }

        fn value(&self, cell: usize) -> u64 {
            self.cells[cell].load(Ordering::Acquire)
        }

        fn all_unlocked(&self) -> bool {
            (0..self.table.stripes()).all(|s| !is_locked(self.table.load(s as u32)))
        }
    }

    #[test]
    fn lock_word_roundtrip() {
        let w = locked_word(77);
        assert!(is_locked(w));
        assert_eq!(owner_of(w), 77);
        assert!(!is_locked(0));
        assert!(!is_locked(42 << 1));
    }

    #[test]
    fn newer_than_wrapping_order() {
        assert!(newer_than(2, 0));
        assert!(!newer_than(0, 2), "older is not newer");
        assert!(!newer_than(6, 6), "equal is not newer");
        // Across the wrap: 0 is two commits after 2^64 - 2.
        assert!(newer_than(0, u64::MAX - 1));
        assert!(!newer_than(u64::MAX - 1, 0));
    }

    #[test]
    fn clock_is_even_and_advances_by_two() {
        let t = Table::boxed(4, 10);
        assert_eq!(t.clock(), 10);
        assert_eq!(t.next_version(), 12);
        assert_eq!(t.next_version(), 14);
        assert_eq!(t.clock(), 14);
        assert!(
            std::panic::catch_unwind(|| Table::boxed(4, 1)).is_err(),
            "odd start"
        );
    }

    #[test]
    fn global_table_starts_zeroed_and_its_clock_sits_alone() {
        assert_eq!(GLOBAL.stripes(), STRIPE_COUNT);
        assert_eq!(clock_addr() % crate::lanes::BLOCK_BYTES, 0);
        let words = GLOBAL.words.as_ptr() as usize;
        assert!(words.abs_diff(clock_addr()) >= crate::lanes::BLOCK_BYTES);
    }

    #[test]
    fn stripe_index_stable_and_in_range() {
        let x = 0xdead_beef_usize;
        assert_eq!(stripe_index(x), stripe_index(x));
        assert!((stripe_index(x) as usize) < STRIPE_COUNT);
        // Two addresses on the same 64-byte line must alias (false sharing).
        let base = 0x1000_0000_usize;
        assert_eq!(stripe_index(base), stripe_index(base + 63));
    }

    #[test]
    fn try_lock_and_unlock() {
        let t = Table::boxed(2, 6);
        assert_eq!(t.try_lock(1, 5), Ok(6));
        assert_eq!(t.try_lock(1, 6), Err(locked_word(5)), "held");
        assert_eq!(t.try_lock(0, 6), Ok(6), "the other stripe is free");
        t.unlock(1, 8);
        assert_eq!(t.try_lock(1, 6), Ok(8));
    }

    #[test]
    fn read_meets_a_lock_or_a_moving_word_with_a_conflict() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.table.try_lock(m.stripe(3), OTHER).unwrap();
        assert_eq!(m.read(&mut fp, 3), Err(AbortCode::Conflict));
        m.table.unlock(m.stripe(3), 0);

        // The word moves under the load.
        let torn = m.table.read(&mut fp, m.stripe(3), || {
            m.plain_store(3, 1);
            m.value(3)
        });
        assert_eq!(torn, Err(AbortCode::Conflict));
        assert_eq!(fp.reads.len(), 0);
    }

    #[test]
    fn store_to_a_line_not_yet_read_is_no_conflict() {
        // Real HTM aborts only for lines already in the read/write set. A
        // line written after begin but before its first read is simply read
        // at its new value: the snapshot extends over the store.
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        let before = m.read(&mut fp, 0).unwrap();
        m.plain_store(1, 7);
        assert_eq!(m.read(&mut fp, 1), Ok(7));
        assert_eq!(fp.rv, m.table.clock(), "extended to the sample");
        assert_eq!(std::mem::take(&mut fp.validations), 1, "one extension");
        m.commit(&mut fp, &[(0, before + 7)]).unwrap();
        assert_eq!(m.value(0), 7);
    }

    #[test]
    fn extension_fails_once_a_read_line_changed() {
        // Read X; X and then Y are stored; reading the newer Y must not
        // extend the snapshot past the store to X — (old X, new Y) is the
        // zombie view.
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        assert_eq!(m.read(&mut fp, 0), Ok(0));
        m.plain_store(0, 1);
        m.plain_store(1, 1);
        assert_eq!(m.read(&mut fp, 1), Err(AbortCode::Conflict));
        // The failed extension still refreshed rv: a retry carrying it
        // over runs clean, without a second extension.
        assert_eq!(std::mem::take(&mut fp.validations), 1);
        fp.begin(fp.rv);
        assert_eq!((m.read(&mut fp, 0), m.read(&mut fp, 1)), (Ok(1), Ok(1)));
        assert_eq!(std::mem::take(&mut fp.validations), 0);
    }

    #[test]
    fn stale_read_fails_commit_and_rolls_the_locks_back() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        let v = m.read(&mut fp, 0).unwrap();
        m.plain_store(0, 10);
        let versions: Vec<u64> = (0..8).map(|s| m.table.load(s)).collect();
        // Writes 0 (read, now stale: validated at its pre-lock version)
        // and 5 (not read).
        assert_eq!(
            m.commit(&mut fp, &[(0, v + 1), (5, 1)]),
            Err(AbortCode::Conflict)
        );
        assert_eq!((m.value(0), m.value(5)), (10, 0), "nothing written back");
        assert_eq!(
            (0..8).map(|s| m.table.load(s)).collect::<Vec<_>>(),
            versions
        );
        assert!(fp.locked.is_empty());
        assert_eq!(fp.rv, m.table.clock(), "the drawn wv is kept for the retry");

        // A stripe somebody else holds fails the acquisition, and the
        // stripes taken before it are released again.
        fp.begin(fp.rv);
        m.table.try_lock(m.stripe(5), OTHER).unwrap();
        let clock = m.table.clock();
        assert_eq!(
            m.commit(&mut fp, &[(0, 1), (5, 1)]),
            Err(AbortCode::Conflict)
        );
        assert_eq!(m.table.clock(), clock, "no version drawn");
        assert_eq!(m.table.load(m.stripe(0)), versions[0]);
        assert_eq!(owner_of(m.table.load(m.stripe(5))), OTHER);
    }

    #[test]
    fn the_shortcut_skips_validation_only_when_nobody_else_committed() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.read(&mut fp, 0).unwrap();
        m.commit(&mut fp, &[(1, 1)]).unwrap();
        assert_eq!(std::mem::take(&mut fp.validations), 0, "wv == rv + 2");
        assert_eq!(m.table.load(m.stripe(1)), fp.rv, "released at wv");

        // An unrelated commit in between: validation runs, and passes.
        fp.begin(fp.rv);
        m.read(&mut fp, 0).unwrap();
        m.plain_store(4, 1);
        m.commit(&mut fp, &[(1, 2)]).unwrap();
        assert_eq!(std::mem::take(&mut fp.validations), 1);
        assert!(m.all_unlocked());
    }

    #[test]
    fn read_only_commit_touches_nothing() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.read(&mut fp, 0).unwrap();
        m.plain_store(0, 1); // even a stale read: serialized at rv
        let clock = m.table.clock();
        m.commit(&mut fp, &[]).unwrap();
        assert_eq!(m.table.clock(), clock);
    }

    #[test]
    fn write_stripes_are_acquired_in_ascending_order_into_a_reused_list() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        for cell in [6, 2, 7, 0, 2] {
            fp.write(m.stripe(cell));
        }
        assert_eq!(fp.writes.len(), 4);
        let mut order = Vec::new();
        let acquire = |s| {
            order.push(s);
            m.table.try_lock(s, ME).ok()
        };
        m.table.commit(&mut fp, acquire, || ()).unwrap();
        assert_eq!(order, [0, 2, 6, 7]);

        let cap = fp.locked.capacity();
        assert!(fp.locked.is_empty() && cap >= 4, "empty outside commit");
        fp.begin(fp.rv);
        m.commit(&mut fp, &[(0, 1), (2, 1), (6, 1), (7, 1)])
            .unwrap();
        assert_eq!(
            (fp.locked.len(), fp.locked.capacity()),
            (0, cap),
            "same allocation"
        );
    }

    // ---- clock wraparound: a table pinned two commits below u64::MAX ----

    const NEAR_WRAP: u64 = u64::MAX - 3; // even: 2^64 - 4

    #[test]
    fn reads_and_extension_cross_the_wrap() {
        let m = Mem::new(8, NEAR_WRAP);
        let mut fp = m.begin();
        assert_eq!(m.read(&mut fp, 0), Ok(0));
        m.plain_store(1, 1); // version 2^64 - 2
        m.plain_store(2, 2); // version 0: wrapped
        assert_eq!(m.table.clock(), 0);
        // Both are newer than rv = 2^64 - 4, the wrapped one included.
        assert_eq!(m.read(&mut fp, 2), Ok(2));
        assert_eq!(fp.rv, 0, "extended across the wrap");
        assert_eq!(m.read(&mut fp, 1), Ok(1), "2^64 - 2 is not newer than 0");
        assert_eq!(std::mem::take(&mut fp.validations), 1);

        // And a changed line still fails the extension across it.
        let mut stale = Footprint::new();
        stale.begin(u64::MAX - 1);
        assert_eq!(m.read(&mut stale, 1), Ok(1), "written at rv itself");
        m.plain_store(1, 5); // version 2
        assert_eq!(m.read(&mut stale, 2), Err(AbortCode::Conflict));
    }

    #[test]
    fn commit_validation_is_exact_across_the_wrap() {
        // A post-wrap commit version (small number) must still read as
        // *newer* than a pre-wrap rv (huge number), so a stale transaction
        // spanning the wrap fails instead of committing a lost update.
        let m = Mem::new(8, u64::MAX - 1);
        let mut fp = m.begin();
        let v = m.read(&mut fp, 0).unwrap();
        m.plain_store(0, v + 1);
        assert_eq!(m.table.clock(), 0, "clock wrapped");
        assert_eq!(m.commit(&mut fp, &[(0, v + 1)]), Err(AbortCode::Conflict));
        assert_eq!(fp.rv, 2);
        fp.begin(fp.rv);
        let v = m.read(&mut fp, 0).unwrap();
        m.commit(&mut fp, &[(0, v + 1)]).unwrap();
        assert_eq!(m.value(0), 2, "no lost update across the wrap");
    }

    #[test]
    fn the_shortcut_holds_across_the_wrap() {
        let m = Mem::new(8, u64::MAX - 1);
        let mut fp = m.begin();
        m.read(&mut fp, 0).unwrap();
        m.commit(&mut fp, &[(1, 1)]).unwrap();
        assert_eq!(fp.rv, 0, "wv wrapped to rv + 2");
        assert_eq!(
            std::mem::take(&mut fp.validations),
            0,
            "and still took the shortcut"
        );
        assert_eq!(m.table.load(m.stripe(1)), 0);
        for i in 1..=3 {
            fp.begin(fp.rv);
            let v = m.read(&mut fp, 1).unwrap();
            m.commit(&mut fp, &[(1, v + 1)]).unwrap();
            assert_eq!((m.value(1), m.table.clock()), (1 + i, 2 * i));
        }
    }

    // ---- one stripe for everything: total aliasing ----------------------

    #[test]
    fn a_single_stripe_costs_conflicts_never_correctness() {
        let m = Mem::new(1, 0);
        let mut fp = m.begin();
        let x = m.read(&mut fp, 0).unwrap();
        // A store to a *different* cell lands on the one stripe.
        m.plain_store(1, 9);
        assert_eq!(m.commit(&mut fp, &[(0, x + 1)]), Err(AbortCode::Conflict));
        assert!(m.all_unlocked());
        assert_eq!(std::mem::take(&mut fp.validations), 1);

        // The clock moved but the stripe did not: the self-locked stripe
        // validates at its pre-lock version and the commit goes through.
        fp.begin(fp.rv);
        let x = m.read(&mut fp, 0).unwrap();
        m.table.next_version();
        m.commit(&mut fp, &[(0, x + 1), (1, 10)]).unwrap();
        assert_eq!(std::mem::take(&mut fp.validations), 1);
        assert_eq!((m.value(0), m.value(1)), (1, 10));
        assert_eq!(m.table.load(0), fp.rv);
    }

    // ---- the stripe set --------------------------------------------------

    fn contains(s: &StripeSet, stripe: u32) -> bool {
        s.iter().any(|m| m == stripe)
    }

    #[test]
    fn stripe_set_insert_dedup_count() {
        let mut s = StripeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(9));
        assert!(s.insert(0), "stripe zero is representable");
        assert!(!s.insert(0));
        assert_eq!(s.len(), 3);
        assert!(contains(&s, 5) && contains(&s, 9) && !contains(&s, 6));
        s.clear();
        assert!(s.is_empty() && !contains(&s, 5));
        assert!(s.insert(5));
    }

    #[test]
    fn stripe_set_grows_past_initial_capacity() {
        let mut s = StripeSet::new();
        for i in 0..10_000u32 {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 10_000);
        for i in 0..10_000u32 {
            assert!(!s.insert(i));
        }
    }

    #[test]
    fn clear_costs_the_footprint_not_the_high_water_mark() {
        let mut s = StripeSet::new();
        for i in 0..4000u32 {
            s.insert(i.wrapping_mul(0x9e37_79b9) >> 12);
        }
        let big = s.len() as usize;
        assert!(big > 3900, "a 4000-line footprint (a few aliases aside)");
        assert_eq!(s.clear(), big);
        // The table stays grown; the next, one-line transaction must not
        // pay for it.
        assert!(s.insert(7));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7]);
        assert_eq!(s.clear(), 1, "one member, one slot reset");
        assert_eq!(s.clear(), 0, "an empty set resets nothing");
    }

    #[test]
    fn iteration_keeps_insertion_order_across_growth() {
        let mut s = StripeSet::new();
        let members: Vec<u32> = (0..200u32).map(|i| i * 64 + 3).collect();
        for &m in &members {
            s.insert(m);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
    }
}
