//! The versioned-lock protocol, written once: a [`Table`] of striped,
//! versioned lock words under one commit clock and the transaction-side
//! [`Footprint`] it works on. [`Table::read`], its snapshot extension and
//! [`Table::commit`] are the only copy of each TL2 step in the workspace.
//!
//! Every tracked address maps to one *stripe*, a single [`ProtocolWord`] that
//! plays the role the cache-coherence directory plays for real HTM:
//!
//! * **Unlocked** stripes hold an even *version*, drawn by the last commit
//!   that wrote the stripe.
//! * **Locked** stripes hold `(owner_token << 1) | 1`, taken by a committing
//!   transaction for the duration of its write-back (or by a plain
//!   non-transactional store for its brief update).
//!
//! A writer draws its version without writing the clock (TL2's GV5): two
//! past the newer of a clock sample and the pre-lock versions of the
//! stripes it holds ([`Table::next_version`]). Versions stay even, so lock
//! bit (LSB) and version never collide, and they compare in wrapping order
//! ([`newer_than`]): the protocol survives clock wraparound. The clock has
//! one writer, the snapshot extension, which raises it to the version of a
//! stripe a read found ahead of it. So a writing commit writes nothing
//! shared but its own stripes, and disjoint committers share no line —
//! as `xbegin`/`xend` on disjoint data share none.
//!
//! # The two instances
//!
//! * The emulated HTM ([`crate::swhtm`], [`crate::TxCell`]'s plain
//!   accesses) runs on [`GLOBAL`], the const-initialised process-wide
//!   table. Plain stores draw versions too, past the clock, so a store
//!   performed *after* a transaction read a line carries a version newer
//!   than any read-version that transaction holds and dooms it — this is
//!   what makes the emulation strongly atomic.
//! * `rtle_hytm::Tl2` owns a [`BoxedTable`] per instance.
//!
//! A caller supplies exactly what differs between them: the address →
//! stripe map (block-local cache line vs word), where `rv` comes from at begin (the
//! thread's cached value vs a clock sample), how a write-set stripe is
//! acquired ([`Table::try_lock`] once — hardware does not wait — vs in a
//! bounded wait; a plain store waits for as long as it takes), and
//! the write-back store (raw `Release` word vs strongly atomic
//! `TxCell::write`). Nothing here branches on which caller it serves.
//!
//! # Why it is safe
//!
//! Three facts carry the argument.
//!
//! 1. **Every `rv` is a value the clock held**, and the clock only moves
//!    forward: `rv` is a sample, or what the clock was after an extension
//!    raised it, or one of those carried over from an earlier transaction.
//! 2. **Every `wv` exceeds both the clock at the draw and the pre-lock
//!    version of every stripe it is released on**, and the draw comes after
//!    the write set is locked. So a stripe's versions strictly increase, and
//!    a writer with `wv` ≤ `rv` sampled the clock before it ever held `rv`:
//!    it held all its locks before any transaction obtained `rv`.
//! 3. **A stripe at exactly the footprint's last `wv`, in that commit's
//!    write set, still holds what the commit wrote**: by fact 2 any later
//!    writer releases it strictly above.
//!
//! A read takes an unlocked stripe at a version not newer than `rv`,
//! unchanged across the load. By fact 2, a writer with `wv` ≤ `rv` locked
//! that stripe before we obtained `rv`, so we read its value or a later
//! one; a writer with `wv` > `rv` shows as newer. So everything we read is
//! the memory state as of `rv` — every writer at or below it, none above —
//! and a staler `rv` only makes more stripes look new. **Extension** keeps
//! this. It raises the clock to the newer version first, takes the clock
//! as the new `rv`, then revalidates the read set against the old `rv`. A
//! writer with `wv` ≤ the new `rv` locked its stripes before the clock got
//! there (fact 2), hence before the revalidation, which meets its lock or
//! its version newer than the old `rv`; a writer that samples later draws
//! past the new `rv`. The order matters: a writer that slips in between a
//! validation and a later advance would be inside the new snapshot
//! without having been checked.
//!
//! **The own-write exemption** (fact 3) lets a read or validation take such
//! a stripe as not newer than `rv`. Its content is the footprint's own last
//! commit, which this transaction follows anyway; that commit validated its
//! reads against an `rv` no newer than the sample it carried, and any
//! writer it overwrote held the stripe before it did. Without the
//! exemption every read-modify-write of a thread's own data would find its
//! own last version ahead of the clock and write the clock in an extension.
//! The exemption is keyed to the table ([`Table`] ids are never reused),
//! because one footprint can serve several `Tl2` instances in turn.
//!
//! **What a commit carries is the sample, never `wv`.** `wv` is not a value
//! the clock held, and another writer — a plain store, say — can draw the
//! same `wv` for a stripe we read; a carried `wv` would take its version for
//! one we had seen, and lose its update. For the same reason no commit can
//! infer "nobody else committed" from its `wv`: every writing commit
//! validates its read set.
//!
//! # Orderings
//!
//! The stripe words are [`ProtocolWord`]s: `Acquire` loads and lock CAS,
//! `Release` unlock. The clock is a [`Clock`], sampled and raised `SeqCst`:
//! fact 2 is an argument about one total order of samples and advances
//! that every thread agrees on. Something weaker may well carry it, but
//! nothing in the repo checks that (the models run under SC), and on
//! x86-64 the sample is the same `mov` and the advance the same `lock
//! cmpxchg` either way. Relaxing it is the weak-memory model's job.

// Hot path, no `unwrap` or `panic!` outside tests: every read, extension and
// commit of both the emulated HTM and TL2.
#![warn(clippy::unwrap_used, clippy::panic)]

use crate::abort::AbortCode;
use crate::atomic::{Clock, ProtocolWord, RelaxedWord};
use crate::config::{LINE_SHIFT, STRIPE_BLOCK_LINES, STRIPE_COUNT};
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

/// The newer of two versions, in wrapping order.
#[inline]
fn later(a: u64, b: u64) -> u64 {
    if newer_than(b, a) {
        b
    } else {
        a
    }
}

/// The transaction side of the protocol: what one transaction has read
/// and written, in stripes of one [`Table`]. Lives across transactions —
/// the logs keep their allocations, `rv` is there for a caller that
/// carries it from one transaction to its next begin, and the last
/// writing commit's stripes stay for the own-write exemption.
///
/// The read and write sets are append-only logs: an access costs a push,
/// with no probe and no dedup, so a stripe read twice is logged twice.
/// A duplicate costs validation a redundant check, never a wrong answer,
/// and commit sorts and dedups the write log into its lock list anyway.
/// The length of a log therefore bounds its distinct count from above; a
/// caller that needs the count exactly (a capacity limit) compacts the
/// log first, in place, once its length passes the limit. Once compacted,
/// a log keeps its sorted, distinct prefix, and an access appends only a
/// stripe that prefix lacks: a transaction at its capacity that keeps
/// re-reading its lines neither grows the log nor compacts it again.
/// Without a limit (`Tl2`) nothing compacts, and a log holds one entry
/// per access.
#[derive(Debug, Default)]
pub struct Footprint {
    /// Read-version: some value the clock held no later than begin.
    /// Advances by extension; a writing commit leaves its clock sample
    /// here, so this is always the latest clock value the footprint has
    /// observed.
    pub(crate) rv: u64,
    /// Stripes read (validated at extension, and at commit when the
    /// transaction has writes).
    pub(crate) reads: Vec<u32>,
    /// Stripes written (locked at commit, each once).
    pub(crate) writes: Vec<u32>,
    /// How many leading entries of `reads` and of `writes` are sorted and
    /// distinct: 0 until the log is first compacted.
    sorted: (usize, usize),
    /// The write stripes of the last successful writing commit, ascending …
    wrote: Vec<u32>,
    /// … and the table it ran on and the version it released them at.
    wrote_at: (u64, u64),
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
            reads: Vec::new(),
            writes: Vec::new(),
            sorted: (0, 0),
            wrote: Vec::new(),
            wrote_at: (0, 0),
            locked: Vec::new(),
            validations: 0,
        }
    }

    /// Begins a transaction: empties both logs. `rv` must be a value the
    /// table's clock held no later than now — a fresh sample, or whatever
    /// this footprint last observed.
    #[inline]
    pub fn begin(&mut self, rv: u64) {
        self.rv = rv;
        self.reads.clear();
        self.writes.clear();
        self.sorted = (0, 0);
    }

    /// Notes that the transaction writes through `stripe`.
    #[inline]
    pub fn write(&mut self, stripe: u32) {
        append(&mut self.writes, self.sorted.1, stripe);
    }

    /// Compacts the read log; returns the number of distinct stripes read.
    pub(crate) fn compact_reads(&mut self) -> usize {
        compact(&mut self.reads, &mut self.sorted.0)
    }

    /// Compacts the write log; returns the number of distinct stripes
    /// written.
    pub(crate) fn compact_writes(&mut self) -> usize {
        compact(&mut self.writes, &mut self.sorted.1)
    }

    /// Whether `stripe` of table `table`, at `version`, counts as newer
    /// than `rv`: it is, and it is not this footprint's own last write.
    #[inline]
    fn is_newer(&self, table: u64, stripe: u32, version: u64, rv: u64) -> bool {
        newer_than(version, rv)
            && !((table, version) == self.wrote_at && self.wrote.binary_search(&stripe).is_ok())
    }
}

/// Appends `stripe` to a log whose first `sorted` entries are sorted and
/// distinct, unless it is among them.
#[inline]
fn append(log: &mut Vec<u32>, sorted: usize, stripe: u32) {
    if sorted == 0 || log[..sorted].binary_search(&stripe).is_err() {
        if log.len() == log.capacity() {
            grow(log);
        }
        log.push(stripe);
    }
}

/// Stripes a log's first allocation holds.
const LOG_START: usize = 256;

/// Makes room in a full log: `LOG_START` entries at first, then twice
/// the length. A log grows with its transaction's accesses, not its
/// lines, so without a first allocation this large a warm thread would
/// still be reallocating whenever a transaction re-reads more than ever
/// before.
#[cold]
fn grow(log: &mut Vec<u32>) {
    log.reserve(log.len().max(LOG_START));
}

/// Sorts and dedups `log` in place, which makes all of it the sorted
/// prefix; returns its new length, the distinct count.
#[cold]
fn compact(log: &mut Vec<u32>, sorted: &mut usize) -> usize {
    if *sorted < log.len() {
        #[cfg(test)]
        tests::COMPACTIONS.with(|c| c.set(c.get() + 1));
        log.sort_unstable();
        log.dedup();
        *sorted = log.len();
    }
    log.len()
}

/// A commit clock plus the stripe words it versions. `S` is the storage of
/// the words: an inline array for the process-global static, a boxed slice
/// per `Tl2` instance.
#[derive(Debug)]
pub struct Table<S> {
    /// Alone in its block: every transaction samples it, so nothing that
    /// is written (the words) may share its line. Only an extension that
    /// meets a stripe ahead of it writes it.
    clock: Block<Clock>,
    /// Unique over the process's life: [`GLOBAL`] is 0, and every
    /// [`BoxedTable`] draws the next.
    id: u64,
    words: S,
}

/// A heap-allocated table, sized at run time.
pub type BoxedTable = Table<Box<[ProtocolWord]>>;

/// The emulated HTM's table: a plain zeroed static (8 MiB of `.bss`, paged
/// in in proportion to the data: [`stripe_index`] gives every 256 KiB block
/// of data one 32 KiB block of it), so a stripe access is one indexed load.
pub static GLOBAL: Table<[ProtocolWord; STRIPE_COUNT]> = Table {
    clock: Block(Clock::new(0)),
    id: 0,
    words: [const { ProtocolWord::new(0) }; STRIPE_COUNT],
};

/// The next [`BoxedTable`]'s id.
static NEXT_TABLE_ID: RelaxedWord = RelaxedWord::new(1);

/// The emulation's address → stripe map, block-local: real HTM keeps its
/// conflict metadata in the tags of the lines it tracks, and this map keeps
/// it as close to the data as a table can. The cell's cache line splits
/// into a window (64 MiB of data, [`STRIPE_COUNT`] lines), a block of
/// [`STRIPE_BLOCK_LINES`] lines inside it, and a line inside the block:
///
/// * **Block-local.** A block's lines own one 32 KiB block of [`GLOBAL`],
///   so the table is paged in, and cached, in proportion to the data.
/// * **A bijection inside each window**: no two lines of one window alias.
/// * **Spread inside the block.** The line is multiplied by `SPREAD`,
///   so that two lines a power-of-two stride apart — from 64 B to 128 KiB —
///   never put their stripes on one line of [`GLOBAL`]: two threads'
///   neighbouring cells would otherwise share the stripes' line, where the
///   hardware they model shares nothing.
/// * **Windows hashed.** The window number, multiplied by the golden ratio,
///   is XORed into the block bits. glibc aligns its per-thread arenas to
///   64 MiB, so equal offsets in two arenas must not meet on one stripe.
///
/// Two lines of different windows alias when their block bits collide,
/// as two lines of a real cache collide in its sets.
#[inline]
pub fn stripe_index(addr: usize) -> u32 {
    const WINDOW_BITS: u32 = STRIPE_COUNT.trailing_zeros();
    const IN_BLOCK: u64 = STRIPE_BLOCK_LINES as u64 - 1;
    const BLOCK_BITS: u64 = STRIPE_COUNT as u64 - 1 - IN_BLOCK;
    let line = (addr >> LINE_SHIFT) as u64;
    let window = (line >> WINDOW_BITS).wrapping_mul(GOLDEN) >> (64 - WINDOW_BITS);
    let within = (line & IN_BLOCK).wrapping_mul(SPREAD) & IN_BLOCK;
    (((line ^ window) & BLOCK_BITS) | within) as u32
}

/// The multiplier that spreads a block's lines over its stripes. Odd, so
/// it permutes the block; and each `SPREAD · 2^k mod 4096`, `k < 12`, lies at
/// least 232 stripes from 0 either way, so no power-of-two stride of lines
/// brings two stripes within one 8-stripe line of [`GLOBAL`]. (Some other
/// strides do: 212 lines, 13 568 B, lands 4 stripes away.)
const SPREAD: u64 = 2531;

/// 2^64 / φ, which scatters consecutive window numbers over the block bits.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Address of [`GLOBAL`]'s stripe `idx` (layout tests: which of the table's
/// lines and pages a map puts a stripe on).
#[doc(hidden)]
pub fn stripe_addr(idx: u32) -> usize {
    &GLOBAL.words[idx as usize] as *const ProtocolWord as usize
}

/// Address of [`GLOBAL`]'s clock word (layout tests: it must sit alone in
/// a [`crate::lanes::BLOCK_BYTES`] block).
#[doc(hidden)]
pub fn clock_addr() -> usize {
    &GLOBAL.clock as *const Block<Clock> as usize
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
            clock: Block(Clock::new(start)),
            id: NEXT_TABLE_ID.fetch_add(1),
            words: (0..stripes).map(|_| ProtocolWord::new(start)).collect(),
        }
    }
}

impl<S: AsRef<[ProtocolWord]>> Table<S> {
    /// Number of stripes (the modulus of the caller's address map).
    #[inline]
    pub fn stripes(&self) -> usize {
        self.words.as_ref().len()
    }

    /// Loads the raw stripe word.
    #[inline]
    pub fn load(&self, idx: u32) -> u64 {
        self.words.as_ref()[idx as usize].load()
    }

    /// Attempts to lock stripe `idx` for `owner`, expecting it unlocked with
    /// any version. Returns `Ok(previous_version)` on success,
    /// `Err(current_word)` if the stripe was locked (by anyone) or the CAS
    /// raced.
    #[inline]
    pub fn try_lock(&self, idx: u32, owner: u64) -> Result<u64, u64> {
        let s = &self.words.as_ref()[idx as usize];
        let cur = s.load();
        if is_locked(cur) {
            return Err(cur);
        }
        s.compare_exchange(cur, locked_word(owner)).map(|_| cur)
    }

    /// Unlocks stripe `idx` by installing `version` (must be even).
    #[inline]
    pub fn unlock(&self, idx: u32, version: u64) {
        debug_assert!(version & 1 == 0, "versions are even");
        self.words.as_ref()[idx as usize].store(version);
    }

    /// Samples the clock: a read-version.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock.sample()
    }

    /// Draws the version to release a stripe at whose pre-lock version is
    /// `prev`, the caller holding its lock: two past the newer of `prev`
    /// and a clock sample. The clock is not written.
    #[inline]
    pub fn next_version(&self, prev: u64) -> u64 {
        later(self.clock(), prev).wrapping_add(2)
    }

    /// Raises the clock to at least `version` and returns the clock after
    /// the raise — the protocol's only clock write.
    fn advance(&self, version: u64) -> u64 {
        let mut now = self.clock();
        while newer_than(version, now) {
            match self.clock.raise(now, version) {
                Ok(_) => return version,
                Err(seen) => now = seen,
            }
        }
        now
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
        if fp.is_newer(self.id, stripe, w1, fp.rv) {
            self.extend(fp, w1)?;
            debug_assert!(!newer_than(w1, fp.rv));
        }
        let val = load();
        if self.load(stripe) != w1 {
            return Err(AbortCode::Conflict);
        }
        append(&mut fp.reads, fp.sorted.0, stripe);
        Ok(val)
    }

    /// Snapshot extension: a read met an unlocked stripe at `version`,
    /// newer than `rv`. Raises the clock to it *first*, then checks that
    /// nothing read so far has changed since the old `rv`; on success the
    /// reads so far are equally the memory state as of the raised clock,
    /// which becomes `rv`.
    #[cold]
    fn extend(&self, fp: &mut Footprint, version: u64) -> Result<(), AbortCode> {
        // Kept even when validation fails: a retry then begins from it.
        let rv = std::mem::replace(&mut fp.rv, self.advance(version));
        self.validate(fp, rv)
    }

    /// Checks that no stripe in the read set is locked by someone else or
    /// newer than `rv`. A stripe the transaction locked itself counts at
    /// the version it held *before* the lock — skipping that check is the
    /// classic TL2 lost-update bug (two readers of the same stripe both
    /// locking it for write and both committing).
    fn validate(&self, fp: &mut Footprint, rv: u64) -> Result<(), AbortCode> {
        fp.validations += 1;
        for &s in &fp.reads {
            let mut version = self.load(s);
            if is_locked(version) {
                // Ours iff it is in the lock list (complete before any
                // commit-time validation, empty during an extension).
                match fp.locked.binary_search_by_key(&s, |l| l.0) {
                    Ok(at) => version = fp.locked[at].1,
                    Err(_) => return Err(AbortCode::Conflict),
                }
            }
            if fp.is_newer(self.id, s, version, rv) {
                return Err(AbortCode::Conflict);
            }
        }
        Ok(())
    }

    /// Commits `fp`: read-only transactions at once (their reads were each
    /// validated against `rv`); writers lock the write set through
    /// `acquire` in ascending stripe order, sample the clock, draw `wv`,
    /// validate the read set, run `write_back` under the locks and release
    /// every stripe at `wv`. On `Err` every lock taken here has been
    /// released at its pre-lock version and `write_back` has not run.
    ///
    /// `acquire` returns a stripe's pre-lock version once it holds the
    /// lock (through [`Table::try_lock`], waiting or not), `None` to give
    /// up. Besides its own stripes a commit touches one shared word, the
    /// clock, and only loads it.
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
        fp.locked.extend(fp.writes.iter().map(|&s| (s, 0)));
        fp.locked.sort_unstable();
        fp.locked.dedup_by_key(|l| l.0);
        for held in 0..fp.locked.len() {
            match acquire(fp.locked[held].0) {
                Some(prev) => fp.locked[held].1 = prev,
                None => {
                    fp.locked.truncate(held);
                    return self.back_out(fp);
                }
            }
        }

        // Whatever happens next, the sample is the latest clock value this
        // footprint has seen: a carried-over rv starts from it, never from
        // wv (module docs).
        let now = self.clock();
        let wv = fp
            .locked
            .iter()
            .fold(now, |v, l| later(v, l.1))
            .wrapping_add(2);
        let rv = std::mem::replace(&mut fp.rv, now);

        // Seeded mutant (`tl2-stale-read-mutant`, never default): skip the
        // read-set revalidation. The storms of tier-1's mutant stage, the
        // fuzz campaign's pinned seed and the model checker's TL2 mutant
        // config must all catch this.
        let validating = cfg!(not(feature = "tl2-stale-read-mutant"));
        if validating && self.validate(fp, rv).is_err() {
            return self.back_out(fp);
        }

        write_back();
        fp.wrote.clear();
        for (s, _) in fp.locked.drain(..) {
            self.unlock(s, wv);
            fp.wrote.push(s);
        }
        fp.wrote_at = (self.id, wv);
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
        cells: Vec<ProtocolWord>,
    }

    const ME: u64 = 7;
    const OTHER: u64 = 9;

    impl Mem {
        fn new(stripes: usize, start: u64) -> Self {
            Mem {
                table: Table::boxed(stripes, start),
                cells: (0..8).map(|_| ProtocolWord::new(0)).collect(),
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
            self.table
                .read(fp, self.stripe(cell), || self.cells[cell].load())
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
                        self.cells[cell].store(v);
                    }
                },
            )
        }

        fn plain_store(&self, cell: usize, v: u64) {
            let s = self.stripe(cell);
            let prev = self.table.try_lock(s, OTHER).unwrap();
            self.cells[cell].store(v);
            self.table.unlock(s, self.table.next_version(prev));
        }

        fn value(&self, cell: usize) -> u64 {
            self.cells[cell].load()
        }

        fn version(&self, cell: usize) -> u64 {
            self.table.load(self.stripe(cell))
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
    fn a_draw_passes_clock_and_stripe_and_writes_nothing() {
        let t = Table::boxed(4, 10);
        assert_eq!(t.next_version(10), 12, "two past the clock");
        assert_eq!(
            t.next_version(4),
            12,
            "an older stripe draws from the clock"
        );
        assert_eq!(t.next_version(20), 22, "a stripe ahead draws from itself");
        assert_eq!(t.clock(), 10, "nothing written");
        assert!(
            std::panic::catch_unwind(|| Table::boxed(4, 1)).is_err(),
            "odd start"
        );
    }

    #[test]
    fn boxed_tables_never_share_an_id() {
        let (a, b) = (Table::boxed(1, 0), Table::boxed(1, 0));
        assert_ne!(a.id, b.id);
        assert!(a.id != GLOBAL.id && b.id != GLOBAL.id);
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
        // A block of data keeps to its block of stripes.
        let block = |a: usize| stripe_index(a) as usize / STRIPE_BLOCK_LINES;
        let bytes = STRIPE_BLOCK_LINES << LINE_SHIFT;
        assert!((0..bytes)
            .step_by(64)
            .all(|o| block(base + o) == block(base)));
        assert_ne!(block(base), block(base + bytes));
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
        assert_eq!(fp.rv, m.table.clock(), "extended to the raised clock");
        assert_eq!(std::mem::take(&mut fp.validations), 1, "one extension");
        m.commit(&mut fp, &[(0, before + 7)]).unwrap();
        assert_eq!(m.value(0), 7);
    }

    #[test]
    fn a_stripe_ahead_of_the_clock_raises_it() {
        // Plain stores draw past the stripe, so a line written three times
        // runs ahead of a clock nobody has raised.
        let m = Mem::new(8, 0);
        for v in 1..=3 {
            m.plain_store(0, v);
        }
        assert_eq!((m.version(0), m.table.clock()), (6, 0));
        let mut fp = m.begin();
        assert_eq!(m.read(&mut fp, 0), Ok(3));
        assert_eq!(
            (fp.rv, m.table.clock()),
            (6, 6),
            "the extension raised the clock to the stripe and took it as rv"
        );
        assert_eq!(m.table.next_version(0), 8, "every later draw is past it");
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

        // A stripe somebody else holds fails the acquisition, and the
        // stripes taken before it are released again.
        fp.begin(fp.rv);
        m.table.try_lock(m.stripe(5), OTHER).unwrap();
        assert_eq!(
            m.commit(&mut fp, &[(0, 1), (5, 1)]),
            Err(AbortCode::Conflict)
        );
        assert_eq!(m.version(0), versions[0]);
        assert_eq!(owner_of(m.version(5)), OTHER);
    }

    #[test]
    fn every_writing_commit_validates_and_carries_its_sample() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.read(&mut fp, 0).unwrap();
        m.commit(&mut fp, &[(1, 1)]).unwrap();
        assert_eq!(std::mem::take(&mut fp.validations), 1, "no shortcut");
        assert_eq!(m.version(1), 2, "released at wv");
        assert_eq!(
            (fp.rv, m.table.clock()),
            (0, 0),
            "carries the sample, not wv"
        );
        assert!(m.all_unlocked());
    }

    #[test]
    fn carried_wv_is_a_lost_update() {
        // The plain store draws the very version the commit drew. Had the
        // commit carried wv as its rv, the store's version would pass for
        // one the next transaction had seen, and its update would be lost.
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.commit(&mut fp, &[(0, 1)]).unwrap();
        fp.begin(fp.rv);
        let v = m.read(&mut fp, 1).unwrap();
        m.plain_store(1, 10);
        assert_eq!(m.version(1), m.version(0), "the same version, drawn twice");
        assert_eq!(m.commit(&mut fp, &[(1, v + 1)]), Err(AbortCode::Conflict));
        assert_eq!(m.value(1), 10, "no lost update");
    }

    #[test]
    fn read_only_commit_touches_nothing() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.read(&mut fp, 0).unwrap();
        m.plain_store(0, 1); // even a stale read: serialized at rv
        let versions: Vec<u64> = (0..8).map(|s| m.table.load(s)).collect();
        m.commit(&mut fp, &[]).unwrap();
        assert_eq!(
            (0..8).map(|s| m.table.load(s)).collect::<Vec<_>>(),
            versions
        );
        assert_eq!(m.table.clock(), 0);
    }

    #[test]
    fn write_stripes_are_acquired_in_ascending_order_into_a_reused_list() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        for cell in [6, 2, 7, 0, 2] {
            fp.write(m.stripe(cell));
        }
        assert_eq!(fp.writes, [6, 2, 7, 0, 2], "the log holds every write");
        let mut order = Vec::new();
        let acquire = |s| {
            order.push(s);
            m.table.try_lock(s, ME).ok()
        };
        m.table.commit(&mut fp, acquire, || ()).unwrap();
        assert_eq!(order, [0, 2, 6, 7], "ascending, stripe 2 once");
        assert!(m.all_unlocked());

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

    // ---- the own-write exemption ----------------------------------------

    #[test]
    fn own_writes_are_read_without_extension() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        for i in 1..=3 {
            fp.begin(fp.rv);
            let v = m.read(&mut fp, 0).unwrap();
            m.commit(&mut fp, &[(0, v + 1)]).unwrap();
            assert_eq!((m.value(0), m.version(0)), (i, 2 * i));
        }
        assert_eq!(std::mem::take(&mut fp.validations), 3, "the commits only");
        assert_eq!((fp.rv, m.table.clock()), (0, 0), "the clock never moved");
    }

    #[test]
    fn a_stripe_outside_the_own_set_at_the_own_version_is_not_exempt() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.commit(&mut fp, &[(0, 1)]).unwrap();
        m.plain_store(1, 5);
        assert_eq!(m.version(1), m.version(0));
        fp.begin(fp.rv);
        fp.validations = 0;
        assert_eq!(m.read(&mut fp, 0), Ok(1));
        assert_eq!(std::mem::take(&mut fp.validations), 0, "own write");
        assert_eq!(m.read(&mut fp, 1), Ok(5));
        assert_eq!(std::mem::take(&mut fp.validations), 1, "extended");
        assert_eq!(fp.rv, 2);
    }

    #[test]
    fn a_rewritten_own_stripe_loses_its_exemption() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        m.commit(&mut fp, &[(0, 1)]).unwrap();
        fp.begin(fp.rv);
        let v = m.read(&mut fp, 0).unwrap();
        // Another writer rewrites the stripe: still in the own set, no
        // longer at the own version.
        m.plain_store(0, 7);
        assert_eq!(m.commit(&mut fp, &[(0, v + 1)]), Err(AbortCode::Conflict));
        assert_eq!(m.value(0), 7, "no lost update");
        fp.begin(fp.rv);
        fp.validations = 0;
        assert_eq!(m.read(&mut fp, 0), Ok(7));
        assert_eq!(fp.validations, 1, "and a read extends over it");
    }

    #[test]
    fn disjoint_committers_leave_the_clock_alone() {
        let m = Mem::new(8, 10);
        std::thread::scope(|s| {
            for cell in [1, 2] {
                let m = &m;
                s.spawn(move || {
                    let mut fp = m.begin();
                    for _ in 0..10_000 {
                        fp.begin(fp.rv);
                        let v = m.read(&mut fp, cell).unwrap();
                        m.commit(&mut fp, &[(cell, v + 1)]).unwrap();
                    }
                });
            }
        });
        assert_eq!((m.value(1), m.value(2)), (10_000, 10_000));
        assert_eq!(m.table.clock(), 10, "no writing commit wrote the clock");
    }

    // ---- clock wraparound: a table pinned two commits below u64::MAX ----

    const NEAR_WRAP: u64 = u64::MAX - 3; // even: 2^64 - 4

    #[test]
    fn draws_are_exact_across_the_wrap() {
        assert_eq!(later(u64::MAX - 1, 0), 0, "0 is one draw past 2^64 - 2");
        assert_eq!(later(0, u64::MAX - 1), 0);
        assert_eq!(later(4, 6), 6);
        let t = Table::boxed(4, NEAR_WRAP);
        assert_eq!(t.next_version(0), 2, "a stripe past the wrap is ahead");
        assert_eq!(
            t.next_version(NEAR_WRAP - 2),
            u64::MAX - 1,
            "and an older one is not"
        );
        assert_eq!(t.next_version(u64::MAX - 1), 0, "the draw itself wraps");
    }

    #[test]
    fn reads_and_extension_cross_the_wrap() {
        let m = Mem::new(8, NEAR_WRAP);
        let mut fp = m.begin();
        assert_eq!(m.read(&mut fp, 0), Ok(0));
        m.plain_store(1, 1); // version 2^64 - 2
        m.plain_store(2, 1);
        m.plain_store(2, 2); // version 0: wrapped
        assert_eq!((m.version(1), m.version(2)), (u64::MAX - 1, 0));
        // Both are newer than rv = 2^64 - 4, the wrapped one included.
        assert_eq!(m.read(&mut fp, 2), Ok(2));
        assert_eq!((fp.rv, m.table.clock()), (0, 0), "extended across the wrap");
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
        assert_eq!(m.version(0), 0, "the stripe's version wrapped");
        assert_eq!(m.commit(&mut fp, &[(0, v + 1)]), Err(AbortCode::Conflict));
        assert_eq!(fp.rv, u64::MAX - 1);
        fp.begin(fp.rv);
        let v = m.read(&mut fp, 0).unwrap();
        m.commit(&mut fp, &[(0, v + 1)]).unwrap();
        assert_eq!(m.value(0), 2, "no lost update across the wrap");
    }

    #[test]
    fn own_writes_stay_exempt_across_the_wrap() {
        let m = Mem::new(8, u64::MAX - 1);
        let mut fp = m.begin();
        for i in 1..=3 {
            fp.begin(fp.rv);
            let v = m.read(&mut fp, 1).unwrap();
            m.commit(&mut fp, &[(1, v + 1)]).unwrap();
            assert_eq!((m.value(1), m.version(1)), (i, 2 * i - 2));
        }
        assert_eq!(std::mem::take(&mut fp.validations), 3, "no extension");
        assert_eq!(m.table.clock(), u64::MAX - 1);
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

        // The retry extends over the store, and the self-locked stripe
        // validates at its pre-lock version: the commit goes through.
        fp.begin(fp.rv);
        let x = m.read(&mut fp, 0).unwrap();
        m.commit(&mut fp, &[(0, x + 1), (1, 10)]).unwrap();
        assert_eq!(std::mem::take(&mut fp.validations), 2, "extension, commit");
        assert_eq!((m.value(0), m.value(1)), (1, 10));
        assert_eq!(m.table.load(0), 4);
    }

    // ---- the logs ----------------------------------------------------------

    thread_local! {
        /// Sorts run by `compact` on this thread.
        pub(super) static COMPACTIONS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    fn compactions() -> u32 {
        COMPACTIONS.with(|c| c.get())
    }

    /// Reads `cells` in order under a read capacity of `cap`, checked the
    /// way the emulated HTM checks it. Returns how many reads passed.
    fn read_at_capacity(m: &Mem, fp: &mut Footprint, cap: usize, cells: &[usize]) -> usize {
        for (done, &cell) in cells.iter().enumerate() {
            m.read(fp, cell).unwrap();
            if fp.reads.len() > cap && fp.compact_reads() > cap {
                return done;
            }
        }
        cells.len()
    }

    #[test]
    fn a_log_at_its_capacity_rereads_its_lines_without_compacting_again() {
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        // Four lines, read twice: the log is compacted to them.
        let twice = [3, 1, 2, 0, 3, 1, 2, 0];
        assert_eq!(read_at_capacity(&m, &mut fp, 4, &twice), 8);
        assert_eq!(fp.reads, [0, 1, 2, 3], "sorted and distinct");

        // From here every re-read finds its line in the sorted log.
        let before = compactions();
        let rereads: Vec<usize> = (0..4_000).map(|i| i % 4).collect();
        assert_eq!(read_at_capacity(&m, &mut fp, 4, &rereads), 4_000);
        assert_eq!(compactions(), before, "no compaction while re-reading");
        assert_eq!(fp.reads, [0, 1, 2, 3], "nothing appended");

        // A fifth line passes the capacity at once.
        assert_eq!(read_at_capacity(&m, &mut fp, 4, &[1, 4]), 1);
        assert_eq!(compactions(), before + 1);
    }

    #[test]
    fn a_stripe_read_twice_still_fails_validation_after_a_foreign_stamp() {
        // At commit.
        let m = Mem::new(8, 0);
        let mut fp = m.begin();
        let v = m.read(&mut fp, 0).unwrap();
        m.read(&mut fp, 0).unwrap();
        assert_eq!(fp.reads, [0, 0], "no dedup on the hot path");
        m.plain_store(0, 5);
        assert_eq!(m.commit(&mut fp, &[(1, v + 1)]), Err(AbortCode::Conflict));
        assert_eq!(m.value(1), 0);

        // At an extension.
        fp.begin(fp.rv);
        m.read(&mut fp, 0).unwrap();
        m.read(&mut fp, 0).unwrap();
        m.plain_store(0, 6);
        m.plain_store(1, 6);
        assert_eq!(m.read(&mut fp, 1), Err(AbortCode::Conflict));
    }
}
