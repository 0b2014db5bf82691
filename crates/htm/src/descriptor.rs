//! Per-thread transaction descriptor: read set, redo log, capacity tracking.
//!
//! One descriptor lives in TLS per thread; a thread runs at most one software
//! transaction at a time (nested [`crate::swhtm::try_txn`] calls flatten into
//! the outer transaction, as real RTM does).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// One buffered write of a [`RedoLog`]: target cell and the new word.
#[derive(Debug)]
pub struct WriteEntry<C> {
    /// Raw pointer to the target cell. Valid for the duration of the
    /// transaction: cells are only accessed through live references, and
    /// the log is discarded when the transaction ends.
    pub cell: *const C,
    /// The word to store at commit.
    pub value: u64,
}

/// The lazy-versioning write log shared by the emulated HTM ([`SwTxn`],
/// over raw `AtomicU64` words) and `rtle-hytm`'s software-TM descriptor
/// (over `TxCell<u64>`): entries in first-write program order, a later
/// write to the same cell superseding the earlier entry in place, and
/// read-own-write lookups scanning back-to-front.
#[derive(Debug)]
pub struct RedoLog<C> {
    entries: Vec<WriteEntry<C>>,
}

impl<C> Default for RedoLog<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> RedoLog<C> {
    /// An empty log.
    pub const fn new() -> Self {
        RedoLog {
            entries: Vec::new(),
        }
    }

    /// Latest buffered value for `cell`, if this transaction wrote it.
    pub fn lookup(&self, cell: *const C) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|e| std::ptr::eq(e.cell, cell))
            .map(|e| e.value)
    }

    /// Buffers (or supersedes) a write to `cell`.
    pub fn log_write(&mut self, cell: *const C, value: u64) {
        match self
            .entries
            .iter_mut()
            .rev()
            .find(|e| std::ptr::eq(e.cell, cell))
        {
            Some(e) => e.value = value,
            None => self.entries.push(WriteEntry { cell, value }),
        }
    }

    /// The buffered writes, in first-write order.
    pub fn iter(&self) -> std::slice::Iter<'_, WriteEntry<C>> {
        self.entries.iter()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Discards every buffered write.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<'a, C> IntoIterator for &'a RedoLog<C> {
    type Item = &'a WriteEntry<C>;
    type IntoIter = std::slice::Iter<'a, WriteEntry<C>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A small open-addressing set of stripe indices, used both to deduplicate
/// the read/write sets and to count distinct lines against the capacity
/// limits. `slots` stores `stripe + 1` so that 0 can be the empty sentinel,
/// indexed by the stripe index itself (already a Wang hash of the line);
/// `order` remembers the occupied slots in insertion order, so iterating
/// and clearing cost the footprint, not the table's high-water mark.
#[derive(Debug)]
pub(crate) struct StripeSet {
    slots: Vec<u32>,
    order: Vec<u32>,
}

impl StripeSet {
    pub const fn new() -> Self {
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
    pub fn insert(&mut self, stripe: u32) -> bool {
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

    #[cfg(test)]
    pub fn contains(&self, stripe: u32) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() as u32 - 1;
        let mut i = stripe & mask;
        loop {
            match self.slots[i as usize] {
                0 => return false,
                v if v == stripe + 1 => return true,
                _ => i = (i + 1) & mask,
            }
        }
    }

    pub fn len(&self) -> u32 {
        self.order.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates the distinct stripes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().map(|&i| self.slots[i as usize] - 1)
    }

    /// Empties the set, keeping the table. Returns how many slots it had
    /// to reset — the members, however large the table has grown.
    pub fn clear(&mut self) -> usize {
        for &i in &self.order {
            self.slots[i as usize] = 0;
        }
        let reset = self.order.len();
        self.order.clear();
        reset
    }
}

/// Software-transaction state for one thread. Lives across transactions:
/// the tables and logs keep their allocations, and `rv` carries the last
/// clock value this thread observed into the next begin.
#[derive(Debug)]
pub(crate) struct SwTxn {
    /// TL2 read-version: some value the global clock held no later than
    /// this transaction's begin. Not sampled at begin — it is whatever the
    /// thread last observed (its own last commit version or its last
    /// snapshot extension; 0 on a fresh thread) and advances by extension.
    pub rv: u64,
    /// Capacity limits captured at begin (config may change mid-flight).
    pub read_capacity: u32,
    pub write_capacity: u32,
    /// Distinct stripes read (validated at extension, and at commit when
    /// the txn has writes).
    pub read_stripes: StripeSet,
    /// Distinct stripes written (locked at commit).
    pub write_stripes: StripeSet,
    /// Buffered writes, published at commit.
    pub redo: RedoLog<AtomicU64>,
    /// Commit scratch: the stripes locked so far with their pre-lock
    /// versions. Empty outside `commit`.
    pub locked: Vec<(u32, u64)>,
}

impl SwTxn {
    const fn new() -> Self {
        SwTxn {
            rv: 0,
            read_capacity: 0,
            write_capacity: 0,
            read_stripes: StripeSet::new(),
            write_stripes: StripeSet::new(),
            redo: RedoLog::new(),
            locked: Vec::new(),
        }
    }

    /// Begins a transaction: empties the sets and the log. `rv` stays.
    pub fn reset(&mut self, read_capacity: u32, write_capacity: u32) {
        self.read_capacity = read_capacity;
        self.write_capacity = write_capacity;
        self.read_stripes.clear();
        self.write_stripes.clear();
        self.redo.clear();
    }
}

/// Per-thread owner token used in stripe lock words. Token 0 is reserved for
/// "anonymous" plain stores.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Everything the runtime keeps per thread, in one const-initialised
/// thread-local: one TLS address computation reaches all of it. The
/// descriptor's buffers give the slot a destructor, so an access still
/// checks the slot's liveness byte, and once the thread has torn the slot
/// down only the entry points that need no descriptor keep working (see
/// [`if_active`] and [`thread_token`]).
pub(crate) struct ThreadState {
    /// Whether a software transaction is active on this thread.
    active: Cell<bool>,
    /// Stripe-lock owner token, which also selects the thread's counter
    /// lane; 0 until first drawn.
    token: Cell<u64>,
    txn: RefCell<SwTxn>,
}

thread_local! {
    static THREAD: ThreadState = const {
        ThreadState {
            active: Cell::new(false),
            token: Cell::new(0),
            txn: RefCell::new(SwTxn::new()),
        }
    };
}

impl ThreadState {
    /// Whether a software transaction is active on this thread.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.get()
    }

    /// Marks the thread as inside a transaction until the guard drops — on
    /// commit, on abort, and when a foreign unwind passes through.
    #[inline]
    pub fn activate(&self) -> impl Drop + '_ {
        struct Active<'a>(&'a Cell<bool>);
        impl Drop for Active<'_> {
            fn drop(&mut self) {
                self.0.set(false);
            }
        }
        self.active.set(true);
        Active(&self.active)
    }

    /// This thread's stripe-lock owner token.
    #[inline]
    pub fn token(&self) -> u64 {
        match self.token.get() {
            0 => self.draw_token(),
            token => token,
        }
    }

    #[cold]
    fn draw_token(&self) -> u64 {
        // ordering: token allocation — only uniqueness matters, the value
        // never synchronizes other memory.
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        self.token.set(token);
        token
    }

    /// Grants `f` access to this thread's descriptor.
    ///
    /// # Panics
    ///
    /// Panics if re-entered (the runtime never holds the borrow across user
    /// code, so re-entry indicates a bug in this crate).
    #[inline]
    pub fn with_txn<R>(&self, f: impl FnOnce(&mut SwTxn) -> R) -> R {
        f(&mut self.txn.borrow_mut())
    }
}

/// Grants `f` access to this thread's runtime state.
///
/// # Panics
///
/// Panics once the thread has destroyed its thread-locals: a transaction
/// needs the descriptor, and a thread-local destructor cannot begin one.
#[inline]
pub(crate) fn with_thread<R>(f: impl FnOnce(&ThreadState) -> R) -> R {
    THREAD.with(f)
}

/// Runs `f` on this thread's runtime state if a software transaction is
/// active on this thread. `None` otherwise, which includes a thread past
/// the destruction of its thread-locals: it is in no transaction, and its
/// destructors' cell accesses take the plain path.
#[inline]
pub(crate) fn if_active<R>(f: impl FnOnce(&ThreadState) -> R) -> Option<R> {
    THREAD
        .try_with(|th| th.is_active().then(|| f(th)))
        .ok()
        .flatten()
}

/// This thread's stripe-lock owner token. Past the destruction of the
/// thread's thread-locals every call draws a fresh one: still unique, so
/// still a valid stripe owner and counter-lane selector for the one plain
/// access or counter bump that asked.
#[inline]
pub fn thread_token() -> u64 {
    // ordering: token allocation, as in `draw_token`.
    THREAD
        .try_with(ThreadState::token)
        .unwrap_or_else(|_| NEXT_TOKEN.fetch_add(1, Ordering::Relaxed))
}

/// Whether a software transaction is active on this thread.
#[inline]
pub fn in_sw_txn() -> bool {
    if_active(|_| ()).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_set_insert_dedup_count() {
        let mut s = StripeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(9));
        assert_eq!(s.len(), 2);
        assert!(s.contains(5));
        assert!(s.contains(9));
        assert!(!s.contains(6));
        let mut got: Vec<u32> = s.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![5, 9]);
    }

    #[test]
    fn stripe_set_grows_past_initial_capacity() {
        let mut s = StripeSet::new();
        for i in 0..10_000u32 {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 10_000);
        for i in 0..10_000u32 {
            assert!(s.contains(i));
        }
        assert!(!s.contains(10_001));
    }

    #[test]
    fn stripe_set_clear() {
        let mut s = StripeSet::new();
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(1));
        assert!(s.insert(1));
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

    #[test]
    fn stripe_zero_is_representable() {
        let mut s = StripeSet::new();
        assert!(s.insert(0));
        assert!(s.contains(0));
        assert!(!s.insert(0));
    }

    #[test]
    fn redo_log_read_own_write_and_supersede() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let mut t = SwTxn::new();
        t.reset(16, 16);
        assert_eq!(t.redo.lookup(&a), None);
        t.redo.log_write(&a, 10);
        t.redo.log_write(&b, 20);
        t.redo.log_write(&a, 30);
        assert_eq!(t.redo.lookup(&a), Some(30));
        assert_eq!(t.redo.lookup(&b), Some(20));
        assert_eq!(t.redo.iter().count(), 2, "second write to a supersedes in place");
        t.reset(16, 16);
        assert!(t.redo.is_empty(), "reset discards the log");
    }

    #[test]
    fn plain_accesses_and_tokens_outlive_the_thread_state() {
        use crate::lanes::Lanes;
        use crate::TxCell;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        static STATE_WAS_GONE: AtomicBool = AtomicBool::new(false);
        static BUMPS: Lanes<1> = Lanes::new();

        /// Runs the non-transactional entry points from a thread-local
        /// destructor. A panic there would abort the process.
        struct Probe(Arc<TxCell<u64>>);
        impl Drop for Probe {
            fn drop(&mut self) {
                STATE_WAS_GONE.store(THREAD.try_with(|_| ()).is_err(), Ordering::SeqCst);
                assert!(!in_sw_txn());
                self.0.write(self.0.read() + 1);
                assert_ne!(thread_token(), 0);
                BUMPS.add(0, 1);
            }
        }
        thread_local! {
            static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
        }

        let cell = Arc::new(TxCell::new(41u64));
        let theirs = Arc::clone(&cell);
        std::thread::spawn(move || {
            // Destructors run in reverse order of registration: the probe
            // registers first, so it drops after the thread state.
            PROBE.with(|p| *p.borrow_mut() = Some(Probe(theirs)));
            // Whatever the outcome (a sibling test may have chaos installed).
            let _ = crate::swhtm::try_txn(|| ());
        })
        .join()
        .unwrap();
        assert!(STATE_WAS_GONE.load(Ordering::SeqCst), "the probe outlived the state");
        assert_eq!(cell.read_plain(), 42);
        assert_eq!(BUMPS.sums(), [1]);
    }

    #[test]
    fn thread_tokens_are_distinct() {
        let mine = thread_token();
        let other = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(mine, other);
        assert_ne!(mine, 0);
    }
}
