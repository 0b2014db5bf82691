//! Per-thread transaction descriptor: read set, redo log, capacity tracking.
//!
//! One descriptor lives in TLS per thread; a thread runs at most one software
//! transaction at a time (nested [`crate::swhtm::try_txn`] calls flatten into
//! the outer transaction, as real RTM does).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::lanes::{self, Writer};
use crate::stripe::Footprint;

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

/// The lazy-versioning write log shared by the emulated HTM (`SwTxn`,
/// over raw `AtomicU64` words) and `rtle-hytm`'s software-TM descriptor
/// (over `TxCell<u64>`). Append-only: every write is a new entry in
/// program order, read-own-write lookups scan back-to-front, and
/// write-back runs in log order, so a cell's last entry wins either way.
/// [`RedoLog::truncate`] rolls the log back to an earlier length, which
/// restores every cell's value as of that point.
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

    /// Buffers a write to `cell`.
    pub fn log_write(&mut self, cell: *const C, value: u64) {
        self.entries.push(WriteEntry { cell, value });
    }

    /// Drops every write after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// The buffered writes, in program order.
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

/// Software-transaction state for one thread. Lives across transactions:
/// the footprint and the log keep their allocations, and the footprint's
/// `rv` carries the last clock value this thread observed into the next
/// begin.
#[derive(Debug)]
pub(crate) struct SwTxn {
    /// Lines read and written, as stripes of [`crate::stripe::GLOBAL`].
    pub footprint: Footprint,
    /// Buffered writes, published at commit.
    pub redo: RedoLog<AtomicU64>,
}

impl SwTxn {
    const fn new() -> Self {
        SwTxn {
            footprint: Footprint::new(),
            redo: RedoLog::new(),
        }
    }

    /// Begins a transaction: empties the footprint and the log. The
    /// read-version is not sampled — it is whatever the thread last
    /// observed (its last writing commit's clock sample or its last
    /// snapshot extension; 0 on a fresh thread) and advances by extension.
    pub fn reset(&mut self) {
        self.footprint.begin(self.footprint.rv);
        self.redo.clear();
    }
}

/// Per-thread owner token used in stripe lock words. Token 0 is reserved for
/// "anonymous" plain stores.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Everything the runtime keeps per thread, in one const-initialised
/// thread-local: one TLS address computation reaches all of it. The slot
/// has a destructor (it hands the counter lane back and frees the
/// descriptor's buffers), so an access still
/// checks the slot's liveness byte, and once the thread has torn the slot
/// down only the entry points that need no descriptor keep working (see
/// [`if_active`] and [`thread_token`]).
pub(crate) struct ThreadState {
    /// Whether a software transaction is active on this thread.
    active: Cell<bool>,
    /// Stripe-lock owner token and recorder track id; 0 until first drawn.
    token: Cell<u64>,
    /// The counter lane this thread claimed ([`crate::lanes`]);
    /// [`UNCLAIMED`] until its first bump.
    lane: Cell<usize>,
    txn: RefCell<SwTxn>,
}

/// [`ThreadState::lane`] before the thread's first bump.
const UNCLAIMED: usize = usize::MAX;

thread_local! {
    static THREAD: ThreadState = const {
        ThreadState {
            active: Cell::new(false),
            token: Cell::new(0),
            lane: Cell::new(UNCLAIMED),
            txn: RefCell::new(SwTxn::new()),
        }
    };
}

impl Drop for ThreadState {
    /// Hands the claimed lane back: its next claimer continues its sums.
    fn drop(&mut self) {
        lanes::release(self.lane.get());
    }
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

    /// This thread as a writer of counter lanes: its token, on the lane it
    /// claimed at its first bump.
    #[inline]
    pub fn writer(&self) -> Writer {
        let lane = match self.lane.get() {
            UNCLAIMED => self.claim_lane(),
            lane => lane,
        };
        Writer::claimed(self.token(), lane)
    }

    #[cold]
    fn claim_lane(&self) -> usize {
        let lane = lanes::claim();
        self.lane.set(lane);
        lane
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
/// still a valid stripe owner for the one plain access that asked.
#[inline]
pub fn thread_token() -> u64 {
    // ordering: token allocation, as in `draw_token`.
    THREAD
        .try_with(ThreadState::token)
        .unwrap_or_else(|_| NEXT_TOKEN.fetch_add(1, Ordering::Relaxed))
}

/// This thread as a writer of counter lanes ([`Writer::current`]). Past the
/// destruction of the thread's thread-locals, its lane is handed back: it
/// bumps the shared overflow lane under a fresh token.
#[inline]
pub(crate) fn lane_writer() -> Writer {
    THREAD
        .try_with(ThreadState::writer)
        .unwrap_or_else(|_| Writer::claimed(thread_token(), lanes::OVERFLOW))
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
    fn redo_log_appends_every_write_and_looks_up_the_latest() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let mut t = SwTxn::new();
        t.reset();
        assert_eq!(t.redo.lookup(&a), None);
        t.redo.log_write(&a, 10);
        t.redo.log_write(&b, 20);
        t.redo.log_write(&a, 30);
        assert_eq!(t.redo.lookup(&a), Some(30));
        assert_eq!(t.redo.lookup(&b), Some(20));
        let values: Vec<u64> = t.redo.iter().map(|e| e.value).collect();
        assert_eq!(values, [10, 20, 30], "every write appends");
        t.reset();
        assert!(t.redo.is_empty(), "reset discards the log");
    }

    #[test]
    fn redo_log_truncate_restores_the_earlier_value() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let mut log = RedoLog::new();
        log.log_write(&a, 1);
        log.log_write(&a, 2);
        log.log_write(&b, 3);
        log.truncate(1);
        assert_eq!(log.lookup(&a), Some(1), "the earlier write is back");
        assert_eq!(log.lookup(&b), None, "the later cell is gone");
        log.truncate(0);
        assert!(log.is_empty());
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
        assert!(
            STATE_WAS_GONE.load(Ordering::SeqCst),
            "the probe outlived the state"
        );
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
