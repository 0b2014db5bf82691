//! Per-thread transaction descriptor: read set, redo log, capacity tracking.
//!
//! One descriptor lives in TLS per thread; a thread runs at most one software
//! transaction at a time (nested [`crate::swhtm::try_txn`] calls flatten into
//! the outer transaction, as real RTM does).

use std::cell::RefCell;
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
        RedoLog {
            entries: Vec::new(),
        }
    }
}

impl<C> RedoLog<C> {
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
/// limits. Stores `stripe + 1` so that 0 can be the empty sentinel.
#[derive(Debug, Default)]
pub(crate) struct StripeSet {
    slots: Vec<u32>,
    len: u32,
    mask: u32,
}

impl StripeSet {
    fn ensure_capacity(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![0; 64];
            self.mask = 63;
        } else if (self.len as usize) * 2 >= self.slots.len() {
            let old = std::mem::take(&mut self.slots);
            self.slots = vec![0; old.len() * 2];
            self.mask = (self.slots.len() - 1) as u32;
            self.len = 0;
            for v in old {
                if v != 0 {
                    self.insert(v - 1);
                }
            }
        }
    }

    /// Inserts `stripe`; returns `true` iff it was not already present.
    pub fn insert(&mut self, stripe: u32) -> bool {
        self.ensure_capacity();
        let key = stripe + 1;
        let mut i = (crate::hash::wang_mix64(stripe as u64) as u32) & self.mask;
        loop {
            let v = self.slots[i as usize];
            if v == key {
                return false;
            }
            if v == 0 {
                self.slots[i as usize] = key;
                self.len += 1;
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cfg_attr(not(test), allow(dead_code))] // exercised by tests; kept for symmetry
    pub fn contains(&self, stripe: u32) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let key = stripe + 1;
        let mut i = (crate::hash::wang_mix64(stripe as u64) as u32) & self.mask;
        loop {
            let v = self.slots[i as usize];
            if v == key {
                return true;
            }
            if v == 0 {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the distinct stripes (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().filter(|&&v| v != 0).map(|&v| v - 1)
    }

    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|v| *v = 0);
        self.len = 0;
    }
}

/// Live software-transaction state for one thread.
#[derive(Debug, Default)]
pub(crate) struct SwTxn {
    /// TL2 read-version: global clock snapshot taken at begin.
    pub rv: u64,
    /// Capacity limits captured at begin (config may change mid-flight).
    pub read_capacity: u32,
    pub write_capacity: u32,
    /// Distinct stripes read (validated at commit when the txn has writes).
    pub read_stripes: StripeSet,
    /// Distinct stripes written (locked at commit).
    pub write_stripes: StripeSet,
    /// Buffered writes, published at commit.
    pub redo: RedoLog<AtomicU64>,
}

impl SwTxn {
    pub fn reset(&mut self, rv: u64, read_capacity: u32, write_capacity: u32) {
        self.rv = rv;
        self.read_capacity = read_capacity;
        self.write_capacity = write_capacity;
        self.read_stripes.clear();
        self.write_stripes.clear();
        self.redo.clear();
    }
}

thread_local! {
    static TXN: RefCell<SwTxn> = RefCell::new(SwTxn::default());
    static ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Per-thread owner token used in stripe lock words. Token 0 is reserved for
/// "anonymous" plain stores.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // ordering: token allocation — only uniqueness matters, the value
    // never synchronizes other memory.
    static TOKEN: u64 = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stripe-lock owner token.
#[inline]
pub fn thread_token() -> u64 {
    TOKEN.with(|t| *t)
}

/// Whether a software transaction is active on this thread.
#[inline]
pub fn in_sw_txn() -> bool {
    ACTIVE.with(|a| a.get())
}

#[inline]
pub(crate) fn set_active(v: bool) {
    ACTIVE.with(|a| a.set(v));
}

/// Grants `f` access to this thread's descriptor.
///
/// # Panics
///
/// Panics if re-entered (the runtime never holds the borrow across user
/// code, so re-entry indicates a bug in this crate).
#[inline]
pub(crate) fn with_txn<R>(f: impl FnOnce(&mut SwTxn) -> R) -> R {
    TXN.with(|t| f(&mut t.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_set_insert_dedup_count() {
        let mut s = StripeSet::default();
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
        let mut s = StripeSet::default();
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
        let mut s = StripeSet::default();
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(1));
        assert!(s.insert(1));
    }

    #[test]
    fn stripe_zero_is_representable() {
        let mut s = StripeSet::default();
        assert!(s.insert(0));
        assert!(s.contains(0));
        assert!(!s.insert(0));
    }

    #[test]
    fn redo_log_read_own_write_and_supersede() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let mut t = SwTxn::default();
        t.reset(2, 16, 16);
        assert_eq!(t.redo.lookup(&a), None);
        t.redo.log_write(&a, 10);
        t.redo.log_write(&b, 20);
        t.redo.log_write(&a, 30);
        assert_eq!(t.redo.lookup(&a), Some(30));
        assert_eq!(t.redo.lookup(&b), Some(20));
        assert_eq!(t.redo.iter().count(), 2, "second write to a supersedes in place");
        t.reset(4, 16, 16);
        assert!(t.redo.is_empty(), "reset discards the log");
    }

    #[test]
    fn thread_tokens_are_distinct() {
        let mine = thread_token();
        let other = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(mine, other);
        assert_ne!(mine, 0);
    }
}
