//! The transactional execution context for software/hybrid-TM critical
//! sections — the hybrid-TM counterpart of `rtle_core::Ctx`.

use std::cell::RefCell;

use rtle_htm::wait::backoff_until;
use rtle_htm::{TxCell, TxWord};

use crate::descriptor::{abort_sw, SwDescriptor};
use crate::stats::TmStats;
use crate::tm::SoftwareTm;

enum Inner<'a> {
    /// Running inside a hardware transaction: plain accesses, the HTM
    /// tracks everything.
    Hw,
    /// Running as a software transaction: reads and writes dispatch to the
    /// backend's barriers ([`SoftwareTm::read`] / [`SoftwareTm::write`]).
    Sw {
        tm: &'a dyn SoftwareTm,
        desc: &'a RefCell<SwDescriptor>,
    },
}

/// Execution token passed to [`crate::Norec::execute`] /
/// [`crate::RhNorec::execute`] / [`crate::Tl2::execute`] closures. All
/// shared accesses inside the atomic block must go through it.
pub struct TmCtx<'a> {
    inner: Inner<'a>,
}

impl<'a> TmCtx<'a> {
    pub(crate) fn hw() -> Self {
        TmCtx { inner: Inner::Hw }
    }

    pub(crate) fn sw(tm: &'a dyn SoftwareTm, desc: &'a RefCell<SwDescriptor>) -> Self {
        TmCtx {
            inner: Inner::Sw { tm, desc },
        }
    }

    /// Whether this execution runs in hardware.
    pub fn is_hardware(&self) -> bool {
        matches!(self.inner, Inner::Hw)
    }

    /// The software backend driving this context, if any.
    pub fn backend_name(&self) -> Option<&'static str> {
        match &self.inner {
            Inner::Hw => None,
            Inner::Sw { tm, .. } => Some(tm.name()),
        }
    }

    /// Transactional read.
    #[inline]
    pub fn read<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        match &self.inner {
            Inner::Hw => cell.read(),
            Inner::Sw { tm, desc } => {
                let word = tm.read(&mut desc.borrow_mut(), cell.as_word_cell());
                T::from_word(word)
            }
        }
    }

    /// Transactional write.
    #[inline]
    pub fn write<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        match &self.inner {
            Inner::Hw => cell.write(value),
            Inner::Sw { tm, desc } => {
                tm.write(&mut desc.borrow_mut(), cell.as_word_cell(), value.to_word());
            }
        }
    }
}

impl rtle_htm::TxAccess for TmCtx<'_> {
    #[inline]
    fn load<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        self.read(cell)
    }

    #[inline]
    fn store<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        self.write(cell, value)
    }
}

/// Waits until the clock is even (no commit in progress) and returns it.
#[inline]
pub(crate) fn wait_even(clock: &TxCell<u64>) -> u64 {
    let mut v = 0;
    backoff_until(|| {
        v = clock.read_plain();
        v & 1 == 0
    });
    v
}

/// NOrec's value-based validation: waits for a stable even clock under
/// which every logged read still holds its logged value. Returns the new
/// snapshot, or aborts the software transaction on a mismatch.
///
/// Every pass is counted — this is the quantity of the paper's Figure 10.
pub(crate) fn validate(desc: &mut SwDescriptor, clock: &TxCell<u64>, stats: &TmStats) -> u64 {
    loop {
        let t = wait_even(clock);
        stats.record_validations(1);
        if !desc.reads_still_valid() {
            abort_sw();
        }
        if clock.read_plain() == t {
            return t;
        }
        // A commit slipped in during validation; try again.
    }
}

/// NOrec software read barrier: read-own-write, then read the memory value
/// and (re)validate whenever the global clock moved since the snapshot.
pub(crate) fn sw_read(
    desc: &mut SwDescriptor,
    clock: &TxCell<u64>,
    stats: &TmStats,
    cell: &TxCell<u64>,
) -> u64 {
    if let Some(v) = desc.writes.lookup(cell) {
        return v;
    }
    let mut val = cell.read_plain();
    while clock.read_plain() != desc.snapshot {
        desc.snapshot = validate(desc, clock, stats);
        val = cell.read_plain();
    }
    desc.log_read(cell, val);
    val
}

/// NOrec's single-global-lock commit of a writing transaction: acquire
/// the clock (`snapshot` → odd), revalidating and extending the snapshot
/// whenever it moved (aborts on a mismatch), write the log back, release
/// at `snapshot + 2`.
pub(crate) fn sgl_commit(d: &mut SwDescriptor, clock: &TxCell<u64>, stats: &TmStats) {
    while !clock.compare_exchange_plain(d.snapshot, d.snapshot + 1) {
        d.snapshot = validate(d, clock, stats);
    }
    for w in &d.writes {
        // SAFETY: cells outlive the transaction (captured from live
        // references inside the executing closure). Plain stores are
        // fine — the odd clock excludes every other committer and
        // software readers wait for an even clock before validating.
        unsafe { (*w.cell).write(w.value) };
    }
    clock.write(d.snapshot + 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_htm::unwind::{catch, Channel};
    use crate::norec::Norec;

    #[test]
    fn hw_ctx_reads_plainly() {
        let c = TxCell::new(3u64);
        let ctx = TmCtx::hw();
        assert!(ctx.is_hardware());
        assert_eq!(ctx.backend_name(), None);
        assert_eq!(ctx.read(&c), 3);
        ctx.write(&c, 4);
        assert_eq!(c.read_plain(), 4);
    }

    #[test]
    fn sw_ctx_buffers_writes() {
        let tm = Norec::new();
        let desc = RefCell::new(SwDescriptor::default());
        desc.borrow_mut().reset(0);
        let ctx = TmCtx::sw(&tm, &desc);
        assert!(!ctx.is_hardware());
        assert_eq!(ctx.backend_name(), Some("norec"));

        let c = TxCell::new(1u64);
        ctx.write(&c, 9);
        assert_eq!(c.read_plain(), 1, "write is buffered, not applied");
        assert_eq!(ctx.read(&c), 9, "read-own-write");
    }

    #[test]
    fn sw_read_revalidates_on_clock_move() {
        let tm = Norec::new();
        let desc = RefCell::new(SwDescriptor::default());
        desc.borrow_mut().reset(0);
        let ctx = TmCtx::sw(&tm, &desc);

        let a = TxCell::new(5u64);
        assert_eq!(ctx.read(&a), 5);
        // Someone commits (values unchanged): clock moves to 2.
        tm.clock.write(2);
        let b = TxCell::new(6u64);
        assert_eq!(ctx.read(&b), 6, "revalidation succeeds, read proceeds");
        assert!(tm.stats().snapshot().validations >= 1);
        assert_eq!(desc.borrow().snapshot, 2, "snapshot extended");
    }

    #[test]
    fn sw_read_aborts_when_values_changed() {
        let tm = Norec::new();
        let a = TxCell::new(5u64);
        let b = TxCell::new(6u64);

        let r = catch(Channel::Sw, || {
            let desc = RefCell::new(SwDescriptor::default());
            desc.borrow_mut().reset(0);
            let ctx = TmCtx::sw(&tm, &desc);
            let _ = ctx.read(&a);
            // A conflicting commit changes `a` and bumps the clock.
            a.write(50);
            tm.clock.write(2);
            ctx.read(&b) // must revalidate -> value mismatch -> abort
        });
        assert!(r.is_err(), "software transaction must abort");
        // Restore for other tests sharing the cells (none, but tidy).
        a.write(5);
    }

    #[test]
    fn wait_even_skips_odd() {
        let clock = TxCell::new(4u64);
        assert_eq!(wait_even(&clock), 4);
    }
}
