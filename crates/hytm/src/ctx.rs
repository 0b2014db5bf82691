//! The transactional execution context of software-TM critical sections —
//! the software-TM counterpart of `rtle_core::Ctx` — and the NOrec family's
//! clock protocol (validation, read barrier, SGL commit, hardware hook).

use std::cell::RefCell;

use rtle_htm::wait::backoff_until;
use rtle_htm::{TxCell, TxWord};

use crate::abort_codes;
use crate::descriptor::{abort_sw, SwDescriptor};
use crate::stats::TmStats;
use crate::tm::SoftwareTm;

/// Execution token passed to [`crate::Norec::execute`] /
/// [`crate::Tl2::execute`] closures and to every software attempt of a
/// [`crate::SwPhase`]. All shared accesses inside the atomic block must go
/// through it: reads and writes dispatch to the backend's barriers
/// ([`SoftwareTm::read`] / [`SoftwareTm::write`]).
pub struct TmCtx<'a> {
    tm: &'a dyn SoftwareTm,
    desc: &'a RefCell<SwDescriptor>,
}

impl<'a> TmCtx<'a> {
    pub(crate) fn sw(tm: &'a dyn SoftwareTm, desc: &'a RefCell<SwDescriptor>) -> Self {
        TmCtx { tm, desc }
    }

    /// The software backend driving this context.
    pub fn backend_name(&self) -> &'static str {
        self.tm.name()
    }

    /// Transactional read.
    #[inline]
    pub fn read<T: TxWord>(&self, cell: &TxCell<T>) -> T {
        T::from_word(
            self.tm
                .read(&mut self.desc.borrow_mut(), cell.as_word_cell()),
        )
    }

    /// Transactional write.
    #[inline]
    pub fn write<T: TxWord>(&self, cell: &TxCell<T>, value: T) {
        self.tm.write(
            &mut self.desc.borrow_mut(),
            cell.as_word_cell(),
            value.to_word(),
        );
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

/// The NOrec family's hardware commit hook: a hardware commit publishes
/// to software readers by bumping the clock (they revalidate by value).
/// An odd clock means an SGL committer may write back at any moment — the
/// hardware transaction must bail. Runs inside the hardware transaction.
pub(crate) fn hw_commit_bump(clock: &TxCell<u64>) {
    let c = clock.read();
    if c & 1 == 1 {
        rtle_htm::abort(abort_codes::SGL_HELD);
    }
    clock.write(c + 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norec::Norec;
    use rtle_htm::unwind::{catch, Channel};

    #[test]
    fn sw_ctx_buffers_writes() {
        let tm = Norec::new();
        let desc = RefCell::new(SwDescriptor::default());
        desc.borrow_mut().reset(0);
        let ctx = TmCtx::sw(&tm, &desc);
        assert_eq!(ctx.backend_name(), "norec");

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
