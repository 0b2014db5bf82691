//! The software rung's per-attempt state is the thread's: after warm-up,
//! an `execute` that falls to the software backend allocates nothing —
//! the descriptor (value log, redo log, TL2's footprint tables) is the one
//! `rtle_hytm::SwPhase` hands out and takes back, not one built per call.
//!
//! Its own test binary, so the counting `#[global_allocator]` is scoped to
//! it; the count is per thread, so the harness's threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy, RetryPolicy};
use rtle_htm::TxCell;
use rtle_hytm::{Norec, SoftwareTm, Tl2};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a destructor-free, const-
// initialised thread-local, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 50;
const CALLS: u64 = 1_000;

/// Allocations made by `CALLS` `execute` calls, after `WARM_UP` of them,
/// on a TLE lock with no hardware budget falling back to `tm`: every call
/// is the software rung and nothing else. (An aborted hardware attempt in
/// front of it would add its unwind's two — the boxed payload and the
/// exception object — which are not the rung's.)
fn allocations_per_run(tm: Arc<dyn SoftwareTm>) -> u64 {
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::Tle)
        .retry(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        })
        .with_software_backend(tm)
        .build();
    let cells: Vec<TxCell<u64>> = (0..4).map(|_| TxCell::new(0)).collect();
    let op = || {
        // The largest cell grows by one a call, so no value overflows.
        lock.execute(|ctx| {
            let max = cells.iter().map(|c| ctx.read(c)).fold(0, u64::max);
            ctx.write(&cells[0], max + 1);
            ctx.write(&cells[3], max);
        })
    };
    (0..WARM_UP).for_each(|_| op());
    let before = ALLOCS.get();
    (0..CALLS).for_each(|_| op());
    let allocated = ALLOCS.get() - before;
    assert_eq!(lock.stats().snapshot().stm_commits, WARM_UP + CALLS);
    allocated
}

#[test]
fn a_warm_software_rung_allocates_nothing() {
    let tl2 = allocations_per_run(Arc::new(Tl2::new()));
    let norec = allocations_per_run(Arc::new(Norec::new()));
    assert_eq!(
        (tl2, norec),
        (0, 0),
        "allocations in {CALLS} software-rung calls (tl2, norec)"
    );
}
