//! Per-thread counter lanes: statistics that cost no shared cache line.
//!
//! The paper's fast path is an uninstrumented hardware transaction, and
//! its "lightweight statistics" (§6.2.1) are meant to be free. A single
//! shared counter is not: every thread's `fetch_add` pulls the same line
//! into its cache in exclusive state, so two threads on *disjoint* data
//! still serialise on the bookkeeping. [`Lanes`] spreads each counter over
//! [`LANES`] copies, one [`Block`] per lane; a thread bumps the lane its
//! token selects and a snapshot sums the lanes.
//!
//! The bump stays an atomic read-modify-write — with more threads than
//! lanes two threads share one, and the books must still balance exactly
//! — but on a line no other running thread is writing it is an uncontended
//! one.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::descriptor;

/// Size and alignment of one [`Block`]: two 64-byte lines, so neither the
/// line nor its adjacent-line-prefetch pair is shared with a neighbour.
pub const BLOCK_BYTES: usize = 128;

/// Number of lanes per counter set. A constant, not a knob: lanes cost
/// memory per lock (`LANES` blocks), and threads beyond it share lanes,
/// which costs speed but never exactness.
pub const LANES: usize = 16;

/// `T` alone in its own [`BLOCK_BYTES`]-aligned block (the size rounds up
/// to the alignment, so nothing else can share its lines).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Block<T>(pub T);

impl<T> std::ops::Deref for Block<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

const _: () = assert!(std::mem::align_of::<Block<u8>>() == BLOCK_BYTES);
const _: () = assert!(LANES.is_power_of_two());

/// The lane `key` selects: a thread token, or any other per-thread key.
#[inline]
fn lane_index(key: u64) -> usize {
    key as usize & (LANES - 1)
}

/// One `T` per lane on the heap, each alone in its own [`Block`]s: per-thread
/// state too big or too structured for a [`Lanes`] of bare counters (the
/// recorder's histograms and ring segments). The caller names the lane —
/// the runtime passes [`crate::thread_token`], the simulator its logical
/// thread ids — and `T` stays safe to share, because keys beyond [`LANES`]
/// do.
#[derive(Debug)]
pub struct PerLane<T>(Box<[Block<T>; LANES]>);

impl<T> PerLane<T> {
    /// [`LANES`] lanes, each built by `lane`.
    pub fn new(mut lane: impl FnMut() -> T) -> Self {
        let lanes: Box<[Block<T>]> = (0..LANES).map(|_| Block(lane())).collect();
        PerLane(
            lanes
                .try_into()
                .unwrap_or_else(|_| unreachable!("LANES lanes collected")),
        )
    }

    /// The lane `key` selects.
    #[inline]
    pub fn of(&self, key: u64) -> &T {
        &self.0[lane_index(key)]
    }

    /// Every lane, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|lane| &lane.0)
    }
}

/// `N` monotonic counters, each spread over [`LANES`] per-thread lanes.
#[derive(Debug)]
pub struct Lanes<const N: usize> {
    lanes: [Block<[AtomicU64; N]>; LANES],
}

/// One thread's lane of a [`Lanes`].
#[derive(Debug, Clone, Copy)]
pub struct Lane<'a, const N: usize>(&'a [AtomicU64; N]);

impl<const N: usize> Lanes<N> {
    /// All counters zero.
    pub const fn new() -> Self {
        Lanes {
            lanes: [const { Block([const { AtomicU64::new(0) }; N]) }; LANES],
        }
    }

    /// The calling thread's lane, for bumping several counters on one
    /// lookup.
    #[inline]
    pub fn mine(&self) -> Lane<'_, N> {
        self.of_token(descriptor::thread_token())
    }

    /// Adds `n` to `counter` on the calling thread's lane.
    #[inline]
    pub fn add(&self, counter: usize, n: u64) {
        self.mine().add(counter, n);
    }

    /// The lane of the thread holding stripe-owner token `token`.
    #[inline]
    pub(crate) fn of_token(&self, token: u64) -> Lane<'_, N> {
        Lane(&self.lanes[lane_index(token)])
    }

    /// Current value of `counter`: the sum over the lanes.
    pub fn sum(&self, counter: usize) -> u64 {
        // ordering: statistics counters — monotonic, advisory, no
        // synchronization role; exact once the bumping threads are quiet.
        self.lanes
            .iter()
            .map(|lane| lane[counter].load(Ordering::Relaxed))
            .sum()
    }

    /// Current value of every counter.
    pub fn sums(&self) -> [u64; N] {
        std::array::from_fn(|counter| self.sum(counter))
    }
}

impl<const N: usize> Default for Lanes<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Lane<'_, N> {
    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: usize, n: u64) {
        // ordering: statistics counters — monotonic, advisory, no
        // synchronization role.
        self.0[counter].fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_block_aligned_and_block_sized() {
        assert_eq!(std::mem::align_of::<Lanes<1>>(), BLOCK_BYTES);
        assert_eq!(std::mem::size_of::<Lanes<1>>(), LANES * BLOCK_BYTES);
        // 17 counters spill into a second block per lane, never a shared one.
        assert_eq!(std::mem::size_of::<Lanes<17>>(), LANES * 2 * BLOCK_BYTES);
    }

    #[test]
    fn per_lane_state_is_block_aligned_and_selected_by_key() {
        let lanes = PerLane::new(|| AtomicU64::new(0));
        for key in 0..(2 * LANES as u64 + 3) {
            lanes.of(key).fetch_add(1, Ordering::Relaxed);
        }
        let addrs: Vec<usize> = lanes
            .iter()
            .map(|l| l as *const AtomicU64 as usize)
            .collect();
        assert_eq!(addrs.len(), LANES);
        assert!(addrs.iter().all(|a| a % BLOCK_BYTES == 0));
        assert!(addrs.windows(2).all(|w| w[1] - w[0] == BLOCK_BYTES));
        let counts: Vec<u64> = lanes.iter().map(|l| l.load(Ordering::Relaxed)).collect();
        assert_eq!(counts[..3], [3, 3, 3]);
        assert!(counts[3..].iter().all(|&n| n == 2));
    }

    #[test]
    fn sum_collects_every_lane() {
        let l: Lanes<2> = Lanes::new();
        for token in 0..(3 * LANES as u64) {
            l.of_token(token).add(1, 2);
        }
        l.add(0, 5);
        assert_eq!(l.sums(), [5, 6 * LANES as u64]);
    }

    #[test]
    fn threads_sharing_a_lane_lose_nothing() {
        let l: Lanes<1> = Lanes::new();
        std::thread::scope(|s| {
            for _ in 0..2 * LANES {
                s.spawn(|| {
                    for _ in 0..1000 {
                        l.add(0, 1);
                    }
                });
            }
        });
        assert_eq!(l.sum(0), 2 * LANES as u64 * 1000);
    }
}
