//! Per-thread counter lanes: statistics that share no cache line and take
//! no locked instruction.
//!
//! The paper's fast path is an uninstrumented hardware transaction, and
//! its "lightweight statistics" (§6.2.1) are meant to be free. A single
//! shared counter is not: every thread's `fetch_add` pulls the same line
//! into its cache in exclusive state, so two threads on *disjoint* data
//! still serialise on the bookkeeping. [`Lanes`] spreads each counter over
//! [`LANES`] claimable copies and one overflow copy, one [`Block`] per
//! lane; a snapshot sums the lanes.
//!
//! A claimed lane has one writer. The first time a thread bumps a counter
//! it claims a free lane from a process-wide table, keeps it for its life,
//! and hands it back from its thread-local destructor; the lane's next
//! claimer continues its sums. Because nobody else writes the lane, its
//! owner bumps with a plain load and store, no `lock` prefix
//! ([`Writer::bump`]). A thread that finds every lane taken, or that bumps
//! during its own thread-local teardown, bumps the shared [`OVERFLOW`] lane
//! with an atomic read-modify-write instead, so the books stay exact with
//! any number of threads.
//!
//! Keyed writers — the simulator, which records under its logical thread
//! ids from one OS thread — name their lane by key ([`Writer::keyed`]) and
//! always bump atomically. One set of lanes is fed by claimed writers or by
//! keyed ones, never both: a keyed bump racing the owner's plain store on
//! one lane could lose an update.

// Hot path, no `unwrap` or `panic!` outside tests: every counter bump of
// every layer.
#![warn(clippy::unwrap_used, clippy::panic)]

use crate::atomic::{LaneClaim, RelaxedWord};
use crate::descriptor;

/// Size and alignment of one [`Block`]: two 64-byte lines, so neither the
/// line nor its adjacent-line-prefetch pair is shared with a neighbour.
pub const BLOCK_BYTES: usize = 128;

/// Number of claimable lanes per counter set. A constant, not a knob:
/// lanes cost memory per lock (`LANES + 1` blocks), and threads beyond it
/// share the overflow lane, which costs speed but never exactness.
pub const LANES: usize = 16;

/// Index of the shared overflow lane, after the [`LANES`] claimable ones.
pub const OVERFLOW: usize = LANES;

/// Lanes per set: the claimable ones and the overflow lane.
const SLOTS: usize = LANES + 1;

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

/// The claim table: `CLAIMED[i]` while a live thread owns lane `i`.
static CLAIMED: [LaneClaim; LANES] = [const { LaneClaim::new() }; LANES];

/// Claims a free lane for the calling thread: its index, or [`OVERFLOW`]
/// when every lane is taken.
#[cold]
pub(crate) fn claim() -> usize {
    CLAIMED
        .iter()
        .position(LaneClaim::try_claim)
        .unwrap_or(OVERFLOW)
}

/// Hands `lane` back, from its owner's thread-local destructor.
pub(crate) fn release(lane: usize) {
    if let Some(claimed) = CLAIMED.get(lane) {
        claimed.hand_back();
    }
}

/// Who bumps a lane: its index, whether this writer owns it, and the
/// writer's key — its thread token, or the logical id a keyed writer goes
/// by (a recorder's track id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writer {
    key: u64,
    lane: u32,
    owned: bool,
}

impl Writer {
    /// The calling thread under its stripe-owner token, on its claimed
    /// lane — or on the overflow lane, when every lane is taken or the
    /// thread is tearing down its thread-locals.
    #[inline]
    pub fn current() -> Writer {
        descriptor::lane_writer()
    }

    /// The logical writer `key`, on the lane `key & (LANES - 1)`: shared by
    /// every key congruent modulo [`LANES`], so always bumped atomically.
    #[inline]
    pub fn keyed(key: u64) -> Writer {
        Writer {
            key,
            lane: (key as usize & (LANES - 1)) as u32,
            owned: false,
        }
    }

    /// `key` on `lane`, which it owns unless it is the overflow lane.
    #[inline]
    pub(crate) fn claimed(key: u64, lane: usize) -> Writer {
        Writer {
            key,
            lane: lane as u32,
            owned: lane < LANES,
        }
    }

    /// The writer's key.
    #[inline]
    pub fn key(self) -> u64 {
        self.key
    }

    /// The index of the lane it bumps.
    #[inline]
    pub fn lane(self) -> usize {
        self.lane as usize
    }

    /// Whether it is its lane's only writer.
    #[inline]
    pub fn owns_lane(self) -> bool {
        self.owned
    }

    /// Adds `n` to `word`, a word of this writer's lane, and returns the
    /// previous value: a plain load and store when the writer owns the
    /// lane, an atomic read-modify-write when it shares it.
    #[inline]
    pub fn bump(self, word: &RelaxedWord, n: u64) -> u64 {
        if self.owned {
            let was = word.load();
            word.store(was.wrapping_add(n));
            was
        } else {
            word.fetch_add(n)
        }
    }
}

/// One `T` per lane on the heap, each alone in its own [`Block`]s: per-thread
/// state too big or too structured for a [`Lanes`] of bare counters (the
/// recorder's histograms and ring segments).
#[derive(Debug)]
pub struct PerLane<T>(Box<[Block<T>; SLOTS]>);

impl<T> PerLane<T> {
    /// `LANES + 1` lanes, each built by `lane`.
    pub fn new(mut lane: impl FnMut() -> T) -> Self {
        let lanes: Box<[Block<T>]> = (0..SLOTS).map(|_| Block(lane())).collect();
        PerLane(
            lanes
                .try_into()
                .unwrap_or_else(|_| unreachable!("SLOTS lanes collected")),
        )
    }

    /// The lane `by` writes.
    #[inline]
    pub fn of(&self, by: Writer) -> &T {
        &self.0[by.lane()]
    }

    /// Every lane, in index order, the overflow lane last.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|lane| &lane.0)
    }
}

/// `N` monotonic counters, each spread over per-thread lanes.
#[derive(Debug)]
pub struct Lanes<const N: usize> {
    lanes: [Block<[RelaxedWord; N]>; SLOTS],
}

/// One writer's lane of a [`Lanes`].
#[derive(Debug, Clone, Copy)]
pub struct Lane<'a, const N: usize> {
    words: &'a [RelaxedWord; N],
    by: Writer,
}

impl<const N: usize> Lanes<N> {
    /// All counters zero.
    pub const fn new() -> Self {
        Lanes {
            lanes: [const { Block([const { RelaxedWord::new(0) }; N]) }; SLOTS],
        }
    }

    /// The calling thread's lane, for bumping several counters on one
    /// lookup.
    #[inline]
    pub fn mine(&self) -> Lane<'_, N> {
        self.of(Writer::current())
    }

    /// Adds `n` to `counter` on the calling thread's lane.
    #[inline]
    pub fn add(&self, counter: usize, n: u64) {
        self.mine().add(counter, n);
    }

    /// The lane `by` writes.
    #[inline]
    pub(crate) fn of(&self, by: Writer) -> Lane<'_, N> {
        Lane {
            words: &self.lanes[by.lane()],
            by,
        }
    }

    /// Current value of `counter`: the sum over the lanes.
    pub fn sum(&self, counter: usize) -> u64 {
        self.lanes.iter().map(|lane| lane[counter].load()).sum()
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
        self.by.bump(&self.words[counter], n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_block_aligned_and_block_sized() {
        assert_eq!(std::mem::align_of::<Lanes<1>>(), BLOCK_BYTES);
        assert_eq!(std::mem::size_of::<Lanes<1>>(), SLOTS * BLOCK_BYTES);
        // 17 counters spill into a second block per lane, never a shared one.
        assert_eq!(std::mem::size_of::<Lanes<17>>(), SLOTS * 2 * BLOCK_BYTES);
    }

    #[test]
    fn per_lane_state_is_block_aligned_and_selected_by_key() {
        let lanes = PerLane::new(|| RelaxedWord::new(0));
        for key in 0..(2 * LANES as u64 + 3) {
            Writer::keyed(key).bump(lanes.of(Writer::keyed(key)), 1);
        }
        let addrs: Vec<usize> = lanes
            .iter()
            .map(|l| l as *const RelaxedWord as usize)
            .collect();
        assert_eq!(addrs.len(), SLOTS);
        assert!(addrs.iter().all(|a| a % BLOCK_BYTES == 0));
        assert!(addrs.windows(2).all(|w| w[1] - w[0] == BLOCK_BYTES));
        let counts: Vec<u64> = lanes.iter().map(|l| l.load()).collect();
        assert_eq!(counts[..3], [3, 3, 3]);
        assert!(counts[3..LANES].iter().all(|&n| n == 2));
        assert_eq!(counts[OVERFLOW], 0, "no key selects the overflow lane");
    }

    #[test]
    fn sum_collects_every_lane() {
        let l: Lanes<2> = Lanes::new();
        for key in 0..(3 * LANES as u64) {
            l.of(Writer::keyed(key)).add(1, 2);
        }
        l.of(Writer::claimed(0, OVERFLOW)).add(1, 1);
        l.add(0, 5);
        assert_eq!(l.sums(), [5, 6 * LANES as u64 + 1]);
    }

    #[test]
    fn a_thread_owns_its_lane_for_its_life() {
        let (first, again) = std::thread::spawn(|| (Writer::current(), Writer::current()))
            .join()
            .unwrap();
        assert_eq!(first, again);
        let w = Writer::current();
        assert_eq!(w.key(), crate::thread_token());
        assert_eq!(w.owns_lane(), w.lane() != OVERFLOW);
        assert!(!Writer::keyed(3).owns_lane() && Writer::keyed(3 + LANES as u64).lane() == 3);
    }

    #[test]
    fn threads_beyond_the_lanes_lose_nothing() {
        // More threads than lanes, all alive at once: some run on the
        // overflow lane, and the sums are still exact.
        let l: Lanes<1> = Lanes::new();
        let start = std::sync::Barrier::new(2 * LANES);
        std::thread::scope(|s| {
            for _ in 0..2 * LANES {
                s.spawn(|| {
                    l.add(0, 1);
                    start.wait();
                    for _ in 0..999 {
                        l.add(0, 1);
                    }
                });
            }
        });
        assert_eq!(l.sum(0), 2 * LANES as u64 * 1000);
        assert!(l.lanes[OVERFLOW][0].load() >= 1000);
    }

    #[test]
    fn a_lanes_next_claimer_continues_its_sum_exactly() {
        // Two threads, one after the other: the second claims the lowest
        // free lane, which is the one the first handed back on exit unless
        // a sibling test's thread took it in between (then try again).
        static L: Lanes<1> = Lanes::new();
        let bump_and_exit = || {
            std::thread::spawn(|| {
                for _ in 0..1000 {
                    L.add(0, 1);
                }
                Writer::current()
            })
            .join()
            .unwrap()
        };
        let mut threads = 0;
        let handed_over = loop {
            let (first, next) = (bump_and_exit(), bump_and_exit());
            threads += 2;
            if first.owns_lane() && first.lane() == next.lane() {
                break first.lane();
            }
            assert!(threads < 200, "no lane was ever handed over");
        };
        assert_eq!(L.sum(0), threads * 1000);
        assert!(
            L.lanes[handed_over][0].load() >= 2000,
            "the next claimer's bumps continued the first one's sum"
        );
    }

    #[test]
    fn a_bump_during_thread_teardown_goes_to_the_overflow_lane() {
        static L: Lanes<1> = Lanes::new();
        struct BumpOnExit;
        impl Drop for BumpOnExit {
            fn drop(&mut self) {
                L.add(0, 7);
            }
        }
        thread_local! {
            static PROBE: std::cell::RefCell<Option<BumpOnExit>> =
                const { std::cell::RefCell::new(None) };
        }
        let live = std::thread::spawn(|| {
            // Registered before the thread state: dropped after it.
            PROBE.with(|p| *p.borrow_mut() = Some(BumpOnExit));
            L.add(0, 1);
            Writer::current()
        })
        .join()
        .unwrap();
        assert_eq!(L.sum(0), 8);
        // The live bump lands on the overflow lane too when every lane was
        // taken (a sibling test keeps 2 × LANES threads alive).
        assert_eq!(
            L.lanes[OVERFLOW][0].load(),
            7 + u64::from(!live.owns_lane()),
            "live bump on lane {}",
            live.lane()
        );
    }
}
