//! A lock-free, bounded ring of packed records, one segment per lane.
//!
//! The hot path pushes one record per attempt (and one per
//! holder instant); the ring must never block, allocate, or serialize
//! writers. [`Ring<W, N>`] is one segment of `N` slots of `W` words per
//! lane of [`rtle_htm::lanes`], each segment — wrapping cursor and slots — alone
//! in its own [`rtle_htm::lanes::Block`]s: a writer claims a slot of its
//! lane's segment by bumping the segment's cursor — a plain store on a
//! lane it owns, a `fetch_add` on a shared one — and stores the words, on
//! lines no other lane's writers touch. Old records are overwritten — a segment
//! keeps its most recent `N`, which is the right shape for "what just
//! happened" diagnostics.
//!
//! Reads are racy by design. Word 0 of a record carries a valid bit and is
//! stored **last**, and the record ([`crate::trace::Record`], two words)
//! packs the slot's *generation* — how often the segment had wrapped when
//! the slot was claimed, handed to the packing closure — into every word;
//! its decoder rejects a slot whose words disagree.

use rtle_htm::atomic::RelaxedWord;
use rtle_htm::lanes::{PerLane, Writer};

struct Segment<const W: usize, const N: usize> {
    cursor: RelaxedWord,
    slots: [[RelaxedWord; W]; N],
}

/// A bounded ring of `W`-word records, `N` slots per lane.
/// See the module docs.
pub struct Ring<const W: usize, const N: usize> {
    lanes: PerLane<Segment<W, N>>,
}

impl<const W: usize, const N: usize> Ring<W, N> {
    const MASK: usize = {
        assert!(W > 0 && N.is_power_of_two());
        N - 1
    };

    /// An empty ring.
    pub fn new() -> Self {
        Ring {
            lanes: PerLane::new(|| Segment {
                cursor: RelaxedWord::new(0),
                slots: [const { [const { RelaxedWord::new(0) }; W] }; N],
            }),
        }
    }

    /// Publishes one record to the segment of the lane `by` writes.
    /// `pack` is handed the claimed slot's generation.
    #[inline]
    pub fn push(&self, by: Writer, pack: impl FnOnce(u64) -> [u64; W]) {
        let seg = self.lanes.of(by);
        // The cursor only hands out slots and the words are self-validating
        // (module docs); nothing is published through them.
        let claim = by.bump(&seg.cursor, 1);
        let slot = &seg.slots[claim as usize & Self::MASK];
        let words = pack(claim / N as u64);
        for (cell, word) in slot.iter().zip(words).rev() {
            cell.store(word);
        }
    }

    /// Number of records published so far (monotone; includes
    /// overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.lanes.iter().map(|seg| seg.cursor.load()).sum()
    }

    /// The words of every slot, lane by lane and oldest-first within a
    /// lane. Racy with concurrent pushes; never-written slots read as
    /// zeros, and the record's decoder tells those and torn slots apart
    /// from records (module docs).
    pub fn resident(&self) -> impl Iterator<Item = [u64; W]> + '_ {
        self.lanes.iter().flat_map(|seg| {
            // `cur` is the next write position, so `cur..cur+n` (mod n) is
            // oldest..newest once the segment has wrapped.
            let cur = seg.cursor.load() as usize;
            (0..N).map(move |i| {
                let slot = &seg.slots[(cur + i) & Self::MASK];
                std::array::from_fn(|w| slot[w].load())
            })
        })
    }
}

impl<const W: usize, const N: usize> Default for Ring<W, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_htm::lanes::LANES;
    use std::sync::Arc;

    fn key(k: u64) -> Writer {
        Writer::keyed(k)
    }

    const VALID: u64 = 1 << 63;

    /// A test record: every word carries the valid bit, the low 7 bits of
    /// the slot generation and the same 48-bit payload.
    fn words<const W: usize>(generation: u64, payload: u64) -> [u64; W] {
        [VALID | (generation & 0x7f) << 48 | payload; W]
    }

    /// The payload of a slot whose words all agree; `None` for an empty or
    /// torn slot.
    fn payload<const W: usize>(slot: [u64; W]) -> Option<u64> {
        (slot[0] & VALID != 0 && slot.iter().all(|&w| w == slot[0]))
            .then_some(slot[0] & ((1 << 48) - 1))
    }

    #[test]
    fn keeps_the_most_recent_records_when_overflowing() {
        let ring = Ring::<2, 8>::new();
        for i in 0..20u64 {
            ring.push(key(3), |g| words(g, i));
        }
        ring.push(key(4), |g| words(g, 77));
        let kept: Vec<u64> = ring.resident().filter_map(payload).collect();
        let mut expected: Vec<u64> = (12..20).collect();
        expected.push(77);
        assert_eq!(kept, expected, "lane order, oldest-first, most recent kept");
        assert_eq!(ring.pushed(), 21);
        assert_eq!(
            ring.resident().count(),
            8 * (LANES + 1),
            "every slot is visited"
        );
    }

    #[test]
    fn concurrent_pushes_never_yield_torn_records() {
        let ring = Arc::new(Ring::<2, 64>::new());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Two writers per lane: thread and sequence in the
                        // payload, so a torn slot that slipped through
                        // would decode to an impossible combination.
                        ring.push(key(t % 4), |g| words(g, t << 32 | i));
                    }
                })
            })
            .collect();
        // Read concurrently while writers run.
        for _ in 0..50 {
            for p in ring.resident().filter_map(payload) {
                assert!(p >> 32 < 8 && p & 0xffff_ffff < 5_000, "torn record {p:#x}");
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.pushed(), 8 * 5_000);
        assert_eq!(ring.resident().filter_map(payload).count(), 4 * 64);
    }

    #[test]
    fn partial_fill_returns_only_written() {
        let ring = Ring::<2, 8>::new();
        ring.push(key(1), |_| [VALID | 77, 1]);
        ring.push(key(2), |_| [VALID | 99, 2]);
        let written: Vec<[u64; 2]> = ring.resident().filter(|w| w[0] != 0).collect();
        assert_eq!(written, [[VALID | 77, 1], [VALID | 99, 2]]);
    }

    #[test]
    fn the_generation_counts_wraps_of_the_lane_segment() {
        let ring = Ring::<2, 8>::new();
        let mut seen = Vec::new();
        for _ in 0..17 {
            ring.push(key(5), |g| {
                seen.push(g);
                [VALID, 0]
            });
        }
        assert_eq!(seen[..8], [0; 8]);
        assert_eq!(seen[8..16], [1; 8]);
        assert_eq!(seen[16], 2);
    }
}
