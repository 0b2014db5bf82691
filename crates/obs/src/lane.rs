//! The recorder lane: everything a recording thread counts, on lines no
//! other lane's threads write.
//!
//! A [`crate::Recorder`] holds one of these per lane of
//! [`rtle_htm::lanes`], each in its own [`rtle_htm::lanes::Block`]s, and a
//! recording [`Writer`] picks one: the runtime's threads their claimed
//! lanes, bumped with plain stores, and the simulator's logical threads
//! the lanes their keys select, bumped atomically. Every word in a lane is
//! monotonic, so threads beyond the lanes share the overflow lane at a
//! cost in speed, never in exactness; a snapshot sums the lanes, and a
//! telemetry window is the difference of two readings of them
//! ([`crate::window`]). The lane's segment of the record ring is
//! [`crate::ring::Ring`]'s, picked by the same writer.
//!
//! Commits are counted per [`PathKind::index`], aborts per
//! [`AbortCode::index`], and explicit aborts also per
//! [`AbortCode::explicit_bucket`] — the one vocabulary every abort
//! counter of the workspace indexes.

// Hot path, no `unwrap` or `panic!` outside tests: every recorded attempt is
// counted here.
#![warn(clippy::unwrap_used, clippy::panic)]

use std::sync::atomic::{AtomicU64, Ordering};

use rtle_htm::lanes::Writer;
use rtle_htm::AbortCode;

use crate::event::{AttemptEvent, PathKind, PATHS};
use crate::hist::Histogram;
use crate::window::WindowCounts;

/// One thread's recording state. See the module docs.
pub(crate) struct Lane {
    commits: [AtomicU64; PATHS],
    aborts: [AtomicU64; AbortCode::KINDS],
    explicit: [AtomicU64; AbortCode::EXPLICIT_CODES],
    /// Critical-section latency of committed attempts.
    pub cs_latency: Histogram,
    /// Time the fallback lock was held per acquisition: the latency of
    /// the lock path's commits.
    pub lock_hold: Histogram,
    /// End-to-end operation latency (intended start to completion when
    /// the harness corrects for coordinated omission); what windows cut.
    pub op_latency: Histogram,
}

impl Lane {
    pub fn new() -> Lane {
        Lane {
            commits: Default::default(),
            aborts: Default::default(),
            explicit: Default::default(),
            cs_latency: Histogram::new(),
            lock_hold: Histogram::new(),
            op_latency: Histogram::new(),
        }
    }

    /// Counts one attempt event as `by`, a writer of this lane, once: the
    /// path's commit counter and the critical-section histogram (and, under
    /// the lock, the hold time) on commit, the abort's class
    /// counter (and its explicit code's bucket, if it has one) otherwise.
    #[inline]
    pub fn count(&self, by: Writer, ev: AttemptEvent) {
        match ev.abort {
            None => {
                by.bump(&self.commits[ev.path.index()], 1);
                self.cs_latency.record_by(by, ev.latency);
                if ev.path == PathKind::Lock {
                    self.lock_hold.record_by(by, ev.latency);
                }
            }
            Some(code) => {
                by.bump(&self.aborts[code.index()], 1);
                if let Some(bucket) = code.explicit_bucket() {
                    by.bump(&self.explicit[bucket], 1);
                }
            }
        }
    }

    /// A reading of the lane's event counters and operation latencies.
    /// Not atomic against concurrent recording, and it need not be: each
    /// word is read once and only grows, so a racing sample is in this
    /// reading or the next.
    pub fn read(&self) -> WindowCounts {
        // ordering: statistics reads, as in `count`.
        let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
        WindowCounts {
            commits: std::array::from_fn(|i| read(&self.commits[i])),
            aborts: std::array::from_fn(|i| read(&self.aborts[i])),
            explicit: std::array::from_fn(|i| read(&self.explicit[i])),
            latency: self.op_latency.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_htm::lanes::{Block, PerLane, BLOCK_BYTES, LANES};

    #[test]
    fn a_lane_is_whole_blocks_with_its_histograms_inline() {
        // Nothing a recording thread bumps is behind a pointer into memory
        // another lane could share: the three 10 KiB bucket arrays are part
        // of the lane, and the lane is padded out to whole blocks.
        assert!(std::mem::size_of::<Lane>() > 3 * 1280 * 8);
        assert_eq!(std::mem::size_of::<Block<Lane>>() % BLOCK_BYTES, 0);
        assert_eq!(std::mem::align_of::<Block<Lane>>(), BLOCK_BYTES);
    }

    #[test]
    fn an_event_is_counted_once_on_the_lane_its_key_selects() {
        let lanes = PerLane::new(Lane::new);
        let key = Writer::keyed;
        let count = |k: u64, ev| lanes.of(key(k)).count(key(k), ev);
        let on = |path, abort| AttemptEvent {
            path,
            abort,
            attempt: 2,
            latency: 70,
        };
        let ev = |abort| on(PathKind::SlowHtm, abort);
        count(3, ev(None));
        count(3 + LANES as u64, ev(Some(AbortCode::Explicit(5))));
        count(3 + LANES as u64, ev(Some(AbortCode::Explicit(12))));
        count(4, ev(Some(AbortCode::Nested)));
        let read: Vec<WindowCounts> = lanes.iter().map(Lane::read).collect();
        assert_eq!(read[3].commits, [0, 1, 0, 0]);
        assert_eq!(read[3].aborts, [0, 0, 2, 0, 0, 0]);
        assert_eq!(
            read[3].explicit,
            [0, 0, 0, 0, 0, 1, 0, 0],
            "code 12 has no bucket of its own"
        );
        assert_eq!(read[4].aborts[AbortCode::Nested.index()], 1);
        assert_eq!(lanes.of(key(3)).cs_latency.snapshot().count, 1);
        assert_eq!(lanes.of(key(3)).lock_hold.snapshot().count, 0);
        // A commit under the lock is also a hold-time sample.
        count(5, on(PathKind::Lock, None));
        assert_eq!(lanes.of(key(5)).read().commits, [0, 0, 0, 1]);
        assert_eq!(lanes.of(key(5)).lock_hold.snapshot().buckets, [(70, 1)]);
        let untouched = read.iter().enumerate().filter(|&(i, _)| i != 3 && i != 4);
        assert!(untouched
            .into_iter()
            .all(|(_, r)| *r == WindowCounts::default()));
    }
}
