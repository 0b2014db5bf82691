//! `holder_coexist`: the paper's Fig. 6/12 shape — speculating *while the
//! lock is held*, the reason refined TLE exists.
//!
//! An AVL set over 65536 keys (4 MiB of nodes, larger than L2). Client 0 is
//! an HTM-hostile lock holder: every critical section executes an
//! instruction HTM cannot commit and then applies 16 inserts/removes, so
//! the lock is held most of the time on the instrumented path. Client 1
//! only calls `contains` and must get through on the slow path (orec
//! checks, epochs, fences). A gain for the speculating reader can cost the
//! holder and the other way round, so both roles are reported.
//!
//! The holder never touches keys ≡ 0 (mod 4): the tree around them keeps
//! rotating, but their membership is frozen at the prefill, which lets the
//! reader's lookups of those keys be checked exactly.

use rtle_avltree::AvlSet;
use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::htm_unfriendly_instruction;

use super::{
    lock_counters, pinned_retry, policy_of, prefill_half, request_id, stream, verify_avl, Bitmap,
};
use crate::harness::{Counters, Tally, Worker, Workload, TAPE_LEN, THREADS};
use crate::trace::{SpanName, Trace};

pub const KEYS: u64 = 65536;
/// Updates the holder applies per critical section.
pub const SECTION: usize = 16;
pub const HOLDER: usize = 0;
pub const READER: usize = 1;

const INSERT: u64 = 1;
const REMOVE: u64 = 2;

pub struct HolderCoexist {
    lock: ElidableLock,
    set: AvlSet,
    prefilled: Bitmap,
    tapes: Vec<Vec<u64>>,
}

pub struct HolderWorker<'a> {
    wl: &'a HolderCoexist,
    tid: usize,
    pos: usize,
    seq: u64,
    /// The holder's expected membership of the whole set (the reader only
    /// consults the frozen keys, which never change).
    expected: Bitmap,
    tally: Tally,
}

impl Workload for HolderCoexist {
    const NAME: &'static str = "holder_coexist";
    const LATENCY_THREADS: &'static [usize] = &[READER];
    const HOLDER_THREAD: Option<usize> = Some(HOLDER);
    type Worker<'a> = HolderWorker<'a>;

    fn build(seed: u64) -> Self {
        let set = AvlSet::with_key_range(KEYS);
        let prefilled = prefill_half(&set, &mut stream(seed, Self::NAME, THREADS as u64));
        let mut holder = stream(seed, Self::NAME, HOLDER as u64);
        let mut reader = stream(seed, Self::NAME, READER as u64);
        let holder_tape = (0..TAPE_LEN)
            .map(|_| {
                // Any key but the frozen ones: keep the high bits, force
                // the low two into 1..=3.
                let key = holder.below(KEYS) & !3 | (1 + holder.below(3));
                (if holder.bool() { INSERT } else { REMOVE }) | key << 8
            })
            .collect();
        let reader_tape = (0..TAPE_LEN).map(|_| reader.below(KEYS) << 8).collect();
        HolderCoexist {
            lock: ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 4096 })
                .retry(pinned_retry())
                .build(),
            set,
            prefilled,
            tapes: vec![holder_tape, reader_tape],
        }
    }

    fn policy(&self) -> String {
        policy_of(&self.lock)
    }

    fn worker(&self, tid: usize) -> HolderWorker<'_> {
        HolderWorker {
            wl: self,
            tid,
            pos: 0,
            seq: 0,
            expected: self.prefilled.clone(),
            tally: Tally::default(),
        }
    }

    fn tapes(&self) -> &[Vec<u64>] {
        &self.tapes
    }

    fn counters(&self) -> Counters {
        lock_counters(&self.lock)
    }

    fn verify(&self, workers: &[HolderWorker<'_>]) -> Result<(), String> {
        verify_avl(&self.set, workers[HOLDER].expected.keys())
    }
}

impl HolderWorker<'_> {
    /// One critical section of the holder: `SECTION` tape entries.
    fn hold<T: Trace>(&mut self, tr: &T) -> u64 {
        let tape = &self.wl.tapes[HOLDER];
        // TAPE_LEN is a multiple of SECTION, so a section never wraps.
        let ops = &tape[self.pos..self.pos + SECTION];
        self.pos = (self.pos + SECTION) % TAPE_LEN;
        let set = &self.wl.set;
        let results = {
            let _layer = tr.span(SpanName::CoreExecute);
            self.wl.lock.execute(|ctx| {
                tr.attempt();
                htm_unfriendly_instruction();
                let mut results = [false; SECTION];
                for (r, &entry) in results.iter_mut().zip(ops) {
                    let key = entry >> 8;
                    *r = if entry & 0xff == INSERT {
                        let _body = tr.span(SpanName::AvlInsert);
                        set.insert(ctx, key)
                    } else {
                        let _body = tr.span(SpanName::AvlRemove);
                        set.remove(ctx, key)
                    };
                }
                results
            })
        };
        for (&got, &entry) in results.iter().zip(ops) {
            let (insert, key) = (entry & 0xff == INSERT, entry >> 8);
            let present = self.expected.get(key);
            self.tally.check(got == (insert != present));
            self.expected.set(key, insert);
        }
        SECTION as u64
    }

    /// One lookup of the reader.
    fn look<T: Trace>(&mut self, tr: &T) -> u64 {
        let key = self.wl.tapes[READER][self.pos] >> 8;
        self.pos = (self.pos + 1) % TAPE_LEN;
        let set = &self.wl.set;
        let got = {
            let _layer = tr.span(SpanName::CoreExecute);
            self.wl.lock.execute(|ctx| {
                tr.attempt();
                let _body = tr.span(SpanName::AvlContains);
                set.contains(ctx, key)
            })
        };
        if key.is_multiple_of(4) {
            self.tally.check(got == self.expected.get(key));
        }
        1
    }
}

impl Worker for HolderWorker<'_> {
    #[inline]
    fn call<T: Trace>(&mut self, tr: &T) -> u64 {
        let _call = tr.call(request_id(self.tid, self.seq));
        self.seq += 1;
        if self.tid == HOLDER {
            self.hold(tr)
        } else {
            self.look(tr)
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}
