//! `avl_mixed`: the paper's §6.2 set benchmark.
//!
//! An AVL set over 8192 keys (512 KiB of 64-byte nodes, inside L2), half
//! full, 80 % `contains` / 10 % `insert` / 10 % `remove` under FG-TLE(1024).
//! Tree traversal through the `htm` read barriers dominates and the lock is
//! almost never taken. Client *t* updates only keys ≡ *t* (mod 2) and reads
//! any key, so each client can keep the exact expected membership of its
//! half of the key space.

use rtle_avltree::AvlSet;
use rtle_core::{ElidableLock, ElisionPolicy};

use super::{
    lock_counters, pinned_retry, policy_of, prefill_half, request_id, stream, verify_avl, Bitmap,
};
use crate::harness::{Counters, Tally, Worker, Workload, TAPE_LEN, THREADS};
use crate::trace::{SpanName, Trace};

pub const KEYS: u64 = 8192;

const CONTAINS: u64 = 0;
const INSERT: u64 = 1;
const REMOVE: u64 = 2;

pub struct AvlMixed {
    lock: ElidableLock,
    set: AvlSet,
    prefilled: Bitmap,
    tapes: Vec<Vec<u64>>,
}

pub struct AvlWorker<'a> {
    wl: &'a AvlMixed,
    tid: usize,
    pos: usize,
    seq: u64,
    /// Expected membership; authoritative for keys ≡ `tid` (mod 2).
    mine: Bitmap,
    tally: Tally,
}

impl Workload for AvlMixed {
    const NAME: &'static str = "avl_mixed";
    type Worker<'a> = AvlWorker<'a>;

    fn build(seed: u64) -> Self {
        let set = AvlSet::with_key_range(KEYS);
        let prefilled = prefill_half(&set, &mut stream(seed, Self::NAME, THREADS as u64));
        let tapes = (0..THREADS as u64)
            .map(|t| {
                let mut rng = stream(seed, Self::NAME, t);
                (0..TAPE_LEN)
                    .map(|_| {
                        let key = rng.below(KEYS);
                        match rng.below(10) {
                            0 => INSERT | (key & !1 | t) << 8,
                            1 => REMOVE | (key & !1 | t) << 8,
                            _ => CONTAINS | key << 8,
                        }
                    })
                    .collect()
            })
            .collect();
        AvlMixed {
            lock: ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 1024 })
                .retry(pinned_retry())
                .build(),
            set,
            prefilled,
            tapes,
        }
    }

    fn policy(&self) -> String {
        policy_of(&self.lock)
    }

    fn worker(&self, tid: usize) -> AvlWorker<'_> {
        AvlWorker {
            wl: self,
            tid,
            pos: 0,
            seq: 0,
            mine: self.prefilled.clone(),
            tally: Tally::default(),
        }
    }

    fn tapes(&self) -> &[Vec<u64>] {
        &self.tapes
    }

    fn counters(&self) -> Counters {
        lock_counters(&self.lock)
    }

    fn verify(&self, workers: &[AvlWorker<'_>]) -> Result<(), String> {
        let expected = (0..KEYS)
            .filter(|&k| workers[(k % 2) as usize].mine.get(k))
            .collect();
        verify_avl(&self.set, expected)
    }
}

impl Worker for AvlWorker<'_> {
    #[inline]
    fn call<T: Trace>(&mut self, tr: &T) -> u64 {
        let entry = self.wl.tapes[self.tid][self.pos];
        self.pos = (self.pos + 1) % TAPE_LEN;
        let (kind, key) = (entry & 0xff, entry >> 8);
        let (lock, set) = (&self.wl.lock, &self.wl.set);
        let _call = tr.call(request_id(self.tid, self.seq));
        self.seq += 1;
        let got = {
            let _layer = tr.span(SpanName::CoreExecute);
            match kind {
                CONTAINS => lock.execute(|ctx| {
                    tr.attempt();
                    let _body = tr.span(SpanName::AvlContains);
                    set.contains(ctx, key)
                }),
                INSERT => lock.execute(|ctx| {
                    tr.attempt();
                    let _body = tr.span(SpanName::AvlInsert);
                    set.insert(ctx, key)
                }),
                _ => lock.execute(|ctx| {
                    tr.attempt();
                    let _body = tr.span(SpanName::AvlRemove);
                    set.remove(ctx, key)
                }),
            }
        };
        // Only the owner of a key knows what the call must return.
        if key % 2 == self.tid as u64 {
            let present = self.mine.get(key);
            // `insert` reports a change when absent, the other two presence.
            let want = present != (kind == INSERT);
            self.tally.check(got == want);
            match kind {
                INSERT => self.mine.set(key, true),
                REMOVE => self.mine.set(key, false),
                _ => {}
            }
        }
        1
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}
