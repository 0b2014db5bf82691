//! `rmw_disjoint`: the elision tax and nothing else.
//!
//! One `ElidableLock`; each client reads-modifies-writes its own padded
//! cell through `execute`. The critical section is next to nothing, so the
//! cost is `core` begin/commit/subscription, `htm` begin/commit, and every
//! cache line either of them shares between threads. The tree, shard, STM
//! and software-TM layers do no work here.

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::prng::SplitMix64;
use rtle_htm::TxCell;

use super::{lock_counters, pinned_retry, policy_of, request_id, stream};
use crate::harness::{Counters, Tally, Worker, Workload, TAPE_LEN, THREADS};
use crate::trace::{SpanName, Trace};

/// Two cache lines, so neither the line nor its adjacent-line prefetch
/// pair is shared between the clients' cells.
#[repr(align(128))]
struct Padded(TxCell<u64>);

pub struct RmwDisjoint {
    lock: ElidableLock,
    cells: [Padded; THREADS],
    /// Per thread, the amount each call adds (1..=255).
    tapes: Vec<Vec<u64>>,
}

pub struct RmwWorker<'a> {
    wl: &'a RmwDisjoint,
    tid: usize,
    pos: usize,
    seq: u64,
    /// What the cell must hold: the sum of the committed additions.
    expected: u64,
    tally: Tally,
}

impl Workload for RmwDisjoint {
    const NAME: &'static str = "rmw_disjoint";
    type Worker<'a> = RmwWorker<'a>;

    fn build(seed: u64) -> Self {
        let tape = |mut rng: SplitMix64| (0..TAPE_LEN).map(|_| 1 + rng.below(255)).collect();
        RmwDisjoint {
            lock: ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 1024 })
                .retry(pinned_retry())
                .build(),
            cells: [Padded(TxCell::new(0)), Padded(TxCell::new(0))],
            tapes: (0..THREADS as u64)
                .map(|t| tape(stream(seed, Self::NAME, t)))
                .collect(),
        }
    }

    fn policy(&self) -> String {
        policy_of(&self.lock)
    }

    fn worker(&self, tid: usize) -> RmwWorker<'_> {
        RmwWorker {
            wl: self,
            tid,
            pos: 0,
            seq: 0,
            expected: 0,
            tally: Tally::default(),
        }
    }

    fn tapes(&self) -> &[Vec<u64>] {
        &self.tapes
    }

    fn counters(&self) -> Counters {
        lock_counters(&self.lock)
    }

    fn verify(&self, workers: &[RmwWorker<'_>]) -> Result<(), String> {
        for w in workers {
            let got = self.cells[w.tid].0.read_plain();
            if got != w.expected {
                return Err(format!(
                    "cell {} holds {got}, its client committed {}",
                    w.tid, w.expected
                ));
            }
        }
        Ok(())
    }
}

impl Worker for RmwWorker<'_> {
    #[inline]
    fn call<T: Trace>(&mut self, tr: &T) -> u64 {
        let add = self.wl.tapes[self.tid][self.pos];
        self.pos = (self.pos + 1) % TAPE_LEN;
        let cell = &self.wl.cells[self.tid].0;
        let _call = tr.call(request_id(self.tid, self.seq));
        self.seq += 1;
        let old = {
            let _layer = tr.span(SpanName::CoreExecute);
            self.wl.lock.execute(|ctx| {
                let v = ctx.read(cell);
                ctx.write(cell, v.wrapping_add(add));
                v
            })
        };
        self.tally.check(old == self.expected);
        self.expected = old.wrapping_add(add);
        1
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}
