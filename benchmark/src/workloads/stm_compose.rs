//! `stm_compose`: composable transactions — the `stm` redo log and rung
//! driver and the `hytm` software rung do the work; `ElidableLock::execute`
//! is bypassed.
//!
//! One `Stm` space (FG-TLE(512), default software backends) over an
//! `AvlSet`(4096), a `TxHashSet`(16384), a `ShardedTxMap`(8×2048, built
//! from the space's `lock_builder`) and 1024 `TxVar<u64>` accounts. Per
//! transaction: 20 % insert a key into all three structures, 20 % remove it
//! from all three, 30 % look it up in all three, 20 % an `or_else`-guarded
//! transfer between two accounts, 10 % an account touch preceded by an
//! instruction HTM cannot commit, so the software rung carries a steady
//! tenth of the commits. No transaction ever parks: futex wake-up time is
//! scheduler noise, not the program's.
//!
//! Client *t* inserts/removes only keys ≡ *t* (mod 2) and looks up any key.

use rtle_avltree::AvlSet;
use rtle_core::ElisionPolicy;
use rtle_htm::{htm_unfriendly_instruction, HtmStats};
use rtle_shard::ShardedTxMap;
use rtle_stm::{Stm, TxVar};
use rtle_structs::TxHashSet;

use super::{pinned_retry, request_id, stream, verify_avl, Bitmap};
use crate::harness::{Counters, Tally, Worker, Workload, TAPE_LEN, THREADS};
use crate::trace::{SpanName, Trace};

pub const KEYS: u64 = 4096;
pub const ACCOUNTS: u64 = 1024;
const ACCOUNT_START: u64 = 1000;

const INSERT: u64 = 0;
const REMOVE: u64 = 1;
const LOOKUP: u64 = 2;
const TRANSFER: u64 = 3;
const TOUCH: u64 = 4;

pub struct StmCompose {
    space: Stm,
    avl: AvlSet,
    hash: TxHashSet,
    map: ShardedTxMap,
    accounts: Vec<TxVar<u64>>,
    tapes: Vec<Vec<u64>>,
}

pub struct StmWorker<'a> {
    wl: &'a StmCompose,
    tid: usize,
    pos: usize,
    seq: u64,
    /// Expected membership of keys ≡ `tid` (mod 2), the same in all three
    /// structures.
    mine: Bitmap,
    touches: u64,
    tally: Tally,
}

impl Workload for StmCompose {
    const NAME: &'static str = "stm_compose";
    type Worker<'a> = StmWorker<'a>;

    fn build(seed: u64) -> Self {
        let space = Stm::builder()
            .policy(ElisionPolicy::FgTle { orecs: 512 })
            .retry(pinned_retry())
            .build();
        // Participant shard locks: what `lock_builder` hands out, stated.
        let map = ShardedTxMap::with_builder(
            8,
            2048,
            space
                .lock_builder()
                .policy(ElisionPolicy::Tle)
                .retry(pinned_retry()),
        );
        let tapes = (0..THREADS as u64)
            .map(|t| {
                let mut rng = stream(seed, Self::NAME, t);
                (0..TAPE_LEN)
                    .map(|_| {
                        let key = rng.below(KEYS);
                        let own = key & !1 | t;
                        match rng.below(10) {
                            0 | 1 => INSERT | own << 8,
                            2 | 3 => REMOVE | own << 8,
                            4..=6 => LOOKUP | key << 8,
                            7 | 8 => {
                                let from = rng.below(ACCOUNTS);
                                let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                                TRANSFER | from << 8 | to << 24 | (1 + rng.below(100)) << 40
                            }
                            _ => TOUCH | rng.below(ACCOUNTS) << 8,
                        }
                    })
                    .collect()
            })
            .collect();
        StmCompose {
            space,
            avl: AvlSet::with_key_range(KEYS),
            hash: TxHashSet::with_capacity(16384),
            map,
            accounts: (0..ACCOUNTS).map(|_| TxVar::new(ACCOUNT_START)).collect(),
            tapes,
        }
    }

    fn policy(&self) -> String {
        let lock = self.space.lock();
        let (shard, _) = self.map.shard_parts(0);
        format!(
            "space {:?} {:?} sw={:?}; 8 participant shards {:?}",
            lock.policy(),
            lock.retry_policy(),
            lock.software_backend_name(),
            shard.policy()
        )
    }

    fn worker(&self, tid: usize) -> StmWorker<'_> {
        StmWorker {
            wl: self,
            tid,
            pos: 0,
            seq: 0,
            mine: Bitmap::new(KEYS),
            touches: 0,
            tally: Tally::default(),
        }
    }

    fn tapes(&self) -> &[Vec<u64>] {
        &self.tapes
    }

    fn counters(&self) -> Counters {
        let lock = self.space.lock();
        let backends: Vec<_> = lock
            .software_backends()
            .iter()
            .map(|tm| tm.stats().snapshot())
            .collect();
        let shard = self.map.merged_stats();
        Counters {
            htm: HtmStats::snapshot(),
            core: lock.stats().snapshot().merge(&shard),
            shard,
            stm: self.space.stats().snapshot(),
            sw_commits: backends.iter().map(|s| s.stm_commits()).sum(),
            sw_aborts: backends.iter().map(|s| s.sw_aborts).sum(),
            sw_validations: backends.iter().map(|s| s.validations).sum(),
            load_imbalance: self.map.report().load_imbalance(),
        }
    }

    fn verify(&self, workers: &[StmWorker<'_>]) -> Result<(), String> {
        let expected: Vec<u64> = (0..KEYS)
            .filter(|&k| workers[(k % 2) as usize].mine.get(k))
            .collect();
        let mut hashed = self.hash.keys_plain();
        hashed.sort_unstable();
        let mut mapped: Vec<u64> = self.map.entries_plain().iter().map(|e| e.0).collect();
        mapped.sort_unstable();
        if hashed != expected || mapped != expected {
            return Err(format!(
                "clients expect {} keys; hash set holds {}, map {}",
                expected.len(),
                hashed.len(),
                mapped.len()
            ));
        }
        verify_avl(&self.avl, expected)?;
        // Transfers conserve the accounts; every touch adds one.
        let want = ACCOUNTS * ACCOUNT_START + workers.iter().map(|w| w.touches).sum::<u64>();
        let got: u64 = self.accounts.iter().map(TxVar::read_plain).sum();
        if got != want {
            return Err(format!("accounts sum to {got}, clients account for {want}"));
        }
        Ok(())
    }
}

impl Worker for StmWorker<'_> {
    fn call<T: Trace>(&mut self, tr: &T) -> u64 {
        let wl = self.wl;
        let entry = wl.tapes[self.tid][self.pos];
        self.pos = (self.pos + 1) % TAPE_LEN;
        let (kind, key) = (entry & 0xff, entry >> 8 & 0xffff);
        let (avl, hash, map) = (&wl.avl, &wl.hash, &wl.map);
        let _call = tr.call(request_id(self.tid, self.seq));
        self.seq += 1;
        // The layer span covers `atomically` alone, not the oracle after it.
        let layer = tr.span(SpanName::StmAtomically);
        match kind {
            INSERT | REMOVE => {
                let insert = kind == INSERT;
                let changed = wl.space.atomically(|tx| {
                    tr.attempt();
                    Ok(if insert {
                        let a = {
                            let _body = tr.span(SpanName::AvlInsert);
                            avl.insert(tx, key)
                        };
                        let h = {
                            let _body = tr.span(SpanName::HashInsert);
                            hash.insert(tx, key)
                        };
                        let _body = tr.span(SpanName::MapInsert);
                        [a, h, tx.map_insert(map, key, key + 1).is_none()]
                    } else {
                        let a = {
                            let _body = tr.span(SpanName::AvlRemove);
                            avl.remove(tx, key)
                        };
                        let h = {
                            let _body = tr.span(SpanName::HashRemove);
                            hash.remove(tx, key)
                        };
                        let _body = tr.span(SpanName::MapRemove);
                        [a, h, tx.map_remove(map, key).is_some()]
                    })
                });
                drop(layer);
                let want = insert != self.mine.get(key);
                self.tally.check(changed == [want; 3]);
                self.mine.set(key, insert);
            }
            LOOKUP => {
                let found = wl.space.atomically(|tx| {
                    tr.attempt();
                    let a = {
                        let _body = tr.span(SpanName::AvlContains);
                        avl.contains(tx, key)
                    };
                    let h = {
                        let _body = tr.span(SpanName::HashContains);
                        hash.contains(tx, key)
                    };
                    let _body = tr.span(SpanName::MapContains);
                    Ok([a, h, tx.map_contains(map, key)])
                });
                drop(layer);
                // One transaction must see one state in all three; the
                // owner of the key also knows which state.
                let torn = found[0] != found[1] || found[0] != found[2];
                let wrong = key % 2 == self.tid as u64 && found[0] != self.mine.get(key);
                self.tally.check(!torn && !wrong);
            }
            TRANSFER => {
                let (from, to) = (
                    &wl.accounts[key as usize],
                    &wl.accounts[(entry >> 24 & 0xffff) as usize],
                );
                let amount = entry >> 40;
                // The second branch makes an overdrawn transfer a no-op
                // instead of a blocking retry.
                wl.space.atomically(|tx| {
                    tr.attempt();
                    tx.or_else(
                        |tx| {
                            let balance = tx.read(from);
                            tx.check(balance >= amount)?;
                            tx.write(from, balance - amount);
                            tx.write(to, tx.read(to) + amount);
                            Ok(true)
                        },
                        |_| Ok(false),
                    )
                });
            }
            _ => {
                let account = &wl.accounts[key as usize];
                wl.space.atomically(|tx| {
                    tr.attempt();
                    htm_unfriendly_instruction();
                    tx.write(account, tx.read(account) + 1);
                    Ok(())
                });
                self.touches += 1;
            }
        }
        1
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}
