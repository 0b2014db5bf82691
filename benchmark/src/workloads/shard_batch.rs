//! `shard_batch`: the service-shaped map — routing, batching, ordered
//! multi-lock acquisition and always-on telemetry do the work.
//!
//! A 16-shard `ShardedTxMap` (FG-TLE(256) per shard) with the default
//! sampled `Recorder` attached and registered in a `MetricsRegistry`, as
//! PR 8 intended it to run in production. 16384 prefilled keys under mild
//! Zipf skew; 80 % of calls are `execute_batch` of 32 operations (4:1
//! `Get`:`Insert`), 10 % a cross-shard `transfer`, 10 % a 4-key
//! `multi_get`. Writes sit beside reads; a batching gain must not raise
//! the cost of `transfer`.
//!
//! Key layout by `key % 4`: 0 = account (only `transfer` writes it),
//! 1 and 2 = data keys client 0 resp. 1 inserts into, 3 = read-only data.
//! Each client therefore knows the exact value of the keys it writes.

use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::prng::SplitMix64;
use rtle_htm::HtmStats;
use rtle_obs::{MetricsRegistry, ObsConfig, Recorder};
use rtle_shard::batch::{MapOp, OpResult};
use rtle_shard::ShardedTxMap;

use super::{pinned_retry, request_id, stream};
use crate::harness::{Counters, Tally, Worker, Workload, TAPE_LEN, THREADS};
use crate::trace::{SpanName, Trace};

pub const KEYS: u64 = 16384;
pub const SHARDS: usize = 16;
pub const BATCH: usize = 32;
pub const MULTI_GET: usize = 4;
/// Zipf exponent of the key popularity ("mild": the hottest key draws
/// about 0.8 % of the accesses, against 0.006 % under uniform keys).
const ZIPF_S: f64 = 0.6;
const ACCOUNT_START: u64 = 1 << 32;

const GET: u64 = 0;
const INSERT: u64 = 1;
const TRANSFER: u64 = 2;
const MGET: u64 = 3;

/// Seeded Zipf sampler over `KEYS` ranks; rank → key is a fixed odd
/// multiplier, so popular keys spread over all four key classes and shards.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new() -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=KEYS)
            .map(|rank| {
                acc += (rank as f64).powf(-ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn key(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.f64();
        let rank = self.cdf.partition_point(|&c| c <= u) as u64;
        rank.min(KEYS - 1).wrapping_mul(0x9e37_79b1) % KEYS
    }
}

pub struct ShardBatch {
    map: Arc<ShardedTxMap>,
    /// Kept alive so the map stays registered for scraping, as in service.
    _registry: MetricsRegistry,
    initial_total: u64,
    tapes: Vec<Vec<u64>>,
}

pub struct ShardWorker<'a> {
    wl: &'a ShardBatch,
    tid: usize,
    pos: usize,
    seq: u64,
    /// Expected value of this client's data keys, indexed by `key / 4`.
    mine: Vec<u64>,
    /// Sum of (new − old) over this client's inserts, wrapping.
    inserted_delta: u64,
    batch: Vec<MapOp<u64>>,
    tally: Tally,
}

fn my_data_key(key: u64, tid: usize) -> u64 {
    key & !3 | (1 + tid as u64)
}

impl Workload for ShardBatch {
    const NAME: &'static str = "shard_batch";
    type Worker<'a> = ShardWorker<'a>;

    fn build(seed: u64) -> Self {
        let recorder = Arc::new(Recorder::new(ObsConfig::default()));
        let map: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::with_builder(
            SHARDS,
            4096,
            ElidableLock::builder()
                .policy(ElisionPolicy::FgTle { orecs: 256 })
                .retry(pinned_retry())
                .recorder(recorder),
        ));
        let registry = MetricsRegistry::new();
        map.register_live(&registry, "shard_batch");
        for key in 0..KEYS {
            map.insert(key, if key % 4 == 0 { ACCOUNT_START } else { key });
        }

        let zipf = Zipf::new();
        let tapes = (0..THREADS)
            .map(|tid| {
                let mut rng = stream(seed, Self::NAME, tid as u64);
                let mut tape = Vec::with_capacity(TAPE_LEN + BATCH);
                // Whole calls only, so the cyclic replay wraps between calls.
                while tape.len() < TAPE_LEN {
                    match rng.below(10) {
                        0 => {
                            let from = zipf.key(&mut rng) & !3;
                            let to = loop {
                                let to = zipf.key(&mut rng) & !3;
                                if map.shard_of(to) != map.shard_of(from) {
                                    break to;
                                }
                            };
                            let amount = 1 + rng.below(16);
                            tape.push(TRANSFER | from << 8 | to << 24 | amount << 40);
                        }
                        1 => tape.extend((0..MULTI_GET).map(|_| MGET | zipf.key(&mut rng) << 8)),
                        _ => tape.extend((0..BATCH).map(|_| {
                            let key = zipf.key(&mut rng);
                            if rng.below(5) == 0 {
                                let value = rng.next_u64() >> 32;
                                INSERT | my_data_key(key, tid) << 8 | value << 24
                            } else {
                                GET | key << 8
                            }
                        })),
                    }
                }
                tape
            })
            .collect();
        ShardBatch {
            initial_total: map.total_plain(),
            map,
            _registry: registry,
            tapes,
        }
    }

    fn policy(&self) -> String {
        let (lock, _) = self.map.shard_parts(0);
        format!(
            "{SHARDS} shards x {:?} {:?}, default Recorder, registered live",
            lock.policy(),
            lock.retry_policy()
        )
    }

    fn worker(&self, tid: usize) -> ShardWorker<'_> {
        ShardWorker {
            wl: self,
            tid,
            pos: 0,
            seq: 0,
            mine: (0..KEYS / 4).map(|i| my_data_key(i * 4, tid)).collect(),
            inserted_delta: 0,
            batch: Vec::with_capacity(BATCH),
            tally: Tally::default(),
        }
    }

    fn tapes(&self) -> &[Vec<u64>] {
        &self.tapes
    }

    fn counters(&self) -> Counters {
        let merged = self.map.merged_stats();
        Counters {
            htm: HtmStats::snapshot(),
            core: merged,
            shard: merged,
            load_imbalance: self.map.report().load_imbalance(),
            ..Counters::default()
        }
    }

    fn verify(&self, workers: &[ShardWorker<'_>]) -> Result<(), String> {
        // Transfers conserve the accounts; inserts moved the total by
        // exactly what the clients recorded.
        let expected = workers
            .iter()
            .fold(self.initial_total, |t, w| t.wrapping_add(w.inserted_delta));
        let got = self.map.total_plain();
        if got != expected {
            return Err(format!(
                "map total is {got}, clients account for {expected}"
            ));
        }
        if self.map.len_plain() as u64 != KEYS {
            return Err(format!(
                "map holds {} keys, not {KEYS}",
                self.map.len_plain()
            ));
        }
        Ok(())
    }
}

impl ShardWorker<'_> {
    fn owns(&self, key: u64) -> bool {
        key % 4 == 1 + self.tid as u64
    }
}

impl Worker for ShardWorker<'_> {
    fn call<T: Trace>(&mut self, tr: &T) -> u64 {
        let wl = self.wl;
        let tape = &wl.tapes[self.tid];
        if self.pos >= tape.len() {
            self.pos = 0;
        }
        let entry = tape[self.pos];
        let _call = tr.call(request_id(self.tid, self.seq));
        self.seq += 1;
        match entry & 0xff {
            TRANSFER => {
                self.pos += 1;
                let (from, to, amount) = (entry >> 8 & 0xffff, entry >> 24 & 0xffff, entry >> 40);
                let r = {
                    let _layer = tr.span(SpanName::ShardTransfer);
                    wl.map.transfer(from, to, amount)
                };
                self.tally.check(r.is_ok());
                1
            }
            MGET => {
                let keys: [u64; MULTI_GET] =
                    std::array::from_fn(|i| tape[self.pos + i] >> 8 & 0xffff);
                self.pos += MULTI_GET;
                let values = {
                    let _layer = tr.span(SpanName::ShardMultiGet);
                    wl.map.multi_get(&keys)
                };
                for (key, value) in keys.iter().zip(&values) {
                    // Prefilled keys are never removed; own keys are exact.
                    let ok = match value {
                        Some(v) if self.owns(*key) => *v == self.mine[(*key / 4) as usize],
                        Some(_) => true,
                        None => false,
                    };
                    self.tally.check(ok);
                }
                self.tally.check(values.len() == MULTI_GET);
                MULTI_GET as u64
            }
            _ => {
                self.batch.clear();
                self.batch
                    .extend(tape[self.pos..self.pos + BATCH].iter().map(|&e| {
                        let key = e >> 8 & 0xffff;
                        if e & 0xff == INSERT {
                            MapOp::Insert(key, e >> 24)
                        } else {
                            MapOp::Get(key)
                        }
                    }));
                self.pos += BATCH;
                let results = {
                    let _layer = tr.span(SpanName::ShardExecuteBatch);
                    wl.map.execute_batch(&self.batch)
                };
                self.tally.check(results.len() == BATCH);
                // Per-key program order holds inside a batch, so walking
                // the results in submission order replays this client's
                // own keys exactly.
                let batch = std::mem::take(&mut self.batch);
                for (&op, &result) in batch.iter().zip(&results) {
                    let ok = match (op, result) {
                        (MapOp::Insert(key, value), OpResult::Value(Some(prev))) => {
                            let slot = &mut self.mine[(key / 4) as usize];
                            let ok = prev == *slot;
                            self.inserted_delta =
                                self.inserted_delta.wrapping_add(value.wrapping_sub(prev));
                            *slot = value;
                            ok
                        }
                        (MapOp::Get(key), OpResult::Found(Some(v))) => {
                            !self.owns(key) || v == self.mine[(key / 4) as usize]
                        }
                        _ => false,
                    };
                    self.tally.check(ok);
                }
                self.batch = batch;
                BATCH as u64
            }
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}
