//! Layer probes: one thread timing calls into one layer's public functions.
//!
//! Each probe runs [`ROUNDS`] batches of [`BATCH_OPS`] calls, interleaved
//! with the other probes' batches, and reports the median batch's
//! nanoseconds per call, so one descheduled batch does not move the reading.
//! The numbers say what a layer costs when nothing contends; the workloads
//! say what that cost turns into under load.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rtle_avltree::AvlSet;
use rtle_core::{ElidableLock, ElidableLockBuilder, ElisionPolicy};
use rtle_htm::prng::SplitMix64;
use rtle_htm::{swhtm, PlainAccess, TxCell};
use rtle_hytm::{Norec, Tl2};
use rtle_obs::{ObsConfig, Recorder};
use rtle_structs::TxHashSet;

use crate::stats::median;
use crate::workloads::{pinned_retry, prefill_half, stream};

const ROUNDS: usize = 9;
/// Calls per batch in a measured pass (the self-tests run fewer).
pub const BATCH_OPS: usize = 40_000;

/// One probe: a name and the call it times.
struct Probe<'a> {
    name: &'static str,
    op: Box<dyn FnMut() + 'a>,
}

fn probe<'a>(name: &'static str, op: impl FnMut() + 'a) -> Probe<'a> {
    Probe {
        name,
        op: Box::new(op),
    }
}

/// Median nanoseconds per call of every probe. The rounds interleave the
/// probes, so a burst of interference from outside the process costs each
/// probe one batch, which its median rejects, instead of costing one probe
/// all of its batches.
fn time_all(mut probes: Vec<Probe<'_>>, batch_ops: usize) -> Vec<(&'static str, f64)> {
    let mut batches = vec![Vec::with_capacity(ROUNDS); probes.len()];
    for _ in 0..ROUNDS {
        for (p, b) in probes.iter_mut().zip(&mut batches) {
            let t = Instant::now();
            for _ in 0..batch_ops {
                (p.op)();
            }
            b.push(t.elapsed().as_nanos() as f64 / batch_ops as f64);
        }
    }
    probes
        .iter()
        .zip(&batches)
        .map(|(p, b)| (p.name, median(b)))
        .collect()
}

/// The one-cell read-modify-write every lock-level probe times.
fn execute_rmw<'a>(
    name: &'static str,
    builder: ElidableLockBuilder,
    cell: &'a TxCell<u64>,
) -> Probe<'a> {
    let lock = builder.retry(pinned_retry()).build();
    probe(name, move || {
        lock.execute(|ctx| {
            let v = ctx.read(cell);
            ctx.write(cell, v + 1);
        })
    })
}

/// `contains` and `update` probes of a half-full tree through
/// `PlainAccess`: the structure's own cost, no barrier and no lock.
fn avl_probes<'a>(
    names: [&'static str; 2],
    set: &'a AvlSet,
    mut rng: SplitMix64,
) -> [Probe<'a>; 2] {
    let keys = set.key_range();
    prefill_half(set, &mut rng);
    let mut other = SplitMix64::new(rng.next_u64());
    [
        probe(names[0], move || {
            black_box(set.contains(&PlainAccess, rng.below(keys)));
        }),
        probe(names[1], move || {
            let key = other.below(keys);
            black_box(if other.bool() {
                set.insert(&PlainAccess, key)
            } else {
                set.remove(&PlainAccess, key)
            });
        }),
    ]
}

/// Runs every probe with batches of `batch_ops` calls; returns `(metric
/// name, ns)` pairs, the two derived taxes included.
pub fn run(seed: u64, batch_ops: usize) -> Vec<(&'static str, f64)> {
    let cell = TxCell::new(0u64);
    let fg = ElisionPolicy::FgTle { orecs: 1024 };
    let (small, large) = (AvlSet::with_key_range(8192), AvlSet::with_key_range(65536));
    let hash = TxHashSet::with_capacity(16384);
    let mut hash_rng = stream(seed, "probes", 2);
    let (norec, tl2) = (Norec::new(), Tl2::new());

    let mut probes = vec![
        probe("htm.txn_ns", || {
            let _ = black_box(swhtm::try_txn(|| {
                let v = cell.read();
                cell.write(v + 1);
            }));
        }),
        execute_rmw(
            "core.execute_1t_ns",
            ElidableLock::builder().policy(fg),
            &cell,
        ),
        execute_rmw(
            "core.lock_only_1t_ns",
            ElidableLock::builder().policy(ElisionPolicy::LockOnly),
            &cell,
        ),
        execute_rmw(
            "core.execute_recorded_1t_ns",
            ElidableLock::builder()
                .policy(fg)
                .recorder(Arc::new(Recorder::new(ObsConfig::default()))),
            &cell,
        ),
        probe("structs.hash_op_ns", || {
            let key = hash_rng.below(4096);
            black_box(match hash_rng.below(3) {
                0 => hash.insert(&PlainAccess, key),
                1 => hash.remove(&PlainAccess, key),
                _ => hash.contains(&PlainAccess, key),
            });
        }),
        probe("hytm.sw_txn_ns", || {
            norec.execute(|ctx| {
                let v = ctx.read(&cell);
                ctx.write(&cell, v + 1);
            })
        }),
        probe("hytm.tl2_txn_ns", || {
            tl2.execute(|ctx| {
                let v = ctx.read(&cell);
                ctx.write(&cell, v + 1);
            })
        }),
    ];
    probes.extend(avl_probes(
        ["avltree.contains_ns", "avltree.update_ns"],
        &small,
        stream(seed, "probes", 0),
    ));
    probes.extend(avl_probes(
        ["avltree.contains_64k_ns", "avltree.update_64k_ns"],
        &large,
        stream(seed, "probes", 1),
    ));

    let mut values = time_all(probes, batch_ops);
    let ns = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let elision_tax = ns("core.execute_1t_ns") - ns("core.lock_only_1t_ns");
    let recorder_tax = ns("core.execute_recorded_1t_ns") - ns("core.execute_1t_ns");
    values.retain(|(n, _)| *n != "core.execute_recorded_1t_ns");
    values.push(("core.elision_tax_ns", elision_tax));
    values.push(("obs.recorder_tax_ns", recorder_tax));
    values
}
