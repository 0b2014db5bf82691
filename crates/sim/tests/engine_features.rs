//! Feature-level simulator tests: lazy subscription, multi-lock routing,
//! the SMT time scale, spurious-abort injection, and run-mode semantics.

use rtle_sim::engine::{Engine, RunMode};
use rtle_sim::workload::{Access, OpSpec, Workload};
use rtle_sim::{CostModel, MachineProfile, SimMethod, SimStats};

/// Workload where thread 0 holds the lock perpetually (hostile updates)
/// and the other threads run empty-footprint ops — the Figure 4 pattern.
struct BarrierPattern {
    remaining: Vec<u64>,
}

impl Workload for BarrierPattern {
    fn next_op(&mut self, thread: usize) -> OpSpec {
        if thread == 0 {
            OpSpec {
                trace: vec![Access {
                    line: 0,
                    write: true,
                }],
                setup_cycles: 10,
                htm_hostile: true,
                ..Default::default()
            }
        } else {
            OpSpec {
                trace: vec![],
                setup_cycles: 10,
                ..Default::default()
            }
        }
    }
    fn next_op_again(&mut self, thread: usize) -> OpSpec {
        self.next_op(thread)
    }
    fn commit(&mut self, thread: usize) {
        self.remaining[thread] -= 1;
    }
    fn remaining(&self, thread: usize) -> Option<u64> {
        Some(self.remaining[thread])
    }
}

fn run_barrier(lazy: bool) -> SimStats {
    let w = BarrierPattern {
        remaining: vec![200; 3],
    };
    Engine::new(
        SimMethod::FgTle { orecs: 64 },
        3,
        CostModel::default(),
        RunMode::FixedWork,
        w,
    )
    .with_lazy_subscription(lazy)
    .run()
}

#[test]
fn lazy_subscription_blocks_empty_cs_during_lock() {
    let eager = run_barrier(false);
    let lazy = run_barrier(true);
    assert_eq!(eager.ops, 600);
    assert_eq!(lazy.ops, 600);
    // Eager refined TLE commits empty critical sections on the slow path
    // while the hostile thread holds the lock; lazy subscription forbids
    // exactly that (§5), so its slow-path commit count collapses and the
    // whole run takes longer.
    assert!(eager.slow_commits > 0, "eager: {eager:?}");
    assert!(
        lazy.slow_commits < eager.slow_commits / 2,
        "lazy must suppress concurrent completions: lazy={} eager={}",
        lazy.slow_commits,
        eager.slow_commits
    );
    assert!(
        lazy.sim_cycles >= eager.sim_cycles,
        "restoring semantics costs time"
    );
}

/// Sharded ops must route to distinct locks and run concurrently.
struct Sharded {
    remaining: Vec<u64>,
}

impl Workload for Sharded {
    fn next_op(&mut self, thread: usize) -> OpSpec {
        OpSpec {
            trace: vec![Access {
                line: thread as u64,
                write: true,
            }],
            lock_id: thread, // each thread its own shard
            setup_cycles: 10,
            ..Default::default()
        }
    }
    fn next_op_again(&mut self, thread: usize) -> OpSpec {
        self.next_op(thread)
    }
    fn commit(&mut self, thread: usize) {
        self.remaining[thread] -= 1;
    }
    fn remaining(&self, thread: usize) -> Option<u64> {
        Some(self.remaining[thread])
    }
}

#[test]
fn multi_lock_routing_parallelizes() {
    let run = |locks: usize| {
        let w = Sharded {
            remaining: vec![300; 4],
        };
        Engine::new(
            SimMethod::LockOnly { locks },
            4,
            CostModel::default(),
            RunMode::FixedWork,
            w,
        )
        .run()
    };
    let single = run(1);
    let sharded = run(8);
    assert_eq!(single.ops, 1200);
    assert_eq!(sharded.ops, 1200);
    assert!(
        sharded.sim_cycles * 2 < single.sim_cycles,
        "disjoint shards must parallelize: sharded={} single={}",
        sharded.sim_cycles,
        single.sim_cycles
    );
}

#[test]
fn time_scale_slows_everything_proportionally() {
    let run = |scale: f64| {
        let w = Sharded {
            remaining: vec![200; 2],
        };
        Engine::new(
            SimMethod::LockOnly { locks: 4 },
            2,
            CostModel::default(),
            RunMode::FixedWork,
            w,
        )
        .with_time_scale(scale)
        .run()
    };
    let base = run(1.0);
    let slowed = run(1.4);
    let ratio = slowed.sim_cycles as f64 / base.sim_cycles as f64;
    assert!(
        (1.3..1.5).contains(&ratio),
        "1.4x scale should slow the run ~1.4x, got {ratio:.3}"
    );
}

#[test]
fn spurious_aborts_inject_and_cost() {
    let run = |prob: f64| {
        let w = Sharded {
            remaining: vec![500; 2],
        };
        Engine::new(
            SimMethod::Tle,
            2,
            CostModel::default(),
            RunMode::FixedWork,
            w,
        )
        .with_spurious_aborts(prob)
        .run()
    };
    let clean = run(0.0);
    let noisy = run(0.2);
    assert_eq!(clean.aborts(), 0, "disjoint ops never conflict");
    assert!(
        noisy.aborts() > 100,
        "20% injection must show: {}",
        noisy.aborts()
    );
    assert!(noisy.sim_cycles > clean.sim_cycles);
    assert_eq!(noisy.ops, 1000, "all work still completes");
}

#[test]
fn smt_factor_shapes() {
    let m = MachineProfile::XEON;
    assert_eq!(m.smt_factor(1), 1.0);
    assert_eq!(m.smt_factor(18), 1.0);
    assert!(m.smt_factor(24) > 1.0 && m.smt_factor(24) < m.smt_factor(36));
    assert!((m.smt_factor(36) - 1.4).abs() < 1e-9);
    assert_eq!(m.htm_spurious(1), 0.0);
    assert!(m.htm_spurious(2) > 0.0);
    assert!(m.htm_spurious(36) > m.htm_spurious(18));
}

#[test]
fn fixed_duration_stops_starting_ops() {
    struct Endless;
    impl Workload for Endless {
        fn next_op(&mut self, _t: usize) -> OpSpec {
            OpSpec {
                trace: vec![Access {
                    line: 1,
                    write: false,
                }],
                setup_cycles: 10,
                ..Default::default()
            }
        }
        fn next_op_again(&mut self, t: usize) -> OpSpec {
            self.next_op(t)
        }
        fn commit(&mut self, _t: usize) {}
    }
    let s = Engine::new(
        SimMethod::Tle,
        2,
        CostModel::default(),
        RunMode::FixedDuration(100_000),
        Endless,
    )
    .run();
    assert_eq!(s.sim_cycles, 100_000);
    assert!(s.ops > 0);
    // Sanity: roughly bounded by duration x threads / per-op cost (~90cyc).
    assert!(s.ops < 2 * 100_000 / 80, "ops={}", s.ops);
}

#[test]
fn adaptive_fg_completes_and_adapts() {
    use rtle_sim::workloads::avl::{AvlConfig, AvlWorkload};
    let mut cfg = AvlConfig::new(1024, 50, 50);
    cfg.ops_per_thread = Some(400);
    let w = AvlWorkload::new(8, cfg);
    let s = Engine::new(
        SimMethod::AdaptiveFgTle {
            initial: 64,
            max_orecs: 8192,
        },
        8,
        CostModel::pointer_chasing(),
        RunMode::FixedWork,
        w,
    )
    .with_spurious_aborts(0.05)
    .run();
    assert_eq!(s.ops, 8 * 400);
    assert_eq!(s.ops, s.fast_commits + s.slow_commits + s.lock_commits);
}

#[test]
fn adaptive_fg_is_competitive_with_best_fixed() {
    use rtle_sim::workloads::avl::{AvlConfig, AvlWorkload};
    let machine = MachineProfile::XEON;
    let run = |m: SimMethod| {
        let w = AvlWorkload::new(24, AvlConfig::new(8192, 20, 20));
        Engine::new(
            m,
            24,
            CostModel::pointer_chasing(),
            RunMode::FixedDuration(machine.cycles_per_ms()),
            w,
        )
        .with_time_scale(machine.smt_factor(24))
        .with_spurious_aborts(machine.htm_spurious(24))
        .run()
    };
    let adaptive = run(SimMethod::AdaptiveFgTle {
        initial: 64,
        max_orecs: 8192,
    });
    let best_fixed = run(SimMethod::FgTle { orecs: 1024 });
    let tle = run(SimMethod::Tle);
    assert!(
        adaptive.ops * 10 >= best_fixed.ops * 7,
        "adaptive within 30% of a good fixed config: adaptive={} fixed={}",
        adaptive.ops,
        best_fixed.ops
    );
    assert!(
        adaptive.ops >= tle.ops,
        "adaptive at least matches plain TLE: adaptive={} tle={}",
        adaptive.ops,
        tle.ops
    );
}

/// The class counters partition the aborts: their sum, `aborts()`, equals
/// the count the recorder keeps on its own, one event per booked attempt.
#[test]
fn abort_causes_partition_total() {
    use rtle_obs::{ObsConfig, Recorder};
    use rtle_sim::workloads::avl::{AvlConfig, AvlWorkload};
    use std::sync::Arc;
    let machine = MachineProfile::XEON;
    for m in [
        SimMethod::Tle,
        SimMethod::RwTle,
        SimMethod::FgTle { orecs: 256 },
        SimMethod::AdaptiveFgTle {
            initial: 16,
            max_orecs: 1024,
        },
    ] {
        let w = AvlWorkload::new(18, AvlConfig::new(4096, 30, 30));
        let rec = Arc::new(Recorder::new(ObsConfig {
            latency_unit: "cycles",
            ..ObsConfig::default()
        }));
        let s = Engine::new(
            m,
            18,
            CostModel::pointer_chasing(),
            RunMode::FixedDuration(machine.cycles_per_ms() / 2),
            w,
        )
        .with_spurious_aborts(0.03)
        .with_recorder(Arc::clone(&rec))
        .run();
        assert!(s.aborts() > 0, "{m:?}: the run must abort");
        assert_eq!(
            rec.counts().total_aborts(),
            s.aborts() + s.sw_aborts,
            "{m:?}: abort causes must partition: {s:?}"
        );
        assert!(s.aborts_uarch > 0, "{m:?}: injection must be visible");
    }
}

#[test]
fn hostile_aborts_attributed() {
    use rtle_sim::workloads::avl::{AvlConfig, AvlWorkload};
    let mut cfg = AvlConfig::new(4096, 0, 0);
    cfg.hostile_thread = Some(0);
    cfg.ops_per_thread = Some(100);
    let w = AvlWorkload::new(4, cfg);
    let s = Engine::new(
        SimMethod::Tle,
        4,
        CostModel::default(),
        RunMode::FixedWork,
        w,
    )
    .run();
    assert!(
        s.aborts_hostile >= 400,
        "hostile thread burns its budget every op: {s:?}"
    );
}

#[test]
fn shadow_states_stay_consistent_after_simulation() {
    use rtle_sim::workloads::avl::{AvlConfig, AvlWorkload};
    use rtle_sim::workloads::bank::{BankConfig, BankWorkload};

    // AVL: the shadow tree must satisfy its structural invariants after a
    // contended simulated run (commits are applied to it for real).
    let mut cfg = AvlConfig::new(2048, 40, 40);
    cfg.ops_per_thread = Some(500);
    let w = AvlWorkload::new(8, cfg);
    let (stats, w) = Engine::new(
        SimMethod::FgTle { orecs: 512 },
        8,
        CostModel::pointer_chasing(),
        RunMode::FixedWork,
        w,
    )
    .with_spurious_aborts(0.05)
    .run_returning();
    assert_eq!(stats.ops, 8 * 500);
    w.set()
        .check_invariants_plain()
        .expect("shadow AVL intact after simulation");

    // Bank: money conserved in the shadow balances.
    let cfg = BankConfig {
        ops_per_thread: Some(800),
        ..Default::default()
    };
    let w = BankWorkload::new(12, cfg);
    let before = w.total();
    let (stats, w) = Engine::new(
        SimMethod::Tle,
        12,
        CostModel::default(),
        RunMode::FixedWork,
        w,
    )
    .run_returning();
    assert_eq!(stats.ops, 12 * 800);
    assert_eq!(w.total(), before, "simulated transfers conserve money");
}
