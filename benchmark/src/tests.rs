//! Harness self-tests that need whole workloads: tape determinism, a short
//! pass of every workload with its oracles, and the metric names against
//! `BENCHMARK.json`. The arithmetic is tested next to its code in
//! `stats.rs`, `trace.rs` and `report.rs`.

use super::*;

/// A per-layer pass short enough for a debug build: 50 ms warm-up, 200 ms
/// intervals, tiny probe batches.
fn short_pass() -> Pass {
    Pass {
        seed: 7,
        traced: true,
        plan: Plan {
            warmup: Duration::from_millis(50),
            interval: Duration::from_millis(200),
        },
        probe_ops: 200,
    }
}

fn tapes_of<L: Workload>(seed: u64) -> Vec<Vec<u64>> {
    L::build(seed).tapes().to_vec()
}

fn check_tapes<L: Workload>() {
    let (a, again, other) = (tapes_of::<L>(1), tapes_of::<L>(1), tapes_of::<L>(2));
    assert_eq!(a.len(), THREADS);
    assert!(
        a.iter().all(|t| t.len() >= harness::TAPE_LEN),
        "{}",
        L::NAME
    );
    assert!(a == again, "{}: same seed, different tapes", L::NAME);
    assert!(a != other, "{}: different seed, same tapes", L::NAME);
    assert!(a[0] != a[1], "{}: both threads replay one tape", L::NAME);
}

#[test]
fn same_seed_same_tapes_other_seed_other_tapes() {
    check_tapes::<RmwDisjoint>();
    check_tapes::<AvlMixed>();
    check_tapes::<HolderCoexist>();
    check_tapes::<ShardBatch>();
    check_tapes::<StmCompose>();
}

/// The per-layer pass (an untraced and a traced run of 200 ms each) must
/// satisfy every oracle and emit exactly the declared per-layer metrics.
fn check_layers<L: Workload>(spec: &Spec) {
    let outcome =
        per_layer::<L>(&short_pass(), spec).unwrap_or_else(|e| panic!("{}: {e}", L::NAME));
    assert!(outcome.attempted > 0, "{}: nothing was checked", L::NAME);
    assert_eq!(outcome.failed, 0, "{}", L::NAME);
    assert_eq!(outcome.exit_oracle, Ok(()), "{}", L::NAME);
    let Json::Obj(metrics) = &outcome.metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(metrics.len(), spec.per_layer.len());
}

#[test]
fn every_workload_passes_its_oracles_and_emits_the_declared_layer_metrics() {
    if nproc() < THREADS {
        eprintln!("skipped: fewer cores than client threads");
        return;
    }
    let spec = Spec::embedded();
    check_layers::<RmwDisjoint>(&spec);
    check_layers::<AvlMixed>(&spec);
    check_layers::<HolderCoexist>(&spec);
    check_layers::<ShardBatch>(&spec);
    check_layers::<StmCompose>(&spec);
}

/// The test binary cannot re-execute itself as the benchmark, so the
/// intervals the end-to-end pass would run in children run in-process.
#[test]
fn end_to_end_summary_emits_the_declared_metrics_and_none_is_zero() {
    if nproc() < THREADS {
        eprintln!("skipped: fewer cores than client threads");
        return;
    }
    let spec = Spec::embedded();
    let plan = Plan {
        warmup: Duration::from_millis(50),
        interval: Duration::from_millis(300),
    };
    let reports: Vec<IntervalReport> = (0..3)
        .map(|_| one_interval::<AvlMixed>(7, &plan, Instant::now()).expect("measurable"))
        .collect();
    for r in &reports {
        let wire = parse_json(&r.to_json().to_string()).expect("report is JSON");
        assert_eq!(IntervalReport::from_json(&wire).as_ref(), Some(r));
    }
    let outcome = summarise(&reports, &spec).expect("every declared metric was measured");
    assert!(outcome.correct());
    assert!(outcome.attempted > 0);
    for m in &spec.end_to_end {
        let value = outcome
            .metrics
            .get(&m.name)
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64);
        assert!(value.is_some_and(|v| v > 0.0), "{}: {value:?}", m.name);
    }
}

#[test]
fn declared_names_follow_the_contract() {
    let spec = Spec::embedded();
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    assert_eq!(names, workloads::NAMES, "workload names are final");
    names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
    names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
    assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    // The benchmark contract caps a bound at a quarter.
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(!setup.higher_is_better && setup.unit == "s");
    let widest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the largest bound"
    );
    // 4 + 22 runs per workload, each the measured seconds plus a warm-up
    // and a tenth of a second of set-up per interval and a second of cargo,
    // must fit the driver's 3420 s with two builds to spare.
    let runs = 4 + 22 * spec.workloads.len() as u64;
    let per_interval = WARMUP.as_secs_f64() + 0.1;
    let per_run = spec.run_seconds as f64 + f64::from(INTERVALS) * per_interval + 1.0;
    assert!(runs as f64 * per_run + 2.0 * 120.0 <= 3420.0);
}
