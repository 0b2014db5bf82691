//! Diagnostic sweep: the attempt-level composition behind the headline
//! figure numbers, per method — path distribution, abort composition and
//! latency percentiles from an [`rtle_obs::Recorder`] attached to the
//! simulator. The logic lives here (not in the `diag` binary) so tests
//! can assert the JSON export parses and carries the expected fields.

use std::sync::Arc;

use rtle_htm::AbortCode;
use rtle_obs::trace::{chrome_document, chrome_event, chrome_process_name};
use rtle_obs::{
    AdaptDecision, HistSnapshot, Json, ObsConfig, Record, Recorder, WindowCounts, PATH_LABELS,
    SCHEMA_VERSION,
};
use rtle_sim::engine::{Engine, RunMode};
use rtle_sim::workloads::avl::{AvlConfig, AvlWorkload};
use rtle_sim::{CostModel, MachineProfile, SimMethod, SimStats};

/// One method's diagnostic results.
#[derive(Debug)]
pub struct DiagRow {
    /// The method's figure-legend label.
    pub label: String,
    /// Exact simulator counters.
    pub stats: SimStats,
    /// The recorder's attempt counts: commits per path, aborts per class
    /// and per explicit code.
    pub counts: WindowCounts,
    /// Critical-section latency of committed attempts, in simulator
    /// cycles.
    pub cs_latency: HistSnapshot,
    /// The adaptive policy's decisions (empty for fixed policies).
    pub decisions: Vec<AdaptDecision>,
    /// The run's resident records (attempt spans and holder instants),
    /// cycle-stamped and time-ordered.
    pub trace: Vec<Record>,
}

/// Runs the diagnostic workload (the Figure 5/6 AVL configuration:
/// 8192 keys, 20% Insert / 20% Remove, Xeon profile) for every Figure 5
/// method plus adaptive FG-TLE, with a recorder attached.
pub fn run_diag(threads: usize, sim_ms: u64) -> Vec<DiagRow> {
    let machine = MachineProfile::XEON;
    let cfg = AvlConfig::new(8192, 20, 20);
    let mut methods = SimMethod::figure5_set();
    methods.push(SimMethod::AdaptiveFgTle {
        initial: 64,
        max_orecs: 8192,
    });

    methods
        .into_iter()
        .map(|m| {
            let rec = Arc::new(Recorder::new(ObsConfig {
                latency_unit: "cycles",
                ..ObsConfig::default()
            }));
            let w = AvlWorkload::new(threads, cfg);
            let stats = Engine::new(
                m,
                threads,
                CostModel::pointer_chasing(),
                RunMode::FixedDuration(sim_ms * machine.cycles_per_ms()),
                w,
            )
            .with_time_scale(machine.smt_factor(threads))
            .with_spurious_aborts(machine.htm_spurious(threads))
            .with_recorder(Arc::clone(&rec))
            .run();
            DiagRow {
                label: m.label(),
                stats,
                counts: rec.counts(),
                cs_latency: rec.cs_latency(),
                decisions: rec.decisions(),
                trace: rec.records(),
            }
        })
        .collect()
}

/// JSON document for a diag sweep: per-method path distribution, abort
/// composition, latency p50/p99, the adaptive policy's decisions and the
/// raw simulator counters, under a shared schema version.
pub fn diag_to_json(threads: usize, rows: &[DiagRow]) -> Json {
    let methods = rows
        .iter()
        .map(|r| {
            let total = r.counts.total_commits().max(1) as f64;
            let path_distribution = Json::obj(
                PATH_LABELS
                    .into_iter()
                    .zip(r.counts.commits)
                    .map(|(label, n)| (label, Json::Num(n as f64 / total))),
            );
            let abort_composition = Json::obj(
                AbortCode::LABELS
                    .into_iter()
                    .zip(r.counts.aborts)
                    .map(|(label, n)| (label, Json::UInt(n))),
            );
            Json::obj([
                ("method", Json::Str(r.label.clone())),
                ("path_distribution", path_distribution),
                ("abort_composition", abort_composition),
                (
                    "cs_latency_cycles",
                    Json::obj([
                        ("p50", Json::UInt(r.cs_latency.percentile(0.50))),
                        ("p99", Json::UInt(r.cs_latency.percentile(0.99))),
                        ("max", Json::UInt(r.cs_latency.max)),
                    ]),
                ),
                (
                    "decisions",
                    Json::Arr(r.decisions.iter().map(AdaptDecision::to_json).collect()),
                ),
                ("stats", r.stats.to_json()),
            ])
        })
        .collect();
    Json::obj([
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("tool", Json::Str("diag".into())),
        ("threads", Json::UInt(threads as u64)),
        ("workload", Json::Str("avl-8192-20-20".into())),
        ("methods", Json::Arr(methods)),
    ])
}

/// Combined Chrome `trace_event` document for a diag sweep: one process
/// per method (named via metadata events), thread tracks inside each.
/// Timestamps are simulator cycles (`otherData.raw_time_unit`).
pub fn diag_trace_to_json(rows: &[DiagRow]) -> Json {
    let mut events = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        let pid = i as u64 + 1;
        events.push(chrome_process_name(pid, &r.label));
        for rec in &r.trace {
            events.push(chrome_event(rec, pid));
        }
    }
    chrome_document(events, "cycles")
}

/// Hash-hot-spot report: the per-orec conflict heatmap for methods that
/// attribute conflicts (FG-TLE and adaptive FG-TLE): each method's
/// attributed total and its hottest slots.
pub fn print_heatmap_report(rows: &[DiagRow]) {
    println!("orec conflict heatmap (top 8 slots per method):");
    for r in rows {
        let heat = &r.stats.orec_heatmap;
        if heat.conflicts.is_empty() {
            continue;
        }
        let total = heat.total_conflicts();
        println!(
            "  {:<18} capacity {:>5}  attributed {:>8}",
            r.label,
            heat.conflicts.len(),
            total
        );
        for (slot, n) in heat.hottest(8) {
            let share = n as f64 / total.max(1) as f64;
            println!(
                "    slot {slot:>5}  {n:>8} conflicts  ({share:>5.1}%)",
                share = share * 100.0
            );
        }
    }
}

/// The fixed-width table the `diag` binary has always printed.
pub fn print_diag_table(threads: usize, rows: &[DiagRow]) {
    println!(
        "AVL 8192 keys, 20:20:60, {threads} threads, {}:",
        MachineProfile::XEON.name
    );
    println!(
        "{:<18}{:>9}{:>8}{:>8}{:>8}{:>9}{:>9}{:>9}{:>9}{:>9}{:>10}{:>10}",
        "method",
        "ops",
        "fast",
        "slow",
        "lock",
        "ab.conf",
        "ab.cap",
        "ab.uarch",
        "ab.owned",
        "lockfrac",
        "cs.p50",
        "cs.p99"
    );
    for r in rows {
        let s = &r.stats;
        println!(
            "{:<18}{:>9}{:>8}{:>8}{:>8}{:>9}{:>9}{:>9}{:>9}{:>9.3}{:>10}{:>10}",
            r.label,
            s.ops,
            s.fast_commits,
            s.slow_commits,
            s.lock_commits,
            s.aborts_conflict,
            s.aborts_capacity,
            s.aborts_uarch,
            s.aborts_eager_owned,
            s.cycles_locked as f64 / s.sim_cycles.max(1) as f64,
            r.cs_latency.percentile(0.50),
            r.cs_latency.percentile(0.99),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_obs::parse_json;

    /// The acceptance check: a miniature diag run emits valid,
    /// schema-versioned JSON with per-method path distribution, abort
    /// composition and latency percentiles.
    #[test]
    fn diag_json_parses_with_expected_fields() {
        let rows = run_diag(4, 1);
        assert_eq!(rows.len(), 13, "12 figure-5 methods + adaptive");
        let doc = diag_to_json(4, &rows);
        let text = doc.to_string_pretty();
        let j = parse_json(&text).expect("diag JSON must parse");
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(j.get("threads").and_then(Json::as_u64), Some(4));
        let methods = j.get("methods").and_then(Json::as_arr).unwrap();
        assert_eq!(methods.len(), 13);
        for m in methods {
            let label = m.get("method").and_then(Json::as_str).unwrap();
            let dist = m.get("path_distribution").expect("path distribution");
            let frac_sum: f64 = rtle_obs::PATH_LABELS
                .iter()
                .map(|k| dist.get(k).and_then(Json::as_f64).unwrap_or(0.0))
                .sum();
            // Methods that commit anything have fractions summing to ~1;
            // software-only methods (NOrec) record no HTM/lock commits.
            if m.get("stats")
                .and_then(|s| s.get("fast_commits"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0
            {
                assert!(
                    (frac_sum - 1.0).abs() < 1e-9,
                    "{label}: fractions sum to {frac_sum}"
                );
            }
            assert!(m.get("abort_composition").is_some(), "{label}");
            let lat = m.get("cs_latency_cycles").unwrap();
            let p50 = lat.get("p50").and_then(Json::as_u64).unwrap();
            let p99 = lat.get("p99").and_then(Json::as_u64).unwrap();
            assert!(p99 >= p50, "{label}: p99 {p99} < p50 {p50}");
            let decisions = m.get("decisions").and_then(Json::as_arr).unwrap();
            if !label.contains("adaptive") {
                assert!(
                    decisions.is_empty(),
                    "{label}: a fixed policy decides nothing"
                );
            }
        }
        // TLE commits on the fast path in this workload.
        let tle = methods
            .iter()
            .find(|m| m.get("method").and_then(Json::as_str) == Some("TLE"))
            .unwrap();
        assert!(
            tle.get("path_distribution")
                .and_then(|d| d.get("fast_htm"))
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    /// Heatmap and trace exports off one sweep. The hash-hot-spot
    /// invariant: for every FG method, every OREC_CONFLICT self-abort the
    /// recorder saw is attributed to a slot, and besides those only
    /// validation aborts on an orec line are. The combined diag trace is
    /// valid Chrome `trace_event` JSON after a parser round-trip (what
    /// Perfetto checks before loading), with one named process per method.
    #[test]
    fn heatmap_invariant_and_chrome_trace_validity() {
        use rtle_obs::trace::validate_chrome;
        let rows = run_diag(4, 1);

        let mut fg_rows = 0;
        for r in &rows {
            let attributed = r.stats.orec_heatmap.total_conflicts();
            if r.stats.orec_heatmap.conflicts.is_empty() {
                assert_eq!(attributed, 0, "{}", r.label);
                continue;
            }
            fg_rows += 1;
            let orec_conflict = AbortCode::Explicit(rtle_core::abort_codes::OREC_CONFLICT);
            let eager = r.counts.explicit[orec_conflict.explicit_bucket().unwrap()];
            assert!(
                (eager..=eager + r.stats.aborts_conflict).contains(&attributed),
                "{}: {attributed} attributed, {eager} OREC_CONFLICT self-aborts",
                r.label
            );
        }
        assert!(fg_rows >= 4, "FG-TLE variants + adaptive carry heatmaps");
        print_heatmap_report(&rows);

        let doc = diag_trace_to_json(&rows);
        let parsed = parse_json(&doc.to_string_pretty()).expect("trace JSON parses");
        let n = validate_chrome(&parsed).expect("valid trace_event document");
        // One process-name metadata event per method, and every record.
        let records: usize = rows.iter().map(|r| r.trace.len()).sum();
        assert_eq!(n, rows.len() + records);
        for r in &rows {
            // (NOrec's software transactions are not recorded attempts.)
            let recorded = r.counts.attempts() > 0;
            assert_eq!(!r.trace.is_empty(), recorded, "{}", r.label);
        }
    }
}
