//! Merged observability for [`ShardedTxMap`]: per-shard stats snapshots
//! aggregated into one lock-shaped view, per-shard load/abort imbalance
//! metrics fed by routing counters and the orec conflict heatmap, and the
//! map's one export, its [`LiveSource`] snapshot.

use std::sync::Arc;

use rtle_core::StatsSnapshot;
use rtle_htm::TxWord;
use rtle_obs::{commit_counters, LiveSource, MetricsRegistry, SourceSnapshot};

use crate::sharded::ShardedTxMap;

/// Aggregated view of one [`ShardedTxMap`]'s shards at a point in time.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// One stats snapshot per shard, in shard-index order.
    pub per_shard: Vec<StatsSnapshot>,
    /// Field-wise sum of `per_shard` — the single-lock-shaped aggregate.
    pub merged: StatsSnapshot,
    /// Operations routed to each shard (single-key + batch + cross-shard
    /// legs), in shard-index order.
    pub routed: Vec<u64>,
    /// Orec-heatmap conflict totals per shard (0 for policies without
    /// orecs) — the "which shard's footprint is actually contended"
    /// signal, as opposed to `routed`'s "which shard is merely busy".
    pub heat_conflicts: Vec<u64>,
    /// Name of the shards' software-TM fallback (`None` when built
    /// without one). `with_builder` clones one template per shard, so
    /// every shard holds the same one backend `Arc` and the first shard
    /// answers for the map.
    pub software_backend: Option<&'static str>,
}

/// `max / mean` of a counter vector: 1.0 = perfectly balanced,
/// `shards as f64` = everything on one shard, 0.0 when all zero.
fn imbalance(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / counts.len() as f64;
    let max = *counts.iter().max().expect("non-empty") as f64;
    max / mean
}

impl ShardReport {
    /// Routing imbalance: `max(routed) / mean(routed)`. Near 1.0 means
    /// the Wang mix is spreading the key space evenly; a hot-key workload
    /// shows up here first.
    pub fn load_imbalance(&self) -> f64 {
        imbalance(&self.routed)
    }

    /// Abort imbalance: `max / mean` of per-shard total HTM aborts.
    /// Routing can be balanced while conflicts concentrate (e.g. all
    /// writers hash-adjacent in one shard); this metric catches that.
    pub fn abort_imbalance(&self) -> f64 {
        let aborts: Vec<u64> = self
            .per_shard
            .iter()
            .map(|s| s.fast_aborts.saturating_add(s.slow_aborts))
            .collect();
        imbalance(&aborts)
    }
}

impl<V: TxWord> ShardedTxMap<V> {
    /// Per-shard stats snapshots, in shard-index order.
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards
            .iter()
            .map(|s| s.lock().stats().snapshot())
            .collect()
    }

    /// All shards' counters summed into one lock-shaped snapshot.
    pub fn merged_stats(&self) -> StatsSnapshot {
        self.shard_stats()
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(s))
    }

    /// Operations routed per shard, in shard-index order.
    pub fn routed_counts(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.routed.sum(0)).collect()
    }

    /// One consistent-enough report over all shards.
    pub fn report(&self) -> ShardReport {
        let per_shard = self.shard_stats();
        let merged = per_shard
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(s));
        ShardReport {
            heat_conflicts: self
                .shards
                .iter()
                .map(|s| s.lock().orec_heatmap().map_or(0, |h| h.total_conflicts()))
                .collect(),
            routed: self.routed_counts(),
            software_backend: self.software_backend_name(),
            per_shard,
            merged,
        }
    }

    /// Name of the shards' software-TM fallback, or `None` without one
    /// (all shards share the template's backend, so the first shard
    /// answers for the map).
    pub fn software_backend_name(&self) -> Option<&'static str> {
        self.shards
            .first()
            .and_then(|s| s.lock().software_backend_name())
    }
}

/// Live-registry view of the whole map: merged commit-path counters plus
/// the imbalance gauges only the sharded layer can compute. Window series
/// are deliberately *not* duplicated here — when the shards share a
/// windowed recorder, [`ShardedTxMap::register_live`] registers that
/// recorder as its own source and the windows arrive through it.
impl<V: TxWord> LiveSource for ShardedTxMap<V> {
    fn live_snapshot(&self) -> SourceSnapshot {
        let report = self.report();
        let m = &report.merged;
        let mut counters = vec![("shards".into(), self.shard_count() as u64)];
        counters.extend(commit_counters(m.commits()));
        counters.extend([
            ("aborts_fast".into(), m.fast_aborts),
            ("aborts_slow".into(), m.slow_aborts),
            ("routed_total".into(), report.routed.iter().sum()),
            (
                "heat_conflicts_total".into(),
                report.heat_conflicts.iter().sum(),
            ),
        ]);
        SourceSnapshot {
            kind: "shard_map",
            counters,
            gauges: vec![
                ("load_imbalance".into(), report.load_imbalance()),
                ("abort_imbalance".into(), report.abort_imbalance()),
                ("lock_fallback_rate".into(), m.lock_fallback_rate()),
            ],
            windows: Vec::new(),
            labels: report
                .software_backend
                .map(|n| ("software_backend".to_string(), n.to_string()))
                .into_iter()
                .collect(),
        }
    }
}

impl<V: TxWord + 'static> ShardedTxMap<V> {
    /// Registers this map with `registry` under `name`, and — when the
    /// shards were built around a shared recorder — registers that
    /// recorder too (as `<name>_recorder`), so the commit-path mix,
    /// latency percentiles, and per-window series all reach the same
    /// scrape endpoint as the imbalance gauges. The same two-source
    /// pattern as [`rtle_core::ElidableLock::register_live`].
    pub fn register_live(self: &Arc<Self>, registry: &MetricsRegistry, name: &str) {
        registry.register(name, Arc::clone(self) as Arc<dyn LiveSource>);
        // `with_builder` clones one template per shard, so the first
        // shard's recorder is the shared cross-shard one.
        if let Some(rec) = self.shards.first().and_then(|s| s.lock().recorder()) {
            registry.register(
                format!("{name}_recorder"),
                Arc::clone(rec) as Arc<dyn LiveSource>,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_stats_sum_per_shard() {
        let m: ShardedTxMap = ShardedTxMap::new(4, 128);
        for k in 0..300u64 {
            m.insert(k, k);
        }
        let per = m.shard_stats();
        let merged = m.merged_stats();
        assert_eq!(per.len(), 4);
        assert_eq!(merged.ops, per.iter().map(|s| s.ops).sum::<u64>());
        assert_eq!(merged.ops, 300, "one critical section per insert");
        let commits = merged.fast_commits + merged.slow_commits + merged.lock_acquisitions;
        assert_eq!(commits, 300, "every op committed on exactly one path");
    }

    #[test]
    fn routed_counts_track_all_entry_points() {
        let m: ShardedTxMap = ShardedTxMap::new(4, 128);
        m.insert(1, 10);
        m.insert(2, 20);
        m.get(1);
        m.transfer(1, 2, 5).unwrap();
        let routed: u64 = m.routed_counts().iter().sum();
        // 3 single-key ops + transfer (1 same-shard or 2 cross-shard legs).
        assert!((4..=5).contains(&routed), "routed = {routed}");
    }

    #[test]
    fn imbalance_metrics_behave() {
        assert_eq!(imbalance(&[0, 0, 0]), 0.0);
        assert!((imbalance(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!(
            (imbalance(&[8, 0, 0, 0]) - 4.0).abs() < 1e-12,
            "all-on-one = shard count"
        );
    }

    /// The shards share one recorder, so its windows are the cross-shard
    /// merge.
    #[test]
    fn report_carries_the_merged_window_series() {
        use rtle_core::ElidableLock;
        use rtle_obs::{ObsConfig, Recorder};
        use std::sync::Arc;

        let rec = Arc::new(Recorder::new(ObsConfig {
            window_len_ms: 1_000,
            ..ObsConfig::default()
        }));
        let m: ShardedTxMap =
            ShardedTxMap::with_builder(4, 64, ElidableLock::builder().recorder(Arc::clone(&rec)));
        for k in 0..200u64 {
            m.insert(k, k);
        }
        let windows = rec.windows().expect("windowing configured");
        assert!(windows.series().is_empty(), "nothing has closed yet");
        let w = windows.rotate().merged;
        assert_eq!(windows.series().len(), 1, "one closed window");
        assert_eq!(
            w.counts.total_commits(),
            200,
            "window merges commits from every shard"
        );
    }

    #[test]
    fn register_live_exposes_map_and_shared_recorder() {
        use rtle_core::ElidableLock;
        use rtle_obs::{ObsConfig, Recorder};

        let rec = Arc::new(Recorder::new(ObsConfig::default()));
        let m: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::with_builder(
            4,
            64,
            ElidableLock::builder().recorder(Arc::clone(&rec)),
        ));
        for k in 0..150u64 {
            m.insert(k, k);
        }
        let registry = MetricsRegistry::new();
        m.register_live(&registry, "bank");
        assert_eq!(registry.len(), 2, "map + shared recorder");

        let scrape = registry.scrape();
        let map_src = scrape
            .iter()
            .find(|(n, _)| n == "bank")
            .map(|(_, s)| s)
            .expect("map source registered");
        assert_eq!(map_src.kind, "shard_map");
        let counter = |key: &str| {
            map_src
                .counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("counter {key} missing"))
        };
        assert_eq!(counter("shards"), 4);
        assert_eq!(counter("routed_total"), 150);
        let commits: u64 = rtle_obs::PATH_LABELS
            .iter()
            .map(|path| counter(&format!("commits_{path}")))
            .sum();
        assert_eq!(commits, 150, "every insert committed on exactly one path");
        assert!(
            map_src.gauges.iter().any(|(k, _)| k == "load_imbalance"),
            "imbalance gauges present"
        );
        assert!(
            map_src.windows.is_empty(),
            "windows come via the recorder source"
        );

        let rec_src = scrape
            .iter()
            .find(|(n, _)| n == "bank_recorder")
            .map(|(_, s)| s)
            .expect("shared recorder registered");
        assert_eq!(rec_src.kind, "recorder");

        // A recorder-less map registers only itself.
        let plain: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::new(2, 64));
        let solo = MetricsRegistry::new();
        plain.register_live(&solo, "plain");
        assert_eq!(solo.len(), 1);

        // The prometheus rendering carries the shard-map labels.
        let text = registry.to_prometheus();
        assert!(
            text.contains(r#"rtle_shards{source="bank",kind="shard_map"} 4"#),
            "prometheus text:\n{text}"
        );
    }

    /// A software-TM fallback registered on the builder template flows
    /// through every shard into the report and the live-snapshot identity
    /// label.
    #[test]
    fn software_backend_flows_through_report_json_and_live_label() {
        use rtle_core::ElidableLock;
        use rtle_hytm::Tl2;

        let tl2 = Arc::new(Tl2::new());
        let m: Arc<ShardedTxMap> = Arc::new(ShardedTxMap::with_builder(
            4,
            64,
            ElidableLock::builder().with_software_backend(tl2),
        ));
        for k in 0..100u64 {
            m.insert(k, k);
        }
        assert_eq!(m.software_backend_name(), Some("tl2"));
        let report = m.report();
        assert_eq!(report.software_backend, Some("tl2"));
        let snap = m.live_snapshot();
        assert_eq!(
            snap.labels,
            vec![("software_backend".to_string(), "tl2".to_string())]
        );

        // Without a fallback: no label.
        let plain: ShardedTxMap = ShardedTxMap::new(2, 64);
        plain.insert(1, 1);
        assert_eq!(plain.software_backend_name(), None);
        assert!(plain.live_snapshot().labels.is_empty());
    }
}
