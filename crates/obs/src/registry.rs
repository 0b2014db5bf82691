//! A process-wide metrics registry for live scraping.
//!
//! Subsystems that already keep relaxed atomic counters — recorders,
//! sharded maps, watchdog mirrors — implement [`LiveSource`] and
//! register with a [`MetricsRegistry`]. A scrape walks the registered
//! sources and asks each for a [`SourceSnapshot`] built exclusively
//! from non-destructive reads (relaxed loads, histogram bucket copies,
//! bounded window-series clones). Nothing in the scrape path takes a
//! lock a writer can contend on:
//!
//! * the registry's own `Mutex` guards only the *registration list*,
//!   which hot-path writers never touch; the scrape clones the `Arc`s
//!   under that mutex and snapshots each source after releasing it;
//! * sources must not drain rings or reset counters when snapshotting:
//!   a recorder's reading is its one export, and a scrape must leave the
//!   typed readers ([`crate::Recorder::counts`] and the rest) what they
//!   would have read without it.
//!
//! Two renderers sit on top of a scrape: Prometheus text exposition
//! (format 0.0.4) for `/metrics`, and the repo's schema-versioned JSON
//! for `/json`. The Prometheus output deliberately carries **no
//! wall-clock-derived values** (no timestamps, no window start/length)
//! so golden-file tests stay byte-stable; the JSON output stamps
//! `taken_at_ns` from the shared [`crate::epoch`] timebase so scrapes
//! correlate with flight records and offline timelines.

use std::sync::{Arc, Mutex};

use crate::epoch;
use crate::json::Json;
use crate::window::WindowSnapshot;

/// How many trailing windows a source should include in its snapshot.
/// Scrapes are periodic; anything older is visible in a prior scrape
/// or in the offline series export.
pub const SCRAPE_WINDOW_TAIL: usize = 8;

/// One source's worth of live telemetry, produced by a single
/// non-destructive pass over its counters.
#[derive(Debug, Clone, Default)]
pub struct SourceSnapshot {
    /// Short source category ("recorder", "shard_map", "watchdog") used
    /// as the `kind` label in exports.
    pub kind: &'static str,
    /// Monotone counters, in a stable source-defined order.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges (ratios, percentile estimates), in a stable
    /// source-defined order.
    pub gauges: Vec<(String, f64)>,
    /// Up to [`SCRAPE_WINDOW_TAIL`] most recent closed windows, oldest
    /// first. Empty for sources without windowed telemetry.
    pub windows: Vec<WindowSnapshot>,
    /// Extra identity labels (key, value), in a stable source-defined
    /// order — e.g. `software_backend="tl2"` for a lock with a software
    /// fallback. Appended to every sample's label set in the Prometheus
    /// exposition and exported as a `labels` object in JSON. Empty for
    /// sources without extra identity.
    pub labels: Vec<(String, String)>,
}

/// A subsystem that can be scraped live. Implementations must be
/// non-destructive and must never block hot-path writers: relaxed
/// atomic loads and short registry-private locks only.
pub trait LiveSource: Send + Sync {
    /// Builds a snapshot of the source's current counters. Called from
    /// the scrape thread, concurrently with writers.
    fn live_snapshot(&self) -> SourceSnapshot;
}

/// The registry: named live sources, scraped together.
///
/// Registration order is preserved and defines export order, so two
/// scrapes of an unchanged registry render metrics in the same
/// sequence — a property the golden-file tests rely on.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<(String, Arc<dyn LiveSource>)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers `source` under `name`. Names are not required to be
    /// unique — two locks may both register as "lock" — but unique
    /// names make dashboards legible; callers should namespace.
    pub fn register(&self, name: impl Into<String>, source: Arc<dyn LiveSource>) {
        let mut sources = self.sources.lock().unwrap();
        sources.push((name.into(), source));
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.lock().unwrap().len()
    }

    /// True when nothing has registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots every registered source. The registration mutex is
    /// held only long enough to clone the `Arc` list; the (potentially
    /// slower) per-source snapshot runs after it is released.
    pub fn scrape(&self) -> Vec<(String, SourceSnapshot)> {
        let sources: Vec<(String, Arc<dyn LiveSource>)> = self.sources.lock().unwrap().clone();
        sources
            .into_iter()
            .map(|(name, src)| (name, src.live_snapshot()))
            .collect()
    }

    /// Renders a scrape as Prometheus text exposition (format 0.0.4).
    ///
    /// Metric names are `rtle_<key>`; every sample carries
    /// `source="<name>"` and `kind="<kind>"` labels. Per-window gauges
    /// are limited to deterministic fields (index, ops, percentiles,
    /// fallback rate) and add a `window="<index>"` label. No timestamps
    /// are emitted.
    pub fn to_prometheus(&self) -> String {
        render_prometheus(&self.scrape())
    }

    /// Renders a scrape as schema-versioned rtle-obs JSON
    /// (kind `live-registry`), stamped with `taken_at_ns` from the
    /// process epoch.
    pub fn to_json(&self) -> Json {
        render_json(&self.scrape(), epoch::now_ns())
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self
            .sources
            .lock()
            .unwrap()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        f.debug_struct("MetricsRegistry")
            .field("sources", &names)
            .finish()
    }
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Keeps metric names inside Prometheus's `[a-zA-Z_][a-zA-Z0-9_]*`
/// grammar; anything else becomes '_'. Source keys are already chosen
/// to be clean, so this is a guard rail rather than a transformer.
fn sanitize_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for (i, c) in key.chars().enumerate() {
        let ok = c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Prometheus text renderer over an already-taken scrape. Split out so
/// tests can feed hand-built snapshots.
pub fn render_prometheus(scrape: &[(String, SourceSnapshot)]) -> String {
    let mut out = String::new();
    let mut typed: Vec<String> = Vec::new();
    let mut emit = |out: &mut String, name: &str, kind: &str, labels: &str, value: String| {
        if !typed.iter().any(|t| t == name) {
            typed.push(name.to_string());
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    };
    for (source, snap) in scrape {
        let mut base = format!(
            "source=\"{}\",kind=\"{}\"",
            escape_label(source),
            escape_label(snap.kind)
        );
        for (k, v) in &snap.labels {
            base.push_str(&format!(",{}=\"{}\"", sanitize_name(k), escape_label(v)));
        }
        for (key, value) in &snap.counters {
            let name = format!("rtle_{}", sanitize_name(key));
            emit(&mut out, &name, "counter", &base, format!("{value}"));
        }
        for (key, value) in &snap.gauges {
            let name = format!("rtle_{}", sanitize_name(key));
            emit(&mut out, &name, "gauge", &base, fmt_f64(*value));
        }
        for w in &snap.windows {
            let labels = format!("{base},window=\"{}\"", w.index);
            let fields: [(&str, f64); 5] = [
                ("window_ops", w.ops() as f64),
                ("window_latency_p50_ns", w.latency_p(0.50) as f64),
                ("window_latency_p99_ns", w.latency_p(0.99) as f64),
                ("window_latency_p999_ns", w.latency_p(0.999) as f64),
                ("window_fallback_rate", w.fallback_rate()),
            ];
            for (key, value) in fields {
                let name = format!("rtle_{key}");
                emit(&mut out, &name, "gauge", &labels, fmt_f64(value));
            }
        }
    }
    out
}

/// JSON renderer over an already-taken scrape, stamped with the given
/// epoch-relative time.
pub fn render_json(scrape: &[(String, SourceSnapshot)], taken_at_ns: u64) -> Json {
    let sources: Vec<Json> = scrape
        .iter()
        .map(|(name, snap)| {
            Json::obj([
                ("name", Json::Str(name.clone())),
                ("kind", Json::Str(snap.kind.to_string())),
                (
                    "labels",
                    Json::Obj(
                        snap.labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    ),
                ),
                (
                    "counters",
                    Json::Obj(
                        snap.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                            .collect(),
                    ),
                ),
                (
                    "gauges",
                    Json::Obj(
                        snap.gauges
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
                (
                    "windows",
                    Json::Arr(snap.windows.iter().map(WindowSnapshot::to_json).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("kind", Json::Str("live-registry".into())),
        (
            "schema_version",
            Json::UInt(crate::recorder::SCHEMA_VERSION),
        ),
        ("taken_at_ns", Json::UInt(taken_at_ns)),
        ("sources", Json::Arr(sources)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtle_htm::atomic::RelaxedWord;

    struct Fake {
        hits: RelaxedWord,
    }

    impl LiveSource for Fake {
        fn live_snapshot(&self) -> SourceSnapshot {
            SourceSnapshot {
                kind: "fake",
                counters: vec![("hits".into(), self.hits.load())],
                gauges: vec![("ratio".into(), 0.25)],
                windows: Vec::new(),
                labels: Vec::new(),
            }
        }
    }

    #[test]
    fn scrape_reflects_current_counters() {
        let reg = MetricsRegistry::new();
        let fake = Arc::new(Fake {
            hits: RelaxedWord::new(0),
        });
        reg.register("a", fake.clone());
        fake.hits.store(7);
        let scrape = reg.scrape();
        assert_eq!(scrape.len(), 1);
        assert_eq!(scrape[0].0, "a");
        assert_eq!(scrape[0].1.counters, vec![("hits".to_string(), 7)]);
    }

    #[test]
    fn prometheus_text_has_type_lines_and_labels() {
        let reg = MetricsRegistry::new();
        reg.register(
            "alpha",
            Arc::new(Fake {
                hits: RelaxedWord::new(3),
            }),
        );
        reg.register(
            "beta",
            Arc::new(Fake {
                hits: RelaxedWord::new(5),
            }),
        );
        let text = reg.to_prometheus();
        // One TYPE line per metric name even with two sources.
        assert_eq!(text.matches("# TYPE rtle_hits counter").count(), 1);
        assert_eq!(text.matches("# TYPE rtle_ratio gauge").count(), 1);
        assert!(text.contains("rtle_hits{source=\"alpha\",kind=\"fake\"} 3"));
        assert!(text.contains("rtle_hits{source=\"beta\",kind=\"fake\"} 5"));
        assert!(text.contains("rtle_ratio{source=\"alpha\",kind=\"fake\"} 0.25"));
    }

    #[test]
    fn json_export_is_schema_versioned_and_parses() {
        let reg = MetricsRegistry::new();
        reg.register(
            "alpha",
            Arc::new(Fake {
                hits: RelaxedWord::new(9),
            }),
        );
        let json = reg.to_json();
        let text = json.to_string_pretty();
        let back = crate::json::parse(&text).expect("registry JSON must round-trip");
        assert_eq!(
            back.get("kind").and_then(Json::as_str),
            Some("live-registry")
        );
        assert_eq!(
            back.get("schema_version").and_then(Json::as_u64),
            Some(crate::recorder::SCHEMA_VERSION)
        );
        assert!(back.get("taken_at_ns").and_then(Json::as_u64).is_some());
        let sources = back.get("sources").and_then(Json::as_arr).unwrap();
        assert_eq!(sources.len(), 1);
        assert_eq!(
            sources[0]
                .get("counters")
                .and_then(|c| c.get("hits"))
                .and_then(Json::as_u64),
            Some(9)
        );
    }

    #[test]
    fn label_escaping_handles_quotes_and_backslashes() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(sanitize_name("p99.9-rate"), "p99_9_rate");
    }
}
