//! # rtle-obs: observability for the elision runtimes
//!
//! The paper's evaluation (§6.2.1) leans on "various lightweight
//! statistics collected during execution" — per-path commit counts,
//! abort composition, lock-hold time. This crate turns those one-off
//! counters into a reusable pipeline with these pieces:
//!
//! * **The record** ([`Record`]) — one timestamped, two-word entry per
//!   retry-loop pass ([`AttemptEvent`]: path, abort code or commit,
//!   attempt index, critical-section latency — with the recording thread and the start
//!   time) and per holder instant (write-flag raise, epoch bump, adaptive
//!   decision), in one lock-free ring ([`ring::Ring`]). The watchdog's
//!   flight record and the Chrome `trace_event` export that loads in
//!   Perfetto ([`trace`]) are readings of it, both written through
//!   [`trace::chrome_event`].
//! * **Histograms** ([`Histogram`]) — log-linear (HDR-style) with atomic
//!   buckets, for critical-section latency, lock-hold time and operation
//!   latency; snapshots sum across threads and subtract across time.
//! * **Recorder** ([`Recorder`]) — one shared object absorbs everything.
//!   It has one export, its [`LiveSource`] reading (below), and typed
//!   readers for in-process use ([`Recorder::counts`],
//!   [`Recorder::cs_latency`], [`Recorder::lock_hold`],
//!   [`Recorder::records`], [`Recorder::decisions`]). Everything a
//!   recording thread writes — counters, histograms, its segment of the
//!   record ring — lives in the lane it claimed
//!   ([`rtle_htm::lanes::Writer`]), on lines no other running thread
//!   writes, bumped with plain stores.
//! * **Decision tracing** ([`AdaptDecision`]) — each adaptive FG-TLE
//!   resize/collapse/re-enable with the slow-commit/abort window signal
//!   that triggered it.
//! * **Windowed telemetry** ([`Recorder::windows`], [`TimeSeries`]) —
//!   every N ms the difference between two readings of the recorder's
//!   monotonic lanes becomes one [`WindowSnapshot`] (per-window
//!   p50/p99/p999 latency, abort-cause rates, path-mix) in a bounded
//!   series, giving tail-latency SLOs a time axis that cumulative
//!   counters cannot provide.
//! * **Collapse watchdog** ([`Watchdog`]) — inspects each closed window
//!   for collapse signatures (fallback-rate spike + commit-rate floor,
//!   sustained conflict storms) and assembles a postmortem
//!   [`flight_record`] JSON dump on trigger.
//! * **Live telemetry plane** ([`MetricsRegistry`], [`LiveServer`]) —
//!   subsystems register [`LiveSource`]s whose snapshots are built from
//!   non-destructive relaxed reads; a hand-rolled HTTP/1.1 endpoint on
//!   `std::net::TcpListener` serves Prometheus text at `/metrics` and
//!   schema-versioned JSON at `/json` while the workload runs. All
//!   exports share the [`epoch`] process-start timebase so live scrapes
//!   correlate with flight records and offline timelines.
//!
//! Recording is opt-in: the lock runtime holds an `Option<Arc<Recorder>>`
//! and pays only an `Option` null-check when none is installed; with one
//! installed, every operation is recorded.
//!
//! The [`json`] module is a self-contained JSON writer/parser — exports
//! must work in offline build environments where serde cannot be
//! vendored, and the parser lets tests and the `diag` viewers read a
//! `--json` file back.

pub mod event;
pub mod hist;
pub mod json;
mod lane;
pub mod live;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod trace;
pub mod watchdog;
pub mod window;

pub use rtle_htm::epoch;

pub use event::{
    commit_counters, AdaptAction, AdaptDecision, AttemptEvent, PathKind, PATHS, PATH_LABELS,
};
pub use hist::{HistSnapshot, Histogram};
pub use json::{parse as parse_json, Json};
pub use live::LiveServer;
pub use recorder::{ObsConfig, Recorder, DECISIONS_KEPT, SCHEMA_VERSION};
pub use registry::{LiveSource, MetricsRegistry, SourceSnapshot, SCRAPE_WINDOW_TAIL};
pub use trace::{Record, RecordKind};
pub use watchdog::{flight_record, CollapseEvent, CollapseKind, Watchdog, WatchdogLive};
pub use window::{TimeSeries, WindowCollector, WindowCounts, WindowRotation, WindowSnapshot};
