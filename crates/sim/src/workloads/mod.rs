//! Benchmark workloads driving the simulator — one per paper benchmark:
//! the AVL-tree set micro-benchmark (§6.2, Figures 5–7 and 12), the bank
//! accounts read-modify-write micro-benchmark (§6.3, Figure 11), and the
//! ccTSA assembly pipeline (§6.4, Figure 13).
//!
//! Traces are recorded from *real* shadow data structures (the actual
//! `rtle-avltree` / `rtle-cctsa` crates) via [`recorder::Recorder`], so
//! hot-root contention, k-mer sharing between overlapping reads, and
//! account collisions arise from genuine structure, not from fitted
//! distributions.

pub mod avl;
pub mod bank;
pub mod cctsa;
pub mod recorder;
