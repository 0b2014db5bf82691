//! # rtle-cctsa: a coverage-centric threaded sequence assembler substrate
//!
//! The paper's real-application benchmark (§6.4) is ccTSA, an open-source
//! de-novo gene sequence assembler: it takes short DNA *reads*, extracts
//! overlapping *k-mers*, builds the De Bruijn graph of their overlaps, and
//! walks that graph to reconstruct *contigs* of the genome.
//!
//! The original input (E. coli read data shipped with ccTSA) is replaced by
//! a synthetic generator ([`genome`]): a random genome of configurable
//! length, sampled into 36-bp reads at a configurable coverage — the same
//! structural workload (hash-map-dominated k-mer ingestion with rare
//! conflicts) that makes Figure 13 interesting.
//!
//! Both program organizations the paper compares are implemented:
//!
//! * [`assemble::ShardedAssembler`] — the **original** design: the k-mer
//!   map split into thousands of shards (4096 by default), each protected
//!   by its own plain lock; scalable, but paying the fine-grained-locking
//!   overhead the paper quotes McSherry et al. \[20\] for.
//! * [`assemble::ingest_single_map`] — the **transactified** design: one
//!   big transaction-safe hash map, one elidable global lock (any
//!   `ElidableLock` policy), one critical section per k-mer; much simpler
//!   and faster single-threaded, scalable only through lock elision.
//!
//! Phases after ingestion (coverage filtering, unitig walking, contig
//! statistics) are embarrassingly parallel or sequential post-processing
//! in ccTSA and are implemented in [`assemble`] as such.

pub mod assemble;
pub mod genome;
pub mod kmer;
pub mod txmap;

pub use assemble::{assemble_contigs, ingest_single_map, AssemblyStats, ShardedAssembler};
pub use genome::{sample_reads, Genome};
pub use kmer::Kmer;
pub use txmap::KmerMap;
