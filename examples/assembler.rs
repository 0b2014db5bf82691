//! End-to-end mini-ccTSA (§6.4): synthesize a genome, sample short reads,
//! ingest k-mers in parallel under an elided global lock, filter by
//! coverage, walk the De Bruijn graph into contigs, and verify the genome
//! was reconstructed.
//!
//! ```sh
//! cargo run --release --example assembler [genome_len] [threads]
//! ```

use std::time::Instant;

use refined_tle::prelude::*;
use rtle_cctsa::assemble::{
    assemble_contigs, contig_to_ascii, ingest_single_map, AssemblyStats, ShardedAssembler,
};
use rtle_cctsa::genome::{sample_reads, Genome};
use rtle_cctsa::kmer::kmers_with_edges;
use rtle_cctsa::txmap::KmerMap;

const READ_LEN: usize = 36;
const K: usize = 15;
const COVERAGE: usize = 4;

fn main() {
    let mut args = std::env::args().skip(1);
    let genome_len: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5_000);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let genome = Genome::synthetic(genome_len, 2026);
    let reads = sample_reads(&genome, READ_LEN, COVERAGE, 0.0, 7);
    let total_kmers: usize = reads.iter().map(|r| r.len() - (K - 1)).sum();
    println!(
        "genome {genome_len} bp, {} reads of {READ_LEN} bp, {total_kmers} k-mer records (k={K})\n",
        reads.len()
    );

    // --- Transactified design: one map, one elided global lock. ---------
    let map = KmerMap::with_capacity(2 * total_kmers);
    let lock = ElidableLock::builder()
        .policy(ElisionPolicy::FgTle { orecs: 4096 })
        .build();
    let t0 = Instant::now();
    ingest_single_map(&map, &reads, K, threads, &lock);
    let elided = t0.elapsed();
    let snap = lock.stats().snapshot();
    println!(
        "transactified ingest: {elided:?}  (fast={}, slow={}, locked={}, fallback={:.3}%)",
        snap.fast_commits,
        snap.slow_commits,
        snap.lock_acquisitions,
        snap.lock_fallback_rate() * 100.0
    );

    // --- Original design: 4096 shards, each with its own plain lock. ----
    let sharded = ShardedAssembler::new(4096, 4 * total_kmers);
    let t0 = Instant::now();
    sharded.ingest(&reads, K, threads);
    println!(
        "fine-grained ingest : {:?}  ({} shards)",
        t0.elapsed(),
        sharded.shard_count()
    );
    assert_eq!(sharded.len_plain(), map.len_plain(), "designs must agree");

    // --- Processing phase: coverage filter + contig assembly. -----------
    let filtered = map.filter_low_coverage(1);
    let contigs = assemble_contigs(&map, K);
    let stats = AssemblyStats::of(&contigs);
    println!(
        "\nassembly: {} contigs, total {} bp, longest {} bp, N50 {} bp ({} k-mers filtered)",
        stats.contigs, stats.total_len, stats.longest, stats.n50, filtered
    );

    // Verify: with unique k-mers and tiling coverage we reconstruct the
    // genome as one contig.
    let reference = {
        let m = KmerMap::with_capacity(2 * total_kmers);
        let a = PlainAccess;
        for r in &reads {
            for (kmer, prev, next) in kmers_with_edges(r, K) {
                m.record(&a, kmer, prev, next);
            }
        }
        m.len_plain()
    };
    assert_eq!(
        map.len_plain(),
        reference,
        "parallel ingest matches sequential"
    );
    if stats.contigs == 1 && contigs[0] == genome.bases() {
        println!("genome reconstructed exactly ({} bp).", contigs[0].len());
    } else {
        println!(
            "assembly differs from reference genome (expected with repeats); \
             first contig starts: {}…",
            &contig_to_ascii(&contigs[0])[..24.min(contigs[0].len())]
        );
    }
}
