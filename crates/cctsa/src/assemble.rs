//! Assembly pipeline: parallel k-mer ingestion (in both program
//! organizations the paper compares), coverage filtering, and unitig-style
//! contig construction over the De Bruijn graph.

use rtle_core::{ElidableLock, TatasLock};
use rtle_htm::hash::wang_mix64;
use rtle_htm::PlainAccess;

use crate::genome::BASES;
use crate::kmer::{kmers_with_edges, Kmer};
use crate::txmap::KmerMap;

/// Transactified ingestion (§6.4.1): one shared map, one critical section
/// of `lock` per k-mer occurrence, reads kept in thread-local vectors
/// (returned per thread, mirroring ccTSA's coordination-free read
/// storage). Returns the per-thread read counts.
pub fn ingest_single_map(
    map: &KmerMap,
    reads: &[Vec<u8>],
    k: usize,
    threads: usize,
    lock: &ElidableLock,
) -> Vec<usize> {
    assert!(threads >= 1);
    let chunk = reads.len().div_ceil(threads);
    let mut processed = vec![0usize; threads];
    std::thread::scope(|scope| {
        for (slice, out) in reads.chunks(chunk.max(1)).zip(processed.iter_mut()) {
            scope.spawn(move || {
                // Thread-local read storage (the paper's per-thread vectors
                // that remove coordination during the processing phase).
                let mut local_reads: Vec<&[u8]> = Vec::with_capacity(slice.len());
                for read in slice {
                    local_reads.push(read);
                    for (kmer, prev, next) in kmers_with_edges(read, k) {
                        lock.execute(|ctx| map.record(ctx, kmer, prev, next));
                    }
                }
                *out = local_reads.len();
            });
        }
    });
    processed
}

/// The original ccTSA organization (§6.4): the k-mer map split into many
/// shards, each protected by its own plain (never elided) lock, k-mers
/// routed to shards by hash.
#[derive(Debug)]
pub struct ShardedAssembler {
    shards: Vec<(TatasLock, KmerMap)>,
}

/// ccTSA's default shard count.
pub const DEFAULT_SHARDS: usize = 4096;

impl ShardedAssembler {
    /// `total_capacity` k-mer slots spread over `shards` maps.
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        assert!(shards >= 1);
        let per = (total_capacity / shards).max(16);
        ShardedAssembler {
            shards: (0..shards)
                .map(|_| (TatasLock::new(), KmerMap::with_capacity(per)))
                .collect(),
        }
    }

    /// Number of shards (paper default: 4096).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_for(&self, kmer: Kmer) -> &(TatasLock, KmerMap) {
        let i = (wang_mix64(kmer.0 ^ 0xc0ff_ee00) as usize) % self.shards.len();
        &self.shards[i]
    }

    /// Parallel ingestion under fine-grained locking.
    pub fn ingest(&self, reads: &[Vec<u8>], k: usize, threads: usize) {
        assert!(threads >= 1);
        let chunk = reads.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for slice in reads.chunks(chunk.max(1)) {
                scope.spawn(move || {
                    for read in slice {
                        for (kmer, prev, next) in kmers_with_edges(read, k) {
                            let (lock, map) = self.shard_for(kmer);
                            lock.acquire();
                            map.record(&PlainAccess, kmer, prev, next);
                            lock.release();
                        }
                    }
                });
            }
        });
    }

    /// Merges all shards into one map for the processing phase (quiescent).
    pub fn merge_into(&self, target: &KmerMap) {
        for (_, m) in &self.shards {
            target.absorb_plain(m);
        }
    }

    /// Total live k-mers across shards (quiescent).
    pub fn len_plain(&self) -> usize {
        self.shards.iter().map(|(_, m)| m.len_plain()).sum()
    }
}

/// Summary statistics of an assembly, as sequence assemblers report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Number of assembled contigs.
    pub contigs: usize,
    /// Total assembled bases.
    pub total_len: usize,
    /// Longest contig, in bases.
    pub longest: usize,
    /// Shortest contig length such that contigs at least that long cover
    /// half the total assembled length.
    pub n50: usize,
}

impl AssemblyStats {
    /// Computes the stats of a contig set.
    pub fn of(contigs: &[Vec<u8>]) -> Self {
        let mut lens: Vec<usize> = contigs.iter().map(Vec::len).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = lens.iter().sum();
        let mut acc = 0;
        let mut n50 = 0;
        for &l in &lens {
            acc += l;
            if acc * 2 >= total {
                n50 = l;
                break;
            }
        }
        AssemblyStats {
            contigs: lens.len(),
            total_len: total,
            longest: lens.first().copied().unwrap_or(0),
            n50,
        }
    }
}

/// Builds contigs by walking maximal unambiguous paths (unitigs) of the De
/// Bruijn graph: extend right while the current node has exactly one live
/// successor and that successor has exactly one live predecessor.
/// Quiescent phase. Returns 2-bit-encoded contigs.
pub fn assemble_contigs(map: &KmerMap, k: usize) -> Vec<Vec<u8>> {
    let a = PlainAccess;
    let nodes: Vec<Kmer> = map.iter_plain().map(|e| e.kmer).collect();
    let mut visited = std::collections::HashSet::with_capacity(nodes.len());
    let mut contigs = Vec::new();

    let successors = |u: Kmer| -> Vec<Kmer> {
        let info = map.get(&a, u).expect("live node");
        (0..4u8)
            .filter(|b| info.out_mask & (1 << b) != 0)
            .map(|b| u.roll(b, k))
            .filter(|v| map.get(&a, *v).is_some())
            .collect()
    };
    let predecessors = |u: Kmer| -> Vec<Kmer> {
        let info = map.get(&a, u).expect("live node");
        (0..4u8)
            .filter(|b| info.in_mask & (1 << b) != 0)
            .map(|b| Kmer(((b as u64) << (2 * (k - 1))) | (u.0 >> 2)))
            .filter(|v| map.get(&a, *v).is_some())
            .collect()
    };

    for &start in &nodes {
        if visited.contains(&start) {
            continue;
        }
        // Walk left to the beginning of this unitig.
        let mut first = start;
        loop {
            let preds = predecessors(first);
            if preds.len() != 1 || visited.contains(&preds[0]) {
                break;
            }
            let p = preds[0];
            if successors(p).len() != 1 || p == start {
                break; // branch point, or we looped back (cycle guard)
            }
            first = p;
        }
        // Walk right, emitting bases.
        let mut contig: Vec<u8> = (0..k)
            .map(|i| ((first.0 >> (2 * (k - 1 - i))) & 3) as u8)
            .collect();
        visited.insert(first);
        let mut cur = first;
        loop {
            let succs = successors(cur);
            if succs.len() != 1 {
                break;
            }
            let next = succs[0];
            if visited.contains(&next) || predecessors(next).len() != 1 {
                break;
            }
            contig.push(next.last_base());
            visited.insert(next);
            cur = next;
        }
        contigs.push(contig);
    }
    contigs
}

/// ASCII rendering of a 2-bit contig (tests / reports).
pub fn contig_to_ascii(contig: &[u8]) -> String {
    contig.iter().map(|&b| BASES[b as usize]).collect()
}

/// End-to-end sequential assembly (reference path used by tests and the
/// example binaries): ingest with plain access, filter, build contigs.
pub fn assemble_sequential(reads: &[Vec<u8>], k: usize, min_count: u32) -> Vec<Vec<u8>> {
    let distinct_upper: usize = reads.iter().map(|r| r.len().saturating_sub(k - 1)).sum();
    let map = KmerMap::with_capacity((2 * distinct_upper).max(64));
    let a = PlainAccess;
    for read in reads {
        for (kmer, prev, next) in kmers_with_edges(read, k) {
            map.record(&a, kmer, prev, next);
        }
    }
    map.filter_low_coverage(min_count);
    assemble_contigs(&map, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{sample_reads, Genome};

    #[test]
    fn perfect_reads_reassemble_the_genome() {
        let g = Genome::synthetic(1_000, 42);
        let reads = sample_reads(&g, 36, 4, 0.0, 7);
        let contigs = assemble_sequential(&reads, 15, 1);
        // With unique k-mers and full tiling coverage, assembly yields one
        // contig equal to the genome.
        assert_eq!(contigs.len(), 1, "stats: {:?}", AssemblyStats::of(&contigs));
        assert_eq!(contigs[0], g.bases(), "contig differs from genome");
    }

    #[test]
    fn coverage_filter_removes_error_kmers() {
        let g = Genome::synthetic(2_000, 11);
        let reads = sample_reads(&g, 36, 8, 0.01, 3);
        // Erroneous k-mers are mostly singletons; min_count 2 removes them.
        let contigs = assemble_sequential(&reads, 15, 2);
        let stats = AssemblyStats::of(&contigs);
        assert!(
            stats.total_len >= g.len() * 9 / 10,
            "most of the genome assembled: {stats:?}"
        );
        // Every assembled contig of length ≥ 30 should be a genome substring.
        let gs = g.bases();
        for c in contigs.iter().filter(|c| c.len() >= 30) {
            assert!(
                gs.windows(c.len()).any(|w| w == c.as_slice()),
                "contig ({} bp) not in genome",
                c.len()
            );
        }
    }

    #[test]
    fn sharded_and_single_map_agree() {
        let g = Genome::synthetic(800, 5);
        let reads = sample_reads(&g, 36, 3, 0.0, 2);
        let k = 15;

        // Transactified single map, one thread on a lock.
        let distinct_upper: usize = reads.iter().map(|r| r.len() - (k - 1)).sum();
        let single = KmerMap::with_capacity(2 * distinct_upper);
        let lock = ElidableLock::builder().build();
        let counts = ingest_single_map(&single, &reads, k, 1, &lock);
        assert_eq!(counts.iter().sum::<usize>(), reads.len());

        // Original sharded design.
        let sharded = ShardedAssembler::new(64, 2 * distinct_upper * 2);
        sharded.ingest(&reads, k, 2);
        assert_eq!(sharded.len_plain(), single.len_plain());

        let merged = KmerMap::with_capacity(2 * distinct_upper);
        sharded.merge_into(&merged);
        // Same multiset of k-mer counts.
        let mut a: Vec<_> = single.iter_plain().map(|e| (e.kmer, e.count)).collect();
        let mut b: Vec<_> = merged.iter_plain().map(|e| (e.kmer, e.count)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        // Same contigs from either path.
        let ca = assemble_contigs(&single, k);
        let cb = assemble_contigs(&merged, k);
        let (mut sa, mut sb) = (ca.clone(), cb.clone());
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
    }

    #[test]
    fn stats_computation() {
        let contigs = vec![vec![0; 100], vec![0; 50], vec![0; 25], vec![0; 25]];
        let s = AssemblyStats::of(&contigs);
        assert_eq!(s.contigs, 4);
        assert_eq!(s.total_len, 200);
        assert_eq!(s.longest, 100);
        assert_eq!(s.n50, 100, "100 alone covers half of 200");
        assert_eq!(AssemblyStats::of(&[]).n50, 0);
    }

    #[test]
    fn branching_genome_splits_contigs() {
        // A repeated k-mer creates a branch: ACGTACGA + ACGTACGC style.
        // Build reads that share a (k-1)-overlap but diverge.
        let k = 4;
        let r1: Vec<u8> = Genome::from_ascii("AACGTTGG").bases().to_vec();
        let r2: Vec<u8> = Genome::from_ascii("AACGTTCC").bases().to_vec();
        let map = KmerMap::with_capacity(128);
        let a = PlainAccess;
        for r in [&r1, &r2] {
            for (kmer, prev, next) in kmers_with_edges(r, k) {
                map.record(&a, kmer, prev, next);
            }
        }
        let contigs = assemble_contigs(&map, k);
        assert!(
            contigs.len() >= 2,
            "divergent suffixes force ≥ 2 contigs: {contigs:?}"
        );
    }

    #[test]
    fn ingest_parallel_with_elidable_lock() {
        use rtle_core::{ElidableLock, ElisionPolicy};
        let g = Genome::synthetic(600, 13);
        let reads = sample_reads(&g, 36, 2, 0.0, 21);
        let k = 15;
        let distinct_upper: usize = reads.iter().map(|r| r.len() - (k - 1)).sum();

        let map = KmerMap::with_capacity(2 * distinct_upper);
        let lock = ElidableLock::builder()
            .policy(ElisionPolicy::FgTle { orecs: 1024 })
            .build();
        ingest_single_map(&map, &reads, k, 4, &lock);

        // Reference ingestion.
        let reference = KmerMap::with_capacity(2 * distinct_upper);
        let a = PlainAccess;
        for read in &reads {
            for (kmer, prev, next) in kmers_with_edges(read, k) {
                reference.record(&a, kmer, prev, next);
            }
        }
        let mut x: Vec<_> = map.iter_plain().map(|e| (e.kmer, e.count)).collect();
        let mut y: Vec<_> = reference.iter_plain().map(|e| (e.kmer, e.count)).collect();
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y, "parallel elided ingestion must match sequential");
        let total_ops = lock.stats().snapshot().ops;
        assert_eq!(
            total_ops as usize,
            y.iter().map(|&(_, c)| c as usize).sum::<usize>()
        );
    }
}
