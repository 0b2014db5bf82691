//! Randomized tests for the assembler substrate, driven by a seeded
//! [`SplitMix64`] stream (dependency-free stand-in for a property-testing
//! harness; failures reproduce from the fixed seeds).

use rtle_cctsa::assemble::{assemble_sequential, AssemblyStats};
use rtle_cctsa::genome::{sample_reads, Genome};
use rtle_cctsa::kmer::{kmers_with_edges, Kmer};
use rtle_cctsa::txmap::KmerMap;
use rtle_htm::prng::SplitMix64;
use rtle_htm::PlainAccess;

/// Every contig assembled from error-free reads is an exact substring
/// of the genome, and assembly covers most of it.
#[test]
fn contigs_are_genome_substrings() {
    let mut rng = SplitMix64::new(0x51e9_cc01);
    for _case in 0..48 {
        let seed = rng.below(500);
        let len = 300 + rng.below(900) as usize;
        let g = Genome::synthetic(len, seed);
        let reads = sample_reads(&g, 36, 3, 0.0, seed ^ 0x77);
        let contigs = assemble_sequential(&reads, 13, 1);
        let gs = g.bases();
        for c in &contigs {
            assert!(c.len() >= 13);
            assert!(
                gs.windows(c.len()).any(|w| w == c.as_slice()),
                "contig of {} bp not found in genome (seed {seed})",
                c.len()
            );
        }
        let stats = AssemblyStats::of(&contigs);
        assert!(stats.total_len >= len, "k-mer coverage spans the genome");
    }
}

/// The k-mer map's multiset of counts equals a HashMap reference for
/// arbitrary read sets.
#[test]
fn kmer_map_matches_hashmap() {
    let mut rng = SplitMix64::new(0x51e9_cc02);
    for _case in 0..48 {
        let reads: Vec<Vec<u8>> = (0..1 + rng.below(19))
            .map(|_| (0..8 + rng.below(32)).map(|_| rng.below(4) as u8).collect())
            .collect();
        let k = 7;
        let map = KmerMap::with_capacity(1 << 12);
        let mut reference = std::collections::HashMap::<u64, u32>::new();
        let a = PlainAccess;
        for r in &reads {
            for (kmer, prev, next) in kmers_with_edges(r, k) {
                map.record(&a, kmer, prev, next);
                *reference.entry(kmer.0).or_default() += 1;
            }
        }
        assert_eq!(map.len_plain(), reference.len());
        for (kv, count) in &reference {
            let info = map.get(&a, Kmer(*kv)).expect("present");
            assert_eq!(info.count, *count);
        }
    }
}

/// Edge masks are consistent: every out-edge recorded on u has a
/// matching in-edge on the k-mer it rolls into (when both survive).
#[test]
fn edge_masks_are_symmetric() {
    let mut rng = SplitMix64::new(0x51e9_cc03);
    for _case in 0..48 {
        let seed = rng.below(200);
        let k = 9;
        let g = Genome::synthetic(400, seed);
        let reads = sample_reads(&g, 36, 2, 0.0, seed);
        let map = KmerMap::with_capacity(1 << 12);
        let a = PlainAccess;
        for r in &reads {
            for (kmer, prev, next) in kmers_with_edges(r, k) {
                map.record(&a, kmer, prev, next);
            }
        }
        for info in map.iter_plain() {
            for b in 0..4u8 {
                if info.out_mask & (1 << b) != 0 {
                    let v = info.kmer.roll(b, k);
                    let vi = map.get(&a, v).expect("successor k-mer must exist");
                    let first = info.kmer.first_base(k);
                    assert!(vi.in_mask & (1 << first) != 0, "missing reciprocal in-edge");
                }
            }
        }
    }
}

/// N50 definition properties on arbitrary length sets.
#[test]
fn n50_properties() {
    let mut rng = SplitMix64::new(0x51e9_cc04);
    for _case in 0..96 {
        let lens: Vec<usize> = (0..1 + rng.below(29))
            .map(|_| 1 + rng.below(499) as usize)
            .collect();
        let contigs: Vec<Vec<u8>> = lens.iter().map(|&l| vec![0u8; l]).collect();
        let s = AssemblyStats::of(&contigs);
        assert_eq!(s.contigs, lens.len());
        assert_eq!(s.total_len, lens.iter().sum::<usize>());
        assert_eq!(s.longest, *lens.iter().max().unwrap());
        assert!(s.n50 >= 1 && s.n50 <= s.longest);
        // At least half the total length is in contigs of length >= n50.
        let covered: usize = lens.iter().filter(|&&l| l >= s.n50).sum();
        assert!(covered * 2 >= s.total_len);
    }
}
