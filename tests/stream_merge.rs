//! Merge-equivalence and streaming-vs-batch properties of the unified
//! `SamplingScheme` / `Sketch` API.
//!
//! The contract under test, for every scheme family:
//!
//! * **Merge equivalence** — ingesting a key-partitioned stream into
//!   per-shard sketches and merging is equivalent to ingesting the
//!   concatenated stream into one sketch: *bit-identical* for the
//!   hash-seeded schemes (oblivious Poisson, PPS Poisson, bottom-k over PPS
//!   and EXP ranks), *distribution-identical* for VarOpt (fresh eviction
//!   randomness per sketch).
//! * **Streaming = batch** — a sketch's `finalize` equals the legacy batch
//!   `sample()` wrapper on the materialized instance.
//! * **Pipeline invariance** — `Pipeline` reproduces its single-shard
//!   report bit for bit at any shard count.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use partial_info_estimators::core::suite::{max_weighted_suite, or_oblivious_suite};
use partial_info_estimators::datagen::{generate_two_hours, shard_of, TrafficConfig};
use partial_info_estimators::sampling::{
    merge_tree, sample_all, BottomKSampler, ExpRanks, Instance, InstanceSample, Key,
    ObliviousPoissonSampler, PpsPoissonSampler, PpsRanks, SamplingScheme, SeedAssignment, Sketch,
    VarOptSampler, VarOptScheme,
};
use partial_info_estimators::{Pipeline, Scheme, Statistic};

/// A deterministic heavy-tailed weight for key `k` (so property cases only
/// need to draw key counts and salts).
fn weight_of(k: Key) -> f64 {
    0.25 + (k % 13) as f64 + if k.is_multiple_of(17) { 50.0 } else { 0.0 }
}

fn records(n: u64) -> Vec<(Key, f64)> {
    // Sparse keys so shards receive uneven, realistic populations.
    (0..n).map(|i| (i * 7 + (i % 5), weight_of(i))).collect()
}

fn instance_of(recs: &[(Key, f64)]) -> Instance {
    Instance::from_pairs(recs.iter().copied())
}

/// Ingests `recs` into one sketch (single stream) and into `shards`
/// key-partitioned sketches merged by tree, returning both samples.
fn single_vs_sharded<S: SamplingScheme>(
    scheme: &S,
    recs: &[(Key, f64)],
    shards: usize,
    seeds: &SeedAssignment,
    instance_index: u64,
) -> (InstanceSample, InstanceSample) {
    let mut single = scheme.sketch(seeds, instance_index);
    for &(k, v) in recs {
        single.ingest(k, v);
    }
    let mut pool: Vec<S::Sketch> = (0..shards)
        .map(|s| scheme.sketch_for_shard(seeds, instance_index, s as u64))
        .collect();
    for &(k, v) in recs {
        pool[shard_of(k, shards)].ingest(k, v);
    }
    merge_tree(&mut pool);
    (single.finalize(), pool[0].finalize())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pps_merge_is_bit_identical_and_matches_batch(
        n in 50u64..400,
        salt in 0u64..1_000,
        shards in 1usize..7,
        tau in 2u64..40,
    ) {
        let recs = records(n);
        let seeds = SeedAssignment::independent_known(salt);
        let scheme = PpsPoissonSampler::new(tau as f64);
        let (single, sharded) = single_vs_sharded(&scheme, &recs, shards, &seeds, 1);
        prop_assert_eq!(&single, &sharded);
        let batch = scheme.sample(&instance_of(&recs), &seeds, 1);
        prop_assert_eq!(&single, &batch);
    }

    #[test]
    fn oblivious_merge_is_bit_identical_and_matches_batch(
        n in 50u64..400,
        salt in 0u64..1_000,
        shards in 1usize..7,
    ) {
        let recs = records(n);
        let seeds = SeedAssignment::independent_known(salt);
        let scheme = ObliviousPoissonSampler::new(0.4);
        let (single, sharded) = single_vs_sharded(&scheme, &recs, shards, &seeds, 2);
        prop_assert_eq!(&single, &sharded);
        // The record keys are the universe here.
        let universe: Vec<Key> = recs.iter().map(|&(k, _)| k).collect();
        let batch = scheme.sample(&instance_of(&recs), &universe, &seeds, 2);
        prop_assert_eq!(&single, &batch);
    }

    #[test]
    fn bottomk_merge_is_bit_identical_and_matches_batch(
        n in 50u64..400,
        salt in 0u64..1_000,
        shards in 1usize..7,
        k in 5usize..60,
    ) {
        let recs = records(n);
        let seeds = SeedAssignment::independent_known(salt);

        let pps = BottomKSampler::new(PpsRanks, k);
        let (single, sharded) = single_vs_sharded(&pps, &recs, shards, &seeds, 0);
        prop_assert_eq!(&single, &sharded);
        prop_assert_eq!(&single, &pps.sample(&instance_of(&recs), &seeds, 0));

        let exp = BottomKSampler::new(ExpRanks, k);
        let (single, sharded) = single_vs_sharded(&exp, &recs, shards, &seeds, 0);
        prop_assert_eq!(&single, &sharded);
        prop_assert_eq!(&single, &exp.sample(&instance_of(&recs), &seeds, 0));
    }

    #[test]
    fn varopt_single_stream_matches_batch_given_shared_seed(
        n in 80u64..300,
        salt in 0u64..1_000,
        k in 8usize..48,
    ) {
        // The single-stream sketch and the legacy batch sampler consume the
        // same derived RNG stream in the same (key-ascending) order, so their
        // samples are bit-identical.
        let recs = records(n);
        let seeds = SeedAssignment::independent_known(salt);
        let samples = sample_all(&VarOptScheme::new(k), &[instance_of(&recs)], &seeds);
        let mut rng = StdRng::seed_from_u64(seeds.rng_seed(0, 0));
        let batch = VarOptSampler::sample(k, &instance_of(&recs), &mut rng, 0);
        prop_assert_eq!(&samples[0], &batch);
    }

    #[test]
    fn varopt_merge_preserves_structural_invariants(
        n in 150u64..400,
        salt in 0u64..1_000,
        shards in 2usize..6,
    ) {
        let k = 32;
        let mut recs = records(n);
        recs.push((1_000_003, 10_000.0)); // a key no threshold can evict
        let seeds = SeedAssignment::independent_known(salt);
        let (single, sharded) = single_vs_sharded(&VarOptScheme::new(k), &recs, shards, &seeds, 0);
        prop_assert_eq!(single.len(), k);
        prop_assert_eq!(sharded.len(), k);
        prop_assert!(sharded.contains(1_000_003), "heavy key must survive merge");
        prop_assert!(sharded.threshold >= 0.0 && sharded.threshold.is_finite());
        // Every surviving entry's HT contribution is the adjusted weight
        // max(v, τ) — finite and positive.
        for (_, v) in sharded.iter() {
            prop_assert!(v > 0.0 && v.is_finite());
        }
    }
}

/// Sharded, merged VarOpt estimation stays unbiased: the threshold merge
/// re-enters small items at their adjusted weight, so the merged sample's
/// Horvitz–Thompson subset-sum over the *union* stream is unbiased even
/// though eviction randomness differs per shard.
#[test]
fn varopt_merge_total_estimate_is_unbiased() {
    let recs = records(250);
    let truth: f64 = recs.iter().map(|&(_, v)| v).sum();
    let shards = 4;
    let scheme = VarOptScheme::new(40);
    let reps = 600u64;
    let mut sum = 0.0;
    for salt in 0..reps {
        let seeds = SeedAssignment::independent_known(salt);
        let mut pool: Vec<_> = (0..shards)
            .map(|s| scheme.sketch_for_shard(&seeds, 0, s as u64))
            .collect();
        for &(k, v) in &recs {
            pool[shard_of(k, shards)].ingest(k, v);
        }
        merge_tree(&mut pool);
        sum += pool[0].finalize().ht_subset_sum(|_| true);
    }
    let mean = sum / reps as f64;
    let rel_err = (mean - truth).abs() / truth;
    assert!(
        rel_err < 0.05,
        "relative bias {rel_err} (mean {mean}, truth {truth})"
    );
}

/// Acceptance check: pipeline reports are bit-identical at every shard
/// count, for both outcome regimes.
#[test]
fn pipeline_reports_are_bit_identical_across_shard_counts() {
    let data = Arc::new(generate_two_hours(&TrafficConfig::small(9)));
    let pps = |shards| {
        Pipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::pps(120.0))
            .shards(shards)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(20)
            .base_salt(5)
            .run()
            .unwrap()
    };
    let reference = pps(1);
    for shards in [4, 6] {
        assert_eq!(pps(shards), reference, "pps regime, {shards} shards");
    }

    let small = Arc::new(partial_info_estimators::datagen::generate_set_pair(
        &partial_info_estimators::datagen::SetPairConfig::new(300, 0.5),
    ));
    let oblivious = |shards| {
        Pipeline::new()
            .dataset(Arc::clone(&small))
            .scheme(Scheme::oblivious(0.4))
            .shards(shards)
            .estimators(or_oblivious_suite(0.4, 0.4))
            .statistic(Statistic::distinct_count())
            .trials(50)
            .run()
            .unwrap()
    };
    assert_eq!(oblivious(4), oblivious(1), "oblivious regime, 4 shards");
}

/// Interleaving ingestion with merges (partial merges of a long stream)
/// also reproduces the single-stream sample: merge is associative over
/// stream prefixes for hash-seeded schemes.
#[test]
fn incremental_merge_of_stream_segments_is_exact() {
    let recs = records(500);
    let seeds = SeedAssignment::independent_known(77);
    let scheme = BottomKSampler::new(ExpRanks, 25);
    let mut single = scheme.sketch(&seeds, 0);
    for &(k, v) in &recs {
        single.ingest(k, v);
    }
    // Segment the stream (a time partition is fine for merge: the contract
    // only requires each *key* to stay within one logical shard, and the
    // segments are disjoint in keys because `records` emits unique keys).
    let mut acc = scheme.sketch(&seeds, 0);
    for segment in recs.chunks(123) {
        let mut part = scheme.sketch(&seeds, 0);
        for &(k, v) in segment {
            part.ingest(k, v);
        }
        acc.merge(&mut part);
    }
    assert_eq!(acc.finalize(), single.finalize());
}
