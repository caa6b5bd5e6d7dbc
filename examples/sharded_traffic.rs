//! Shard-count scaling of streaming ingest on the traffic workload.
//!
//! Replays one hour of the synthetic destination-IP → flow-count stream
//! through the streaming sampling API at increasing shard counts, timing the
//! ingest → merge → finalize pass, and contrasts it with the legacy batch
//! path (materialize an `Instance` from the stream, then `sample()` it).
//! It then runs the same estimation suite through [`Pipeline`] at each
//! shard count to demonstrate the core guarantee: **sharding changes the
//! wall clock, never the estimates** — hash-seeded sketches merge to the
//! bit-identical sample the single stream would produce.
//!
//! Run with:
//! ```text
//! cargo run --release --example sharded_traffic
//! ```

use std::sync::Arc;
use std::time::Instant;

use partial_info_estimators::core::suite::max_weighted_suite;
use partial_info_estimators::datagen::{generate_two_hours, ShardedStream, TrafficConfig};
use partial_info_estimators::sampling::{Instance, PpsPoissonSampler, SeedAssignment};
use partial_info_estimators::{ingest_merge_finalize, sketch_pools, Pipeline, Scheme, Statistic};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut config = TrafficConfig::paper_scale();
    config.keys_per_hour = 50_000;
    config.flows_per_hour = 1.1e6;
    let data = Arc::new(generate_two_hours(&config));
    let tau_star = 60.0;
    let sampler = PpsPoissonSampler::new(tau_star);
    let seeds = SeedAssignment::independent_known(7);

    let total_records: usize = data.instances().iter().map(Instance::len).sum();
    println!("two hours of traffic: {total_records} records, τ* = {tau_star}\n");

    // Legacy batch baseline: each hour's stream must first be materialized
    // into an Instance before sample() can run.
    let stream1 = ShardedStream::from_dataset(&data, 1);
    let start = Instant::now();
    let batch_samples: Vec<_> = (0..stream1.num_instances())
        .map(|i| {
            let instance = Instance::from_pairs(stream1.part(i, 0).iter().copied());
            sampler.sample(&instance, &seeds, i as u64)
        })
        .collect();
    let batch_ms = start.elapsed().as_secs_f64() * 1e3;
    println!("legacy batch (materialize + sample) : {batch_ms:8.2} ms");

    // Streaming ingest at increasing shard counts, through the exact pass
    // the Pipeline trial loop runs (one thread per shard, merge tree).
    for shards in SHARD_COUNTS {
        let stream = ShardedStream::from_dataset(&data, shards);
        let mut pools = sketch_pools(&sampler, &stream, &seeds);
        let start = Instant::now();
        let samples = ingest_merge_finalize(&stream, &mut pools, &seeds);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let identical = samples == batch_samples;
        println!(
            "streaming ingest, {shards} shard(s)        : {ms:8.2} ms   \
             samples == batch: {identical}"
        );
        assert!(identical, "sharded merge must be bit-identical");
    }

    // End to end: the estimates are invariant in the shard count *and* in
    // the trial-worker thread count (shards parallelize one trial's ingest;
    // threads parallelize across trials — both are execution choices).
    println!("\nestimates per (shard, trial-thread) count (must all be identical):");
    let mut last: Option<(usize, usize, f64)> = None;
    for shards in SHARD_COUNTS {
        for threads in [1, 4] {
            let report = Pipeline::new()
                .dataset(Arc::clone(&data))
                .scheme(Scheme::pps(tau_star))
                .shards(shards)
                .threads(threads)
                .estimators(max_weighted_suite())
                .statistic(Statistic::max_dominance())
                .trials(10)
                .base_salt(1)
                .run()
                .expect("pipeline is fully configured");
            let l = report.get("max_l_pps_2").expect("L in suite");
            println!(
                "  {shards} shard(s) x {threads} thread(s): mean L estimate = {:.4}",
                l.mean
            );
            if let Some((prev_shards, prev_threads, prev_mean)) = last {
                assert_eq!(
                    prev_mean.to_bits(),
                    l.mean.to_bits(),
                    "estimates diverged between {prev_shards}x{prev_threads} and \
                     {shards} shards x {threads} threads"
                );
            }
            last = Some((shards, threads, l.mean));
        }
    }
    println!("\nsharding and threading are execution strategies, not statistical choices.");
}
