//! Sharded sketch ingest: record stream → N shard sketches → merge tree →
//! finalized per-instance samples.
//!
//! This is the one sampling path of [`Pipeline`]: each trial replays every
//! instance's record stream through per-shard [`Sketch`]es, combines them
//! with a binary merge tree, and finalizes the per-instance samples the
//! estimation stage consumes.  For the hash-seeded schemes the samples are
//! **bit-identical** to single-stream sampling on the same seeds, whatever
//! the shard count — sharding is an execution strategy, not a statistical
//! choice.
//!
//! Sketches are pooled per `(instance, shard)` and reset between
//! Monte-Carlo trials, so the steady-state ingest loop performs no
//! per-record heap allocation.
//!
//! ```
//! use partial_info_estimators::{Pipeline, Scheme, Statistic};
//! use partial_info_estimators::core::suite::max_weighted_suite;
//! use partial_info_estimators::datagen::{generate_two_hours, TrafficConfig};
//! use std::sync::Arc;
//!
//! let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
//! let run = |shards| {
//!     Pipeline::new()
//!         .dataset(Arc::clone(&data))
//!         .scheme(Scheme::pps(200.0))
//!         .shards(shards)
//!         .estimators(max_weighted_suite())
//!         .statistic(Statistic::max_dominance())
//!         .trials(10)
//!         .run()
//!         .unwrap()
//! };
//! assert_eq!(run(4), run(1), "sharding must not change the estimates");
//! ```

use pie_datagen::ShardedStream;
use pie_sampling::{
    InstanceSample, Key, ObliviousPoissonSampler, ObliviousPoissonSketch, PpsPoissonSampler,
    PpsPoissonSketch, SamplingScheme, SeedAssignment, Sketch,
};

use crate::pipeline::{Pipeline, Scheme};

/// Former name of [`Pipeline`], which now samples every trial through
/// sharded sketch ingest; kept so existing callers still compile.
pub type StreamPipeline = Pipeline;

/// The pooled sketches of one of the pipeline's [`Scheme`]s, laid out
/// `[shard][instance]` as [`sketch_pools`] builds them.
pub(crate) enum SchemePools {
    /// Weight-oblivious Poisson sketches.
    Oblivious(Vec<Vec<ObliviousPoissonSketch>>),
    /// Weighted PPS Poisson sketches.
    Pps(Vec<Vec<PpsPoissonSketch>>),
}

impl SchemePools {
    /// Opens the pools for `scheme` over `stream`; `seeds` only shapes the
    /// initial sketches, since every pass resets them to its own seeds.
    pub(crate) fn new(scheme: Scheme, stream: &ShardedStream, seeds: &SeedAssignment) -> Self {
        match scheme {
            Scheme::ObliviousPoisson { p } => Self::Oblivious(sketch_pools(
                &ObliviousPoissonSampler::new(p),
                stream,
                seeds,
            )),
            Scheme::PpsPoisson { tau_star } => Self::Pps(sketch_pools(
                &PpsPoissonSampler::new(tau_star),
                stream,
                seeds,
            )),
        }
    }

    /// One sampling pass: [`ingest_merge_finalize`] over these pools.
    pub(crate) fn ingest_merge_finalize(
        &mut self,
        stream: &ShardedStream,
        seeds: &SeedAssignment,
    ) -> Vec<InstanceSample> {
        match self {
            Self::Oblivious(pools) => ingest_merge_finalize(stream, pools, seeds),
            Self::Pps(pools) => ingest_merge_finalize(stream, pools, seeds),
        }
    }
}

/// Allocates the pooled sketches for one [`ShardedStream`], laid out
/// `pools[shard][instance]` — the shape [`ingest_merge_finalize`] consumes,
/// chosen so each shard's ingest thread owns one contiguous column.
pub fn sketch_pools<S: SamplingScheme>(
    scheme: &S,
    stream: &ShardedStream,
    seeds: &SeedAssignment,
) -> Vec<Vec<S::Sketch>> {
    (0..stream.shards())
        .map(|s| {
            (0..stream.num_instances())
                .map(|i| scheme.sketch_for_shard(seeds, i as u64, s as u64))
                .collect()
        })
        .collect()
}

/// Cached hardware-parallelism probe for [`ingest_merge_finalize`]'s
/// strategy choice: querying it per trial in the hot loop would be a
/// syscall per pass.
fn multi_core() -> bool {
    use std::sync::OnceLock;
    static MULTI_CORE: OnceLock<bool> = OnceLock::new();
    *MULTI_CORE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// One sharded sampling pass over a record stream: resets the pooled
/// sketches (layout `pools[shard][instance]`, from [`sketch_pools`]) to this
/// randomization, ingests every shard's parts (one thread per shard on a
/// multi-core host, else all on the calling thread), merges the shard
/// sketches per instance via [`Sketch::merge_many`], and finalizes into one
/// [`InstanceSample`] per instance.
///
/// This is the single implementation of the sketch lifecycle choreography:
/// the [`Pipeline`] trial loop and
/// [`CatalogEntry::build`](crate::CatalogEntry::build) call it once per
/// trial, and the `stream_ingest_throughput` bench and `sharded_traffic`
/// example call it directly, so all of them exercise the same code path.
/// The sketches are drained but keep their allocations, so repeated passes
/// perform no per-record heap allocation.
///
/// # Panics
/// Panics if `pools` does not match the stream's `[shard][instance]` shape.
pub fn ingest_merge_finalize<K: Sketch>(
    stream: &ShardedStream,
    pools: &mut [Vec<K>],
    seeds: &SeedAssignment,
) -> Vec<InstanceSample> {
    let threaded = stream.shards() > 1 && multi_core();
    ingest_merge_finalize_with(stream, pools, seeds, threaded)
}

/// [`ingest_merge_finalize`] with its execution strategy pinned.  The
/// finalized samples are identical either way — strategy is an execution
/// choice, never a statistical one — so only this module's tests pin it
/// (e.g. to exercise the threaded path on a single-core host).
///
/// `threaded` runs one OS thread per shard, each covering all instances.
/// Otherwise all shards ingest on the calling thread via
/// [`Sketch::ingest_group`], which lets set-determined schemes (bottom-k)
/// share one bounded retention structure across the whole group instead of
/// paying per-shard retention that grows with the shard count.
///
/// # Panics
/// Panics if `pools` does not match the stream's `[shard][instance]` shape.
fn ingest_merge_finalize_with<K: Sketch>(
    stream: &ShardedStream,
    pools: &mut [Vec<K>],
    seeds: &SeedAssignment,
    threaded: bool,
) -> Vec<InstanceSample> {
    let shards = stream.shards();
    let instances = stream.num_instances();
    assert!(
        pools.len() == shards && pools.iter().all(|column| column.len() == instances),
        "sketch pools must be [shard][instance]-shaped for this stream"
    );
    if threaded {
        let ingest_column = |s: usize, column: &mut Vec<K>| {
            for (i, sketch) in column.iter_mut().enumerate() {
                sketch.reset(seeds, i as u64);
                for &(key, value) in stream.part(i, s) {
                    sketch.ingest(key, value);
                }
            }
        };
        std::thread::scope(|scope| {
            for (s, column) in pools.iter_mut().enumerate() {
                scope.spawn(move || ingest_column(s, column));
            }
        });
    } else {
        // Single-worker pass: hand each instance's whole shard group to the
        // scheme at once so set-determined sketches can pool retention work.
        let mut columns: Vec<std::slice::IterMut<'_, K>> =
            pools.iter_mut().map(|column| column.iter_mut()).collect();
        let mut group: Vec<&mut K> = Vec::with_capacity(shards);
        let mut parts: Vec<&[(Key, f64)]> = Vec::with_capacity(shards);
        for i in 0..instances {
            group.clear();
            group.extend(
                columns
                    .iter_mut()
                    .map(|column| column.next().expect("pool column length checked above")),
            );
            parts.clear();
            parts.extend((0..shards).map(|s| stream.part(i, s)));
            K::ingest_group(&mut group, &parts, seeds, i as u64);
        }
    }
    merge_finalize(pools)
}

/// The merge + finalize tail of one sharded sampling pass: combines the
/// `pools[shard][instance]` sketches per instance via
/// [`Sketch::merge_many`] — a balanced binary merge tree by default, a
/// single k-bounded selection for bottom-k — and finalizes one
/// [`InstanceSample`] per instance, draining every sketch.
///
/// Factored out of [`ingest_merge_finalize`] so sketches restored from
/// snapshot files — a resumed checkpoint, or shard snapshots written by
/// other processes — flow through the *same* merge path as live in-process
/// ingestion, which is what keeps cross-process reports bit-identical.
pub fn merge_finalize<K: Sketch>(pools: &mut [Vec<K>]) -> Vec<InstanceSample> {
    let shards = pools.len();
    if shards > 1 {
        let instances = pools.first().map_or(0, Vec::len);
        let mut columns: Vec<std::slice::IterMut<'_, K>> =
            pools.iter_mut().map(|column| column.iter_mut()).collect();
        let mut group: Vec<&mut K> = Vec::with_capacity(shards);
        for _ in 0..instances {
            group.clear();
            group.extend(
                columns
                    .iter_mut()
                    .map(|column| column.next().expect("pool columns share a length")),
            );
            K::merge_many(&mut group);
        }
    }
    pools[0].iter_mut().map(Sketch::finalize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_oblivious_multi_with, run_pps_multi_with, PipelineError, TrialPlan};
    use crate::Statistic;
    use pie_core::suite::{max_oblivious_suite, max_weighted_suite};
    use pie_datagen::{
        generate_set_pair, generate_two_hours, paper_example, Dataset, SetPairConfig, TrafficConfig,
    };
    use pie_sampling::{sample_all, sample_all_with_universe};
    use std::sync::Arc;

    #[test]
    fn stream_pipeline_requires_every_stage() {
        assert_eq!(
            StreamPipeline::new().run().unwrap_err(),
            PipelineError::MissingDataset
        );
        assert_eq!(
            StreamPipeline::new()
                .dataset(paper_example())
                .run()
                .unwrap_err(),
            PipelineError::MissingScheme
        );
        assert_eq!(
            StreamPipeline::new()
                .dataset(paper_example())
                .scheme(Scheme::oblivious(0.5))
                .run()
                .unwrap_err(),
            PipelineError::MissingEstimators
        );
    }

    #[test]
    fn stream_pipeline_rejects_regime_mismatch_and_bad_parameters() {
        let err = StreamPipeline::new()
            .dataset(paper_example())
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::RegimeMismatch { .. }));
        let err = StreamPipeline::new()
            .dataset(paper_example())
            .scheme(Scheme::pps(-1.0))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidScheme { .. }));
    }

    /// A 40-trial max-dominance pipeline over `data`, salted from 3.
    fn sharded(data: &Arc<Dataset>, scheme: Scheme, shards: usize, threads: usize) -> Pipeline {
        Pipeline::new()
            .dataset(Arc::clone(data))
            .scheme(scheme)
            .shards(shards)
            .threads(threads)
            .statistic(Statistic::max_dominance())
            .trials(40)
            .base_salt(3)
    }

    /// The batch-sampling reference is every trial sampling each instance
    /// with `sample_all` — no sketch pools, shards or merges — and feeding
    /// the samples straight into the estimation core.  The sharded stream
    /// must reproduce it bit for bit at every shard and thread count.
    #[test]
    fn sharded_pps_stream_matches_batch_pipeline_bitwise() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(5)));
        let (weighted, statistic) = (max_weighted_suite(), Statistic::max_dominance());
        let hours = data.instances();
        let batch = run_pps_multi_with(
            &data,
            150.0,
            &[(&weighted, &statistic)],
            &TrialPlan::new(40, 3, Some(1)),
            |_worker| {
                let sampler = PpsPoissonSampler::new(150.0);
                move |_t, seeds: &SeedAssignment| sample_all(&sampler, hours, seeds)
            },
        );
        for shards in [1, 2, 4, 7] {
            for threads in [1, 4] {
                let streamed = sharded(&data, Scheme::pps(150.0), shards, threads)
                    .estimators(max_weighted_suite())
                    .run()
                    .unwrap();
                assert_eq!(
                    [streamed],
                    batch.as_slice(),
                    "{shards} shards, {threads} threads"
                );
            }
        }
    }

    /// As above for the oblivious regime, whose batch reference samples the
    /// whole key universe with `sample_all_with_universe`.  Set pairs leave
    /// keys out of one set, so the universe stream carries zero-valued
    /// records that the oblivious scheme must sample.
    #[test]
    fn sharded_oblivious_stream_matches_batch_pipeline_bitwise() {
        let data = Arc::new(generate_set_pair(&SetPairConfig::new(200, 0.5)));
        let (oblivious, statistic) = (max_oblivious_suite(0.5, 0.5), Statistic::max_dominance());
        let (instances, universe) = (data.instances(), data.keys());
        let universe = universe.as_slice();
        let batch = run_oblivious_multi_with(
            &data,
            &[(&oblivious, &statistic)],
            &TrialPlan::new(40, 3, Some(1)),
            |_worker| {
                let sampler = ObliviousPoissonSampler::new(0.5);
                move |_t, seeds: &SeedAssignment| {
                    sample_all_with_universe(&sampler, instances, universe, seeds)
                }
            },
        );
        for shards in [1, 2, 4, 7] {
            for threads in [1, 4] {
                let streamed = sharded(&data, Scheme::oblivious(0.5), shards, threads)
                    .estimators(max_oblivious_suite(0.5, 0.5))
                    .run()
                    .unwrap();
                assert_eq!(
                    [streamed],
                    batch.as_slice(),
                    "{shards} shards, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn forced_ingest_strategies_are_bit_identical_across_shard_counts() {
        use pie_sampling::{BottomKSampler, PpsRanks};
        let data = generate_two_hours(&TrafficConfig::small(3));
        let seeds = SeedAssignment::independent_known(7);

        fn all_strategies<S: SamplingScheme>(
            scheme: &S,
            stream: &ShardedStream,
            seeds: &SeedAssignment,
        ) -> [Vec<InstanceSample>; 3] {
            // Sequential, threaded, and the automatic choice.
            [Some(false), Some(true), None].map(|threaded| {
                let mut pools = sketch_pools(scheme, stream, seeds);
                match threaded {
                    Some(threaded) => {
                        ingest_merge_finalize_with(stream, &mut pools, seeds, threaded)
                    }
                    None => ingest_merge_finalize(stream, &mut pools, seeds),
                }
            })
        }

        let bottomk = BottomKSampler::new(PpsRanks, 128);
        let pps = PpsPoissonSampler::new(50.0);
        let bottomk_ref =
            all_strategies(&bottomk, &ShardedStream::from_dataset(&data, 1), &seeds)[0].clone();
        let pps_ref =
            all_strategies(&pps, &ShardedStream::from_dataset(&data, 1), &seeds)[0].clone();
        for shards in [1usize, 2, 3, 5, 8] {
            let stream = ShardedStream::from_dataset(&data, shards);
            let [seq, thr, auto] = all_strategies(&bottomk, &stream, &seeds);
            assert_eq!(seq, thr, "bottom-k sequential vs threaded, {shards} shards");
            assert_eq!(seq, auto, "bottom-k sequential vs auto, {shards} shards");
            assert_eq!(
                seq, bottomk_ref,
                "bottom-k vs single stream, {shards} shards"
            );
            let [seq, thr, auto] = all_strategies(&pps, &stream, &seeds);
            assert_eq!(seq, thr, "pps sequential vs threaded, {shards} shards");
            assert_eq!(seq, auto, "pps sequential vs auto, {shards} shards");
            assert_eq!(seq, pps_ref, "pps vs single stream, {shards} shards");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let report = Pipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .shards(0)
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .trials(5)
            .run()
            .unwrap();
        assert_eq!(report.trials, 5);
    }
}
