//! Per-layer probes for the traced run.  Each probe times calls into one
//! layer's public functions from outside, on the workload's own inputs:
//!
//! * `pie-sampling`, `pie-sampling::lanes`, `pie-core` and `pie-analysis`:
//!   the per-trial calls `Pipeline::run` makes, composed here under spans,
//!   next to the sketch-ingest path (`Sketch::ingest` + `merge_finalize`)
//!   on the same trial;
//! * the root `catalog`: `estimate_named_observed` with stage totals;
//! * `pie-store`: the `CatalogEntry` snapshot codec;
//! * `pie-serve::wire`: frame encode and decode on captured messages;
//! * `pie-engine`: cache probes and admission.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use partial_info_estimators::{
    merge_finalize, sketch_pools, CatalogEntry, Pipeline, PipelineObserver, Scheme, StageNanos,
    Statistic,
};
use pie_analysis::RunningStats;
use pie_core::suite::{max_weighted_suite, oblivious_suite_by_name};
use pie_core::EstimatorRegistry;
use pie_datagen::{Dataset, ShardedStream};
use pie_engine::{CacheKey, EngineConfig, EstimateCache, QueryEngine};
use pie_sampling::{
    sample_all, sample_all_with_universe, sampled_key_union, InstanceSample, LaneOutcome,
    ObliviousLanes, ObliviousPoissonSampler, PpsPoissonSampler, SeedAssignment, Sketch,
    WeightedLanes,
};
use pie_serve::wire::{read_request, read_response, write_message};
use pie_serve::{BatchQuery, IngestRecord, Request, Response, SketchConfig};

use crate::fixtures::Served;
use crate::stats::{median, residual_pct};
use crate::trace::Recorder;

/// Named per-layer values.
pub type Layers = BTreeMap<String, f64>;

/// Work counts gathered while replaying trials under spans.
#[derive(Default)]
struct Counts {
    trials: u64,
    pps_trials: u64,
    records_sampled: u64,
    records_ingested: u64,
    sampled_entries: u64,
    union_keys: u64,
    lane_keys: u64,
    estimator_keys: BTreeMap<String, u64>,
}

/// One estimator suite with the span name of each of its estimators.
struct Suite<O> {
    registry: EstimatorRegistry<O>,
    spans: Vec<String>,
}

impl<O> Suite<O> {
    fn new(registry: EstimatorRegistry<O>) -> Self {
        let spans = registry.names().map(|n| format!("core.{n}")).collect();
        Self { registry, spans }
    }
}

/// Runs every estimator of every suite over one trial's lanes and
/// accumulates each estimator's aggregate — the estimator-batch half of a
/// `Pipeline` trial.
fn estimate_all<O: LaneOutcome>(
    rec: &mut Recorder,
    suites: &[Suite<O>],
    lanes: &O::Lanes,
    out: &mut [f64],
    stats: &mut [RunningStats],
    counts: &mut Counts,
) {
    let mut lane = 0;
    for suite in suites {
        for ((name, estimator), span) in suite.registry.iter().zip(&suite.spans) {
            rec.span(span, || estimator.estimate_lanes(lanes, out));
            *counts.estimator_keys.entry(name.to_string()).or_insert(0) += out.len() as u64;
            let s = &mut stats[lane];
            rec.span("analysis.accumulate", || s.push(out.iter().sum()));
            lane += 1;
        }
    }
}

/// The trial engine's final reduction: per-chunk accumulators merged into
/// one per estimator.
fn merge_stats(rec: &mut Recorder, stats: &[RunningStats]) {
    rec.span("analysis.accumulate", || {
        let mut total = vec![RunningStats::new(); stats.len()];
        for (t, s) in total.iter_mut().zip(stats) {
            t.merge(s);
        }
        black_box(total)
    });
}

/// One trial of the sketch-ingest path: resets the pooled sketches to the
/// trial's seeds, ingests every record, merges and finalizes.
fn ingest_path<K: Sketch>(
    rec: &mut Recorder,
    stream: &ShardedStream,
    pools: &mut [Vec<K>],
    seeds: &SeedAssignment,
) -> Vec<InstanceSample> {
    rec.span("sampling.ingest", || {
        for (j, sketch) in pools[0].iter_mut().enumerate() {
            sketch.reset(seeds, j as u64);
            for &(key, value) in stream.part(j, 0) {
                sketch.ingest(key, value);
            }
        }
    });
    rec.span("sampling.merge_finalize", || merge_finalize(pools))
}

/// FNV-1a over the snapshot encoding of one trial's samples: equal digests
/// mean bit-identical samples, up to a 64-bit collision.
fn digest(samples: &[InstanceSample]) -> u64 {
    let bytes = pie_store::encode_to_vec(samples).expect("samples encode");
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Replays `trials` trials of the max-weighted PPS pipeline under spans on
/// `rec`, the way `Pipeline::run` does per trial; then, in a second pass so
/// neither pass evicts the other's working set, the sketch-ingest path on
/// the same trials under spans on `ingest_rec`.  Returns how many trials'
/// ingest-path samples differed from the batch sampler's.
fn replay_pps(
    rec: &mut Recorder,
    ingest_rec: &mut Recorder,
    dataset: &Dataset,
    tau_star: f64,
    base_salt: u64,
    trials: u64,
    counts: &mut Counts,
) -> u64 {
    let suites = [Suite::new(max_weighted_suite())];
    let sampler = PpsPoissonSampler::new(tau_star);
    let records: u64 = dataset.instances().iter().map(|i| i.len() as u64).sum();
    let seeds = |t: u64| SeedAssignment::independent_known(base_salt.wrapping_add(t));
    let mut lanes = WeightedLanes::new();
    let mut out = Vec::new();
    let mut stats = vec![RunningStats::new(); suites[0].registry.len()];
    // Each trial's samples are kept as their encoded digest: holding every
    // trial's samples would grow the working set the timed trials run in.
    let mut digests = Vec::with_capacity(trials as usize);
    for t in 0..trials {
        let seeds = seeds(t);
        let samples = rec.scope("trial", |rec| {
            let samples = rec.span("sampling.sample_all", || {
                sample_all(&sampler, dataset.instances(), &seeds)
            });
            let keys = rec.span("lanes.key_union", || sampled_key_union(&samples));
            rec.span("lanes.fill", || {
                lanes.fill_pps(&keys, &samples, &seeds, tau_star)
            });
            out.resize(keys.len(), 0.0);
            estimate_all(rec, &suites, &lanes, &mut out, &mut stats, counts);
            counts.union_keys += keys.len() as u64;
            counts.lane_keys += keys.len() as u64;
            samples
        });
        counts.sampled_entries += samples.iter().map(|s| s.len() as u64).sum::<u64>();
        counts.records_sampled += records;
        counts.trials += 1;
        counts.pps_trials += 1;
        digests.push(digest(&samples));
    }
    merge_stats(rec, &stats);

    let stream = ShardedStream::from_dataset(dataset, 1);
    let mut pools = sketch_pools(&sampler, &stream, &seeds(0));
    let mut mismatches = 0;
    for (t, expected) in (0..trials).zip(&digests) {
        if digest(&ingest_path(ingest_rec, &stream, &mut pools, &seeds(t))) != *expected {
            mismatches += 1;
        }
        counts.records_ingested += stream.num_records() as u64;
    }
    mismatches
}

/// Replays an oblivious sketch's trials under the lane and estimator spans,
/// as the catalog replays them (over the key universe).  Its samples are
/// drawn outside any span: a served sketch's sampling is build-time work.
fn replay_oblivious(rec: &mut Recorder, served: &Served, p: f64, counts: &mut Counts) {
    let r = served.dataset.num_instances();
    let suites: Vec<_> = served
        .suites()
        .iter()
        .map(|n| Suite::new(oblivious_suite_by_name(n, r, p).expect("served suites resolve")))
        .collect();
    let lanes_total: usize = suites.iter().map(|s| s.registry.len()).sum();
    let sampler = ObliviousPoissonSampler::new(p);
    let universe = served.dataset.keys();
    let mut lanes = ObliviousLanes::new();
    let mut out = vec![0.0; universe.len()];
    let mut stats = vec![RunningStats::new(); lanes_total];
    for t in 0..served.trials {
        let seeds = SeedAssignment::independent_known(served.base_salt.wrapping_add(t));
        let samples =
            sample_all_with_universe(&sampler, served.dataset.instances(), &universe, &seeds);
        rec.scope("trial", |rec| {
            rec.span("lanes.fill", || {
                lanes.fill_from_samples(&universe, &samples)
            });
            estimate_all(rec, &suites, &lanes, &mut out, &mut stats, counts);
        });
        counts.lane_keys += universe.len() as u64;
        counts.trials += 1;
    }
    merge_stats(rec, &stats);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the evaluation-layer probe measured.
pub struct EvalProbe {
    pub layers: Layers,
    /// Traced composition vs untraced `Pipeline::run`, per trial (%).
    pub overhead_pct: f64,
    /// Trials whose sketch-ingest samples differed from `sample_all`'s.
    pub ingest_mismatches: u64,
    /// The recorders, by what they traced.
    pub recorders: Vec<(&'static str, Recorder)>,
}

/// The sampling, lane, kernel and accumulation layers, on a PPS traffic
/// pair and on the oblivious set-pair sketch.
///
/// The untraced reference is `Pipeline::run` on one thread over the same
/// `trials` traffic trials (median of `rounds` calls); after each call the
/// traced composition replays them under spans.  `eval.unattributed_pct` is the
/// share of the untraced wall time per trial that the traced layers do not
/// cover.
pub fn eval_layers(
    traffic: &Arc<Dataset>,
    tau_star: f64,
    base_salt: u64,
    trials: u64,
    rounds: usize,
    sets: &Served,
) -> EvalProbe {
    // Untraced calls and traced replays of the same trials alternate, so a
    // change in host load reaches both sides alike.
    let mut walls = Vec::new();
    let mut pipeline_rec = Recorder::new();
    let mut ingest_rec = Recorder::new();
    let mut counts = Counts::default();
    let mut mismatches = 0;
    for _ in 0..rounds.max(1) {
        let started = Instant::now();
        let report = Pipeline::new()
            .dataset(Arc::clone(traffic))
            .scheme(Scheme::pps(tau_star))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(trials)
            .base_salt(base_salt)
            .threads(1)
            .run()
            .expect("the evaluation pipeline is fully configured");
        black_box(report);
        walls.push(started.elapsed().as_nanos() as f64);
        mismatches += replay_pps(
            &mut pipeline_rec,
            &mut ingest_rec,
            traffic,
            tau_star,
            base_salt,
            trials,
            &mut counts,
        );
    }
    let untraced_per_trial = median(&walls) / trials as f64;
    let traced_trials = counts.trials as f64;
    let pipeline_self = pipeline_rec.self_times();
    let traced_per_trial = pipeline_self.values().sum::<u64>() as f64 / traced_trials;
    // The layers are every span but the trial roots' own glue.
    let layers_per_trial = pipeline_self
        .iter()
        .filter(|(name, _)| name.as_str() != "trial")
        .map(|(_, &ns)| ns as f64)
        .sum::<f64>()
        / traced_trials;

    let mut sets_rec = Recorder::new();
    if let Scheme::ObliviousPoisson { p } = sets.scheme {
        replay_oblivious(&mut sets_rec, sets, p, &mut counts);
    }
    let mut self_ns = pipeline_self;
    for rec in [&ingest_rec, &sets_rec] {
        for (name, ns) in rec.self_times() {
            *self_ns.entry(name).or_insert(0) += ns;
        }
    }
    let t = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let pps_trials = counts.pps_trials as f64;
    let all_trials = counts.trials as f64;
    let mut layers = Layers::new();
    let mut put = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    put(
        "sampling.sample_all_ns_per_record",
        ratio(t("sampling.sample_all"), counts.records_sampled as f64),
    );
    put(
        "sampling.ingest_ns_per_record",
        ratio(t("sampling.ingest"), counts.records_ingested as f64),
    );
    put(
        "sampling.merge_finalize_us_per_trial",
        ratio(t("sampling.merge_finalize") / 1e3, pps_trials),
    );
    put(
        "sampling.sampled_keys_per_trial",
        ratio(counts.sampled_entries as f64, pps_trials),
    );
    put(
        "lanes.key_union_ns_per_key",
        ratio(t("lanes.key_union"), counts.union_keys as f64),
    );
    put(
        "lanes.fill_ns_per_key",
        ratio(t("lanes.fill"), counts.lane_keys as f64),
    );
    put(
        "lanes.keys_per_trial",
        ratio(counts.lane_keys as f64, all_trials),
    );
    for (name, keys) in &counts.estimator_keys {
        put(
            &format!("core.{name}.ns_per_key"),
            ratio(t(&format!("core.{name}")), *keys as f64),
        );
    }
    put(
        "analysis.accumulate_us_per_trial",
        ratio(t("analysis.accumulate") / 1e3, all_trials),
    );
    put(
        "eval.unattributed_pct",
        residual_pct(untraced_per_trial, layers_per_trial),
    );
    put("eval.untraced_trial_us", untraced_per_trial / 1e3);
    put("eval.traced_layers_us", layers_per_trial / 1e3);
    EvalProbe {
        layers,
        overhead_pct: 100.0 * (traced_per_trial - untraced_per_trial) / untraced_per_trial,
        ingest_mismatches: mismatches,
        recorders: vec![
            ("pipeline", pipeline_rec),
            ("ingest", ingest_rec),
            ("sets", sets_rec),
        ],
    }
}

/// The catalog, store, wire and engine layers over the served entries.
///
/// Returns the layers and whether every snapshot round trip reproduced its
/// entry exactly.
pub fn service_layers(served: &[&Served], reps: usize) -> (Layers, bool) {
    let reps = reps.max(1);
    let mut layers = Layers::new();

    // Catalog: one observed estimate per accepted pair per rep.
    let (mut calls, mut wall, mut replay, mut batch) = (0.0, 0.0, 0.0, 0.0);
    let mut reports = Vec::new();
    for s in served {
        for &(suite, stat) in &s.pairs {
            for rep in 0..reps {
                let stages = Arc::new(StageNanos::new());
                let started = Instant::now();
                let report = s
                    .entry
                    .estimate_named_observed(
                        suite,
                        stat,
                        Some(1),
                        PipelineObserver::stages(&stages),
                    )
                    .expect("accepted pairs estimate");
                wall += started.elapsed().as_nanos() as f64;
                replay += stages.trial_replay_nanos() as f64;
                batch += stages.estimator_batch_nanos() as f64;
                calls += 1.0;
                if rep == 0 {
                    reports.push((s.name.clone(), suite, stat, report));
                }
            }
        }
    }
    layers.insert("catalog.estimate_ms".into(), wall / calls / 1e6);
    layers.insert("catalog.trial_replay_ms".into(), replay / calls / 1e6);
    layers.insert("catalog.estimator_batch_ms".into(), batch / calls / 1e6);

    // Store: the snapshot codec over each entry.
    let (mut entry_bytes, mut coded_bytes, mut enc_ns, mut dec_ns) = (0.0, 0.0, 0.0, 0.0);
    let mut round_trips_exact = true;
    for s in served {
        for rep in 0..reps {
            let started = Instant::now();
            let encoded = pie_store::encode_to_vec(&s.entry).expect("entries encode");
            enc_ns += started.elapsed().as_nanos() as f64;
            let started = Instant::now();
            let decoded: CatalogEntry =
                pie_store::decode_from_slice(&encoded).expect("entries decode");
            dec_ns += started.elapsed().as_nanos() as f64;
            round_trips_exact &= decoded == s.entry;
            coded_bytes += encoded.len() as f64;
            if rep == 0 {
                entry_bytes += encoded.len() as f64;
            }
        }
    }
    layers.insert("catalog.entry_bytes".into(), entry_bytes);
    layers.insert("store.encode_mb_per_s".into(), coded_bytes / enc_ns * 1e3);
    layers.insert("store.decode_mb_per_s".into(), coded_bytes / dec_ns * 1e3);

    // Wire: the frames a serving session exchanges.
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for s in served {
        requests.push(Request::BatchEstimate {
            sketch: s.name.clone(),
            queries: s
                .pairs
                .iter()
                .map(|&(suite, stat)| BatchQuery {
                    estimator: suite.to_string(),
                    statistic: stat.to_string(),
                })
                .collect(),
        });
        responses.push(Response::BatchEstimated(
            reports
                .iter()
                .filter(|(name, ..)| *name == s.name)
                .map(|(.., report)| report.clone())
                .collect(),
        ));
    }
    for (name, suite, stat, report) in &reports {
        requests.push(Request::Estimate {
            sketch: name.clone(),
            estimator: (*suite).to_string(),
            statistic: (*stat).to_string(),
        });
        responses.push(Response::Estimated(report.clone()));
    }
    requests.push(Request::IngestBatch {
        sketch: "fresh".into(),
        config: SketchConfig {
            scheme: Scheme::pps(1.0),
            shards: 1,
            trials: 16,
            base_salt: 0,
        },
        records: (0..1024)
            .map(|k| IngestRecord {
                instance: k % 2,
                key: k,
                value: 1.0 + k as f64,
            })
            .collect(),
        last: false,
    });
    responses.push(Response::Ingested {
        sketch: "fresh".into(),
        buffered_records: 1024,
        ready: false,
    });
    let mut frame = Vec::new();
    let (mut enc, mut dec, mut frames) = (0.0, 0.0, 0.0);
    for _ in 0..reps * 20 {
        for request in &requests {
            frame.clear();
            let started = Instant::now();
            write_message(&mut frame, request).expect("requests encode");
            enc += started.elapsed().as_nanos() as f64;
            let started = Instant::now();
            black_box(read_request(&mut frame.as_slice()).expect("requests decode"));
            dec += started.elapsed().as_nanos() as f64;
            frames += 1.0;
        }
        for response in &responses {
            frame.clear();
            let started = Instant::now();
            write_message(&mut frame, response).expect("responses encode");
            enc += started.elapsed().as_nanos() as f64;
            let started = Instant::now();
            black_box(read_response(&mut frame.as_slice()).expect("responses decode"));
            dec += started.elapsed().as_nanos() as f64;
            frames += 1.0;
        }
    }
    layers.insert("wire.encode_ns".into(), enc / frames);
    layers.insert("wire.decode_ns".into(), dec / frames);

    // Engine: cache probes over the served keys (all hits) and admission.
    let cache = EstimateCache::new(EngineConfig::default().cache_capacity);
    let keys: Vec<CacheKey> = reports
        .iter()
        .map(|(name, suite, stat, report)| {
            let key = CacheKey {
                sketch: name.clone(),
                estimator: (*suite).to_string(),
                statistic: (*stat).to_string(),
                // Any fixed value: the probe times lookups, not invalidation.
                fingerprint: 7,
            };
            cache.insert(key.clone(), Arc::new(report.clone()));
            key
        })
        .collect();
    let probes = 20_000;
    let started = Instant::now();
    for i in 0..probes {
        black_box(cache.get(&keys[i % keys.len()]));
    }
    layers.insert(
        "engine.cache_probe_ns".into(),
        started.elapsed().as_nanos() as f64 / probes as f64,
    );
    let engine = QueryEngine::new(EngineConfig::default());
    let started = Instant::now();
    for _ in 0..probes {
        black_box(engine.admit_query(pie_serve::DEFAULT_TENANT, 1).is_ok());
    }
    layers.insert(
        "engine.admit_ns".into(),
        started.elapsed().as_nanos() as f64 / probes as f64,
    );
    (layers, round_trips_exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::tau_star_for_fraction;
    use pie_datagen::{generate_set_pair, generate_two_hours, SetPairConfig, TrafficConfig};

    #[test]
    fn composed_trials_cover_every_layer_and_match_the_ingest_path() {
        let dataset = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let tau = tau_star_for_fraction(&dataset, 0.2);
        let sets = Served::build(
            "sets",
            Arc::new(generate_set_pair(&SetPairConfig::new(200, 0.5))),
            Scheme::oblivious(0.3),
            3,
            5,
        );
        let probe = eval_layers(&dataset, tau, 11, 4, 1, &sets);
        assert_eq!(probe.ingest_mismatches, 0);
        let names: Vec<&str> = probe
            .recorders
            .iter()
            .flat_map(|(_, rec)| rec.spans().iter().map(|s| s.name.as_str()))
            .collect();
        for expected in [
            "trial",
            "sampling.sample_all",
            "sampling.ingest",
            "sampling.merge_finalize",
            "lanes.key_union",
            "lanes.fill",
            "analysis.accumulate",
            "core.max_l_pps_2",
            "core.or_u_2",
        ] {
            assert!(names.contains(&expected), "{expected}");
        }
        for (name, value) in &probe.layers {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        let (service, exact) = service_layers(&[&sets], 1);
        assert!(exact);
        assert!(service["catalog.entry_bytes"] > 0.0);
        assert!(service["wire.decode_ns"] > 0.0);
    }
}
