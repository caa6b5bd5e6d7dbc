//! Multi-instance sampling drivers over the streaming [`SamplingScheme`]
//! API.
//!
//! Dispersed instances are summarized *independently of each other's values*
//! (the constraint of Section 2); what may be shared is the randomization.
//! The drivers here open one [`Sketch`] per instance under a single
//! [`SeedAssignment`], ingest each instance's records, and finalize into the
//! per-instance samples downstream estimation consumes.  They are the
//! single-process, single-shard specialization of the sharded
//! ingest → merge → estimate flow that the umbrella crate's `Pipeline` runs
//! with the same sketches across threads, and serve as its test reference.
//!
//! Records are ingested in ascending key order, so even order-sensitive
//! schemes (VarOpt) are reproducible across processes.

use crate::instance::{Instance, Key};
use crate::outcome::{ObliviousOutcome, WeightedOutcome};
use crate::sample::InstanceSample;
use crate::scheme::{SamplingScheme, Sketch};
use crate::seed::SeedAssignment;

/// Samples every instance with one scheme and one seed assignment, streaming
/// each instance's stored records through a fresh sketch.
///
/// Instance `i` uses instance index `i`; records are the instance's explicit
/// entries (weighted schemes skip non-positive values on ingest).  Returns
/// one [`InstanceSample`] per instance, in order.
#[must_use]
pub fn sample_all<S: SamplingScheme>(
    scheme: &S,
    instances: &[Instance],
    seeds: &SeedAssignment,
) -> Vec<InstanceSample> {
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let mut sketch = scheme.sketch(seeds, i as u64);
            for key in inst.sorted_keys() {
                sketch.ingest(key, inst.value(key));
            }
            sketch.finalize()
        })
        .collect()
}

/// Samples every instance over an explicit key `universe`: each universe key
/// is ingested into every instance's sketch with that instance's value
/// (0 where absent).
///
/// This is the driver for weight-oblivious sampling, where zero-valued keys
/// participate in the Bernoulli trials; for weighted schemes it is
/// equivalent to [`sample_all`] restricted to the universe.
#[must_use]
pub fn sample_all_with_universe<S: SamplingScheme>(
    scheme: &S,
    instances: &[Instance],
    universe: &[Key],
    seeds: &SeedAssignment,
) -> Vec<InstanceSample> {
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let mut sketch = scheme.sketch(seeds, i as u64);
            for &key in universe {
                sketch.ingest(key, inst.value(key));
            }
            sketch.finalize()
        })
        .collect()
}

/// Assembles the weight-oblivious outcome of every key in `keys` from the
/// given per-instance samples.
#[must_use]
pub fn oblivious_outcomes(
    keys: &[Key],
    samples: &[InstanceSample],
) -> Vec<(Key, ObliviousOutcome)> {
    keys.iter()
        .map(|&k| (k, ObliviousOutcome::from_samples(k, samples)))
        .collect()
}

/// Assembles the weighted outcome of every key in `keys` from the given
/// per-instance samples, attaching seeds where visible.
#[must_use]
pub fn weighted_outcomes(
    keys: &[Key],
    samples: &[InstanceSample],
    seeds: &SeedAssignment,
) -> Vec<(Key, WeightedOutcome)> {
    keys.iter()
        .map(|&k| (k, WeightedOutcome::from_samples(k, samples, seeds)))
        .collect()
}

/// The set of keys that appear (i.e. were sampled) in at least one of the
/// samples, sorted ascending — a deterministic order, so downstream outcome
/// batches and reports are reproducible across processes.
///
/// For weighted schemes this is the natural key set over which to evaluate a
/// sum aggregate: keys sampled nowhere necessarily contribute an estimate of
/// zero for any nonnegative estimator (they are consistent with the all-zero
/// vector), so iterating over them would be wasted work.
#[must_use]
pub fn sampled_key_union(samples: &[InstanceSample]) -> Vec<Key> {
    let mut keys: Vec<Key> = samples
        .iter()
        .flat_map(|s| s.iter().map(|(k, _)| k))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::key_union;
    use crate::poisson::{ObliviousPoissonSampler, PpsPoissonSampler};

    fn two_instances() -> Vec<Instance> {
        vec![
            Instance::from_pairs([(1, 10.0), (2, 0.0), (3, 5.0)]),
            Instance::from_pairs([(1, 2.0), (2, 8.0), (4, 1.0)]),
        ]
    }

    #[test]
    fn oblivious_sampling_covers_key_union() {
        let instances = two_instances();
        let seeds = SeedAssignment::independent_known(1);
        let universe = key_union(&instances);
        let samples = sample_all_with_universe(
            &ObliviousPoissonSampler::new(1.0),
            &instances,
            &universe,
            &seeds,
        );
        assert_eq!(samples.len(), 2);
        // With p = 1 every universe key is in every sample, including keys the
        // instance itself does not carry (value 0).
        for s in &samples {
            assert_eq!(s.sorted_keys(), vec![1, 2, 3, 4]);
        }
        assert_eq!(samples[0].value(4), Some(0.0));
        assert_eq!(samples[1].value(3), Some(0.0));
    }

    #[test]
    fn oblivious_sampling_includes_extra_universe_keys() {
        let instances = two_instances();
        let seeds = SeedAssignment::independent_known(1);
        let mut universe = key_union(&instances);
        universe.push(99);
        let samples = sample_all_with_universe(
            &ObliviousPoissonSampler::new(1.0),
            &instances,
            &universe,
            &seeds,
        );
        assert!(samples[0].contains(99));
        assert_eq!(samples[0].value(99), Some(0.0));
    }

    #[test]
    fn pps_sampling_produces_per_instance_samples() {
        let instances = two_instances();
        let seeds = SeedAssignment::independent_known(2);
        let samples = sample_all(&PpsPoissonSampler::new(20.0), &instances, &seeds);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].instance_index, 0);
        assert_eq!(samples[1].instance_index, 1);
        // Zero-valued keys never appear.
        assert!(!samples[0].contains(2));
    }

    #[test]
    fn universe_driver_matches_restricted_sample_all_for_weighted_schemes() {
        // For a weighted scheme the universe driver is sample_all restricted
        // to the universe: zero-valued keys are never selected either way.
        let instances = two_instances();
        let seeds = SeedAssignment::independent_known(7);
        let universe = key_union(&instances);
        let direct = sample_all(&PpsPoissonSampler::new(6.0), &instances, &seeds);
        let via_universe =
            sample_all_with_universe(&PpsPoissonSampler::new(6.0), &instances, &universe, &seeds);
        assert_eq!(direct, via_universe);
    }

    #[test]
    fn outcome_assembly_round_trips() {
        let instances = two_instances();
        let seeds = SeedAssignment::independent_known(3);
        let samples = sample_all(&PpsPoissonSampler::new(20.0), &instances, &seeds);
        let keys = sampled_key_union(&samples);
        let outcomes = weighted_outcomes(&keys, &samples, &seeds);
        assert_eq!(outcomes.len(), keys.len());
        for (key, o) in &outcomes {
            assert_eq!(o.num_instances(), 2);
            assert!(
                o.num_sampled() >= 1,
                "key {key} should be sampled somewhere"
            );
        }
    }

    #[test]
    fn oblivious_outcome_assembly() {
        let instances = two_instances();
        let seeds = SeedAssignment::independent_known(4);
        let universe = key_union(&instances);
        let samples = sample_all_with_universe(
            &ObliviousPoissonSampler::new(0.8),
            &instances,
            &universe,
            &seeds,
        );
        let keys = vec![1, 2, 3, 4];
        let outcomes = oblivious_outcomes(&keys, &samples);
        assert_eq!(outcomes.len(), 4);
        for (_, o) in &outcomes {
            assert_eq!(o.num_instances(), 2);
            assert_eq!(o.probabilities_iter().collect::<Vec<_>>(), vec![0.8, 0.8]);
        }
    }

    #[test]
    fn sampled_key_union_is_sorted_and_deduped() {
        let instances = two_instances();
        let seeds = SeedAssignment::independent_known(5);
        let samples = sample_all(&PpsPoissonSampler::new(0.5), &instances, &seeds);
        let keys = sampled_key_union(&samples);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
    }
}
