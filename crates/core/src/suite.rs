//! Standard estimator suites: prebuilt [`EstimatorRegistry`]s for the
//! families the paper compares.
//!
//! Benches, figure harnesses, and the umbrella crate's `Pipeline` enumerate
//! estimators dynamically through a registry instead of hard-coding one
//! struct per call site; these constructors bundle the canonical line-ups
//! (HT baseline vs. the Pareto-optimal `L`/`U` estimators) per target
//! function and sampling regime.
//!
//! For callers that receive a suite choice as *data* — a CLI flag, a served
//! `Estimate` request naming its estimator family — the module also exposes
//! a name-keyed lookup surface: [`SUITE_NAMES`], [`suite_regime`],
//! [`oblivious_suite_by_name`], and [`weighted_suite_by_name`].

use pie_sampling::{ObliviousOutcome, WeightedOutcome};

use crate::estimate::EstimatorRegistry;
use crate::oblivious::{MaxHtOblivious, MaxL2, MaxLUniform, MaxU2, OrHtOblivious, OrL2, OrU2};
use crate::weighted::{MaxHtPps, MaxLPps2, OrHtKnownSeeds, OrLKnownSeeds, OrUKnownSeeds};

/// The `max` estimators over two weight-oblivious Poisson instances sampled
/// with probabilities `p1`, `p2`: the HT baseline and the Pareto-optimal
/// `max^(L)` / `max^(U)` (Section 4, Figure 1).
#[must_use]
pub fn max_oblivious_suite(p1: f64, p2: f64) -> EstimatorRegistry<ObliviousOutcome> {
    EstimatorRegistry::new()
        .with(MaxHtOblivious)
        .with(MaxL2::new(p1, p2))
        .with(MaxU2::new(p1, p2))
}

/// The `max` estimators over `r` weight-oblivious instances with uniform
/// sampling probability `p`: the HT baseline and the Algorithm 3 `max^(L)`
/// (Section 4.2).
#[must_use]
pub fn max_oblivious_uniform_suite(r: usize, p: f64) -> EstimatorRegistry<ObliviousOutcome> {
    EstimatorRegistry::new()
        .with(MaxHtOblivious)
        .with(MaxLUniform::new(r, p))
}

/// The Boolean `OR` estimators over two weight-oblivious instances
/// (Section 4.3, Figure 2).
#[must_use]
pub fn or_oblivious_suite(p1: f64, p2: f64) -> EstimatorRegistry<ObliviousOutcome> {
    EstimatorRegistry::new()
        .with(OrHtOblivious)
        .with(OrL2::new(p1, p2))
        .with(OrU2::new(p1, p2))
}

/// The `max` estimators over weighted (PPS) samples with known seeds: the HT
/// baseline and the Figure 3 closed-form `max^(L)` (Sections 5–6).
#[must_use]
pub fn max_weighted_suite() -> EstimatorRegistry<WeightedOutcome> {
    EstimatorRegistry::new().with(MaxHtPps).with(MaxLPps2)
}

/// The Boolean `OR` estimators over weighted samples with known seeds
/// (Section 5.1).
#[must_use]
pub fn or_weighted_suite() -> EstimatorRegistry<WeightedOutcome> {
    EstimatorRegistry::new()
        .with(OrHtKnownSeeds)
        .with(OrLKnownSeeds)
        .with(OrUKnownSeeds)
}

/// The outcome regime a named suite consumes — which sampling scheme it can
/// estimate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteRegime {
    /// Estimators over weight-oblivious Poisson outcomes.
    Oblivious,
    /// Estimators over weighted (known-seed PPS) outcomes.
    Weighted,
}

/// Every suite name resolvable through [`oblivious_suite_by_name`] /
/// [`weighted_suite_by_name`], in a stable order.
pub const SUITE_NAMES: [&str; 5] = [
    "max_oblivious",
    "max_oblivious_uniform",
    "or_oblivious",
    "max_weighted",
    "or_weighted",
];

/// The regime of a named suite, or `None` for an unknown name.
#[must_use]
pub fn suite_regime(name: &str) -> Option<SuiteRegime> {
    match name {
        "max_oblivious" | "max_oblivious_uniform" | "or_oblivious" => Some(SuiteRegime::Oblivious),
        "max_weighted" | "or_weighted" => Some(SuiteRegime::Weighted),
        _ => None,
    }
}

/// Resolves an oblivious-regime suite by name: `r` is the instance count and
/// `p` the (shared) sampling probability.
///
/// The pairwise suites (`max_oblivious`, `or_oblivious`) use `p` for both
/// instances; `max_oblivious_uniform` uses Algorithm 3 over all `r`
/// instances.  Returns `None` for unknown or weighted-regime names.
#[must_use]
pub fn oblivious_suite_by_name(
    name: &str,
    r: usize,
    p: f64,
) -> Option<EstimatorRegistry<ObliviousOutcome>> {
    match name {
        "max_oblivious" => Some(max_oblivious_suite(p, p)),
        "max_oblivious_uniform" => Some(max_oblivious_uniform_suite(r, p)),
        "or_oblivious" => Some(or_oblivious_suite(p, p)),
        _ => None,
    }
}

/// Resolves a weighted-regime suite by name; `None` for unknown or
/// oblivious-regime names.
#[must_use]
pub fn weighted_suite_by_name(name: &str) -> Option<EstimatorRegistry<WeightedOutcome>> {
    match name {
        "max_weighted" => Some(max_weighted_suite()),
        "or_weighted" => Some(or_weighted_suite()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_enumerate_expected_line_ups() {
        assert_eq!(
            max_oblivious_suite(0.5, 0.5).names().collect::<Vec<_>>(),
            ["max_ht_oblivious", "max_l_2", "max_u_2"]
        );
        assert_eq!(max_oblivious_uniform_suite(4, 0.3).len(), 2);
        assert_eq!(
            or_oblivious_suite(0.4, 0.6).names().collect::<Vec<_>>(),
            ["or_ht_oblivious", "or_l_2", "or_u_2"]
        );
        assert_eq!(
            max_weighted_suite().names().collect::<Vec<_>>(),
            ["max_ht_pps", "max_l_pps_2"]
        );
        assert_eq!(or_weighted_suite().len(), 3);
    }

    #[test]
    fn lookup_surface_covers_every_name_exactly_once() {
        for name in SUITE_NAMES {
            let regime = suite_regime(name).expect(name);
            match regime {
                SuiteRegime::Oblivious => {
                    assert!(oblivious_suite_by_name(name, 2, 0.5).is_some(), "{name}");
                    assert!(weighted_suite_by_name(name).is_none(), "{name}");
                }
                SuiteRegime::Weighted => {
                    assert!(weighted_suite_by_name(name).is_some(), "{name}");
                    assert!(oblivious_suite_by_name(name, 2, 0.5).is_none(), "{name}");
                }
            }
        }
        assert!(suite_regime("nope").is_none());
        assert!(oblivious_suite_by_name("nope", 2, 0.5).is_none());
        assert!(weighted_suite_by_name("nope").is_none());
    }

    #[test]
    fn named_lookup_matches_direct_constructors() {
        assert_eq!(
            oblivious_suite_by_name("max_oblivious", 2, 0.4)
                .unwrap()
                .names()
                .collect::<Vec<_>>(),
            max_oblivious_suite(0.4, 0.4).names().collect::<Vec<_>>()
        );
        assert_eq!(
            weighted_suite_by_name("or_weighted")
                .unwrap()
                .names()
                .collect::<Vec<_>>(),
            or_weighted_suite().names().collect::<Vec<_>>()
        );
    }

    /// Asserts that every estimator in `registry` returns exactly `0.0` on
    /// each outcome, through both `estimate` and `estimate_lanes`.
    fn assert_zero_on<O: pie_sampling::LaneOutcome>(
        suite: &str,
        registry: &EstimatorRegistry<O>,
        outcomes: &[O],
        lanes: &O::Lanes,
    ) {
        let mut out = vec![f64::NAN; outcomes.len()];
        for (name, estimator) in registry.iter() {
            for (k, outcome) in outcomes.iter().enumerate() {
                let scalar = estimator.estimate(outcome);
                assert!(
                    scalar == 0.0,
                    "{suite}/{name} scalar, outcome {k}: {scalar}"
                );
            }
            estimator.estimate_lanes(lanes, &mut out);
            for (k, &lane) in out.iter().enumerate() {
                assert!(lane == 0.0, "{suite}/{name} lanes, outcome {k}: {lane}");
            }
        }
    }

    /// Every estimator of every named suite is exactly zero on a
    /// fully-unsampled outcome (an all-`None` outcome is consistent with
    /// the all-zero value vector).  The PPS pipeline core relies on this
    /// when it credits keys sampled in no instance with zero without
    /// consulting the estimators.
    #[test]
    fn every_suite_is_zero_on_fully_unsampled_outcomes() {
        use pie_sampling::{ObliviousEntry, ObliviousLanes, WeightedEntry, WeightedLanes};
        for name in SUITE_NAMES {
            match suite_regime(name).expect(name) {
                SuiteRegime::Oblivious => {
                    let arities: &[usize] = if name == "max_oblivious_uniform" {
                        &[2, 3, 5]
                    } else {
                        &[2]
                    };
                    for &r in arities {
                        for p in [0.05, 0.5, 1.0] {
                            let registry = oblivious_suite_by_name(name, r, p).expect(name);
                            let outcome =
                                ObliviousOutcome::new(vec![ObliviousEntry { p, value: None }; r]);
                            let outcomes = vec![outcome; 9];
                            let mut lanes = ObliviousLanes::new();
                            lanes.fill_from_outcomes(&outcomes);
                            assert_zero_on(name, &registry, &outcomes, &lanes);
                        }
                    }
                }
                SuiteRegime::Weighted => {
                    let registry = weighted_suite_by_name(name).expect(name);
                    // Known seeds across the unit interval and thresholds
                    // across scales, as the PPS scheme reveals them.
                    let mut outcomes = Vec::new();
                    for tau_star in [0.5, 1.0, 200.0] {
                        for (u1, u2) in [(0.01, 0.99), (0.5, 0.5), (0.9, 0.2), (0.3, 0.7)] {
                            let entry = |u| WeightedEntry {
                                tau_star,
                                seed: Some(u),
                                value: None,
                            };
                            outcomes.push(WeightedOutcome::new(vec![entry(u1), entry(u2)]));
                        }
                    }
                    let mut lanes = WeightedLanes::new();
                    lanes.fill_from_outcomes(&outcomes);
                    assert_zero_on(name, &registry, &outcomes, &lanes);
                }
            }
        }
    }
}
