//! Workload inputs, all derived from the run's `--seed`: the Fig. 7 traffic
//! pair, the Fig. 6 set pair, and the sketches served over them.

use std::sync::Arc;

use partial_info_estimators::{CatalogEntry, Scheme, Statistic};
use pie_core::suite::SUITE_NAMES;
use pie_datagen::{generate_set_pair, generate_two_hours, Dataset, SetPairConfig, TrafficConfig};
use pie_sampling::PpsPoissonSampler;

/// Fraction of each traffic hour's keys the PPS threshold samples (Fig. 7
/// at 10%).
pub const SAMPLED_FRACTION: f64 = 0.1;
/// Trials held by the served paper-scale traffic sketch.
pub const TRAFFIC_TRIALS: u64 = 32;
/// Fig. 6 set pair: two sets of this size with Jaccard 1/2, sampled
/// obliviously at `SET_PAIR_P`.
const SET_PAIR_SIZE: usize = 10_000;
const SET_PAIR_JACCARD: f64 = 0.5;
const SET_PAIR_P: f64 = 0.1;
const SET_PAIR_TRIALS: u64 = 32;

/// splitmix64: derives independent sub-seeds and drives the benchmark's
/// own random choices.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small deterministic generator for the benchmark's own draws.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Sub-seed `tag` of the run seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix(seed ^ mix(tag))
}

/// Two paper-scale traffic hours (≈38k keys), keyed by the run seed.
pub fn paper_traffic(seed: u64) -> Arc<Dataset> {
    Arc::new(generate_two_hours(&TrafficConfig {
        seed: derive(seed, 1),
        ..TrafficConfig::paper_scale()
    }))
}

/// Two small traffic hours (2,000 keys each): the freshly ingested sketches.
pub fn small_traffic(seed: u64) -> Arc<Dataset> {
    Arc::new(generate_two_hours(&TrafficConfig::small(derive(seed, 2))))
}

/// The PPS threshold that samples `fraction` of the first instance's keys
/// in expectation — the rule of Fig. 7's `tau_star_for_fraction`.
pub fn tau_star_for_fraction(dataset: &Dataset, fraction: f64) -> f64 {
    let inst = &dataset.instances()[0];
    PpsPoissonSampler::with_expected_size(inst, fraction * inst.len() as f64)
        .map_or(f64::MIN_POSITIVE, |s| s.tau_star())
}

/// One sketch a workload serves, with the inputs it was built from.
pub struct Served {
    pub name: String,
    pub dataset: Arc<Dataset>,
    pub scheme: Scheme,
    pub trials: u64,
    pub base_salt: u64,
    pub entry: CatalogEntry,
    /// Every `(suite, statistic)` pair the entry accepts.
    pub pairs: Vec<(&'static str, &'static str)>,
}

impl Served {
    pub fn build(
        name: &str,
        dataset: Arc<Dataset>,
        scheme: Scheme,
        trials: u64,
        base_salt: u64,
    ) -> Self {
        let entry = CatalogEntry::build(Arc::clone(&dataset), scheme, 1, trials, base_salt)
            .expect("benchmark schemes are valid");
        let pairs = accepted_pairs(&entry);
        Self {
            name: name.to_string(),
            dataset,
            scheme,
            trials,
            base_salt,
            entry,
            pairs,
        }
    }

    /// The paper-scale traffic PPS sketch.
    pub fn traffic(seed: u64) -> Self {
        let dataset = paper_traffic(seed);
        let tau = tau_star_for_fraction(&dataset, SAMPLED_FRACTION);
        Self::build(
            "traffic",
            dataset,
            Scheme::pps(tau),
            TRAFFIC_TRIALS,
            derive(seed, 3),
        )
    }

    /// The Fig. 6 set-pair oblivious sketch.
    pub fn sets(seed: u64) -> Self {
        Self::build(
            "sets",
            Arc::new(generate_set_pair(&SetPairConfig::new(
                SET_PAIR_SIZE,
                SET_PAIR_JACCARD,
            ))),
            Scheme::oblivious(SET_PAIR_P),
            SET_PAIR_TRIALS,
            derive(seed, 4),
        )
    }

    /// Distinct suites among the accepted pairs, in pair order.
    pub fn suites(&self) -> Vec<&'static str> {
        let mut suites: Vec<&'static str> = Vec::new();
        for (suite, _) in &self.pairs {
            if !suites.contains(suite) {
                suites.push(suite);
            }
        }
        suites
    }
}

/// Every `(suite, statistic)` pair `entry` answers without a typed refusal.
pub fn accepted_pairs(entry: &CatalogEntry) -> Vec<(&'static str, &'static str)> {
    SUITE_NAMES
        .iter()
        .filter(|suite| entry.suite(suite).is_ok())
        .flat_map(|&suite| Statistic::NAMES.iter().map(move |&stat| (suite, stat)))
        .collect()
}
