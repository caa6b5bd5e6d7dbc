//! The end-to-end estimation pipeline: record stream → sketch ingest →
//! outcome assembly → batched estimation → sum aggregation.
//!
//! [`Pipeline`] is the one estimation builder.  It wires the workspace
//! crates together:
//!
//! 1. a [`Dataset`] (from `pie-datagen` or your own instances), replayed as
//!    one keyed record stream per instance,
//! 2. a sampling [`Scheme`] applied independently per instance: each trial
//!    ingests every instance's records into pooled per-shard sketches,
//!    merges them and finalizes one sample per instance ([`crate::stream`];
//!    shard count via [`Pipeline::shards`] — reports are bit-identical at
//!    any shard count),
//! 3. per-trial outcome assembly into reusable struct-of-arrays **lanes**
//!    ([`ObliviousLanes`]/[`WeightedLanes`]): each per-instance field becomes
//!    one contiguous `f64` slice, built once per trial straight from the
//!    samples and shared by every registered estimator, so the hot loop
//!    performs **no per-outcome heap allocation** after warm-up,
//! 4. a registry of estimators run over the shared lanes through the
//!    vectorized hot path
//!    ([`Estimator::estimate_lanes`](pie_core::Estimator::estimate_lanes)),
//! 5. the sum aggregate over selected keys, repeated over Monte-Carlo trials
//!    on the parallel deterministic trial engine ([`TrialRunner`], thread
//!    count via [`Pipeline::threads`] or `PIE_THREADS` — reports are
//!    bit-identical at any thread count) and summarized against the exact
//!    ground truth (`pie-analysis`).
//!
//! ```
//! use partial_info_estimators::{Pipeline, Scheme, Statistic};
//! use partial_info_estimators::core::suite::max_weighted_suite;
//! use partial_info_estimators::datagen::{generate_two_hours, TrafficConfig};
//!
//! let report = Pipeline::new()
//!     .dataset(generate_two_hours(&TrafficConfig::small(3)))
//!     .scheme(Scheme::pps(200.0))
//!     .shards(2)
//!     .estimators(max_weighted_suite())
//!     .statistic(Statistic::max_dominance())
//!     .trials(40)
//!     .run()
//!     .unwrap();
//! let l = report.get("max_l_pps_2").unwrap();
//! let ht = report.get("max_ht_pps").unwrap();
//! assert!(l.variance < ht.variance, "L dominates HT on traffic data");
//! ```

use std::fmt;
use std::sync::Arc;

use pie_analysis::{Evaluation, RunningStats, Table, TrialRunner};
use pie_core::{functions, EstimatorRegistry};
use pie_datagen::{Dataset, ShardedStream};
use pie_sampling::{
    sampled_key_union, InstanceSample, ObliviousLanes, ObliviousOutcome, SeedAssignment,
    WeightedLanes, WeightedOutcome,
};

use crate::stream::SchemePools;

/// How each instance is sampled, independently of the others.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Weight-oblivious Poisson sampling: every key of the universe is
    /// included with probability `p`, regardless of its value (Section 4).
    ObliviousPoisson {
        /// Per-entry inclusion probability, in `(0, 1]`.
        p: f64,
    },
    /// Weighted Poisson PPS sampling with known seeds: a key with value `v`
    /// is included iff `v ≥ u·τ*` (Sections 5–6).
    PpsPoisson {
        /// The PPS threshold τ*.
        tau_star: f64,
    },
}

impl Scheme {
    /// Weight-oblivious Poisson sampling with probability `p`.
    #[must_use]
    pub fn oblivious(p: f64) -> Self {
        Self::ObliviousPoisson { p }
    }

    /// Weighted PPS Poisson sampling with threshold `tau_star`.
    #[must_use]
    pub fn pps(tau_star: f64) -> Self {
        Self::PpsPoisson { tau_star }
    }
}

/// The boxed per-key function inside a [`Statistic`].
type StatisticFn = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// The per-key statistic being aggregated: a named function of one key's
/// value vector, summed over keys.
pub struct Statistic {
    name: String,
    f: StatisticFn,
}

impl Statistic {
    /// A custom statistic: `name` is used in reports, `f` maps one key's
    /// value vector to its contribution.
    #[must_use]
    pub fn new(name: impl Into<String>, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        Self {
            name: name.into(),
            f: Box::new(f),
        }
    }

    /// The max-dominance norm `Σ_key max_i v_i(key)` (Section 8.2, Figure 7).
    #[must_use]
    pub fn max_dominance() -> Self {
        Self::new("max_dominance", functions::maximum)
    }

    /// The distinct count `Σ_key OR_i (v_i(key) > 0)` — the size of the union
    /// over instances (Section 8.1, Figure 6).
    #[must_use]
    pub fn distinct_count() -> Self {
        Self::new("distinct_count", functions::boolean_or)
    }

    /// Every statistic name resolvable through [`Statistic::by_name`], in a
    /// stable order.
    pub const NAMES: [&'static str; 2] = ["max_dominance", "distinct_count"];

    /// Resolves a built-in statistic by its report name — the lookup used
    /// when the statistic choice arrives as data (a CLI flag, a served
    /// `Estimate` request).  Returns `None` for unknown names.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "max_dominance" => Some(Self::max_dominance()),
            "distinct_count" => Some(Self::distinct_count()),
            _ => None,
        }
    }

    /// The statistic's report name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the per-key contribution on one value vector.
    #[must_use]
    pub fn eval(&self, values: &[f64]) -> f64 {
        (self.f)(values)
    }
}

impl fmt::Debug for Statistic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Statistic")
            .field("name", &self.name)
            .finish()
    }
}

/// The estimators a pipeline runs: a registry for whichever outcome regime
/// the scheme produces.  Constructed via `From`/`Into` so
/// [`Pipeline::estimators`] accepts either registry type directly.
pub enum EstimatorSet {
    /// Estimators over weight-oblivious outcomes.
    Oblivious(EstimatorRegistry<ObliviousOutcome>),
    /// Estimators over weighted (known-seed) outcomes.
    Weighted(EstimatorRegistry<WeightedOutcome>),
}

impl From<EstimatorRegistry<ObliviousOutcome>> for EstimatorSet {
    fn from(registry: EstimatorRegistry<ObliviousOutcome>) -> Self {
        Self::Oblivious(registry)
    }
}

impl From<EstimatorRegistry<WeightedOutcome>> for EstimatorSet {
    fn from(registry: EstimatorRegistry<WeightedOutcome>) -> Self {
        Self::Weighted(registry)
    }
}

impl EstimatorSet {
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Oblivious(r) => r.len(),
            Self::Weighted(r) => r.len(),
        }
    }
}

/// Why a [`Pipeline`] could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// No dataset was supplied.
    MissingDataset,
    /// No sampling scheme was supplied.
    MissingScheme,
    /// No estimators were supplied (or the registry was empty).
    MissingEstimators,
    /// No statistic was supplied.
    MissingStatistic,
    /// The estimator registry's outcome regime does not match the scheme's
    /// (e.g. weighted estimators with an oblivious scheme).
    RegimeMismatch {
        /// Debug rendering of the configured scheme.
        scheme: String,
        /// The regime of the supplied estimators.
        estimators: &'static str,
    },
    /// A scheme parameter is out of range (oblivious `p` outside `(0, 1]`,
    /// or a PPS `tau_star` that is not positive and finite).
    InvalidScheme {
        /// Debug rendering of the rejected scheme.
        scheme: String,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingDataset => write!(f, "pipeline has no dataset; call .dataset(..)"),
            Self::MissingScheme => write!(f, "pipeline has no sampling scheme; call .scheme(..)"),
            Self::MissingEstimators => {
                write!(f, "pipeline has no estimators; call .estimators(..) with a non-empty registry")
            }
            Self::MissingStatistic => write!(f, "pipeline has no statistic; call .statistic(..)"),
            Self::RegimeMismatch { scheme, estimators } => write!(
                f,
                "scheme {scheme} produces a different outcome regime than the {estimators} estimators consume"
            ),
            Self::InvalidScheme { scheme, reason } => {
                write!(f, "invalid scheme {scheme}: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Per-estimator slice of a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorReport {
    /// The estimator's registered name.
    pub name: String,
    /// Bias/variance summary of its aggregate estimates across trials.
    pub evaluation: Evaluation,
}

/// The result of running a [`Pipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Name of the aggregated statistic.
    pub statistic: String,
    /// The exact aggregate computed from the raw dataset.
    pub truth: f64,
    /// Number of Monte-Carlo sampling trials.
    pub trials: u64,
    /// One entry per registered estimator, in registration order.
    pub estimators: Vec<EstimatorReport>,
}

impl PipelineReport {
    /// Looks up one estimator's evaluation by registered name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Evaluation> {
        self.estimators
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.evaluation)
    }

    /// The name of the estimator with the lowest variance, if any ran.
    #[must_use]
    pub fn best_by_variance(&self) -> Option<&str> {
        self.estimators
            .iter()
            .min_by(|a, b| a.evaluation.variance.total_cmp(&b.evaluation.variance))
            .map(|e| e.name.as_str())
    }

    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!(
                "{} (truth {:.4}, {} trials)",
                self.statistic, self.truth, self.trials
            ),
            &["estimator", "mean", "rel. bias", "variance", "cv"],
        );
        for e in &self.estimators {
            table.push_row(&[
                e.name.clone(),
                format!("{:.4}", e.evaluation.mean),
                format!("{:.5}", e.evaluation.relative_bias),
                format!("{:.4}", e.evaluation.variance),
                format!("{:.4}", e.evaluation.cv()),
            ]);
        }
        table.render()
    }
}

impl pie_store::Encode for Scheme {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        match *self {
            Self::ObliviousPoisson { p } => {
                0u32.encode(w)?;
                p.encode(w)
            }
            Self::PpsPoisson { tau_star } => {
                1u32.encode(w)?;
                tau_star.encode(w)
            }
        }
    }
}

impl pie_store::Decode for Scheme {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        match u32::decode(r)? {
            0 => Ok(Self::ObliviousPoisson { p: f64::decode(r)? }),
            1 => Ok(Self::PpsPoisson {
                tau_star: f64::decode(r)?,
            }),
            tag => Err(pie_store::StoreError::InvalidTag {
                what: "Scheme",
                tag,
            }),
        }
    }
}

impl pie_store::Encode for EstimatorReport {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        self.name.encode(w)?;
        self.evaluation.encode(w)
    }
}

impl pie_store::Decode for EstimatorReport {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        Ok(Self {
            name: String::decode(r)?,
            evaluation: Evaluation::decode(r)?,
        })
    }
}

impl pie_store::Encode for PipelineReport {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        self.statistic.encode(w)?;
        self.truth.encode(w)?;
        self.trials.encode(w)?;
        self.estimators.encode(w)
    }
}

impl pie_store::Decode for PipelineReport {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        Ok(Self {
            statistic: String::decode(r)?,
            truth: f64::decode(r)?,
            trials: u64::decode(r)?,
            estimators: Vec::decode(r)?,
        })
    }
}

impl PipelineReport {
    /// Persists the report as a snapshot file (versioned, checksummed).
    ///
    /// # Errors
    /// Propagates file I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), pie_store::StoreError> {
        pie_store::write_snapshot_file(path, self)
    }

    /// Loads a report previously written by [`PipelineReport::save`] —
    /// bit-identical to the saved one, so reports from different processes
    /// can be compared exactly.
    ///
    /// # Errors
    /// Propagates snapshot validation and decoding failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, pie_store::StoreError> {
        pie_store::read_snapshot_file(path)
    }
}

/// Builder wiring record stream → sharded sketch ingest → merge tree →
/// batched estimation → sum aggregation.  See the [module docs](self) for
/// the full walkthrough.
#[derive(Debug)]
#[must_use = "a pipeline does nothing until .run()"]
pub struct Pipeline {
    dataset: Option<Arc<Dataset>>,
    scheme: Option<Scheme>,
    shards: usize,
    estimators: Option<EstimatorSet>,
    statistic: Option<Statistic>,
    trials: u64,
    base_salt: u64,
    threads: Option<usize>,
}

impl Default for Pipeline {
    /// Same as [`Pipeline::new`]: empty stages, 1 shard, 100 trials, salt 0.
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for EstimatorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Oblivious(r) => write!(f, "EstimatorSet::Oblivious({} estimators)", r.len()),
            Self::Weighted(r) => write!(f, "EstimatorSet::Weighted({} estimators)", r.len()),
        }
    }
}

impl Pipeline {
    /// Starts an empty pipeline (1 shard, 100 trials, salt 0 by default).
    pub fn new() -> Self {
        Self {
            dataset: None,
            scheme: None,
            shards: 1,
            estimators: None,
            statistic: None,
            trials: 100,
            base_salt: 0,
            threads: None,
        }
    }

    /// Sets the dataset whose record stream is sampled.
    ///
    /// Accepts either an owned [`Dataset`] or an `Arc<Dataset>`; pass a
    /// shared `Arc` when running several pipelines over the same data (e.g.
    /// a parameter sweep) to avoid deep-copying the instances per run.
    pub fn dataset(mut self, dataset: impl Into<Arc<Dataset>>) -> Self {
        self.dataset = Some(dataset.into());
        self
    }

    /// Sets the per-instance sampling scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Sets the number of ingest shards per instance (default 1; values
    /// below 1 are clamped to 1).  Sharding is an execution strategy, never
    /// a statistical one: reports are bit-identical at any shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the estimators to run; accepts a registry for either outcome
    /// regime (it must match the scheme at [`run`](Self::run) time).
    pub fn estimators(mut self, estimators: impl Into<EstimatorSet>) -> Self {
        self.estimators = Some(estimators.into());
        self
    }

    /// Sets the aggregated statistic (and the ground truth it implies).
    pub fn statistic(mut self, statistic: Statistic) -> Self {
        self.statistic = Some(statistic);
        self
    }

    /// Sets the number of Monte-Carlo sampling trials (default 100).
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base hash salt; trial `t` uses salt `base_salt + t`, so
    /// different salts give independent experiments (default 0).
    pub fn base_salt(mut self, base_salt: u64) -> Self {
        self.base_salt = base_salt;
        self
    }

    /// Sets the number of worker threads for the Monte-Carlo trial loop
    /// (clamped to ≥ 1).
    ///
    /// The default follows the `PIE_THREADS` environment variable, falling
    /// back to the machine's available parallelism.  Thread count **never
    /// changes the report**: trials are partitioned into fixed chunks and
    /// reduced in a canonical order (see [`TrialRunner`]), so any thread
    /// count reproduces the sequential output bit for bit.  Trial workers
    /// are orthogonal to [`shards`](Self::shards): each worker owns a full
    /// set of per-`(instance, shard)` sketch pools and replays whole trials.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Runs the pipeline: partitions each instance's record stream across
    /// the configured shards once, then per trial ingests every `(instance,
    /// shard)` part into pooled sketches, merges and finalizes them into
    /// per-instance samples, assembles the per-key outcome lanes, runs each
    /// estimator's lane kernel, and summarizes the per-trial sum aggregates
    /// against the exact truth.
    ///
    /// # Estimator requirements
    ///
    /// Under the PPS scheme, outcomes are only assembled for keys present in
    /// at least one sample; keys sampled nowhere are credited **zero**
    /// without consulting the estimators.  Every estimator in the registry
    /// must therefore return `0.0` on a fully-unsampled outcome — true of
    /// all unbiased *nonnegative* estimators (an all-`None` outcome is
    /// consistent with the all-zero vector), and of everything in
    /// [`pie_core::suite`] — or its aggregate will be biased.  The
    /// oblivious scheme evaluates every dataset key, so it carries no such
    /// requirement.
    ///
    /// # Errors
    /// Returns a [`PipelineError`] if a stage is missing, a scheme parameter
    /// is out of range, or the estimator regime does not match the scheme.
    pub fn run(self) -> Result<PipelineReport, PipelineError> {
        let config = self.validate()?;
        let stream = config.record_stream();
        let stream = &stream;
        let seeds0 = SeedAssignment::independent_known(config.base_salt);
        run_multi_with(
            &config.dataset,
            config.scheme,
            &[(&config.estimators, &config.statistic)],
            &config.plan(),
            |_worker| {
                // Each trial worker owns one full sketch-pool set; sketches
                // reset to the trial's seeds before ingest, so any worker
                // replays any trial identically.
                let mut pools = SchemePools::new(config.scheme, stream, &seeds0);
                move |_t, seeds: &SeedAssignment| pools.ingest_merge_finalize(stream, seeds)
            },
        )
        .map(only_report)
    }

    /// Samples the configured dataset and finalizes the per-trial samples
    /// into a servable [`CatalogEntry`](crate::CatalogEntry) instead of
    /// estimating — the export hook behind `pie-serve`'s sketch catalog.
    ///
    /// Only the dataset, scheme, shards, trials, and base salt are
    /// consulted: estimator and statistic choice is deferred to each query
    /// against the entry (that deferral is the point of serving).
    ///
    /// # Errors
    /// [`PipelineError::MissingDataset`] / [`PipelineError::MissingScheme`]
    /// / [`PipelineError::InvalidScheme`].
    pub fn into_catalog_entry(self) -> Result<crate::CatalogEntry, PipelineError> {
        let dataset = self.dataset.ok_or(PipelineError::MissingDataset)?;
        let scheme = self.scheme.ok_or(PipelineError::MissingScheme)?;
        crate::CatalogEntry::build(dataset, scheme, self.shards, self.trials, self.base_salt)
    }

    /// Checks that every stage is supplied, the scheme's parameters are in
    /// range and the estimators consume the scheme's outcome regime — the
    /// one validation behind [`run`](Self::run) and the checkpoint entry
    /// points.
    pub(crate) fn validate(self) -> Result<PipelineConfig, PipelineError> {
        let dataset = self.dataset.ok_or(PipelineError::MissingDataset)?;
        let scheme = self.scheme.ok_or(PipelineError::MissingScheme)?;
        let estimators = self.estimators.ok_or(PipelineError::MissingEstimators)?;
        let statistic = self.statistic.ok_or(PipelineError::MissingStatistic)?;
        if estimators.len() == 0 {
            return Err(PipelineError::MissingEstimators);
        }
        validate_scheme(scheme)?;
        estimators.check_regime(scheme)?;
        Ok(PipelineConfig {
            dataset,
            scheme,
            shards: self.shards,
            estimators,
            statistic,
            trials: self.trials,
            base_salt: self.base_salt,
            threads: self.threads,
        })
    }
}

/// A [`Pipeline`] whose stages have all been supplied and validated,
/// destructured into owned parts.
pub(crate) struct PipelineConfig {
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) scheme: Scheme,
    pub(crate) shards: usize,
    pub(crate) estimators: EstimatorSet,
    pub(crate) statistic: Statistic,
    pub(crate) trials: u64,
    pub(crate) base_salt: u64,
    pub(crate) threads: Option<usize>,
}

impl PipelineConfig {
    /// The configured dataset's record stream, partitioned across the
    /// configured shards (see [`Scheme::record_stream`]).
    pub(crate) fn record_stream(&self) -> ShardedStream {
        self.scheme.record_stream(&self.dataset, self.shards)
    }

    /// The configured trial count, salt and thread count.
    fn plan(&self) -> TrialPlan {
        TrialPlan::new(self.trials, self.base_salt, self.threads)
    }

    /// Estimates over finalized per-trial samples with [`replay_samples`]
    /// — the checkpoint and shard-merge paths.
    pub(crate) fn replay(
        &self,
        samples: &[Vec<InstanceSample>],
    ) -> Result<PipelineReport, PipelineError> {
        let combo = [(&self.estimators, &self.statistic)];
        replay_samples(&self.dataset, self.scheme, &combo, &self.plan(), samples).map(only_report)
    }
}

impl Scheme {
    /// The record stream this scheme samples, partitioned across `shards`:
    /// weight-oblivious sampling runs over the key universe (zero-valued
    /// keys participate), weighted sampling over the explicit records.
    pub(crate) fn record_stream(self, dataset: &Dataset, shards: usize) -> ShardedStream {
        match self {
            Self::ObliviousPoisson { .. } => ShardedStream::over_universe(dataset, shards),
            Self::PpsPoisson { .. } => ShardedStream::from_dataset(dataset, shards),
        }
    }
}

impl EstimatorSet {
    /// Checks that the estimators consume the outcome regime `scheme`
    /// produces.
    pub(crate) fn check_regime(&self, scheme: Scheme) -> Result<(), PipelineError> {
        match (scheme, self) {
            (Scheme::ObliviousPoisson { .. }, Self::Oblivious(_))
            | (Scheme::PpsPoisson { .. }, Self::Weighted(_)) => Ok(()),
            (scheme, set) => Err(PipelineError::RegimeMismatch {
                scheme: format!("{scheme:?}"),
                estimators: match set {
                    Self::Oblivious(_) => "weight-oblivious",
                    Self::Weighted(_) => "weighted",
                },
            }),
        }
    }
}

/// The Monte-Carlo execution plan shared by every estimation path: how
/// many trials, the salt from which trial `t` derives its randomization
/// (`base_salt + t`), and the engine that runs the loop.
pub(crate) struct TrialPlan {
    pub(crate) trials: u64,
    pub(crate) base_salt: u64,
    pub(crate) runner: TrialRunner,
    pub(crate) observer: crate::obs::PipelineObserver,
}

impl TrialPlan {
    /// Builds a plan from a builder's `.trials`/`.base_salt`/`.threads`
    /// settings: an explicit thread count wins, otherwise `PIE_THREADS` /
    /// available parallelism (see [`TrialRunner::new`]).
    pub(crate) fn new(trials: u64, base_salt: u64, threads: Option<usize>) -> Self {
        Self {
            trials,
            base_salt,
            runner: match threads {
                Some(n) => TrialRunner::with_threads(n),
                None => TrialRunner::new(),
            },
            observer: crate::obs::PipelineObserver::disabled(),
        }
    }

    /// Installs observation hooks: stage totals accumulate into the
    /// observer's [`StageNanos`](crate::obs::StageNanos), and any chunk
    /// hook becomes the trial engine's recorder.  Observation never changes
    /// results.
    pub(crate) fn with_observer(mut self, observer: crate::obs::PipelineObserver) -> Self {
        self.runner = self.runner.recorder(observer.recorder());
        self.observer = observer;
        self
    }
}

/// Validates the scheme's parameters.
pub(crate) fn validate_scheme(scheme: Scheme) -> Result<(), PipelineError> {
    match scheme {
        Scheme::ObliviousPoisson { p } if !(p > 0.0 && p <= 1.0) => {
            Err(PipelineError::InvalidScheme {
                scheme: format!("{scheme:?}"),
                reason: "sampling probability must lie in (0, 1]",
            })
        }
        Scheme::PpsPoisson { tau_star } if !(tau_star > 0.0 && tau_star.is_finite()) => {
            Err(PipelineError::InvalidScheme {
                scheme: format!("{scheme:?}"),
                reason: "tau_star must be positive and finite",
            })
        }
        _ => Ok(()),
    }
}

/// The report of a one-combination estimation call.
pub(crate) fn only_report(mut reports: Vec<PipelineReport>) -> PipelineReport {
    reports.pop().expect("one combination in, one report out")
}

/// Answers every `(registry, statistic)` combination with [`run_multi_with`]
/// over finalized per-trial samples (`samples[t]` is trial `t`'s) — the
/// catalog, checkpoint and shard-merge paths.  Each trial borrows its
/// samples, so a replay costs no per-trial deep copy.
///
/// # Errors
/// As [`run_multi_with`].
pub(crate) fn replay_samples(
    dataset: &Dataset,
    scheme: Scheme,
    combos: &[(&EstimatorSet, &Statistic)],
    plan: &TrialPlan,
    samples: &[Vec<InstanceSample>],
) -> Result<Vec<PipelineReport>, PipelineError> {
    run_multi_with(dataset, scheme, combos, plan, |_worker| {
        move |t, _seeds: &SeedAssignment| samples[t as usize].as_slice()
    })
}

/// Dispatches `(registry, statistic)` combinations to the estimation core
/// of `scheme`'s outcome regime ([`run_oblivious_multi_with`] or
/// [`run_pps_multi_with`]), answering all of them from one replay of the
/// trial loop.
///
/// # Errors
/// [`PipelineError::RegimeMismatch`] if any registry consumes a different
/// regime than `scheme` produces; no trial runs in that case.
pub(crate) fn run_multi_with<R, G, F>(
    dataset: &Dataset,
    scheme: Scheme,
    combos: &[(&EstimatorSet, &Statistic)],
    plan: &TrialPlan,
    make_sampler: F,
) -> Result<Vec<PipelineReport>, PipelineError>
where
    F: Fn(usize) -> G + Sync,
    G: FnMut(u64, &SeedAssignment) -> R + Send,
    R: AsRef<[InstanceSample]>,
{
    // After the regime check every combination lands in the vector of the
    // scheme's regime, and the other stays empty.
    let mut oblivious = Vec::new();
    let mut weighted = Vec::new();
    for &(set, statistic) in combos {
        set.check_regime(scheme)?;
        match set {
            EstimatorSet::Oblivious(registry) => oblivious.push((registry, statistic)),
            EstimatorSet::Weighted(registry) => weighted.push((registry, statistic)),
        }
    }
    Ok(match scheme {
        Scheme::ObliviousPoisson { .. } => {
            run_oblivious_multi_with(dataset, &oblivious, plan, make_sampler)
        }
        Scheme::PpsPoisson { tau_star } => {
            run_pps_multi_with(dataset, tau_star, &weighted, plan, make_sampler)
        }
    })
}

/// Exact ground truth of the aggregate: `Σ_key statistic(v(key))`.
fn exact_truth(dataset: &Dataset, statistic: &Statistic) -> f64 {
    dataset
        .keys()
        .iter()
        .map(|&k| statistic.eval(&dataset.value_vector(k)))
        .sum()
}

fn summarize(
    statistic: &Statistic,
    truth: f64,
    trials: u64,
    names: impl Iterator<Item = impl Into<String>>,
    stats: &[RunningStats],
) -> PipelineReport {
    PipelineReport {
        statistic: statistic.name().to_string(),
        truth,
        trials,
        estimators: names
            .zip(stats)
            .map(|(name, stat)| EstimatorReport {
                name: name.into(),
                evaluation: Evaluation::from_stats(stat, truth),
            })
            .collect(),
    }
}

/// Per-worker scratch state of the oblivious estimation core: the worker's
/// sampling closure plus its reusable lane and estimate buffers.
struct ObliviousWorker<G> {
    sample_trial: G,
    lanes: ObliviousLanes,
    estimates: Vec<f64>,
}

/// The oblivious-regime estimation core: runs `trials` Monte-Carlo trials on
/// the parallel trial engine, obtaining each trial's per-instance samples
/// from a worker's sampling closure (live sketch ingest, or replay of
/// finalized samples) and pushing them through the pooled outcome lanes and
/// each estimator's lane kernel.
///
/// `make_sampler(worker)` builds one worker thread's sampling closure
/// (per-worker sketch pools, …).  Each closure must be a pure function of
/// `(trial, seeds)` — per-trial samples may not depend on which worker
/// draws them — which is what makes the report bit-identical at every
/// thread count.  The closure may return owned samples (live sampling) or
/// borrow precomputed ones (`&[InstanceSample]`, the catalog/checkpoint
/// replay paths) — anything `AsRef<[InstanceSample]>` — so replaying
/// finalized samples costs no per-trial deep copy.
///
/// Every `(registry, statistic)` combination is answered from **one**
/// replay of the trial loop.  Per trial, the samples are drawn once and
/// the per-key lanes are filled once (the expensive part — it scales with
/// the key universe); each combination then only pays its own
/// `estimate_lanes` sweeps and accumulation.  Every float operation a
/// combination sees is the same it would see running alone, so each
/// returned report is **bit-identical** to a one-combination call.
pub(crate) fn run_oblivious_multi_with<R, G, F>(
    dataset: &Dataset,
    combos: &[(&EstimatorRegistry<ObliviousOutcome>, &Statistic)],
    plan: &TrialPlan,
    make_sampler: F,
) -> Vec<PipelineReport>
where
    F: Fn(usize) -> G + Sync,
    G: FnMut(u64, &SeedAssignment) -> R + Send,
    R: AsRef<[InstanceSample]>,
{
    let truths: Vec<f64> = combos
        .iter()
        .map(|(_, statistic)| exact_truth(dataset, statistic))
        .collect();
    // `keys` is the sorted, deduped union of all instances' keys: the same
    // universe the oblivious record stream covers.
    let keys = dataset.keys();
    let keys = &keys;
    let base_salt = plan.base_salt;
    // One statistics lane per (combination, estimator), flattened in
    // combination order; chunk accumulators merge per lane exactly as in a
    // single-combination run.
    let lanes: usize = combos.iter().map(|(registry, _)| registry.len()).sum();
    // Stage attribution is observation only — clock reads between stages,
    // never inside the float path — so observed runs stay bit-identical.
    let stages = plan.observer.stages.as_deref();
    let stats = plan.runner.run(
        plan.trials,
        lanes,
        // Reusable per-worker buffers: the lane vectors are resized once and
        // rewritten in place every trial, so the hot loop stays
        // allocation-free.
        |worker| ObliviousWorker {
            sample_trial: make_sampler(worker),
            lanes: ObliviousLanes::new(),
            estimates: vec![0.0; keys.len()],
        },
        |w, t, stats| {
            let replay_start = stages.map(|_| std::time::Instant::now());
            let seeds = SeedAssignment::independent_known(base_salt.wrapping_add(t));
            let samples = (w.sample_trial)(t, &seeds);
            w.lanes.fill_from_samples(keys, samples.as_ref());
            let batch_start = stages.map(|_| std::time::Instant::now());
            let mut lane = 0;
            for (registry, _) in combos {
                for (_, estimator) in registry.iter() {
                    estimator.estimate_lanes(&w.lanes, &mut w.estimates);
                    stats[lane].push(w.estimates.iter().sum());
                    lane += 1;
                }
            }
            if let (Some(totals), Some(replayed), Some(batched)) =
                (stages, replay_start, batch_start)
            {
                totals.add_trial_replay(elapsed_nanos(replayed, batched));
                totals.add_estimator_batch(nanos_since(batched));
            }
        },
    );
    let mut reports = Vec::with_capacity(combos.len());
    let mut lane = 0;
    for ((registry, statistic), truth) in combos.iter().zip(&truths) {
        let slice = &stats[lane..lane + registry.len()];
        lane += registry.len();
        reports.push(summarize(
            statistic,
            *truth,
            plan.trials,
            registry.names(),
            slice,
        ));
    }
    reports
}

/// Per-worker scratch state of the weighted estimation core.
struct WeightedWorker<G> {
    sample_trial: G,
    lanes: WeightedLanes,
    estimates: Vec<f64>,
}

/// The weighted (PPS, known seeds) estimation core; see
/// [`run_oblivious_multi_with`] for the trial structure, the shared-replay
/// structure and the bit-identity argument.  Here the shared per-trial work
/// is even larger: the sampled-key union and the weighted lane fill (seeds,
/// tau*, values) are computed once for all combinations.
pub(crate) fn run_pps_multi_with<R, G, F>(
    dataset: &Dataset,
    tau_star: f64,
    combos: &[(&EstimatorRegistry<WeightedOutcome>, &Statistic)],
    plan: &TrialPlan,
    make_sampler: F,
) -> Vec<PipelineReport>
where
    F: Fn(usize) -> G + Sync,
    G: FnMut(u64, &SeedAssignment) -> R + Send,
    R: AsRef<[InstanceSample]>,
{
    let truths: Vec<f64> = combos
        .iter()
        .map(|(_, statistic)| exact_truth(dataset, statistic))
        .collect();
    let base_salt = plan.base_salt;
    let lanes: usize = combos.iter().map(|(registry, _)| registry.len()).sum();
    // Observation only; see `run_oblivious_multi_with`.
    let stages = plan.observer.stages.as_deref();
    let stats = plan.runner.run(
        plan.trials,
        lanes,
        // Per-worker lane buffers: grow to the worker's largest per-trial
        // key set, then are reused.  (Keys sampled nowhere contribute zero
        // for nonnegative estimators, so each trial only assembles lanes
        // for keys present in some sample.)
        |worker| WeightedWorker {
            sample_trial: make_sampler(worker),
            lanes: WeightedLanes::new(),
            estimates: Vec::new(),
        },
        |w, t, stats| {
            let replay_start = stages.map(|_| std::time::Instant::now());
            let seeds = SeedAssignment::independent_known(base_salt.wrapping_add(t));
            let samples = (w.sample_trial)(t, &seeds);
            let samples = samples.as_ref();
            let keys = sampled_key_union(samples);
            w.lanes.fill_pps(&keys, samples, &seeds, tau_star);
            w.estimates.resize(keys.len(), 0.0);
            let batch_start = stages.map(|_| std::time::Instant::now());
            let mut lane = 0;
            for (registry, _) in combos {
                for (_, estimator) in registry.iter() {
                    estimator.estimate_lanes(&w.lanes, &mut w.estimates[..keys.len()]);
                    stats[lane].push(w.estimates[..keys.len()].iter().sum());
                    lane += 1;
                }
            }
            if let (Some(totals), Some(replayed), Some(batched)) =
                (stages, replay_start, batch_start)
            {
                totals.add_trial_replay(elapsed_nanos(replayed, batched));
                totals.add_estimator_batch(nanos_since(batched));
            }
        },
    );
    let mut reports = Vec::with_capacity(combos.len());
    let mut lane = 0;
    for ((registry, statistic), truth) in combos.iter().zip(&truths) {
        let slice = &stats[lane..lane + registry.len()];
        lane += registry.len();
        reports.push(summarize(
            statistic,
            *truth,
            plan.trials,
            registry.names(),
            slice,
        ));
    }
    reports
}

/// Saturating nanoseconds between two stage boundary clock reads.
fn elapsed_nanos(from: std::time::Instant, to: std::time::Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Saturating nanoseconds since a stage boundary clock read.
fn nanos_since(from: std::time::Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pie_core::suite::{max_oblivious_suite, max_weighted_suite};
    use pie_datagen::{generate_two_hours, paper_example, TrafficConfig};

    #[test]
    fn pipeline_requires_every_stage() {
        assert_eq!(
            Pipeline::new().run().unwrap_err(),
            PipelineError::MissingDataset
        );
        assert_eq!(
            Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .run()
                .unwrap_err(),
            PipelineError::MissingScheme
        );
        assert_eq!(
            Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(Scheme::oblivious(0.5))
                .run()
                .unwrap_err(),
            PipelineError::MissingEstimators
        );
        assert_eq!(
            Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(Scheme::oblivious(0.5))
                .estimators(max_oblivious_suite(0.5, 0.5))
                .run()
                .unwrap_err(),
            PipelineError::MissingStatistic
        );
    }

    #[test]
    fn pipeline_rejects_out_of_range_scheme_parameters() {
        for scheme in [Scheme::oblivious(0.0), Scheme::oblivious(1.5)] {
            let err = Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(scheme)
                .estimators(max_oblivious_suite(0.5, 0.5))
                .statistic(Statistic::max_dominance())
                .run()
                .unwrap_err();
            assert!(
                matches!(err, PipelineError::InvalidScheme { .. }),
                "{scheme:?}"
            );
        }
        for tau in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let err = Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(Scheme::pps(tau))
                .estimators(max_weighted_suite())
                .statistic(Statistic::max_dominance())
                .run()
                .unwrap_err();
            assert!(
                matches!(err, PipelineError::InvalidScheme { .. }),
                "tau_star {tau}"
            );
            assert!(err.to_string().contains("positive and finite"));
        }
    }

    #[test]
    fn pipeline_default_matches_new() {
        // A derived Default would zero `trials`; the manual impl must keep
        // new()'s documented 100-trial default.
        let report = Pipeline::default()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap();
        assert_eq!(report.trials, 100);
        assert!(report.estimators.iter().all(|e| e.evaluation.trials == 100));
    }

    #[test]
    fn pipeline_rejects_regime_mismatch() {
        let err = Pipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::RegimeMismatch { .. }));
        assert!(err.to_string().contains("weighted"));
    }

    #[test]
    fn oblivious_pipeline_is_unbiased_and_ranks_l_first() {
        let report = Pipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .trials(4000)
            .base_salt(11)
            .run()
            .unwrap();
        assert_eq!(report.estimators.len(), 3);
        for e in &report.estimators {
            assert!(
                e.evaluation.relative_bias < 0.05,
                "{} bias {}",
                e.name,
                e.evaluation.relative_bias
            );
        }
        let ht = report.get("max_ht_oblivious").unwrap();
        let l = report.get("max_l_2").unwrap();
        assert!(l.variance < ht.variance, "L should beat HT");
        assert_ne!(report.best_by_variance(), Some("max_ht_oblivious"));
        let rendered = report.render();
        assert!(rendered.contains("max_dominance"));
        assert!(rendered.contains("max_l_2"));
    }

    #[test]
    fn pps_pipeline_matches_bespoke_aggregate_loop() {
        use pie_analysis::{all_keys, evaluate_aggregate_pps};
        use pie_core::aggregate::{max_dominance_l, true_max_dominance};

        let dataset = generate_two_hours(&TrafficConfig::small(3));
        let truth = true_max_dominance(dataset.instances(), |_| true);
        let trials = 60;
        let salt = 7;
        let report = Pipeline::new()
            .dataset(dataset.clone())
            .scheme(Scheme::pps(200.0))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(trials)
            .base_salt(salt)
            .run()
            .unwrap();
        assert!((report.truth - truth).abs() < 1e-9);
        // The pipeline's L-estimator path must reproduce the bespoke
        // `evaluate_aggregate_pps` + `max_dominance_l` loop it replaced.
        let bespoke = evaluate_aggregate_pps(&dataset, 200.0, truth, trials, salt, |s, seeds| {
            max_dominance_l(s, seeds, all_keys)
        });
        let l = report.get("max_l_pps_2").unwrap();
        assert!(
            (l.mean - bespoke.mean).abs() <= 1e-9 * bespoke.mean.abs().max(1.0),
            "pipeline mean {} vs bespoke {}",
            l.mean,
            bespoke.mean
        );
        assert!(
            (l.variance - bespoke.variance).abs() <= 1e-6 * bespoke.variance.max(1.0),
            "pipeline variance {} vs bespoke {}",
            l.variance,
            bespoke.variance
        );
    }

    #[test]
    fn distinct_count_statistic_on_binary_data() {
        use pie_datagen::{generate_set_pair, SetPairConfig};
        let dataset = generate_set_pair(&SetPairConfig::new(200, 0.5));
        let report = Pipeline::new()
            .dataset(dataset)
            .scheme(Scheme::oblivious(0.4))
            .estimators(pie_core::suite::or_oblivious_suite(0.4, 0.4))
            .statistic(Statistic::distinct_count())
            .trials(300)
            .run()
            .unwrap();
        for e in &report.estimators {
            assert!(
                e.evaluation.relative_bias < 0.05,
                "{} bias {}",
                e.name,
                e.evaluation.relative_bias
            );
        }
        let ht = report.get("or_ht_oblivious").unwrap();
        let l = report.get("or_l_2").unwrap();
        assert!(l.variance < ht.variance);
    }
}
