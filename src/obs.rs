//! Observation hooks for the estimation pipelines: per-stage wall-clock
//! attribution for the two heavy phases of a query — **trial replay**
//! (seed derivation, sampling or sample replay, outcome assembly) and the
//! **estimator batch** (the per-registry `estimate_lanes` sweeps plus
//! accumulation) — and an optional per-chunk timing hook forwarded to the
//! trial engine's [`Recorder`](pie_analysis::Recorder).
//!
//! Observation never participates in estimation: hooks only read clocks
//! and bump atomics between the stages, so an observed run's report is
//! **bit-identical** to an unobserved one.  A disabled observer costs one
//! `Option` check per trial.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pie_analysis::{ChunkTiming, Recorder};

/// Accumulated wall-clock nanoseconds of the two heavy pipeline stages,
/// summed across all trials (and all worker threads) of one estimation
/// call.
#[derive(Debug, Default)]
pub struct StageNanos {
    trial_replay: AtomicU64,
    estimator_batch: AtomicU64,
}

impl StageNanos {
    /// A zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to the trial-replay total (sampling / sample replay and
    /// outcome assembly).
    pub fn add_trial_replay(&self, nanos: u64) {
        self.trial_replay.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Adds to the estimator-batch total (estimator sweeps plus
    /// accumulation).
    pub fn add_estimator_batch(&self, nanos: u64) {
        self.estimator_batch.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total nanoseconds spent in trial replay.
    #[must_use]
    pub fn trial_replay_nanos(&self) -> u64 {
        self.trial_replay.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent in estimator batches.
    #[must_use]
    pub fn estimator_batch_nanos(&self) -> u64 {
        self.estimator_batch.load(Ordering::Relaxed)
    }
}

/// The hooks one estimation call may carry: stage totals and/or a
/// per-chunk timing callback.  The default (disabled) observer is
/// zero-cost — no clock is ever read.
#[derive(Clone, Default)]
pub struct PipelineObserver {
    pub(crate) stages: Option<Arc<StageNanos>>,
    pub(crate) chunks: Option<Arc<dyn Fn(ChunkTiming) + Send + Sync>>,
}

impl PipelineObserver {
    /// The disabled observer (same as `PipelineObserver::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An observer accumulating stage totals into `stages`.
    #[must_use]
    pub fn stages(stages: &Arc<StageNanos>) -> Self {
        Self {
            stages: Some(Arc::clone(stages)),
            chunks: None,
        }
    }

    /// Adds a per-chunk timing hook, delivered through the trial engine's
    /// [`Recorder`](pie_analysis::Recorder) on the worker thread that ran
    /// the chunk.
    #[must_use]
    pub fn with_chunk_hook(mut self, hook: Arc<dyn Fn(ChunkTiming) + Send + Sync>) -> Self {
        self.chunks = Some(hook);
        self
    }

    /// The [`Recorder`] to install on the trial engine (disabled when no
    /// chunk hook is set).
    pub(crate) fn recorder(&self) -> Recorder {
        match &self.chunks {
            Some(hook) => Recorder::new(Arc::clone(hook)),
            None => Recorder::disabled(),
        }
    }
}

impl fmt::Debug for PipelineObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineObserver")
            .field("stages", &self.stages.is_some())
            .field("chunks", &self.chunks.is_some())
            .finish()
    }
}
