//! The parallel, deterministic Monte-Carlo trial engine.
//!
//! Every repeated-sampling experiment in this workspace — the umbrella
//! crate's `Pipeline` and catalog replay, the [`crate::empirical`]
//! evaluators, the figure harnesses — boils down to the same loop: for each
//! trial `t` in `[0, trials)`, derive that trial's randomization from `t`,
//! compute one observation per *lane* (usually one lane per estimator), and
//! accumulate the observations into per-lane [`RunningStats`].
//! [`TrialRunner`] is the single implementation of that loop, parallelized
//! across OS threads without giving up reproducibility.
//!
//! # Determinism model
//!
//! Naive parallel accumulation (each thread pushes into shared stats in
//! completion order) would make reports depend on scheduling.  The engine
//! instead fixes a *canonical reduction order* that depends only on the
//! trial count:
//!
//! 1. `[0, trials)` is partitioned into contiguous chunks of
//!    [`chunk_trials`](TrialRunner::chunk_trials) trials (default
//!    [`TRIAL_CHUNK`]).  The partition is a pure function of `trials` —
//!    **never** of the thread count.
//! 2. Each chunk is processed by exactly one worker thread (statically
//!    strided over workers), accumulating into chunk-local stats.  The
//!    per-trial body must derive all randomness from the trial index, so a
//!    chunk's accumulator is the same whichever thread computes it.
//! 3. Chunk accumulators are folded left-to-right in chunk-index order with
//!    [`RunningStats::merge`] (Chan et al. pairwise moment combination).
//!
//! Because both the partition and the fold order are fixed, the result is
//! **bit-identical at any thread count** — running with `.threads(8)`
//! reproduces the sequential `.threads(1)` report exactly, and
//! `PIE_THREADS` can be tuned per machine without invalidating pinned
//! numbers.
//!
//! # Thread-count selection
//!
//! [`TrialRunner::new`] reads the `PIE_THREADS` environment variable
//! (clamped to ≥ 1; unparsable values are ignored) and falls back to
//! [`std::thread::available_parallelism`].  Builders that embed a runner
//! (`Pipeline::threads`) override it explicitly.
//!
//! ```
//! use pie_analysis::trial::TrialRunner;
//!
//! // Estimate the mean of a deterministic per-trial quantity on 4 threads…
//! let stats = TrialRunner::with_threads(4).run(1000, 1, |_worker| (), |(), t, lanes| {
//!     lanes[0].push((t % 10) as f64);
//! });
//! // …and the sequential run is bit-identical.
//! let seq = TrialRunner::with_threads(1).run(1000, 1, |_worker| (), |(), t, lanes| {
//!     lanes[0].push((t % 10) as f64);
//! });
//! assert_eq!(stats, seq);
//! ```

use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::stats::RunningStats;

/// Default number of trials per reduction chunk.
///
/// Small enough that typical trial counts (a few hundred) split into enough
/// chunks to load-balance eight workers, large enough that chunk bookkeeping
/// is negligible next to per-trial sampling work.  The chunk width is part
/// of the canonical reduction order: changing it changes reports at the
/// floating-point-noise level (~ULPs), so it is fixed per call site, never
/// derived from the machine.
pub const TRIAL_CHUNK: u64 = 16;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "PIE_THREADS";

/// The wall-clock timing of one executed reduction chunk, as delivered to a
/// [`Recorder`] hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// The chunk's index in the canonical partition.
    pub chunk: u64,
    /// How many trials the chunk covered.
    pub trials: u64,
    /// Wall-clock nanoseconds the chunk body took.
    pub nanos: u64,
}

/// A per-chunk timing hook for [`TrialRunner`], **zero-cost when
/// disabled**: the default (disabled) recorder costs one `Option` check per
/// chunk — no clock reads, no allocation — and never changes results
/// (timing is observation only; the reduction order is untouched).
#[derive(Clone, Default)]
pub struct Recorder {
    hook: Option<Arc<dyn Fn(ChunkTiming) + Send + Sync>>,
}

impl Recorder {
    /// The disabled recorder (same as `Recorder::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recorder delivering every chunk's [`ChunkTiming`] to `hook`.  The
    /// hook runs on the worker thread that executed the chunk, so it must
    /// be cheap and thread-safe (an atomic add, a lock-free histogram).
    #[must_use]
    pub fn new(hook: Arc<dyn Fn(ChunkTiming) + Send + Sync>) -> Self {
        Self { hook: Some(hook) }
    }

    /// Whether a hook is installed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.hook.is_some()
    }

    fn observe(&self, timing: ChunkTiming) {
        if let Some(hook) = &self.hook {
            hook(timing);
        }
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Parallel, deterministic executor of Monte-Carlo trial loops; see the
/// [module docs](self) for the determinism model.
#[derive(Debug, Clone)]
pub struct TrialRunner {
    threads: usize,
    chunk: u64,
    recorder: Recorder,
}

/// Runner identity is its determinism-relevant configuration (threads and
/// chunk width); the observation-only recorder never participates.
impl PartialEq for TrialRunner {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.chunk == other.chunk
    }
}

impl Eq for TrialRunner {}

impl Default for TrialRunner {
    /// Same as [`TrialRunner::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl TrialRunner {
    /// Creates a runner with the environment-selected thread count
    /// (`PIE_THREADS`, else [`std::thread::available_parallelism`]) and the
    /// default chunk width [`TRIAL_CHUNK`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: env_threads().unwrap_or_else(available_threads),
            chunk: TRIAL_CHUNK,
            recorder: Recorder::disabled(),
        }
    }

    /// Creates a runner with an explicit thread count (clamped to ≥ 1),
    /// ignoring `PIE_THREADS`.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk: TRIAL_CHUNK,
            recorder: Recorder::disabled(),
        }
    }

    /// Sets the worker-thread count (clamped to ≥ 1).  Thread count never
    /// changes results, only wall clock.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the reduction chunk width in trials (clamped to ≥ 1).
    ///
    /// The chunk width is part of the canonical reduction order, so two runs
    /// only reproduce each other bitwise when they agree on it; callers that
    /// pin reports should leave it at [`TRIAL_CHUNK`] (the trial-loop
    /// default) or [`crate::SIMULATION_BATCH`] (the evaluators' default).
    #[must_use]
    pub fn chunk_trials(mut self, chunk: u64) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The configured reduction chunk width, in trials.
    #[must_use]
    pub fn chunk_width(&self) -> u64 {
        self.chunk
    }

    /// Installs a per-chunk timing [`Recorder`].  Recording is observation
    /// only — the partition, reduction order, and results are untouched, so
    /// instrumented runs stay bit-identical to uninstrumented ones.
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs `trials` trials with `lanes` statistics lanes and a per-trial
    /// body, returning the merged per-lane statistics in the canonical
    /// reduction order.
    ///
    /// `init(worker)` builds one worker's reusable scratch state (samplers,
    /// outcome pools, buffers); it runs once per worker thread, so per-trial
    /// work can stay allocation-free.  `body(state, t, lane_stats)` computes
    /// trial `t` and pushes exactly its observations into `lane_stats`
    /// (chunk-local accumulators of length `lanes`).
    ///
    /// **Determinism contract:** `body` must derive everything it pushes
    /// from the trial index `t` alone — worker state may cache buffers but
    /// must not carry randomness across trials — and must push the same
    /// sequence of values for a given `t` on every call.  Under that
    /// contract the returned statistics are bit-identical at any thread
    /// count.
    pub fn run<S, I, B>(&self, trials: u64, lanes: usize, init: I, body: B) -> Vec<RunningStats>
    where
        S: Send,
        I: Fn(usize) -> S + Sync,
        B: Fn(&mut S, u64, &mut [RunningStats]) + Sync,
    {
        self.run_chunks(trials, lanes, init, |state, range, stats| {
            for t in range {
                body(state, t, stats);
            }
        })
    }

    /// Chunk-granular variant of [`run`](Self::run): `body` receives a whole
    /// contiguous trial range (one reduction chunk) at a time, for callers
    /// that generate trial batches in bulk (e.g. the Monte-Carlo outcome
    /// simulators).  The determinism contract is the same, applied to the
    /// chunk range: the pushed values may only depend on the trial indices
    /// covered by `range`.
    pub fn run_chunks<S, I, B>(
        &self,
        trials: u64,
        lanes: usize,
        init: I,
        body: B,
    ) -> Vec<RunningStats>
    where
        S: Send,
        I: Fn(usize) -> S + Sync,
        B: Fn(&mut S, Range<u64>, &mut [RunningStats]) + Sync,
    {
        let chunk = self.chunk;
        let num_chunks = trials.div_ceil(chunk);
        let chunk_range = move |c: u64| (c * chunk)..((c + 1) * chunk).min(trials);
        let workers = self
            .threads
            .min(usize::try_from(num_chunks).unwrap_or(usize::MAX))
            .max(1);

        // Timed execution of one chunk: the disabled recorder costs a
        // single branch, no clock reads.
        let run_chunk = |state: &mut S, c: u64, stats: &mut [RunningStats]| {
            let range = chunk_range(c);
            if self.recorder.is_enabled() {
                let trials = range.end - range.start;
                let started = Instant::now();
                body(state, range, stats);
                self.recorder.observe(ChunkTiming {
                    chunk: c,
                    trials,
                    nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                });
            } else {
                body(state, range, stats);
            }
        };

        let per_chunk: Vec<Vec<RunningStats>> = if workers == 1 {
            let mut state = init(0);
            (0..num_chunks)
                .map(|c| {
                    let mut stats = vec![RunningStats::new(); lanes];
                    run_chunk(&mut state, c, &mut stats);
                    stats
                })
                .collect()
        } else {
            // One worker per thread; worker `w` owns chunks `w, w+W, w+2W, …`
            // (static striding — assignment is deterministic, and since each
            // chunk's accumulator is a pure function of its trial range, the
            // assignment could be anything without changing results).
            let worker_outputs: Vec<Vec<(u64, Vec<RunningStats>)>> = std::thread::scope(|scope| {
                let init = &init;
                let run_chunk = &run_chunk;
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut state = init(w);
                            let mut out = Vec::new();
                            let mut c = w as u64;
                            while c < num_chunks {
                                let mut stats = vec![RunningStats::new(); lanes];
                                run_chunk(&mut state, c, &mut stats);
                                out.push((c, stats));
                                c += workers as u64;
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("trial worker panicked"))
                    .collect()
            });
            let mut per_chunk = vec![Vec::new(); usize::try_from(num_chunks).expect("chunk count")];
            for worker_out in worker_outputs {
                for (c, stats) in worker_out {
                    per_chunk[usize::try_from(c).expect("chunk index")] = stats;
                }
            }
            per_chunk
        };

        // Canonical reduction: left fold in chunk-index order.  Merging into
        // empty lanes is a bitwise copy, so chunk 0 seeds the fold exactly.
        let mut merged = vec![RunningStats::new(); lanes];
        for stats in &per_chunk {
            for (lane, chunk_stat) in merged.iter_mut().zip(stats) {
                lane.merge(chunk_stat);
            }
        }
        merged
    }
}

/// Parses a `PIE_THREADS`-style value: a positive integer; `0`, empty, or
/// unparsable values are rejected (callers then fall back to the hardware
/// default).
#[must_use]
pub fn parse_threads(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .as_deref()
        .and_then(parse_threads)
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random per-trial observation (SplitMix64-ish
    /// mix so lanes and trials decorrelate).
    fn observation(t: u64, lane: u64) -> f64 {
        let mut x = t
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x = (x ^ (x >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn run_at(threads: usize, trials: u64, lanes: usize) -> Vec<RunningStats> {
        TrialRunner::with_threads(threads).run(
            trials,
            lanes,
            |_| (),
            |(), t, stats| {
                for (lane, stat) in stats.iter_mut().enumerate() {
                    stat.push(observation(t, lane as u64));
                }
            },
        )
    }

    #[test]
    fn thread_count_never_changes_results() {
        for trials in [0, 1, 15, 16, 17, 100, 333] {
            let reference = run_at(1, trials, 3);
            for threads in [2, 3, 5, 8] {
                assert_eq!(run_at(threads, trials, 3), reference, "{threads} threads");
            }
        }
    }

    #[test]
    fn engine_matches_plain_push_within_tolerance() {
        let trials = 500u64;
        let engine = run_at(4, trials, 1);
        let direct = RunningStats::from_values((0..trials).map(|t| observation(t, 0)));
        assert_eq!(engine[0].count(), direct.count());
        assert!((engine[0].mean() - direct.mean()).abs() <= 1e-12);
        assert!((engine[0].variance() - direct.variance()).abs() <= 1e-12);
        assert_eq!(engine[0].min(), direct.min());
        assert_eq!(engine[0].max(), direct.max());
    }

    #[test]
    fn worker_state_is_initialized_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let runner = TrialRunner::with_threads(3);
        let stats = runner.run(
            64,
            1,
            |_w| {
                inits.fetch_add(1, Ordering::SeqCst);
            },
            |(), t, stats| stats[0].push(t as f64),
        );
        assert_eq!(stats[0].count(), 64);
        let n = inits.load(Ordering::SeqCst);
        assert!(n <= 3, "at most one init per worker, got {n}");
    }

    #[test]
    fn zero_trials_yields_empty_lanes() {
        let stats = run_at(4, 0, 2);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].count(), 0);
    }

    #[test]
    fn builders_clamp_and_report() {
        let r = TrialRunner::with_threads(0).chunk_trials(0);
        assert_eq!(r.thread_count(), 1);
        assert_eq!(r.chunk_width(), 1);
        let r = TrialRunner::with_threads(6).chunk_trials(128);
        assert_eq!(r.thread_count(), 6);
        assert_eq!(r.chunk_width(), 128);
    }

    #[test]
    fn recorder_sees_every_chunk_and_never_changes_results() {
        use std::sync::Mutex;
        let timings: Arc<Mutex<Vec<ChunkTiming>>> = Arc::new(Mutex::new(Vec::new()));
        let hook = {
            let timings = Arc::clone(&timings);
            Arc::new(move |t: ChunkTiming| timings.lock().unwrap().push(t))
        };
        let recorded = TrialRunner::with_threads(3)
            .recorder(Recorder::new(hook))
            .run(
                100,
                2,
                |_| (),
                |(), t, stats| {
                    for (lane, stat) in stats.iter_mut().enumerate() {
                        stat.push(observation(t, lane as u64));
                    }
                },
            );
        assert_eq!(
            recorded,
            run_at(3, 100, 2),
            "recording must not change results"
        );
        let mut timings = timings.lock().unwrap().clone();
        timings.sort_by_key(|t| t.chunk);
        // 100 trials / TRIAL_CHUNK(16) = 7 chunks, the last covering 4.
        assert_eq!(timings.len(), 7);
        assert_eq!(timings.iter().map(|t| t.trials).sum::<u64>(), 100);
        assert_eq!(timings[6].trials, 4);
        // Equality ignores the recorder: an instrumented runner is the same
        // runner.
        assert_eq!(
            TrialRunner::with_threads(3).recorder(Recorder::disabled()),
            TrialRunner::with_threads(3)
        );
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("eight"), None);
    }
}
