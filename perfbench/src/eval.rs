//! `eval_fig7`: Monte-Carlo evaluation of the Fig. 7 max-dominance query
//! over paper-scale traffic — all sampling, lane fill, kernels and the
//! trial loop, with no serving.
//!
//! Each step runs one batch of trials twice with the same salts, on one
//! thread, alternating which goes first: through `Pipeline::run`, which
//! samples each trial with `sample_all` (the primary row), and through
//! `StreamPipeline::run` with one shard, which replays the records through
//! a sketch (the secondary row).  The two reports must be bit-identical.
//!
//! Every call is timed on the process CPU clock and divided by the mean of
//! the host slowdowns read right before and right after its pair (see
//! `host.rs`).  Both rows run on one thread because only serial work has a
//! CPU time equal to its latency: a call on both vCPUs of a two-vCPU guest
//! is stretched by steal on either of them, and its p90 spread by a third
//! between runs of identical code.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use partial_info_estimators::{Pipeline, PipelineReport, Scheme, Statistic, StreamPipeline};
use pie_analysis::Evaluation;
use pie_core::suite::max_weighted_suite;
use pie_datagen::Dataset;
use pie_testkit::{check_unbiased, check_variance_ordering};

use crate::fixtures::{derive, paper_traffic, tau_star_for_fraction, Served, SAMPLED_FRACTION};
use crate::host::{cpu_s, Reference};
use crate::stats::{median, summarize};
use crate::{peak_rss_mb, timed_setup, traced, Args, Outcome};

/// Trials per call.
pub const BATCH_TRIALS: u64 = 32;
/// Tail percentile of the call latencies.
const TAIL_Q: f64 = 0.9;
/// Fewest calls per row: enough for p90 to have ten calls beyond it.
const MIN_CALLS: usize = 110;
/// Confidence half-width, in standard errors, of the unbiasedness checks.
const UNBIASED_Z: f64 = 5.0;
/// Monte-Carlo slack of the Var[L] ≤ Var[HT] check.
const VARIANCE_MARGIN: f64 = 0.05;

struct Fixture {
    dataset: Arc<Dataset>,
    tau_star: f64,
}

fn setup(seed: u64) -> Fixture {
    let dataset = paper_traffic(seed);
    let tau_star = tau_star_for_fraction(&dataset, SAMPLED_FRACTION);
    Fixture { dataset, tau_star }
}

/// The two ways of running one batch of trials.
#[derive(Clone, Copy)]
enum Path {
    /// `Pipeline::run`: `sample_all` per trial.
    Batch,
    /// `StreamPipeline::run` with one shard: sketch ingest per trial.
    Stream,
}

fn evaluate(fx: &Fixture, base_salt: u64, path: Path) -> PipelineReport {
    let report = match path {
        Path::Batch => Pipeline::new()
            .dataset(Arc::clone(&fx.dataset))
            .scheme(Scheme::pps(fx.tau_star))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(BATCH_TRIALS)
            .base_salt(base_salt)
            .threads(1)
            .run(),
        Path::Stream => StreamPipeline::new()
            .dataset(Arc::clone(&fx.dataset))
            .scheme(Scheme::pps(fx.tau_star))
            .shards(1)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(BATCH_TRIALS)
            .base_salt(base_salt)
            .threads(1)
            .run(),
    };
    report.expect("the evaluation pipeline is fully configured")
}

/// Pools per-call evaluations of one estimator into one over all trials
/// (Chan et al.'s parallel mean/variance update).
#[derive(Default, Clone, Copy)]
struct Pool {
    trials: f64,
    mean: f64,
    m2: f64,
    truth: f64,
}

impl Pool {
    fn push(&mut self, e: &Evaluation) {
        let n = e.trials as f64;
        let total = self.trials + n;
        let delta = e.mean - self.mean;
        self.mean += delta * n / total;
        self.m2 += e.variance * n + delta * delta * self.trials * n / total;
        self.trials = total;
        self.truth = e.truth;
    }

    fn evaluation(&self) -> Evaluation {
        Evaluation {
            truth: self.truth,
            mean: self.mean,
            variance: self.m2 / self.trials,
            relative_bias: (self.mean - self.truth).abs() / self.truth,
            trials: self.trials as u64,
        }
    }
}

/// The calls of one measurement loop.
#[derive(Default)]
struct Calls {
    /// Call CPU times at nominal host speed.
    primary_ms: Vec<f64>,
    secondary_ms: Vec<f64>,
    /// The host slowdown each pair was divided by.
    slowdowns: Vec<f64>,
    /// Time between calls spent in the loop's own bookkeeping.
    gaps_ms: Vec<f64>,
    mismatches: u64,
    ht: Pool,
    l: Pool,
}

/// Runs call pairs until `deadline` has passed and each row has `min` calls.
fn measure(
    fx: &Fixture,
    reference: &Reference,
    first_salt: u64,
    deadline: Instant,
    min: usize,
) -> Calls {
    let mut calls = Calls::default();
    let mut last_end: Option<Instant> = None;
    let mut before = reference.slowdown();
    for b in 0u64.. {
        if Instant::now() >= deadline && calls.primary_ms.len() >= min {
            break;
        }
        let salt = first_salt.wrapping_add(b * BATCH_TRIALS);
        let mut timed = |path: Path| {
            let started = Instant::now();
            if let Some(end) = last_end {
                calls.gaps_ms.push((started - end).as_secs_f64() * 1e3);
            }
            let cpu = cpu_s();
            let report = evaluate(fx, salt, path);
            let cpu_ms = (cpu_s() - cpu) * 1e3;
            last_end = Some(Instant::now());
            (cpu_ms, report)
        };
        let ((p_ms, primary), (s_ms, secondary)) = if b % 2 == 0 {
            let p = timed(Path::Batch);
            (p, timed(Path::Stream))
        } else {
            let s = timed(Path::Stream);
            (timed(Path::Batch), s)
        };
        let after = reference.slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        last_end = Some(Instant::now());
        calls.primary_ms.push(p_ms / slowdown);
        calls.secondary_ms.push(s_ms / slowdown);
        calls.slowdowns.push(slowdown);
        if primary != secondary {
            calls.mismatches += 1;
        }
        for (name, pool) in [("max_ht_pps", &mut calls.ht), ("max_l_pps_2", &mut calls.l)] {
            pool.push(
                primary
                    .get(name)
                    .expect("the max-weighted suite reports it"),
            );
        }
        black_box(secondary);
    }
    calls
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let reference = Reference::new();
    let (fx, setup_s) = timed_setup(&reference, || Ok(setup(args.seed)))?;
    let first_salt = derive(args.seed, 10);
    // Warm-up: allocator pools and page faults.
    black_box(evaluate(&fx, first_salt, Path::Batch));
    black_box(evaluate(&fx, first_salt, Path::Stream));

    if args.trace {
        return traced_run(args, &fx, &reference, first_salt, out);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let calls = measure(&fx, &reference, first_salt, deadline, MIN_CALLS);
    let primary = summarize("primary calls", &calls.primary_ms, TAIL_Q)?;
    let secondary = summarize("secondary calls", &calls.secondary_ms, TAIL_Q)?;
    // Trials per second at the median call: robust to the calls another
    // tenant of the host slowed down.
    let trials_per_s = BATCH_TRIALS as f64 * 1e3 / primary.p50;
    out.attempted = 2 * calls.primary_ms.len() as u64;
    out.failed = 0;
    out.check(
        format!(
            "Pipeline and StreamPipeline reports are bit-identical on all {} batches",
            calls.primary_ms.len()
        ),
        calls.mismatches == 0,
    );
    let ht = calls.ht.evaluation();
    let l = calls.l.evaluation();
    for (name, eval) in [("max_ht_pps", &ht), ("max_l_pps_2", &l)] {
        let verdict = check_unbiased(name, eval, UNBIASED_Z);
        if let Err(failure) = &verdict {
            out.line(failure.to_string());
        }
        out.check(
            format!(
                "{name} unbiased within {UNBIASED_Z} SE over {} trials",
                eval.trials
            ),
            verdict.is_ok(),
        );
    }
    out.check(
        format!(
            "Var[L] {:.4e} <= Var[HT] {:.4e} (margin {VARIANCE_MARGIN})",
            l.variance, ht.variance
        ),
        check_variance_ordering(
            &[("max_l_pps_2", l.variance), ("max_ht_pps", ht.variance)],
            VARIANCE_MARGIN,
        )
        .is_ok(),
    );
    out.line(format!(
        "primary: Pipeline::run threads=1, {BATCH_TRIALS} trials/call: \
         n={} p50={:.3} ms p90={:.3} ms",
        primary.count, primary.p50, primary.tail
    ));
    out.line(format!(
        "secondary: StreamPipeline::run shards=1 threads=1, {BATCH_TRIALS} trials/call: \
         n={} p50={:.3} ms p90={:.3} ms",
        secondary.count, secondary.p50, secondary.tail
    ));
    out.line(format!(
        "eval_trials_per_s={trials_per_s:.1}; CPU times at nominal host speed, \
         host slowdown p50={:.3}",
        median(&calls.slowdowns)
    ));
    out.put("setup_s", setup_s);
    out.put("throughput_per_s", trials_per_s);
    out.put("primary_p50_ms", primary.p50);
    out.put("primary_tail_ms", primary.tail);
    out.put("secondary_p50_ms", secondary.p50);
    out.put("secondary_tail_ms", secondary.tail);
    out.put(
        "op_success_ratio",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    out.put("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The traced run: the layer probes over this workload's traffic pair,
/// the loop's own lag, and a short traced serving session for the server
/// layers (this workload has none of its own).
fn traced_run(
    args: &Args,
    fx: &Fixture,
    reference: &Reference,
    first_salt: u64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let trials = ((args.seconds * 8.0) as u64).clamp(32, 480) / 16 * 16;
    let traffic = Served::build(
        "traffic",
        Arc::clone(&fx.dataset),
        Scheme::pps(fx.tau_star),
        crate::fixtures::TRAFFIC_TRIALS,
        first_salt,
    );
    let sets = Served::sets(args.seed);
    let overhead = traced::probe_layers(
        args,
        &mut out,
        &fx.dataset,
        fx.tau_star,
        first_salt,
        trials,
        &[&traffic, &sets],
        &sets,
    )?;
    out.put("obs.overhead_pct", overhead);
    let calls = measure(fx, reference, first_salt, Instant::now(), 8);
    out.put(
        "bench.generator_lag_ms",
        calls.gaps_ms.iter().sum::<f64>() / calls.gaps_ms.len() as f64,
    );
    let phase = traced::probe_session(
        &[&traffic, &sets],
        args.seed,
        (args.seconds * 0.15).max(1.0),
    )?;
    traced::serve_layers(args, &mut out, &phase, &["estimate", "batch", "ingest"])?;
    traced::engine_layers(&mut out, &phase);
    out.attempted = 2 * calls.primary_ms.len() as u64 + phase.done.len() as u64;
    out.failed = phase.done.iter().filter(|d| !d.ok).count() as u64;
    out.check("traced session requests all succeeded", out.failed == 0);
    out.check(
        "Pipeline and StreamPipeline reports are bit-identical on the traced batches",
        calls.mismatches == 0,
    );
    Ok(out)
}
