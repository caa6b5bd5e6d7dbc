//! Thread-count invariance of the parallel trial engine, end to end.
//!
//! The contract (extending the `tests/stream_merge.rs` pattern from shards
//! to trial workers): the number of worker threads driving the Monte-Carlo
//! trial loop is an execution choice, **never** a statistical one.
//! `Pipeline` reports — means, variances, every floating-point field — are
//! bit-identical at 1, 2, 3, and 8 threads, for both outcome regimes, with
//! threads composed with ingest shards, and under the `PIE_THREADS`
//! environment default.

use std::sync::Arc;

use partial_info_estimators::analysis::trial::TrialRunner;
use partial_info_estimators::core::suite::{
    max_oblivious_suite, max_weighted_suite, or_oblivious_suite,
};
use partial_info_estimators::datagen::{
    generate_set_pair, generate_two_hours, paper_example, SetPairConfig, TrafficConfig,
};
use partial_info_estimators::{Pipeline, PipelineReport, Scheme, Statistic};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Runs the single-shard pipeline at a given thread count.
fn batch_report(threads: usize, scheme: Scheme, trials: u64) -> PipelineReport {
    let builder = Pipeline::new().threads(threads).trials(trials).base_salt(9);
    match scheme {
        Scheme::ObliviousPoisson { p } => builder
            .dataset(paper_example().take_instances(2))
            .scheme(scheme)
            .estimators(max_oblivious_suite(p, p))
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap(),
        Scheme::PpsPoisson { .. } => builder
            .dataset(generate_two_hours(&TrafficConfig::small(13)))
            .scheme(scheme)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap(),
    }
}

#[test]
fn oblivious_pipeline_is_bit_identical_at_every_thread_count() {
    // 150 trials: not a multiple of the chunk width, so the tail chunk is
    // exercised too.
    let reference = batch_report(1, Scheme::oblivious(0.5), 150);
    for threads in THREAD_COUNTS {
        assert_eq!(
            batch_report(threads, Scheme::oblivious(0.5), 150),
            reference,
            "{threads} threads"
        );
    }
}

#[test]
fn pps_pipeline_is_bit_identical_at_every_thread_count() {
    let reference = batch_report(1, Scheme::pps(140.0), 75);
    for threads in THREAD_COUNTS {
        assert_eq!(
            batch_report(threads, Scheme::pps(140.0), 75),
            reference,
            "{threads} threads"
        );
    }
}

#[test]
fn stream_pipeline_is_bit_identical_across_threads_and_shards() {
    let data = Arc::new(generate_two_hours(&TrafficConfig::small(21)));
    let run = |threads: usize, shards: usize| {
        Pipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::pps(160.0))
            .shards(shards)
            .threads(threads)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(30)
            .base_salt(4)
            .run()
            .unwrap()
    };
    let reference = run(1, 1);
    for threads in THREAD_COUNTS {
        for shards in [1, 3] {
            assert_eq!(
                run(threads, shards),
                reference,
                "{threads} threads, {shards} shards"
            );
        }
    }
}

#[test]
fn oblivious_pipeline_is_bit_identical_across_threads_and_shards() {
    let data = Arc::new(generate_set_pair(&SetPairConfig::new(250, 0.4)));
    let run = |threads: usize, shards: usize| {
        Pipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::oblivious(0.4))
            .shards(shards)
            .threads(threads)
            .estimators(or_oblivious_suite(0.4, 0.4))
            .statistic(Statistic::distinct_count())
            .trials(60)
            .run()
            .unwrap()
    };
    let reference = run(2, 1);
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads, 2), reference, "{threads} threads");
    }
}

/// A compact, order-stable digest of a report's floating-point content, for
/// comparing reports across process boundaries.
fn report_digest(report: &PipelineReport) -> String {
    report
        .estimators
        .iter()
        .map(|e| {
            format!(
                "{}:{:016x}:{:016x}",
                e.name,
                e.evaluation.mean.to_bits(),
                e.evaluation.variance.to_bits()
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The `PIE_THREADS` environment default routes through the same engine, so
/// whatever it selects must reproduce the explicit-thread-count reports.
///
/// The env-configured run happens in a *child process* (this same test
/// binary re-invoked with `PIE_THREADS` set): mutating the parent's
/// environment with `set_var` would race against concurrent test threads
/// reading it inside `TrialRunner::new`.
#[test]
fn env_thread_default_reproduces_explicit_thread_counts() {
    const CHILD_MARKER: &str = "PIE_TEST_EMIT_ENV_REPORT";
    let run_default_threads = || {
        Pipeline::new()
            .trials(40)
            .base_salt(9)
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap()
    };
    if std::env::var_os(CHILD_MARKER).is_some() {
        // Child mode: report the digest computed under the parent-chosen
        // PIE_THREADS and stop (no further recursion — the marker is only
        // set by the parent spawn below).
        println!(
            "ENV_REPORT_DIGEST={}",
            report_digest(&run_default_threads())
        );
        return;
    }
    let reference = report_digest(&batch_report(1, Scheme::oblivious(0.5), 40));
    for pie_threads in ["1", "3", "8"] {
        let output = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "env_thread_default_reproduces_explicit_thread_counts",
                "--nocapture",
            ])
            .env(CHILD_MARKER, "1")
            .env("PIE_THREADS", pie_threads)
            .output()
            .expect("re-running the test binary succeeds");
        assert!(output.status.success(), "child run failed: {output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        // libtest may print its own "test … ..." prefix on the same line,
        // so locate the marker anywhere and read to the next whitespace.
        let digest = stdout
            .split_once("ENV_REPORT_DIGEST=")
            .map(|(_, rest)| rest.split_whitespace().next().unwrap_or(""))
            .unwrap_or_else(|| panic!("no digest in child output: {stdout}"));
        assert_eq!(digest, reference, "PIE_THREADS={pie_threads}");
    }
    // And the runner itself honors the variable's absence gracefully.
    assert!(TrialRunner::new().thread_count() >= 1);
}

/// Trial counts around the chunk boundary all agree across thread counts
/// (off-by-one chunk partitioning would show up exactly here).
#[test]
fn chunk_boundary_trial_counts_stay_invariant() {
    for trials in [1, 15, 16, 17, 32, 33] {
        let reference = batch_report(1, Scheme::oblivious(0.5), trials);
        assert_eq!(reference.trials, trials);
        for threads in [2, 8] {
            assert_eq!(
                batch_report(threads, Scheme::oblivious(0.5), trials),
                reference,
                "{trials} trials, {threads} threads"
            );
        }
    }
}
