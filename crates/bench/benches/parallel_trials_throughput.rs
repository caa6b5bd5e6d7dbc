//! Trial-loop throughput of the parallel deterministic trial engine on the
//! Figure 7 traffic workload (max-dominance over two hours of heavy-tailed
//! traffic, PPS sampling): the legacy bespoke sequential trial loop versus
//! the `Pipeline` running on `TrialRunner` at 1/2/4/8 worker threads.
//!
//! Two effects are measured:
//!
//! * **engine vs. bespoke loop** — even single-threaded, the pipeline's
//!   pooled sketch ingest, outcome lanes and `estimate_lanes` kernels beat
//!   the legacy per-trial loop (`sample_all` per trial, fresh per-key
//!   outcome construction, one virtual call per key per estimator);
//! * **thread scaling** — trial chunks run one per worker thread; on
//!   multi-core hosts the threaded rows drop proportionally, while on a
//!   single hardware thread they only pay the (small) spawn + merge
//!   overhead.  The JSON records `threads_available` so trajectory files
//!   stay interpretable across machines.
//!
//! Reports are asserted bit-identical across every thread count each run —
//! the speedup is never bought with a different answer.
//!
//! Besides the console table, running this bench rewrites
//! `BENCH_parallel_trials_throughput.json` at the workspace root (uploaded
//! as a CI artifact).
//!
//! ```text
//! cargo bench -p pie-bench --bench parallel_trials_throughput
//! ```

use std::sync::Arc;
use std::time::Instant;

use partial_info_estimators::{Pipeline, PipelineReport, Scheme, Statistic};
use pie_analysis::RunningStats;
use pie_core::aggregate::{max_dominance_ht, max_dominance_l, true_max_dominance};
use pie_core::suite::max_weighted_suite;
use pie_datagen::{generate_two_hours, TrafficConfig};
use pie_sampling::{sample_all, Instance, PpsPoissonSampler, SeedAssignment};

/// Figure 7 regime, scaled up: 2 instances × 100k keys.
const KEYS_PER_INSTANCE: usize = 100_000;
const TAU_STAR: f64 = 200.0;
/// 160 trials = 10 reduction chunks at the default chunk width, enough to
/// keep 8 workers fed (the chunk partition is fixed by the trial count, so
/// parallelism is capped at `trials / TRIAL_CHUNK` chunks).
const TRIALS: u64 = 160;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ROUNDS: usize = 3;

struct Case {
    name: String,
    ms: f64,
    trials_per_sec: f64,
}

fn measure_case(name: impl Into<String>, trials: u64, mut pass: impl FnMut()) -> Case {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    Case {
        name: name.into(),
        ms: best,
        trials_per_sec: trials as f64 / (best / 1e3),
    }
}

/// The legacy trial loop this PR's engine replaced: one bespoke pass per
/// trial — fresh samples, per-key aggregate estimators called one key at a
/// time, straight sequential accumulation.
fn legacy_sequential_loop(dataset: &pie_datagen::Dataset, base_salt: u64) -> (f64, f64) {
    let sampler = PpsPoissonSampler::new(TAU_STAR);
    let mut l_stats = RunningStats::new();
    let mut ht_stats = RunningStats::new();
    for t in 0..TRIALS {
        let seeds = SeedAssignment::independent_known(base_salt.wrapping_add(t));
        let samples = sample_all(&sampler, dataset.instances(), &seeds);
        l_stats.push(max_dominance_l(&samples, &seeds, |_| true));
        ht_stats.push(max_dominance_ht(&samples, &seeds, |_| true));
    }
    (l_stats.variance(), ht_stats.variance())
}

fn pipeline_at(data: &Arc<pie_datagen::Dataset>, threads: usize, base_salt: u64) -> PipelineReport {
    Pipeline::new()
        .dataset(Arc::clone(data))
        .scheme(Scheme::pps(TAU_STAR))
        .estimators(max_weighted_suite())
        .statistic(Statistic::max_dominance())
        .trials(TRIALS)
        .base_salt(base_salt)
        .threads(threads)
        .run()
        .expect("pipeline runs")
}

fn main() {
    let mut config = TrafficConfig::paper_scale();
    config.keys_per_hour = KEYS_PER_INSTANCE;
    config.flows_per_hour = 2.2e6;
    let data = Arc::new(generate_two_hours(&config));
    let records: usize = data.instances().iter().map(Instance::len).sum();
    let truth = true_max_dominance(data.instances(), |_| true);
    let threads_available = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "fig7 traffic workload: {records} records over {} instances, {TRIALS} trials, \
         truth {truth:.3e}, {threads_available} hardware thread(s)\n",
        data.num_instances()
    );

    let base_salt = 0xF1_60_07;
    let mut cases: Vec<Case> = Vec::new();

    let case = measure_case("legacy_sequential_trial_loop", TRIALS, || {
        std::hint::black_box(legacy_sequential_loop(&data, base_salt));
    });
    let legacy_ms = case.ms;
    println!(
        "{:<36} {:>9.2} ms  ({:>7.1} trials/s)",
        case.name, case.ms, case.trials_per_sec
    );
    cases.push(case);

    let mut reference: Option<PipelineReport> = None;
    for threads in THREAD_COUNTS {
        let mut report: Option<PipelineReport> = None;
        let case = measure_case(format!("pipeline_trials_threads_{threads}"), TRIALS, || {
            report = Some(pipeline_at(&data, threads, base_salt));
        });
        let report = report.expect("measured at least one pass");
        match &reference {
            None => reference = Some(report),
            Some(r) => assert_eq!(
                r, &report,
                "thread count must not change the report ({threads} threads)"
            ),
        }
        println!(
            "{:<36} {:>9.2} ms  ({:>7.1} trials/s, {:.2}x vs legacy loop)",
            case.name,
            case.ms,
            case.trials_per_sec,
            legacy_ms / case.ms
        );
        cases.push(case);
    }

    let find = |name: &str| {
        cases
            .iter()
            .find(|c| c.name == name)
            .expect("case measured")
    };
    let p1 = find("pipeline_trials_threads_1");
    let p8 = find("pipeline_trials_threads_8");
    let rows: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{ \"case\": \"{}\", \"ms\": {:.2}, \"trials_per_sec\": {:.1} }}",
                c.name, c.ms, c.trials_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"parallel_trials_throughput\",\n  \"workload\": \"fig7_traffic\",\n  \
         \"records\": {records},\n  \"trials\": {TRIALS},\n  \
         \"threads_available\": {threads_available},\n  \
         \"note\": \"legacy_sequential_trial_loop is the bespoke pre-engine trial loop \
         (per-trial sample_all + per-key aggregate estimators + sequential accumulation); \
         pipeline_trials_threads_N is the TrialRunner-backed Pipeline with N worker threads, \
         pooled one-shard sketch ingest per trial, SoA outcome lanes, and the estimate_lanes \
         kernels. Reports are asserted \
         bit-identical across all thread counts each run. Thread rows only scale with \
         threads_available; on a single hardware thread they measure engine overhead.\",\n  \
         \"speedup_threads8_vs_legacy_loop\": {:.2},\n  \
         \"speedup_threads8_vs_threads1\": {:.2},\n  \"results\": [\n{}\n  ]\n}}\n",
        legacy_ms / p8.ms,
        p1.ms / p8.ms,
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_trials_throughput.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    print!("{json}");
}
