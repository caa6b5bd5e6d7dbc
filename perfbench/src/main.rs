//! The repository benchmark: one command for the estimator stack's three
//! workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval_fig7|serve_cold|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  With `--trace 0` the last line of
//! standard output is a JSON object holding every end-to-end metric; with
//! `--trace 1` it holds every per-layer metric.  Earlier lines stamp the
//! run and give the sample counts and the output checks.  See
//! `perfbench/README.md` for the workloads and what each metric should
//! move.

mod cold;
mod eval;
mod fixtures;
mod host;
mod layers;
mod mixed;
mod serve;
mod stats;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::path::Path;

use host::Reference;

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
    ("op_success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Server stages whose spans each request kind carries.
pub const SERVE_STAGES: [(&str, &[&str]); 3] = [
    (
        "estimate",
        &[
            "decode",
            "admission",
            "cache_probe",
            "trial_replay",
            "estimator_batch",
            "encode",
            "write_queue",
        ],
    ),
    (
        "batch",
        &[
            "decode",
            "admission",
            "cache_probe",
            "trial_replay",
            "estimator_batch",
            "encode",
            "write_queue",
        ],
    ),
    ("ingest", &["decode", "admission", "encode", "write_queue"]),
];

/// Estimators of the suites the workloads serve.
pub const ESTIMATORS: [&str; 9] = [
    "max_ht_pps",
    "max_l_pps_2",
    "max_ht_oblivious",
    "max_l_2",
    "max_u_2",
    "max_l_uniform",
    "or_ht_oblivious",
    "or_l_2",
    "or_u_2",
];

/// Per-layer metrics, from the traced run, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("sampling.sample_all_ns_per_record", "ns"),
        ("sampling.ingest_ns_per_record", "ns"),
        ("sampling.merge_finalize_us_per_trial", "us"),
        ("sampling.sampled_keys_per_trial", "count"),
        ("lanes.key_union_ns_per_key", "ns"),
        ("lanes.fill_ns_per_key", "ns"),
        ("lanes.keys_per_trial", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for estimator in ESTIMATORS {
        names.push((format!("core.{estimator}.ns_per_key"), "ns"));
    }
    for (name, unit) in [
        ("analysis.accumulate_us_per_trial", "us"),
        ("eval.unattributed_pct", "%"),
        ("eval.untraced_trial_us", "us"),
        ("eval.traced_layers_us", "us"),
        ("catalog.estimate_ms", "ms"),
        ("catalog.trial_replay_ms", "ms"),
        ("catalog.estimator_batch_ms", "ms"),
        ("catalog.entry_bytes", "bytes"),
        ("store.encode_mb_per_s", "MB/s"),
        ("store.decode_mb_per_s", "MB/s"),
        ("wire.encode_ns", "ns"),
        ("wire.decode_ns", "ns"),
        ("engine.cache_probe_ns", "ns"),
        ("engine.admit_ns", "ns"),
        ("engine.cache_hit_ratio", "ratio"),
    ] {
        names.push((name.to_string(), unit));
    }
    for (kind, stages) in SERVE_STAGES {
        for stage in stages {
            names.push((format!("serve.{kind}.{stage}_us"), "us"));
        }
        names.push((format!("serve.{kind}.unattributed_us"), "us"));
        names.push((format!("serve.{kind}.round_trip_us"), "us"));
    }
    for (name, unit) in [
        ("serve.epoll_wakeups_per_request", "count"),
        ("bench.generator_lag_ms", "ms"),
        ("obs.overhead_pct", "%"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in [1, 600]".into());
    }
    Ok(args)
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: name and whether it passed.
    pub checks: Vec<(String, bool)>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed ahead of the result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Where the traced run writes its spans, under the benchmark directory.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    Path::new("perfbench")
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

/// FNV-1a over the sources the benchmark builds against, so a result
/// names the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn visit(path: &Path, files: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            if let Ok(entries) = std::fs::read_dir(path) {
                let mut entries: Vec<_> =
                    entries.filter_map(Result::ok).map(|e| e.path()).collect();
                entries.sort();
                for entry in entries {
                    visit(&entry, files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo",
        "src",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        visit(Path::new(root), &mut files);
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |c| c.trim().to_string())
}

/// The host's CPU time counters from `/proc/stat`: (steal, total) jiffies.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Runs a workload's set-up `SETUP_REPS` times, dropping each result (a
/// server shuts down on drop) before building the next, and returns the
/// last result with the median set-up time in CPU seconds at nominal host
/// speed (each repetition divided by the host slowdown read just before it).
pub fn timed_setup<T>(
    reference: &Reference,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let slowdown = reference.slowdown();
        let started = host::cpu_s();
        last = Some(build()?);
        times.push((host::cpu_s() - started) / slowdown);
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn json_number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("non-finite value {value}"))
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let threads = threads_available();
    println!(
        "# stamp: workload={} seed={} seconds={} trace={} git_commit={} source_digest={} \
         threads_available={threads} rustc=\"{}\" target_features={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        source_digest(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_TARGET_FEATURES"),
    );
    if threads == 1 {
        println!(
            "# note: 1 hardware thread: every multi-thread row measures overhead, not scaling"
        );
    }
    let steal_before = cpu_steal();
    if args.trace {
        // Each traced run writes its spans afresh.
        let _ = std::fs::remove_file(trace_path(&args));
    }
    let outcome = match args.workload.as_str() {
        "eval_fig7" => eval::run(&args)?,
        "serve_cold" => cold::run(&args)?,
        "serve_mixed" => mixed::run(&args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for line in &outcome.lines {
        println!("# {line}");
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_steal()) {
        // Time the hypervisor ran something else on this guest's CPUs: a
        // run with high steal is slower for reasons outside the program.
        println!(
            "# host: {:.1}% of CPU time stolen during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    for (name, passed) in &outcome.checks {
        println!("# check {}: {name}", if *passed { "ok" } else { "FAILED" });
    }
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in &catalog {
        let value = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value).map_err(|e| format!("{name}: {e}"))?
        ));
    }
    let correct = outcome.checks.iter().all(|(_, passed)| *passed) && !outcome.checks.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(error) = run() {
        eprintln!("perfbench: {error}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must name exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|item| {
                    let field = |key: &str| {
                        let at = item.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &item[at + key.len() + 2..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("string closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
