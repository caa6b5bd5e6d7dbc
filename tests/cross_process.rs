//! Cross-process sharded merge smoke test.
//!
//! Child processes (re-invocations of this test binary, selected via an
//! environment variable) each ingest one key-partitioned shard of the
//! Figure 7 max-dominance traffic workload and write their sketch snapshots
//! with [`Pipeline::write_shard_snapshots`].  The parent then loads
//! every shard's files with [`Pipeline::run_from_shard_snapshots`],
//! merges them through the same binary merge tree as in-process ingestion,
//! and asserts the report **bit-identical** to the single-process
//! [`Pipeline::run`] — serialization and process boundaries must not
//! perturb a single bit.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;

use partial_info_estimators::core::suite::max_weighted_suite;
use partial_info_estimators::datagen::{generate_two_hours, Dataset, TrafficConfig};
use partial_info_estimators::{Pipeline, Scheme, Statistic};

const ENV_DIR: &str = "PIE_SHARD_WORKER_DIR";
const ENV_SHARD: &str = "PIE_SHARD_WORKER_SHARD";
const ENV_SHARDS: &str = "PIE_SHARD_WORKER_SHARDS";

/// The fig7-style workload: two hours of heavy-tailed keyed traffic,
/// regenerated identically in every process from the same config.
fn traffic() -> Arc<Dataset> {
    Arc::new(generate_two_hours(&TrafficConfig::small(42)))
}

/// The shared experiment configuration; every process must build it
/// identically for the manifests to validate.
fn pipeline(data: &Arc<Dataset>, shards: usize) -> Pipeline {
    Pipeline::new()
        .dataset(Arc::clone(data))
        .scheme(Scheme::pps(180.0))
        .shards(shards)
        .estimators(max_weighted_suite())
        .statistic(Statistic::max_dominance())
        .trials(10)
        .base_salt(77)
}

/// The child-process entry point: a no-op under a normal `cargo test` run,
/// a shard worker when the parent test re-invokes the binary with the
/// `PIE_SHARD_WORKER_*` environment set.
#[test]
fn shard_worker_child() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let shard: usize = std::env::var(ENV_SHARD).unwrap().parse().unwrap();
    let shards: usize = std::env::var(ENV_SHARDS).unwrap().parse().unwrap();
    let data = traffic();
    pipeline(&data, shards)
        .write_shard_snapshots(shard, PathBuf::from(dir))
        .unwrap();
}

#[test]
fn cross_process_shard_merge_is_bit_identical_to_single_process() {
    let exe = std::env::current_exe().unwrap();
    let data = traffic();
    // Two shard counts: the acceptance bar is ≥ 2 — two child processes for
    // shards = 2, three for shards = 3.
    for shards in [2usize, 3] {
        let dir =
            std::env::temp_dir().join(format!("pie-cross-process-{}-{shards}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Each child is a separate OS process ingesting one key range.  Their
        // harness output is captured rather than inherited, so concurrent
        // children cannot interleave lines into this binary's own output.
        let children: Vec<_> = (0..shards)
            .map(|s| {
                Command::new(&exe)
                    .arg("shard_worker_child")
                    .arg("--exact")
                    .env(ENV_DIR, &dir)
                    .env(ENV_SHARD, s.to_string())
                    .env(ENV_SHARDS, shards.to_string())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("spawn shard worker")
            })
            .collect();
        for child in children {
            let out = child.wait_with_output().expect("await shard worker");
            assert!(
                out.status.success(),
                "shard worker failed: {}\n{}{}",
                out.status,
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }

        let merged = pipeline(&data, shards)
            .run_from_shard_snapshots(&dir)
            .unwrap();
        let single_process = pipeline(&data, shards).run().unwrap();
        assert_eq!(
            merged, single_process,
            "{shards}-process merge must be bit-identical to the in-process run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
