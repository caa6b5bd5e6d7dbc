//! Checkpoint → restart → resume, with a bit-identical report.
//!
//! Simulates the production failure story on the traffic workload: a
//! sharded ingest session processes half the record stream, checkpoints its
//! per-`(instance, shard)` sketch state to versioned snapshot files, and
//! "crashes" (the session is dropped).  A fresh, identically configured
//! pipeline resumes from the checkpoint directory, ingests the remaining
//! records, and finishes — and the resulting report is **bit-identical** to
//! an uninterrupted [`Pipeline::run`].  The report itself is then
//! persisted and reloaded through the same snapshot codec.
//!
//! Run with:
//! ```text
//! cargo run --release --example checkpoint_resume
//! ```

use std::sync::Arc;

use partial_info_estimators::core::suite::max_weighted_suite;
use partial_info_estimators::datagen::{generate_two_hours, Dataset, TrafficConfig};
use partial_info_estimators::{Pipeline, PipelineReport, Scheme, Statistic};

fn configure(data: &Arc<Dataset>) -> Pipeline {
    Pipeline::new()
        .dataset(Arc::clone(data))
        .scheme(Scheme::pps(120.0))
        .shards(4)
        .estimators(max_weighted_suite())
        .statistic(Statistic::max_dominance())
        .trials(20)
        .base_salt(11)
}

fn main() {
    let mut config = TrafficConfig::small(21);
    config.keys_per_hour = 20_000;
    config.flows_per_hour = 4.5e5;
    let data = Arc::new(generate_two_hours(&config));
    let dir = std::env::temp_dir().join(format!("pie-checkpoint-example-{}", std::process::id()));

    // First process: ingest half the stream, checkpoint, crash.
    let mut session = configure(&data)
        .ingest_session()
        .expect("pipeline is fully configured");
    let half = session.total_records() / 2;
    session.ingest_records(half);
    session.checkpoint(&dir).expect("write snapshot files");
    println!(
        "ingested {} of {} records, checkpointed to {}",
        session.ingested(),
        session.total_records(),
        dir.display()
    );
    drop(session); // the "crash": all in-memory sketch state is gone

    // Second process: an identically configured pipeline resumes.
    let mut resumed = configure(&data)
        .resume(&dir)
        .expect("manifest matches the configuration");
    println!(
        "resumed at watermark {} ({} records remaining)",
        resumed.ingested(),
        resumed.remaining()
    );
    resumed.ingest_all();
    let report = resumed.finish().expect("stream fully ingested");

    // The uninterrupted run, for comparison.
    let uninterrupted = configure(&data).run().expect("same configuration");
    assert_eq!(
        report, uninterrupted,
        "checkpoint → resume must reproduce the uninterrupted report bit for bit"
    );
    println!("\n{}", report.render());
    println!("resumed report is bit-identical to the uninterrupted run.");

    // Reports snapshot through the same codec: persist, reload, compare.
    let report_path = dir.join("report.pies");
    report.save(&report_path).expect("write report snapshot");
    let reloaded = PipelineReport::load(&report_path).expect("read report snapshot");
    assert_eq!(reloaded, report);
    println!(
        "report snapshot at {} reloads bit-identically.",
        report_path.display()
    );

    std::fs::remove_dir_all(&dir).ok();
}
