//! End-to-end serving scenario: spawn a sketch-query server, shard-ingest a
//! synthetic traffic workload from concurrent clients, load a persisted
//! snapshot alongside it, and fan out query threads — asserting every
//! served estimate is bit-identical to the in-process pipeline.
//!
//! ```text
//! cargo run --release --example serve_traffic
//! ```

use std::sync::Arc;
use std::time::Instant;

use partial_info_estimators::core::suite::max_weighted_suite;
use partial_info_estimators::datagen::{
    dataset_records, generate_two_hours, shard_of, TrafficConfig,
};
use partial_info_estimators::{Pipeline, Scheme, Statistic};
use pie_serve::{IngestRecord, ServeClient, Server, SketchConfig};

const INGEST_SHARDS: usize = 4;
const QUERY_THREADS: usize = 4;
const QUERIES_PER_THREAD: usize = 8;

fn main() {
    let data = Arc::new(generate_two_hours(&TrafficConfig::small(6)));
    let config = SketchConfig {
        scheme: Scheme::pps(150.0),
        shards: INGEST_SHARDS as u64,
        trials: 12,
        base_salt: 5,
    };

    // The in-process reference: what every served answer must equal.
    let reference = Pipeline::new()
        .dataset(Arc::clone(&data))
        .scheme(config.scheme)
        .estimators(max_weighted_suite())
        .statistic(Statistic::max_dominance())
        .trials(config.trials)
        .base_salt(config.base_salt)
        .run()
        .expect("reference pipeline");

    let server = Server::bind("127.0.0.1:0").expect("bind server");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // 1) Live ingest: INGEST_SHARDS concurrent clients each stream one
    //    key-partition of the records, then one client finalizes.  The
    //    finalized sketch is independent of batch arrival order.
    let start = Instant::now();
    let mut shards: Vec<Vec<IngestRecord>> = vec![Vec::new(); INGEST_SHARDS];
    for r in dataset_records(&data) {
        shards[shard_of(r.key, INGEST_SHARDS)].push(IngestRecord {
            instance: r.instance,
            key: r.key,
            value: r.value,
        });
    }
    let total_records: usize = shards.iter().map(Vec::len).sum();
    std::thread::scope(|scope| {
        for shard in &shards {
            scope.spawn(|| {
                let mut client = ServeClient::connect(addr).expect("connect ingester");
                for chunk in shard.chunks(512) {
                    client
                        .ingest_batch("traffic_live", config, chunk.to_vec(), false)
                        .expect("ingest batch");
                }
            });
        }
    });
    let mut coordinator = ServeClient::connect(addr).expect("connect coordinator");
    let ack = coordinator
        .ingest_batch("traffic_live", config, Vec::new(), true)
        .expect("finalize");
    assert!(ack.ready);
    println!(
        "ingested {total_records} records over {INGEST_SHARDS} wire shards and finalized in {:.1} ms",
        start.elapsed().as_secs_f64() * 1e3
    );

    // 2) Persisted snapshot: export the same pipeline's sketch state to a
    //    pie-store snapshot file and have the server load it.
    let entry = Pipeline::new()
        .dataset(Arc::clone(&data))
        .scheme(config.scheme)
        .shards(INGEST_SHARDS)
        .trials(config.trials)
        .base_salt(config.base_salt)
        .estimators(max_weighted_suite())
        .statistic(Statistic::max_dominance())
        .into_catalog_entry()
        .expect("catalog entry");
    let dir = std::env::temp_dir().join(format!("pie-serve-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("traffic.pies");
    entry.save(&path).expect("save snapshot");
    let info = coordinator
        .load_snapshot("traffic_snapshot", path.to_str().expect("utf-8 path"))
        .expect("load snapshot");
    println!(
        "loaded snapshot {:?} ({} instances, {} trials)",
        info.name, info.instances, info.config.trials
    );

    // 3) Query fan-out: QUERY_THREADS clients hammer both sketches; every
    //    response must be bit-identical to the in-process reference.
    let start = Instant::now();
    let queries = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..QUERY_THREADS {
            let reference = &reference;
            handles.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect querier");
                for q in 0..QUERIES_PER_THREAD {
                    let sketch = if (worker + q) % 2 == 0 {
                        "traffic_live"
                    } else {
                        "traffic_snapshot"
                    };
                    let report = client
                        .estimate(sketch, "max_weighted", "max_dominance")
                        .expect("estimate");
                    assert_eq!(
                        &report, reference,
                        "served report over {sketch} must be bit-identical"
                    );
                }
                QUERIES_PER_THREAD
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("querier"))
            .sum::<usize>()
    });
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "{queries} queries from {QUERY_THREADS} threads in {:.1} ms ({:.0} q/s), all bit-identical to the in-process pipeline",
        elapsed * 1e3,
        queries as f64 / elapsed
    );

    let listing = coordinator.list_catalog().expect("list");
    println!("catalog: {} sketches", listing.len());
    for row in &listing {
        println!(
            "  {:<18} ready={} instances={} trials={}",
            row.name, row.ready, row.instances, row.config.trials
        );
    }
    println!("\n{}", reference.render());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
