//! Concurrency soak test for the `pie-serve` stack: N client threads × M
//! mixed queries against one live server.
//!
//! The two contracts under load:
//!
//! 1. **Bit-identity** — every served `Estimate` response equals the direct
//!    in-process [`Pipeline`] result for the same configuration, across all
//!    five estimator suites (`max_oblivious`, `max_oblivious_uniform`,
//!    `or_oblivious`, `max_weighted`, `or_weighted`).  Serving changes
//!    where estimation runs, never what it returns.
//! 2. **Catalog consistency** — `ListCatalog` keeps returning a complete,
//!    sorted listing in which every stable sketch is present and ready,
//!    while a writer thread concurrently replaces entries via
//!    `LoadSnapshot`.

use std::sync::Arc;

use partial_info_estimators::core::suite::{
    max_oblivious_suite, max_oblivious_uniform_suite, max_weighted_suite, or_oblivious_suite,
    or_weighted_suite,
};
use partial_info_estimators::datagen::{
    dataset_records, generate_set_pair, generate_two_hours, Dataset, SetPairConfig, TrafficConfig,
};
use partial_info_estimators::{
    CatalogEntry, EstimatorSet, Pipeline, PipelineReport, Scheme, Statistic,
};
use pie_serve::{IngestRecord, ServeClient, ServeError, Server, SketchConfig};

/// One sketch the soak serves: its name, data, configuration, and the
/// (suite, statistic) queries it answers, each with the expected in-process
/// report.
struct Case {
    name: &'static str,
    dataset: Arc<Dataset>,
    config: SketchConfig,
    queries: Vec<(&'static str, &'static str, PipelineReport)>,
}

fn expected(
    dataset: &Arc<Dataset>,
    config: &SketchConfig,
    estimators: EstimatorSet,
    statistic: Statistic,
) -> PipelineReport {
    let mut pipeline = Pipeline::new()
        .dataset(Arc::clone(dataset))
        .scheme(config.scheme)
        .statistic(statistic)
        .trials(config.trials)
        .base_salt(config.base_salt);
    pipeline = match estimators {
        EstimatorSet::Oblivious(r) => pipeline.estimators(r),
        EstimatorSet::Weighted(r) => pipeline.estimators(r),
    };
    pipeline.run().expect("in-process reference run")
}

/// The five-suite case matrix.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();

    // Pairwise + uniform max over the paper's oblivious example.
    let pair = Arc::new(partial_info_estimators::datagen::paper_example().take_instances(2));
    let pair_config = SketchConfig {
        scheme: Scheme::oblivious(0.5),
        shards: 2,
        trials: 24,
        base_salt: 3,
    };
    cases.push(Case {
        name: "paper_pair",
        dataset: Arc::clone(&pair),
        config: pair_config,
        queries: vec![
            (
                "max_oblivious",
                "max_dominance",
                expected(
                    &pair,
                    &pair_config,
                    max_oblivious_suite(0.5, 0.5).into(),
                    Statistic::max_dominance(),
                ),
            ),
            (
                "max_oblivious_uniform",
                "max_dominance",
                expected(
                    &pair,
                    &pair_config,
                    max_oblivious_uniform_suite(2, 0.5).into(),
                    Statistic::max_dominance(),
                ),
            ),
        ],
    });

    // Boolean OR over a binary set pair, both regimes.
    let sets = Arc::new(generate_set_pair(&SetPairConfig::new(120, 0.5)));
    let sets_obl_config = SketchConfig {
        scheme: Scheme::oblivious(0.4),
        shards: 3,
        trials: 20,
        base_salt: 11,
    };
    cases.push(Case {
        name: "sets_oblivious",
        dataset: Arc::clone(&sets),
        config: sets_obl_config,
        queries: vec![(
            "or_oblivious",
            "distinct_count",
            expected(
                &sets,
                &sets_obl_config,
                or_oblivious_suite(0.4, 0.4).into(),
                Statistic::distinct_count(),
            ),
        )],
    });
    let sets_pps_config = SketchConfig {
        scheme: Scheme::pps(1.5),
        shards: 2,
        trials: 20,
        base_salt: 2,
    };
    cases.push(Case {
        name: "sets_pps",
        dataset: Arc::clone(&sets),
        config: sets_pps_config,
        queries: vec![(
            "or_weighted",
            "distinct_count",
            expected(
                &sets,
                &sets_pps_config,
                or_weighted_suite().into(),
                Statistic::distinct_count(),
            ),
        )],
    });

    // Weighted max over synthetic traffic.
    let traffic = Arc::new(generate_two_hours(&TrafficConfig::small(4)));
    let traffic_config = SketchConfig {
        scheme: Scheme::pps(150.0),
        shards: 2,
        trials: 16,
        base_salt: 7,
    };
    cases.push(Case {
        name: "traffic_pps",
        dataset: Arc::clone(&traffic),
        config: traffic_config,
        queries: vec![(
            "max_weighted",
            "max_dominance",
            expected(
                &traffic,
                &traffic_config,
                max_weighted_suite().into(),
                Statistic::max_dominance(),
            ),
        )],
    });
    cases
}

fn wire_records(dataset: &Dataset) -> Vec<IngestRecord> {
    dataset_records(dataset)
        .map(|r| IngestRecord {
            instance: r.instance,
            key: r.key,
            value: r.value,
        })
        .collect()
}

#[test]
fn concurrent_soak_estimates_bit_identical_to_pipeline() {
    let cases = cases();
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Populate half the catalog over the wire (sharded IngestBatch from
    // concurrent clients), half via LoadSnapshot from persisted entries —
    // the two sources the protocol supports.
    let dir = std::env::temp_dir().join(format!("pie-serve-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, case) in cases.iter().enumerate() {
        if i % 2 == 0 {
            // Shard the records across 3 concurrent ingest clients, then
            // finalize with an empty last batch: arrival order must not
            // matter.
            let records = wire_records(&case.dataset);
            std::thread::scope(|scope| {
                for chunk in records.chunks(records.len().div_ceil(3)) {
                    scope.spawn(|| {
                        let mut client = ServeClient::connect(addr).unwrap();
                        let ack = client
                            .ingest_batch(case.name, case.config, chunk.to_vec(), false)
                            .unwrap();
                        assert!(!ack.ready);
                    });
                }
            });
            let mut client = ServeClient::connect(addr).unwrap();
            let ack = client
                .ingest_batch(case.name, case.config, Vec::new(), true)
                .unwrap();
            assert!(ack.ready);
        } else {
            let entry = CatalogEntry::build(
                Arc::clone(&case.dataset),
                case.config.scheme,
                case.config.shards as usize,
                case.config.trials,
                case.config.base_salt,
            )
            .unwrap();
            let path = dir.join(format!("{}.pies", case.name));
            entry.save(&path).unwrap();
            let mut client = ServeClient::connect(addr).unwrap();
            let info = client
                .load_snapshot(case.name, path.to_str().unwrap())
                .unwrap();
            assert!(info.ready);
            assert_eq!(info.name, case.name);
        }
    }

    // A spare entry the writer thread keeps replacing during the soak.
    let spare = CatalogEntry::build(
        Arc::clone(&cases[0].dataset),
        cases[0].config.scheme,
        1,
        4,
        99,
    )
    .unwrap();
    let spare_path = dir.join("spare.pies");
    spare.save(&spare_path).unwrap();

    const CLIENTS: usize = 6;
    const OPS_PER_CLIENT: usize = 24;
    let stable_names: Vec<&str> = cases.iter().map(|c| c.name).collect();

    std::thread::scope(|scope| {
        // Writer: concurrently (re)loads the spare entry under new and
        // repeated names while readers list and estimate.
        scope.spawn(|| {
            let mut client = ServeClient::connect(addr).unwrap();
            for i in 0..OPS_PER_CLIENT {
                let name = format!("spare_{}", i % 3);
                let info = client
                    .load_snapshot(name.clone(), spare_path.to_str().unwrap())
                    .unwrap();
                assert!(info.ready, "{name}");
            }
        });
        for worker in 0..CLIENTS {
            let cases = &cases;
            let stable_names = &stable_names;
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for op in 0..OPS_PER_CLIENT {
                    // Mixed workload: mostly estimates, listings in between.
                    if (op + worker) % 5 == 4 {
                        let listing = client.list_catalog().unwrap();
                        // Sorted, complete, and every stable sketch ready.
                        let names: Vec<&str> = listing.iter().map(|i| i.name.as_str()).collect();
                        let mut sorted = names.clone();
                        sorted.sort_unstable();
                        assert_eq!(names, sorted, "listing must be sorted");
                        for name in stable_names {
                            let row = listing
                                .iter()
                                .find(|i| i.name == *name)
                                .unwrap_or_else(|| panic!("{name} missing from listing"));
                            assert!(row.ready, "{name} must stay ready");
                        }
                    } else {
                        let case = &cases[(op + worker) % cases.len()];
                        let (suite, statistic, ref want) =
                            case.queries[(op / 2 + worker) % case.queries.len()];
                        let got = client.estimate(case.name, suite, statistic).unwrap();
                        assert_eq!(
                            &got, want,
                            "served {suite}/{statistic} over {} must be bit-identical",
                            case.name
                        );
                    }
                }
            });
        }
    });

    // Typed error paths over the wire, after the soak (server still sane).
    let mut client = ServeClient::connect(addr).unwrap();
    assert!(matches!(
        client
            .estimate("missing", "max_oblivious", "max_dominance")
            .unwrap_err(),
        ServeError::UnknownSketch { .. }
    ));
    assert!(matches!(
        client
            .estimate("paper_pair", "not_a_suite", "max_dominance")
            .unwrap_err(),
        ServeError::UnknownEstimator { .. }
    ));
    assert!(matches!(
        client
            .estimate("paper_pair", "max_weighted", "max_dominance")
            .unwrap_err(),
        ServeError::EstimatorMismatch { .. }
    ));
    assert!(matches!(
        client
            .estimate("paper_pair", "max_oblivious", "not_a_statistic")
            .unwrap_err(),
        ServeError::UnknownStatistic { .. }
    ));
    assert!(matches!(
        client
            .load_snapshot("bad", "/nonexistent/definitely.pies")
            .unwrap_err(),
        ServeError::Snapshot { .. }
    ));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_estimates_also_match_stream_pipeline_and_session_exports() {
    // The catalog hooks: a sharded Pipeline::into_catalog_entry and a
    // completed ingest session's finish_into_catalog must serve the same
    // bytes.

    let data = Arc::new(generate_two_hours(&TrafficConfig::small(9)));
    let configure = || {
        Pipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::pps(180.0))
            .shards(3)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(10)
            .base_salt(21)
    };
    let want = configure().run().unwrap();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let from_pipeline = configure().into_catalog_entry().unwrap();
    server.catalog().insert("from_pipeline", from_pipeline);
    let mut session = configure().ingest_session().unwrap();
    session.ingest_all();
    let from_session = session.finish_into_catalog().unwrap();
    server.catalog().insert("from_session", from_session);

    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for name in ["from_pipeline", "from_session"] {
        let got = client
            .estimate(name, "max_weighted", "max_dominance")
            .unwrap();
        assert_eq!(got, want, "{name}");
    }
    server.shutdown();
}
