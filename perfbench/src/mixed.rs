//! `serve_mixed`: an open loop of reads from Zipf-skewed users beside a
//! stream of sketch writes, against a server with the default estimate
//! cache.
//!
//! * Reads: `nproc − 1` connections (at least one) at a fixed total rate;
//!   each user maps to a fixed `(sketch, suite, statistic)` slot, and one
//!   read in four is a `BatchEstimate` of the slot's whole sketch.  Two
//!   slots follow the newest freshly ingested sketch, so its first read is
//!   a cache miss caused by churn.
//! * Writes: one connection at a fixed rate sending the `IngestBatch`
//!   frames (1,024 records each) that build and finalize a fresh small
//!   traffic sketch, generation after generation, and now and then a
//!   `PutSnapshot` re-registering an archived sketch that no read touches.
//!
//! Latency is timed from each request's scheduled send.  The gated
//! metrics are the writes': buffering `IngestBatch` frames (primary) and
//! the finalizing one that builds the sketch in the catalog (secondary).
//! A cache-hit read takes about 0.2 ms, and on a two-CPU host its median
//! moved by a quarter between identical runs, so read latency is printed
//! and traced but not gated.

use std::collections::BTreeMap;

use partial_info_estimators::Scheme;
use pie_serve::{EngineConfig, Server};

use crate::cold::check_first_reports;
use crate::fixtures::{derive, Served};
use crate::host::Reference;
use crate::serve::{
    archive, bind, generator_lag_ms, mixed_reader, mixed_writer, run_phase, send_all,
    stage_breakdown, triples, Fresh, FreshSource, Kind, MixedState, Op, Phase, Put, Zipf, USERS,
    ZIPF_EXPONENT,
};
use crate::stats::{median, summarize};
use crate::{peak_rss_mb, threads_available, timed_setup, traced, Args, Outcome};

/// Reads per second, over all read connections.
pub const READ_RATE: f64 = 400.0;
/// Writes (ingest batches and snapshot puts) per second.
pub const WRITE_RATE: f64 = 10.0;
/// Tail percentile of the finalizing batches: a 30-second run builds about
/// 70 sketches, enough for ten beyond p80.
const FINALIZE_TAIL_Q: f64 = 0.8;

struct Fixture {
    seed: u64,
    traffic: Served,
    sets: Served,
    zipf: Zipf,
    source: FreshSource,
}

/// A server holding the served sketches and the archive.
fn server(fx: &Fixture, traced: bool) -> Result<(Server, Put), String> {
    let server = bind(&[&fx.traffic, &fx.sets], EngineConfig::default(), traced)?;
    let put = archive(&server, fx.seed)?;
    Ok((server, put))
}

fn setup(seed: u64) -> Result<(Fixture, Server, Put), String> {
    let fx = Fixture {
        seed,
        traffic: Served::traffic(seed),
        sets: Served::sets(seed),
        zipf: Zipf::new(USERS, ZIPF_EXPONENT),
        source: FreshSource::new(seed),
    };
    let (server, put) = server(&fx, false)?;
    Ok((fx, server, put))
}

/// What one session produced.
struct Session {
    phase: Phase,
    /// Fresh sketches the server finalized, and which of them the
    /// post-run check found served bit-identically to an in-process build.
    fresh_checked: usize,
    fresh_wrong: Vec<String>,
}

/// One measured session on `server`: warm the cache and build the first
/// fresh sketch untimed, run the open loop, then check every fresh sketch
/// the writer finalized.
fn session(
    fx: &Fixture,
    (server, put): (Server, Put),
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Session, String> {
    let served = [&fx.traffic, &fx.sets];
    let state = MixedState::default();
    let mut warm: Vec<Op> = triples(&served)
        .into_iter()
        .map(|(sketch, suite, stat)| Op::Estimate {
            sketch,
            suite,
            stat,
        })
        .collect();
    let first = fx.source.generation(0);
    warm.extend(first.batches());
    send_all(&server, warm)?;
    *state.newest.lock().expect("state lock") = first.name.clone();
    state
        .started
        .lock()
        .expect("state lock")
        .push(first.clone());
    state.finished.lock().expect("state lock").push(first.name);

    let readers = threads_available().saturating_sub(1).max(1);
    let mut conns: Vec<_> = (0..readers)
        .map(|r| {
            mixed_reader(
                &served,
                &fx.source.pairs,
                &state,
                &fx.zipf,
                derive(seed, 20 + r as u64),
                READ_RATE / readers as f64,
            )
        })
        .collect();
    conns.push(mixed_writer(&fx.source, &state, put, 1, WRITE_RATE));
    let phase = run_phase(&server, conns, seconds, traced)?;

    // Every finalized fresh sketch must serve what an in-process build of
    // the same records reports.
    let finished = state.finished.lock().expect("state lock").clone();
    let started: Vec<Fresh> = state.started.lock().expect("state lock").clone();
    let mut fresh_wrong = Vec::new();
    let mut expected: BTreeMap<String, partial_info_estimators::CatalogEntry> = BTreeMap::new();
    for fresh in started.iter().filter(|f| finished.contains(&f.name)) {
        let entry = fresh.expected_entry();
        let ops = fx
            .source
            .pairs
            .iter()
            .map(|&(suite, stat)| Op::Estimate {
                sketch: fresh.name.clone(),
                suite,
                stat,
            })
            .collect();
        for ((_, suite, stat), report) in send_all(&server, ops)? {
            if entry.estimate_named(suite, stat, Some(1)).ok().as_ref() != Some(&report) {
                fresh_wrong.push(format!("{}/{suite}/{stat}", fresh.name));
            }
        }
        expected.insert(fresh.name.clone(), entry);
    }
    // First reads of fresh sketches during the run, against the same builds.
    for firsts in &phase.seen {
        for ((sketch, suite, stat), report) in firsts {
            if let Some(entry) = expected.get(sketch) {
                if entry.estimate_named(suite, stat, Some(1)).ok().as_ref() != Some(report) {
                    fresh_wrong.push(format!("{sketch}/{suite}/{stat} (first read)"));
                }
            }
        }
    }
    server.shutdown();
    Ok(Session {
        phase,
        fresh_checked: expected.len(),
        fresh_wrong,
    })
}

fn check(out: &mut Outcome, fx: &Fixture, s: &Session) {
    check_first_reports(out, &[&fx.traffic, &fx.sets], &s.phase.seen);
    out.check(
        format!(
            "{} ingested sketches serve reports bit-identical to CatalogEntry::build on their records",
            s.fresh_checked
        ),
        s.fresh_wrong.is_empty() && s.fresh_checked > 0,
    );
    if !s.fresh_wrong.is_empty() {
        out.line(format!(
            "mismatched fresh reports: {}",
            s.fresh_wrong.join(", ")
        ));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((fx, server, put), setup_s) = timed_setup(&Reference::new(), || setup(args.seed))?;
    if args.trace {
        server.shutdown();
        return traced_run(args, &fx, out);
    }
    let s = session(&fx, (server, put), args.seed, args.seconds, false)?;
    check(&mut out, &fx, &s);
    let phase = &s.phase;
    let reads = summarize(
        "reads",
        &phase.latencies(&[Kind::Estimate, Kind::Batch]),
        0.99,
    )?;
    let ingests = summarize("IngestBatch", &phase.latencies(&[Kind::Ingest]), 0.9)?;
    let finals = summarize(
        "finalizing IngestBatch",
        &phase.latencies(&[Kind::Finalize]),
        FINALIZE_TAIL_Q,
    )?;
    let puts = phase.latencies(&[Kind::Put]);
    out.attempted = phase.done.len() as u64;
    out.failed = phase.done.iter().filter(|d| !d.ok).count() as u64;
    let completed = out.attempted - out.failed;
    out.line(format!(
        "read (not gated): n={} p50={:.3} ms p99={:.3} ms (offered {READ_RATE}/s)",
        reads.count, reads.p50, reads.tail
    ));
    out.line(format!(
        "ingest_batch: n={} p50={:.3} ms p90={:.3} ms (writes offered {WRITE_RATE}/s)",
        ingests.count, ingests.p50, ingests.tail
    ));
    out.line(format!(
        "ingest_batch finalizing: n={} p50={:.3} ms p{}={:.3} ms",
        finals.count,
        finals.p50,
        FINALIZE_TAIL_Q * 100.0,
        finals.tail
    ));
    out.line(format!(
        "put_snapshot (not gated): n={} p50={:.3} ms",
        puts.len(),
        median(&puts)
    ));
    out.line(format!(
        "generator lag: mean {:.3} ms behind schedule",
        generator_lag_ms(&phase.done, true)
    ));
    out.put("setup_s", setup_s);
    out.put("throughput_per_s", completed as f64 / phase.wall_s);
    out.put("primary_p50_ms", ingests.p50);
    out.put("primary_tail_ms", ingests.tail);
    out.put("secondary_p50_ms", finals.p50);
    out.put("secondary_tail_ms", finals.tail);
    out.put(
        "op_success_ratio",
        completed as f64 / out.attempted.max(1) as f64,
    );
    out.put("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The traced run: the session untraced and then traced for the overhead
/// and the per-stage breakdown of every request kind, then the layer
/// probes.
fn traced_run(args: &Args, fx: &Fixture, mut out: Outcome) -> Result<Outcome, String> {
    let served = [&fx.traffic, &fx.sets];
    let share = args.seconds * 0.35;
    let untraced = session(fx, server(fx, false)?, args.seed, share, false)?;
    let traced_session = session(fx, server(fx, true)?, args.seed, share, true)?;
    check(&mut out, fx, &traced_session);
    let reads = [Kind::Estimate, Kind::Batch];
    let p50 = |s: &Session| median(&s.phase.latencies(&reads));
    out.put(
        "obs.overhead_pct",
        100.0 * (p50(&traced_session) - p50(&untraced)) / p50(&untraced),
    );
    out.put(
        "bench.generator_lag_ms",
        generator_lag_ms(&untraced.phase.done, true),
    );
    traced::serve_layers(
        args,
        &mut out,
        &traced_session.phase,
        &["estimate", "batch", "ingest"],
    )?;
    traced::engine_layers(&mut out, &traced_session.phase);
    if let Some((stages, round_trip, unattributed)) =
        stage_breakdown(&traced_session.phase.done, &[Kind::Put])
    {
        let ms = |stage: &str| stages.get(stage).copied().unwrap_or(0.0) / 1e6;
        out.line(format!(
            "put_snapshot: round trip {:.1} ms: decode on the event loop {:.1} ms, \
             encode {:.3} ms, unattributed {:.1} ms",
            round_trip / 1e6,
            ms("decode"),
            ms("encode"),
            unattributed / 1e6
        ));
    }
    let Scheme::PpsPoisson { tau_star } = fx.traffic.scheme else {
        return Err("the traffic sketch is PPS".into());
    };
    traced::probe_layers(
        args,
        &mut out,
        &fx.traffic.dataset,
        tau_star,
        fx.traffic.base_salt,
        fx.traffic.trials,
        &served,
        &fx.sets,
    )?;
    let all = [&untraced.phase, &traced_session.phase];
    out.attempted = all.iter().map(|p| p.done.len() as u64).sum();
    out.failed = all
        .iter()
        .map(|p| p.done.iter().filter(|d| !d.ok).count() as u64)
        .sum();
    out.check("every request of the traced run succeeded", out.failed == 0);
    Ok(out)
}
