//! `serve_cold`: a closed loop over one connection against a server whose
//! estimate cache is off, so every request replays trials.  It serves the
//! paper-scale traffic PPS sketch and the Fig. 6 set-pair oblivious sketch;
//! three requests in four are an `Estimate` over every accepted
//! `(suite, statistic)` pair, the fourth a `BatchEstimate` of all of one
//! sketch's pairs.  Requests are timed on the process CPU clock, which
//! with one request in flight is the request's time on a dedicated host;
//! the measured loop runs in half-second slices with the host slowdown read
//! between them, and its times are reported at nominal host speed (see
//! `host.rs`).  The latency metrics time the requests on the
//! traffic sketch, whose replays all cost about the same; the set-pair
//! sketch's suites differ several-fold in cost, so its requests count in
//! the throughput and are printed but not gated.
//!
//! One connection, so one request at a time: with one per hardware thread,
//! two requests replaying at once on a two-vCPU host measured mostly how
//! the host shared its CPUs, and runs of identical code spread by a tenth
//! even at nominal host speed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use partial_info_estimators::Scheme;
use pie_serve::{EngineConfig, Server};

use crate::fixtures::Served;
use crate::host::Reference;
use crate::serve::{
    bind, cold_conn, generator_lag_ms, run_phase, triples, FirstReports, Kind, Phase,
};
use crate::stats::{median, summarize};
use crate::{peak_rss_mb, timed_setup, traced, Args, Outcome};

pub fn cold_engine() -> EngineConfig {
    EngineConfig {
        cache_capacity: 0,
        ..EngineConfig::default()
    }
}

/// Builds both sketches and a server holding them.
fn setup(seed: u64, traced: bool) -> Result<(Served, Served, Server), String> {
    let traffic = Served::traffic(seed);
    let sets = Served::sets(seed);
    let server = bind(&[&traffic, &sets], cold_engine(), traced)?;
    Ok((traffic, sets, server))
}

/// The sketch whose requests the latency metrics time.
const GATED: &str = "traffic";
/// Tail percentile of every latency class.
const TAIL_Q: f64 = 0.9;
/// Fewest requests of each gated class a measured run gathers: ten beyond
/// p90.
const MIN_PER_CLASS: usize = 110;
/// Length of one measured slice; the host slowdown is read between slices,
/// while the connection is idle.
const SLICE_S: f64 = 0.5;

/// One closed-loop phase; `first` counts the requests sent in earlier
/// phases.
fn phase(
    server: &Server,
    served: &[&Served],
    first: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    run_phase(
        server,
        vec![cold_conn(served, 0, first, 0)],
        seconds,
        traced,
    )
}

/// The measured closed loop, at nominal host speed.
struct Measured {
    /// Request CPU times per `(kind, sketch)`, each divided by its slice's
    /// host slowdown.
    latencies: BTreeMap<(Kind, String), Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// CPU time of the slices, each divided by its host slowdown.
    nominal_s: f64,
    slowdowns: Vec<f64>,
    seen: Vec<FirstReports>,
}

/// Runs the closed loop in slices of [`SLICE_S`] until `seconds` have
/// passed and each gated class has [`MIN_PER_CLASS`] requests.  Each slice is
/// divided by the mean of the host slowdowns read before and after it.
fn measure(
    server: &Server,
    served: &[&Served],
    reference: &Reference,
    seconds: f64,
) -> Result<Measured, String> {
    let mut m = Measured {
        latencies: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        nominal_s: 0.0,
        slowdowns: Vec::new(),
        seen: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut before = reference.slowdown();
    let gathered = |m: &Measured, kind| {
        m.latencies
            .get(&(kind, GATED.to_string()))
            .map_or(0, Vec::len)
    };
    while Instant::now() < deadline
        || gathered(&m, Kind::Estimate) < MIN_PER_CLASS
        || gathered(&m, Kind::Batch) < MIN_PER_CLASS
    {
        let p = phase(server, served, m.attempted, SLICE_S, false)?;
        let after = reference.slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        for s in served {
            for kind in [Kind::Estimate, Kind::Batch] {
                let nominal = p.sketch_cpu_ms(kind, &s.name);
                m.latencies
                    .entry((kind, s.name.clone()))
                    .or_default()
                    .extend(nominal.into_iter().map(|l| l / slowdown));
            }
        }
        m.attempted += p.done.len() as u64;
        m.failed += p.done.iter().filter(|d| !d.ok).count() as u64;
        m.nominal_s += p.cpu_s / slowdown;
        m.slowdowns.push(slowdown);
        m.seen.extend(p.seen);
    }
    Ok(m)
}

/// Checks the first served report of every triple against in-process
/// `CatalogEntry::estimate_named`.
pub fn check_first_reports(out: &mut Outcome, served: &[&Served], seen: &[FirstReports]) {
    let mut checked = 0;
    let mut wrong = Vec::new();
    for firsts in seen {
        for ((sketch, suite, stat), report) in firsts {
            let Some(s) = served.iter().find(|s| &s.name == sketch) else {
                continue;
            };
            let expected = s
                .entry
                .estimate_named(suite, stat, Some(1))
                .expect("accepted pairs estimate");
            checked += 1;
            if *report != expected {
                wrong.push(format!("{sketch}/{suite}/{stat}"));
            }
        }
    }
    out.check(
        format!("{checked} first served reports bit-identical to in-process estimate_named"),
        wrong.is_empty() && checked > 0,
    );
    if !wrong.is_empty() {
        out.line(format!("mismatched reports: {}", wrong.join(", ")));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let reference = Reference::new();
    let ((traffic, sets, server), setup_s) = timed_setup(&reference, || setup(args.seed, false))?;
    let served = [&traffic, &sets];
    out.line(format!(
        "serving {} triples; traffic entry trials={}, sets entry trials={}",
        triples(&served).len(),
        traffic.trials,
        sets.trials
    ));
    // Warm-up: every request shape once.
    phase(&server, &served, 0, 0.3, false)?;

    if args.trace {
        server.shutdown();
        return traced_run(args, &traffic, &sets, out);
    }

    let measured = measure(&server, &served, &reference, args.seconds)?;
    server.shutdown();
    check_first_reports(&mut out, &served, &measured.seen);
    let mut summaries = BTreeMap::new();
    for ((kind, sketch), latencies) in &measured.latencies {
        let what = format!("cold {} on {sketch}", kind.label());
        let summary = summarize(&what, latencies, TAIL_Q)?;
        out.line(format!(
            "{what}: n={} p50={:.3} ms p90={:.3} ms{}",
            summary.count,
            summary.p50,
            summary.tail,
            if sketch == GATED { "" } else { " (not gated)" }
        ));
        summaries.insert((*kind, sketch.as_str()), summary);
    }
    let estimates = summaries[&(Kind::Estimate, GATED)];
    let batches = summaries[&(Kind::Batch, GATED)];
    out.attempted = measured.attempted;
    out.failed = measured.failed;
    let completed = out.attempted - out.failed;
    let per_s = completed as f64 / measured.nominal_s;
    out.line(format!(
        "cold_queries_per_s={per_s:.1} over 1 connection; CPU times at nominal host speed, \
         host slowdown p50={:.3} over {} slices",
        median(&measured.slowdowns),
        measured.slowdowns.len()
    ));
    out.put("setup_s", setup_s);
    out.put("throughput_per_s", per_s);
    out.put("primary_p50_ms", estimates.p50);
    out.put("primary_tail_ms", estimates.tail);
    out.put("secondary_p50_ms", batches.p50);
    out.put("secondary_tail_ms", batches.tail);
    out.put(
        "op_success_ratio",
        completed as f64 / out.attempted.max(1) as f64,
    );
    out.put("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The traced run: the same load untraced and then traced (server spans
/// on, a trace context per request) for the overhead and the per-stage
/// breakdown, then the layer probes and a short probe session for the
/// ingest path, which this workload does not send.
fn traced_run(
    args: &Args,
    traffic: &Served,
    sets: &Served,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let served = [traffic, sets];
    let share = args.seconds * 0.3;
    let server = bind(&served, cold_engine(), false)?;
    let untraced = phase(&server, &served, 0, share, false)?;
    server.shutdown();
    let server = bind(&served, cold_engine(), true)?;
    let traced_phase = phase(&server, &served, 0, share, true)?;
    server.shutdown();
    check_first_reports(&mut out, &served, &traced_phase.seen);
    let p50 = |p: &Phase| median(&p.sketch_cpu_ms(Kind::Estimate, GATED));
    out.put(
        "obs.overhead_pct",
        100.0 * (p50(&traced_phase) - p50(&untraced)) / p50(&untraced),
    );
    out.put(
        "bench.generator_lag_ms",
        generator_lag_ms(&untraced.done, false),
    );
    traced::serve_layers(args, &mut out, &traced_phase, &["estimate", "batch"])?;
    traced::engine_layers(&mut out, &traced_phase);
    let probe = traced::probe_session(&served, args.seed, (args.seconds * 0.1).max(1.0))?;
    traced::serve_layers(args, &mut out, &probe, &["ingest"])?;
    let Scheme::PpsPoisson { tau_star } = traffic.scheme else {
        return Err("the traffic sketch is PPS".into());
    };
    traced::probe_layers(
        args,
        &mut out,
        &traffic.dataset,
        tau_star,
        traffic.base_salt,
        traffic.trials,
        &served,
        sets,
    )?;
    let all = [&untraced, &traced_phase, &probe];
    out.attempted = all.iter().map(|p| p.done.len() as u64).sum();
    out.failed = all
        .iter()
        .map(|p| p.done.iter().filter(|d| !d.ok).count() as u64)
        .sum();
    out.check("every request of the traced run succeeded", out.failed == 0);
    Ok(out)
}
