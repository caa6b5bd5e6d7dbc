//! Pieces every traced run shares: the layer probes over the workload's
//! sketches, the per-kind server-span breakdown, and a short traced probe
//! session for request kinds a workload does not send itself.

use std::io::Write;
use std::sync::Arc;

use pie_datagen::Dataset;
use pie_serve::EngineConfig;

use crate::fixtures::Served;
use crate::layers::{eval_layers, service_layers};
use crate::serve::{
    archive, bind, cold_conn, mixed_writer, run_phase, stage_breakdown, FreshSource, Kind,
    MixedState, Phase,
};
use crate::{trace_path, Args, Outcome, SERVE_STAGES};

/// Writes the evaluation, catalog, store, wire and engine layers to `out`,
/// with their output checks, and returns the traced composition's overhead
/// over untraced `Pipeline::run` (%).
#[allow(clippy::too_many_arguments)]
pub fn probe_layers(
    args: &Args,
    out: &mut Outcome,
    traffic: &Arc<Dataset>,
    tau_star: f64,
    base_salt: u64,
    trials: u64,
    served: &[&Served],
    sets: &Served,
) -> Result<f64, String> {
    let probe = eval_layers(traffic, tau_star, base_salt, trials, 3, sets);
    out.check(
        "sketch ingest + merge_finalize reproduces sample_all on every traced trial",
        probe.ingest_mismatches == 0,
    );
    for (name, rec) in &probe.recorders {
        rec.write_jsonl(&trace_path(args), name)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    out.metrics.extend(probe.layers);
    let (layers, exact) = service_layers(served, 3);
    out.check(
        "snapshot codec round-trips every served entry exactly",
        exact,
    );
    out.metrics.extend(layers);
    out.line(format!(
        "eval layers: untraced Pipeline::run {:.1} us/trial, traced layers {:.1} us/trial, unattributed {:.1}%",
        out.metrics["eval.untraced_trial_us"],
        out.metrics["eval.traced_layers_us"],
        out.metrics["eval.unattributed_pct"],
    ));
    Ok(probe.overhead_pct)
}

/// Writes `serve.<label>.*` for `labels` (`estimate`, `batch`, `ingest`)
/// from a traced phase, and appends the phase's per-request spans to the
/// span file.
pub fn serve_layers(
    args: &Args,
    out: &mut Outcome,
    phase: &Phase,
    labels: &[&str],
) -> Result<(), String> {
    for (label, stages) in SERVE_STAGES.iter().filter(|(l, _)| labels.contains(l)) {
        // `ingest` covers every `IngestBatch`, buffering or finalizing.
        let kinds: &[Kind] = match *label {
            "estimate" => &[Kind::Estimate],
            "batch" => &[Kind::Batch],
            _ => &[Kind::Ingest, Kind::Finalize],
        };
        let (means, round_trip, unattributed) = stage_breakdown(&phase.done, kinds)
            .ok_or_else(|| format!("the traced phase completed no {label} request"))?;
        for stage in stages.iter() {
            out.put(
                format!("serve.{label}.{stage}_us"),
                means.get(*stage).copied().unwrap_or(0.0) / 1e3,
            );
        }
        out.put(format!("serve.{label}.unattributed_us"), unattributed / 1e3);
        out.put(format!("serve.{label}.round_trip_us"), round_trip / 1e3);
        let spans: f64 = means.values().sum();
        out.line(format!(
            "serve.{label}: client round trip {:.1} us = server spans {:.1} us + unattributed {:.1} us",
            round_trip / 1e3,
            spans / 1e3,
            unattributed / 1e3
        ));
    }
    let path = trace_path(args);
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("writing spans: {e}"))?;
    let mut file = std::io::BufWriter::new(file);
    for d in phase.done.iter().filter(|d| d.stages.is_some()) {
        let stages: Vec<String> = d
            .stages
            .iter()
            .flatten()
            .map(|(stage, ns)| format!("\"{stage}\":{ns}"))
            .collect();
        writeln!(
            file,
            "{{\"run\":\"serve\",\"kind\":\"{}\",\"sent_ns\":{},\"done_ns\":{},\"stages_ns\":{{{}}}}}",
            d.kind.label(),
            d.timing.sent,
            d.timing.done,
            stages.join(",")
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    file.flush().map_err(|e| format!("writing spans: {e}"))
}

/// Engine and event-loop counts of a traced phase.
pub fn engine_layers(out: &mut Outcome, phase: &Phase) {
    out.put(
        "engine.cache_hit_ratio",
        if phase.cache_lookups > 0 {
            phase.cache_hits as f64 / phase.cache_lookups as f64
        } else {
            0.0
        },
    );
    out.put(
        "serve.epoll_wakeups_per_request",
        phase.epoll_wakeups as f64 / phase.requests.max(1) as f64,
    );
}

/// A short traced session with the default engine over `served`: one
/// closed-loop reader and one writer that ingests fresh sketches, so every
/// request kind carries server spans.
pub fn probe_session(served: &[&Served], seed: u64, seconds: f64) -> Result<Phase, String> {
    let server = bind(served, EngineConfig::default(), true)?;
    let source = FreshSource::new(seed);
    let state = MixedState::default();
    let put = archive(&server, seed)?;
    let conns = vec![
        cold_conn(served, 0, 0, 0),
        mixed_writer(&source, &state, put, 0, 20.0),
    ];
    let phase = run_phase(&server, conns, seconds, true)?;
    server.shutdown();
    Ok(phase)
}
