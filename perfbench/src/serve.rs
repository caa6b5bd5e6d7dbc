//! The serving workloads: a cold closed loop (`serve_cold`) and an open
//! loop of Zipf-skewed reads beside a stream of sketch writes
//! (`serve_mixed`), both against an in-process `pie-serve` server spoken
//! to over loopback TCP.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use partial_info_estimators::{CatalogEntry, PipelineReport, Scheme};
use pie_datagen::{dataset_records, generate_set_pair, Dataset, SetPairConfig};
use pie_sampling::Instance;
use pie_serve::{
    BatchQuery, ClientConfig, EngineConfig, IngestRecord, ObsConfig, ServeClient, ServeError,
    Server, SketchConfig, TraceContext,
};

use crate::fixtures::{derive, mix, small_traffic, tau_star_for_fraction, Served, SplitMix};
use crate::host::cpu_s;
use crate::stats::{residual, OpenLoopTiming, Schedule};

/// Records per `IngestBatch` frame.
pub const INGEST_BATCH_RECORDS: usize = 1024;
/// Trials of each freshly ingested sketch.
pub const FRESH_TRIALS: u64 = 16;
/// Simulated user population of the mixed workload and its Zipf exponent.
pub const USERS: usize = 1_000_000;
pub const ZIPF_EXPONENT: f64 = 1.1;
/// The write stream re-registers the archived sketch after every this many
/// fresh sketches.
pub const PUT_EVERY: u64 = 4;
/// Catalog name of the sketch the write stream re-registers.  No read
/// touches it, so its puts cost the server codec work but invalidate no
/// cached report.
pub const ARCHIVE: &str = "archive";

/// The kinds of request the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Estimate,
    Batch,
    /// An `IngestBatch` that buffers records.
    Ingest,
    /// The last `IngestBatch` of a sketch, which builds and finalizes it.
    Finalize,
    Put,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Estimate => "estimate",
            Kind::Batch => "batch",
            Kind::Ingest => "ingest",
            Kind::Finalize => "ingest_finalize",
            Kind::Put => "put_snapshot",
        }
    }
}

/// One request to send.
#[derive(Clone)]
pub enum Op {
    Estimate {
        sketch: String,
        suite: &'static str,
        stat: &'static str,
    },
    Batch {
        sketch: String,
        pairs: Vec<(&'static str, &'static str)>,
    },
    Ingest {
        sketch: String,
        config: SketchConfig,
        records: Vec<IngestRecord>,
        last: bool,
    },
    Put {
        name: String,
        bytes: Vec<u8>,
    },
}

impl Op {
    /// The sketch the request reads or writes.
    fn sketch(&self) -> &str {
        match self {
            Op::Estimate { sketch, .. } | Op::Batch { sketch, .. } | Op::Ingest { sketch, .. } => {
                sketch
            }
            Op::Put { name, .. } => name,
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Op::Estimate { .. } => Kind::Estimate,
            Op::Batch { .. } => Kind::Batch,
            Op::Ingest { last: false, .. } => Kind::Ingest,
            Op::Ingest { last: true, .. } => Kind::Finalize,
            Op::Put { .. } => Kind::Put,
        }
    }

    /// A copy without the payload (records, snapshot bytes), for the
    /// bookkeeping that follows a send.
    fn header(&self) -> Op {
        match self {
            Op::Ingest {
                sketch,
                config,
                last,
                ..
            } => Op::Ingest {
                sketch: sketch.clone(),
                config: *config,
                records: Vec::new(),
                last: *last,
            },
            Op::Put { name, .. } => Op::Put {
                name: name.clone(),
                bytes: Vec::new(),
            },
            other => other.clone(),
        }
    }
}

/// The first report each connection saw per `(sketch, suite, statistic)`.
pub type FirstReports = BTreeMap<(String, &'static str, &'static str), PipelineReport>;

/// Sends `op` and records first-seen reports.
fn execute(client: &mut ServeClient, op: Op, seen: &mut FirstReports) -> Result<(), ServeError> {
    match op {
        Op::Estimate {
            sketch,
            suite,
            stat,
        } => {
            let report = client.estimate(sketch.as_str(), suite, stat)?;
            seen.entry((sketch, suite, stat)).or_insert(report);
        }
        Op::Batch { sketch, pairs } => {
            let queries = pairs
                .iter()
                .map(|&(suite, stat)| BatchQuery {
                    estimator: suite.to_string(),
                    statistic: stat.to_string(),
                })
                .collect();
            let reports = client.batch_estimate(sketch.as_str(), queries)?;
            for (&(suite, stat), report) in pairs.iter().zip(reports) {
                seen.entry((sketch.clone(), suite, stat)).or_insert(report);
            }
        }
        Op::Ingest {
            sketch,
            config,
            records,
            last,
        } => {
            client.ingest_batch(sketch, config, records, last)?;
        }
        Op::Put { name, bytes } => {
            client.put_snapshot_bytes(name, bytes)?;
        }
    }
    Ok(())
}

/// Sends `ops` in order on one fresh connection, untimed (warm-ups and
/// post-run checks).
pub fn send_all(server: &Server, ops: Vec<Op>) -> Result<FirstReports, String> {
    let mut client = client(server)?;
    let mut seen = FirstReports::new();
    for op in ops {
        execute(&mut client, op, &mut seen).map_err(|e| format!("untimed request failed: {e}"))?;
    }
    Ok(seen)
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    pub kind: Kind,
    /// The sketch it read or wrote.
    pub sketch: String,
    /// Which of the phase's connections sent it.
    pub conn: usize,
    pub timing: OpenLoopTiming,
    /// Process CPU seconds from send to response: the request's own CPU
    /// time when it is the only one in flight.
    pub cpu_s: f64,
    pub ok: bool,
    /// Server span nanoseconds per stage (traced phases only).
    pub stages: Option<BTreeMap<String, u64>>,
}

impl Done {
    /// Milliseconds from when the request was due to its response.
    pub fn latency_ms(&self) -> f64 {
        self.timing.latency() as f64 / 1e6
    }

    /// Client-observed round trip (send to response), nanoseconds.
    pub fn round_trip_ns(&self) -> u64 {
        self.timing.done - self.timing.sent
    }
}

/// Yields a connection's `i`-th request and, for an open loop, its due
/// time in nanoseconds after the phase start.
pub type NextOp<'a> = Box<dyn FnMut(u64) -> Option<(Op, Option<u64>)> + Send + 'a>;

/// A `PutSnapshot` target: the catalog name and the encoded entry.
pub type Put = (String, Arc<Vec<u8>>);

/// A connection's request loop: `next(i)` gives the `i`-th request and,
/// for an open loop, its due time after the phase start.
///
/// An open loop sends every request due before the deadline, however late;
/// a closed loop sends until the deadline and at least `min_requests`, so
/// a slower build still gathers the samples its percentiles need.
pub struct Conn<'a> {
    pub next: NextOp<'a>,
    pub min_requests: u64,
    /// Runs after each successful request (e.g. to publish a new sketch).
    pub on_done: Box<dyn FnMut(&Op) + Send + 'a>,
}

/// What one measured phase produced.
pub struct Phase {
    pub done: Vec<Done>,
    pub seen: Vec<FirstReports>,
    pub wall_s: f64,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub epoll_wakeups: u64,
    pub requests: u64,
}

impl Phase {
    /// Latencies in milliseconds of the successful requests of `kinds`.
    pub fn latencies(&self, kinds: &[Kind]) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| kinds.contains(&d.kind) && d.ok)
            .map(Done::latency_ms)
            .collect()
    }

    /// CPU times in milliseconds of the successful `kind` requests on
    /// `sketch`.
    pub fn sketch_cpu_ms(&self, kind: Kind, sketch: &str) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.kind == kind && d.ok && d.sketch == sketch)
            .map(|d| d.cpu_s * 1e3)
            .collect()
    }
}

fn client(server: &Server) -> Result<ServeClient, String> {
    ServeClient::connect_with_config(
        server.local_addr(),
        ClientConfig::with_deadline(Duration::from_secs(60), 1),
    )
    .map_err(|e| format!("connect: {e}"))
}

/// Sleeps until `at`.  The timer's lateness is part of every open-loop
/// latency (timed from the due instant) and shows in the generator lag; a
/// spin-wait would remove it but leaves the client's CPU busy, which on a
/// two-CPU host changes where the server's threads wake and makes the
/// sub-millisecond latencies bimodal from run to run.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn stage_sums(server: &Server, trace_id: u64) -> BTreeMap<String, u64> {
    let mut sums = BTreeMap::new();
    for span in server.trace_spans(trace_id) {
        *sums.entry(span.stage).or_insert(0) += span.duration_nanos;
    }
    sums
}

/// Runs one phase: every connection loops until its `next` runs dry or the
/// deadline passes.  Traced phases stamp a fresh trace id on every request
/// and read the server's spans for it once they are complete.
pub fn run_phase(
    server: &Server,
    conns: Vec<Conn<'_>>,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let mut clients = Vec::with_capacity(conns.len());
    for _ in 0..conns.len() {
        clients.push(client(server)?);
    }
    let stats_before = server.engine().stats().cache;
    let start = Instant::now();
    let cpu_start = cpu_s();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<Result<(Vec<Done>, FirstReports), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(clients)
            .enumerate()
            .map(|(c, (mut conn, mut client))| {
                scope.spawn(move || {
                    let mut done: Vec<Done> = Vec::new();
                    let mut seen = FirstReports::new();
                    // The previous traced request, whose spans are complete
                    // once the next response has arrived.
                    let mut pending: Option<(usize, u64)> = None;
                    for i in 0u64.. {
                        let Some((op, due)) = (conn.next)(i) else {
                            break;
                        };
                        let due_at = due.map(|d| start + Duration::from_nanos(d));
                        match due_at {
                            Some(at) if at >= deadline => break,
                            Some(at) => wait_until(at),
                            None if i >= conn.min_requests && Instant::now() >= deadline => break,
                            None => {}
                        }
                        let trace_id = ((c as u64 + 1) << 40) | (i + 1);
                        if traced {
                            client.set_trace(Some(TraceContext::new(trace_id, 1)));
                        }
                        let header = op.header();
                        let sent = Instant::now();
                        let cpu = cpu_s();
                        let result = execute(&mut client, op, &mut seen);
                        let cpu = cpu_s() - cpu;
                        let finished = Instant::now();
                        if result.is_ok() {
                            (conn.on_done)(&header);
                        }
                        let sent_ns = nanos(start, sent);
                        done.push(Done {
                            kind: header.kind(),
                            sketch: header.sketch().to_string(),
                            conn: c,
                            timing: OpenLoopTiming {
                                due: due.unwrap_or(sent_ns),
                                sent: sent_ns,
                                done: nanos(start, finished),
                            },
                            cpu_s: cpu,
                            ok: result.is_ok(),
                            stages: None,
                        });
                        if let Some((index, id)) = pending.take() {
                            done[index].stages = Some(stage_sums(server, id));
                        }
                        if traced {
                            pending = Some((done.len() - 1, trace_id));
                        }
                    }
                    if let Some((index, id)) = pending {
                        // One untraced round trip completes the last span set.
                        client.set_trace(None);
                        client.ping().map_err(|e| format!("ping: {e}"))?;
                        done[index].stages = Some(stage_sums(server, id));
                    }
                    Ok((done, seen))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_s() - cpu_start;
    let mut phase = Phase {
        done: Vec::new(),
        seen: Vec::new(),
        wall_s,
        cpu_s,
        cache_hits: 0,
        cache_lookups: 0,
        epoll_wakeups: 0,
        requests: 0,
    };
    for result in results {
        let (done, seen) = result?;
        phase.done.extend(done);
        phase.seen.push(seen);
    }
    let stats = server.engine().stats().cache;
    phase.cache_hits = stats.hits - stats_before.hits;
    phase.cache_lookups = phase.cache_hits + stats.misses - stats_before.misses;
    let metrics = server.metrics_snapshot();
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    phase.epoll_wakeups = counter("epoll_wakeups_total");
    phase.requests = counter("requests_total");
    Ok(phase)
}

/// Binds a server on an ephemeral loopback port holding `served`.
pub fn bind(served: &[&Served], engine: EngineConfig, traced: bool) -> Result<Server, String> {
    let obs = if traced {
        ObsConfig::default()
    } else {
        ObsConfig::disabled()
    };
    let server =
        Server::bind_with_obs("127.0.0.1:0", engine, obs).map_err(|e| format!("bind: {e}"))?;
    for s in served {
        server.catalog().insert(s.name.clone(), s.entry.clone());
    }
    Ok(server)
}

/// Registers the archived sketch under [`ARCHIVE`] and returns the
/// `PutSnapshot` payload that re-registers it: a Fig. 6 pair of 500-key
/// sets, 8 trials, about 33 KB encoded.  Like an `IngestBatch` frame it is
/// larger than the client's write buffer but smaller than one loopback
/// segment, so every put meets the same client-side send path.
pub fn archive(server: &Server, seed: u64) -> Result<Put, String> {
    let entry = CatalogEntry::build(
        generate_set_pair(&SetPairConfig::new(500, 0.5)),
        Scheme::oblivious(0.1),
        1,
        8,
        derive(seed, 5),
    )
    .map_err(|e| format!("archive: {e}"))?;
    let bytes = pie_store::encode_to_vec(&entry).map_err(|e| format!("encode: {e}"))?;
    server.catalog().insert(ARCHIVE, entry);
    Ok((ARCHIVE.to_string(), Arc::new(bytes)))
}

/// Every `(sketch, suite, statistic)` triple of the served sketches.
pub fn triples(served: &[&Served]) -> Vec<(String, &'static str, &'static str)> {
    served
        .iter()
        .flat_map(|s| {
            s.pairs
                .iter()
                .map(|&(suite, stat)| (s.name.clone(), suite, stat))
        })
        .collect()
}

/// The cold closed loop of one connection: three of every four requests
/// are an `Estimate` cycling through every triple, the fourth a
/// `BatchEstimate` of all of one sketch's pairs, alternating sketches.
/// `first` counts the requests the connection sent in earlier phases, so
/// that the cycle carries on where they left it.
pub fn cold_conn<'a>(
    served: &'a [&'a Served],
    conn: usize,
    first: u64,
    min_requests: u64,
) -> Conn<'a> {
    let all = triples(served);
    let mut estimates = conn * 3 + (first - first / 4) as usize;
    let mut batches = conn + (first / 4) as usize;
    Conn {
        next: Box::new(move |i| {
            let op = if (first + i) % 4 == 3 {
                let s = served[batches % served.len()];
                batches += 1;
                Op::Batch {
                    sketch: s.name.clone(),
                    pairs: s.pairs.clone(),
                }
            } else {
                let (sketch, suite, stat) = all[estimates % all.len()].clone();
                estimates += 1;
                Op::Estimate {
                    sketch,
                    suite,
                    stat,
                }
            };
            Some((op, None))
        }),
        min_requests,
        on_done: Box::new(|_| {}),
    }
}

/// Inverse-CDF sampler over Zipf popularity ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A freshly ingested sketch: its name, configuration and records.
#[derive(Clone)]
pub struct Fresh {
    pub name: String,
    pub config: SketchConfig,
    pub records: Arc<Vec<IngestRecord>>,
}

impl Fresh {
    /// The `IngestBatch` requests that build and finalize this sketch.
    pub fn batches(&self) -> Vec<Op> {
        let chunks: Vec<&[IngestRecord]> = self.records.chunks(INGEST_BATCH_RECORDS).collect();
        chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| Op::Ingest {
                sketch: self.name.clone(),
                config: self.config,
                records: chunk.to_vec(),
                last: i + 1 == chunks.len(),
            })
            .collect()
    }

    /// The entry an in-process build over the same records gives: the
    /// records assembled per instance in arrival order, as the catalog
    /// assembles them.
    pub fn expected_entry(&self) -> CatalogEntry {
        let instances = self
            .records
            .iter()
            .map(|r| r.instance + 1)
            .max()
            .unwrap_or(0);
        let mut built = vec![Instance::new(); instances as usize];
        for r in self.records.iter() {
            built[r.instance as usize].add(r.key, r.value);
        }
        CatalogEntry::build(
            Dataset::new(self.name.clone(), built),
            self.config.scheme,
            self.config.shards as usize,
            self.config.trials,
            self.config.base_salt,
        )
        .expect("fresh sketch configurations are valid")
    }
}

/// The source of fresh sketches for the write stream: one small traffic
/// pair, rebuilt under a new salt (so a new fingerprint) each generation.
pub struct FreshSource {
    seed: u64,
    scheme: Scheme,
    records: Arc<Vec<IngestRecord>>,
    pub pairs: Vec<(&'static str, &'static str)>,
}

impl FreshSource {
    pub fn new(seed: u64) -> Self {
        let dataset = small_traffic(seed);
        let scheme = Scheme::pps(tau_star_for_fraction(
            &dataset,
            crate::fixtures::SAMPLED_FRACTION,
        ));
        let records: Vec<IngestRecord> = dataset_records(&dataset)
            .map(|r| IngestRecord {
                instance: r.instance,
                key: r.key,
                value: r.value,
            })
            .collect();
        let probe = CatalogEntry::build(Arc::clone(&dataset), scheme, 1, 1, 0)
            .expect("fresh sketch configurations are valid");
        Self {
            seed,
            scheme,
            records: Arc::new(records),
            pairs: crate::fixtures::accepted_pairs(&probe),
        }
    }

    pub fn generation(&self, g: u64) -> Fresh {
        Fresh {
            name: format!("fresh-{g}"),
            config: SketchConfig {
                scheme: self.scheme,
                shards: 1,
                trials: FRESH_TRIALS,
                base_salt: derive(self.seed, 1000 + g),
            },
            records: Arc::clone(&self.records),
        }
    }
}

/// Read slots of the mixed workload: every static triple plus each pair of
/// "the newest fresh sketch", whose name moves as sketches are written.
pub enum Slot {
    Static(String, &'static str, &'static str),
    Fresh(&'static str, &'static str),
}

/// The shared state between the mixed workload's writer and readers.
#[derive(Default)]
pub struct MixedState {
    /// The newest finalized fresh sketch, which the fresh slots read.
    pub newest: Mutex<String>,
    /// Every fresh sketch the writer started.
    pub started: Mutex<Vec<Fresh>>,
    /// Names of the fresh sketches the server finalized.
    pub finished: Mutex<Vec<String>>,
}

/// The open-loop read stream of one connection: Zipf-chosen users, each
/// mapped to a fixed slot; one read in four is a `BatchEstimate` of the
/// slot's whole sketch.
pub fn mixed_reader<'a>(
    served: &'a [&'a Served],
    fresh_pairs: &'a [(&'static str, &'static str)],
    state: &'a MixedState,
    zipf: &'a Zipf,
    seed: u64,
    rate: f64,
) -> Conn<'a> {
    let mut slots: Vec<Slot> = triples(served)
        .into_iter()
        .map(|(s, a, b)| Slot::Static(s, a, b))
        .collect();
    slots.extend(fresh_pairs.iter().map(|&(a, b)| Slot::Fresh(a, b)));
    let schedule = Schedule::per_second(rate);
    let mut rng = SplitMix(seed);
    Conn {
        next: Box::new(move |i| {
            let user = zipf.sample(&mut rng);
            // The user-to-slot map is fixed (not seeded), so every seed
            // offers each slot the same share of reads.
            let slot = &slots[(mix(user as u64) % slots.len() as u64) as usize];
            let (sketch, suite, stat) = match slot {
                Slot::Static(s, a, b) => (s.clone(), *a, *b),
                Slot::Fresh(a, b) => (state.newest.lock().expect("state lock").clone(), *a, *b),
            };
            let op = if i % 4 == 3 {
                let pairs = served
                    .iter()
                    .find(|s| s.name == sketch)
                    .map_or_else(|| fresh_pairs.to_vec(), |s| s.pairs.clone());
                Op::Batch { sketch, pairs }
            } else {
                Op::Estimate {
                    sketch,
                    suite,
                    stat,
                }
            };
            Some((op, Some(schedule.due(i))))
        }),
        min_requests: 0,
        on_done: Box::new(|_| {}),
    }
}

/// The open-loop write stream: `IngestBatch` frames that build fresh
/// sketches generation after generation, and after every [`PUT_EVERY`]
/// sketches the `PutSnapshot` in `put`.
pub fn mixed_writer<'a>(
    source: &'a FreshSource,
    state: &'a MixedState,
    put: Put,
    first_generation: u64,
    rate: f64,
) -> Conn<'a> {
    let schedule = Schedule::per_second(rate);
    let mut queue: std::collections::VecDeque<Op> = std::collections::VecDeque::new();
    let mut generation = first_generation;
    Conn {
        next: Box::new(move |i| {
            if queue.is_empty() {
                let fresh = source.generation(generation);
                queue.extend(fresh.batches());
                state.started.lock().expect("state lock").push(fresh);
                generation += 1;
                if (generation - first_generation).is_multiple_of(PUT_EVERY) {
                    queue.push_back(Op::Put {
                        name: put.0.clone(),
                        bytes: put.1.to_vec(),
                    });
                }
            }
            queue.pop_front().map(|op| (op, Some(schedule.due(i))))
        }),
        min_requests: 0,
        on_done: Box::new(move |op| {
            if let Op::Ingest {
                sketch, last: true, ..
            } = op
            {
                *state.newest.lock().expect("state lock") = sketch.clone();
                state
                    .finished
                    .lock()
                    .expect("state lock")
                    .push(sketch.clone());
            }
        }),
    }
}

/// Per-kind means of each server stage, the client-observed round trip and
/// the part of it no span covers, over a traced phase's requests.
pub fn stage_breakdown(done: &[Done], kinds: &[Kind]) -> Option<(BTreeMap<String, f64>, f64, f64)> {
    let traced: Vec<&Done> = done
        .iter()
        .filter(|d| kinds.contains(&d.kind) && d.ok && d.stages.is_some())
        .collect();
    if traced.is_empty() {
        return None;
    }
    let n = traced.len() as f64;
    let mut stages: BTreeMap<String, f64> = BTreeMap::new();
    for d in &traced {
        for (stage, &ns) in d.stages.as_ref().expect("filtered on spans") {
            *stages.entry(stage.clone()).or_insert(0.0) += ns as f64 / n;
        }
    }
    let round_trip = traced.iter().map(|d| d.round_trip_ns() as f64).sum::<f64>() / n;
    let covered: f64 = stages.values().sum();
    Some((stages, round_trip, residual(round_trip, covered)))
}

/// How late the generator ran, in milliseconds, averaged over requests: an
/// open loop's send time after the due time, and a closed loop's gap
/// between a response and the next send on the same connection.
pub fn generator_lag_ms(done: &[Done], open: bool) -> f64 {
    let mut last_done: BTreeMap<usize, u64> = BTreeMap::new();
    let mut total = 0.0;
    let mut n = 0.0;
    for d in done {
        let lag = if open {
            Some(d.timing.lateness())
        } else {
            last_done
                .insert(d.conn, d.timing.done)
                .map(|prev| d.timing.sent.saturating_sub(prev))
        };
        if let Some(lag) = lag {
            total += lag as f64;
            n += 1.0;
        }
    }
    if n > 0.0 {
        total / n / 1e6
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn describe(op: &Op) -> String {
        match op {
            Op::Estimate {
                sketch,
                suite,
                stat,
            } => format!("estimate {sketch} {suite} {stat}"),
            Op::Batch { sketch, .. } => format!("batch {sketch}"),
            _ => unreachable!("the cold loop sends reads only"),
        }
    }

    /// A measured cold loop runs in slices; each slice's connections must
    /// carry on the request cycle exactly where the previous slice left it.
    #[test]
    fn cold_cycle_carries_on_across_phases() {
        let sets = Served::sets(1);
        let mut other = Served::sets(2);
        other.name = "other".into();
        let served = [&sets, &other];
        let take = |conn: usize, first: u64, n: u64| -> Vec<String> {
            let mut c = cold_conn(&served, conn, first, 0);
            (0..n)
                .map(|i| describe(&(c.next)(i).expect("a closed loop never runs dry").0))
                .collect()
        };
        for conn in 0..2 {
            let whole = take(conn, 0, 23);
            for split in [1, 3, 4, 5, 11] {
                let mut parts = take(conn, 0, split);
                parts.extend(take(conn, split, 23 - split));
                assert_eq!(parts, whole, "conn {conn}, split after {split}");
            }
        }
    }
}
