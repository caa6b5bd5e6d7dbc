//! The blocking client library for the sketch-query wire protocol.
//!
//! [`ServeClient`] speaks one request/response exchange at a time over a
//! plain [`TcpStream`] — the shape a query fan-out wants (one client per
//! worker thread), with no async runtime.  Every failure mode is a typed
//! [`ServeError`]: transport failures, protocol violations, socket
//! timeouts, and the server's own typed refusals all arrive through the
//! same error type.
//!
//! # Timeouts
//!
//! A [`ClientConfig`] sets connect/read/write socket timeouts (all off by
//! default, preserving the original block-forever behavior).  An expired
//! timeout surfaces as the typed [`ServeError::Timeout`] — the signal a
//! failover layer needs to declare a node dead instead of hanging on it.
//! A timed-out connection is **poisoned**: its stream position is
//! unknowable, so the client transparently reconnects (replaying its
//! [`identify`](ServeClient::identify) tenant, which is connection state)
//! before the next exchange.
//!
//! # Retry semantics
//!
//! A [`RetryPolicy`] adds bounded retry-with-backoff in exactly three
//! places where retrying is known safe:
//!
//! * **connect** ([`ServeClient::connect_with_retry`]) — the server may not
//!   be listening yet;
//! * **[`ServeError::Overloaded`] responses** — an admission-control shed
//!   means the request was *not executed*, so re-sending it cannot
//!   double-apply anything (the client honors the server's
//!   `retry_after_ms` hint when it is longer than the backoff step);
//! * **timeouts and transport faults on idempotent requests** — reads
//!   (`ListCatalog`, `Estimate`, `BatchEstimate`, `Stats`), the liveness
//!   probe (`Ping`), and `Identify` (re-asserting an identity is a no-op).
//!   The client reconnects and re-sends.
//!
//! Timeouts and transport faults on **non-idempotent** requests
//! (`IngestBatch`, `LoadSnapshot`, `PutSnapshot`) are *never* retried:
//! mid-exchange, whether the server executed the request is unknowable,
//! and a blind re-send could double-ingest a batch.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use partial_info_estimators::{CatalogEntry, PipelineReport};
use pie_engine::EngineStatsReport;
use pie_obs::{MetricsSnapshot, SpanRecord, TraceContext};
use pie_store::StoreError;

use crate::error::ServeError;
use crate::wire::{
    read_response, write_message_traced, BatchQuery, IngestRecord, Request, Response, SketchConfig,
    SketchInfo, WireFault,
};

/// The acknowledgement of one ingest batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestAck {
    /// The sketch the batch was appended to.
    pub sketch: String,
    /// Records buffered server-side after this batch (0 once finalized).
    pub buffered_records: u64,
    /// Whether the sketch is now finalized and answering queries.
    pub ready: bool,
}

/// Bounded retry-with-backoff for the known-safe retry points (see the
/// [module docs](self)).  The default policy never retries, preserving the
/// one-exchange-per-call behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on any one sleep (also caps the server's
    /// `retry_after_ms` hint).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 1,
            base_backoff: Duration::from_millis(0),
            max_backoff: Duration::from_millis(0),
        }
    }
}

impl RetryPolicy {
    /// A sensible bounded policy: `attempts` total tries, 10 ms initial
    /// backoff doubling up to 500 ms.
    #[must_use]
    pub fn bounded(attempts: u32) -> Self {
        Self {
            attempts: attempts.max(1),
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }

    /// The sleep before retry number `retry` (0-based), before the hint.
    fn backoff(&self, retry: u32) -> Duration {
        let scaled = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        scaled.min(self.max_backoff)
    }
}

/// Connection tunables: socket timeouts plus the retry policy.  The
/// default keeps every timeout off (block forever) and never retries —
/// exactly the pre-timeout client behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientConfig {
    /// Cap on establishing the TCP connection (`None`: OS default).
    pub connect_timeout: Option<Duration>,
    /// Cap on any one socket read while awaiting a response (`None`:
    /// block forever).
    pub read_timeout: Option<Duration>,
    /// Cap on any one socket write while sending a request (`None`:
    /// block forever).
    pub write_timeout: Option<Duration>,
    /// The retry policy (connect, overload sheds, idempotent timeouts).
    pub retry: RetryPolicy,
}

impl ClientConfig {
    /// A failover-detection profile: every socket operation capped at
    /// `timeout`, with `attempts` bounded retries.
    #[must_use]
    pub fn with_deadline(timeout: Duration, attempts: u32) -> Self {
        Self {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
            retry: RetryPolicy::bounded(attempts),
        }
    }
}

/// Counters for every silent retry the client performed on the caller's
/// behalf — the visibility a capacity dashboard needs to see pressure
/// *before* requests start failing outright.  Read them through
/// [`ServeClient::retry_stats`]; they only ever grow for the lifetime of
/// the client (reconnects do not reset them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Re-dials during [`ServeClient::connect_with_config`] /
    /// [`ServeClient::connect_with_retry`].
    pub connect_retries: u64,
    /// Re-sends after a typed [`ServeError::Overloaded`] shed (the server
    /// did not execute the request).
    pub overloaded_retries: u64,
    /// Reconnect-and-re-send cycles after a timeout or transport fault on
    /// an idempotent request.
    pub transport_retries: u64,
}

impl RetryStats {
    /// Every retry of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.connect_retries + self.overloaded_retries + self.transport_retries
    }
}

/// Whether a request can safely be re-sent after a timeout or transport
/// fault, when the first send's fate is unknowable.
fn idempotent(request: &Request) -> bool {
    match request {
        // Pure reads, the liveness probe, and identity re-assertion.
        Request::ListCatalog
        | Request::Estimate { .. }
        | Request::BatchEstimate { .. }
        | Request::Stats
        | Request::Metrics
        | Request::QueryTrace { .. }
        | Request::Ping
        | Request::Identify { .. } => true,
        // State-changing: a double-send could double-apply.
        Request::IngestBatch { .. }
        | Request::LoadSnapshot { .. }
        | Request::PutSnapshot { .. } => false,
    }
}

/// Whether an I/O error is a socket-timeout expiry (`read_timeout` and
/// `write_timeout` surface as `WouldBlock` on Unix, `TimedOut` elsewhere).
fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Maps a store-layer failure to its client-facing error, carving the
/// typed [`ServeError::Timeout`] out of the I/O bucket.
fn store_error(error: &StoreError, during: &str) -> ServeError {
    if let StoreError::Io(io_error) = error {
        if is_timeout(io_error) {
            return ServeError::Timeout {
                during: during.to_string(),
            };
        }
    }
    ServeError::protocol(error)
}

/// A blocking connection to a [`Server`](crate::Server).
///
/// ```no_run
/// use pie_serve::ServeClient;
///
/// let mut client = ServeClient::connect("127.0.0.1:7070").unwrap();
/// let report = client
///     .estimate("traffic", "max_weighted", "max_dominance")
///     .unwrap();
/// println!("{}", report.render());
/// ```
pub struct ServeClient {
    /// Resolved addresses, kept for reconnects after poisoning.
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    retry: RetryPolicy,
    /// The last successfully identified tenant, replayed on reconnect
    /// (identity is connection state on the server).
    tenant: Option<String>,
    /// A timeout or transport fault left the stream position unknowable;
    /// reconnect before the next exchange.
    poisoned: bool,
    /// Trace context stamped onto every outgoing frame (`None`: untraced
    /// frames, byte-identical to the pre-tracing wire).
    trace: Option<TraceContext>,
    /// Silent-retry counters; see [`RetryStats`].
    retry_stats: RetryStats,
}

impl ServeClient {
    /// Connects to a server.
    ///
    /// # Errors
    /// [`ServeError::Transport`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::connect_with_config(addr, ClientConfig::default())
    }

    /// Connects, retrying refused/failed connection attempts under
    /// `policy`, and installs the same policy for
    /// [`Overloaded`](ServeError::Overloaded)-response and idempotent
    /// timeout retries on every subsequent call.
    ///
    /// # Errors
    /// [`ServeError::Transport`] once the attempts are exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<Self, ServeError> {
        Self::connect_with_config(
            addr,
            ClientConfig {
                retry: policy,
                ..ClientConfig::default()
            },
        )
    }

    /// Connects under explicit [`ClientConfig`] tunables: socket timeouts
    /// and the retry policy.
    ///
    /// # Errors
    /// [`ServeError::Transport`] (or [`ServeError::Timeout`] when the
    /// connect timeout expired) once the attempts are exhausted.
    pub fn connect_with_config(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ServeError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::transport(&e))?
            .collect();
        let policy = config.retry;
        let mut retry = 0u32;
        let stream = loop {
            match dial(&addrs, &config) {
                Ok(stream) => break stream,
                Err(_) if retry + 1 < policy.attempts.max(1) => {
                    std::thread::sleep(policy.backoff(retry));
                    retry += 1;
                }
                Err(e) if is_timeout(&e) => {
                    return Err(ServeError::Timeout {
                        during: "connecting".to_string(),
                    })
                }
                Err(e) => return Err(ServeError::transport(&e)),
            }
        };
        let (reader, writer) = split(stream, &config)?;
        Ok(Self {
            addrs,
            config,
            reader,
            writer,
            retry: policy,
            tenant: None,
            poisoned: false,
            trace: None,
            retry_stats: RetryStats {
                connect_retries: u64::from(retry),
                ..RetryStats::default()
            },
        })
    }

    /// Stamps `trace` onto every subsequent outgoing frame as the optional
    /// trace-context wire extension; `None` reverts to untraced frames.
    /// A server (or router) that sees the context tags its per-stage span
    /// records with the caller's `trace_id`, retrievable later through
    /// [`query_trace`](Self::query_trace).
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.trace = trace;
    }

    /// The trace context currently stamped onto outgoing frames.
    #[must_use]
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    /// Counters for every silent retry this client has performed —
    /// connect re-dials, overload re-sends, idempotent transport retries.
    #[must_use]
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Replaces the retry policy used for
    /// [`Overloaded`](ServeError::Overloaded)-response and idempotent
    /// timeout retries.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self.config.retry = policy;
        self
    }

    /// Re-dials a poisoned connection and replays the identified tenant.
    fn reconnect(&mut self) -> Result<(), ServeError> {
        let stream = dial(&self.addrs, &self.config).map_err(|e| {
            if is_timeout(&e) {
                ServeError::Timeout {
                    during: "reconnecting".to_string(),
                }
            } else {
                ServeError::transport(&e)
            }
        })?;
        let (reader, writer) = split(stream, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        self.poisoned = false;
        if let Some(tenant) = self.tenant.clone() {
            match self.exchange(&Request::Identify { tenant })? {
                Response::Identified { .. } => {}
                _ => {
                    return Err(ServeError::UnexpectedResponse {
                        expected: "Identified",
                    })
                }
            }
        }
        Ok(())
    }

    /// One request/response exchange on the wire.  Timeouts and transport
    /// faults poison the connection (stream position unknowable).
    fn exchange(&mut self, request: &Request) -> Result<Response, ServeError> {
        if let Err(e) = write_message_traced(&mut self.writer, request, self.trace.as_ref()) {
            self.poisoned = true;
            return Err(store_error(&e, "writing the request"));
        }
        match read_response(&mut self.reader) {
            Ok(Some(Response::Error(error))) => Err(error),
            Ok(Some(response)) => Ok(response),
            Ok(None) => {
                self.poisoned = true;
                Err(ServeError::Transport {
                    detail: "server closed the connection".to_string(),
                })
            }
            Err(WireFault { error, fatal }) => {
                if fatal {
                    self.poisoned = true;
                }
                Err(store_error(&error, "reading the response"))
            }
        }
    }

    /// One logical call.  Retries typed
    /// [`Overloaded`](ServeError::Overloaded) sheds for any request (a shed
    /// request was not executed), and [`Timeout`](ServeError::Timeout)/
    /// [`Transport`](ServeError::Transport) faults for **idempotent**
    /// requests only (reconnecting first); sleeps the longer of the backoff
    /// step and the server's hint, capped at `max_backoff`.
    fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        let mut retry = 0u32;
        loop {
            if self.poisoned {
                // Establishing a fresh connection is always safe; only the
                // *re-send* of a request needs idempotency, and this path
                // precedes any send.
                self.reconnect()?;
            }
            match self.exchange(request) {
                Err(ServeError::Overloaded {
                    what,
                    retry_after_ms,
                }) => {
                    if retry + 1 >= self.retry.attempts.max(1) {
                        return Err(ServeError::Overloaded {
                            what,
                            retry_after_ms,
                        });
                    }
                    let hint = Duration::from_millis(retry_after_ms).min(self.retry.max_backoff);
                    std::thread::sleep(self.retry.backoff(retry).max(hint));
                    retry += 1;
                    self.retry_stats.overloaded_retries += 1;
                }
                Err(error @ (ServeError::Timeout { .. } | ServeError::Transport { .. }))
                    if idempotent(request) && retry + 1 < self.retry.attempts.max(1) =>
                {
                    std::thread::sleep(self.retry.backoff(retry));
                    retry += 1;
                    self.retry_stats.transport_retries += 1;
                    let _ = error;
                }
                other => return other,
            }
        }
    }

    /// Lists every catalog entry, sorted by name.
    ///
    /// # Errors
    /// Transport/protocol failures or the server's typed refusal.
    pub fn list_catalog(&mut self) -> Result<Vec<SketchInfo>, ServeError> {
        match self.call(&Request::ListCatalog)? {
            Response::Catalog(entries) => Ok(entries),
            _ => Err(ServeError::UnexpectedResponse {
                expected: "Catalog",
            }),
        }
    }

    /// Names the tenant this connection's subsequent requests bill to
    /// (quota buckets and `Stats` counters).  The identity survives
    /// timeout-driven reconnects: the client replays it on the new
    /// connection.
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog).
    pub fn identify(&mut self, tenant: impl Into<String>) -> Result<String, ServeError> {
        let request = Request::Identify {
            tenant: tenant.into(),
        };
        match self.call(&request)? {
            Response::Identified { tenant } => {
                self.tenant = Some(tenant.clone());
                Ok(tenant)
            }
            _ => Err(ServeError::UnexpectedResponse {
                expected: "Identified",
            }),
        }
    }

    /// Asks the server to load a persisted catalog-entry snapshot file
    /// (a path on the **server's** filesystem) under `name`.
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog); snapshot failures arrive as
    /// [`ServeError::Snapshot`].
    pub fn load_snapshot(
        &mut self,
        name: impl Into<String>,
        path: impl Into<String>,
    ) -> Result<SketchInfo, ServeError> {
        let request = Request::LoadSnapshot {
            name: name.into(),
            path: path.into(),
        };
        match self.call(&request)? {
            Response::Loaded(info) => Ok(info),
            _ => Err(ServeError::UnexpectedResponse { expected: "Loaded" }),
        }
    }

    /// Ships an encoded catalog entry to the server **in-band** and
    /// registers it under `name` — the cluster replication path; nothing
    /// has to exist on the server's filesystem.
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog); undecodable bytes arrive as
    /// [`ServeError::Snapshot`].
    pub fn put_snapshot(
        &mut self,
        name: impl Into<String>,
        entry: &CatalogEntry,
    ) -> Result<SketchInfo, ServeError> {
        let snapshot = pie_store::encode_to_vec(entry).map_err(|e| ServeError::Snapshot {
            detail: e.to_string(),
        })?;
        self.put_snapshot_bytes(name, snapshot)
    }

    /// [`put_snapshot`](Self::put_snapshot) with pre-encoded entry bytes
    /// (lets a router replicate one encoding to many nodes without
    /// re-encoding).
    ///
    /// # Errors
    /// As [`put_snapshot`](Self::put_snapshot).
    pub fn put_snapshot_bytes(
        &mut self,
        name: impl Into<String>,
        snapshot: Vec<u8>,
    ) -> Result<SketchInfo, ServeError> {
        let request = Request::PutSnapshot {
            name: name.into(),
            snapshot,
        };
        match self.call(&request)? {
            Response::Loaded(info) => Ok(info),
            _ => Err(ServeError::UnexpectedResponse { expected: "Loaded" }),
        }
    }

    /// Liveness probe: a full round trip through the server's event loop
    /// and worker pool, touching neither the catalog nor the engine.
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog) — a dead or hung node
    /// surfaces as [`ServeError::Timeout`] / [`ServeError::Transport`].
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ServeError::UnexpectedResponse { expected: "Pong" }),
        }
    }

    /// Appends one batch of records to a (possibly new) building sketch;
    /// `last: true` finalizes it.  Batches for one sketch may come from
    /// many clients concurrently — the finalized state is independent of
    /// arrival order.
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog); ingest refusals arrive as
    /// their own typed variants (config mismatch, invalid record, …).
    pub fn ingest_batch(
        &mut self,
        sketch: impl Into<String>,
        config: SketchConfig,
        records: Vec<IngestRecord>,
        last: bool,
    ) -> Result<IngestAck, ServeError> {
        let request = Request::IngestBatch {
            sketch: sketch.into(),
            config,
            records,
            last,
        };
        match self.call(&request)? {
            Response::Ingested {
                sketch,
                buffered_records,
                ready,
            } => Ok(IngestAck {
                sketch,
                buffered_records,
                ready,
            }),
            _ => Err(ServeError::UnexpectedResponse {
                expected: "Ingested",
            }),
        }
    }

    /// Runs one estimation query: `estimator` names a suite from
    /// [`pie_core::suite::SUITE_NAMES`], `statistic` a statistic from
    /// [`Statistic::NAMES`](partial_info_estimators::Statistic::NAMES).
    /// The report is bit-identical to the in-process pipelines on the same
    /// configuration.
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog); estimator resolution
    /// failures arrive as their typed variants.
    pub fn estimate(
        &mut self,
        sketch: impl Into<String>,
        estimator: impl Into<String>,
        statistic: impl Into<String>,
    ) -> Result<PipelineReport, ServeError> {
        let request = Request::Estimate {
            sketch: sketch.into(),
            estimator: estimator.into(),
            statistic: statistic.into(),
        };
        match self.call(&request)? {
            Response::Estimated(report) => Ok(report),
            _ => Err(ServeError::UnexpectedResponse {
                expected: "Estimated",
            }),
        }
    }

    /// Answers many `(estimator, statistic)` combinations against one
    /// sketch from a single server-side replay over its finalized samples.
    /// Reports come back in request order, each bit-identical to the
    /// corresponding [`estimate`](Self::estimate) call.
    ///
    /// ```no_run
    /// use pie_serve::{BatchQuery, ServeClient};
    ///
    /// let mut client = ServeClient::connect("127.0.0.1:7070").unwrap();
    /// let reports = client
    ///     .batch_estimate(
    ///         "traffic",
    ///         vec![
    ///             BatchQuery {
    ///                 estimator: "max_weighted".into(),
    ///                 statistic: "max_dominance".into(),
    ///             },
    ///             BatchQuery {
    ///                 estimator: "max_weighted".into(),
    ///                 statistic: "distinct_count".into(),
    ///             },
    ///         ],
    ///     )
    ///     .unwrap();
    /// assert_eq!(reports.len(), 2);
    /// ```
    ///
    /// # Errors
    /// As [`estimate`](Self::estimate); over- and under-sized batches are
    /// refused with [`ServeError::InvalidConfig`].
    pub fn batch_estimate(
        &mut self,
        sketch: impl Into<String>,
        queries: Vec<BatchQuery>,
    ) -> Result<Vec<PipelineReport>, ServeError> {
        let request = Request::BatchEstimate {
            sketch: sketch.into(),
            queries,
        };
        match self.call(&request)? {
            Response::BatchEstimated(reports) => Ok(reports),
            _ => Err(ServeError::UnexpectedResponse {
                expected: "BatchEstimated",
            }),
        }
    }

    /// Fetches the engine's observability snapshot: cache hit rate, queue
    /// depth, shed counts, and per-tenant counters.
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog).
    pub fn stats(&mut self) -> Result<EngineStatsReport, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ServeError::UnexpectedResponse { expected: "Stats" }),
        }
    }

    /// Fetches the server's full metrics-registry snapshot: exact request
    /// counters, gauges, and the log-bucketed latency histograms.
    ///
    /// ```no_run
    /// use pie_serve::ServeClient;
    ///
    /// let mut client = ServeClient::connect("127.0.0.1:7070").unwrap();
    /// let metrics = client.metrics().unwrap();
    /// for counter in &metrics.counters {
    ///     println!("{} {}", counter.name, counter.value);
    /// }
    /// println!("{}", metrics.render_text());
    /// ```
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServeError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            _ => Err(ServeError::UnexpectedResponse {
                expected: "Metrics",
            }),
        }
    }

    /// Fetches every per-stage span the server still holds for `trace_id`
    /// (the ring is bounded; old traces age out).  Stamp a
    /// [`TraceContext`] with [`set_trace`](Self::set_trace) first, issue
    /// the request to trace, then query its spans back:
    ///
    /// ```no_run
    /// use pie_serve::{ServeClient, TraceContext};
    ///
    /// let mut client = ServeClient::connect("127.0.0.1:7070").unwrap();
    /// client.set_trace(Some(TraceContext::new(0xBEEF, 1)));
    /// let _report = client
    ///     .estimate("traffic", "max_weighted", "max_dominance")
    ///     .unwrap();
    /// client.set_trace(None);
    /// for span in client.query_trace(0xBEEF).unwrap() {
    ///     println!("{} {} {}ns", span.node, span.stage, span.duration_nanos);
    /// }
    /// ```
    ///
    /// # Errors
    /// As [`list_catalog`](Self::list_catalog).
    pub fn query_trace(&mut self, trace_id: u64) -> Result<Vec<SpanRecord>, ServeError> {
        match self.call(&Request::QueryTrace { trace_id })? {
            Response::Traces(spans) => Ok(spans),
            _ => Err(ServeError::UnexpectedResponse { expected: "Traces" }),
        }
    }
}

/// Dials the first address that answers, honoring the connect timeout.
fn dial(addrs: &[SocketAddr], config: &ClientConfig) -> io::Result<TcpStream> {
    let mut last_error = None;
    for addr in addrs {
        let attempt = match config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(addr, timeout),
            None => TcpStream::connect(addr),
        };
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(e) => last_error = Some(e),
        }
    }
    Err(last_error
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")))
}

/// Disables Nagle's algorithm, applies the read/write timeouts and splits
/// the stream into halves (the socket options are set before cloning, so
/// both halves share them).
///
/// Without `TCP_NODELAY` a request frame larger than one segment (an
/// `IngestBatch` payload, say) waits for the server's delayed ACK before
/// its tail is sent; the server disables Nagle on its side too.
fn split(
    stream: TcpStream,
    config: &ClientConfig,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), ServeError> {
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(config.read_timeout))
        .and_then(|()| stream.set_write_timeout(config.write_timeout))
        .map_err(|e| ServeError::transport(&e))?;
    let read_half = stream.try_clone().map_err(|e| ServeError::transport(&e))?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_client_disables_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = ServeClient::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.get_ref().nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
    }
}
