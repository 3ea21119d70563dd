//! # `xnf-serve` — the normalization library as a governed service
//!
//! A std-only threaded HTTP/1.1 server (no external dependencies — the
//! build environment is offline) exposing the spec-level operations of
//! `xnf-cli::ops` over JSON:
//!
//! | endpoint          | operation                                    |
//! |-------------------|----------------------------------------------|
//! | `POST /v1/lint`     | [`xnf_cli::ops::lint_sources`]             |
//! | `POST /v1/is-xnf`   | [`xnf_cli::ops::is_xnf`]                   |
//! | `POST /v1/normalize`| [`xnf_cli::ops::normalize_spec`]           |
//! | `POST /v1/analyze`  | [`xnf_cli::ops::analyze_spec`]             |
//! | `POST /v1/batch`    | a sequence of the above in one request     |
//! | `GET /healthz`      | liveness                                   |
//! | `GET /readyz`       | readiness (`503` once draining)            |
//! | `GET /metrics`      | Prometheus text ([`Recorder::prometheus`]) |
//! | `GET /debug/requests` | recent request summaries (flight ring)   |
//! | `GET /debug/trace/{id}` | one request's span tree, Chrome-trace JSON |
//! | `POST /admin/drain` | graceful drain (see below)                 |
//!
//! ## Layered robustness
//!
//! The service composes the governance primitives grown in earlier PRs
//! into an overload-safe stack:
//!
//! 1. **Bounded accept queue** — the accept thread pushes connections
//!    into a fixed-depth queue; past the watermark it answers `429`
//!    with `Retry-After` *before* reading a byte of body (load is shed
//!    at the cheapest possible point).
//! 2. **Cost-model admission** — spec operations are admitted against
//!    an estimated-fuel-in-flight watermark. The estimate book learns
//!    each computed request's observed [`Budget::ticks`], so the
//!    admission controller learns the true cost of hot specs.
//! 3. **Per-tenant quotas** — API keys map to [`TokenBucket`] request
//!    rates and per-request budget caps (wall clock, fuel, memory).
//!    Budget exhaustion mid-request answers `503` carrying the partial
//!    step trace — never a hung connection.
//! 4. **Shared single-flight cache** — results are cached in a
//!    sharded single-flight cache (the private `cache` module) keyed by
//!    the *canonical* parsed spec, so formatting-different but
//!    semantically identical requests coalesce, concurrent identical
//!    requests compute once, and failed computations are never cached.
//! 5. **Graceful drain** — `POST /admin/drain` (or stdin EOF on the
//!    binary, the no-`libc` stand-in for SIGTERM; the workspace
//!    forbids `unsafe`, so no signal handler can be installed) stops
//!    the accept loop, finishes every queued request, and lets the
//!    process exit 0.
//!
//! With the `fault-injection` feature, `Server::set_fault` installs a
//! deterministic `FaultPlan` on every admitted request's budget; the
//! chaos suite sweeps each service-reachable checkpoint ordinal and
//! asserts a well-formed HTTP error every time — no panic, no dropped
//! connection, no partially cached entry.
//!
//! ## Request observability
//!
//! Every request carries a request id — minted, or propagated from a
//! client `x-request-id`/`traceparent` header — echoed back in the
//! `x-request-id` response header on every status, stamped into the
//! optional JSONL access log ([`ServeConfig::access_log`], one line per
//! request, schema `docs/access_log.schema.json`), and bound to a
//! per-request [`Recorder`] whose span tree lands in a bounded
//! [`FlightRecorder`] ring with tail-sampling
//! retention (errors, sheds, and the slow tail always; boring 200s
//! sampled). On completion the per-request recorder is absorbed into
//! the shared one, so fleet metrics see every request while `/metrics`
//! and `--stats` stay O(1) in request count. `GET /debug/requests`
//! lists the retained ring; `GET /debug/trace/{id}` replays one
//! request's span tree as Chrome-trace JSON.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
pub mod http;
// The request/response codec is the workspace's one JSON module.
pub use xnf_obs::json;

pub use cache::CacheStats;

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cache::{ShardedCache, SpecKey};
use crate::http::{HttpError, Request};
use crate::json::Json;
use xnf_cli::ops::{
    self, AnalyzeFormat, AnalyzeSpecOptions, IsXnfOptions, LintSpecOptions, NormalizeSpecOptions,
    Trust,
};
use xnf_cli::CliError;
#[cfg(feature = "fault-injection")]
use xnf_govern::FaultPlan;
use xnf_govern::{Budget, TokenBucket};
use xnf_obs::{FlightRecorder, LabeledHistograms, Recorder, RequestRecord};

/// One tenant: an API key, a display name, per-request budget caps,
/// and a request-rate quota.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// The value clients present in `X-Api-Key`.
    pub key: String,
    /// Display name (used in quota counters and error bodies).
    pub name: String,
    /// Per-request fuel cap (checkpoint ticks).
    pub fuel: u64,
    /// Per-request wall-clock deadline, milliseconds.
    pub deadline_ms: u64,
    /// Per-request memory cap (budget units; 0 = unmetered).
    pub memory: u64,
    /// Sustained requests per second.
    pub rate_per_sec: f64,
    /// Burst capacity (token-bucket size).
    pub burst: f64,
}

/// Server configuration; [`ServeConfig::default`] is a sane local
/// profile with an ephemeral port.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral).
    pub addr: String,
    /// Worker threads.
    pub threads: usize,
    /// Accept-queue depth; connections beyond it are shed with `429`.
    pub queue_depth: usize,
    /// Estimated-fuel-in-flight watermark for spec-op admission.
    pub fuel_watermark: u64,
    /// Fuel estimate for a spec the book has never seen.
    pub unknown_cost: u64,
    /// Per-request fuel cap for anonymous requests (no tenants
    /// configured).
    pub default_fuel: u64,
    /// Per-request deadline for anonymous requests, milliseconds.
    pub default_deadline_ms: u64,
    /// Request-body byte cap (`413` beyond it).
    pub max_body: usize,
    /// Result-cache capacity in payload bytes.
    pub cache_bytes: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Socket read/write timeout, milliseconds.
    pub io_timeout_ms: u64,
    /// Completed-span retention on the shared recorder.
    pub span_cap: usize,
    /// Flight-recorder ring capacity (retained request records).
    pub flight_cap: usize,
    /// Keep one in this many boring 200s in the flight ring (0 keeps
    /// none; errors, sheds, and the slow tail are always kept).
    pub flight_sample: u64,
    /// Completed-span retention on each per-request recorder.
    pub request_span_cap: usize,
    /// Per-request recording (request recorder + flight ring + shared
    /// absorb). Disabling it is the E25 baseline; responses are
    /// byte-identical either way.
    pub request_recording: bool,
    /// JSONL access-log path (append; one object per request). `None`
    /// disables the log.
    pub access_log: Option<String>,
    /// Tenants; empty means anonymous access under the defaults.
    pub tenants: Vec<TenantConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_depth: 64,
            fuel_watermark: 4_000_000,
            unknown_cost: 20_000,
            default_fuel: 2_000_000,
            default_deadline_ms: 10_000,
            max_body: 8 << 20,
            cache_bytes: 32 << 20,
            cache_shards: 8,
            io_timeout_ms: 5_000,
            span_cap: 4_096,
            flight_cap: 256,
            flight_sample: 8,
            request_span_cap: 512,
            request_recording: true,
            access_log: None,
            tenants: Vec::new(),
        }
    }
}

struct Tenant {
    name: String,
    fuel: u64,
    deadline_ms: u64,
    memory: u64,
    bucket: TokenBucket,
}

/// A fully rendered response, one step before the socket.
#[derive(Debug, Clone)]
struct Reply {
    status: u16,
    reason: &'static str,
    body: String,
    retry_after: Option<u64>,
    cache: Option<&'static str>,
    /// Which admission layer shed this request (`queue`, `fuel`,
    /// `quota`), for the access log and flight ring.
    shed: Option<&'static str>,
}

impl Reply {
    fn json(status: u16, reason: &'static str, body: String) -> Reply {
        Reply {
            status,
            reason,
            body,
            retry_after: None,
            cache: None,
            shed: None,
        }
    }

    fn ok_output(output: &str, status_word: &str) -> Reply {
        let mut body = String::with_capacity(output.len() + 32);
        body.push_str("{\"status\":");
        json::write_str(&mut body, status_word);
        body.push_str(",\"output\":");
        json::write_str(&mut body, output);
        body.push_str("}\n");
        Reply::json(200, "OK", body)
    }

    fn error(status: u16, reason: &'static str, kind: &str, message: &str) -> Reply {
        let mut body = String::with_capacity(message.len() + 48);
        body.push_str("{\"status\":\"error\",\"kind\":");
        json::write_str(&mut body, kind);
        body.push_str(",\"message\":");
        json::write_str(&mut body, message);
        body.push_str("}\n");
        Reply::json(status, reason, body)
    }

    fn exhausted(partial: &str) -> Reply {
        let mut body = String::with_capacity(partial.len() + 48);
        body.push_str("{\"status\":\"exhausted\",\"partial\":");
        json::write_str(&mut body, partial);
        body.push_str("}\n");
        Reply::json(503, "Service Unavailable", body)
    }

    fn shed(kind: &str, layer: &'static str, message: &str, retry_after: u64) -> Reply {
        let mut reply = Reply::error(429, "Too Many Requests", kind, message);
        reply.retry_after = Some(retry_after.max(1));
        reply.shed = Some(layer);
        reply
    }
}

struct Inner {
    config: ServeConfig,
    addr: SocketAddr,
    recorder: Recorder,
    /// Tail-sampling ring of recent request records (`/debug/…`).
    flight: FlightRecorder,
    /// Route × tenant × cache-outcome latency histograms (`/metrics`).
    labeled: LabeledHistograms,
    /// The JSONL access log, when configured.
    access_log: Option<Mutex<std::fs::File>>,
    cache: ShardedCache<String>,
    /// Spec → learned fuel cost, feeding the admission controller.
    estimates: Mutex<HashMap<String, u64>>,
    fuel_in_flight: AtomicU64,
    draining: AtomicBool,
    tenants: HashMap<String, Tenant>,
    epoch: Instant,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    #[cfg(feature = "fault-injection")]
    fault: Mutex<Option<FaultPlan>>,
}

/// Recovers a possibly poisoned mutex: the protected structures
/// (queue, estimate book) stay consistent under any interleaving of
/// their short critical sections, so continuing after a panicking
/// holder is sound — and a robustness service must not turn one bad
/// request into a permanently failed lock.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Request-scoped observability state, minted per connection and
/// threaded through routing: the request id, the per-request recorder
/// the op budget installs, and the labels the access log and flight
/// ring need once the reply is known.
struct RequestObs {
    id: String,
    /// Whether the id came from the client (`x-request-id` /
    /// `traceparent`) — such requests are pinned into the flight ring:
    /// supplying an id is an explicit ask to trace.
    propagated: bool,
    recorder: Recorder,
    tenant: Option<String>,
    route: &'static str,
    fuel: u64,
}

impl RequestObs {
    /// Fresh state for a request about to be read: a minted id (later
    /// replaced by a propagated one) and, when per-request recording is
    /// on, a span-capped recorder of its own.
    fn begin(inner: &Inner) -> RequestObs {
        RequestObs {
            id: xnf_obs::mint_request_id(),
            propagated: false,
            recorder: if inner.config.request_recording {
                Recorder::with_span_cap(inner.config.request_span_cap)
            } else {
                Recorder::disabled()
            },
            tenant: None,
            route: "other",
            fuel: 0,
        }
    }

    /// State for a connection that never reaches a worker (inline shed
    /// and drain answers): an id to echo, nothing to record spans into.
    fn unread() -> RequestObs {
        RequestObs {
            id: xnf_obs::mint_request_id(),
            propagated: false,
            recorder: Recorder::disabled(),
            tenant: None,
            route: "other",
            fuel: 0,
        }
    }

    /// Adopts a client-supplied request id, if the request carries an
    /// acceptable one.
    fn adopt_id(&mut self, req: &Request) {
        if let Some(id) = propagated_id(req) {
            self.id = id;
            self.propagated = true;
        }
    }
}

/// Extracts a propagated request id: `x-request-id` (1–128 printable
/// ASCII characters) wins; otherwise the 32-hex trace-id field of a
/// W3C `traceparent` header. Anything else is ignored and the minted
/// id stands — a hostile header must not corrupt the access log.
fn propagated_id(req: &Request) -> Option<String> {
    if let Some(v) = req.header("x-request-id") {
        let v = v.trim();
        if (1..=128).contains(&v.len()) && v.bytes().all(|b| b.is_ascii_graphic()) {
            return Some(v.to_string());
        }
    }
    if let Some(v) = req.header("traceparent") {
        // version-format: `00-<32 hex trace-id>-<16 hex parent-id>-<flags>`.
        let mut parts = v.trim().split('-');
        let trace = parts.nth(1)?;
        if trace.len() == 32
            && trace.bytes().all(|b| b.is_ascii_hexdigit())
            && trace.bytes().any(|b| b != b'0')
        {
            return Some(trace.to_ascii_lowercase());
        }
    }
    None
}

/// Collapses a request path onto the bounded route-label set used by
/// the labeled histograms and the access log (dynamic trace-id
/// segments and unknown paths must not mint unbounded label values).
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/metrics" => "/metrics",
        "/admin/drain" => "/admin/drain",
        "/v1/lint" => "/v1/lint",
        "/v1/is-xnf" => "/v1/is-xnf",
        "/v1/normalize" => "/v1/normalize",
        "/v1/analyze" => "/v1/analyze",
        "/v1/batch" => "/v1/batch",
        "/debug/requests" => "/debug/requests",
        p if p.starts_with("/debug/trace/") => "/debug/trace",
        _ => "other",
    }
}

impl Inner {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn tenant_for(&self, req: &Request) -> Result<Option<&Tenant>, Reply> {
        if self.tenants.is_empty() {
            return Ok(None);
        }
        let Some(key) = req.header("x-api-key") else {
            return Err(Reply::error(
                401,
                "Unauthorized",
                "auth",
                "missing X-Api-Key header",
            ));
        };
        match self.tenants.get(key) {
            Some(t) => Ok(Some(t)),
            None => Err(Reply::error(401, "Unauthorized", "auth", "unknown API key")),
        }
    }

    /// Builds the per-request budget from the tenant (or anonymous)
    /// caps and an optional client deadline header, never looser than
    /// the server-side profile. `recorder` is the per-request recorder
    /// (or the shared one when per-request recording is off).
    fn budget_for(&self, tenant: Option<&Tenant>, req: &Request, recorder: Recorder) -> Budget {
        let (fuel, deadline_ms, memory) = match tenant {
            Some(t) => (t.fuel, t.deadline_ms, t.memory),
            None => (self.config.default_fuel, self.config.default_deadline_ms, 0),
        };
        let requested_ms = req
            .header("x-deadline-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0);
        let deadline_ms = requested_ms.map_or(deadline_ms, |ms| ms.min(deadline_ms));
        let mut b = Budget::builder()
            .fuel(fuel)
            .deadline(Duration::from_millis(deadline_ms))
            .recorder(recorder);
        if memory > 0 {
            b = b.memory(memory);
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = *relock(&self.fault) {
            b = b.fault(plan);
        }
        b.build()
    }

    fn estimate_for(&self, spec_key: &str) -> u64 {
        relock(&self.estimates)
            .get(spec_key)
            .copied()
            .unwrap_or(self.config.unknown_cost)
    }

    fn learn_estimate(&self, spec_key: &str, observed: u64) {
        let mut book = relock(&self.estimates);
        // Bound the book: it is keyed by canonical specs, which are
        // attacker-controlled; past 4096 entries, forget arbitrary
        // ones (admission then falls back to `unknown_cost`).
        if book.len() >= 4096 && !book.contains_key(spec_key) {
            let victim = book.keys().next().cloned();
            if let Some(v) = victim {
                book.remove(&v);
            }
        }
        book.insert(spec_key.to_string(), observed.max(1));
    }
}

/// An RAII debit against the estimated-fuel-in-flight gauge, released
/// even if the computation panics.
struct FuelInFlight<'a> {
    inner: &'a Inner,
    amount: u64,
}

impl<'a> FuelInFlight<'a> {
    fn admit(inner: &'a Inner, amount: u64) -> Option<FuelInFlight<'a>> {
        let current = inner.fuel_in_flight.load(Ordering::SeqCst);
        // A lone oversized request is admitted when the gauge is
        // empty — otherwise a spec pricier than the watermark could
        // never run at all.
        if current > 0 && current.saturating_add(amount) > inner.config.fuel_watermark {
            return None;
        }
        inner.fuel_in_flight.fetch_add(amount, Ordering::SeqCst);
        Some(FuelInFlight { inner, amount })
    }
}

impl Drop for FuelInFlight<'_> {
    fn drop(&mut self) {
        self.inner
            .fuel_in_flight
            .fetch_sub(self.amount, Ordering::SeqCst);
    }
}

/// A running server: an accept thread, a worker pool, and the shared
/// state behind them. Dropping the handle does not stop the server —
/// call [`Server::drain`] then [`Server::join`] (or
/// [`Server::shutdown`]).
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A cloneable handle that can drain a [`Server`] from another thread
/// (the binary's stdin watcher) or from a request handler
/// (`POST /admin/drain`).
#[derive(Clone)]
pub struct DrainHandle {
    inner: Arc<Inner>,
}

impl DrainHandle {
    /// Initiates a graceful drain: stop accepting, finish queued and
    /// in-flight requests. Idempotent.
    pub fn drain(&self) {
        initiate_drain(&self.inner);
    }
}

fn initiate_drain(inner: &Arc<Inner>) {
    if inner.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.recorder.bump("serve.drain");
    // Wake the blocking accept loop with a throwaway connection; it
    // observes the flag and exits. Failure to connect means the loop
    // is already gone.
    if let Ok(stream) = TcpStream::connect(inner.addr) {
        drop(stream);
    }
    inner.queue_cv.notify_all();
}

impl Server {
    /// Binds `config.addr` and starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn spawn(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let tenants = config
            .tenants
            .iter()
            .map(|t| {
                (
                    t.key.clone(),
                    Tenant {
                        name: t.name.clone(),
                        fuel: t.fuel,
                        deadline_ms: t.deadline_ms,
                        memory: t.memory,
                        bucket: TokenBucket::new(t.burst, t.rate_per_sec, Instant::now()),
                    },
                )
            })
            .collect();
        let access_log = match &config.access_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let inner = Arc::new(Inner {
            recorder: Recorder::with_span_cap(config.span_cap),
            flight: FlightRecorder::new(config.flight_cap, config.flight_sample),
            labeled: LabeledHistograms::new(512),
            access_log,
            cache: ShardedCache::new(config.cache_shards, config.cache_bytes),
            estimates: Mutex::new(HashMap::new()),
            fuel_in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            tenants,
            epoch: Instant::now(),
            addr,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            #[cfg(feature = "fault-injection")]
            fault: Mutex::new(None),
            config,
        });

        let mut workers = Vec::new();
        for _ in 0..inner.config.threads.max(1) {
            let worker_inner = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || worker_loop(&worker_inner)));
        }
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_inner));

        Ok(Server {
            inner,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// A handle that can initiate a drain from elsewhere.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The shared recorder (counters, site tallies, histograms).
    pub fn recorder(&self) -> &Recorder {
        &self.inner.recorder
    }

    /// The flight recorder (retained request records and sampler
    /// counters).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Point-in-time counters of the shared result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Initiates a graceful drain (idempotent; see
    /// [`DrainHandle::drain`]).
    pub fn drain(&self) {
        initiate_drain(&self.inner);
    }

    /// Waits for the accept loop and every worker to exit (they do so
    /// only after a drain).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// [`Server::drain`] + [`Server::join`].
    pub fn shutdown(self) {
        self.drain();
        self.join();
    }

    /// Installs (or clears) a deterministic fault plan applied to every
    /// subsequently admitted request's budget.
    #[cfg(feature = "fault-injection")]
    pub fn set_fault(&self, plan: Option<FaultPlan>) {
        *relock(&self.inner.fault) = plan;
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Accept errors are transient (EMFILE, aborted handshake);
            // during drain any error simply ends the loop.
            if inner.is_draining() {
                return;
            }
            continue;
        };
        if inner.is_draining() {
            // The wake-up connection (or a late client): answer 503
            // and stop accepting. The listener closes on return, so
            // later connects are refused by the OS.
            answer_inline(
                stream,
                inner,
                &Reply::error(503, "Service Unavailable", "draining", "server is draining"),
            );
            return;
        }
        let mut queue = relock(&inner.queue);
        if queue.len() >= inner.config.queue_depth {
            drop(queue);
            inner.recorder.bump("serve.shed.queue");
            answer_inline(
                stream,
                inner,
                &Reply::shed("overload", "queue", "accept queue is full", 1),
            );
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        inner.queue_cv.notify_one();
    }
}

/// Writes `reply` on a connection that never reached a worker (shed or
/// drain paths) without blocking the accept loop for long. Even these
/// requests get an id, an access-log line, and a flight record — the
/// tail sampler's always-keep rule covers inline 429s too.
fn answer_inline(mut stream: TcpStream, inner: &Arc<Inner>, reply: &Reply) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        inner.config.io_timeout_ms.max(1),
    )));
    let obs = RequestObs::unread();
    finish_request(inner, &obs, reply, 0);
    respond_reply(&mut stream, reply, Some(&obs.id));
    http::finish(&mut stream);
}

fn respond_reply(stream: &mut TcpStream, reply: &Reply, request_id: Option<&str>) {
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(id) = request_id {
        extra.push(("x-request-id", id.to_string()));
    }
    if let Some(secs) = reply.retry_after {
        extra.push(("Retry-After", secs.to_string()));
    }
    if let Some(verdict) = reply.cache {
        extra.push(("X-Cache", verdict.to_string()));
    }
    let content_type = if reply.body.starts_with('{') {
        "application/json"
    } else {
        "text/plain; version=0.0.4"
    };
    let _ = http::respond(
        stream,
        reply.status,
        reply.reason,
        content_type,
        &extra,
        reply.body.as_bytes(),
    );
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let stream = {
            let mut queue = relock(&inner.queue);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if inner.is_draining() {
                    break None;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(mut stream) = stream else {
            return;
        };
        let started = Instant::now();
        let mut obs = RequestObs::begin(inner);
        let reply = handle_connection(inner, &mut stream, &mut obs);
        observe_reply(inner, &reply, started);
        let wall_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        // Record before responding, so a trace is queryable the moment
        // the client sees its response.
        finish_request(inner, &obs, &reply, wall_micros);
        respond_reply(&mut stream, &reply, Some(&obs.id));
        http::finish(&mut stream);
    }
}

/// The off-hot-path epilogue of every request: one labeled-histogram
/// observation, one access-log line, and — when per-request recording
/// is on — absorbing the request recorder into the shared one and
/// offering the record to the flight ring.
fn finish_request(inner: &Inner, obs: &RequestObs, reply: &Reply, wall_micros: u64) {
    let tenant = obs.tenant.as_deref().unwrap_or("-");
    let cache = reply.cache.unwrap_or("none");
    let shed = reply.shed.unwrap_or("");
    inner.labeled.observe(obs.route, tenant, cache, wall_micros);
    if let Some(log) = &inner.access_log {
        let line = access_log_line(inner, obs, reply, tenant, cache, shed, wall_micros);
        let mut file = relock(log);
        let _ = std::io::Write::write_all(&mut *file, line.as_bytes());
        let _ = std::io::Write::flush(&mut *file);
    }
    if inner.config.request_recording {
        inner.recorder.absorb(&obs.recorder);
        inner.flight.record(
            RequestRecord {
                id: obs.id.clone(),
                tenant: tenant.to_string(),
                route: obs.route.to_string(),
                status: reply.status,
                cache: cache.to_string(),
                shed: shed.to_string(),
                fuel: obs.fuel,
                wall_micros,
                spans: obs.recorder.spans(),
            },
            obs.propagated,
        );
    }
}

/// One JSONL access-log line (schema: `docs/access_log.schema.json`).
fn access_log_line(
    inner: &Inner,
    obs: &RequestObs,
    reply: &Reply,
    tenant: &str,
    cache: &str,
    shed: &str,
    wall_micros: u64,
) -> String {
    let ts = u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut line = String::with_capacity(160);
    line.push_str("{\"ts_micros\":");
    line.push_str(&ts.to_string());
    line.push_str(",\"id\":");
    json::write_str(&mut line, &obs.id);
    line.push_str(",\"tenant\":");
    json::write_str(&mut line, tenant);
    line.push_str(",\"route\":");
    json::write_str(&mut line, obs.route);
    line.push_str(",\"status\":");
    line.push_str(&reply.status.to_string());
    line.push_str(",\"cache\":");
    json::write_str(&mut line, cache);
    line.push_str(",\"shed\":");
    json::write_str(&mut line, shed);
    line.push_str(",\"fuel\":");
    line.push_str(&obs.fuel.to_string());
    line.push_str(",\"wall_micros\":");
    line.push_str(&wall_micros.to_string());
    line.push_str("}\n");
    line
}

fn observe_reply(inner: &Arc<Inner>, reply: &Reply, started: Instant) {
    let class = match reply.status {
        200..=299 => "serve.responses.2xx",
        429 => "serve.responses.429",
        400..=499 => "serve.responses.4xx",
        _ => "serve.responses.5xx",
    };
    inner.recorder.bump(class);
    inner.recorder.bump("serve.requests");
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    inner.recorder.observe("serve.request.micros", micros);
}

fn handle_connection(inner: &Arc<Inner>, stream: &mut TcpStream, obs: &mut RequestObs) -> Reply {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        inner.config.io_timeout_ms.max(1),
    )));
    let request = match http::read_request(
        stream,
        inner.config.max_body,
        Duration::from_millis(inner.config.io_timeout_ms.max(1)),
    ) {
        Ok(r) => r,
        Err(e) => return http_error_reply(&e),
    };
    obs.adopt_id(&request);
    obs.route = route_label(&request.path);
    // A handler panic must become a `500`, not a dead worker. The
    // shared state reached from here is lock-protected and
    // poison-recovering (`relock`), so crossing the unwind boundary
    // cannot leave it inconsistent; `obs` mutations made before the
    // panic (tenant, route, fuel) stay valid for the epilogue.
    match std::panic::catch_unwind(AssertUnwindSafe(|| route(inner, &request, obs))) {
        Ok(reply) => reply,
        Err(_) => {
            inner.recorder.bump("serve.panics");
            Reply::error(
                500,
                "Internal Server Error",
                "internal",
                "request handler panicked; the fault is contained to this request",
            )
        }
    }
}

fn http_error_reply(e: &HttpError) -> Reply {
    let (status, reason) = e.status();
    Reply::error(status, reason, "http", &e.message())
}

fn route(inner: &Arc<Inner>, req: &Request, obs: &mut RequestObs) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Reply::json(200, "OK", "ok\n".to_string()),
        ("GET", "/readyz") => {
            if inner.is_draining() {
                Reply::error(503, "Service Unavailable", "draining", "server is draining")
            } else {
                Reply::json(200, "OK", "ready\n".to_string())
            }
        }
        ("GET", "/metrics") => metrics_reply(inner),
        ("GET", "/debug/requests") => Reply::json(200, "OK", inner.flight.requests_json()),
        ("GET", path) if path.starts_with("/debug/trace/") => {
            let id = &path["/debug/trace/".len()..];
            match inner.flight.trace(id) {
                Some(trace) => Reply::json(200, "OK", trace),
                None => Reply::error(
                    404,
                    "Not Found",
                    "trace",
                    &format!("no retained trace for request id `{id}`"),
                ),
            }
        }
        ("POST", "/admin/drain") => {
            initiate_drain(inner);
            Reply::json(200, "OK", "{\"status\":\"draining\"}\n".to_string())
        }
        ("POST", "/v1/lint" | "/v1/is-xnf" | "/v1/normalize" | "/v1/analyze" | "/v1/batch") => {
            dispatch_op(inner, req, obs)
        }
        (_, path) if path == "/debug/requests" || path.starts_with("/debug/trace/") => {
            Reply::error(
                405,
                "Method Not Allowed",
                "http",
                &format!("`{}` accepts GET only", req.path),
            )
        }
        (_, "/healthz" | "/readyz" | "/metrics") | (_, "/admin/drain") => Reply::error(
            405,
            "Method Not Allowed",
            "http",
            &format!("`{}` does not accept {}", req.path, req.method),
        ),
        (_, "/v1/lint" | "/v1/is-xnf" | "/v1/normalize" | "/v1/analyze" | "/v1/batch") => {
            Reply::error(
                405,
                "Method Not Allowed",
                "http",
                &format!("`{}` accepts POST only", req.path),
            )
        }
        _ => Reply::error(
            404,
            "Not Found",
            "http",
            &format!("no such endpoint `{}`", req.path),
        ),
    }
}

fn metrics_reply(inner: &Arc<Inner>) -> Reply {
    let mut text = inner.recorder.prometheus();
    inner
        .labeled
        .prometheus("xnf_serve_request_duration_microseconds", &mut text);
    let stats = inner.cache.stats();
    let gauges = [
        ("xnf_serve_cache_hits_total", stats.hits),
        ("xnf_serve_cache_misses_total", stats.misses),
        ("xnf_serve_cache_joined_total", stats.joined),
        ("xnf_serve_cache_evictions_total", stats.evictions),
        ("xnf_serve_cache_resident_bytes", stats.resident_bytes),
        ("xnf_serve_cache_entries", stats.entries),
        (
            "xnf_serve_fuel_in_flight",
            inner.fuel_in_flight.load(Ordering::SeqCst),
        ),
        (
            "xnf_serve_spans_dropped_total",
            inner.recorder.spans_dropped(),
        ),
        (
            "xnf_serve_flight_retained",
            u64::try_from(inner.flight.retained()).unwrap_or(u64::MAX),
        ),
        (
            "xnf_serve_flight_sampled_out_total",
            inner.flight.sampled_out(),
        ),
        ("xnf_serve_flight_evicted_total", inner.flight.evicted()),
        ("xnf_serve_uptime_seconds", inner.epoch.elapsed().as_secs()),
    ];
    for (name, value) in gauges {
        text.push_str(name);
        text.push(' ');
        text.push_str(&value.to_string());
        text.push('\n');
    }
    Reply::json(200, "OK", text)
}

/// The five JSON operations share one pipeline: authenticate, debit
/// the tenant bucket, parse the body, then run (batch loops over its
/// items, re-entering the single-op path without re-authenticating).
fn dispatch_op(inner: &Arc<Inner>, req: &Request, obs: &mut RequestObs) -> Reply {
    if inner.is_draining() {
        return Reply::error(503, "Service Unavailable", "draining", "server is draining");
    }
    let tenant = match inner.tenant_for(req) {
        Ok(t) => t,
        Err(reply) => return reply,
    };
    if let Some(t) = tenant {
        // The access log and flight ring label by tenant from here on —
        // including quota sheds, which are per-tenant by nature.
        obs.tenant = Some(t.name.clone());
        if let Err(wait) = t.bucket.try_take(1.0, Instant::now()) {
            inner.recorder.bump("serve.shed.quota");
            let secs = wait.map_or(1, |d| d.as_secs().saturating_add(1));
            return Reply::shed(
                "quota",
                "quota",
                &format!("tenant `{}` is over its request rate", t.name),
                secs,
            );
        }
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Reply::error(400, "Bad Request", "body", "request body is not UTF-8");
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return Reply::error(400, "Bad Request", "body", &e.to_string()),
    };
    if req.path == "/v1/batch" {
        return run_batch(inner, tenant, req, &parsed, obs);
    }
    let Some(op) = op_of_path(&req.path) else {
        return Reply::error(404, "Not Found", "http", "no such operation");
    };
    run_op(inner, tenant, req, op, &parsed, obs)
}

fn op_of_path(path: &str) -> Option<&'static str> {
    match path {
        "/v1/lint" => Some("lint"),
        "/v1/is-xnf" => Some("is-xnf"),
        "/v1/normalize" => Some("normalize"),
        "/v1/analyze" => Some("analyze"),
        _ => None,
    }
}

const BATCH_CAP: usize = 64;

fn run_batch(
    inner: &Arc<Inner>,
    tenant: Option<&Tenant>,
    req: &Request,
    body: &Json,
    obs: &mut RequestObs,
) -> Reply {
    let Some(items) = body.get("requests").and_then(Json::as_arr) else {
        return Reply::error(
            400,
            "Bad Request",
            "body",
            "batch body needs a `requests` array",
        );
    };
    if items.len() > BATCH_CAP {
        return Reply::error(
            400,
            "Bad Request",
            "body",
            &format!("batch holds {} items; the cap is {BATCH_CAP}", items.len()),
        );
    }
    let mut out = String::from("{\"status\":\"ok\",\"results\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let reply = match item.get("op").and_then(Json::as_str) {
            Some(op) if op_known(op) => run_op(inner, tenant, req, op, item, obs),
            Some(op) => Reply::error(400, "Bad Request", "body", &format!("unknown op `{op}`")),
            None => Reply::error(400, "Bad Request", "body", "batch item needs an `op`"),
        };
        out.push_str("{\"http\":");
        out.push_str(&reply.status.to_string());
        out.push_str(",\"response\":");
        // Reply bodies are complete JSON documents; embed verbatim.
        out.push_str(reply.body.trim_end());
        out.push('}');
    }
    out.push_str("]}\n");
    Reply::json(200, "OK", out)
}

fn op_known(op: &str) -> bool {
    matches!(op, "lint" | "is-xnf" | "normalize" | "analyze")
}

/// String field `name` of the request object.
fn field<'a>(body: &'a Json, name: &str) -> Option<&'a str> {
    body.get(name).and_then(Json::as_str)
}

fn flag(body: &Json, name: &str) -> bool {
    body.get(name).and_then(Json::as_bool).unwrap_or(false)
}

fn run_op(
    inner: &Arc<Inner>,
    tenant: Option<&Tenant>,
    req: &Request,
    op: &str,
    body: &Json,
    obs: &mut RequestObs,
) -> Reply {
    let endpoint_counter = match op {
        "lint" => "serve.lint.requests",
        "is-xnf" => "serve.is_xnf.requests",
        "normalize" => "serve.normalize.requests",
        _ => "serve.analyze.requests",
    };
    inner.recorder.bump(endpoint_counter);
    // The op budget carries the per-request recorder (or the shared
    // one when per-request recording is off): every span the engine
    // brackets under `budget.recorder()` lands in this request's tree.
    let recorder = if inner.config.request_recording {
        obs.recorder.clone()
    } else {
        inner.recorder.clone()
    };
    let budget = inner.budget_for(tenant, req, recorder);
    let reply = run_spec_op(inner, op, body, &budget);
    // The per-request tick snapshot: what the access log and flight
    // ring report as `fuel` (batch items accumulate).
    obs.fuel = obs.fuel.saturating_add(budget.usage().ticks);
    reply
}

/// The governed body of one spec op, after the budget (and its
/// recorder) exist.
fn run_spec_op(inner: &Arc<Inner>, op: &str, body: &Json, budget: &Budget) -> Reply {
    let Some(dtd_src) = field(body, "dtd") else {
        return Reply::error(400, "Bad Request", "body", "missing string field `dtd`");
    };
    // The service boundary is itself a checkpoint: fault sweeps can
    // trip a request before any engine work, and every admitted
    // request pays at least one tick.
    if let Err(e) = budget.checkpoint("serve.request") {
        return Reply::exhausted(&format!("budget exhausted: {e}\n"));
    }

    if op == "lint" {
        return run_lint(body, dtd_src, budget);
    }

    let Some(fds_src) = field(body, "fds") else {
        return Reply::error(400, "Bad Request", "body", "missing string field `fds`");
    };

    // Parse once, canonically, for the cache key and the admission
    // estimate; the parse is governed by the same request budget.
    let (dtd, sigma) = match parse_spec_for_key(dtd_src, fds_src, budget) {
        Ok(pair) => pair,
        Err(reply) => return reply,
    };
    let (cache_key, spec_key) = {
        let spec = SpecKey::new(&dtd, &sigma);
        (
            spec.key(op, &options_fingerprint(op, body)),
            spec.key("spec", ""),
        )
    };
    drop((dtd, sigma));

    // Admission: refuse work that would push estimated fuel in flight
    // past the watermark.
    let estimate = inner.estimate_for(&spec_key);
    let Some(_in_flight) = FuelInFlight::admit(inner, estimate) else {
        inner.recorder.bump("serve.shed.fuel");
        return Reply::shed(
            "overload",
            "fuel",
            "estimated fuel in flight is over the watermark",
            1,
        );
    };

    let cacheable = op != "normalize" || field(body, "doc").is_none();
    let computed = if cacheable {
        inner.cache.get_or_compute(&cache_key, || {
            compute_op(op, body, dtd_src, fds_src, budget).map(|s| {
                let bytes = s.len();
                (s, bytes)
            })
        })
    } else {
        compute_op(op, body, dtd_src, fds_src, budget).map(|s| (Arc::new(s), false))
    };

    match computed {
        Ok((output, hit)) => {
            if !hit {
                // Learn the real cost for the next admission decision.
                // An analyze request runs the normalize it forecasts, so
                // its ticks already cover that forecast.
                inner.learn_estimate(&spec_key, budget.ticks());
            }
            let mut reply = Reply::ok_output(&output, "ok");
            reply.cache = Some(if hit { "hit" } else { "miss" });
            reply
        }
        Err(reply) => *reply,
    }
}

/// Runs the engine for one spec op, mapping every failure to its
/// response. Boxed error keeps the cache's value path lean.
fn compute_op(
    op: &str,
    body: &Json,
    dtd_src: &str,
    fds_src: &str,
    budget: &Budget,
) -> Result<String, Box<Reply>> {
    let trust = Some(Trust::Network);
    match op {
        "is-xnf" => {
            let options = IsXnfOptions {
                no_lint: flag(body, "no_lint"),
                trust,
            };
            ops::is_xnf(dtd_src, fds_src, &options, budget).map_err(|e| Box::new(cli_reply(&e)))
        }
        "normalize" => {
            let threads = normalize_threads(body);
            if threads > 16 {
                return Err(Box::new(Reply::error(
                    400,
                    "Bad Request",
                    "body",
                    "`threads` is capped at 16",
                )));
            }
            let options = NormalizeSpecOptions {
                sigma_only: flag(body, "sigma_only"),
                threads: threads as usize,
                stats: flag(body, "stats"),
                no_lint: flag(body, "no_lint"),
                doc_src: field(body, "doc"),
                trust,
            };
            ops::normalize_spec(dtd_src, fds_src, &options, budget, budget.recorder())
                .map_err(|e| Box::new(cli_reply(&e)))
        }
        _ => {
            let format = match field(body, "format") {
                None | Some("human") => AnalyzeFormat::Human,
                Some("json") => AnalyzeFormat::Json,
                Some("dot") => AnalyzeFormat::Dot,
                Some(other) => {
                    return Err(Box::new(Reply::error(
                        400,
                        "Bad Request",
                        "body",
                        &format!("unknown analyze format `{other}`"),
                    )))
                }
            };
            let options = AnalyzeSpecOptions {
                format,
                sigma_only: flag(body, "sigma_only"),
                trust,
            };
            ops::analyze_spec(dtd_src, fds_src, &options, budget)
                .map_err(|e| Box::new(cli_reply(&e)))
        }
    }
}

/// The search workers of a normalize request: its `threads` when it
/// sends one, else the ops default of one, so the request's work stays
/// on the worker that owns it. The cache key uses this resolved count.
fn normalize_threads(body: &Json) -> u64 {
    body.get("threads")
        .and_then(Json::as_u64)
        .unwrap_or(NormalizeSpecOptions::default().threads as u64)
}

fn run_lint(body: &Json, dtd_src: &str, budget: &Budget) -> Reply {
    let options = LintSpecOptions {
        json: flag(body, "json"),
        predictive: flag(body, "predictive"),
    };
    let fds_src = field(body, "fds");
    match ops::lint_sources(dtd_src, fds_src, &options, budget) {
        Ok(rendered) => Reply::ok_output(&rendered, "ok"),
        // A report with errors is the endpoint's product, exactly as
        // the CLI prints it to stdout: 200, status "diagnostics".
        Err(CliError::Lint(rendered)) => Reply::ok_output(&rendered, "diagnostics"),
        Err(e) => cli_reply(&e),
    }
}

/// Parses `(D, Σ)` for cache keying; failures map to `422` (the spec
/// is syntactically valid JSON but not a valid spec) or `503`
/// (exhaustion during parse).
fn parse_spec_for_key(
    dtd_src: &str,
    fds_src: &str,
    budget: &Budget,
) -> Result<(xnf_dtd::Dtd, xnf_core::XmlFdSet), Reply> {
    let dtd = match ops::parse_dtd(dtd_src, Trust::Network, budget) {
        Ok(d) => d,
        Err(e) => return Err(cli_reply(&e)),
    };
    let sigma = match xnf_core::XmlFdSet::parse(fds_src) {
        Ok(s) => s,
        Err(e) => {
            return Err(Reply::error(
                422,
                "Unprocessable Content",
                "spec",
                &e.to_string(),
            ))
        }
    };
    Ok((dtd, sigma))
}

/// The CLI error → HTTP status mapping (the service half of the
/// documented exit-code table; see DESIGN.md §13).
fn cli_reply(e: &CliError) -> Reply {
    match e {
        CliError::Usage(m) => Reply::error(400, "Bad Request", "usage", m),
        CliError::Lint(report) => Reply::error(422, "Unprocessable Content", "lint", report),
        CliError::Lib(m) => Reply::error(422, "Unprocessable Content", "spec", m),
        CliError::Exhausted(partial) => Reply::exhausted(partial),
        CliError::Verify(report) => Reply::error(422, "Unprocessable Content", "verify", report),
        CliError::Io(path, err) => Reply::error(
            500,
            "Internal Server Error",
            "internal",
            &format!("unexpected file access `{path}`: {err}"),
        ),
    }
}

/// Options fingerprint for the result-cache key: every request field
/// that changes the rendered output, in a fixed order.
fn options_fingerprint(op: &str, body: &Json) -> String {
    match op {
        "is-xnf" => format!("no_lint={}", flag(body, "no_lint")),
        "normalize" => format!(
            "sigma_only={},threads={},stats={},no_lint={}",
            flag(body, "sigma_only"),
            normalize_threads(body),
            flag(body, "stats"),
            flag(body, "no_lint"),
        ),
        _ => format!(
            "format={},sigma_only={}",
            field(body, "format").unwrap_or("human"),
            flag(body, "sigma_only"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    fn post(addr: SocketAddr, path: &str, body: &str, headers: &[(&str, &str)]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        req.push_str(body);
        stream.write_all(req.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    const DTD: &str = "<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>";

    fn lint_body() -> String {
        let mut b = String::from("{\"dtd\":");
        json::write_str(&mut b, DTD);
        b.push('}');
        b
    }

    #[test]
    fn health_metrics_and_lint_round_trip() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        assert_eq!(get(addr, "/healthz").0, 200);
        assert_eq!(get(addr, "/readyz").0, 200);
        let (status, body) = post(addr, "/v1/lint", &lint_body(), &[]);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("xnf_serve_cache_entries"), "{metrics}");
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(post(addr, "/healthz", "", &[]).0, 405);
        server.shutdown();
    }

    #[test]
    fn drain_answers_readyz_and_refuses_new_work() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        let (status, _) = post(addr, "/admin/drain", "", &[]);
        assert_eq!(status, 200);
        server.join();
        // The listener is gone: connects are refused.
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn unknown_api_keys_are_401_and_quotas_shed_with_retry_after() {
        let config = ServeConfig {
            tenants: vec![TenantConfig {
                key: "k1".to_string(),
                name: "t1".to_string(),
                fuel: 100_000,
                deadline_ms: 5_000,
                memory: 0,
                rate_per_sec: 0.0001,
                burst: 1.0,
            }],
            ..ServeConfig::default()
        };
        let server = Server::spawn(config).expect("spawn");
        let addr = server.addr();
        assert_eq!(post(addr, "/v1/lint", &lint_body(), &[]).0, 401);
        assert_eq!(
            post(addr, "/v1/lint", &lint_body(), &[("X-Api-Key", "nope")]).0,
            401
        );
        let first = post(addr, "/v1/lint", &lint_body(), &[("X-Api-Key", "k1")]);
        assert_eq!(first.0, 200, "{}", first.1);
        // Burst of 1 at a negligible refill rate: the second request
        // sheds with a Retry-After hint.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let body = lint_body();
        stream
            .write_all(
                format!(
                    "POST /v1/lint HTTP/1.1\r\nHost: t\r\nX-Api-Key: k1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After:"), "{response}");
        server.shutdown();
    }

    #[test]
    fn identical_requests_hit_the_shared_cache() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        let mut body = String::from("{\"dtd\":");
        json::write_str(&mut body, DTD);
        body.push_str(",\"fds\":\"r.a -> r.a.S\"}");
        let miss = post(addr, "/v1/is-xnf", &body, &[]);
        assert_eq!(miss.0, 200, "{}", miss.1);
        // Same spec, different whitespace in the DTD: still a hit,
        // because the key is the canonical parsed form.
        let mut body2 = String::from("{\"dtd\":");
        json::write_str(&mut body2, "<!ELEMENT r (a*)>\n<!ELEMENT a (#PCDATA)>");
        body2.push_str(",\"fds\":\"r.a -> r.a.S\"}");
        let hit = post(addr, "/v1/is-xnf", &body2, &[]);
        assert_eq!(hit.0, 200);
        assert_eq!(hit.1, miss.1, "cached response must be byte-identical");
        let stats = server.inner.cache.stats();
        assert_eq!(stats.hits, 1, "{stats:?}");
        server.shutdown();
    }

    fn post_full(addr: SocketAddr, path: &str, body: &str, headers: &[(&str, &str)]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        req.push_str(body);
        stream.write_all(req.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    fn header_value(response: &str, name: &str) -> Option<String> {
        let head = response.split("\r\n\r\n").next()?;
        for line in head.lines().skip(1) {
            let (k, v) = line.split_once(':')?;
            if k.eq_ignore_ascii_case(name) {
                return Some(v.trim().to_string());
            }
        }
        None
    }

    fn normalize_body() -> String {
        let mut b = String::from("{\"dtd\":");
        json::write_str(
            &mut b,
            include_str!("../../../examples/specs/university.dtd"),
        );
        b.push_str(",\"fds\":");
        json::write_str(
            &mut b,
            include_str!("../../../examples/specs/university.fds"),
        );
        b.push('}');
        b
    }

    #[test]
    fn request_ids_are_minted_propagated_and_echoed() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        // Supplied x-request-id wins and is echoed verbatim.
        let resp = post_full(
            addr,
            "/v1/lint",
            &lint_body(),
            &[("x-request-id", "req-echo-1")],
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert_eq!(
            header_value(&resp, "x-request-id").as_deref(),
            Some("req-echo-1")
        );
        // No header: a 32-hex id is minted.
        let resp = post_full(addr, "/v1/lint", &lint_body(), &[]);
        let minted = header_value(&resp, "x-request-id").expect("minted id");
        assert_eq!(minted.len(), 32, "{minted}");
        assert!(minted
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        // traceparent trace-id is adopted when no x-request-id is given.
        let resp = post_full(
            addr,
            "/v1/lint",
            &lint_body(),
            &[(
                "traceparent",
                "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            )],
        );
        assert_eq!(
            header_value(&resp, "x-request-id").as_deref(),
            Some("0af7651916cd43dd8448eb211c80319c")
        );
        // Error responses echo the id too.
        let resp = post_full(
            addr,
            "/v1/lint",
            "{not json",
            &[("x-request-id", "req-echo-err")],
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert_eq!(
            header_value(&resp, "x-request-id").as_deref(),
            Some("req-echo-err")
        );
        server.shutdown();
    }

    #[test]
    fn debug_trace_returns_chrome_trace_json_for_a_completed_normalize() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        let resp = post_full(
            addr,
            "/v1/normalize",
            &normalize_body(),
            &[("x-request-id", "aaaabbbbccccddddeeeeffff00001111")],
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        // The trace is queryable the moment the response is visible.
        let (status, trace) = get(addr, "/debug/trace/aaaabbbbccccddddeeeeffff00001111");
        assert_eq!(status, 200, "{trace}");
        let parsed = json::parse(&trace).expect("trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "normalize should record spans: {trace}");
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")),
            "{trace}"
        );
        // The listing names the retained request.
        let (status, listing) = get(addr, "/debug/requests");
        assert_eq!(status, 200);
        assert!(
            listing.contains("aaaabbbbccccddddeeeeffff00001111"),
            "{listing}"
        );
        let parsed = json::parse(&listing).expect("listing is valid JSON");
        assert!(parsed.get("requests").and_then(Json::as_arr).is_some());
        // Unknown ids are 404; non-GET verbs are 405.
        assert_eq!(get(addr, "/debug/trace/deadbeef").0, 404);
        assert_eq!(post(addr, "/debug/requests", "", &[]).0, 405);
        server.shutdown();
    }

    #[test]
    fn a_normalize_request_searches_on_its_worker_unless_it_asks_for_threads() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        // The university spec's candidate search has two shards
        // (`course` and the frontier), so a fan-out would show in the
        // trace as spans on a second thread.
        let id = "one-thread-normalize";
        let first = post_full(
            addr,
            "/v1/normalize",
            &normalize_body(),
            &[("x-request-id", id)],
        );
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        let (status, trace) = get(addr, &format!("/debug/trace/{id}"));
        assert_eq!(status, 200, "{trace}");
        let parsed = json::parse(&trace).expect("trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "{trace}");
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .map(|e| match e.get("tid") {
                Some(Json::Num(n)) => *n as u64,
                _ => panic!("trace event without a numeric tid: {trace}"),
            })
            .collect();
        assert_eq!(tids.len(), 1, "one request, one thread: {trace}");

        let body_of = |response: &str| response.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
        let with_threads = |n: u32| {
            let body = normalize_body();
            format!("{},\"threads\":{n}}}", &body[..body.len() - 1])
        };
        // An explicit `threads: 1` is the default spelled out: the same
        // cache entry, the same bytes.
        let one = post_full(addr, "/v1/normalize", &with_threads(1), &[]);
        assert_eq!(
            header_value(&one, "x-cache").as_deref(),
            Some("hit"),
            "{one}"
        );
        assert_eq!(body_of(&one), body_of(&first));
        // A fan-out computes its own entry, byte-identical.
        let two = post_full(addr, "/v1/normalize", &with_threads(2), &[]);
        assert_eq!(
            header_value(&two, "x-cache").as_deref(),
            Some("miss"),
            "{two}"
        );
        assert_eq!(body_of(&two), body_of(&first));
        server.shutdown();
    }

    #[test]
    fn metrics_expose_labeled_latency_histograms_and_flight_counters() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        let miss = post(addr, "/v1/is-xnf", &normalize_body(), &[]);
        assert_eq!(miss.0, 200, "{}", miss.1);
        let hit = post(addr, "/v1/is-xnf", &normalize_body(), &[]);
        assert_eq!(hit.0, 200);
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains(
                "xnf_serve_request_duration_microseconds_bucket{route=\"/v1/is-xnf\",tenant=\"-\",cache=\"miss\","
            ),
            "{metrics}"
        );
        assert!(
            metrics.contains(
                "xnf_serve_request_duration_microseconds_bucket{route=\"/v1/is-xnf\",tenant=\"-\",cache=\"hit\","
            ),
            "{metrics}"
        );
        assert!(
            metrics.contains("xnf_serve_request_duration_microseconds_sum{"),
            "{metrics}"
        );
        assert!(metrics.contains("xnf_serve_flight_retained"), "{metrics}");
        assert!(
            metrics.contains("xnf_serve_flight_sampled_out_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("xnf_serve_flight_evicted_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("xnf_serve_spans_dropped_total"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn access_log_captures_one_json_line_per_request() {
        let path =
            std::env::temp_dir().join(format!("xnf-serve-access-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig {
            access_log: Some(path.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let server = Server::spawn(config).expect("spawn");
        let addr = server.addr();
        assert_eq!(
            post(
                addr,
                "/v1/lint",
                &lint_body(),
                &[("x-request-id", "log-line-1")]
            )
            .0,
            200
        );
        assert_eq!(
            post(
                addr,
                "/v1/lint",
                "{not json",
                &[("x-request-id", "log-line-2")]
            )
            .0,
            400
        );
        server.shutdown();
        // The drain request that shutdown issues is logged too, so
        // find our lines by id rather than pinning an exact count.
        let log = std::fs::read_to_string(&path).expect("access log exists");
        let lines: Vec<&str> = log.lines().collect();
        assert!(lines.len() >= 2, "{log}");
        for line in &lines {
            let parsed = json::parse(line).expect("each line is a JSON object");
            for key in [
                "ts_micros",
                "id",
                "tenant",
                "route",
                "status",
                "cache",
                "shed",
                "fuel",
                "wall_micros",
            ] {
                assert!(parsed.get(key).is_some(), "missing {key} in {line}");
            }
        }
        let ok_line = lines
            .iter()
            .find(|l| l.contains("\"id\":\"log-line-1\""))
            .expect("200 logged");
        assert!(ok_line.contains("\"status\":200"), "{ok_line}");
        let err_line = lines
            .iter()
            .find(|l| l.contains("\"id\":\"log-line-2\""))
            .expect("400 logged");
        assert!(err_line.contains("\"status\":400"), "{err_line}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabling_request_recording_keeps_ids_but_empties_the_flight_ring() {
        let config = ServeConfig {
            request_recording: false,
            ..ServeConfig::default()
        };
        let server = Server::spawn(config).expect("spawn");
        let addr = server.addr();
        let resp = post_full(
            addr,
            "/v1/lint",
            &lint_body(),
            &[("x-request-id", "untraced-1")],
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert_eq!(
            header_value(&resp, "x-request-id").as_deref(),
            Some("untraced-1")
        );
        assert_eq!(get(addr, "/debug/trace/untraced-1").0, 404);
        let (status, listing) = get(addr, "/debug/requests");
        assert_eq!(status, 200);
        assert!(!listing.contains("untraced-1"), "{listing}");
        server.shutdown();
    }

    #[test]
    fn malformed_bodies_and_bad_specs_map_to_400_and_422() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let addr = server.addr();
        assert_eq!(post(addr, "/v1/lint", "{not json", &[]).0, 400);
        assert_eq!(post(addr, "/v1/lint", "{}", &[]).0, 400);
        let (status, body) = post(
            addr,
            "/v1/is-xnf",
            "{\"dtd\":\"<!ELEMENT r\",\"fds\":\"\"}",
            &[],
        );
        assert_eq!(status, 422, "{body}");
        server.shutdown();
    }

    /// A failing lint preflight renders its report under the request's
    /// budget: on the pathological general DTD with one unknown FD path
    /// the report's chase-backed rules exhaust the fuel cap, a 503 rather
    /// than a 422 computed on an unmetered budget.
    #[test]
    fn a_failing_preflight_exhausts_under_the_request_budget() {
        let data = |name: &str| {
            let path = format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(path).expect("fixture")
        };
        let fds = format!(
            "{}\ne0.nope -> e0\n",
            data("pathological-general.fds").trim_end()
        );
        let mut body = String::from("{\"dtd\":");
        json::write_str(&mut body, &data("pathological-general.dtd"));
        body.push_str(",\"fds\":");
        json::write_str(&mut body, &fds);
        body.push('}');
        let config = ServeConfig {
            default_fuel: 5000,
            ..ServeConfig::default()
        };
        let server = Server::spawn(config).expect("spawn");
        let (status, reply) = post(server.addr(), "/v1/is-xnf", &body, &[]);
        assert_eq!(status, 503, "{reply}");
        assert!(reply.contains("\"status\":\"exhausted\""), "{reply}");
        server.shutdown();
    }
}
