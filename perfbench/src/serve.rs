//! The `xnf-serve` workload: a live server on an ephemeral loopback
//! port under the steady-state traffic of EXPERIMENTS.md E24 (phase 1),
//! each client timing one request from connect to the server's close.
//!
//! E24's phase 1 is one round: 8 client threads each send 12 requests,
//! request `r` of client `c` carrying distinct university schema `r`
//! to `is-xnf` when `c + r` is even and to `normalize` otherwise,
//! against a 4-worker server with a 256-deep accept queue. Each of the
//! 24 (route, schema) keys is asked for 4 times, so a quarter of the
//! lookups compute and three quarters are served from the result cache
//! (the 75% E24 records). This workload repeats that round back to back,
//! every round over 12 schemas no earlier round has sent.

use std::collections::BTreeSet;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use xnf_cli::ops::{self, IsXnfOptions, NormalizeSpecOptions};
use xnf_govern::{Budget, Recorder};
use xnf_serve::json::Json;
use xnf_serve::{ServeConfig, Server};

use rand::SeedableRng as _;

use crate::inputs::{self, Rng, Spec};
use crate::layers::{span_name, Layers, SpanRec};
use crate::{median_of, phase_medians, Outcome, Samples, PHASES, SETUPS};

/// E24 phase 1: client threads, and the requests (one per schema) each
/// sends in a round.
const CLIENTS: usize = 8;
const SCHEMAS: usize = 12;

/// E24 phase 1's routes; client `c` sends request `r` to
/// `OPS[(c + r) % 2]`.
const OPS: [&str; 2] = ["is-xnf", "normalize"];

/// E24 phase 1's server: four workers behind a 256-deep queue, the rest
/// of the service's defaults.
fn config(trace: bool) -> ServeConfig {
    let config = ServeConfig {
        threads: 4,
        queue_depth: 256,
        ..ServeConfig::default()
    };
    if !trace {
        return config;
    }
    // The same server, with retention raised so that every request's
    // whole span tree stays in the flight ring (and per-request spans
    // are never capped); `spans_dropped` and the ring's eviction and
    // sampling counters prove it after the run.
    ServeConfig {
        span_cap: 1 << 22,
        request_span_cap: 1 << 16,
        flight_cap: 1 << 20,
        flight_sample: 1,
        ..config
    }
}

/// The university schema every round renames, with its request body
/// and the exact response body each route must return for it.
struct Base {
    spec: Spec,
    expect: [String; 2],
}

impl Base {
    /// Round `round`'s schema `r`: the base schema with its root renamed
    /// to a fixed-width name no other (round, schema) pair uses.
    fn variant_root(&self, round: u64, r: usize) -> String {
        format!("{}v{round:06}s{r:02}", self.spec.root)
    }

    fn variant_body(&self, root: &str) -> String {
        request_body(&Spec {
            dtd: inputs::rename_one(&self.spec.dtd, &self.spec.root, root),
            fds: inputs::rename_one(&self.spec.fds, &self.spec.root, root),
            ..self.spec.clone()
        })
    }

    /// Whether `reply` is the response the route must send for the
    /// variant rooted at `root`: the base response, renamed.
    fn check(&self, op_ix: usize, root: &str, reply: &str) -> bool {
        reply.replace(root, &self.spec.root) == self.expect[op_ix]
    }
}

fn request_body(spec: &Spec) -> String {
    let mut body = String::from("{\"dtd\":");
    xnf_serve::json::write_str(&mut body, &spec.dtd);
    body.push_str(",\"fds\":");
    xnf_serve::json::write_str(&mut body, &spec.fds);
    body.push('}');
    body
}

fn reply_body(output: &str) -> String {
    let mut body = String::from("{\"status\":\"ok\",\"output\":");
    xnf_serve::json::write_str(&mut body, output);
    body.push_str("}\n");
    body
}

/// The output the service must send for `op` on `spec`: the CLI ops
/// computed in-process under the network parse profile (the service
/// answers byte-identically to the CLI).
fn expected(op: &str, spec: &Spec) -> String {
    let (d, f) = (spec.dtd.as_str(), spec.fds.as_str());
    let trust = Some(ops::Trust::Network);
    let budget = Budget::unlimited();
    let output = match op {
        "is-xnf" => ops::is_xnf(
            d,
            f,
            &IsXnfOptions {
                no_lint: false,
                trust,
            },
            &budget,
        ),
        _ => {
            let options = NormalizeSpecOptions {
                trust,
                ..NormalizeSpecOptions::default()
            };
            ops::normalize_spec(d, f, &options, &budget, &Recorder::disabled())
        }
    };
    output.unwrap_or_else(|e| panic!("{op} on {}: {e}", spec.name))
}

/// One request: (status, body, connect-to-close time).
fn post(addr: SocketAddr, op: &str, body: &str) -> Result<(u16, String, Duration), String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let request = format!(
        "POST /v1/{op} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let wall = t0.elapsed();
    let response = String::from_utf8(response).map_err(|_| "non-UTF-8 response".to_string())?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload, wall))
}

/// Builds the base schema and its expected responses, starts a server
/// and checks one response per route on a schema no round uses.
fn setup(seed: u64, trace: bool) -> (Server, Base) {
    let mut rng = Rng::seed_from_u64(seed);
    let spec = inputs::paper_spec(0, &mut rng);
    let [verdict, normalized] = OPS.map(|op| expected(op, &spec));
    // Example 1.1 is not in XNF; Figure 1(b) repairs it in two steps
    // (FD3 folds `name` into an attribute, which moves to `info`).
    assert!(verdict.starts_with("in XNF: NO"), "university: {verdict}");
    assert!(
        normalized.contains("=== steps (2)"),
        "university: normalize steps"
    );
    let base = Base {
        expect: [reply_body(&verdict), reply_body(&normalized)],
        spec,
    };
    let server = Server::spawn(config(trace)).expect("bind an ephemeral loopback port");
    let root = format!("{}warm", base.spec.root);
    let body = base.variant_body(&root);
    for (op_ix, op) in OPS.iter().enumerate() {
        let (status, reply, _) = post(server.addr(), op, &body).expect("warm-up request");
        assert_eq!(status, 200, "warm-up {op}");
        assert!(base.check(op_ix, &root, &reply), "warm-up {op}: {reply}");
    }
    (server, base)
}

/// One closed-loop client and what it saw.
struct Client {
    id: usize,
    samples: Samples,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Client {
    fn new(id: usize) -> Client {
        Client {
            id,
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Sends this client's 12 requests of round `round`; the round is
    /// one pass.
    fn round(&mut self, addr: SocketAddr, base: &Base, round: u64) {
        for r in 0..SCHEMAS {
            let op_ix = (self.id + r) % 2;
            let root = base.variant_root(round, r);
            self.attempted += 1;
            match post(addr, OPS[op_ix], &base.variant_body(&root)) {
                Ok((200, reply, wall)) => {
                    self.correct &= base.check(op_ix, &root, &reply);
                    self.samples.record(OPS[op_ix], wall);
                }
                _ => {
                    self.failed += 1;
                    self.correct = false;
                }
            }
        }
        self.samples.end_pass();
    }
}

/// Runs rounds until `until`: every client sends its round, then all
/// wait for each other, as in E24, and the last to arrive decides
/// whether another round starts.
fn run_rounds(
    clients: &mut [Client],
    addr: SocketAddr,
    base: &Base,
    rounds: &AtomicU64,
    until: Instant,
) {
    let barrier = Barrier::new(clients.len());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            let (barrier, stop) = (&barrier, &stop);
            s.spawn(move || loop {
                c.round(addr, base, rounds.load(Ordering::SeqCst));
                if barrier.wait().is_leader() {
                    rounds.fetch_add(1, Ordering::SeqCst);
                    stop.store(Instant::now() >= until, Ordering::SeqCst);
                }
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            });
        }
    });
}

/// Folds the span trees of the `newest` most recent requests in the
/// flight ring into `layers`; returns the summed time the trees'
/// outermost spans cover on the workers that ran ops. Each request
/// recorder has its own epoch, so each tree nests apart.
fn add_flight_spans(server: &Server, newest: usize, layers: &mut Layers) -> u64 {
    let summaries = server.flight().recent();
    let mut covered = 0;
    for summary in &summaries[..newest] {
        let trace = server
            .flight()
            .trace(&summary.id)
            .expect("a retained record renders");
        let doc = xnf_serve::json::parse(&trace).expect("a trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("a trace lists its events");
        let num = |e: &Json, k: &str| match e.get(k) {
            Some(Json::Num(n)) => *n,
            _ => panic!("trace event field `{k}` is numeric"),
        };
        let mut spans: Vec<SpanRec> = events
            .iter()
            .map(|e| SpanRec {
                name: span_name(e.get("name").and_then(Json::as_str).expect("span name")),
                ts_ns: (num(e, "ts") * 1e3).round() as u64,
                dur_ns: (num(e, "dur") * 1e3).round() as u64,
                tid: num(e, "tid") as u64,
            })
            .collect();
        // The worker thread is the one that runs the op; threads a
        // sharded search spawns never do.
        let workers: BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name.starts_with("op."))
            .map(|s| s.tid)
            .collect();
        covered += layers.add_spans(&mut spans, &workers);
    }
    covered
}

pub fn serve_mixed(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let next = setup(seed, trace);
        setup_times.push(t0.elapsed().as_secs_f64());
        if let Some((old, _)) = ready.replace(next) {
            old.shutdown();
        }
    }
    let (server, base) = ready.expect("set up at least once");
    let addr = server.addr();

    let rec = server.recorder();
    let handled = || {
        rec.histograms()
            .into_iter()
            .find(|(name, _)| *name == "serve.request.micros")
            .map_or((0, 0), |(_, h)| (h.count, h.sum))
    };
    let checkpoints = || rec.sites().iter().map(|(_, t)| t.visits).sum::<u64>();
    let (handled_before, visits_before, counters_before) =
        (handled(), checkpoints(), rec.counters());
    let cache_before = server.cache_stats();

    // Timings are raw wall times, unlike the `xnf-tool` workloads'. A
    // request's latency here is mostly hand-offs between eight clients,
    // the acceptor and four workers, which the CPU-bound calibration
    // kernel does not track: scaling by it widened the run-to-run spread
    // (IQR/median 0.13 scaled vs 0.08 raw over six runs on a 2-vCPU VM).
    // A traced run folds in each phase's span trees right after it.
    let mut clients: Vec<Client> = (0..CLIENTS).map(Client::new).collect();
    let rounds = AtomicU64::new(0);
    let phase = Duration::from_secs_f64(seconds / PHASES as f64);
    let mut phases = Vec::new();
    let mut layers = Layers::default();
    let (mut retained, mut handled_prev) = (server.flight().retained(), handled_before);
    let (mut covered_ns, mut handler_ns, mut client_ns) = (0u64, 0u64, 0u64);
    for _ in 0..PHASES {
        let t0 = Instant::now();
        run_rounds(&mut clients, addr, &base, &rounds, t0 + phase);
        let wall = t0.elapsed().as_secs_f64();
        let mut samples = Samples::default();
        for c in &mut clients {
            samples.merge(std::mem::take(&mut c.samples));
        }
        if trace {
            let now = server.flight().retained();
            covered_ns += add_flight_spans(&server, now - retained, &mut layers);
            retained = now;
            let h = handled();
            handler_ns += (h.1 - handled_prev.1) * 1_000;
            handled_prev = h;
            client_ns += (samples.all.iter().sum::<f64>() * 1e6) as u64;
        }
        phases.push(samples.e2e_metrics(wall));
    }
    let attempted = clients.iter().map(|c| c.attempted).sum();
    let failed = clients.iter().map(|c| c.failed).sum();
    let mut correct = clients.iter().all(|c| c.correct);

    let metrics = if trace {
        // A per-layer sum over a truncated trace would be wrong, not
        // just short: every span tree must be whole and retained.
        let flight = server.flight();
        correct &= rec.spans_dropped() == 0 && flight.evicted() == 0 && flight.sampled_out() == 0;
        layers.checkpoints = checkpoints() - visits_before;
        for (name, value) in rec.counters() {
            let before = counters_before
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v);
            layers.add_counter(name, value - before);
        }
        let count = handled_prev.0 - handled_before.0;
        correct &= count == attempted;
        layers.serve_handler_ns = handler_ns.saturating_sub(covered_ns);
        layers.serve_outside_ns = client_ns.saturating_sub(handler_ns);
        let cache = server.cache_stats();
        let served = (cache.hits - cache_before.hits) + (cache.joined - cache_before.joined);
        layers.result_cache = (served, served + (cache.misses - cache_before.misses));
        layers.metrics(count)
    } else {
        let mut m = phase_medians(&phases);
        m.push(("setup_s".into(), median_of(&mut setup_times), "s"));
        m
    };
    server.shutdown();
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}
