//! Differential and chaos suite for the `xnf-serve` HTTP front end.
//!
//! Two obligations, mirroring the repo's other differential suites:
//!
//! 1. **Byte identity.** The service delegates to the same
//!    `xnf_cli::ops` functions as the CLI; here a mixed-schema request
//!    load is pushed through an in-process server at worker counts
//!    {1, 4, 8} and every `output` field must be byte-identical to the
//!    sequential in-process call — caching, coalescing, and thread
//!    scheduling must be invisible in the payload.
//! 2. **Chaos over live sockets.** With the `fault-injection` feature,
//!    a deterministic fault sweep runs against real TCP requests: every
//!    plan must produce a *well-formed HTTP response* (never a panic, a
//!    dropped connection, or a hung socket), and a faulted run must
//!    never leave a partial result in the shared cache (the
//!    cache-poisoning probe re-asks without the fault and demands the
//!    pristine answer).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use xnf_cli::ops::{
    self, AnalyzeFormat, AnalyzeSpecOptions, IsXnfOptions, LintSpecOptions, NormalizeSpecOptions,
    Trust,
};
use xnf_govern::{Budget, FaultPlan, Recorder};
use xnf_serve::json::{self, Json};
use xnf_serve::{ServeConfig, Server};

const UNIVERSITY_DTD: &str = include_str!("../examples/specs/university.dtd");
const UNIVERSITY_FDS: &str = include_str!("../examples/specs/university.fds");
const DBLP_DTD: &str = include_str!("../examples/specs/dblp.dtd");
const DBLP_FDS: &str = include_str!("../examples/specs/dblp.fds");

/// A small already-normal spec, to mix cheap positives into the load.
const FLAT_DTD: &str = "<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> <!ATTLIST a id CDATA #REQUIRED>";
const FLAT_FDS: &str = "r.a.@id -> r.a";

fn specs() -> Vec<(&'static str, &'static str)> {
    vec![
        (UNIVERSITY_DTD, UNIVERSITY_FDS),
        (DBLP_DTD, DBLP_FDS),
        (FLAT_DTD, FLAT_FDS),
    ]
}

fn request_budget() -> Budget {
    Budget::builder()
        .fuel(2_000_000)
        .recorder(Recorder::disabled())
        .build()
}

/// The sequential reference: exactly what the CLI would print for this
/// op (`Trust::Network` matches the service's hardening profile; the
/// outputs do not depend on the profile for in-limit specs).
fn reference_output(op: &str, dtd: &str, fds: &str) -> String {
    let budget = request_budget();
    match op {
        "is-xnf" => ops::is_xnf(
            dtd,
            fds,
            &IsXnfOptions {
                no_lint: false,
                trust: Some(Trust::Network),
            },
            &budget,
        )
        .expect("reference is-xnf"),
        "normalize" => ops::normalize_spec(
            dtd,
            fds,
            &NormalizeSpecOptions {
                trust: Some(Trust::Network),
                ..NormalizeSpecOptions::default()
            },
            &budget,
            &Recorder::disabled(),
        )
        .expect("reference normalize"),
        "analyze" => ops::analyze_spec(
            dtd,
            fds,
            &AnalyzeSpecOptions {
                format: AnalyzeFormat::Json,
                sigma_only: false,
                trust: Some(Trust::Network),
            },
            &budget,
        )
        .expect("reference analyze"),
        "lint" => ops::lint_sources(dtd, Some(fds), &LintSpecOptions::default(), &budget)
            .expect("reference lint"),
        other => panic!("unknown op {other}"),
    }
}

fn body_for(op: &str, dtd: &str, fds: &str) -> String {
    let mut b = String::from("{\"dtd\":");
    json::write_str(&mut b, dtd);
    b.push_str(",\"fds\":");
    json::write_str(&mut b, fds);
    if op == "analyze" {
        b.push_str(",\"format\":\"json\"");
    }
    b.push('}');
    b
}

fn path_for(op: &str) -> String {
    format!("/v1/{op}")
}

/// One raw HTTP POST; returns (status, body) or panics on a malformed
/// response — a dropped connection or non-HTTP bytes is a test failure
/// by construction. Every request carries a unique `x-request-id` and
/// asserts the response echoes exactly that id back, so the whole
/// differential suite doubles as a concurrency test of the id plumbing
/// (two in-flight requests must never swap ids).
fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = format!(
        "diff-{:016x}",
        NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nx-request-id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read full response");
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {response:?}"));
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    let echoed = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("x-request-id").then(|| v.trim())
        })
        .unwrap_or_else(|| panic!("no x-request-id echoed in {head:?}"));
    assert_eq!(echoed, id, "response carries a different request's id");
    (status, body)
}

/// Extracts the `output` field of a 200 response envelope.
fn output_of(body: &str) -> String {
    let v =
        json::parse(body).unwrap_or_else(|e| panic!("response body is not JSON ({e}): {body:?}"));
    v.get("output")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no `output` in {body:?}"))
        .to_string()
}

#[test]
fn concurrent_requests_are_byte_identical_to_the_cli_path() {
    let ops = ["is-xnf", "normalize", "analyze", "lint"];
    // The reference table, computed sequentially in-process.
    let mut expected = Vec::new();
    for (dtd, fds) in specs() {
        for op in ops {
            expected.push((op, dtd, fds, reference_output(op, dtd, fds)));
        }
    }
    let expected = Arc::new(expected);

    for threads in [1usize, 4, 8] {
        let server = Server::spawn(ServeConfig {
            threads,
            ..ServeConfig::default()
        })
        .expect("spawn server");
        let addr = server.addr();
        // Two full passes fired concurrently: the second pass lands on
        // the cache and must still be byte-identical.
        let mut clients = Vec::new();
        for pass in 0..2 {
            for (i, (op, dtd, fds, want)) in expected.iter().enumerate() {
                let (op, dtd, fds, want) = (*op, *dtd, *fds, want.clone());
                clients.push(std::thread::spawn(move || {
                    let (status, body) = post(addr, &path_for(op), &body_for(op, dtd, fds));
                    assert_eq!(status, 200, "pass {pass} item {i} ({op}): {body}");
                    assert_eq!(
                        output_of(&body),
                        want,
                        "pass {pass} item {i} ({op}, {threads} threads) diverged from the CLI path"
                    );
                }));
            }
        }
        for c in clients {
            c.join().expect("client thread");
        }
        assert_eq!(
            server.recorder().counter("serve.panics"),
            0,
            "a handler panicked under load"
        );
        server.shutdown();
    }
}

#[test]
fn batch_endpoint_matches_single_requests() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn server");
    let addr = server.addr();
    let mut body = String::from("{\"requests\":[");
    for (i, op) in ["is-xnf", "analyze"].iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let mut item = body_for(op, UNIVERSITY_DTD, UNIVERSITY_FDS);
        // Splice `"op":…` into the item object.
        item.replace_range(0..1, "");
        body.push_str("{\"op\":");
        json::write_str(&mut body, op);
        body.push(',');
        body.push_str(&item);
    }
    body.push_str("]}");
    let (status, response) = post(addr, "/v1/batch", &body);
    assert_eq!(status, 200, "{response}");
    let v = json::parse(&response).expect("batch response is JSON");
    let results = v
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), 2);
    for (result, op) in results.iter().zip(["is-xnf", "analyze"]) {
        assert_eq!(result.get("http").and_then(Json::as_u64), Some(200));
        let inner = result.get("response").expect("embedded response");
        assert_eq!(
            inner.get("output").and_then(Json::as_str),
            Some(reference_output(op, UNIVERSITY_DTD, UNIVERSITY_FDS).as_str()),
            "batch {op} diverged"
        );
    }
    server.shutdown();
}

/// The chaos sweep: deterministic faults against live sockets. Every
/// outcome must be a well-formed HTTP response, and the shared cache
/// must never retain anything a faulted run produced.
#[test]
fn fault_sweep_over_live_sockets_yields_well_formed_errors_and_a_clean_cache() {
    let server = Server::spawn(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();
    let pristine = reference_output("normalize", UNIVERSITY_DTD, UNIVERSITY_FDS);
    let body = body_for("normalize", UNIVERSITY_DTD, UNIVERSITY_FDS);

    let mut tripped = 0usize;
    let mut survived = 0usize;
    for seed in 0..48u64 {
        // Ordinals beyond the run's total tick count simply never
        // trip; mixing small and large targets covers the parse phase,
        // the engine loops, and the untripped tail.
        let plan = FaultPlan::seeded(seed, 1 + (seed % 6) * 400);
        server.set_fault(Some(plan));
        let (status, response) = post(addr, "/v1/normalize", &body);
        // A fault must surface as 503 (exhaustion) — or not at all
        // (200, if the ordinal was never reached). Anything else is a
        // routing bug; a panic or dropped connection already failed in
        // `post`.
        match status {
            200 => {
                survived += 1;
                assert_eq!(
                    output_of(&response),
                    pristine,
                    "seed {seed} corrupted output"
                );
            }
            503 => {
                tripped += 1;
                let v = json::parse(&response)
                    .unwrap_or_else(|e| panic!("seed {seed}: 503 body not JSON ({e})"));
                assert_eq!(
                    v.get("status").and_then(Json::as_str),
                    Some("exhausted"),
                    "seed {seed}: {response}"
                );
            }
            other => panic!("seed {seed}: unexpected status {other}: {response}"),
        }
        // Cache-poisoning probe: with the fault cleared, the same spec
        // must come back pristine — a partial trace left resident by
        // the faulted run would surface here as a cache hit.
        server.set_fault(None);
        let (status, response) = post(addr, "/v1/normalize", &body);
        assert_eq!(status, 200, "probe after seed {seed}: {response}");
        assert_eq!(
            output_of(&response),
            pristine,
            "cache poisoned by faulted run (seed {seed})"
        );
    }
    assert!(
        tripped > 0,
        "the sweep never tripped a fault — widen the ordinals"
    );
    assert!(survived > 0, "the sweep never let a request finish");
    assert_eq!(server.recorder().counter("serve.panics"), 0);
    server.shutdown();
}

/// Faults during *admission* (the service-boundary checkpoint) must
/// also answer well-formed 503s, and health endpoints stay fault-free.
#[test]
fn boundary_faults_answer_503_and_health_stays_up() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn server");
    let addr = server.addr();
    server.set_fault(Some(FaultPlan {
        trip_at: 1,
        resource: xnf_govern::Resource::Fuel,
    }));
    let (status, response) = post(addr, "/v1/is-xnf", &body_for("is-xnf", FLAT_DTD, FLAT_FDS));
    assert_eq!(status, 503, "{response}");
    // Health and metrics take no budget: immune to the installed plan.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let mut health = String::new();
    stream.read_to_string(&mut health).expect("read");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    server.set_fault(None);
    server.shutdown();
}
