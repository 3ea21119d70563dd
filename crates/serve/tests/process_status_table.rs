//! Process-level pinning of the documented status/exit-code table
//! (DESIGN.md §13): the real `xnf-serve` binary is spawned, driven
//! over real sockets, and drained over stdin — the service analogue of
//! the CLI's exit-code contract (0 clean drain, 2 usage; HTTP statuses
//! per endpoint outcome).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FLAT_DTD: &str = "<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> <!ATTLIST a id CDATA #REQUIRED>";
const FLAT_FDS: &str = "r.a.@id -> r.a";

/// A running server child; killed on drop so a failing assert never
/// leaks a process.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(extra_args: &[&str]) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xnf-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xnf-serve");
    // The supervisor contract: first stdout line carries the resolved
    // ephemeral address.
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "no listening line in 30s");
        match stdout.read(&mut byte) {
            Ok(1) if byte[0] == b'\n' => break,
            Ok(1) => line.push(byte[0]),
            _ => panic!("server exited before printing its address"),
        }
    }
    let line = String::from_utf8(line).expect("UTF-8 listening line");
    let addr = line
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("malformed listening line `{line}`"));
    ServerProc { child, addr }
}

fn raw(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

fn status_of(response: &str) -> u16 {
    response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response {response:?}"))
}

fn post(addr: SocketAddr, path: &str, body: &str, headers: &[(&str, &str)]) -> (u16, String) {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    let response = raw(addr, &req);
    (status_of(&response), response)
}

fn get(addr: SocketAddr, path: &str) -> u16 {
    status_of(&raw(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"),
    ))
}

fn spec_body() -> String {
    let mut body = String::from("{\"dtd\":");
    xnf_serve::json::write_str(&mut body, FLAT_DTD);
    body.push_str(",\"fds\":");
    xnf_serve::json::write_str(&mut body, FLAT_FDS);
    body.push('}');
    body
}

/// Waits for exit, with a deadline so a hung drain fails the test
/// rather than the harness.
fn wait_exit(mut server: ServerProc) -> i32 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = server.child.try_wait().expect("try_wait") {
            // Forget the child so Drop does not kill a reaped pid.
            let code = status.code().unwrap_or(-1);
            std::mem::forget(server);
            return code;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit within 30s of drain"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn the_status_table_holds_and_stdin_eof_drains_to_exit_0() {
    let mut server = spawn_server(&["--max-body", "4096"]);
    let addr = server.addr;

    // 200s: health, readiness, every operation, metrics.
    assert_eq!(get(addr, "/healthz"), 200);
    assert_eq!(get(addr, "/readyz"), 200);
    let body = spec_body();
    for path in ["/v1/lint", "/v1/is-xnf", "/v1/normalize", "/v1/analyze"] {
        let (status, response) = post(addr, path, &body, &[]);
        assert_eq!(status, 200, "{path}: {response}");
    }
    let batch = format!(
        "{{\"requests\":[{},{}]}}",
        body.replacen('{', "{\"op\":\"lint\",", 1),
        body.replacen('{', "{\"op\":\"is-xnf\",", 1)
    );
    assert_eq!(post(addr, "/v1/batch", &batch, &[]).0, 200);
    assert_eq!(get(addr, "/metrics"), 200);

    // 4xx: routing, framing, body, and spec errors.
    assert_eq!(get(addr, "/no-such"), 404);
    assert_eq!(
        status_of(&raw(addr, "PUT /v1/lint HTTP/1.1\r\nHost: t\r\n\r\n")),
        405
    );
    assert_eq!(post(addr, "/v1/lint", "{not json", &[]).0, 400);
    assert_eq!(post(addr, "/v1/lint", "{}", &[]).0, 400);
    assert_eq!(
        post(
            addr,
            "/v1/is-xnf",
            "{\"dtd\":\"<!ELEMENT broken\",\"fds\":\"\"}",
            &[]
        )
        .0,
        422
    );
    let oversized = format!("{{\"dtd\":\"{}\"}}", "x".repeat(8192));
    assert_eq!(post(addr, "/v1/lint", &oversized, &[]).0, 413);
    assert_eq!(
        status_of(&raw(
            addr,
            "POST /v1/lint HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
        )),
        411
    );

    // Clean drain: close stdin, expect exit code 0.
    drop(server.child.stdin.take());
    assert_eq!(wait_exit(server), 0);
}

#[test]
fn budget_exhaustion_maps_to_503_with_a_partial_body() {
    // A 5-tick budget cannot finish any spec op: the table's 503 row.
    let server = spawn_server(&["--default-fuel", "5"]);
    let (status, response) = post(server.addr, "/v1/normalize", &spec_body(), &[]);
    assert_eq!(status, 503, "{response}");
    assert!(response.contains("\"status\":\"exhausted\""), "{response}");
}

#[test]
fn a_zero_depth_queue_sheds_429_with_retry_after() {
    let server = spawn_server(&["--queue", "0"]);
    let (status, response) = post(server.addr, "/v1/lint", &spec_body(), &[]);
    assert_eq!(status, 429, "{response}");
    assert!(response.contains("Retry-After:"), "{response}");
}

#[test]
fn tenants_gate_on_api_keys_and_quotas() {
    let server = spawn_server(&["--tenant", "secret:acme:100000:5000:0.0001:1"]);
    let addr = server.addr;
    let body = spec_body();
    assert_eq!(post(addr, "/v1/lint", &body, &[]).0, 401);
    assert_eq!(
        post(addr, "/v1/lint", &body, &[("X-Api-Key", "wrong")]).0,
        401
    );
    assert_eq!(
        post(addr, "/v1/lint", &body, &[("X-Api-Key", "secret")]).0,
        200
    );
    // Burst 1 at a negligible refill: the second request sheds.
    let (status, response) = post(addr, "/v1/lint", &body, &[("X-Api-Key", "secret")]);
    assert_eq!(status, 429, "{response}");
    assert!(response.contains("Retry-After:"), "{response}");
}

#[test]
fn drain_endpoint_also_exits_0_and_bad_usage_exits_2() {
    let server = spawn_server(&[]);
    let (status, _) = post(server.addr, "/admin/drain", "", &[]);
    assert_eq!(status, 200);
    assert_eq!(wait_exit(server), 0);

    let out = Command::new(env!("CARGO_BIN_EXE_xnf-serve"))
        .arg("--no-such-flag")
        .output()
        .expect("run with bad args");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
