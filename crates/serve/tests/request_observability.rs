//! Process-level pinning of the request-observability contract
//! (DESIGN.md §14): the real `xnf-serve` binary is spawned and the id
//! plumbing is checked end to end — a supplied `x-request-id` comes
//! back on every status class (200, 4xx, 5xx, 429), lands in the
//! JSONL access log, and two concurrent requests never swap ids.

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

fn echoed_id(response: &str) -> String {
    let head = response.split("\r\n\r\n").next().unwrap_or_default();
    head.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("x-request-id")
                .then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| panic!("no x-request-id in {head:?}"))
}

fn post_with_id(addr: SocketAddr, path: &str, body: &str, id: &str) -> String {
    raw(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nx-request-id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn spec_body() -> String {
    let mut body = String::from("{\"dtd\":");
    xnf_serve::json::write_str(&mut body, FLAT_DTD);
    body.push_str(",\"fds\":");
    xnf_serve::json::write_str(&mut body, FLAT_FDS);
    body.push('}');
    body
}

fn access_log_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("xnf-serve-obs-{tag}-{}.jsonl", std::process::id()))
}

/// Polls the access log until `want` lines mentioning our ids appear;
/// the server flushes per line, so this converges immediately in
/// practice — the loop only absorbs process scheduling.
fn wait_for_log_lines(path: &std::path::Path, needles: &[&str]) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let log = std::fs::read_to_string(path).unwrap_or_default();
        if needles.iter().all(|n| log.contains(n)) {
            return log;
        }
        assert!(
            Instant::now() < deadline,
            "access log never gained {needles:?}: {log}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn supplied_ids_are_echoed_on_every_status_class_and_logged() {
    let log = access_log_path("statuses");
    let _ = std::fs::remove_file(&log);
    // --default-fuel 5 makes every spec op exhaust: the 503 row.
    let server = spawn_server(&[
        "--access-log",
        &log.to_string_lossy(),
        "--default-fuel",
        "5",
    ]);
    let addr = server.addr;
    let body = spec_body();

    // 200 (health has no budget to exhaust is not a POST; use lint with
    // a malformed body for 400, the spec op for 503, and /metrics-level
    // GETs go without ids here — POSTs carry them).
    let resp = post_with_id(addr, "/v1/lint", "{not json", "obs-400");
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert_eq!(echoed_id(&resp), "obs-400");

    let resp = post_with_id(addr, "/v1/normalize", &body, "obs-503");
    assert_eq!(status_of(&resp), 503, "{resp}");
    assert_eq!(echoed_id(&resp), "obs-503");

    let resp = post_with_id(addr, "/no-such", "", "obs-404");
    assert_eq!(status_of(&resp), 404, "{resp}");
    assert_eq!(echoed_id(&resp), "obs-404");

    // Every request above appears in the access log with its id and
    // final status.
    let text = wait_for_log_lines(&log, &["obs-400", "obs-503", "obs-404"]);
    for (id, status) in [("obs-400", 400), ("obs-503", 503), ("obs-404", 404)] {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no log line for {id}: {text}"));
        assert!(
            line.contains(&format!("\"status\":{status}")),
            "wrong status for {id}: {line}"
        );
    }
    let _ = std::fs::remove_file(&log);
}

#[test]
fn a_200_and_a_quota_429_echo_supplied_ids_and_inline_sheds_mint_one() {
    let log = access_log_path("quota");
    let _ = std::fs::remove_file(&log);
    // Burst 1 at a negligible refill: the second keyed request sheds
    // 429 through the full request path, so the supplied id must come
    // back on it just like on the 200.
    let server = spawn_server(&[
        "--access-log",
        &log.to_string_lossy(),
        "--tenant",
        "secret:acme:100000:5000:0.0001:1",
    ]);
    let addr = server.addr;
    let body = spec_body();
    let with_key = |id: &str| {
        raw(
            addr,
            &format!(
                "POST /v1/lint HTTP/1.1\r\nHost: t\r\nX-Api-Key: secret\r\n\
                 x-request-id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    };
    let resp = with_key("obs-200");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert_eq!(echoed_id(&resp), "obs-200");
    let resp = with_key("obs-429");
    assert_eq!(status_of(&resp), 429, "{resp}");
    assert_eq!(echoed_id(&resp), "obs-429");
    let text = wait_for_log_lines(&log, &["obs-200", "obs-429"]);
    let ok_line = text
        .lines()
        .find(|l| l.contains("\"id\":\"obs-200\""))
        .expect("200 logged");
    assert!(ok_line.contains("\"status\":200"), "{ok_line}");
    assert!(ok_line.contains("\"tenant\":\"acme\""), "{ok_line}");
    let shed_line = text
        .lines()
        .find(|l| l.contains("\"id\":\"obs-429\""))
        .expect("429 logged");
    assert!(shed_line.contains("\"status\":429"), "{shed_line}");
    assert!(shed_line.contains("\"shed\":\"quota\""), "{shed_line}");
    drop(server);
    let _ = std::fs::remove_file(&log);

    // Queue depth 0: the accept thread sheds before the request is ever
    // read, so no client id can be propagated — the shed still gets a
    // minted 32-hex id and a `"shed":"queue"` access-log line.
    let log = access_log_path("queue");
    let _ = std::fs::remove_file(&log);
    let server = spawn_server(&["--access-log", &log.to_string_lossy(), "--queue", "0"]);
    let resp = post_with_id(server.addr, "/v1/lint", &spec_body(), "obs-ignored");
    assert_eq!(status_of(&resp), 429, "{resp}");
    let minted = echoed_id(&resp);
    assert_eq!(minted.len(), 32, "{minted}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));
    let text = wait_for_log_lines(&log, &[&format!("\"id\":\"{minted}\"")]);
    let line = text
        .lines()
        .find(|l| l.contains(&minted))
        .expect("queue shed logged");
    assert!(line.contains("\"status\":429"), "{line}");
    assert!(line.contains("\"shed\":\"queue\""), "{line}");
    drop(server);
    let _ = std::fs::remove_file(&log);
}

#[test]
fn concurrent_requests_never_swap_ids() {
    let server = spawn_server(&["--threads", "4"]);
    let addr = server.addr;
    let body = spec_body();
    // 4 worker threads × 8 client threads × 16 sequential requests,
    // every one asserting its own id round-trips. A swap anywhere
    // (shared mutable id, response written to the wrong socket) fails
    // loudly.
    let mut clients = Vec::new();
    for c in 0..8u32 {
        let body = body.clone();
        clients.push(std::thread::spawn(move || {
            for r in 0..16u32 {
                let id = format!("swap-{c:02}-{r:02}");
                let resp = post_with_id(addr, "/v1/lint", &body, &id);
                assert_eq!(status_of(&resp), 200, "{resp}");
                assert_eq!(echoed_id(&resp), id, "ids swapped under concurrency");
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
}
