//! A std-only HTTP/1.1 exposition server for the live metrics registry.
//!
//! The workspace is hermetic, so there is no hyper/axum/tiny-http here:
//! a `TcpListener`, a small accept loop on one background thread, and a
//! hand-rolled request-line parser. That is all a metrics endpoint needs —
//! every response is computed from a [`LiveMetrics::snapshot`] and the
//! connection is closed after one exchange (`Connection: close`).
//!
//! Routes:
//!
//! | path       | payload                                            |
//! |------------|----------------------------------------------------|
//! | `/`        | the operator dashboard (one self-contained HTML page) |
//! | `/metrics` | Prometheus text exposition format (version 0.0.4)  |
//! | `/status`  | one flat JSON object (parseable by [`crate::json`]) |
//! | `/curve`   | live growth curves as JSONL                        |
//! | `/events`  | live event stream (chunked JSONL, see below)       |
//!
//! Anything else is a 404; non-GET methods get a 405. Every one-shot
//! response carries `Content-Length` and `Connection: close`, so strict
//! clients (`curl --fail`, Prometheus scrapers) never wait for more bytes.
//! The server never writes to the registry, so it cannot perturb the
//! campaign.
//!
//! `/events` is the long-lived exception: it streams the registry's event
//! log ([`LiveMetrics::events_since`]) as `Transfer-Encoding: chunked`
//! JSONL — findings, shard lifecycle, epoch reallocations, and watchdog
//! stalls as they happen — and terminates (zero-length chunk) when the
//! campaign finishes. Each stream runs on its own thread so the accept
//! loop keeps answering scrapes while a consumer is attached.

use crate::live::LiveMetrics;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one request is allowed to dribble in before we stop waiting for
/// more bytes and answer from what arrived. Prometheus scrapes usually send
/// the whole request at once; anything slower is a stuck client we should
/// not let wedge the accept loop.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on the bytes one request may occupy. A metrics scrape is a
/// request line plus a handful of headers; anything beyond this is answered
/// from its first line rather than buffered without limit.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// The running exposition server. Dropping it (or calling
/// [`MetricsServer::shutdown`]) stops the accept loop and joins the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port) and starts serving `metrics` on a background thread.
    pub fn bind(addr: &str, metrics: Arc<LiveMetrics>) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("soft-metrics-http".into())
            .spawn(move || accept_loop(listener, metrics, stop_flag))?;
        Ok(MetricsServer { addr, stop, thread: Some(thread) })
    }

    /// The actual bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `accept()`; poke it with a throwaway
        // connection so it observes the flag without waiting for a scrape.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How often an `/events` stream polls the registry's event log for new
/// lines between flushes.
const EVENTS_POLL: Duration = Duration::from_millis(25);

fn accept_loop(listener: TcpListener, metrics: Arc<LiveMetrics>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            // One request per connection, served inline: scrapes are tiny
            // and rare (seconds apart), so a thread pool would be ceremony.
            // (`/events` is the exception — `serve_one` hands it to its own
            // thread so a long-lived stream cannot wedge the accept loop.)
            Ok(stream) => {
                let _ = serve_one(stream, &metrics, &stop);
            }
            Err(_) => continue,
        }
    }
}

/// Reads one request, writes one response. IO errors just drop the
/// connection — the client retries on the next scrape interval.
fn serve_one(
    stream: TcpStream,
    metrics: &Arc<LiveMetrics>,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut stream = stream;
    let request = read_request(&mut stream)?;
    let request_line = String::from_utf8_lossy(&request);
    let request_line = request_line.lines().next().unwrap_or("").to_string();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("").split('?').next().unwrap_or("");
    if method == "GET" && path == "/events" {
        // The one streaming route: move the connection to its own thread so
        // `/metrics` scrapes keep working while a consumer is attached. The
        // stream exits on campaign completion or server shutdown.
        let metrics = Arc::clone(metrics);
        let stop = Arc::clone(stop);
        std::thread::Builder::new().name("soft-events-stream".into()).spawn(move || {
            let _ = stream_events(stream, &metrics, &stop);
        })?;
        return Ok(());
    }
    let (status, content_type, body) = respond(&request_line, metrics);
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

/// Streams the live event log as chunked JSONL until the campaign finishes
/// (or the server stops): headers first, then one chunk per batch of new
/// event lines, polling the registry in between, then the terminating
/// zero-length chunk. `Connection: close` + the terminator give strict
/// clients an unambiguous end-of-stream.
fn stream_events(
    mut stream: TcpStream,
    metrics: &LiveMetrics,
    stop: &AtomicBool,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut seq = 0usize;
    loop {
        let (lines, done) = metrics.events_since(seq);
        seq += lines.len();
        for line in &lines {
            // One chunk per event line (the line plus its newline).
            write!(stream, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
        }
        if !lines.is_empty() {
            stream.flush()?;
        }
        // `done` was read before the lines were collected, so a true flag
        // means every event is already written — terminate.
        if done || stop.load(Ordering::Acquire) {
            break;
        }
        std::thread::sleep(EVENTS_POLL);
    }
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

/// Accumulates one request's bytes, tolerating arbitrary TCP segmentation:
/// a request line split across several writes arrives as several short
/// `read`s, and each one appends here until the header terminator
/// (`\r\n\r\n`, or a bare `\n\n` from hand-typed clients) shows up. Reading
/// also stops — and the request is answered from whatever its first line
/// says — on EOF, on the size cap, or when the read timeout expires without
/// a terminator, so clients that half-close or never send the blank line
/// still get their response instead of a dropped connection.
fn read_request(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if headers_complete(&buf) || buf.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    Ok(buf)
}

/// Whether the buffered bytes contain the end-of-headers terminator.
fn headers_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// Maps one request line to `(status, content type, body)`. Split from the
/// socket handling so routing is unit-testable without a listener.
pub(crate) fn respond(request_line: &str, metrics: &LiveMetrics) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return ("405 Method Not Allowed", "text/plain", "method not allowed\n".into());
    }
    // Ignore any query string: `/metrics?x=1` is still `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    let snapshot = metrics.snapshot();
    match path {
        "/" => ("200 OK", "text/html; charset=utf-8", DASHBOARD_HTML.to_string()),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            snapshot.render_prometheus(),
        ),
        "/status" => ("200 OK", "application/json", snapshot.render_status_json()),
        "/curve" => ("200 OK", "application/x-ndjson", snapshot.render_curve_jsonl()),
        _ => (
            "404 Not Found",
            "text/plain",
            "not found; try /, /metrics, /status, /curve, /events\n".into(),
        ),
    }
}

/// The operator dashboard: one self-contained HTML page (no external
/// assets) that renders `/status`, `/curve`, and the `/events` stream live.
const DASHBOARD_HTML: &str = include_str!("dashboard.html");

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_three_routes_and_404() {
        let metrics = Arc::new(LiveMetrics::new());
        metrics.begin_campaign("DuckDB", 1, 1);
        let beats = metrics.beats();
        metrics.shard_started(&beats[0], 0);
        metrics.record_statement(&beats[0], 1, None, crate::event::OutcomeClass::Ok);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let addr = server.local_addr();

        let (head, body) = scrape(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("soft_statements_total 1"), "{body}");

        let (head, body) = scrape(addr, "/status");
        assert!(head.contains("application/json"), "{head}");
        let rec = crate::json::Record::parse(body.trim(), "/status").expect("status json");
        assert_eq!(rec.str("dialect"), Some("DuckDB"));

        let (head, _) = scrape(addr, "/curve");
        assert!(head.contains("200 OK"), "{head}");

        let (head, _) = scrape(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn rejects_non_get_and_survives_shutdown() {
        let metrics = Arc::new(LiveMetrics::new());
        let mut server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(TcpStream::connect(addr).is_err() || {
            // The OS may briefly accept on the dead listener's backlog;
            // either way no response arrives.
            true
        });
    }

    #[test]
    fn request_split_across_tcp_segments_is_served() {
        let metrics = Arc::new(LiveMetrics::new());
        metrics.begin_campaign("DuckDB", 1, 1);
        metrics.plan_shards(10, 1);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Dribble the request in three writes with pauses in between, so the
        // server's reads observe partial request lines.
        for segment in ["GET /met", "rics HTTP/1.1\r\nHo", "st: test\r\n\r\n"] {
            write!(stream, "{segment}").expect("segment");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(25));
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("soft_statements_planned 10"), "{response}");
    }

    #[test]
    fn request_without_terminating_blank_line_is_served() {
        let metrics = Arc::new(LiveMetrics::new());
        metrics.begin_campaign("DuckDB", 1, 1);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Request line only, then half-close: no headers, no blank line.
        write!(stream, "GET /status HTTP/1.1\r\n").expect("request line");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let body = response.split_once("\r\n\r\n").expect("split").1;
        let rec = crate::json::Record::parse(body.trim(), "/status").expect("status json");
        assert_eq!(rec.str("dialect"), Some("DuckDB"));
    }

    #[test]
    fn routing_ignores_query_strings() {
        let metrics = LiveMetrics::new();
        let (status, _, _) = respond("GET /metrics?scrape=1 HTTP/1.1", &metrics);
        assert_eq!(status, "200 OK");
        let (status, _, _) = respond("GET /else HTTP/1.1", &metrics);
        assert_eq!(status, "404 Not Found");
    }

    #[test]
    fn dashboard_is_served_at_root() {
        let metrics = Arc::new(LiveMetrics::new());
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let (head, body) = scrape(server.local_addr(), "/");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/html"), "{head}");
        // Self-contained: references only the server's own endpoints, no
        // external assets.
        assert!(body.contains("<!DOCTYPE html>"), "dashboard is a full page");
        for endpoint in ["/status", "/curve", "/events"] {
            assert!(body.contains(endpoint), "dashboard must render {endpoint}");
        }
        for external in ["http://", "https://", "src=\"//"] {
            assert!(
                !body.replace("https://", "EXT").contains(external) || external == "https://",
                "dashboard must not reference external assets: {external}"
            );
        }
        assert!(!body.contains("https://"), "no external asset URLs");
        assert!(!body.contains("http://"), "no external asset URLs");
    }

    /// The header-contract satellite: every one-shot route — including 404
    /// and 405 — sends an exact `Content-Length` and `Connection: close`,
    /// so strict clients never wait for more bytes.
    #[test]
    fn every_one_shot_route_sends_content_length_and_connection_close() {
        let metrics = Arc::new(LiveMetrics::new());
        metrics.begin_campaign("DuckDB", 1, 1);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let addr = server.local_addr();
        let cases: [(&str, &str); 6] = [
            ("GET / HTTP/1.1", "200"),
            ("GET /metrics HTTP/1.1", "200"),
            ("GET /status HTTP/1.1", "200"),
            ("GET /curve HTTP/1.1", "200"),
            ("GET /missing HTTP/1.1", "404"),
            ("POST /metrics HTTP/1.1", "405"),
        ];
        for (request_line, code) in cases {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "{request_line}\r\nHost: test\r\n\r\n").expect("request");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("response");
            let (head, body) = response.split_once("\r\n\r\n").expect("header split");
            assert!(head.starts_with(&format!("HTTP/1.1 {code}")), "{request_line}: {head}");
            assert!(head.contains("Connection: close"), "{request_line}: {head}");
            let len_line = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap_or_else(|| panic!("{request_line}: no Content-Length in {head}"));
            assert_eq!(
                len_line.trim().parse::<usize>().expect("numeric length"),
                body.len(),
                "{request_line}: Content-Length must match the body exactly"
            );
        }
    }

    /// Decodes a chunked transfer-coded body (event lines are ASCII, so
    /// byte slicing is safe here).
    fn decode_chunked(body: &str) -> String {
        let mut out = String::new();
        let mut rest = body;
        while let Some((size_line, tail)) = rest.split_once("\r\n") {
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            if size == 0 {
                break;
            }
            out.push_str(&tail[..size]);
            rest = &tail[size + 2..]; // skip the chunk's trailing CRLF
        }
        out
    }

    #[test]
    fn events_stream_is_chunked_and_terminates_when_the_campaign_finishes() {
        let metrics = Arc::new(LiveMetrics::new());
        metrics.begin_campaign("DuckDB", 1, 1);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        write!(stream, "GET /events HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
        // Generate activity while the consumer is attached, then finish: the
        // stream must deliver everything and terminate on its own.
        let beats = metrics.beats();
        metrics.shard_started(&beats[0], 0);
        assert!(metrics.record_unique_candidate("f-9"));
        std::thread::sleep(Duration::from_millis(80));
        metrics.shard_finished(&beats[0], 0, &soft_engine::Coverage::new());
        metrics.finish_campaign();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("stream ends after finish");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(!head.contains("Content-Length"), "streams have no length: {head}");
        assert!(body.ends_with("0\r\n\r\n"), "terminating chunk: {body:?}");
        let events = decode_chunked(body);
        let types: Vec<String> = events
            .lines()
            .map(|l| {
                let rec = crate::json::Record::parse(l, "event").expect("event line is flat JSON");
                rec.str("type").expect("type").to_string()
            })
            .collect();
        assert_eq!(types, vec!["shard", "finding", "shard", "done"], "{events}");
        assert!(events.contains("f-9"), "{events}");
    }

    /// Malformed-request fuzz rows, covering the two new endpoints: whatever
    /// arrives, the server answers with a well-formed response (or drops the
    /// connection) and keeps serving afterwards.
    #[test]
    fn malformed_requests_never_wedge_the_server() {
        let metrics = Arc::new(LiveMetrics::new());
        // Completed campaign so `/events` rows terminate immediately.
        metrics.finish_campaign();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
        let addr = server.local_addr();
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4096));
        let rows: Vec<&str> = vec![
            "",
            "\r\n\r\n",
            "GET",
            "GET\r\n\r\n",
            "GARBAGE /metrics HTTP/1.1\r\n\r\n",
            "GET /%00%ff HTTP/1.1\r\n\r\n",
            "POST / HTTP/1.1\r\n\r\n",
            "POST /events HTTP/1.1\r\n\r\n",
            "PUT /events HTTP/1.1\r\n\r\n",
            "GET /events/../metrics HTTP/1.1\r\n\r\n",
            "GET /eventsX HTTP/1.1\r\n\r\n",
            "GET //events HTTP/1.1\r\n\r\n",
            "GET / HTTP/9.9\r\n\r\n",
            "GET \t /\tHTTP/1.1\r\n\r\n",
            &long_path,
            "GET /events?tail=1 HTTP/1.1\r\n\r\n",
        ];
        for row in rows {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            write!(stream, "{row}").expect("request");
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("server must answer or close");
            assert!(
                response.is_empty() || response.starts_with("HTTP/1.1 "),
                "row {row:?} got a malformed response: {response:?}"
            );
        }
        // Pure-routing fuzz through `respond` for the same shapes.
        for line in ["", "GET", "NOPE /events", "GET /events", "GET  ", "\u{7f}\u{1b} x"] {
            let (status, _, body) = respond(line, &metrics);
            assert!(
                ["200 OK", "404 Not Found", "405 Method Not Allowed"].contains(&status),
                "line {line:?} -> {status}"
            );
            assert!(!body.is_empty(), "line {line:?} produced an empty body");
        }
        // And the server still serves normal scrapes afterwards.
        let (head, _) = scrape(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    }
}
