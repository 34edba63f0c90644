//! The operator scrape endpoint: a tiny HTTP/1.1 server over
//! [`std::net::TcpListener`] — no async runtime, no HTTP crate, one
//! background thread.
//!
//! The daemon's simulation loop is single-owner (the
//! [`cgn_traffic::DriverSession`] cannot be shared), so the server
//! never touches live session state: the loop **publishes** an
//! immutable rendering — Prometheus text for `/metrics`, JSON for
//! `/healthz` — after each sample barrier, and the accept thread
//! serves whatever was published last. A scrape therefore observes
//! the most recent *closed* barrier, which is exactly the freshness a
//! pull-based collector gets from a real exporter.
//!
//! Routes:
//!
//! * `GET /metrics` — [`cgn_metrics::expo::render`] of the latest
//!   merged cumulative snapshot (text format 0.0.4);
//! * `GET /healthz` — the latest [`SessionHealth`] as JSON — simulated
//!   progress plus slab/arena/timer-wheel occupancy, the liveness
//!   cross-section the soak gates are built on — with the server's own
//!   `scrapes_served`/`scrape_errors` counters spliced in;
//! * `GET /trace` — the latest published flight-recorder dump as
//!   Chrome-trace JSON ([`cgn_trace::chrome_trace_json`]), rendered
//!   when it is asked for; an empty dump until
//!   [`publish_trace`](OpsServer::publish_trace) is called;
//! * anything else — `404`.
//!
//! [`scrape`] is the matching one-shot client, and
//! [`verify_scrape`] closes the loop: it parses a scraped exposition
//! body back into `(series, value)` pairs and checks every
//! non-histogram sample (and every histogram's `_count`) against the
//! snapshot the server was fed — the machine check behind the soak
//! report's `scrape_verified` flag.

use cgn_metrics::{expo, Snapshot, Value};
use cgn_trace::{chrome_trace_json, TraceDump};
use cgn_traffic::SessionHealth;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The last-published state of the session: `/metrics` and `/healthz`
/// rendered, served verbatim; the flight-recorder dump as published,
/// rendered per `/trace` request — megabytes of JSON that most windows
/// nobody asks for.
struct Published {
    metrics_text: String,
    health_json: String,
    trace: Arc<TraceDump>,
}

impl Published {
    /// Lock the published state, poisoned or not. A publisher that
    /// panicked while holding the lock leaves nothing half-written:
    /// every update assigns a whole, already built value to a
    /// field, so each field is at all times some complete rendering —
    /// at worst `/metrics` is one barrier newer than `/healthz`. One
    /// dead publisher must not take the accept thread, and every later
    /// scrape, down with it.
    fn lock(published: &Mutex<Published>) -> MutexGuard<'_, Published> {
        published.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Live scrape endpoint for one soak session. Bind, then call
/// [`publish`](OpsServer::publish) after every sample barrier;
/// dropping the server (or [`shutdown`](OpsServer::shutdown)) stops
/// the accept thread.
pub struct OpsServer {
    addr: SocketAddr,
    published: Arc<Mutex<Published>>,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// start the accept thread. Before the first
    /// [`publish`](OpsServer::publish), `/metrics` serves an empty
    /// exposition and `/healthz` serves `{}`.
    pub fn bind(addr: &str) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept so the thread can notice the stop flag
        // without needing a wake-up connection.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let published = Arc::new(Mutex::new(Published {
            metrics_text: String::new(),
            health_json: "{}".to_string(),
            trace: Arc::default(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let handle = {
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || accept_loop(listener, &published, &stop, &served, &errors))
        };
        Ok(OpsServer {
            addr,
            published,
            stop,
            served,
            errors,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (any route, including 404s).
    pub fn scrapes_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Requests that failed mid-answer (short reads, a request head
    /// not delivered within its deadline, broken pipes on the response
    /// write) — the counter `/healthz` surfaces as `scrape_errors`.
    pub fn scrape_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Swap in a fresh flight-recorder dump (typically the session's
    /// latest [`cgn_traffic::DriverSession::trace_dump`]) for `/trace`
    /// to render. Publishing costs a pointer swap, whatever the dump's
    /// size.
    pub fn publish_trace(&self, dump: TraceDump) {
        let dump = Arc::new(dump);
        Published::lock(&self.published).trace = dump;
    }

    /// Swap in a fresh rendering of the session: `snapshot` becomes
    /// the `/metrics` exposition, `health` the `/healthz` body.
    pub fn publish(&self, snapshot: &Snapshot, health: &SessionHealth) {
        let metrics_text = expo::render(snapshot);
        let health_json = serde_json::to_string(health).unwrap_or_else(|_| "{}".to_string());
        let mut p = Published::lock(&self.published);
        p.metrics_text = metrics_text;
        p.health_json = health_json;
    }

    /// Stop the accept thread and return the total requests served.
    pub fn shutdown(mut self) -> u64 {
        self.stop_and_join();
        self.served.load(Ordering::Relaxed)
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    published: &Mutex<Published>,
    stop: &AtomicBool,
    served: &AtomicU64,
    errors: &AtomicU64,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if answer(stream, published, served, errors).is_ok() {
                    served.fetch_add(1, Ordering::Relaxed);
                } else {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Wall-clock budget for a client to deliver its whole request head.
/// One budget for the head, not one per read: the accept thread serves
/// a connection at a time, so a client trickling bytes just inside a
/// per-read timeout would hold every route for hours.
const HEAD_DEADLINE: Duration = Duration::from_secs(if cfg!(test) { 1 } else { 5 });

/// Longest request head read before routing on what has arrived.
const MAX_HEAD_BYTES: usize = 8192;

/// Read up to the blank line that ends a request head (or EOF, or
/// [`MAX_HEAD_BYTES`]). A head still incomplete at [`HEAD_DEADLINE`]
/// is an [`ErrorKind::TimedOut`] error.
fn read_head(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while head.len() < MAX_HEAD_BYTES {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(remaining))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        // The terminator may straddle two reads.
        let scan_from = head.len().saturating_sub(3);
        head.extend_from_slice(&chunk[..n]);
        if head[scan_from..].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    Ok(head)
}

/// Read one request head, route on the path, write one response.
/// `Connection: close` on everything — a scrape is one round trip.
fn answer(
    mut stream: TcpStream,
    published: &Mutex<Published>,
    served: &AtomicU64,
    errors: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let head = read_head(&mut stream)?;
    let request_line = std::str::from_utf8(&head)
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => {
            let p = Published::lock(published);
            (
                "200 OK",
                "text/plain; version=0.0.4",
                p.metrics_text.clone(),
            )
        }
        "/healthz" => {
            let p = Published::lock(published);
            let body = splice_server_counters(
                &p.health_json,
                served.load(Ordering::Relaxed),
                errors.load(Ordering::Relaxed),
            );
            ("200 OK", "application/json", body)
        }
        "/trace" => {
            // The lock is held for the pointer clone only: rendering a
            // full recorder takes milliseconds a publisher must not wait.
            let dump = Arc::clone(&Published::lock(published).trace);
            ("200 OK", "application/json", chrome_trace_json(&dump))
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Splice the server's own request counters into a published
/// `/healthz` JSON object: downstream parsers that deserialize the
/// body as [`SessionHealth`] ignore the extra keys, while operators
/// (and the round-trip test) read `scrapes_served`/`scrape_errors`
/// alongside the session fields.
fn splice_server_counters(health_json: &str, served: u64, errors: u64) -> String {
    let trimmed = health_json.trim_end();
    match trimmed.strip_suffix('}') {
        Some(head) => {
            let comma = if head.trim_end().ends_with('{') {
                ""
            } else {
                ","
            };
            format!("{head}{comma}\"scrapes_served\":{served},\"scrape_errors\":{errors}}}")
        }
        None => trimmed.to_string(),
    }
}

/// One-shot scrape client: `GET {path}` against `addr`, returning the
/// response body. Non-200 statuses come back as
/// [`ErrorKind::InvalidData`] errors carrying the status line.
pub fn scrape(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: cgn-opsd\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidData, "response without header terminator")
    })?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("non-200 scrape: {status_line}"),
        ));
    }
    Ok(body.to_string())
}

/// Parse a Prometheus text body into `(series name incl. labels,
/// value)` pairs, skipping comments and blank lines. Values in this
/// stack are always `u64` renderings ([`Value::as_u64`]); lines that
/// don't parse as such are skipped rather than fatal, so the map is
/// usable on any exposition this repo produces.
pub fn parse_scalars(body: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<u64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// Check a scraped `/metrics` body against the snapshot the server
/// was fed: every scalar sample must appear with its exact value, and
/// every histogram must expose a matching `_count`. Returns the
/// number of series verified, or the first discrepancy.
pub fn verify_scrape(body: &str, snapshot: &Snapshot) -> Result<u64, String> {
    let parsed = parse_scalars(body);
    let mut verified = 0u64;
    for sample in &snapshot.samples {
        let (expected_name, expected) = match &sample.value {
            Value::Histogram(h) => {
                // `fam{l}` renders its count as `fam_count{l}`.
                let name = match sample.name.split_once('{') {
                    Some((family, labels)) => format!("{family}_count{{{labels}"),
                    None => format!("{}_count", sample.name),
                };
                (name, h.count)
            }
            v => (sample.name.clone(), v.as_u64()),
        };
        match parsed.get(&expected_name) {
            Some(&got) if got == expected => verified += 1,
            Some(&got) => {
                return Err(format!(
                    "series {expected_name}: scraped {got}, snapshot has {expected}"
                ))
            }
            None => return Err(format!("series {expected_name} missing from scrape")),
        }
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::StoreOccupancy;

    fn sample_state() -> (Snapshot, SessionHealth) {
        let mut snap = Snapshot::default();
        snap.push("cgn_mappings_live", Value::Gauge(42));
        snap.push("cgn_flows_started_total", Value::Counter(1234));
        snap.push(
            "cgn_flows_rejected_total{reason=\"port-exhausted\"}",
            Value::Counter(7),
        );
        snap.normalize();
        let health = SessionHealth {
            now_secs: 120,
            horizon_secs: 600,
            flows_started: 1234,
            flows_blocked: 7,
            flows_completed: 1100,
            packets_sent: 5000,
            event_wheel_depth: 17,
            store: StoreOccupancy::default(),
            windows_retained: 2,
            windows_evicted: 3,
        };
        (snap, health)
    }

    #[test]
    fn scrape_round_trips_published_state() {
        let server = OpsServer::bind("127.0.0.1:0").expect("bind");
        let (snap, health) = sample_state();
        server.publish(&snap, &health);

        let body = scrape(server.local_addr(), "/metrics").expect("scrape /metrics");
        assert!(body.contains("# TYPE cgn_mappings_live gauge"), "{body}");
        assert_eq!(verify_scrape(&body, &snap), Ok(3), "{body}");

        let health_body = scrape(server.local_addr(), "/healthz").expect("scrape /healthz");
        let parsed: SessionHealth = serde_json::from_str(&health_body).expect("health parses");
        assert_eq!(parsed, health);
        // The server splices its own counters into the same object;
        // deserializing as SessionHealth above proved extra keys are
        // harmless.
        assert!(
            health_body.contains("\"windows_evicted\":3"),
            "{health_body}"
        );
        assert!(health_body.contains("\"scrapes_served\":"), "{health_body}");
        assert!(health_body.contains("\"scrape_errors\":0"), "{health_body}");

        let err = scrape(server.local_addr(), "/nope").expect_err("404 is an error");
        assert_eq!(err.kind(), ErrorKind::InvalidData);

        assert_eq!(server.shutdown(), 3, "three requests served");
    }

    #[test]
    fn a_poisoned_publish_lock_does_not_stop_the_server() {
        let server = OpsServer::bind("127.0.0.1:0").expect("bind");
        let (snap, mut health) = sample_state();
        server.publish(&snap, &health);
        // A publisher dies holding the lock.
        let published = Arc::clone(&server.published);
        let publisher = std::thread::spawn(move || {
            let _held = published.lock().expect("first to poison it");
            panic!("publisher died mid-update");
        });
        assert!(publisher.join().is_err());
        assert!(server.published.is_poisoned());

        // The serve path still answers every route with what was
        // published last…
        let body = scrape(server.local_addr(), "/metrics").expect("scrape /metrics");
        assert_eq!(verify_scrape(&body, &snap), Ok(3), "{body}");
        let body = scrape(server.local_addr(), "/healthz").expect("scrape /healthz");
        let parsed: SessionHealth = serde_json::from_str(&body).expect("health parses");
        assert_eq!(parsed, health);
        scrape(server.local_addr(), "/trace").expect("scrape /trace");
        // …and the publish path still publishes.
        health.now_secs = 180;
        server.publish(&snap, &health);
        let dump = TraceDump {
            evicted: 9,
            ..TraceDump::default()
        };
        let rendered = chrome_trace_json(&dump);
        server.publish_trace(dump);
        let body = scrape(server.local_addr(), "/healthz").expect("scrape /healthz");
        assert!(body.contains("\"now_secs\":180"), "{body}");
        assert_eq!(
            scrape(server.local_addr(), "/trace").expect("trace"),
            rendered
        );
        assert_eq!(server.scrape_errors(), 0);
        assert_eq!(
            server.shutdown(),
            5,
            "the accept thread outlived the poisoning"
        );
    }

    #[test]
    fn trace_endpoint_serves_published_chrome_json() {
        let server = OpsServer::bind("127.0.0.1:0").expect("bind");
        // Before any publish: an empty, parseable dump.
        let body = scrape(server.local_addr(), "/trace").expect("scrape /trace");
        assert_eq!(body, chrome_trace_json(&TraceDump::default()));
        let v: serde_json::Value = serde_json::from_str(&body).expect("empty dump parses");
        drop(v);

        let mut tracer = cgn_trace::ShardTracer::new(0, &cgn_trace::TraceConfig::sampled(1));
        tracer.on_admit(
            3,
            cgn_trace::FlowKey {
                udp: true,
                internal_ip: std::net::Ipv4Addr::new(100, 64, 0, 1),
                internal_port: 40_000,
                external_ip: std::net::Ipv4Addr::new(198, 18, 0, 1),
                external_port: 1024,
            },
            10,
            true,
        );
        tracer.on_expire(3, 500);
        let dump = cgn_trace::TraceDump::from_shards(
            [(
                tracer.events().copied().collect(),
                tracer.evicted(),
                tracer.sampled_flows(),
            )],
            1,
        );
        let rendered = chrome_trace_json(&dump);
        server.publish_trace(dump);
        let body = scrape(server.local_addr(), "/trace").expect("scrape /trace");
        assert_eq!(body, rendered, "rendered from the published dump");
        assert!(body.contains("\"ph\":\"X\""), "lifetime bar served: {body}");
        assert!(body.contains(cgn_trace::CHROME_SCHEMA), "{body}");
        let _: serde_json::Value = serde_json::from_str(&body).expect("published dump parses");
    }

    #[test]
    fn broken_requests_count_as_scrape_errors() {
        let server = OpsServer::bind("127.0.0.1:0").expect("bind");
        let (snap, health) = sample_state();
        server.publish(&snap, &health);
        assert_eq!(server.scrape_errors(), 0);

        // A client that connects and hangs up without a request: the
        // answer path hits EOF/EPIPE and the error counter moves.
        drop(TcpStream::connect(server.local_addr()).expect("connect"));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.scrape_errors() + server.scrapes_served() == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }

        // The error (or, if the dropped connection still answered, the
        // served counter) surfaces in the next /healthz body.
        let errors = server.scrape_errors();
        let body = scrape(server.local_addr(), "/healthz").expect("scrape");
        assert!(
            body.contains(&format!("\"scrape_errors\":{errors}")),
            "healthz surfaces the live counter: {body}"
        );
    }

    /// A client that trickles its request head a byte at a time gets
    /// one deadline for the whole head, not one per byte, so the
    /// single accept thread is free for the next scrape.
    #[test]
    fn trickled_request_head_is_cut_off_at_the_deadline() {
        let server = OpsServer::bind("127.0.0.1:0").expect("bind");
        let (snap, health) = sample_state();
        server.publish(&snap, &health);

        let started = Instant::now();
        let mut slow = TcpStream::connect(server.local_addr()).expect("connect");
        slow.write_all(b"GET /he").expect("first bytes");
        // Never completes the head; stops once the server hangs up (or,
        // against a server without the deadline, after 20 s).
        let trickler = std::thread::spawn(move || {
            for _ in 0..100 {
                std::thread::sleep(Duration::from_millis(200));
                if slow.write_all(b"a").is_err() {
                    return;
                }
            }
        });

        let patience = HEAD_DEADLINE + Duration::from_secs(3);
        while server.scrape_errors() == 0 && started.elapsed() < patience {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.scrape_errors(), 1, "expired head is an error");
        assert!(
            started.elapsed() >= HEAD_DEADLINE,
            "not before the deadline"
        );
        assert_eq!(server.scrapes_served(), 0, "the trickler got no answer");

        let body = scrape(server.local_addr(), "/healthz").expect("endpoint is free again");
        assert!(body.contains("\"scrape_errors\":1"), "{body}");
        trickler.join().expect("trickler exits once cut off");
    }

    #[test]
    fn verify_scrape_reports_discrepancies() {
        let (snap, _) = sample_state();
        let body = expo::render(&snap);
        assert_eq!(verify_scrape(&body, &snap), Ok(3));

        let tampered = body.replace("cgn_mappings_live 42", "cgn_mappings_live 41");
        let err = verify_scrape(&tampered, &snap).expect_err("tampered value detected");
        assert!(err.contains("cgn_mappings_live"), "{err}");

        let truncated = body.replace("cgn_flows_started_total 1234\n", "");
        let err = verify_scrape(&truncated, &snap).expect_err("missing series detected");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn republishing_replaces_the_exposition() {
        let server = OpsServer::bind("127.0.0.1:0").expect("bind");
        let (mut snap, health) = sample_state();
        server.publish(&snap, &health);
        snap.push("cgn_flows_started_total", Value::Counter(1));
        snap.normalize();
        server.publish(&snap, &health);
        let body = scrape(server.local_addr(), "/metrics").expect("scrape");
        assert!(body.contains("cgn_flows_started_total 1235"), "{body}");
    }
}
