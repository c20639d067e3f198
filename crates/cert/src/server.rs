//! The witness query server: a dependency-free HTTP/1.1 front end over a
//! [`CertStore`].
//!
//! # Routes
//!
//! * `GET /healthz` — liveness probe, answers `ok`.
//! * `GET /metrics` — the server's [`MetricsRegistry`] snapshot as JSON
//!   (store hit/miss/put counters, verify outcomes, request histograms).
//! * `GET /cert/<hash>` — the certificate at a content address, verbatim.
//! * `GET /query?model=<key>&n=<k>&claim=<key>` — the newest certificate
//!   for those coordinates; on a store miss, if the claim is computable
//!   and `n` is within the compute cap, the certificate is computed,
//!   stored, and served (`X-Cert-Source: computed`), so the next identical
//!   query is a store hit with byte-identical body.
//!
//! Every certificate is re-verified ([`registry::verify`]) before being
//! served — a corrupted or stale artifact produces a `500`, never a wrong
//! answer. Served bytes are exactly [`Certificate::encode`], so cold
//! (computed) and warm (store-hit) responses for the same coordinates are
//! byte-identical and hash to the `X-Cert-Hash` header.
//!
//! The protocol subset is deliberately tiny — `GET` only,
//! `Connection: close`, one response per connection — because the point is
//! serving verified artifacts fast with zero dependencies, not generality.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use layered_core::telemetry::clock;
use layered_core::telemetry::{names, MetricsRegistry, Observer};

use crate::cert::Certificate;
use crate::registry;
use crate::store::CertStore;

/// Server tunables.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Largest `n` for which a `/query` miss triggers compute-and-cache
    /// (further capped per model by [`registry::max_compute_n`]).
    pub max_compute_n: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_compute_n: 4 }
    }
}

/// One HTTP response, ready to write.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    extra_headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn ok_json(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    fn text(status: u16, reason: &'static str, body: &str) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The query server: owns the listener, the store, and the metrics
/// registry that `/metrics` reports.
pub struct CertServer {
    listener: TcpListener,
    store: Arc<Mutex<CertStore>>,
    metrics: Arc<MetricsRegistry>,
    config: ServerConfig,
}

impl CertServer {
    /// Binds to `addr` (use port `0` for an ephemeral port) over `store`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, store: CertStore, config: ServerConfig) -> std::io::Result<Self> {
        Ok(CertServer {
            listener: TcpListener::bind(addr)?,
            store: Arc::new(Mutex::new(store)),
            metrics: Arc::new(MetricsRegistry::new()),
            config,
        })
    }

    /// The bound address (reports the actual ephemeral port after binding
    /// to port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The registry behind `/metrics`, shareable before [`run`](Self::run)
    /// consumes the server (tests assert on counters through this).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Serves forever: accepts connections and answers each on its own
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns only on a fatal accept error; per-connection I/O errors are
    /// counted (`cert.server.errors`) and dropped.
    pub fn run(self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            let store = Arc::clone(&self.store);
            let metrics = Arc::clone(&self.metrics);
            let config = self.config;
            std::thread::spawn(move || {
                if handle_connection(stream, &store, &metrics, config).is_err() {
                    metrics.counter(names::CERT_SERVER_ERRORS, 1);
                }
            });
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    store: &Mutex<CertStore>,
    metrics: &MetricsRegistry,
    config: ServerConfig,
) -> std::io::Result<()> {
    let started = clock::monotonic_ns();
    let target = read_request_target(&mut stream)?;
    let response = match target {
        Some(path) => route(&path, store, metrics, config),
        None => Response::text(400, "Bad Request", "only GET is supported\n"),
    };
    metrics.counter(names::CERT_SERVER_REQUESTS, 1);
    if response.status >= 400 {
        metrics.counter(names::CERT_SERVER_ERRORS, 1);
    }
    metrics.histogram(
        names::CERT_SERVER_REQUEST_NS,
        clock::monotonic_ns().saturating_sub(started),
    );
    response.write_to(&mut stream)
}

/// Reads the request head; returns the target of a `GET`, `None` for any
/// other method or a malformed request line.
fn read_request_target(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so the client sees a clean close.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(target)) => Ok(Some(target.to_string())),
        _ => Ok(None),
    }
}

fn route(
    path: &str,
    store: &Mutex<CertStore>,
    metrics: &MetricsRegistry,
    config: ServerConfig,
) -> Response {
    if path == "/healthz" {
        return Response::text(200, "OK", "ok\n");
    }
    if path == "/metrics" {
        let snapshot = metrics.snapshot();
        return Response::ok_json(format!("{}\n", snapshot.to_json().canonicalize()));
    }
    if let Some(hash) = path.strip_prefix("/cert/") {
        return serve_by_hash(hash, store, metrics);
    }
    if let Some(query) = path.strip_prefix("/query?") {
        return serve_query(query, store, metrics, config);
    }
    Response::text(404, "Not Found", "no such route\n")
}

fn serve_by_hash(hash: &str, store: &Mutex<CertStore>, metrics: &MetricsRegistry) -> Response {
    let loaded = {
        let guard = store.lock().expect("store mutex poisoned");
        guard.get(hash, metrics)
    };
    match loaded {
        Ok(Some(cert)) => serve_verified(&cert, "store", metrics),
        Ok(None) => Response::text(404, "Not Found", "no certificate at that address\n"),
        Err(e) => Response::text(500, "Internal Server Error", &format!("{e}\n")),
    }
}

fn serve_query(
    query: &str,
    store: &Mutex<CertStore>,
    metrics: &MetricsRegistry,
    config: ServerConfig,
) -> Response {
    let (mut model, mut n, mut claim) = (None, None, None);
    for pair in query.split('&') {
        match pair.split_once('=') {
            Some(("model", v)) => model = Some(v.to_string()),
            Some(("n", v)) => n = v.parse::<usize>().ok(),
            Some(("claim", v)) => claim = Some(v.to_string()),
            _ => {}
        }
    }
    let (Some(model), Some(n), Some(claim)) = (model, n, claim) else {
        return Response::text(400, "Bad Request", "need model=, n=, claim=\n");
    };

    // Warm path: newest stored certificate for these coordinates.
    let stored = {
        let guard = store.lock().expect("store mutex poisoned");
        match guard.query(&model, n, &claim).map(|e| e.hash.clone()) {
            Some(hash) => guard.get(&hash, metrics).transpose(),
            None => {
                metrics.counter(names::CERT_STORE_MISSES, 1);
                None
            }
        }
    };
    match stored {
        Some(Ok(cert)) => return serve_verified(&cert, "store", metrics),
        Some(Err(e)) => return Response::text(500, "Internal Server Error", &format!("{e}\n")),
        None => {}
    }

    // Cold path: compute-and-cache when the registry can.
    if !registry::claims_for(&model).contains(&claim.as_str()) {
        return Response::text(404, "Not Found", "no stored certificate for that claim\n");
    }
    if n > config.max_compute_n.min(registry::max_compute_n(&model)) {
        return Response::text(
            404,
            "Not Found",
            "no stored certificate, and n exceeds the compute cap\n",
        );
    }
    match registry::compute(&model, n, &claim, metrics) {
        Ok(cert) => {
            metrics.counter(names::CERT_SERVER_COMPUTED, 1);
            let put = {
                let mut guard = store.lock().expect("store mutex poisoned");
                guard.put(&cert, metrics)
            };
            if let Err(e) = put {
                return Response::text(500, "Internal Server Error", &format!("{e}\n"));
            }
            serve_verified(&cert, "computed", metrics)
        }
        Err(e) => Response::text(500, "Internal Server Error", &format!("{e}\n")),
    }
}

/// The single exit point for certificate bytes: re-verify, then serve the
/// canonical encoding with its address and provenance attached.
fn serve_verified(cert: &Certificate, source: &str, metrics: &MetricsRegistry) -> Response {
    if let Err(e) = registry::verify(cert, metrics) {
        return Response::text(500, "Internal Server Error", &format!("{e}\n"));
    }
    let body = cert.encode();
    let mut response = Response::ok_json(body);
    response
        .extra_headers
        .push(("X-Cert-Hash".to_string(), cert.hash()));
    response
        .extra_headers
        .push(("X-Cert-Source".to_string(), source.to_string()));
    response
}
