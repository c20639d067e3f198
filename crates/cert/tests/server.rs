//! Tentpole acceptance: the query server answers `/healthz`, serves a
//! certificate cold (compute-and-cache) then warm (store hit) with
//! byte-identical bodies, the warm path is an order of magnitude faster,
//! and the counters on `/metrics` tell the same story.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use layered_cert::{CertServer, CertStore, Certificate, ServerConfig};
use layered_core::telemetry::clock;
use layered_core::telemetry::json::Json;

fn store_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("layered-cert-server-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a server over a fresh store on an ephemeral port; the accept
/// loop runs on a detached thread for the remainder of the test process.
fn start_server(name: &str, max_compute_n: usize) -> SocketAddr {
    let dir = store_dir(name);
    let store = CertStore::open(&dir).expect("store opens");
    let server = CertServer::bind("127.0.0.1:0", store, ServerConfig { max_compute_n })
        .expect("server binds");
    let addr = server.local_addr().expect("bound address");
    std::thread::spawn(move || {
        let _ = server.run();
    });
    addr
}

struct HttpReply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpReply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A one-shot HTTP GET over a plain socket — the test's own client, so the
/// server is exercised over the real wire format.
fn http_get(addr: SocketAddr, path: &str) -> HttpReply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request written");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response read");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body split");
    let head = std::str::from_utf8(&raw[..split]).expect("head is utf-8");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    HttpReply {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
    }
}

fn counter(metrics_body: &[u8], name: &str) -> u64 {
    let text = std::str::from_utf8(metrics_body).expect("metrics are utf-8");
    let json = Json::parse(text.trim()).expect("metrics are JSON");
    json.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn healthz_answers_ok() {
    let addr = start_server("healthz", 4);
    let reply = http_get(addr, "/healthz");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, b"ok\n");
}

#[test]
fn unknown_routes_and_bad_queries_are_refused() {
    let addr = start_server("refuse", 4);
    assert_eq!(http_get(addr, "/nope").status, 404);
    assert_eq!(http_get(addr, "/query?model=sync-mobile").status, 400);
    assert_eq!(
        http_get(addr, "/query?model=martian&n=3&claim=x").status,
        404
    );
    assert_eq!(
        http_get(
            addr,
            "/cert/0000000000000000000000000000000000000000000000000000000000000000"
        )
        .status,
        404
    );
    assert_eq!(http_get(addr, "/cert/zzz").status, 500);
    // A query above the compute cap cannot be conjured.
    assert_eq!(
        http_get(addr, "/query?model=sync-mobile&n=12&claim=theorem_4_2").status,
        404
    );
}

/// The acceptance scenario: cold compute-and-cache, then warm store hit —
/// byte-identical bodies, a tenfold speedup, and `cert.store.hits` moving
/// on the second request.
#[test]
fn query_cold_then_warm_is_byte_identical_and_faster() {
    let addr = start_server("coldwarm", 4);
    let path = "/query?model=sync-mobile&n=4&claim=lemma_5_1";

    let t0 = clock::monotonic_ns();
    let cold = http_get(addr, path);
    let cold_ns = clock::monotonic_ns().saturating_sub(t0);
    assert_eq!(cold.status, 200, "cold query failed");
    assert_eq!(cold.header("X-Cert-Source"), Some("computed"));

    // The served bytes are a verifiable certificate whose address matches
    // the X-Cert-Hash header.
    let cert = Certificate::decode(&cold.body).expect("served bytes decode");
    assert_eq!(cert.meta.model, "sync-mobile");
    assert_eq!(cert.meta.n, 4);
    assert_eq!(cert.meta.claim, "lemma_5_1");
    assert_eq!(cold.header("X-Cert-Hash"), Some(cert.hash().as_str()));

    // Warm: take the fastest of several tries so scheduler noise cannot
    // mask the store hit; each must be byte-identical to the cold body.
    let mut warm_ns = u64::MAX;
    for _ in 0..5 {
        let t1 = clock::monotonic_ns();
        let warm = http_get(addr, path);
        warm_ns = warm_ns.min(clock::monotonic_ns().saturating_sub(t1));
        assert_eq!(warm.status, 200, "warm query failed");
        assert_eq!(warm.header("X-Cert-Source"), Some("store"));
        assert_eq!(warm.body, cold.body, "warm body differs from cold body");
    }
    assert!(
        warm_ns.saturating_mul(10) <= cold_ns,
        "warm path not >=10x faster: cold {cold_ns}ns, best warm {warm_ns}ns"
    );

    // The counters agree: one computed cold miss, then store hits.
    let metrics = http_get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(counter(&metrics.body, "cert.server.computed"), 1);
    assert_eq!(counter(&metrics.body, "cert.store.misses"), 1);
    assert_eq!(counter(&metrics.body, "cert.store.puts"), 1);
    assert!(
        counter(&metrics.body, "cert.store.hits") >= 5,
        "store hits must reflect the warm requests"
    );
    // Every served certificate was verified before serving: cold + warm.
    assert!(counter(&metrics.body, "cert.verify.ok") >= 6);
    assert_eq!(counter(&metrics.body, "cert.verify.fail"), 0);
}

/// `/cert/<hash>` serves the same bytes the query path produced.
#[test]
fn cert_by_hash_matches_query_bytes() {
    let addr = start_server("byhash", 4);
    let reply = http_get(addr, "/query?model=sync-crash&n=4&claim=lemma_6_1");
    assert_eq!(reply.status, 200);
    let hash = reply
        .header("X-Cert-Hash")
        .expect("hash header")
        .to_string();
    let by_hash = http_get(addr, &format!("/cert/{hash}"));
    assert_eq!(by_hash.status, 200);
    assert_eq!(by_hash.body, reply.body);
    assert_eq!(by_hash.header("X-Cert-Source"), Some("store"));
}

/// A stored certificate whose recorded horizon is too deep to re-check is
/// answered with a 500 naming the bound, and the server keeps serving:
/// the connection's thread does not overflow its stack and abort the
/// process.
#[test]
fn oversized_horizon_certificate_is_refused_and_the_server_survives() {
    let cert = layered_cert::registry::compute(
        "sync-mobile",
        3,
        "theorem_4_2",
        &layered_core::telemetry::NOOP,
    )
    .expect("witness computes");
    let Json::Object(mut members) = cert.body else {
        panic!("witness bodies are objects");
    };
    for (key, value) in &mut members {
        if key == "horizon" {
            *value = Json::from(70_000u64);
        }
    }
    let bad = Certificate::new(cert.meta, cert.kind, Json::Object(members));
    let mut store = CertStore::open(&store_dir("horizon")).expect("store opens");
    let (hash, _) = store
        .put(&bad, &layered_core::telemetry::NOOP)
        .expect("store accepts the bytes");
    let server = CertServer::bind("127.0.0.1:0", store, ServerConfig { max_compute_n: 4 })
        .expect("server binds");
    let addr = server.local_addr().expect("bound address");
    std::thread::spawn(move || {
        let _ = server.run();
    });
    let reply = http_get(addr, &format!("/cert/{hash}"));
    assert_eq!(reply.status, 500);
    assert!(
        String::from_utf8_lossy(&reply.body).contains("MAX_HORIZON"),
        "body: {}",
        String::from_utf8_lossy(&reply.body)
    );
    assert_eq!(http_get(addr, "/healthz").status, 200);
}

/// A stored certificate whose meta fields name a size its model is not
/// defined at (a `sync-crash` run at n = 2) is answered with a 500 naming
/// the reason, and the server keeps serving: building the model no longer
/// panics the connection's thread.
#[test]
fn undefined_size_certificate_is_refused_and_the_server_survives() {
    let cert = layered_cert::registry::compute(
        "sync-crash",
        3,
        "lemma_6_1",
        &layered_core::telemetry::NOOP,
    )
    .expect("run computes");
    let mut meta = cert.meta.clone();
    meta.n = 2;
    let bad = Certificate::new(meta, cert.kind, cert.body);
    let mut store = CertStore::open(&store_dir("meta")).expect("store opens");
    let (hash, _) = store
        .put(&bad, &layered_core::telemetry::NOOP)
        .expect("store accepts the bytes");
    let server = CertServer::bind("127.0.0.1:0", store, ServerConfig { max_compute_n: 4 })
        .expect("server binds");
    let addr = server.local_addr().expect("bound address");
    std::thread::spawn(move || {
        let _ = server.run();
    });
    let reply = http_get(addr, &format!("/cert/{hash}"));
    assert_eq!(reply.status, 500);
    assert!(
        String::from_utf8_lossy(&reply.body).contains("n is outside the sizes"),
        "body: {}",
        String::from_utf8_lossy(&reply.body)
    );
    assert_eq!(http_get(addr, "/healthz").status, 200);
}
