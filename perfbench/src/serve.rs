//! The serve workload: every registry certificate at n = 3..max_compute_n
//! is computed into a fresh store at set-up and served by an in-process
//! `CertServer` on 127.0.0.1; one op is a cycle through 16 routes —
//! `/query` for each certificate and `/cert/<hash>` for each address — in
//! a seeded order, one connection per request.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;

use layered_cert::{registry, sha256_hex, CertServer, CertStore, ServerConfig};
use layered_core::telemetry::{MetricsRegistry, NOOP};

use crate::measure::{Sampler, SplitMix64};
use crate::run::{ref_of, timed_op, traced_root, LayerValues, Timed, Workload};
use crate::trace::Tracer;

/// Registry certificates the store must hold (n = 3..max_compute_n over
/// every computable claim).
pub const CERTIFICATES: usize = 8;

/// One route and the bytes it must return.
#[derive(Clone, Debug)]
pub struct Route {
    /// Request target.
    pub path: String,
    /// Content address of the certificate it serves.
    pub hash: String,
    /// The certificate's bytes as written at set-up.
    pub body: Vec<u8>,
}

/// A parsed HTTP response.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `X-Cert-Hash` header, if present.
    pub cert_hash: Option<String>,
    /// Response body.
    pub body: Vec<u8>,
}

/// One `GET` over a fresh connection.
///
/// # Errors
///
/// Connection or protocol failures.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    parse_reply(&raw)
}

/// Parses a raw HTTP/1.1 response.
///
/// # Errors
///
/// A response without a head, a status code, or a UTF-8 head.
pub fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no end of head")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status code")?;
    let cert_hash = lines
        .filter_map(|l| l.split_once(": "))
        .find(|(k, _)| k.eq_ignore_ascii_case("X-Cert-Hash"))
        .map(|(_, v)| v.to_string());
    Ok(Reply {
        status,
        cert_hash,
        body: raw[split + 4..].to_vec(),
    })
}

/// Checks a reply: status 200, body hashing to `X-Cert-Hash`, and body
/// byte-identical to what set-up wrote for the route.
///
/// # Errors
///
/// Names the route and the first check that failed.
pub fn check_reply(route: &Route, reply: &Reply) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("{} answered {}", route.path, reply.status));
    }
    let header = reply
        .cert_hash
        .as_deref()
        .ok_or_else(|| format!("{}: no X-Cert-Hash", route.path))?;
    if sha256_hex(&reply.body) != header {
        return Err(format!("{}: body does not hash to X-Cert-Hash", route.path));
    }
    if header != route.hash || reply.body != route.body {
        return Err(format!(
            "{}: body differs from the stored certificate",
            route.path
        ));
    }
    Ok(())
}

/// The serve workload (see the module docs).
pub struct ServeWorkload {
    addr: SocketAddr,
    routes: Vec<Route>,
    order: Vec<usize>,
    rng: SplitMix64,
    metrics: Arc<MetricsRegistry>,
    store: CertStore,
}

impl ServeWorkload {
    /// Computes the certificates into a fresh store under `dir` and starts
    /// the server; `seed` drives the route order.
    ///
    /// # Errors
    ///
    /// A certificate that cannot be computed or stored, or a server that
    /// cannot bind.
    pub fn start(dir: &Path, seed: u64) -> Result<Self, String> {
        // A leftover store from an earlier run would only be re-deduplicated.
        let _ = std::fs::remove_dir_all(dir);
        let mut store = CertStore::open(dir).map_err(|e| e.to_string())?;
        let mut routes = Vec::new();
        for model in registry::MODEL_KEYS {
            for claim in registry::claims_for(model) {
                for n in 3..=registry::max_compute_n(model) {
                    let cert = registry::compute(model, n, claim, &NOOP)
                        .map_err(|e| format!("{model} n={n} {claim}: {e}"))?;
                    let (hash, _) = store.put(&cert, &NOOP).map_err(|e| e.to_string())?;
                    let body = cert.encode().into_bytes();
                    routes.push(Route {
                        path: format!("/query?model={model}&n={n}&claim={claim}"),
                        hash: hash.clone(),
                        body: body.clone(),
                    });
                    routes.push(Route {
                        path: format!("/cert/{hash}"),
                        hash,
                        body,
                    });
                }
            }
        }
        if routes.len() != 2 * CERTIFICATES {
            return Err(format!(
                "expected {CERTIFICATES} registry certificates, computed {}",
                routes.len() / 2
            ));
        }
        let probe_store = CertStore::open(dir).map_err(|e| e.to_string())?;
        let server = CertServer::bind("127.0.0.1:0", store, ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("bound address: {e}"))?;
        let metrics = server.metrics();
        // The accept loop has no shutdown; it ends with the process.
        std::thread::spawn(move || server.run());
        Ok(ServeWorkload {
            addr,
            order: (0..routes.len()).collect(),
            routes,
            rng: SplitMix64::new(seed),
            metrics,
            store: probe_store,
        })
    }

    /// Flips one byte of the body expected on the first route, so every
    /// response to it reads as corrupted (tests use this).
    pub fn corrupt_expected_body(&mut self) {
        if let Some(byte) = self.routes.first_mut().and_then(|r| r.body.first_mut()) {
            *byte ^= 1;
        }
    }
}

impl Workload for ServeWorkload {
    fn op(&mut self, s: &mut Sampler) -> Result<Timed, String> {
        self.rng.shuffle(&mut self.order);
        let (addr, routes, order) = (self.addr, &self.routes, &self.order);
        timed_op(s, || {
            for &i in order {
                let route = &routes[i];
                check_reply(route, &http_get(addr, &route.path)?)?;
            }
            Ok(())
        })
    }

    fn traced_op(
        &mut self,
        s: &mut Sampler,
        t: &mut Tracer,
        op: u64,
    ) -> Result<(Timed, LayerValues), String> {
        self.rng.shuffle(&mut self.order);
        let (addr, routes, order, store) = (self.addr, &self.routes, &self.order, &self.store);
        let before = self.metrics.snapshot();
        let ((), timed, root) = traced_root(s, t, op, "op", |t| {
            for &i in order {
                let route = &routes[i];
                t.span("cert.request", |_| {
                    check_reply(route, &http_get(addr, &route.path)?)
                })?;
            }
            Ok(())
        })?;
        let after = self.metrics.snapshot();

        // Probes: the server-side steps of the same requests, one at a time.
        let ((), probe_timed, probe_root) = traced_root(s, t, op, "probe", |t| {
            for _ in order {
                let reply = t.span("probe.healthz", |_| http_get(addr, "/healthz"))?;
                if reply.status != 200 || reply.body != b"ok\n" {
                    return Err("/healthz did not answer ok".into());
                }
            }
            for &i in order {
                let cert = t
                    .span("probe.store_get", |_| store.get(&routes[i].hash, &NOOP))
                    .map_err(|e| e.to_string())?
                    .ok_or("probe: certificate missing from the store")?;
                t.span("probe.verify", |_| registry::verify(&cert, &NOOP))
                    .map_err(|e| e.to_string())?;
                let hash = t.span("probe.encode_hash", |_| {
                    black_box(cert.encode());
                    cert.hash()
                });
                if hash != routes[i].hash {
                    return Err("probe: stored certificate hashes differently".into());
                }
            }
            Ok(())
        })?;

        let r_probe = ref_of(&probe_timed);
        let probe = t.self_by_name(probe_root);
        let probe_ref = |name: &str| probe.get(name).copied().unwrap_or(0) as f64 / r_probe;
        let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
        let values = vec![
            ("cert.transport_ref", probe_ref("probe.healthz")),
            ("cert.store_get_ref", probe_ref("probe.store_get")),
            ("cert.verify_ref", probe_ref("probe.verify")),
            ("cert.encode_hash_ref", probe_ref("probe.encode_hash")),
            ("cert.store.hits", delta("cert.store.hits")),
            ("cert.verify.ok", delta("cert.verify.ok")),
            ("trace.unattributed_frac", t.unattributed_frac(root)),
        ];
        Ok((timed, values))
    }
}
