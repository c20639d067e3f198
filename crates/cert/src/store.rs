//! The content-addressed certificate store.
//!
//! # Layout
//!
//! ```text
//! <root>/v1/objects/<hh>/<hash>.json   one file per certificate; the file
//!                                      bytes are exactly the canonical
//!                                      encoding, and <hash> is their
//!                                      SHA-256 (<hh> = first two hex chars)
//! <root>/v1/index.jsonl                append-only query index: one
//!                                      canonical JSON line per stored
//!                                      certificate (model, n, layering,
//!                                      claim, kind, hash)
//! ```
//!
//! Writes dedup by address: putting a certificate whose bytes are already
//! present is a no-op on the object tree. Reads re-hash the file bytes
//! against the address before parsing, so on-disk corruption surfaces as
//! [`StoreError::Corrupt`] instead of a wrong answer. The index is
//! rebuildable from the object tree; it exists so queries don't have to
//! crawl and parse every object.

use std::io::Write;
use std::path::{Path, PathBuf};

use layered_core::telemetry::json::Json;
use layered_core::telemetry::{names, Observer};

use crate::cert::{CertError, Certificate};
use crate::hash::{is_hash, sha256_hex};

/// One line of the query index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Model registry key.
    pub model: String,
    /// Number of processes.
    pub n: usize,
    /// Layering key.
    pub layering: String,
    /// Claim key.
    pub claim: String,
    /// Certificate kind key.
    pub kind: String,
    /// Content address of the certificate.
    pub hash: String,
}

impl IndexEntry {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("model".into(), Json::from(self.model.as_str())),
            ("n".into(), Json::from(self.n as u64)),
            ("layering".into(), Json::from(self.layering.as_str())),
            ("claim".into(), Json::from(self.claim.as_str())),
            ("kind".into(), Json::from(self.kind.as_str())),
            ("hash".into(), Json::from(self.hash.as_str())),
        ])
        .canonicalize()
    }

    fn from_json(json: &Json) -> Option<IndexEntry> {
        let text = |f: &str| json.get(f).and_then(Json::as_str).map(str::to_string);
        Some(IndexEntry {
            model: text("model")?,
            n: usize::try_from(json.get("n").and_then(Json::as_u64)?).ok()?,
            layering: text("layering")?,
            claim: text("claim")?,
            kind: text("kind")?,
            hash: text("hash").filter(|h| is_hash(h))?,
        })
    }
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error, with the operation that hit it.
    Io(&'static str, std::io::Error),
    /// A stored object's bytes no longer hash to its address.
    Corrupt {
        /// The address whose file failed the integrity re-hash.
        hash: String,
    },
    /// A stored object's bytes hash correctly but don't decode.
    Undecodable {
        /// The address of the undecodable object.
        hash: String,
        /// What the decoder rejected.
        error: CertError,
    },
    /// The argument is not a well-formed content address.
    BadAddress,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(op, e) => write!(f, "store I/O ({op}): {e}"),
            StoreError::Corrupt { hash } => {
                write!(f, "object {hash} failed its integrity re-hash")
            }
            StoreError::Undecodable { hash, error } => {
                write!(f, "object {hash} does not decode: {error}")
            }
            StoreError::BadAddress => write!(f, "not a certificate address (64 hex chars)"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A content-addressed certificate store rooted at one directory (see the
/// [module docs](self) for the layout).
#[derive(Debug)]
pub struct CertStore {
    root: PathBuf,
    index: Vec<IndexEntry>,
}

impl CertStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory tree cannot be created or the
    /// index cannot be read. Unparsable index lines are skipped — the
    /// index is advisory; objects remain addressable by hash.
    pub fn open(dir: &Path) -> Result<CertStore, StoreError> {
        let root = dir.join("v1");
        std::fs::create_dir_all(root.join("objects"))
            .map_err(|e| StoreError::Io("create store directories", e))?;
        let mut index = Vec::new();
        let index_path = root.join("index.jsonl");
        if index_path.exists() {
            let text = std::fs::read_to_string(&index_path)
                .map_err(|e| StoreError::Io("read index", e))?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                if let Some(entry) = Json::parse(line)
                    .ok()
                    .as_ref()
                    .and_then(IndexEntry::from_json)
                {
                    index.push(entry);
                }
            }
        }
        Ok(CertStore { root, index })
    }

    /// The object path of a content address.
    fn object_path(&self, hash: &str) -> PathBuf {
        self.root
            .join("objects")
            .join(&hash[..2])
            .join(format!("{hash}.json"))
    }

    /// Stores `cert`, deduplicating by content address.
    ///
    /// Returns `(hash, fresh)`: `fresh` is `false` when the identical bytes
    /// were already present (the `cert.store.puts` counter moves only on
    /// fresh writes).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn put(
        &mut self,
        cert: &Certificate,
        obs: &dyn Observer,
    ) -> Result<(String, bool), StoreError> {
        let bytes = cert.encode();
        let hash = sha256_hex(bytes.as_bytes());
        let path = self.object_path(&hash);
        let fresh = !path.exists();
        if fresh {
            let dir = path.parent().expect("object paths have a fan-out parent");
            std::fs::create_dir_all(dir).map_err(|e| StoreError::Io("create object dir", e))?;
            // Write-then-rename so a crashed writer can't leave a partial
            // object at its final address (partial bytes would fail the
            // integrity re-hash anyway, but this keeps the tree clean).
            let tmp = dir.join(format!("{hash}.tmp-{}", std::process::id()));
            std::fs::write(&tmp, bytes.as_bytes())
                .map_err(|e| StoreError::Io("write object", e))?;
            std::fs::rename(&tmp, &path).map_err(|e| StoreError::Io("commit object", e))?;
            obs.counter(names::CERT_STORE_PUTS, 1);
        }
        let entry = IndexEntry {
            model: cert.meta.model.clone(),
            n: cert.meta.n,
            layering: cert.meta.layering.clone(),
            claim: cert.meta.claim.clone(),
            kind: cert.kind.key().to_string(),
            hash: hash.clone(),
        };
        if !self.index.contains(&entry) {
            let line = format!("{}\n", entry.to_json());
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.root.join("index.jsonl"))
                .map_err(|e| StoreError::Io("open index", e))?;
            file.write_all(line.as_bytes())
                .map_err(|e| StoreError::Io("append index", e))?;
            self.index.push(entry);
        }
        Ok((hash, fresh))
    }

    /// Loads the certificate at `hash`, re-hashing the file bytes against
    /// the address first.
    ///
    /// Returns `Ok(None)` — and moves `cert.store.misses` — when no object
    /// has that address; moves `cert.store.hits` on success.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadAddress`] for a malformed hash,
    /// [`StoreError::Corrupt`] when the bytes fail the re-hash,
    /// [`StoreError::Undecodable`] when they hash correctly but don't
    /// parse, [`StoreError::Io`] on filesystem failures.
    pub fn get(&self, hash: &str, obs: &dyn Observer) -> Result<Option<Certificate>, StoreError> {
        if !is_hash(hash) {
            return Err(StoreError::BadAddress);
        }
        let path = self.object_path(hash);
        if !path.exists() {
            obs.counter(names::CERT_STORE_MISSES, 1);
            return Ok(None);
        }
        let bytes = std::fs::read(&path).map_err(|e| StoreError::Io("read object", e))?;
        if sha256_hex(&bytes) != hash {
            return Err(StoreError::Corrupt {
                hash: hash.to_string(),
            });
        }
        let cert = Certificate::decode(&bytes).map_err(|error| StoreError::Undecodable {
            hash: hash.to_string(),
            error,
        })?;
        obs.counter(names::CERT_STORE_HITS, 1);
        Ok(Some(cert))
    }

    /// The most recent index entry matching `(model, n, claim)`, if any.
    ///
    /// The miss is *not* counted here — a query miss that falls through to
    /// compute-and-cache is counted by the [`get`](Self::get)/`put` pair
    /// the caller drives.
    #[must_use]
    pub fn query(&self, model: &str, n: usize, claim: &str) -> Option<&IndexEntry> {
        self.index
            .iter()
            .rev()
            .find(|e| e.model == model && e.n == n && e.claim == claim)
    }

    /// All index entries, in append order.
    #[must_use]
    pub fn entries(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Number of indexed certificates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The store's root directory (the one containing `v1/`).
    #[must_use]
    pub fn root(&self) -> &Path {
        self.root.parent().unwrap_or(&self.root)
    }
}
