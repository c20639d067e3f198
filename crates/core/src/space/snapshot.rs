//! Persistent arenas: versioned, integrity-hashed snapshots of an
//! [`Arena`] under either keying ([`StateSpace`](super::StateSpace) and
//! [`QuotientSpace`](super::QuotientSpace) share one codec and one
//! validation path).
//!
//! # Wire format
//!
//! A snapshot is one blob: a canonical single-line JSON header, a `\n`
//! terminator, then dense little-endian binary sections.
//!
//! ```text
//! {"body_len":…,"depth":…,"edges":…,"format":"layered-arena","horizon":…,
//!  "kind":"state"|"quotient","layering":…,"model":…,"n":…,"packed":0|1,
//!  "protocol":…,"sha256":"…","states":…,"version":2}\n
//! <body bytes>
//! ```
//!
//! The body sections, in order:
//!
//! 1. **States** — each interned state in id order. When the header's
//!    `packed` flag is 0, each state is encoded by its [`SnapshotState`]
//!    codec (the version-1 layout). When it is 1 (a packed arena), each
//!    state is a `u8` tag: `0` followed by the 16-byte little-endian packed
//!    word, or `1` followed by the [`SnapshotState`] encoding of a state
//!    that spilled the codec. The loader follows the *blob's* flag, so a
//!    boxed snapshot loads into an arena that spills every state even
//!    under a packing model.
//! 2. **Intern index** — `u32` bucket count, then each `(u64 hash,
//!    u32 len, len × u32 id)` bucket sorted by hash. The index is fully
//!    derivable from section 1; storing it lets the loader cross-check the
//!    rebuilt index instead of trusting either side.
//! 3. **CSR successor cache** — per state a `u8` present flag followed
//!    (when present) by the `u32` start/len of its successor slice; then
//!    the `u32` edge count and the edge ids as `u32`.
//! 4. **Fingerprints** — the `u64` raw-successor-list fingerprint of every
//!    state (0 for uncached rows).
//! 5. **Keying trailer** — empty for a `state` arena; for a `quotient`
//!    arena, each state's `u64` orbit size, then one witnessing
//!    permutation per edge (`u8` degree + degree image bytes).
//!
//! # Integrity
//!
//! The header's `sha256` field is the [`hash`](crate::hash) of the
//! *entire rest of the file*: the canonical header rendered **without**
//! the `sha256` key, the `\n`, and the body. Every byte of a snapshot is
//! therefore tamper-evident — flip one and either the header no longer
//! parses to the same canonical form (hash input moves) or the body
//! digest moves; both are [`SnapshotError::HashMismatch`]. The hash is
//! checked before any body byte is decoded.
//!
//! # Determinism
//!
//! Saving is a pure function of the arena (the index section is sorted by
//! bucket hash; everything else is already in id or edge order), and
//! loading reconstructs the arena exactly — so `save(load(bytes)) ==
//! bytes`, byte for byte. A solver resumed from a snapshot interns states
//! and walks CSR rows through the same code paths as a cold one, which is
//! what keeps a resumed scan bit-identical to a cold one.

use std::hash::Hash;

use super::pack::{StatePacker, SPILL_TAG};
use super::{Arena, Index, Keying, Slot, StateId, Store, SuccRange};
use crate::hash::{is_hash, Sha256};
use crate::sym::PidPerm;
use crate::telemetry::json::Json;
use crate::telemetry::{clock, names, Observer, Span};
use crate::{LayeredModel, Pid, Value};

/// Snapshot format version this module writes and accepts. Version 2 added
/// the header's `packed` flag and the tagged packed-word states section.
pub const SNAPSHOT_VERSION: u64 = 2;

/// The `format` field every snapshot header carries.
pub const SNAPSHOT_FORMAT: &str = "layered-arena";

/// What went wrong while decoding a snapshot. Loading never panics on
/// malformed input — every structural defect maps to a variant here.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The header line is missing, non-UTF-8, unparseable, or lacks a
    /// required field (the payload names which).
    BadHeader(&'static str),
    /// The header's `version` is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u64),
    /// The header's `kind` does not match the arena being loaded.
    WrongKind {
        /// Kind the loader expected (`"state"` or `"quotient"`).
        expected: &'static str,
        /// Kind the header declared.
        found: String,
    },
    /// The integrity hash in the header does not match the file contents.
    HashMismatch,
    /// The body ended before a section was fully decoded.
    Truncated,
    /// A body section decoded but violates an invariant (the payload names
    /// which).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader(what) => write!(f, "bad snapshot header: {what}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v}: this build reads version \
                     {SNAPSHOT_VERSION}; regenerate the snapshot with --snapshot"
                )
            }
            SnapshotError::WrongKind { expected, found } => {
                write!(f, "snapshot kind `{found}` where `{expected}` was expected")
            }
            SnapshotError::HashMismatch => write!(f, "snapshot integrity hash mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot body truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot body: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The provenance a snapshot header records: which model instance the
/// arena was built for and how far it was explored. Loaders use it to
/// decide compatibility (same model/protocol/n ⇒ resume; different
/// horizon ⇒ differential refresh; anything else ⇒ cold scan).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArenaMeta {
    /// Model key (e.g. `sync-mobile`).
    pub model: String,
    /// Protocol the model ran (e.g. `floodmin`).
    pub protocol: String,
    /// Number of processes.
    pub n: u64,
    /// Valence horizon the arena was explored under. A horizon change is a
    /// protocol change (deadline-driven protocols decide *at* the horizon)
    /// and calls for a differential refresh, not a plain resume.
    pub horizon: u64,
    /// Scan depth the snapshot was taken after.
    pub depth: u64,
    /// Layering variant key (e.g. `s1`, `full`).
    pub layering: String,
}

/// Cursor over a snapshot body. [`SnapshotState`] codecs read through
/// this; every read is bounds-checked and failures surface as
/// [`SnapshotError::Truncated`].
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A cursor at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapshotReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes, advancing the cursor.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = self
            .bytes
            .get(self.pos..self.pos + n)
            .expect("bounds checked against remaining() above");
        self.pos += n;
        Ok(out)
    }

    /// Reads one little-endian `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads one little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Binary codec for a model state inside an arena snapshot.
///
/// Implementations must be *canonical*: `decode(encode(x)) == x` and
/// `encode(decode(bytes)) == bytes` for every value the type can hold —
/// byte-identical re-save of a snapshot depends on it. Encode in a fixed
/// field order with fixed-width little-endian integers and
/// length-prefixed sequences; never encode derived or redundant data.
pub trait SnapshotState: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the cursor.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

impl SnapshotState for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.u8()
    }
}

impl SnapshotState for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.u16()
    }
}

impl SnapshotState for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.u32()
    }
}

impl SnapshotState for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

impl SnapshotState for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool byte not 0 or 1")),
        }
    }
}

impl SnapshotState for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        self.get().encode(out);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Value::new(r.u32()?))
    }
}

impl SnapshotState for Pid {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Pid::new(r.u8()? as usize))
    }
}

impl<T: SnapshotState> SnapshotState for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapshotError::Malformed("Option tag not 0 or 1")),
        }
    }
}

impl<T: SnapshotState> SnapshotState for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.u32()? as usize;
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: SnapshotState + Ord> SnapshotState for std::collections::BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.u32()? as usize;
        let mut out = std::collections::BTreeSet::new();
        let mut prev: Option<T> = None;
        for _ in 0..len {
            let v = T::decode(r)?;
            // Strictly increasing keeps the encoding canonical (a permuted
            // or duplicated sequence would decode to the same set but
            // re-encode differently).
            if prev.as_ref().is_some_and(|p| p >= &v) {
                return Err(SnapshotError::Malformed("set elements not strictly sorted"));
            }
            if let Some(p) = prev.take() {
                out.insert(p);
            }
            prev = Some(v);
        }
        if let Some(p) = prev {
            out.insert(p);
        }
        Ok(out)
    }
}

impl<A: SnapshotState, B: SnapshotState> SnapshotState for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Encodes a witnessing permutation: `u8` degree then the image bytes.
pub(super) fn encode_perm(perm: &PidPerm, out: &mut Vec<u8>) {
    let n = perm.degree();
    out.push(n as u8);
    for i in 0..n {
        out.push(perm.apply(Pid::new(i)).index() as u8);
    }
}

/// Decodes a witnessing permutation, validating it maps `0..n` bijectively
/// (so the [`PidPerm::from_map`] assertion can never fire on wire input).
pub(super) fn decode_perm(r: &mut SnapshotReader<'_>, n: u64) -> Result<PidPerm, SnapshotError> {
    let degree = r.u8()? as u64;
    if degree != n {
        return Err(SnapshotError::Malformed("permutation degree is not n"));
    }
    let map = r.take(degree as usize)?.to_vec();
    let mut seen = vec![false; map.len()];
    for &image in &map {
        let image = image as usize;
        if image >= map.len() || seen[image] {
            return Err(SnapshotError::Malformed("edge bytes are not a permutation"));
        }
        seen[image] = true;
    }
    Ok(PidPerm::from_map(map))
}

/// One header key-value list (without `sha256`), in any order — the
/// canonicalizer sorts.
fn header_fields(
    kind: &str,
    meta: &ArenaMeta,
    packed: bool,
    states: u64,
    edges: u64,
    body_len: u64,
) -> Vec<(String, Json)> {
    vec![
        ("format".into(), Json::from(SNAPSHOT_FORMAT)),
        ("version".into(), Json::from(SNAPSHOT_VERSION)),
        ("kind".into(), Json::from(kind)),
        ("model".into(), Json::from(meta.model.as_str())),
        ("protocol".into(), Json::from(meta.protocol.as_str())),
        ("n".into(), Json::from(meta.n)),
        ("horizon".into(), Json::from(meta.horizon)),
        ("depth".into(), Json::from(meta.depth)),
        ("layering".into(), Json::from(meta.layering.as_str())),
        ("packed".into(), Json::from(u64::from(packed))),
        ("states".into(), Json::from(states)),
        ("edges".into(), Json::from(edges)),
        ("body_len".into(), Json::from(body_len)),
    ]
}

/// The integrity hash: SHA-256 of the canonical header rendered without
/// `sha256`, a `\n`, and the body.
fn integrity_digest(unsigned: Vec<(String, Json)>, body: &[u8]) -> String {
    let mut h = Sha256::default();
    h.update(Json::Object(unsigned).canonicalize().to_string().as_bytes());
    h.update(b"\n");
    h.update(body);
    h.finish_hex()
}

/// Assembles the final snapshot: hashes header-sans-`sha256` + body,
/// embeds the digest, and concatenates. Returns the blob and its
/// integrity hash.
fn seal(fields: Vec<(String, Json)>, body: Vec<u8>) -> (Vec<u8>, String) {
    let digest = integrity_digest(fields.clone(), &body);
    let mut fields = fields;
    fields.push(("sha256".into(), Json::from(digest.as_str())));
    let header = Json::Object(fields).canonicalize().to_string();
    let mut out = Vec::with_capacity(header.len() + 1 + body.len());
    out.extend_from_slice(header.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(&body);
    (out, digest)
}

/// Required string field of a parsed header.
fn header_str<'a>(json: &'a Json, key: &'static str) -> Result<&'a str, SnapshotError> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or(SnapshotError::BadHeader(key))
}

/// Required integer field of a parsed header.
fn header_u64(json: &Json, key: &'static str) -> Result<u64, SnapshotError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or(SnapshotError::BadHeader(key))
}

/// Everything a verified header yields: the provenance, the section
/// counts, the body slice and the integrity digest.
struct VerifiedHeader<'a> {
    meta: ArenaMeta,
    packed: bool,
    states: u64,
    edges: u64,
    body: &'a [u8],
    digest: String,
}

/// Parses the header line, checks format/version/kind, and verifies the
/// integrity hash over the whole file. Runs before any body decoding.
fn open<'a>(
    bytes: &'a [u8],
    expected_kind: &'static str,
) -> Result<VerifiedHeader<'a>, SnapshotError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(SnapshotError::BadHeader("no header line"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| SnapshotError::BadHeader("header is not UTF-8"))?;
    let body = bytes
        .get(nl + 1..)
        .expect("nl is a newline index found by position()");
    let json = Json::parse(header).map_err(|_| SnapshotError::BadHeader("unparseable JSON"))?;
    if header_str(&json, "format")? != SNAPSHOT_FORMAT {
        return Err(SnapshotError::BadHeader("format is not layered-arena"));
    }
    let version = header_u64(&json, "version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let kind = header_str(&json, "kind")?;
    if kind != expected_kind {
        return Err(SnapshotError::WrongKind {
            expected: expected_kind,
            found: kind.to_string(),
        });
    }
    let digest = header_str(&json, "sha256")?.to_string();
    if !is_hash(&digest) {
        return Err(SnapshotError::BadHeader("sha256 is not a hash"));
    }
    // Re-render the header without the sha256 key and re-hash the file.
    let Json::Object(members) = &json else {
        return Err(SnapshotError::BadHeader("header is not an object"));
    };
    let unsigned: Vec<(String, Json)> = members
        .iter()
        .filter(|(k, _)| k != "sha256")
        .cloned()
        .collect();
    if integrity_digest(unsigned, body) != digest {
        return Err(SnapshotError::HashMismatch);
    }
    if header_u64(&json, "body_len")? != body.len() as u64 {
        return Err(SnapshotError::Malformed("body_len disagrees with body"));
    }
    let meta = ArenaMeta {
        model: header_str(&json, "model")?.to_string(),
        protocol: header_str(&json, "protocol")?.to_string(),
        n: header_u64(&json, "n")?,
        horizon: header_u64(&json, "horizon")?,
        depth: header_u64(&json, "depth")?,
        layering: header_str(&json, "layering")?.to_string(),
    };
    let packed = match header_u64(&json, "packed")? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::BadHeader("packed flag not 0 or 1")),
    };
    Ok(VerifiedHeader {
        meta,
        packed,
        states: header_u64(&json, "states")?,
        edges: header_u64(&json, "edges")?,
        body,
        digest,
    })
}

/// Encodes the intern index sorted by bucket hash (bucket contents stay
/// in interning order, which is ascending id order).
fn encode_index(index: &Index, out: &mut Vec<u8>) {
    let mut buckets: Vec<(&u64, &Vec<u32>)> = index.iter().collect();
    buckets.sort_unstable_by_key(|&(h, _)| *h);
    (buckets.len() as u32).encode(out);
    for (h, ids) in buckets {
        h.encode(out);
        (ids.len() as u32).encode(out);
        for id in ids {
            id.encode(out);
        }
    }
}

/// Decodes the stored intern index and checks it equals `rebuilt` — the
/// index derived from the decoded states themselves. Disagreement means
/// the snapshot is internally inconsistent (a buggy or adversarial
/// encoder; random corruption is already caught by the hash). The stored
/// buckets must be as many as the rebuilt ones, in strictly ascending hash
/// order, each a rebuilt bucket with the same ids; so together they are
/// exactly the rebuilt index.
fn check_index(r: &mut SnapshotReader<'_>, rebuilt: &Index) -> Result<(), SnapshotError> {
    let buckets = r.u32()? as usize;
    if buckets != rebuilt.len() {
        return Err(SnapshotError::Malformed("index bucket count"));
    }
    let mut prev_hash: Option<u64> = None;
    for _ in 0..buckets {
        let h = r.u64()?;
        if prev_hash.is_some_and(|p| p >= h) {
            return Err(SnapshotError::Malformed("index buckets not sorted"));
        }
        prev_hash = Some(h);
        let expected = rebuilt
            .get(&h)
            .ok_or(SnapshotError::Malformed("index bucket hash unknown"))?;
        let len = r.u32()? as usize;
        if len != expected.len() {
            return Err(SnapshotError::Malformed("index bucket length"));
        }
        for &want in expected {
            if r.u32()? != want {
                return Err(SnapshotError::Malformed("index bucket ids"));
            }
        }
    }
    Ok(())
}

/// Encodes the CSR sections (per-row ranges, then the edge array).
fn encode_csr(succ: &[Option<SuccRange>], edges: &[StateId], out: &mut Vec<u8>) {
    for range in succ {
        match range {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                r.start.encode(out);
                r.len.encode(out);
            }
        }
    }
    (edges.len() as u32).encode(out);
    for e in edges {
        (e.index() as u32).encode(out);
    }
}

/// Decodes the CSR sections, validating every range and edge id.
fn decode_csr(
    r: &mut SnapshotReader<'_>,
    states: usize,
    edge_count: u64,
) -> Result<(Vec<Option<SuccRange>>, Vec<StateId>), SnapshotError> {
    let mut succ = Vec::with_capacity(states);
    for _ in 0..states {
        succ.push(match r.u8()? {
            0 => None,
            1 => {
                let start = r.u32()?;
                let len = r.u32()?;
                if u64::from(start) + u64::from(len) > edge_count {
                    return Err(SnapshotError::Malformed("successor range out of bounds"));
                }
                Some(SuccRange { start, len })
            }
            _ => return Err(SnapshotError::Malformed("CSR flag not 0 or 1")),
        });
    }
    if u64::from(r.u32()?) != edge_count {
        return Err(SnapshotError::Malformed("edge count disagrees with header"));
    }
    let mut edges = Vec::with_capacity(edge_count as usize);
    for _ in 0..edge_count {
        let e = r.u32()? as usize;
        if e >= states {
            return Err(SnapshotError::Malformed("edge id out of bounds"));
        }
        edges.push(StateId(e as u32));
    }
    Ok((succ, edges))
}

/// Encodes the states section in id order: plain codecs for a store
/// without a codec, tagged word-or-spill slots for a packed one.
fn encode_store<S: SnapshotState + Clone + Eq + Hash>(store: &Store<S>, out: &mut Vec<u8>) {
    let packed = store.is_packed();
    for i in 0..store.len() {
        match store.slot(i) {
            Slot::Word(w) => {
                out.push(0);
                out.extend_from_slice(&w.to_le_bytes());
            }
            Slot::State(s) => {
                if packed {
                    out.push(1);
                }
                s.encode(out);
            }
        }
    }
}

/// Decodes the states section, following the *blob's* `packed` flag: a
/// boxed blob loads into a store without a codec, spilling every state,
/// even when the model packs, so old boxed snapshots of a now-packing
/// model stay loadable (and re-save byte-identically). Slots are validated
/// against the codec: a tagged word must not carry the spill tag, and a
/// spilled state must genuinely not fit the codec — otherwise re-saving
/// would not reproduce the blob.
fn decode_store<S>(
    r: &mut SnapshotReader<'_>,
    count: usize,
    packed: bool,
    packer: Option<StatePacker<S>>,
) -> Result<Store<S>, SnapshotError>
where
    S: SnapshotState + Clone + Eq + Hash,
{
    let packer = if packed {
        Some(packer.ok_or(SnapshotError::Malformed(
            "packed snapshot but the model has no state packer",
        ))?)
    } else {
        None
    };
    let mut store = Store::new(packer);
    for _ in 0..count {
        // A boxed blob's slots carry no tag: every one is a state.
        match if packed { r.u8()? } else { 1 } {
            0 => {
                let b = r.take(16)?;
                let mut bytes = [0u8; 16];
                bytes.copy_from_slice(b);
                let w = u128::from_le_bytes(bytes);
                if w & SPILL_TAG != 0 {
                    return Err(SnapshotError::Malformed(
                        "packed word has the spill tag set",
                    ));
                }
                store.words.push(w);
            }
            1 => {
                let s = S::decode(r)?;
                if store.packs(&s) {
                    return Err(SnapshotError::Malformed("spilled state fits the codec"));
                }
                store.push_spilled(s);
            }
            _ => return Err(SnapshotError::Malformed("state tag not 0 or 1")),
        }
    }
    Ok(store)
}

/// Rebuilds the intern index from the decoded store — each slot hashed
/// and bucketed in id order, exactly the interning order — rejecting
/// duplicate states (two ids for one state would break the hash-consing
/// invariant).
fn rebuild_index<S: Clone + Eq + Hash>(store: &Store<S>) -> Result<Index, SnapshotError> {
    let mut index = Index::default();
    for i in 0..store.len() {
        let bucket = index.entry(store.hash_of_slot(i)).or_default();
        if bucket.iter().any(|&e| store.slots_equal(e as usize, i)) {
            return Err(SnapshotError::Malformed("duplicate interned state"));
        }
        bucket.push(u32::try_from(i).expect("more than u32::MAX states"));
    }
    Ok(index)
}

/// Reports snapshot-save telemetry: the `space.snapshot.save` span wraps
/// `body()`, and the byte count / wall time land on the
/// `space.snapshot.bytes_written` and `space.snapshot.save_ns` gauges.
fn measured_save(
    obs: &dyn Observer,
    body: impl FnOnce() -> (Vec<u8>, String),
) -> (Vec<u8>, String) {
    let _span = Span::enter(obs, names::SPACE_SNAPSHOT_SAVE);
    let started = if obs.enabled() {
        clock::monotonic_ns()
    } else {
        0
    };
    let (bytes, digest) = body();
    if obs.enabled() {
        obs.gauge(names::SPACE_SNAPSHOT_BYTES_WRITTEN, bytes.len() as u64);
        obs.gauge(
            names::SPACE_SNAPSHOT_SAVE_NS,
            clock::monotonic_ns().saturating_sub(started),
        );
    }
    (bytes, digest)
}

/// Reports snapshot-load telemetry: the `space.snapshot.load` span wraps
/// `body()`, successful loads bump the `space.resume.loads` counter and
/// the wall time lands on the `space.snapshot.load_ns` gauge.
fn measured_load<T>(
    obs: &dyn Observer,
    body: impl FnOnce() -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let _span = Span::enter(obs, names::SPACE_SNAPSHOT_LOAD);
    let started = if obs.enabled() {
        clock::monotonic_ns()
    } else {
        0
    };
    let out = body()?;
    obs.counter(names::SPACE_RESUME_LOADS, 1);
    if obs.enabled() {
        obs.gauge(
            names::SPACE_SNAPSHOT_LOAD_NS,
            clock::monotonic_ns().saturating_sub(started),
        );
    }
    Ok(out)
}

/// Serializes an arena under the given provenance: the state sections,
/// then the keying's trailer (for [`QuotientSpace`](super::QuotientSpace),
/// the orbit sizes and per-edge de-quotienting permutations). Returns the
/// snapshot bytes and their integrity hash (the header's `sha256`).
pub fn save_arena<M, K>(
    space: &Arena<M, K>,
    meta: &ArenaMeta,
    obs: &dyn Observer,
) -> (Vec<u8>, String)
where
    M: LayeredModel,
    M::State: SnapshotState,
    K: Keying<M>,
{
    measured_save(obs, || {
        let mut body = Vec::new();
        encode_store(&space.store, &mut body);
        encode_index(&space.index, &mut body);
        encode_csr(&space.succ, &space.edges, &mut body);
        for fp in &space.succ_fp {
            fp.encode(&mut body);
        }
        K::encode_extras(&space.weights, &space.witnesses, &mut body);
        let fields = header_fields(
            K::KIND,
            meta,
            space.store.is_packed(),
            space.store.len() as u64,
            space.edges.len() as u64,
            body.len() as u64,
        );
        seal(fields, body)
    })
}

/// Deserializes an arena snapshot for `model` under the keying `K`,
/// verifying the integrity hash and every structural invariant before the
/// arena is handed back: the header's `kind` must be `K`'s (`state` for
/// [`StateSpace`](super::StateSpace), `quotient` for
/// [`QuotientSpace`](super::QuotientSpace)) and its `n` must match
/// `model` (decoding against a differently-sized model would read every
/// packed word as nonsense). The store mode follows the blob's `packed`
/// flag, so the model is only consulted for its [`StatePacker`] when the
/// blob needs one. A quotient blob's trailer is checked too: every orbit
/// size non-zero, every de-quotienting permutation of degree `n` and a
/// genuine permutation. Returns the arena, its recorded provenance, and
/// the integrity hash.
///
/// # Errors
///
/// A [`SnapshotError`] naming the first defect found.
///
/// # Panics
///
/// Panics if `K` cannot key `model`, the same contract as
/// [`Arena::for_model`]: a quotient blob needs `model`'s current layering
/// to be equivariant.
pub fn load_arena<M, K>(
    model: &M,
    bytes: &[u8],
    obs: &dyn Observer,
) -> Result<(Arena<M, K>, ArenaMeta, String), SnapshotError>
where
    M: LayeredModel,
    M::State: SnapshotState,
    K: Keying<M>,
{
    K::check_model(model);
    measured_load(obs, || {
        let h = open(bytes, K::KIND)?;
        if h.meta.n != model.num_processes() as u64 {
            return Err(SnapshotError::Malformed("snapshot n does not match model"));
        }
        let count = usize::try_from(h.states).map_err(|_| SnapshotError::Malformed("states"))?;
        let mut r = SnapshotReader::new(h.body);
        let store = decode_store(&mut r, count, h.packed, model.state_packer().cloned())?;
        let index = rebuild_index(&store)?;
        check_index(&mut r, &index)?;
        let (succ, edges) = decode_csr(&mut r, count, h.edges)?;
        let mut succ_fp = Vec::with_capacity(count);
        for _ in 0..count {
            succ_fp.push(r.u64()?);
        }
        let (weights, witnesses) = K::decode_extras(&mut r, count, edges.len(), h.meta.n)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        let space = Arena {
            store,
            weights,
            index,
            succ,
            edges,
            witnesses,
            succ_fp,
        };
        Ok((space, h.meta, h.digest))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Orbits, Plain, StateSpace};
    use crate::telemetry::{MetricsRegistry, NOOP};
    use crate::testkit::{CounterModel, Unpacked};

    fn meta() -> ArenaMeta {
        ArenaMeta {
            model: "counter".into(),
            protocol: "toy".into(),
            n: 3,
            horizon: 3,
            depth: 2,
            layering: "s1".into(),
        }
    }

    fn built_space() -> (CounterModel, StateSpace<CounterModel>) {
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let mut space = StateSpace::for_model(&m);
        space.expand_layers(&m, &roots, 3, &NOOP);
        (m, space)
    }

    #[test]
    fn state_space_round_trips() {
        let (m, space) = built_space();
        let (bytes, digest) = save_arena(&space, &meta(), &NOOP);
        let (loaded, got_meta, got_digest) =
            load_arena::<_, Plain>(&m, &bytes, &NOOP).expect("loads");
        assert_eq!(got_meta, meta());
        assert_eq!(got_digest, digest);
        assert_eq!(loaded.len(), space.len());
        assert_eq!(loaded.edge_count(), space.edge_count());
        for k in 0..space.len() {
            let id = StateId(k as u32);
            assert_eq!(loaded.resolve(id), space.resolve(id));
            assert_eq!(loaded.cached_successors(id), space.cached_successors(id));
            assert_eq!(
                loaded.successor_fingerprint_of(id),
                space.successor_fingerprint_of(id)
            );
        }
        // Byte-identical re-save.
        let (again, _) = save_arena(&loaded, &meta(), &NOOP);
        assert_eq!(again, bytes);
    }

    #[test]
    fn snapshot_telemetry_moves() {
        let (m, space) = built_space();
        let reg = MetricsRegistry::new();
        let (bytes, _) = save_arena(&space, &meta(), &reg);
        load_arena::<_, Plain>(&m, &bytes, &reg).expect("loads");
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauge_max("space.snapshot.bytes_written"),
            bytes.len() as u64
        );
        assert_eq!(snap.counter("space.resume.loads"), 1);
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let (_, space) = built_space();
        let (bytes, _) = save_arena(&space, &meta(), &NOOP);
        let m = CounterModel::new(3, 4);
        let err = match load_arena::<_, Orbits>(&m, &bytes, &NOOP) {
            Ok(_) => panic!("state snapshot loaded as quotient"),
            Err(e) => e,
        };
        assert!(matches!(err, SnapshotError::WrongKind { .. }), "{err:?}");
    }

    #[test]
    fn old_version_rejected_before_hash_check() {
        // A version-1 header whose digest is deliberately wrong: the
        // loader must fail on the version — with the actionable
        // "regenerate" message — not stumble into a hash mismatch.
        let header = concat!(
            "{\"format\":\"layered-arena\",\"kind\":\"state\",\"sha256\":\"",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "\",\"version\":1}\n"
        );
        let m = CounterModel::new(3, 4);
        let err = match load_arena::<_, Plain>(&m, header.as_bytes(), &NOOP) {
            Ok(_) => panic!("version-1 snapshot loaded"),
            Err(e) => e,
        };
        assert_eq!(err, SnapshotError::UnsupportedVersion(1));
        assert!(err.to_string().contains("--snapshot"), "{err}");
    }

    #[test]
    fn packed_blob_round_trips_and_declares_packing() {
        let (m, space) = built_space();
        assert!(space.store.is_packed(), "CounterModel provides a packer");
        let (bytes, _) = save_arena(&space, &meta(), &NOOP);
        let nl = bytes.iter().position(|&b| b == b'\n').expect("header line");
        let header = std::str::from_utf8(&bytes[..nl]).expect("UTF-8 header");
        assert!(header.contains("\"packed\":1"), "{header}");
        let (loaded, _, _) = load_arena::<_, Plain>(&m, &bytes, &NOOP).expect("loads");
        assert!(loaded.store.is_packed());
    }

    #[test]
    fn boxed_blob_loads_boxed_even_under_a_packing_model() {
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let boxed = Unpacked(m.clone());
        let mut space = StateSpace::for_model(&boxed);
        space.expand_layers(&boxed, &roots, 3, &NOOP);
        let (bytes, _) = save_arena(&space, &meta(), &NOOP);
        let nl = bytes.iter().position(|&b| b == b'\n').expect("header line");
        let header = std::str::from_utf8(&bytes[..nl]).expect("UTF-8 header");
        assert!(header.contains("\"packed\":0"), "{header}");
        let (loaded, _, _) = load_arena::<_, Plain>(&m, &bytes, &NOOP).expect("loads");
        assert!(!loaded.store.is_packed(), "loader follows the blob's flag");
        // Byte-identical re-save through the boxed path.
        let (again, _) = save_arena(&loaded, &meta(), &NOOP);
        assert_eq!(again, bytes);
    }

    #[test]
    fn set_codec_rejects_unsorted() {
        use std::collections::BTreeSet;
        let set: BTreeSet<u8> = [3u8, 1, 2].into_iter().collect();
        let mut bytes = Vec::new();
        set.encode(&mut bytes);
        let decoded = BTreeSet::<u8>::decode(&mut SnapshotReader::new(&bytes)).expect("sorted");
        assert_eq!(decoded, set);
        // Swap two elements: same set, non-canonical encoding — rejected.
        bytes.swap(4, 6);
        let err = BTreeSet::<u8>::decode(&mut SnapshotReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)));
    }
}
