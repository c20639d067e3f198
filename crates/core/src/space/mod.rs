//! Hash-consed state spaces: dense [`StateId`]s over a model's reachable
//! states, with CSR-packed successor adjacency, a hash-bucketed intern
//! index, packed state storage and deterministic layer expansion.
//!
//! Every exact engine in this crate (valence, connectivity, layering, the
//! consensus checker) explores the same graded state graph. Keying those
//! explorations on full cloned model states makes each hash, clone and
//! equality test cost `O(|state|)` — the direct cause of the n≤3 enumeration
//! ceiling this module removes. An [`Arena`] interns each distinct key
//! exactly once and hands out a dense `u32` [`StateId`]; the engines then
//! memoize in flat `Vec`s indexed by id and walk successor lists that are
//! computed once and packed into a single flat edge array (compressed sparse
//! row layout).
//!
//! # One arena, two keyings
//!
//! The full state space and its symmetry quotient are the same layered
//! graph with states keyed two ways, so there is one arena parameterised
//! by a [`Keying`] policy: [`Plain`] keys every state by itself
//! ([`StateSpace`]), [`Orbits`] keys a [`Symmetric`] state by its canonical
//! orbit representative ([`QuotientSpace`]). The policy carries every
//! difference between the two: the key and its per-edge witness, the
//! per-state orbit size, whether a successor row collapses equal keys, the
//! interning telemetry, and the snapshot trailer.
//!
//! # Packed storage
//!
//! When the model provides a [`StatePacker`]
//! ([`LayeredModel::state_packer`]), the arena stores each key as a single
//! `u128` word instead of the boxed model struct: hashing, equality and
//! lookup all operate on the word, and states are only unpacked at the
//! [`resolve`](Arena::resolve) boundary. States the codec cannot
//! represent *spill* into a side vector (tagged via [`pack::SPILL_TAG`]), so
//! packing is always a pure representation change — ids, layers and every
//! derived report are identical to the boxed arena's. A model without a
//! codec spills every state.
//!
//! # Serial keying and interning
//!
//! The intern index is one hash map from a key's hash to the ids of the
//! keys with that hash, and one probe-or-insert routine serves every path
//! that interns: direct interning, lazily cached successor rows, the
//! differential refresh and bulk expansion. Bulk expansion
//! ([`Arena::expand_layers`]) takes a frontier in order: it computes each
//! entry's successors, keys them (for [`Orbits`], the `n!`
//! canonicalization that dominates quotient expansion) and interns the
//! keyed row before it moves to the next entry. A lazy scan that asks for
//! the same rows through [`Arena::successor_ids`] presents the same keys in
//! the same order, so a pre-expanded arena and a lazily filled one assign
//! the same ids.
//!
//! # Id layout and determinism
//!
//! Ids are assigned in *interning order*: the first distinct key presented
//! to the arena gets id 0, the next distinct one id 1, and so on. All
//! exploration routines here present states in a canonical order (roots in
//! the order given, then successor lists in model order, level by level),
//! so for a fixed model and entry point the id assignment — and everything
//! derived from it — is deterministic. That order is [`walk`]'s: every
//! reachable-region sweep in the workspace runs on it or reads a
//! [`Region`], whose levels [`Arena::expand_layers`] collects on it.
//!
//! # Persistence
//!
//! Arenas serialize to versioned, integrity-hashed snapshots (see
//! [`snapshot`]): the state arena (packed words or boxed states), intern
//! index, CSR successor cache and per-state successor fingerprints
//! round-trip byte-identically, so a scan can be resumed — deepened,
//! re-budgeted, or differentially re-verified after a protocol change via
//! [`Arena::refresh_differential`] — instead of recomputed.

pub mod pack;
pub mod snapshot;

use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

use fxhash::{FxHashMap, FxHasher};

use self::pack::{word_hash, StatePacker, SPILL_TAG};
use self::snapshot::{SnapshotError, SnapshotReader};
use crate::sym::{PidPerm, Symmetric};
use crate::telemetry::{
    clock, names, Heartbeat, MemoryBreakdown, MemoryFootprint, Observer, Span, NOOP,
};
use crate::LayeredModel;

/// FxHash of a full model state (the spill-path hash). Fast
/// and the same in every run, but not collision-resistant: callers compare
/// states on a hash match.
#[must_use]
pub fn fx_hash<S: Hash>(s: &S) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

/// Dense identifier of an interned key within one [`Arena`].
///
/// Ids are only meaningful relative to the space that produced them; they
/// are assigned contiguously from 0 in interning order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(u32);

impl StateId {
    /// The id as a dense `usize` index (`0..space.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The level being collected by a [`walk`]: ids offered row by row, each
/// kept at its first occurrence.
#[derive(Debug, Default)]
pub struct NextLevel {
    ids: Vec<StateId>,
    seen: HashSet<StateId>,
}

impl NextLevel {
    /// Appends every id of `row` not yet in the level, in order; each
    /// repeat counts one `engine.dedup_hits` on `obs`.
    pub fn offer(&mut self, row: impl IntoIterator<Item = StateId>, obs: &dyn Observer) {
        for id in row {
            if self.seen.insert(id) {
                self.ids.push(id);
            } else {
                obs.counter(names::ENGINE_DEDUP_HITS, 1);
            }
        }
    }

    /// The ids collected so far, in first-seen order.
    #[must_use]
    pub fn ids(&self) -> &[StateId] {
        &self.ids
    }
}

/// The level-order walk every reachable-region sweep runs on: the
/// determinism contract's first-seen order, in one place.
///
/// Starting from the level `roots` (filled by the caller, who decides
/// whether repeated roots count as dedup hits), the walk hands each level
/// in turn to `visit(depth, level, next)`, which visits its states and
/// offers to `next`, state by state, the successor rows to walk into. The
/// walk visits at most `levels` levels and stops at the first empty one,
/// or when `visit` breaks, returning the break value. Visiting a state
/// and offering its row before the next state is visited keeps dedup
/// counts exact for sweeps that stop mid-level.
pub fn walk<R>(
    roots: NextLevel,
    levels: usize,
    mut visit: impl FnMut(usize, &[StateId], &mut NextLevel) -> ControlFlow<R>,
) -> Option<R> {
    let mut next = roots;
    for depth in 0..levels {
        next.seen.clear();
        let level = std::mem::take(&mut next.ids);
        if level.is_empty() {
            break;
        }
        if let ControlFlow::Break(r) = visit(depth, &level, &mut next) {
            return Some(r);
        }
    }
    None
}

/// Range of a state's successor list inside the packed edge array.
#[derive(Clone, Copy, Debug)]
struct SuccRange {
    start: u32,
    len: u32,
}

/// How a state probes the intern index: its hash, plus the packed word
/// when the state fits the store's codec (`None` means the state spills
/// and compares as a model state).
struct ProbeKey {
    hash: u64,
    word: Option<u128>,
}

/// The arena's state storage: one `u128` word per id, either a state
/// packed by the model's codec or [`SPILL_TAG`] plus an index into the
/// spill vector of states the codec cannot represent. A store without a
/// codec spills every state.
struct Store<S> {
    /// The model's codec, if it has one.
    packer: Option<StatePacker<S>>,
    /// Per-id packed word, or `SPILL_TAG | spill index`.
    words: Vec<u128>,
    /// States the codec could not represent.
    spill: Vec<S>,
}

/// A read-only view of one store slot (used by snapshot encoding and index
/// rebuilding).
enum Slot<'a, S> {
    /// A packed word (never has [`SPILL_TAG`] set).
    Word(u128),
    /// A spilled state.
    State(&'a S),
}

impl<S: Clone + Eq + Hash> Store<S> {
    fn new(packer: Option<StatePacker<S>>) -> Self {
        Store {
            packer,
            words: Vec::new(),
            spill: Vec::new(),
        }
    }

    fn is_packed(&self) -> bool {
        self.packer.is_some()
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    /// The spilled state behind word `w`, or `None` for a packed word.
    fn spilled(&self, w: u128) -> Option<&S> {
        (w & SPILL_TAG != 0).then(|| &self.spill[(w ^ SPILL_TAG) as usize])
    }

    /// The probe key of `s` under this store's representation.
    fn key_of(&self, s: &S) -> ProbeKey {
        match self.packer.as_ref().and_then(|p| p.pack(s)) {
            Some(w) => ProbeKey {
                hash: word_hash(w),
                word: Some(w),
            },
            None => ProbeKey {
                hash: fx_hash(s),
                word: None,
            },
        }
    }

    /// A read-only view of slot `i`.
    fn slot(&self, i: usize) -> Slot<'_, S> {
        let w = self.words[i];
        self.spilled(w).map_or(Slot::Word(w), Slot::State)
    }

    /// The state behind slot `i`: borrowed from a spilled slot, unpacked
    /// from a packed word.
    fn state(&self, i: usize) -> Cow<'_, S> {
        match self.slot(i) {
            Slot::State(s) => Cow::Borrowed(s),
            Slot::Word(w) => Cow::Owned(
                self.packer
                    .as_ref()
                    .expect("only a codec writes packed words")
                    .unpack(w),
            ),
        }
    }

    /// Whether slot `i` holds the state with probe key `key` / value `s`.
    /// Packed slots compare by word; packability is equality-invariant
    /// (codec contract), so a packed slot can never equal a spilled probe.
    fn slot_matches(&self, i: usize, key: &ProbeKey, s: &S) -> bool {
        match self.slot(i) {
            Slot::Word(w) => key.word == Some(w),
            Slot::State(t) => key.word.is_none() && t == s,
        }
    }

    /// Whether slots `i` and `j` hold equal states (index rebuilding).
    fn slots_equal(&self, i: usize, j: usize) -> bool {
        match (self.slot(i), self.slot(j)) {
            (Slot::State(a), Slot::State(b)) => a == b,
            _ => self.words[i] == self.words[j],
        }
    }

    /// Appends `s` (with its already-computed probe key) as the next dense
    /// slot. A spilled slot takes an owned `s` by move; only a borrowed one
    /// is cloned.
    fn push(&mut self, key: &ProbeKey, s: Cow<'_, S>) {
        match key.word {
            Some(w) => self.words.push(w),
            None => self.push_spilled(s.into_owned()),
        }
    }

    /// Appends `s` as a spilled slot.
    fn push_spilled(&mut self, s: S) {
        self.words.push(SPILL_TAG | self.spill.len() as u128);
        self.spill.push(s);
    }

    /// Whether `s` fits this store's codec (always false without one).
    fn packs(&self, s: &S) -> bool {
        self.packer.as_ref().is_some_and(|p| p.pack(s).is_some())
    }

    /// The intern hash of slot `i` (identical to `key_of(get(i)).hash`).
    fn hash_of_slot(&self, i: usize) -> u64 {
        match self.slot(i) {
            Slot::Word(w) => word_hash(w),
            Slot::State(s) => fx_hash(s),
        }
    }

    /// Shallow capacity-based byte accounting of the state payloads.
    fn state_bytes(&self) -> u64 {
        self.words.capacity() as u64 * 16
            + self.spill.capacity() as u64 * std::mem::size_of::<S>() as u64
    }

    /// Bytes the packed words save over storing every state as a model
    /// struct (spilled states save nothing).
    fn bytes_saved(&self) -> u64 {
        let per_state = std::mem::size_of::<S>().saturating_sub(16) as u64;
        per_state * (self.words.len() - self.spill.len()) as u64
    }
}

/// The intern index of an [`Arena`]: each key hash maps to the ids of the
/// keys with that hash, in ascending id (interning) order.
type Index = FxHashMap<u64, Vec<u32>>;

/// FxHash fingerprint of a raw successor list (length plus every element,
/// in order). Stored per state so a re-scan after a protocol change can
/// tell which successor lists moved ([`Arena::refresh_differential`])
/// without diffing the lists themselves. Fingerprint equality is treated
/// as list equality — a deliberate 64-bit-collision trade-off, identical
/// to the one the intern index already makes per bucket.
fn successor_fingerprint<S: Hash>(succs: &[S]) -> u64 {
    let mut h = FxHasher::default();
    succs.len().hash(&mut h);
    for s in succs {
        s.hash(&mut h);
    }
    h.finish()
}

/// What a differential refresh did: how many cached successor lists were
/// reused verbatim (fingerprint unchanged), how many were re-expanded, and
/// how many previously unseen states the re-expansion interned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DiffReport {
    /// Cached rows whose successor fingerprint was unchanged — their CSR
    /// and witness slices were copied verbatim.
    pub reused: usize,
    /// Cached rows whose fingerprint moved — re-expanded under the new
    /// model.
    pub recomputed: usize,
    /// States interned during re-expansion that the old arena had not seen.
    pub new_states: usize,
}

/// One frontier entry expanded off-arena: the fingerprint of its raw
/// successor list and each successor's key, witness and weight, in model
/// order.
type KeyedRow<M, K> = (
    u64,
    Vec<(
        <M as LayeredModel>::State,
        <K as Keying<M>>::Witness,
        <K as Keying<M>>::Weight,
    )>,
);

/// Expands and keys frontier entry `id` without touching the intern index:
/// the raw successor list is computed from the stored state (borrowed when
/// spilled), fingerprinted and every successor keyed (for
/// [`Orbits`], canonicalized).
fn key_row<M: LayeredModel, K: Keying<M>>(
    model: &M,
    store: &Store<M::State>,
    id: StateId,
) -> KeyedRow<M, K> {
    let raw = model.successors(&store.state(id.index()));
    let fp = successor_fingerprint(&raw);
    (fp, key_all::<M, K>(model, raw).collect())
}

/// Keys every raw successor in order. Keys that are the successor itself
/// are moved, not cloned.
fn key_all<M: LayeredModel, K: Keying<M>>(
    model: &M,
    raw: Vec<M::State>,
) -> impl Iterator<Item = (M::State, K::Witness, K::Weight)> + '_ {
    raw.into_iter().map(|y| {
        let (rep, wit, weight) = K::key(model, &y);
        match rep {
            Cow::Owned(rep) => (rep, wit, weight),
            Cow::Borrowed(_) => (y, wit, weight),
        }
    })
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Plain {}
    impl Sealed for super::Orbits {}
}

/// The keying policy of an [`Arena`]: how a model state becomes the entry
/// it is interned as.
///
/// The full state space and its symmetry quotient are the same layered
/// graph keyed two ways — [`Plain`] keys every state by itself, [`Orbits`]
/// keys a [`Symmetric`] state by its canonical orbit representative — so
/// the arena, the valence solver, the layer scan, the Theorem 4.2 run and
/// the snapshot codec each have one body, and everything the two keyings
/// do differently lives behind this trait: the key and its witness, the
/// per-state weight, whether a successor row collapses equal keys, the
/// interning telemetry and the snapshot trailer.
pub trait Keying<M: LayeredModel>: sealed::Sealed + Sized {
    /// Per-state datum: the orbit size under [`Orbits`], nothing (`()`)
    /// under [`Plain`].
    type Weight: Copy;
    /// Per-edge datum: the permutation carrying the raw successor onto its
    /// key under [`Orbits`], nothing (`()`) under [`Plain`].
    type Witness: Clone;
    /// Whether a successor row keeps each key once (first witness wins)
    /// rather than keeping the raw successor multiplicity.
    const DEDUP_ROWS: bool;
    /// The snapshot header's `kind`.
    const KIND: &'static str;
    /// What reports and events call one interned entry.
    const UNIT: &'static str;

    /// Panics unless `model` may be keyed this way.
    fn check_model(model: &M);

    /// The key of `x` (borrowed when it is `x` itself), the witness that
    /// maps `x` onto it, and its weight.
    fn key<'s>(model: &M, x: &'s M::State) -> (Cow<'s, M::State>, Self::Witness, Self::Weight);

    /// [`Keying::key`] for a state interned one at a time (roots and
    /// callers' states), with its telemetry.
    fn key_traced<'s>(
        model: &M,
        x: &'s M::State,
        obs: &dyn Observer,
    ) -> (Cow<'s, M::State>, Self::Witness, Self::Weight) {
        let _ = obs;
        Self::key(model, x)
    }

    /// The witness of an empty path (the de-quotienting recurrence's `ρ₀`).
    fn identity(model: &M) -> Self::Witness;

    /// One de-quotienting step: folds the edge witness `w` into the
    /// renaming `rho` accumulated so far and maps the key `rep` the edge
    /// reached into the execution.
    fn unfold(model: &M, rho: &mut Self::Witness, w: &Self::Witness, rep: M::State) -> M::State;

    /// Telemetry of one direct probe that compared `compared` candidates.
    fn note_probe(obs: &dyn Observer, hit: bool, compared: u64);
    /// Telemetry of one directly interned new entry of weight `weight`.
    fn note_new(obs: &dyn Observer, weight: Self::Weight);
    /// Telemetry of one bulk expansion: its probe hits and misses, and the
    /// weights of the entries it interned.
    fn note_bulk(obs: &dyn Observer, hits: u64, misses: u64, weights: &[Self::Weight]);
    /// Telemetry of the arena's size after it grew.
    fn note_size(obs: &dyn Observer, arena: &Arena<M, Self>);
    /// Telemetry of a differential refresh.
    fn note_refresh(obs: &dyn Observer, report: &DiffReport);

    /// Memory held by the weights and witnesses, added to `b`.
    fn weigh_extras(arena: &Arena<M, Self>, b: &mut MemoryBreakdown);

    /// Appends the snapshot trailer: the weights, then the witnesses.
    fn encode_extras(weights: &[Self::Weight], witnesses: &[Self::Witness], out: &mut Vec<u8>);

    /// Decodes and validates the snapshot trailer of an arena with
    /// `states` entries, `edges` edges and `n` processes.
    ///
    /// # Errors
    ///
    /// A truncated or invalid trailer.
    #[allow(clippy::type_complexity)]
    fn decode_extras(
        r: &mut SnapshotReader<'_>,
        states: usize,
        edges: usize,
        n: u64,
    ) -> Result<(Vec<Self::Weight>, Vec<Self::Witness>), SnapshotError>;
}

/// The full state space: every state is its own key.
#[derive(Clone, Copy, Debug)]
pub struct Plain;

/// The symmetry quotient: a [`Symmetric`] state is keyed by the canonical
/// representative of its orbit under process renaming, so all `n!`
/// renamings of a state share one [`StateId`]. Each edge `c → c'` stores a
/// permutation `σ` with `σ · y = c'` for the raw successor `y ∈ S(c)` it
/// came from, which [`Arena::dequotient_path`] folds back into a genuine
/// execution.
///
/// Soundness needs an equivariant layering (`S(π·x) = π·S(x)`), so arenas
/// keyed this way panic unless [`Symmetric::symmetric_layering`] holds for
/// the model's current configuration.
#[derive(Clone, Copy, Debug)]
pub struct Orbits;

impl<M: LayeredModel> Keying<M> for Plain {
    type Weight = ();
    type Witness = ();
    const DEDUP_ROWS: bool = false;
    const KIND: &'static str = "state";
    const UNIT: &'static str = "states";

    fn check_model(_: &M) {}

    fn key<'s>(_: &M, x: &'s M::State) -> (Cow<'s, M::State>, (), ()) {
        (Cow::Borrowed(x), (), ())
    }

    fn identity(_: &M) {}

    fn unfold(_: &M, _: &mut (), _: &(), rep: M::State) -> M::State {
        rep
    }

    fn note_probe(obs: &dyn Observer, hit: bool, compared: u64) {
        if hit {
            obs.counter(names::SPACE_INTERN_HITS, 1);
            obs.histogram(names::SPACE_INTERN_PROBE_LEN, compared);
        } else {
            obs.histogram(names::SPACE_INTERN_PROBE_LEN, compared);
            obs.counter(names::SPACE_INTERN_MISSES, 1);
        }
    }

    fn note_new(_: &dyn Observer, _: ()) {}

    fn note_bulk(obs: &dyn Observer, hits: u64, misses: u64, _: &[()]) {
        obs.counter(names::SPACE_INTERN_HITS, hits);
        obs.counter(names::SPACE_INTERN_MISSES, misses);
    }

    fn note_size(_: &dyn Observer, _: &Arena<M, Self>) {}

    fn note_refresh(obs: &dyn Observer, report: &DiffReport) {
        obs.counter(names::SPACE_RESUME_ROWS_REUSED, report.reused as u64);
        obs.counter(
            names::SPACE_RESUME_ROWS_RECOMPUTED,
            report.recomputed as u64,
        );
    }

    fn weigh_extras(_: &Arena<M, Self>, _: &mut MemoryBreakdown) {}

    fn encode_extras(_: &[()], _: &[()], _: &mut Vec<u8>) {}

    fn decode_extras(
        _: &mut SnapshotReader<'_>,
        states: usize,
        edges: usize,
        _: u64,
    ) -> Result<(Vec<()>, Vec<()>), SnapshotError> {
        Ok((vec![(); states], vec![(); edges]))
    }
}

impl<M: Symmetric> Keying<M> for Orbits {
    type Weight = u64;
    type Witness = PidPerm;
    const DEDUP_ROWS: bool = true;
    const KIND: &'static str = "quotient";
    const UNIT: &'static str = "orbits";

    fn check_model(model: &M) {
        assert!(
            model.symmetric_layering(),
            "QuotientSpace requires an equivariant layering \
             (use the model's full/symmetric layering variant)"
        );
    }

    fn key<'s>(model: &M, x: &'s M::State) -> (Cow<'s, M::State>, PidPerm, u64) {
        let (rep, perm, orbit) = model.canonicalize_with_orbit(x);
        (Cow::Owned(rep), perm, orbit)
    }

    fn key_traced<'s>(
        model: &M,
        x: &'s M::State,
        obs: &dyn Observer,
    ) -> (Cow<'s, M::State>, PidPerm, u64) {
        let _span = Span::enter(obs, names::SPACE_CANONICALIZE);
        Self::key(model, x)
    }

    fn identity(model: &M) -> PidPerm {
        PidPerm::identity(model.num_processes())
    }

    /// `ρᵢ = ρᵢ₋₁ ∘ σᵢ⁻¹` and `xᵢ = ρᵢ · cᵢ` (see [`Arena::dequotient_path`]).
    fn unfold(model: &M, rho: &mut PidPerm, w: &PidPerm, rep: M::State) -> M::State {
        *rho = rho.compose(&w.inverse());
        model.permute_state(&rep, rho)
    }

    fn note_probe(obs: &dyn Observer, hit: bool, _: u64) {
        if hit {
            obs.counter(names::SPACE_CANON_HITS, 1);
        }
    }

    fn note_new(obs: &dyn Observer, orbit: u64) {
        obs.counter(names::SPACE_CANON_ORBIT_STATES, orbit);
    }

    fn note_bulk(obs: &dyn Observer, hits: u64, _: u64, orbits: &[u64]) {
        obs.counter(names::SPACE_CANON_HITS, hits);
        obs.counter(names::SPACE_CANON_ORBIT_STATES, orbits.iter().sum());
    }

    fn note_size(obs: &dyn Observer, arena: &Arena<M, Self>) {
        // Mean orbit size in fixed-point thousandths (a reading of 5920
        // means each interned representative stands for 5.92 full-space
        // states on average) — see the units table in `telemetry::names`.
        if !arena.is_empty() {
            obs.gauge(
                names::SPACE_QUOTIENT_MEAN_ORBIT_X1000,
                arena.covered_states() * 1000 / arena.len() as u64,
            );
        }
    }

    fn note_refresh(obs: &dyn Observer, report: &DiffReport) {
        obs.counter(names::SPACE_RESUME_ORBITS_REUSED, report.reused as u64);
        obs.counter(
            names::SPACE_RESUME_ORBITS_RECOMPUTED,
            report.recomputed as u64,
        );
    }

    fn weigh_extras(arena: &Arena<M, Self>, b: &mut MemoryBreakdown) {
        b.push(
            names::MEM_SPACE_ORBITS_BYTES,
            arena.weights.capacity() as u64 * std::mem::size_of::<u64>() as u64,
        );
        let perm_maps: u64 = arena.witnesses.iter().map(|p| p.degree() as u64).sum();
        b.push(
            names::MEM_SPACE_PERMS_BYTES,
            arena.witnesses.capacity() as u64 * std::mem::size_of::<PidPerm>() as u64 + perm_maps,
        );
    }

    fn encode_extras(orbits: &[u64], perms: &[PidPerm], out: &mut Vec<u8>) {
        for orbit in orbits {
            out.extend_from_slice(&orbit.to_le_bytes());
        }
        for perm in perms {
            snapshot::encode_perm(perm, out);
        }
    }

    fn decode_extras(
        r: &mut SnapshotReader<'_>,
        states: usize,
        edges: usize,
        n: u64,
    ) -> Result<(Vec<u64>, Vec<PidPerm>), SnapshotError> {
        let mut orbits = Vec::with_capacity(states);
        for _ in 0..states {
            let orbit = r.u64()?;
            if orbit == 0 {
                return Err(SnapshotError::Malformed("orbit size zero"));
            }
            orbits.push(orbit);
        }
        let mut perms = Vec::with_capacity(edges);
        for _ in 0..edges {
            perms.push(snapshot::decode_perm(r, n)?);
        }
        Ok((orbits, perms))
    }
}

/// A hash-consing arena over a model's states, keyed by the policy `K`.
///
/// Interning deduplicates keys structurally: equal keys get the same
/// [`StateId`] and each distinct key is stored exactly once. Successor
/// lists are computed lazily (or eagerly, a layer at a time, via
/// [`Arena::expand_layers`]) and cached in CSR form, so each
/// `model.successors` call happens at most once per entry per arena.
///
/// Use it through [`StateSpace`] (the full space) or [`QuotientSpace`]
/// (the symmetry quotient).
pub struct Arena<M: LayeredModel, K: Keying<M>> {
    /// Keys, packed or spilled, indexed by [`StateId`].
    store: Store<M::State>,
    /// Per-entry weight, parallel to `store`.
    weights: Vec<K::Weight>,
    index: Index,
    succ: Vec<Option<SuccRange>>,
    edges: Vec<StateId>,
    /// Per-edge witness, parallel to `edges`.
    witnesses: Vec<K::Witness>,
    /// FxHash fingerprint of each entry's *raw* (pre-keying) successor
    /// list (0 until the list is cached) — the differential-refresh change
    /// detector.
    succ_fp: Vec<u64>,
}

/// The full state space: a hash-consing arena with every state its own
/// key.
///
/// # Examples
///
/// ```
/// use layered_core::space::StateSpace;
/// use layered_core::testkit::CounterModel;
/// use layered_core::LayeredModel;
///
/// let m = CounterModel::new(2, 4);
/// let x0 = m.initial_states().remove(0);
/// let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
/// let id = space.intern(&x0);
/// assert_eq!(space.intern(&x0), id); // double-intern: same id
/// assert_eq!(space.resolve(id), x0); // round-trip
/// ```
pub type StateSpace<M> = Arena<M, Plain>;

/// The symmetry quotient of a [`Symmetric`] model's state space: one entry
/// per orbit under process renaming (see [`Orbits`]).
pub type QuotientSpace<M> = Arena<M, Orbits>;

impl<M: LayeredModel, K: Keying<M>> Arena<M, K> {
    /// An empty arena for `model`, storing keys packed when the model
    /// provides a [`StatePacker`] ([`LayeredModel::state_packer`]) and
    /// spilling every key otherwise. Packing is a pure representation
    /// change: ids, layers and every derived report are identical either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if `K` cannot key `model` (see [`Orbits`]): under
    /// [`Orbits`], if the model's current layering is not equivariant
    /// ([`Symmetric::symmetric_layering`] is `false`) — quotienting a
    /// prefix-based layering would silently prune reachable orbits.
    #[must_use]
    pub fn for_model(model: &M) -> Self {
        K::check_model(model);
        Arena {
            store: Store::new(model.state_packer().cloned()),
            weights: Vec::new(),
            index: Index::default(),
            succ: Vec::new(),
            edges: Vec::new(),
            witnesses: Vec::new(),
            succ_fp: Vec::new(),
        }
    }

    /// Number of distinct keys interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Total successor edges cached so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Probes the index for key `rep` (whose probe key is `key`): its id if
    /// interned, and the number of candidates compared.
    fn probe(&self, key: &ProbeKey, rep: &M::State) -> (Option<StateId>, u64) {
        let bucket = self.index.get(&key.hash).map_or(&[][..], Vec::as_slice);
        match bucket
            .iter()
            .position(|&e| self.store.slot_matches(e as usize, key, rep))
        {
            Some(k) => (Some(StateId(bucket[k])), k as u64 + 1),
            None => (None, bucket.len() as u64),
        }
    }

    /// The one probe-or-insert routine behind every interning path: the id
    /// of key `rep`, appending it with `weight` as the next dense id if it
    /// is new, whether it was already interned, and the number of
    /// candidates compared. An owned `rep` is stored by move. Telemetry-free;
    /// callers report.
    fn probe_or_insert(
        &mut self,
        rep: Cow<'_, M::State>,
        weight: K::Weight,
    ) -> (StateId, bool, u64) {
        let key = self.store.key_of(&rep);
        let (found, compared) = self.probe(&key, &rep);
        if let Some(id) = found {
            return (id, true, compared);
        }
        let id = u32::try_from(self.store.len()).expect("more than u32::MAX states");
        self.store.push(&key, rep);
        self.weights.push(weight);
        self.succ.push(None);
        self.succ_fp.push(0);
        self.index.entry(key.hash).or_default().push(id);
        (StateId(id), false, compared)
    }

    /// Interns a key of known weight, returning its dense id, with the
    /// per-probe telemetry of direct interning.
    fn intern_key(
        &mut self,
        rep: Cow<'_, M::State>,
        weight: K::Weight,
        obs: &dyn Observer,
    ) -> StateId {
        let (id, hit, compared) = self.probe_or_insert(rep, weight);
        K::note_probe(obs, hit, compared);
        if !hit {
            K::note_new(obs, weight);
            obs.gauge(names::SPACE_STATES, self.store.len() as u64);
            K::note_size(obs, self);
        }
        id
    }

    /// Interns the key of `x`, returning its id and the witness mapping `x`
    /// onto the stored key.
    pub(crate) fn intern_state(
        &mut self,
        model: &M,
        x: &M::State,
        obs: &dyn Observer,
    ) -> (StateId, K::Witness) {
        let (rep, wit, weight) = K::key_traced(model, x, obs);
        (self.intern_key(rep, weight, obs), wit)
    }

    /// The id of key `rep`, without interning it.
    fn lookup(&self, rep: &M::State) -> Option<StateId> {
        self.probe(&self.store.key_of(rep), rep).0
    }

    /// The key behind `id`, owned: unpacked from the packed word, or
    /// cloned out of the spill vector.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    #[must_use]
    pub fn resolve(&self, id: StateId) -> M::State {
        self.state(id).into_owned()
    }

    /// The key behind `id`, borrowed where the store holds it as a model
    /// state (spilled) and unpacked otherwise.
    pub(crate) fn state(&self, id: StateId) -> Cow<'_, M::State> {
        self.store.state(id.index())
    }

    /// The keys behind `ids`, owned (used to materialize id paths into
    /// state-typed results at the API boundary).
    #[must_use]
    pub fn materialize(&self, ids: &[StateId]) -> Vec<M::State> {
        ids.iter().map(|&id| self.resolve(id)).collect()
    }

    /// The cached successor row of `id` with its per-edge witnesses.
    fn cached_row(&self, id: StateId) -> Option<(&[StateId], &[K::Witness])> {
        self.succ[id.index()].map(|r| {
            let range = r.start as usize..(r.start + r.len) as usize;
            (
                self.edges
                    .get(range.clone())
                    .expect("SuccRange lies within the edge array by construction"),
                self.witnesses
                    .get(range)
                    .expect("witnesses run parallel to the edge array"),
            )
        })
    }

    /// The cached successor list of `id`, or `None` if it has not been
    /// computed yet.
    #[must_use]
    pub fn cached_successors(&self, id: StateId) -> Option<&[StateId]> {
        self.succ[id.index()].map(|r| {
            let start = r.start as usize;
            self.edges
                .get(start..start + r.len as usize)
                .expect("SuccRange lies within the edge array by construction")
        })
    }

    /// Packs already-resolved successor ids (and their witnesses) of `id`
    /// into the edge arrays — deduplicated by key when
    /// [`Keying::DEDUP_ROWS`]. No-op if `id`'s successors are already
    /// cached.
    fn record_row(
        &mut self,
        id: StateId,
        ids: &[StateId],
        wits: Vec<K::Witness>,
        fp: u64,
        obs: &dyn Observer,
    ) {
        if self.succ[id.index()].is_some() {
            return;
        }
        let start = u32::try_from(self.edges.len()).expect("more than u32::MAX edges");
        if K::DEDUP_ROWS {
            let mut seen: HashSet<StateId> = HashSet::new();
            for (&y, wit) in ids.iter().zip(wits) {
                if seen.insert(y) {
                    self.edges.push(y);
                    self.witnesses.push(wit);
                }
            }
        } else {
            self.edges.extend_from_slice(ids);
            self.witnesses.extend(wits);
        }
        let len =
            u32::try_from(self.edges.len() - start as usize).expect("layer larger than u32::MAX");
        self.succ[id.index()] = Some(SuccRange { start, len });
        self.succ_fp[id.index()] = fp;
        obs.histogram(names::SPACE_SUCC_FANOUT, len.into());
    }

    /// Keys and interns the raw successors `raw` of `id` one at a time,
    /// moving each key into the arena, and packs them into the edge arrays.
    /// `fp` is the fingerprint of `raw`.
    fn record_successors(
        &mut self,
        model: &M,
        id: StateId,
        raw: Vec<M::State>,
        fp: u64,
        obs: &dyn Observer,
    ) {
        let mut ids = Vec::with_capacity(raw.len());
        let mut wits = Vec::with_capacity(raw.len());
        for (rep, wit, weight) in key_all::<M, K>(model, raw) {
            ids.push(self.intern_key(Cow::Owned(rep), weight, obs));
            wits.push(wit);
        }
        self.record_row(id, &ids, wits, fp, obs);
    }

    /// The fingerprint of `id`'s cached raw successor list, or `None` if
    /// the list has not been computed yet.
    #[must_use]
    pub fn successor_fingerprint_of(&self, id: StateId) -> Option<u64> {
        self.succ[id.index()].map(|_| self.succ_fp[id.index()])
    }

    /// Differential re-verification after a model change: recomputes the
    /// raw successor list of every entry whose successors were cached, but
    /// re-keys and re-interns only the lists whose fingerprint moved under
    /// `model` (so only those pay for canonicalization) — unchanged rows
    /// have their CSR and witness slices copied verbatim.
    ///
    /// The arena afterwards is *exactly* what caching every old row's new
    /// successor list would produce, modulo edge-array packing order (ids,
    /// keys and per-row successor lists are identical; only `SuccRange`
    /// offsets may differ — invisible through [`cached_successors`]).
    /// Entries interned during re-expansion that the old arena had not
    /// seen start uncached, like any freshly interned entry.
    ///
    /// Telemetry: runs under a `space.resume.refresh` span and reports the
    /// `space.resume.rows_reused` / `space.resume.rows_recomputed` counters
    /// (`space.resume.orbits_*` under [`Orbits`]).
    ///
    /// [`cached_successors`]: Arena::cached_successors
    pub fn refresh_differential(&mut self, model: &M, obs: &dyn Observer) -> DiffReport {
        let _span = Span::enter(obs, names::SPACE_RESUME_REFRESH);
        let old_len = self.store.len();
        let old_succ = std::mem::take(&mut self.succ);
        let old_edges = std::mem::take(&mut self.edges);
        let old_wits = std::mem::take(&mut self.witnesses);
        let old_fp = std::mem::take(&mut self.succ_fp);
        self.succ = vec![None; old_len];
        self.succ_fp = vec![0; old_len];
        let mut report = DiffReport::default();
        for k in 0..old_len {
            let Some(range) = old_succ[k] else { continue };
            let raw = model.successors(&self.store.state(k));
            let fp = successor_fingerprint(&raw);
            if fp == old_fp[k] {
                let start = u32::try_from(self.edges.len()).expect("more than u32::MAX edges");
                let old = range.start as usize..(range.start + range.len) as usize;
                self.edges.extend_from_slice(
                    old_edges
                        .get(old.clone())
                        .expect("resumed SuccRange lies within the loaded edge array"),
                );
                self.witnesses.extend_from_slice(
                    old_wits
                        .get(old)
                        .expect("witnesses run parallel to the loaded edge array"),
                );
                self.succ[k] = Some(SuccRange {
                    start,
                    len: range.len,
                });
                self.succ_fp[k] = fp;
                report.reused += 1;
            } else {
                self.record_successors(model, StateId(k as u32), raw, fp, obs);
                report.recomputed += 1;
            }
        }
        report.new_states = self.store.len() - old_len;
        K::note_refresh(obs, &report);
        report
    }

    /// The successor ids of `id` under `model`'s layering, computing,
    /// keying and caching the list on first use.
    pub fn successor_ids(&mut self, model: &M, id: StateId, obs: &dyn Observer) -> Vec<StateId> {
        if self.succ[id.index()].is_none() {
            let raw = model.successors(&self.store.state(id.index()));
            let fp = successor_fingerprint(&raw);
            self.record_successors(model, id, raw, fp, obs);
        }
        self.cached_successors(id)
            .expect("successors just recorded")
            .to_vec()
    }

    /// The subset of `ids` whose successor lists are not cached yet.
    fn pending_of(&self, ids: &[StateId]) -> Vec<StateId> {
        ids.iter()
            .copied()
            .filter(|id| self.succ[id.index()].is_none())
            .collect()
    }

    /// Interns the keyed successors of frontier entry `id` in order and
    /// records its row, returning how many were already interned.
    fn intern_row(&mut self, id: StateId, (fp, keyed): KeyedRow<M, K>, obs: &dyn Observer) -> u64 {
        let mut hits = 0;
        let mut ids = Vec::with_capacity(keyed.len());
        let mut wits = Vec::with_capacity(keyed.len());
        for (rep, wit, weight) in keyed {
            let (yid, hit, _) = self.probe_or_insert(Cow::Owned(rep), weight);
            hits += u64::from(hit);
            ids.push(yid);
            wits.push(wit);
        }
        self.record_row(id, &ids, wits, fp, obs);
        hits
    }

    /// The telemetry of one bulk expansion that started at arena length
    /// `base` and hit `hits` times: one batch of interning counters, one
    /// size gauge.
    fn report_bulk(&self, base: usize, hits: u64, obs: &dyn Observer) {
        let misses = (self.store.len() - base) as u64;
        K::note_bulk(obs, hits, misses, &self.weights[base..]);
        obs.gauge(names::SPACE_STATES, self.store.len() as u64);
        K::note_size(obs, self);
    }

    /// Bulk expansion of `ids`: each entry in order is expanded, keyed,
    /// interned and recorded.
    fn bulk_seq(&mut self, model: &M, ids: &[StateId], obs: &dyn Observer) {
        let pending = self.pending_of(ids);
        if pending.is_empty() {
            return;
        }
        let (base, mut hits) = (self.store.len(), 0);
        for &id in &pending {
            let row = key_row::<M, K>(model, &self.store, id);
            hits += self.intern_row(id, row, obs);
        }
        self.report_bulk(base, hits, obs);
    }

    /// Breadth-first expansion of the layered graph from `roots` for
    /// `horizon` layers, interning every key and caching every successor
    /// list. Returns the interned levels (`levels[d]` = distinct keys at
    /// depth `d` relative to the roots, in first-seen order).
    ///
    /// Telemetry: the sweep runs under a `space.build` span and reports
    /// `engine.states_visited`, `engine.dedup_hits` and the
    /// `engine.frontier_width` gauge alongside the interning counters.
    pub fn expand_layers(
        &mut self,
        model: &M,
        roots: &[M::State],
        horizon: usize,
        obs: &dyn Observer,
    ) -> Vec<Vec<StateId>> {
        let _span = Span::enter(obs, names::SPACE_BUILD);
        let mut first = NextLevel::default();
        first.offer(
            roots.iter().map(|r| self.intern_state(model, r, obs).0),
            obs,
        );
        obs.gauge(names::ENGINE_FRONTIER_WIDTH, first.ids().len() as u64);
        let mut levels: Vec<Vec<StateId>> = Vec::with_capacity(horizon + 1);
        levels.push(first.ids().to_vec());
        let mut heartbeat = Heartbeat::new();
        walk(first, horizon, |depth, frontier, next| {
            let _layer_span = Span::enter_with(
                obs,
                names::SPACE_LAYER,
                &[
                    ("depth", depth as u64 + 1),
                    ("frontier", frontier.len() as u64),
                ],
            );
            let layer_started = if obs.enabled() {
                clock::monotonic_ns()
            } else {
                0
            };
            self.bulk_seq(model, frontier, obs);
            for &id in frontier {
                obs.counter(names::ENGINE_STATES_VISITED, 1);
                next.offer(self.successor_ids(model, id, obs), obs);
            }
            if obs.enabled() {
                obs.histogram(
                    names::SPACE_LAYER_EXPAND_NS,
                    clock::monotonic_ns().saturating_sub(layer_started),
                );
            }
            obs.gauge(names::ENGINE_FRONTIER_WIDTH, next.ids().len() as u64);
            heartbeat.tick(obs, depth + 1, next.ids().len(), self.len());
            levels.push(next.ids().to_vec());
            ControlFlow::<()>::Continue(())
        });
        // Levels past an empty one are empty.
        levels.resize(horizon + 1, Vec::new());
        levels
    }

    /// De-quotients an id path into a genuine execution of the model.
    ///
    /// Given keys `c₀ → c₁ → ⋯ → c_k` along cached edges with witnesses
    /// `σᵢ` (`σᵢ · yᵢ = cᵢ` for a raw successor `yᵢ ∈ S(cᵢ₋₁)`), the
    /// recurrence
    ///
    /// ```text
    ///     ρ₀ = id,   ρᵢ = ρᵢ₋₁ ∘ σᵢ⁻¹,   xᵢ = ρᵢ · cᵢ
    /// ```
    ///
    /// produces states with `x₀ = c₀` and `xᵢ ∈ S(xᵢ₋₁)`: indeed
    /// `xᵢ = ρᵢ₋₁ · yᵢ` with `yᵢ ∈ S(cᵢ₋₁)`, and equivariance gives
    /// `ρᵢ₋₁ · S(cᵢ₋₁) = S(ρᵢ₋₁ · cᵢ₋₁) = S(xᵢ₋₁)`. Since canonical
    /// representatives of initial-state orbits are themselves initial
    /// states (the initial set is closed under renaming), the returned
    /// sequence is a genuine `S`-execution whenever `c₀` is initial. Under
    /// [`Plain`] every witness is the identity and the execution is the
    /// path's own states.
    ///
    /// Returns `None` if the path is empty or some consecutive pair is not
    /// a cached edge (successors never computed, or not actually
    /// adjacent).
    #[must_use]
    pub fn dequotient_path(&self, model: &M, path: &[StateId]) -> Option<Vec<M::State>> {
        let first = path.first()?;
        let mut out = vec![self.resolve(*first)];
        let mut rho = K::identity(model);
        for pair in path.windows(2) {
            let (succs, wits) = self.cached_row(pair[0])?;
            let pos = succs.iter().position(|&s| s == pair[1])?;
            out.push(K::unfold(
                model,
                &mut rho,
                &wits[pos],
                self.resolve(pair[1]),
            ));
        }
        Some(out)
    }
}

/// The region within `horizon` layers of a model's initial states: one
/// [`StateSpace`] expanded once, and its levels. Every level below the
/// horizon has its successor rows cached, so the whole-region sweeps —
/// [`census`](crate::census), the structural checks of
/// [`checker`](crate::checker) — read one region instead of each
/// expanding their own.
pub struct Region<M: LayeredModel> {
    space: StateSpace<M>,
    levels: Vec<Vec<StateId>>,
}

impl<M: LayeredModel> Region<M> {
    /// Expands the model's initial states for `horizon` layers (see
    /// [`Arena::expand_layers`], which reports the expansion to `obs`).
    #[must_use]
    pub fn reachable(model: &M, horizon: usize, obs: &dyn Observer) -> Self {
        let mut space = StateSpace::for_model(model);
        let levels = space.expand_layers(model, &model.initial_states(), horizon, obs);
        Region { space, levels }
    }

    /// The arena holding the region's states and rows.
    #[must_use]
    pub fn space(&self) -> &StateSpace<M> {
        &self.space
    }

    /// Levels `0..=horizon`, each in first-seen order; the levels past an
    /// empty one are empty.
    #[must_use]
    pub fn levels(&self) -> &[Vec<StateId>] {
        &self.levels
    }

    /// The number of layers expanded: the depth of the last level.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.levels.len() - 1
    }

    /// The successor row of `id`, a state on a level below the horizon.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not expanded: it lies only on the last level, or
    /// outside the region.
    #[must_use]
    pub fn row(&self, id: StateId) -> &[StateId] {
        self.space
            .cached_successors(id)
            .expect("states below the horizon are expanded")
    }
}

impl<M: LayeredModel> Arena<M, Plain> {
    /// Interns `s`, returning its dense id (allocating one on first sight).
    pub fn intern(&mut self, s: &M::State) -> StateId {
        self.intern_with(s, &NOOP)
    }

    /// [`Arena::intern`] with telemetry: reports `space.intern.hits` /
    /// `space.intern.misses` counters, the `space.states` gauge and the
    /// `space.intern.probe_len` histogram (equality comparisons per probe)
    /// to `obs`.
    pub fn intern_with(&mut self, s: &M::State, obs: &dyn Observer) -> StateId {
        self.intern_key(Cow::Borrowed(s), (), obs)
    }

    /// [`Arena::intern_with`] for a state the caller owns: a new state is
    /// stored by move instead of cloned.
    pub(crate) fn intern_owned(&mut self, s: M::State, obs: &dyn Observer) -> StateId {
        self.intern_key(Cow::Owned(s), (), obs)
    }

    /// The id of `s` if it has been interned, without interning it.
    #[must_use]
    pub fn get(&self, s: &M::State) -> Option<StateId> {
        self.lookup(s)
    }
}

impl<M: Symmetric> Arena<M, Orbits> {
    /// Interns the orbit of `x`, returning the representative's id and a
    /// permutation `π` with `π · x == representative`.
    pub fn intern(&mut self, model: &M, x: &M::State) -> (StateId, PidPerm) {
        self.intern_with(model, x, &NOOP)
    }

    /// [`Arena::intern`] with telemetry: canonicalization runs under a
    /// `space.canonicalize` span and reports `space.canon.hits` /
    /// `space.canon.orbit_states` counters plus the `space.states` and
    /// `space.quotient.mean_orbit_x1000` gauges.
    pub fn intern_with(
        &mut self,
        model: &M,
        x: &M::State,
        obs: &dyn Observer,
    ) -> (StateId, PidPerm) {
        self.intern_state(model, x, obs)
    }

    /// The representative's id for `x`'s orbit if it has been interned,
    /// without interning it.
    #[must_use]
    pub fn get(&self, model: &M, x: &M::State) -> Option<StateId> {
        self.lookup(&model.canonicalize(x).0)
    }

    /// Total full-space states covered by the interned orbits (the sum of
    /// their orbit sizes) — the denominator-free form of the compression
    /// the quotient achieves.
    #[must_use]
    pub fn covered_states(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// The orbit size of the representative behind `id`.
    #[must_use]
    pub fn orbit_size_of(&self, id: StateId) -> u64 {
        self.weights[id.index()]
    }

    /// The cached successor list of `id` together with the per-edge
    /// witnessing permutations.
    #[must_use]
    pub fn cached_successors_with_perms(&self, id: StateId) -> Option<(&[StateId], &[PidPerm])> {
        self.cached_row(id)
    }
}

/// Shallow estimate of the intern index's bytes: the map's own capacity
/// plus every bucket vector's. Deterministic — capacities depend only on
/// the interned set.
fn index_bytes(index: &Index) -> u64 {
    let table = index.capacity() as u64 * std::mem::size_of::<(u64, Vec<u32>)>() as u64;
    let buckets: u64 = index
        .values()
        .map(|b| b.capacity() as u64 * std::mem::size_of::<u32>() as u64)
        .sum();
    table + buckets
}

impl<M: LayeredModel, K: Keying<M>> MemoryFootprint for Arena<M, K> {
    /// Shallow, capacity-based accounting (see
    /// [`telemetry::mem`](crate::telemetry::mem)): state payloads that own
    /// further heap (e.g. vectors inside `M::State`) are counted at their
    /// inline size only, so every figure is a deterministic lower bound.
    /// Packed stores count 16 bytes per word plus the spill vector;
    /// [`Orbits`] adds its orbit sizes and per-edge permutations.
    fn memory_footprint(&self) -> MemoryBreakdown {
        let mut b = MemoryBreakdown::new();
        b.push(names::MEM_SPACE_STATES_BYTES, self.store.state_bytes());
        b.push(names::MEM_SPACE_INDEX_BYTES, index_bytes(&self.index));
        b.push(
            names::MEM_SPACE_EDGES_BYTES,
            self.edges.capacity() as u64 * std::mem::size_of::<StateId>() as u64
                + self.succ.capacity() as u64 * std::mem::size_of::<Option<SuccRange>>() as u64,
        );
        K::weigh_extras(self, &mut b);
        b
    }

    /// Adds the `space.intern.load_x1000` and `space.pack.bytes_saved`
    /// gauges next to the byte gauges.
    fn report_memory(&self, obs: &dyn Observer) {
        self.memory_footprint().report(obs);
        obs.gauge(
            names::SPACE_INTERN_LOAD_X1000,
            self.index.len() as u64 * 1000 / self.index.capacity().max(1) as u64,
        );
        obs.gauge(names::SPACE_PACK_BYTES_SAVED, self.store.bytes_saved());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsRegistry;
    use crate::testkit::{CounterModel, Unpacked};

    #[test]
    fn intern_round_trips_and_deduplicates() {
        let m = CounterModel::new(2, 4);
        let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let states = m.initial_states();
        let ids: Vec<StateId> = states.iter().map(|s| space.intern(s)).collect();
        // Dense, contiguous, in interning order.
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), k);
            assert_eq!(space.resolve(*id), states[k]);
        }
        // Double interning returns the same ids and allocates nothing.
        let before = space.len();
        for (k, s) in states.iter().enumerate() {
            assert_eq!(space.intern(s), ids[k]);
        }
        assert_eq!(space.len(), before);
        assert_eq!(space.get(&states[0]), Some(ids[0]));
    }

    #[test]
    fn successor_lists_are_cached_once() {
        let m = CounterModel::new(2, 4);
        let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let x0 = m.initial_states().remove(0);
        let id = space.intern(&x0);
        assert!(space.cached_successors(id).is_none());
        let a = space.successor_ids(&m, id, &NOOP);
        let edges_after_first = space.edge_count();
        let b = space.successor_ids(&m, id, &NOOP);
        assert_eq!(a, b);
        assert_eq!(space.edge_count(), edges_after_first, "no recompute");
        assert_eq!(space.materialize(&a), m.successors(&x0));
    }

    #[test]
    fn walk_keeps_first_seen_order_and_stops_on_break() {
        // Level d holds ids 10·d.., each state offering its row before the
        // next state is visited; repeats count as dedup hits.
        let reg = MetricsRegistry::new();
        let mut roots = NextLevel::default();
        roots.offer([StateId(1), StateId(0), StateId(1)], &reg);
        let mut seen = Vec::new();
        let out = walk(roots, 5, |depth, level, next| {
            seen.push(level.to_vec());
            if depth == 2 {
                return ControlFlow::Break(level.len());
            }
            for &id in level {
                let base = 10 * (depth as u32 + 1);
                next.offer([StateId(base + id.0 % 2), StateId(base + 5)], &reg);
            }
            ControlFlow::Continue(())
        });
        assert_eq!(out, Some(3), "the break value comes back");
        let ids = |xs: &[u32]| xs.iter().map(|&x| StateId(x)).collect::<Vec<_>>();
        assert_eq!(
            seen,
            vec![ids(&[1, 0]), ids(&[11, 15, 10]), ids(&[21, 25, 20])]
        );
        // One repeated root, one repeat offered by level 0, three by level 1.
        assert_eq!(reg.snapshot().counter("engine.dedup_hits"), 5);
        // Without a break the walk ends after `levels` levels.
        let mut roots = NextLevel::default();
        roots.offer([StateId(0)], &NOOP);
        let mut depths = Vec::new();
        let out: Option<()> = walk(roots, 3, |depth, level, next| {
            depths.push(depth);
            next.offer(level.iter().map(|id| StateId(id.0 + 1)), &NOOP);
            ControlFlow::Continue(())
        });
        assert_eq!((out, depths), (None, vec![0, 1, 2]));
    }

    #[test]
    fn expand_layers_pads_levels_past_an_empty_one() {
        // The diamond's leaves (depth 2) have no successors, so levels 3
        // and 4 are empty: the returned levels are padded, and no layer
        // past the first empty level is expanded.
        let m = crate::testkit::flp_diamond();
        let roots = m.initial_states();
        let reg = MetricsRegistry::new();
        let mut space: StateSpace<_> = StateSpace::for_model(&m);
        let levels = space.expand_layers(&m, &roots, 4, &reg);
        let ids = |xs: &[u32]| xs.iter().map(|&x| StateId(x)).collect::<Vec<_>>();
        assert_eq!(
            levels,
            vec![ids(&[0]), ids(&[1, 2]), ids(&[3, 4]), vec![], vec![]]
        );
        let snap = reg.snapshot();
        assert_eq!(snap.spans["space.layer"].count, 3);
        assert_eq!(snap.counter("engine.states_visited"), 5);
        assert_eq!(snap.gauge_last("engine.frontier_width"), 0);
    }

    #[test]
    fn region_holds_its_levels_and_rows_below_the_horizon() {
        // CounterModel(2, 5): four roots, each state five successors that
        // merge into five distinct states per root and level.
        let m = CounterModel::new(2, 5);
        let region = Region::reachable(&m, 3, &NOOP);
        assert_eq!(region.horizon(), 3);
        let sizes: Vec<usize> = region.levels().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 20, 20, 20]);
        assert_eq!(region.space().len(), 64);
        assert_eq!(region.space().edge_count(), (4 + 20 + 20) * 5);
        // Each state below the horizon has its row; the last level has none.
        for &x in region.levels()[..3].iter().flatten() {
            let y = region.space().materialize(region.row(x));
            assert_eq!(y, m.successors(&region.space().resolve(x)));
        }
        for &x in &region.levels()[3] {
            assert!(region.space().cached_successors(x).is_none());
        }
    }

    #[test]
    fn packed_and_boxed_arenas_agree() {
        // Packing is a pure representation change: the packed arena (what
        // `for_model` picks for CounterModel) and the arena of the same
        // model without its codec assign identical ids, levels and
        // successor lists.
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let mut packed: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let mut boxed = StateSpace::for_model(&Unpacked(m.clone()));
        assert!(packed.store.is_packed());
        assert!(!boxed.store.is_packed());
        let a = packed.expand_layers(&m, &roots, 3, &NOOP);
        let b = boxed.expand_layers(&Unpacked(m.clone()), &roots, 3, &NOOP);
        assert_eq!(a, b);
        assert_eq!(packed.len(), boxed.len());
        for k in 0..packed.len() {
            let id = StateId(k as u32);
            assert_eq!(packed.resolve(id), boxed.resolve(id));
            assert_eq!(packed.cached_successors(id), boxed.cached_successors(id));
        }
        assert!(packed.store.bytes_saved() > 0, "counter states shrink");
        assert_eq!(boxed.store.bytes_saved(), 0, "spilled states save nothing");
    }

    #[test]
    fn packed_arena_spills_wide_states() {
        // Value 9 exceeds the 2-bit input lane, so the state spills — and
        // still round-trips through the arena.
        let m = CounterModel::new(2, 4);
        let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let wide = m.initial_state(&[crate::Value::new(9), crate::Value::ZERO]);
        let narrow = m.initial_state(&[crate::Value::ONE, crate::Value::ZERO]);
        let wid = space.intern(&wide);
        let nid = space.intern(&narrow);
        assert_eq!(space.store.spill.len(), 1, "only the wide state spills");
        assert_eq!(space.resolve(wid), wide);
        assert_eq!(space.resolve(nid), narrow);
        assert_eq!(space.intern(&wide), wid, "spilled states dedup too");
        assert_eq!(space.get(&wide), Some(wid));
    }

    #[test]
    fn expansion_caches_every_row_once() {
        let m = CounterModel::new(2, 4);
        let roots = m.initial_states();
        let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let levels = space.expand_layers(&m, &roots, 1, &NOOP);
        for &id in &levels[0] {
            assert!(space.cached_successors(id).is_some());
        }
        // Expanding again is a no-op.
        let (len, edges) = (space.len(), space.edge_count());
        assert_eq!(space.expand_layers(&m, &roots, 1, &NOOP), levels);
        assert_eq!((space.len(), space.edge_count()), (len, edges));
    }

    #[test]
    fn fresh_arenas_expand_identically() {
        // Interning order depends only on the model and the roots, so two
        // fresh arenas assign the same ids, levels and successor rows.
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let mut a: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let mut b: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let levels = a.expand_layers(&m, &roots, 3, &NOOP);
        assert_eq!(levels, b.expand_layers(&m, &roots, 3, &NOOP));
        assert_eq!(a.len(), b.len());
        for k in 0..a.len() {
            let id = StateId(k as u32);
            assert_eq!(a.resolve(id), b.resolve(id));
            assert_eq!(a.cached_successors(id), b.cached_successors(id));
        }
    }

    #[test]
    fn quotient_interning_collapses_orbits() {
        let m = CounterModel::new(3, 2);
        let mut q: QuotientSpace<CounterModel> = QuotientSpace::for_model(&m);
        // All single-one input vectors are one orbit.
        let mut ids = Vec::new();
        for inputs in crate::binary_input_vectors(3) {
            if inputs.iter().filter(|&&v| v == crate::Value::ONE).count() == 1 {
                let (id, perm) = q.intern(&m, &m.initial_state(&inputs));
                // The witness maps the state onto the stored representative.
                assert_eq!(
                    m.permute_state(&m.initial_state(&inputs), &perm),
                    q.resolve(id)
                );
                ids.push(id);
            }
        }
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "one orbit, one id");
        assert_eq!(q.len(), 1);
        assert_eq!(q.orbit_size_of(ids[0]), 3);
        assert_eq!(q.covered_states(), 3);
    }

    #[test]
    fn quotient_expansion_parity_and_dequotient() {
        let m = CounterModel::new(3, 3);
        let roots = m.initial_states();
        let mut q: QuotientSpace<CounterModel> = QuotientSpace::for_model(&m);
        let levels = q.expand_layers(&m, &roots, 2, &NOOP);
        // 2^3 = 8 input vectors collapse to 4 orbits (0..=3 ones).
        assert_eq!(levels[0].len(), 4);
        // The boxed arena is bit-identical.
        let unpacked = Unpacked(m.clone());
        let mut boxed = QuotientSpace::for_model(&unpacked);
        let boxed_levels = boxed.expand_layers(&unpacked, &roots, 2, &NOOP);
        assert_eq!(levels, boxed_levels);
        for k in 0..q.len() {
            let id = StateId(k as u32);
            assert_eq!(q.resolve(id), boxed.resolve(id));
            assert_eq!(q.orbit_size_of(id), boxed.orbit_size_of(id));
        }
        // Any root-to-leaf id path de-quotients into a genuine execution.
        let path = vec![levels[0][0], q.cached_successors(levels[0][0]).unwrap()[1]];
        let path = {
            let mut p = path;
            let last = *p.last().unwrap();
            p.push(q.cached_successors(last).unwrap()[0]);
            p
        };
        let genuine = q.dequotient_path(&m, &path).expect("cached edges");
        let trace = crate::ExecutionTrace::new(genuine);
        assert!(trace.validate(&m).is_ok());
    }

    #[test]
    fn quotient_telemetry_reports_canon_counters() {
        let m = CounterModel::new(3, 2);
        let reg = MetricsRegistry::new();
        let mut q: QuotientSpace<CounterModel> = QuotientSpace::for_model(&m);
        let x = m.initial_state(&[crate::Value::ONE, crate::Value::ZERO, crate::Value::ZERO]);
        let y = m.initial_state(&[crate::Value::ZERO, crate::Value::ZERO, crate::Value::ONE]);
        q.intern_with(&m, &x, &reg);
        q.intern_with(&m, &y, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("space.canon.hits"), 1, "same orbit twice");
        assert_eq!(snap.counter("space.canon.orbit_states"), 3);
        // One interned orbit covering 3 full states → a mean of 3.000 full
        // states per orbit, reported in fixed-point thousandths.
        assert_eq!(snap.gauge_max("space.quotient.mean_orbit_x1000"), 3000);
    }

    #[test]
    fn interning_telemetry_counts_hits_and_misses() {
        let m = CounterModel::new(2, 4);
        let reg = MetricsRegistry::new();
        let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let x0 = m.initial_states().remove(0);
        space.intern_with(&x0, &reg);
        space.intern_with(&x0, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("space.intern.misses"), 1);
        assert_eq!(snap.counter("space.intern.hits"), 1);
        assert_eq!(snap.gauge_max("space.states"), 1);
    }

    #[test]
    fn bulk_interning_counts_match_lazy_interning() {
        // The bulk path reports the hits and misses that asking for the
        // same rows one at a time does.
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let counts = |reg: &MetricsRegistry| {
            let snap = reg.snapshot();
            (
                snap.counter("space.intern.hits"),
                snap.counter("space.intern.misses"),
            )
        };
        let bulk = MetricsRegistry::new();
        let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
        let levels = space.expand_layers(&m, &roots, 3, &bulk);
        let lazy = MetricsRegistry::new();
        let mut space: StateSpace<CounterModel> = StateSpace::for_model(&m);
        for r in &roots {
            space.intern_with(r, &lazy);
        }
        for &id in levels[..3].iter().flatten() {
            space.successor_ids(&m, id, &lazy);
        }
        assert_eq!(counts(&bulk), counts(&lazy));
    }
}
