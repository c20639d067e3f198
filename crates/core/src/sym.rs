//! Symmetry reduction: process-renaming orbits of global states.
//!
//! Every model in the paper is *anonymous* up to process names: permuting
//! the process identifiers of a global state (inputs, local states,
//! decisions, failure flags, register/mailbox slots — everything indexed by
//! a [`Pid`]) yields another legal global state of the same model, and for
//! the *symmetric* layering variants the layers commute with the renaming:
//!
//! ```text
//!     S(π · x) = π · S(x)        (equivariance)
//! ```
//!
//! Valence is invariant under renaming — a permutation moves *processes*,
//! never decision *values*, so a nonfaulty 0-decision reachable from `x` is
//! a nonfaulty 0-decision reachable from `π · x` — and therefore every
//! valence-connectivity lemma only needs to be checked on one state per
//! orbit. [`QuotientSpace`](crate::space::QuotientSpace) exploits this by
//! interning only canonical orbit representatives; this module provides the
//! group machinery it is built on:
//!
//! * [`PidPerm`] — a permutation of `0..n` process identifiers with the
//!   usual group operations,
//! * [`Symmetric`] — the trait a model implements to expose its renaming
//!   action; canonicalization is provided,
//! * [`canonicalize_by_min`] and [`orbit_size`] — the `Ord` half of the
//!   canonicalization rule and the orbit count.
//!
//! # The canonicalization rule
//!
//! [`Symmetric::canonicalize_with_orbit`] picks one representative per
//! orbit, by one rule for every model:
//!
//! * when the model's codec declares its per-pid bit groups
//!   ([`StatePacker::with_pid_groups`]) and `x` packs, the representative
//!   is the orbit member with the **least packed word** over the `n!`
//!   renamings;
//! * otherwise it is the **`Ord`-least** member ([`canonicalize_by_min`]).
//!
//! The witness is the first minimising `π` in [`PidPerm::all`] order, and
//! the orbit size is `n!` over the number of renamings that fix `x`
//! (orbit–stabilizer). Packability is orbit-invariant (see the
//! [`pack`](crate::space::pack) contract), so each orbit is canonicalized
//! by exactly one of the two halves wherever it is met. The `n!`
//! permutations are enumerated once per `n` and shared by every call.
//!
//! **Lane layout.** A packing model keeps each process's fields in
//! fixed-width lanes and declares them as pid groups. The synchronous
//! mobile, shared-memory and [`CounterModel`](crate::testkit::CounterModel)
//! codecs have one group of `lane` bits per pid from bit 0; the crash codec
//! adds one failure-mask bit per pid above its round byte. Under `π`, pid
//! `i`'s bits in each group move to pid `π(i)`'s slot and all other bits
//! stay ([`StatePacker::permute_word`]). A codec that declares no groups —
//! the message-passing mailboxes — takes the `Ord` half.
//!
//! # Equivariance is a property of the layering, not the model
//!
//! The *prefix-based* layerings (`S₁`, `S^rw`, `S^t`) are **not**
//! equivariant: they privilege the natural order of process indices (a
//! prefix `[k]` of receivers/readers), so the permuted image of a layer
//! action need not be a layer action. Each model crate therefore carries a
//! *full* (subset-based) layering variant — genuine layers of the same
//! underlying model that merely drop the prefix restriction — and
//! [`Symmetric::symmetric_layering`] reports whether the model's current
//! configuration is equivariant. The quotient constructions refuse to run
//! over a non-equivariant layering; they would silently prune reachable
//! orbits otherwise.

use std::sync::OnceLock;

use crate::space::pack::StatePacker;
use crate::{LayeredModel, Pid};

/// The largest `n` whose `n!` permutations [`PidPerm::all`] enumerates
/// (`8! = 40320`). Canonicalization sweeps them all, so symmetry quotients
/// are limited to this many processes.
pub const MAX_ENUMERATED_N: usize = 8;

/// The permutations of `0..n` for each `n ≤ MAX_ENUMERATED_N`, built on
/// first use.
static PERM_TABLES: [OnceLock<Vec<PidPerm>>; MAX_ENUMERATED_N + 1] =
    [const { OnceLock::new() }; MAX_ENUMERATED_N + 1];

/// The shared table of all `n!` permutations of `0..n`, in
/// [`PidPerm::all`] order.
fn perm_table(n: usize) -> &'static [PidPerm] {
    assert!(
        n <= MAX_ENUMERATED_N,
        "refusing to enumerate {n}! permutations"
    );
    PERM_TABLES[n].get_or_init(|| enumerate_perms(n))
}

/// All permutations of `0..n` in lexicographic order of their map form.
fn enumerate_perms(n: usize) -> Vec<PidPerm> {
    fn rec(n: usize, current: &mut Vec<u8>, used: &mut [bool], out: &mut Vec<PidPerm>) {
        if current.len() == n {
            out.push(PidPerm {
                map: current.clone(),
            });
            return;
        }
        for j in 0..n {
            if !used[j] {
                used[j] = true;
                current.push(j as u8);
                rec(n, current, used, out);
                current.pop();
                used[j] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(n, &mut Vec::with_capacity(n), &mut vec![false; n], &mut out);
    out
}

/// A permutation `π` of the process identifiers `0..n`, stored in map form:
/// `perm.apply(Pid::new(i)) == Pid::new(map[i])`.
///
/// Acting on a state, `π` *relocates roles*: the process that played index
/// `i` in `x` plays index `π(i)` in `π · x` (so for any per-process vector
/// `v` of the state, `(π · v)[π(i)] = v[i]`).
///
/// # Examples
///
/// ```
/// use layered_core::sym::PidPerm;
/// use layered_core::Pid;
///
/// let swap = PidPerm::from_map(vec![1, 0, 2]);
/// assert_eq!(swap.apply(Pid::new(0)), Pid::new(1));
/// assert_eq!(swap.inverse(), swap);
/// assert!(swap.compose(&swap).is_identity());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PidPerm {
    map: Vec<u8>,
}

impl PidPerm {
    /// The identity permutation on `n` processes.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        PidPerm {
            map: (0..n).map(|i| i as u8).collect(),
        }
    }

    /// Builds a permutation from its map form (`map[i]` = image of `i`).
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..map.len()`.
    #[must_use]
    pub fn from_map(map: Vec<u8>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &image in &map {
            let image = image as usize;
            assert!(image < n && !seen[image], "not a permutation of 0..{n}");
            seen[image] = true;
        }
        PidPerm { map }
    }

    /// Number of processes the permutation acts on.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.map.len()
    }

    /// Whether this is the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &j)| i as u8 == j)
    }

    /// The image `π(i)` of a process.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `0..degree()`.
    #[must_use]
    pub fn apply(&self, i: Pid) -> Pid {
        Pid::new(self.map[i.index()] as usize)
    }

    /// The inverse permutation `π⁻¹`.
    #[must_use]
    pub fn inverse(&self) -> PidPerm {
        let mut inv = vec![0u8; self.map.len()];
        for (i, &j) in self.map.iter().enumerate() {
            inv[j as usize] = i as u8;
        }
        PidPerm { map: inv }
    }

    /// Composition `π ∘ τ`: first `τ`, then `self`
    /// (`(π ∘ τ)(i) = π(τ(i))`).
    ///
    /// # Panics
    ///
    /// Panics if the degrees differ.
    #[must_use]
    pub fn compose(&self, tau: &PidPerm) -> PidPerm {
        assert_eq!(self.degree(), tau.degree(), "degree mismatch");
        PidPerm {
            map: tau.map.iter().map(|&i| self.map[i as usize]).collect(),
        }
    }

    /// Permutes a per-process vector: `out[π(i)] = v[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != degree()`.
    #[must_use]
    pub fn permute_vec<T: Clone>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.degree(), "vector/permutation length mismatch");
        let mut out: Vec<Option<T>> = vec![None; v.len()];
        for (i, item) in v.iter().enumerate() {
            out[self.map[i] as usize] = Some(item.clone());
        }
        out.into_iter()
            .map(|slot| slot.expect("permutation is total"))
            .collect()
    }

    /// The images `π(0), …, π(n − 1)`.
    pub(crate) fn images(&self) -> &[u8] {
        &self.map
    }

    /// All `n!` permutations of `0..n`, in lexicographic order of their map
    /// form (so the identity comes first). Intended for the small `n` of
    /// exhaustive scans; panics if `n > MAX_ENUMERATED_N` to catch
    /// accidental blowups.
    #[must_use]
    pub fn all(n: usize) -> Vec<PidPerm> {
        perm_table(n).to_vec()
    }
}

/// A model whose states carry a process-renaming action.
///
/// Implementors must satisfy, for all permutations `π`, `τ` and states `x`:
///
/// * **action laws** — `permute_state(x, id) == x` and
///   `permute_state(permute_state(x, τ), π) == permute_state(x, π ∘ τ)`;
/// * **observable equivariance** — per-process observables transport along
///   the renaming: `decision(π·x, π(i)) == decision(x, i)`,
///   `failed_at(π·x, π(i)) == failed_at(x, i)`, `depth(π·x) == depth(x)`,
///   and `inputs_of(π·x)[π(i)] == inputs_of(x)[i]`;
/// * **layer equivariance**, *when [`symmetric_layering`](Self::symmetric_layering)
///   returns `true`* — `successors(π·x)` equals `successors(x)` mapped
///   through `π`, as sets.
///
/// Canonicalization is provided and follows the one rule of the
/// [module docs](self): the packed minimum when the model's
/// [`state_packer`](LayeredModel::state_packer) declares its pid groups and
/// `x` packs, the `Ord` minimum otherwise.
pub trait Symmetric: LayeredModel<State: Ord> {
    /// The renaming action `π · x` (role of old index `i` moves to `π(i)`).
    fn permute_state(&self, x: &Self::State, perm: &PidPerm) -> Self::State;

    /// Whether the model's *current layering configuration* is equivariant
    /// (`S(π·x) = π·S(x)`). Quotient constructions require `true`.
    fn symmetric_layering(&self) -> bool;

    /// The canonical representative of `x`'s orbit, a permutation `π` with
    /// `permute_state(x, π) == representative`, and the number of distinct
    /// states in the orbit, from one sweep over the `n!` renamings.
    fn canonicalize_with_orbit(&self, x: &Self::State) -> (Self::State, PidPerm, u64) {
        self.state_packer()
            .and_then(|packer| canonicalize_packed(self, packer, x))
            .unwrap_or_else(|| min_with_orbit(self, x))
    }

    /// [`canonicalize_with_orbit`](Self::canonicalize_with_orbit) without
    /// the orbit size.
    fn canonicalize(&self, x: &Self::State) -> (Self::State, PidPerm) {
        let (rep, pi, _) = self.canonicalize_with_orbit(x);
        (rep, pi)
    }
}

/// The `Ord` half of the rule with the orbit size: one sweep computing the
/// least orbit member, the first renaming reaching it, and the stabilizer.
fn min_with_orbit<M: Symmetric + ?Sized>(model: &M, x: &M::State) -> (M::State, PidPerm, u64) {
    let perms = perm_table(model.num_processes());
    let mut best: Option<(M::State, &PidPerm)> = None;
    let mut stabilizer = 0;
    for perm in perms {
        let y = model.permute_state(x, perm);
        stabilizer += usize::from(y == *x);
        match &best {
            Some((b, _)) if *b <= y => {}
            _ => best = Some((y, perm)),
        }
    }
    let (rep, perm) = best.expect("n >= 1, so the orbit is non-empty");
    (rep, perm.clone(), (perms.len() / stabilizer) as u64)
}

/// The `Ord` half of the canonicalization rule: the lexicographically
/// least state of the orbit under `Ord`, with the first renaming in
/// [`PidPerm::all`] order that reaches it.
pub fn canonicalize_by_min<M: Symmetric + ?Sized>(model: &M, x: &M::State) -> (M::State, PidPerm) {
    let (rep, pi, _) = min_with_orbit(model, x);
    (rep, pi)
}

/// The size of `x`'s orbit under renaming: the number of distinct states
/// `π · x`, computed as `n!` divided by the number of renamings that fix
/// `x` (the order of its stabilizer subgroup).
pub fn orbit_size<M: Symmetric + ?Sized>(model: &M, x: &M::State) -> usize {
    min_with_orbit(model, x).2 as usize
}

/// The packed half of the canonicalization rule: representative, witness
/// and orbit size in **one** sweep over the shared permutation table,
/// touching only `u128` words.
///
/// The representative is the orbit member with the **smallest packed
/// word**. Every member of an orbit maps to it because the shuffle is
/// equivariant and packability is permutation-invariant (see the
/// [`pack`](crate::space::pack) contract): the whole orbit packs, and the
/// minimum over `{permute_word(pack(x), π)}` is orbit-determined.
///
/// Returns `None` — the rule falls back to [`canonicalize_by_min`] — when
/// the packer declares no pid groups or `x` does not pack.
fn canonicalize_packed<M: Symmetric + ?Sized>(
    model: &M,
    packer: &StatePacker<M::State>,
    x: &M::State,
) -> Option<(M::State, PidPerm, u64)> {
    if !packer.permutes() {
        return None;
    }
    let w = packer.pack(x)?;
    let perms = perm_table(model.num_processes());
    let mut best_word = u128::MAX;
    let mut best_perm = &perms[0];
    let mut stabilizer = 0;
    for perm in perms {
        let y = packer
            .permute_word(w, perm)
            .expect("permutes() checked above");
        stabilizer += usize::from(y == w);
        if y < best_word {
            best_word = y;
            best_perm = perm;
        }
    }
    debug_assert_eq!(
        packer.pack(&model.permute_state(x, best_perm)),
        Some(best_word),
        "packer shuffle must be equivariant with permute_state"
    );
    Some((
        packer.unpack(best_word),
        best_perm.clone(),
        (perms.len() / stabilizer) as u64,
    ))
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::testkit::CounterModel;
    use crate::Value;

    #[test]
    fn identity_and_inverse_laws() {
        for n in 1..=4 {
            let id = PidPerm::identity(n);
            assert!(id.is_identity());
            for p in PidPerm::all(n) {
                assert_eq!(p.compose(&id), p);
                assert_eq!(id.compose(&p), p);
                assert!(p.compose(&p.inverse()).is_identity());
                assert!(p.inverse().compose(&p).is_identity());
            }
        }
    }

    #[test]
    fn composition_is_associative_and_matches_apply() {
        let perms = PidPerm::all(3);
        for a in &perms {
            for b in &perms {
                for c in &perms {
                    assert_eq!(a.compose(b).compose(c), a.compose(&b.compose(c)));
                }
                // (a ∘ b)(i) = a(b(i))
                for i in 0..3 {
                    let i = Pid::new(i);
                    assert_eq!(a.compose(b).apply(i), a.apply(b.apply(i)));
                }
            }
        }
    }

    #[test]
    fn all_enumerates_n_factorial_distinct_perms() {
        for (n, fact) in [(1, 1), (2, 2), (3, 6), (4, 24)] {
            let perms = PidPerm::all(n);
            assert_eq!(perms.len(), fact);
            let mut distinct: HashSet<Vec<u8>> = HashSet::new();
            for p in &perms {
                assert!(distinct.insert(p.map.clone()));
            }
            assert!(perms[0].is_identity(), "identity first (lexicographic)");
        }
    }

    #[test]
    fn permute_vec_relocates_roles() {
        // π = (0→1, 1→2, 2→0): old index 0's entry lands at index 1.
        let p = PidPerm::from_map(vec![1, 2, 0]);
        assert_eq!(p.permute_vec(&['a', 'b', 'c']), vec!['c', 'a', 'b']);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_map_rejects_non_permutations() {
        let _ = PidPerm::from_map(vec![0, 0, 1]);
    }

    #[test]
    fn counter_model_canonicalization() {
        let m = CounterModel::new(3, 2);
        let x = m.initial_state(&[Value::ONE, Value::ZERO, Value::ONE]);
        let (rep, pi) = m.canonicalize(&x);
        // The witnessing permutation maps x onto the representative.
        assert_eq!(m.permute_state(&x, &pi), rep);
        // The representative is canonical: re-canonicalizing is the identity.
        let (rep2, pi2) = m.canonicalize(&rep);
        assert_eq!(rep2, rep);
        assert!(pi2.is_identity() || m.permute_state(&rep, &pi2) == rep);
        // Orbit of a (1,0,1) input vector: 3 arrangements.
        assert_eq!(orbit_size(&m, &x), 3);
        // Every orbit member canonicalizes to the same representative.
        for perm in PidPerm::all(3) {
            let y = m.permute_state(&x, &perm);
            assert_eq!(m.canonicalize(&y).0, rep);
        }
    }

    #[test]
    fn packed_canonicalization_is_orbit_consistent() {
        let m = CounterModel::new(3, 2);
        let packer = m.state_packer().expect("CounterModel packs");
        let perms = PidPerm::all(3);
        let x = m.initial_state(&[Value::ONE, Value::ZERO, Value::ONE]);
        let (rep, pi, orbit) = canonicalize_packed(&m, packer, &x).expect("x packs");
        // The witness transports x onto the representative.
        assert_eq!(m.permute_state(&x, &pi), rep);
        // Orbit size matches the brute-force enumeration.
        assert_eq!(orbit, orbit_size(&m, &x) as u64);
        // Every orbit member maps to the same representative with a valid
        // witness and the same orbit size.
        for p in &perms {
            let y = m.permute_state(&x, p);
            let (rep_y, pi_y, orbit_y) =
                canonicalize_packed(&m, packer, &y).expect("orbit members pack");
            assert_eq!(rep_y, rep);
            assert_eq!(m.permute_state(&y, &pi_y), rep);
            assert_eq!(orbit_y, orbit);
        }
    }
}
