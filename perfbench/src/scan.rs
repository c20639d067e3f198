//! The scan workloads: one Lemma 5.1 layer scan of the mobile-failure
//! model under its equivariant `Full` layering, plus the Theorem 4.2
//! witness built and re-verified from scratch — on the full arena at n = 5
//! (`scan-full`) or over the symmetry quotient at n = 6 (`scan-quotient`).

use std::collections::HashSet;
use std::hint::black_box;

use layered_core::telemetry::{MetricsRegistry, Observer, NOOP};
use layered_core::{
    quotient_valence_report_ids, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_quotient, valence_report_ids, ImpossibilityWitness, LayerScan,
    LayeredModel, QuotientSolver, StateId, Symmetric, ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel};

use crate::measure::Sampler;
use crate::run::{ref_of, timed_op, traced_root, LayerValues, Timed, Workload};
use crate::trace::Tracer;

type Model = MobileModel<FloodMin>;
type State = <Model as LayeredModel>::State;

/// Valence horizon (and FloodMin deadline) of both scans.
pub const HORIZON: usize = 2;

/// Scan depth.
pub const DEPTH: usize = 1;

/// The counts one scan op must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Golden {
    /// Layers whose valence connectivity was checked.
    pub layers_checked: usize,
    /// States (orbits, on the quotient) the scan enumerated.
    pub states_seen: usize,
    /// States (orbits) interned in the arena.
    pub arena_states: usize,
    /// Full-model states the arena covers.
    pub covered: u64,
}

/// What one scan op produced.
#[derive(Clone, Copy, Debug)]
pub struct Observed {
    /// The op's counts.
    pub counts: Golden,
    /// Every checked layer was valence connected.
    pub connected: bool,
    /// The witness was built and re-verified against the full model.
    pub witness_ok: bool,
}

/// Checks a scan op's output against the golden counts.
///
/// # Errors
///
/// Names the first thing that differs.
pub fn check(golden: &Golden, seen: &Observed) -> Result<(), String> {
    if !seen.connected {
        return Err("a scanned layer is not valence connected".into());
    }
    if !seen.witness_ok {
        return Err("the witness did not build or re-verify".into());
    }
    if seen.counts != *golden {
        return Err(format!(
            "scan counts {:?}, expected {golden:?}",
            seen.counts
        ));
    }
    Ok(())
}

/// The full and quotient solvers behind one interface, so the op, the
/// traced op and the probes are written once.
trait Arena<'a>: Sized {
    const QUOTIENT: bool;
    fn create(model: &'a Model, obs: &'a dyn Observer) -> Self;
    fn scan(&mut self) -> LayerScan<State>;
    fn expand(&mut self, model: &'a Model, to: usize) -> Vec<Vec<StateId>>;
    fn bivalent(&mut self, id: StateId) -> bool;
    fn layer(&mut self, id: StateId) -> Vec<StateId>;
    fn report_connected(&mut self, ids: &[StateId]) -> bool;
    fn state(&self, id: StateId) -> State;
    fn intern_root(&mut self, x: &State) -> StateId;
    /// Interned states, cached edges, covered full-model states.
    fn counts(&self) -> (usize, usize, u64);
    fn witness(model: &Model) -> Option<ImpossibilityWitness<State>>;
}

impl<'a> Arena<'a> for ValenceSolver<'a, Model> {
    const QUOTIENT: bool = false;
    fn create(model: &'a Model, obs: &'a dyn Observer) -> Self {
        ValenceSolver::with_observer(model, HORIZON, obs)
    }
    fn scan(&mut self) -> LayerScan<State> {
        scan_layer_valence_connectivity(self, DEPTH, true)
    }
    fn expand(&mut self, model: &'a Model, to: usize) -> Vec<Vec<StateId>> {
        let obs = self.observer();
        self.space_mut()
            .expand_layers(model, &model.initial_states(), to, obs)
    }
    fn bivalent(&mut self, id: StateId) -> bool {
        self.is_bivalent_id(id)
    }
    fn layer(&mut self, id: StateId) -> Vec<StateId> {
        self.successor_ids(id)
    }
    fn report_connected(&mut self, ids: &[StateId]) -> bool {
        valence_report_ids(self, ids).connected
    }
    fn state(&self, id: StateId) -> State {
        self.space().resolve(id)
    }
    fn intern_root(&mut self, x: &State) -> StateId {
        self.intern(x)
    }
    fn counts(&self) -> (usize, usize, u64) {
        let space = self.space();
        (space.len(), space.edge_count(), space.len() as u64)
    }
    fn witness(model: &Model) -> Option<ImpossibilityWitness<State>> {
        ImpossibilityWitness::build(model, HORIZON, DEPTH)
    }
}

impl<'a> Arena<'a> for QuotientSolver<'a, Model> {
    const QUOTIENT: bool = true;
    fn create(model: &'a Model, obs: &'a dyn Observer) -> Self {
        QuotientSolver::with_observer(model, HORIZON, obs)
    }
    fn scan(&mut self) -> LayerScan<State> {
        scan_layer_valence_connectivity_quotient(self, DEPTH, true)
    }
    fn expand(&mut self, model: &'a Model, to: usize) -> Vec<Vec<StateId>> {
        let obs = self.observer();
        self.space_mut()
            .expand_layers(model, &model.initial_states(), to, obs)
    }
    fn bivalent(&mut self, id: StateId) -> bool {
        self.is_bivalent_id(id)
    }
    fn layer(&mut self, id: StateId) -> Vec<StateId> {
        self.successor_ids(id)
    }
    fn report_connected(&mut self, ids: &[StateId]) -> bool {
        quotient_valence_report_ids(self, ids).connected
    }
    fn state(&self, id: StateId) -> State {
        self.space().resolve(id)
    }
    fn intern_root(&mut self, x: &State) -> StateId {
        self.intern(x).0
    }
    fn counts(&self) -> (usize, usize, u64) {
        let space = self.space();
        (space.len(), space.edge_count(), space.covered_states())
    }
    fn witness(model: &Model) -> Option<ImpossibilityWitness<State>> {
        ImpossibilityWitness::build_quotient(model, HORIZON, DEPTH)
    }
}

/// A scan workload (see the module docs).
pub struct ScanWorkload {
    model: Model,
    golden: Golden,
    quotient: bool,
}

impl ScanWorkload {
    /// `scan-full`: the full arena at n = 5.
    #[must_use]
    pub fn full() -> Self {
        ScanWorkload {
            model: mobile(5),
            golden: Golden {
                layers_checked: 10,
                states_seen: 112,
                arena_states: 396,
                covered: 396,
            },
            quotient: false,
        }
    }

    /// `scan-quotient`: the symmetry quotient at n = 6.
    #[must_use]
    pub fn quotient() -> Self {
        ScanWorkload {
            model: mobile(6),
            golden: Golden {
                layers_checked: 2,
                states_seen: 13,
                arena_states: 41,
                covered: 936,
            },
            quotient: true,
        }
    }

    /// The counts every op must reproduce.
    #[must_use]
    pub fn golden(&self) -> Golden {
        self.golden
    }

    /// Replaces the golden counts (tests feed wrong ones).
    #[must_use]
    pub fn with_golden(mut self, golden: Golden) -> Self {
        self.golden = golden;
        self
    }

    fn run_once<'a, A: Arena<'a>>(&'a self) -> Observed {
        let mut solver = A::create(&self.model, &NOOP);
        let scan = solver.scan();
        let (arena_states, _, covered) = solver.counts();
        let witness_ok = A::witness(&self.model).is_some_and(|w| w.verify(&self.model).is_ok());
        Observed {
            counts: Golden {
                layers_checked: scan.layers_checked,
                states_seen: scan.states_seen,
                arena_states,
                covered,
            },
            connected: scan.all_connected(),
            witness_ok,
        }
    }

    /// The traced op: each layer's public entry point in turn under its own
    /// span, then probes that split expansion into model, canonicalization
    /// and interning time and time each checked layer's report.
    fn traced<'a, A: Arena<'a>>(
        &'a self,
        s: &mut Sampler,
        t: &mut Tracer,
        op: u64,
        reg: &'a MetricsRegistry,
    ) -> Result<(Timed, LayerValues), String> {
        let m = &self.model;
        let expand_to = HORIZON.max(DEPTH + 1);
        let ((mut solver, levels, layers_checked, chain_len), timed, root) =
            traced_root(s, t, op, "op", |t| {
                let mut solver = A::create(m, reg);
                let levels = t.span("space.expand", |_| solver.expand(m, expand_to));
                t.span("valence.classify", |_| {
                    for &id in levels.iter().flatten() {
                        black_box(solver.bivalent(id));
                    }
                });
                let scan = t.span("layering.scan", |_| solver.scan());
                let witness = t.span("witness.build", |_| A::witness(m));
                let witness_ok = t.span("witness.verify", |_| {
                    witness.as_ref().is_some_and(|w| w.verify(m).is_ok())
                });
                let (arena_states, _, covered) = solver.counts();
                let seen = Observed {
                    counts: Golden {
                        layers_checked: scan.layers_checked,
                        states_seen: scan.states_seen,
                        arena_states,
                        covered,
                    },
                    connected: scan.all_connected(),
                    witness_ok,
                };
                check(&self.golden, &seen)?;
                let chain_len = witness.map_or(0, |w| w.len());
                Ok((solver, levels, scan.layers_checked, chain_len))
            })?;
        let snap = reg.snapshot();

        let (canon_calls, probe_timed, probe_root) = traced_root(s, t, op, "probe", |t| {
            let raw: Vec<Vec<State>> = t.span("probe.successors", |_| {
                levels
                    .iter()
                    .take(expand_to)
                    .flatten()
                    .map(|&id| m.successors(&solver.state(id)))
                    .collect()
            });
            let canon_calls = if A::QUOTIENT {
                t.span("probe.canonicalize", |_| {
                    for y in raw.iter().flatten() {
                        black_box(m.canonicalize_with_orbit(y));
                    }
                });
                raw.iter().map(Vec::len).sum()
            } else {
                0
            };
            let replayed = replay_reports(&mut solver, m, t);
            if replayed != layers_checked {
                return Err(format!(
                    "report probe checked {replayed} layers, the scan {layers_checked}"
                ));
            }
            Ok(canon_calls)
        })?;

        let (r_op, r_probe) = (ref_of(&timed), ref_of(&probe_timed));
        let own = t.self_by_name(root);
        let probe = t.self_by_name(probe_root);
        let op_ref = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / r_op;
        let probe_ref = |name: &str| probe.get(name).copied().unwrap_or(0) as f64 / r_probe;
        let successors = probe_ref("probe.successors");
        let canonicalize = probe_ref("probe.canonicalize");
        let report = probe_ref("probe.report");
        let (arena_states, edges, _) = solver.counts();
        let hits = (snap.counter("space.intern.hits") + snap.counter("space.canon.hits")) as f64;
        let queries = snap.counter("valence.queries").max(1) as f64;
        // Successors are nearly all of expansion on scan-full, so the
        // difference can fall below zero by timing noise; it reads 0 then.
        let expand_self = (op_ref("space.expand") - successors - canonicalize).max(0.0);
        let values = vec![
            ("sync-mobile.successors_ref", successors),
            ("space.expand_ref", expand_self),
            ("space.states", arena_states as f64),
            ("space.edges", edges as f64),
            (
                "space.intern_hit_ratio",
                hits / (hits + arena_states as f64),
            ),
            ("sym.canonicalize_ref", canonicalize),
            ("sym.canonicalize_calls", canon_calls as f64),
            ("valence.classify_ref", op_ref("valence.classify")),
            (
                "valence.states_classified",
                snap.counter("valence.states_classified") as f64,
            ),
            (
                "valence.memo_hit_ratio",
                snap.counter("valence.memo_hits") as f64 / queries,
            ),
            ("connectivity.report_ref", report),
            (
                "connectivity.pairs_tested",
                snap.counter("connectivity.pairs_tested") as f64,
            ),
            ("graph.bfs_visits", snap.counter("graph.bfs_visits") as f64),
            ("layering.scan_self_ref", op_ref("layering.scan") - report),
            (
                "layering.layers_scanned",
                snap.counter("layering.layers_scanned") as f64,
            ),
            ("witness.build_ref", op_ref("witness.build")),
            ("witness.verify_ref", op_ref("witness.verify")),
            ("witness.chain_len", chain_len as f64),
            ("trace.unattributed_frac", t.unattributed_frac(root)),
        ];
        Ok((timed, values))
    }
}

/// Replays the scan's breadth-first walk over the warm arena, timing the
/// connectivity report of each checked layer; returns the layers checked.
fn replay_reports<'a, A: Arena<'a>>(solver: &mut A, m: &Model, t: &mut Tracer) -> usize {
    let mut frontier = Vec::new();
    let mut roots = HashSet::new();
    for x in m.initial_states() {
        let id = solver.intern_root(&x);
        if roots.insert(id) {
            frontier.push(id);
        }
    }
    let mut checked = 0;
    for _ in 0..=DEPTH {
        let mut next = Vec::new();
        let mut seen = HashSet::new();
        for &id in &frontier {
            if !solver.bivalent(id) {
                continue;
            }
            let layer = solver.layer(id);
            black_box(t.span("probe.report", |_| solver.report_connected(&layer)));
            checked += 1;
            if m.depth(&solver.state(id)) < DEPTH {
                next.extend(layer.into_iter().filter(|y| seen.insert(*y)));
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    checked
}

fn mobile(n: usize) -> Model {
    MobileModel::new(n, FloodMin::new(HORIZON as u16)).with_layering(MobileLayering::Full)
}

impl Workload for ScanWorkload {
    fn op(&mut self, s: &mut Sampler) -> Result<Timed, String> {
        let this = &*self;
        timed_op(s, || {
            let seen = if this.quotient {
                this.run_once::<QuotientSolver<'_, Model>>()
            } else {
                this.run_once::<ValenceSolver<'_, Model>>()
            };
            check(&this.golden, &seen)
        })
    }

    fn traced_op(
        &mut self,
        s: &mut Sampler,
        t: &mut Tracer,
        op: u64,
    ) -> Result<(Timed, LayerValues), String> {
        let reg = MetricsRegistry::new();
        if self.quotient {
            self.traced::<QuotientSolver<'_, Model>>(s, t, op, &reg)
        } else {
            self.traced::<ValenceSolver<'_, Model>>(s, t, op, &reg)
        }
    }
}
