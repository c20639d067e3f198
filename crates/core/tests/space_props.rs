//! Property tests for the hash-consing state arena: interning round-trips,
//! id density, and sequential/parallel expansion equivalence under random
//! model shapes and interning orders.

use proptest::prelude::*;

use layered_core::testkit::{CounterModel, Unpacked};
use layered_core::{LayeredModel, NoopObserver, QuotientSpace, Region, StateId, StateSpace};

/// Every distinct state reachable in 3 layers of a 3-way branching model —
/// the pool random interning orders draw from.
fn pool() -> Vec<<CounterModel as LayeredModel>::State> {
    let m = CounterModel::new(3, 3);
    let region = Region::reachable(&m, 3, &NoopObserver);
    region
        .levels()
        .iter()
        .flatten()
        .map(|&id| region.space().resolve(id))
        .collect()
}

/// Every id in `levels`, which after an expansion is every interned id:
/// roots and the successors of all but the last level.
fn ids(levels: &[Vec<StateId>]) -> std::collections::BTreeSet<StateId> {
    levels.iter().flatten().copied().collect()
}

fn arb_picks() -> impl Strategy<Value = Vec<usize>> {
    let len = pool().len();
    proptest::collection::vec(0..len, 1..64)
}

proptest! {
    /// `resolve(intern(s)) == s`, double-interning returns the same id, and
    /// ids stay dense in first-seen order — for arbitrary interning orders.
    #[test]
    fn intern_round_trips_under_random_orders(picks in arb_picks()) {
        let states = pool();
        let mut space = StateSpace::for_model(&Unpacked(CounterModel::new(3, 3)));
        let mut first_id = std::collections::HashMap::new();
        for &k in &picks {
            let s = &states[k];
            let id = space.intern(s);
            prop_assert_eq!(&space.resolve(id), s);
            let prior = *first_id.entry(k).or_insert(id);
            prop_assert_eq!(prior, id, "double-intern must return the first id");
            prop_assert_eq!(space.get(s), Some(id));
        }
        // One arena slot per distinct state presented.
        prop_assert_eq!(space.len(), first_id.len());
        // Ids are dense and assigned in first-seen order.
        let mut seen = std::collections::HashSet::new();
        let mut next = 0usize;
        for &k in &picks {
            if seen.insert(k) {
                prop_assert_eq!(first_id[&k].index(), next);
                next += 1;
            }
        }
    }

    /// Parallel expansion is bit-identical to sequential for arbitrary
    /// process counts, branching factors, horizons, thread counts and arena
    /// kinds (boxed, packed, symmetry quotient): the same levels, ids,
    /// states, successor rows and — over the quotient — edge permutations
    /// and orbit sizes. At `n = 5` a level holds up to 96 states, more than
    /// one parallel batch.
    #[test]
    fn parallel_expansion_matches_sequential(
        n in 3usize..6,
        branch in 1u8..4,
        horizon in 0usize..4,
        threads in 1usize..9,
        arena in 0usize..3,
    ) {
        let m = CounterModel::new(n, branch);
        let roots = m.initial_states();
        if arena == 2 {
            let mut seq: QuotientSpace<CounterModel> = QuotientSpace::for_model(&m);
            let a = seq.expand_layers(&m, &roots, horizon, &NoopObserver);
            let mut par: QuotientSpace<CounterModel> = QuotientSpace::for_model(&m);
            let b = par.expand_layers_parallel(&m, &roots, horizon, threads, &NoopObserver);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(seq.len(), par.len());
            prop_assert_eq!(seq.edge_count(), par.edge_count());
            prop_assert_eq!(ids(&a).len(), seq.len());
            for id in ids(&a) {
                prop_assert_eq!(seq.resolve(id), par.resolve(id));
                prop_assert_eq!(
                    seq.cached_successors_with_perms(id),
                    par.cached_successors_with_perms(id)
                );
                prop_assert_eq!(seq.orbit_size_of(id), par.orbit_size_of(id));
            }
        } else if arena == 0 {
            plain_parallel_matches_sequential(&Unpacked(m), &roots, horizon, threads);
        } else {
            plain_parallel_matches_sequential(&m, &roots, horizon, threads);
        }
    }
}

/// The full-space half of `parallel_expansion_matches_sequential`, for
/// the packed model or its boxed twin.
fn plain_parallel_matches_sequential<M>(m: &M, roots: &[M::State], horizon: usize, threads: usize)
where
    M: LayeredModel + Sync,
    M::State: Send + Sync,
{
    let mut seq = StateSpace::for_model(m);
    let a = seq.expand_layers(m, roots, horizon, &NoopObserver);
    let mut par = StateSpace::for_model(m);
    let b = par.expand_layers_parallel(m, roots, horizon, threads, &NoopObserver);
    assert_eq!(&a, &b);
    assert_eq!(seq.len(), par.len());
    assert_eq!(seq.edge_count(), par.edge_count());
    assert_eq!(ids(&a).len(), seq.len());
    for id in ids(&a) {
        assert_eq!(seq.resolve(id), par.resolve(id));
        assert_eq!(seq.cached_successors(id), par.cached_successors(id));
    }
}
