//! Property tests for the hash-consing state arena: interning round-trips,
//! id density, and bulk/lazy expansion equivalence under random model
//! shapes and interning orders.

use proptest::prelude::*;

use layered_core::testkit::{CounterModel, Unpacked};
use layered_core::{
    Arena, Keying, LayeredModel, NoopObserver, Orbits, Plain, Region, StateId, StateSpace,
};

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

    /// Bulk expansion ([`Arena::expand_layers`]) is bit-identical to
    /// filling the arena lazily, row by row through `successor_ids`, for
    /// arbitrary process counts, branching factors, horizons and arena
    /// kinds (boxed, packed, symmetry quotient): the same levels, ids,
    /// states, successor rows and — over the quotient — edge permutations
    /// and orbit sizes. The levels name every interned id.
    #[test]
    fn bulk_expansion_matches_lazy(
        n in 3usize..6,
        branch in 1u8..4,
        horizon in 0usize..4,
        arena in 0usize..3,
    ) {
        let m = CounterModel::new(n, branch);
        let roots = m.initial_states();
        if arena == 2 {
            let (levels, bulk, lazy) =
                bulk_and_lazy::<_, Orbits>(&m, &roots, horizon, |q, x| q.intern(&m, x).0);
            for id in ids(&levels) {
                prop_assert_eq!(
                    bulk.cached_successors_with_perms(id),
                    lazy.cached_successors_with_perms(id)
                );
                prop_assert_eq!(bulk.orbit_size_of(id), lazy.orbit_size_of(id));
            }
        } else if arena == 0 {
            bulk_and_lazy::<_, Plain>(&Unpacked(m), &roots, horizon, |s, x| s.intern(x));
        } else {
            bulk_and_lazy::<_, Plain>(&m, &roots, horizon, |s, x| s.intern(x));
        }
    }
}

/// The levels of one expansion, and the bulk and the lazy arena.
type Expanded<M, K> = (Vec<Vec<StateId>>, Arena<M, K>, Arena<M, K>);

/// Expands `roots` for `horizon` layers twice under keying `K`: in bulk,
/// and lazily (roots interned with `intern`, then each level's rows asked
/// for one state at a time). Asserts the two agree on levels, sizes,
/// states and successor rows, and that the levels name every interned id;
/// returns the levels and both arenas for keying-specific checks.
fn bulk_and_lazy<M: LayeredModel, K: Keying<M>>(
    m: &M,
    roots: &[M::State],
    horizon: usize,
    intern: impl Fn(&mut Arena<M, K>, &M::State) -> StateId,
) -> Expanded<M, K> {
    let mut bulk = Arena::<M, K>::for_model(m);
    let levels = bulk.expand_layers(m, roots, horizon, &NoopObserver);

    let mut lazy = Arena::<M, K>::for_model(m);
    let mut level = first_seen(roots.iter().map(|r| intern(&mut lazy, r)));
    let mut lazy_levels = vec![level.clone()];
    for _ in 0..horizon {
        let rows: Vec<StateId> = level
            .iter()
            .flat_map(|&id| lazy.successor_ids(m, id, &NoopObserver))
            .collect();
        level = first_seen(rows);
        lazy_levels.push(level.clone());
    }

    assert_eq!(levels, lazy_levels);
    assert_eq!(bulk.len(), lazy.len());
    assert_eq!(bulk.edge_count(), lazy.edge_count());
    assert_eq!(ids(&levels).len(), bulk.len());
    for id in ids(&levels) {
        assert_eq!(bulk.resolve(id), lazy.resolve(id));
        assert_eq!(bulk.cached_successors(id), lazy.cached_successors(id));
    }
    (levels, bulk, lazy)
}

/// `ids` in first-seen order, each kept once.
fn first_seen(ids: impl IntoIterator<Item = StateId>) -> Vec<StateId> {
    let mut seen = std::collections::HashSet::new();
    ids.into_iter().filter(|&id| seen.insert(id)).collect()
}
