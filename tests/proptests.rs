//! Property-based tests over the kernel's combinatorial substrate and the
//! topology machinery.

use proptest::prelude::*;

use layered_consensus::core::graph::{Graph, UnionFind};
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{binary_input_vectors, input_interpolation, Pid, Value};
use layered_consensus::topology::{Complex, Simplex};

fn arb_values(n: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(0u32..4, n).prop_map(|v| v.into_iter().map(Value::new).collect())
}

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..n, 0..n), 0..2 * n)
}

proptest! {
    /// Union-find component counts agree with graph BFS components.
    #[test]
    fn union_find_agrees_with_graph_components(edges in arb_edges(12)) {
        let mut g = Graph::new(12);
        let mut uf = UnionFind::new(12);
        for (a, b) in edges {
            g.add_edge(a, b);
            if a != b {
                uf.union(a, b);
            }
        }
        prop_assert_eq!(g.component_count(), uf.component_count());
        prop_assert_eq!(g.components().len(), uf.component_count());
    }

    /// Shortest paths returned by the graph are genuine paths with the
    /// length reported by the distance map.
    #[test]
    fn shortest_paths_are_consistent(edges in arb_edges(10), src in 0usize..10, dst in 0usize..10) {
        let mut g = Graph::new(10);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        let dist = g.distances(src, &NOOP);
        match g.shortest_path(src, dst) {
            Some(path) => {
                prop_assert_eq!(path[0], src);
                prop_assert_eq!(*path.last().unwrap(), dst);
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
                prop_assert_eq!(dist[dst], Some(path.len() - 1));
            }
            None => prop_assert_eq!(dist[dst], None),
        }
    }

    /// The Lemma 3.6 interpolation chain has the paper's shape for
    /// arbitrary (not just binary) input vectors.
    #[test]
    fn interpolation_shape(x in arb_values(5), y in arb_values(5)) {
        let chain = input_interpolation(&x, &y);
        prop_assert_eq!(chain.len(), 6);
        prop_assert_eq!(&chain[0], &x);
        prop_assert_eq!(&chain[5], &y);
        for (l, w) in chain.windows(2).enumerate() {
            for (i, (a, b)) in w[0].iter().zip(&w[1]).enumerate() {
                if i != l {
                    prop_assert_eq!(a, b, "only coordinate l may change");
                }
            }
        }
    }

    /// Simplex intersection is commutative, idempotent, and a face of both.
    #[test]
    fn simplex_intersection_laws(a in arb_values(4), b in arb_values(4)) {
        let sa = Simplex::full(&a);
        let sb = Simplex::full(&b);
        let i1 = sa.intersection(&sb);
        let i2 = sb.intersection(&sa);
        prop_assert_eq!(&i1, &i2);
        prop_assert!(i1.is_face_of(&sa));
        prop_assert!(i1.is_face_of(&sb));
        prop_assert_eq!(sa.intersection(&sa), sa);
    }

    /// Complexes contain every face of every facet, and facet absorption
    /// never loses membership.
    #[test]
    fn complex_closure(vs in proptest::collection::vec(arb_values(3), 1..6)) {
        let facets: Vec<Simplex> = vs.iter().map(|v| Simplex::full(v)).collect();
        let c = Complex::from_facets(facets.clone());
        for f in &facets {
            prop_assert!(c.contains(f));
            // every single-vertex face
            for (p, v) in f.vertices() {
                prop_assert!(c.contains(&Simplex::from_pairs([(p, v)])));
            }
        }
        prop_assert!(c.contains(&Simplex::new()));
    }

    /// Thick-connectivity is monotone in k: if a complex is k-thick
    /// connected it is (k+1)-thick connected.
    #[test]
    fn thick_connectivity_monotone(vs in proptest::collection::vec(arb_values(3), 1..6)) {
        let c: Complex = vs.iter().map(|v| Simplex::full(v)).collect();
        for k in 0..3 {
            if c.is_k_thick_connected(3, k) {
                prop_assert!(c.is_k_thick_connected(3, k + 1));
            }
        }
        // n-thick connectivity always holds for non-empty value-sharing...
        // at least when every pair intersects in >= 0 vertices, i.e. always.
        prop_assert!(c.is_k_thick_connected(3, 3));
    }

    /// Binary input vectors are exactly the 2^n distinct assignments.
    #[test]
    fn binary_vectors_are_complete(n in 1usize..6) {
        let vecs = binary_input_vectors(n);
        prop_assert_eq!(vecs.len(), 1 << n);
        let mut sorted = vecs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), 1 << n);
        for v in &vecs {
            prop_assert!(v.iter().all(|x| x.is_binary()));
        }
    }

    /// Pid ordering matches index ordering.
    #[test]
    fn pid_order_matches_index(a in 0usize..200, b in 0usize..200) {
        prop_assert_eq!(Pid::new(a).cmp(&Pid::new(b)), a.cmp(&b));
    }
}
