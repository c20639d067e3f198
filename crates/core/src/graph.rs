//! Small self-contained graph utilities used by the connectivity analyses:
//! union-find, BFS paths, connected components, and diameters of undirected
//! graphs given by adjacency lists over `0..n` vertex indices.

use std::collections::VecDeque;

use crate::telemetry::{MemoryBreakdown, MemoryFootprint, Observer};

/// Disjoint-set forest with union by rank and path halving.
///
/// # Examples
///
/// ```
/// use layered_core::graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(1, 2));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets `{0}, …, {n-1}`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// An undirected graph over vertices `0..n` stored as adjacency lists.
///
/// Parallel edges are merged; self-loops are ignored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
}

impl Graph {
    /// An edgeless graph with `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from a symmetric predicate evaluated on all pairs.
    pub fn from_predicate<F: FnMut(usize, usize) -> bool>(n: usize, mut related: F) -> Self {
        let mut g = Graph::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                if related(a, b) {
                    g.add_edge(a, b);
                }
            }
        }
        g
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge `a — b`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.len() && b < self.len(), "vertex out of range");
        if a == b {
            return;
        }
        if !self.adj[a].contains(&b) {
            self.adj[a].push(b);
            self.adj[b].push(a);
        }
    }

    /// Whether `a — b` is an edge.
    #[must_use]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj.get(a).is_some_and(|v| v.contains(&b))
    }

    /// Number of (undirected) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether the graph is connected (vacuously true when empty).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Number of connected components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        let mut uf = UnionFind::new(self.len());
        for (a, ns) in self.adj.iter().enumerate() {
            for &b in ns {
                uf.union(a, b);
            }
        }
        uf.component_count()
    }

    /// Connected components as sorted vertex lists.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.len());
        for (a, ns) in self.adj.iter().enumerate() {
            for &b in ns {
                uf.union(a, b);
            }
        }
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut index: Vec<Option<usize>> = vec![None; self.len()];
        for v in 0..self.len() {
            let r = uf.find(v);
            let slot = match index[r] {
                Some(s) => s,
                None => {
                    index[r] = Some(buckets.len());
                    buckets.push(Vec::new());
                    buckets.len() - 1
                }
            };
            buckets[slot].push(v);
        }
        buckets
    }

    /// BFS distances from `src`; `None` for unreachable vertices. Reports
    /// vertices visited (`graph.bfs_visits`) and the widest BFS queue
    /// (`graph.bfs_frontier`) to `obs`.
    #[must_use]
    pub fn distances(&self, src: usize, obs: &dyn Observer) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        dist[src] = Some(0);
        let mut q = VecDeque::from([src]);
        while let Some(v) = q.pop_front() {
            obs.counter("graph.bfs_visits", 1);
            let dv = dist[v].expect("queued vertices have distances");
            for &w in &self.adj[v] {
                if dist[w].is_none() {
                    dist[w] = Some(dv + 1);
                    q.push_back(w);
                }
            }
            obs.gauge("graph.bfs_frontier", q.len() as u64);
        }
        dist
    }

    /// A shortest path from `src` to `dst`, inclusive, or `None` if
    /// disconnected.
    #[must_use]
    pub fn shortest_path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev: Vec<Option<usize>> = vec![None; self.len()];
        let mut seen = vec![false; self.len()];
        seen[src] = true;
        let mut q = VecDeque::from([src]);
        while let Some(v) = q.pop_front() {
            for &w in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    prev[w] = Some(v);
                    if w == dst {
                        let mut path = vec![dst];
                        let mut cur = dst;
                        while let Some(p) = prev[cur] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(w);
                }
            }
        }
        None
    }

    /// The diameter (longest shortest path) of the graph, or `None` if the
    /// graph is disconnected or empty, reporting through the observed BFS
    /// of [`Graph::distances`].
    #[must_use]
    pub fn diameter(&self, obs: &dyn Observer) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut best = 0;
        for v in 0..self.len() {
            for d in self.distances(v, obs) {
                match d {
                    Some(d) => best = best.max(d),
                    None => return None,
                }
            }
        }
        Some(best)
    }
}

impl MemoryFootprint for Graph {
    /// Shallow accounting of the adjacency lists: the spine plus each
    /// list's capacity (see [`telemetry::mem`](crate::telemetry::mem)).
    fn memory_footprint(&self) -> MemoryBreakdown {
        let spine = self.adj.capacity() as u64 * std::mem::size_of::<Vec<usize>>() as u64;
        let lists: u64 = self
            .adj
            .iter()
            .map(|l| l.capacity() as u64 * std::mem::size_of::<usize>() as u64)
            .sum();
        let mut b = MemoryBreakdown::new();
        b.push("mem.graph.adj_bytes", spine + lists);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NOOP;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn union_find_counts_components() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        uf.union(1, 2);
        assert_eq!(uf.component_count(), 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }

    #[test]
    fn find_uses_path_halving() {
        // Splice a parent chain 7 -> 6 -> ... -> 0 by hand (chained unions
        // would not produce one under union-by-rank) and check that one
        // `find` from the deep end rewires every other node on the walk to
        // its grandparent.
        let mut uf = UnionFind::new(8);
        for i in 0..7 {
            uf.parent[i + 1] = i;
        }
        uf.components = 1;
        assert_eq!(uf.find(7), 0);
        assert_eq!(uf.parent[7], 5, "7 now points at its grandparent");
        assert_eq!(uf.parent[5], 3);
        assert_eq!(uf.parent[3], 1);
        assert_eq!(uf.parent[1], 0);
        assert_eq!(uf.find(7), 0);
    }

    #[test]
    fn graph_connectivity() {
        let g = path_graph(4);
        assert!(g.is_connected());
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.edge_count(), 3);

        let mut g2 = Graph::new(4);
        g2.add_edge(0, 1);
        assert!(!g2.is_connected());
        assert_eq!(g2.component_count(), 3);
    }

    #[test]
    fn components_partition_vertices() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(3, 4);
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        let mut all: Vec<usize> = comps.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shortest_path_and_distances() {
        let g = path_graph(5);
        assert_eq!(g.shortest_path(0, 4), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(g.shortest_path(2, 2), Some(vec![2]));
        assert_eq!(g.distances(0, &NOOP)[4], Some(4));
        let mut g2 = Graph::new(3);
        g2.add_edge(0, 1);
        assert_eq!(g2.shortest_path(0, 2), None);
        assert_eq!(g2.distances(0, &NOOP)[2], None);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(path_graph(5).diameter(&NOOP), Some(4));
        let mut cycle = path_graph(6);
        cycle.add_edge(5, 0);
        assert_eq!(cycle.diameter(&NOOP), Some(3));
        let mut disc = Graph::new(2);
        assert_eq!(disc.diameter(&NOOP), None);
        disc.add_edge(0, 1);
        assert_eq!(disc.diameter(&NOOP), Some(1));
    }

    #[test]
    fn from_predicate_builds_symmetric_graph() {
        let g = Graph::from_predicate(4, |a, b| a + 1 == b);
        assert_eq!(g, {
            let mut h = Graph::new(4);
            h.add_edge(0, 1);
            h.add_edge(1, 2);
            h.add_edge(2, 3);
            h
        });
    }

    #[test]
    fn self_loops_and_duplicates_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn empty_graph_is_vacuously_connected() {
        let g = Graph::new(0);
        assert!(g.is_connected());
        assert_eq!(g.diameter(&NOOP), None);
    }
}
