//! The interaction graph `G_S`.
//!
//! Vertices are schemas; an edge `(s_i, s_j)` means the pair has to be
//! matched. The evaluation of the paper uses two families of graphs:
//! complete graphs (uncertainty-reduction and instantiation experiments,
//! §VI-C/D) and Erdős–Rényi random graphs (scalability of probability
//! computation, §VI-B / Fig. 6). Both generators live here, together with
//! the triangle enumeration required by the cycle constraint.

use crate::ids::SchemaId;
use rand::Rng;
use serde::Serialize;

/// Undirected graph over schema ids with adjacency lists and an edge list.
///
/// Edges are stored normalized (`lo < hi`) and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct InteractionGraph {
    vertex_count: usize,
    edges: Vec<(SchemaId, SchemaId)>,
    adjacency: Vec<Vec<SchemaId>>,
}

impl InteractionGraph {
    /// Creates a graph with `vertex_count` schemas and no edges.
    pub fn empty(vertex_count: usize) -> Self {
        Self { vertex_count, edges: Vec::new(), adjacency: vec![Vec::new(); vertex_count] }
    }

    /// Builds a graph from an explicit edge list.
    ///
    /// Self-loops are ignored; duplicate edges are inserted once.
    pub fn from_edges(
        vertex_count: usize,
        edges: impl IntoIterator<Item = (SchemaId, SchemaId)>,
    ) -> Self {
        let mut g = Self::empty(vertex_count);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Complete graph `K_n`: every schema pair is matched. This is the
    /// configuration used for the reconciliation experiments in the paper
    /// ("for each dataset, we generate a complete interaction graph").
    pub fn complete(vertex_count: usize) -> Self {
        let mut g = Self::empty(vertex_count);
        for i in 0..vertex_count {
            for j in (i + 1)..vertex_count {
                g.add_edge(SchemaId::from_index(i), SchemaId::from_index(j));
            }
        }
        g
    }

    /// Erdős–Rényi `G(n, p)` random graph, used by the paper to vary network
    /// size in the probability-computation experiment (Fig. 6).
    pub fn erdos_renyi(vertex_count: usize, p: f64, rng: &mut impl Rng) -> Self {
        let mut g = Self::empty(vertex_count);
        for i in 0..vertex_count {
            for j in (i + 1)..vertex_count {
                if rng.random_bool(p.clamp(0.0, 1.0)) {
                    g.add_edge(SchemaId::from_index(i), SchemaId::from_index(j));
                }
            }
        }
        g
    }

    /// Disjoint union of `count` cliques of `size` schemas each: schemas
    /// `g·size .. (g+1)·size` are pairwise matched, nothing crosses group
    /// boundaries. This is the interaction graph of a *federation* of
    /// independent sub-networks (many small webform clusters fused into
    /// one catalog) — with no cross-group edges there are no cross-group
    /// candidates, so the conflict graph decomposes into at least `count`
    /// components and the component-sharded probabilistic model
    /// factorizes.
    pub fn disjoint_cliques(count: usize, size: usize) -> Self {
        let mut g = Self::empty(count * size);
        for group in 0..count {
            let base = group * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(SchemaId::from_index(base + i), SchemaId::from_index(base + j));
                }
            }
        }
        g
    }

    /// Path `s_0 — s_1 — … — s_{n-1}`.
    pub fn path(vertex_count: usize) -> Self {
        let mut g = Self::empty(vertex_count);
        for i in 1..vertex_count {
            g.add_edge(SchemaId::from_index(i - 1), SchemaId::from_index(i));
        }
        g
    }

    /// Cycle `s_0 — s_1 — … — s_{n-1} — s_0` (needs `n ≥ 3`).
    pub fn cycle(vertex_count: usize) -> Self {
        let mut g = Self::path(vertex_count);
        if vertex_count >= 3 {
            g.add_edge(SchemaId::from_index(vertex_count - 1), SchemaId::from_index(0));
        }
        g
    }

    /// Star with `s_0` as hub.
    pub fn star(vertex_count: usize) -> Self {
        let mut g = Self::empty(vertex_count);
        for i in 1..vertex_count {
            g.add_edge(SchemaId::from_index(0), SchemaId::from_index(i));
        }
        g
    }

    /// Adds an undirected edge; ignores self-loops and duplicates.
    pub fn add_edge(&mut self, a: SchemaId, b: SchemaId) {
        if a == b {
            return;
        }
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        assert!(hi.index() < self.vertex_count, "edge endpoint {hi} out of range");
        if self.has_edge(lo, hi) {
            return;
        }
        self.edges.push((lo, hi));
        self.adjacency[lo.index()].push(hi);
        self.adjacency[hi.index()].push(lo);
    }

    /// Number of vertices (schemas).
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Normalized edge list (`lo < hi`).
    #[inline]
    pub fn edges(&self) -> &[(SchemaId, SchemaId)] {
        &self.edges
    }

    /// Neighbors of a schema.
    #[inline]
    pub fn neighbors(&self, s: SchemaId) -> &[SchemaId] {
        &self.adjacency[s.index()]
    }

    /// Whether the (undirected) edge exists.
    pub fn has_edge(&self, a: SchemaId, b: SchemaId) -> bool {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.adjacency.get(lo.index()).is_some_and(|n| n.contains(&hi))
    }

    /// Enumerates all triangles `(a, b, c)` with `a < b < c`.
    ///
    /// Triangles are the minimal cycles along which the cycle constraint of
    /// the paper (§II-A) is enforced by `smn-constraints`.
    pub fn triangles(&self) -> Vec<(SchemaId, SchemaId, SchemaId)> {
        let mut out = Vec::new();
        for &(a, b) in &self.edges {
            // only iterate common neighbors greater than b to emit each once
            for &c in self.neighbors(b) {
                if c.0 > b.0 && self.has_edge(a, c) {
                    out.push((a, b, c));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Connected-component count (isolated schemas count individually).
    pub fn component_count(&self) -> usize {
        let mut seen = vec![false; self.vertex_count];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..self.vertex_count {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(SchemaId::from_index(start));
            while let Some(v) = stack.pop() {
                for &n in self.neighbors(v) {
                    if !seen[n.index()] {
                        seen[n.index()] = true;
                        stack.push(n);
                    }
                }
            }
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_has_all_pairs() {
        let g = InteractionGraph::complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.has_edge(SchemaId(0), SchemaId(4)));
        assert!(g.has_edge(SchemaId(4), SchemaId(0)));
        assert_eq!(g.triangles().len(), 10); // C(5,3)
    }

    #[test]
    fn triangle_enumeration_on_known_graph() {
        // square with one diagonal: 0-1, 1-2, 2-3, 3-0, 0-2
        let g = InteractionGraph::from_edges(
            4,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)].map(|(a, b)| (SchemaId(a), SchemaId(b))),
        );
        let tris = g.triangles();
        assert_eq!(
            tris,
            vec![(SchemaId(0), SchemaId(1), SchemaId(2)), (SchemaId(0), SchemaId(2), SchemaId(3))]
        );
    }

    #[test]
    fn self_loops_and_duplicates_ignored() {
        let mut g = InteractionGraph::empty(3);
        g.add_edge(SchemaId(1), SchemaId(1));
        assert_eq!(g.edge_count(), 0);
        g.add_edge(SchemaId(0), SchemaId(1));
        g.add_edge(SchemaId(1), SchemaId(0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn path_cycle_star_shapes() {
        let p = InteractionGraph::path(4);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.triangles().len(), 0);
        assert_eq!(p.component_count(), 1);

        let c = InteractionGraph::cycle(4);
        assert_eq!(c.edge_count(), 4);
        assert!(c.has_edge(SchemaId(3), SchemaId(0)));

        let c3 = InteractionGraph::cycle(3);
        assert_eq!(c3.triangles().len(), 1);

        let s = InteractionGraph::star(5);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.neighbors(SchemaId(0)).len(), 4);
        assert_eq!(s.triangles().len(), 0);
    }

    #[test]
    fn disjoint_cliques_have_no_cross_edges() {
        let g = InteractionGraph::disjoint_cliques(3, 4);
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 3 * 6); // 3 × C(4,2)
        assert_eq!(g.component_count(), 3);
        assert_eq!(g.triangles().len(), 3 * 4); // 3 × C(4,3)
        assert!(g.has_edge(SchemaId(0), SchemaId(3)));
        assert!(!g.has_edge(SchemaId(3), SchemaId(4)), "no edge across groups");
        // degenerate shapes
        assert_eq!(InteractionGraph::disjoint_cliques(0, 5).vertex_count(), 0);
        assert_eq!(InteractionGraph::disjoint_cliques(4, 1).edge_count(), 0);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(42);
        let g0 = InteractionGraph::erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(g0.edge_count(), 0);
        assert_eq!(g0.component_count(), 10);
        let g1 = InteractionGraph::erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(g1.edge_count(), 45);
    }

    #[test]
    fn erdos_renyi_is_seed_deterministic() {
        let a = InteractionGraph::erdos_renyi(20, 0.3, &mut StdRng::seed_from_u64(7));
        let b = InteractionGraph::erdos_renyi(20, 0.3, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = InteractionGraph::empty(2);
        g.add_edge(SchemaId(0), SchemaId(5));
    }

    #[test]
    fn component_count_counts_islands() {
        let g = InteractionGraph::from_edges(
            5,
            [(SchemaId(0), SchemaId(1)), (SchemaId(2), SchemaId(3))],
        );
        assert_eq!(g.component_count(), 3);
    }
}
