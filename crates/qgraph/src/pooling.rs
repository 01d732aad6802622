//! Graph pooling (coarsening) in the spirit of Red-QAOA.
//!
//! Red-QAOA (Wang et al., ASPLOS 2024) accelerates QAOA parameter search by optimizing on
//! a pooled (reduced) graph and transferring the parameters to the full graph.  The paper
//! uses it only as a classical initializer that supplies one shared starting point for all
//! isomorphic IEEE-14 instances (Section 8.8).  This module provides the pooling primitive
//! (greedy heavy-edge matching) used by the initializer in the `vqa` crate.

use crate::graph::WeightedGraph;

/// Result of one pooling (coarsening) pass.
#[derive(Clone, Debug, PartialEq)]
pub struct PooledGraph {
    /// The coarsened graph.
    pub graph: WeightedGraph,
    /// For each original vertex, the index of the super-vertex it was merged into.
    pub assignment: Vec<usize>,
}

/// Coarsens a graph by greedy heavy-edge matching: repeatedly merge the heaviest edge whose
/// endpoints are both unmatched, until no such edge remains.  Edge weights between
/// super-vertices are summed.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn pool_graph(graph: &WeightedGraph) -> PooledGraph {
    let n = graph.num_nodes();
    assert!(n > 0, "cannot pool an empty graph");

    let mut edges: Vec<(usize, usize, f64)> = graph.edges().to_vec();
    edges.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));

    let mut matched = vec![false; n];
    let mut partner: Vec<Option<usize>> = vec![None; n];
    for &(u, v, _) in &edges {
        if !matched[u] && !matched[v] {
            matched[u] = true;
            matched[v] = true;
            partner[u] = Some(v);
            partner[v] = Some(u);
        }
    }

    // Assign super-vertex ids.
    let mut assignment = vec![usize::MAX; n];
    let mut next_id = 0usize;
    for v in 0..n {
        if assignment[v] != usize::MAX {
            continue;
        }
        assignment[v] = next_id;
        if let Some(p) = partner[v] {
            assignment[p] = next_id;
        }
        next_id += 1;
    }

    // Accumulate super-edge weights.
    let mut weight_map: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for &(u, v, w) in graph.edges() {
        let (a, b) = (assignment[u], assignment[v]);
        if a == b {
            continue; // internal edge of a super-vertex
        }
        let key = if a < b { (a, b) } else { (b, a) };
        *weight_map.entry(key).or_insert(0.0) += w;
    }
    let mut pooled = WeightedGraph::new(next_id);
    for ((a, b), w) in weight_map {
        pooled.add_edge(a, b, w);
    }
    PooledGraph {
        graph: pooled,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooling_halves_a_perfect_matching_graph() {
        // Two disjoint heavy edges: pooling should merge each pair.
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 5.0);
        g.add_edge(2, 3, 4.0);
        g.add_edge(1, 2, 0.1);
        let pooled = pool_graph(&g);
        assert_eq!(pooled.graph.num_nodes(), 2);
        assert_eq!(pooled.assignment[0], pooled.assignment[1]);
        assert_eq!(pooled.assignment[2], pooled.assignment[3]);
        assert_ne!(pooled.assignment[0], pooled.assignment[2]);
        // The only surviving edge is the light connector.
        assert_eq!(pooled.graph.num_edges(), 1);
        assert!((pooled.graph.edges()[0].2 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn pooling_preserves_total_weight_minus_internal_edges() {
        let g = super::super::ieee14::ieee14_base_graph();
        let pooled = pool_graph(&g);
        assert!(pooled.graph.num_nodes() < g.num_nodes());
        assert!(pooled.graph.num_nodes() >= g.num_nodes() / 2);
        assert!(pooled.graph.total_weight() <= g.total_weight() + 1e-12);
        // Every original vertex is assigned to a valid super-vertex.
        assert!(pooled
            .assignment
            .iter()
            .all(|&a| a < pooled.graph.num_nodes()));
    }

    #[test]
    fn isolated_vertices_survive_as_their_own_super_vertex() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        let pooled = pool_graph(&g);
        assert_eq!(pooled.graph.num_nodes(), 2);
        assert_eq!(pooled.assignment[2], 1);
    }

    #[test]
    fn parallel_super_edges_are_merged() {
        // A square where pooling merges (0,1) and (2,3): the two cross edges become one
        // super-edge with summed weight.
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 10.0);
        g.add_edge(2, 3, 9.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 3, 2.0);
        let pooled = pool_graph(&g);
        assert_eq!(pooled.graph.num_nodes(), 2);
        assert_eq!(pooled.graph.num_edges(), 1);
        assert!((pooled.graph.edges()[0].2 - 3.0).abs() < 1e-12);
    }
}
