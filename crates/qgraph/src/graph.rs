//! Weighted undirected graphs and exact MaxCut utilities.

/// An undirected weighted graph stored as an edge list.
///
/// # Examples
///
/// ```
/// use qgraph::WeightedGraph;
///
/// let mut g = WeightedGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 2.0);
/// assert_eq!(g.num_edges(), 2);
/// assert!((g.total_weight() - 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedGraph {
    num_nodes: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl WeightedGraph {
    /// Creates an empty graph on `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        WeightedGraph {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list as `(u, v, weight)` triples with `u < v`.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if `u == v`, or if the edge already
    /// exists.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "vertex out of range"
        );
        assert_ne!(u, v, "self-loops are not allowed");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        assert!(
            !self.edges.iter().any(|&(x, y, _)| x == a && y == b),
            "edge ({a}, {b}) already present"
        );
        self.edges.push((a, b, weight));
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Returns a copy with every edge weight multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> WeightedGraph {
        WeightedGraph {
            num_nodes: self.num_nodes,
            edges: self
                .edges
                .iter()
                .map(|&(u, v, w)| (u, v, w * factor))
                .collect(),
        }
    }

    /// Returns a copy with per-edge weights transformed by `f(edge_index, weight)`.
    pub fn map_weights(&self, mut f: impl FnMut(usize, f64) -> f64) -> WeightedGraph {
        WeightedGraph {
            num_nodes: self.num_nodes,
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, &(u, v, w))| (u, v, f(i, w)))
                .collect(),
        }
    }

    /// The cut value of the vertex bipartition encoded by `assignment` (bit `q` of the
    /// integer gives the side of vertex `q`).
    pub fn cut_value(&self, assignment: u64) -> f64 {
        self.edges
            .iter()
            .map(|&(u, v, w)| {
                let su = (assignment >> u) & 1;
                let sv = (assignment >> v) & 1;
                if su != sv {
                    w
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Exhaustively computes the maximum cut.  Returns `(best_cut_value, assignment)`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 24 vertices (2^24 assignments is the practical
    /// limit for a test-time brute force).
    pub fn max_cut_brute_force(&self) -> (f64, u64) {
        assert!(
            self.num_nodes <= 24,
            "brute-force MaxCut is limited to 24 vertices"
        );
        let mut best = (f64::NEG_INFINITY, 0u64);
        // Fixing vertex 0's side halves the search space (cuts are symmetric).
        for assignment in 0..(1u64 << self.num_nodes.saturating_sub(1)) {
            let value = self.cut_value(assignment);
            if value > best.0 {
                best = (value, assignment);
            }
        }
        best
    }

    /// Mean edge weight (0.0 for an edgeless graph).
    pub fn mean_weight(&self) -> f64 {
        if self.edges.is_empty() {
            0.0
        } else {
            self.total_weight() / self.edges.len() as f64
        }
    }
}

/// The average squared deviation of each graph's edge weights from the edge-wise mean
/// graph — the "edge weight variance" metric plotted in the paper's Figure 12.
///
/// All graphs must share the same topology (same node count, same edge order).
///
/// # Panics
///
/// Panics if `graphs` is empty or the topologies differ.
pub fn edge_weight_variance(graphs: &[WeightedGraph]) -> f64 {
    assert!(!graphs.is_empty(), "need at least one graph");
    let num_edges = graphs[0].num_edges();
    for g in graphs {
        assert_eq!(g.num_edges(), num_edges, "graphs must share topology");
        assert_eq!(
            g.num_nodes(),
            graphs[0].num_nodes(),
            "graphs must share topology"
        );
        for (e, e0) in g.edges().iter().zip(graphs[0].edges()) {
            assert_eq!((e.0, e.1), (e0.0, e0.1), "graphs must share edge order");
        }
    }
    let mut mean = vec![0.0f64; num_edges];
    for g in graphs {
        for (m, &(_, _, w)) in mean.iter_mut().zip(g.edges()) {
            *m += w;
        }
    }
    for m in mean.iter_mut() {
        *m /= graphs.len() as f64;
    }
    let mut var = 0.0;
    for g in graphs {
        for (m, &(_, _, w)) in mean.iter().zip(g.edges()) {
            var += (w - m) * (w - m);
        }
    }
    var / (graphs.len() * num_edges) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        g
    }

    #[test]
    fn cut_values_of_triangle() {
        let g = triangle();
        // Putting one vertex alone cuts two edges.
        assert_eq!(g.cut_value(0b001), 2.0);
        assert_eq!(g.cut_value(0b010), 2.0);
        // All on one side cuts nothing.
        assert_eq!(g.cut_value(0b000), 0.0);
        let (best, _) = g.max_cut_brute_force();
        assert_eq!(best, 2.0);
    }

    #[test]
    fn weighted_max_cut_prefers_heavy_edges() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 10.0);
        g.add_edge(3, 0, 1.0);
        let (best, assignment) = g.max_cut_brute_force();
        assert_eq!(best, 22.0);
        assert_eq!(g.cut_value(assignment), 22.0);
    }

    #[test]
    fn scaled_and_map_weights() {
        let g = triangle().scaled(2.0);
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
        let g2 = g.map_weights(|i, w| if i == 0 { 0.0 } else { w });
        assert!((g2.total_weight() - 4.0).abs() < 1e-12);
        assert!((g2.mean_weight() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_identical_graphs_is_zero() {
        let graphs = vec![triangle(); 5];
        assert!(edge_weight_variance(&graphs) < 1e-15);
    }

    #[test]
    fn variance_grows_with_spread() {
        let narrow: Vec<WeightedGraph> = [0.9, 1.0, 1.1]
            .iter()
            .map(|&s| triangle().scaled(s))
            .collect();
        let wide: Vec<WeightedGraph> = [0.5, 1.0, 1.5]
            .iter()
            .map(|&s| triangle().scaled(s))
            .collect();
        assert!(edge_weight_variance(&wide) > edge_weight_variance(&narrow));
    }

    #[test]
    #[should_panic]
    fn duplicate_edge_panics() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(1, 1, 1.0);
    }
}
