//! The IEEE 14-bus test system as a weighted MaxCut workload family.
//!
//! The paper models the IEEE 14-bus power grid as a 14-node weighted graph (buses =
//! vertices, transmission lines/transformers = edges) and generates a family of 10
//! isomorphic MaxCut instances per load-scale range by varying the edge weights
//! (Section 7.1 "QAOA Benchmark" and Section 8.8).  This module ships the standard 20-edge
//! topology with branch reactances from the canonical test case, derives capacity-like
//! base weights (`1/x` normalized), and generates load-scaled weight families whose
//! edge-weight variance shrinks as the load range narrows — the x-axis of Figure 12.

use crate::graph::{edge_weight_variance, WeightedGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Branch list of the IEEE 14-bus test case: `(from_bus, to_bus, reactance_x_pu)` with
/// 1-based bus numbering as in the original data.
pub const IEEE14_BRANCHES: [(usize, usize, f64); 20] = [
    (1, 2, 0.05917),
    (1, 5, 0.22304),
    (2, 3, 0.19797),
    (2, 4, 0.17632),
    (2, 5, 0.17388),
    (3, 4, 0.17103),
    (4, 5, 0.04211),
    (4, 7, 0.20912),
    (4, 9, 0.55618),
    (5, 6, 0.25202),
    (6, 11, 0.19890),
    (6, 12, 0.25581),
    (6, 13, 0.13027),
    (7, 8, 0.17615),
    (7, 9, 0.11001),
    (9, 10, 0.08450),
    (9, 14, 0.27038),
    (10, 11, 0.19207),
    (12, 13, 0.19988),
    (13, 14, 0.34802),
];

/// Builds the base IEEE 14-bus graph with capacity-like weights `w = (1/x)` normalized so
/// that the largest weight is 1.
pub fn ieee14_base_graph() -> WeightedGraph {
    let mut graph = WeightedGraph::new(14);
    let max_capacity = IEEE14_BRANCHES
        .iter()
        .map(|&(_, _, x)| 1.0 / x)
        .fold(f64::MIN, f64::max);
    for &(from, to, x) in &IEEE14_BRANCHES {
        graph.add_edge(from - 1, to - 1, (1.0 / x) / max_capacity);
    }
    graph
}

/// A family of load-scaled IEEE 14-bus MaxCut instances.
///
/// Each of the `num_graphs` instances corresponds to one equally spaced load scale in
/// `[load_min, load_max]`; each edge responds to the load scale with its own sensitivity,
/// so different instances are genuinely different MaxCut problems (not scalar multiples of
/// one another), while narrower load ranges yield more similar instances.
#[derive(Clone, Debug, PartialEq)]
pub struct Ieee14Family {
    /// Lower end of the load-scale range.
    pub load_min: f64,
    /// Upper end of the load-scale range.
    pub load_max: f64,
    /// Number of instances (the paper uses 10).
    pub num_graphs: usize,
    /// Seed for the per-edge load sensitivities.
    pub seed: u64,
}

impl Ieee14Family {
    /// Creates a family over `[load_min, load_max]` with the paper's default of 10 graphs.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or `num_graphs == 0`.
    pub fn new(load_min: f64, load_max: f64, num_graphs: usize) -> Self {
        assert!(load_min < load_max, "load range must be non-empty");
        assert!(num_graphs > 0);
        Ieee14Family {
            load_min,
            load_max,
            num_graphs,
            seed: 0x1EEE14,
        }
    }

    /// The three load-scale ranges evaluated in the paper's Figure 12.
    pub fn paper_ranges() -> Vec<(String, Ieee14Family)> {
        vec![
            ("0.5:1.5".to_string(), Ieee14Family::new(0.5, 1.5, 10)),
            ("0.8:1.2".to_string(), Ieee14Family::new(0.8, 1.2, 10)),
            ("0.9:1.1".to_string(), Ieee14Family::new(0.9, 1.1, 10)),
        ]
    }

    /// The equally spaced load scales of this family.
    pub fn load_scales(&self) -> Vec<f64> {
        if self.num_graphs == 1 {
            return vec![0.5 * (self.load_min + self.load_max)];
        }
        (0..self.num_graphs)
            .map(|i| {
                self.load_min
                    + (self.load_max - self.load_min) * i as f64 / (self.num_graphs - 1) as f64
            })
            .collect()
    }

    /// Per-edge load sensitivities in `[0.3, 1.0]` (deterministic for the family seed).
    fn sensitivities(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..IEEE14_BRANCHES.len())
            .map(|_| 0.3 + 0.7 * rng.random::<f64>())
            .collect()
    }

    /// Generates the family's graphs, one per load scale.
    pub fn graphs(&self) -> Vec<WeightedGraph> {
        let base = ieee14_base_graph();
        let sens = self.sensitivities();
        self.load_scales()
            .into_iter()
            .map(|scale| base.map_weights(|edge, w| w * (1.0 + (scale - 1.0) * sens[edge])))
            .collect()
    }

    /// The edge-weight variance of the generated family (the purple bars of Figure 12).
    pub fn edge_weight_variance(&self) -> f64 {
        edge_weight_variance(&self.graphs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut_cost_hamiltonian;
    use qop::{ground_energy, LanczosOptions};

    #[test]
    fn base_graph_matches_ieee14_topology() {
        let g = ieee14_base_graph();
        assert_eq!(g.num_nodes(), 14);
        assert_eq!(g.num_edges(), 20);
        // Weights are normalized into (0, 1].
        assert!(g
            .edges()
            .iter()
            .all(|&(_, _, w)| w > 0.0 && w <= 1.0 + 1e-12));
        let max_w = g
            .edges()
            .iter()
            .map(|&(_, _, w)| w)
            .fold(f64::MIN, f64::max);
        assert!((max_w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn families_share_topology_and_differ_in_weights() {
        let family = Ieee14Family::new(0.5, 1.5, 10);
        let graphs = family.graphs();
        assert_eq!(graphs.len(), 10);
        for g in &graphs {
            assert_eq!(g.num_edges(), 20);
            assert_eq!(g.num_nodes(), 14);
        }
        assert_ne!(graphs[0], graphs[9]);
    }

    #[test]
    fn narrower_load_ranges_have_lower_variance() {
        let (_, wide) = &Ieee14Family::paper_ranges()[0];
        let (_, mid) = &Ieee14Family::paper_ranges()[1];
        let (_, narrow) = &Ieee14Family::paper_ranges()[2];
        let v_wide = wide.edge_weight_variance();
        let v_mid = mid.edge_weight_variance();
        let v_narrow = narrow.edge_weight_variance();
        assert!(
            v_wide > v_mid && v_mid > v_narrow,
            "{v_wide} > {v_mid} > {v_narrow}"
        );
        assert!(v_narrow > 0.0);
    }

    #[test]
    fn load_scales_are_evenly_spaced() {
        let family = Ieee14Family::new(0.8, 1.2, 5);
        let scales = family.load_scales();
        assert_eq!(scales.len(), 5);
        assert!((scales[0] - 0.8).abs() < 1e-12);
        assert!((scales[4] - 1.2).abs() < 1e-12);
        assert!((scales[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reference_energy_is_minus_the_brute_force_max_cut() {
        // The cost Hamiltonians are diagonal, so `ground_energy` scans the diagonal
        // exactly instead of iterating: the reference is −(max cut) to rounding.
        let family = Ieee14Family::new(0.9, 1.1, 4).graphs();
        for graph in std::iter::once(ieee14_base_graph()).chain(family) {
            let e0 = ground_energy(&maxcut_cost_hamiltonian(&graph), &LanczosOptions::default());
            let (max_cut, _) = graph.max_cut_brute_force();
            assert!((e0 + max_cut).abs() < 1e-12, "{e0} vs −{max_cut}");
        }
    }

    #[test]
    fn graphs_are_deterministic() {
        let a = Ieee14Family::new(0.9, 1.1, 10).graphs();
        let b = Ieee14Family::new(0.9, 1.1, 10).graphs();
        assert_eq!(a, b);
    }

    #[test]
    fn instances_are_not_scalar_multiples() {
        // The ratio of corresponding edge weights must differ across edges, otherwise the
        // family would be trivial for TreeVQA.
        let graphs = Ieee14Family::new(0.5, 1.5, 10).graphs();
        let first = graphs.first().unwrap();
        let last = graphs.last().unwrap();
        let ratios: Vec<f64> = first
            .edges()
            .iter()
            .zip(last.edges())
            .map(|(a, b)| b.2 / a.2)
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 0.05,
            "edge responses to load should differ: {min}..{max}"
        );
    }
}
