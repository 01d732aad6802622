//! Classical initialization strategies.
//!
//! * [`cafqa_initialize`] — a CAFQA-style Clifford-point search (paper Section 8.5): ansatz
//!   angles are restricted to multiples of π/2 (where the hardware-efficient ansatz is a
//!   Clifford circuit), and a greedy coordinate-descent search over that discrete space is
//!   evaluated **classically** — no execution shots are ever charged.  The original CAFQA
//!   uses a stabilizer simulator for scalability; at this reproduction's register sizes the
//!   exact statevector plays that role.
//! * [`red_qaoa_initial_point`] — a Red-QAOA-style initializer (paper Section 8.8): QAOA
//!   parameters are derived from a pooled (coarsened) graph and shared by all isomorphic
//!   instances of the family.

use crate::task::InitialState;
use qcircuit::{Circuit, QaoaAnsatz};
use qgraph::{pool_graph, WeightedGraph};
use qop::PauliOp;

/// Result of a CAFQA-style Clifford search.
#[derive(Clone, Debug)]
pub struct CafqaResult {
    /// The best Clifford-point parameters found.
    pub params: Vec<f64>,
    /// The (classically evaluated) energy at those parameters.
    pub energy: f64,
    /// Number of classical circuit evaluations performed.
    pub evaluations: usize,
}

/// Searches the Clifford points of an ansatz for the lowest energy of `target`.
///
/// Greedy coordinate descent: sweeps every parameter `sweeps` times, trying the four
/// Clifford angles `{0, π/2, π, 3π/2}` for each while holding the others fixed.  All
/// evaluations are classical (exact statevector); no shots are charged.
///
/// # Panics
///
/// Panics if the ansatz has no parameters.
pub fn cafqa_initialize(
    ansatz: &Circuit,
    initial: &InitialState,
    target: &PauliOp,
    sweeps: usize,
) -> CafqaResult {
    let num_params = ansatz.num_parameters();
    assert!(num_params > 0, "CAFQA needs a parameterized ansatz");
    let clifford_angles = [
        0.0,
        std::f64::consts::FRAC_PI_2,
        std::f64::consts::PI,
        1.5 * std::f64::consts::PI,
    ];

    let init_state = initial.prepare(ansatz.num_qubits());
    // Lower the ansatz once for the whole sweep (re-binding θ per evaluation is O(ops)),
    // and keep one scratch statevector that each evaluation re-prepares in place instead
    // of allocating a fresh state.
    let compiled = qsim::CompiledCircuit::compile(ansatz);
    let mut scratch = init_state.clone();
    // One term basis for the whole sweep: every evaluation reads the same operator out.
    let basis = qop::TermBasis::new(&[target]);
    let mut values = Vec::new();
    let mut evaluate = |params: &[f64]| -> f64 {
        compiled.execute_into(params, &init_state, &mut scratch);
        basis.evaluate(&scratch, &mut values);
        basis.op_value(0, &values)
    };

    let mut params = vec![0.0; num_params];
    let mut best_energy = evaluate(&params);
    let mut evaluations = 1usize;

    for _ in 0..sweeps.max(1) {
        let mut improved = false;
        for i in 0..num_params {
            let original = params[i];
            let mut best_angle = original;
            for &angle in &clifford_angles {
                if (angle - original).abs() < 1e-12 {
                    continue;
                }
                params[i] = angle;
                let energy = evaluate(&params);
                evaluations += 1;
                if energy < best_energy - 1e-12 {
                    best_energy = energy;
                    best_angle = angle;
                    improved = true;
                }
            }
            params[i] = best_angle;
        }
        if !improved {
            break;
        }
    }

    CafqaResult {
        params,
        energy: best_energy,
        evaluations,
    }
}

/// Derives a shared QAOA starting point from a pooled version of the graph, in the spirit
/// of Red-QAOA's graph-reduction warm start.
///
/// The pooled graph's mean edge weight rescales the phasing (γ) entries of the standard
/// linear-ramp schedule so that heavier instance families start with proportionally
/// smaller phase angles.
pub fn red_qaoa_initial_point(ansatz: &QaoaAnsatz, graph: &WeightedGraph) -> Vec<f64> {
    let pooled = pool_graph(graph);
    let base_mean = graph.mean_weight().max(1e-9);
    let pooled_mean = if pooled.graph.num_edges() > 0 {
        pooled.graph.mean_weight()
    } else {
        base_mean
    };
    // Heavier (pooled) weights → smaller initial phase angles, bounded to a sane range.
    let gamma_scale = (base_mean / pooled_mean).clamp(0.25, 1.0);

    let mut point = ansatz.ramp_parameters();
    match ansatz.style() {
        qcircuit::QaoaStyle::Standard => {
            for (i, v) in point.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v *= gamma_scale;
                }
            }
        }
        qcircuit::QaoaStyle::MultiAngle => {
            let m = ansatz.num_cost_terms();
            let n = ansatz.num_qubits();
            let stride = m + n;
            for (i, v) in point.iter_mut().enumerate() {
                if i % stride < m {
                    *v *= gamma_scale;
                }
            }
        }
    }
    point
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Entanglement, HardwareEfficientAnsatz, QaoaStyle};
    use qgraph::maxcut_cost_hamiltonian;
    use qop::{ground_energy, LanczosOptions};

    #[test]
    fn cafqa_improves_over_the_all_zero_point_for_ising() {
        // Transverse-field Ising at small field: the ground state is nearly classical, so
        // a Clifford point should capture most of the energy.
        let ham = qchem::transverse_field_ising(4, 1.0, 0.2);
        let ansatz = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular).build();
        let initial = InitialState::Basis(0);

        let zero_energy = {
            let state = qsim::run_circuit(
                &ansatz,
                &vec![0.0; ansatz.num_parameters()],
                &initial.prepare(4),
            );
            ham.expectation(&state)
        };
        let result = cafqa_initialize(&ansatz, &initial, &ham, 2);
        assert!(result.energy <= zero_energy + 1e-9);
        let exact = ground_energy(&ham, &LanczosOptions::default());
        let fidelity = 1.0 - (exact - result.energy).abs() / exact.abs();
        assert!(fidelity > 0.9, "CAFQA fidelity too low: {fidelity}");
        assert!(result.evaluations > ansatz.num_parameters());
    }

    #[test]
    fn cafqa_parameters_are_clifford_angles() {
        let ham = qchem::transverse_field_ising(3, 1.0, 0.5);
        let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build();
        let result = cafqa_initialize(&ansatz, &InitialState::Basis(0), &ham, 1);
        for p in &result.params {
            let quarter_turns = p / std::f64::consts::FRAC_PI_2;
            assert!(
                (quarter_turns - quarter_turns.round()).abs() < 1e-9,
                "parameter {p} is not a Clifford angle"
            );
        }
    }

    #[test]
    fn red_qaoa_point_has_correct_length_and_scaling() {
        let graph = qgraph::ieee14_base_graph();
        let cost = maxcut_cost_hamiltonian(&graph);
        for style in [QaoaStyle::Standard, QaoaStyle::MultiAngle] {
            let ansatz = QaoaAnsatz::new(&cost, 2, style).unwrap();
            let point = red_qaoa_initial_point(&ansatz, &graph);
            assert_eq!(point.len(), ansatz.num_parameters());
            // Gamma entries must be no larger than the plain ramp's.
            let ramp = ansatz.ramp_parameters();
            assert!(point.iter().zip(ramp.iter()).all(|(a, b)| *a <= *b + 1e-12));
        }
    }

    #[test]
    fn red_qaoa_point_is_shared_across_isomorphic_instances() {
        // The initializer depends only on the base topology scale, so two instances from
        // the same family should receive identical starting points when built from the
        // same reference graph — this is how the paper uses Red-QAOA (one init for all).
        let family = qgraph::Ieee14Family::new(0.9, 1.1, 3);
        let graphs = family.graphs();
        let cost = maxcut_cost_hamiltonian(&graphs[0]);
        let ansatz = QaoaAnsatz::new(&cost, 1, QaoaStyle::MultiAngle).unwrap();
        let a = red_qaoa_initial_point(&ansatz, &graphs[0]);
        let b = red_qaoa_initial_point(&ansatz, &graphs[0]);
        assert_eq!(a, b);
    }
}
