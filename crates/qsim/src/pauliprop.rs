//! Heisenberg-picture Pauli propagation with weight truncation.
//!
//! This is the reproduction of the `PauliPropagation` method the paper uses for its
//! large-scale benchmarks (Section 7.4 and 8.4): instead of evolving the `2^n`-amplitude
//! state, the *observable* is propagated backwards through the circuit as a sum of Pauli
//! strings.  Truncating strings whose weight exceeds a cap (the paper truncates above
//! weight 8) or whose coefficient is negligible keeps the term count bounded, enabling
//! 25–50-qubit simulations with controlled error.
//!
//! The sum is one vector of `(x mask, z mask, coefficient)` paths with distinct masks.
//! A Clifford gate rewrites every path's masks and sign in place (the symplectic rules
//! in [`conjugate_clifford`]); a rotation splits each anticommuting path into a `cos`/`sin`
//! pair, and one stable sort by masks then merges equal strings in vector order.  No step
//! depends on a hash seed or a thread, so a propagated sum — and every expectation read
//! from it — is a pure function of (circuit, params, observable, config), the same bits
//! on every call.

use qcircuit::{Circuit, Gate};
use qop::{Pauli, PauliOp, PauliString};

/// One path of the propagated sum: its X mask, Z mask and coefficient.
type Path = (u64, u64, f64);

/// Configuration of the Pauli-propagation simulator.
#[derive(Clone, Copy, Debug)]
pub struct PauliPropagatorConfig {
    /// Strings with Pauli weight above this cap are discarded (paper default: 8).
    pub max_weight: u32,
    /// Strings whose absolute coefficient drops below this threshold are discarded.
    pub coefficient_threshold: f64,
    /// Hard cap on the number of retained strings (keeps memory bounded); the smallest
    /// coefficients are dropped first when the cap is exceeded, ties broken by keeping
    /// the lower `(x, z)` masks — a total order, so the kept set is a function of the
    /// coefficients alone.
    pub max_terms: usize,
}

impl Default for PauliPropagatorConfig {
    fn default() -> Self {
        PauliPropagatorConfig {
            max_weight: 8,
            coefficient_threshold: 1e-10,
            max_terms: 200_000,
        }
    }
}

/// Heisenberg-picture simulator: computes `⟨b|U†(θ) H U(θ)|b⟩` without a statevector.
#[derive(Clone, Debug, Default)]
pub struct PauliPropagator {
    config: PauliPropagatorConfig,
}

impl PauliPropagator {
    /// Creates a propagator with the given configuration.
    pub fn new(config: PauliPropagatorConfig) -> Self {
        PauliPropagator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PauliPropagatorConfig {
        &self.config
    }

    /// Computes the expectation value of `observable` after running `circuit` (with bound
    /// `params`) on the computational basis state `|initial_basis⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit and observable register sizes differ.
    pub fn expectation(
        &self,
        circuit: &Circuit,
        params: &[f64],
        observable: &PauliOp,
        initial_basis: u64,
    ) -> f64 {
        assert_eq!(
            circuit.num_qubits(),
            observable.num_qubits(),
            "circuit/observable register mismatch"
        );
        let propagated = self.propagate(circuit, params, observable);
        // Evaluate on the product state |initial_basis⟩: only X/Y-free strings survive.
        propagated
            .iter()
            .filter(|(string, _)| string.x_mask() == 0)
            .map(|(string, coeff)| {
                let parity = (initial_basis & string.z_mask()).count_ones() % 2;
                if parity == 0 {
                    *coeff
                } else {
                    -coeff
                }
            })
            .sum()
    }

    /// Propagates the observable backwards through the circuit and returns the resulting
    /// Pauli sum (before projection onto an initial state).
    pub fn propagate(
        &self,
        circuit: &Circuit,
        params: &[f64],
        observable: &PauliOp,
    ) -> Vec<(PauliString, f64)> {
        let n = circuit.num_qubits();
        let mut paths: Vec<Path> = observable
            .terms()
            .iter()
            .map(|t| (t.string.x_mask(), t.string.z_mask(), t.coefficient))
            .collect();
        merge_equal_strings(&mut paths);

        // Heisenberg evolution processes gates in reverse order: H ← G† H G for the last
        // gate first.
        for gate in circuit.gates().iter().rev() {
            if let Some(angle) = gate.angle() {
                let axis = match *gate {
                    Gate::Rx(q, _) => PauliString::single(n, q, Pauli::X),
                    Gate::Ry(q, _) => PauliString::single(n, q, Pauli::Y),
                    Gate::Rz(q, _) => PauliString::single(n, q, Pauli::Z),
                    Gate::PauliRotation(axis, _) => axis,
                    _ => unreachable!("only rotations carry an angle"),
                };
                rotate(&mut paths, &axis, angle.resolve(params));
            } else {
                conjugate_clifford(&mut paths, gate);
            }
            self.truncate(&mut paths);
        }

        paths
            .into_iter()
            .filter(|&(_, _, c)| c.abs() > self.config.coefficient_threshold)
            .map(|(x, z, c)| (PauliString::from_masks(x, z, n), c))
            .collect()
    }

    /// Drops paths that are too heavy or too small, then — if more than `max_terms`
    /// remain — keeps the largest by `(|c| descending, masks ascending)`.
    fn truncate(&self, paths: &mut Vec<Path>) {
        let config = &self.config;
        paths.retain(|&(x, z, c)| {
            c.abs() > config.coefficient_threshold && (x | z).count_ones() <= config.max_weight
        });
        if paths.len() > config.max_terms {
            paths.sort_by(|a, b| {
                b.2.abs()
                    .total_cmp(&a.2.abs())
                    .then((a.0, a.1).cmp(&(b.0, b.1)))
            });
            paths.truncate(config.max_terms);
        }
    }
}

/// Applies the Heisenberg image of `exp(-iθ/2 Q)`:
/// `P → P` if `[P, Q] = 0`, else `P → cos(θ)·P + sin(θ)·(-i·P·Q)`.
fn rotate(paths: &mut Vec<Path>, axis: &PauliString, theta: f64) {
    let (sin, cos) = theta.sin_cos();
    for i in 0..paths.len() {
        let (x, z, c) = paths[i];
        let p = PauliString::from_masks(x, z, axis.num_qubits());
        if !p.commutes_with(axis) {
            // P·Q = ±i·R when P and Q anticommute, so -i·P·Q = ±R with the sign Im(phase).
            let (product, phase) = p.mul(axis);
            paths[i].2 = c * cos;
            paths.push((product.x_mask(), product.z_mask(), c * sin * phase.im));
        }
    }
    merge_equal_strings(paths);
}

/// Sorts the paths by masks (stably) and sums each run of equal strings in vector order.
fn merge_equal_strings(paths: &mut Vec<Path>) {
    paths.sort_by_key(|&(x, z, _)| (x, z));
    paths.dedup_by(|later, kept| {
        let equal = (later.0, later.1) == (kept.0, kept.1);
        if equal {
            kept.2 += later.2;
        }
        equal
    });
}

/// Conjugates every path by a Clifford gate in place, `P → G† P G`: the symplectic rule
/// rewrites the masks, and the sign flips where the image picks up a `-1`.
fn conjugate_clifford(paths: &mut [Path], gate: &Gate) {
    let bit = |mask: u64, q: usize| (mask >> q) & 1;
    match *gate {
        // X ↔ Z, Y → −Y.
        Gate::H(q) => map_paths(paths, |x, z| {
            let swap = (bit(x, q) ^ bit(z, q)) << q;
            (x ^ swap, z ^ swap, bit(x & z, q) == 1)
        }),
        // A Pauli gate negates the strings it anticommutes with on qubit q.
        Gate::X(q) => map_paths(paths, |x, z| (x, z, bit(z, q) == 1)),
        Gate::Y(q) => map_paths(paths, |x, z| (x, z, bit(x ^ z, q) == 1)),
        Gate::Z(q) => map_paths(paths, |x, z| (x, z, bit(x, q) == 1)),
        // S† X S = −Y, S† Y S = X; S† flips both signs (X → Y, Y → −X).
        Gate::S(q) | Gate::Sdg(q) => {
            let negate_z = u64::from(matches!(gate, Gate::Sdg(_)));
            map_paths(paths, |x, z| {
                let flip = bit(x, q) == 1 && bit(z, q) == negate_z;
                (x, z ^ (x & (1 << q)), flip)
            })
        }
        Gate::Cx(c, t) => map_paths(paths, |x, z| {
            let (xc, zc, xt, zt) = (bit(x, c), bit(z, c), bit(x, t), bit(z, t));
            (x ^ (xc << t), z ^ (zt << c), xc & zt & (xt ^ zc ^ 1) == 1)
        }),
        Gate::Cz(a, b) => map_paths(paths, |x, z| {
            let (xa, za, xb, zb) = (bit(x, a), bit(z, a), bit(x, b), bit(z, b));
            (x, z ^ (xb << a) ^ (xa << b), xa & xb & (za ^ zb) == 1)
        }),
        _ => unreachable!("rotations are not Clifford gates"),
    }
}

/// Rewrites each path through `rule(x, z) → (x', z', negate)`.
fn map_paths(paths: &mut [Path], rule: impl Fn(u64, u64) -> (u64, u64, bool)) {
    for path in paths {
        let (x, z, negate) = rule(path.0, path.1);
        *path = (x, z, if negate { -path.2 } else { path.2 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::simulator::run_circuit;
    use qcircuit::{Angle, Entanglement, HardwareEfficientAnsatz};
    use qop::{Complex64, Statevector};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// Reference value computed with the dense statevector simulator.
    fn statevector_expectation(circuit: &Circuit, params: &[f64], op: &PauliOp, basis: u64) -> f64 {
        let init = Statevector::basis_state(circuit.num_qubits(), basis);
        let out = run_circuit(circuit, params, &init);
        op.expectation(&out)
    }

    /// A dense matrix stored by columns: `m[c][r]` is entry `(r, c)`.
    type Dense = Vec<Vec<Complex64>>;

    fn basis_vector(dim: usize, b: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; dim];
        v[b] = Complex64::ONE;
        v
    }

    /// `G` as a dense matrix: column `b` is the reference kernel applied to `|b⟩`.
    fn dense_gate(n: usize, gate: &Gate) -> Dense {
        (0..1usize << n)
            .map(|b| {
                let mut column = basis_vector(1 << n, b);
                reference::apply_gate_amps(&mut column, gate, &[]);
                column
            })
            .collect()
    }

    fn dense_pauli(p: &PauliString) -> Dense {
        let dim = 1usize << p.num_qubits();
        (0..dim)
            .map(|b| {
                let (row, phase) = p.apply_to_basis(b as u64);
                basis_vector(dim, row as usize)
                    .into_iter()
                    .map(|a| a * phase)
                    .collect()
            })
            .collect()
    }

    /// `G† P G` by dense matrix products.
    fn dense_heisenberg(g: &Dense, p: &Dense) -> Dense {
        let dim = g.len();
        let entry = |r: usize, c: usize| {
            let mut acc = Complex64::ZERO;
            for k in 0..dim {
                for l in 0..dim {
                    acc += g[r][k].conj() * p[l][k] * g[c][l];
                }
            }
            acc
        };
        (0..dim)
            .map(|c| (0..dim).map(|r| entry(r, c)).collect())
            .collect()
    }

    /// Every symplectic Clifford rule against dense conjugation: each single-qubit
    /// Clifford on the middle qubit and CX/CZ in both orders on the outer qubits of a
    /// 3-qubit register, applied to all 64 Pauli strings (so every local Pauli and every
    /// two-qubit Pauli appears, with spectators), image and sign.
    #[test]
    fn clifford_rules_match_dense_conjugation_for_every_pauli() {
        let n = 3;
        let gates = [
            Gate::H(1),
            Gate::X(1),
            Gate::Y(1),
            Gate::Z(1),
            Gate::S(1),
            Gate::Sdg(1),
            Gate::Cx(0, 2),
            Gate::Cx(2, 0),
            Gate::Cz(0, 2),
            Gate::Cz(2, 0),
        ];
        let prop = PauliPropagator::new(PauliPropagatorConfig::default());
        for gate in &gates {
            let g = dense_gate(n, gate);
            let mut circ = Circuit::new(n);
            circ.push(gate.clone());
            for code in 0..64u64 {
                let p = PauliString::from_masks(code & 7, code >> 3, n);
                let mut op = PauliOp::zero(n);
                op.add_term(p, 1.0);
                let image = prop.propagate(&circ, &[], &op);
                assert_eq!(image.len(), 1, "{gate:?} on {p}");
                let (q, sign) = image[0];
                assert!(sign == 1.0 || sign == -1.0, "{gate:?} on {p}: {sign}");
                let expected = dense_heisenberg(&g, &dense_pauli(&p));
                let got = dense_pauli(&q);
                for (column_e, column_g) in expected.iter().zip(&got) {
                    for (e, v) in column_e.iter().zip(column_g) {
                        assert!(
                            (*e - v.scale(sign)).norm() < 1e-12,
                            "{gate:?} on {p}: got {sign} {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clifford_only_circuit_matches_statevector() {
        let mut circ = Circuit::new(3);
        circ.push(Gate::H(0));
        circ.push(Gate::Cx(0, 1));
        circ.push(Gate::S(1));
        circ.push(Gate::Cz(1, 2));
        circ.push(Gate::X(2));
        circ.push(Gate::Sdg(0));
        let op = PauliOp::from_labels(
            3,
            &[("ZZI", 0.7), ("XIX", -0.4), ("IYZ", 0.3), ("III", 1.0)],
        );
        let prop = PauliPropagator::new(PauliPropagatorConfig {
            max_weight: 3,
            ..Default::default()
        });
        for basis in [0u64, 0b101, 0b011] {
            let a = prop.expectation(&circ, &[], &op, basis);
            let b = statevector_expectation(&circ, &[], &op, basis);
            assert!(close(a, b, 1e-9), "basis {basis}: {a} vs {b}");
        }
    }

    #[test]
    fn rotation_circuit_matches_statevector_without_truncation() {
        let ansatz = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular);
        let circ = ansatz.build();
        let params: Vec<f64> = (0..circ.num_parameters())
            .map(|i| 0.3 * ((i * 7 % 11) as f64) - 1.0)
            .collect();
        let op = PauliOp::from_labels(
            4,
            &[
                ("ZZII", -1.0),
                ("IZZI", -1.0),
                ("IIZZ", -1.0),
                ("XIII", -0.4),
                ("IIIX", -0.4),
            ],
        );
        // No truncation: max weight = register size, tiny threshold.
        let prop = PauliPropagator::new(PauliPropagatorConfig {
            max_weight: 4,
            coefficient_threshold: 1e-14,
            max_terms: 1_000_000,
        });
        let a = prop.expectation(&circ, &params, &op, 0);
        let b = statevector_expectation(&circ, &params, &op, 0);
        assert!(close(a, b, 1e-8), "{a} vs {b}");
    }

    #[test]
    fn pauli_rotation_gates_match_statevector() {
        let mut circ = Circuit::new(3);
        circ.push(Gate::H(0));
        circ.push(Gate::H(1));
        circ.push(Gate::H(2));
        let zz = PauliString::from_label("ZZI").unwrap();
        let yy = PauliString::from_label("IYY").unwrap();
        circ.push(Gate::PauliRotation(zz, Angle::param(0)));
        circ.push(Gate::PauliRotation(yy, Angle::param(1)));
        circ.push(Gate::Rx(1, Angle::param(2)));
        let op = PauliOp::from_labels(3, &[("ZZZ", 0.5), ("XXI", 0.25), ("IIZ", -0.7)]);
        let prop = PauliPropagator::new(PauliPropagatorConfig {
            max_weight: 3,
            coefficient_threshold: 1e-14,
            max_terms: 1_000_000,
        });
        let params = [0.9, -0.4, 1.3];
        let a = prop.expectation(&circ, &params, &op, 0);
        let b = statevector_expectation(&circ, &params, &op, 0);
        assert!(close(a, b, 1e-9), "{a} vs {b}");
    }

    #[test]
    fn truncation_bounds_term_growth() {
        let ansatz = HardwareEfficientAnsatz::new(10, 3, Entanglement::Circular);
        let circ = ansatz.build();
        let params: Vec<f64> = (0..circ.num_parameters()).map(|i| 0.1 * i as f64).collect();
        let mut op = PauliOp::zero(10);
        for q in 0..9 {
            let mut label = ['I'; 10];
            label[q] = 'Z';
            label[q + 1] = 'Z';
            op.add_term(
                PauliString::from_label(&label.iter().collect::<String>()).unwrap(),
                -1.0,
            );
        }
        let prop = PauliPropagator::new(PauliPropagatorConfig {
            max_weight: 4,
            coefficient_threshold: 1e-8,
            max_terms: 5_000,
        });
        let terms = prop.propagate(&circ, &params, &op);
        assert!(terms.len() <= 5_000);
        assert!(terms.iter().all(|(s, _)| s.weight() <= 4));
    }

    /// Eight equal-magnitude strings and room for four: the kept set is the four lowest
    /// masks on every call, whatever order each call's maps iterate in.
    #[test]
    fn truncation_ties_keep_the_same_strings_on_every_call() {
        let mut circ = Circuit::new(8);
        circ.push(Gate::Z(0));
        let mut op = PauliOp::zero(8);
        for q in 0..8 {
            op.add_term(PauliString::single(8, q, qop::Pauli::Z), 1.0);
        }
        let config = PauliPropagatorConfig {
            max_terms: 4,
            ..Default::default()
        };
        for _ in 0..16 {
            let mut kept: Vec<u64> = PauliPropagator::new(config)
                .propagate(&circ, &[], &op)
                .iter()
                .map(|(s, _)| s.z_mask())
                .collect();
            kept.sort_unstable();
            assert_eq!(kept, [0b1, 0b10, 0b100, 0b1000]);
        }
    }

    #[test]
    fn identity_observable_is_exact() {
        let ansatz = HardwareEfficientAnsatz::new(5, 2, Entanglement::Circular);
        let circ = ansatz.build();
        let params = vec![0.4; circ.num_parameters()];
        let op = PauliOp::identity(5, -2.5);
        let prop = PauliPropagator::new(PauliPropagatorConfig::default());
        assert!(close(prop.expectation(&circ, &params, &op, 0), -2.5, 1e-12));
    }

    #[test]
    fn larger_truncated_simulation_runs_and_is_finite() {
        // 20 qubits is far beyond the dense simulator's comfortable range in tests but is
        // cheap for truncated propagation.
        let ansatz = HardwareEfficientAnsatz::new(20, 1, Entanglement::Linear);
        let circ = ansatz.build();
        let params: Vec<f64> = (0..circ.num_parameters())
            .map(|i| 0.05 * i as f64)
            .collect();
        let mut op = PauliOp::zero(20);
        for q in 0..19 {
            let mut label = ['I'; 20];
            label[q] = 'Z';
            label[q + 1] = 'Z';
            op.add_term(
                PauliString::from_label(&label.iter().collect::<String>()).unwrap(),
                -1.0,
            );
        }
        let prop = PauliPropagator::new(PauliPropagatorConfig {
            max_weight: 6,
            coefficient_threshold: 1e-6,
            max_terms: 50_000,
        });
        let e = prop.expectation(&circ, &params, &op, 0);
        assert!(e.is_finite());
        assert!(
            e < 0.0,
            "ferromagnetic chain near |0...0> should have negative energy"
        );
    }
}
