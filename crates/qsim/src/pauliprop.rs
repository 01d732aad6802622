//! Heisenberg-picture Pauli propagation with weight truncation.
//!
//! This is the reproduction of the `PauliPropagation` method the paper uses for its
//! large-scale benchmarks (Section 7.4 and 8.4): instead of evolving the `2^n`-amplitude
//! state, the *observable* is propagated backwards through the circuit as a sum of Pauli
//! strings.  Clifford gates permute Pauli strings (with a sign); each rotation gate splits
//! every anticommuting string into a `cos`/`sin` pair.  Truncating strings whose weight
//! exceeds a cap (the paper truncates above weight 8) or whose coefficient is negligible
//! keeps the term count bounded, enabling 25–50-qubit simulations with controlled error.

use qcircuit::{Circuit, Gate};
use qop::{Complex64, PauliOp, PauliString};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Configuration of the Pauli-propagation simulator.
#[derive(Clone, Copy, Debug)]
pub struct PauliPropagatorConfig {
    /// Strings with Pauli weight above this cap are discarded (paper default: 8).
    pub max_weight: u32,
    /// Strings whose absolute coefficient drops below this threshold are discarded.
    pub coefficient_threshold: f64,
    /// Hard cap on the number of retained strings (keeps memory bounded); the smallest
    /// coefficients are dropped first when the cap is exceeded, ties broken by keeping
    /// the lower `(x, z)` masks, so the kept set never depends on map iteration order.
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
        let mut terms: HashMap<(u64, u64), f64> = HashMap::new();
        for t in observable.terms() {
            *terms
                .entry((t.string.x_mask(), t.string.z_mask()))
                .or_insert(0.0) += t.coefficient;
        }

        // Heisenberg evolution processes gates in reverse order: H ← G† H G for the last
        // gate first.
        for gate in circuit.gates().iter().rev() {
            terms = self.apply_gate_heisenberg(terms, gate, params, n);
        }

        terms
            .into_iter()
            .filter(|(_, c)| c.abs() > self.config.coefficient_threshold)
            .map(|((x, z), c)| (PauliString::from_masks(x, z, n), c))
            .collect()
    }

    fn apply_gate_heisenberg(
        &self,
        terms: HashMap<(u64, u64), f64>,
        gate: &Gate,
        params: &[f64],
        n: usize,
    ) -> HashMap<(u64, u64), f64> {
        let mut out: HashMap<(u64, u64), f64> = HashMap::with_capacity(terms.len() * 2);
        let mut insert = |x: u64, z: u64, c: f64| {
            if c != 0.0 {
                *out.entry((x, z)).or_insert(0.0) += c;
            }
        };

        match gate {
            Gate::H(q) | Gate::X(q) | Gate::Y(q) | Gate::Z(q) | Gate::S(q) | Gate::Sdg(q) => {
                for ((x, z), c) in terms {
                    let p = PauliString::from_masks(x, z, n);
                    let (p2, sign) = conjugate_single_clifford(gate, *q, &p);
                    insert(p2.x_mask(), p2.z_mask(), c * sign);
                }
            }
            Gate::Cx(a, b) | Gate::Cz(a, b) => {
                for ((x, z), c) in terms {
                    let p = PauliString::from_masks(x, z, n);
                    let (p2, sign) = conjugate_two_qubit_clifford(gate, *a, *b, &p);
                    insert(p2.x_mask(), p2.z_mask(), c * sign);
                }
            }
            Gate::Rx(q, angle) => {
                let axis = PauliString::single(n, *q, qop::Pauli::X);
                return self.apply_rotation(terms, &axis, angle.resolve(params), n);
            }
            Gate::Ry(q, angle) => {
                let axis = PauliString::single(n, *q, qop::Pauli::Y);
                return self.apply_rotation(terms, &axis, angle.resolve(params), n);
            }
            Gate::Rz(q, angle) => {
                let axis = PauliString::single(n, *q, qop::Pauli::Z);
                return self.apply_rotation(terms, &axis, angle.resolve(params), n);
            }
            Gate::PauliRotation(axis, angle) => {
                return self.apply_rotation(terms, axis, angle.resolve(params), n);
            }
        }
        self.truncate(out)
    }

    /// Applies the Heisenberg image of `exp(-iθ/2 Q)`:
    /// `P → P` if `[P, Q] = 0`, else `P → cos(θ)·P + sin(θ)·(-i·P·Q)`.
    fn apply_rotation(
        &self,
        terms: HashMap<(u64, u64), f64>,
        axis: &PauliString,
        theta: f64,
        n: usize,
    ) -> HashMap<(u64, u64), f64> {
        let (sin, cos) = theta.sin_cos();
        let mut out: HashMap<(u64, u64), f64> = HashMap::with_capacity(terms.len() * 2);
        for ((x, z), c) in terms {
            let p = PauliString::from_masks(x, z, n);
            if p.commutes_with(axis) {
                *out.entry((x, z)).or_insert(0.0) += c;
            } else {
                *out.entry((x, z)).or_insert(0.0) += c * cos;
                // -i · P · Q is Hermitian with a real ±1 sign when P and Q anticommute.
                let (prod, phase) = p.mul(axis);
                let coeff = Complex64::new(0.0, -1.0) * phase;
                debug_assert!(coeff.im.abs() < 1e-12);
                *out.entry((prod.x_mask(), prod.z_mask())).or_insert(0.0) += c * sin * coeff.re;
            }
        }
        self.truncate(out)
    }

    fn truncate(&self, mut terms: HashMap<(u64, u64), f64>) -> HashMap<(u64, u64), f64> {
        terms.retain(|(x, z), c| {
            c.abs() > self.config.coefficient_threshold
                && (x | z).count_ones() <= self.config.max_weight
        });
        if terms.len() > self.config.max_terms {
            let mut entries: Vec<((u64, u64), f64)> = terms.into_iter().collect();
            entries.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
            entries.truncate(self.config.max_terms);
            terms = entries.into_iter().collect();
        }
        terms
    }
}

/// Conjugates a Pauli string by a single-qubit Clifford gate on qubit `q`:
/// returns `(G† P G, sign)`.
fn conjugate_single_clifford(gate: &Gate, q: usize, p: &PauliString) -> (PauliString, f64) {
    use qop::Pauli::*;
    let local = p.pauli_at(q);
    if local == I {
        return (*p, 1.0);
    }
    let (new_local, sign) = match gate {
        Gate::H(_) => match local {
            X => (Z, 1.0),
            Z => (X, 1.0),
            Y => (Y, -1.0),
            I => unreachable!(),
        },
        Gate::X(_) => match local {
            X => (X, 1.0),
            Y => (Y, -1.0),
            Z => (Z, -1.0),
            I => unreachable!(),
        },
        Gate::Y(_) => match local {
            X => (X, -1.0),
            Y => (Y, 1.0),
            Z => (Z, -1.0),
            I => unreachable!(),
        },
        Gate::Z(_) => match local {
            X => (X, -1.0),
            Y => (Y, -1.0),
            Z => (Z, 1.0),
            I => unreachable!(),
        },
        // S† X S = -Y, S† Y S = X, S† Z S = Z.
        Gate::S(_) => match local {
            X => (Y, -1.0),
            Y => (X, 1.0),
            Z => (Z, 1.0),
            I => unreachable!(),
        },
        Gate::Sdg(_) => match local {
            X => (Y, 1.0),
            Y => (X, -1.0),
            Z => (Z, 1.0),
            I => unreachable!(),
        },
        _ => unreachable!("not a single-qubit Clifford gate"),
    };
    let mut out = *p;
    out.set_pauli(q, new_local);
    (out, sign)
}

/// Lookup table for two-qubit Clifford conjugation, computed once by brute force from the
/// dense 4×4 matrices (avoiding hand-derived sign rules).
fn two_qubit_table(kind: TwoQubitKind) -> &'static [(usize, f64); 16] {
    static CX_TABLE: OnceLock<[(usize, f64); 16]> = OnceLock::new();
    static CZ_TABLE: OnceLock<[(usize, f64); 16]> = OnceLock::new();
    let cell = match kind {
        TwoQubitKind::Cx => &CX_TABLE,
        TwoQubitKind::Cz => &CZ_TABLE,
    };
    cell.get_or_init(|| build_two_qubit_table(kind))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TwoQubitKind {
    Cx,
    Cz,
}

/// Index encoding for the table: `idx = pauli_on_control * 4 + pauli_on_target` with
/// `I=0, X=1, Y=2, Z=3`.
fn pauli_code(p: qop::Pauli) -> usize {
    match p {
        qop::Pauli::I => 0,
        qop::Pauli::X => 1,
        qop::Pauli::Y => 2,
        qop::Pauli::Z => 3,
    }
}

fn pauli_from_code(c: usize) -> qop::Pauli {
    match c {
        0 => qop::Pauli::I,
        1 => qop::Pauli::X,
        2 => qop::Pauli::Y,
        _ => qop::Pauli::Z,
    }
}

#[allow(clippy::needless_range_loop)]
fn build_two_qubit_table(kind: TwoQubitKind) -> [(usize, f64); 16] {
    // Dense 4×4 matrices over basis |t c⟩ ordering where bit 0 = control, bit 1 = target
    // (consistent with PauliString::apply_to_basis on a 2-qubit register with control=0,
    // target=1).
    let gate = |row: usize, col: usize| -> Complex64 {
        let control = col & 1;
        let target = (col >> 1) & 1;
        let (new_control, new_target) = match kind {
            TwoQubitKind::Cx => (control, target ^ control),
            TwoQubitKind::Cz => (control, target),
        };
        let expected_row = new_control | (new_target << 1);
        if row != expected_row {
            return Complex64::ZERO;
        }
        match kind {
            TwoQubitKind::Cx => Complex64::ONE,
            TwoQubitKind::Cz => {
                if control == 1 && target == 1 {
                    -Complex64::ONE
                } else {
                    Complex64::ONE
                }
            }
        }
    };

    let pauli_matrix = |code: usize| -> [[Complex64; 4]; 4] {
        let s = PauliString::from_paulis(&[pauli_from_code(code & 3), pauli_from_code(code >> 2)]);
        let mut m = [[Complex64::ZERO; 4]; 4];
        for col in 0..4u64 {
            let (row, phase) = s.apply_to_basis(col);
            m[row as usize][col as usize] = phase;
        }
        m
    };

    let mut table = [(0usize, 0.0f64); 16];
    for code in 0..16 {
        // Compute G† P G (G is real and self-inverse for CX/CZ, so G† = G).
        let p = pauli_matrix(code);
        let mut gp = [[Complex64::ZERO; 4]; 4];
        for r in 0..4 {
            for c2 in 0..4 {
                let mut acc = Complex64::ZERO;
                for k in 0..4 {
                    acc += gate(r, k).conj() * p[k][c2];
                }
                gp[r][c2] = acc;
            }
        }
        let mut gpg = [[Complex64::ZERO; 4]; 4];
        for r in 0..4 {
            for c2 in 0..4 {
                let mut acc = Complex64::ZERO;
                for k in 0..4 {
                    acc += gp[r][k] * gate(k, c2);
                }
                gpg[r][c2] = acc;
            }
        }
        // Match against ± every candidate Pauli pair.
        let mut found = None;
        'outer: for cand in 0..16 {
            let q = pauli_matrix(cand);
            for &sign in &[1.0f64, -1.0] {
                let mut equal = true;
                for r in 0..4 {
                    for c2 in 0..4 {
                        let diff = gpg[r][c2] - q[r][c2].scale(sign);
                        if diff.norm() > 1e-9 {
                            equal = false;
                            break;
                        }
                    }
                    if !equal {
                        break;
                    }
                }
                if equal {
                    found = Some((cand, sign));
                    break 'outer;
                }
            }
        }
        table[code] =
            found.expect("Clifford conjugation must map Pauli pairs to signed Pauli pairs");
    }
    table
}

/// Conjugates a Pauli string by CX or CZ acting on qubits `(a, b)` = (control, target).
fn conjugate_two_qubit_clifford(
    gate: &Gate,
    a: usize,
    b: usize,
    p: &PauliString,
) -> (PauliString, f64) {
    let kind = match gate {
        Gate::Cx(..) => TwoQubitKind::Cx,
        Gate::Cz(..) => TwoQubitKind::Cz,
        _ => unreachable!("not a two-qubit Clifford gate"),
    };
    let pc = p.pauli_at(a);
    let pt = p.pauli_at(b);
    if pc == qop::Pauli::I && pt == qop::Pauli::I {
        return (*p, 1.0);
    }
    let code = pauli_code(pt) * 4 + pauli_code(pc);
    let (new_code, sign) = two_qubit_table(kind)[code];
    let mut out = *p;
    out.set_pauli(a, pauli_from_code(new_code & 3));
    out.set_pauli(b, pauli_from_code(new_code >> 2));
    (out, sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::run_circuit;
    use qcircuit::{Angle, Entanglement, HardwareEfficientAnsatz};
    use qop::Statevector;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// Reference value computed with the dense statevector simulator.
    fn statevector_expectation(circuit: &Circuit, params: &[f64], op: &PauliOp, basis: u64) -> f64 {
        let init = Statevector::basis_state(circuit.num_qubits(), basis);
        let out = run_circuit(circuit, params, &init);
        op.expectation(&out)
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
