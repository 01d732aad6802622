//! Finite-shot expectation-value estimation.
//!
//! Given the exact output state of the simulator, these estimators produce the *noisy*
//! expectation value an experimentalist would obtain from a finite number of measurement
//! shots: [`analytic_sampled_from_expectations`] replaces each term's exact value (from
//! [`exact_term_expectations`], or the readout a driver already holds) by per-term
//! Gaussian sampling noise with the exact binomial variance `(1 − ⟨P⟩²)/s`.  That is
//! statistically equivalent to measuring each term with `s` shots (the unit tests hold it
//! to true bitstring sampling), at a fraction of the simulation cost; the `vqa` dense
//! driver's sampling stages call it on the readout they already hold.
//!
//! It does not charge shots: the paper's cost accounting (`shots_per_pauli × num_terms` per
//! evaluation, whatever the sampling model — Section 7.3) is the caller's
//! [`crate::ShotLedger`].

use qop::{PauliOp, Statevector, TermBasis};
use rand::Rng;

/// The exact per-term expectations the analytic sampler perturbs (identity terms are
/// exactly 1).  Kept apart from the noise so batched backends can compute this — the
/// expensive, state-sized stage — inside a parallel region and draw the noise serially
/// afterwards.
///
/// A thin wrapper over a transient [`TermBasis`]; drivers that measure the same
/// operator set on many states keep the basis and call [`TermBasis::evaluate`] directly.
pub fn exact_term_expectations(op: &PauliOp, state: &Statevector) -> Vec<f64> {
    if op.num_terms() == 0 {
        return Vec::new();
    }
    let basis = TermBasis::new(&[op]);
    let mut values = Vec::new();
    basis.evaluate(state, &mut values);
    basis.op_term_values(0, &values)
}

/// Per-term Gaussian model: each exact Pauli expectation `⟨P⟩` (from
/// [`exact_term_expectations`]) is replaced by the sample mean of `s` ±1 outcomes,
/// approximated by `N(⟨P⟩, (1 − ⟨P⟩²)/s)` and clamped to `[-1, 1]`.  Draws from `rng` in
/// term order; identity terms and `s = 0` draw nothing.
///
/// # Panics
///
/// Panics if `exact.len()` differs from the operator's term count.
pub fn analytic_sampled_from_expectations<R: Rng>(
    op: &PauliOp,
    exact: &[f64],
    shots_per_pauli: u64,
    rng: &mut R,
) -> f64 {
    assert_eq!(
        exact.len(),
        op.num_terms(),
        "one exact expectation per Pauli term required"
    );
    // −0.0, the identity of IEEE addition, as `Iterator::sum` starts: at zero shots the
    // total is then the exact readout's `TermBasis::op_value`, zero signs included.
    let mut total = -0.0;
    for (term, &exact) in op.terms().iter().zip(exact) {
        let sampled = if term.string.is_identity() || shots_per_pauli == 0 {
            exact
        } else {
            let variance = ((1.0 - exact * exact) / shots_per_pauli as f64).max(0.0);
            let noisy = exact + gaussian(rng) * variance.sqrt();
            noisy.clamp(-1.0, 1.0)
        };
        total += term.coefficient * sampled;
    }
    total
}

/// Standard normal sample via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Gate;
    use qop::Pauli;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    /// True bitstring sampling under Section 7.3's per-term cost model, the oracle the
    /// Gaussian model is held to: each non-identity term is rotated into its own
    /// measurement basis (X → H, Y → S†·H) and `shots_per_pauli` bitstrings are drawn
    /// from the exact distribution; the term's estimate is the mean ±1 parity over its
    /// support.
    fn per_term_sampled_expectation<R: Rng>(
        op: &PauliOp,
        state: &Statevector,
        shots_per_pauli: u64,
        rng: &mut R,
    ) -> f64 {
        let mut total = 0.0;
        for term in op.terms() {
            if term.string.is_identity() {
                total += term.coefficient;
                continue;
            }
            let mut rotated = state.clone();
            for (q, pauli) in term.string.iter_non_identity() {
                let rotation: &[Gate] = match pauli {
                    Pauli::X => &[Gate::H(q)],
                    Pauli::Y => &[Gate::Sdg(q), Gate::H(q)],
                    _ => &[],
                };
                for gate in rotation {
                    crate::simulator::apply_gate(&mut rotated, gate, &[]);
                }
            }
            let probs = rotated.probabilities();
            let support = term.string.x_mask() | term.string.z_mask();
            let mut sum = 0.0;
            for _ in 0..shots_per_pauli {
                let r: f64 = rng.random();
                let mut acc = 0.0;
                let outcome = probs
                    .iter()
                    .position(|&p| {
                        acc += p;
                        r < acc
                    })
                    .unwrap_or(probs.len() - 1);
                sum += if (outcome as u64 & support).count_ones() % 2 == 0 {
                    1.0
                } else {
                    -1.0
                };
            }
            total += term.coefficient * sum / shots_per_pauli as f64;
        }
        total
    }

    #[test]
    fn analytic_sampling_converges_with_shots() {
        let op = PauliOp::from_labels(2, &[("ZZ", 1.0), ("XX", 0.5)]);
        let psi = Statevector::uniform_superposition(2);
        let exact = op.expectation(&psi);
        let terms = exact_term_expectations(&op, &psi);
        let mut r = rng();
        let noisy_small: f64 = (0..64)
            .map(|_| analytic_sampled_from_expectations(&op, &terms, 16, &mut r))
            .map(|e| (e - exact).abs())
            .sum::<f64>()
            / 64.0;
        let noisy_large: f64 = (0..64)
            .map(|_| analytic_sampled_from_expectations(&op, &terms, 16384, &mut r))
            .map(|e| (e - exact).abs())
            .sum::<f64>()
            / 64.0;
        assert!(
            noisy_large < noisy_small,
            "error should shrink with more shots: {noisy_large} vs {noisy_small}"
        );
    }

    #[test]
    fn multinomial_sampling_is_unbiased_on_z_terms() {
        let op = PauliOp::from_labels(1, &[("Z", 1.0)]);
        // A state with <Z> = cos(0.8).
        let mut circ = qcircuit::Circuit::new(1);
        circ.push(qcircuit::Gate::Ry(0, qcircuit::Angle::Fixed(0.8)));
        let psi = crate::simulator::run_circuit(&circ, &[], &Statevector::zero_state(1));
        let exact = op.expectation(&psi);
        let mut r = rng();
        let mean: f64 = (0..32)
            .map(|_| per_term_sampled_expectation(&op, &psi, 2048, &mut r))
            .sum::<f64>()
            / 32.0;
        assert!((mean - exact).abs() < 0.02, "{mean} vs {exact}");
    }

    #[test]
    fn multinomial_handles_x_and_y_bases() {
        let op = PauliOp::from_labels(1, &[("X", 1.0), ("Y", 0.5)]);
        let psi = Statevector::uniform_superposition(1); // <X> = 1, <Y> = 0
        let mut r = rng();
        let mean: f64 = (0..32)
            .map(|_| per_term_sampled_expectation(&op, &psi, 2048, &mut r))
            .sum::<f64>()
            / 32.0;
        assert!((mean - 1.0).abs() < 0.03, "{mean}");
    }

    #[test]
    fn identity_terms_are_noise_free() {
        let op = PauliOp::from_labels(2, &[("II", -3.0)]);
        let psi = Statevector::uniform_superposition(2);
        let mut r = rng();
        let e =
            analytic_sampled_from_expectations(&op, &exact_term_expectations(&op, &psi), 8, &mut r);
        assert!((e + 3.0).abs() < 1e-12);
    }

    #[test]
    fn analytic_and_multinomial_agree_statistically() {
        let op = PauliOp::from_labels(2, &[("ZZ", 0.6), ("XI", 0.4), ("IY", -0.2)]);
        let mut circ = qcircuit::Circuit::new(2);
        circ.push(qcircuit::Gate::Ry(0, qcircuit::Angle::Fixed(0.7)));
        circ.push(qcircuit::Gate::Cx(0, 1));
        let psi = crate::simulator::run_circuit(&circ, &[], &Statevector::zero_state(2));
        let terms = exact_term_expectations(&op, &psi);
        let mut r = rng();
        let trials = 48;
        let a: f64 = (0..trials)
            .map(|_| analytic_sampled_from_expectations(&op, &terms, 1024, &mut r))
            .sum::<f64>()
            / trials as f64;
        let m: f64 = (0..trials)
            .map(|_| per_term_sampled_expectation(&op, &psi, 1024, &mut r))
            .sum::<f64>()
            / trials as f64;
        assert!((a - m).abs() < 0.05, "analytic {a} vs multinomial {m}");
    }
}
