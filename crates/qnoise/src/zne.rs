//! Zero-noise extrapolation building blocks: local gate folding and Richardson
//! extrapolation.
//!
//! ZNE runs the *same* circuit at artificially amplified noise levels and extrapolates
//! the measured expectation back to the zero-noise limit.  With per-gate noise channels
//! (this crate's model), **local folding** — replacing each gate `g` by
//! `g·(g†·g)^((c−1)/2)` for an odd scale factor `c` — multiplies every noise site's
//! error count by exactly `c` while leaving the ideal unitary unchanged, so the measured
//! expectation becomes a smooth function `E(c)` with `E(0)` the noiseless value.
//! Richardson extrapolation fits the unique degree-`(n−1)` polynomial through `n`
//! measured `(c, E(c))` points and evaluates it at `c = 0`.

use qcircuit::Circuit;

/// The default ZNE scale factors (the classic 1×/3×/5× folding ladder).
pub const DEFAULT_ZNE_SCALES: [usize; 3] = [1, 3, 5];

/// Locally folds every gate of `circuit`: `g ↦ g·(g†·g)^((scale−1)/2)`.
///
/// The result implements the same unitary (for every parameter binding — inverses negate
/// angle multipliers, so parameter slots are preserved), with `scale`× the gate count
/// and therefore `scale`× the noise sites under any per-gate channel model.  `scale = 1`
/// returns a plain clone.
///
/// # Panics
///
/// Panics if `scale` is even or zero (even factors cannot preserve the unitary).
pub fn fold_gates(circuit: &Circuit, scale: usize) -> Circuit {
    assert!(
        scale % 2 == 1,
        "gate-folding scale must be odd, got {scale}"
    );
    let mut folded = Circuit::new(circuit.num_qubits());
    for gate in circuit.gates() {
        folded.push(gate.clone());
        for _ in 0..scale / 2 {
            folded.push(gate.inverse());
            folded.push(gate.clone());
        }
    }
    folded
}

/// Richardson extrapolation to zero: evaluates at `x = 0` the unique polynomial through
/// the `(scale, value)` points, via Lagrange weights `wᵢ = Π_{j≠i} xⱼ/(xⱼ − xᵢ)`.
///
/// With one point this degenerates to returning its value; with the default `[1, 3, 5]`
/// ladder it cancels the linear and quadratic noise terms.
///
/// # Panics
///
/// Panics if `points` is empty or two points share a scale.
pub fn richardson_extrapolate(points: &[(f64, f64)]) -> f64 {
    assert!(!points.is_empty(), "extrapolation needs at least one point");
    let mut total = 0.0;
    for (i, &(xi, yi)) in points.iter().enumerate() {
        let mut weight = 1.0;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(
                xi != xj,
                "duplicate extrapolation scale {xi} makes the fit singular"
            );
            weight *= xj / (xj - xi);
        }
        total += weight * yi;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Angle, Gate};
    use qop::Statevector;

    #[test]
    fn folding_preserves_the_unitary() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        circ.push(Gate::Ry(0, Angle::param(0)));
        circ.push(Gate::Cx(0, 1));
        circ.push(Gate::S(1));
        let params = [0.83];
        let base = qsim::run_circuit(&circ, &params, &Statevector::zero_state(2));
        for scale in [1usize, 3, 5] {
            let folded = fold_gates(&circ, scale);
            assert_eq!(folded.num_gates(), scale * circ.num_gates());
            let out = qsim::run_circuit(&folded, &params, &Statevector::zero_state(2));
            let diff = out
                .to_amplitudes()
                .iter()
                .zip(base.to_amplitudes())
                .map(|(a, b)| (*a - b).norm())
                .fold(0.0, f64::max);
            assert!(diff < 1e-12, "scale {scale}: {diff}");
        }
    }

    #[test]
    fn folding_multiplies_noise_sites() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        circ.push(Gate::Cx(0, 1));
        let sites = |c: &Circuit| qsim::CompiledCircuit::compile(c).noise_sites().len();
        assert_eq!(sites(&fold_gates(&circ, 3)), 3 * sites(&circ));
        assert_eq!(sites(&fold_gates(&circ, 5)), 5 * sites(&circ));
    }

    #[test]
    #[should_panic]
    fn even_scale_panics() {
        fold_gates(&Circuit::new(1), 2);
    }

    #[test]
    fn richardson_recovers_polynomials_exactly() {
        // y = 2 − 0.3c + 0.05c²: three points determine it; extrapolation yields y(0).
        let f = |c: f64| 2.0 - 0.3 * c + 0.05 * c * c;
        let points: Vec<(f64, f64)> = [1.0, 3.0, 5.0].iter().map(|&c| (c, f(c))).collect();
        assert!((richardson_extrapolate(&points) - 2.0).abs() < 1e-12);
        // One point: identity.
        assert_eq!(richardson_extrapolate(&[(1.0, 0.7)]), 0.7);
        // Two points: linear extrapolation.
        let lin: Vec<(f64, f64)> = [1.0, 3.0].iter().map(|&c| (c, 1.0 - 0.1 * c)).collect();
        assert!((richardson_extrapolate(&lin) - 1.0).abs() < 1e-12);
    }
}
