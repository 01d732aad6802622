//! The standing differential oracle: three independent computations of
//! `⟨b|U†(θ) H U(θ)|b⟩` must agree on random circuits.
//!
//! * **Heisenberg picture** — untruncated [`PauliPropagator`] (weight cap = register
//!   size, threshold 0, no term cap) evolves the observable and never forms a state;
//! * **the compiled path** — [`StatevectorBackend::evaluate`]: the compiled circuit
//!   started through `CompiledCircuit::execute_from_basis`'s product prefix and read out
//!   by the term basis, charged and free alike;
//! * **the oracle** — `qsim::reference::run_circuit` on interleaved amplitudes, then
//!   `Σ_b conj(ψ[P b]) · phase · ψ[b]` per term through `PauliString::apply_to_basis`,
//!   touching no fast kernel.
//!
//! Each fast path is held to a source it shares no kernel with (transformed ≡ source),
//! so the compiled executor needs no second implementation of itself.  32 cases on 1–8
//! qubits over every `Gate` variant, fixed and slotted (scaled) angles, and a random
//! basis start, to 1e-10.

use qcircuit::{Angle, Circuit, Gate};
use qop::{Complex64, PauliOp, PauliString, Statevector};
use qsim::{reference, PauliPropagator, PauliPropagatorConfig};
use vqa::{Backend, InitialState, StatevectorBackend};

const CASES: u64 = 32;
const NUM_PARAMS: usize = 5;
/// `Gate`'s variant count; every variant must appear in some case.
const GATE_KINDS: usize = 12;

/// A stateless generator: a case is reproduced from its seed alone.
struct Gen {
    seed: u64,
    counter: u64,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.counter += 1;
        qrng::mix(self.seed, self.counter)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn string(&mut self, n: usize) -> PauliString {
        let mask = (1u64 << n) - 1;
        PauliString::from_masks(self.next() & mask, self.next() & mask, n)
    }
}

/// A random circuit, its parameters, a basis start and an observable, all drawn from
/// `seed`, plus which gate kinds the circuit used.
fn case(seed: u64) -> (Circuit, Vec<f64>, u64, PauliOp, [bool; GATE_KINDS]) {
    let mut gen = Gen { seed, counter: 0 };
    let n = 1 + gen.below(8) as usize;
    let mut circuit = Circuit::new(n);
    let mut used = [false; GATE_KINDS];
    for _ in 0..=gen.below(24) {
        let q = gen.below(n as u64) as usize;
        let other = (q + 1 + gen.below(n.max(2) as u64 - 1) as usize) % n;
        let angle = match gen.below(3) {
            0 => Angle::Fixed(std::f64::consts::PI * gen.unit()),
            1 => Angle::param(gen.below(NUM_PARAMS as u64) as usize),
            _ => Angle::Param {
                index: gen.below(NUM_PARAMS as u64) as usize,
                multiplier: 2.0 * gen.unit(),
            },
        };
        let kind = match gen.below(GATE_KINDS as u64) as usize {
            6 | 7 if n == 1 => 0,
            kind => kind,
        };
        used[kind] = true;
        circuit.push(match kind {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Y(q),
            3 => Gate::Z(q),
            4 => Gate::S(q),
            5 => Gate::Sdg(q),
            6 => Gate::Cx(q, other),
            7 => Gate::Cz(q, other),
            8 => Gate::Rx(q, angle),
            9 => Gate::Ry(q, angle),
            10 => Gate::Rz(q, angle),
            _ => Gate::PauliRotation(gen.string(n), angle),
        });
    }
    let params = (0..NUM_PARAMS).map(|_| 3.2 * gen.unit()).collect();
    let basis = gen.below(1 << n);
    let mut op = PauliOp::zero(n);
    for _ in 0..=gen.below(6) {
        op.add_term(gen.string(n), gen.unit());
    }
    (circuit, params, basis, op, used)
}

/// `⟨ψ|op|ψ⟩` from interleaved amplitudes and `PauliString::apply_to_basis` alone.
fn naive_expectation(op: &PauliOp, state: &Statevector) -> f64 {
    let amps = state.to_amplitudes();
    op.terms()
        .iter()
        .map(|term| {
            let mut acc = Complex64::ZERO;
            for (col, &amp) in amps.iter().enumerate() {
                let (row, phase) = term.string.apply_to_basis(col as u64);
                acc += amps[row as usize].conj() * phase * amp;
            }
            term.coefficient * acc.re
        })
        .sum()
}

#[test]
fn propagation_compiled_path_and_reference_agree_on_random_circuits() {
    let mut covered = [false; GATE_KINDS];
    for seed in 0..CASES {
        let (circuit, params, basis, op, used) = case(seed);
        let n = circuit.num_qubits();
        for (seen, now) in covered.iter_mut().zip(used) {
            *seen |= now;
        }

        let oracle = naive_expectation(
            &op,
            &reference::run_circuit(&circuit, &params, &Statevector::basis_state(n, basis)),
        );
        let propagated = PauliPropagator::new(PauliPropagatorConfig {
            max_weight: n as u32,
            coefficient_threshold: 0.0,
            max_terms: usize::MAX,
        })
        .expectation(&circuit, &params, &op, basis);
        let (charged, free) = StatevectorBackend::new().evaluate(
            &circuit,
            &params,
            &InitialState::Basis(basis),
            &op,
            &[&op],
        );
        for (path, value) in [
            ("propagation", propagated),
            ("compiled charged", charged),
            ("compiled free", free[0]),
        ] {
            assert!(
                (value - oracle).abs() < 1e-10,
                "seed {seed} ({n} qubits, basis {basis}): {path} {value} vs reference {oracle}"
            );
        }
    }
    assert!(
        covered.iter().all(|&c| c),
        "the cases must exercise every Gate variant: {covered:?}"
    );
}
