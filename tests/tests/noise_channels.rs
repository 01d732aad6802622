//! Convergence tests for the `qnoise` trajectory-noise subsystem: trajectory averages
//! over many seeded rollouts must converge (statistical tolerance, fixed seeds) to the
//! closed-form depolarizing / dephasing / twirled-amplitude-damping attenuation factors
//! on 1–2 qubit circuits, and deterministic insertion replay must equal per-gate
//! reference simulation with the errors spliced in as gates.
//!
//! The exactness pins — a zero-rate model is bit-identical to the ideal path, schedules
//! replay from (seed, trajectory), batched trajectories equal the serial loop — are rows
//! of `treevqa_tests::relational`'s `CIRCUIT_PAIRS` and `BATCH_PAIRS`, run by the entry
//! tests below.

use qcircuit::{Circuit, Gate};
use qnoise::{PauliChannel, PauliNoiseModel, TrajectorySampler};
use qop::{PauliOp, Statevector};
use qrng::SeedPolicy;
use qsim::CompiledCircuit;
use treevqa_tests::relational::{batches, circuits, max_amplitude_diff, parallel_batches};
use vqa::{Backend, InitialState, NoisyStatevectorBackend};

#[test]
fn rate_zero_trajectories_are_bit_identical_to_ideal() {
    circuits(&["rate-zero rollout ≡ ideal"]);
}

#[test]
fn rate_zero_backend_matches_exact_backend() {
    batches(&["rate-zero trajectory backend ≡ exact"]);
}

#[test]
fn schedules_are_empty_at_rate_zero_and_reproducible_otherwise() {
    circuits(&["noisy rollout is reproducible"]);
}

#[test]
fn noisy_batches_equal_serial_bit_for_bit() {
    batches(&["trajectory batch ≡ serial"]);
}

#[test]
fn parallel_trajectory_batches_equal_serial() {
    parallel_batches(&["trajectory batch ≡ serial"]);
}

/// Trajectory averages converge to the analytic channel factors on 1–2 qubit circuits
/// (fixed seeds; tolerances are ≳3σ of the trajectory-mean estimator).
#[test]
fn trajectory_averages_match_analytic_channels() {
    // Dephasing p after H: E[⟨X⟩] = 1 − 2p.
    let p = 0.3;
    let mut circ = Circuit::new(1);
    circ.push(Gate::H(0));
    let x = PauliOp::from_labels(1, &[("X", 1.0)]);
    let model = PauliNoiseModel::noiseless().with_single_qubit_channel(PauliChannel::Dephasing(p));
    let mut backend = NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(5))
        .with_trajectories(20_000);
    let (value, _) = backend.evaluate(&circ, &[], &InitialState::Basis(0), &x, &[]);
    let expected = 1.0 - 2.0 * p;
    assert!(
        (value - expected).abs() < 0.025,
        "dephasing: {value} vs {expected}"
    );

    // Two fused single-qubit gates each carry their own depolarizing site:
    // E[⟨Y⟩] on S·H|0⟩ = (1 − 4p/3)².
    let p = 0.15;
    let mut circ = Circuit::new(1);
    circ.push(Gate::H(0));
    circ.push(Gate::S(0));
    let y = PauliOp::from_labels(1, &[("Y", 1.0)]);
    let mut backend = NoisyStatevectorBackend::with_policy(
        PauliNoiseModel::depolarizing(p, 0.0),
        0,
        SeedPolicy::new(7),
    )
    .with_trajectories(20_000);
    let (value, _) = backend.evaluate(&circ, &[], &InitialState::Basis(0), &y, &[]);
    let expected = (1.0 - 4.0 * p / 3.0) * (1.0 - 4.0 * p / 3.0);
    assert!(
        (value - expected).abs() < 0.025,
        "composed depolarizing: {value} vs {expected}"
    );

    // Two-qubit depolarizing p2 on a Bell pair: E[⟨ZZ⟩] = 1 − 16·p2/15 (the H's own
    // channel is disabled by using a two-qubit-only model).
    let p2 = 0.2;
    let mut bell = Circuit::new(2);
    bell.push(Gate::H(0));
    bell.push(Gate::Cx(0, 1));
    let zz = PauliOp::from_labels(2, &[("ZZ", 1.0)]);
    let mut backend = NoisyStatevectorBackend::with_policy(
        PauliNoiseModel::depolarizing(0.0, p2),
        0,
        SeedPolicy::new(9),
    )
    .with_trajectories(12_000);
    let (value, _) = backend.evaluate(&bell, &[], &InitialState::Basis(0), &zz, &[]);
    let expected = qnoise::uniform_depolarizing_attenuation(p2, 2);
    assert!(
        (value - expected).abs() < 0.035,
        "2q depolarizing: {value} vs {expected}"
    );

    // Pauli-twirled amplitude damping γ after X: E[⟨Z⟩] on |1⟩ = −(1 − γ).
    let gamma = 0.4;
    let mut circ = Circuit::new(1);
    circ.push(Gate::X(0));
    let z = PauliOp::from_labels(1, &[("Z", 1.0)]);
    let model = PauliNoiseModel::noiseless()
        .with_single_qubit_channel(PauliChannel::AmplitudeDampingTwirled(gamma));
    let mut backend = NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(13))
        .with_trajectories(12_000);
    let (value, _) = backend.evaluate(&circ, &[], &InitialState::Basis(0), &z, &[]);
    let expected = -(1.0 - gamma);
    assert!(
        (value - expected).abs() < 0.03,
        "twirled AD: {value} vs {expected}"
    );
}

/// Deterministic insertion replay (every channel at probability 1) equals per-gate
/// reference simulation with the error Paulis spliced in as gates.
#[test]
fn certain_errors_replay_like_inserted_gates() {
    // H(0) · CX(0,1) · H(0) has no fusion between the three ops, so site placement is
    // unambiguous; dephasing at p = 1 inserts Z after every gate (on both qubits of CX,
    // in qubit order).
    let mut circ = Circuit::new(2);
    circ.push(Gate::H(0));
    circ.push(Gate::Cx(0, 1));
    circ.push(Gate::H(0));
    let compiled = CompiledCircuit::compile(&circ);
    let model = PauliNoiseModel::noiseless()
        .with_single_qubit_channel(PauliChannel::Dephasing(1.0))
        .with_two_qubit_local(PauliChannel::Dephasing(1.0));
    let sampler = TrajectorySampler::new(&compiled, &model);
    let schedule = sampler.sample(99, 0);
    assert_eq!(schedule.len(), 4, "one certain Z per charged channel site");
    let mut noisy = Statevector::zero_state(2);
    compiled.execute_in_place_with_insertions(&[], &mut noisy, &schedule, None);

    let mut spliced = Circuit::new(2);
    spliced.push(Gate::H(0));
    spliced.push(Gate::Z(0));
    spliced.push(Gate::Cx(0, 1));
    spliced.push(Gate::Z(0));
    spliced.push(Gate::Z(1));
    spliced.push(Gate::H(0));
    spliced.push(Gate::Z(0));
    let expected = qsim::reference::run_circuit(&spliced, &[], &Statevector::zero_state(2));
    let diff = max_amplitude_diff(&noisy, &expected);
    assert!(diff < 1e-12, "insertion replay diverged: {diff}");
}

/// Readout error composes with gate noise as a per-term-weight attenuation, and the
/// trajectory backend applies it deterministically (no extra variance).
#[test]
fn readout_error_attenuates_terms_by_weight() {
    let mut bell = Circuit::new(2);
    bell.push(Gate::H(0));
    bell.push(Gate::Cx(0, 1));
    let op = PauliOp::from_labels(2, &[("II", -1.0), ("ZZ", 0.8)]);
    let r = 0.05;
    let model = PauliNoiseModel::noiseless().with_readout(r);
    let mut backend =
        NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(3)).with_trajectories(2);
    let (value, _) = backend.evaluate(&bell, &[], &InitialState::Basis(0), &op, &[]);
    // ⟨ZZ⟩ = 1 on the Bell pair; the identity term is untouched.
    let expected = -1.0 + 0.8 * qnoise::readout_attenuation(r, 2);
    assert!((value - expected).abs() < 1e-12, "{value} vs {expected}");
}
