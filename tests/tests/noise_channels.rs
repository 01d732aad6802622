//! Property and convergence tests for the `qnoise` trajectory-noise subsystem.
//!
//! Two pillars:
//!
//! * **Exactness at rate zero** — a noise model with all-zero rates must make the
//!   trajectory backend *bit-identical* to the ideal compiled path (proptest-pinned on
//!   random circuits), and batched trajectory evaluation must be bit-identical to the
//!   serial evaluate loop at every batch size, including under forced multi-worker
//!   across-state parallelism.
//! * **Convergence to the analytic channel** — trajectory averages over many seeded
//!   rollouts must converge (statistical tolerance, fixed seeds) to the closed-form
//!   depolarizing / dephasing / twirled-amplitude-damping attenuation factors on 1–2
//!   qubit circuits, and deterministic insertion replay must equal per-gate reference
//!   simulation with the errors spliced in as gates.

use proptest::prelude::*;
use qcircuit::{Angle, Circuit, Gate};
use qnoise::{PauliChannel, PauliNoiseModel, TrajectorySampler};
use qop::{PauliOp, PauliString, Statevector};
use qrng::SeedPolicy;
use qsim::CompiledCircuit;
use vqa::{Backend, EvalRequest, InitialState, NoisyStatevectorBackend, StatevectorBackend};

/// Forces multiple workers even on single-core CI machines (the vendored rayon honors
/// this like the real global-pool configuration).
fn force_parallel_workers() {
    // Honor the CI matrix's RAYON_NUM_THREADS (1 pins every kernel serial, 2/4 vary
    // the worker partitioning); default to 4 so a plain local `cargo test` still
    // drives the parallel paths on a single-core box.
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .ok();
}

const NUM_PARAMS: usize = 4;

/// Strategy for one random gate (the `compiled_equivalence.rs` mix: every gate kind,
/// fixed and parameterized angles, diagonal-heavy Pauli rotations).
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    (
        0usize..14,
        0usize..n,
        0usize..n,
        -3.2f64..3.2,
        0usize..NUM_PARAMS,
        proptest::collection::vec(proptest::sample::select(vec!['I', 'X', 'Y', 'Z']), n),
        proptest::collection::vec(proptest::sample::select(vec!['I', 'Z']), n),
    )
        .prop_map(move |(kind, q, q2, theta, slot, label, diag_label)| {
            let q2 = if q2 == q { (q + 1) % n } else { q2 };
            match kind {
                0 => Gate::H(q),
                1 => Gate::X(q),
                2 => Gate::Y(q),
                3 => Gate::Z(q),
                4 => Gate::S(q),
                5 => Gate::Sdg(q),
                6 => Gate::Cx(q, q2),
                7 => Gate::Cz(q, q2),
                8 => Gate::Rx(q, Angle::Fixed(theta)),
                9 => Gate::Ry(q, Angle::param(slot)),
                10 => Gate::Rz(q, Angle::param(slot)),
                11 => Gate::PauliRotation(
                    PauliString::from_label(&label.iter().collect::<String>()).unwrap(),
                    Angle::Fixed(theta),
                ),
                12 => Gate::PauliRotation(
                    PauliString::from_label(&diag_label.iter().collect::<String>()).unwrap(),
                    Angle::Fixed(theta),
                ),
                _ => Gate::PauliRotation(
                    PauliString::from_label(&diag_label.iter().collect::<String>()).unwrap(),
                    Angle::param(slot),
                ),
            }
        })
}

fn circuit_from_gates(num_qubits: usize, gates: Vec<Gate>) -> Circuit {
    let mut circuit = Circuit::new(num_qubits);
    for gate in gates {
        circuit.push(gate);
    }
    circuit
}

/// A zero-rate model that still *lists* channels, so the trajectory machinery runs its
/// full path (channel flattening, schedule sampling) and must come out empty-handed.
fn zero_rate_model() -> PauliNoiseModel {
    PauliNoiseModel::depolarizing(0.0, 0.0)
        .with_single_qubit_channel(PauliChannel::Dephasing(0.0))
        .with_two_qubit_local(PauliChannel::AmplitudeDampingTwirled(0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// THE rate-zero pin: executing with a zero-rate trajectory's (empty) insertion
    /// schedule — diagonal batch tables and all — is **bit-identical** to the ideal
    /// compiled execution, amplitude for amplitude, on random circuits.
    #[test]
    fn rate_zero_trajectories_are_bit_identical_to_ideal(
        gates in proptest::collection::vec(arb_gate(5), 1..25),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        let n = 5;
        let circuit = circuit_from_gates(n, gates);
        let compiled = CompiledCircuit::compile(&circuit);
        let sampler = TrajectorySampler::new(&compiled, &zero_rate_model());
        let tables = compiled.prepare_batch_tables(&[&params]);
        let mut ideal = Statevector::basis_state(n, 1);
        compiled.execute_in_place(&params, &mut ideal);
        for trajectory in 0..3 {
            let schedule = sampler.sample(11, trajectory);
            prop_assert!(schedule.is_empty());
            let mut noisy = Statevector::basis_state(n, 1);
            compiled.execute_in_place_with_insertions(&params, &mut noisy, &schedule, Some(&tables));
            for (a, b) in noisy.to_amplitudes().iter().zip(ideal.to_amplitudes()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// The backend over a zero-rate model reproduces the exact backend's values (the
    /// prepared states are bit-identical; the readouts differ only in identity-term
    /// accumulation, pinned here to 1e-12).
    #[test]
    fn rate_zero_backend_matches_exact_backend(
        gates in proptest::collection::vec(arb_gate(5), 1..25),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        let n = 5;
        let circuit = circuit_from_gates(n, gates);
        let charged = PauliOp::from_labels(n, &[("ZZIII", -1.0), ("IXIXI", 0.4), ("IIIII", 0.3)]);
        let tracking = PauliOp::from_labels(n, &[("ZIIIZ", 0.9)]);
        let mut noisy = NoisyStatevectorBackend::with_policy(zero_rate_model(), 32, SeedPolicy::new(11))
            .with_trajectories(3);
        let mut exact = StatevectorBackend::with_shots(32);
        let (nc, nf) = noisy.evaluate(
            &circuit, &params, &InitialState::Basis(1), &charged, &[&tracking],
        );
        let (ec, ef) = exact.evaluate(
            &circuit, &params, &InitialState::Basis(1), &charged, &[&tracking],
        );
        prop_assert!((nc - ec).abs() < 1e-12);
        prop_assert!((nf[0] - ef[0]).abs() < 1e-12);
        prop_assert_eq!(noisy.shots_used(), exact.shots_used());
    }

    /// The sampler itself: rate-0 models sample empty schedules for every trajectory,
    /// and nonzero-rate schedules depend only on (seed, trajectory).
    #[test]
    fn schedules_are_empty_at_rate_zero_and_reproducible_otherwise(
        gates in proptest::collection::vec(arb_gate(4), 1..20),
        seed in 0u64..500,
    ) {
        let circuit = circuit_from_gates(4, gates);
        let compiled = CompiledCircuit::compile(&circuit);
        let zero = TrajectorySampler::new(&compiled, &zero_rate_model());
        prop_assert!(zero.is_trivial());
        for t in 0..4 {
            prop_assert!(zero.sample(seed, t).is_empty());
        }
        let noisy = TrajectorySampler::new(
            &compiled,
            &PauliNoiseModel::ibm_like("p", 0.05, 0.1, 0.02, 0.0),
        );
        for t in [0u64, 3, 17] {
            prop_assert_eq!(noisy.sample(seed, t), noisy.sample(seed, t));
        }
    }

    /// Batched trajectory evaluation is bit-identical to the serial evaluate loop at
    /// batch sizes 1, 2 and 17 (the chunk-splitting shape), with real noise rates.
    #[test]
    fn noisy_batches_equal_serial_bit_for_bit(
        gates in proptest::collection::vec(arb_gate(4), 1..15),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        let n = 4;
        let circuit = circuit_from_gates(n, gates);
        let charged = PauliOp::from_labels(n, &[("ZZII", -1.0), ("IXXI", 0.5)]);
        let model = PauliNoiseModel::ibm_like("p", 0.03, 0.08, 0.01, 0.02);
        for batch_size in [1usize, 2, 17] {
            let candidates: Vec<Vec<f64>> = (0..batch_size)
                .map(|k| params.iter().map(|p| p + 0.013 * k as f64).collect())
                .collect();
            let requests: Vec<EvalRequest<'_>> = candidates
                .iter()
                .map(|c| EvalRequest {
                    circuit: &circuit,
                    params: c,
                    initial: &InitialState::Basis(0),
                    charged_op: &charged,
                    free_ops: &[],
                    stream: None,
                })
                .collect();
            let mut batched = NoisyStatevectorBackend::with_policy(model.clone(), 16, SeedPolicy::new(23))
                .with_trajectories(5);
            let results = batched.evaluate_batch(&requests);
            let mut serial = NoisyStatevectorBackend::with_policy(model.clone(), 16, SeedPolicy::new(23))
                .with_trajectories(5);
            for (c, r) in candidates.iter().zip(&results) {
                let (charged_serial, _) =
                    serial.evaluate(&circuit, c, &InitialState::Basis(0), &charged, &[]);
                prop_assert_eq!(charged_serial.to_bits(), r.charged.to_bits());
            }
        }
    }
}

proptest! {
    // Fewer cases for the forced-parallel property: each case prepares many states.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The across-state parallel path (small register × requests × trajectories crossing
    /// the threshold, forced multi-worker) equals the serial loop bit for bit.
    #[test]
    fn parallel_trajectory_batches_equal_serial(
        gates in proptest::collection::vec(arb_gate(11), 1..10),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        force_parallel_workers();
        // 6 requests × 3 trajectories × 2^11 amplitudes crosses the default
        // QSIM_PAR_THRESHOLD of 2^14 while each state stays below it: the regime where
        // the pool parallelizes across (request, trajectory) work items.
        let n = 11;
        let circuit = circuit_from_gates(n, gates);
        let charged = PauliOp::from_labels(n, &[("ZZIIIIIIIII", -1.0), ("IIXIXIIIIII", 0.3)]);
        let model = PauliNoiseModel::depolarizing(0.02, 0.05).with_readout(0.01);
        let candidates: Vec<Vec<f64>> = (0..6)
            .map(|k| params.iter().map(|p| p + 0.011 * k as f64).collect())
            .collect();
        let requests: Vec<EvalRequest<'_>> = candidates
            .iter()
            .map(|c| EvalRequest {
                circuit: &circuit,
                params: c,
                initial: &InitialState::Basis(0),
                charged_op: &charged,
                free_ops: &[],
                stream: None,
            })
            .collect();
        let mut batched = NoisyStatevectorBackend::with_policy(model.clone(), 8, SeedPolicy::new(31))
            .with_trajectories(3);
        let results = batched.evaluate_batch(&requests);
        let mut serial = NoisyStatevectorBackend::with_policy(model, 8, SeedPolicy::new(31)).with_trajectories(3);
        for (c, r) in candidates.iter().zip(&results) {
            let (charged_serial, _) =
                serial.evaluate(&circuit, c, &InitialState::Basis(0), &charged, &[]);
            prop_assert_eq!(charged_serial.to_bits(), r.charged.to_bits());
        }
    }
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
    let diff = noisy
        .to_amplitudes()
        .iter()
        .zip(expected.to_amplitudes())
        .map(|(a, b)| (*a - b).norm())
        .fold(0.0, f64::max);
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
