//! Criterion micro-benchmarks for the compute kernels underlying every experiment:
//! Pauli-sum expectation values, circuit simulation, Pauli propagation, Lanczos ground
//! states, spectral clustering, and a miniature end-to-end TreeVQA step — plus
//! before/after comparisons of the optimized gate/expectation kernels against the naive
//! reference implementations retained in `qsim::reference`.
//!
//! Running `cargo bench -p treevqa_bench --bench kernels` also writes a machine-readable
//! `BENCH_kernels.json` summary (all timings) and prints the fast-vs-naive speedup table.

use criterion::{criterion_group, BatchSize, Criterion};
use qchem::MoleculeSpec;
use qcircuit::{Angle, Entanglement, Gate, HardwareEfficientAnsatz};
use qop::{ground_energy, LanczosOptions, PauliOp, Statevector};
use qsim::{reference, run_circuit, PauliPropagator, PauliPropagatorConfig};
use treevqa::{TreeVqa, TreeVqaConfig};
use treevqa_bench::workloads::{
    dense_state, mixed_rotation_string, synthetic_hamiltonian, uccsd_rotation_string,
};
use vqa::{InitialState, StatevectorBackend, VqaApplication, VqaTask};

fn bench_expectation(c: &mut Criterion) {
    let molecule = MoleculeSpec::beh2();
    let ham = molecule.hamiltonian(molecule.equilibrium_bond);
    let state = Statevector::uniform_superposition(molecule.num_qubits);
    c.bench_function("pauli_op_expectation_beh2", |b| {
        b.iter(|| std::hint::black_box(ham.expectation(&state)))
    });
}

fn bench_circuit_simulation(c: &mut Criterion) {
    let ansatz = HardwareEfficientAnsatz::new(8, 2, Entanglement::Circular).build();
    let params: Vec<f64> = (0..ansatz.num_parameters())
        .map(|i| 0.1 * i as f64)
        .collect();
    let init = Statevector::zero_state(8);
    c.bench_function("statevector_hea_8q_2rep", |b| {
        b.iter(|| std::hint::black_box(run_circuit(&ansatz, &params, &init)))
    });
}

fn bench_pauli_propagation(c: &mut Criterion) {
    let ansatz = HardwareEfficientAnsatz::new(16, 1, Entanglement::Linear).build();
    let params: Vec<f64> = (0..ansatz.num_parameters())
        .map(|i| 0.05 * i as f64)
        .collect();
    let ham = MoleculeSpec::c2h2().hamiltonian(1.2);
    let prop = PauliPropagator::new(PauliPropagatorConfig {
        max_weight: 4,
        coefficient_threshold: 1e-6,
        max_terms: 20_000,
    });
    c.bench_function("pauli_propagation_c2h2_16q", |b| {
        b.iter(|| std::hint::black_box(prop.expectation(&ansatz, &params, &ham, 0)))
    });
}

fn bench_lanczos(c: &mut Criterion) {
    let ham = qchem::transverse_field_ising(8, 1.0, 1.0);
    c.bench_function("lanczos_ground_energy_tfim_8q", |b| {
        b.iter(|| std::hint::black_box(ground_energy(&ham, &LanczosOptions::default())))
    });
}

fn bench_spectral_clustering(c: &mut Criterion) {
    let molecule = MoleculeSpec::lih();
    let hams: Vec<_> = molecule
        .bond_lengths(10)
        .into_iter()
        .map(|b| molecule.hamiltonian(b))
        .collect();
    let distances: Vec<Vec<f64>> = hams
        .iter()
        .map(|a| hams.iter().map(|b| a.l1_distance(b)).collect())
        .collect();
    c.bench_function("spectral_bipartition_10_tasks", |b| {
        b.iter(|| {
            let sim = cluster::SimilarityMatrix::from_distances(&distances);
            std::hint::black_box(cluster::spectral_bipartition(&sim, 7))
        })
    });
}

fn bench_treevqa_short_run(c: &mut Criterion) {
    let molecule = MoleculeSpec::h2();
    let tasks: Vec<VqaTask> = molecule
        .tasks(3)
        .into_iter()
        .map(|(bond, ham)| VqaTask::new(format!("r={bond:.3}"), bond, ham))
        .collect();
    let ansatz =
        HardwareEfficientAnsatz::new(molecule.num_qubits, 1, Entanglement::Circular).build();
    let app = VqaApplication::new(
        "bench",
        tasks,
        ansatz,
        InitialState::Basis(molecule.hartree_fock_state()),
    );
    let config = TreeVqaConfig {
        max_cluster_iterations: 30,
        record_every: 10,
        ..Default::default()
    };
    c.bench_function("treevqa_30_iterations_h2_3_tasks", |b| {
        b.iter_batched(
            || {
                (
                    TreeVqa::new(app.clone(), config.clone()),
                    qexec::Executor::single(StatevectorBackend::new()),
                )
            },
            |(tree, executor)| std::hint::black_box(tree.run(&executor).expect("well-formed")),
            BatchSize::SmallInput,
        )
    });
}

/// The qubit sizes for the fast-vs-naive comparisons (paper-scale register sweep).
const COMPARE_QUBITS: [usize; 4] = [12, 16, 20, 22];

fn bench_single_qubit_kernels(c: &mut Criterion) {
    for n in COMPARE_QUBITS {
        let gate = Gate::Rx(n / 2, Angle::Fixed(0.7));
        let mut state = dense_state(n);
        c.bench_function(&format!("single_qubit_rx/fast/{n}q"), |b| {
            b.iter(|| qsim::apply_gate(&mut state, &gate, &[]))
        });
        let mut amps = dense_state(n).to_amplitudes();
        c.bench_function(&format!("single_qubit_rx/naive/{n}q"), |b| {
            b.iter(|| reference::apply_gate_amps(&mut amps, &gate, &[]))
        });
    }
}

fn bench_cx_ladder_kernels(c: &mut Criterion) {
    for n in COMPARE_QUBITS {
        let ladder: Vec<Gate> = (0..n - 1).map(|q| Gate::Cx(q, q + 1)).collect();
        let mut state = dense_state(n);
        c.bench_function(&format!("cx_ladder/fast/{n}q"), |b| {
            b.iter(|| {
                for gate in &ladder {
                    qsim::apply_gate(&mut state, gate, &[]);
                }
            })
        });
        let mut amps = dense_state(n).to_amplitudes();
        c.bench_function(&format!("cx_ladder/naive/{n}q"), |b| {
            b.iter(|| {
                for gate in &ladder {
                    reference::apply_gate_amps(&mut amps, gate, &[]);
                }
            })
        });
    }
}

fn bench_pauli_rotation_kernels(c: &mut Criterion) {
    // The headline comparison uses the UCCSD/Jordan–Wigner excitation shape (the strings
    // the VQE hot loop actually rotates by); the x-dense worst case is tracked separately.
    for n in COMPARE_QUBITS {
        let string = uccsd_rotation_string(n);
        let mut state = dense_state(n);
        c.bench_function(&format!("pauli_rotation/fast/{n}q"), |b| {
            b.iter(|| qsim::apply_pauli_rotation(&mut state, &string, 0.9))
        });
        let mut amps = dense_state(n).to_amplitudes();
        c.bench_function(&format!("pauli_rotation/naive/{n}q"), |b| {
            b.iter(|| reference::apply_pauli_rotation_amps(&mut amps, &string, 0.9))
        });
    }
    for n in COMPARE_QUBITS {
        let string = mixed_rotation_string(n);
        let mut state = dense_state(n);
        c.bench_function(&format!("pauli_rotation_xdense/fast/{n}q"), |b| {
            b.iter(|| qsim::apply_pauli_rotation(&mut state, &string, 0.9))
        });
        let mut amps = dense_state(n).to_amplitudes();
        c.bench_function(&format!("pauli_rotation_xdense/naive/{n}q"), |b| {
            b.iter(|| reference::apply_pauli_rotation_amps(&mut amps, &string, 0.9))
        });
    }
}

fn bench_expectation_kernels(c: &mut Criterion) {
    for n in COMPARE_QUBITS {
        let op = synthetic_hamiltonian(n);
        let state = dense_state(n);
        c.bench_function(&format!("hamiltonian_expectation/fast/{n}q"), |b| {
            b.iter(|| std::hint::black_box(op.expectation(&state)))
        });
        let amps = state.to_amplitudes();
        c.bench_function(&format!("hamiltonian_expectation/naive/{n}q"), |b| {
            b.iter(|| {
                let serial: f64 = op
                    .terms()
                    .iter()
                    .map(|t| {
                        t.coefficient * PauliOp::string_expectation_naive_amps(&t.string, &amps)
                    })
                    .sum();
                std::hint::black_box(serial)
            })
        });
    }
}

/// One readout per state: a cluster's operator set read out operator by operator
/// (`per_op`) against one fused `TermBasis` readout plus the contractions (`basis`),
/// and what a request pays for its basis on an observable-cache miss (`build`) and on
/// a hit (`lookup`).  Same ids and workloads as the quick suite.
fn bench_term_basis(c: &mut Criterion) {
    use treevqa_bench::workloads::{lih6_op, maxcut14_cluster_ops, tfim12_cluster_ops};
    for (name, ops, plan_rows) in [
        ("tfim12_9ops", tfim12_cluster_ops(), true),
        ("maxcut14_5ops", maxcut14_cluster_ops(), false),
        ("lih6_1op", vec![lih6_op()], true),
    ] {
        let refs: Vec<&PauliOp> = ops.iter().collect();
        let state = dense_state(ops[0].num_qubits());
        c.bench_function(&format!("expectation/per_op/{name}"), |b| {
            b.iter(|| {
                for op in &ops {
                    std::hint::black_box(op.expectation(&state));
                }
            })
        });
        let basis = qop::TermBasis::new(&refs);
        let mut values = Vec::new();
        c.bench_function(&format!("expectation/basis/{name}"), |b| {
            b.iter(|| {
                basis.evaluate(&state, &mut values);
                for op in 0..basis.num_ops() {
                    std::hint::black_box(basis.op_value(op, &values));
                }
            })
        });
        if plan_rows {
            c.bench_function(&format!("expectation/basis/build/{name}"), |b| {
                b.iter(|| std::hint::black_box(qop::TermBasis::new(&refs)))
            });
            c.bench_function(&format!("expectation/basis/lookup/{name}"), |b| {
                b.iter(|| std::hint::black_box(basis.is_basis_of(refs.iter().copied())))
            });
        }
    }
}

fn configure() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = kernels;
    config = configure();
    targets = bench_expectation, bench_circuit_simulation, bench_pauli_propagation,
              bench_lanczos, bench_spectral_clustering, bench_treevqa_short_run
}

criterion_group! {
    name = kernel_comparisons;
    config = configure();
    targets = bench_single_qubit_kernels, bench_cx_ladder_kernels,
              bench_pauli_rotation_kernels, bench_expectation_kernels, bench_term_basis
}

/// Prints the fast-vs-naive speedup table from the recorded results.
fn print_speedups() {
    let results = criterion::all_results();
    let median = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.median_ns);
    println!("\n== fast-vs-naive kernel speedups (median) ==");
    for kernel in [
        "single_qubit_rx",
        "cx_ladder",
        "pauli_rotation",
        "pauli_rotation_xdense",
        "hamiltonian_expectation",
    ] {
        for n in COMPARE_QUBITS {
            if let (Some(fast), Some(naive)) = (
                median(&format!("{kernel}/fast/{n}q")),
                median(&format!("{kernel}/naive/{n}q")),
            ) {
                println!("{kernel:<24} {n:>2}q  {:.2}x", naive / fast);
            }
        }
    }
}

fn main() {
    // Comparisons run first so a long tail of macro benches cannot starve them.
    kernel_comparisons();
    kernels();
    print_speedups();
    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let entries =
        criterion::write_summary_json(json_path).expect("failed to write BENCH_kernels.json");
    println!("\nwrote {json_path} ({entries} benchmarks)");
}
