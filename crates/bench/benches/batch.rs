//! Criterion benchmarks for the execution engine: the fused [`CompiledCircuit`] on two
//! ansätze, and batched backend evaluation against the serial evaluate loop at several
//! batch sizes.
//!
//! Running `cargo bench -p treevqa_bench --bench batch` prints the batched-vs-serial
//! speedup table and writes the machine-readable `BENCH_batch.json` summary at the
//! workspace root.

use criterion::{criterion_group, Criterion};
use qcircuit::{Entanglement, HardwareEfficientAnsatz};
use qop::Statevector;
use qsim::CompiledCircuit;
use treevqa_bench::workloads::{ansatz_params, rotation_heavy_ansatz, tfim_hamiltonian};
use vqa::{Backend, EvalRequest, InitialState, StatevectorBackend};

const COMPILED_QUBITS: [usize; 3] = [12, 16, 18];

/// Fused compiled execution on the rotation-heavy ansatz.
fn bench_compiled(c: &mut Criterion) {
    for n in COMPILED_QUBITS {
        let circ = rotation_heavy_ansatz(n, 2);
        let params = ansatz_params(&circ);
        let compiled = CompiledCircuit::compile(&circ);
        let initial = Statevector::zero_state(n);
        let mut scratch = Statevector::zero_state(n);
        c.bench_function(&format!("circuit_exec/compiled/{n}q"), |b| {
            b.iter(|| {
                compiled.execute_into(&params, &initial, &mut scratch);
                std::hint::black_box(&scratch);
            })
        });
    }
}

/// Compiled execution of the standard hardware-efficient ansatz (Ry·Rz chains fuse).
fn bench_compiled_hea(c: &mut Criterion) {
    let n = 14;
    let circ = HardwareEfficientAnsatz::new(n, 3, Entanglement::Circular).build();
    let params = ansatz_params(&circ);
    let compiled = CompiledCircuit::compile(&circ);
    let initial = Statevector::zero_state(n);
    let mut scratch = Statevector::zero_state(n);
    c.bench_function(&format!("hea_exec/compiled/{n}q"), |b| {
        b.iter(|| {
            compiled.execute_into(&params, &initial, &mut scratch);
            std::hint::black_box(&scratch);
        })
    });
}

/// The three batch sizes of the batched-vs-serial comparison: the SPSA ± pair, a
/// simplex-build-sized batch, and a whole-controller-round-sized batch.
const BATCH_SIZES: [usize; 3] = [2, 8, 32];

/// Batched backend evaluation vs the serial evaluate loop on a 12-qubit TFIM-style
/// Hamiltonian (across-state parallel regime: each state is below the threshold, the
/// batch as a whole is above it).
fn bench_batched_vs_serial(c: &mut Criterion) {
    let n = 12;
    let circ = HardwareEfficientAnsatz::new(n, 2, Entanglement::Circular).build();
    let base = ansatz_params(&circ);
    let ham = tfim_hamiltonian(n);

    for batch in BATCH_SIZES {
        let candidates: Vec<Vec<f64>> = (0..batch)
            .map(|k| base.iter().map(|p| p + 0.01 * k as f64).collect())
            .collect();
        let mut backend = StatevectorBackend::with_shots(0);
        c.bench_function(&format!("evaluate/batched/{batch}"), |b| {
            b.iter(|| {
                let requests: Vec<EvalRequest<'_>> = candidates
                    .iter()
                    .map(|candidate| EvalRequest {
                        circuit: &circ,
                        params: candidate,
                        initial: &InitialState::Basis(0),
                        charged_op: &ham,
                        free_ops: &[],
                        stream: None,
                    })
                    .collect();
                std::hint::black_box(backend.evaluate_batch(&requests));
            })
        });
        let mut backend = StatevectorBackend::with_shots(0);
        c.bench_function(&format!("evaluate/serial/{batch}"), |b| {
            b.iter(|| {
                for candidate in &candidates {
                    std::hint::black_box(backend.evaluate(
                        &circ,
                        candidate,
                        &InitialState::Basis(0),
                        &ham,
                        &[],
                    ));
                }
            })
        });
    }
}

fn configure() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = batch_benches;
    config = configure();
    targets = bench_compiled, bench_compiled_hea, bench_batched_vs_serial
}

/// Prints the batched-vs-serial speedup table from the recorded results.
fn print_speedups() {
    let results = criterion::all_results();
    let median = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.median_ns);
    println!("\n== batched-vs-serial backend evaluation (median) ==");
    for batch in BATCH_SIZES {
        if let (Some(batched), Some(serial)) = (
            median(&format!("evaluate/batched/{batch}")),
            median(&format!("evaluate/serial/{batch}")),
        ) {
            println!("batch size {batch:>3}  {:.2}x", serial / batched);
        }
    }
}

fn main() {
    batch_benches();
    print_speedups();
    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    let entries =
        criterion::write_summary_json(json_path).expect("failed to write BENCH_batch.json");
    println!("\nwrote {json_path} ({entries} benchmarks)");
}
