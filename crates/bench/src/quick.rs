//! The workspace's one layer-timing harness.
//!
//! `cargo run --release -p treevqa_bench --bin quick_bench [path]` runs a fixed list of
//! workloads (builders in [`crate::workloads`]) with **fixed** iteration and sample
//! counts — no adaptive calibration, no RNG — and writes the records under a [`Host`]
//! header to `path` (default `target/bench_quick.json`).  `BENCH_quick.json` at the
//! repository root is one such run, stamped with the host that recorded it.  CI runs
//! the suite on every push and uploads the file, so a trajectory accumulates per host;
//! nothing compares a run against a file recorded on another host — the regression
//! gate is the repository benchmark (`BENCHMARK.json`), which runs parent and change on
//! one host.
//!
//! # Paired ids
//!
//! Records meant to be read against each other are timed by `time_pair`, whose samples
//! alternate A, B, A, B…, so drift of the host falls on both sides alike:
//! `evaluate/batched/8` with `evaluate/serial/8`, and `exec/jobs/4clients_32x12q` with
//! `exec/obs/jobs_on/32x12q` (tracing off and on).
//!
//! # Attribution ids
//!
//! - `cx_ladder/fast/12q`: 11 CX gates, one `apply_cx` pass each — the per-gate
//!   baseline of `cx_ring/compiled/12q`, the circular HEA's 12-CX ring compiled into one
//!   CX run and applied as one gather.  `single_qubit_rx/fast/12q_q{0,1,2,3}` time the
//!   low-qubit bodies beside the high-qubit `single_qubit_rx/fast/12q` (qubit 6), and
//!   `circuit_exec/hea6/6q` the 6-qubit HEA of the two net workloads, whose rings stay
//!   below the gather floor.
//! - `par/region/empty_2x4096`: one parallel region of the vendored rayon around empty
//!   work — two pieces of 4096 indices — the spawn-and-join cost that
//!   `qop::par::map_states` pays per chunk it spreads (no spawn at one rayon thread).
//! - `expectation/basis/diag11/12q` and `expectation/basis/xfield/12q`: the two halves
//!   of a 12-site TFIM readout, its 11 ZZ strings (one diagonal group) and its 12
//!   single-X strings (twelve off-diagonal groups), beside the whole cluster's
//!   `expectation/basis/tfim12_9ops` and the diagonal `expectation/basis/maxcut14_5ops`.
//! - `diagonal/tabulated/ieee14_14q` and `circuit_exec/qaoa_ieee14/14q`: the IEEE-14
//!   multi-angle QAOA circuit (p = 1) of `tree_maxcut14_noisy` on tables bound once by
//!   `prepare_batch_tables`, as the trajectory driver binds them — its cost layer alone
//!   (one tabulated diagonal pass; 6 of its 20 ZZ terms span the split at qubit 7), and
//!   the whole 29-op execution from `|0⟩` (`execute_from_basis`).  The cost layers of
//!   `circuit_exec/{compiled,from_basis}/12q` and `noisy_eval/trajectories/14q_k4`
//!   (ring and chords) put 6 of 24 and 6 of 28 terms across the split.
//!
//! # Retired ids
//!
//! Earlier per-layer files carried ids this suite does not time, each for one reason:
//!
//! - `{single_qubit_rx, cx_ladder, pauli_rotation, pauli_rotation_xdense,
//!   hamiltonian_expectation}/naive/*`: they time the `qsim::reference` test oracles,
//!   not a product path.
//! - the same kernels' `fast/{16,20,22}q` rows and `circuit_exec/compiled/{16,18}q`: no
//!   dense product path runs above 14 qubits, and the 12-qubit rows time the same bodies.
//! - `hea_exec/compiled/14q`: `evaluate/batched/14q_8` executes the same ansatz family
//!   at 14 qubits through the driver that runs it.
//! - `pauli_op_expectation_beh2`: the `PauliOp::expectation` kernel that
//!   `hamiltonian_expectation/fast/12q` and `expectation/per_op/*` time.
//! - `statevector_hea_8q_2rep`: `qsim::run_circuit` compiles and runs an 8-qubit circuit;
//!   `circuit_exec/*` time the compiled executor at the evaluation's sizes.
//! - `lanczos_ground_energy_tfim_8q`: a single 256-amplitude tile of
//!   `PauliOp::apply_into`; the 12-qubit row also covers cross-tile sources.
//! - `evaluate/{batched,serial}/{2,32}` and `noisy_eval/trajectories/{4,64}`: outer points
//!   of size sweeps whose middle point stays.
//! - the `*@parent` rows: a parent commit's measurement kept beside a change's, not a
//!   workload.
//! - the noise file's quality section (ideal vs noisy IEEE-14 MaxCut): a result, not a
//!   timing; `examples/noisy_maxcut` prints it.
//! - the fairness section: `fair_scheduling_interleaves_clients_round_robin` in
//!   `tests/tests/executor.rs` holds exact round-robin order.
//! - the 256-into-64 overload scenario: `reject_policy_fails_submissions_beyond_capacity`
//!   in `tests/tests/robustness.rs` holds the exact accept/reject split.
//! - the `derived` sections (jobs/s, probe round trip, tracing overhead): ratios of
//!   records this suite keeps.

use crate::workloads;
use qexec::{AdmissionPolicy, EvalJob, Executor, SeedPolicy, SubmitOptions};
use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;
use vqa::{Backend, EvalRequest, InitialState, NoisyStatevectorBackend, StatevectorBackend};

/// One timed quick-bench workload.
#[derive(Clone, Debug)]
pub struct QuickRecord {
    /// Benchmark id, stable across runs so records line up id for id.
    pub id: String,
    /// Median per-iteration wall time over the samples, in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration wall time.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (fixed per workload — the "deterministic" in
    /// deterministic mode).
    pub iters_per_sample: usize,
}

/// The machine and build a quick run was recorded on: the header of every quick-bench
/// file, since a timing means nothing without them.
#[derive(Clone, Debug)]
pub struct Host {
    /// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`, or 0 when it cannot be read.
    pub logical_cpus: usize,
    /// The threads `qop::par::map_states` spreads a chunk over.
    pub rayon_threads: usize,
    /// `rustc -V` of the compiler that built this binary.
    pub rustc: String,
    /// `git describe --always --dirty --abbrev=40 --exclude=*` in the working directory:
    /// the 40-hex `HEAD` commit (no tag name, even on a tagged commit), suffixed `-dirty`
    /// when the tree has uncommitted changes (a run recorded before its commit measures
    /// that tree, not `HEAD`), or `"unknown"`.
    pub commit: String,
}

impl Host {
    /// Reads the host this process runs on; every field falls back rather than fails.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|line| {
                    let (key, value) = line.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = Command::new("git")
            .args([
                "describe",
                "--always",
                "--dirty",
                "--abbrev=40",
                "--exclude=*",
            ])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu_model,
            logical_cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            rustc: env!("QUICK_RUSTC_VERSION").to_string(),
            commit,
        }
    }
}

/// Samples per workload (fixed; sample 0 is preceded by one untimed warmup pass).
const QUICK_SAMPLES: usize = 9;

/// Wall time per iteration of one sample of `iters` iterations, in nanoseconds.
fn sample(iters: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The record of `id` from its per-iteration sample times.
fn record(id: &str, iters: usize, mut per_iter: Vec<f64>) -> QuickRecord {
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    QuickRecord {
        id: id.to_string(),
        median_ns: median,
        mean_ns: mean,
        min_ns: per_iter[0],
        max_ns: *per_iter.last().unwrap(),
        samples: per_iter.len(),
        iters_per_sample: iters,
    }
}

fn time_workload(id: &str, iters: usize, mut f: impl FnMut()) -> QuickRecord {
    // One untimed warmup pass populates caches and faults in the state memory.
    sample(iters, &mut f);
    let per_iter = (0..QUICK_SAMPLES).map(|_| sample(iters, &mut f)).collect();
    record(id, iters, per_iter)
}

/// Times two workloads whose records are read against each other, their samples
/// alternating A, B, A, B…: a slow stretch of the host lands on both records alike
/// instead of on whichever ran during it.
fn time_pair(
    [id_a, id_b]: [&str; 2],
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> [QuickRecord; 2] {
    sample(iters, &mut a);
    sample(iters, &mut b);
    let (mut per_a, mut per_b) = (Vec::new(), Vec::new());
    for _ in 0..QUICK_SAMPLES {
        per_a.push(sample(iters, &mut a));
        per_b.push(sample(iters, &mut b));
    }
    [record(id_a, iters, per_a), record(id_b, iters, per_b)]
}

/// `count` candidate parameter vectors stepping away from `base`: an optimizer batch.
fn candidates_around(base: &[f64], count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|k| base.iter().map(|p| p + 0.01 * k as f64).collect())
        .collect()
}

/// One stream-less request per candidate, all binding `circ` and charging `ham`.
fn candidate_requests<'a>(
    circ: &'a qcircuit::Circuit,
    candidates: &'a [Vec<f64>],
    ham: &'a qop::PauliOp,
) -> Vec<EvalRequest<'a>> {
    candidates
        .iter()
        .map(|candidate| EvalRequest {
            circuit: circ,
            params: candidate,
            initial: &InitialState::Basis(0),
            charged_op: ham,
            free_ops: &[],
            stream: None,
        })
        .collect()
}

/// A Bell-pair job on 2 qubits: its evaluation costs microseconds, so a record of it
/// times the service path around the evaluation.
struct TinyJob(Arc<qcircuit::Circuit>, Arc<qop::PauliOp>);

impl TinyJob {
    fn new() -> Self {
        let mut circ = qcircuit::Circuit::new(2);
        circ.push(qcircuit::Gate::H(0));
        circ.push(qcircuit::Gate::Cx(0, 1));
        TinyJob(
            Arc::new(circ),
            Arc::new(qop::PauliOp::from_labels(2, &[("ZZ", 1.0)])),
        )
    }

    fn job(&self) -> EvalJob {
        EvalJob::new(
            Arc::clone(&self.0),
            Vec::new(),
            InitialState::Basis(0),
            Arc::clone(&self.1),
        )
    }
}

/// The slate workload's jobs: a circular HEA on `n` qubits charging a TFIM Hamiltonian,
/// job `i` nudging every parameter by `0.001 · i`.
struct SlateJobs {
    circ: Arc<qcircuit::Circuit>,
    base: Vec<f64>,
    ham: Arc<qop::PauliOp>,
}

impl SlateJobs {
    fn new(n: usize) -> Self {
        let circ =
            qcircuit::HardwareEfficientAnsatz::new(n, 2, qcircuit::Entanglement::Circular).build();
        SlateJobs {
            base: workloads::ansatz_params(&circ),
            circ: Arc::new(circ),
            ham: Arc::new(workloads::tfim_hamiltonian(n)),
        }
    }

    fn job(&self, i: usize) -> EvalJob {
        let params: Vec<f64> = self.base.iter().map(|p| p + 0.001 * i as f64).collect();
        EvalJob::new(
            Arc::clone(&self.circ),
            params,
            InitialState::Basis(0),
            Arc::clone(&self.ham),
        )
    }

    /// Runs 32 jobs from `clients`, assembled under pause and released as one fair
    /// round-robin slate, which the service coalesces into one batched driver call.
    fn run_on(&self, executor: &Executor, clients: &[qexec::ExecClient]) {
        executor.pause();
        let handles: Vec<_> = (0..32)
            .map(|i| clients[i % clients.len()].submit(self.job(i)).unwrap())
            .collect();
        executor.resume();
        black_box(qexec::wait_all(&handles).unwrap());
    }
}

/// Runs the deterministic quick suite: one 12-qubit representative per dense kernel
/// family, the readout, compiled-execution and batched-evaluation paths (the last also
/// at 14 qubits, the one register size of the end-to-end benchmark where a single state
/// fills the `map_states` threshold), reference energies, Pauli propagation, a
/// controller split and a miniature TreeVQA run, noisy evaluation, and the execution
/// service in process and over loopback TCP.
///
/// Iteration counts are fixed so a full run takes seconds.
pub fn run_quick_suite() -> Vec<QuickRecord> {
    let n = 12;
    let mut records = Vec::new();

    {
        let gate = qcircuit::Gate::Rx(n / 2, qcircuit::Angle::Fixed(0.7));
        let mut state = workloads::dense_state(n);
        records.push(time_workload("single_qubit_rx/fast/12q", 2000, || {
            qsim::apply_gate(&mut state, &gate, &[])
        }));
    }
    // Qubits 0 and 1 put both halves of every pair in one 4-lane chunk, qubits 2 and 3
    // in one 8- or 16-lane window: each has its own full-width body.
    for (id, q) in [
        ("single_qubit_rx/fast/12q_q0", 0),
        ("single_qubit_rx/fast/12q_q1", 1),
        ("single_qubit_rx/fast/12q_q2", 2),
        ("single_qubit_rx/fast/12q_q3", 3),
    ] {
        let gate = qcircuit::Gate::Rx(q, qcircuit::Angle::Fixed(0.7));
        let mut state = workloads::dense_state(n);
        records.push(time_workload(id, 2000, || {
            qsim::apply_gate(&mut state, &gate, &[])
        }));
    }
    {
        let mut state = workloads::dense_state(n);
        records.push(time_workload("cx/fast/12q_q01", 4000, || {
            qsim::apply_cx(&mut state, 0, 1)
        }));
    }
    {
        // The per-gate baseline: 11 CX passes, one `apply_cx` each.
        let ladder: Vec<qcircuit::Gate> =
            (0..n - 1).map(|q| qcircuit::Gate::Cx(q, q + 1)).collect();
        let mut state = workloads::dense_state(n);
        records.push(time_workload("cx_ladder/fast/12q", 500, || {
            for gate in &ladder {
                qsim::apply_gate(&mut state, gate, &[]);
            }
        }));
    }
    {
        // The circular HEA's 12-CX ring, compiled: one CX run, applied as one gather.
        let mut ring = qcircuit::Circuit::new(n);
        for q in 0..n {
            ring.push(qcircuit::Gate::Cx(q, (q + 1) % n));
        }
        let ring = qsim::CompiledCircuit::compile(&ring);
        let mut state = workloads::dense_state(n);
        records.push(time_workload("cx_ring/compiled/12q", 500, || {
            ring.execute_in_place(&[], &mut state);
            black_box(&state);
        }));
    }
    {
        let string = workloads::uccsd_rotation_string(n);
        let mut state = workloads::dense_state(n);
        records.push(time_workload("pauli_rotation/fast/12q", 2000, || {
            qsim::apply_pauli_rotation(&mut state, &string, 0.9)
        }));
    }
    {
        let string = workloads::mixed_rotation_string(n);
        let mut state = workloads::dense_state(n);
        records.push(time_workload(
            "pauli_rotation_xdense/fast/12q",
            2000,
            || qsim::apply_pauli_rotation(&mut state, &string, 0.9),
        ));
    }
    {
        let op = workloads::synthetic_hamiltonian(n);
        let state = workloads::dense_state(n);
        records.push(time_workload(
            "hamiltonian_expectation/fast/12q",
            300,
            || {
                black_box(op.expectation(&state));
            },
        ));
    }
    {
        // The matrix-vector product of a Lanczos step, and a whole 12-qubit reference
        // energy (the end-to-end benchmark's `tree_tfim12` set-up runs eight).
        let ham = qchem::transverse_field_ising(n, 1.0, 1.0);
        let state = workloads::dense_state(n);
        let mut out = state.zeros_like();
        records.push(time_workload("pauli_op_apply/tfim/12q", 300, || {
            ham.apply_into(&state, &mut out);
            black_box(&out);
        }));
        records.push(time_workload("lanczos_ground_energy_tfim_12q", 2, || {
            black_box(qop::ground_energy(&ham, &qop::LanczosOptions::default()));
        }));
    }
    {
        // fig9's driver, the one product path above 14 qubits: truncated Pauli
        // propagation of C2H2 through a 16-qubit linear HEA at fig9's truncation.
        let ansatz =
            qcircuit::HardwareEfficientAnsatz::new(16, 1, qcircuit::Entanglement::Linear).build();
        let params: Vec<f64> = (0..ansatz.num_parameters())
            .map(|i| 0.05 * i as f64)
            .collect();
        let ham = qchem::MoleculeSpec::c2h2().hamiltonian(1.2);
        let prop = qsim::PauliPropagator::new(qsim::PauliPropagatorConfig {
            max_weight: 4,
            coefficient_threshold: 1e-6,
            max_terms: 20_000,
        });
        records.push(time_workload("pauli_propagation_c2h2_16q", 4, || {
            black_box(prop.expectation(&ansatz, &params, &ham, 0));
        }));
    }
    {
        // One controller split: the similarity matrix and spectral bipartition of a
        // 10-task LiH application from its pairwise L1 Hamiltonian distances.
        let molecule = qchem::MoleculeSpec::lih();
        let hams: Vec<_> = molecule
            .bond_lengths(10)
            .into_iter()
            .map(|b| molecule.hamiltonian(b))
            .collect();
        let distances: Vec<Vec<f64>> = hams
            .iter()
            .map(|a| hams.iter().map(|b| a.l1_distance(b)).collect())
            .collect();
        records.push(time_workload("spectral_bipartition_10_tasks", 400, || {
            let sim = cluster::SimilarityMatrix::from_distances(&distances);
            black_box(cluster::spectral_bipartition(&sim, 7));
        }));
    }
    {
        // A whole TreeVQA run in miniature — 30 cluster iterations over 3 H2 tasks —
        // on a fresh executor, whose start and shutdown fall inside the timing.
        let molecule = qchem::MoleculeSpec::h2();
        let tasks: Vec<vqa::VqaTask> = molecule
            .tasks(3)
            .into_iter()
            .map(|(bond, ham)| vqa::VqaTask::new(format!("r={bond:.3}"), bond, ham))
            .collect();
        let ansatz = qcircuit::HardwareEfficientAnsatz::new(
            molecule.num_qubits,
            1,
            qcircuit::Entanglement::Circular,
        )
        .build();
        let app = vqa::VqaApplication::new(
            "bench",
            tasks,
            ansatz,
            InitialState::Basis(molecule.hartree_fock_state()),
        );
        let config = treevqa::TreeVqaConfig {
            max_cluster_iterations: 30,
            record_every: 10,
            ..Default::default()
        };
        records.push(time_workload(
            "treevqa_30_iterations_h2_3_tasks",
            20,
            || {
                let executor = Executor::single(StatevectorBackend::new());
                let tree = treevqa::TreeVqa::new(app.clone(), config.clone());
                black_box(tree.run(&executor).expect("well-formed"));
            },
        ));
    }
    // One readout per state: a cluster's operator set read out operator by operator
    // (`per_op`, what the drivers did before the term basis) against one fused
    // `TermBasis` readout plus the contractions (`basis`); then what a request pays
    // for its basis — built on an observable-cache miss (`build`), recognized on a
    // hit (`lookup`).
    for (name, ops, iters, plan_rows) in [
        ("tfim12_9ops", workloads::tfim12_cluster_ops(), 40, true),
        (
            "maxcut14_5ops",
            workloads::maxcut14_cluster_ops(),
            12,
            false,
        ),
        ("lih6_1op", vec![workloads::lih6_op()], 4000, true),
    ] {
        let refs: Vec<&qop::PauliOp> = ops.iter().collect();
        let state = workloads::dense_state(ops[0].num_qubits());
        records.push(time_workload(
            &format!("expectation/per_op/{name}"),
            iters,
            || {
                for op in &ops {
                    black_box(op.expectation(&state));
                }
            },
        ));
        let basis = qop::TermBasis::new(&refs);
        let mut values = Vec::new();
        records.push(time_workload(
            &format!("expectation/basis/{name}"),
            iters * 4,
            || {
                basis.evaluate(&state, &mut values);
                for op in 0..basis.num_ops() {
                    black_box(basis.op_value(op, &values));
                }
            },
        ));
        if plan_rows {
            records.push(time_workload(
                &format!("expectation/basis/build/{name}"),
                4000,
                || {
                    black_box(qop::TermBasis::new(&refs));
                },
            ));
            records.push(time_workload(
                &format!("expectation/basis/lookup/{name}"),
                40000,
                || {
                    black_box(basis.is_basis_of(refs.iter().copied()));
                },
            ));
        }
    }
    {
        // The two halves of the TFIM readout apart: its ZZ strings (one diagonal group)
        // and its X field (one single-string group per qubit).
        let tfim = qchem::transverse_field_ising(n, 1.0, 1.0);
        let state = workloads::dense_state(n);
        for (name, diagonal) in [("diag11", true), ("xfield", false)] {
            let mut half = qop::PauliOp::zero(n);
            for term in tfim.terms() {
                if (term.string.x_mask() == 0) == diagonal {
                    half.add_term(term.string, term.coefficient);
                }
            }
            let basis = qop::TermBasis::new(&[&half]);
            let mut values = Vec::new();
            records.push(time_workload(
                &format!("expectation/basis/{name}/12q"),
                400,
                || {
                    basis.evaluate(&state, &mut values);
                    black_box(&values);
                },
            ));
        }
    }
    {
        // The readout of one X-string group on the lowest pivot.
        let mut x0 = qop::PauliOp::zero(n);
        x0.add_term(qop::PauliString::from_masks(1, 0, n), 1.0);
        let basis = qop::TermBasis::new(&[&x0]);
        let state = workloads::dense_state(n);
        let mut values = Vec::new();
        records.push(time_workload("expectation/basis/x0/12q", 2000, || {
            basis.evaluate(&state, &mut values);
            black_box(&values);
        }));
    }
    {
        let circ = workloads::rotation_heavy_ansatz(n, 2);
        let params = workloads::ansatz_params(&circ);
        let compiled = qsim::CompiledCircuit::compile(&circ);
        let initial = qop::Statevector::zero_state(n);
        let mut scratch = qop::Statevector::zero_state(n);
        records.push(time_workload("circuit_exec/compiled/12q", 150, || {
            compiled.execute_into(&params, &initial, &mut scratch);
            black_box(&scratch);
        }));
        // The dense driver's entry: the same circuit started from a basis state, its
        // leading single-qubit layer written by doubling (the product prefix).
        records.push(time_workload("circuit_exec/from_basis/12q", 150, || {
            compiled.execute_from_basis(0, &params, &mut scratch, &[], None);
            black_box(&scratch);
        }));
    }
    {
        // The 6-qubit circular HEA (2 layers) that `base_lih6_net2` and `slate_hea6_net2`
        // run, from a basis state as the dense driver starts it: its 6-CX rings stay
        // below the gather floor, and four of its six qubits take the low-qubit bodies.
        let circ =
            qcircuit::HardwareEfficientAnsatz::new(6, 2, qcircuit::Entanglement::Circular).build();
        let params = workloads::ansatz_params(&circ);
        let compiled = qsim::CompiledCircuit::compile(&circ);
        let mut scratch = qop::Statevector::zero_state(6);
        records.push(time_workload("circuit_exec/hea6/6q", 4000, || {
            compiled.execute_from_basis(0, &params, &mut scratch, &[], None);
            black_box(&scratch);
        }));
    }
    {
        // The IEEE-14 QAOA of `tree_maxcut14_noisy` on tables bound once, as the
        // trajectory driver binds them: its cost layer alone, then the whole circuit
        // from a basis state.
        let circ = workloads::ieee14_qaoa(1);
        let params = workloads::ansatz_params(&circ);
        let mut cost_layer = qcircuit::Circuit::new(circ.num_qubits());
        for gate in circ.gates() {
            if let qcircuit::Gate::PauliRotation(..) = gate {
                cost_layer.push(gate.clone());
            }
        }
        let mut state = workloads::dense_state(circ.num_qubits());
        let cost = qsim::CompiledCircuit::compile(&cost_layer);
        let tables = cost.prepare_batch_tables(&[&params]);
        records.push(time_workload("diagonal/tabulated/ieee14_14q", 400, || {
            cost.execute_in_place_with_insertions(&params, &mut state, &[], Some(&tables));
            black_box(&state);
        }));
        let compiled = qsim::CompiledCircuit::compile(&circ);
        let tables = compiled.prepare_batch_tables(&[&params]);
        records.push(time_workload("circuit_exec/qaoa_ieee14/14q", 100, || {
            compiled.execute_from_basis(0, &params, &mut state, &[], Some(&tables));
            black_box(&state);
        }));
    }
    // An optimizer batch of 8 through `evaluate_batch`, against the same 8 candidates
    // one `evaluate` call at a time at 12 qubits (samples alternating); the 14-qubit
    // id is the same batch on 2^14-amplitude registers, where any two states clear the
    // `map_states` threshold on their own.
    for (batched_id, serial_id, n, iters) in [
        ("evaluate/batched/8", Some("evaluate/serial/8"), n, 30),
        ("evaluate/batched/14q_8", None, 14, 3),
    ] {
        let circ =
            qcircuit::HardwareEfficientAnsatz::new(n, 2, qcircuit::Entanglement::Circular).build();
        let base = workloads::ansatz_params(&circ);
        let ham = workloads::tfim_hamiltonian(n);
        let candidates = candidates_around(&base, 8);
        let mut backend = StatevectorBackend::with_shots(0);
        let batched = || {
            let requests = candidate_requests(&circ, &candidates, &ham);
            black_box(backend.evaluate_batch(&requests));
        };
        let Some(serial_id) = serial_id else {
            records.push(time_workload(batched_id, iters, batched));
            continue;
        };
        let mut serial_backend = StatevectorBackend::with_shots(0);
        let serial = || {
            for candidate in &candidates {
                black_box(serial_backend.evaluate(
                    &circ,
                    candidate,
                    &InitialState::Basis(0),
                    &ham,
                    &[],
                ));
            }
        };
        records.extend(time_pair([batched_id, serial_id], iters, batched, serial));
    }
    {
        // 16 noise trajectories of one evaluation, against the ideal single rollout of
        // the same circuit and Hamiltonian.
        let circ = workloads::rotation_heavy_ansatz(n, 2);
        let params = workloads::ansatz_params(&circ);
        let ham = workloads::zz_ring_hamiltonian(n);
        let mut ideal = StatevectorBackend::with_shots(0);
        records.push(time_workload("noisy_eval/ideal_baseline", 30, || {
            black_box(ideal.evaluate(&circ, &params, &InitialState::Basis(0), &ham, &[]));
        }));
        let mut backend = NoisyStatevectorBackend::with_policy(
            workloads::bench_noise_model(),
            0,
            SeedPolicy::new(7),
        )
        .with_trajectories(16);
        records.push(time_workload("noisy_eval/trajectories/16", 8, || {
            black_box(backend.evaluate(&circ, &params, &InitialState::Basis(0), &ham, &[]));
        }));
    }
    {
        // The end-to-end benchmark's `tree_maxcut14_noisy` slate in miniature: a batch of
        // 3 requests × 4 trajectories of a one-layer multi-angle-QAOA-shaped circuit on
        // 2^14 amplitudes — 12 rollouts in one chunk.
        let n = 14;
        let circ = workloads::rotation_heavy_ansatz(n, 1);
        let base = workloads::ansatz_params(&circ);
        let ham = workloads::zz_ring_hamiltonian(n);
        let candidates = candidates_around(&base, 3);
        let mut backend = NoisyStatevectorBackend::with_policy(
            workloads::bench_noise_model(),
            0,
            SeedPolicy::new(7),
        )
        .with_trajectories(4);
        records.push(time_workload("noisy_eval/trajectories/14q_k4", 3, || {
            let requests = candidate_requests(&circ, &candidates, &ham);
            black_box(backend.evaluate_batch(&requests));
        }));
    }
    {
        // One parallel region around empty work (see the module docs).
        use rayon::prelude::*;
        records.push(time_workload("par/region/empty_2x4096", 200, || {
            (0..8192).into_par_iter().with_min_len(4096).for_each(|i| {
                black_box(i);
            });
        }));
    }
    let tiny = TinyJob::new();
    let slate = SlateJobs::new(n);
    {
        // Execution-service overhead: one probe-job round trip isolates the submit →
        // schedule → complete → wake path.
        let executor = Executor::single(StatevectorBackend::with_shots(0));
        let client = executor.client();
        records.push(time_workload("exec/submit_probe/2q", 500, || {
            black_box(client.submit_probe(tiny.job()).unwrap().wait().unwrap());
        }));
        // Executor jobs/s at 12q; the direct-backend counterpart is `evaluate/batched/8`,
        // so the pair bounds the service's batching overhead.  Beside it, samples
        // alternating, the same slate with full observability on — the builder flag
        // records spans for that executor, and the process-wide flag makes the vqa
        // cache counters tick too — so the pair bounds the fully-enabled tracing cost.
        let traced = Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(0))
            .observability(true)
            .start();
        let clients: Vec<_> = (0..4).map(|_| executor.client()).collect();
        let traced_clients: Vec<_> = (0..4).map(|_| traced.client()).collect();
        records.extend(time_pair(
            ["exec/jobs/4clients_32x12q", "exec/obs/jobs_on/32x12q"],
            8,
            || {
                qexec::qobs::set_enabled(false);
                slate.run_on(&executor, &clients);
            },
            || {
                qexec::qobs::set_enabled(true);
                slate.run_on(&traced, &traced_clients);
            },
        ));
        // Force recording back off so the remaining workloads (and any executor they
        // construct) run untraced regardless of the ambient `QOBS` value.
        qexec::qobs::set_enabled(false);
    }
    {
        // Admission-control overhead: a paused executor whose 1-deep queue is already
        // full, so every timed submission exercises the bounded-queue Reject fast path
        // end to end — validate, admission scan, structured refusal — without any
        // execution noise.
        let executor = Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(0))
            .queue_capacity(1)
            .paused()
            .start();
        let client = executor.client();
        let _plug = client.submit(tiny.job()).unwrap();
        records.push(time_workload("exec/overload/reject/1cap", 2000, || {
            black_box(client.submit(tiny.job()).unwrap_err());
        }));
    }
    {
        // Load-shedding steady state: an 8-deep queue under `ShedLowestPriority` with
        // strictly escalating priorities, so once warm every timed submission admits the
        // newcomer and evicts the current lowest-priority job — the record times the
        // victim scan plus the evicted handle's completion.
        let executor = Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(0))
            .queue_capacity(8)
            .admission(AdmissionPolicy::ShedLowestPriority)
            .paused()
            .start();
        let client = executor.client();
        let mut priority: i32 = 0;
        records.push(time_workload("exec/overload/shed/8cap", 2000, || {
            priority += 1;
            let opts = SubmitOptions {
                priority,
                ..SubmitOptions::default()
            };
            black_box(client.submit_with(tiny.job(), &opts).unwrap());
        }));
    }
    {
        // Network serving overhead: the execution service again, through real loopback
        // TCP connections.  The probe round trip, against `exec/submit_probe/2q`,
        // bounds the wire cost per request (framing, codec, one socket round trip,
        // demultiplexing); the `net/jobs/*` slates measure served jobs/s as the same
        // 32-job 12q workload fans out over 1, 4, and 16 connections, each connection
        // shipping its share as one batch frame (a coalesced slate server-side).
        let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(0)));
        let server = qnet::NetServer::bind("127.0.0.1:0", Arc::clone(&executor))
            .expect("bind loopback bench server");
        {
            let client =
                qnet::NetClient::connect(server.local_addr()).expect("connect bench client");
            records.push(time_workload("net/rtt/probe_2q", 300, || {
                black_box(client.submit_probe(tiny.job()).unwrap().wait().unwrap());
            }));
        }
        for conns in [1usize, 4, 16] {
            let clients: Vec<_> = (0..conns)
                .map(|_| qnet::NetClient::connect(server.local_addr()).expect("connect"))
                .collect();
            let per_conn = 32 / conns;
            records.push(time_workload(
                &format!("net/jobs/{conns}conn_32x12q"),
                8,
                || {
                    let groups: Vec<_> = clients
                        .iter()
                        .enumerate()
                        .map(|(c, client)| {
                            let jobs = (0..per_conn).map(|i| slate.job(c * per_conn + i));
                            client.submit_group(jobs.collect()).expect("batch submit")
                        })
                        .collect();
                    for group in &groups {
                        for handle in group {
                            black_box(handle.wait().unwrap());
                        }
                    }
                },
            ));
        }
    }

    records
}

/// Escapes `s` for a JSON string literal (quotes and backslashes; the suite writes no
/// control characters).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Serializes a quick run: the [`Host`] header, then the `records` array, one record
/// per line.
pub fn to_json(host: &Host, records: &[QuickRecord]) -> String {
    let mut out = format!(
        "{{\n  \"host\": {{\"cpu_model\": {}, \"logical_cpus\": {}, \"rayon_threads\": {}, \
         \"rustc\": {}, \"commit\": {}}},\n  \"records\": [\n",
        json_str(&host.cpu_model),
        host.logical_cpus,
        host.rayon_threads,
        json_str(&host.rustc),
        json_str(&host.commit),
    );
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            json_str(&r.id), r.median_ns, r.mean_ns, r.min_ns, r.max_ns, r.samples, r.iters_per_sample,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, median_ns: f64) -> QuickRecord {
        QuickRecord {
            id: id.to_string(),
            median_ns,
            mean_ns: median_ns,
            min_ns: median_ns,
            max_ns: median_ns,
            samples: 1,
            iters_per_sample: 1,
        }
    }

    #[test]
    fn records_serialize_as_an_array_in_the_bench_schema() {
        let host = Host {
            cpu_model: "Test \"CPU\" @ 2.0GHz".into(),
            logical_cpus: 2,
            rayon_threads: 2,
            rustc: "rustc 1.79.0 (129f3b996 2024-06-10)".into(),
            commit: "unknown".into(),
        };
        let json = to_json(
            &host,
            &[record("x/fast/12q", 42.0), record("y/fast/12q", 7.0)],
        );
        assert_eq!(
            json,
            "{\n  \"host\": {\"cpu_model\": \"Test \\\"CPU\\\" @ 2.0GHz\", \"logical_cpus\": 2, \
             \"rayon_threads\": 2, \"rustc\": \"rustc 1.79.0 (129f3b996 2024-06-10)\", \
             \"commit\": \"unknown\"},\n  \"records\": [\n    \
             {\"id\": \"x/fast/12q\", \"median_ns\": 42.0, \"mean_ns\": 42.0, \
             \"min_ns\": 42.0, \"max_ns\": 42.0, \"samples\": 1, \"iters_per_sample\": 1},\n    \
             {\"id\": \"y/fast/12q\", \"median_ns\": 7.0, \"mean_ns\": 7.0, \"min_ns\": 7.0, \
             \"max_ns\": 7.0, \"samples\": 1, \"iters_per_sample\": 1}\n  ]\n}\n"
        );
        // The detected host never fails: every field has a value, if only "unknown".
        let detected = Host::detect();
        assert!(!detected.cpu_model.is_empty() && !detected.rustc.is_empty());
        assert!(detected.rayon_threads >= 1);
        let sha = detected
            .commit
            .strip_suffix("-dirty")
            .unwrap_or(&detected.commit);
        assert!(
            detected.commit == "unknown"
                || (sha.len() == 40 && sha.bytes().all(|b| b.is_ascii_hexdigit())),
            "commit stamp {:?}",
            detected.commit
        );
    }
}
