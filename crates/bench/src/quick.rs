//! Deterministic quick-bench mode.
//!
//! `cargo run --release -p treevqa_bench --bin quick_bench` runs a fixed subset of the
//! criterion benchmark workloads (same builders, see [`crate::workloads`]) with **fixed**
//! iteration counts and sample counts — no adaptive calibration, no RNG — and writes
//! `target/bench_quick.json` in the `BENCH_*.json` record schema.  CI runs it and
//! uploads the file on every run, so a perf trajectory accumulates per host; nothing
//! compares it against the checked-in `BENCH_*.json` files, which were recorded on other
//! hosts — the regression gate is the repository benchmark (`BENCHMARK.json`), which
//! runs parent and change on one host.

use crate::workloads;
use qexec::{AdmissionPolicy, EvalJob, Executor, SeedPolicy, SubmitOptions};
use std::sync::Arc;
use std::time::Instant;
use vqa::{Backend, EvalRequest, InitialState, NoisyStatevectorBackend, StatevectorBackend};

/// One timed quick-bench workload, in the `BENCH_*.json` record schema.
#[derive(Clone, Debug)]
pub struct QuickRecord {
    /// Benchmark id, matching the criterion id of the same workload.
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

/// Samples per workload (fixed; sample 0 is preceded by one untimed warmup pass).
const QUICK_SAMPLES: usize = 9;

fn time_workload(id: &str, iters: usize, mut f: impl FnMut()) -> QuickRecord {
    // One untimed warmup pass populates caches and faults in the state memory.
    for _ in 0..iters {
        f();
    }
    let mut per_iter: Vec<f64> = (0..QUICK_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    QuickRecord {
        id: id.to_string(),
        median_ns: median,
        mean_ns: mean,
        min_ns: per_iter[0],
        max_ns: *per_iter.last().unwrap(),
        samples: QUICK_SAMPLES,
        iters_per_sample: iters,
    }
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

/// Runs the deterministic quick suite: one 12-qubit representative per kernel family of
/// `BENCH_kernels.json`, the compiled-execution and batched-evaluation workloads of
/// `BENCH_batch.json` and the 16-trajectory noisy evaluation of `BENCH_noise.json` —
/// the last two also at 14 qubits, the one register size of the end-to-end benchmark
/// where a single state fills the `map_states` threshold.
///
/// Iteration counts are fixed so a full run takes a few seconds; ids match the criterion
/// benches exactly so records line up with the checked-in baselines id for id.
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
    {
        // Qubit 0 puts both halves of every pair in one 4-lane chunk.
        let gate = qcircuit::Gate::Rx(0, qcircuit::Angle::Fixed(0.7));
        let mut state = workloads::dense_state(n);
        records.push(time_workload("single_qubit_rx/fast/12q_q0", 2000, || {
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
                std::hint::black_box(op.expectation(&state));
            },
        ));
    }
    // One readout per state (BENCH_kernels.json): a cluster's operator set read out
    // operator by operator (`per_op`, what the drivers did before the term basis)
    // against one fused `TermBasis` readout plus the contractions (`basis`); then what
    // a request pays for its basis — built on an observable-cache miss (`build`),
    // recognized on a hit (`lookup`).
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
                    std::hint::black_box(op.expectation(&state));
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
                    std::hint::black_box(basis.op_value(op, &values));
                }
            },
        ));
        if plan_rows {
            records.push(time_workload(
                &format!("expectation/basis/build/{name}"),
                4000,
                || {
                    std::hint::black_box(qop::TermBasis::new(&refs));
                },
            ));
            records.push(time_workload(
                &format!("expectation/basis/lookup/{name}"),
                40000,
                || {
                    std::hint::black_box(basis.is_basis_of(refs.iter().copied()));
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
            std::hint::black_box(&values);
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
            std::hint::black_box(&scratch);
        }));
        // The dense driver's entry: the same circuit started from a basis state, its
        // leading single-qubit layer written by doubling (the product prefix).
        records.push(time_workload("circuit_exec/from_basis/12q", 150, || {
            compiled.execute_from_basis(0, &params, &mut scratch, &[], None);
            std::hint::black_box(&scratch);
        }));
    }
    // The second id is the same batch on 2^14-amplitude registers, where any two
    // states clear the `map_states` threshold on their own.
    for (id, n, iters) in [
        ("evaluate/batched/8", n, 30),
        ("evaluate/batched/14q_8", 14, 3),
    ] {
        let circ =
            qcircuit::HardwareEfficientAnsatz::new(n, 2, qcircuit::Entanglement::Circular).build();
        let base = workloads::ansatz_params(&circ);
        let ham = workloads::tfim_hamiltonian(n);
        let candidates = candidates_around(&base, 8);
        let mut backend = StatevectorBackend::with_shots(0);
        records.push(time_workload(id, iters, || {
            let requests = candidate_requests(&circ, &candidates, &ham);
            std::hint::black_box(backend.evaluate_batch(&requests));
        }));
    }
    {
        let circ = workloads::rotation_heavy_ansatz(n, 2);
        let params = workloads::ansatz_params(&circ);
        let ham = workloads::zz_ring_hamiltonian(n);
        let mut backend = NoisyStatevectorBackend::with_policy(
            workloads::bench_noise_model(),
            0,
            SeedPolicy::new(7),
        )
        .with_trajectories(16);
        records.push(time_workload("noisy_eval/trajectories/16", 8, || {
            std::hint::black_box(backend.evaluate(
                &circ,
                &params,
                &InitialState::Basis(0),
                &ham,
                &[],
            ));
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
            std::hint::black_box(backend.evaluate_batch(&requests));
        }));
    }
    {
        // Execution-service overhead (BENCH_exec.json): one probe-job round trip on a
        // tiny register isolates the submit → schedule → complete → wake path; the
        // evaluation itself is microseconds, so the record is dominated by service
        // overhead.
        let tiny = {
            let mut c = qcircuit::Circuit::new(2);
            c.push(qcircuit::Gate::H(0));
            c.push(qcircuit::Gate::Cx(0, 1));
            Arc::new(c)
        };
        let op = Arc::new(qop::PauliOp::from_labels(2, &[("ZZ", 1.0)]));
        let executor = Executor::single(StatevectorBackend::with_shots(0));
        let client = executor.client();
        records.push(time_workload("exec/submit_probe/2q", 500, || {
            let job = EvalJob::new(
                Arc::clone(&tiny),
                Vec::new(),
                InitialState::Basis(0),
                Arc::clone(&op),
            );
            std::hint::black_box(client.submit_probe(job).unwrap().wait().unwrap());
        }));
    }
    {
        // Executor jobs/s at 12q: 4 clients × 8 jobs assembled under pause and released
        // as one fair round-robin slate, which the service coalesces into one batched
        // driver submission — the direct-backend counterpart is `evaluate/batched/8`
        // (BENCH_batch.json), so the two files together bound the service's batching
        // overhead.
        let circ = Arc::new(
            qcircuit::HardwareEfficientAnsatz::new(n, 2, qcircuit::Entanglement::Circular).build(),
        );
        let base = workloads::ansatz_params(&circ);
        let ham = Arc::new(workloads::tfim_hamiltonian(n));
        let executor = Executor::single(StatevectorBackend::with_shots(0));
        let clients: Vec<_> = (0..4).map(|_| executor.client()).collect();
        records.push(time_workload("exec/jobs/4clients_32x12q", 8, || {
            executor.pause();
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    let params: Vec<f64> = base.iter().map(|p| p + 0.001 * i as f64).collect();
                    clients[i % clients.len()]
                        .submit(EvalJob::new(
                            Arc::clone(&circ),
                            params,
                            InitialState::Basis(0),
                            Arc::clone(&ham),
                        ))
                        .unwrap()
                })
                .collect();
            executor.resume();
            std::hint::black_box(qexec::wait_all(&handles).unwrap());
        }));
    }
    {
        // Tracing overhead (BENCH_obs.json): the 4-client slate workload again with
        // full observability on — the builder flag turns on span recording for this
        // executor, and the process-wide flag makes the vqa cache counters tick
        // too.  The median, compared against `exec/jobs/4clients_32x12q` above, bounds
        // the fully-enabled tracing cost (the obs_bench binary records the pair and
        // the derived overhead percentage).
        let circ = Arc::new(
            qcircuit::HardwareEfficientAnsatz::new(n, 2, qcircuit::Entanglement::Circular).build(),
        );
        let base = workloads::ansatz_params(&circ);
        let ham = Arc::new(workloads::tfim_hamiltonian(n));
        qexec::qobs::set_enabled(true);
        let executor = Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(0))
            .observability(true)
            .start();
        let clients: Vec<_> = (0..4).map(|_| executor.client()).collect();
        records.push(time_workload("exec/obs/jobs_on/32x12q", 8, || {
            executor.pause();
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    let params: Vec<f64> = base.iter().map(|p| p + 0.001 * i as f64).collect();
                    clients[i % clients.len()]
                        .submit(EvalJob::new(
                            Arc::clone(&circ),
                            params,
                            InitialState::Basis(0),
                            Arc::clone(&ham),
                        ))
                        .unwrap()
                })
                .collect();
            executor.resume();
            std::hint::black_box(qexec::wait_all(&handles).unwrap());
        }));
        // Force recording back off so the remaining workloads (and any executor they
        // construct) run untraced regardless of the ambient `QOBS` value.
        qexec::qobs::set_enabled(false);
    }
    {
        // Admission-control overhead (BENCH_exec_overload.json): a paused executor
        // whose 1-deep queue is already full, so every timed submission exercises the
        // bounded-queue Reject fast path end to end — validate, admission scan,
        // structured refusal — without any execution noise.
        let tiny = {
            let mut c = qcircuit::Circuit::new(2);
            c.push(qcircuit::Gate::H(0));
            c.push(qcircuit::Gate::Cx(0, 1));
            Arc::new(c)
        };
        let op = Arc::new(qop::PauliOp::from_labels(2, &[("ZZ", 1.0)]));
        let executor = Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(0))
            .queue_capacity(1)
            .paused()
            .start();
        let client = executor.client();
        let _plug = client
            .submit(EvalJob::new(
                Arc::clone(&tiny),
                Vec::new(),
                InitialState::Basis(0),
                Arc::clone(&op),
            ))
            .unwrap();
        records.push(time_workload("exec/overload/reject/1cap", 2000, || {
            let job = EvalJob::new(
                Arc::clone(&tiny),
                Vec::new(),
                InitialState::Basis(0),
                Arc::clone(&op),
            );
            std::hint::black_box(client.submit(job).unwrap_err());
        }));
    }
    {
        // Load-shedding steady state (BENCH_exec_overload.json): an 8-deep queue under
        // `ShedLowestPriority` with strictly escalating priorities, so once warm every
        // timed submission admits the newcomer and evicts the current lowest-priority
        // job — the record times the victim scan plus the evicted handle's completion.
        let tiny = {
            let mut c = qcircuit::Circuit::new(2);
            c.push(qcircuit::Gate::H(0));
            c.push(qcircuit::Gate::Cx(0, 1));
            Arc::new(c)
        };
        let op = Arc::new(qop::PauliOp::from_labels(2, &[("ZZ", 1.0)]));
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
            let job = EvalJob::new(
                Arc::clone(&tiny),
                Vec::new(),
                InitialState::Basis(0),
                Arc::clone(&op),
            );
            let opts = SubmitOptions {
                priority,
                ..SubmitOptions::default()
            };
            std::hint::black_box(client.submit_with(job, &opts).unwrap());
        }));
    }
    {
        // Network serving overhead (BENCH_net.json): the execution service again, but
        // through real loopback TCP connections.  The probe round trip, compared
        // against `exec/submit_probe/2q` above, bounds the wire cost per request
        // (framing, codec, one socket round trip, demultiplexing); the `net/jobs/*`
        // slates measure served jobs/s as the same 32-job 12q workload fans out over
        // 1, 4, and 16 connections, each connection shipping its share as one batch
        // frame (a coalesced slate server-side).
        let tiny = {
            let mut c = qcircuit::Circuit::new(2);
            c.push(qcircuit::Gate::H(0));
            c.push(qcircuit::Gate::Cx(0, 1));
            Arc::new(c)
        };
        let op = Arc::new(qop::PauliOp::from_labels(2, &[("ZZ", 1.0)]));
        let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(0)));
        let server = qnet::NetServer::bind("127.0.0.1:0", Arc::clone(&executor))
            .expect("bind loopback bench server");
        {
            let client =
                qnet::NetClient::connect(server.local_addr()).expect("connect bench client");
            records.push(time_workload("net/rtt/probe_2q", 300, || {
                let job = EvalJob::new(
                    Arc::clone(&tiny),
                    Vec::new(),
                    InitialState::Basis(0),
                    Arc::clone(&op),
                );
                std::hint::black_box(client.submit_probe(job).unwrap().wait().unwrap());
            }));
        }
        let circ = Arc::new(
            qcircuit::HardwareEfficientAnsatz::new(n, 2, qcircuit::Entanglement::Circular).build(),
        );
        let base = workloads::ansatz_params(&circ);
        let ham = Arc::new(workloads::tfim_hamiltonian(n));
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
                            let jobs: Vec<EvalJob> = (0..per_conn)
                                .map(|i| {
                                    let params: Vec<f64> = base
                                        .iter()
                                        .map(|p| p + 0.001 * (c * per_conn + i) as f64)
                                        .collect();
                                    EvalJob::new(
                                        Arc::clone(&circ),
                                        params,
                                        InitialState::Basis(0),
                                        Arc::clone(&ham),
                                    )
                                })
                                .collect();
                            client.submit_group(jobs).expect("batch submit")
                        })
                        .collect();
                    for group in &groups {
                        for handle in group {
                            std::hint::black_box(handle.wait().unwrap());
                        }
                    }
                },
            ));
        }
    }

    records
}

/// Measures the fair-scheduling property itself: 4 clients × 8 jobs released as one
/// slate must execute in exact round-robin order (client-position spread 0).  Returns
/// `(clients, jobs_per_client, max_position_spread)` for the `BENCH_exec.json` fairness
/// section.
pub fn measure_fairness() -> (usize, usize, u64) {
    let num_clients = 4usize;
    let per_client = 8usize;
    let circ = Arc::new(
        qcircuit::HardwareEfficientAnsatz::new(6, 1, qcircuit::Entanglement::Linear).build(),
    );
    let params = workloads::ansatz_params(&circ);
    let ham = Arc::new(workloads::tfim_hamiltonian(6));
    let executor = Executor::single(StatevectorBackend::with_shots(0));
    executor.pause();
    let clients: Vec<_> = (0..num_clients).map(|_| executor.client()).collect();
    let mut handles = Vec::new();
    for (c, client) in clients.iter().enumerate() {
        for j in 0..per_client {
            let handle = client
                .submit(EvalJob::new(
                    Arc::clone(&circ),
                    params.clone(),
                    InitialState::Basis(0),
                    Arc::clone(&ham),
                ))
                .unwrap();
            handles.push((c, j, handle));
        }
    }
    executor.resume();
    let mut spread = 0u64;
    for (c, j, handle) in &handles {
        handle.wait().unwrap();
        let expected = (j * num_clients + c) as u64;
        let actual = handle.sequence().expect("executed");
        spread = spread.max(actual.abs_diff(expected));
    }
    (num_clients, per_client, spread)
}

/// Serializes one record as a `BENCH_*.json` object (no indentation or separator) —
/// the single definition of the record schema, shared by [`records_to_json`] and the
/// `exec_bench` baseline writer so the files cannot drift apart.
pub fn record_to_json(r: &QuickRecord) -> String {
    format!(
        "{{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}",
        r.id, r.median_ns, r.mean_ns, r.min_ns, r.max_ns, r.samples, r.iters_per_sample,
    )
}

/// Serializes records in the `BENCH_*.json` array schema.
pub fn records_to_json(records: &[QuickRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&record_to_json(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
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
        let json = records_to_json(&[record("x/fast/12q", 42.0), record("y/fast/12q", 7.0)]);
        assert_eq!(
            json,
            "[\n  {\"id\": \"x/fast/12q\", \"median_ns\": 42.0, \"mean_ns\": 42.0, \
             \"min_ns\": 42.0, \"max_ns\": 42.0, \"samples\": 1, \"iters_per_sample\": 1},\n  \
             {\"id\": \"y/fast/12q\", \"median_ns\": 7.0, \"mean_ns\": 7.0, \"min_ns\": 7.0, \
             \"max_ns\": 7.0, \"samples\": 1, \"iters_per_sample\": 1}\n]\n"
        );
    }
}
