//! Replay of requests captured during the traced run through the public functions of
//! `qsim`, `qop`, `qnoise` and `qnet::wire`: the only way to price the layers *below*
//! the driver call without touching product code.  Each captured request is re-executed
//! phase by phase — bind, execute, expectation, sampling — with a clock around each
//! phase; exact-backend requests are also recomputed with `qsim::reference`.
//!
//! Replay prices one state at a time, under the kernel threading the driver used for
//! that request (see [`ran_across_states`]).  Where the driver ran several states at
//! once, the replayed sum exceeds the driver's wall time; the budget in `crate::layers`
//! reports that ratio instead of hiding it.

use crate::stats::median;
use crate::workloads::{seconds_since, Checks, TraceData};
use crate::wrappers::Captured;
use qexec::{EvalJob, SubmitOptions};
use qnet::wire::{self, Frame, SubmitFrame};
use qop::Statevector;
use qsim::CompiledCircuit;
use std::sync::Arc;

/// Replayed cost of the layers below the driver call, as means per charged job (µs)
/// over the captured requests.
#[derive(Clone, Debug, Default)]
pub struct KernelCosts {
    pub captured: usize,
    /// `CompiledCircuit::compile` of the workload's circuit (median of 5).
    pub compile_us: f64,
    pub ops_per_circuit: f64,
    /// Bind + circuit execution, all trajectories of the job.
    pub execute_us_per_job: f64,
    /// One circuit execution (what a probe costs).
    pub execute_us_single: f64,
    /// All expectation passes of the job (charged + free observables, all trajectories).
    pub expect_us_per_job: f64,
    /// One expectation pass.
    pub expect_us_per_call: f64,
    pub expect_calls_per_job: f64,
    pub terms_per_job: f64,
    /// Shot-noise draws on the charged observable (sampled backends).
    pub sample_us_per_job: f64,
    /// `TrajectorySampler::sample_into`, per trajectory.
    pub noise_sample_us_per_traj: f64,
    /// Execution with Pauli insertions, per trajectory.
    pub exec_us_per_traj: f64,
    pub trajectories_per_job: f64,
    /// Computed, not measured: ops × state bytes × 2 (each op reads and writes the state).
    pub bytes_per_execute: f64,
    /// `wire::write_frame` / `read_frame` of a job's submit and result frames, in memory.
    pub encode_us_per_job: f64,
    pub decode_us_per_job: f64,
    /// Reference-simulator agreement of exact-backend requests.
    pub checks: Checks,
}

/// Whether the dense drivers ran this request on their across-state path: one worker
/// per scratch state, every kernel inside pinned serial.  This restates the policy in
/// `vqa::backend`'s module docs (chunks of `VQA_BATCH_CHUNK` requests; across states
/// when `chunk × dim ≥ QSIM_PAR_THRESHOLD > dim` and there is more than one thread) so
/// that replay prices the kernels the driver actually ran; if the product's policy
/// moves, the budget's replay-over-driver ratio moves with it.
fn ran_across_states(request: &Captured, dim: usize) -> bool {
    let (batch, index) = request.batch;
    let chunk = vqa::batch_chunk();
    let chunk_len = if index < batch / chunk * chunk {
        chunk
    } else {
        batch % chunk
    };
    let threshold = qsim::parallel_threshold();
    chunk_len >= 2
        && threshold != 0
        && dim < threshold
        && chunk_len * dim >= threshold
        && rayon::current_num_threads() > 1
}

/// Agreement demanded between a recorded exact result and `qsim::reference`.
const REFERENCE_TOLERANCE: f64 = 1e-9;

pub fn replay(trace: &TraceData) -> KernelCosts {
    let captured = &trace.driver.captured;
    let Some(first) = captured.first() else {
        return KernelCosts::default();
    };
    let mut costs = KernelCosts {
        captured: captured.len(),
        ..KernelCosts::default()
    };

    let compile_us: Vec<f64> = (0..5)
        .map(|_| {
            let start = qobs::now_ns();
            std::hint::black_box(CompiledCircuit::compile(std::hint::black_box(
                &first.circuit,
            )));
            seconds_since(start) * 1e6
        })
        .collect();
    costs.compile_us = median(&compile_us);
    let compiled = CompiledCircuit::compile(&first.circuit);
    let num_qubits = compiled.num_qubits();
    costs.ops_per_circuit = compiled.num_ops() as f64;
    costs.bytes_per_execute = compiled.num_ops() as f64 * (1u64 << num_qubits) as f64 * 16.0 * 2.0;

    let sampler = trace
        .noise
        .as_ref()
        .map(|(model, k)| (qnoise::TrajectorySampler::new(&compiled, model), *k));
    let trajectories = sampler.as_ref().map_or(1, |(_, k)| *k);
    costs.trajectories_per_job = trajectories as f64;
    let exact_backend = sampler.is_none() && trace.sampled_shots == 0;

    let mut state = Statevector::zero_state(num_qubits);
    let mut schedule = Vec::new();
    // Sums over the captured requests, in µs.
    let (mut execute, mut expect, mut sample, mut noise_sample) = (0.0, 0.0, 0.0, 0.0);
    let (mut calls, mut terms) = (0u64, 0u64);
    // The first request is replayed twice; the first pass only warms caches and pages.
    for (index, request) in std::iter::once(first).chain(captured).enumerate() {
        let timing = index > 0;
        let add = |sum: &mut f64, start: u64| {
            if timing {
                *sum += seconds_since(start) * 1e6;
            }
        };
        assert!(
            request.circuit == first.circuit,
            "a workload evaluates one circuit"
        );
        let ops: Vec<&qop::PauliOp> = std::iter::once(&request.charged)
            .chain(&request.free)
            .collect();
        if timing {
            calls += ops.len() as u64 * trajectories;
            terms += ops.iter().map(|op| op.num_terms() as u64).sum::<u64>();
        }
        match &sampler {
            Some((sampler, k)) => {
                let seed = request.stream.map_or(index as u64, |s| s.raw());
                let start = qobs::now_ns();
                let tables = compiled.prepare_batch_tables(&[&request.params]);
                add(&mut execute, start);
                for trajectory in 0..*k {
                    let start = qobs::now_ns();
                    sampler.sample_into(seed, trajectory, &mut schedule);
                    add(&mut noise_sample, start);
                    let start = qobs::now_ns();
                    request.initial.prepare_into(&mut state);
                    compiled.execute_in_place_with_insertions(
                        &request.params,
                        &mut state,
                        &schedule,
                        Some(&tables),
                    );
                    add(&mut execute, start);
                    let start = qobs::now_ns();
                    for op in &ops {
                        std::hint::black_box(qsim::exact_term_expectations(op, &state));
                    }
                    add(&mut expect, start);
                }
            }
            None => {
                let mut kernels = || {
                    let start = qobs::now_ns();
                    request.initial.prepare_into(&mut state);
                    compiled.execute_in_place(&request.params, &mut state);
                    add(&mut execute, start);
                    if trace.sampled_shots > 0 {
                        let start = qobs::now_ns();
                        let exact = qsim::exact_term_expectations(&request.charged, &state);
                        add(&mut expect, start);
                        let start = qobs::now_ns();
                        let mut rng = qrng::CounterRng::new(index as u64);
                        std::hint::black_box(qsim::analytic_sampled_from_expectations(
                            &request.charged,
                            &exact,
                            trace.sampled_shots,
                            &mut rng,
                        ));
                        add(&mut sample, start);
                    } else {
                        let start = qobs::now_ns();
                        for op in &ops {
                            std::hint::black_box(op.expectation(&state));
                        }
                        add(&mut expect, start);
                    }
                };
                if ran_across_states(request, 1 << num_qubits) {
                    qop::par::serial_scope(kernels);
                } else {
                    kernels();
                }
            }
        }
        if timing && exact_backend {
            check_against_reference(request, &mut costs.checks);
        }
    }

    let n = captured.len() as f64;
    costs.execute_us_per_job = execute / n;
    costs.execute_us_single = execute / n / trajectories as f64;
    costs.expect_us_per_job = expect / n;
    costs.expect_us_per_call = expect / calls.max(1) as f64;
    costs.expect_calls_per_job = calls as f64 / n / trajectories as f64;
    costs.terms_per_job = terms as f64 / n;
    costs.sample_us_per_job = sample / n;
    costs.noise_sample_us_per_traj = noise_sample / n / trajectories as f64;
    if sampler.is_some() {
        costs.exec_us_per_traj = costs.execute_us_single;
    }
    if trace.wire_group > 0 {
        let (encode, decode) = wire_costs(captured, trace.wire_group);
        costs.encode_us_per_job = encode;
        costs.decode_us_per_job = decode;
    }
    costs
}

/// Recomputes an exact-backend request with the naive reference simulator.
fn check_against_reference(request: &Captured, checks: &mut Checks) {
    let initial = request.initial.prepare(request.circuit.num_qubits());
    let state = qsim::reference::run_circuit(&request.circuit, &request.params, &initial);
    let close = |recorded: f64, op: &qop::PauliOp| {
        (recorded - op.expectation(&state)).abs() <= REFERENCE_TOLERANCE
    };
    let ok = close(request.result.charged, &request.charged)
        && request.result.free.len() == request.free.len()
        && request
            .result
            .free
            .iter()
            .zip(&request.free)
            .all(|(recorded, op)| close(*recorded, op));
    checks.check(ok, || {
        format!(
            "a captured request (charged {}) disagrees with qsim::reference",
            request.result.charged
        )
    });
}

/// Mean µs per job to encode, and to decode, the frames a job crosses the wire in: its
/// share of a `group`-job submit frame plus its own result frame.
fn wire_costs(captured: &[Captured], group: usize) -> (f64, f64) {
    let max_frame = wire::DEFAULT_MAX_FRAME;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for (index, request) in captured.iter().take(32).enumerate() {
        let job = EvalJob::new(
            Arc::new(request.circuit.clone()),
            request.params.clone(),
            request.initial,
            Arc::new(request.charged.clone()),
        )
        .with_free_ops(request.free.iter().cloned().map(Arc::new).collect());
        let entries: Vec<SubmitFrame> = (0..group as u64)
            .map(|i| SubmitFrame {
                request_id: index as u64 * group as u64 + i,
                probe: false,
                opts: SubmitOptions::default(),
                job: job.clone(),
            })
            .collect();
        let submit = if group == 1 {
            Frame::Submit(entries.into_iter().next().expect("one entry"))
        } else {
            Frame::SubmitBatch(entries)
        };
        let result = Frame::Result {
            request_id: index as u64,
            result: request.result.clone(),
        };
        let mut job_encode = 0.0;
        let mut job_decode = 0.0;
        for (frame, share) in [(&submit, group as f64), (&result, 1.0)] {
            let mut bytes = Vec::new();
            let start = qobs::now_ns();
            wire::write_frame(&mut bytes, frame, max_frame).expect("encoding a valid frame");
            job_encode += seconds_since(start) * 1e6 / share;
            let start = qobs::now_ns();
            std::hint::black_box(
                wire::read_frame(&mut bytes.as_slice(), max_frame).expect("decoding it again"),
            );
            job_decode += seconds_since(start) * 1e6 / share;
        }
        encode.push(job_encode);
        decode.push(job_decode);
    }
    (median(&encode), median(&decode))
}
