//! Single-task VQA execution and the conventional (baseline) multi-task runner, driven
//! through an executor client.
//!
//! These are the paper's baseline drivers, reworked from threading a `&mut dyn Backend`
//! by hand onto the job API: every optimizer phase's candidates ([`qopt::Optimizer`]'s
//! propose/observe protocol) are submitted as owned jobs to an [`ExecClient`] and the
//! values observed from their handles, so the same loop transparently shares an executor
//! with other clients.  Every candidate job draws from its own stream pinned at
//! submission (see the crate-level schedule-independence contract), so a run is a pure
//! function of the configuration and root seed — reproducible bit-for-bit across fresh
//! executors and any co-tenant clients sharing the service.

use crate::error::ExecError;
use crate::executor::Executor;
use crate::job::{EvalJob, SubmitOptions};
use crate::submit::{CompletionHandle, JobSubmitter};
use qcircuit::Circuit;
use qop::PauliOp;
use std::sync::Arc;
use vqa::{
    Backend, BaselineRunResult, InitialState, IterationRecord, VqaApplication, VqaRunConfig,
    VqaRunResult, VqaTask,
};

/// Runs conventional VQA on a single task through an executor client.
///
/// `initial_params` seeds the ansatz parameters (e.g. zeros for Hartree–Fock, a CAFQA
/// point, or parameters inherited from a parent TreeVQA cluster).  Shots are accounted
/// from the per-job results, so several runners can share one executor without
/// conflating their budgets.
pub fn run_single_vqa<S: JobSubmitter>(
    task: &VqaTask,
    ansatz: &Circuit,
    initial: &InitialState,
    initial_params: &[f64],
    client: &S,
    config: &VqaRunConfig,
) -> Result<VqaRunResult, ExecError> {
    if initial_params.len() != ansatz.num_parameters() {
        return Err(ExecError::ParameterCountMismatch {
            expected: ansatz.num_parameters(),
            got: initial_params.len(),
        });
    }
    // One shared allocation for every job of the run (and pointer-equal circuits let the
    // batch engine's uniform-circuit check short-circuit).
    let ansatz = Arc::new(ansatz.clone());
    let hamiltonian = Arc::new(task.hamiltonian.clone());
    let mut optimizer = config.optimizer.build(config.seed);
    let mut params = initial_params.to_vec();
    let mut cumulative_shots = 0u64;
    let mut history = Vec::new();
    let mut best_energy = f64::INFINITY;
    let record_every = config.record_every.max(1);

    let probe = |client: &S, params: &[f64]| -> Result<f64, ExecError> {
        let job = EvalJob::new(
            Arc::clone(&ansatz),
            params.to_vec(),
            *initial,
            Arc::clone(&hamiltonian),
        );
        Ok(client
            .submit_probe_job(job, &SubmitOptions::default())?
            .wait()?
            .charged)
    };

    for iteration in 0..config.max_iterations {
        // Drive the optimizer's propose/observe phases, submitting each phase's
        // candidates (SPSA's ± pair, a simplex build, …) as one run of jobs; the
        // executor batches consecutive same-backend jobs, so the dense driver prepares
        // the phase's states concurrently exactly as the historical batched runner did.
        let (stats, shots) = drive_optimizer_iteration(
            client,
            optimizer.as_mut(),
            &mut params,
            &ansatz,
            initial,
            &hamiltonian,
            &[],
        )?;
        cumulative_shots += shots;

        if iteration % record_every == 0 || iteration + 1 == config.max_iterations {
            let exact_energy = probe(client, &params)?;
            best_energy = best_energy.min(exact_energy);
            history.push(IterationRecord {
                iteration,
                cumulative_shots,
                loss: stats.loss,
                exact_energy,
                best_energy,
            });
        }
    }

    let final_energy = probe(client, &params)?;
    best_energy = best_energy.min(final_energy);
    Ok(VqaRunResult {
        task_label: task.label.clone(),
        final_params: params,
        final_energy,
        best_energy,
        shots_used: cumulative_shots,
        history,
    })
}

/// Runs the conventional baseline: every task is optimized independently with an equal
/// iteration (and therefore shot) allocation.
///
/// `make_backend` is called once per task so that shot usage can be attributed per task;
/// each task's backend is wrapped in its own single-backend [`Executor`] (typically it
/// returns a freshly seeded backend of the same kind).  Those internal executors build
/// with default observability settings, so setting `QOBS=1` process-wide traces the
/// baseline's jobs too — each task's spans just live in its own short-lived registry.
pub fn run_baseline(
    application: &VqaApplication,
    initial_params: &[f64],
    config: &VqaRunConfig,
    make_backend: &mut dyn FnMut(usize) -> Box<dyn Backend + Send>,
) -> Result<BaselineRunResult, ExecError> {
    let mut per_task = Vec::with_capacity(application.tasks.len());
    let mut total_shots = 0u64;
    for (index, task) in application.tasks.iter().enumerate() {
        let executor = Executor::single_boxed(make_backend(index));
        let client = executor.client();
        let mut task_config = config.clone();
        // Decorrelate optimizer randomness across tasks while staying deterministic.
        task_config.seed = config.seed.wrapping_add(index as u64).wrapping_mul(0x9E37);
        let result = run_single_vqa(
            task,
            &application.ansatz,
            &application.initial_state,
            initial_params,
            &client,
            &task_config,
        )?;
        total_shots += result.shots_used;
        per_task.push(result);
    }
    Ok(BaselineRunResult {
        per_task,
        total_shots,
    })
}

/// Drives one optimizer iteration against an executor client: proposes candidate
/// batches, submits them as jobs for `charged_op` (with optional free tracking
/// observables shared by every candidate), and observes the values, looping phases until
/// the iteration completes.
///
/// This is the propose/observe ↔ job-submission bridge shared by [`run_single_vqa`] and
/// ad-hoc optimization loops; the TreeVQA controller uses the same protocol but spreads
/// its clusters' phases across clients to interleave them fairly.
pub fn drive_optimizer_iteration<S: JobSubmitter>(
    client: &S,
    optimizer: &mut dyn qopt::Optimizer,
    params: &mut Vec<f64>,
    ansatz: &Arc<Circuit>,
    initial: &InitialState,
    charged_op: &Arc<PauliOp>,
    free_ops: &[Arc<PauliOp>],
) -> Result<(qopt::IterationStats, u64), ExecError> {
    drive_optimizer_iteration_with(
        client, optimizer, params, ansatz, initial, charged_op, free_ops, None,
    )
}

/// [`drive_optimizer_iteration`] with a per-phase timeout: every job of a phase
/// carries a deadline `phase_timeout` from its submission, so a phase queued behind a
/// congested (or stalled) executor fails with [`ExecError::DeadlineExceeded`] instead
/// of wedging the optimization loop.  `None` submits without deadlines.
#[allow(clippy::too_many_arguments)]
pub fn drive_optimizer_iteration_with<S: JobSubmitter>(
    client: &S,
    optimizer: &mut dyn qopt::Optimizer,
    params: &mut Vec<f64>,
    ansatz: &Arc<Circuit>,
    initial: &InitialState,
    charged_op: &Arc<PauliOp>,
    free_ops: &[Arc<PauliOp>],
    phase_timeout: Option<std::time::Duration>,
) -> Result<(qopt::IterationStats, u64), ExecError> {
    let mut shots = 0u64;
    loop {
        let candidates = optimizer.propose(params);
        let deadline = phase_timeout.map(|t| std::time::Instant::now() + t);
        let jobs: Vec<EvalJob> = candidates
            .iter()
            .map(|candidate| {
                let mut job = EvalJob::new(
                    Arc::clone(ansatz),
                    candidate.clone(),
                    *initial,
                    Arc::clone(charged_op),
                )
                .with_free_ops(free_ops.to_vec());
                if let Some(d) = deadline {
                    job = job.with_deadline(d);
                }
                job
            })
            .collect();
        let handles = client.submit_job_group(jobs)?;
        let mut values = Vec::with_capacity(handles.len());
        for handle in &handles {
            let result = handle.wait()?;
            shots += result.shots;
            values.push(result.charged);
        }
        if let Some(stats) = optimizer.observe(params, &values) {
            return Ok((stats, shots));
        }
    }
}
