//! Single-task VQA execution, the conventional (baseline) multi-task runner, and the
//! phase bridge every optimizer loop in the workspace drives its evaluations through.
//!
//! An optimizer phase ([`qopt::Optimizer`]'s propose/observe protocol) is one group:
//! [`run_phase`] turns the candidates of any number of optimizers into owned jobs, hands
//! them to a [`JobSubmitter`] as **one** `submit_job_group`, and gives each optimizer its
//! results back.  [`run_single_vqa`] calls it with one optimizer, the TreeVQA controller
//! with every active cluster; both therefore run unchanged against an in-process
//! [`crate::ExecClient`] and a `qnet::NetClient`.
//!
//! Every candidate job draws from its own stream pinned at submission (see the
//! crate-level schedule-independence contract).  The default stream derives from the
//! executor-wide submission id, so a run is a pure function of the configuration and
//! root seed — reproducible bit for bit — on a fresh executor or one the driver has to
//! itself; next to co-tenant clients the ids a run receives depend on how their
//! submissions interleave, and only jobs with pinned streams
//! ([`crate::SubmitOptions::rng_stream`]) repeat.

use crate::error::ExecError;
use crate::executor::Executor;
use crate::job::{EvalJob, SubmitOptions};
use crate::submit::{CompletionHandle, JobSubmitter};
use qcircuit::Circuit;
use qop::PauliOp;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqa::{
    Backend, BaselineRunResult, EvalResult, InitialState, IterationRecord, VqaApplication,
    VqaRunConfig, VqaRunResult, VqaTask,
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
        // Loop the optimizer's propose/observe phases (SPSA's ± pair, a simplex
        // build, …) until the iteration completes.
        let stats = loop {
            let request = PhaseRequest {
                candidates: optimizer.propose(&params),
                charged_op: Arc::clone(&hamiltonian),
                free_ops: Vec::new(),
            };
            let results = run_phase(client, &ansatz, initial, vec![request], None)?
                .pop()
                .expect("one result set per request");
            cumulative_shots += results.iter().map(|r| r.shots).sum::<u64>();
            let values: Vec<f64> = results.iter().map(|r| r.charged).collect();
            if let Some(stats) = optimizer.observe(&mut params, &values) {
                break stats;
            }
        };

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

/// One optimizer's share of a phase: the candidate parameter vectors it proposed, the
/// observable they are scored on (charged shots), and the observables tracked alongside
/// at no shot cost.
pub struct PhaseRequest {
    /// Candidate parameter vectors, one job each.
    pub candidates: Vec<Vec<f64>>,
    /// The observable every candidate is charged for.
    pub charged_op: Arc<PauliOp>,
    /// Free tracking observables shared by every candidate.
    pub free_ops: Vec<Arc<PauliOp>>,
}

/// Runs one phase: every request's candidates become jobs on `ansatz` from `initial`,
/// all of them are submitted as **one** group — one scheduler slate, one batched driver
/// submission — and the results come back per request, in candidate order.
///
/// With a `timeout` the phase fails as a unit with [`ExecError::DeadlineExceeded`]
/// instead of wedging its caller behind a congested or stalled executor: every job
/// carries the phase's deadline (an in-process scheduler drops the expired ones), and
/// every wait is bounded by what is left of it (a job's deadline does not cross the
/// wire, so a remote caller relies on this half).
pub fn run_phase<S: JobSubmitter>(
    client: &S,
    ansatz: &Arc<Circuit>,
    initial: &InitialState,
    requests: Vec<PhaseRequest>,
    timeout: Option<Duration>,
) -> Result<Vec<Vec<EvalResult>>, ExecError> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let sizes: Vec<usize> = requests.iter().map(|r| r.candidates.len()).collect();
    let jobs: Vec<EvalJob> = requests
        .into_iter()
        .flat_map(|request| {
            let PhaseRequest {
                candidates,
                charged_op,
                free_ops,
            } = request;
            candidates.into_iter().map(move |candidate| {
                let mut job = EvalJob::new(
                    Arc::clone(ansatz),
                    candidate,
                    *initial,
                    Arc::clone(&charged_op),
                )
                .with_free_ops(free_ops.clone());
                job.deadline = deadline;
                job
            })
        })
        .collect();
    let handles = client.submit_job_group(jobs)?;
    let mut handles = handles.iter();
    sizes
        .into_iter()
        .map(|size| {
            handles
                .by_ref()
                .take(size)
                .map(|handle| match deadline {
                    None => handle.wait(),
                    Some(deadline) => handle
                        .wait_timeout(deadline.saturating_duration_since(Instant::now()))
                        .unwrap_or(Err(ExecError::DeadlineExceeded)),
                })
                .collect()
        })
        .collect()
}
