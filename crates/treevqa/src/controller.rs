//! The TreeVQA central controller (paper Section 5.1, Algorithm 1).
//!
//! The controller owns the execution tree: it creates the root cluster over all tasks,
//! repeatedly steps every active cluster, replaces clusters by their children when a split
//! triggers (spectral clustering on the precomputed Hamiltonian-similarity matrix), stops
//! when the global shot budget is exhausted, and finally post-processes by evaluating
//! every task Hamiltonian against every surviving cluster state and keeping the best.

use crate::cluster::{StepOutcome, VqaCluster};
use crate::config::{SplitPolicy, TreeVqaConfig};
use crate::tree::ExecutionTree;
use cluster::{spectral_bipartition, SimilarityMatrix};
use qexec::{
    run_phase, CompletionHandle, EvalJob, ExecError, Executor, JobSubmitter, SubmitOptions,
};
use qop::PauliOp;
use qopt::Optimizer;
use std::sync::Arc;
use vqa::VqaApplication;

/// Per-task outcome of a TreeVQA run (after post-processing).
#[derive(Clone, Debug)]
pub struct TreeVqaTaskOutcome {
    /// Task label.
    pub task_label: String,
    /// The task's sweep parameter (bond length, field, load scale).
    pub parameter: f64,
    /// The best energy found for this task across all final cluster states.
    pub energy: f64,
    /// Fidelity against the task's reference energy, if available.
    pub fidelity: Option<f64>,
    /// The execution-tree node whose state produced the best energy.
    pub source_node: usize,
}

/// One application-level history row (used for shots-vs-fidelity analysis).
#[derive(Clone, Debug)]
pub struct TreeVqaRecord {
    /// Controller round index.
    pub round: usize,
    /// Cumulative shots charged by the whole run up to this row.
    pub cumulative_shots: u64,
    /// Number of active clusters at this point.
    pub num_clusters: usize,
    /// Best-so-far exact energy per task.
    pub per_task_best_energy: Vec<f64>,
    /// Minimum fidelity across tasks (None if any task lacks a reference energy).
    pub min_fidelity: Option<f64>,
}

/// Result of a TreeVQA run.
#[derive(Clone, Debug)]
pub struct TreeVqaResult {
    /// Post-processed per-task outcomes, in application task order.
    pub per_task: Vec<TreeVqaTaskOutcome>,
    /// Total shots charged by the run.
    pub total_shots: u64,
    /// Application-level convergence history.
    pub history: Vec<TreeVqaRecord>,
    /// The execution tree.
    pub tree: ExecutionTree,
}

impl TreeVqaResult {
    /// Best energies per task, in task order.
    pub fn energies(&self) -> Vec<f64> {
        self.per_task.iter().map(|t| t.energy).collect()
    }

    /// The minimum fidelity across tasks, if every task has a reference energy.
    pub fn min_fidelity(&self) -> Option<f64> {
        self.per_task
            .iter()
            .map(|t| t.fidelity)
            .try_fold(f64::INFINITY, |acc, f| f.map(|v| acc.min(v)))
    }

    /// The cumulative shots at which the run first achieved `threshold` minimum fidelity,
    /// or `None` if it never did (or fidelity is unavailable).
    pub fn shots_to_reach_min_fidelity(&self, threshold: f64) -> Option<u64> {
        for record in &self.history {
            if record.min_fidelity? >= threshold {
                return Some(record.cumulative_shots);
            }
        }
        None
    }

    /// The best minimum-fidelity the run achieved within a shot budget (0.0 if no history
    /// row fits the budget, `None` if fidelity is unavailable).
    pub fn min_fidelity_at_budget(&self, budget: u64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for record in &self.history {
            if record.cumulative_shots > budget {
                break;
            }
            let f = record.min_fidelity?;
            best = Some(best.map_or(f, |b: f64| b.max(f)));
        }
        Some(best.unwrap_or(0.0))
    }
}

/// The TreeVQA wrapper: construct it around a [`VqaApplication`], then run it on anything
/// that accepts jobs — [`TreeVqa::run`] on a [`qexec::Executor`], [`TreeVqa::run_on`] on
/// any [`qexec::JobSubmitter`] (a client of a shared executor, or a `qnet::NetClient` to
/// one behind a socket).  Each controller round phase goes out as one group of jobs, so
/// all active clusters' candidates reach the driver as one batched submission.
///
/// # Examples
///
/// ```
/// use qcircuit::{Entanglement, HardwareEfficientAnsatz};
/// use qexec::Executor;
/// use qopt::{OptimizerSpec, SpsaConfig};
/// use treevqa::{TreeVqa, TreeVqaConfig};
/// use vqa::{InitialState, StatevectorBackend, VqaApplication, VqaTask};
///
/// // Two nearly identical 3-qubit Ising tasks.
/// let tasks: Vec<VqaTask> = [0.45, 0.5]
///     .iter()
///     .map(|&h| {
///         VqaTask::with_computed_reference(
///             format!("h={h}"),
///             h,
///             qchem::transverse_field_ising(3, 1.0, h),
///         )
///     })
///     .collect();
/// let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Circular).build();
/// let app = VqaApplication::new("demo", tasks, ansatz, InitialState::Basis(0));
///
/// let config = TreeVqaConfig {
///     max_cluster_iterations: 40,
///     optimizer: OptimizerSpec::Spsa(SpsaConfig { a: 0.3, ..Default::default() }),
///     ..Default::default()
/// };
/// let tree_vqa = TreeVqa::new(app, config);
/// let executor = Executor::single(StatevectorBackend::with_shots(128));
/// let result = tree_vqa.run(&executor).expect("well-formed application");
/// assert_eq!(result.per_task.len(), 2);
/// assert!(result.total_shots > 0);
/// ```
pub struct TreeVqa {
    application: VqaApplication,
    config: TreeVqaConfig,
    distances: Vec<Vec<f64>>,
}

impl TreeVqa {
    /// Wraps an application with a TreeVQA controller.
    ///
    /// Precomputes the pairwise ℓ1 Hamiltonian-distance matrix used by every later split
    /// (paper Section 5.2.4: this is classical, cheap, and done once).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`TreeVqaConfig::validate`]); use
    /// [`TreeVqa::try_new`] to handle that as a [`crate::ConfigError`] instead.
    pub fn new(application: VqaApplication, config: TreeVqaConfig) -> Self {
        match Self::try_new(application, config) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Wraps an application with a TreeVQA controller, validating the configuration
    /// (the fallible form of [`TreeVqa::new`]).
    #[allow(clippy::needless_range_loop)]
    pub fn try_new(
        application: VqaApplication,
        config: TreeVqaConfig,
    ) -> Result<Self, crate::ConfigError> {
        config.try_validate()?;
        let n = application.tasks.len();
        let mut distances = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let d = application.tasks[i]
                    .hamiltonian
                    .l1_distance(&application.tasks[j].hamiltonian);
                distances[i][j] = d;
                distances[j][i] = d;
            }
        }
        Ok(TreeVqa {
            application,
            config,
            distances,
        })
    }

    /// The wrapped application.
    pub fn application(&self) -> &VqaApplication {
        &self.application
    }

    /// The configuration.
    pub fn config(&self) -> &TreeVqaConfig {
        &self.config
    }

    /// The Gaussian-kernel similarity matrix over all tasks (paper Figure 4c).
    pub fn similarity_matrix(&self) -> SimilarityMatrix {
        SimilarityMatrix::from_distances(&self.distances)
    }

    /// Runs TreeVQA starting from all-zero ansatz parameters, submitting every
    /// evaluation as jobs to `executor`'s default backend.
    pub fn run(&self, executor: &Executor) -> Result<TreeVqaResult, ExecError> {
        self.run_on(&executor.client())
    }

    /// [`TreeVqa::run_on_with_initial`] through a new client of `executor`.
    pub fn run_with_initial(
        &self,
        executor: &Executor,
        initial_params: &[f64],
    ) -> Result<TreeVqaResult, ExecError> {
        self.run_on_with_initial(&executor.client(), initial_params)
    }

    /// Runs TreeVQA starting from all-zero ansatz parameters, submitting every
    /// evaluation through `submitter`.
    pub fn run_on<S: JobSubmitter>(&self, submitter: &S) -> Result<TreeVqaResult, ExecError> {
        let zeros = vec![0.0; self.application.num_parameters()];
        self.run_on_with_initial(submitter, &zeros)
    }

    /// Runs TreeVQA starting from the given ansatz parameters (e.g. a CAFQA or Red-QAOA
    /// warm start), submitting every evaluation through `submitter`.
    ///
    /// Each controller round phase, the candidates of every active cluster go out as one
    /// group ([`qexec::run_phase`]): the service enqueues it atomically, so the whole
    /// phase is one scheduler slate and one batched driver submission, and clusters do
    /// not need to know about each other.  The run is the same sequence of submissions
    /// on every transport — over a `qnet::NetClient` it is bit-identical to in-process.
    ///
    /// Returns an error if `initial_params` does not match the ansatz parameter count,
    /// if any submission is rejected (malformed application shapes surface here as
    /// structured [`ExecError`]s instead of panics deep in a simulator kernel), or — with
    /// [`TreeVqaConfig::phase_timeout_ms`] set — with [`ExecError::DeadlineExceeded`] if
    /// a round phase does not complete in time.
    pub fn run_on_with_initial<S: JobSubmitter>(
        &self,
        submitter: &S,
        initial_params: &[f64],
    ) -> Result<TreeVqaResult, ExecError> {
        if initial_params.len() != self.application.num_parameters() {
            return Err(ExecError::ParameterCountMismatch {
                expected: self.application.num_parameters(),
                got: initial_params.len(),
            });
        }
        let app = &self.application;
        let cfg = &self.config;
        let num_tasks = app.tasks.len();
        // One shared allocation per run for the ansatz and each task Hamiltonian; every
        // job Arc-shares them, which also keeps batches pointer-uniform in the circuit.
        let ansatz = Arc::new(app.ansatz.clone());
        let task_hams: Vec<Arc<PauliOp>> = app
            .tasks
            .iter()
            .map(|t| Arc::new(t.hamiltonian.clone()))
            .collect();
        let mut tree = ExecutionTree::new();
        let root_id = tree.add_node(None, (0..num_tasks).collect());
        let make_optimizer = |seed_base: u64, node_id: usize, spec: &qopt::OptimizerSpec| {
            spec.build(seed_base.wrapping_add(node_id as u64 * 0x9E37_79B9))
        };
        let root = VqaCluster::new(
            root_id,
            1,
            (0..num_tasks).collect(),
            task_hams.clone(),
            initial_params.to_vec(),
            make_optimizer(cfg.seed, root_id, &cfg.optimizer),
            self.window_size(),
        );
        let mut clusters: Vec<VqaCluster> = vec![root];
        let phase_timeout = cfg.phase_timeout_ms.map(std::time::Duration::from_millis);

        let mut per_task_best = vec![f64::INFINITY; num_tasks];
        let mut history: Vec<TreeVqaRecord> = Vec::new();
        let mut round = 0usize;
        // Shots charged by this run's jobs, accumulated from per-job results so several
        // controllers (or other clients) can share one executor without conflating
        // budgets.
        let mut total_shots = 0u64;

        loop {
            round += 1;
            if total_shots >= cfg.shot_budget {
                break;
            }
            let any_active = clusters
                .iter()
                .any(|c| c.iterations() < cfg.max_cluster_iterations);
            if !any_active {
                break;
            }

            // Step every active cluster once (Algorithm 1 lines 5–8).  A phase is one
            // group: all active clusters' candidates are enqueued atomically, so the
            // service executes them as one batched driver submission — one compiled
            // ansatz shared across the round, states prepared concurrently.  With SPSA
            // every cluster completes in a single phase (2 jobs per cluster); COBYLA
            // may keep a subset of clusters active for further phases.
            let mut split_requests: Vec<usize> = Vec::new();
            let mut active: Vec<usize> = clusters
                .iter()
                .enumerate()
                .filter(|(_, c)| c.iterations() < cfg.max_cluster_iterations)
                .map(|(idx, _)| idx)
                .collect();
            while !active.is_empty() {
                let requests = active.iter().map(|&idx| clusters[idx].propose()).collect();
                let phase = run_phase(
                    submitter,
                    &ansatz,
                    &app.initial_state,
                    requests,
                    phase_timeout,
                )?;
                let mut still_active = Vec::new();
                for (idx, results) in active.into_iter().zip(&phase) {
                    total_shots += results.iter().map(|r| r.shots).sum::<u64>();
                    match clusters[idx].observe(
                        results,
                        &cfg.split_policy,
                        cfg.max_cluster_iterations,
                        cfg.min_split_size,
                    ) {
                        None => still_active.push(idx),
                        Some(StepOutcome::SplitRequested) => split_requests.push(idx),
                        Some(StepOutcome::Continue) => {}
                    }
                }
                active = still_active;
            }

            // Replace split clusters by their children (Algorithm 1 line 9).
            // Process highest index first so earlier indices stay valid.
            split_requests.sort_unstable();
            for &idx in split_requests.iter().rev() {
                let parent = clusters.remove(idx);
                let labels = self.partition_labels(&parent);
                tree.finalize_node(
                    parent.node_id,
                    parent.iterations(),
                    parent.shots_used(),
                    true,
                );
                let left_id = tree.add_node(Some(parent.node_id), Vec::new());
                let right_id = tree.add_node(Some(parent.node_id), Vec::new());
                let mut make_opt = |node_id: usize| -> Box<dyn Optimizer + Send> {
                    make_optimizer(cfg.seed, node_id, &cfg.optimizer)
                };
                let (left, right) = parent.split_into(
                    &labels,
                    (left_id, right_id),
                    &mut make_opt,
                    self.window_size(),
                );
                // Now that the children exist we know their task lists; refresh the tree
                // nodes with them.
                Self::set_node_tasks(&mut tree, left_id, left.task_indices.clone());
                Self::set_node_tasks(&mut tree, right_id, right.task_indices.clone());
                clusters.push(left);
                clusters.push(right);
            }

            // Periodic history recording with uncharged probes (metrics only).
            if round % cfg.record_every == 0 {
                self.record_round(
                    submitter,
                    &ansatz,
                    &task_hams,
                    &clusters,
                    &mut per_task_best,
                    &mut history,
                    round,
                    total_shots,
                )?;
            }
        }

        // Final record (captures the state at termination).
        self.record_round(
            submitter,
            &ansatz,
            &task_hams,
            &clusters,
            &mut per_task_best,
            &mut history,
            round,
            total_shots,
        )?;

        for cluster in &clusters {
            tree.finalize_node(
                cluster.node_id,
                cluster.iterations(),
                cluster.shots_used(),
                false,
            );
        }

        // Post-processing (Algorithm 1 lines 12–17): evaluate every task Hamiltonian on
        // every surviving cluster state and keep the best.  Probe jobs charge no shots.
        // Cluster by cluster: a cluster's state is probed for every task in a row, so a
        // driver that keeps the state its last probe prepared (the dense driver does)
        // prepares each cluster state once, and at most `num_tasks` probes are in flight,
        // as in a round.  Each task keeps the first cluster with its strictly lowest value.
        let first_node = clusters.first().map(|c| c.node_id).unwrap_or(0);
        let mut best = vec![(f64::INFINITY, first_node); num_tasks];
        for cluster in &clusters {
            let handles: Vec<S::Handle> = task_hams
                .iter()
                .map(|ham| {
                    submitter.submit_probe_job(
                        EvalJob::new(
                            Arc::clone(&ansatz),
                            cluster.params().to_vec(),
                            app.initial_state,
                            Arc::clone(ham),
                        ),
                        &SubmitOptions::default(),
                    )
                })
                .collect::<Result<_, _>>()?;
            for (handle, (best_energy, best_node)) in handles.iter().zip(&mut best) {
                let energy = handle.wait()?.charged;
                if energy < *best_energy {
                    *best_energy = energy;
                    *best_node = cluster.node_id;
                }
            }
        }
        let mut per_task = Vec::with_capacity(num_tasks);
        for (task_idx, (task, &(best_energy, best_node))) in app.tasks.iter().zip(&best).enumerate()
        {
            // The best-so-far trajectory energy may beat the final states (SPSA is noisy);
            // the paper reports achieved accuracy, so keep the better of the two.
            let best_energy = best_energy.min(per_task_best[task_idx]);
            per_task.push(TreeVqaTaskOutcome {
                task_label: task.label.clone(),
                parameter: task.parameter,
                energy: best_energy,
                fidelity: task.fidelity(best_energy),
                source_node: best_node,
            });
        }

        Ok(TreeVqaResult {
            per_task,
            total_shots,
            history,
            tree,
        })
    }

    fn window_size(&self) -> usize {
        match self.config.split_policy {
            SplitPolicy::Adaptive { window_size, .. } => window_size,
            _ => 10,
        }
    }

    fn set_node_tasks(tree: &mut ExecutionTree, node_id: usize, tasks: Vec<usize>) {
        tree.replace_node_tasks(node_id, tasks);
    }

    /// Spectral-clustering labels for splitting `cluster` (paper Section 5.2.5).
    fn partition_labels(&self, cluster: &VqaCluster) -> Vec<usize> {
        let members = &cluster.task_indices;
        let sub: Vec<Vec<f64>> = members
            .iter()
            .map(|&i| members.iter().map(|&j| self.distances[i][j]).collect())
            .collect();
        let similarity = SimilarityMatrix::from_distances(&sub);
        spectral_bipartition(&similarity, self.config.seed ^ (cluster.node_id as u64))
    }

    #[allow(clippy::too_many_arguments)]
    fn record_round<S: JobSubmitter>(
        &self,
        submitter: &S,
        ansatz: &Arc<qcircuit::Circuit>,
        task_hams: &[Arc<PauliOp>],
        clusters: &[VqaCluster],
        per_task_best: &mut [f64],
        history: &mut Vec<TreeVqaRecord>,
        round: usize,
        cumulative_shots: u64,
    ) -> Result<(), ExecError> {
        let app = &self.application;
        // Submit every cluster-member probe first, then wait: the whole record becomes
        // one scheduler slate instead of one round trip per member.
        let mut probes: Vec<(usize, S::Handle)> = Vec::new();
        for cluster in clusters {
            for &task_idx in &cluster.task_indices {
                let handle = submitter.submit_probe_job(
                    EvalJob::new(
                        Arc::clone(ansatz),
                        cluster.params().to_vec(),
                        app.initial_state,
                        Arc::clone(&task_hams[task_idx]),
                    ),
                    &SubmitOptions::default(),
                )?;
                probes.push((task_idx, handle));
            }
        }
        for (task_idx, handle) in probes {
            let energy = handle.wait()?.charged;
            if energy < per_task_best[task_idx] {
                per_task_best[task_idx] = energy;
            }
        }
        let min_fidelity = if per_task_best.iter().all(|e| e.is_finite()) {
            app.min_fidelity(per_task_best)
        } else {
            None
        };
        history.push(TreeVqaRecord {
            round,
            cumulative_shots,
            num_clusters: clusters.len(),
            per_task_best_energy: per_task_best.to_vec(),
            min_fidelity,
        });
        Ok(())
    }
}
