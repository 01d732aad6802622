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
use qexec::{wait_all, EvalJob, ExecClient, ExecError, Executor, JobHandle};
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

/// The TreeVQA wrapper: construct it around a [`VqaApplication`], then [`TreeVqa::run`]
/// it against a [`qexec::Executor`] — every active cluster becomes its own executor
/// client, so each controller round's candidates flow through the service's fair
/// round-robin scheduler and coalesce into the batched submissions the compiled
/// scratch-pool engine is built for.
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

    /// The precomputed pairwise ℓ1 distance matrix between task Hamiltonians.
    pub fn distance_matrix(&self) -> &[Vec<f64>] {
        &self.distances
    }

    /// The Gaussian-kernel similarity matrix over all tasks (paper Figure 4c).
    pub fn similarity_matrix(&self) -> SimilarityMatrix {
        SimilarityMatrix::from_distances(&self.distances)
    }

    /// Runs TreeVQA starting from all-zero ansatz parameters, submitting every
    /// evaluation as jobs to `executor`'s default backend.
    pub fn run(&self, executor: &Executor) -> Result<TreeVqaResult, ExecError> {
        let zeros = vec![0.0; self.application.num_parameters()];
        self.run_with_initial(executor, &zeros)
    }

    /// Runs TreeVQA starting from the given ansatz parameters (e.g. a CAFQA or Red-QAOA
    /// warm start).
    ///
    /// Every cluster owns its own [`ExecClient`]: each controller round phase, all
    /// active clusters submit their candidates while the executor is paused, and one
    /// resume releases the whole round as a fair round-robin slate — the service
    /// coalesces it into batched driver submissions exactly as the old hand-assembled
    /// mega-batches did, but clusters no longer need to know about each other (and
    /// other executor clients can interleave fairly with the controller).
    ///
    /// Returns an error if `initial_params` does not match the ansatz parameter count,
    /// or if any submission is rejected (malformed application shapes surface here as
    /// structured [`ExecError`]s instead of panics deep in a simulator kernel).
    pub fn run_with_initial(
        &self,
        executor: &Executor,
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
        // The controller's own client for uncharged probes (history records and
        // post-processing); clusters get one client each.
        let probe_client = executor.client();

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
        let mut clients: Vec<ExecClient> = vec![executor.client()];

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

            // Step every active cluster once (Algorithm 1 lines 5–8).  Each cluster
            // submits its proposed candidates through its own client while the executor
            // is paused; the resume releases the whole phase as one fair-ordered slate,
            // which the service executes as one batched driver submission — one
            // compiled ansatz shared across the round, states prepared concurrently.
            // With SPSA every cluster completes in a single phase (2 jobs per cluster);
            // the simplex optimizers may keep a subset of clusters active for further
            // phases.
            let mut split_requests: Vec<usize> = Vec::new();
            let mut active: Vec<usize> = clusters
                .iter()
                .enumerate()
                .filter(|(_, c)| c.iterations() < cfg.max_cluster_iterations)
                .map(|(idx, _)| idx)
                .collect();
            while !active.is_empty() {
                // RAII pause: released at the end of the block even if a propose()
                // panics, so a shared executor can never be left paused by this run.
                let pause = executor.scoped_pause();
                // One deadline for the whole phase when configured: every cluster's
                // jobs expire together, so a stalled phase fails as a unit with
                // `DeadlineExceeded` instead of wedging the controller.
                let phase_deadline = self
                    .config
                    .phase_timeout_ms
                    .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
                let submitted: Result<Vec<(usize, Vec<JobHandle>)>, ExecError> = active
                    .iter()
                    .map(|&idx| {
                        let candidates = clusters[idx].propose();
                        let mixed = Arc::clone(clusters[idx].mixed_hamiltonian_arc());
                        let members = clusters[idx].member_hamiltonians().to_vec();
                        let handles =
                            clients[idx].submit_all(candidates.iter().map(|candidate| {
                                let mut job = EvalJob::new(
                                    Arc::clone(&ansatz),
                                    candidate.clone(),
                                    app.initial_state,
                                    Arc::clone(&mixed),
                                )
                                .with_free_ops(members.clone());
                                if let Some(deadline) = phase_deadline {
                                    job = job.with_deadline(deadline);
                                }
                                job
                            }))?;
                        Ok((idx, handles))
                    })
                    .collect();
                if submitted.is_err() {
                    // A rejected submission aborts the run: cancel every active
                    // cluster's already-queued jobs while the phase pause still
                    // guarantees none started, so no orphaned work executes (and
                    // consumes a shared backend's RNG stream) after we return.
                    for &idx in &active {
                        clients[idx].cancel_queued();
                    }
                }
                // Release the phase pause before waiting (and before error
                // propagation): the slate is fully assembled.
                drop(pause);
                let submitted = submitted?;

                // Hand each cluster its phase results.  The scheduler interleaves the
                // clusters' jobs round-robin; on deterministic backends per-candidate
                // results are order-independent so trajectories match the historical
                // cluster-major loop exactly, while on stochastic backends the noise
                // stream maps to evaluations in the scheduled (equally valid) order —
                // still bit-reproducible via the serial-replay contract.
                let mut still_active = Vec::new();
                for (idx, handles) in submitted {
                    let results = wait_all(&handles)?;
                    total_shots += results.iter().map(|r| r.shots).sum::<u64>();
                    match clusters[idx].observe(
                        &results,
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
                clients.remove(idx);
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
                // nodes with them.  Each child registers as a fresh executor client.
                Self::set_node_tasks(&mut tree, left_id, left.task_indices.clone());
                Self::set_node_tasks(&mut tree, right_id, right.task_indices.clone());
                clusters.push(left);
                clients.push(executor.client());
                clusters.push(right);
                clients.push(executor.client());
            }

            // Periodic history recording with uncharged probes (metrics only).
            if round % cfg.record_every == 0 {
                self.record_round(
                    &probe_client,
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
            &probe_client,
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
        let mut per_task = Vec::with_capacity(num_tasks);
        for (task_idx, task) in app.tasks.iter().enumerate() {
            let handles: Vec<JobHandle> = clusters
                .iter()
                .map(|cluster| {
                    probe_client.submit_probe(EvalJob::new(
                        Arc::clone(&ansatz),
                        cluster.params().to_vec(),
                        app.initial_state,
                        Arc::clone(&task_hams[task_idx]),
                    ))
                })
                .collect::<Result<_, _>>()?;
            let mut best_energy = f64::INFINITY;
            let mut best_node = clusters.first().map(|c| c.node_id).unwrap_or(0);
            for (cluster, handle) in clusters.iter().zip(&handles) {
                let energy = handle.wait()?.charged;
                if energy < best_energy {
                    best_energy = energy;
                    best_node = cluster.node_id;
                }
            }
            // The best-so-far trajectory energy may beat the final states (SPSA is noisy);
            // the paper reports achieved accuracy, so keep the better of the two.
            best_energy = best_energy.min(per_task_best[task_idx]);
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
    fn record_round(
        &self,
        probe_client: &ExecClient,
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
        let mut probes: Vec<(usize, JobHandle)> = Vec::new();
        for cluster in clusters {
            for &task_idx in &cluster.task_indices {
                let handle = probe_client.submit_probe(EvalJob::new(
                    Arc::clone(ansatz),
                    cluster.params().to_vec(),
                    app.initial_state,
                    Arc::clone(&task_hams[task_idx]),
                ))?;
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
