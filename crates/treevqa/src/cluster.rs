//! The VQA cluster: TreeVQA's fundamental computational unit (paper Section 5.2,
//! Algorithm 2).
//!
//! A cluster jointly optimizes one shared parameter vector against the *mixed Hamiltonian*
//! of its member tasks, tracks the mixed loss and every member loss through sliding-window
//! slope monitors, and requests a split when optimization stalls or a member is actively
//! harmed by the joint trajectory.
//!
//! Clusters expose the optimizer's propose/observe phases directly
//! ([`VqaCluster::propose`] / [`VqaCluster::observe`]): the controller hands every active
//! cluster's proposal to `qexec::run_phase` — one group, one slate per round phase — and
//! gives each cluster back its results.

use crate::config::SplitPolicy;
use crate::monitor::SlopeMonitor;
use qexec::PhaseRequest;
use qop::PauliOp;
use qopt::Optimizer;
use std::sync::Arc;
use vqa::EvalResult;

/// Outcome of one cluster optimization step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Keep optimizing this cluster.
    Continue,
    /// The split condition fired; the controller should partition this cluster.
    SplitRequested,
}

/// One TreeVQA cluster.
pub struct VqaCluster {
    /// Id of the execution-tree node this cluster corresponds to.
    pub node_id: usize,
    /// Tree level (root = 1).
    pub level: usize,
    /// Indices (into the application's task list) of the member tasks.
    pub task_indices: Vec<usize>,
    member_hamiltonians: Vec<Arc<PauliOp>>,
    mixed_hamiltonian: Arc<PauliOp>,
    params: Vec<f64>,
    optimizer: Box<dyn Optimizer + Send>,
    mixed_monitor: SlopeMonitor,
    member_monitors: Vec<SlopeMonitor>,
    latest_member_losses: Vec<f64>,
    iterations: usize,
    shots_used: u64,
    /// Per-member loss sums accumulated over the current iteration's phases.
    member_sums: Vec<f64>,
    /// Evaluations consumed by the current iteration so far.
    evals_acc: usize,
    /// Shots charged by the current iteration so far.
    shots_acc: u64,
}

impl std::fmt::Debug for VqaCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VqaCluster")
            .field("node_id", &self.node_id)
            .field("level", &self.level)
            .field("task_indices", &self.task_indices)
            .field("iterations", &self.iterations)
            .field("shots_used", &self.shots_used)
            .finish()
    }
}

impl VqaCluster {
    /// Creates a cluster over the given member tasks.
    ///
    /// # Panics
    ///
    /// Panics if no members are given or the member register sizes disagree.
    pub fn new(
        node_id: usize,
        level: usize,
        task_indices: Vec<usize>,
        member_hamiltonians: Vec<Arc<PauliOp>>,
        initial_params: Vec<f64>,
        optimizer: Box<dyn Optimizer + Send>,
        window_size: usize,
    ) -> Self {
        assert!(!member_hamiltonians.is_empty(), "a cluster needs members");
        assert_eq!(
            task_indices.len(),
            member_hamiltonians.len(),
            "task indices and Hamiltonians must correspond"
        );
        let refs: Vec<&PauliOp> = member_hamiltonians.iter().map(|h| h.as_ref()).collect();
        let mixed_hamiltonian = Arc::new(PauliOp::mixed(&refs));
        let num_members = member_hamiltonians.len();
        VqaCluster {
            node_id,
            level,
            task_indices,
            member_hamiltonians,
            mixed_hamiltonian,
            params: initial_params,
            optimizer,
            mixed_monitor: SlopeMonitor::new(window_size.max(2)),
            member_monitors: (0..num_members)
                .map(|_| SlopeMonitor::new(window_size.max(2)))
                .collect(),
            latest_member_losses: vec![f64::NAN; num_members],
            iterations: 0,
            shots_used: 0,
            member_sums: vec![0.0; num_members],
            evals_acc: 0,
            shots_acc: 0,
        }
    }

    /// Number of member tasks.
    pub fn num_members(&self) -> usize {
        self.member_hamiltonians.len()
    }

    /// Shared parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// The cluster's mixed Hamiltonian.
    pub fn mixed_hamiltonian(&self) -> &PauliOp {
        &self.mixed_hamiltonian
    }

    /// Optimizer iterations executed by this cluster.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Shots charged while this cluster was active.
    pub fn shots_used(&self) -> u64 {
        self.shots_used
    }

    /// The most recent per-member loss values (free tracking evaluations averaged over the
    /// optimizer's objective calls in the latest iteration).  `NaN` before the first step.
    pub fn latest_member_losses(&self) -> &[f64] {
        &self.latest_member_losses
    }

    /// The most recent mixed-loss value.
    pub fn latest_mixed_loss(&self) -> Option<f64> {
        self.mixed_monitor.latest()
    }

    /// Begins (or continues) one optimizer iteration: returns the candidate parameter
    /// vectors, scored on the mixed Hamiltonian with every member Hamiltonian tracked
    /// free, whose results the controller must supply to [`VqaCluster::observe`].  The
    /// batch shape follows the optimizer's phase protocol (SPSA's ± pair, a simplex
    /// build, …).
    pub fn propose(&mut self) -> PhaseRequest {
        PhaseRequest {
            candidates: self.optimizer.propose(&self.params),
            charged_op: Arc::clone(&self.mixed_hamiltonian),
            free_ops: self.member_hamiltonians.clone(),
        }
    }

    /// Consumes one phase's evaluation results (in candidate order).  Each result's
    /// charged value is the mixed loss; its free values are the member losses, in
    /// member order.  Returns `None` while the iteration needs another phase, or the
    /// split decision (Algorithm 2 line 11) once the iteration completes.
    pub fn observe(
        &mut self,
        results: &[EvalResult],
        policy: &SplitPolicy,
        max_cluster_iterations: usize,
        min_split_size: usize,
    ) -> Option<StepOutcome> {
        for result in results {
            for (sum, value) in self.member_sums.iter_mut().zip(&result.free) {
                *sum += value;
            }
            self.shots_acc += result.shots;
        }
        self.evals_acc += results.len();
        let values: Vec<f64> = results.iter().map(|r| r.charged).collect();
        let stats = self.optimizer.observe(&mut self.params, &values)?;

        // Iteration complete: fold the accumulated phase data into the monitors.
        self.shots_used += self.shots_acc;
        self.iterations += 1;
        self.mixed_monitor.push(stats.loss);
        if self.evals_acc > 0 {
            for (latest, sum) in self.latest_member_losses.iter_mut().zip(&self.member_sums) {
                *latest = sum / self.evals_acc as f64;
            }
            for (monitor, &value) in self
                .member_monitors
                .iter_mut()
                .zip(&self.latest_member_losses)
            {
                monitor.push(value);
            }
        }
        self.member_sums.fill(0.0);
        self.evals_acc = 0;
        self.shots_acc = 0;

        Some(self.split_decision(policy, max_cluster_iterations, min_split_size))
    }

    /// Evaluates the split condition without stepping (exposed for tests).
    pub fn split_decision(
        &self,
        policy: &SplitPolicy,
        max_cluster_iterations: usize,
        min_split_size: usize,
    ) -> StepOutcome {
        if self.num_members() < min_split_size {
            return StepOutcome::Continue;
        }
        match *policy {
            SplitPolicy::Never => StepOutcome::Continue,
            SplitPolicy::ForcedSingle { at_fraction } => {
                // Only the root splits, exactly once, at the configured point.
                let trigger =
                    ((at_fraction * max_cluster_iterations as f64).ceil() as usize).max(1);
                if self.level == 1 && self.iterations >= trigger {
                    StepOutcome::SplitRequested
                } else {
                    StepOutcome::Continue
                }
            }
            SplitPolicy::Adaptive {
                warmup_iterations,
                epsilon_split,
                ..
            } => {
                if self.iterations <= warmup_iterations || !self.mixed_monitor.is_full() {
                    return StepOutcome::Continue;
                }
                let mixed_slope = match self.mixed_monitor.slope() {
                    Some(s) => s,
                    None => return StepOutcome::Continue,
                };
                let stalled = mixed_slope.abs() < epsilon_split;
                let any_member_worsening = self
                    .member_monitors
                    .iter()
                    .filter_map(|m| m.slope())
                    .any(|s| s > epsilon_split);
                if stalled || any_member_worsening {
                    StepOutcome::SplitRequested
                } else {
                    StepOutcome::Continue
                }
            }
        }
    }

    /// Splits this cluster's members into two child clusters according to `labels`
    /// (one 0/1 label per member, in member order).  Children inherit this cluster's
    /// parameters (warm start, Algorithm 2 line 13).
    ///
    /// # Panics
    ///
    /// Panics if `labels` has the wrong length or does not name two non-empty groups.
    pub fn split_into(
        &self,
        labels: &[usize],
        child_node_ids: (usize, usize),
        make_optimizer: &mut dyn FnMut(usize) -> Box<dyn Optimizer + Send>,
        window_size: usize,
    ) -> (VqaCluster, VqaCluster) {
        assert_eq!(
            labels.len(),
            self.num_members(),
            "one label per member required"
        );
        let mut groups: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (member_pos, &label) in labels.iter().enumerate() {
            assert!(label < 2, "labels must be 0 or 1");
            groups[label].push(member_pos);
        }
        assert!(
            !groups[0].is_empty() && !groups[1].is_empty(),
            "both child clusters must be non-empty"
        );

        let build = |positions: &[usize], node_id: usize, optimizer| {
            VqaCluster::new(
                node_id,
                self.level + 1,
                positions.iter().map(|&p| self.task_indices[p]).collect(),
                positions
                    .iter()
                    .map(|&p| Arc::clone(&self.member_hamiltonians[p]))
                    .collect(),
                self.params.clone(),
                optimizer,
                window_size,
            )
        };
        let first = build(
            &groups[0],
            child_node_ids.0,
            make_optimizer(child_node_ids.0),
        );
        let second = build(
            &groups[1],
            child_node_ids.1,
            make_optimizer(child_node_ids.1),
        );
        (first, second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
    use qexec::{Executor, JobSubmitter};
    use qopt::{OptimizerSpec, SpsaConfig};
    use vqa::{InitialState, StatevectorBackend};

    fn make_cluster(hams: Vec<PauliOp>, window: usize) -> (VqaCluster, Arc<Circuit>) {
        let n = hams[0].num_qubits();
        let ansatz = Arc::new(HardwareEfficientAnsatz::new(n, 1, Entanglement::Linear).build());
        let params = vec![0.0; ansatz.num_parameters()];
        let task_indices = (0..hams.len()).collect();
        let hams: Vec<Arc<PauliOp>> = hams.into_iter().map(Arc::new).collect();
        let optimizer = OptimizerSpec::Spsa(SpsaConfig {
            a: 0.3,
            ..Default::default()
        })
        .build(3);
        let cluster = VqaCluster::new(0, 1, task_indices, hams, params, optimizer, window);
        (cluster, ansatz)
    }

    /// One optimizer iteration (Algorithm 2 lines 5–10) and its split decision (line
    /// 11), the way the controller runs it for every active cluster at once.
    fn step(
        cluster: &mut VqaCluster,
        ansatz: &Arc<Circuit>,
        client: &impl JobSubmitter,
        policy: &SplitPolicy,
        max_cluster_iterations: usize,
    ) -> StepOutcome {
        loop {
            let request = cluster.propose();
            let results =
                qexec::run_phase(client, ansatz, &InitialState::Basis(0), vec![request], None)
                    .unwrap();
            if let Some(outcome) = cluster.observe(&results[0], policy, max_cluster_iterations, 2) {
                return outcome;
            }
        }
    }

    #[test]
    fn mixed_hamiltonian_is_the_average_of_members() {
        let a = PauliOp::from_labels(2, &[("ZZ", -1.0), ("XI", 0.4)]);
        let b = PauliOp::from_labels(2, &[("ZZ", -0.5), ("IX", 0.2)]);
        let (cluster, _) = make_cluster(vec![a.clone(), b.clone()], 5);
        let expected = PauliOp::mixed(&[&a, &b]);
        assert_eq!(cluster.mixed_hamiltonian(), &expected);
        assert_eq!(cluster.num_members(), 2);
    }

    #[test]
    fn stepping_charges_shots_and_tracks_member_losses() {
        let a = qchem::transverse_field_ising(3, 1.0, 0.4);
        let b = qchem::transverse_field_ising(3, 1.0, 0.5);
        let (mut cluster, ansatz) = make_cluster(vec![a, b], 4);
        let executor = Executor::single(StatevectorBackend::with_shots(64));
        let policy = SplitPolicy::Never;
        for _ in 0..5 {
            let outcome = step(&mut cluster, &ansatz, &executor.client(), &policy, 100);
            assert_eq!(outcome, StepOutcome::Continue);
        }
        assert_eq!(cluster.iterations(), 5);
        assert!(cluster.shots_used() > 0);
        assert_eq!(
            Ok(cluster.shots_used()),
            executor.shots_used(qexec::DEFAULT_BACKEND)
        );
        assert!(cluster.latest_member_losses().iter().all(|v| v.is_finite()));
        assert!(cluster.latest_mixed_loss().is_some());
    }

    #[test]
    fn singleton_clusters_never_split() {
        let a = PauliOp::from_labels(2, &[("ZZ", -1.0)]);
        let (cluster, _) = make_cluster(vec![a], 3);
        let adaptive = SplitPolicy::Adaptive {
            warmup_iterations: 0,
            window_size: 3,
            epsilon_split: 1e9, // would always trigger if allowed
        };
        assert_eq!(
            cluster.split_decision(&adaptive, 100, 2),
            StepOutcome::Continue
        );
    }

    #[test]
    fn forced_split_fires_at_the_configured_fraction() {
        let a = PauliOp::from_labels(2, &[("ZZ", -1.0)]);
        let b = PauliOp::from_labels(2, &[("ZZ", -0.9)]);
        let (mut cluster, ansatz) = make_cluster(vec![a, b], 3);
        let executor = Executor::single(StatevectorBackend::with_shots(16));
        let client = executor.client();
        let policy = SplitPolicy::ForcedSingle { at_fraction: 0.5 };
        let mut split_at = None;
        for i in 0..20 {
            let outcome = step(&mut cluster, &ansatz, &client, &policy, 20);
            if outcome == StepOutcome::SplitRequested {
                split_at = Some(i + 1);
                break;
            }
        }
        assert_eq!(split_at, Some(10));
    }

    #[test]
    fn adaptive_policy_requests_split_when_stalled() {
        // epsilon large enough that any slope counts as "stalled" right after warmup.
        let a = PauliOp::from_labels(2, &[("ZZ", -1.0), ("XI", 0.2)]);
        let b = PauliOp::from_labels(2, &[("ZZ", -0.7), ("IX", 0.1)]);
        let (mut cluster, ansatz) = make_cluster(vec![a, b], 3);
        let executor = Executor::single(StatevectorBackend::with_shots(16));
        let client = executor.client();
        let policy = SplitPolicy::Adaptive {
            warmup_iterations: 3,
            window_size: 3,
            epsilon_split: 1e6,
        };
        let mut requested = false;
        for _ in 0..10 {
            if step(&mut cluster, &ansatz, &client, &policy, 100) == StepOutcome::SplitRequested {
                requested = true;
                break;
            }
        }
        assert!(
            requested,
            "split should fire once the warmup and window are satisfied"
        );
    }

    #[test]
    fn split_into_partitions_members_and_inherits_params() {
        let hams: Vec<PauliOp> = (0..4)
            .map(|i| PauliOp::from_labels(2, &[("ZZ", -1.0 - 0.1 * i as f64)]))
            .collect();
        let (mut cluster, ansatz) = make_cluster(hams, 3);
        let executor = Executor::single(StatevectorBackend::with_shots(8));
        let client = executor.client();
        // A couple of steps so that params move away from zero.
        for _ in 0..3 {
            step(&mut cluster, &ansatz, &client, &SplitPolicy::Never, 100);
        }
        let parent_params = cluster.params().to_vec();
        let mut make_opt =
            |id: usize| OptimizerSpec::default_spsa().build(id as u64) as Box<dyn Optimizer + Send>;
        let (left, right) = cluster.split_into(&[0, 0, 1, 1], (1, 2), &mut make_opt, 3);
        assert_eq!(left.task_indices, vec![0, 1]);
        assert_eq!(right.task_indices, vec![2, 3]);
        assert_eq!(left.level, 2);
        assert_eq!(right.level, 2);
        assert_eq!(left.params(), parent_params.as_slice());
        assert_eq!(right.params(), parent_params.as_slice());
        assert_eq!(left.num_members() + right.num_members(), 4);
    }

    #[test]
    #[should_panic]
    fn split_into_rejects_empty_groups() {
        let hams = vec![
            PauliOp::from_labels(1, &[("Z", 1.0)]),
            PauliOp::from_labels(1, &[("Z", 0.9)]),
        ];
        let (cluster, _) = make_cluster(hams, 3);
        let mut make_opt =
            |id: usize| OptimizerSpec::default_spsa().build(id as u64) as Box<dyn Optimizer + Send>;
        let _ = cluster.split_into(&[0, 0], (1, 2), &mut make_opt, 3);
    }
}
