//! Run configuration and result types for single-task VQA and the conventional
//! (baseline) multi-task runner.
//!
//! The *drivers* that produce these records moved to the `qexec` execution service
//! (`qexec::run_single_vqa` / `qexec::run_baseline`): optimizer candidates are submitted
//! as owned jobs to an executor client instead of threading a `&mut dyn Backend` by
//! hand.  This module keeps the plain-data configuration and result types, which belong
//! with the task/application vocabulary (and feed [`crate::metrics`]).

use qopt::OptimizerSpec;

/// Configuration of a (single- or multi-task) VQA run.
#[derive(Clone, Debug)]
pub struct VqaRunConfig {
    /// Maximum optimizer iterations per task.
    pub max_iterations: usize,
    /// The classical optimizer.
    pub optimizer: OptimizerSpec,
    /// Seed for the optimizer's stochastic components.
    pub seed: u64,
    /// Record a history entry (with an uncharged exact-energy probe) every this many
    /// iterations.  1 records every iteration; larger values reduce simulation overhead
    /// for long runs.
    pub record_every: usize,
}

impl Default for VqaRunConfig {
    fn default() -> Self {
        VqaRunConfig {
            max_iterations: 200,
            optimizer: OptimizerSpec::default_spsa(),
            seed: 1,
            record_every: 1,
        }
    }
}

/// One point of a run's convergence history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRecord {
    /// Optimizer iteration index (0-based).
    pub iteration: usize,
    /// Cumulative shots charged by the backend up to and including this iteration.
    pub cumulative_shots: u64,
    /// The loss value the optimizer saw this iteration (may include sampling noise).
    pub loss: f64,
    /// The exact (uncharged probe) energy of the current parameters.
    pub exact_energy: f64,
    /// The best exact energy observed so far.
    pub best_energy: f64,
}

/// Result of optimizing one task.
#[derive(Clone, Debug)]
pub struct VqaRunResult {
    /// Label of the task this result belongs to.
    pub task_label: String,
    /// Final parameter vector.
    pub final_params: Vec<f64>,
    /// Exact energy at the final parameters.
    pub final_energy: f64,
    /// Best exact energy observed during the run.
    pub best_energy: f64,
    /// Shots charged by this run.
    pub shots_used: u64,
    /// Convergence history.
    pub history: Vec<IterationRecord>,
}

/// Result of the conventional baseline over a whole application.
#[derive(Clone, Debug)]
pub struct BaselineRunResult {
    /// Per-task results, in task order.
    pub per_task: Vec<VqaRunResult>,
    /// Total shots charged across all tasks.
    pub total_shots: u64,
}

impl BaselineRunResult {
    /// Best exact energy per task, in task order.
    pub fn best_energies(&self) -> Vec<f64> {
        self.per_task.iter().map(|r| r.best_energy).collect()
    }
}
