//! Shared harness code for the TreeVQA experiment suite.
//!
//! Every table and figure of the paper's evaluation is regenerated by the `experiments`
//! binary (`cargo run -p treevqa-bench --release --bin experiments -- <id>`); this library
//! holds the pieces those experiments share: benchmark-application builders, the
//! TreeVQA-vs-baseline comparison runner, and CSV output helpers.
//!
//! All experiments are scaled down relative to the paper: iteration counts, task counts
//! and register sizes are reduced so the whole suite runs on a laptop, while the
//! comparisons (who wins, by roughly what factor, how trends move with
//! size/precision/similarity) keep their shape.

pub mod quick;
pub mod workloads;

use qchem::{MoleculeSpec, SpinChainFamily};
use qcircuit::{Entanglement, HardwareEfficientAnsatz, QaoaAnsatz, QaoaStyle, UccsdAnsatz};
use qexec::{run_baseline, Executor};
use qgraph::{maxcut_cost_hamiltonian, Ieee14Family};
use qopt::OptimizerSpec;
use treevqa::{TreeVqa, TreeVqaConfig, TreeVqaResult};
use vqa::{
    metrics, Backend, BaselineRunResult, InitialState, StatevectorBackend, VqaApplication,
    VqaRunConfig, VqaTask,
};

/// Which VQE benchmark family to build (the six panels of Figures 6–7 plus the large-scale
/// and QAOA workloads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchmarkId {
    /// HF molecule family.
    Hf,
    /// LiH molecule family.
    Lih,
    /// BeH₂ molecule family.
    Beh2,
    /// Heisenberg XXZ chain sweep.
    Xxz,
    /// Transverse-field Ising sweep.
    Tfim,
    /// H₂ with the UCCSD ansatz.
    H2Uccsd,
}

impl BenchmarkId {
    /// All six panels in the paper's order.
    pub fn all() -> Vec<BenchmarkId> {
        vec![
            BenchmarkId::Hf,
            BenchmarkId::Lih,
            BenchmarkId::Beh2,
            BenchmarkId::Xxz,
            BenchmarkId::Tfim,
            BenchmarkId::H2Uccsd,
        ]
    }

    /// Display name matching the paper's panel titles.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkId::Hf => "HF",
            BenchmarkId::Lih => "LiH",
            BenchmarkId::Beh2 => "BeH2",
            BenchmarkId::Xxz => "XXZ Model",
            BenchmarkId::Tfim => "Transverse Field Model",
            BenchmarkId::H2Uccsd => "H2 UCCSD",
        }
    }
}

/// Builds the application (tasks + shared ansatz + initial state) for a benchmark panel.
///
/// `num_tasks` is the number of geometries / sweep points (the paper uses 10, 5 for H₂).
pub fn build_benchmark(id: BenchmarkId, num_tasks: usize) -> VqaApplication {
    match id {
        BenchmarkId::Hf | BenchmarkId::Lih | BenchmarkId::Beh2 => {
            let molecule = match id {
                BenchmarkId::Hf => MoleculeSpec::hf(),
                BenchmarkId::Lih => MoleculeSpec::lih(),
                _ => MoleculeSpec::beh2(),
            };
            molecule_application(&molecule, num_tasks, 2)
        }
        BenchmarkId::H2Uccsd => {
            let molecule = MoleculeSpec::h2();
            let tasks = chemistry_tasks(&molecule, num_tasks);
            let uccsd = UccsdAnsatz::new(molecule.num_qubits, molecule.num_electrons);
            // The UCCSD circuit already prepares the Hartree–Fock reference internally.
            VqaApplication::new("H2-UCCSD", tasks, uccsd.build(), InitialState::Basis(0))
        }
        BenchmarkId::Xxz | BenchmarkId::Tfim => {
            let family = if id == BenchmarkId::Xxz {
                SpinChainFamily::xxz_benchmark()
            } else {
                SpinChainFamily::tfim_benchmark()
            };
            let tasks: Vec<VqaTask> = family
                .tasks(num_tasks)
                .into_iter()
                .map(|(p, ham)| {
                    VqaTask::with_computed_reference(format!("{}={p:.3}", family.name()), p, ham)
                })
                .collect();
            let ansatz =
                HardwareEfficientAnsatz::new(family.num_sites, 2, Entanglement::Circular).build();
            VqaApplication::new(family.name(), tasks, ansatz, InitialState::Basis(0))
        }
    }
}

/// Builds a molecular application with an explicit number of hardware-efficient ansatz
/// repetitions (the noisy study uses 5 instead of 2).
pub fn molecule_application(
    molecule: &MoleculeSpec,
    num_tasks: usize,
    reps: usize,
) -> VqaApplication {
    let tasks = chemistry_tasks(molecule, num_tasks);
    let ansatz =
        HardwareEfficientAnsatz::new(molecule.num_qubits, reps, Entanglement::Circular).build();
    VqaApplication::new(
        molecule.name.clone(),
        tasks,
        ansatz,
        InitialState::Basis(molecule.hartree_fock_state()),
    )
}

/// The chemistry tasks (with exact reference energies) of a molecular family.
pub fn chemistry_tasks(molecule: &MoleculeSpec, num_tasks: usize) -> Vec<VqaTask> {
    molecule
        .tasks(num_tasks)
        .into_iter()
        .map(|(bond, ham)| {
            VqaTask::with_computed_reference(format!("{} r={bond:.3}", molecule.name), bond, ham)
        })
        .collect()
}

/// The IEEE-14 MaxCut application for one load-scale family (Figure 12's workload).
pub fn ieee14_application(family: &Ieee14Family, layers: usize) -> (VqaApplication, Vec<f64>) {
    let graphs = family.graphs();
    let costs: Vec<_> = graphs.iter().map(maxcut_cost_hamiltonian).collect();
    let qaoa = QaoaAnsatz::new(&costs[0], layers, QaoaStyle::MultiAngle)
        .expect("MaxCut cost Hamiltonians are diagonal");
    let initial_point = vqa::red_qaoa_initial_point(&qaoa, &graphs[0]);
    let tasks: Vec<VqaTask> = costs
        .iter()
        .zip(family.load_scales())
        .map(|(cost, scale)| {
            VqaTask::with_computed_reference(format!("load={scale:.2}"), scale, cost.clone())
        })
        .collect();
    let app = VqaApplication::new("ieee14-maxcut", tasks, qaoa.build(), InitialState::Basis(0));
    (app, initial_point)
}

/// Common knobs of a TreeVQA-vs-baseline comparison.
#[derive(Clone, Debug)]
pub struct ComparisonConfig {
    /// Optimizer iterations for the baseline (per task) and per TreeVQA cluster.
    pub iterations: usize,
    /// Optimizer specification shared by both arms.
    pub optimizer: OptimizerSpec,
    /// Base RNG seed.
    pub seed: u64,
    /// History recording stride.
    pub record_every: usize,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        ComparisonConfig {
            iterations: 400,
            optimizer: OptimizerSpec::default_spsa(),
            seed: 11,
            record_every: 10,
        }
    }
}

/// Result of one TreeVQA-vs-baseline comparison.
pub struct Comparison {
    /// The application both arms solved.
    pub application: VqaApplication,
    /// Baseline (independent per-task VQA) results.
    pub baseline: BaselineRunResult,
    /// TreeVQA results.
    pub treevqa: TreeVqaResult,
}

impl Comparison {
    /// Shot-savings ratio at a fidelity threshold (Figure 6's metric), if both arms reach
    /// the threshold.
    pub fn savings_at_threshold(&self, threshold: f64) -> Option<(u64, u64, f64)> {
        let baseline = metrics::baseline_shots_for_threshold(
            &self.baseline.per_task,
            &self.application.tasks,
            threshold,
        )?;
        let tree = self.treevqa.shots_to_reach_min_fidelity(threshold)?;
        let ratio = metrics::shot_savings_ratio(baseline, tree)?;
        Some((baseline, tree, ratio))
    }

    /// Minimum fidelity of both arms under a total shot budget (Figure 7's metric).
    pub fn fidelity_at_budget(&self, budget: u64) -> (f64, f64) {
        let baseline = metrics::baseline_min_fidelity_at_budget(
            &self.baseline.per_task,
            &self.application.tasks,
            budget,
        )
        .unwrap_or(0.0);
        let tree = self.treevqa.min_fidelity_at_budget(budget).unwrap_or(0.0);
        (baseline, tree)
    }

    /// The highest fidelity threshold (from a fixed grid) that both arms reach, together
    /// with the savings there — the headline number printed by most experiments.
    pub fn best_common_threshold(&self) -> Option<(f64, u64, u64, f64)> {
        let grid = [0.999, 0.99, 0.98, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.6, 0.5];
        for &threshold in &grid {
            if let Some((b, t, r)) = self.savings_at_threshold(threshold) {
                return Some((threshold, b, t, r));
            }
        }
        None
    }
}

/// Runs both arms of a comparison on fresh exact statevector backends.
pub fn run_comparison(
    application: &VqaApplication,
    initial_params: &[f64],
    config: &ComparisonConfig,
) -> Comparison {
    run_comparison_with_backends(application, initial_params, config, &mut || {
        Box::new(StatevectorBackend::new()) as Box<dyn Backend + Send>
    })
}

/// Runs both arms of a comparison using caller-supplied backends (noisy, Pauli
/// propagation, sampled, …), each owned by a single-backend executor.  `make_backend`
/// is called once per baseline task and once for the TreeVQA arm.
pub fn run_comparison_with_backends(
    application: &VqaApplication,
    initial_params: &[f64],
    config: &ComparisonConfig,
    make_backend: &mut dyn FnMut() -> Box<dyn Backend + Send>,
) -> Comparison {
    let baseline_config = VqaRunConfig {
        max_iterations: config.iterations,
        optimizer: config.optimizer.clone(),
        seed: config.seed,
        record_every: config.record_every,
    };
    let baseline = run_baseline(application, initial_params, &baseline_config, &mut |_| {
        make_backend()
    })
    .expect("benchmark applications are well-formed");

    let tree_config = TreeVqaConfig {
        max_cluster_iterations: config.iterations,
        optimizer: config.optimizer.clone(),
        seed: config.seed,
        record_every: config.record_every,
        ..Default::default()
    };
    let tree = TreeVqa::new(application.clone(), tree_config);
    let executor = Executor::single_boxed(make_backend());
    let treevqa = tree
        .run_with_initial(&executor, initial_params)
        .expect("benchmark applications are well-formed");

    Comparison {
        application: application.clone(),
        baseline,
        treevqa,
    }
}

/// Writes a CSV file under `results/`, creating the directory if needed.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut contents = String::from(header);
    contents.push('\n');
    for row in rows {
        contents.push_str(row);
        contents.push('\n');
    }
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_builders_produce_consistent_applications() {
        for id in BenchmarkId::all() {
            let app = build_benchmark(id, 3);
            assert_eq!(app.num_tasks(), 3, "{}", id.name());
            assert!(app.num_parameters() > 0);
            assert!(app.tasks.iter().all(|t| t.reference_energy.is_some()));
        }
    }

    #[test]
    fn ieee14_application_builder() {
        let family = Ieee14Family::new(0.9, 1.1, 4);
        let (app, init) = ieee14_application(&family, 1);
        assert_eq!(app.num_tasks(), 4);
        assert_eq!(init.len(), app.num_parameters());
    }

    #[test]
    fn comparison_runs_end_to_end_on_a_tiny_benchmark() {
        let app = build_benchmark(BenchmarkId::Tfim, 3);
        let config = ComparisonConfig {
            iterations: 40,
            record_every: 5,
            ..Default::default()
        };
        let zeros = vec![0.0; app.num_parameters()];
        let comparison = run_comparison(&app, &zeros, &config);
        assert!(comparison.baseline.total_shots > 0);
        assert!(comparison.treevqa.total_shots > 0);
        let (b, t) = comparison.fidelity_at_budget(comparison.baseline.total_shots);
        assert!((0.0..=1.0).contains(&b));
        assert!((0.0..=1.0).contains(&t));
    }
}
