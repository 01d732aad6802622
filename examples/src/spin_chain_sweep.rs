//! Phase-diagram sweep of a transverse-field Ising chain, noiseless and noisy.
//!
//! The paper's physics benchmarks build a "landscape" by sweeping a model parameter
//! (Section 7.1).  This example sweeps the transverse field of an 8-site Ising chain
//! across its quantum phase transition, runs TreeVQA on a noiseless backend and on the
//! analytic readout of a synthetic device calibration (`qnoise::PauliNoiseModel`, Section
//! 8.7's setting), and reports how the shot savings and accuracy compare.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p treevqa-examples --bin spin_chain_sweep
//! ```

use qchem::SpinChainFamily;
use qcircuit::{Entanglement, HardwareEfficientAnsatz};
use qexec::{run_baseline, Executor, SeedPolicy};
use qnoise::PauliNoiseModel;
use qopt::{OptimizerSpec, SpsaConfig};
use treevqa::{TreeVqa, TreeVqaConfig};
use vqa::{
    metrics, Backend, InitialState, NoisyBackend, StatevectorBackend, VqaApplication, VqaRunConfig,
    VqaTask,
};

fn build_application(num_tasks: usize) -> VqaApplication {
    let family = SpinChainFamily::tfim_benchmark();
    let tasks: Vec<VqaTask> = family
        .tasks(num_tasks)
        .into_iter()
        .map(|(h, ham)| VqaTask::with_computed_reference(format!("h={h:.2}"), h, ham))
        .collect();
    let ansatz = HardwareEfficientAnsatz::new(family.num_sites, 2, Entanglement::Circular).build();
    VqaApplication::new("tfim-sweep", tasks, ansatz, InitialState::Basis(0))
}

fn compare(
    label: &str,
    application: &VqaApplication,
    mut make_backend: impl FnMut() -> Box<dyn Backend + Send>,
) -> Result<(), Box<dyn std::error::Error>> {
    let optimizer = OptimizerSpec::Spsa(SpsaConfig {
        a: 0.25,
        ..Default::default()
    });
    let iterations = treevqa_examples::example_iterations(120);

    let baseline_config = VqaRunConfig {
        max_iterations: iterations,
        optimizer: optimizer.clone(),
        seed: 17,
        record_every: 10,
    };
    let zeros = vec![0.0; application.num_parameters()];
    let baseline = run_baseline(application, &zeros, &baseline_config, &mut |_| {
        make_backend()
    })?;

    let config = TreeVqaConfig {
        max_cluster_iterations: iterations,
        optimizer,
        record_every: 10,
        seed: 17,
        ..Default::default()
    };
    let tree_vqa = TreeVqa::try_new(application.clone(), config)?;
    let executor = Executor::single_boxed(make_backend());
    let result = tree_vqa.run(&executor)?;

    let base_fid = metrics::mean_fidelity(&application.tasks, &baseline.best_energies());
    let tree_fid = metrics::mean_fidelity(&application.tasks, &result.energies());
    let savings = metrics::shot_savings_ratio(baseline.total_shots, result.total_shots);
    println!(
        "  {label:<10} savings {:>6.1}x   mean fidelity: baseline {:.4} / TreeVQA {:.4}   splits {}",
        savings.unwrap_or(f64::NAN),
        base_fid.unwrap_or(f64::NAN),
        tree_fid.unwrap_or(f64::NAN),
        result.tree.num_splits()
    );
    treevqa_examples::print_observability(&format!("{label} execution service"), &executor);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    treevqa_examples::enable_observability();
    let application = build_application(6);
    println!(
        "Transverse-field Ising sweep: {} tasks on {} qubits",
        application.num_tasks(),
        application.num_qubits()
    );

    compare("noiseless", &application, || {
        Box::new(StatevectorBackend::new()) as Box<dyn Backend + Send>
    })?;

    let model = PauliNoiseModel::by_name("cairo").ok_or("unknown noise model \"cairo\"")?;
    compare("noisy", &application, move || {
        Box::new(NoisyBackend::with_policy(
            model.clone(),
            qsim::DEFAULT_SHOTS_PER_PAULI,
            SeedPolicy::new(23),
        )) as Box<dyn Backend + Send>
    })?;
    Ok(())
}
