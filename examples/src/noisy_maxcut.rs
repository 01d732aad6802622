//! QAOA MaxCut on the IEEE 14-bus system under trajectory noise.
//!
//! The noise-aware companion of `maxcut_ieee14`: the same load-scaled MaxCut family is
//! solved by TreeVQA on an **ideal** statevector backend and on the **noisy trajectory**
//! backend (`qnoise` Pauli channels replayed through the compiled batch engine), and one
//! instance is then optimized noisily and its optimized point estimated on an ideal and
//! a noisy backend of one capability-negotiated execution service.
//!
//! Run with:
//!
//! ```text
//! QNOISE_TRAJECTORIES=16 cargo run --release -p treevqa-examples --bin noisy_maxcut
//! ```

use qcircuit::{QaoaAnsatz, QaoaStyle};
use qexec::{run_single_vqa, EvalJob, Executor, SeedPolicy, SubmitOptions};
use qgraph::{maxcut_cost_hamiltonian, Ieee14Family};
use qnoise::PauliNoiseModel;
use qopt::{OptimizerSpec, SpsaConfig};
use std::sync::Arc;
use treevqa::{TreeVqa, TreeVqaConfig};
use vqa::{
    red_qaoa_initial_point, BackendCaps, InitialState, NoisyStatevectorBackend, StatevectorBackend,
    VqaApplication, VqaRunConfig, VqaTask,
};

/// A mid-tier superconducting-flavoured noise model: depolarizing per gate, twirled
/// amplitude damping per touched qubit, 1 % readout flips.
fn device_model() -> PauliNoiseModel {
    PauliNoiseModel::ibm_like("example-device", 5e-4, 4e-3, 1e-3, 0.01)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    treevqa_examples::enable_observability();
    let trajectories = qnoise::default_trajectories().min(32);
    let family = Ieee14Family::new(0.9, 1.1, 6);
    let graphs = family.graphs();
    let costs: Vec<_> = graphs.iter().map(maxcut_cost_hamiltonian).collect();
    let qaoa = QaoaAnsatz::new(&costs[0], 1, QaoaStyle::MultiAngle)?;
    let ansatz = qaoa.build();
    let initial_point = red_qaoa_initial_point(&qaoa, &graphs[0]);
    let model = device_model();
    println!(
        "IEEE 14-bus MaxCut under trajectory noise: {} instances, {} trajectories/eval, model '{}'",
        graphs.len(),
        trajectories,
        model.name
    );

    let tasks: Vec<VqaTask> = costs
        .iter()
        .zip(family.load_scales())
        .map(|(cost, scale)| {
            VqaTask::with_computed_reference(format!("load={scale:.2}"), scale, cost.clone())
        })
        .collect();
    let application = VqaApplication::new(
        "ieee14-maxcut-noisy",
        tasks,
        ansatz.clone(),
        InitialState::Basis(0),
    );

    let optimizer = OptimizerSpec::Spsa(SpsaConfig {
        a: 0.2,
        ..Default::default()
    });
    let config = TreeVqaConfig {
        max_cluster_iterations: treevqa_examples::example_iterations(80),
        optimizer: optimizer.clone(),
        record_every: 20,
        seed: 5,
        ..Default::default()
    };

    // Arm 1: TreeVQA as a client of an ideal execution service.
    let tree_vqa = TreeVqa::try_new(application.clone(), config.clone())?;
    let ideal_exec = Executor::single(StatevectorBackend::new());
    let ideal = tree_vqa.run_with_initial(&ideal_exec, &initial_point)?;

    // Arm 2: the same controller against a noisy-trajectory service.  Each round's jobs
    // coalesce into one batched submission, so the K-trajectory rollouts ride the
    // scratch-pool engine.
    let tree_vqa = TreeVqa::try_new(application.clone(), config)?;
    let noisy_exec = Executor::single(
        NoisyStatevectorBackend::with_policy(
            model.clone(),
            qsim::DEFAULT_SHOTS_PER_PAULI,
            SeedPolicy::new(5),
        )
        .with_trajectories(trajectories),
    );
    let noisy = tree_vqa.run_with_initial(&noisy_exec, &initial_point)?;

    println!("\n  load   max-cut   ideal-ratio   noisy-ratio");
    for ((ideal_task, noisy_task), graph) in ideal.per_task.iter().zip(&noisy.per_task).zip(&graphs)
    {
        let (max_cut, _) = graph.max_cut_brute_force();
        println!(
            "  {:>5.2}  {:>8.4}   {:>11.3}   {:>11.3}",
            ideal_task.parameter,
            max_cut,
            -ideal_task.energy / max_cut,
            -noisy_task.energy / max_cut
        );
    }
    println!(
        "  shots: ideal {:>13}, noisy {:>13}",
        ideal.total_shots, noisy.total_shots
    );

    // Noise study on the middle instance: optimize *under noise*, then compare the noisy
    // estimate of the optimized point against the ideal truth.
    let idx = graphs.len() / 2;
    let run_config = VqaRunConfig {
        max_iterations: treevqa_examples::example_iterations(80),
        optimizer,
        seed: 11,
        record_every: 20,
    };
    // One execution service owning both estimation substrates, negotiated by
    // capability: the one-off estimates of the optimized point each name (or discover)
    // their backend.
    let study_exec = Executor::builder()
        .register("ideal", StatevectorBackend::with_shots(0))
        .register(
            "noisy",
            NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(13))
                .with_trajectories(4 * trajectories),
        )
        .start();
    let client = study_exec.client();

    let opt_exec = Executor::single(
        NoisyStatevectorBackend::with_policy(device_model(), 0, SeedPolicy::new(7))
            .with_trajectories(trajectories),
    );
    let noisy_run = run_single_vqa(
        &application.tasks[idx],
        &application.ansatz,
        &application.initial_state,
        &initial_point,
        &opt_exec.client(),
        &run_config,
    )?;
    let theta = Arc::new(noisy_run.final_params.clone());
    let ansatz = Arc::new(application.ansatz.clone());
    let ham = Arc::new(application.tasks[idx].hamiltonian.clone());

    let estimate = |backend: &str| -> Result<f64, qexec::ExecError> {
        let job = EvalJob::new(
            Arc::clone(&ansatz),
            theta.to_vec(),
            InitialState::Basis(0),
            Arc::clone(&ham),
        );
        Ok(client
            .submit_with(
                job,
                &SubmitOptions {
                    backend: Some(backend.to_string()),
                    ..SubmitOptions::default()
                },
            )?
            .wait()?
            .charged)
    };
    let trajectory_backend = study_exec
        .find_backend(&BackendCaps {
            trajectories: true,
            ..BackendCaps::default()
        })
        .ok_or("no trajectory-capable backend is registered")?;
    assert_eq!(trajectory_backend, "noisy");
    let ideal_e = estimate("ideal")?;
    let noisy_e = estimate(&trajectory_backend)?;

    let (max_cut, _) = graphs[idx].max_cut_brute_force();
    println!(
        "\n  noise on load={:.2} (noisy-optimized point, max-cut {max_cut:.4}):",
        family.load_scales()[idx]
    );
    println!(
        "    ideal estimate : {ideal_e:>9.4}  (cut {:>7.4})",
        -ideal_e
    );
    println!(
        "    noisy estimate : {noisy_e:>9.4}  (cut {:>7.4})",
        -noisy_e
    );
    println!("    |error| noisy {:.4}", (noisy_e - ideal_e).abs());
    treevqa_examples::print_observability("noisy trajectory service", &noisy_exec);
    treevqa_examples::print_observability("noise study service", &study_exec);
    Ok(())
}
