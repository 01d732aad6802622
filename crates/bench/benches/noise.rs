//! Criterion benchmarks + quality study for the `qnoise` trajectory-noise subsystem.
//!
//! Two sections, both written into `BENCH_noise.json` at the workspace root:
//!
//! * **Throughput** — trajectories/second of the noisy statevector backend at several
//!   trajectory counts on a 12-qubit QAOA-shaped ansatz (the diagonal-pass-heavy gate
//!   mix where the batch-table reuse matters), against the ideal single-rollout
//!   baseline.
//! * **Quality** — ideal vs noisy energy of one optimized IEEE-14 MaxCut instance, with
//!   approximation ratios against the brute-force max cut.
//!
//! Run with `cargo bench -p treevqa_bench --bench noise`.

use criterion::{criterion_group, Criterion};
use qcircuit::{QaoaAnsatz, QaoaStyle};
use qexec::{run_single_vqa, Executor, SeedPolicy};
use qgraph::{ieee14_base_graph, maxcut_cost_hamiltonian};
use qopt::{OptimizerSpec, SpsaConfig};
use treevqa_bench::workloads::{
    ansatz_params, bench_noise_model as device_model, rotation_heavy_ansatz, zz_ring_hamiltonian,
};
use vqa::{
    red_qaoa_initial_point, Backend, InitialState, NoisyStatevectorBackend, StatevectorBackend,
    VqaRunConfig, VqaTask,
};

const TRAJECTORY_COUNTS: [usize; 3] = [4, 16, 64];
const BENCH_QUBITS: usize = 12;

fn bench_trajectory_throughput(c: &mut Criterion) {
    let circ = rotation_heavy_ansatz(BENCH_QUBITS, 2);
    let params = ansatz_params(&circ);
    let ham = zz_ring_hamiltonian(BENCH_QUBITS);

    let mut ideal = StatevectorBackend::with_shots(0);
    c.bench_function("noisy_eval/ideal_baseline", |b| {
        b.iter(|| {
            std::hint::black_box(ideal.evaluate(
                &circ,
                &params,
                &InitialState::Basis(0),
                &ham,
                &[],
            ));
        })
    });
    for k in TRAJECTORY_COUNTS {
        let mut backend =
            NoisyStatevectorBackend::with_policy(device_model(), 0, SeedPolicy::new(7))
                .with_trajectories(k);
        c.bench_function(&format!("noisy_eval/trajectories/{k}"), |b| {
            b.iter(|| {
                std::hint::black_box(backend.evaluate(
                    &circ,
                    &params,
                    &InitialState::Basis(0),
                    &ham,
                    &[],
                ));
            })
        });
    }
}

fn configure() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = noise_benches;
    config = configure();
    targets = bench_trajectory_throughput
}

struct QualityArm {
    name: &'static str,
    energy: f64,
    ratio: f64,
}

/// Ideal vs noisy quality on the IEEE-14 MaxCut instance: optimize ideally,
/// then estimate the optimized point on each substrate.
fn quality_study() -> (f64, Vec<QualityArm>) {
    let graph = ieee14_base_graph();
    let cost = maxcut_cost_hamiltonian(&graph);
    let qaoa = QaoaAnsatz::new(&cost, 1, QaoaStyle::MultiAngle).expect("diagonal cost");
    let ansatz = qaoa.build();
    let start = red_qaoa_initial_point(&qaoa, &graph);
    let task = VqaTask::new("ieee14", 1.0, cost.clone());
    let config = VqaRunConfig {
        max_iterations: 120,
        optimizer: OptimizerSpec::Spsa(SpsaConfig {
            a: 0.2,
            ..Default::default()
        }),
        seed: 5,
        record_every: 40,
    };
    let ideal_executor = Executor::single(StatevectorBackend::with_shots(0));
    let run = run_single_vqa(
        &task,
        &ansatz,
        &InitialState::Basis(0),
        &start,
        &ideal_executor.client(),
        &config,
    )
    .expect("well-formed workload");
    let theta = &run.final_params;
    let (max_cut, _) = graph.max_cut_brute_force();
    let k = 256;

    let ideal = StatevectorBackend::with_shots(0)
        .evaluate(&ansatz, theta, &InitialState::Basis(0), &cost, &[])
        .0;
    let noisy = NoisyStatevectorBackend::with_policy(device_model(), 0, SeedPolicy::new(11))
        .with_trajectories(k)
        .evaluate(&ansatz, theta, &InitialState::Basis(0), &cost, &[])
        .0;

    let arm = |name, energy: f64| QualityArm {
        name,
        energy,
        ratio: -energy / max_cut,
    };
    (max_cut, vec![arm("ideal", ideal), arm("noisy", noisy)])
}

fn main() {
    noise_benches();

    let results = criterion::all_results();
    let median = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.median_ns);
    println!("\n== trajectory throughput ({BENCH_QUBITS}q QAOA-shaped ansatz, median) ==");
    if let Some(base) = median("noisy_eval/ideal_baseline") {
        println!("ideal single rollout      {:>10.0} rollouts/s", 1e9 / base);
    }
    for k in TRAJECTORY_COUNTS {
        if let Some(ns) = median(&format!("noisy_eval/trajectories/{k}")) {
            println!(
                "{k:>3} trajectories/eval     {:>10.0} trajectories/s",
                k as f64 * 1e9 / ns
            );
        }
    }

    println!("\n== ideal vs noisy on IEEE-14 MaxCut ==");
    let (max_cut, arms) = quality_study();
    for arm in &arms {
        println!(
            "{:<6} energy {:>9.4}   approx. ratio {:>6.4}",
            arm.name, arm.energy, arm.ratio
        );
    }

    // BENCH_noise.json: criterion records plus the quality section, hand-serialized.
    let mut json = String::from("{\n  \"throughput\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}}}{}\n",
            r.id.replace('"', "'"),
            r.median_ns,
            r.mean_ns,
            r.samples,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"quality\": {{\n    \"instance\": \"ieee14 MaxCut, ma-QAOA p=1\",\n    \"model\": \"ibm_like p1=5e-4 p2=4e-3 gamma=1e-3 readout=0.01\",\n    \"trajectories\": 256,\n    \"max_cut\": {max_cut:.6},\n"
    ));
    for (i, arm) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"energy\": {:.6}, \"approx_ratio\": {:.6}}}{}\n",
            arm.name,
            arm.energy,
            arm.ratio,
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_noise.json");
    std::fs::write(json_path, json).expect("failed to write BENCH_noise.json");
    println!("\nwrote {json_path}");
}
