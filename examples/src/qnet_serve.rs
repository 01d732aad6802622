//! Network serving tour: an executor behind a TCP socket, driven by concurrent
//! remote clients.
//!
//! A three-backend executor (exact statevector, finite-shot sampled, noisy
//! Pauli-trajectory) goes behind a loopback [`qnet::NetServer`].  Four remote
//! connections then act as a load generator — each submits a wave of stream-pinned
//! evaluation jobs round-robin across the backends and reports its own wire
//! round-trip latency.  After the fan-out, a fifth connection runs the *entire*
//! `vqa` driver ([`qexec::run_single_vqa`]) against the remote executor — the same
//! generic entry point local code uses, no network-specific driver — and, because
//! randomness is counter-based and stream-pinned, an identical local run reproduces
//! its energy bit-for-bit (the example asserts this).  A sixth connection then runs
//! the paper's workload — a small TreeVQA, every round phase one batch frame — through
//! [`treevqa::TreeVqa::run_on`], again equal to a local rerun.  The run ends with the
//! server's own metrics (connections, frames, bytes, per-connection request
//! counters) and the executor's observability summary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p treevqa-examples --bin qnet_serve
//! ```

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::{run_single_vqa, EvalJob, Executor, SeedPolicy, StreamId, SubmitOptions};
use qnet::{NetClient, NetServer};
use qnoise::PauliNoiseModel;
use qop::PauliOp;
use std::sync::Arc;
use treevqa::{SplitPolicy, TreeVqa, TreeVqaConfig};
use vqa::{
    InitialState, NoisyStatevectorBackend, SampledBackend, StatevectorBackend, VqaApplication,
    VqaRunConfig, VqaTask,
};

const QUBITS: usize = 4;
const CONNS: usize = 4;
const JOBS_PER_CONN: usize = 12;

fn demo_circuit() -> Arc<Circuit> {
    Arc::new(HardwareEfficientAnsatz::new(QUBITS, 2, Entanglement::Circular).build())
}

fn demo_observable() -> Arc<PauliOp> {
    Arc::new(PauliOp::from_labels(
        QUBITS,
        &[("ZZII", -1.0), ("IZZI", -1.0), ("IIZZ", 0.5), ("XIII", 0.3)],
    ))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    treevqa_examples::enable_observability();

    // The served executor: three backend families.
    let noise = PauliNoiseModel::ibm_like("qnet-serve", 0.02, 0.05, 0.01, 0.01);
    let executor = Arc::new(
        Executor::builder()
            .register("exact", StatevectorBackend::with_shots(64))
            .register(
                "sampled",
                SampledBackend::with_policy(256, SeedPolicy::new(42)),
            )
            .register(
                "noisy",
                NoisyStatevectorBackend::with_policy(noise, 50, SeedPolicy::new(3))
                    .with_trajectories(4)
                    .with_shot_sampling(),
            )
            .observability(true)
            .start(),
    );
    let backends = executor.backend_names();
    let server = NetServer::builder(Arc::clone(&executor))
        .observability(true)
        .bind(qnet::addr_from_env())?;
    println!(
        "qnet_serve: serving backends {:?} on {}",
        backends,
        server.local_addr()
    );

    // Phase 1 — load generator: CONNS remote connections, each shipping its wave as
    // one batch frame (a coalesced slate server-side) plus a few single submits.
    let circuit = demo_circuit();
    let observable = demo_observable();
    let addr = server.local_addr();
    println!("\n  [load generator: {CONNS} connections x {JOBS_PER_CONN} jobs]");
    let loaders: Vec<_> = (0..CONNS)
        .map(|c| {
            let circuit = Arc::clone(&circuit);
            let observable = Arc::clone(&observable);
            let backends: Vec<String> = backends.clone();
            std::thread::spawn(move || -> Result<String, qexec::ExecError> {
                let client = NetClient::connect(addr)
                    .map_err(|e| qexec::ExecError::Transport(e.to_string()))?;
                let mut handles = Vec::new();
                for i in 0..JOBS_PER_CONN {
                    let params: Vec<f64> = (0..circuit.num_parameters())
                        .map(|p| 0.05 * p as f64 + 0.01 * (c * JOBS_PER_CONN + i) as f64)
                        .collect();
                    let job = EvalJob::new(
                        Arc::clone(&circuit),
                        params,
                        InitialState::Basis(0),
                        Arc::clone(&observable),
                    )
                    .with_rng_stream(StreamId::named(&format!("qnet-serve-c{c}-j{i}")));
                    let opts =
                        SubmitOptions::new().backend(backends[i % backends.len()].clone());
                    handles.push(client.submit_with(job, &opts)?);
                }
                let mut sum = 0.0;
                for handle in &handles {
                    sum += handle.wait()?.charged;
                }
                let rtt = client.rtt();
                Ok(format!(
                    "conn {c}: {JOBS_PER_CONN} jobs ok, mean energy {:+.4}, wire RTT mean {:.1} us (max {:.1} us)",
                    sum / JOBS_PER_CONN as f64,
                    rtt.sum as f64 / rtt.count.max(1) as f64 / 1e3,
                    rtt.max as f64 / 1e3,
                ))
            })
        })
        .collect();
    for loader in loaders {
        println!("    {}", loader.join().expect("loader thread")?);
    }

    // Phase 2 — a full VQA run over the wire, reproduced locally bit-for-bit.
    let iterations = treevqa_examples::example_iterations(40);
    let ham = qchem::transverse_field_ising(QUBITS, 1.0, 0.5);
    let task = VqaTask::with_computed_reference("TFIM h=0.5", 0.5, ham);
    let ansatz = HardwareEfficientAnsatz::new(QUBITS, 2, Entanglement::Circular).build();
    let zeros = vec![0.0; ansatz.num_parameters()];
    let config = VqaRunConfig {
        max_iterations: iterations,
        optimizer: qopt::OptimizerSpec::Spsa(qopt::SpsaConfig {
            a: 0.25,
            ..Default::default()
        }),
        seed: 7,
        record_every: iterations.max(1),
    };
    println!("\n  [remote VQA: {iterations} SPSA iterations over one connection]");
    let client = NetClient::connect(addr)?;
    let remote = run_single_vqa(
        &task,
        &ansatz,
        &InitialState::Basis(0),
        &zeros,
        &client,
        &config,
    )?;
    drop(client);
    println!(
        "    remote best energy {:+.6} after {} iterations ({} shots)",
        remote.best_energy, iterations, remote.shots_used
    );
    // The same run against a fresh local executor: bit-identical, by the
    // schedule-independence contract — the wire adds no observable behavior.
    let local_executor = Executor::single(StatevectorBackend::with_shots(64));
    let local = run_single_vqa(
        &task,
        &ansatz,
        &InitialState::Basis(0),
        &zeros,
        &local_executor.client(),
        &config,
    )?;
    assert_eq!(
        remote.best_energy.to_bits(),
        local.best_energy.to_bits(),
        "remote and local runs must be bit-identical"
    );
    println!("    local rerun matches bit-for-bit ✓");

    // Phase 3 — the paper's workload over the wire: the TreeVQA controller is a plain
    // `JobSubmitter` client, so it takes the connection where it would take a local
    // client.  Each round phase travels as one batch frame and runs as one slate.
    let tasks: Vec<VqaTask> = [0.4, 0.5, 0.9, 1.0]
        .iter()
        .map(|&h| {
            let ham = qchem::transverse_field_ising(QUBITS, 1.0, h);
            VqaTask::with_computed_reference(format!("TFIM h={h}"), h, ham)
        })
        .collect();
    let app = VqaApplication::new("tfim-remote", tasks, ansatz, InitialState::Basis(0));
    let tree_vqa = TreeVqa::new(
        app,
        TreeVqaConfig {
            max_cluster_iterations: iterations,
            split_policy: SplitPolicy::ForcedSingle { at_fraction: 0.5 },
            ..Default::default()
        },
    );
    println!("\n  [remote TreeVQA: 4 tasks, {iterations} iterations per cluster]");
    let client = NetClient::connect(addr)?;
    let remote = tree_vqa.run_on(&client)?;
    drop(client);
    println!(
        "    remote run: {} shots, {} splits, min fidelity {:.4}",
        remote.total_shots,
        remote.tree.num_splits(),
        remote.min_fidelity().unwrap_or(f64::NAN)
    );
    let local = tree_vqa.run(&local_executor)?;
    assert_eq!(
        format!("{remote:?}"),
        format!("{local:?}"),
        "remote and local TreeVQA runs must be identical"
    );
    println!("    local rerun matches field for field ✓");

    // Wind down: drain, then print both metric surfaces.
    server.shutdown();
    let net = server.observability().snapshot();
    println!("\n  [qnet server metrics]");
    for name in [
        "conns_accepted",
        "conns_closed",
        "frames_in",
        "frames_out",
        "writes",
        "bytes_in",
        "bytes_out",
        "submits",
        "probes",
        "batches",
        "results_sent",
        "errors_sent",
        "decode_errors",
    ] {
        println!("    {name:>16} {}", net.counter(name));
    }
    let mut per_conn: Vec<_> = net
        .labeled
        .iter()
        .filter(|(label, _)| label.starts_with("conn"))
        .collect();
    per_conn.sort();
    for (label, count) in per_conn {
        println!("    {label:>16} {count}");
    }
    treevqa_examples::print_observability("served executor", &executor);
    Ok(())
}
