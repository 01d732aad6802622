//! Execution-service tracing tour: a mixed-priority, fault-injected workload with
//! every observability surface turned on.
//!
//! Three clients push evaluation jobs at different priorities through a two-backend
//! executor whose primary driver injects seeded transient faults and hard panics
//! (exercising retry, quarantine, canary, and failover); a slice of jobs carries a
//! deliberately unmeetable deadline so the expiry path fires too.  At the end the
//! example prints the same snapshot through all three `qobs` exporters — summary
//! table, JSON, Prometheus text — plus the labeled counters (`worker0_slates`: the
//! backend portions the scheduler thread executed) and how many spans carry the
//! dispatch (`worker`) label.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p treevqa-examples --bin exec_trace
//! ```

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::fault::{FaultPlan, FaultyBackend};
use qexec::{EvalJob, Executor, JobHandle, SubmitOptions};
use qop::PauliOp;
use std::sync::Arc;
use std::time::Duration;
use vqa::{InitialState, StatevectorBackend};

/// Injected faults unwind through `catch_unwind` by design; keep the default panic
/// hook from spraying backtraces over the trace output.
fn silence_expected_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn demo_circuit(num_qubits: usize, layers: usize) -> Arc<Circuit> {
    Arc::new(HardwareEfficientAnsatz::new(num_qubits, layers, Entanglement::Circular).build())
}

fn demo_observable(num_qubits: usize) -> Arc<PauliOp> {
    let mut label = String::from("ZZ");
    while label.len() < num_qubits {
        label.push('I');
    }
    Arc::new(PauliOp::from_labels(num_qubits, &[(label.as_str(), -1.0)]))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    treevqa_examples::enable_observability();
    silence_expected_panics();

    // Primary backend: exact statevector behind a scripted fault plan — slates batch
    // into few driver calls, so exact call indices stay meaningful: a transient glitch
    // on the second driver call (absorbed by retries), a hard panic on the third
    // (quarantine + canary + readmission; failover to the standby is armed for any
    // job caught in the quarantine window).  Standby: a clean backend with the same
    // capabilities.
    let plan = FaultPlan::new(42)
        .with_fault_at(1, Some(qexec::fault::FaultKind::Transient))
        .with_fault_at(2, Some(qexec::fault::FaultKind::Panic));
    let executor = Executor::builder()
        .register(
            "primary",
            FaultyBackend::new(StatevectorBackend::with_shots(64), plan),
        )
        .register("standby", StatevectorBackend::with_shots(64))
        .retry_limit(2)
        .observability(true)
        .start();
    println!(
        "exec_trace: 3 clients x 3 waves on backends {:?}",
        executor.backend_names()
    );

    let circuits = [demo_circuit(4, 2), demo_circuit(5, 2), demo_circuit(4, 3)];
    let observables = [demo_observable(4), demo_observable(5), demo_observable(4)];
    let clients = [executor.client(), executor.client(), executor.client()];

    // Three waves; each wave is assembled as one fair-ordered slate under a scoped
    // pause.  Client c submits at priority c, with retries + failover so the injected
    // faults are absorbed rather than fatal; odd jobs go to the standby directly, so
    // both backends carry load every slate; client 0's last wave carries a deadline that lapses while the executor
    // is still paused, lighting up the expiry path.
    let mut handles: Vec<JobHandle> = Vec::new();
    for wave in 0..3 {
        let guard = executor.scoped_pause();
        for (c, client) in clients.iter().enumerate() {
            for j in 0..4 {
                let shape = (wave + c + j) % circuits.len();
                let params: Vec<f64> = (0..circuits[shape].num_parameters())
                    .map(|i| 0.05 * i as f64 + 0.013 * (wave * 16 + c * 4 + j) as f64)
                    .collect();
                let mut job = EvalJob::new(
                    Arc::clone(&circuits[shape]),
                    params,
                    InitialState::Basis(0),
                    Arc::clone(&observables[shape]),
                );
                if wave == 2 && c == 0 {
                    job = job.with_timeout(Duration::from_millis(1));
                }
                let opts = SubmitOptions {
                    priority: c as qexec::Priority,
                    retries: 2,
                    failover: true,
                    backend: (j % 2 == 1).then(|| "standby".to_string()),
                    ..SubmitOptions::default()
                };
                handles.push(client.submit_with(job, &opts)?);
            }
        }
        if wave == 2 {
            // Outlive the 1 ms deadlines before releasing the slate.
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(guard);
        executor.wait_idle();
    }

    let (mut ok, mut failed) = (0usize, 0usize);
    for handle in &handles {
        match handle.wait() {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    println!("  resolved: {ok} ok, {failed} structured failures (none hung)");

    // Every exporter over the same snapshot.
    let registry = executor.observability();
    let snapshot = registry.snapshot();
    print!("\n{}", qexec::qobs::export::render_table(&snapshot));
    println!(
        "\n  JSON snapshot:\n{}",
        qexec::qobs::export::to_json(&snapshot)
    );
    println!(
        "\n  Prometheus exposition:\n{}",
        qexec::qobs::export::to_prometheus(&snapshot, "qexec")
    );

    // The labeled counters (also present in every export above), and how many of the
    // finished spans were dispatched: the scheduler thread stamps `worker = 0` on a
    // span when it hands the job to a driver, so jobs that expired in the queue carry
    // no worker label.
    println!("  labeled counters:");
    for (label, total) in &snapshot.labeled {
        println!("    {label}: {total}");
    }
    let recorded = registry.spans().recorded();
    let dispatched = recorded
        .iter()
        .filter(|s| s.labels.worker.is_some())
        .count();
    println!(
        "    {dispatched} of {} recorded job spans carry a worker label",
        recorded.len()
    );

    // The drivers' derived-data caches and the readout deduplication, as tallied under
    // the same process-wide flag.
    let (requested, evaluated) = vqa::observable_dedup_stats();
    println!(
        "  vqa caches (hits, misses): circuits {:?}, observables {:?}; \
         Pauli strings requested {requested}, evaluated {evaluated}",
        vqa::circuit_cache_stats(),
        vqa::observable_cache_stats(),
    );
    Ok(())
}
