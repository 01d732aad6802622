//! Integration-test-only crate; tests live in the tests/ subdirectory.
//!
//! Two shared items:
//!
//! * [`relational`] — the equivalence harness: every fast ≡ source pair of the stack as a
//!   row of a table, run over seeded case domains, plus the fixtures the suites share
//!   (`Gen`, `for_cases`, `Tally`, `dense_state`, `force_parallel_workers`).
//! * the small TreeVQA run that `tests/executor.rs` pins against a golden recorded before
//!   the controller moved onto `qexec::JobSubmitter`, and that `tests/net.rs` reruns
//!   through a loopback connection.

pub mod relational;

use qcircuit::{Entanglement, HardwareEfficientAnsatz};
use qexec::{Executor, SeedPolicy};
use treevqa::{SplitPolicy, TreeVqa, TreeVqaConfig};
use vqa::{InitialState, SampledBackend, VqaApplication, VqaTask};

/// Four 3-qubit TFIM tasks on a one-layer hardware-efficient ansatz.
pub fn pinned_application() -> VqaApplication {
    let tasks: Vec<VqaTask> = [0.4, 0.5, 0.9, 1.0]
        .iter()
        .map(|&h| {
            VqaTask::with_computed_reference(
                format!("h={h}"),
                h,
                qchem::transverse_field_ising(3, 1.0, h),
            )
        })
        .collect();
    let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Circular).build();
    VqaApplication::new("pinned", tasks, ansatz, InitialState::Basis(0))
}

/// A forced root split half way through 30 iterations, history every 5 rounds.
pub fn pinned_config() -> TreeVqaConfig {
    TreeVqaConfig {
        max_cluster_iterations: 30,
        split_policy: SplitPolicy::ForcedSingle { at_fraction: 0.5 },
        record_every: 5,
        seed: 3,
        ..Default::default()
    }
}

/// The pinned run: [`pinned_application`] under [`pinned_config`].
pub fn pinned_treevqa() -> TreeVqa {
    TreeVqa::new(pinned_application(), pinned_config())
}

/// A fresh executor over the stochastic backend the pinned run uses: on it the job
/// streams derive from submission ids, so results repeat only if the controller submits
/// the same jobs in the same order.
pub fn pinned_executor() -> Executor {
    Executor::single(SampledBackend::with_policy(128, SeedPolicy::new(7)))
}
