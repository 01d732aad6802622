//! VQA tasks and applications.
//!
//! Terminology follows the paper's Figure 1: a *VQA task* is one Hamiltonian to be solved
//! for its ground state (one molecular geometry, one sweep point, one MaxCut instance); a
//! *VQA application* is a family of such tasks whose solutions jointly form the
//! application's solution landscape (a potential-energy surface, a phase diagram, a family
//! of grid-partitioning problems).

use qcircuit::Circuit;
use qop::{ground_energy, LanczosOptions, PauliOp, Statevector};

/// How the reference (initial) quantum state of the ansatz is prepared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialState {
    /// A computational basis state (e.g. the Hartree–Fock determinant).
    Basis(u64),
    /// The uniform superposition `|+…+⟩` (prepared by the simulator, not by circuit gates).
    UniformSuperposition,
}

impl InitialState {
    /// Materializes the initial state on `num_qubits` qubits (dense backends only).
    pub fn prepare(&self, num_qubits: usize) -> Statevector {
        match *self {
            InitialState::Basis(b) => Statevector::basis_state(num_qubits, b),
            InitialState::UniformSuperposition => Statevector::uniform_superposition(num_qubits),
        }
    }

    /// Re-prepares the initial state into an existing vector of the right register size,
    /// allocation-free (the optimizer-inner-loop counterpart of [`InitialState::prepare`]).
    ///
    /// # Panics
    ///
    /// Panics if a basis index is out of range for the vector's register.
    pub fn prepare_into(&self, state: &mut Statevector) {
        match *self {
            InitialState::Basis(b) => state.set_basis_state(b),
            InitialState::UniformSuperposition => state.set_uniform_superposition(),
        }
    }

    /// The basis index if this is a basis state (Pauli-propagation backends can only start
    /// from product basis states).
    pub fn basis_index(&self) -> Option<u64> {
        match *self {
            InitialState::Basis(b) => Some(b),
            InitialState::UniformSuperposition => None,
        }
    }
}

/// One VQA task: a Hamiltonian plus bookkeeping metadata.
#[derive(Clone, Debug)]
pub struct VqaTask {
    /// Human-readable label, e.g. `"LiH @ 1.43 Å"`.
    pub label: String,
    /// The scalar sweep parameter that generated this task (bond length, field, load
    /// scale); used for reporting only.
    pub parameter: f64,
    /// The task Hamiltonian.
    pub hamiltonian: PauliOp,
    /// The exact ground-state energy, if known (used for fidelity metrics).
    pub reference_energy: Option<f64>,
}

impl VqaTask {
    /// Creates a task without a reference energy.
    pub fn new(label: impl Into<String>, parameter: f64, hamiltonian: PauliOp) -> Self {
        VqaTask {
            label: label.into(),
            parameter,
            hamiltonian,
            reference_energy: None,
        }
    }

    /// Creates a task and computes its exact reference energy with [`ground_energy`]: an
    /// exact scan of the diagonal for a diagonal Hamiltonian (MaxCut costs), Lanczos for
    /// any other (only sensible for dense-simulable register sizes).
    pub fn with_computed_reference(
        label: impl Into<String>,
        parameter: f64,
        hamiltonian: PauliOp,
    ) -> Self {
        let reference = ground_energy(&hamiltonian, &LanczosOptions::default());
        VqaTask {
            label: label.into(),
            parameter,
            hamiltonian,
            reference_energy: Some(reference),
        }
    }

    /// The relative error `|E_gs − E| / |E_gs|` of an achieved energy (paper Section 7.2).
    ///
    /// Returns `None` if no reference energy is available.
    pub fn relative_error(&self, energy: f64) -> Option<f64> {
        self.reference_energy.map(|gs| {
            let denom = gs.abs().max(1e-12);
            (gs - energy).abs() / denom
        })
    }

    /// The fidelity `F = 1 − ε` of an achieved energy (paper Section 7.2), clamped to
    /// `[0, 1]`.
    pub fn fidelity(&self, energy: f64) -> Option<f64> {
        self.relative_error(energy)
            .map(|e| (1.0 - e).clamp(0.0, 1.0))
    }
}

/// A VQA application: a family of related tasks sharing one ansatz and one initial state.
#[derive(Clone, Debug)]
pub struct VqaApplication {
    /// Application name (used in experiment reports).
    pub name: String,
    /// The member tasks.
    pub tasks: Vec<VqaTask>,
    /// The shared parameterized ansatz circuit.
    pub ansatz: Circuit,
    /// The shared reference state the ansatz is applied to.
    pub initial_state: InitialState,
}

impl VqaApplication {
    /// Creates an application.
    ///
    /// # Panics
    ///
    /// Panics if there are no tasks, or if any task's register size differs from the
    /// ansatz register size.
    pub fn new(
        name: impl Into<String>,
        tasks: Vec<VqaTask>,
        ansatz: Circuit,
        initial_state: InitialState,
    ) -> Self {
        assert!(!tasks.is_empty(), "an application needs at least one task");
        for t in &tasks {
            assert_eq!(
                t.hamiltonian.num_qubits(),
                ansatz.num_qubits(),
                "task '{}' register size does not match the ansatz",
                t.label
            );
        }
        VqaApplication {
            name: name.into(),
            tasks,
            ansatz,
            initial_state,
        }
    }

    /// Number of qubits of the shared register.
    pub fn num_qubits(&self) -> usize {
        self.ansatz.num_qubits()
    }

    /// Number of member tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of ansatz parameters.
    pub fn num_parameters(&self) -> usize {
        self.ansatz.num_parameters()
    }

    /// Computes (with [`ground_energy`]: a diagonal scan or Lanczos, see
    /// [`VqaTask::with_computed_reference`]) and stores the reference energy of every task
    /// that does not have one yet.  Only call this for dense-simulable register sizes.
    pub fn compute_references(&mut self) {
        let opts = LanczosOptions::default();
        for task in &mut self.tasks {
            if task.reference_energy.is_none() {
                task.reference_energy = Some(ground_energy(&task.hamiltonian, &opts));
            }
        }
    }

    /// The minimum fidelity across all tasks for a vector of achieved energies (the
    /// paper's aggregate acceptance test: every task must meet the threshold).
    ///
    /// Returns `None` if any task lacks a reference energy.
    ///
    /// # Panics
    ///
    /// Panics if `energies.len() != num_tasks()`.
    pub fn min_fidelity(&self, energies: &[f64]) -> Option<f64> {
        assert_eq!(
            energies.len(),
            self.tasks.len(),
            "one energy per task required"
        );
        self.tasks
            .iter()
            .zip(energies)
            .map(|(t, &e)| t.fidelity(e))
            .try_fold(f64::INFINITY, |acc, f| f.map(|v| acc.min(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Entanglement, HardwareEfficientAnsatz};

    fn tiny_task(label: &str, shift: f64) -> VqaTask {
        let h = PauliOp::from_labels(2, &[("ZZ", -1.0), ("XI", shift)]);
        VqaTask::with_computed_reference(label, shift, h)
    }

    #[test]
    fn fidelity_is_one_at_the_reference_energy() {
        let t = tiny_task("t", -0.3);
        let gs = t.reference_energy.unwrap();
        assert!((t.fidelity(gs).unwrap() - 1.0).abs() < 1e-12);
        assert!(t.fidelity(gs + 0.1).unwrap() < 1.0);
        assert!(t.relative_error(gs).unwrap() < 1e-12);
    }

    #[test]
    fn fidelity_clamps_to_unit_interval() {
        let t = tiny_task("t", -0.3);
        assert_eq!(t.fidelity(1e6), Some(0.0));
    }

    #[test]
    fn missing_reference_gives_none() {
        let h = PauliOp::from_labels(1, &[("Z", 1.0)]);
        let t = VqaTask::new("no-ref", 0.0, h);
        assert!(t.fidelity(0.0).is_none());
        assert!(t.relative_error(0.0).is_none());
    }

    #[test]
    fn application_validates_register_sizes() {
        let ansatz = HardwareEfficientAnsatz::new(2, 1, Entanglement::Linear).build();
        let app = VqaApplication::new(
            "demo",
            vec![tiny_task("a", 0.1), tiny_task("b", 0.2)],
            ansatz,
            InitialState::Basis(0),
        );
        assert_eq!(app.num_tasks(), 2);
        assert_eq!(app.num_qubits(), 2);
        assert!(app.num_parameters() > 0);
    }

    #[test]
    #[should_panic]
    fn mismatched_register_size_panics() {
        let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build();
        let _ = VqaApplication::new(
            "bad",
            vec![tiny_task("a", 0.1)],
            ansatz,
            InitialState::Basis(0),
        );
    }

    #[test]
    fn min_fidelity_takes_the_worst_task() {
        let ansatz = HardwareEfficientAnsatz::new(2, 1, Entanglement::Linear).build();
        let app = VqaApplication::new(
            "demo",
            vec![tiny_task("a", 0.1), tiny_task("b", 0.4)],
            ansatz,
            InitialState::Basis(0),
        );
        let refs: Vec<f64> = app
            .tasks
            .iter()
            .map(|t| t.reference_energy.unwrap())
            .collect();
        // First task exactly solved, second off by a lot.
        let fid = app.min_fidelity(&[refs[0], refs[1] + 1.0]).unwrap();
        assert!(fid < 0.9);
        let perfect = app.min_fidelity(&refs).unwrap();
        assert!((perfect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn initial_state_preparation() {
        let b = InitialState::Basis(0b10).prepare(2);
        assert!((b.probability(0b10) - 1.0).abs() < 1e-12);
        let u = InitialState::UniformSuperposition.prepare(2);
        assert!((u.probability(0b11) - 0.25).abs() < 1e-12);
        assert_eq!(InitialState::Basis(3).basis_index(), Some(3));
        assert_eq!(InitialState::UniformSuperposition.basis_index(), None);
    }

    #[test]
    fn compute_references_fills_missing() {
        let ansatz = HardwareEfficientAnsatz::new(2, 1, Entanglement::Linear).build();
        let h = PauliOp::from_labels(2, &[("ZZ", -1.0)]);
        let mut app = VqaApplication::new(
            "demo",
            vec![VqaTask::new("a", 0.0, h)],
            ansatz,
            InitialState::Basis(0),
        );
        assert!(app.tasks[0].reference_energy.is_none());
        app.compute_references();
        assert!((app.tasks[0].reference_energy.unwrap() + 1.0).abs() < 1e-8);
    }
}
