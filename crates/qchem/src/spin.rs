//! Spin-chain physics benchmarks: the Heisenberg XXZ chain and the transverse-field Ising
//! model (paper Section 7.1, "Physics Benchmarks").
//!
//! Unlike the chemistry families these Hamiltonians are exact — no electronic-structure
//! input is needed.  A "task" is one value of the sweep parameter (the XXZ anisotropy `Δ`
//! or the transverse field `h`), matching how the paper builds its physics applications.

use qop::{Pauli, PauliOp, PauliString};

/// Builds the open-boundary Heisenberg XXZ chain
/// `H = J Σ_i (X_i X_{i+1} + Y_i Y_{i+1} + Δ · Z_i Z_{i+1})`.
///
/// # Panics
///
/// Panics if `num_sites < 2`.
///
/// # Examples
///
/// ```
/// use qchem::heisenberg_xxz;
/// let h = heisenberg_xxz(4, 1.0, 0.5);
/// assert_eq!(h.num_qubits(), 4);
/// assert_eq!(h.num_terms(), 9); // 3 bonds × 3 couplings
/// ```
pub fn heisenberg_xxz(num_sites: usize, j: f64, delta: f64) -> PauliOp {
    assert!(num_sites >= 2, "a chain needs at least two sites");
    let mut op = PauliOp::zero(num_sites);
    for i in 0..num_sites - 1 {
        for (pauli, weight) in [(Pauli::X, j), (Pauli::Y, j), (Pauli::Z, j * delta)] {
            op.add_term(
                PauliString::from_sparse(num_sites, &[(i, pauli), (i + 1, pauli)]),
                weight,
            );
        }
    }
    op
}

/// Builds the open-boundary transverse-field Ising chain
/// `H = −J Σ_i Z_i Z_{i+1} − h Σ_i X_i`.
///
/// # Panics
///
/// Panics if `num_sites < 2`.
pub fn transverse_field_ising(num_sites: usize, j: f64, h: f64) -> PauliOp {
    assert!(num_sites >= 2, "a chain needs at least two sites");
    let mut op = PauliOp::zero(num_sites);
    for i in 0..num_sites - 1 {
        op.add_term(
            PauliString::from_sparse(num_sites, &[(i, Pauli::Z), (i + 1, Pauli::Z)]),
            -j,
        );
    }
    for i in 0..num_sites {
        op.add_term(PauliString::single(num_sites, i, Pauli::X), -h);
    }
    op
}

/// Which spin model a family sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpinModel {
    /// Heisenberg XXZ chain; the sweep parameter is the anisotropy `Δ`.
    HeisenbergXxz {
        /// Exchange coupling `J` (the paper fixes `J = 1`).
        j: f64,
    },
    /// Transverse-field Ising chain; the sweep parameter is the field `h`.
    TransverseIsing {
        /// Ising coupling `J` (the paper fixes `J = 1`).
        j: f64,
    },
}

/// A family of spin-chain VQA tasks obtained by sweeping one model parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct SpinChainFamily {
    /// The model being swept.
    pub model: SpinModel,
    /// Number of lattice sites (= qubits).
    pub num_sites: usize,
    /// Lower end of the sweep-parameter range.
    pub param_min: f64,
    /// Upper end of the sweep-parameter range.
    pub param_max: f64,
}

impl SpinChainFamily {
    /// The paper's XXZ benchmark configuration at a reduced size (8 sites; sweep of the
    /// anisotropy across the BKT transition at Δ = 1).
    pub fn xxz_benchmark() -> Self {
        SpinChainFamily {
            model: SpinModel::HeisenbergXxz { j: 1.0 },
            num_sites: 8,
            param_min: 0.5,
            param_max: 1.5,
        }
    }

    /// The paper's transverse-field Ising benchmark at a reduced size (8 sites; sweep of
    /// the field across the quantum phase transition at h = J = 1).
    pub fn tfim_benchmark() -> Self {
        SpinChainFamily {
            model: SpinModel::TransverseIsing { j: 1.0 },
            num_sites: 8,
            param_min: 0.5,
            param_max: 1.5,
        }
    }

    /// The 25-site Ising chain used in the large-scale study (Section 8.4), simulated via
    /// Pauli propagation.
    pub fn large_ising_benchmark() -> Self {
        SpinChainFamily {
            model: SpinModel::TransverseIsing { j: 1.0 },
            num_sites: 25,
            param_min: 0.6,
            param_max: 1.4,
        }
    }

    /// Human-readable family name.
    pub fn name(&self) -> &'static str {
        match self.model {
            SpinModel::HeisenbergXxz { .. } => "XXZ",
            SpinModel::TransverseIsing { .. } => "TFIM",
        }
    }

    /// `count` evenly spaced sweep-parameter values.
    pub fn parameter_values(&self, count: usize) -> Vec<f64> {
        assert!(count >= 1);
        if count == 1 {
            return vec![0.5 * (self.param_min + self.param_max)];
        }
        (0..count)
            .map(|i| {
                self.param_min + (self.param_max - self.param_min) * i as f64 / (count - 1) as f64
            })
            .collect()
    }

    /// The Hamiltonian at one sweep-parameter value.
    pub fn hamiltonian(&self, param: f64) -> PauliOp {
        match self.model {
            SpinModel::HeisenbergXxz { j } => heisenberg_xxz(self.num_sites, j, param),
            SpinModel::TransverseIsing { j } => transverse_field_ising(self.num_sites, j, param),
        }
    }

    /// `(parameter, Hamiltonian)` pairs for `count` tasks.
    pub fn tasks(&self, count: usize) -> Vec<(f64, PauliOp)> {
        self.parameter_values(count)
            .into_iter()
            .map(|p| (p, self.hamiltonian(p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qop::{ground_energy, LanczosOptions};

    #[test]
    fn xxz_term_count_scales_with_bonds() {
        let h = heisenberg_xxz(6, 1.0, 0.7);
        assert_eq!(h.num_terms(), 5 * 3);
        assert_eq!(h.num_qubits(), 6);
    }

    #[test]
    fn tfim_term_count() {
        let h = transverse_field_ising(5, 1.0, 0.3);
        assert_eq!(h.num_terms(), 4 + 5);
    }

    #[test]
    fn tfim_limits_have_known_ground_energies() {
        let opts = LanczosOptions::default();
        // h = 0: classical ferromagnet, E0 = -J (N-1).
        let e_classical = ground_energy(&transverse_field_ising(6, 1.0, 0.0), &opts);
        assert!((e_classical + 5.0).abs() < 1e-6);
        // J = 0: free spins in a field, E0 = -h N.
        let e_free = ground_energy(&transverse_field_ising(6, 0.0, 0.7), &opts);
        assert!((e_free + 4.2).abs() < 1e-6);
    }

    #[test]
    fn xxz_ground_energy_decreases_with_delta() {
        // Larger antiferromagnetic anisotropy lowers the ground energy of the XXZ chain.
        let opts = LanczosOptions::default();
        let e_small = ground_energy(&heisenberg_xxz(6, 1.0, 0.2), &opts);
        let e_large = ground_energy(&heisenberg_xxz(6, 1.0, 1.5), &opts);
        assert!(e_large < e_small);
    }

    #[test]
    fn family_tasks_cover_the_sweep_range() {
        let fam = SpinChainFamily::tfim_benchmark();
        let tasks = fam.tasks(5);
        assert_eq!(tasks.len(), 5);
        assert!((tasks[0].0 - 0.5).abs() < 1e-12);
        assert!((tasks[4].0 - 1.5).abs() < 1e-12);
        assert_eq!(tasks[0].1.num_qubits(), 8);
        assert_eq!(fam.name(), "TFIM");
        assert_eq!(SpinChainFamily::xxz_benchmark().name(), "XXZ");
    }

    #[test]
    fn neighbouring_sweep_points_have_similar_hamiltonians() {
        let fam = SpinChainFamily::xxz_benchmark();
        let h_a = fam.hamiltonian(0.9);
        let h_b = fam.hamiltonian(0.95);
        let h_c = fam.hamiltonian(1.5);
        assert!(h_a.l1_distance(&h_b) < h_a.l1_distance(&h_c));
    }

    #[test]
    fn large_ising_is_25_sites() {
        let fam = SpinChainFamily::large_ising_benchmark();
        assert_eq!(fam.num_sites, 25);
        assert_eq!(fam.hamiltonian(1.0).num_qubits(), 25);
    }
}
