//! Synthetic molecular Hamiltonian families.
//!
//! The paper derives its chemistry benchmarks (H₂, LiH, BeH₂, HF, C₂H₂) from
//! PySCF/Qiskit-Nature electronic-structure integrals in the STO-3G basis.  Reproducing a
//! quantum-chemistry package is out of scope, so this module implements a
//! substitution: a deterministic generator that, for each molecule,
//! produces a **fixed Pauli-term structure** whose coefficients vary **smoothly with the
//! bond length**, with the identity coefficient following a Morse-like dissociation curve
//! anchored at the paper's equilibrium geometry.
//!
//! The property TreeVQA exploits — neighbouring geometries have small ℓ1 coefficient
//! distance and therefore strongly overlapping ground states (paper Section 3) — is
//! preserved by construction, which is what matters for reproducing the branching
//! behaviour and the shot-reduction trends.  Qubit counts are scaled down relative to the
//! paper so exact reference ground states stay cheap (see [`MoleculeSpec`]'s
//! constructors for the sizes used).

use qop::{Pauli, PauliOp, PauliString};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a molecular benchmark family.
#[derive(Clone, Debug, PartialEq)]
pub struct MoleculeSpec {
    /// Molecule name (e.g. `"LiH"`).
    pub name: String,
    /// Number of qubits (spin orbitals after reduction) in this reproduction.
    pub num_qubits: usize,
    /// Number of electrons occupying the lowest spin orbitals in the Hartree–Fock state.
    pub num_electrons: usize,
    /// Target number of Pauli terms in the generated Hamiltonian.
    pub num_terms: usize,
    /// Equilibrium bond length in Ångström (paper Table 1).
    pub equilibrium_bond: f64,
    /// Lower end of the benchmark bond-length range (Å).
    pub bond_min: f64,
    /// Upper end of the benchmark bond-length range (Å).
    pub bond_max: f64,
    /// Overall energy scale (Hartree-like units) of the non-identity terms.
    pub coupling_scale: f64,
    /// Dissociation-well depth of the Morse-like identity-coefficient curve.
    pub well_depth: f64,
    /// Seed controlling the per-term coefficient functions (fixed per molecule so that
    /// every run regenerates the identical family).
    pub seed: u64,
}

impl MoleculeSpec {
    /// H₂ in a 4-qubit Jordan–Wigner encoding (15 Pauli terms, as in paper Table 1).
    pub fn h2() -> Self {
        MoleculeSpec {
            name: "H2".to_string(),
            num_qubits: 4,
            num_electrons: 2,
            num_terms: 15,
            equilibrium_bond: 0.741,
            bond_min: 0.74,
            bond_max: 0.83,
            coupling_scale: 0.18,
            well_depth: 0.35,
            seed: 0x4832,
        }
    }

    /// LiH, scaled from 12 to 6 qubits.
    pub fn lih() -> Self {
        MoleculeSpec {
            name: "LiH".to_string(),
            num_qubits: 6,
            num_electrons: 2,
            num_terms: 62,
            equilibrium_bond: 1.595,
            bond_min: 1.4,
            bond_max: 1.7,
            coupling_scale: 0.12,
            well_depth: 0.25,
            seed: 0x4C69,
        }
    }

    /// BeH₂, scaled from 14 to 8 qubits.
    pub fn beh2() -> Self {
        MoleculeSpec {
            name: "BeH2".to_string(),
            num_qubits: 8,
            num_electrons: 4,
            num_terms: 98,
            equilibrium_bond: 1.333,
            bond_min: 1.2,
            bond_max: 1.47,
            coupling_scale: 0.11,
            well_depth: 0.3,
            seed: 0x4265,
        }
    }

    /// HF (hydrogen fluoride), scaled from 12 to 8 qubits.
    pub fn hf() -> Self {
        MoleculeSpec {
            name: "HF".to_string(),
            num_qubits: 8,
            num_electrons: 4,
            num_terms: 78,
            equilibrium_bond: 0.917,
            bond_min: 0.83,
            bond_max: 1.1,
            coupling_scale: 0.13,
            well_depth: 0.32,
            seed: 0x4846,
        }
    }

    /// C₂H₂ (acetylene), scaled from 28 to 16 qubits; used with the Pauli-propagation
    /// backend in the large-scale study.
    pub fn c2h2() -> Self {
        MoleculeSpec {
            name: "C2H2".to_string(),
            num_qubits: 16,
            num_electrons: 6,
            num_terms: 300,
            equilibrium_bond: 1.2,
            bond_min: 1.15,
            bond_max: 1.25,
            coupling_scale: 0.08,
            well_depth: 0.4,
            seed: 0xC2A2,
        }
    }

    /// The five chemistry benchmarks of paper Table 1, in the paper's order.
    pub fn all_benchmarks() -> Vec<MoleculeSpec> {
        vec![
            Self::h2(),
            Self::lih(),
            Self::beh2(),
            Self::hf(),
            Self::c2h2(),
        ]
    }

    /// Looks up a benchmark by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<MoleculeSpec> {
        Self::all_benchmarks()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// The Hartree–Fock reference bitstring: the lowest `num_electrons` orbitals occupied.
    pub fn hartree_fock_state(&self) -> u64 {
        (0..self.num_electrons).fold(0u64, |acc, q| acc | (1u64 << q))
    }

    /// `count` equally spaced bond lengths covering `[bond_min, bond_max]`.
    pub fn bond_lengths(&self, count: usize) -> Vec<f64> {
        assert!(count >= 1);
        if count == 1 {
            return vec![self.equilibrium_bond];
        }
        (0..count)
            .map(|i| {
                self.bond_min + (self.bond_max - self.bond_min) * i as f64 / (count - 1) as f64
            })
            .collect()
    }

    /// Bond lengths covering the full range with a fixed step (the "precision" axis of the
    /// paper's Figure 8: smaller step → more tasks).
    pub fn bond_lengths_with_step(&self, step: f64) -> Vec<f64> {
        assert!(step > 0.0, "step must be positive");
        let mut v = Vec::new();
        let mut r = self.bond_min;
        while r <= self.bond_max + 1e-9 {
            v.push(r);
            r += step;
        }
        v
    }

    /// The fixed Pauli-term structure of this molecule's qubit Hamiltonian.
    ///
    /// The structure is generated once per molecule (independent of bond length): identity,
    /// all single-Z, all ZZ pairs, then XX+YY hopping pairs and a deterministic selection
    /// of higher-weight exchange strings until `num_terms` is reached.
    pub fn term_structure(&self) -> Vec<PauliString> {
        let n = self.num_qubits;
        let mut terms: Vec<PauliString> = Vec::with_capacity(self.num_terms);
        terms.push(PauliString::identity(n));
        for q in 0..n {
            terms.push(PauliString::single(n, q, Pauli::Z));
        }
        'outer: for i in 0..n {
            for j in i + 1..n {
                if terms.len() >= self.num_terms {
                    break 'outer;
                }
                terms.push(PauliString::from_sparse(n, &[(i, Pauli::Z), (j, Pauli::Z)]));
            }
        }
        // Hopping terms XX and YY on nearest and next-nearest pairs.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut offset = 1usize;
        while terms.len() < self.num_terms && offset < n {
            for i in 0..n - offset {
                if terms.len() >= self.num_terms {
                    break;
                }
                let j = i + offset;
                terms.push(PauliString::from_sparse(n, &[(i, Pauli::X), (j, Pauli::X)]));
                if terms.len() >= self.num_terms {
                    break;
                }
                terms.push(PauliString::from_sparse(n, &[(i, Pauli::Y), (j, Pauli::Y)]));
            }
            offset += 1;
        }
        // Exchange (double-excitation-like) strings of weight 4 to fill the remainder.
        while terms.len() < self.num_terms {
            let mut qubits: Vec<usize> = (0..n).collect();
            for k in (1..qubits.len()).rev() {
                let swap_with = rng.random_range(0..=k);
                qubits.swap(k, swap_with);
            }
            let pattern = [Pauli::X, Pauli::X, Pauli::Y, Pauli::Y];
            let pairs: Vec<(usize, Pauli)> = qubits
                .iter()
                .take(4)
                .zip(pattern.iter())
                .map(|(&q, &p)| (q, p))
                .collect();
            let candidate = PauliString::from_sparse(n, &pairs);
            if !terms.contains(&candidate) {
                terms.push(candidate);
            }
        }
        terms
    }

    /// The qubit Hamiltonian of this molecule at bond length `bond` (Å).
    ///
    /// Coefficients are smooth functions of `bond`; the identity coefficient traces a
    /// Morse-like dissociation curve with its minimum at [`MoleculeSpec::equilibrium_bond`].
    ///
    /// # Panics
    ///
    /// Panics if `bond` is not positive.
    pub fn hamiltonian(&self, bond: f64) -> PauliOp {
        assert!(bond > 0.0, "bond length must be positive");
        let structure = self.term_structure();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E3779B97F4A7C15);
        let re = self.equilibrium_bond;
        // Dimensionless stretch coordinate.
        let s = (bond - re) / re;

        let mut op = PauliOp::zero(self.num_qubits);
        for (k, string) in structure.iter().enumerate() {
            // Per-term static draws (same for every bond length because the RNG stream is
            // consumed in a fixed order).
            let base: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let slope: f64 = rng.random::<f64>() * 0.8 - 0.4;
            let curvature: f64 = rng.random::<f64>() * 0.4 - 0.2;
            let decay: f64 = 0.5 + rng.random::<f64>();

            let coefficient = if string.is_identity() {
                // Morse-like curve: E(re) = offset − well_depth, rising toward dissociation.
                let morse = 2.0 * self.well_depth * (1.0 - (-decay * (bond - re)).exp()).powi(2);
                -(self.num_electrons as f64) * 0.25 - self.well_depth + morse
            } else {
                // Category scaling, mirroring real molecular Hamiltonians: the single-Z
                // (orbital-energy) part is signed so that the Hartree–Fock determinant is
                // the diagonal optimum, the ZZ part is a smaller density–density
                // correction, and the off-diagonal exchange terms carry the "correlation
                // energy" that the VQE recovers by smooth rotations away from the
                // reference.  This gives a realistic convergence trajectory: the HF start
                // is good but not exact, and the remaining gap is reachable without
                // crossing energy barriers.
                let has_xy = string.x_mask() != 0;
                let (category_scale, sign) = if has_xy {
                    (0.5, if base >= 0.0 { 1.0 } else { -1.0 })
                } else if string.weight() == 1 {
                    // Single Z on qubit q: occupied orbitals favour |1⟩ (positive
                    // coefficient), virtual orbitals favour |0⟩ (negative coefficient).
                    let qubit = string
                        .iter_non_identity()
                        .next()
                        .map(|(q, _)| q)
                        .unwrap_or(0);
                    let sign = if qubit < self.num_electrons {
                        1.0
                    } else {
                        -1.0
                    };
                    (1.0, sign)
                } else {
                    (0.25, if base >= 0.0 { 1.0 } else { -1.0 })
                };
                let magnitude = self.coupling_scale * category_scale * (0.4 + 0.6 * base.abs());
                sign * magnitude * (1.0 + slope * s + curvature * s * s)
            };
            // k only orders the stream; the value is already term-specific.
            let _ = k;
            op.add_term(*string, coefficient);
        }
        op.simplify(0.0);
        op
    }

    /// Convenience: the Hamiltonians for `count` evenly spaced bond lengths, returned as
    /// `(bond_length, Hamiltonian)` pairs — one VQA task each.
    pub fn tasks(&self, count: usize) -> Vec<(f64, PauliOp)> {
        self.bond_lengths(count)
            .into_iter()
            .map(|b| (b, self.hamiltonian(b)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qop::{ground_energy, LanczosOptions};

    #[test]
    fn table1_characteristics_match_scaled_spec() {
        let h2 = MoleculeSpec::h2();
        assert_eq!(h2.num_qubits, 4);
        assert_eq!(h2.hamiltonian(0.741).num_terms(), 15);
        assert!((h2.equilibrium_bond - 0.741).abs() < 1e-12);

        for spec in MoleculeSpec::all_benchmarks() {
            let h = spec.hamiltonian(spec.equilibrium_bond);
            assert_eq!(h.num_qubits(), spec.num_qubits, "{}", spec.name);
            assert_eq!(h.num_terms(), spec.num_terms, "{}", spec.name);
            assert!(spec.bond_min < spec.equilibrium_bond + 1.0);
            assert!(spec.bond_min < spec.bond_max);
        }
    }

    #[test]
    fn hamiltonian_is_deterministic() {
        let a = MoleculeSpec::lih().hamiltonian(1.5);
        let b = MoleculeSpec::lih().hamiltonian(1.5);
        assert_eq!(a, b);
    }

    #[test]
    fn coefficients_vary_smoothly_with_bond_length() {
        let spec = MoleculeSpec::lih();
        let h_a = spec.hamiltonian(1.50);
        let h_b = spec.hamiltonian(1.51);
        let h_c = spec.hamiltonian(1.70);
        let near = h_a.l1_distance(&h_b);
        let far = h_a.l1_distance(&h_c);
        assert!(
            near < far,
            "nearby bonds must be closer in l1: {near} vs {far}"
        );
        assert!(
            near < 0.2,
            "0.01 Å step should move coefficients only slightly: {near}"
        );
    }

    #[test]
    fn ground_states_of_neighbouring_bonds_overlap_strongly() {
        let spec = MoleculeSpec::h2();
        let opts = LanczosOptions::default();
        let gs_a = qop::ground_state(&spec.hamiltonian(0.74), &opts);
        let gs_b = qop::ground_state(&spec.hamiltonian(0.77), &opts);
        let overlap = gs_a.state.overlap(&gs_b.state);
        assert!(
            overlap > 0.9,
            "adiabatic continuity violated: overlap {overlap}"
        );
    }

    #[test]
    fn energy_curve_has_minimum_near_equilibrium() {
        let spec = MoleculeSpec::hf();
        let opts = LanczosOptions {
            max_iterations: 80,
            ..Default::default()
        };
        let e_eq = ground_energy(&spec.hamiltonian(spec.equilibrium_bond), &opts);
        let e_stretch = ground_energy(&spec.hamiltonian(spec.bond_max + 0.6), &opts);
        assert!(
            e_eq < e_stretch,
            "stretched geometry should be higher in energy: {e_eq} vs {e_stretch}"
        );
    }

    #[test]
    fn bond_length_grids() {
        let spec = MoleculeSpec::beh2();
        let ten = spec.bond_lengths(10);
        assert_eq!(ten.len(), 10);
        assert!((ten[0] - spec.bond_min).abs() < 1e-12);
        assert!((ten[9] - spec.bond_max).abs() < 1e-12);
        let stepped = spec.bond_lengths_with_step(0.03);
        assert!(stepped.len() >= 9);
        assert!(stepped
            .windows(2)
            .all(|w| (w[1] - w[0] - 0.03).abs() < 1e-9));
        assert_eq!(spec.bond_lengths(1), vec![spec.equilibrium_bond]);
    }

    #[test]
    fn hartree_fock_bitstring_occupies_lowest_orbitals() {
        assert_eq!(MoleculeSpec::h2().hartree_fock_state(), 0b0011);
        assert_eq!(MoleculeSpec::beh2().hartree_fock_state(), 0b0000_1111);
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(MoleculeSpec::by_name("lih"), Some(MoleculeSpec::lih()));
        assert!(MoleculeSpec::by_name("H2O").is_none());
    }

    #[test]
    fn tasks_pair_bonds_with_hamiltonians() {
        let spec = MoleculeSpec::h2();
        let tasks = spec.tasks(5);
        assert_eq!(tasks.len(), 5);
        for (bond, ham) in &tasks {
            assert_eq!(*ham, spec.hamiltonian(*bond));
        }
    }
}
