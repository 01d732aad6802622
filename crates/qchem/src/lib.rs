//! # qchem — chemistry and physics workload generators
//!
//! Provides the task Hamiltonians for every VQE benchmark in the paper's evaluation
//! (Table 1 and Section 7.1):
//!
//! * [`MoleculeSpec`] — synthetic molecular Hamiltonian families (H₂, LiH, BeH₂, HF,
//!   C₂H₂) whose coefficients vary smoothly with bond length; the substitution for
//!   PySCF/Qiskit-Nature electronic-structure input (rationale in the `molecule`
//!   module docs).
//! * [`heisenberg_xxz`] / [`transverse_field_ising`] / [`SpinChainFamily`] — exact
//!   spin-chain models, including the 25-site Ising chain of the large-scale study.
//!
//! A VQA *application* in the paper is a family of such Hamiltonians (one per geometry or
//! sweep point); the `tasks(count)` methods return exactly that.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod molecule;
mod spin;

pub use molecule::MoleculeSpec;
pub use spin::{heisenberg_xxz, transverse_field_ising, SpinChainFamily, SpinModel};
