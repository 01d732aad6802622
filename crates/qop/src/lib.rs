//! # qop — Pauli-operator algebra for the TreeVQA reproduction
//!
//! This crate is the numerical foundation of the workspace: complex arithmetic,
//! single-qubit Paulis, n-qubit [`PauliString`]s in symplectic representation, weighted
//! Pauli sums ([`PauliOp`], the Hamiltonian type), dense [`Statevector`] storage,
//! and exact ground energies (a diagonal scan for `I`/`Z`-only operators, a matrix-free
//! Lanczos solver for the rest).
//!
//! It replaces the roles played by Qiskit's `SparsePauliOp`/`Statevector` and SciPy's
//! sparse eigensolvers in the paper's original evaluation stack.
//!
//! ## Quick example
//!
//! ```
//! use qop::{ground_energy, LanczosOptions, PauliOp, Statevector};
//!
//! // A 2-qubit transverse-field Ising Hamiltonian.
//! let h = PauliOp::from_labels(2, &[("ZZ", -1.0), ("XI", -0.3), ("IX", -0.3)]);
//! let e0 = ground_energy(&h, &LanczosOptions::default());
//! assert!(e0 < -1.0);
//!
//! // Expectation value in the |00> state.
//! let psi = Statevector::zero_state(2);
//! assert!((h.expectation(&psi) + 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod basis;
mod complex;
mod lanczos;
pub mod lanes;
mod op;
#[doc(hidden)]
pub mod par;
mod pauli;
mod statevector;

pub use basis::{BasisTerm, TermBasis};
pub use complex::Complex64;
pub use lanczos::{ground_energy, ground_state, GroundState, LanczosOptions};
pub use op::{PauliOp, PauliTerm};
pub use par::parallel_threshold;
pub use pauli::{Pauli, PauliString};
pub use statevector::Statevector;
