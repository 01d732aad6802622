//! # qsim — quantum-execution simulators for the TreeVQA reproduction
//!
//! Three simulators, mirroring the paper's simulation framework (Section 7.4):
//!
//! * [`run_circuit`] — exact dense statevector simulation (Qiskit Aer's
//!   `StatevectorSimulator` role).
//! * [`analytic_sampled_from_expectations`] — finite-shot estimation layered on the
//!   exact per-term values, beside a [`ShotLedger`] that implements the paper's shot-cost accounting.
//! * [`PauliPropagator`] — Heisenberg-picture Pauli propagation with weight truncation
//!   for large systems (the `PauliPropagation` role).
//!
//! Device noise is not modelled here: the `qnoise` crate owns the model, and this crate
//! keeps only the mechanics it binds to — a compiled circuit's [`NoiseSite`] table and
//! the [`PauliInsertion`]s replayed between its ops.
//!
//! ## One executor: the compile/execute split
//!
//! Circuit execution is two-phase: [`CompiledCircuit::compile`] lowers a
//! [`qcircuit::Circuit`] once — fusing runs of single-qubit gates into single 2×2
//! unitaries (parameterized rotations included) and batching runs of diagonal gates
//! (CZ, Z-string Pauli rotations — e.g. an entire QAOA cost layer) into one phase pass —
//! and records *parameter slots* instead of resolved angles.  Executing the compiled form
//! with a new parameter vector ([`CompiledCircuit::execute_in_place`] /
//! [`CompiledCircuit::execute_into`]) re-binds those slots in O(ops) without re-walking
//! the gate list, which is what lets one compiled circuit be amortized over a whole batch
//! of parameter vectors (see the `vqa` crate's dense driver).  Starting from a basis
//! state, [`CompiledCircuit::execute_from_basis`] writes the circuit's leading layer of
//! single-qubit chains directly instead of executing it, with the same bits.
//! [`CompiledCircuit`] is the crate's only circuit executor: [`run_circuit`] is a
//! one-shot convenience that compiles on the fly, and [`mod@reference`] is the
//! independent oracle the relational equivalence harness (`tests/src/relational.rs`)
//! holds it to.
//!
//! ## Performance and the parallelism threshold knob
//!
//! The dense gate kernels are branch-free, allocation-free and vectorized (see the
//! design notes on [`run_circuit`]'s module), and each is one serial pass over its state:
//! nothing in this crate spawns a thread.  The stack parallelizes **across** states
//! instead — `qop::par::map_states` hands whole executions of a batch to the threads
//! once the chunk holds at least [`parallel_threshold`] amplitudes in total (default
//! `2^14`; the `QSIM_PAR_THRESHOLD` environment variable overrides it, `0` = never
//! spawn).  A result's bits do not depend on the thread count.  Optimizer inner loops
//! should compile once and execute in place on a reused scratch state
//! ([`CompiledCircuit::execute_into`], or
//! [`CompiledCircuit::execute_in_place_with_insertions`] for pre-bound diagonal tables
//! and noise trajectories — what the `vqa` dense driver calls); [`run_circuit`]
//! compiles on *every* call, so it is for one-shot use.  The original
//! unoptimized kernels are kept in [`mod@reference`] as the correctness and speedup
//! baseline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod compiled;
mod estimator;
mod pauliprop;
mod shots;
mod simulator;

pub use compiled::{
    BatchTables, CompileStats, CompiledCircuit, NoiseSite, PauliInsertion, CX_GATHER_MIN_QUBITS,
    TILE_QUBITS,
};
pub use estimator::{analytic_sampled_from_expectations, exact_term_expectations};
pub use pauliprop::{PauliPropagator, PauliPropagatorConfig};
pub use shots::{ShotLedger, DEFAULT_SHOTS_PER_PAULI};
pub use simulator::{
    apply_cx, apply_cz, apply_gate, apply_pauli_rotation, apply_pauli_string, apply_single_qubit,
    parallel_threshold, reference, run_circuit, rx_matrix, ry_matrix, rz_matrix, Matrix2,
};
