//! # qnoise — the device-noise model and its two readouts
//!
//! This crate owns the workspace's one description of device noise, [`PauliNoiseModel`]:
//! per-gate Pauli error channels plus readout bit flips, charged at the
//! [`qsim::NoiseSite`]s a [`qsim::CompiledCircuit`] records.  A model is read two ways
//! over that one site list:
//!
//! * **by trajectories** ([`TrajectorySampler`]) — stochastic trajectory sampling on the
//!   statevector, never a density matrix.  Each trajectory is a seeded random Pauli
//!   insertion stream replayed through the compiled circuit, so the
//!   compile-once/bind-many split is reused verbatim and K trajectories of one parameter
//!   binding become one `vqa::Backend::evaluate_batch`-shaped workload that
//!   data-parallelizes across scratch states (`vqa::NoisyStatevectorBackend`); the
//!   trajectory mean is an unbiased estimate of the density-matrix expectation;
//! * **analytically** ([`PauliNoiseModel::mean_field_attenuation`]) — one factor per
//!   Pauli-term weight from the channels' closed-form attenuations, spread evenly over
//!   the register.  One ideal execution per evaluation and a *deterministic* noisy
//!   landscape, which is what the paper's device study (Section 8.7, Table 2; the
//!   calibrations are [`PauliNoiseModel::synthetic_backends`]) needs from a stand-in for
//!   a density-matrix simulator (`vqa::NoisyBackend`).
//!
//! ## The pieces
//!
//! * [`PauliNoiseModel`] / [`PauliChannel`] — per-gate channels: depolarizing (1q and
//!   k-qubit uniform for entangling gates), dephasing, Pauli-twirled amplitude damping,
//!   plus a readout bit-flip model applied as per-term expectation attenuation.
//! * [`TrajectorySampler`] — binds a model to a compiled circuit's
//!   [`qsim::NoiseSite`] table once, then samples per-trajectory
//!   [`qsim::PauliInsertion`] schedules with no re-walk of the gate list.
//!
//! ## Seeding contract
//!
//! Trajectory `i` of stream seed `s` is fully determined by `(s, i)` — independent of
//! batch size and of which other trajectories are sampled: every trajectory draws from its own RNG seeded with
//! [`trajectory_seed`]`(s, i)`.  The draw stream *within* a trajectory consumes one
//! uniform per nonzero channel per noise site, in site order, so a schedule is also
//! independent of how many errors actually fire.  Changing the noise model (adding or
//! zeroing channels) changes the stream; changing only the parameter vector does not,
//! because insertion schedules never depend on `θ`.
//!
//! ## Knobs
//!
//! The trajectory count defaults to the `QNOISE_TRAJECTORIES` environment variable
//! (read once per process, default [`DEFAULT_TRAJECTORIES`]); see the workspace README's
//! "Tuning" section for how it interacts with `QSIM_PAR_THRESHOLD`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod model;
mod trajectory;

pub use model::{
    readout_attenuation, uniform_depolarizing_attenuation, PauliChannel, PauliNoiseModel,
};
pub use trajectory::{trajectory_seed, TrajectorySampler};

/// Default trajectory count when `QNOISE_TRAJECTORIES` is unset.
pub const DEFAULT_TRAJECTORIES: usize = 64;

/// The process-wide default trajectory count: the `QNOISE_TRAJECTORIES` environment
/// variable (read once, minimum 1), falling back to [`DEFAULT_TRAJECTORIES`].
pub fn default_trajectories() -> usize {
    use std::sync::OnceLock;
    static TRAJ: OnceLock<usize> = OnceLock::new();
    *TRAJ.get_or_init(|| {
        std::env::var("QNOISE_TRAJECTORIES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_TRAJECTORIES)
    })
}
