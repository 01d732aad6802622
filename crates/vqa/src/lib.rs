//! # vqa — the VQA execution layer
//!
//! Sits between the simulators (`qsim`) and TreeVQA (`treevqa`):
//!
//! * [`VqaTask`] / [`VqaApplication`] — the paper's task/application terminology.
//! * [`Backend`] — one trait over all execution substrates, with explicit shot
//!   accounting and a batched submission form ([`Backend::evaluate_batch`] over
//!   [`EvalRequest`]s).
//! * One dense driver, [`Dense`], behind four names that differ only in the readout
//!   stage ending its pipeline: [`StatevectorBackend`] (exact), [`SampledBackend`]
//!   (shot noise), and the two readouts of a `qnoise::PauliNoiseModel` —
//!   [`NoisyBackend`] (its analytic mean-field attenuation) and
//!   [`NoisyStatevectorBackend`] (stochastic Pauli-trajectory simulation of its
//!   channels).  The pipeline — compiled-circuit cache, one term-basis readout per
//!   state, a data-parallel scratch-state pool, batches split into runs of equal
//!   circuits — is described on [`Dense`].
//! * [`PauliPropagationBackend`] for registers too large for a dense state (its only
//!   noise is Section 8.4's per-layer depolarizing damping).
//! * [`VqaRunConfig`] / [`VqaRunResult`] / [`BaselineRunResult`] — plain-data run
//!   configuration and result records.  The drivers that produce them live in the
//!   `qexec` execution service (`qexec::run_single_vqa` / `qexec::run_baseline`), which
//!   owns backends behind an executor and accepts owned jobs — the `Backend` trait here
//!   is the low-level driver interface those backends implement.
//! * [`cafqa_initialize`] / [`red_qaoa_initial_point`] — classical warm starts.
//! * [`metrics`] — fidelity-vs-shots analysis shared by all experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod dense;
mod init;
pub mod metrics;
mod noisy;
mod runner;
mod task;

pub use backend::{
    batch_chunk, circuit_cache_capacity, circuit_cache_stats, observable_cache_stats,
    observable_dedup_stats, Backend, BackendCaps, EvalRequest, EvalResult, PauliPropagationBackend,
};
pub use dense::{Dense, NoisyBackend, SampledBackend, StatevectorBackend};
pub use init::{cafqa_initialize, red_qaoa_initial_point, CafqaResult};
pub use noisy::NoisyStatevectorBackend;
pub use runner::{BaselineRunResult, IterationRecord, VqaRunConfig, VqaRunResult};
pub use task::{InitialState, VqaApplication, VqaTask};
