//! # vqa — the VQA execution layer
//!
//! Sits between the simulators (`qsim`) and TreeVQA (`treevqa`):
//!
//! * [`VqaTask`] / [`VqaApplication`] — the paper's task/application terminology.
//! * [`Backend`] — one trait over all execution substrates (exact, shot-sampled,
//!   analytically noisy, trajectory-noisy, Pauli propagation), with explicit shot
//!   accounting and a batched submission form ([`Backend::evaluate_batch`] over
//!   [`EvalRequest`]s) that the dense backends implement with a compiled-circuit cache
//!   and a data-parallel scratch-state pool.
//! * [`NoisyStatevectorBackend`] — stochastic Pauli-trajectory noise simulation
//!   (`qnoise` channels replayed through the compiled batch engine) and [`ZneBackend`],
//!   the zero-noise-extrapolation mitigation wrapper any backend can opt into.
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
mod init;
pub mod metrics;
mod mitigation;
mod noisy;
mod runner;
mod task;

pub use backend::{
    batch_chunk, circuit_cache_capacity, circuit_cache_stats, observable_cache_stats,
    observable_dedup_stats, Backend, BackendCaps, EvalRequest, EvalResult, NoisyBackend,
    PauliPropagationBackend, SampledBackend, StatevectorBackend,
};
pub use init::{cafqa_initialize, red_qaoa_initial_point, CafqaResult};
pub use mitigation::{MitigationError, ZneBackend};
pub use noisy::NoisyStatevectorBackend;
pub use runner::{BaselineRunResult, IterationRecord, VqaRunConfig, VqaRunResult};
pub use task::{InitialState, VqaApplication, VqaTask};
