//! # treevqa — the TreeVQA tree-structured execution framework
//!
//! This crate is the reproduction of the paper's primary contribution: a plug-and-play
//! wrapper that executes a family of related VQA tasks as a tree of jointly optimized
//! clusters, branching only as tasks diverge, and thereby cutting total execution shots by
//! large factors at equal fidelity.
//!
//! * [`TreeVqa`] — the central controller (Algorithm 1): owns the execution tree, steps
//!   clusters, performs spectral-clustering splits, enforces the shot budget, and
//!   post-processes the final states.  It is a plain [`qexec::JobSubmitter`] client —
//!   every round phase is one job group through `qexec::run_phase` — so the same run
//!   drives an in-process executor ([`TreeVqa::run`]) or a remote one
//!   ([`TreeVqa::run_on`] with a `qnet::NetClient`) with identical results.
//! * [`VqaCluster`] — the per-cluster optimization unit (Algorithm 2): mixed-Hamiltonian
//!   construction, shared-parameter optimization, sliding-window slope monitoring.
//! * [`TreeVqaConfig`] / [`SplitPolicy`] — hyperparameters, including the forced-split and
//!   never-split modes used by the paper's sensitivity studies (Figures 13–14).
//! * [`ExecutionTree`] — tree bookkeeping, including the *Tree Critical Depth* metric.
//!
//! See the crate-level example on [`TreeVqa`] for an end-to-end run, and the `treevqa-bench`
//! crate for the full experiment harness that regenerates every table and figure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
mod config;
mod controller;
mod monitor;
mod tree;

pub use cluster::{StepOutcome, VqaCluster};
pub use config::{ConfigError, SplitPolicy, TreeVqaConfig};
pub use controller::{TreeVqa, TreeVqaRecord, TreeVqaResult, TreeVqaTaskOutcome};
pub use monitor::SlopeMonitor;
pub use tree::{ExecutionTree, TreeNode};
