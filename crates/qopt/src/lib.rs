//! # qopt — classical optimizers for variational quantum algorithms
//!
//! The paper's evaluations use SPSA (default) and COBYLA (optimizer-agnosticism study,
//! Section 8.6, and the noisy study, Section 8.7).  This crate provides both behind a
//! single step-wise [`Optimizer`] trait so the VQA loop (and TreeVQA's controller) can
//! monitor the loss after *every* iteration — which is exactly what the sliding-window
//! split monitor needs.
//!
//! ```
//! use qopt::{Optimizer, Spsa, SpsaConfig};
//!
//! // Minimize a quadratic: SPSA should walk toward the minimum at 1.0.
//! let mut spsa = Spsa::new(SpsaConfig { a: 0.3, ..Default::default() }, 42);
//! let mut params = vec![0.0];
//! let mut objective = |p: &[f64]| (p[0] - 1.0).powi(2);
//! for _ in 0..200 {
//!     spsa.step(&mut params, &mut objective);
//! }
//! assert!((params[0] - 1.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cobyla;
mod spsa;

pub use cobyla::{Cobyla, CobylaConfig};
pub use spsa::{Spsa, SpsaConfig};

/// Statistics reported by one optimizer iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationStats {
    /// How many times the objective function was evaluated during this iteration.
    pub evaluations: usize,
    /// The loss value representative of this iteration (used by TreeVQA's sliding-window
    /// slope monitor).
    pub loss: f64,
}

/// A step-wise, derivative-free optimizer with a propose/observe batch interface.
///
/// One logical iteration is driven as one or more **phases**: [`Optimizer::propose`]
/// returns a batch of candidate parameter vectors whose objective values the caller
/// obtains however it likes — serially, or as one batched backend submission — and
/// [`Optimizer::observe`] consumes the values in candidate order.  `observe` returns
/// `None` while the iteration needs another phase (e.g. COBYLA rebuilding its simplex
/// after a rejected trust-region step) and `Some(stats)` once the iteration is complete
/// and `params` has been updated in place.
///
/// Derivative-free optimizers naturally emit batches — SPSA's ± perturbation pair,
/// COBYLA's initial simplex — and the propose form
/// exposes exactly those batches so the execution layer can evaluate all candidates of a
/// phase concurrently.  Phases replay the classic serial algorithms *exactly*: driving
/// an optimizer through propose/observe visits the same candidates in the same order as
/// [`Optimizer::step`], so trajectories (and shot accounting) are identical.
///
/// [`Optimizer::step`] is a provided convenience that drives the phase loop with a
/// closure; implementations only write `propose`/`observe`.
pub trait Optimizer {
    /// Begins (or continues) one iteration: returns the candidate parameter vectors the
    /// caller must evaluate next.  Calling `propose` again before `observe` returns the
    /// same pending batch.
    fn propose(&mut self, params: &[f64]) -> Vec<Vec<f64>>;

    /// Consumes the objective values for the batch returned by the last
    /// [`Optimizer::propose`] (in the same order).  Returns `None` if the iteration
    /// needs another propose/observe phase, or `Some(stats)` when the iteration is
    /// complete; `stats.evaluations` counts every evaluation across the iteration's
    /// phases, so the caller can charge execution shots accurately.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `values.len()` does not match the pending batch.
    fn observe(&mut self, params: &mut Vec<f64>, values: &[f64]) -> Option<IterationStats>;

    /// Performs one optimizer iteration by driving the propose/observe phases with a
    /// serial objective closure.
    fn step(
        &mut self,
        params: &mut Vec<f64>,
        objective: &mut dyn FnMut(&[f64]) -> f64,
    ) -> IterationStats {
        loop {
            let candidates = self.propose(params);
            let values: Vec<f64> = candidates.iter().map(|c| objective(c)).collect();
            if let Some(stats) = self.observe(params, &values) {
                return stats;
            }
        }
    }

    /// Human-readable optimizer name.
    fn name(&self) -> &'static str;

    /// Resets internal state (iteration counters, simplex caches, pending phases) so the
    /// optimizer can be reused for a fresh run with inherited parameters.  TreeVQA's
    /// child clusters do not call it: each child builds a fresh optimizer from its
    /// [`OptimizerSpec`] after a split.
    fn reset(&mut self);
}

/// Which optimizer a VQA run should use, with its configuration.
///
/// This enum exists so higher-level crates can store the optimizer choice in plain-data
/// experiment configurations.
#[derive(Clone, Debug, PartialEq)]
pub enum OptimizerSpec {
    /// Simultaneous Perturbation Stochastic Approximation.
    Spsa(SpsaConfig),
    /// COBYLA-style linear-approximation trust-region optimizer.
    Cobyla(CobylaConfig),
}

impl OptimizerSpec {
    /// The paper's default optimizer (SPSA with default gains).
    pub fn default_spsa() -> Self {
        OptimizerSpec::Spsa(SpsaConfig::default())
    }

    /// Builds a fresh optimizer instance rooted at `seed`
    /// ([`OptimizerSpec::build_with_policy`] with `qrng::SeedPolicy::new(seed)`).
    pub fn build(&self, seed: u64) -> Box<dyn Optimizer + Send> {
        self.build_with_policy(qrng::SeedPolicy::new(seed))
    }

    /// Builds a fresh optimizer instance with a typed seeding policy.  Stochastic
    /// optimizers draw from the policy's counter-based streams; deterministic ones
    /// ignore it.
    pub fn build_with_policy(&self, policy: qrng::SeedPolicy) -> Box<dyn Optimizer + Send> {
        match self {
            OptimizerSpec::Spsa(cfg) => Box::new(Spsa::with_policy(cfg.clone(), policy)),
            OptimizerSpec::Cobyla(cfg) => Box::new(Cobyla::new(cfg.clone())),
        }
    }

    /// Name of the selected optimizer.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerSpec::Spsa(_) => "SPSA",
            OptimizerSpec::Cobyla(_) => "COBYLA",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shifted quadratic bowl in `dim` dimensions.
    fn quadratic(dim: usize) -> impl FnMut(&[f64]) -> f64 {
        let _ = dim;
        move |p: &[f64]| {
            p.iter()
                .enumerate()
                .map(|(i, &x)| (x - (i as f64 + 1.0) * 0.1).powi(2))
                .sum()
        }
    }

    fn run(spec: &OptimizerSpec, dim: usize, iters: usize, seed: u64) -> f64 {
        let mut opt = spec.build(seed);
        let mut params = vec![0.5; dim];
        let mut obj = quadratic(dim);
        let mut last = f64::INFINITY;
        for _ in 0..iters {
            last = opt.step(&mut params, &mut obj).loss;
        }
        let final_val = quadratic(dim)(&params);
        assert!(last.is_finite());
        final_val
    }

    #[test]
    fn all_optimizers_reduce_a_quadratic() {
        let start = quadratic(4)(&[0.5; 4]);
        for spec in [
            OptimizerSpec::Spsa(SpsaConfig {
                a: 0.2,
                ..Default::default()
            }),
            OptimizerSpec::Cobyla(CobylaConfig::default()),
        ] {
            let end = run(&spec, 4, 300, 11);
            assert!(
                end < start * 0.5,
                "{} failed to reduce the objective: {end} vs {start}",
                spec.name()
            );
        }
    }

    #[test]
    fn spec_names_and_default() {
        assert_eq!(OptimizerSpec::default_spsa().name(), "SPSA");
        assert_eq!(
            OptimizerSpec::Cobyla(CobylaConfig::default()).name(),
            "COBYLA"
        );
    }

    #[test]
    fn evaluations_are_reported() {
        let mut opt = OptimizerSpec::default_spsa().build(3);
        let mut params = vec![0.1, 0.2];
        let mut count = 0usize;
        let mut obj = |p: &[f64]| {
            count += 1;
            p.iter().map(|x| x * x).sum()
        };
        let stats = opt.step(&mut params, &mut obj);
        assert_eq!(stats.evaluations, count);
        assert!(stats.evaluations >= 2);
    }
}
