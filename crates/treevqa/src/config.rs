//! TreeVQA configuration.

use qopt::OptimizerSpec;

/// When and how clusters are allowed to split.
#[derive(Clone, Debug, PartialEq)]
pub enum SplitPolicy {
    /// The paper's adaptive policy (Section 5.2.2–5.2.3): after a warm-up phase, monitor
    /// the mixed loss and every member loss over a sliding window; split when the mixed
    /// slope stalls (`|slope| < epsilon_split`) or any member slope turns positive.
    Adaptive {
        /// Iterations each cluster runs before the monitors may trigger a split.
        warmup_iterations: usize,
        /// Sliding-window length (in iterations) for the slope regressions.
        window_size: usize,
        /// Stall threshold on the mixed-loss slope.
        epsilon_split: f64,
    },
    /// Exactly one split, forced when a cluster has executed the given fraction of
    /// `max_cluster_iterations` (the controlled experiment of the paper's Figure 13).
    ForcedSingle {
        /// Fraction (0, 1] of the per-cluster iteration allowance at which to split.
        at_fraction: f64,
    },
    /// Never split (the root cluster runs to the end; used for ablations).
    Never,
}

impl SplitPolicy {
    /// The default adaptive policy with hyperparameters that work well across the
    /// scaled-down benchmark suite.
    pub fn default_adaptive() -> Self {
        SplitPolicy::Adaptive {
            warmup_iterations: 40,
            window_size: 20,
            epsilon_split: 5e-4,
        }
    }
}

/// Configuration of a TreeVQA run.
#[derive(Clone, Debug)]
pub struct TreeVqaConfig {
    /// Global shot budget `S_max` (Algorithm 1 line 4); the run stops once the backend has
    /// charged at least this many shots.
    pub shot_budget: u64,
    /// Hard cap on optimizer iterations per cluster (safety net so a run always ends even
    /// if the budget is effectively unlimited).
    pub max_cluster_iterations: usize,
    /// The classical optimizer used by every cluster.
    pub optimizer: OptimizerSpec,
    /// Split policy and hyperparameters.
    pub split_policy: SplitPolicy,
    /// Smallest cluster size that is still allowed to split (must be ≥ 2).
    pub min_split_size: usize,
    /// Record an application-level history row every this many controller rounds.
    pub record_every: usize,
    /// Optional per-phase timeout in milliseconds: every round-phase job carries a
    /// deadline this far from its submission and the controller waits no longer than
    /// that for the phase (a job's deadline does not cross a `qnet` connection; the
    /// bounded wait does the work there), so a phase stuck behind a congested or
    /// stalled executor surfaces `DeadlineExceeded` instead of wedging the controller.
    /// `None` (the default) submits without deadlines and waits without bound.
    pub phase_timeout_ms: Option<u64>,
    /// Base RNG seed (optimizers and spectral-clustering k-means derive their seeds from
    /// it deterministically).
    pub seed: u64,
}

impl Default for TreeVqaConfig {
    fn default() -> Self {
        TreeVqaConfig {
            shot_budget: u64::MAX,
            max_cluster_iterations: 400,
            optimizer: OptimizerSpec::default_spsa(),
            split_policy: SplitPolicy::default_adaptive(),
            min_split_size: 2,
            record_every: 5,
            phase_timeout_ms: None,
            seed: 7,
        }
    }
}

impl TreeVqaConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `min_split_size < 2`, `record_every == 0`, `max_cluster_iterations == 0`,
    /// or a forced split fraction is outside `(0, 1]`.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Validates internal consistency, reporting the first violated constraint as a
    /// [`ConfigError`] (the fallible form of [`TreeVqaConfig::validate`] used by
    /// [`crate::TreeVqa::try_new`]).
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.min_split_size < 2 {
            return Err(ConfigError("min_split_size must be at least 2"));
        }
        if self.record_every == 0 {
            return Err(ConfigError("record_every must be positive"));
        }
        if self.max_cluster_iterations == 0 {
            return Err(ConfigError("max_cluster_iterations must be positive"));
        }
        if self.phase_timeout_ms == Some(0) {
            return Err(ConfigError("phase_timeout_ms must be positive when set"));
        }
        if let SplitPolicy::ForcedSingle { at_fraction } = self.split_policy {
            if !(at_fraction > 0.0 && at_fraction <= 1.0) {
                return Err(ConfigError("forced split fraction must lie in (0, 1]"));
            }
        }
        if let SplitPolicy::Adaptive {
            window_size,
            warmup_iterations,
            ..
        } = self.split_policy
        {
            if window_size < 2 {
                return Err(ConfigError("window_size must be at least 2"));
            }
            if warmup_iterations < window_size {
                return Err(ConfigError("warmup must cover at least one full window"));
            }
        }
        Ok(())
    }
}

/// A [`TreeVqaConfig`] constraint violation (the message names the constraint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError(pub &'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid TreeVQA configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        TreeVqaConfig::default().validate();
    }

    #[test]
    #[should_panic]
    fn tiny_min_split_size_is_rejected() {
        let cfg = TreeVqaConfig {
            min_split_size: 1,
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic]
    fn forced_split_fraction_must_be_positive() {
        let cfg = TreeVqaConfig {
            split_policy: SplitPolicy::ForcedSingle { at_fraction: 0.0 },
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic]
    fn warmup_shorter_than_window_is_rejected() {
        let cfg = TreeVqaConfig {
            split_policy: SplitPolicy::Adaptive {
                warmup_iterations: 5,
                window_size: 10,
                epsilon_split: 1e-3,
            },
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    fn forced_and_never_policies_validate() {
        let forced = TreeVqaConfig {
            split_policy: SplitPolicy::ForcedSingle { at_fraction: 0.5 },
            ..Default::default()
        };
        forced.validate();
        let never = TreeVqaConfig {
            split_policy: SplitPolicy::Never,
            ..Default::default()
        };
        never.validate();
        assert_ne!(forced.split_policy, never.split_policy);
    }
}
