//! Simultaneous Perturbation Stochastic Approximation (SPSA).
//!
//! SPSA estimates the gradient from exactly two objective evaluations per iteration by
//! perturbing all parameters simultaneously along a random ±1 direction — this is the
//! "mini-batch size of 2" the paper uses for its shot accounting (Section 7.3).  Gain
//! sequences follow Spall's standard recommendations:
//! `a_k = a / (A + k + 1)^α`, `c_k = c / (k + 1)^γ` with `α = 0.602`, `γ = 0.101`.

use crate::{IterationStats, Optimizer};
use qrng::{CounterRng, SeedPolicy, StreamId};
use rand::Rng;

/// SPSA gain-sequence configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SpsaConfig {
    /// Gain numerator `a` of the update step size.
    pub a: f64,
    /// Perturbation magnitude numerator `c`.
    pub c: f64,
    /// Step-size decay exponent `α`.
    pub alpha: f64,
    /// Perturbation decay exponent `γ`.
    pub gamma: f64,
    /// Stability constant `A` added to the iteration count in the step-size denominator.
    pub stability: f64,
    /// Optional clip on the per-coordinate update magnitude (guards against the occasional
    /// huge stochastic-gradient spike when shot noise is large). `None` disables clipping.
    pub max_update: Option<f64>,
    /// Automatic gain calibration: if `Some(target)`, the first call to
    /// [`crate::Optimizer::step`] spends a handful of extra objective evaluations to
    /// estimate the typical gradient magnitude and rescales `a` so that the first update
    /// moves each parameter by roughly `target` radians (the standard Spall/Qiskit
    /// calibration).  `None` uses `a` verbatim.
    pub calibrate_first_step: Option<f64>,
    /// Number of gradient samples used by the calibration.
    pub calibration_samples: usize,
}

impl Default for SpsaConfig {
    fn default() -> Self {
        SpsaConfig {
            a: 0.15,
            c: 0.1,
            alpha: 0.602,
            gamma: 0.101,
            stability: 10.0,
            max_update: Some(1.0),
            calibrate_first_step: Some(0.15),
            calibration_samples: 5,
        }
    }
}

/// A proposed SPSA phase awaiting its objective values.
#[derive(Clone, Debug)]
struct SpsaPending {
    candidates: Vec<Vec<f64>>,
    /// The Rademacher direction of the final ± pair.
    delta: Vec<f64>,
    c_k: f64,
    /// `(samples, c0, target)` when the batch is prefixed by calibration pairs.
    calibration: Option<(usize, f64, f64)>,
}

/// The SPSA optimizer.
///
/// Perturbation directions are drawn from a counter-based `qrng` stream keyed by the
/// seeding policy: the `k`-th Rademacher draw of a run is a pure function of
/// `(policy, stream, k)`, so optimizer trajectories are reproducible regardless of how
/// (or where) the candidate evaluations execute.
#[derive(Clone, Debug)]
pub struct Spsa {
    config: SpsaConfig,
    iteration: usize,
    policy: SeedPolicy,
    stream: StreamId,
    rng: CounterRng,
    calibrated_a: Option<f64>,
    pending: Option<SpsaPending>,
}

impl Spsa {
    /// Creates a new SPSA instance rooted at `seed` ([`Spsa::with_policy`] with
    /// `SeedPolicy::new(seed)`).
    pub fn new(config: SpsaConfig, seed: u64) -> Self {
        Self::with_policy(config, SeedPolicy::new(seed))
    }

    /// Creates a new SPSA instance drawing from `policy`'s default optimizer stream.
    pub fn with_policy(config: SpsaConfig, policy: SeedPolicy) -> Self {
        Self::with_stream(config, policy, StreamId::named("spsa"))
    }

    /// Creates a new SPSA instance drawing from an explicit stream of `policy` (e.g. a
    /// per-task substream, so concurrent runs sharing one root seed stay decorrelated).
    pub fn with_stream(config: SpsaConfig, policy: SeedPolicy, stream: StreamId) -> Self {
        Spsa {
            config,
            iteration: 0,
            policy,
            stream,
            rng: policy.rng(stream),
            calibrated_a: None,
            pending: None,
        }
    }

    /// The current iteration counter.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The effective gain numerator (calibrated if calibration has run).
    pub fn effective_a(&self) -> f64 {
        self.calibrated_a.unwrap_or(self.config.a)
    }

    /// The current step-size gain `a_k`.
    pub fn step_size(&self) -> f64 {
        let k = self.iteration as f64;
        self.effective_a() / (self.config.stability + k + 1.0).powf(self.config.alpha)
    }

    /// The current perturbation magnitude `c_k`.
    pub fn perturbation(&self) -> f64 {
        let k = self.iteration as f64;
        self.config.c / (k + 1.0).powf(self.config.gamma)
    }

    fn rademacher(&mut self, dim: usize) -> Vec<f64> {
        (0..dim)
            .map(|_| if self.rng.random::<bool>() { 1.0 } else { -1.0 })
            .collect()
    }
}

impl Optimizer for Spsa {
    /// One SPSA iteration is a single phase: the optional first-step calibration pairs
    /// followed by the ± perturbation pair, all in one batch (so a batched backend can
    /// prepare every state of the iteration concurrently).
    fn propose(&mut self, params: &[f64]) -> Vec<Vec<f64>> {
        if let Some(pending) = &self.pending {
            return pending.candidates.clone();
        }
        let dim = params.len();
        let mut candidates = Vec::new();
        let mut calibration = None;
        if self.iteration == 0 && self.calibrated_a.is_none() {
            if let Some(target) = self.config.calibrate_first_step {
                let samples = self.config.calibration_samples.max(1);
                let c0 = self.config.c.max(1e-6);
                for _ in 0..samples {
                    let delta = self.rademacher(dim);
                    candidates.push(params.iter().zip(&delta).map(|(p, d)| p + c0 * d).collect());
                    candidates.push(params.iter().zip(&delta).map(|(p, d)| p - c0 * d).collect());
                }
                calibration = Some((samples, c0, target));
            }
        }
        let c_k = self.perturbation();
        let delta = self.rademacher(dim);
        candidates.push(
            params
                .iter()
                .zip(&delta)
                .map(|(p, d)| p + c_k * d)
                .collect(),
        );
        candidates.push(
            params
                .iter()
                .zip(&delta)
                .map(|(p, d)| p - c_k * d)
                .collect(),
        );
        let batch = candidates.clone();
        self.pending = Some(SpsaPending {
            candidates,
            delta,
            c_k,
            calibration,
        });
        batch
    }

    fn observe(&mut self, params: &mut Vec<f64>, values: &[f64]) -> Option<IterationStats> {
        let pending = self
            .pending
            .take()
            .expect("observe called without a pending proposal");
        assert_eq!(
            values.len(),
            pending.candidates.len(),
            "one objective value per proposed candidate required"
        );
        let mut offset = 0usize;
        if let Some((samples, c0, target)) = pending.calibration {
            // Spall's calibration rule: rescale `a` so the first update moves each
            // coordinate by about `target`.
            let mut magnitude_sum = 0.0;
            for s in 0..samples {
                magnitude_sum += ((values[2 * s] - values[2 * s + 1]) / (2.0 * c0)).abs();
            }
            let mean_magnitude = magnitude_sum / samples as f64;
            if mean_magnitude > 1e-10 {
                self.calibrated_a = Some(
                    target * (self.config.stability + 1.0).powf(self.config.alpha) / mean_magnitude,
                );
            }
            offset = 2 * samples;
        }
        let a_k = self.step_size();
        let f_plus = values[offset];
        let f_minus = values[offset + 1];
        let diff = (f_plus - f_minus) / (2.0 * pending.c_k);

        for (p, d) in params.iter_mut().zip(&pending.delta) {
            // ghat_i = diff / delta_i and delta_i = ±1, so ghat_i = diff * delta_i.
            let mut update = a_k * diff * d;
            if let Some(clip) = self.config.max_update {
                update = update.clamp(-clip, clip);
            }
            *p -= update;
        }

        self.iteration += 1;
        Some(IterationStats {
            evaluations: values.len(),
            loss: 0.5 * (f_plus + f_minus),
        })
    }

    fn name(&self) -> &'static str {
        "SPSA"
    }

    fn reset(&mut self) {
        self.iteration = 0;
        self.rng = self.policy.rng(self.stream);
        self.calibrated_a = None;
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gains_decay_with_iterations() {
        let mut spsa = Spsa::new(SpsaConfig::default(), 1);
        let a0 = spsa.step_size();
        let c0 = spsa.perturbation();
        let mut params = vec![0.0; 3];
        let mut obj = |p: &[f64]| p.iter().map(|x| x * x).sum();
        for _ in 0..50 {
            spsa.step(&mut params, &mut obj);
        }
        assert!(spsa.step_size() < a0);
        assert!(spsa.perturbation() < c0);
        assert_eq!(spsa.iteration(), 50);
    }

    #[test]
    fn converges_on_separable_quadratic() {
        let mut spsa = Spsa::new(
            SpsaConfig {
                a: 0.3,
                ..Default::default()
            },
            7,
        );
        let target = [0.7, -0.4, 1.1, 0.0, -0.9];
        let mut params = vec![0.0; 5];
        let mut obj = |p: &[f64]| -> f64 {
            p.iter()
                .zip(target.iter())
                .map(|(x, t)| (x - t).powi(2))
                .sum()
        };
        for _ in 0..600 {
            spsa.step(&mut params, &mut obj);
        }
        let final_loss: f64 = params
            .iter()
            .zip(target.iter())
            .map(|(x, t)| (x - t).powi(2))
            .sum();
        assert!(final_loss < 0.05, "final loss {final_loss}");
    }

    #[test]
    fn tolerates_noisy_objectives() {
        // Additive noise should not prevent coarse convergence — this is SPSA's selling
        // point for shot-noisy VQA objectives.
        let mut spsa = Spsa::new(SpsaConfig::default(), 99);
        let mut noise_rng = StdRng::seed_from_u64(5);
        let mut params = vec![2.0, -2.0];
        let mut obj = |p: &[f64]| -> f64 {
            let clean: f64 = p.iter().map(|x| x * x).sum();
            clean + 0.01 * (noise_rng.random::<f64>() - 0.5)
        };
        for _ in 0..800 {
            spsa.step(&mut params, &mut obj);
        }
        let clean: f64 = params.iter().map(|x| x * x).sum();
        assert!(clean < 0.5, "noisy convergence too poor: {clean}");
    }

    #[test]
    fn reset_restores_iteration_and_rng() {
        let mut spsa = Spsa::new(SpsaConfig::default(), 21);
        let mut params_a = vec![0.5; 2];
        let mut obj = |p: &[f64]| p.iter().map(|x| x * x).sum();
        for _ in 0..10 {
            spsa.step(&mut params_a, &mut obj);
        }
        spsa.reset();
        assert_eq!(spsa.iteration(), 0);
        let mut params_b = vec![0.5; 2];
        let mut spsa2 = Spsa::new(SpsaConfig::default(), 21);
        let s1 = spsa.step(&mut params_b, &mut obj);
        let mut params_c = vec![0.5; 2];
        let s2 = spsa2.step(&mut params_c, &mut obj);
        assert_eq!(params_b, params_c);
        assert_eq!(s1.loss, s2.loss);
    }

    #[test]
    fn update_clipping_bounds_step() {
        let mut spsa = Spsa::new(
            SpsaConfig {
                a: 100.0,
                max_update: Some(0.1),
                ..Default::default()
            },
            3,
        );
        let mut params = vec![0.0];
        let mut obj = |p: &[f64]| 100.0 * p[0];
        let before = params[0];
        spsa.step(&mut params, &mut obj);
        assert!((params[0] - before).abs() <= 0.1 + 1e-12);
    }
}
