//! Nelder–Mead simplex optimizer.
//!
//! Not used by the paper directly, but provided as an additional derivative-free baseline
//! for the optimizer-agnosticism experiments and as an independent cross-check of the
//! COBYLA implementation in tests.
//!
//! The optimizer is written against the propose/observe phase interface of
//! [`Optimizer`]: each logical iteration unfolds as one or more candidate batches (the
//! initial simplex, the reflection, then expansion *or* contraction, then a possible
//! shrink batch), visiting exactly the candidates the classic sequential algorithm
//! would.

use crate::{IterationStats, Optimizer};

/// Nelder–Mead coefficients.
#[derive(Clone, Debug, PartialEq)]
pub struct NelderMeadConfig {
    /// Initial simplex edge length.
    pub initial_step: f64,
    /// Reflection coefficient (α).
    pub reflection: f64,
    /// Expansion coefficient (γ).
    pub expansion: f64,
    /// Contraction coefficient (ρ).
    pub contraction: f64,
    /// Shrink coefficient (σ).
    pub shrink: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig {
            initial_step: 0.25,
            reflection: 1.0,
            expansion: 2.0,
            contraction: 0.5,
            shrink: 0.5,
        }
    }
}

/// Which candidate batch the optimizer is waiting on.
#[derive(Clone, Debug)]
enum Phase {
    Idle,
    /// Initial simplex construction: base point plus one perturbed point per axis.
    Build {
        points: Vec<Vec<f64>>,
    },
    /// The reflection probe.
    Reflect {
        centroid: Vec<f64>,
        worst_point: Vec<f64>,
        worst_value: f64,
        best_value: f64,
        second_worst_value: f64,
        reflected: Vec<f64>,
    },
    /// Expansion probe after a winning reflection.
    Expand {
        reflected: Vec<f64>,
        f_reflected: f64,
        expanded: Vec<f64>,
    },
    /// Contraction probe after a losing reflection.
    Contract {
        contracted: Vec<f64>,
        worst_value: f64,
    },
    /// Shrink every non-best vertex toward the best.
    Shrink {
        points: Vec<Vec<f64>>,
    },
}

/// The Nelder–Mead optimizer.
#[derive(Clone, Debug)]
pub struct NelderMead {
    config: NelderMeadConfig,
    simplex: Vec<(Vec<f64>, f64)>,
    phase: Phase,
    /// Objective evaluations consumed so far in the current logical iteration.
    evals_acc: usize,
}

fn lerp(from: &[f64], towards: &[f64], t: f64) -> Vec<f64> {
    from.iter()
        .zip(towards.iter())
        .map(|(a, b)| a + t * (b - a))
        .collect()
}

impl NelderMead {
    /// Creates a new instance.
    pub fn new(config: NelderMeadConfig) -> Self {
        NelderMead {
            config,
            simplex: Vec::new(),
            phase: Phase::Idle,
            evals_acc: 0,
        }
    }

    fn sort_simplex(&mut self) {
        self.simplex
            .sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Completes the iteration: re-sorts, publishes the best vertex, resets phase state.
    fn finish(&mut self, params: &mut Vec<f64>) -> Option<IterationStats> {
        self.sort_simplex();
        *params = self.simplex[0].0.clone();
        let stats = IterationStats {
            evaluations: self.evals_acc,
            loss: self.simplex[0].1,
        };
        self.phase = Phase::Idle;
        self.evals_acc = 0;
        Some(stats)
    }

    fn shrink_points(&self) -> Vec<Vec<f64>> {
        let best = &self.simplex[0].0;
        (1..self.simplex.len())
            .map(|i| lerp(best, &self.simplex[i].0, self.config.shrink))
            .collect()
    }
}

impl Optimizer for NelderMead {
    fn propose(&mut self, params: &[f64]) -> Vec<Vec<f64>> {
        match &self.phase {
            Phase::Idle => {}
            Phase::Build { points } | Phase::Shrink { points } => return points.clone(),
            Phase::Reflect { reflected, .. } => return vec![reflected.clone()],
            Phase::Expand { expanded, .. } => return vec![expanded.clone()],
            Phase::Contract { contracted, .. } => return vec![contracted.clone()],
        }

        let n = params.len();
        if self.simplex.len() != n + 1 {
            let mut points = Vec::with_capacity(n + 1);
            points.push(params.to_vec());
            for i in 0..n {
                let mut p = params.to_vec();
                p[i] += self.config.initial_step;
                points.push(p);
            }
            self.phase = Phase::Build {
                points: points.clone(),
            };
            return points;
        }

        self.sort_simplex();
        let worst_idx = self.simplex.len() - 1;
        let best_value = self.simplex[0].1;
        let worst = self.simplex[worst_idx].clone();
        let second_worst_value = self.simplex[worst_idx - 1].1;

        // Centroid of all vertices except the worst.
        let mut centroid = vec![0.0f64; n];
        for (point, _) in self.simplex.iter().take(worst_idx) {
            for (c, x) in centroid.iter_mut().zip(point.iter()) {
                *c += x;
            }
        }
        for c in centroid.iter_mut() {
            *c /= worst_idx as f64;
        }

        let reflected = lerp(&centroid, &worst.0, -self.config.reflection);
        let batch = vec![reflected.clone()];
        self.phase = Phase::Reflect {
            centroid,
            worst_point: worst.0,
            worst_value: worst.1,
            best_value,
            second_worst_value,
            reflected,
        };
        batch
    }

    fn observe(&mut self, params: &mut Vec<f64>, values: &[f64]) -> Option<IterationStats> {
        let worst_idx = |s: &Vec<(Vec<f64>, f64)>| s.len() - 1;
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => panic!("observe called without a pending proposal"),
            Phase::Build { points } => {
                assert_eq!(values.len(), points.len(), "one value per simplex point");
                self.evals_acc += values.len();
                self.simplex = points.into_iter().zip(values.iter().copied()).collect();
                None
            }
            Phase::Reflect {
                centroid,
                worst_point,
                worst_value,
                best_value,
                second_worst_value,
                reflected,
            } => {
                let f_reflected = values[0];
                self.evals_acc += 1;
                if f_reflected < best_value {
                    let expanded = lerp(&centroid, &worst_point, -self.config.expansion);
                    self.phase = Phase::Expand {
                        reflected,
                        f_reflected,
                        expanded,
                    };
                    None
                } else if f_reflected < second_worst_value {
                    let w = worst_idx(&self.simplex);
                    self.simplex[w] = (reflected, f_reflected);
                    self.finish(params)
                } else {
                    let contracted = lerp(&centroid, &worst_point, self.config.contraction);
                    self.phase = Phase::Contract {
                        contracted,
                        worst_value,
                    };
                    None
                }
            }
            Phase::Expand {
                reflected,
                f_reflected,
                expanded,
            } => {
                let f_expanded = values[0];
                self.evals_acc += 1;
                let w = worst_idx(&self.simplex);
                self.simplex[w] = if f_expanded < f_reflected {
                    (expanded, f_expanded)
                } else {
                    (reflected, f_reflected)
                };
                self.finish(params)
            }
            Phase::Contract {
                contracted,
                worst_value,
            } => {
                let f_contracted = values[0];
                self.evals_acc += 1;
                if f_contracted < worst_value {
                    let w = worst_idx(&self.simplex);
                    self.simplex[w] = (contracted, f_contracted);
                    self.finish(params)
                } else {
                    self.phase = Phase::Shrink {
                        points: self.shrink_points(),
                    };
                    None
                }
            }
            Phase::Shrink { points } => {
                assert_eq!(values.len(), points.len(), "one value per shrink point");
                self.evals_acc += values.len();
                for (i, (point, &value)) in points.into_iter().zip(values.iter()).enumerate() {
                    self.simplex[i + 1] = (point, value);
                }
                self.finish(params)
            }
        }
    }

    fn name(&self) -> &'static str {
        "NelderMead"
    }

    fn reset(&mut self) {
        self.simplex.clear();
        self.phase = Phase::Idle;
        self.evals_acc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        let mut opt = NelderMead::new(NelderMeadConfig::default());
        let mut params = vec![1.5, -1.5, 0.8];
        let mut obj = |p: &[f64]| p.iter().map(|x| (x - 0.2).powi(2)).sum();
        for _ in 0..250 {
            opt.step(&mut params, &mut obj);
        }
        let loss: f64 = params.iter().map(|x| (x - 0.2).powi(2)).sum();
        assert!(loss < 1e-4, "{loss}");
    }

    #[test]
    fn handles_anisotropic_objectives() {
        let mut opt = NelderMead::new(NelderMeadConfig::default());
        // Classic Rosenbrock start, far from the (1, 1) minimum.
        let mut params = vec![-1.2, 1.0];
        let mut obj = |p: &[f64]| 100.0 * (p[1] - p[0] * p[0]).powi(2) + (1.0 - p[0]).powi(2);
        let start = obj(&params);
        for _ in 0..500 {
            opt.step(&mut params, &mut obj);
        }
        let end = 100.0 * (params[1] - params[0] * params[0]).powi(2) + (1.0 - params[0]).powi(2);
        assert!(end < start * 0.05, "{end} vs {start}");
    }

    #[test]
    fn loss_is_monotone_non_increasing_across_steps() {
        let mut opt = NelderMead::new(NelderMeadConfig::default());
        let mut params = vec![0.9, -0.3];
        let mut obj = |p: &[f64]| p.iter().map(|x| x * x).sum();
        let mut last = f64::INFINITY;
        for _ in 0..100 {
            let stats = opt.step(&mut params, &mut obj);
            assert!(stats.loss <= last + 1e-12);
            last = stats.loss;
        }
    }

    #[test]
    fn reset_rebuilds_simplex_next_step() {
        let mut opt = NelderMead::new(NelderMeadConfig::default());
        let mut params = vec![0.4];
        let mut obj = |p: &[f64]| p[0] * p[0];
        opt.step(&mut params, &mut obj);
        opt.reset();
        let mut count = 0usize;
        let mut counting_obj = |p: &[f64]| {
            count += 1;
            p[0] * p[0]
        };
        opt.step(&mut params, &mut counting_obj);
        assert!(count >= 2, "simplex should be rebuilt after reset");
    }

    #[test]
    fn propose_returns_pending_batch_idempotently() {
        let mut opt = NelderMead::new(NelderMeadConfig::default());
        let params = vec![0.5, 0.5];
        let first = opt.propose(&params);
        let again = opt.propose(&params);
        assert_eq!(first, again);
        assert_eq!(first.len(), 3, "initial simplex batch for 2 parameters");
    }
}
