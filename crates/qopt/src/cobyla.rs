//! COBYLA-style derivative-free trust-region optimizer.
//!
//! The original COBYLA (Powell 1994) builds a linear model of the objective (and of the
//! constraints) from a simplex of `n + 1` interpolation points and minimizes it inside a
//! shrinking trust region.  VQA objectives are unconstrained, so this implementation keeps
//! the defining ingredients — simplex-based linear interpolation, trust-region step,
//! radius management — and drops the constraint machinery.

use crate::{IterationStats, Optimizer};

/// COBYLA configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CobylaConfig {
    /// Initial trust-region radius (also the initial simplex edge length).
    pub initial_radius: f64,
    /// The radius below which the trust region stops shrinking.
    pub min_radius: f64,
    /// Multiplicative radius shrink factor applied after an unsuccessful step.
    pub shrink_factor: f64,
    /// Multiplicative radius growth factor applied after a very successful step.
    pub grow_factor: f64,
}

impl Default for CobylaConfig {
    fn default() -> Self {
        CobylaConfig {
            initial_radius: 0.3,
            min_radius: 1e-4,
            shrink_factor: 0.5,
            grow_factor: 1.5,
        }
    }
}

/// Which candidate batch the optimizer is waiting on.
#[derive(Clone, Debug)]
enum Phase {
    Idle,
    /// Initial simplex construction around the current parameters.
    Build {
        points: Vec<Vec<f64>>,
    },
    /// The trust-region candidate probe.
    Candidate {
        candidate: Vec<f64>,
        best_value: f64,
        best_point: Vec<f64>,
    },
    /// Post-rejection simplex rebuild around the best point at the shrunk radius.
    Rebuild {
        points: Vec<Vec<f64>>,
        f_candidate: f64,
    },
}

/// The COBYLA-style optimizer.
#[derive(Clone, Debug)]
pub struct Cobyla {
    config: CobylaConfig,
    radius: f64,
    /// Simplex vertices (`n + 1` points) and their objective values, lazily built on the
    /// first step around the caller-supplied parameters.
    simplex: Vec<(Vec<f64>, f64)>,
    phase: Phase,
    /// Objective evaluations consumed so far in the current logical iteration.
    evals_acc: usize,
}

impl Cobyla {
    /// Creates a new optimizer instance.
    pub fn new(config: CobylaConfig) -> Self {
        let radius = config.initial_radius;
        Cobyla {
            config,
            radius,
            simplex: Vec::new(),
            phase: Phase::Idle,
            evals_acc: 0,
        }
    }

    /// The current trust-region radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Simplex points around `center` at the current radius (base point first).
    fn simplex_points(&self, center: &[f64]) -> Vec<Vec<f64>> {
        let n = center.len();
        let mut points = Vec::with_capacity(n + 1);
        points.push(center.to_vec());
        for i in 0..n {
            let mut p = center.to_vec();
            p[i] += self.radius;
            points.push(p);
        }
        points
    }

    /// Estimates the gradient of the linear interpolation model from the simplex: solves
    /// the `n × n` system `(x_i − x_0) · g = f_i − f_0`.
    fn linear_model_gradient(&self) -> Option<Vec<f64>> {
        let n = self.simplex[0].0.len();
        if self.simplex.len() != n + 1 {
            return None;
        }
        let x0 = &self.simplex[0].0;
        let f0 = self.simplex[0].1;
        let mut a = vec![vec![0.0f64; n]; n];
        let mut b = vec![0.0f64; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = self.simplex[i + 1].0[j] - x0[j];
            }
            b[i] = self.simplex[i + 1].1 - f0;
        }
        solve_linear_system(&mut a, &mut b)
    }
}

impl Optimizer for Cobyla {
    fn propose(&mut self, params: &[f64]) -> Vec<Vec<f64>> {
        match &self.phase {
            Phase::Idle => {}
            Phase::Build { points } | Phase::Rebuild { points, .. } => return points.clone(),
            Phase::Candidate { candidate, .. } => return vec![candidate.clone()],
        }

        let n = params.len();
        if self.simplex.len() != n + 1 {
            let points = self.simplex_points(params);
            self.phase = Phase::Build {
                points: points.clone(),
            };
            return points;
        }

        // Sort so that vertex 0 is the best.
        self.simplex
            .sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best_value = self.simplex[0].1;
        let best_point = self.simplex[0].0.clone();

        let gradient = self.linear_model_gradient();
        let candidate = match &gradient {
            Some(g) => {
                let norm: f64 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm < 1e-15 {
                    best_point.clone()
                } else {
                    best_point
                        .iter()
                        .zip(g.iter())
                        .map(|(x, gi)| x - self.radius * gi / norm)
                        .collect()
                }
            }
            // Degenerate simplex: perturb the best point along the first axis.
            None => {
                let mut p = best_point.clone();
                if !p.is_empty() {
                    p[0] += self.radius;
                }
                p
            }
        };
        let batch = vec![candidate.clone()];
        self.phase = Phase::Candidate {
            candidate,
            best_value,
            best_point,
        };
        batch
    }

    fn observe(&mut self, params: &mut Vec<f64>, values: &[f64]) -> Option<IterationStats> {
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => panic!("observe called without a pending proposal"),
            Phase::Build { points } => {
                assert_eq!(values.len(), points.len(), "one value per simplex point");
                self.evals_acc += values.len();
                self.simplex = points.into_iter().zip(values.iter().copied()).collect();
                None
            }
            Phase::Candidate {
                candidate,
                best_value,
                best_point,
            } => {
                let f_candidate = values[0];
                self.evals_acc += 1;
                if f_candidate < best_value {
                    // Successful step: replace the worst vertex and recentre on the new
                    // best.
                    let worst = self.simplex.len() - 1;
                    self.simplex[worst] = (candidate.clone(), f_candidate);
                    *params = candidate;
                    if f_candidate < best_value - 0.1 * self.radius {
                        self.radius *= self.config.grow_factor;
                    }
                    self.finish(f_candidate)
                } else {
                    // Unsuccessful: keep the best-known point, shrink the trust region,
                    // and rebuild the simplex around it at the new radius so the linear
                    // model stays well conditioned.
                    *params = best_point;
                    self.radius =
                        (self.radius * self.config.shrink_factor).max(self.config.min_radius);
                    self.phase = Phase::Rebuild {
                        points: self.simplex_points(params),
                        f_candidate,
                    };
                    None
                }
            }
            Phase::Rebuild {
                points,
                f_candidate,
            } => {
                assert_eq!(values.len(), points.len(), "one value per simplex point");
                self.evals_acc += values.len();
                self.simplex = points.into_iter().zip(values.iter().copied()).collect();
                self.finish(f_candidate)
            }
        }
    }

    fn name(&self) -> &'static str {
        "COBYLA"
    }

    fn reset(&mut self) {
        self.radius = self.config.initial_radius;
        self.simplex.clear();
        self.phase = Phase::Idle;
        self.evals_acc = 0;
    }
}

impl Cobyla {
    /// Completes the iteration, reporting the best value seen across the simplex and the
    /// candidate.
    fn finish(&mut self, f_candidate: f64) -> Option<IterationStats> {
        let reported = self
            .simplex
            .iter()
            .map(|(_, f)| *f)
            .fold(f64::INFINITY, f64::min)
            .min(f_candidate);
        let stats = IterationStats {
            evaluations: self.evals_acc,
            loss: reported,
        };
        self.phase = Phase::Idle;
        self.evals_acc = 0;
        Some(stats)
    }
}

/// Solves `A x = b` in place by Gaussian elimination with partial pivoting.  Returns
/// `None` if the matrix is (numerically) singular.
#[allow(clippy::needless_range_loop)]
fn solve_linear_system(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot_row][col].abs() < 1e-14 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate.
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_solver_recovers_known_solution() {
        let mut a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let mut b = vec![5.0, 10.0];
        let x = solve_linear_system(&mut a, &mut b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_returns_none() {
        let mut a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut b = vec![1.0, 2.0];
        assert!(solve_linear_system(&mut a, &mut b).is_none());
    }

    #[test]
    fn converges_on_rosenbrock_like_bowl() {
        let mut opt = Cobyla::new(CobylaConfig::default());
        let mut params = vec![0.0, 0.0];
        let mut obj = |p: &[f64]| (p[0] - 0.5).powi(2) + 4.0 * (p[1] + 0.25).powi(2);
        for _ in 0..150 {
            opt.step(&mut params, &mut obj);
        }
        let final_val = (params[0] - 0.5).powi(2) + 4.0 * (params[1] + 0.25).powi(2);
        assert!(final_val < 1e-2, "{final_val}");
    }

    #[test]
    fn radius_shrinks_when_stuck_at_optimum() {
        let mut opt = Cobyla::new(CobylaConfig::default());
        let mut params = vec![0.0, 0.0];
        let mut obj = |p: &[f64]| p.iter().map(|x| x * x).sum();
        let start_radius = opt.radius();
        for _ in 0..60 {
            opt.step(&mut params, &mut obj);
        }
        assert!(opt.radius() < start_radius);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Cobyla::new(CobylaConfig::default());
        let mut params = vec![0.2];
        let mut obj = |p: &[f64]| p[0] * p[0];
        opt.step(&mut params, &mut obj);
        opt.reset();
        assert_eq!(opt.radius(), CobylaConfig::default().initial_radius);
    }

    #[test]
    fn first_step_reports_simplex_evaluations() {
        let mut opt = Cobyla::new(CobylaConfig::default());
        let mut params = vec![0.3, 0.4, 0.5];
        let mut count = 0usize;
        let mut obj = |p: &[f64]| {
            count += 1;
            p.iter().map(|x| x * x).sum()
        };
        let stats = opt.step(&mut params, &mut obj);
        assert_eq!(stats.evaluations, count);
        assert!(stats.evaluations >= params.len() + 2);
    }
}
