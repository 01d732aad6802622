//! Sliding-window slope monitoring (paper Section 5.2.2).
//!
//! Each cluster tracks the loss of its mixed Hamiltonian and of every member Hamiltonian.
//! After a warm-up phase, the slope of a simple linear regression over the last `W` loss
//! values decides whether the cluster has stalled (`|slope| < ε`) or a member is being
//! actively harmed (`slope_i > 0`), either of which triggers a split.

use std::collections::VecDeque;

/// A fixed-length sliding window of loss values with an incremental linear-regression
/// slope estimate.
#[derive(Clone, Debug)]
pub struct SlopeMonitor {
    capacity: usize,
    values: VecDeque<f64>,
    total_pushed: usize,
}

impl SlopeMonitor {
    /// Creates a monitor with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a slope needs at least two points).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "slope window must hold at least two values");
        SlopeMonitor {
            capacity,
            values: VecDeque::with_capacity(capacity),
            total_pushed: 0,
        }
    }

    /// Window length.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of values pushed over the monitor's lifetime.
    pub fn total_pushed(&self) -> usize {
        self.total_pushed
    }

    /// Pushes a new loss value, evicting the oldest if the window is full.
    pub fn push(&mut self, value: f64) {
        if self.values.len() == self.capacity {
            self.values.pop_front();
        }
        self.values.push_back(value);
        self.total_pushed += 1;
    }

    /// `true` once the window holds `capacity` values.
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// The least-squares slope of the window contents against the iteration index, or
    /// `None` until the window is full.
    pub fn slope(&self) -> Option<f64> {
        if !self.is_full() {
            return None;
        }
        let n = self.values.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y: f64 = self.values.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &y) in self.values.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (y - mean_y);
            den += dx * dx;
        }
        Some(num / den)
    }

    /// Clears the window (used when a child cluster inherits a parent's parameters but
    /// should re-establish its own convergence trend).
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// The most recent value pushed, if any.
    pub fn latest(&self) -> Option<f64> {
        self.values.back().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_requires_a_full_window() {
        let mut m = SlopeMonitor::new(4);
        m.push(1.0);
        m.push(2.0);
        m.push(3.0);
        assert!(m.slope().is_none());
        m.push(4.0);
        assert!(m.is_full());
        assert!((m.slope().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decreasing_series_has_negative_slope() {
        let mut m = SlopeMonitor::new(5);
        for i in 0..5 {
            m.push(10.0 - 2.0 * i as f64);
        }
        assert!((m.slope().unwrap() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn flat_series_has_near_zero_slope() {
        let mut m = SlopeMonitor::new(6);
        for _ in 0..6 {
            m.push(-3.7);
        }
        assert!(m.slope().unwrap().abs() < 1e-12);
    }

    #[test]
    fn window_slides_and_forgets_old_values() {
        let mut m = SlopeMonitor::new(3);
        // Old decreasing trend followed by an increasing one; the window should only see
        // the increase.
        for v in [10.0, 8.0, 6.0, 7.0, 8.0, 9.0] {
            m.push(v);
        }
        assert!(m.slope().unwrap() > 0.9);
        assert_eq!(m.total_pushed(), 6);
        assert_eq!(m.latest(), Some(9.0));
    }

    #[test]
    fn clear_resets_the_window_but_not_lifetime_count() {
        let mut m = SlopeMonitor::new(3);
        for v in [1.0, 2.0, 3.0] {
            m.push(v);
        }
        m.clear();
        assert!(!m.is_full());
        assert!(m.slope().is_none());
        assert_eq!(m.total_pushed(), 3);
    }

    #[test]
    #[should_panic]
    fn capacity_below_two_panics() {
        let _ = SlopeMonitor::new(1);
    }
}
