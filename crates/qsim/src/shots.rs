//! Shot accounting.
//!
//! The paper's headline metric is the total number of execution shots.  Its cost model
//! (Section 7.3) charges `4096` shots per Pauli term per evaluation, so one evaluation of
//! a Hamiltonian with `M` terms costs `4096·M` shots and a full run costs
//! `iterations × evals_per_iteration × 4096 × M`.  [`ShotLedger`] accumulates exactly that
//! quantity; every backend charges it on each expectation-value evaluation.

/// Default shots per Pauli term per evaluation, matching the paper (Section 7.3).
pub const DEFAULT_SHOTS_PER_PAULI: u64 = 4096;

/// Accumulates the execution shots charged by a VQA run.
///
/// # Examples
///
/// ```
/// use qsim::ShotLedger;
///
/// let mut ledger = ShotLedger::new();
/// ledger.charge_evaluation(4096, 15); // one evaluation of a 15-term Hamiltonian
/// assert_eq!(ledger.total(), 4096 * 15);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ShotLedger {
    total: u64,
    evaluations: u64,
}

impl ShotLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ShotLedger::default()
    }

    /// Charges one expectation-value evaluation of a Hamiltonian with `num_terms` Pauli
    /// terms at `shots_per_pauli` shots per term.
    pub fn charge_evaluation(&mut self, shots_per_pauli: u64, num_terms: usize) {
        self.total += shots_per_pauli * num_terms as u64;
        self.evaluations += 1;
    }

    /// Total shots charged so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of expectation evaluations charged so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Resets the ledger to zero.
    pub fn reset(&mut self) {
        self.total = 0;
        self.evaluations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut l = ShotLedger::new();
        l.charge_evaluation(4096, 10);
        l.charge_evaluation(4096, 10);
        assert_eq!(l.total(), 2 * 4096 * 10);
        assert_eq!(l.evaluations(), 2);
    }

    #[test]
    fn reset_zeroes_the_ledger() {
        let mut a = ShotLedger::new();
        a.charge_evaluation(100, 3);
        a.charge_evaluation(100, 7);
        assert_eq!(a.total(), 300 + 700);
        assert_eq!(a.evaluations(), 2);
        a.reset();
        assert_eq!(a.total(), 0);
        assert_eq!(a.evaluations(), 0);
    }

    #[test]
    fn default_constant_matches_paper() {
        assert_eq!(DEFAULT_SHOTS_PER_PAULI, 4096);
    }
}
