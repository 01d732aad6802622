//! Qubit-wise-commuting (QWC) grouping of Pauli terms.
//!
//! Terms that commute qubit-wise can be estimated from the same measurement basis, so a
//! Hamiltonian's terms are usually grouped before shot estimation.  The paper costs shots
//! per *Pauli term* (a conservative choice it calls out explicitly in Section 7.3), but it
//! also notes that QWC grouping is a constant-factor refinement compatible with TreeVQA —
//! so the grouping machinery is provided here and exercised by the shot estimator in
//! `qsim`.

use crate::op::PauliOp;
use crate::pauli::{Pauli, PauliString};

/// A group of mutually qubit-wise-commuting terms from a [`PauliOp`].
#[derive(Clone, Debug)]
pub struct QwcGroup {
    /// Indices into the original operator's term list.
    pub term_indices: Vec<usize>,
    /// The shared measurement basis: for each qubit, the Pauli that must be measured
    /// (identity where no term in the group touches the qubit).
    pub measurement_basis: PauliString,
}

/// Greedily partitions the terms of `op` into qubit-wise-commuting groups.
///
/// This is the standard sequential (first-fit) graph-coloring heuristic: each term is
/// placed into the first existing group it commutes qubit-wise with, or starts a new
/// group.  The result is deterministic for a given term order.
///
/// # Examples
///
/// ```
/// use qop::{group_qwc, PauliOp};
///
/// let h = PauliOp::from_labels(2, &[("ZZ", 1.0), ("ZI", 0.5), ("XX", 0.2)]);
/// let groups = group_qwc(&h);
/// assert_eq!(groups.len(), 2); // {ZZ, ZI} and {XX}
/// ```
pub fn group_qwc(op: &PauliOp) -> Vec<QwcGroup> {
    let n = op.num_qubits();
    let mut groups: Vec<QwcGroup> = Vec::new();
    'terms: for (idx, term) in op.terms().iter().enumerate() {
        for group in &mut groups {
            if term.string.qubit_wise_commutes(&group.measurement_basis) {
                // Merge: the measurement basis picks up this term's non-identity factors.
                let mut basis = group.measurement_basis;
                for (q, p) in term.string.iter_non_identity() {
                    basis.set_pauli(q, p);
                }
                group.measurement_basis = basis;
                group.term_indices.push(idx);
                continue 'terms;
            }
        }
        let mut basis = PauliString::identity(n);
        for (q, p) in term.string.iter_non_identity() {
            basis.set_pauli(q, p);
        }
        groups.push(QwcGroup {
            term_indices: vec![idx],
            measurement_basis: basis,
        });
    }
    groups
}

/// Returns the number of distinct measurement circuits needed for `op` under QWC grouping.
pub fn num_qwc_groups(op: &PauliOp) -> usize {
    group_qwc(op).len()
}

/// Returns, for each qubit, the measurement rotation implied by a measurement basis:
/// `Z`/`I` need no rotation, `X` needs a Hadamard, `Y` needs `S†·H`.
///
/// The returned vector has one entry per qubit with the Pauli to be diagonalized.
pub fn measurement_rotations(basis: &PauliString) -> Vec<Pauli> {
    (0..basis.num_qubits()).map(|q| basis.pauli_at(q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_z_terms_form_one_group() {
        let h = PauliOp::from_labels(
            3,
            &[("ZZI", 1.0), ("IZZ", 0.5), ("ZIZ", 0.25), ("ZII", 0.1)],
        );
        let groups = group_qwc(&h);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].term_indices.len(), 4);
        assert_eq!(groups[0].measurement_basis.label(), "ZZZ");
    }

    #[test]
    fn incompatible_terms_split_groups() {
        let h = PauliOp::from_labels(2, &[("ZZ", 1.0), ("XX", 1.0), ("YY", 1.0)]);
        let groups = group_qwc(&h);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn every_term_is_assigned_exactly_once() {
        let h = PauliOp::from_labels(
            3,
            &[
                ("ZZI", 1.0),
                ("XIX", 0.5),
                ("IZZ", 0.2),
                ("XXI", 0.3),
                ("YYI", 0.1),
            ],
        );
        let groups = group_qwc(&h);
        let mut seen = vec![false; h.num_terms()];
        for g in &groups {
            for &i in &g.term_indices {
                assert!(!seen[i], "term assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
        // Each group's terms must pairwise qubit-wise commute.
        for g in &groups {
            for (a_pos, &a) in g.term_indices.iter().enumerate() {
                for &b in &g.term_indices[a_pos + 1..] {
                    assert!(h.terms()[a]
                        .string
                        .qubit_wise_commutes(&h.terms()[b].string));
                }
            }
        }
    }

    #[test]
    fn h2_style_hamiltonian_groups_to_fewer_circuits() {
        // A 15-term H2-like operator should compress to far fewer than 15 bases.
        let h = PauliOp::from_labels(
            4,
            &[
                ("IIII", -0.8),
                ("ZIII", 0.17),
                ("IZII", 0.17),
                ("IIZI", -0.24),
                ("IIIZ", -0.24),
                ("ZZII", 0.12),
                ("IIZZ", 0.17),
                ("ZIZI", 0.16),
                ("IZIZ", 0.16),
                ("ZIIZ", 0.16),
                ("IZZI", 0.16),
                ("XXYY", -0.04),
                ("YYXX", -0.04),
                ("XYYX", 0.04),
                ("YXXY", 0.04),
            ],
        );
        let groups = group_qwc(&h);
        assert!(groups.len() < h.num_terms());
        assert!(groups.len() >= 2);
    }

    #[test]
    fn measurement_rotations_report_basis() {
        let basis = PauliString::from_label("XZY").unwrap();
        let rots = measurement_rotations(&basis);
        assert_eq!(rots, vec![Pauli::X, Pauli::Z, Pauli::Y]);
    }
}
