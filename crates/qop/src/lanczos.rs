//! Exact ground states: a diagonal scan, or matrix-free Lanczos.
//!
//! Every fidelity number in the paper is relative to the exact ground-state energy of the
//! task Hamiltonian.  The authors obtain those references from classical diagonalization;
//! here [`ground_state`] / [`ground_energy`] dispatch on the operator's structure:
//!
//! * **Diagonal operators** (every term a product of `I`/`Z`, `x_mask == 0` — the QAOA
//!   MaxCut costs) are read off their diagonal.  `E(b) = Σ_k c_k (−1)^popcount(b & z_k)`
//!   is evaluated for every basis state in 256-state blocks over the factored sign
//!   tables of [`crate::lanes`], each state a serial fold over the terms in term order,
//!   and the first strict minimum wins (ties go to the lowest basis index).  The result
//!   is exact — the smallest of `2^n` diagonal entries — and takes no Krylov basis.
//! * **Every other operator** runs a Lanczos iteration with full re-orthogonalization
//!   directly on [`PauliOp::apply_into`], so no dense matrix is ever formed.  It is
//!   accurate to ~1e-10 for the register sizes used by the experiment harness (≤ 16
//!   qubits dense).
//!
//! **Where a step's time goes.**  Measured with timers around the two phases on a 2-vCPU
//! x86-64-v3 host, over the eight 12-qubit TFIM references of the end-to-end
//! benchmark's `tree_tfim12` set-up (23 terms, ≈ 67 steps each): with the former
//! per-amplitude gather, `apply_into` took ≈ 190–310 µs per step and the two
//! re-orthogonalization sweeps ≈ 180–260 µs; with the tiled `apply_into`, ≈ 60–100 µs
//! against the same sweeps, so the sweeps are now ≈ 62–66 % of a reference.  Fusing each
//! `axpy` with the next coefficient's inner product (same bits, one pass over `w` per
//! basis vector) made the sweeps 1.7–1.9× slower, and any change of the sweeps'
//! arithmetic moves every recorded reference energy.

use crate::complex::Complex64;
use crate::lanes::{low_sign_table, parity_sign, SIGN_BLOCK};
use crate::op::PauliOp;
use crate::statevector::Statevector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the Lanczos ground-state solver.
///
/// Diagonal operators never reach Lanczos (see the module docs): their exact scan
/// ignores every field.
#[derive(Clone, Debug)]
pub struct LanczosOptions {
    /// Maximum total Lanczos iterations (matrix–vector products), across restarts.
    pub max_iterations: usize,
    /// Convergence tolerance on the change of the smallest Ritz value between iterations.
    pub tolerance: f64,
    /// Seed for the random starting vector.
    pub seed: u64,
    /// Maximum number of Krylov basis vectors held in memory at once.
    ///
    /// When the basis reaches this size the solver **restarts**: it collapses the basis
    /// to the current Ritz ground vector and continues iterating from there.  This
    /// bounds memory at `max_basis` statevectors (instead of up to `max_iterations` of
    /// them), which is what makes >20-qubit reference energies feasible — a 22-qubit
    /// basis vector is 64 MiB, so 200 un-restarted iterations would hold 12.5 GiB while
    /// the default cap holds under 2 GiB.  Restarting costs extra iterations (the
    /// classic explicit-restart trade-off) but not accuracy: convergence is still
    /// monitored on the global Ritz value.
    pub max_basis: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iterations: 200,
            tolerance: 1e-12,
            seed: 7,
            max_basis: 32,
        }
    }
}

/// Result of a ground-state computation.
#[derive(Clone, Debug)]
pub struct GroundState {
    /// The ground-state energy (smallest eigenvalue): exact for a diagonal operator,
    /// the converged Ritz value otherwise.
    pub energy: f64,
    /// The corresponding eigenvector (a computational basis state for a diagonal
    /// operator).
    pub state: Statevector,
    /// Number of Lanczos iterations performed (0 for a diagonal operator).
    pub iterations: usize,
}

/// Computes the ground state (smallest eigenvalue and eigenvector) of a Hermitian
/// [`PauliOp`].
///
/// A diagonal operator (no term carries an `X` or `Y`) is solved exactly by scanning its
/// diagonal: the result is the basis state `|b*⟩` of the lowest energy — the lowest such
/// index on a tie — with `iterations: 0`, and `options` is ignored.  Any other operator
/// runs the Lanczos algorithm with full re-orthogonalization under `options`.
///
/// # Examples
///
/// ```
/// use qop::{ground_state, LanczosOptions, PauliOp};
///
/// // H = -X has eigenvalues ±1; the ground state is |+⟩ with energy -1.
/// let h = PauliOp::from_labels(1, &[("X", -1.0)]);
/// let gs = ground_state(&h, &LanczosOptions::default());
/// assert!((gs.energy + 1.0).abs() < 1e-9);
///
/// // H = Z0 Z1 is diagonal: |01⟩ and |10⟩ tie at -1, and the lower index wins.
/// let zz = PauliOp::from_labels(2, &[("ZZ", 1.0)]);
/// let gs = ground_state(&zz, &LanczosOptions::default());
/// assert_eq!((gs.energy, gs.iterations), (-1.0, 0));
/// assert_eq!(gs.state.probability(0b01), 1.0);
/// ```
///
/// # Panics
///
/// Panics if the operator acts on more than 30 qubits.
pub fn ground_state(op: &PauliOp, options: &LanczosOptions) -> GroundState {
    if is_diagonal(op) {
        let (energy, index) = diagonal_minimum(op);
        return GroundState {
            energy,
            state: Statevector::basis_state(op.num_qubits(), index),
            iterations: 0,
        };
    }
    lanczos(op, options)
}

/// The ground-state energy alone: [`ground_state`]`(op, options).energy`, bit for bit.
///
/// On a diagonal operator it scans the diagonal without allocating any state, and
/// `options` is ignored.
pub fn ground_energy(op: &PauliOp, options: &LanczosOptions) -> f64 {
    if is_diagonal(op) {
        diagonal_minimum(op).0
    } else {
        lanczos(op, options).energy
    }
}

/// Whether every term is a product of `I` and `Z` only.
fn is_diagonal(op: &PauliOp) -> bool {
    op.terms().iter().all(|t| t.string.x_mask() == 0)
}

/// The smallest diagonal entry of a diagonal operator and the lowest basis index that
/// attains it.
///
/// Basis states are walked in blocks of up to 256: per block, each term contributes
/// `c_k · sign(block bits) · low[j]` (the [`crate::lanes::SignTable`] factorization
/// over memoized low tables, every product an exact `±c_k`), so each state's energy is
/// the serial left fold `((0 + s_0 c_0) + s_1 c_1) + …` in term order.
fn diagonal_minimum(op: &PauliOp) -> (f64, u64) {
    let n = op.num_qubits();
    assert!(n <= 30, "exact diagonal scans are limited to 30 qubits");
    let dim = 1usize << n;
    let block = dim.min(SIGN_BLOCK);
    let mut energies = [0.0f64; SIGN_BLOCK];
    let energies = &mut energies[..block];
    let (mut best, mut best_index) = (f64::INFINITY, 0u64);
    for start in (0..dim).step_by(block) {
        energies.fill(0.0);
        for term in op.terms() {
            let z = term.string.z_mask();
            let c = term.coefficient * parity_sign(start as u64 & z & !(SIGN_BLOCK as u64 - 1));
            for (e, s) in energies.iter_mut().zip(low_sign_table(z as u8)) {
                *e += c * s;
            }
        }
        for (j, &e) in energies.iter().enumerate() {
            if e < best {
                best = e;
                best_index = (start + j) as u64;
            }
        }
    }
    (best, best_index)
}

/// Lanczos with full re-orthogonalization and explicit restarts (see
/// [`LanczosOptions::max_basis`]).
fn lanczos(op: &PauliOp, options: &LanczosOptions) -> GroundState {
    let n = op.num_qubits();
    let dim = 1usize << n;
    // Total matrix–vector budget.  Deliberately NOT capped at `dim`: restarts discard
    // subspace information, so a restarted run can legitimately need more than `dim`
    // products even though any single cycle cannot hold more than `dim` basis vectors.
    let m_max = options.max_iterations.max(1);
    // Memory cap: at most this many basis vectors are ever alive (plus v0/w scratch).
    // Below 3 the restarted iteration degenerates to steepest descent, which can
    // stagnate, so 3 is the enforced floor; above `dim` the extra slots are unreachable
    // (the Krylov space exhausts first).
    let basis_cap = options.max_basis.clamp(3, dim.max(3));

    // Random normalized start vector (real entries suffice for a Hermitian operator but we
    // keep complex to be general — some Hamiltonians have Y terms with complex eigenvectors).
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut v0 = Statevector::zero_state(n).zeros_like();
    {
        // Draw re then im per amplitude (the RNG-stream order of the interleaved layout,
        // preserved across the split-lane storage change so seeds reproduce).
        let (re, im) = v0.lanes_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            *r = rng.random::<f64>() - 0.5;
            *i = rng.random::<f64>() - 0.5;
        }
    }
    v0.normalize();

    // Reusable scratch statevector: `w` receives `H|v_j⟩` (no allocation)
    // and is then orthogonalized in place each iteration.  The only per-iteration
    // allocation left is the clone that turns an *accepted* Krylov vector into a basis
    // entry — storage that must outlive the inner loop anyway, and is bounded by
    // `basis_cap` thanks to the restart.
    let mut w = v0.zeros_like();
    let mut basis: Vec<Statevector> = Vec::new();
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut last_ritz = f64::INFINITY;
    let mut total_iters = 0usize;

    // Reconstructs the current cycle's Ritz ground pair from (alphas, betas, basis).
    let ritz_ground = |alphas: &[f64], betas: &[f64], basis: &[Statevector]| {
        let (vals, vecs) = tridiag_eigen(alphas, &betas[..alphas.len().saturating_sub(1)]);
        let (min_idx, &energy) = vals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("tridiagonal eigenproblem returned no eigenvalues");
        let mut state = basis[0].zeros_like();
        for (k, b) in basis.iter().enumerate().take(alphas.len()) {
            state.axpy(Complex64::from_real(vecs[k][min_idx]), b);
        }
        state.normalize();
        (energy, state)
    };

    // Outer restart loop: each cycle grows a Krylov basis of at most `basis_cap` vectors
    // from the current start vector, then (if neither converged nor out of budget)
    // collapses it to the Ritz ground vector and goes again.  The Ritz value decreases
    // monotonically across restarts (each cycle's space contains its start vector), so
    // the global convergence check stays valid.
    'outer: loop {
        basis.clear();
        basis.push(v0.clone());
        alphas.clear();
        betas.clear();
        let mut done = false;

        while total_iters < m_max {
            let j = alphas.len();
            op.apply_into(&basis[j], &mut w);
            let alpha = basis[j].inner(&w).re;
            alphas.push(alpha);
            total_iters += 1;

            // w = w - alpha*vj - beta_{j-1}*v_{j-1}
            w.axpy(Complex64::from_real(-alpha), &basis[j]);
            if j > 0 {
                let beta_prev = betas[j - 1];
                w.axpy(Complex64::from_real(-beta_prev), &basis[j - 1]);
            }
            // Full re-orthogonalization against the cycle's basis: two modified
            // Gram-Schmidt sweeps, each coefficient taken against the already-updated
            // `w` (one sweep is enough at our problem sizes; the second is for safety).
            for _ in 0..2 {
                for b in &basis {
                    let coeff = b.inner(&w);
                    if coeff.norm() > 0.0 {
                        w.axpy(-coeff, b);
                    }
                }
            }

            // Ritz value check (global across restarts).  The cycle-length guard keeps a
            // fresh restart — whose first Ritz value *equals* the collapsed vector's
            // energy by construction — from declaring spurious convergence.
            let current = tridiag_eigenvalues(&alphas, &betas, None)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            if (last_ritz - current).abs() < options.tolerance && alphas.len() > 2 {
                done = true;
                break;
            }
            last_ritz = current;

            let beta = w.norm();
            if beta < 1e-14 {
                // Krylov space exhausted (exact invariant subspace found).
                done = true;
                break;
            }
            if basis.len() == basis_cap {
                // Memory cap reached: restart from the Ritz ground vector.
                break;
            }
            let mut next = w.clone();
            next.scale(1.0 / beta);
            betas.push(beta);
            basis.push(next);
        }

        if done || total_iters >= m_max {
            break 'outer;
        }
        let (_, restart) = ritz_ground(&alphas, &betas, &basis);
        v0 = restart;
    }

    let (energy, state) = ritz_ground(&alphas, &betas, &basis);
    GroundState {
        energy,
        state,
        iterations: total_iters,
    }
}

/// Eigen-decomposition of a real symmetric tridiagonal matrix (diagonal `alphas`,
/// off-diagonal `betas`) via the implicit QL algorithm.
///
/// Returns `(eigenvalues, eigenvectors)` where `eigenvectors[row][col]` is component `row`
/// of eigenvector `col` (columns match the eigenvalue order).
fn tridiag_eigen(alphas: &[f64], betas: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = alphas.len();
    // z starts as identity; accumulates the rotations.
    let mut z = vec![vec![0.0f64; n]; n];
    for (i, row) in z.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    let d = tridiag_eigenvalues(alphas, betas, Some(&mut z[..]));
    (d, z)
}

/// The implicit QL sweep behind [`tridiag_eigen`]: returns the eigenvalues and applies
/// every rotation to the rows of `vectors` when given.  The sweep never reads the
/// rotations back, so the values are bit-identical with or without them; the
/// per-iteration Ritz check passes `None` and skips the O(m³) accumulation.
fn tridiag_eigenvalues(
    alphas: &[f64],
    betas: &[f64],
    mut vectors: Option<&mut [Vec<f64>]>,
) -> Vec<f64> {
    let n = alphas.len();
    if n == 0 {
        return Vec::new();
    }
    let mut d: Vec<f64> = alphas.to_vec();
    let mut e: Vec<f64> = vec![0.0; n];
    for (i, &b) in betas.iter().enumerate().take(n.saturating_sub(1)) {
        e[i] = b;
    }

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tridiagonal QL failed to converge");

            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate eigenvectors.
                for row in vectors.iter_mut().flat_map(|rows| rows.iter_mut()) {
                    f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn tridiag_eigen_matches_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let (vals, vecs) = tridiag_eigen(&[2.0, 2.0], &[1.0]);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(close(sorted[0], 1.0, 1e-12));
        assert!(close(sorted[1], 3.0, 1e-12));
        // Eigenvector columns are orthonormal.
        let dot = vecs[0][0] * vecs[0][1] + vecs[1][0] * vecs[1][1];
        assert!(dot.abs() < 1e-12);
    }

    #[test]
    fn single_qubit_ground_states() {
        let z = PauliOp::from_labels(1, &[("Z", 1.0)]);
        let gs = ground_state(&z, &LanczosOptions::default());
        assert!(close(gs.energy, -1.0, 1e-9));
        // Ground state of Z is |1>.
        assert!(close(gs.state.probability(1), 1.0, 1e-8));

        let x = PauliOp::from_labels(1, &[("X", -1.0)]);
        let gs = ground_state(&x, &LanczosOptions::default());
        assert!(close(gs.energy, -1.0, 1e-9));
        assert!(close(gs.state.probability(0), 0.5, 1e-8));
    }

    #[test]
    fn two_qubit_ising_ground_energy() {
        // H = -Z0Z1 - 0.5*(X0 + X1). Exact ground energy = -(1 + 0.25).sqrt()*... compute
        // via known closed form for 2-site TFIM with open boundary:
        // eigenvalues of [[-1, -h, -h, 0], [-h, 1, 0, -h], [-h, 0, 1, -h], [0, -h, -h, -1]]
        // with h=0.5 -> ground energy = -sqrt(1 + 4h^2) = -sqrt(2) for this construction?
        // Rather than rely on a closed form, compare against dense diagonalization via
        // power iteration on (c*I - H).
        let h = PauliOp::from_labels(2, &[("ZZ", -1.0), ("XI", -0.5), ("IX", -0.5)]);
        let gs = ground_state(&h, &LanczosOptions::default());
        let reference = dense_min_eigenvalue(&h);
        assert!(close(gs.energy, reference, 1e-8));
        // Eigenvector satisfies H|psi> = E|psi>.
        let hpsi = h.apply(&gs.state);
        let residual: f64 = hpsi
            .to_amplitudes()
            .iter()
            .zip(gs.state.to_amplitudes().iter())
            .map(|(a, b)| (*a - b.scale(gs.energy)).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(residual < 1e-6, "residual too large: {residual}");
    }

    #[test]
    fn restarted_lanczos_converges_with_a_tiny_basis_cap() {
        // Same 4-qubit Heisenberg chain as below, but with the Krylov basis capped far
        // below what unrestricted convergence needs: the explicit restart must still
        // reach the dense reference, just with more iterations.
        let mut h = PauliOp::zero(4);
        for i in 0..3usize {
            for axis in ['X', 'Y', 'Z'] {
                let mut label = vec!['I'; 4];
                label[i] = axis;
                label[i + 1] = axis;
                let label: String = label.into_iter().collect();
                h.add_term(crate::pauli::PauliString::from_label(&label).unwrap(), 1.0);
            }
        }
        let reference = dense_min_eigenvalue(&h);
        let capped = LanczosOptions {
            max_basis: 4,
            max_iterations: 400,
            ..Default::default()
        };
        let gs = ground_state(&h, &capped);
        assert!(
            close(gs.energy, reference, 1e-7),
            "capped basis: {} vs {}",
            gs.energy,
            reference
        );
        // Requests below the enforced floor of 3 are clamped, not honored blindly
        // (steepest-descent-sized spaces can stagnate); the result must still converge.
        let minimal = LanczosOptions {
            max_basis: 1,
            max_iterations: 800,
            ..Default::default()
        };
        let gs = ground_state(&h, &minimal);
        assert!(
            close(gs.energy, reference, 1e-6),
            "clamped cap: {} vs {}",
            gs.energy,
            reference
        );
    }

    #[test]
    fn four_qubit_heisenberg_matches_dense() {
        let mut h = PauliOp::zero(4);
        for i in 0..3usize {
            for axis in ["X", "Y", "Z"] {
                let mut label = vec!['I'; 4];
                label[i] = axis.chars().next().unwrap();
                label[i + 1] = axis.chars().next().unwrap();
                let label: String = label.into_iter().collect();
                h.add_term(crate::pauli::PauliString::from_label(&label).unwrap(), 1.0);
            }
        }
        let gs = ground_state(&h, &LanczosOptions::default());
        let reference = dense_min_eigenvalue(&h);
        assert!(
            close(gs.energy, reference, 1e-7),
            "{} vs {}",
            gs.energy,
            reference
        );
    }

    /// A random diagonal operator: an identity term, mixed-sign coefficients, and a
    /// repeat of an earlier string so duplicates are summed unsimplified.
    fn random_diagonal(n: usize, rng: &mut StdRng) -> PauliOp {
        let mut op = PauliOp::zero(n);
        op.add_term(
            crate::pauli::PauliString::identity(n),
            rng.random::<f64>() - 0.5,
        );
        for _ in 0..(2 + 2 * n) {
            let z = rng.random::<u64>() & ((1u64 << n) - 1);
            let c = 4.0 * (rng.random::<f64>() - 0.5);
            op.add_term(crate::pauli::PauliString::from_masks(0, z, n), c);
        }
        let repeat = op.terms()[1].string;
        op.add_term(repeat, -0.75);
        op
    }

    /// `E(b)` as the plain serial fold over the terms, one basis state at a time.
    fn brute_force_diagonal(op: &PauliOp) -> Vec<f64> {
        (0..1u64 << op.num_qubits())
            .map(|b| {
                op.terms().iter().fold(0.0, |acc, t| {
                    let odd = (b & t.string.z_mask()).count_ones() % 2 == 1;
                    acc + if odd { -t.coefficient } else { t.coefficient }
                })
            })
            .collect()
    }

    #[test]
    fn diagonal_scan_is_the_brute_force_minimum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(2024);
        for n in 1..=10 {
            for _ in 0..3 {
                let op = random_diagonal(n, &mut rng);
                let diagonal = brute_force_diagonal(&op);
                let min = diagonal.iter().copied().fold(f64::INFINITY, f64::min);
                let first = diagonal.iter().position(|&e| e == min).unwrap() as u64;
                let energy = ground_energy(&op, &LanczosOptions::default());
                assert_eq!(energy.to_bits(), min.to_bits(), "{n} qubits");
                assert_eq!(diagonal_minimum(&op), (min, first), "{n} qubits");

                // Lanczos approaches the same minimum from above.
                let krylov = lanczos(&op, &LanczosOptions::default()).energy;
                assert!(energy <= krylov + 1e-12, "{n} qubits: {energy} vs {krylov}");
                assert!(
                    close(energy, krylov, 1e-9),
                    "{n} qubits: {energy} vs {krylov}"
                );
            }
        }
    }

    #[test]
    fn degenerate_maxcut_returns_the_lowest_index_minimiser() {
        // −C of a weighted 4-cycle 0–1–2–3–0: every cut has a Z₂ partner (its complement).
        let mut op = PauliOp::zero(4);
        for (u, v, w) in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 0.5)] {
            op.add_term(crate::pauli::PauliString::identity(4), -0.5 * w);
            op.add_term(
                crate::pauli::PauliString::from_masks(0, (1 << u) | (1 << v), 4),
                0.5 * w,
            );
        }
        // The bipartite cycle's max cut takes every edge: {0, 2} | {1, 3}, at 0b1010
        // and its complement 0b0101; the lower index wins.
        let gs = ground_state(&op, &LanczosOptions::default());
        assert_eq!(gs.energy, -5.0);
        assert_eq!(gs.iterations, 0);
        assert_eq!(gs.state.probability(0b0101), 1.0);
        assert!(close(op.expectation(&gs.state), gs.energy, 1e-12));
    }

    #[test]
    fn one_off_diagonal_term_routes_to_lanczos() {
        let mut op = PauliOp::from_labels(3, &[("ZZI", -1.0), ("IZZ", 0.5), ("III", 0.25)]);
        assert_eq!(ground_state(&op, &LanczosOptions::default()).iterations, 0);
        op.add_term(crate::pauli::PauliString::from_label("IXI").unwrap(), 1e-9);
        assert!(ground_state(&op, &LanczosOptions::default()).iterations > 0);
    }

    #[test]
    fn ground_energy_is_ground_state_energy_on_both_paths() {
        let opts = LanczosOptions::default();
        let diagonal = PauliOp::from_labels(3, &[("ZZI", -1.0), ("IZZ", 0.7), ("ZIZ", 0.3)]);
        let mut general = diagonal.clone();
        general.add_term(crate::pauli::PauliString::from_label("XII").unwrap(), -0.4);
        for op in [&diagonal, &general] {
            assert_eq!(
                ground_energy(op, &opts).to_bits(),
                ground_state(op, &opts).energy.to_bits()
            );
        }
    }

    #[test]
    fn eigenvalue_only_ql_matches_the_vector_form_bit_for_bit() {
        let alphas = [1.5, -0.25, 2.0, 0.75, -1.0];
        let betas = [0.5, 1.25, -0.3, 0.8];
        let values = tridiag_eigenvalues(&alphas, &betas, None);
        let (with_vectors, _) = tridiag_eigen(&alphas, &betas);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&with_vectors));
    }

    /// Brute-force smallest eigenvalue via inverse-free power iteration on (sigma*I - H),
    /// good enough as an independent reference for tiny systems in tests.
    fn dense_min_eigenvalue(h: &PauliOp) -> f64 {
        let shift = h.l1_norm() + 1.0;
        // (shift*I - H) is positive definite with largest eigenvalue shift - E_min.
        let mut v = Statevector::uniform_superposition(h.num_qubits());
        // Slightly perturb to avoid orthogonal start.
        {
            let (re, im) = v.lanes_mut();
            for (i, (r, im_)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
                *r += 1e-3 * ((i % 7) as f64);
                *im_ += 1e-3 * ((i % 3) as f64);
            }
        }
        v.normalize();
        let mut lambda = 0.0;
        for _ in 0..5000 {
            let hv = h.apply(&v);
            let mut next = v.clone();
            next.scale(shift);
            next.axpy(Complex64::from_real(-1.0), &hv);
            let n = next.normalize();
            lambda = n;
            v = next;
        }
        shift - lambda
    }
}
