//! Similarity matrices and spectral clustering (normalized-Laplacian bipartition).
//!
//! Implements the split machinery of the paper's Section 5.2.4–5.2.5: pairwise distances
//! are turned into a Gaussian (RBF) affinity matrix with the median pairwise distance as
//! the bandwidth, and a cluster split partitions its members by spectral clustering on
//! that affinity matrix (normalized Laplacian → leading eigenvectors → k-means).

use crate::eigen::symmetric_eigen;
use crate::kmeans::kmeans;

/// A symmetric affinity (similarity) matrix over N items.
#[derive(Clone, Debug, PartialEq)]
pub struct SimilarityMatrix {
    values: Vec<Vec<f64>>,
}

impl SimilarityMatrix {
    /// Wraps an explicit symmetric matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or not symmetric.
    pub fn new(values: Vec<Vec<f64>>) -> Self {
        let n = values.len();
        for (i, row) in values.iter().enumerate() {
            assert_eq!(row.len(), n, "similarity matrix must be square");
            for (j, &v) in row.iter().enumerate() {
                assert!(
                    (v - values[j][i]).abs() < 1e-9,
                    "similarity matrix must be symmetric"
                );
            }
        }
        SimilarityMatrix { values }
    }

    /// Builds the Gaussian (RBF) affinity matrix `S_ij = exp(−d_ij² / (2σ²))` from a
    /// pairwise distance matrix, with `σ` equal to the median non-zero pairwise distance
    /// (the paper's choice).  If every distance is zero (identical items), all affinities
    /// are 1.
    ///
    /// # Panics
    ///
    /// Panics if `distances` is not square/symmetric.
    pub fn from_distances(distances: &[Vec<f64>]) -> Self {
        let n = distances.len();
        let mut off_diag: Vec<f64> = Vec::new();
        for (i, row) in distances.iter().enumerate() {
            assert_eq!(row.len(), n, "distance matrix must be square");
            for (j, &d) in row.iter().enumerate() {
                assert!(
                    (d - distances[j][i]).abs() < 1e-9,
                    "distance matrix must be symmetric"
                );
                if i < j {
                    off_diag.push(d);
                }
            }
        }
        let sigma = median(&mut off_diag).max(1e-12);
        let values = distances
            .iter()
            .map(|row| {
                row.iter()
                    .map(|d| (-(d * d) / (2.0 * sigma * sigma)).exp())
                    .collect()
            })
            .collect();
        SimilarityMatrix { values }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the matrix covers zero items.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The affinity between items `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i][j]
    }

    /// The raw matrix.
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// The symmetric normalized Laplacian `L = I − D^{-1/2} S D^{-1/2}`.
    pub fn normalized_laplacian(&self) -> Vec<Vec<f64>> {
        let n = self.len();
        let degrees: Vec<f64> = self.values.iter().map(|row| row.iter().sum()).collect();
        let inv_sqrt: Vec<f64> = degrees
            .iter()
            .map(|&d| if d > 1e-300 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut lap = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                let norm = inv_sqrt[i] * self.values[i][j] * inv_sqrt[j];
                lap[i][j] = if i == j { 1.0 - norm } else { -norm };
            }
        }
        lap
    }
}

/// Splits N items into two groups by spectral clustering on their affinity matrix.
///
/// Returns a label (0 or 1) per item.  Both groups are guaranteed non-empty for `N ≥ 2`
/// (falling back to a Fiedler-vector median split if k-means collapses).
///
/// # Panics
///
/// Panics if the matrix has fewer than 2 items.
///
/// # Examples
///
/// ```
/// use cluster::{spectral_bipartition, SimilarityMatrix};
///
/// // Two obvious groups: {0, 1} similar to each other, {2, 3} similar to each other.
/// let s = SimilarityMatrix::new(vec![
///     vec![1.0, 0.9, 0.1, 0.1],
///     vec![0.9, 1.0, 0.1, 0.1],
///     vec![0.1, 0.1, 1.0, 0.9],
///     vec![0.1, 0.1, 0.9, 1.0],
/// ]);
/// let labels = spectral_bipartition(&s, 7);
/// assert_eq!(labels[0], labels[1]);
/// assert_eq!(labels[2], labels[3]);
/// assert_ne!(labels[0], labels[2]);
/// ```
pub fn spectral_bipartition(similarity: &SimilarityMatrix, seed: u64) -> Vec<usize> {
    let n = similarity.len();
    assert!(n >= 2, "cannot bipartition fewer than two items");
    if n == 2 {
        return vec![0, 1];
    }

    let laplacian = similarity.normalized_laplacian();
    let eig = symmetric_eigen(&laplacian);

    // Embed each item with the two smallest-eigenvalue eigenvectors and row-normalize.
    let embedding: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let raw = vec![eig.eigenvectors[0][i], eig.eigenvectors[1][i]];
            let norm: f64 = raw.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 1e-12 {
                raw.into_iter().map(|v| v / norm).collect()
            } else {
                raw
            }
        })
        .collect();

    let result = kmeans(&embedding, 2, 200, seed);
    let count0 = result.labels.iter().filter(|&&l| l == 0).count();
    if count0 > 0 && count0 < n {
        return result.labels;
    }

    // Fallback: split by the median of the Fiedler vector (second-smallest eigenvector).
    let fiedler = &eig.eigenvectors[1];
    let mut sorted: Vec<f64> = fiedler.clone();
    let med = median(&mut sorted);
    let mut labels: Vec<usize> = fiedler.iter().map(|&v| usize::from(v > med)).collect();
    // Guarantee both sides are non-empty even with ties at the median.
    if labels.iter().all(|&l| l == labels[0]) {
        let (argmax, _) = fiedler
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        for (i, l) in labels.iter_mut().enumerate() {
            *l = usize::from(i == argmax);
        }
    }
    labels
}

/// Median of a slice (sorts the provided buffer). Returns 0.0 for an empty slice.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = values.len() / 2;
    if values.len() % 2 == 0 {
        0.5 * (values[mid - 1] + values[mid])
    } else {
        values[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_affinity_is_one_on_diagonal_and_decreasing() {
        let distances = vec![
            vec![0.0, 1.0, 4.0],
            vec![1.0, 0.0, 3.0],
            vec![4.0, 3.0, 0.0],
        ];
        let s = SimilarityMatrix::from_distances(&distances);
        for i in 0..3 {
            assert!((s.get(i, i) - 1.0).abs() < 1e-12);
        }
        assert!(
            s.get(0, 1) > s.get(0, 2),
            "closer pairs must be more similar"
        );
        assert!(s.get(0, 1) <= 1.0 && s.get(0, 2) > 0.0);
    }

    #[test]
    fn identical_items_produce_full_affinity() {
        let distances = vec![vec![0.0; 3]; 3];
        let s = SimilarityMatrix::from_distances(&distances);
        for i in 0..3 {
            for j in 0..3 {
                assert!((s.get(i, j) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn laplacian_rows_reflect_normalization() {
        let s = SimilarityMatrix::new(vec![vec![1.0, 0.5], vec![0.5, 1.0]]);
        let lap = s.normalized_laplacian();
        // Symmetric, diagonal in (0, 1], off-diagonal negative.
        assert!((lap[0][1] - lap[1][0]).abs() < 1e-12);
        assert!(lap[0][0] > 0.0 && lap[0][0] <= 1.0);
        assert!(lap[0][1] < 0.0);
    }

    #[test]
    fn bipartition_of_two_chains_groups_neighbours() {
        // Items 0-4 close together, 5-9 close together, large gap between groups.
        let positions: Vec<f64> = (0..5)
            .map(|i| i as f64 * 0.1)
            .chain((0..5).map(|i| 10.0 + i as f64 * 0.1))
            .collect();
        let n = positions.len();
        let distances: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| (positions[i] - positions[j]).abs())
                    .collect()
            })
            .collect();
        let s = SimilarityMatrix::from_distances(&distances);
        let labels = spectral_bipartition(&s, 11);
        for i in 1..5 {
            assert_eq!(labels[i], labels[0]);
        }
        for i in 6..10 {
            assert_eq!(labels[i], labels[5]);
        }
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn two_items_always_split() {
        let s = SimilarityMatrix::new(vec![vec![1.0, 0.99], vec![0.99, 1.0]]);
        let labels = spectral_bipartition(&s, 0);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn bipartition_always_produces_two_nonempty_groups() {
        // Nearly uniform similarities: hard case where k-means may collapse.
        let n = 7;
        let values: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.8 }).collect())
            .collect();
        let s = SimilarityMatrix::new(values);
        let labels = spectral_bipartition(&s, 5);
        let zeros = labels.iter().filter(|&&l| l == 0).count();
        assert!(zeros > 0 && zeros < n);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }
}
