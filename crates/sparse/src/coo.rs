//! Coordinate (triplet) sparse format, used for assembly.

use std::collections::TryReserveError;

/// A sparse matrix in coordinate format: a list of `(row, col, value)` triplets.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Create an empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Create with pre-allocated capacity for `nnz` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// [`CooMatrix::with_capacity`], returning an allocation the host refuses as an
    /// error instead of aborting.
    pub fn try_with_capacity(
        nrows: usize,
        ncols: usize,
        nnz: usize,
    ) -> Result<Self, TryReserveError> {
        let mut entries = Vec::new();
        entries.try_reserve_exact(nnz)?;
        Ok(Self {
            nrows,
            ncols,
            entries,
        })
    }

    /// Add an entry.  Duplicate coordinates are allowed and are summed on conversion to
    /// CSR (the usual assembly convention).
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row}, {col}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, value));
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (before duplicate summing).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored triplets.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Dense `row x col` representation (tests / small problems only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.ncols]; self.nrows];
        for &(i, j, v) in &self.entries {
            dense[i][j] += v;
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut m = CooMatrix::with_capacity(3, 4, 2);
        m.push(0, 1, 2.0);
        m.push(2, 3, -1.0);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.entries()[1], (2, 3, -1.0));
    }

    #[test]
    fn duplicates_sum_in_dense_view() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 1, 2.0);
        m.push(1, 1, 3.0);
        assert_eq!(m.to_dense()[1][1], 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_rejected() {
        let mut m = CooMatrix::new(2, 2);
        m.push(2, 0, 1.0);
    }
}
