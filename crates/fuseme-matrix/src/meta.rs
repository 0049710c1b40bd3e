//! Matrix metadata: logical shape, block grid geometry, and size estimates.
//!
//! All of FuseME's planning (fusion scopes, `(P,Q,R)` cuboid partitioning,
//! memory/communication estimation) happens at the granularity of *blocks*,
//! so the metadata layer must answer questions like "how many block rows does
//! this matrix have" and "how many bytes does one block of it occupy" without
//! touching data.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::{DENSE_FORMAT_THRESHOLD, ELEM_BYTES, SPARSE_FORMAT_THRESHOLD};

/// Structural *upper bound* on the density of a matrix product whose
/// operands have densities `d1`/`d2` and shared dimension `k`: the union
/// bound `min(1, d1·d2·k)`. This is the density the executor's nnz upper
/// bound implies at the matrix level — it never undershoots the actual
/// product density, unlike the expected-value estimate `1 - (1 - d1·d2)^k`
/// the plan builder uses for sparsity-exploitation gates.
pub fn matmul_ub_density(d1: f64, d2: f64, k: usize) -> f64 {
    (d1.clamp(0.0, 1.0) * d2.clamp(0.0, 1.0) * k as f64).min(1.0)
}

/// Logical (element-level) shape of a matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    /// Number of element rows.
    pub rows: usize,
    /// Number of element columns.
    pub cols: usize,
}

impl Shape {
    /// Creates a new shape.
    pub const fn new(rows: usize, cols: usize) -> Self {
        Shape { rows, cols }
    }

    /// Total number of elements (`rows * cols`).
    pub fn elements(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// The transposed shape.
    pub fn transposed(&self) -> Shape {
        Shape::new(self.cols, self.rows)
    }

    /// `true` if this is a `1x1` shape, i.e. a scalar carried as a matrix.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }
}

/// Block-grid geometry for a matrix partitioned into square tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockGrid {
    /// Number of block rows (the paper's `I` for a main matrix).
    pub block_rows: usize,
    /// Number of block columns (the paper's `J`).
    pub block_cols: usize,
}

impl BlockGrid {
    /// Total number of blocks in the grid.
    pub fn num_blocks(&self) -> u64 {
        self.block_rows as u64 * self.block_cols as u64
    }

    /// Iterates all `(bi, bj)` coordinates row-major, deterministically.
    pub fn coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.block_cols;
        (0..self.block_rows).flat_map(move |bi| (0..cols).map(move |bj| (bi, bj)))
    }
}

/// Full metadata of a blocked matrix: shape, block size, and (estimated)
/// sparsity. This travels with every plan node; the optimizer's `size()`
/// function (paper §3.3) is [`MatrixMeta::size_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixMeta {
    /// Logical element shape.
    pub shape: Shape,
    /// Edge length of the square blocks (the paper uses 1000; our scaled
    /// experiments use 64–128).
    pub block_size: usize,
    /// Fraction of non-zero elements in `[0, 1]`. Dense matrices use `1.0`.
    pub density: f64,
}

impl MatrixMeta {
    /// Creates metadata for a dense matrix.
    pub fn dense(rows: usize, cols: usize, block_size: usize) -> Self {
        MatrixMeta {
            shape: Shape::new(rows, cols),
            block_size,
            density: 1.0,
        }
    }

    /// Creates metadata for a sparse matrix with the given density estimate.
    pub fn sparse(rows: usize, cols: usize, block_size: usize, density: f64) -> Self {
        MatrixMeta {
            shape: Shape::new(rows, cols),
            block_size,
            density,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.block_size == 0 {
            return Err(Error::InvalidMeta("block_size must be positive".into()));
        }
        if self.shape.rows == 0 || self.shape.cols == 0 {
            return Err(Error::InvalidMeta(format!(
                "shape {}x{} must be non-empty",
                self.shape.rows, self.shape.cols
            )));
        }
        if !(0.0..=1.0).contains(&self.density) {
            return Err(Error::InvalidMeta(format!(
                "density {} outside [0, 1]",
                self.density
            )));
        }
        Ok(())
    }

    /// Block-grid geometry implied by shape and block size.
    pub fn grid(&self) -> BlockGrid {
        BlockGrid {
            block_rows: self.shape.rows.div_ceil(self.block_size),
            block_cols: self.shape.cols.div_ceil(self.block_size),
        }
    }

    /// Element dimensions of the block at grid coordinate `(bi, bj)`;
    /// boundary blocks may be smaller than `block_size`.
    pub fn block_dims(&self, bi: usize, bj: usize) -> (usize, usize) {
        let grid = self.grid();
        debug_assert!(bi < grid.block_rows && bj < grid.block_cols);
        let r = if bi + 1 == grid.block_rows && !self.shape.rows.is_multiple_of(self.block_size) {
            self.shape.rows % self.block_size
        } else {
            self.block_size
        };
        let c = if bj + 1 == grid.block_cols && !self.shape.cols.is_multiple_of(self.block_size) {
            self.shape.cols % self.block_size
        } else {
            self.block_size
        };
        (r, c)
    }

    /// Estimated number of non-zero elements in the whole matrix.
    pub fn nnz_estimate(&self) -> u64 {
        (self.shape.elements() as f64 * self.density).round() as u64
    }

    /// Estimated in-memory / on-wire size in bytes of the whole matrix.
    ///
    /// Dense matrices cost `rows * cols * 8`; sparse matrices cost
    /// `nnz * 12` (8-byte value + 4-byte column index) plus row-pointer
    /// overhead, matching a CSR layout. This is the `size(v)` used by the
    /// paper's Eq. (3) and (4).
    pub fn size_bytes(&self) -> u64 {
        if self.is_effectively_dense() {
            self.shape.elements() * ELEM_BYTES
        } else {
            let nnz = self.nnz_estimate();
            // value + u32 column index per nnz, plus one usize per row of
            // row-pointer array (approximated as 8 bytes).
            nnz * (ELEM_BYTES + 4) + self.shape.rows as u64 * 8
        }
    }

    /// Whether a sparse representation would be larger than dense; kernels
    /// and estimates switch to dense above ~2/3 density, mirroring
    /// SystemML/SystemDS's format-selection threshold.
    pub fn is_effectively_dense(&self) -> bool {
        self.density > DENSE_FORMAT_THRESHOLD
    }

    /// Size in bytes the executor's format rule implies for `self * rhs`.
    ///
    /// Mirrors [`crate::Block::gemm_auto`]: when the structural density
    /// upper bound stays below the sparse-format threshold the product is
    /// stored in CSR, and CSR priced *at the upper bound* never undershoots
    /// the stored bytes; at or above the threshold the product may be kept
    /// dense, so the dense size is the worst case. `MemEst`/`NetEst` use
    /// this so the optimizer prices matmul intermediates with the same rule
    /// the kernels apply.
    pub fn matmul_out_size_bytes(&self, rhs: &MatrixMeta) -> u64 {
        let ub = matmul_ub_density(self.density, rhs.density, self.shape.cols);
        let out = Shape::new(self.shape.rows, rhs.shape.cols);
        if ub >= SPARSE_FORMAT_THRESHOLD {
            out.elements() * ELEM_BYTES
        } else {
            let nnz = (out.elements() as f64 * ub).round() as u64;
            nnz * (ELEM_BYTES + 4) + out.rows as u64 * 8
        }
    }

    /// Metadata of the transposed matrix.
    pub fn transposed(&self) -> MatrixMeta {
        MatrixMeta {
            shape: self.shape.transposed(),
            ..*self
        }
    }

    /// Estimated floating-point operations for multiplying `self * rhs`,
    /// exploiting the left operand's sparsity (each stored non-zero of the
    /// left matrix contributes `2 * rhs.cols` flops).
    pub fn matmul_flops(&self, rhs: &MatrixMeta) -> u64 {
        let nnz_left = self.nnz_estimate();
        2 * nnz_left * rhs.shape.cols as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rounds_up() {
        let m = MatrixMeta::dense(1001, 2000, 1000);
        let g = m.grid();
        assert_eq!(g.block_rows, 2);
        assert_eq!(g.block_cols, 2);
        assert_eq!(g.num_blocks(), 4);
    }

    #[test]
    fn boundary_block_dims() {
        let m = MatrixMeta::dense(1001, 2000, 1000);
        assert_eq!(m.block_dims(0, 0), (1000, 1000));
        assert_eq!(m.block_dims(1, 0), (1, 1000));
        assert_eq!(m.block_dims(1, 1), (1, 1000));
    }

    #[test]
    fn dense_size_bytes() {
        let m = MatrixMeta::dense(100, 100, 10);
        assert_eq!(m.size_bytes(), 100 * 100 * 8);
    }

    #[test]
    fn sparse_size_smaller_than_dense() {
        let sparse = MatrixMeta::sparse(1000, 1000, 100, 0.01);
        let dense = MatrixMeta::dense(1000, 1000, 100);
        assert!(sparse.size_bytes() < dense.size_bytes());
    }

    #[test]
    fn high_density_treated_dense() {
        let m = MatrixMeta::sparse(100, 100, 10, 0.9);
        assert!(m.is_effectively_dense());
        assert_eq!(m.size_bytes(), 100 * 100 * 8);
    }

    #[test]
    fn coords_row_major() {
        let g = BlockGrid {
            block_rows: 2,
            block_cols: 3,
        };
        let coords: Vec<_> = g.coords().collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn validate_rejects_bad_meta() {
        assert!(MatrixMeta::dense(0, 10, 10).validate().is_err());
        assert!(MatrixMeta::dense(10, 10, 0).validate().is_err());
        assert!(MatrixMeta::sparse(10, 10, 10, 1.5).validate().is_err());
        assert!(MatrixMeta::sparse(10, 10, 10, 0.5).validate().is_ok());
    }

    #[test]
    fn transposed_swaps_shape() {
        let m = MatrixMeta::sparse(30, 20, 10, 0.1);
        let t = m.transposed();
        assert_eq!(t.shape, Shape::new(20, 30));
        assert_eq!(t.density, 0.1);
    }

    #[test]
    fn matmul_ub_density_bounds_and_clamps() {
        assert_eq!(matmul_ub_density(1.0, 1.0, 100), 1.0);
        assert_eq!(matmul_ub_density(0.01, 0.01, 100), 0.01);
        // The union bound is never below the expected-value estimate.
        let (d1, d2, k) = (0.05f64, 0.1f64, 50usize);
        let expected = 1.0 - (1.0 - d1 * d2).powi(k as i32);
        assert!(matmul_ub_density(d1, d2, k) >= expected);
    }

    #[test]
    fn matmul_out_size_prices_sparse_products_below_dense() {
        let x = MatrixMeta::sparse(1000, 1000, 100, 0.001);
        let v = MatrixMeta::sparse(1000, 100, 100, 0.001);
        let dense_out = 1000u64 * 100 * 8;
        // ub = 0.001 * 0.001 * 1000 = 0.001 < 0.4 → CSR pricing.
        assert!(x.matmul_out_size_bytes(&v) < dense_out);
        // Dense operands price densely (ub saturates at 1).
        let u = MatrixMeta::dense(1000, 100, 100);
        let xd = MatrixMeta::dense(1000, 1000, 100);
        assert_eq!(xd.matmul_out_size_bytes(&u), dense_out);
    }

    #[test]
    fn matmul_flops_scales_with_sparsity() {
        let dense = MatrixMeta::dense(100, 100, 10);
        let sparse = MatrixMeta::sparse(100, 100, 10, 0.1);
        let rhs = MatrixMeta::dense(100, 50, 10);
        assert!(sparse.matmul_flops(&rhs) < dense.matmul_flops(&rhs));
        assert_eq!(dense.matmul_flops(&rhs), 2 * 100 * 100 * 50);
    }
}
