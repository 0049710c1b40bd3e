//! The dynamic dense/sparse block union.
//!
//! Physical operators work on [`Block`]s so the same fused kernel can run on
//! dense or sparse tiles; kernels pick a specialized path where one exists
//! (sparse GEMM, pattern-preserving multiply) and fall back to densification
//! otherwise — the same format-dispatch strategy SystemDS uses per block.

use serde::{Deserialize, Serialize};

use crate::dense::DenseBlock;
use crate::error::{Error, Result};
use crate::ops::{AggOp, BinOp, UnaryOp};
use crate::sparse::SparseBlock;

/// A matrix tile, either dense or CSR sparse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Block {
    /// Dense row-major tile.
    Dense(DenseBlock),
    /// Sparse CSR tile.
    Sparse(SparseBlock),
}

impl From<DenseBlock> for Block {
    fn from(b: DenseBlock) -> Self {
        Block::Dense(b)
    }
}

impl From<SparseBlock> for Block {
    fn from(b: SparseBlock) -> Self {
        Block::Sparse(b)
    }
}

impl Block {
    /// A zero block stored sparsely (no entries).
    pub fn zero(rows: usize, cols: usize) -> Block {
        Block::Sparse(SparseBlock::empty(rows, cols))
    }

    /// Number of element rows.
    pub fn rows(&self) -> usize {
        match self {
            Block::Dense(b) => b.rows(),
            Block::Sparse(b) => b.rows(),
        }
    }

    /// Number of element columns.
    pub fn cols(&self) -> usize {
        match self {
            Block::Dense(b) => b.cols(),
            Block::Sparse(b) => b.cols(),
        }
    }

    /// Number of stored non-zero values.
    pub fn nnz(&self) -> usize {
        match self {
            Block::Dense(b) => b.nnz(),
            Block::Sparse(b) => b.nnz(),
        }
    }

    /// `true` if stored sparsely.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Block::Sparse(_))
    }

    /// In-memory / on-wire size in bytes. This is what the simulator's
    /// communication ledger charges when a block crosses the (simulated)
    /// network.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Block::Dense(b) => b.size_bytes(),
            Block::Sparse(b) => b.size_bytes(),
        }
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            Block::Dense(b) => b.get(r, c),
            Block::Sparse(b) => b.get(r, c),
        }
    }

    /// Returns a dense copy (or the dense block itself, cloned).
    pub fn to_dense(&self) -> DenseBlock {
        match self {
            Block::Dense(b) => b.clone(),
            Block::Sparse(b) => b.to_dense(),
        }
    }

    /// Unary element-wise operation. Sparse blocks stay sparse under
    /// zero-preserving ops and densify otherwise.
    pub fn map(&self, op: UnaryOp) -> Block {
        match self {
            Block::Dense(b) => Block::Dense(b.map(op)),
            Block::Sparse(b) => match b.map(op) {
                Some(s) => Block::Sparse(s),
                None => Block::Dense(b.to_dense().map(op)),
            },
        }
    }

    /// Binary element-wise operation between two blocks.
    pub fn zip(&self, rhs: &Block, op: BinOp) -> Result<Block> {
        match (self, rhs) {
            (Block::Dense(a), Block::Dense(b)) => Ok(Block::Dense(a.zip(b, op)?)),
            (Block::Sparse(a), Block::Sparse(b)) => Ok(Block::Sparse(a.zip_sparse(b, op)?)),
            (Block::Sparse(a), Block::Dense(b)) => {
                if op.zero_dominant() {
                    Ok(Block::Sparse(a.mul_dense(b)?))
                } else {
                    Ok(Block::Dense(a.zip_dense(b, op)?))
                }
            }
            (Block::Dense(a), Block::Sparse(b)) => {
                if op.zero_dominant() {
                    // a * b == b * a for element-wise multiply.
                    Ok(Block::Sparse(b.mul_dense(a)?))
                } else {
                    let b_dense = b.to_dense();
                    Ok(Block::Dense(a.zip(&b_dense, op)?))
                }
            }
        }
    }

    /// Binary element-wise with a scalar on the right (`self op scalar`).
    /// Sparse stays sparse only when `0 op scalar == 0`.
    pub fn zip_scalar(&self, scalar: f64, op: BinOp) -> Block {
        match self {
            Block::Dense(b) => Block::Dense(b.zip_scalar(scalar, op)),
            Block::Sparse(b) => {
                if op.apply(0.0, scalar) == 0.0 {
                    // Rebuild from the (already sorted) iteration order,
                    // dropping any entries that became zero.
                    let triples: Vec<_> = b
                        .iter()
                        .map(|(r, c, v)| (r, c, op.apply(v, scalar)))
                        .filter(|&(_, _, v)| v != 0.0)
                        .collect();
                    Block::Sparse(SparseBlock::from_sorted_triples(
                        b.rows(),
                        b.cols(),
                        triples,
                    ))
                } else {
                    Block::Dense(b.to_dense().zip_scalar(scalar, op))
                }
            }
        }
    }

    /// Binary element-wise with a scalar on the left (`scalar op self`).
    pub fn scalar_zip(&self, scalar: f64, op: BinOp) -> Block {
        match self {
            Block::Dense(b) => Block::Dense(b.scalar_zip(scalar, op)),
            Block::Sparse(b) => {
                if op.apply(scalar, 0.0) == 0.0 {
                    let triples: Vec<_> = b
                        .iter()
                        .map(|(r, c, v)| (r, c, op.apply(scalar, v)))
                        .filter(|&(_, _, v)| v != 0.0)
                        .collect();
                    Block::Sparse(SparseBlock::from_sorted_triples(
                        b.rows(),
                        b.cols(),
                        triples,
                    ))
                } else {
                    Block::Dense(b.to_dense().scalar_zip(scalar, op))
                }
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Block {
        match self {
            Block::Dense(b) => Block::Dense(b.transpose()),
            Block::Sparse(b) => Block::Sparse(b.transpose()),
        }
    }

    /// Matrix-multiplies into an accumulator: `out += self * rhs`.
    pub fn gemm_acc(&self, rhs: &Block, out: &mut DenseBlock) -> Result<()> {
        match (self, rhs) {
            (Block::Dense(a), Block::Dense(b)) => a.gemm_acc(b, out),
            (Block::Sparse(a), Block::Dense(b)) => a.gemm_dense_acc(b, out),
            (Block::Dense(a), Block::Sparse(b)) => b.gemm_from_dense_acc(a, out),
            (Block::Sparse(a), Block::Sparse(b)) => a.gemm_sparse_acc(b, out),
        }
    }

    /// Matrix multiplication producing a fresh dense block.
    pub fn gemm(&self, rhs: &Block) -> Result<DenseBlock> {
        if self.cols() != rhs.rows() {
            return Err(Error::GemmMismatch {
                left_cols: self.cols(),
                right_rows: rhs.rows(),
            });
        }
        let mut out = DenseBlock::zeros(self.rows(), rhs.cols());
        self.gemm_acc(rhs, &mut out)?;
        Ok(out)
    }

    /// Structural upper bound on the non-zeros of `self * rhs`. Sparse left
    /// operands bound per output row via the Gustavson access pattern; a
    /// dense left operand may fill the whole product.
    pub fn gemm_nnz_upper_bound(&self, rhs: &Block) -> usize {
        match (self, rhs) {
            (Block::Sparse(a), Block::Sparse(b)) => a.gemm_nnz_upper_bound(b),
            (Block::Sparse(a), Block::Dense(b)) => a.gemm_dense_nnz_upper_bound(b.cols()),
            (Block::Dense(_), _) => self.rows() * rhs.cols(),
        }
    }

    /// Matrix multiplication that picks the output format from the nnz
    /// upper bound: below the 40% sparse threshold the product is built
    /// directly in CSR (Gustavson), otherwise densely with a final
    /// [`Block::compact`]. Because the bound never undershoots the actual
    /// nnz, the chosen format always agrees with what `compact` would pick
    /// for a sufficiently sparse result.
    pub fn gemm_auto(&self, rhs: &Block) -> Result<Block> {
        if self.cols() != rhs.rows() {
            return Err(Error::GemmMismatch {
                left_cols: self.cols(),
                right_rows: rhs.rows(),
            });
        }
        let elems = self.rows() * rhs.cols();
        let sparse_out = elems > 0
            && (self.gemm_nnz_upper_bound(rhs) as f64)
                < crate::SPARSE_FORMAT_THRESHOLD * elems as f64;
        match (self, rhs) {
            (Block::Sparse(a), Block::Sparse(b)) if sparse_out => {
                Ok(Block::Sparse(a.gemm_sparse(b)?))
            }
            (Block::Sparse(a), Block::Dense(b)) if sparse_out => {
                Ok(Block::Sparse(a.gemm_dense_sparse_out(b)?))
            }
            _ => Ok(Block::Dense(self.gemm(rhs)?).compact()),
        }
    }

    /// Full aggregation to a scalar.
    pub fn agg(&self, op: AggOp) -> f64 {
        match self {
            Block::Dense(b) => b.agg(op),
            Block::Sparse(b) => b.agg(op),
        }
    }

    /// Row-wise aggregation (`rows x 1` dense result).
    pub fn row_agg(&self, op: AggOp) -> DenseBlock {
        match self {
            Block::Dense(b) => b.row_agg(op),
            Block::Sparse(b) => b.row_agg(op),
        }
    }

    /// Column-wise aggregation (`1 x cols` dense result).
    pub fn col_agg(&self, op: AggOp) -> DenseBlock {
        match self {
            Block::Dense(b) => b.col_agg(op),
            Block::Sparse(b) => b.col_agg(op),
        }
    }

    /// Picks the cheaper representation for this content: converts to sparse
    /// below [`crate::SPARSE_FORMAT_THRESHOLD`], to dense above
    /// [`crate::DENSE_FORMAT_THRESHOLD`], mirroring SystemDS's block format
    /// selection.
    pub fn compact(self) -> Block {
        let elems = self.rows() * self.cols();
        match &self {
            Block::Dense(b) if crate::compacts_to_sparse(b.nnz(), elems) => {
                Block::Sparse(SparseBlock::from_dense(b))
            }
            Block::Sparse(b)
                if elems > 0 && b.nnz() as f64 / elems as f64 > crate::DENSE_FORMAT_THRESHOLD =>
            {
                Block::Dense(b.to_dense())
            }
            _ => self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, vals: &[f64]) -> Block {
        Block::Dense(DenseBlock::from_vec(rows, cols, vals.to_vec()).unwrap())
    }

    fn sparse(rows: usize, cols: usize, triples: Vec<(usize, usize, f64)>) -> Block {
        Block::Sparse(SparseBlock::from_triples(rows, cols, triples).unwrap())
    }

    #[test]
    fn mixed_zip_mul_stays_sparse() {
        let s = sparse(2, 2, vec![(0, 0, 2.0)]);
        let d = dense(2, 2, &[3.0, 3.0, 3.0, 3.0]);
        let out = s.zip(&d, BinOp::Mul).unwrap();
        assert!(out.is_sparse());
        assert_eq!(out.get(0, 0), 6.0);
        assert_eq!(out.nnz(), 1);
        // Commuted order takes the dense-sparse path but yields the same.
        let out2 = d.zip(&s, BinOp::Mul).unwrap();
        assert!(out2.is_sparse());
        assert_eq!(out2.get(0, 0), 6.0);
    }

    #[test]
    fn mixed_zip_add_densifies() {
        let s = sparse(1, 2, vec![(0, 0, 2.0)]);
        let d = dense(1, 2, &[1.0, 1.0]);
        let out = s.zip(&d, BinOp::Add).unwrap();
        assert!(!out.is_sparse());
        assert_eq!(out.get(0, 0), 3.0);
        assert_eq!(out.get(0, 1), 1.0);
    }

    #[test]
    fn map_densifies_when_needed() {
        let s = sparse(1, 2, vec![(0, 0, 1.0)]);
        let logd = s.map(UnaryOp::Exp);
        assert!(!logd.is_sparse());
        assert_eq!(logd.get(0, 1), 1.0); // e^0
        let sq = s.map(UnaryOp::Square);
        assert!(sq.is_sparse());
    }

    #[test]
    fn scalar_ops_preserve_or_densify() {
        let s = sparse(1, 3, vec![(0, 1, 4.0)]);
        // 0 * 2 == 0 → sparse preserved
        let m = s.zip_scalar(2.0, BinOp::Mul);
        assert!(m.is_sparse());
        assert_eq!(m.get(0, 1), 8.0);
        // 0 + 2 != 0 → densified
        let a = s.zip_scalar(2.0, BinOp::Add);
        assert!(!a.is_sparse());
        assert_eq!(a.get(0, 0), 2.0);
        // scalar on the left: 2 - 0 != 0 → densified
        let l = s.scalar_zip(2.0, BinOp::Sub);
        assert!(!l.is_sparse());
        assert_eq!(l.get(0, 2), 2.0);
        // scalar on the left with mul: 2 * 0 == 0 → sparse
        let lm = s.scalar_zip(2.0, BinOp::Mul);
        assert!(lm.is_sparse());
    }

    #[test]
    fn zip_scalar_drops_new_zeros() {
        let s = sparse(1, 2, vec![(0, 0, 5.0)]);
        let z = s.zip_scalar(0.0, BinOp::Mul);
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn gemm_all_format_combinations_agree() {
        let a_dense = dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let b_dense = dense(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let a_sparse = Block::Sparse(SparseBlock::from_dense(&a_dense.to_dense()));
        let b_sparse = Block::Sparse(SparseBlock::from_dense(&b_dense.to_dense()));
        let expected = a_dense.gemm(&b_dense).unwrap();
        for a in [&a_dense, &a_sparse] {
            for b in [&b_dense, &b_sparse] {
                assert_eq!(a.gemm(b).unwrap(), expected);
            }
        }
    }

    #[test]
    fn gemm_auto_picks_sparse_output_and_agrees_with_dense() {
        // 8x8 sparse operands with two entries each: the ub stays far below
        // the 40% threshold, so the product must come back sparse.
        let a = sparse(8, 8, vec![(0, 1, 2.0), (3, 4, -1.5)]);
        let b = sparse(8, 8, vec![(1, 2, 4.0), (4, 0, 3.0)]);
        let auto = a.gemm_auto(&b).unwrap();
        assert!(auto.is_sparse(), "low-ub sparse product must stay sparse");
        assert_eq!(auto.to_dense(), a.gemm(&b).unwrap());

        // Sparse × dense with only two populated left rows: still sparse.
        let d = dense(8, 2, &[1.0; 16]);
        let auto_sd = a.gemm_auto(&d).unwrap();
        assert!(auto_sd.is_sparse());
        assert_eq!(auto_sd.to_dense(), a.gemm(&d).unwrap());

        // Dense × dense always lands on the compacted dense path.
        let full = dense(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let auto_dd = full.gemm_auto(&full).unwrap();
        assert_eq!(auto_dd.to_dense(), full.gemm(&full).unwrap());
    }

    #[test]
    fn gemm_nnz_upper_bound_never_undershoots() {
        let a = sparse(4, 4, vec![(0, 0, 1.0), (0, 1, 1.0), (2, 3, 1.0)]);
        let b = sparse(4, 4, vec![(0, 2, 1.0), (1, 2, 1.0), (3, 1, 1.0)]);
        let product = Block::Dense(a.gemm(&b).unwrap()).compact();
        assert!(a.gemm_nnz_upper_bound(&b) >= product.nnz());
        let d = dense(4, 3, &[1.0; 12]);
        assert!(a.gemm_nnz_upper_bound(&d) >= a.gemm(&d).unwrap().nnz());
    }

    #[test]
    fn compact_switches_formats() {
        let mostly_zero = dense(10, 10, &{
            let mut v = vec![0.0; 100];
            v[0] = 1.0;
            v
        });
        assert!(mostly_zero.compact().is_sparse());
        let full = Block::Sparse(SparseBlock::from_dense(&DenseBlock::filled(4, 4, 1.0)));
        assert!(!full.compact().is_sparse());
    }

    #[test]
    fn zero_block() {
        let z = Block::zero(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.agg(AggOp::Sum), 0.0);
    }
}
