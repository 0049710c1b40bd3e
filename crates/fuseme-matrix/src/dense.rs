//! Dense row-major `f64` blocks and their kernels.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::ops::{AggOp, BinOp, UnaryOp};
use crate::ELEM_BYTES;

/// Multiply-add count (`rows · k · cols`) above which [`DenseBlock::gemm_acc`]
/// switches from the naive i-k-j loop to the register-blocked tiled kernel.
/// Both kernels produce bit-identical results; the threshold only picks the
/// faster one, avoiding tile bookkeeping overhead on tiny blocks.
pub const TILED_MIN_MACS: usize = 16 * 1024;

/// Register-tile rows of the tiled GEMM micro-kernel.
const MR: usize = 4;
/// Register-tile columns of the tiled GEMM micro-kernel.
const NR: usize = 4;

/// A dense row-major tile of a blocked matrix.
///
/// `data[r * cols + c]` holds element `(r, c)`. Blocks at matrix boundaries
/// may be smaller than the nominal block size, so `rows`/`cols` are stored
/// explicitly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseBlock {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseBlock {
    /// Creates a zero-filled block.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseBlock {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a block filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseBlock {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a block from a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::InvalidMeta(format!(
                "dense buffer of {} elements cannot represent a {rows}x{cols} block",
                data.len()
            )));
        }
        Ok(DenseBlock { rows, cols, data })
    }

    /// Number of element rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of element columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the row-major data buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the row-major data buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor (bounds-checked in debug builds).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter (bounds-checked in debug builds).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of stored non-zero values.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// In-memory size in bytes (used by the simulator's ledger).
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() as u64) * ELEM_BYTES
    }

    /// Applies a unary element-wise operation, returning a new block.
    pub fn map(&self, op: UnaryOp) -> DenseBlock {
        let data = self.data.iter().map(|&v| op.apply(v)).collect();
        DenseBlock {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies a binary element-wise operation against another dense block.
    pub fn zip(&self, rhs: &DenseBlock, op: BinOp) -> Result<DenseBlock> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(Error::DimMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
                op: op.name(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| op.apply(a, b))
            .collect();
        Ok(DenseBlock {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Applies a binary element-wise operation against a scalar on the right
    /// (`self op scalar`).
    pub fn zip_scalar(&self, scalar: f64, op: BinOp) -> DenseBlock {
        let data = self.data.iter().map(|&a| op.apply(a, scalar)).collect();
        DenseBlock {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies a binary element-wise operation with the scalar on the left
    /// (`scalar op self`).
    pub fn scalar_zip(&self, scalar: f64, op: BinOp) -> DenseBlock {
        let data = self.data.iter().map(|&a| op.apply(scalar, a)).collect();
        DenseBlock {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Transposes the block.
    pub fn transpose(&self) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Dense GEMM: `out += self * rhs`, accumulating into `out`.
    ///
    /// Dispatches between two kernels behind one API: the classic i-k-j
    /// loop for small blocks and a register-blocked tiled kernel
    /// ([`gemm_acc_tiled`](DenseBlock::gemm_acc_tiled)) once the multiply-add
    /// count crosses [`TILED_MIN_MACS`]. Both kernels accumulate each output
    /// element over `k` in ascending order and skip zero left-operands, so
    /// they agree bit-for-bit — the dispatch threshold never changes
    /// results.
    ///
    /// That order is a contract:
    /// [`sampled_dot_acc`](DenseBlock::sampled_dot_acc) computes single
    /// elements the same way when no left entry is zero, and the executor's
    /// gated multiplication relies on the two agreeing bit for bit when it
    /// computes a product only at a sparse gate's stored cells. So does
    /// [`gemm_panel`](DenseBlock::gemm_panel), which the executor uses to
    /// compute a run of output blocks as one row panel.
    pub fn gemm_acc(&self, rhs: &DenseBlock, out: &mut DenseBlock) -> Result<()> {
        self.gemm_check(rhs, out)?;
        if self.rows * self.cols * rhs.cols >= TILED_MIN_MACS {
            self.tiled_kernel(rhs, out);
        } else {
            self.naive_kernel(rhs, out, 0);
        }
        Ok(())
    }

    /// The product `self × rhs` at a list of cells, added to `acc`: for
    /// cell `cells[n] = (r, c)`, `acc[n]` plus the dot product of row `r`
    /// of `self` with column `c` of `rhs`, over the inner index ascending
    /// with `acc += a * b`. Four cells run side by side as independent
    /// chains, which read one row of `rhs` at a time; the last one to three
    /// cells run the same order one at a time.
    ///
    /// It skips no zero left entries. So, chained over the terms of a sum
    /// of products from `+0.0`, it gives the bits that
    /// [`gemm_acc`](DenseBlock::gemm_acc) leaves in a zeroed accumulator
    /// only when no left entry is `±0.0`: that is its precondition. The
    /// executor's gated multiplication calls it under a certificate that
    /// every operand entry is `> 0`.
    ///
    /// Panics when a cell is out of range, the inner dimensions differ or
    /// `acc` is not as long as `cells`.
    pub fn sampled_dot_acc(&self, rhs: &DenseBlock, cells: &[(usize, usize)], acc: &mut [f64]) {
        assert!(
            self.cols == rhs.rows
                && cells.len() == acc.len()
                && cells.iter().all(|&(_, c)| c < rhs.cols),
            "sampled_dot_acc shape"
        );
        // Without columns there are no cells, but the rows need a width.
        let rhs_rows = rhs.data.chunks_exact(rhs.cols.max(1));
        let mut quads = cells.chunks_exact(4);
        let mut sums = acc.chunks_exact_mut(4);
        for (quad, sum) in (&mut quads).zip(&mut sums) {
            let [a0, a1, a2, a3] = [0, 1, 2, 3].map(|l| self.row(quad[l].0));
            let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|l| quad[l].1);
            let mut s = [sum[0], sum[1], sum[2], sum[3]];
            let lanes = a0.iter().zip(a1).zip(a2).zip(a3).zip(rhs_rows.clone());
            for ((((x0, x1), x2), x3), b) in lanes {
                s[0] += x0 * b[c0];
                s[1] += x1 * b[c1];
                s[2] += x2 * b[c2];
                s[3] += x3 * b[c3];
            }
            sum.copy_from_slice(&s);
        }
        for (&(r, c), sum) in quads.remainder().iter().zip(sums.into_remainder()) {
            let pairs = self.row(r).iter().zip(rhs_rows.clone());
            *sum = pairs.fold(*sum, |s, (a, b)| s + a * b[c]);
        }
    }

    /// Row-panel GEMM: the product of the left panel, the blocks `lefts`
    /// side by side (all with the same rows), with the right panel
    /// `right`, whose rows continue the left panel's columns in order.
    ///
    /// Every output element accumulates from `+0.0` over the concatenated
    /// inner index in ascending order with `acc += a * b`, skipping zero
    /// left entries. Cut into column blocks, the output is therefore bit
    /// for bit what chaining [`gemm_acc`](DenseBlock::gemm_acc) over
    /// `lefts` in order, each times its own rows of `right`, leaves in a
    /// zeroed accumulator per block.
    pub fn gemm_panel(lefts: &[&DenseBlock], right: &DenseBlock) -> Result<DenseBlock> {
        let rows = lefts.first().map_or(0, |l| l.rows);
        let inner: usize = lefts.iter().map(|l| l.cols).sum();
        if inner != right.rows {
            return Err(Error::GemmMismatch {
                left_cols: inner,
                right_rows: right.rows,
            });
        }
        if let Some(l) = lefts.iter().find(|l| l.rows != rows) {
            return Err(Error::DimMismatch {
                left: (rows, lefts[0].cols),
                right: (l.rows, l.cols),
                op: "gemm panel",
            });
        }
        let n = right.cols;
        let mut out = DenseBlock::zeros(rows, n);
        for i in 0..rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut k0 = 0;
            for l in lefts {
                for (k, &a) in l.row(i).iter().enumerate() {
                    if a != 0.0 {
                        for (o, &b) in out_row.iter_mut().zip(right.row(k0 + k)) {
                            *o += a * b;
                        }
                    }
                }
                k0 += l.cols;
            }
        }
        Ok(out)
    }

    /// The small-block GEMM kernel (i-k-j loop order), exposed so
    /// differential tests can pin the tiled kernel against it.
    pub fn gemm_acc_naive(&self, rhs: &DenseBlock, out: &mut DenseBlock) -> Result<()> {
        self.gemm_check(rhs, out)?;
        self.naive_kernel(rhs, out, 0);
        Ok(())
    }

    /// [`gemm_acc`](DenseBlock::gemm_acc) into a window of a wider
    /// accumulator: `self * rhs` is added to `out`'s columns `at..at +
    /// rhs.cols()`, every element with the operations, in the order, that
    /// `gemm_acc` performs (inner index ascending, zero left entries
    /// skipped). The executor adds one term of one output block of a run
    /// into the run's row panel this way.
    pub fn gemm_acc_at(&self, rhs: &DenseBlock, out: &mut DenseBlock, at: usize) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(Error::GemmMismatch {
                left_cols: self.cols,
                right_rows: rhs.rows,
            });
        }
        check_window(out, self.rows, at, rhs.cols)?;
        self.naive_kernel(rhs, out, at);
        Ok(())
    }

    /// The register-blocked GEMM kernel, exposed so differential tests can
    /// exercise it below the dispatch threshold.
    pub fn gemm_acc_tiled(&self, rhs: &DenseBlock, out: &mut DenseBlock) -> Result<()> {
        self.gemm_check(rhs, out)?;
        self.tiled_kernel(rhs, out);
        Ok(())
    }

    fn gemm_check(&self, rhs: &DenseBlock, out: &DenseBlock) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(Error::GemmMismatch {
                left_cols: self.cols,
                right_rows: rhs.rows,
            });
        }
        if out.rows != self.rows || out.cols != rhs.cols {
            return Err(Error::DimMismatch {
                left: (out.rows, out.cols),
                right: (self.rows, rhs.cols),
                op: "gemm output",
            });
        }
        Ok(())
    }

    /// i-k-j loop into `out`'s columns `at..at + rhs.cols`: the inner loop
    /// streams both the `rhs` row and the `out` row sequentially.
    fn naive_kernel(&self, rhs: &DenseBlock, out: &mut DenseBlock, at: usize) {
        let n = rhs.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * out.cols + at..][..n];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Register-blocked kernel: an `MR × NR` tile of the output is held in
    /// accumulator registers while the full `k` extent streams through, so
    /// each loaded `rhs` row segment is reused `MR` times and each output
    /// element is written once. Per-element accumulation order (ascending
    /// `k`, zero left-operands skipped) matches the naive kernel exactly.
    fn tiled_kernel(&self, rhs: &DenseBlock, out: &mut DenseBlock) {
        let k_dim = self.cols;
        let n = rhs.cols;
        let a = &self.data;
        let b = &rhs.data;
        let c = &mut out.data;
        let mut i0 = 0;
        while i0 < self.rows {
            let mr = MR.min(self.rows - i0);
            let mut j0 = 0;
            while j0 < n {
                let nr = NR.min(n - j0);
                let mut acc = [[0.0f64; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    let row = &c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
                    acc_row[..nr].copy_from_slice(row);
                }
                for k in 0..k_dim {
                    let b_row = &b[k * n + j0..k * n + j0 + nr];
                    for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                        let av = a[(i0 + r) * k_dim + k];
                        if av == 0.0 {
                            continue;
                        }
                        for (x, &bv) in b_row.iter().enumerate() {
                            acc_row[x] += av * bv;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    let row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
                    row.copy_from_slice(&acc_row[..nr]);
                }
                j0 += nr;
            }
            i0 += mr;
        }
    }

    /// Dense GEMM producing a fresh output block.
    pub fn gemm(&self, rhs: &DenseBlock) -> Result<DenseBlock> {
        let mut out = DenseBlock::zeros(self.rows, rhs.cols);
        self.gemm_acc(rhs, &mut out)?;
        Ok(out)
    }

    /// Full aggregation to a scalar. A degenerate extent aggregates to the
    /// implicit zero, never the fold identity (±inf for `Min`/`Max`).
    pub fn agg(&self, op: AggOp) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        op.fold(self.data.iter().copied())
    }

    /// Row-wise aggregation, producing a `rows x 1` block. With zero
    /// columns every row aggregates to the implicit zero.
    pub fn row_agg(&self, op: AggOp) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.rows, 1);
        if self.cols == 0 {
            return out;
        }
        for r in 0..self.rows {
            out.data[r] = op.fold(self.row(r).iter().copied());
        }
        out
    }

    /// Column-wise aggregation, producing a `1 x cols` block. With zero
    /// rows every column aggregates to the implicit zero.
    pub fn col_agg(&self, op: AggOp) -> DenseBlock {
        let mut out = DenseBlock::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        match op {
            AggOp::Sum => {
                for r in 0..self.rows {
                    for (acc, &v) in out.data.iter_mut().zip(self.row(r)) {
                        *acc += v;
                    }
                }
            }
            _ => {
                for c in 0..self.cols {
                    out.data[c] = op.fold((0..self.rows).map(|r| self.get(r, c)));
                }
            }
        }
        out
    }
}

/// `Ok` when `out` has `rows` rows and its columns `at..at + cols` exist:
/// the window a product `rows × cols` is added into.
pub(crate) fn check_window(out: &DenseBlock, rows: usize, at: usize, cols: usize) -> Result<()> {
    if out.rows != rows || at + cols > out.cols {
        return Err(Error::DimMismatch {
            left: (out.rows, out.cols),
            right: (rows, at + cols),
            op: "gemm output window",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(rows: usize, cols: usize, vals: &[f64]) -> DenseBlock {
        DenseBlock::from_vec(rows, cols, vals.to_vec()).unwrap()
    }

    #[test]
    fn construct_and_index() {
        let b = blk(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(b.get(0, 2), 3.0);
        assert_eq!(b.get(1, 0), 4.0);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(DenseBlock::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn map_applies_unary() {
        let b = blk(1, 3, &[1.0, 4.0, 9.0]).map(UnaryOp::Sqrt);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn zip_elementwise() {
        let a = blk(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = blk(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        let c = a.zip(&b, BinOp::Add).unwrap();
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 44.0]);
        let d = a.zip(&b, BinOp::Mul).unwrap();
        assert_eq!(d.data(), &[10.0, 40.0, 90.0, 160.0]);
    }

    #[test]
    fn zip_rejects_mismatch() {
        let a = blk(2, 2, &[1.0; 4]);
        let b = blk(2, 3, &[1.0; 6]);
        assert!(matches!(
            a.zip(&b, BinOp::Add),
            Err(Error::DimMismatch { .. })
        ));
    }

    #[test]
    fn scalar_sides() {
        let a = blk(1, 2, &[6.0, 9.0]);
        assert_eq!(a.zip_scalar(3.0, BinOp::Div).data(), &[2.0, 3.0]);
        assert_eq!(a.scalar_zip(18.0, BinOp::Div).data(), &[3.0, 2.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = blk(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn gemm_small() {
        let a = blk(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = blk(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.gemm(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_accumulates() {
        let a = blk(1, 1, &[2.0]);
        let b = blk(1, 1, &[3.0]);
        let mut out = blk(1, 1, &[10.0]);
        a.gemm_acc(&b, &mut out).unwrap();
        assert_eq!(out.data(), &[16.0]);
    }

    #[test]
    fn gemm_rejects_mismatch() {
        let a = blk(2, 3, &[0.0; 6]);
        let b = blk(2, 2, &[0.0; 4]);
        assert!(matches!(a.gemm(&b), Err(Error::GemmMismatch { .. })));
    }

    /// Deterministic pseudo-random fill with a sprinkling of exact zeros,
    /// so both kernels' zero-skip paths are exercised.
    fn patterned(rows: usize, cols: usize, salt: u64) -> DenseBlock {
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                if h.is_multiple_of(7) {
                    0.0
                } else {
                    ((h >> 32) as f64 / u32::MAX as f64) - 0.5
                }
            })
            .collect();
        DenseBlock::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_naive() {
        // 40×40×40 = 64000 MACs ≥ TILED_MIN_MACS, so `gemm_acc` dispatches
        // to the tiled kernel; the naive kernel must agree bit-for-bit.
        const { assert!(40 * 40 * 40 >= TILED_MIN_MACS) };
        let a = patterned(40, 40, 1);
        let b = patterned(40, 40, 2);
        let mut tiled = patterned(40, 40, 3);
        let mut naive = tiled.clone();
        a.gemm_acc(&b, &mut tiled).unwrap();
        a.gemm_acc_naive(&b, &mut naive).unwrap();
        assert_eq!(tiled.data(), naive.data());
    }

    #[test]
    fn tiled_kernel_handles_ragged_edges() {
        // Dimensions that are not multiples of the 4×4 register tile,
        // including 1-wide edges.
        for &(m, k, n) in &[(5, 7, 9), (1, 13, 6), (6, 3, 1), (9, 9, 9)] {
            let a = patterned(m, k, 11);
            let b = patterned(k, n, 12);
            let mut tiled = patterned(m, n, 13);
            let mut naive = tiled.clone();
            a.gemm_acc_tiled(&b, &mut tiled).unwrap();
            a.gemm_acc_naive(&b, &mut naive).unwrap();
            assert_eq!(tiled.data(), naive.data(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_kernel_validates_dims() {
        let a = patterned(4, 3, 1);
        let b = patterned(4, 4, 2);
        let mut out = DenseBlock::zeros(4, 4);
        assert!(matches!(
            a.gemm_acc_tiled(&b, &mut out),
            Err(Error::GemmMismatch { .. })
        ));
        let b2 = patterned(3, 4, 2);
        let mut bad_out = DenseBlock::zeros(2, 4);
        assert!(matches!(
            a.gemm_acc_tiled(&b2, &mut bad_out),
            Err(Error::DimMismatch { .. })
        ));
    }

    #[test]
    fn aggregations() {
        let a = blk(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.agg(AggOp::Sum), 21.0);
        assert_eq!(a.agg(AggOp::Min), 1.0);
        assert_eq!(a.agg(AggOp::Max), 6.0);
        assert_eq!(a.row_agg(AggOp::Sum).data(), &[6.0, 15.0]);
        assert_eq!(a.col_agg(AggOp::Sum).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.col_agg(AggOp::Max).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn nnz_counts_nonzeros() {
        let a = blk(2, 2, &[0.0, 1.0, 0.0, 2.0]);
        assert_eq!(a.nnz(), 2);
    }
}
