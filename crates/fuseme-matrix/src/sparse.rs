//! Sparse CSR blocks and their kernels.

use serde::{Deserialize, Serialize};

use crate::dense::DenseBlock;
use crate::error::{Error, Result};
use crate::ops::{AggOp, BinOp, UnaryOp};
use crate::ELEM_BYTES;

/// A sparse tile in Compressed Sparse Row format.
///
/// `row_ptr` has `rows + 1` entries; the non-zeros of row `r` live at
/// positions `row_ptr[r]..row_ptr[r+1]` of `col_idx`/`values`, with column
/// indices sorted ascending within each row. Explicit zeros are permitted
/// (they can arise from arithmetic) but generators never produce them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseBlock {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseBlock {
    /// Creates an empty (all-zero) sparse block.
    pub fn empty(rows: usize, cols: usize) -> Self {
        SparseBlock {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a block from `(row, col, value)` triples. Triples may arrive
    /// in any order; duplicates are rejected.
    pub fn from_triples(
        rows: usize,
        cols: usize,
        mut triples: Vec<(usize, usize, f64)>,
    ) -> Result<Self> {
        for &(r, c, _) in &triples {
            if r >= rows || c >= cols {
                return Err(Error::OutOfBounds {
                    index: (r, c),
                    extent: (rows, cols),
                });
            }
        }
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        for w in triples.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(Error::InvalidSparse(format!(
                    "duplicate entry at ({}, {})",
                    w[0].0, w[0].1
                )));
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &triples {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = triples.iter().map(|&(_, c, _)| c as u32).collect();
        let values = triples.into_iter().map(|(_, _, v)| v).collect();
        Ok(SparseBlock {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a block from triples already sorted row-major with unique,
    /// in-bounds coordinates — the invariant every CSR iteration upholds —
    /// skipping the sort and validation of [`SparseBlock::from_triples`].
    pub(crate) fn from_sorted_triples(
        rows: usize,
        cols: usize,
        triples: Vec<(usize, usize, f64)>,
    ) -> SparseBlock {
        debug_assert!(triples.iter().all(|&(r, c, _)| r < rows && c < cols));
        debug_assert!(triples
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &triples {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = triples.iter().map(|&(_, c, _)| c as u32).collect();
        let values = triples.into_iter().map(|(_, _, v)| v).collect();
        SparseBlock {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR block from raw parts, validating the structure.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(Error::InvalidSparse(format!(
                "row_ptr length {} != rows + 1 = {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if col_idx.len() != values.len() {
            return Err(Error::InvalidSparse(
                "col_idx and values length mismatch".into(),
            ));
        }
        if row_ptr.first() != Some(&0) || row_ptr.last() != Some(&values.len()) {
            return Err(Error::InvalidSparse("row_ptr endpoints invalid".into()));
        }
        for r in 0..rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(Error::InvalidSparse(format!(
                    "row_ptr not monotone at row {r}"
                )));
            }
            let slice = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in slice.windows(2) {
                if w[0] >= w[1] {
                    return Err(Error::InvalidSparse(format!(
                        "column indices not strictly ascending in row {r}"
                    )));
                }
            }
            if let Some(&last) = slice.last() {
                if last as usize >= cols {
                    return Err(Error::InvalidSparse(format!(
                        "column index {last} out of bounds in row {r}"
                    )));
                }
            }
        }
        Ok(SparseBlock {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of element rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of element columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored density (`nnz / (rows * cols)`).
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// In-memory size in bytes: one `f64` plus one `u32` per entry, plus the
    /// row-pointer array. Matches [`crate::MatrixMeta::size_bytes`].
    pub fn size_bytes(&self) -> u64 {
        self.values.len() as u64 * (ELEM_BYTES + 4) + self.row_ptr.len() as u64 * 8
    }

    /// The stored entries of row `r` as parallel `(col_idx, values)` slices.
    #[inline]
    pub fn row_entries(&self, r: usize) -> (&[u32], &[f64]) {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Iterates all stored `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row_entries(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Random access; O(log nnz(row)).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row_entries(r);
        match cols.binary_search(&(c as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Converts to a dense block.
    pub fn to_dense(&self) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }

    /// Builds a sparse block from a dense one, dropping zeros. The row-major
    /// scan emits CSR arrays directly.
    pub fn from_dense(dense: &DenseBlock) -> SparseBlock {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        SparseBlock {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Applies a zero-preserving unary operation to the stored values.
    /// Returns `None` if the operation does not preserve zeros (the caller
    /// must densify first).
    pub fn map(&self, op: UnaryOp) -> Option<SparseBlock> {
        if !op.preserves_zero() {
            return None;
        }
        let mut out = self.clone();
        for v in &mut out.values {
            *v = op.apply(*v);
        }
        Some(out)
    }

    /// Element-wise multiply with a dense block, returning a sparse result
    /// with the same pattern (zero-dominant operation ⇒ pattern of `self`).
    pub fn mul_dense(&self, rhs: &DenseBlock) -> Result<SparseBlock> {
        if self.rows != rhs.rows() || self.cols != rhs.cols() {
            return Err(Error::DimMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows(), rhs.cols()),
                op: "sparse*dense",
            });
        }
        Ok(self.map_stored(|r, c, v| v * rhs.get(r, c)))
    }

    /// A block with `self`'s pattern whose stored values are
    /// `f(row, col, value)`. Entries stay stored even where `f` returns
    /// zero, as in [`SparseBlock::mul_dense`].
    pub fn map_stored(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> SparseBlock {
        let mut values = Vec::with_capacity(self.values.len());
        for r in 0..self.rows {
            let (cols, vals) = self.row_entries(r);
            values.extend(cols.iter().zip(vals).map(|(&c, &v)| f(r, c as usize, v)));
        }
        SparseBlock {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
        }
    }

    /// General element-wise binary against a dense block, producing a dense
    /// result (needed for non-zero-dominant ops like `+`).
    pub fn zip_dense(&self, rhs: &DenseBlock, op: BinOp) -> Result<DenseBlock> {
        if self.rows != rhs.rows() || self.cols != rhs.cols() {
            return Err(Error::DimMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows(), rhs.cols()),
                op: op.name(),
            });
        }
        let mut out = DenseBlock::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, op.apply(self.get(r, c), rhs.get(r, c)));
            }
        }
        Ok(out)
    }

    /// Element-wise binary against another sparse block. Zero-dominant ops
    /// (`*`) intersect patterns; others union them. Result stays sparse.
    pub fn zip_sparse(&self, rhs: &SparseBlock, op: BinOp) -> Result<SparseBlock> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(Error::DimMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
                op: op.name(),
            });
        }
        let mut triples = Vec::new();
        for r in 0..self.rows {
            let (lc, lv) = self.row_entries(r);
            let (rc, rv) = rhs.row_entries(r);
            let (mut i, mut j) = (0usize, 0usize);
            while i < lc.len() || j < rc.len() {
                let (c, a, b) = if j >= rc.len() || (i < lc.len() && lc[i] < rc[j]) {
                    let t = (lc[i] as usize, lv[i], 0.0);
                    i += 1;
                    t
                } else if i >= lc.len() || rc[j] < lc[i] {
                    let t = (rc[j] as usize, 0.0, rv[j]);
                    j += 1;
                    t
                } else {
                    let t = (lc[i] as usize, lv[i], rv[j]);
                    i += 1;
                    j += 1;
                    t
                };
                let v = op.apply(a, b);
                if v != 0.0 {
                    triples.push((r, c, v));
                }
            }
        }
        SparseBlock::from_triples(self.rows, self.cols, triples)
    }

    /// Transposes the block (CSR → CSR of the transpose, via counting sort).
    pub fn transpose(&self) -> SparseBlock {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = row_ptr.clone();
        for (r, c, v) in self.iter() {
            let pos = next[c];
            next[c] += 1;
            col_idx[pos] = r as u32;
            values[pos] = v;
        }
        SparseBlock {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse-dense GEMM: `out += self * rhs`. Each stored non-zero
    /// `(r, k, a)` contributes `a * rhs[k, :]` to `out[r, :]`.
    pub fn gemm_dense_acc(&self, rhs: &DenseBlock, out: &mut DenseBlock) -> Result<()> {
        if self.cols != rhs.rows() {
            return Err(Error::GemmMismatch {
                left_cols: self.cols,
                right_rows: rhs.rows(),
            });
        }
        if out.rows() != self.rows || out.cols() != rhs.cols() {
            return Err(Error::DimMismatch {
                left: (out.rows(), out.cols()),
                right: (self.rows, rhs.cols()),
                op: "spmm output",
            });
        }
        let n = rhs.cols();
        for r in 0..self.rows {
            let (cols, vals) = self.row_entries(r);
            for (&k, &a) in cols.iter().zip(vals) {
                let b_row = rhs.row(k as usize);
                let out_row = &mut out.data_mut()[r * n..(r + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// Dense-sparse GEMM: `out += lhs * self`. Each stored non-zero
    /// `(k, c, b)` contributes `lhs[:, k] * b` to `out[:, c]`.
    pub fn gemm_from_dense_acc(&self, lhs: &DenseBlock, out: &mut DenseBlock) -> Result<()> {
        if lhs.cols() != self.rows {
            return Err(Error::GemmMismatch {
                left_cols: lhs.cols(),
                right_rows: self.rows,
            });
        }
        if out.rows() != lhs.rows() || out.cols() != self.cols {
            return Err(Error::DimMismatch {
                left: (out.rows(), out.cols()),
                right: (lhs.rows(), self.cols),
                op: "dsmm output",
            });
        }
        self.gemm_from_dense_acc_at(lhs, out, 0)
    }

    /// [`gemm_from_dense_acc`](SparseBlock::gemm_from_dense_acc) into a
    /// window of a wider accumulator: `lhs * self` is added to `out`'s
    /// columns `at..at + self.cols()`, every element with the operations,
    /// in the order, that `gemm_from_dense_acc` performs (zero left entries
    /// skipped, stored entries read in storage order). The executor adds
    /// one term of one output block of a run into the run's row panel this
    /// way.
    pub fn gemm_from_dense_acc_at(
        &self,
        lhs: &DenseBlock,
        out: &mut DenseBlock,
        at: usize,
    ) -> Result<()> {
        if lhs.cols() != self.rows {
            return Err(Error::GemmMismatch {
                left_cols: lhs.cols(),
                right_rows: self.rows,
            });
        }
        crate::dense::check_window(out, lhs.rows(), at, self.cols)?;
        let width = out.cols();
        let out_data = out.data_mut();
        for i in 0..lhs.rows() {
            let a_row = lhs.row(i);
            let out_row = &mut out_data[i * width + at..][..self.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let (cols, vals) = self.row_entries(k);
                for (&c, &b) in cols.iter().zip(vals) {
                    out_row[c as usize] += a * b;
                }
            }
        }
        Ok(())
    }

    /// Row-wise Gustavson SpGEMM: `out += self * rhs`, scattering into the
    /// dense accumulator. For each stored `(r, k, a)` with `k` ascending,
    /// every stored `(k, c, b)` of `rhs` contributes `a * b` to `out[r, c]`
    /// — the same per-row summation order as [`SparseBlock::gemm_dense_acc`]
    /// restricted to the stored entries of `rhs`.
    pub fn gemm_sparse_acc(&self, rhs: &SparseBlock, out: &mut DenseBlock) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(Error::GemmMismatch {
                left_cols: self.cols,
                right_rows: rhs.rows,
            });
        }
        if out.rows() != self.rows || out.cols() != rhs.cols {
            return Err(Error::DimMismatch {
                left: (out.rows(), out.cols()),
                right: (self.rows, rhs.cols),
                op: "spgemm output",
            });
        }
        let n = rhs.cols;
        let out_data = out.data_mut();
        for r in 0..self.rows {
            let (ks, avals) = self.row_entries(r);
            let out_row = &mut out_data[r * n..(r + 1) * n];
            for (&k, &a) in ks.iter().zip(avals) {
                let (cs, bvals) = rhs.row_entries(k as usize);
                for (&c, &b) in cs.iter().zip(bvals) {
                    out_row[c as usize] += a * b;
                }
            }
        }
        Ok(())
    }

    /// Row-wise Gustavson SpGEMM with a *sparse* output, built row by row
    /// through a dense-scatter accumulator (dense scratch row plus a
    /// touched-column list). Products accumulate in the same order as
    /// [`SparseBlock::gemm_sparse_acc`]; computed zeros are dropped from
    /// the output like every other sparse constructor.
    pub fn gemm_sparse(&self, rhs: &SparseBlock) -> Result<SparseBlock> {
        if self.cols != rhs.rows {
            return Err(Error::GemmMismatch {
                left_cols: self.cols,
                right_rows: rhs.rows,
            });
        }
        let n = rhs.cols;
        let mut scratch = vec![0.0f64; n];
        let mut occupied = vec![false; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.rows {
            let (ks, avals) = self.row_entries(r);
            for (&k, &a) in ks.iter().zip(avals) {
                let (cs, bvals) = rhs.row_entries(k as usize);
                for (&c, &b) in cs.iter().zip(bvals) {
                    let ci = c as usize;
                    scratch[ci] += a * b;
                    if !occupied[ci] {
                        occupied[ci] = true;
                        touched.push(c);
                    }
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let ci = c as usize;
                if scratch[ci] != 0.0 {
                    col_idx.push(c);
                    values.push(scratch[ci]);
                }
                scratch[ci] = 0.0;
                occupied[ci] = false;
            }
            touched.clear();
            row_ptr.push(values.len());
        }
        Ok(SparseBlock {
            rows: self.rows,
            cols: n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Sparse×dense GEMM with a sparse output: only rows of `self` with
    /// stored entries can be non-zero in the product, so each such row is
    /// accumulated densely (same order as [`SparseBlock::gemm_dense_acc`])
    /// and then gathered, dropping computed zeros.
    pub fn gemm_dense_sparse_out(&self, rhs: &DenseBlock) -> Result<SparseBlock> {
        if self.cols != rhs.rows() {
            return Err(Error::GemmMismatch {
                left_cols: self.cols,
                right_rows: rhs.rows(),
            });
        }
        let n = rhs.cols();
        let mut scratch = vec![0.0f64; n];
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.rows {
            let (ks, avals) = self.row_entries(r);
            if !ks.is_empty() {
                for (&k, &a) in ks.iter().zip(avals) {
                    let b_row = rhs.row(k as usize);
                    for (s, &b) in scratch.iter_mut().zip(b_row) {
                        *s += a * b;
                    }
                }
                for (c, s) in scratch.iter_mut().enumerate() {
                    if *s != 0.0 {
                        col_idx.push(c as u32);
                        values.push(*s);
                    }
                    *s = 0.0;
                }
            }
            row_ptr.push(values.len());
        }
        Ok(SparseBlock {
            rows: self.rows,
            cols: n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Structural upper bound on `nnz(self * rhs)`: per output row `r`,
    /// at most `min(rhs.cols, Σ_{k ∈ row r} nnz(rhs row k))` entries can be
    /// non-zero. Never less than the actual product nnz.
    pub fn gemm_nnz_upper_bound(&self, rhs: &SparseBlock) -> usize {
        let mut rhs_row_nnz = vec![0usize; rhs.rows];
        for (i, n) in rhs_row_nnz.iter_mut().enumerate() {
            *n = rhs.row_ptr[i + 1] - rhs.row_ptr[i];
        }
        let mut total = 0usize;
        for r in 0..self.rows {
            let (ks, _) = self.row_entries(r);
            let row_ub: usize = ks.iter().map(|&k| rhs_row_nnz[k as usize]).sum();
            total += row_ub.min(rhs.cols);
        }
        total
    }

    /// Structural upper bound on `nnz(self * rhs)` against a dense right
    /// operand: every row of `self` with at least one stored entry may fill
    /// its whole output row.
    pub fn gemm_dense_nnz_upper_bound(&self, rhs_cols: usize) -> usize {
        (0..self.rows)
            .filter(|&r| self.row_ptr[r + 1] > self.row_ptr[r])
            .count()
            * rhs_cols
    }

    /// Full aggregation to a scalar. For `Sum` only stored values matter;
    /// for `Min`/`Max` implicit zeros participate when the block is not
    /// full. A degenerate extent aggregates to the implicit zero, never the
    /// fold identity (±inf for `Min`/`Max`).
    pub fn agg(&self, op: AggOp) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        let stored = op.fold(self.values.iter().copied());
        if self.nnz() < self.rows * self.cols {
            op.combine(stored, 0.0)
        } else {
            stored
        }
    }

    /// Row-wise aggregation producing a dense `rows x 1` block. With zero
    /// columns every row aggregates to the implicit zero.
    pub fn row_agg(&self, op: AggOp) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.rows, 1);
        if self.cols == 0 {
            return out;
        }
        for r in 0..self.rows {
            let (_, vals) = self.row_entries(r);
            let stored = op.fold(vals.iter().copied());
            let v = if vals.len() < self.cols {
                op.combine(stored, 0.0)
            } else {
                stored
            };
            out.set(r, 0, v);
        }
        out
    }

    /// Column-wise aggregation producing a dense `1 x cols` block. With
    /// zero rows every column aggregates to the implicit zero.
    pub fn col_agg(&self, op: AggOp) -> DenseBlock {
        let mut out = DenseBlock::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        match op {
            AggOp::Sum => {
                for (_, c, v) in self.iter() {
                    let cur = out.get(0, c);
                    out.set(0, c, cur + v);
                }
            }
            _ => {
                let mut counts = vec![0usize; self.cols];
                for v in out.data_mut() {
                    *v = op.identity();
                }
                for (_, c, v) in self.iter() {
                    let cur = out.get(0, c);
                    out.set(0, c, op.combine(cur, v));
                    counts[c] += 1;
                }
                for (c, &count) in counts.iter().enumerate() {
                    if count < self.rows {
                        let cur = out.get(0, c);
                        out.set(0, c, op.combine(cur, 0.0));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseBlock {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        SparseBlock::from_triples(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn triples_roundtrip() {
        let s = sample();
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(2, 1), 4.0);
        let triples: Vec<_> = s.iter().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn unsorted_triples_are_sorted() {
        let s = SparseBlock::from_triples(2, 2, vec![(1, 1, 4.0), (0, 0, 1.0)]).unwrap();
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(1, 1), 4.0);
    }

    #[test]
    fn duplicate_triples_rejected() {
        let r = SparseBlock::from_triples(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]);
        assert!(matches!(r, Err(Error::InvalidSparse(_))));
    }

    #[test]
    fn out_of_bounds_triples_rejected() {
        let r = SparseBlock::from_triples(2, 2, vec![(2, 0, 1.0)]);
        assert!(matches!(r, Err(Error::OutOfBounds { .. })));
    }

    #[test]
    fn csr_validation() {
        assert!(SparseBlock::from_csr(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).is_ok());
        // unsorted columns within a row
        assert!(SparseBlock::from_csr(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // bad endpoint
        assert!(SparseBlock::from_csr(1, 3, vec![0, 3], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let s = sample();
        let d = s.to_dense();
        assert_eq!(d.get(2, 1), 4.0);
        assert_eq!(d.get(1, 1), 0.0);
        let s2 = SparseBlock::from_dense(&d);
        assert_eq!(s, s2);
    }

    #[test]
    fn map_preserving_only() {
        let s = sample();
        let sq = s.map(UnaryOp::Square).unwrap();
        assert_eq!(sq.get(2, 1), 16.0);
        assert!(s.map(UnaryOp::Log).is_none());
    }

    #[test]
    fn mul_dense_keeps_pattern() {
        let s = sample();
        let d = DenseBlock::filled(3, 3, 2.0);
        let m = s.mul_dense(&d).unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn zip_dense_produces_dense() {
        let s = sample();
        let d = DenseBlock::filled(3, 3, 1.0);
        let out = s.zip_dense(&d, BinOp::Add).unwrap();
        assert_eq!(out.get(0, 0), 2.0);
        assert_eq!(out.get(1, 1), 1.0);
    }

    #[test]
    fn zip_sparse_union_and_intersection() {
        let a = SparseBlock::from_triples(1, 4, vec![(0, 0, 1.0), (0, 2, 2.0)]).unwrap();
        let b = SparseBlock::from_triples(1, 4, vec![(0, 2, 3.0), (0, 3, 4.0)]).unwrap();
        let add = a.zip_sparse(&b, BinOp::Add).unwrap();
        assert_eq!(
            add.iter().collect::<Vec<_>>(),
            vec![(0, 0, 1.0), (0, 2, 5.0), (0, 3, 4.0)]
        );
        let mul = a.zip_sparse(&b, BinOp::Mul).unwrap();
        assert_eq!(mul.iter().collect::<Vec<_>>(), vec![(0, 2, 6.0)]);
    }

    #[test]
    fn transpose_matches_dense() {
        let s = sample();
        let t = s.transpose();
        assert_eq!(t.to_dense(), s.to_dense().transpose());
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let s = sample();
        let d = DenseBlock::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut out = DenseBlock::zeros(3, 2);
        s.gemm_dense_acc(&d, &mut out).unwrap();
        let expected = s.to_dense().gemm(&d).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn dsmm_matches_dense_gemm() {
        let s = sample();
        let d = DenseBlock::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut out = DenseBlock::zeros(2, 3);
        s.gemm_from_dense_acc(&d, &mut out).unwrap();
        let expected = d.gemm(&s.to_dense()).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn aggregations_respect_implicit_zeros() {
        let s = SparseBlock::from_triples(2, 2, vec![(0, 0, -5.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(s.agg(AggOp::Sum), -2.0);
        assert_eq!(s.agg(AggOp::Max), 3.0);
        assert_eq!(s.agg(AggOp::Min), -5.0);
        // Max of a row whose stored entries are all negative is the implicit 0.
        let neg = SparseBlock::from_triples(1, 3, vec![(0, 0, -1.0)]).unwrap();
        assert_eq!(neg.agg(AggOp::Max), 0.0);
        assert_eq!(neg.row_agg(AggOp::Max).get(0, 0), 0.0);
    }

    #[test]
    fn row_col_agg() {
        let s = sample();
        assert_eq!(s.row_agg(AggOp::Sum).data(), &[3.0, 0.0, 7.0]);
        assert_eq!(s.col_agg(AggOp::Sum).data(), &[4.0, 4.0, 2.0]);
    }

    #[test]
    fn full_block_agg_has_no_implicit_zero() {
        let s = SparseBlock::from_triples(1, 2, vec![(0, 0, -1.0), (0, 1, -2.0)]).unwrap();
        assert_eq!(s.agg(AggOp::Max), -1.0);
    }

    /// Deterministic xorshift64 so the property tests need no RNG crate.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Random block at roughly `density_pct`% fill with values in
    /// [-7, 8], including occasional *explicit stored zeros*.
    fn random_sparse(state: &mut u64, rows: usize, cols: usize, density_pct: u64) -> SparseBlock {
        let mut triples = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if xorshift(state) % 100 < density_pct {
                    let v = (xorshift(state) % 16) as f64 - 7.0;
                    triples.push((r, c, v));
                }
            }
        }
        SparseBlock::from_triples(rows, cols, triples).unwrap()
    }

    #[test]
    fn aggregation_matches_dense_on_random_ragged_blocks() {
        let mut state = 0x5EED_CAFE;
        let shapes = [(1, 1), (3, 5), (5, 3), (7, 7), (1, 9), (9, 1), (4, 6)];
        for &(rows, cols) in &shapes {
            for &pct in &[0u64, 10, 40, 100] {
                let s = random_sparse(&mut state, rows, cols, pct);
                let d = s.to_dense();
                for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
                    assert_eq!(s.agg(op), d.agg(op), "{rows}x{cols}@{pct}% {op:?} agg");
                    assert_eq!(
                        s.row_agg(op).data(),
                        d.row_agg(op).data(),
                        "{rows}x{cols}@{pct}% {op:?} row_agg"
                    );
                    assert_eq!(
                        s.col_agg(op).data(),
                        d.col_agg(op).data(),
                        "{rows}x{cols}@{pct}% {op:?} col_agg"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_extents_aggregate_to_implicit_zero() {
        for (rows, cols) in [(0usize, 3usize), (3, 0), (0, 0)] {
            let s = SparseBlock::empty(rows, cols);
            let d = s.to_dense();
            for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
                assert_eq!(s.agg(op), 0.0, "sparse {rows}x{cols} {op:?}");
                assert_eq!(d.agg(op), 0.0, "dense {rows}x{cols} {op:?}");
                for out in [s.row_agg(op), s.col_agg(op), d.row_agg(op), d.col_agg(op)] {
                    assert!(
                        out.data().iter().all(|&v| v == 0.0),
                        "{rows}x{cols} {op:?}: axis agg leaked a fold identity"
                    );
                }
            }
        }
    }

    #[test]
    fn gustavson_spgemm_matches_dense_reference() {
        let mut state = 0xFEED_5EED;
        for _ in 0..20 {
            let a = random_sparse(&mut state, 6, 5, 35);
            let b = random_sparse(&mut state, 5, 7, 35);
            let reference = a.to_dense().gemm(&b.to_dense()).unwrap();
            let mut acc = DenseBlock::zeros(6, 7);
            a.gemm_sparse_acc(&b, &mut acc).unwrap();
            assert_eq!(acc, reference);
            let sp = a.gemm_sparse(&b).unwrap();
            assert_eq!(sp.to_dense(), reference);
            assert!(sp.nnz() <= a.gemm_nnz_upper_bound(&b));
        }
    }

    #[test]
    fn sparse_dense_sparse_out_matches_dense_reference() {
        let mut state = 0xBEEF_0001;
        for _ in 0..20 {
            let a = random_sparse(&mut state, 6, 5, 30);
            let b = random_sparse(&mut state, 5, 7, 80).to_dense();
            let reference = a.to_dense().gemm(&b).unwrap();
            let sp = a.gemm_dense_sparse_out(&b).unwrap();
            assert_eq!(sp.to_dense(), reference);
            assert!(sp.nnz() <= a.gemm_dense_nnz_upper_bound(b.cols()));
        }
    }

    #[test]
    fn dsmm_bit_identical_on_random_blocks() {
        let mut state = 0xABCD_EF01;
        for _ in 0..20 {
            let s = random_sparse(&mut state, 5, 6, 40);
            let lhs = random_sparse(&mut state, 4, 5, 70).to_dense();
            let mut out = DenseBlock::zeros(4, 6);
            s.gemm_from_dense_acc(&lhs, &mut out).unwrap();
            assert_eq!(out, lhs.gemm(&s.to_dense()).unwrap());
        }
    }
}
