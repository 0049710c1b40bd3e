//! Logical matrices over a grid of shared blocks, storing only the blocks
//! present.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::block::Block;
use crate::block_list::{BlockList, Coord};
use crate::dense::DenseBlock;
use crate::error::{Error, Result};
use crate::meta::{MatrixMeta, Shape};
use crate::ops::{AggOp, BinOp, UnaryOp};
use crate::sparse::SparseBlock;

/// A matrix partitioned into a row-major grid of square blocks, of which
/// only the present ones are stored (a [`BlockList`]).
///
/// Blocks are reference-counted ([`Arc`]) because the distributed simulator
/// replicates and broadcasts them between tasks; replication charges the
/// communication ledger by `size_bytes` while sharing the underlying buffer
/// in-process. An absent block is implicitly all-zero — sparse matrices
/// routinely have empty blocks, and neither memory nor a walk over the
/// blocks pays for them.
///
/// The whole-matrix operations on this type are *single-node reference
/// implementations*: the distributed engines in `fuseme-exec` must produce
/// results equal to these (up to float round-off from different summation
/// orders), which is how the integration tests establish correctness.
#[derive(Debug, Serialize, Deserialize)]
pub struct BlockedMatrix {
    meta: MatrixMeta,
    /// The present blocks, row-major.
    blocks: BlockList,
    /// Process-unique identity, assigned at construction. Sharing an `Arc`
    /// keeps the uid; cloning or rebuilding assigns a fresh one. The
    /// simulator's replica cache keys on this to recognise a loop-invariant
    /// input across iterations.
    uid: u64,
}

/// Source of process-unique matrix identities (0 is never issued).
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

fn next_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

impl Clone for BlockedMatrix {
    /// Clones contents but assigns a fresh [`uid`](BlockedMatrix::uid): a
    /// clone may be mutated independently, so it must not alias its source
    /// in uid-keyed caches.
    fn clone(&self) -> Self {
        BlockedMatrix {
            meta: self.meta,
            blocks: self.blocks.clone(),
            uid: next_uid(),
        }
    }
}

/// Checks that `block` fits the grid of `meta` at `(bi, bj)`.
fn check_block(meta: &MatrixMeta, (bi, bj): Coord, block: &Block) -> Result<()> {
    let grid = meta.grid();
    if bi >= grid.block_rows || bj >= grid.block_cols {
        return Err(Error::OutOfBounds {
            index: (bi, bj),
            extent: (grid.block_rows, grid.block_cols),
        });
    }
    let expect = meta.block_dims(bi, bj);
    if (block.rows(), block.cols()) != expect {
        return Err(Error::DimMismatch {
            left: (block.rows(), block.cols()),
            right: expect,
            op: "set_block",
        });
    }
    Ok(())
}

impl BlockedMatrix {
    /// Creates an all-zero matrix with the given metadata.
    pub fn zeros(meta: MatrixMeta) -> Result<Self> {
        BlockedMatrix::from_blocks(meta, Vec::<(Coord, Block)>::new())
    }

    /// Builds a matrix from `((bi, bj), block)` entries in any order,
    /// validating each block against the grid; the last block given for a
    /// coordinate wins. Sorts once, so it is the constructor for blocks
    /// produced out of row-major order.
    pub fn from_blocks<B: Into<Arc<Block>>>(
        meta: MatrixMeta,
        blocks: impl IntoIterator<Item = (Coord, B)>,
    ) -> Result<Self> {
        meta.validate()?;
        let blocks = blocks
            .into_iter()
            .map(|(at, b)| {
                let b = b.into();
                check_block(&meta, at, &b)?;
                Ok((at, b))
            })
            .collect::<Result<BlockList>>()?;
        Ok(BlockedMatrix {
            meta,
            blocks,
            uid: next_uid(),
        })
    }

    /// Process-unique identity of this matrix value (stable for the lifetime
    /// of the object; shared by every `Arc` pointing at it).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Builds a matrix from per-block contents produced by `f(bi, bj)`,
    /// called for every grid coordinate in row-major order.
    pub fn from_fn(
        meta: MatrixMeta,
        mut f: impl FnMut(usize, usize) -> Option<Block>,
    ) -> Result<Self> {
        meta.validate()?;
        let grid = meta.grid();
        let blocks = grid
            .coords()
            .filter_map(|(bi, bj)| f(bi, bj).map(|b| ((bi, bj), b)));
        BlockedMatrix::from_blocks(meta, blocks)
    }

    /// Builds a small dense matrix from a row-major element buffer. Intended
    /// for tests and examples.
    pub fn from_dense_vec(
        rows: usize,
        cols: usize,
        block_size: usize,
        data: Vec<f64>,
    ) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::InvalidMeta(format!(
                "buffer of {} elements cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        let meta = MatrixMeta::dense(rows, cols, block_size);
        BlockedMatrix::from_fn(meta, |bi, bj| {
            let (br, bc) = meta.block_dims(bi, bj);
            let mut blk = DenseBlock::zeros(br, bc);
            for r in 0..br {
                for c in 0..bc {
                    let gr = bi * block_size + r;
                    let gc = bj * block_size + c;
                    blk.set(r, c, data[gr * cols + gc]);
                }
            }
            Some(Block::Dense(blk))
        })
    }

    /// Matrix metadata.
    pub fn meta(&self) -> &MatrixMeta {
        &self.meta
    }

    /// Logical shape.
    pub fn shape(&self) -> Shape {
        self.meta.shape
    }

    /// The present blocks.
    pub fn blocks(&self) -> &BlockList {
        &self.blocks
    }

    /// The block at `(bi, bj)`, or `None` when it is all-zero.
    pub fn block(&self, bi: usize, bj: usize) -> Option<&Arc<Block>> {
        self.blocks.get((bi, bj))
    }

    /// The block at `(bi, bj)` materialized as an owned zero block when
    /// absent.
    pub fn block_or_zero(&self, bi: usize, bj: usize) -> Arc<Block> {
        match self.block(bi, bj) {
            Some(b) => Arc::clone(b),
            None => {
                let (r, c) = self.meta.block_dims(bi, bj);
                Arc::new(Block::zero(r, c))
            }
        }
    }

    /// Installs a block, validating its dimensions against the grid. Cheap
    /// when it replaces a block or extends the row-major order; use
    /// [`from_blocks`](BlockedMatrix::from_blocks) to build out of order.
    pub fn set_block(&mut self, bi: usize, bj: usize, block: Block) -> Result<()> {
        check_block(&self.meta, (bi, bj), &block)?;
        self.blocks.insert((bi, bj), Arc::new(block));
        Ok(())
    }

    /// Iterates present blocks as `(bi, bj, block)` in row-major order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &Arc<Block>)> + '_ {
        self.blocks.iter().map(|((bi, bj), b)| (bi, bj, b))
    }

    /// Number of present (non-implicit-zero) blocks.
    pub fn present_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Global element accessor.
    pub fn get(&self, r: usize, c: usize) -> Result<f64> {
        if r >= self.meta.shape.rows || c >= self.meta.shape.cols {
            return Err(Error::OutOfBounds {
                index: (r, c),
                extent: (self.meta.shape.rows, self.meta.shape.cols),
            });
        }
        let bs = self.meta.block_size;
        Ok(self
            .block(r / bs, c / bs)
            .map(|b| b.get(r % bs, c % bs))
            .unwrap_or(0.0))
    }

    /// Exact number of stored non-zeros across all blocks.
    pub fn nnz(&self) -> u64 {
        self.iter_blocks().map(|(_, _, b)| b.nnz() as u64).sum()
    }

    /// Exact density based on stored non-zeros.
    pub fn actual_density(&self) -> f64 {
        self.nnz() as f64 / self.meta.shape.elements() as f64
    }

    /// Exact total bytes of all present blocks.
    pub fn actual_size_bytes(&self) -> u64 {
        self.blocks.size_bytes()
    }

    /// Replaces the metadata density with the measured one (generators call
    /// this so the cost model sees truthful statistics).
    pub fn refresh_density(&mut self) {
        self.meta.density = self.actual_density();
    }

    // ----- whole-matrix reference operations -------------------------------

    /// Element-wise unary operation.
    pub fn map(&self, op: UnaryOp) -> Result<BlockedMatrix> {
        self.map_blocks(op.preserves_zero(), |b| b.map(op))
    }

    /// Applies a per-block element-wise `f`: to the present blocks only
    /// when it maps zero to zero (absent blocks stay absent), else to every
    /// block, absent ones as zero blocks.
    fn map_blocks(
        &self,
        preserves_zero: bool,
        f: impl Fn(&Block) -> Block,
    ) -> Result<BlockedMatrix> {
        let meta = MatrixMeta {
            density: if preserves_zero {
                self.meta.density
            } else {
                1.0
            },
            ..self.meta
        };
        if preserves_zero {
            BlockedMatrix::from_blocks(meta, self.blocks.iter().map(|(at, b)| (at, f(b))))
        } else {
            BlockedMatrix::from_fn(meta, |bi, bj| Some(f(&self.block_or_zero(bi, bj))))
        }
    }

    /// Element-wise binary operation against a matrix of identical shape.
    pub fn zip(&self, rhs: &BlockedMatrix, op: BinOp) -> Result<BlockedMatrix> {
        if self.meta.shape != rhs.meta.shape || self.meta.block_size != rhs.meta.block_size {
            return Err(Error::DimMismatch {
                left: (self.meta.shape.rows, self.meta.shape.cols),
                right: (rhs.meta.shape.rows, rhs.meta.shape.cols),
                op: op.name(),
            });
        }
        let density = if op.zero_dominant() {
            self.meta.density.min(rhs.meta.density)
        } else {
            (self.meta.density + rhs.meta.density).min(1.0)
        };
        let meta = MatrixMeta {
            density,
            ..self.meta
        };
        // Where both sides are absent the result is op(0, 0) everywhere, so
        // only a non-zero op(0, 0) visits absent coordinates.
        let coords: Vec<Coord> = if op.apply(0.0, 0.0) == 0.0 {
            let mut c = [self.blocks.coords(), rhs.blocks.coords()].concat();
            c.sort_unstable();
            c.dedup();
            c
        } else {
            self.meta.grid().coords().collect()
        };
        let mut out = BlockedMatrix::zeros(meta)?;
        for (bi, bj) in coords {
            let l = self.block(bi, bj);
            let r = rhs.block(bi, bj);
            let result = match (l, r) {
                (None, None) => {
                    let v = op.apply(0.0, 0.0);
                    if v == 0.0 {
                        None
                    } else {
                        let (br, bc) = self.meta.block_dims(bi, bj);
                        Some(Block::Dense(DenseBlock::filled(br, bc, v)))
                    }
                }
                (Some(l), None) => {
                    let z = self.zero_like(bi, bj);
                    Some(l.zip(&z, op)?)
                }
                (None, Some(r)) => {
                    let z = self.zero_like(bi, bj);
                    Some(z.zip(r, op)?)
                }
                (Some(l), Some(r)) => Some(l.zip(r, op)?),
            };
            if let Some(b) = result {
                if b.nnz() > 0 {
                    out.set_block(bi, bj, b)?;
                }
            }
        }
        Ok(out)
    }

    fn zero_like(&self, bi: usize, bj: usize) -> Block {
        let (r, c) = self.meta.block_dims(bi, bj);
        Block::zero(r, c)
    }

    /// Element-wise binary with a scalar on the right.
    pub fn zip_scalar(&self, scalar: f64, op: BinOp) -> Result<BlockedMatrix> {
        self.map_blocks(op.apply(0.0, scalar) == 0.0, |b| b.zip_scalar(scalar, op))
    }

    /// Element-wise binary with a scalar on the left.
    pub fn scalar_zip(&self, scalar: f64, op: BinOp) -> Result<BlockedMatrix> {
        self.map_blocks(op.apply(scalar, 0.0) == 0.0, |b| b.scalar_zip(scalar, op))
    }

    /// Transpose.
    pub fn transpose(&self) -> Result<BlockedMatrix> {
        let meta = self.meta.transposed();
        BlockedMatrix::from_blocks(
            meta,
            self.iter_blocks()
                .map(|(bi, bj, b)| ((bj, bi), b.transpose())),
        )
    }

    /// Matrix multiplication (reference implementation; the distributed
    /// engines shard this very computation).
    pub fn matmul(&self, rhs: &BlockedMatrix) -> Result<BlockedMatrix> {
        if self.meta.shape.cols != rhs.meta.shape.rows {
            return Err(Error::GemmMismatch {
                left_cols: self.meta.shape.cols,
                right_rows: rhs.meta.shape.rows,
            });
        }
        if self.meta.block_size != rhs.meta.block_size {
            return Err(Error::InvalidMeta(format!(
                "block sizes differ: {} vs {}",
                self.meta.block_size, rhs.meta.block_size
            )));
        }
        let meta = MatrixMeta::sparse(
            self.meta.shape.rows,
            rhs.meta.shape.cols,
            self.meta.block_size,
            crate::meta::matmul_ub_density(
                self.meta.density,
                rhs.meta.density,
                self.meta.shape.cols,
            ),
        );
        let k_blocks = self.meta.grid().block_cols;
        let mut out = BlockedMatrix::zeros(meta)?;
        for (bi, bj) in meta.grid().coords() {
            let (br, bc) = meta.block_dims(bi, bj);
            let mut acc = DenseBlock::zeros(br, bc);
            let mut any = false;
            // Row bi's present blocks, ascending in k.
            for ((_, bk), a) in self.blocks.range((bi, 0), (bi, k_blocks)) {
                if let Some(b) = rhs.block(bk, bj) {
                    a.gemm_acc(b, &mut acc)?;
                    any = true;
                }
            }
            if any {
                out.set_block(bi, bj, Block::Dense(acc).compact())?;
            }
        }
        out.refresh_density();
        Ok(out)
    }

    /// Full aggregation to a scalar.
    pub fn agg(&self, op: AggOp) -> f64 {
        let mut acc = op.identity();
        let total_blocks = self.meta.grid().num_blocks() as usize;
        for (_, _, b) in self.iter_blocks() {
            acc = op.combine(acc, b.agg(op));
        }
        if self.present_blocks() < total_blocks {
            acc = op.combine(acc, 0.0);
        }
        acc
    }

    /// Row-wise aggregation producing an `rows x 1` matrix.
    pub fn row_agg(&self, op: AggOp) -> Result<BlockedMatrix> {
        let meta = MatrixMeta::dense(self.meta.shape.rows, 1, self.meta.block_size);
        let grid = self.meta.grid();
        let mut out = BlockedMatrix::zeros(meta)?;
        for bi in 0..grid.block_rows {
            let (br, _) = self.meta.block_dims(bi, 0);
            let mut acc = DenseBlock::filled(br, 1, op.identity());
            for bj in 0..grid.block_cols {
                let part = self.block_or_zero(bi, bj).row_agg(op);
                for r in 0..br {
                    let v = op.combine(acc.get(r, 0), part.get(r, 0));
                    acc.set(r, 0, v);
                }
            }
            out.set_block(bi, 0, Block::Dense(acc))?;
        }
        Ok(out)
    }

    /// Column-wise aggregation producing a `1 x cols` matrix.
    pub fn col_agg(&self, op: AggOp) -> Result<BlockedMatrix> {
        let meta = MatrixMeta::dense(1, self.meta.shape.cols, self.meta.block_size);
        let grid = self.meta.grid();
        let mut out = BlockedMatrix::zeros(meta)?;
        for bj in 0..grid.block_cols {
            let (_, bc) = self.meta.block_dims(0, bj);
            let mut acc = DenseBlock::filled(1, bc, op.identity());
            for bi in 0..grid.block_rows {
                let part = self.block_or_zero(bi, bj).col_agg(op);
                for c in 0..bc {
                    let v = op.combine(acc.get(0, c), part.get(0, c));
                    acc.set(0, c, v);
                }
            }
            out.set_block(0, bj, Block::Dense(acc))?;
        }
        Ok(out)
    }

    /// Dense row-major copy of the whole matrix (tests / small matrices).
    pub fn to_dense_vec(&self) -> Vec<f64> {
        let Shape { rows, cols } = self.meta.shape;
        let mut out = vec![0.0; rows * cols];
        let bs = self.meta.block_size;
        for (bi, bj, b) in self.iter_blocks() {
            for r in 0..b.rows() {
                for c in 0..b.cols() {
                    out[(bi * bs + r) * cols + (bj * bs + c)] = b.get(r, c);
                }
            }
        }
        out
    }

    /// Approximate equality with an absolute-or-relative tolerance; used
    /// pervasively by tests comparing distributed results against the
    /// reference interpreter.
    pub fn approx_eq(&self, other: &BlockedMatrix, tol: f64) -> bool {
        if self.meta.shape != other.meta.shape {
            return false;
        }
        let a = self.to_dense_vec();
        let b = other.to_dense_vec();
        a.iter().zip(&b).all(|(&x, &y)| {
            let diff = (x - y).abs();
            diff <= tol || diff <= tol * x.abs().max(y.abs())
        })
    }
}

/// Builds a `SparseBlock`-backed matrix from global `(row, col, value)`
/// triples.
pub fn from_triples(
    rows: usize,
    cols: usize,
    block_size: usize,
    triples: &[(usize, usize, f64)],
) -> Result<BlockedMatrix> {
    let meta = MatrixMeta::sparse(rows, cols, block_size, 0.0);
    let mut per_block: BTreeMap<Coord, Vec<(usize, usize, f64)>> = BTreeMap::new();
    for &(r, c, v) in triples {
        if r >= rows || c >= cols {
            return Err(Error::OutOfBounds {
                index: (r, c),
                extent: (rows, cols),
            });
        }
        let at = (r / block_size, c / block_size);
        per_block
            .entry(at)
            .or_default()
            .push((r % block_size, c % block_size, v));
    }
    let blocks = per_block
        .into_iter()
        .map(|((bi, bj), t)| {
            let (br, bc) = meta.block_dims(bi, bj);
            Ok((
                (bi, bj),
                Block::Sparse(SparseBlock::from_triples(br, bc, t)?),
            ))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut m = BlockedMatrix::from_blocks(meta, blocks)?;
    m.refresh_density();
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(rows: usize, cols: usize, bs: usize) -> BlockedMatrix {
        let data: Vec<f64> = (0..rows * cols).map(|i| (i + 1) as f64).collect();
        BlockedMatrix::from_dense_vec(rows, cols, bs, data).unwrap()
    }

    #[test]
    fn uids_are_unique_and_survive_sharing() {
        let a = small(4, 4, 2);
        let b = small(4, 4, 2);
        assert_ne!(a.uid(), b.uid());
        assert_ne!(a.uid(), 0);
        // Sharing keeps the identity; cloning mints a new one (a clone can
        // be mutated independently).
        let shared = Arc::new(a);
        assert_eq!(shared.uid(), Arc::clone(&shared).uid());
        let cloned = (*shared).clone();
        assert_ne!(cloned.uid(), shared.uid());
        assert_eq!(cloned.to_dense_vec(), shared.to_dense_vec());
    }

    #[test]
    fn from_dense_vec_roundtrip() {
        let m = small(5, 7, 3);
        assert_eq!(m.get(0, 0).unwrap(), 1.0);
        assert_eq!(m.get(4, 6).unwrap(), 35.0);
        assert_eq!(
            m.to_dense_vec(),
            (1..=35).map(|i| i as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn blocked_matmul_matches_naive() {
        let a = small(5, 4, 2);
        let b = small(4, 6, 2);
        let c = a.matmul(&b).unwrap();
        // Naive O(n^3) reference.
        let (av, bv) = (a.to_dense_vec(), b.to_dense_vec());
        for i in 0..5 {
            for j in 0..6 {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += av[i * 4 + k] * bv[k * 6 + j];
                }
                assert!((c.get(i, j).unwrap() - acc).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = small(2, 3, 2);
        let b = small(2, 2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn zip_and_map() {
        let a = small(3, 3, 2);
        let b = small(3, 3, 2);
        let sum = a.zip(&b, BinOp::Add).unwrap();
        assert_eq!(sum.get(2, 2).unwrap(), 18.0);
        let sq = a.map(UnaryOp::Square).unwrap();
        assert_eq!(sq.get(1, 1).unwrap(), 25.0);
    }

    #[test]
    fn zip_with_implicit_zero_blocks() {
        let mut a = BlockedMatrix::zeros(MatrixMeta::sparse(4, 4, 2, 0.1)).unwrap();
        a.set_block(
            0,
            0,
            Block::Sparse(SparseBlock::from_triples(2, 2, vec![(0, 0, 5.0)]).unwrap()),
        )
        .unwrap();
        let b = small(4, 4, 2);
        let sum = a.zip(&b, BinOp::Add).unwrap();
        assert_eq!(sum.get(0, 0).unwrap(), 6.0);
        assert_eq!(sum.get(3, 3).unwrap(), 16.0); // 0 + 16
        let prod = a.zip(&b, BinOp::Mul).unwrap();
        assert_eq!(prod.get(0, 0).unwrap(), 5.0);
        assert_eq!(prod.get(3, 3).unwrap(), 0.0);
        assert_eq!(prod.nnz(), 1);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = small(3, 5, 2);
        let t = m.transpose().unwrap();
        assert_eq!(t.shape(), Shape::new(5, 3));
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(m.get(r, c).unwrap(), t.get(c, r).unwrap());
            }
        }
    }

    #[test]
    fn aggregations() {
        let m = small(3, 3, 2); // 1..9
        assert_eq!(m.agg(AggOp::Sum), 45.0);
        assert_eq!(m.agg(AggOp::Max), 9.0);
        let rs = m.row_agg(AggOp::Sum).unwrap();
        assert_eq!(rs.to_dense_vec(), vec![6.0, 15.0, 24.0]);
        let cs = m.col_agg(AggOp::Sum).unwrap();
        assert_eq!(cs.to_dense_vec(), vec![12.0, 15.0, 18.0]);
    }

    #[test]
    fn agg_includes_implicit_zero_blocks() {
        let mut m = BlockedMatrix::zeros(MatrixMeta::sparse(4, 4, 2, 0.1)).unwrap();
        m.set_block(
            0,
            0,
            Block::Sparse(SparseBlock::from_triples(2, 2, vec![(0, 0, -3.0)]).unwrap()),
        )
        .unwrap();
        assert_eq!(m.agg(AggOp::Max), 0.0);
        assert_eq!(m.agg(AggOp::Min), -3.0);
        assert_eq!(m.agg(AggOp::Sum), -3.0);
    }

    #[test]
    fn triples_constructor() {
        let m = from_triples(4, 4, 2, &[(0, 0, 1.0), (3, 3, 2.0), (1, 2, 3.0)]).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(3, 3).unwrap(), 2.0);
        assert_eq!(m.get(1, 2).unwrap(), 3.0);
        assert_eq!(m.present_blocks(), 3);
        assert!((m.meta().density - 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_ops() {
        let m = small(2, 2, 2);
        let plus = m.zip_scalar(10.0, BinOp::Add).unwrap();
        assert_eq!(plus.get(0, 0).unwrap(), 11.0);
        let inv = m.scalar_zip(12.0, BinOp::Div).unwrap();
        assert_eq!(inv.get(1, 1).unwrap(), 3.0);
    }

    #[test]
    fn approx_eq_tolerates_roundoff() {
        let a = small(2, 2, 2);
        let mut b = small(2, 2, 2);
        let blk = b.block_or_zero(0, 0).to_dense();
        let mut blk2 = blk.clone();
        blk2.set(0, 0, blk.get(0, 0) + 1e-12);
        b.set_block(0, 0, Block::Dense(blk2)).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        // Values are compared whatever the block size.
        assert!(a.approx_eq(&small(2, 2, 1), 1e-9));
        let c = BlockedMatrix::from_dense_vec(2, 3, 2, vec![0.0; 6]).unwrap();
        assert!(!a.approx_eq(&c, 1e-9));
    }
}
