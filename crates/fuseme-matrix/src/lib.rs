//! Blocked dense/sparse matrix substrate for the FuseME engine.
//!
//! Distributed matrix systems in the FuseME / SystemDS / DistME lineage
//! represent a matrix as a grid of fixed-size *blocks* and use the block as
//! the unit of computation, communication, and memory accounting. This crate
//! provides that substrate:
//!
//! * [`DenseBlock`] — a row-major `f64` tile,
//! * [`SparseBlock`] — a CSR tile for sparse matrices,
//! * [`Block`] — the dynamic dense/sparse union with full per-block kernels
//!   (element-wise ops, GEMM, transpose, aggregations),
//! * [`BlockList`] — the present blocks of a matrix, sorted row-major; the
//!   one block store behind matrices and the executor's task stores,
//! * [`BlockedMatrix`] — a logical matrix over a grid of blocks, storing only
//!   the present ones (absent blocks are implicitly all-zero),
//! * [`gen`] — seeded synthetic generators used by the evaluation harness.
//!
//! Everything is deterministic: generators take explicit seeds, block lists
//! iterate in row-major order, and no kernel depends on hash iteration order.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod block_list;
pub mod dense;
pub mod error;
pub mod gen;
pub mod io;
pub mod matrix;
pub mod meta;
pub mod ops;
pub mod sparse;

pub use block::Block;
pub use block_list::{BlockList, Coord};
pub use dense::DenseBlock;
pub use error::{Error, Result};
pub use matrix::BlockedMatrix;
pub use meta::{matmul_ub_density, BlockGrid, MatrixMeta, Shape};
pub use ops::{AggOp, BinOp, UnaryOp};
pub use sparse::SparseBlock;

/// Number of bytes in one `f64` element; used by every size/communication
/// estimate in the engine.
pub const ELEM_BYTES: u64 = 8;

/// Density below which a dense block is converted to CSR by
/// [`Block::compact`] (SystemDS's sparse-format threshold).
pub const SPARSE_FORMAT_THRESHOLD: f64 = 0.4;

/// Whether [`Block::compact`] stores a dense block of `elems` elements
/// holding `nnz` non-zeros sparsely.
pub fn compacts_to_sparse(nnz: usize, elems: usize) -> bool {
    elems > 0 && (nnz as f64 / elems as f64) < SPARSE_FORMAT_THRESHOLD
}

/// Density above which a sparse block is converted to dense by
/// [`Block::compact`] and above which [`MatrixMeta::size_bytes`] prices a
/// matrix densely.
pub const DENSE_FORMAT_THRESHOLD: f64 = 0.66;
