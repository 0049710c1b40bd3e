//! Seeded synthetic matrix generators.
//!
//! The paper's evaluation (§6.1) uses "matrices that have randomly and
//! uniformly distributed non-zero elements as in SystemDS and DistME". These
//! generators reproduce that: every function takes an explicit seed and is
//! deterministic across runs and platforms (we use `StdRng`, a seedable PRNG
//! with a stability guarantee within a `rand` major version).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::block::Block;
use crate::dense::DenseBlock;
use crate::error::Result;
use crate::matrix::BlockedMatrix;
use crate::meta::MatrixMeta;
use crate::sparse::SparseBlock;

/// Generates a dense matrix with elements uniform in `(lo, hi)`.
pub fn dense_uniform(
    rows: usize,
    cols: usize,
    block_size: usize,
    lo: f64,
    hi: f64,
    seed: u64,
) -> Result<BlockedMatrix> {
    let meta = MatrixMeta::dense(rows, cols, block_size);
    let mut rng = StdRng::seed_from_u64(seed);
    BlockedMatrix::from_fn(meta, |bi, bj| {
        let (br, bc) = meta.block_dims(bi, bj);
        let mut blk = DenseBlock::zeros(br, bc);
        for v in blk.data_mut() {
            *v = rng.gen_range(lo..hi);
        }
        Some(Block::Dense(blk))
    })
}

/// Generates a sparse matrix with the given density of uniformly placed
/// non-zeros, each uniform in `(lo, hi)`.
///
/// Placement is done per block with an expected per-block nnz budget, which
/// keeps generation `O(nnz)` instead of `O(rows*cols)` — essential for the
/// scaled-up harness runs. Blocks that draw zero entries stay absent.
pub fn sparse_uniform(
    rows: usize,
    cols: usize,
    block_size: usize,
    density: f64,
    lo: f64,
    hi: f64,
    seed: u64,
) -> Result<BlockedMatrix> {
    let meta = MatrixMeta::sparse(rows, cols, block_size, density);
    meta.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = BlockedMatrix::zeros(meta)?;
    let grid = meta.grid();
    for (bi, bj) in grid.coords() {
        let (br, bc) = meta.block_dims(bi, bj);
        let cells = br * bc;
        // Binomial draw approximated by per-cell Bernoulli for small blocks
        // and by a Poisson-like expected count for large blocks.
        let expected = cells as f64 * density;
        let nnz = if cells <= 4096 {
            (0..cells)
                .filter(|_| rng.gen_bool(density.clamp(0.0, 1.0)))
                .count()
        } else {
            let jitter = rng.gen_range(-0.05..0.05) * expected;
            ((expected + jitter).round() as usize).min(cells)
        };
        if nnz == 0 {
            continue;
        }
        // Sample distinct positions via partial Fisher-Yates over cell ids.
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < nnz {
            chosen.insert(rng.gen_range(0..cells));
        }
        let triples: Vec<(usize, usize, f64)> = chosen
            .into_iter()
            .map(|cell| (cell / bc, cell % bc, rng.gen_range(lo..hi)))
            .collect();
        // Pick the cheaper representation per block (high requested
        // densities would otherwise store full blocks as CSR, which is
        // larger than dense — SystemDS's per-block format selection).
        m.set_block(
            bi,
            bj,
            Block::Sparse(SparseBlock::from_triples(br, bc, triples)?).compact(),
        )?;
    }
    m.refresh_density();
    Ok(m)
}

/// Generates the identity matrix.
pub fn identity(n: usize, block_size: usize) -> Result<BlockedMatrix> {
    let triples: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
    crate::matrix::from_triples(n, n, block_size, &triples)
}

/// Generates a rating-style sparse matrix in `1..=5` (integer ratings stored
/// as `f64`), emulating the MovieLens / Netflix / YahooMusic datasets of the
/// paper's Table 2 at a configurable scale.
pub fn ratings(
    users: usize,
    items: usize,
    block_size: usize,
    density: f64,
    seed: u64,
) -> Result<BlockedMatrix> {
    let mut m = sparse_uniform(users, items, block_size, density, 0.5, 5.5, seed)?;
    // Round values to rating grades, replacing each sparse block in place.
    for (bi, bj) in m.blocks().coords().to_vec() {
        if let Some(b) = m.block(bi, bj) {
            if let Block::Sparse(s) = b.as_ref() {
                let triples: Vec<_> = s
                    .iter()
                    .map(|(r, c, v)| (r, c, v.round().clamp(1.0, 5.0)))
                    .collect();
                let nb = SparseBlock::from_triples(s.rows(), s.cols(), triples)?;
                m.set_block(bi, bj, Block::Sparse(nb))?;
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_uniform_in_range_and_deterministic() {
        let a = dense_uniform(10, 12, 4, -1.0, 1.0, 7).unwrap();
        let b = dense_uniform(10, 12, 4, -1.0, 1.0, 7).unwrap();
        assert_eq!(a.to_dense_vec(), b.to_dense_vec());
        assert!(a.to_dense_vec().iter().all(|v| (-1.0..1.0).contains(v)));
        assert_eq!(a.present_blocks(), 3 * 3);
    }

    #[test]
    fn different_seeds_differ() {
        let a = dense_uniform(8, 8, 4, 0.0, 1.0, 1).unwrap();
        let b = dense_uniform(8, 8, 4, 0.0, 1.0, 2).unwrap();
        assert_ne!(a.to_dense_vec(), b.to_dense_vec());
    }

    #[test]
    fn sparse_density_close_to_requested() {
        let m = sparse_uniform(200, 200, 50, 0.05, 0.0, 1.0, 42).unwrap();
        let d = m.actual_density();
        assert!((d - 0.05).abs() < 0.02, "density {d} too far from 0.05");
        // metadata refreshed to the measured value
        assert_eq!(m.meta().density, d);
    }

    #[test]
    fn sparse_zero_density_is_empty() {
        let m = sparse_uniform(50, 50, 10, 0.0, 0.0, 1.0, 3).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.present_blocks(), 0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let i = identity(6, 2).unwrap();
        let m = dense_uniform(6, 6, 2, 0.0, 1.0, 9).unwrap();
        let p = i.matmul(&m).unwrap();
        assert!(p.approx_eq(&m, 1e-12));
    }

    #[test]
    fn ratings_are_grades() {
        let m = ratings(100, 80, 20, 0.1, 11).unwrap();
        for (_, _, b) in m.iter_blocks() {
            if let Block::Sparse(s) = b.as_ref() {
                for (_, _, v) in s.iter() {
                    assert!((1.0..=5.0).contains(&v) && v.fract() == 0.0);
                }
            }
        }
    }
}
