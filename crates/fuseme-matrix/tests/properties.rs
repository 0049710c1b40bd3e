//! Property-based tests for the block and matrix kernels.
//!
//! The central invariant: every sparse kernel must agree with the dense
//! kernel on the densified operands, and blocked whole-matrix operations
//! must agree with naive element-level references.

use proptest::prelude::*;

use fuseme_matrix::dense::TILED_MIN_MACS;
use fuseme_matrix::matrix::from_triples;
use std::collections::BTreeMap;
use std::sync::Arc;

use fuseme_matrix::{
    AggOp, BinOp, Block, BlockList, BlockedMatrix, Coord, DenseBlock, MatrixMeta, SparseBlock,
    UnaryOp,
};

/// Strategy: a dense block with dimensions in 1..=8 and small round values
/// (halves), so arithmetic comparisons are exact.
fn dense_block() -> impl Strategy<Value = DenseBlock> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-8i32..=8, r * c).prop_map(move |vals| {
            DenseBlock::from_vec(r, c, vals.into_iter().map(|v| v as f64 / 2.0).collect()).unwrap()
        })
    })
}

/// Strategy: a sparse block with the same value model and ~30% fill.
fn sparse_block() -> impl Strategy<Value = SparseBlock> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            (
                0usize..r,
                0usize..c,
                (-8i32..=8).prop_filter("nz", |v| *v != 0),
            ),
            0..=(r * c) / 2,
        )
        .prop_map(move |entries| {
            let mut seen = std::collections::BTreeSet::new();
            let triples: Vec<(usize, usize, f64)> = entries
                .into_iter()
                .filter(|&(er, ec, _)| seen.insert((er, ec)))
                .map(|(er, ec, v)| (er, ec, v as f64 / 2.0))
                .collect();
            SparseBlock::from_triples(r, c, triples).unwrap()
        })
    })
}

fn pair_same_dims() -> impl Strategy<Value = (DenseBlock, DenseBlock)> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        let mk = move || {
            proptest::collection::vec(-8i32..=8, r * c).prop_map(move |vals| {
                DenseBlock::from_vec(r, c, vals.into_iter().map(|v| v as f64 / 2.0).collect())
                    .unwrap()
            })
        };
        (mk(), mk())
    })
}

proptest! {
    #[test]
    fn sparse_dense_roundtrip(s in sparse_block()) {
        let d = s.to_dense();
        let s2 = SparseBlock::from_dense(&d);
        prop_assert_eq!(s2.to_dense(), d);
        prop_assert_eq!(s2.nnz(), s.iter().filter(|&(_, _, v)| v != 0.0).count());
    }

    #[test]
    fn sparse_transpose_agrees_with_dense(s in sparse_block()) {
        prop_assert_eq!(s.transpose().to_dense(), s.to_dense().transpose());
    }

    #[test]
    fn transpose_involutive(d in dense_block()) {
        prop_assert_eq!(d.transpose().transpose(), d.clone());
    }

    #[test]
    fn sparse_map_agrees_with_dense(s in sparse_block()) {
        for op in [UnaryOp::Square, UnaryOp::Abs, UnaryOp::Neg, UnaryOp::NotZero] {
            let via_sparse = s.map(op).unwrap().to_dense();
            let via_dense = s.to_dense().map(op);
            prop_assert_eq!(via_sparse, via_dense);
        }
    }

    #[test]
    fn block_zip_mixed_formats_agree((a, b) in pair_same_dims()) {
        let sa = Block::Sparse(SparseBlock::from_dense(&a));
        let sb = Block::Sparse(SparseBlock::from_dense(&b));
        let da = Block::Dense(a);
        let db = Block::Dense(b);
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max] {
            let reference = da.zip(&db, op).unwrap().to_dense();
            for l in [&da, &sa] {
                for r in [&db, &sb] {
                    let got = l.zip(r, op).unwrap().to_dense();
                    prop_assert_eq!(got.data(), reference.data());
                }
            }
        }
    }

    #[test]
    fn spmm_agrees_with_dense_gemm(s in sparse_block(), cols in 1usize..=6) {
        let k = s.cols();
        let rhs_vals: Vec<f64> = (0..k * cols).map(|i| ((i % 7) as f64) - 3.0).collect();
        let rhs = DenseBlock::from_vec(k, cols, rhs_vals).unwrap();
        let mut out = DenseBlock::zeros(s.rows(), cols);
        s.gemm_dense_acc(&rhs, &mut out).unwrap();
        let expected = s.to_dense().gemm(&rhs).unwrap();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn agg_agrees_across_formats(s in sparse_block()) {
        let d = s.to_dense();
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
            prop_assert_eq!(s.agg(op), d.agg(op));
            prop_assert_eq!(s.row_agg(op), d.row_agg(op));
            prop_assert_eq!(s.col_agg(op), d.col_agg(op));
        }
    }

    #[test]
    fn blocked_matmul_associativity_shape(
        m in 1usize..=6, k in 1usize..=6, n in 1usize..=6, bs in 1usize..=4
    ) {
        let a = BlockedMatrix::from_dense_vec(m, k, bs, (0..m * k).map(|i| i as f64).collect()).unwrap();
        let b = BlockedMatrix::from_dense_vec(k, n, bs, (0..k * n).map(|i| (i as f64) - 2.0).collect()).unwrap();
        let c = a.matmul(&b).unwrap();
        prop_assert_eq!(c.shape().rows, m);
        prop_assert_eq!(c.shape().cols, n);
        // Block size must not change results.
        let a1 = BlockedMatrix::from_dense_vec(m, k, 1, a.to_dense_vec()).unwrap();
        let b1 = BlockedMatrix::from_dense_vec(k, n, 1, b.to_dense_vec()).unwrap();
        let c1 = a1.matmul(&b1).unwrap();
        prop_assert!(c.approx_eq(&BlockedMatrix::from_dense_vec(m, n, bs, c1.to_dense_vec()).unwrap(), 1e-9));
    }

    #[test]
    fn blocked_transpose_matmul_identity(
        m in 1usize..=5, n in 1usize..=5, bs in 1usize..=3
    ) {
        // (A^T)^T == A and (A B)^T == B^T A^T
        let a = BlockedMatrix::from_dense_vec(m, n, bs, (0..m * n).map(|i| (i as f64) * 0.5).collect()).unwrap();
        prop_assert!(a.transpose().unwrap().transpose().unwrap().approx_eq(&a, 0.0));
        let b = BlockedMatrix::from_dense_vec(n, m, bs, (0..n * m).map(|i| (i as f64) - 1.0).collect()).unwrap();
        let ab_t = a.matmul(&b).unwrap().transpose().unwrap();
        let bt_at = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-9));
    }

    #[test]
    fn from_triples_matches_get(
        entries in proptest::collection::vec((0usize..10, 0usize..10, 1i32..5), 0..20)
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let triples: Vec<(usize, usize, f64)> = entries
            .into_iter()
            .filter(|&(r, c, _)| seen.insert((r, c)))
            .map(|(r, c, v)| (r, c, v as f64))
            .collect();
        let m = from_triples(10, 10, 3, &triples).unwrap();
        for &(r, c, v) in &triples {
            prop_assert_eq!(m.get(r, c).unwrap(), v);
        }
        prop_assert_eq!(m.nnz() as usize, triples.len());
    }

    #[test]
    fn zip_scalar_distributes(d in dense_block(), scalar in -4i32..=4) {
        let s = scalar as f64;
        let b = Block::Dense(d.clone());
        let plus = b.zip_scalar(s, BinOp::Add);
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                prop_assert_eq!(plus.get(r, c), d.get(r, c) + s);
            }
        }
    }
}

/// Strategy: an `r × c` dense block with the exact-arithmetic value model
/// (halves), for arbitrary externally chosen dimensions.
fn dense_with_dims(r: usize, c: usize) -> impl Strategy<Value = DenseBlock> {
    proptest::collection::vec(-8i32..=8, r * c).prop_map(move |vals| {
        DenseBlock::from_vec(r, c, vals.into_iter().map(|v| v as f64 / 2.0).collect()).unwrap()
    })
}

proptest! {
    /// The register-blocked GEMM kernel is bit-identical to the naive
    /// kernel on ragged shapes — dimensions straddling the 4×4 register
    /// tile, including 1×N row-vector and N×1 column-vector extremes —
    /// even when accumulating into a non-zero output block.
    #[test]
    fn tiled_gemm_bit_identical_to_naive_on_ragged_shapes(
        (a, b, acc) in (1usize..=19, 1usize..=13, 1usize..=19).prop_flat_map(|(m, k, n)| {
            (dense_with_dims(m, k), dense_with_dims(k, n), dense_with_dims(m, n))
        })
    ) {
        let mut naive = acc.clone();
        let mut tiled = acc;
        a.gemm_acc_naive(&b, &mut naive).unwrap();
        a.gemm_acc_tiled(&b, &mut tiled).unwrap();
        // Bit-for-bit: same per-element accumulation order, so not even
        // an ULP of drift is tolerated.
        prop_assert_eq!(tiled, naive);
    }

    /// Outer products (N×1 · 1×N) and inner products (1×N · N×1) hit the
    /// tile loops' degenerate edges from both sides.
    #[test]
    fn tiled_gemm_bit_identical_on_vector_products(
        (col, row) in (1usize..=33).prop_flat_map(|n| {
            (dense_with_dims(n, 1), dense_with_dims(1, n))
        })
    ) {
        let n = col.rows();
        let (mut outer_n, mut outer_t) = (DenseBlock::zeros(n, n), DenseBlock::zeros(n, n));
        col.gemm_acc_naive(&row, &mut outer_n).unwrap();
        col.gemm_acc_tiled(&row, &mut outer_t).unwrap();
        prop_assert_eq!(outer_t, outer_n);
        let (mut inner_n, mut inner_t) = (DenseBlock::zeros(1, 1), DenseBlock::zeros(1, 1));
        row.gemm_acc_naive(&col, &mut inner_n).unwrap();
        row.gemm_acc_tiled(&col, &mut inner_t).unwrap();
        prop_assert_eq!(inner_t, inner_n);
    }

    /// The public `gemm_acc` entry point — whichever side of the size
    /// threshold it dispatches to — always matches the naive reference.
    #[test]
    fn gemm_dispatch_never_changes_results(
        (a, b) in (1usize..=24, 1usize..=24).prop_flat_map(|(m, k)| {
            (dense_with_dims(m, k), dense_with_dims(k, 24))
        })
    ) {
        let mut via_dispatch = DenseBlock::zeros(a.rows(), b.cols());
        let mut via_naive = via_dispatch.clone();
        a.gemm_acc(&b, &mut via_dispatch).unwrap();
        a.gemm_acc_naive(&b, &mut via_naive).unwrap();
        prop_assert_eq!(via_dispatch, via_naive);
    }

    /// Whole-matrix multiplication with mixed block formats: a matrix of
    /// sparse blocks times dense agrees exactly with the all-dense
    /// construction of the same values (the sparse and dense kernels share
    /// the ascending-k accumulation order, and the half-integer value
    /// model makes every sum exact).
    #[test]
    fn sparse_dense_mixed_block_matmul_agrees(
        entries in proptest::collection::vec((0usize..12, 0usize..9, 1i32..=8), 0..30),
        bs in 1usize..=5,
        n in 1usize..=10,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let triples: Vec<(usize, usize, f64)> = entries
            .into_iter()
            .filter(|&(r, c, _)| seen.insert((r, c)))
            .map(|(r, c, v)| (r, c, v as f64 / 2.0))
            .collect();
        let sparse = from_triples(12, 9, bs, &triples).unwrap();
        let dense = BlockedMatrix::from_dense_vec(12, 9, bs, sparse.to_dense_vec()).unwrap();
        let rhs = BlockedMatrix::from_dense_vec(
            9, n, bs, (0..9 * n).map(|i| ((i % 7) as f64) - 3.0).collect(),
        ).unwrap();
        let via_sparse = sparse.matmul(&rhs).unwrap();
        let via_dense = dense.matmul(&rhs).unwrap();
        prop_assert_eq!(via_sparse.to_dense_vec(), via_dense.to_dense_vec());
    }

    /// The block list against a `BTreeMap` model: inserts in any order
    /// (replacements included) and the same entries collected at once give
    /// the same lookups, row-major iteration and byte total, and the row
    /// and column walks equal brute-force filters over random ranges.
    #[test]
    fn block_list_matches_btreemap_model(
        inserts in proptest::collection::vec((0usize..6, 0usize..6, 1usize..=4), 0..40),
        walks in proptest::collection::vec((0usize..7, 0usize..7, 0usize..7), 1..8),
    ) {
        // A block's size encodes its insert, so replacements show.
        let entries: Vec<(Coord, Arc<Block>)> = inserts
            .iter()
            .enumerate()
            .map(|(n, &(i, j, c))| ((i, j), Arc::new(Block::Dense(DenseBlock::filled(1, c, n as f64)))))
            .collect();
        let mut model: BTreeMap<Coord, Arc<Block>> = BTreeMap::new();
        let mut inserted = BlockList::default();
        for (at, b) in &entries {
            model.insert(*at, Arc::clone(b));
            inserted.insert(*at, Arc::clone(b));
        }
        let collected: BlockList = entries.iter().cloned().collect();
        let bytes: u64 = model.values().map(|b| b.size_bytes()).sum();
        for list in [&inserted, &collected] {
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.size_bytes(), bytes);
            let got: Vec<(Coord, &Arc<Block>)> = list.iter().collect();
            let want: Vec<(Coord, &Arc<Block>)> = model.iter().map(|(c, b)| (*c, b)).collect();
            prop_assert_eq!(got.len(), want.len());
            for ((gc, gb), (wc, wb)) in got.iter().zip(&want) {
                prop_assert_eq!(gc, wc);
                prop_assert!(Arc::ptr_eq(gb, wb));
            }
            for i in 0..7 {
                for j in 0..7 {
                    let got = list.get((i, j)).map(Arc::as_ptr);
                    prop_assert_eq!(got, model.get(&(i, j)).map(Arc::as_ptr));
                }
            }
            for &(fixed, a, b) in &walks {
                let ks = a.min(b)..a.max(b);
                let row: Vec<usize> = list.row(fixed, &ks).collect();
                let want: Vec<usize> = model.keys().filter(|c| c.0 == fixed && ks.contains(&c.1)).map(|c| c.1).collect();
                prop_assert_eq!(row, want);
                let col: Vec<usize> = list.col(fixed, &ks).collect();
                let want: Vec<usize> = model.keys().filter(|c| c.1 == fixed && ks.contains(&c.0)).map(|c| c.0).collect();
                prop_assert_eq!(col, want);
            }
        }
    }

    /// `transpose` (which produces blocks column-major), a serde round trip
    /// and a `set_block` that replaces a block keep the present-block count
    /// and the byte total exact.
    #[test]
    fn blocked_matrix_counts_stay_exact(
        entries in proptest::collection::vec((0usize..12, 0usize..9, 1i32..=8), 0..30),
        bs in 1usize..=5,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let triples: Vec<(usize, usize, f64)> = entries
            .into_iter()
            .filter(|&(r, c, _)| seen.insert((r, c)))
            .map(|(r, c, v)| (r, c, v as f64))
            .collect();
        let m = from_triples(12, 9, bs, &triples).unwrap();
        let exact = |m: &BlockedMatrix| {
            let present = m.iter_blocks().count();
            let bytes: u64 = m.iter_blocks().map(|(_, _, b)| b.size_bytes()).sum();
            (present, bytes)
        };
        prop_assert_eq!((m.present_blocks(), m.actual_size_bytes()), exact(&m));
        let t = m.transpose().unwrap();
        prop_assert_eq!((t.present_blocks(), t.actual_size_bytes()), exact(&t));
        prop_assert_eq!(t.present_blocks(), m.present_blocks());
        prop_assert_eq!(t.transpose().unwrap().to_dense_vec(), m.to_dense_vec());
        let json = serde_json::to_string(&t).unwrap();
        let back: BlockedMatrix = serde_json::from_str(&json).unwrap();
        prop_assert_eq!((back.present_blocks(), back.actual_size_bytes()), exact(&t));
        prop_assert_eq!(back.to_dense_vec(), t.to_dense_vec());
        let mut r = t.clone();
        if let Some((bi, bj, b)) = t.iter_blocks().last() {
            let dense = Block::Dense(b.to_dense());
            r.set_block(bi, bj, dense).unwrap();
            prop_assert_eq!(r.present_blocks(), t.present_blocks());
            prop_assert_eq!((r.present_blocks(), r.actual_size_bytes()), exact(&r));
            prop_assert_eq!(r.to_dense_vec(), t.to_dense_vec());
        }
        let empty = BlockedMatrix::zeros(MatrixMeta::sparse(12, 9, bs, 0.0)).unwrap();
        prop_assert_eq!((empty.present_blocks(), empty.actual_size_bytes()), (0, 0));
    }
}

/// Strategy: one `m × k` by `k × n` term of a sum of products. Left entries
/// include exact zeros of both signs; about a quarter of the inner indices
/// are dead: the left column is all `±0.0` and the right row holds `inf`,
/// `-inf` and NaN, which only a skipped zero left entry keeps out of the
/// sum. Other values are not round, so a change of summation order would
/// show in the bits.
fn hazard_term(m: usize, k: usize, n: usize) -> impl Strategy<Value = (DenseBlock, DenseBlock)> {
    let value = |code: u8| match code {
        0..=5 => 0.0,
        6..=11 => -0.0,
        c => (f64::from(c) - 37.5) * 0.37,
    };
    (
        proptest::collection::vec(0u8..64, m * k),
        proptest::collection::vec(0u8..64, k * n),
        proptest::collection::vec(0u8..4, k),
    )
        .prop_map(move |(l, r, dead)| {
            let left = (0..m * k)
                .map(|x| match (dead[x % k], l[x] % 2) {
                    (0, 0) => 0.0,
                    (0, _) => -0.0,
                    _ => value(l[x]),
                })
                .collect();
            let right = (0..k * n)
                .map(|x| match (dead[x / n], r[x] % 4) {
                    (0, 0) => f64::INFINITY,
                    (0, 1) => f64::NEG_INFINITY,
                    (0, 2) => f64::NAN,
                    _ => value(r[x]),
                })
                .collect();
            (
                DenseBlock::from_vec(m, k, left).unwrap(),
                DenseBlock::from_vec(k, n, right).unwrap(),
            )
        })
}

/// Strategy: one `m × k` by `k × n` term of a sum of products whose
/// entries are all `> 0`, spread over six orders of magnitude and not
/// round, so a change of summation order would show in the bits.
fn positive_term(m: usize, k: usize, n: usize) -> impl Strategy<Value = (DenseBlock, DenseBlock)> {
    let value = |code: u8| (f64::from(code) + 1.0) * 0.37 * [1e-3, 1.0, 1e3][usize::from(code % 3)];
    let block = move |rows: usize, cols: usize| {
        proptest::collection::vec(0u8..64, rows * cols).prop_map(move |codes| {
            DenseBlock::from_vec(rows, cols, codes.into_iter().map(value).collect()).unwrap()
        })
    };
    (block(m, k), block(k, n))
}

proptest! {
    /// `sampled_dot_acc` chained over the terms of a sum of products from
    /// `+0.0` reproduces, at every listed cell, the element `gemm_acc`
    /// accumulates, bit for bit, when every operand entry is `> 0`: the
    /// kernel's precondition, under which neither skips a term. (The
    /// `±0.0`, infinity and NaN hazards, which the precondition excludes,
    /// are the `gemm_*` properties'.) Block shapes lie on both sides of
    /// `TILED_MIN_MACS` — the naive kernel below it, the tiled one above —
    /// with one to three terms whose inner lengths need not be multiples
    /// of 4, and the cell lists, of 1 to 13 cells in any order, leave zero
    /// to three cells after the last group of four. The executor's gated
    /// multiplication computes a product at a sparse gate's stored cells
    /// this way.
    #[test]
    fn sampled_dot_acc_matches_gemm_acc_bit_for_bit(
        (m, n, terms, cells) in (proptest::bool::ANY, 1usize..=7, 4usize..=7, 1usize..=7, 1usize..=3)
            .prop_map(|(big, m, k, n, count)| match big {
                true => (m + 25, k + 27, n + 25, count),
                false => (m, k, n, count),
            })
            .prop_flat_map(|(m, k, n, count)| {
                let term = (k - 3..=k).prop_flat_map(move |k| positive_term(m, k, n));
                let cells = proptest::collection::vec((0..m, 0..n), 1..=13);
                (Just(m), Just(n), proptest::collection::vec(term, count), cells)
            })
    ) {
        let mut acc = DenseBlock::zeros(m, n);
        for (l, r) in &terms {
            l.gemm_acc(r, &mut acc).unwrap();
        }
        prop_assert!(
            terms.iter().all(|(l, _)| (m * l.cols() * n >= TILED_MIN_MACS) == (m > 7)),
            "each size class picks its own kernel"
        );
        let mut dots = vec![0.0; cells.len()];
        for (l, r) in &terms {
            l.sampled_dot_acc(r, &cells, &mut dots);
        }
        for (&(i, j), dot) in cells.iter().zip(&dots) {
            prop_assert_eq!(
                dot.to_bits(),
                acc.get(i, j).to_bits(),
                "({}, {}): dot {} vs gemm {}", i, j, dot, acc.get(i, j)
            );
        }
    }
}

proptest! {
    /// `DenseBlock::gemm_panel` of one to four terms, cut into column
    /// blocks, reproduces per block the chain of `gemm_acc` calls over the
    /// terms in order from a zeroed accumulator, bit for bit (so `±0.0`,
    /// infinities and NaN count), for block shapes on both sides of
    /// `TILED_MIN_MACS`. The executor computes a run of output blocks as
    /// one row panel this way.
    #[test]
    fn gemm_panel_matches_gemm_acc_bit_for_bit(
        (m, w, blocks, terms) in
            ((proptest::bool::ANY, 1usize..=7, 4usize..=7), (1usize..=7, 1usize..=3, 1usize..=4))
                .prop_map(|((big, m, k), (w, blocks, count))| match big {
                    true => (m + 25, k + 27, w + 25, blocks, count),
                    false => (m, k, w, blocks, count),
                })
                .prop_flat_map(|(m, k, w, blocks, count)| {
                    let term = (k - 3..=k).prop_flat_map(move |k| hazard_term(m, k, w * blocks));
                    (Just(m), Just(w), Just(blocks), proptest::collection::vec(term, count))
                })
    ) {
        let lefts: Vec<&DenseBlock> = terms.iter().map(|(l, _)| l).collect();
        let inner = lefts.iter().map(|l| l.cols()).sum();
        let stacked: Vec<f64> = terms.iter().flat_map(|(_, r)| r.data().iter().copied()).collect();
        let right = DenseBlock::from_vec(inner, w * blocks, stacked).unwrap();
        let panel = DenseBlock::gemm_panel(&lefts, &right).unwrap();
        for b in 0..blocks {
            let cols = b * w..(b + 1) * w;
            let mut acc = DenseBlock::zeros(m, w);
            for (l, r) in &terms {
                prop_assert_eq!(m * l.cols() * w >= TILED_MIN_MACS, m > 7, "size class");
                let cut = (0..r.rows()).flat_map(|i| r.row(i)[cols.clone()].to_vec()).collect();
                let r = DenseBlock::from_vec(r.rows(), w, cut).unwrap();
                l.gemm_acc(&r, &mut acc).unwrap();
            }
            for i in 0..m {
                for (j, at) in cols.clone().enumerate() {
                    prop_assert_eq!(
                        panel.get(i, at).to_bits(),
                        acc.get(i, j).to_bits(),
                        "block {} ({}, {}): panel {} vs gemm {}", b, i, j, panel.get(i, at), acc.get(i, j)
                    );
                }
            }
        }
    }
}

/// Strategy: the entries of a `rows × cols` block, row-major, each absent
/// or present with a value. How many are present is drawn per block (none,
/// a quarter, half, three quarters or all, in expectation); a present
/// value is `0.0`, `-0.0`, `inf`, `-inf` or NaN about one time in three,
/// else finite and not round.
fn special_entries(rows: usize, cols: usize) -> impl Strategy<Value = Vec<Option<f64>>> {
    let value = |code: u8| match code {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        c => (f64::from(c) - 9.5) * 0.37,
    };
    (
        0u8..=4,
        proptest::collection::vec((0u8..4, 0u8..15), rows * cols),
    )
        .prop_map(move |(density, codes)| {
            (codes.into_iter())
                .map(|(keep, code)| (keep < density).then(|| value(code)))
                .collect()
        })
}

/// Strategy: a dense `rows × cols` block of [`special_entries`], absent
/// entries `0.0`.
fn special_dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseBlock> {
    special_entries(rows, cols).prop_map(move |entries| {
        let values = entries.into_iter().map(|v| v.unwrap_or(0.0)).collect();
        DenseBlock::from_vec(rows, cols, values).unwrap()
    })
}

/// Strategy: a `rows × cols` block of [`special_entries`] in either
/// format: dense with absent entries `0.0`, or sparse storing exactly the
/// present ones (its `±0.0` among them).
fn special_block(rows: usize, cols: usize) -> impl Strategy<Value = Block> {
    (proptest::bool::ANY, special_entries(rows, cols)).prop_map(move |(sparse, entries)| {
        let present =
            (entries.iter().enumerate()).filter_map(|(at, v)| v.map(|v| (at / cols, at % cols, v)));
        if sparse {
            Block::Sparse(SparseBlock::from_triples(rows, cols, present.collect()).unwrap())
        } else {
            let mut d = DenseBlock::zeros(rows, cols);
            for (r, c, v) in present {
                d.set(r, c, v);
            }
            Block::Dense(d)
        }
    })
}

/// A block's format, and its stored entries (every entry of a dense block)
/// with the bits of their values.
fn stored_bits(b: &Block) -> (bool, Vec<(usize, usize, u64)>) {
    let entries = match b {
        Block::Sparse(s) => s.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect(),
        Block::Dense(d) => (0..d.rows())
            .flat_map(|r| (0..d.cols()).map(move |c| (r, c, d.get(r, c).to_bits())))
            .collect(),
    };
    (b.is_sparse(), entries)
}

proptest! {
    /// `Block::gemm_auto` is `compact()` of the dense product `gemm` gives,
    /// in format, pattern and the bits of every value, for all four format
    /// pairs, operands storing `±0.0`, `±inf` and NaN, and shapes down to
    /// one row, one column or one inner index (a matrix's narrow edge
    /// blocks). Thin sparse left operands take its direct sparse outputs.
    /// The executor compacts a stored product's blocks this way after
    /// computing them together, which gives what the per-block path's
    /// single-term `gemm_auto` gives.
    #[test]
    fn gemm_auto_is_the_compacted_dense_product(
        (l, r) in (1usize..=6, 1usize..=6, 1usize..=6)
            .prop_flat_map(|(m, k, n)| (special_block(m, k), special_block(k, n)))
    ) {
        let auto = l.gemm_auto(&r).unwrap();
        let want = Block::Dense(l.gemm(&r).unwrap()).compact();
        prop_assert_eq!(stored_bits(&auto), stored_bits(&want), "{:?} × {:?}", l, r);
    }

    /// `DenseBlock::gemm_acc_at` and `SparseBlock::gemm_from_dense_acc_at`,
    /// chained over one to three terms into a window of a wider
    /// accumulator, leave in the window the bits `Block::gemm_acc` chained
    /// over the same terms leaves in a zeroed block, and touch nothing
    /// outside it. Both follow the per-element definition, written out
    /// here: from `+0.0`, term by term and inner index ascending, add
    /// `a * b` for every non-zero left entry `a` and right entry `b` that
    /// is stored (every entry of a dense block). Entries include `±0.0`,
    /// `±inf` and NaN, so a zero left entry that were not skipped, or an
    /// unstored right entry that were read, would show. The executor adds
    /// a run's terms into its product panel this way.
    #[test]
    fn gemm_acc_at_matches_gemm_acc_in_its_window(
        (terms, at, extra) in (1usize..=6, 1usize..=6, 0usize..=3, 0usize..=3)
            .prop_flat_map(|(m, n, at, extra)| {
                let term = (1usize..=6)
                    .prop_flat_map(move |k| (special_dense(m, k), special_block(k, n)));
                (proptest::collection::vec(term, 1..=3), Just(at), Just(extra))
            })
    ) {
        let (m, n) = (terms[0].0.rows(), terms[0].1.cols());
        let mut acc = DenseBlock::zeros(m, n);
        let mut wide = DenseBlock::filled(m, at + n + extra, 7.25);
        for r in 0..m {
            wide.row_mut(r)[at..at + n].fill(0.0);
        }
        for (l, r) in &terms {
            Block::Dense(l.clone()).gemm_acc(r, &mut acc).unwrap();
            match r {
                Block::Dense(r) => l.gemm_acc_at(r, &mut wide, at).unwrap(),
                Block::Sparse(r) => r.gemm_from_dense_acc_at(l, &mut wide, at).unwrap(),
            }
        }
        let mut defined = DenseBlock::zeros(m, n);
        for (l, r) in &terms {
            let stored: Vec<(usize, usize, f64)> = match r {
                Block::Dense(d) => (0..d.rows())
                    .flat_map(|k| (0..n).map(move |c| (k, c, d.get(k, c))))
                    .collect(),
                Block::Sparse(s) => s.iter().collect(),
            };
            for i in 0..m {
                for &(k, c, b) in &stored {
                    let a = l.get(i, k);
                    if a != 0.0 {
                        defined.set(i, c, defined.get(i, c) + a * b);
                    }
                }
            }
        }
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Against the definition a NaN is a NaN: which operand's sign and
        // payload an addition keeps is the compiler's choice.
        let canonical = |v: &[f64]| -> Vec<u64> {
            v.iter().map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits()).collect()
        };
        for r in 0..m {
            let row = wide.row(r);
            prop_assert_eq!(bits(&row[at..at + n]), bits(acc.row(r)), "row {}", r);
            prop_assert_eq!(
                canonical(&row[at..at + n]),
                canonical(defined.row(r)),
                "row {}",
                r
            );
            prop_assert!(row[..at].iter().chain(&row[at + n..]).all(|&v| v == 7.25));
        }
    }
}
