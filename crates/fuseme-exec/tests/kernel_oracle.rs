//! Block programs against the recursive interpreter they replaced.
//!
//! Every exec unit lowers its plan once into block programs
//! (`fuseme_exec::kernel::BlockProgram`) that tasks run from the blocks
//! present in their stores. The oracle (`common::oracle`) is the plan
//! interpreted per block, probing support coordinate by coordinate. On
//! random query DAGs — element-wise, multiplication and aggregation roots
//! (`sum`, `rowSums`, `colSums`, min, max) — under cuboid (`R = 1` and
//! `R > 1`), striped, BFO and RFO layouts, and on every binding of
//! `common::all_bindings` — the default, the block-sparse one, a positive
//! `Y` whose products take the gated multiplication, and a hazard `Y` of
//! zeros, `±0.0` and `±1` whose products fall back to the dense
//! accumulator — every task must agree with the oracle on:
//!
//! * the supported output coordinates of its tile, in tile order;
//! * every output block, stage-1 partial and aggregation partial, bit for
//!   bit: same format, same pattern, same `to_bits` of every value
//!   (so ±0.0 and NaN count).
//!
//! Stage 2 runs the plan without its main multiplication over the
//! reducer's store with the group's aggregated product added as that
//! multiplication's node; the oracle interprets the same reduced plan over
//! the same store.

use proptest::prelude::*;

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::oracle::{self, KernelCtx};
use common::{all_bindings, bindings, plans, random_kernel_dag, values_for};
use fuseme_exec::fused_op::{group_partials, route, task_layout, Layout, UnitKernel};
use fuseme_exec::kernel::BlockProgram;
use fuseme_exec::{LocalStore, Strategy};
use fuseme_fusion::optimizer::Pqr;
use fuseme_fusion::plan::PartialPlan;
use fuseme_matrix::{gen, AggOp, BinOp, Block, BlockedMatrix, MatrixMeta, SparseBlock, UnaryOp};
use fuseme_plan::{Bindings, DagBuilder, Expr, NodeId, OpKind, QueryDag};
use fuseme_sim::{Cluster, ClusterConfig, SimError};

/// Outputs agree when both succeed bit-identically or both fail.
fn check<T>(
    got: &Result<T, SimError>,
    want: &Result<T, SimError>,
    cmp: impl Fn(&T, &T) -> Option<String>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(g), Ok(w)) => cmp(g, w).map_or(Ok(()), Err),
        (Err(_), Err(_)) => Ok(()),
        (Ok(_), Err(e)) => Err(format!("program succeeded, oracle failed: {e}")),
        (Err(e), Ok(_)) => Err(format!("program failed: {e}")),
    }
}

/// The supported coordinates of a task's tile, `program` (compiled from
/// `ops`) vs the oracle interpreting `ops`.
fn check_support(
    dag: &QueryDag,
    (ops, program): (&BTreeSet<NodeId>, &BlockProgram),
    layout: &Layout,
    (tile_k, store): (std::ops::Range<usize>, &LocalStore),
    tile: &fuseme_exec::kernel::Footprint,
) -> Result<(), String> {
    let ctx = KernelCtx::new(dag, ops, layout.main_mm, tile_k.clone(), store);
    let want: Vec<_> = tile
        .coords()
        .filter(|&(bi, bj)| ctx.has_support(layout.compute_node, bi, bj))
        .collect();
    let got = program.bind(store, tile_k).supported(tile);
    if got == want {
        Ok(())
    } else {
        Err(format!("supported {got:?}, want {want:?}"))
    }
}

/// Runs every task of `plan` under `strategy` through the unit kernel and
/// the oracle, stage by stage.
fn compare_unit(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &fuseme_exec::fused_op::ValueMap,
    strategy: &Strategy,
) -> Result<(), String> {
    let layout = task_layout(cluster, dag, plan, values, strategy);
    let stores = route(dag, plan, values, &layout);
    let kernel = UnitKernel::compile(dag, plan, &layout);
    let program = BlockProgram::compile(dag, &plan.ops, layout.main_mm, layout.compute_node);
    let mut partials = Vec::new();
    for (t, (task, store)) in layout.tasks.iter().zip(&stores).enumerate() {
        let at = |e: String| format!("stage-1 task {t}: {e}");
        check_support(
            dag,
            (&plan.ops, &program),
            &layout,
            (task.k_range.clone(), store),
            &task.out,
        )
        .map_err(at)?;
        let got = kernel.stage1(task, store);
        let want = oracle::stage1(dag, plan, &layout, task, store);
        check(&got, &want, oracle::diff).map_err(at)?;
        match got {
            Ok(out) => partials.push(out),
            Err(_) => return Ok(()),
        }
    }
    if layout.r <= 1 {
        return Ok(());
    }
    let (grouped, _) = group_partials(&layout, partials).map_err(|e| e.to_string())?;
    let mm = layout
        .main_mm
        .ok_or("two-stage layout without a multiplication")?;
    let ops = oracle::stage2_ops(plan, mm);
    let program = BlockProgram::compile(dag, &ops, layout.main_mm, layout.compute_node);
    for task in layout.tasks.iter().filter(|t| t.is_reducer) {
        let at = |e: String| format!("stage-2 group {}: {e}", task.group);
        let mut store = stores[task.id].clone();
        if let Some(product) = grouped.get(&task.group) {
            store.insert(mm, product.clone());
        }
        check_support(dag, (&ops, &program), &layout, (0..0, &store), &task.out).map_err(at)?;
        let got = kernel.stage2(task, &store);
        let want = oracle::stage2(dag, plan, &layout, task, &store);
        check(&got, &want, oracle::diff).map_err(at)?;
    }
    Ok(())
}

/// Cases of the random test: `PROPTEST_CASES` when set, else 32.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn block_programs_match_interpreter(
        ops in proptest::collection::vec(0u8..16, 1..12),
        gate in 0u8..4,
        root in 0u8..8,
        seed in 0u64..10_000,
        p in 1usize..6,
        q in 1usize..6,
        r in 2usize..5,
        partition_bytes in 64u64..8192,
        slots in 1usize..6,
    ) {
        let dag = random_kernel_dag(&ops, gate, root);
        let mut cc = ClusterConfig::test_small();
        cc.tasks_per_node = slots;
        cc.partition_bytes = partition_bytes;
        cc.mem_per_task = 256 << 20;
        let cluster = Cluster::new(cc);
        let strategies = [
            Strategy::Cuboid { pqr: Pqr { p, q, r: 1 } },
            Strategy::Cuboid { pqr: Pqr { p, q, r } },
            Strategy::Broadcast { partition_bytes },
            Strategy::Replication,
        ];
        for plan in plans(&dag, &cluster) {
            // Nodes that fold into an aggregation inside a plan are not
            // executable; the driver never builds such plans.
            if plan.ops.iter().any(|&n| n != plan.root && matches!(
                dag.node(n).kind,
                OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_)
            )) {
                continue;
            }
            for binds in all_bindings(seed) {
                let values = values_for(&dag, &plan, &binds, seed);
                for strategy in &strategies {
                    if let Err(e) = compare_unit(&cluster, &dag, &plan, &values, strategy) {
                        prop_assert!(false, "{}\n{:?} on plan {:?}\n{}", e, strategy, plan, dag);
                    }
                }
            }
        }
    }
}

/// Bindings for the gated multiplication at `n × n` in 4 × 4 blocks, all
/// over a dense `Y`: `X` at density 0.3 and at density 0.1, whose present
/// blocks mostly hold one to three stored cells, over a positive `Y`; and
/// `X` at density 0.3 over a positive `Y` whose first block row and column
/// are scaled to about `1e-200`. A term of two such blocks has floors, and
/// products, that underflow to zero, so it must not be certified: the
/// products fall back to the dense accumulator, where every term of block
/// `(0, 0)` is zero and the block compacts to an empty sparse one.
fn gated_bindings(n: usize, seed: u64) -> [Bindings; 3] {
    let x = |density| gen::sparse_uniform(n, n, 4, density, -1.0, 1.0, seed).unwrap();
    let y = gen::dense_uniform(n, n, 4, 0.1, 1.0, seed + 1).unwrap();
    let tiny = BlockedMatrix::from_blocks(
        *y.meta(),
        y.iter_blocks().map(|(bi, bj, b)| {
            let scale = if bi == 0 || bj == 0 { 1e-200 } else { 1.0 };
            ((bi, bj), b.scalar_zip(scale, BinOp::Mul))
        }),
    )
    .unwrap();
    let bind = |x: BlockedMatrix, y: BlockedMatrix| -> Bindings {
        [
            ("X".to_string(), Arc::new(x)),
            ("Y".to_string(), Arc::new(y)),
        ]
        .into_iter()
        .collect()
    };
    let thin = x(0.1);
    assert!(
        thin.iter_blocks()
            .any(|(_, _, b)| (1..=3).contains(&b.nnz())),
        "some X block holds one to three cells"
    );
    [bind(x(0.3), y.clone()), bind(thin, y), bind(x(0.3), tiny)]
}

/// The gated multiplication's shapes, pinned rather than left to the random
/// generator: a densifying chain over a product (`X * log(Y %*% t(Y) +
/// 0.5)`), a bare product with the gate on either side, and a chain that
/// keeps zeros (`X * -(Y %*% Y)`), on every binding of a few seeds and on
/// [`gated_bindings`]. The positive bindings take the gated path, its
/// cells four at a time with one to three left over; the hazard binding's
/// products compact to sparse blocks and must fall back, since a gate over
/// a sparse product stores `-0.0` or drops the cell; so must the products
/// whose certificate underflows. At 18 × 18 the last block row and column
/// are 2 wide, and so is the last `k` of every product.
#[test]
fn gated_products_match_interpreter() {
    type Shape = fn(&mut DagBuilder, Expr, Expr) -> Expr;
    let shapes: [Shape; 4] = [
        |b, x, y| {
            let yt = b.transpose(y);
            let p = b.matmul(y, yt);
            let half = b.scalar(0.5);
            let shifted = b.binary(p, half, BinOp::Add);
            let lg = b.unary(shifted, UnaryOp::Log);
            b.binary(x, lg, BinOp::Mul)
        },
        |b, x, y| {
            let p = b.matmul(y, y);
            b.binary(p, x, BinOp::Mul)
        },
        |b, x, y| {
            let yt = b.transpose(y);
            let p = b.matmul(yt, y);
            b.binary(x, p, BinOp::Mul)
        },
        |b, x, y| {
            let p = b.matmul(y, y);
            let neg = b.unary(p, UnaryOp::Neg);
            b.binary(x, neg, BinOp::Mul)
        },
    ];
    let cluster = Cluster::new(ClusterConfig::test_small());
    for (shape, n) in shapes.into_iter().flat_map(|s| [(s, 16), (s, 18)]) {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(n, n, 4, 0.3));
        let y = b.input("Y", MatrixMeta::dense(n, n, 4));
        let out = shape(&mut b, x, y);
        let dag = b.finish(vec![out]);
        for seed in 0..4 {
            let mut all = gated_bindings(n, seed).to_vec();
            if n == 16 {
                all.extend(all_bindings(seed));
            }
            for plan in plans(&dag, &cluster) {
                for binds in &all {
                    let values = values_for(&dag, &plan, binds, seed);
                    for (p, q) in [(1, 1), (2, 3), (4, 4)] {
                        let strategy = Strategy::Cuboid {
                            pqr: Pqr { p, q, r: 1 },
                        };
                        if let Err(e) = compare_unit(&cluster, &dag, &plan, &values, &strategy) {
                            panic!(
                                "{e}\n({p},{q},1), {n} × {n}, seed {seed}, plan {plan:?}\n{dag}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `(X - Y %*% Y)^2`, the shape of GNMF's loss.
fn squared_error(b: &mut DagBuilder, x: Expr, y: Expr) -> Expr {
    let p = b.matmul(y, y);
    let d = b.binary(x, p, BinOp::Sub);
    b.unary(d, UnaryOp::Square)
}

/// `exp(X - Y %*% Y) * X`.
fn exp_gated(b: &mut DagBuilder, x: Expr, y: Expr) -> Expr {
    let p = b.matmul(y, y);
    let d = b.binary(x, p, BinOp::Sub);
    let e = b.unary(d, UnaryOp::Exp);
    b.binary(e, x, BinOp::Mul)
}

/// `exp(X - Y %*% Y) - Y`.
fn exp_shifted(b: &mut DagBuilder, x: Expr, y: Expr) -> Expr {
    let p = b.matmul(y, y);
    let d = b.binary(x, p, BinOp::Sub);
    let e = b.unary(d, UnaryOp::Exp);
    b.binary(e, y, BinOp::Sub)
}

/// [`bindings`] with holes in `Y`: its block column `1 + seed % 3` and
/// block `(seed % 4, 0)` are absent. Products in that column have no
/// terms, so where `X` is absent too their blocks are unsupported. In a
/// row whose products at column 0 lose the term `k = seed % 4`, the other
/// columns keep it: the row's blocks sum over different `k`s.
fn holed_bindings(seed: u64) -> Bindings {
    let mut binds = bindings(seed);
    let y = &binds["Y"];
    let kept = y
        .iter_blocks()
        .filter(|&(bi, bj, _)| bj as u64 != 1 + seed % 3 && (bi as u64, bj) != (seed % 4, 0))
        .map(|(bi, bj, b)| ((bi, bj), Arc::clone(b)));
    let holed = BlockedMatrix::from_blocks(*y.meta(), kept).unwrap();
    binds.insert("Y".to_string(), Arc::new(holed));
    binds
}

/// [`bindings`] with `X`'s stored values replaced, one by one in turn, by
/// `0.0`, `-0.0`, `inf`, `-inf` and NaN where `(row + col + seed) % 3 ==
/// 0`: they stay stored, so a zero-filled panel must read them as stored.
fn special_bindings(seed: u64) -> Bindings {
    let mut binds = bindings(seed);
    let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut next = 0;
    let mut special = |r: usize, c: usize, v: f64| {
        if !(r + c + seed as usize).is_multiple_of(3) {
            return v;
        }
        next += 1;
        specials[next % specials.len()]
    };
    let x = &binds["X"];
    let blocks: Vec<_> = x
        .iter_blocks()
        .map(|(bi, bj, b)| {
            let block = match &**b {
                Block::Sparse(s) => Block::Sparse(s.map_stored(&mut special)),
                Block::Dense(d) => {
                    let mut d = d.clone();
                    for r in 0..d.rows() {
                        for c in 0..d.cols() {
                            d.set(r, c, special(r, c, d.get(r, c)));
                        }
                    }
                    Block::Dense(d)
                }
            };
            ((bi, bj), block)
        })
        .collect();
    let special_x = BlockedMatrix::from_blocks(*x.meta(), blocks).unwrap();
    binds.insert("X".to_string(), Arc::new(special_x));
    binds
}

/// [`bindings`] with `Y` rows that are all zero, as `V`'s rows are for
/// users without ratings: in every block of `Y`, rows `r` with `(r + seed +
/// block row) % 4 != 0` are zeroed in odd block columns and row `seed % 4`
/// in even ones. Each block is then stored as `compact()` stores it: the
/// odd columns' blocks, one row in four, sparse, with no stored zeros; the
/// others dense, with zeros.
fn zero_row_bindings(seed: u64) -> Bindings {
    let mut binds = bindings(seed);
    let y = &binds["Y"];
    let blocks: Vec<_> = y
        .iter_blocks()
        .map(|(bi, bj, b)| {
            let mut d = b.to_dense();
            for r in 0..d.rows() {
                let zero = match bj % 2 {
                    1 => !(r + seed as usize + bi).is_multiple_of(4),
                    _ => r as u64 == seed % 4,
                };
                if zero {
                    d.row_mut(r).fill(0.0);
                }
            }
            ((bi, bj), Block::Dense(d).compact())
        })
        .collect();
    let thin = BlockedMatrix::from_blocks(*y.meta(), blocks).unwrap();
    assert!(thin.iter_blocks().any(|(_, _, b)| b.is_sparse()));
    assert!(thin.iter_blocks().any(|(_, _, b)| !b.is_sparse()));
    binds.insert("Y".to_string(), Arc::new(thin));
    binds
}

/// [`bindings`] with an `X` whose blocks store one or two full rows, as
/// sparse blocks: row `(bi + bj + seed) % 4`, and in odd block columns row
/// `(bi + bj + seed + 2) % 4` too. A single-term product of such a block
/// and a dense `Y` block fills one row of four, and `compact()` stores it
/// sparse, or two rows, and it stays dense.
fn thin_x_bindings(seed: u64) -> Bindings {
    let mut binds = bindings(seed);
    let values = gen::dense_uniform(16, 16, 4, -1.0, 1.0, seed + 7).unwrap();
    let blocks: Vec<_> = values
        .iter_blocks()
        .map(|(bi, bj, b)| {
            let mut d = b.to_dense();
            let first = (bi + bj + seed as usize) % 4;
            for r in 0..d.rows() {
                if r != first && (bj % 2 == 0 || r != (first + 2) % 4) {
                    d.row_mut(r).fill(0.0);
                }
            }
            ((bi, bj), Block::Sparse(SparseBlock::from_dense(&d)))
        })
        .collect();
    let thin = BlockedMatrix::from_blocks(*binds["X"].meta(), blocks).unwrap();
    binds.insert("X".to_string(), Arc::new(thin));
    binds
}

/// Runs of output blocks through the row pass, pinned: GNMF's loss
/// `sum((X - Y %*% Y)^2)` and its `rowSums`, `colSums`, min and max forms,
/// longer chains after the product (`exp(X - Y %*% Y) * X`, whose `* X`
/// gates it block by block, and `exp(X - Y %*% Y) - Y`, which runs on the
/// pass) in full, row and column forms, `sum(X + 1 / -(Y %*% Y))`, which
/// tells a product's zeros stored dense (`-0.0`, so `-inf`) from a product
/// compacted to sparse (`+inf`), a stored element-wise output over
/// a product with a computed right operand (`(Y %*% t(Y)) + X`), GNMF's
/// update shape `Y * (t(Y) %*% X)`, whose `k`s come from `X`'s column when
/// it holds fewer blocks than `t(Y)`'s, bare products, whose `R > 1`
/// layouts hand back stage-1 partials run by run, the loss's compute node
/// `(X - Y %*% Y)^2` stored, which reads `X` zero-filled, and the update
/// with its denominator `Y * (t(Y) %*% X) / (Y + 1e-9)`, whose stage 2 at
/// `R > 1` is an element-wise output stored by the row pass, and products
/// with sparse or transposed operands, built term-major: `t(X) %*% Y`,
/// whose left operand is read transposed from sparse blocks, `X %*% Y`
/// stored and folded by `sum`, `t(Y) %*% X`, the update's stage-1 partial,
/// whose sparse right operand stores `±0.0`, `±inf` and NaN under the
/// special binding, and `t(X) %*% X`, where those meet a sparse left
/// operand that stores `±0.0` too. Every binding of a few seeds plus one with holes in
/// `Y`, one with `±0.0`, `±inf` and NaN stored in `X`, one whose `Y`
/// has all-zero rows, stored sparse or dense, and one whose `X` blocks
/// store one or two rows, under tilings whose runs are whole block rows,
/// cut by tile edges, or single blocks. The last tiling gives every task
/// one block column and one `k`: its stored `X %*% Y` and `sum` of it
/// compute single-term products of thin sparse `X` blocks block by block,
/// which compact to sparse blocks where one row is stored. Runs are also cut
/// by unsupported blocks (the holes), sum over different `k`s per block
/// (the holes, and `X`'s absent blocks on the right), fall back where a
/// product compacts to sparse in front of another operator (the hazard and
/// zero-row bindings) or a sparse left block stores `±0.0` (the special
/// binding), and read absent and sparse `X` blocks as zeros (every
/// binding). A stored product compacts its blocks one by one.
#[test]
fn panel_runs_match_interpreter() {
    type Shape = fn(&mut DagBuilder, Expr, Expr) -> Expr;
    let shapes: [Shape; 23] = [
        |b, x, y| {
            let e = squared_error(b, x, y);
            b.full_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let e = squared_error(b, x, y);
            b.row_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let e = squared_error(b, x, y);
            b.col_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let e = squared_error(b, x, y);
            b.full_agg(e, AggOp::Min)
        },
        |b, x, y| {
            let e = squared_error(b, x, y);
            b.full_agg(e, AggOp::Max)
        },
        |b, x, y| {
            let e = exp_gated(b, x, y);
            b.full_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let e = exp_gated(b, x, y);
            b.row_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let e = exp_gated(b, x, y);
            b.col_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let e = exp_shifted(b, x, y);
            b.full_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let e = exp_shifted(b, x, y);
            b.row_agg(e, AggOp::Max)
        },
        |b, x, y| {
            let e = exp_shifted(b, x, y);
            b.col_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let p = b.matmul(y, y);
            let neg = b.unary(p, UnaryOp::Neg);
            let one = b.scalar(1.0);
            let inv = b.binary(one, neg, BinOp::Div);
            let e = b.binary(x, inv, BinOp::Add);
            b.full_agg(e, AggOp::Sum)
        },
        |b, x, y| {
            let yt = b.transpose(y);
            let p = b.matmul(y, yt);
            b.binary(p, x, BinOp::Add)
        },
        |b, x, y| {
            let yt = b.transpose(y);
            let p = b.matmul(yt, x);
            b.binary(y, p, BinOp::Mul)
        },
        |b, _, y| b.matmul(y, y),
        |b, _, y| {
            let yt = b.transpose(y);
            b.matmul(y, yt)
        },
        squared_error,
        |b, x, y| {
            let yt = b.transpose(y);
            let p = b.matmul(yt, x);
            let num = b.binary(y, p, BinOp::Mul);
            let eps = b.scalar(1e-9);
            let den = b.binary(y, eps, BinOp::Add);
            b.binary(num, den, BinOp::Div)
        },
        |b, x, y| {
            let xt = b.transpose(x);
            b.matmul(xt, y)
        },
        |b, x, y| b.matmul(x, y),
        |b, x, y| {
            let p = b.matmul(x, y);
            b.full_agg(p, AggOp::Sum)
        },
        |b, x, y| {
            let yt = b.transpose(y);
            b.matmul(yt, x)
        },
        |b, x, _| {
            let xt = b.transpose(x);
            b.matmul(xt, x)
        },
    ];
    let tilings = [
        (1, 1, 1),
        (1, 2, 1),
        (2, 3, 1),
        (4, 4, 1),
        (1, 1, 2),
        (2, 1, 4),
        (1, 4, 4),
    ];
    let cluster = Cluster::new(ClusterConfig::test_small());
    for shape in shapes {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(16, 16, 4, 0.3));
        let y = b.input("Y", MatrixMeta::dense(16, 16, 4));
        let out = shape(&mut b, x, y);
        let dag = b.finish(vec![out]);
        for seed in 0..3 {
            let more = [
                holed_bindings(seed),
                special_bindings(seed),
                zero_row_bindings(seed),
                thin_x_bindings(seed),
            ];
            let binds = all_bindings(seed).into_iter().chain(more);
            for binds in binds {
                for plan in plans(&dag, &cluster) {
                    let values = values_for(&dag, &plan, &binds, seed);
                    for (p, q, r) in tilings {
                        let strategy = Strategy::Cuboid {
                            pqr: Pqr { p, q, r },
                        };
                        if let Err(e) = compare_unit(&cluster, &dag, &plan, &values, &strategy) {
                            panic!("{e}\n({p},{q},{r}), seed {seed}, plan {plan:?}\n{dag}");
                        }
                    }
                }
            }
        }
    }
}
