//! Shared fixtures for the executor's property tests: random query DAG
//! generators, matching input bindings, the plans and values to run them
//! with, and the reference interpreter kernels are checked against.

#![allow(dead_code)]

pub mod oracle;

use std::collections::BTreeSet;
use std::sync::Arc;

use fuseme_exec::fused_op::ValueMap;
use fuseme_exec::{ExecConfig, MatmulStrategy};
use fuseme_fusion::cfg::Cfg;
use fuseme_fusion::plan::{ExecUnit, PartialPlan};
use fuseme_matrix::{gen, AggOp, BinOp, Block, BlockedMatrix, DenseBlock, MatrixMeta, UnaryOp};
use fuseme_plan::{Bindings, DagBuilder, NodeId, OpKind, QueryDag};
use fuseme_sim::Cluster;

/// Random DAG over two shared-shape inputs; all ops stay shape-valid.
pub fn random_dag(script: &[u8]) -> QueryDag {
    let bs = 4;
    let n = 16;
    let mut b = DagBuilder::new();
    let x = b.input("X", MatrixMeta::sparse(n, n, bs, 0.3));
    let y = b.input("Y", MatrixMeta::dense(n, n, bs));
    let mut pool = vec![x, y];
    for (step, &op) in script.iter().enumerate() {
        let a = pool[step % pool.len()];
        let c = pool[(step * 5 + 1) % pool.len()];
        let next = match op {
            0 => b.binary(a, c, BinOp::Add),
            1 => b.binary(a, c, BinOp::Mul),
            2 => b.matmul(a, c),
            3 => b.transpose(a),
            4 => b.unary(a, UnaryOp::Abs),
            5 => b.binary(a, c, BinOp::Sub),
            6 => {
                let half = b.scalar(0.5);
                b.binary(a, half, BinOp::Mul)
            }
            _ => b.unary(a, UnaryOp::Square),
        };
        pool.push(next);
    }
    b.finish(vec![*pool.last().unwrap()])
}

/// [`random_dag`]'s operators plus ones that turn zeros into non-zeros,
/// negative zeros and NaNs (`exp`, `-x`, `log`, `sqrt`, `x + 0.5`,
/// `0.5 - x`, `min`, `max`). `gate` picks how the result `top` is gated,
/// as in `X * log(U %*% t(V) + eps)`: `1` is `X * top`, `2` is
/// `top * log(Y %*% Y + 0.5)`, where a product of dense `Y` blocks meets a
/// gate that is sparse when `top` is, and `3` is `(Y %*% t(Y)) * (X * top)`,
/// where it meets one that is sparse wherever `X` is; anything else leaves
/// `top` ungated. The DAG is rooted at an aggregation when `root` picks
/// one: `1..=7` are `sum`, `rowSums`, `colSums`, `min`, `max`, `rowMaxs`
/// and `colMins`.
pub fn random_kernel_dag(script: &[u8], gate: u8, root: u8) -> QueryDag {
    let bs = 4;
    let n = 16;
    let mut b = DagBuilder::new();
    let x = b.input("X", MatrixMeta::sparse(n, n, bs, 0.3));
    let y = b.input("Y", MatrixMeta::dense(n, n, bs));
    let mut pool = vec![x, y];
    for (step, &op) in script.iter().enumerate() {
        let a = pool[step % pool.len()];
        let c = pool[(step * 5 + 1) % pool.len()];
        let half = b.scalar(0.5);
        let next = match op {
            0 => b.binary(a, c, BinOp::Add),
            1 => b.binary(a, c, BinOp::Mul),
            2 => b.matmul(a, c),
            3 => b.transpose(a),
            4 => b.unary(a, UnaryOp::Abs),
            5 => b.binary(a, c, BinOp::Sub),
            6 => b.binary(a, half, BinOp::Mul),
            7 => b.unary(a, UnaryOp::Square),
            8 => b.unary(a, UnaryOp::Exp),
            9 => b.unary(a, UnaryOp::Neg),
            10 => b.unary(a, UnaryOp::Log),
            11 => b.unary(a, UnaryOp::Sqrt),
            12 => b.binary(a, half, BinOp::Add),
            13 => b.binary(half, a, BinOp::Sub),
            14 => b.binary(a, c, BinOp::Min),
            _ => b.binary(a, c, BinOp::Max),
        };
        pool.push(next);
    }
    let mut top = *pool.last().unwrap();
    match gate {
        1 => top = b.binary(x, top, BinOp::Mul),
        2 => {
            let yy = b.matmul(y, y);
            let half = b.scalar(0.5);
            let shifted = b.binary(yy, half, BinOp::Add);
            let lg = b.unary(shifted, UnaryOp::Log);
            top = b.binary(top, lg, BinOp::Mul);
        }
        3 => {
            let yt = b.transpose(y);
            let yyt = b.matmul(y, yt);
            let gate = b.binary(x, top, BinOp::Mul);
            top = b.binary(yyt, gate, BinOp::Mul);
        }
        _ => {}
    }
    let root = match root {
        1 => b.full_agg(top, AggOp::Sum),
        2 => b.row_agg(top, AggOp::Sum),
        3 => b.col_agg(top, AggOp::Sum),
        4 => b.full_agg(top, AggOp::Min),
        5 => b.full_agg(top, AggOp::Max),
        6 => b.row_agg(top, AggOp::Max),
        7 => b.col_agg(top, AggOp::Min),
        _ => top,
    };
    b.finish(vec![root])
}

/// Seeded values for [`random_dag`]'s inputs: `X` sparse at density 0.3,
/// `Y` dense.
pub fn bindings(seed: u64) -> Bindings {
    bind(sparse_x(seed, 0.3), dense_y(seed, -1.0))
}

/// [`bindings`] with a block-sparse `X`: at density 0.02 about 72 % of its
/// 4 × 4 blocks are absent (0.98¹⁶), so sparsity gates skip whole blocks.
pub fn sparse_bindings(seed: u64) -> Bindings {
    bind(sparse_x(seed, 0.02), dense_y(seed, -1.0))
}

/// [`bindings`] with every `Y` entry in (0.1, 1): products of dense `Y`
/// blocks hold the kernel's certificate, so a multiplication gated by `X`
/// runs only at `X`'s stored cells.
pub fn positive_bindings(seed: u64) -> Bindings {
    bind(sparse_x(seed, 0.3), dense_y(seed, 0.1))
}

/// [`bindings`] with a `Y` of exact zeros, `-0.0` and `±1` (35 %, 35 %,
/// 15 %, 15 %), still stored dense, in which three block rows of four keep
/// only their first row non-zero: products cancel to exact zeros, and in
/// those block rows compact to sparse blocks, where a gate then stores
/// `-0.0` or drops the cell. A gated multiplication must fall back to the
/// dense accumulator.
pub fn hazard_bindings(seed: u64) -> Bindings {
    let uniform = dense_y(seed, 0.0);
    let y = BlockedMatrix::from_blocks(
        *uniform.meta(),
        uniform.iter_blocks().map(|(bi, bj, b)| {
            let d = b.to_dense();
            let thin = !(bi as u64 + seed).is_multiple_of(4);
            let values = d.data().iter().enumerate().map(|(at, &u)| match u {
                u if u < 0.35 => 0.0,
                _ if u < 0.7 || (thin && at >= d.cols()) => -0.0,
                u if u < 0.85 => 1.0,
                _ => -1.0,
            });
            let block = DenseBlock::from_vec(d.rows(), d.cols(), values.collect()).unwrap();
            ((bi, bj), Block::Dense(block))
        }),
    )
    .unwrap();
    bind(sparse_x(seed, 0.3), y)
}

/// Every binding of a seed: the default, block-sparse, positive and
/// hazard ones.
pub fn all_bindings(seed: u64) -> [Bindings; 4] {
    [
        bindings(seed),
        sparse_bindings(seed),
        positive_bindings(seed),
        hazard_bindings(seed),
    ]
}

fn sparse_x(seed: u64, density: f64) -> BlockedMatrix {
    gen::sparse_uniform(16, 16, 4, density, -1.0, 1.0, seed).unwrap()
}

/// A dense 16 × 16 `Y` uniform in `(lo, 1)`.
fn dense_y(seed: u64, lo: f64) -> BlockedMatrix {
    gen::dense_uniform(16, 16, 4, lo, 1.0, seed + 1).unwrap()
}

fn bind(x: BlockedMatrix, y: BlockedMatrix) -> Bindings {
    [
        ("X".to_string(), Arc::new(x)),
        ("Y".to_string(), Arc::new(y)),
    ]
    .into_iter()
    .collect()
}

/// Plans to run: every fused unit CFG picks, every single operator as a
/// singleton plan, and the whole query when it is one legal plan.
pub fn plans(dag: &QueryDag, cluster: &Cluster) -> Vec<PartialPlan> {
    let config = ExecConfig::for_cluster(cluster, MatmulStrategy::Cfo);
    let mut out: Vec<PartialPlan> = Cfg::new(config.model)
        .plan(dag)
        .units
        .into_iter()
        .filter_map(|u| match u {
            ExecUnit::Fused(p) => Some(p),
            ExecUnit::Single(_) => None,
        })
        .collect();
    let members: Vec<NodeId> = dag
        .nodes()
        .iter()
        .filter(|n| !n.kind.is_leaf())
        .map(|n| n.id)
        .collect();
    out.extend(
        members
            .iter()
            .map(|&id| PartialPlan::new(BTreeSet::from([id]), id)),
    );
    let whole = PartialPlan::new(members.into_iter().collect(), dag.roots()[0]);
    if whole.validate(dag).is_ok() {
        out.push(whole);
    }
    out
}

/// Values for a plan's external inputs: `binds` for input leaves, a seeded
/// sparse matrix of the node's shape for intermediates.
pub fn values_for(dag: &QueryDag, plan: &PartialPlan, binds: &Bindings, seed: u64) -> ValueMap {
    plan.external_inputs(dag)
        .into_iter()
        .filter_map(|id| {
            let n = dag.node(id);
            let m = match &n.kind {
                OpKind::Scalar(_) => return None,
                OpKind::Input { name } => Arc::clone(&binds[name]),
                _ => {
                    let meta = n.meta;
                    let m = gen::sparse_uniform(
                        meta.shape.rows,
                        meta.shape.cols,
                        meta.block_size,
                        0.1,
                        -1.0,
                        1.0,
                        seed + id as u64,
                    )
                    .unwrap();
                    Arc::new(m)
                }
            };
            Some((id, m))
        })
        .collect()
}
