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
use fuseme_matrix::{gen, AggOp, BinOp, MatrixMeta, UnaryOp};
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
/// `0.5 - x`, `min`, `max`). With `gate`, the sparse `X` multiplies the
/// result, as in `X * log(U %*% t(V) + eps)`. The DAG is rooted at an
/// aggregation when `root` picks one: `1..=7` are `sum`, `rowSums`,
/// `colSums`, `min`, `max`, `rowMaxs` and `colMins`.
pub fn random_kernel_dag(script: &[u8], gate: bool, root: u8) -> QueryDag {
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
    if gate {
        top = b.binary(x, top, BinOp::Mul);
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
    bindings_at(seed, 0.3)
}

/// [`bindings`] with a block-sparse `X`: at density 0.02 about 72 % of its
/// 4 × 4 blocks are absent (0.98¹⁶), so sparsity gates skip whole blocks.
pub fn sparse_bindings(seed: u64) -> Bindings {
    bindings_at(seed, 0.02)
}

/// Both bindings of a seed: the default and the block-sparse one.
pub fn both_bindings(seed: u64) -> [Bindings; 2] {
    [bindings(seed), sparse_bindings(seed)]
}

fn bindings_at(seed: u64, x_density: f64) -> Bindings {
    let x = gen::sparse_uniform(16, 16, 4, x_density, -1.0, 1.0, seed).unwrap();
    let y = gen::dense_uniform(16, 16, 4, -1.0, 1.0, seed + 1).unwrap();
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
