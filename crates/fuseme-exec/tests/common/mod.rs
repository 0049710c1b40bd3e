//! Shared fixtures for the executor's property tests: a random query DAG
//! generator and matching input bindings.

use std::sync::Arc;

use fuseme_matrix::{gen, BinOp, MatrixMeta, UnaryOp};
use fuseme_plan::{Bindings, DagBuilder, QueryDag};

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

/// Seeded values for [`random_dag`]'s inputs: `X` sparse at density 0.3,
/// `Y` dense.
pub fn bindings(seed: u64) -> Bindings {
    let x = gen::sparse_uniform(16, 16, 4, 0.3, -1.0, 1.0, seed).unwrap();
    let y = gen::dense_uniform(16, 16, 4, -1.0, 1.0, seed + 1).unwrap();
    [
        ("X".to_string(), Arc::new(x)),
        ("Y".to_string(), Arc::new(y)),
    ]
    .into_iter()
    .collect()
}
