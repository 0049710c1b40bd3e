//! Property-based tests for the plan layer: interpreter algebra and shape
//! inference on randomized expressions.

use std::sync::Arc;

use proptest::prelude::*;

use fuseme_matrix::{gen, AggOp, BinOp, MatrixMeta, UnaryOp};
use fuseme_plan::{evaluate, Bindings, DagBuilder, QueryDag};

fn binds(n: usize, bs: usize, seed: u64) -> Bindings {
    let a = gen::dense_uniform(n, n, bs, 0.5, 1.5, seed).unwrap();
    let b = gen::sparse_uniform(n, n, bs, 0.3, 0.5, 1.5, seed + 1).unwrap();
    [
        ("A".to_string(), Arc::new(a)),
        ("B".to_string(), Arc::new(b)),
    ]
    .into_iter()
    .collect()
}

/// Random expression over A (dense) and B (sparse), all shape-preserving.
fn random_dag(script: &[u8], n: usize, bs: usize) -> QueryDag {
    let mut b = DagBuilder::new();
    let a_in = b.input("A", MatrixMeta::dense(n, n, bs));
    let b_in = b.input("B", MatrixMeta::sparse(n, n, bs, 0.3));
    let mut pool = vec![a_in, b_in];
    for (step, &op) in script.iter().enumerate() {
        let x = pool[step % pool.len()];
        let y = pool[(step * 3 + 1) % pool.len()];
        let next = match op % 7 {
            0 => b.binary(x, y, BinOp::Add),
            1 => b.binary(x, y, BinOp::Mul),
            2 => b.matmul(x, y),
            3 => b.transpose(x),
            4 => b.unary(x, UnaryOp::Abs),
            5 => {
                let t1 = b.transpose(x);
                b.transpose(t1) // double transpose
            }
            _ => b.unary(x, UnaryOp::Identity),
        };
        pool.push(next);
    }
    b.finish(vec![*pool.last().unwrap()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Inferred shapes match evaluated shapes for every node of random DAGs.
    #[test]
    fn shape_inference_matches_evaluation(
        script in proptest::collection::vec(0u8..7, 1..12),
        seed in 0u64..500,
    ) {
        let (n, bs) = (12, 4);
        let dag = random_dag(&script, n, bs);
        let env = binds(n, bs, seed);
        let values = fuseme_plan::interp::evaluate_all(&dag, &env).unwrap();
        for node in dag.nodes() {
            if let Ok(m) = values[node.id].as_matrix() {
                prop_assert_eq!(
                    (m.shape().rows, m.shape().cols),
                    (node.meta.shape.rows, node.meta.shape.cols),
                    "node {} ({})",
                    node.id,
                    node.kind.label()
                );
            }
        }
    }

    /// The density estimate is a sound upper bound for zero-dominant chains:
    /// actual non-zeros never exceed estimate × elements (with slack for the
    /// statistical model on independent patterns).
    #[test]
    fn density_estimates_bound_sparse_gates(seed in 0u64..500) {
        let (n, bs) = (16, 4);
        let mut b = DagBuilder::new();
        let a_in = b.input("A", MatrixMeta::dense(n, n, bs));
        let b_in = b.input("B", MatrixMeta::sparse(n, n, bs, 0.3));
        let gated = b.binary(b_in, a_in, BinOp::Mul);
        let sq = b.unary(gated, UnaryOp::Square);
        let dag = b.finish(vec![sq]);
        let env = binds(n, bs, seed);
        let out = evaluate(&dag, &env).unwrap();
        let m = out[0].as_matrix().unwrap();
        let est = dag.node(dag.roots()[0]).meta.density;
        // Actual B density varies around 0.3; the estimate must stay a
        // plausible bound of the measured gate (values are positive, so no
        // accidental zeros).
        let actual = m.actual_density();
        let b_actual = env["B"].actual_density();
        prop_assert!((actual - b_actual).abs() < 1e-12);
        prop_assert!(est > 0.0 && est <= 0.5);
    }

    /// Aggregation consistency: sum(M) equals both the sum of rowSums and
    /// colSums through the interpreter, for arbitrary expressions.
    #[test]
    fn aggregation_paths_agree(
        script in proptest::collection::vec(0u8..7, 1..8),
        seed in 0u64..500,
    ) {
        let (n, bs) = (12, 4);
        let base = random_dag(&script, n, bs);
        // Re-build with three aggregation roots over the same expression.
        let mut b = DagBuilder::new();
        let a_in = b.input("A", MatrixMeta::dense(n, n, bs));
        let b_in = b.input("B", MatrixMeta::sparse(n, n, bs, 0.3));
        let mut pool = vec![a_in, b_in];
        for (step, &op) in script.iter().enumerate() {
            let x = pool[step % pool.len()];
            let y = pool[(step * 3 + 1) % pool.len()];
            let next = match op % 7 {
                0 => b.binary(x, y, BinOp::Add),
                1 => b.binary(x, y, BinOp::Mul),
                2 => b.matmul(x, y),
                3 => b.transpose(x),
                4 => b.unary(x, UnaryOp::Abs),
                5 => {
                    let t1 = b.transpose(x);
                    b.transpose(t1)
                }
                _ => b.unary(x, UnaryOp::Identity),
            };
            pool.push(next);
        }
        let expr = *pool.last().unwrap();
        let total = b.full_agg(expr, AggOp::Sum);
        let rows = b.row_agg(expr, AggOp::Sum);
        let cols = b.col_agg(expr, AggOp::Sum);
        let dag = b.finish(vec![total, rows, cols]);
        let _ = base; // shape fixture only documents the shared expression
        let env = binds(n, bs, seed);
        let out = evaluate(&dag, &env).unwrap();
        let t = out[0].as_scalar().unwrap();
        let via_rows: f64 = out[1].as_matrix().unwrap().to_dense_vec().iter().sum();
        let via_cols: f64 = out[2].as_matrix().unwrap().to_dense_vec().iter().sum();
        let tol = 1e-9 * t.abs().max(1.0);
        prop_assert!((t - via_rows).abs() < tol);
        prop_assert!((t - via_cols).abs() < tol);
    }
}
