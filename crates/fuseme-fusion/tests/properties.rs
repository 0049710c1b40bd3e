//! Property-based tests for the fusion layer: cost-model monotonicity, the
//! optimizer's equivalence with exhaustive search, and planner validity on
//! randomized query DAGs.

use proptest::prelude::*;

use fuseme_fusion::cfg::{explore, Cfg};
use fuseme_fusion::cost::{estimate, CostModel};
use fuseme_fusion::folded::Folded;
use fuseme_fusion::gen_like::GenLike;
use fuseme_fusion::optimizer::{optimize, optimize_exhaustive};
use fuseme_fusion::plan::{reaches_via_consumers, ExecUnit, PartialPlan};
use fuseme_fusion::space::SpaceTree;
use fuseme_matrix::{BinOp, MatrixMeta, UnaryOp};
use fuseme_plan::{DagBuilder, QueryDag};

/// The NMF-shaped plan with randomized grid extents and density.
fn nmf_fixture(i: usize, j: usize, k: usize, density: f64) -> (QueryDag, PartialPlan) {
    let bs = 4;
    let mut b = DagBuilder::new();
    let x = b.input("X", MatrixMeta::sparse(i * bs, j * bs, bs, density));
    let u = b.input("U", MatrixMeta::dense(i * bs, k * bs, bs));
    let v = b.input("V", MatrixMeta::dense(j * bs, k * bs, bs));
    let vt = b.transpose(v);
    let mm = b.matmul(u, vt);
    let lg = b.unary(mm, UnaryOp::Sqrt);
    let o = b.binary(x, lg, BinOp::Mul);
    let dag = b.finish(vec![o]);
    let plan = PartialPlan::new(
        [vt.id(), mm.id(), lg.id(), o.id()].into_iter().collect(),
        o.id(),
    );
    (dag, plan)
}

fn model(mem: u64) -> CostModel {
    CostModel {
        nodes: 4,
        tasks_per_node: 4,
        mem_per_task: mem,
        net_bandwidth: 1e7,
        compute_bandwidth: 1e9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NetEst is monotone non-decreasing and MemEst monotone non-increasing
    /// in each of P, Q, R — the property the pruning search relies on.
    #[test]
    fn estimates_are_monotone(
        i in 2usize..12, j in 2usize..12, k in 1usize..6,
        density in 0.01f64..1.0,
        p in 1usize..8, q in 1usize..8, r in 1usize..4,
    ) {
        let (dag, plan) = nmf_fixture(i, j, k, density);
        let tree = SpaceTree::build(&dag, &plan);
        let base = estimate(&dag, &plan, &tree, p, q, r);
        for (dp, dq, dr) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
            let grown = estimate(&dag, &plan, &tree, p + dp, q + dq, r + dr);
            prop_assert!(
                grown.net_bytes >= base.net_bytes,
                "net must not shrink when ({dp},{dq},{dr}) grows"
            );
            // Memory is monotone non-increasing in P and Q (what the
            // pruning binary search relies on), and in R within the
            // two-stage regime (r ≥ 2). The single r = 1 → 2 step is
            // exempt: moving from single- to two-stage execution adds the
            // partial-result footprint, so memory may grow there.
            if dr == 0 || r >= 2 {
                prop_assert!(
                    grown.mem_bytes <= base.mem_bytes + 64, // int-division jitter
                    "mem must not grow when ({dp},{dq},{dr}) grows"
                );
            }
        }
    }

    /// The global memory minimum over the whole (P, Q, R) space lies at the
    /// finest grid — either (I, J, K) or, when the two-stage aggregation
    /// footprint dominates, the single-stage corner (I, J, 1). This is the
    /// property `min_feasible_theta` relies on to report the smallest
    /// per-task budget that could have admitted the unit.
    #[test]
    fn finest_point_attains_min_memory(
        i in 2usize..10, j in 2usize..10, k in 1usize..6,
        density in 0.01f64..1.0,
    ) {
        let (dag, plan) = nmf_fixture(i, j, k, density);
        let tree = SpaceTree::build(&dag, &plan);
        let finest = estimate(&dag, &plan, &tree, i, j, k).mem_bytes;
        let single = estimate(&dag, &plan, &tree, i, j, 1).mem_bytes;
        let floor = finest.min(single);
        for p in 1..=i {
            for q in 1..=j {
                for r in 1..=k {
                    let m = estimate(&dag, &plan, &tree, p, q, r).mem_bytes;
                    prop_assert!(
                        m + 64 >= floor, // int-division jitter
                        "({p},{q},{r}) undercuts the finest-grid floor: {m} < {floor}"
                    );
                }
            }
        }
    }

    /// The pruning search returns exactly the exhaustive optimum for random
    /// shapes and budgets.
    #[test]
    fn pruning_equals_exhaustive(
        i in 2usize..14, j in 2usize..14, k in 1usize..6,
        density in 0.01f64..1.0,
        mem_kb in 8u64..512,
    ) {
        let (dag, plan) = nmf_fixture(i, j, k, density);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(mem_kb << 10);
        let a = optimize(&dag, &plan, &tree, &m);
        let b = optimize_exhaustive(&dag, &plan, &tree, &m);
        prop_assert_eq!(a.feasible, b.feasible);
        if a.feasible {
            prop_assert_eq!(a.pqr, b.pqr, "cost {} vs {}", a.cost, b.cost);
        }
    }

    /// Every planner produces a valid partition of every random DAG:
    /// CFG, the GEN-like baseline, and the folded baseline. Every fused
    /// unit's main multiplication reaches no other member multiplication
    /// through in-plan consumers, which is why every plan can split its
    /// k-axis.
    #[test]
    fn planners_always_produce_valid_plans(
        ops in proptest::collection::vec(0u8..6, 1..14),
        density in 0.001f64..0.9,
    ) {
        let dag = random_dag(&ops, density);
        for plan in [
            Cfg::new(model(1 << 22)).plan(&dag),
            GenLike.plan(&dag),
            Folded.plan(&dag),
        ] {
            prop_assert!(plan.validate(&dag).is_ok(), "invalid plan for\n{dag}");
            for unit in &plan.units {
                let ExecUnit::Fused(p) = unit else { continue };
                let Some(main) = p.main_matmul(&dag) else { continue };
                for other in p.matmuls(&dag) {
                    prop_assert!(
                        other == main || !reaches_via_consumers(&dag, &p.ops, main, other),
                        "main multiplication {main} feeds member {other} in\n{dag}"
                    );
                }
            }
        }
    }

    /// Exploration's candidates never put a termination operator anywhere
    /// but the root, on random DAGs.
    #[test]
    fn exploration_respects_termination_rules(
        ops in proptest::collection::vec(0u8..6, 1..14),
    ) {
        let dag = random_dag(&ops, 0.1);
        for cand in explore(&dag) {
            prop_assert!(cand.validate(&dag).is_ok(), "invalid candidate for\n{dag}");
            for &op in &cand.ops {
                if op != cand.root {
                    // Interior aggregations are unexecutable (the kernel
                    // folds them only at the root); interior materialization
                    // points are legal only if every consumer stays inside
                    // (a diamond the kernel's memoization handles).
                    prop_assert!(
                        !dag.node(op).kind.is_unary_agg(),
                        "aggregation {op} fused as interior member"
                    );
                    prop_assert!(
                        dag.consumers(op).iter().all(|c| cand.ops.contains(c)),
                        "interior member {op} escapes the plan"
                    );
                }
            }
        }
    }
}

/// Builds a random, well-shaped DAG from a byte script. All matrices share
/// one square dimension so every binary op is applicable; transposes and
/// matmuls stay shape-valid by construction.
fn random_dag(script: &[u8], density: f64) -> QueryDag {
    let bs = 4;
    let n = 24;
    let meta_sq = MatrixMeta::sparse(n, n, bs, density);
    let mut b = DagBuilder::new();
    let x = b.input("X", meta_sq);
    let y = b.input("Y", MatrixMeta::dense(n, n, bs));
    let mut pool = vec![x, y];
    for (step, &op) in script.iter().enumerate() {
        let a = pool[step % pool.len()];
        let c = pool[(step * 7 + 3) % pool.len()];
        let next = match op {
            0 => b.binary(a, c, BinOp::Add),
            1 => b.binary(a, c, BinOp::Mul),
            2 => b.matmul(a, c),
            3 => b.transpose(a),
            4 => b.unary(a, UnaryOp::Square),
            _ => b.binary(a, c, BinOp::Sub),
        };
        pool.push(next);
    }
    let root = *pool.last().expect("non-empty pool");
    b.finish(vec![root])
}
