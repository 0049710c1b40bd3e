//! Property-based tests for the fusion layer: cost-model monotonicity, the
//! optimizer's equivalence with exhaustive search (cache-oblivious and
//! cache-aware), and planner validity on randomized query DAGs.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fuseme_fusion::cfg::{explore, Cfg};
use fuseme_fusion::cost::{estimate, estimate_with_cache, CostModel, Estimates};
use fuseme_fusion::folded::Folded;
use fuseme_fusion::gen_like::GenLike;
use fuseme_fusion::optimizer::{optimize_exhaustive, search, CachedInput, Pqr, MEM_SAFETY};
use fuseme_fusion::plan::{mm_dims, reaches_via_consumers, ExecUnit, PartialPlan};
use fuseme_fusion::space::SpaceTree;
use fuseme_matrix::{BinOp, MatrixMeta, UnaryOp};
use fuseme_plan::{DagBuilder, NodeId, OpKind, QueryDag};

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

/// [`model`] at bandwidths where `NetEst` dominates the cost, where
/// `ComEst` does, and at the default mix.
fn bandwidth_models(mem: u64) -> [CostModel; 3] {
    let base = model(mem);
    [
        CostModel {
            net_bandwidth: 1e3,
            compute_bandwidth: 1e15,
            ..base
        },
        CostModel {
            net_bandwidth: 1e15,
            compute_bandwidth: 1e3,
            ..base
        },
        base,
    ]
}

/// The units with a main multiplication that CFG makes of a random DAG.
fn random_units(ops: &[u8], density: f64) -> (QueryDag, Vec<PartialPlan>) {
    let dag = random_dag(ops, density);
    let units = Cfg::new(model(1 << 22))
        .plan(&dag)
        .units
        .iter()
        .map(|u| u.plan().into_owned())
        .filter(|p| p.main_matmul(&dag).is_some())
        .collect();
    (dag, units)
}

/// `Cost(1, q, r)`, the lower bound of the `(·, q, r)` family, never
/// decreases in `q` or `r` (the `r = 1 → 2` step included) — what lets the
/// pruning search stop at the first losing family.
fn check_family_bounds_monotone(dag: &QueryDag, plan: &PartialPlan) -> Result<(), TestCaseError> {
    let tree = SpaceTree::build(dag, plan);
    let main = plan
        .main_matmul(dag)
        .expect("unit has a main multiplication");
    let (_, j, k) = mm_dims(dag, main);
    for m in bandwidth_models(u64::MAX) {
        let bound: Vec<Vec<f64>> = (1..=k)
            .map(|r| {
                (1..=j)
                    .map(|q| m.cost(&estimate(dag, plan, &tree, 1, q, r)))
                    .collect()
            })
            .collect();
        let at = |q: usize, r: usize| bound[r - 1][q - 1];
        for r in 1..=k {
            for q in 1..=j {
                let c = at(q, r);
                if q < j {
                    prop_assert!(c <= at(q + 1, r), "Cost(1, {q}, {r}) drops at q + 1");
                }
                if r < k {
                    prop_assert!(c <= at(q, r + 1), "Cost(1, {q}, {r}) drops at r + 1");
                }
            }
        }
    }
    Ok(())
}

/// The pruning search (with nothing cached) and the exhaustive sweep agree
/// on feasibility, parameters, estimates and cost.
fn check_search_matches_exhaustive(
    dag: &QueryDag,
    plan: &PartialPlan,
    m: &CostModel,
) -> Result<(), TestCaseError> {
    let tree = SpaceTree::build(dag, plan);
    let a = search(dag, plan, &tree, m, &[]);
    let b = optimize_exhaustive(dag, plan, &tree, m);
    prop_assert_eq!(a.feasible, b.feasible);
    prop_assert_eq!(a.pqr, b.pqr, "cost {} vs {}", a.cost, b.cost);
    prop_assert_eq!(a.est, b.est);
    prop_assert!(a.cost == b.cost || (a.cost.is_infinite() && b.cost.is_infinite()));
    Ok(())
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

    /// Family lower bounds are monotone on the NMF plan.
    #[test]
    fn family_bounds_are_monotone(
        i in 2usize..12, j in 2usize..12, k in 1usize..6,
        density in 0.01f64..1.0,
    ) {
        let (dag, plan) = nmf_fixture(i, j, k, density);
        check_family_bounds_monotone(&dag, &plan)?;
    }

    /// Family lower bounds are monotone on every unit CFG plans for a
    /// random DAG.
    #[test]
    fn family_bounds_are_monotone_on_random_units(
        ops in proptest::collection::vec(0u8..6, 1..14),
        density in 0.001f64..0.9,
    ) {
        let (dag, units) = random_units(&ops, density);
        for plan in &units {
            check_family_bounds_monotone(&dag, plan)?;
        }
    }

    /// The pruning search returns exactly the exhaustive optimum for random
    /// shapes, budgets and cluster sizes (the parallelism floor).
    #[test]
    fn pruning_equals_exhaustive(
        i in 2usize..14, j in 2usize..14, k in 1usize..6,
        density in 0.01f64..1.0,
        mem_kb in 8u64..512,
        nodes in 1usize..6,
    ) {
        let (dag, plan) = nmf_fixture(i, j, k, density);
        for m in bandwidth_models(mem_kb << 10) {
            check_search_matches_exhaustive(&dag, &plan, &CostModel { nodes, ..m })?;
        }
    }

    /// The same on every unit CFG plans for a random DAG.
    #[test]
    fn pruning_equals_exhaustive_on_random_units(
        ops in proptest::collection::vec(0u8..6, 1..14),
        density in 0.001f64..0.9,
        mem_kb in 1u64..256,
        nodes in 1usize..6,
    ) {
        let (dag, units) = random_units(&ops, density);
        for plan in &units {
            for m in bandwidth_models(mem_kb << 10) {
                check_search_matches_exhaustive(&dag, plan, &CostModel { nodes, ..m })?;
            }
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

/// Brute-force cache-aware optimum: every `(p, q, r)` costed with
/// `estimate_with_cache`, whose free set is the inputs cached at exactly that
/// layout, under the search's memory budget and parallelism floor, ranked by
/// cost, then `r`, then tasks, then `(p, q)`. `None` when nothing fits.
fn cache_aware_oracle(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    m: &CostModel,
    cached: &[CachedInput],
) -> Option<(f64, Pqr, Estimates)> {
    let (i, j, k) = mm_dims(dag, plan.main_matmul(dag).expect("main multiplication"));
    let required = m.total_tasks().min(i * j * k);
    let budget = (m.mem_per_task as f64 * MEM_SAFETY) as u64;
    let mut best: Option<(f64, Pqr, Estimates)> = None;
    for r in 1..=k {
        for q in 1..=j {
            for p in 1..=i {
                let free: BTreeSet<NodeId> = cached
                    .iter()
                    .filter(|c| c.pqrs.contains(&(p, q, r)))
                    .map(|c| c.node)
                    .collect();
                let est = estimate_with_cache(dag, plan, tree, p, q, r, &free);
                if p * q * r < required || est.mem_bytes > budget {
                    continue;
                }
                let pqr = Pqr { p, q, r };
                let key = (m.cost(&est), r, pqr.tasks(), p, q);
                if best.is_none_or(|(c, b, _)| key < (c, b.r, b.tasks(), b.p, b.q)) {
                    best = Some((key.0, pqr, est));
                }
            }
        }
    }
    best
}

/// `search` with cached layouts equals the brute-force cache-aware optimum
/// over random shapes, budgets, cluster sizes and cached layouts — and the
/// cache changes the winner in some of the cases, so the agreement is not
/// vacuous.
#[test]
fn cached_search_equals_cache_aware_oracle() {
    let mut rng = StdRng::seed_from_u64(16);
    let mut changed = 0;
    for _ in 0..1000 {
        let (i, j, k) = (
            rng.gen_range(2usize..10),
            rng.gen_range(2usize..10),
            rng.gen_range(1usize..5),
        );
        let (dag, plan) = nmf_fixture(i, j, k, rng.gen_range(0.01f64..1.0));
        let tree = SpaceTree::build(&dag, &plan);
        let m = CostModel {
            nodes: rng.gen_range(1usize..6),
            ..model(rng.gen_range(8u64..512) << 10)
        };
        let oblivious = search(&dag, &plan, &tree, &m, &[]);
        let near = oblivious.pqr;
        let cached: Vec<CachedInput> = dag
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Input { .. }))
            .map(|n| CachedInput {
                node: n.id,
                pqrs: (0..rng.gen_range(0usize..4))
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            // A neighbour of the oblivious optimum, which
                            // the cache can tip into winning.
                            (
                                near.p + rng.gen_range(0usize..2),
                                near.q + rng.gen_range(0usize..2),
                                near.r + rng.gen_range(0usize..2),
                            )
                        } else {
                            (
                                rng.gen_range(0..=i + 1),
                                rng.gen_range(1..=j),
                                rng.gen_range(1..=k + 1),
                            )
                        }
                    })
                    .collect(),
            })
            .collect();
        let aware = search(&dag, &plan, &tree, &m, &cached);
        let ctx = format!("dims ({i},{j},{k}) model {m:?} cached {cached:?}");
        match cache_aware_oracle(&dag, &plan, &tree, &m, &cached) {
            Some((cost, pqr, est)) => {
                assert!(aware.feasible, "{ctx}");
                assert_eq!(
                    (aware.cost, aware.pqr, aware.est),
                    (cost, pqr, est),
                    "{ctx}"
                );
            }
            None => assert!(!aware.feasible, "{ctx}"),
        }
        changed += usize::from(aware.pqr != oblivious.pqr);
    }
    assert!(changed > 0, "no case had its winner changed by the cache");
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
