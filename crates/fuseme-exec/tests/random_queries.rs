//! The correctness hammer: randomized query DAGs executed by every engine
//! configuration must match the single-node reference interpreter.
//!
//! This is the distributed-systems analogue of differential testing — the
//! interpreter is simple enough to be obviously correct, and every physical
//! strategy (cuboid with random `(P,Q,R)`, broadcast, replication) plus the
//! plan-level drivers are checked against it on arbitrary operator mixes.
//! Every check runs on each binding of `common::all_bindings`.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

mod common;

use common::{all_bindings, random_dag};
use fuseme_exec::driver::{execute_plan, ExecConfig, MatmulStrategy};
use fuseme_exec::fused_op::{execute_fused, ValueMap};
use fuseme_exec::Strategy;
use fuseme_fusion::cfg::Cfg;
use fuseme_fusion::optimizer::Pqr;
use fuseme_fusion::plan::{FusionPlan, PartialPlan};
use fuseme_plan::{evaluate, OpKind};
use fuseme_sim::{Cluster, ClusterConfig};

fn cluster() -> Cluster {
    let mut cc = ClusterConfig::test_small();
    cc.mem_per_task = 256 << 20;
    Cluster::new(cc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Driver-level: random DAG × {CFO, SystemDS-rule, BFO, RFO} ==
    /// interpreter.
    #[test]
    fn all_strategies_match_interpreter(
        ops in proptest::collection::vec(0u8..8, 1..12),
        seed in 0u64..10_000,
    ) {
        let dag = random_dag(&ops);
        for binds in all_bindings(seed) {
        let reference = evaluate(&dag, &binds).unwrap();
        let want = reference[0].as_matrix().unwrap();

        for matmul in [
            MatmulStrategy::Cfo,
            MatmulStrategy::SystemDsRule { partition_bytes: 2048 },
            MatmulStrategy::Bfo { partition_bytes: 2048 },
            MatmulStrategy::Rfo,
        ] {
            let cl = cluster();
            let config = ExecConfig::for_cluster(&cl, matmul);
            let plan = Cfg::new(config.model).plan(&dag);
            let (roots, _) = execute_plan(&cl, &dag, &plan, &binds, &config)
                .unwrap_or_else(|e| panic!("{matmul:?} failed: {e}\n{dag}"));
            prop_assert!(
                roots[0].approx_eq(want, 1e-9),
                "{matmul:?} diverges on\n{dag}"
            );
        }

        // Fully unfused (DistME-style) as well.
        let cl = cluster();
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let plan = FusionPlan::assemble(&dag, vec![]);
        let (roots, _) = execute_plan(&cl, &dag, &plan, &binds, &config).unwrap();
        prop_assert!(roots[0].approx_eq(want, 1e-9), "unfused diverges on\n{dag}");
        }
    }

    /// Operator-level: a whole-query fused plan executed at arbitrary
    /// (P,Q,R) — including degenerate and oversized values — matches the
    /// interpreter whenever the plan shape is legal.
    #[test]
    fn arbitrary_pqr_matches_interpreter(
        ops in proptest::collection::vec(0u8..8, 1..10),
        seed in 0u64..10_000,
        p in 1usize..7,
        q in 1usize..7,
        r in 1usize..5,
    ) {
        let dag = random_dag(&ops);
        // One fused plan containing every operator, when legal: every
        // non-root operator must have all consumers inside (always true
        // here: the pool chains make multi-consumer interior nodes common,
        // in which case we skip — CFG handles those; this test targets the
        // executor).
        let ops_set: BTreeSet<_> = dag
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_leaf())
            .map(|n| n.id)
            .collect();
        let root = dag.roots()[0];
        let plan = PartialPlan { ops: ops_set, root };
        if plan.validate(&dag).is_err() {
            return Ok(()); // interior materialization point: not executable fused
        }
        for binds in all_bindings(seed) {
        let reference = evaluate(&dag, &binds).unwrap();
        let want = reference[0].as_matrix().unwrap();
        let values: ValueMap = dag
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                OpKind::Input { name } => Some((n.id, Arc::clone(&binds[name]))),
                _ => None,
            })
            .collect();
        let cl = cluster();
        let out = execute_fused(
            &cl,
            &dag,
            &plan,
            &values,
            &Strategy::Cuboid { pqr: Pqr { p, q, r } },
        )
        .unwrap_or_else(|e| panic!("({p},{q},{r}) failed: {e}\n{dag}"));
        prop_assert!(out.approx_eq(want, 1e-9), "({p},{q},{r}) diverges on\n{dag}");
        }
    }
}
