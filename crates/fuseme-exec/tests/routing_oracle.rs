//! Consolidation routing against its slow oracle.
//!
//! Production routing builds each task's store from closed-form footprints
//! (`fuseme_exec::kernel::footprints`). The oracle below is the per-block
//! walk it replaced: recurse the plan from every output block of the task,
//! over the task's k-slice for the main multiplication and the full common
//! dimension for nested ones, and collect every external block touched. On
//! random query DAGs and random layouts (cuboid `(P,Q,R)`, striped task
//! counts, BFO broadcast sides, RFO), under every binding of
//! `common::all_bindings`, every task's routed store must hold exactly the
//! oracle's `(node, coord)` keys, each pointing at the input's own block.
//! Routing builds one list per distinct slice: tasks whose footprints of a
//! node are equal, and all tasks for a broadcast side, hold the same list,
//! while each store still counts the bytes of every block it holds.

use std::collections::{BTreeSet, HashSet};
use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;

mod common;

use common::{all_bindings, plans, random_dag, values_for};
use fuseme_exec::fused_op::{route, task_layout};
use fuseme_exec::kernel::footprints;
use fuseme_exec::Strategy;
use fuseme_fusion::optimizer::Pqr;
use fuseme_fusion::plan::PartialPlan;
use fuseme_plan::{NodeId, OpKind, QueryDag};
use fuseme_sim::{Cluster, ClusterConfig};

type Keys = BTreeSet<(NodeId, (usize, usize))>;

/// The block walk: every external, non-scalar `(node, coord)` that
/// evaluating `node` at `(bi, bj)` touches.
#[allow(clippy::too_many_arguments)]
fn walk(
    dag: &QueryDag,
    plan: &PartialPlan,
    main_mm: Option<NodeId>,
    k_range: &Range<usize>,
    node: NodeId,
    (bi, bj): (usize, usize),
    out: &mut Keys,
    visited: &mut HashSet<(NodeId, usize, usize)>,
) {
    if !visited.insert((node, bi, bj)) {
        return;
    }
    let n = dag.node(node);
    if matches!(n.kind, OpKind::Scalar(_)) {
        return;
    }
    if !plan.ops.contains(&node) {
        out.insert((node, (bi, bj)));
        return;
    }
    let mut go = |input, coord| walk(dag, plan, main_mm, k_range, input, coord, out, visited);
    match &n.kind {
        OpKind::Unary(_) | OpKind::Binary(_) => {
            for &input in &n.inputs {
                go(input, (bi, bj));
            }
        }
        OpKind::Transpose => go(n.inputs[0], (bj, bi)),
        OpKind::MatMul => {
            let ks = if Some(node) == main_mm {
                k_range.clone()
            } else {
                0..dag.node(n.inputs[0]).meta.grid().block_cols
            };
            for k in ks {
                go(n.inputs[0], (bi, k));
                go(n.inputs[1], (k, bj));
            }
        }
        other => panic!("{other:?} inside a routed plan"),
    }
}

/// Cases per property: `PROPTEST_CASES` when set, else 40.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn routed_stores_match_block_walk(
        ops in proptest::collection::vec(0u8..8, 1..12),
        seed in 0u64..10_000,
        p in 1usize..7,
        q in 1usize..7,
        r in 1usize..5,
        partition_bytes in 64u64..8192,
        slots in 1usize..6,
    ) {
        let dag = random_dag(&ops);
        let mut cc = ClusterConfig::test_small();
        cc.tasks_per_node = slots;
        cc.partition_bytes = partition_bytes;
        let cluster = Cluster::new(cc);
        let strategies = [
            Strategy::Cuboid { pqr: Pqr { p, q, r } },
            Strategy::Broadcast { partition_bytes },
            Strategy::Replication,
        ];
        for (plan, binds) in plans(&dag, &cluster)
            .into_iter()
            .flat_map(|p| all_bindings(seed).map(|b| (p.clone(), b)))
        {
            let values = values_for(&dag, &plan, &binds, seed);
            let main_mm = plan.main_matmul(&dag);
            for strategy in &strategies {
                let layout = task_layout(&cluster, &dag, &plan, &values, strategy);
                let stores = route(&dag, &plan, &values, &layout);
                prop_assert_eq!(stores.len(), layout.tasks.len());
                for (t, (task, store)) in layout.tasks.iter().zip(&stores).enumerate() {
                    let mut walked = Keys::new();
                    let mut visited = HashSet::new();
                    for coord in task.out.coords() {
                        walk(
                            &dag, &plan, main_mm, &task.k_range, layout.compute_node,
                            coord, &mut walked, &mut visited,
                        );
                    }
                    let mut want: Keys = walked
                        .into_iter()
                        .filter(|(n, (bi, bj))| {
                            !layout.broadcast.contains(n)
                                && values.get(n).is_some_and(|m| {
                                    let g = m.meta().grid();
                                    *bi < g.block_rows && *bj < g.block_cols
                                        && m.block(*bi, *bj).is_some()
                                })
                        })
                        .collect();
                    for &side in &layout.broadcast {
                        want.extend(values[&side].iter_blocks().map(|(bi, bj, _)| (side, (bi, bj))));
                    }
                    let got: Keys = store.keys().collect();
                    prop_assert_eq!(
                        &got, &want,
                        "task {} of {:?} on plan {:?}\n{}", t, strategy, plan, dag
                    );
                    let mut held = 0;
                    for (n, (bi, bj)) in got {
                        let routed = store.get(n, (bi, bj)).unwrap();
                        let source = values[&n].block(bi, bj).unwrap();
                        prop_assert!(Arc::ptr_eq(routed, source));
                        held += routed.size_bytes();
                    }
                    prop_assert_eq!(store.total_bytes(), held);
                }
                // Equal slices of a node are one list.
                let needed: Vec<_> = layout
                    .tasks
                    .iter()
                    .map(|task| {
                        footprints(
                            &dag, &plan.ops, main_mm, task.k_range.clone(),
                            layout.compute_node, task.out.clone(),
                        )
                    })
                    .collect();
                for (a, b) in (0..stores.len()).flat_map(|a| (a + 1..stores.len()).map(move |b| (a, b))) {
                    for (node, fp) in &needed[a] {
                        let (Some(la), Some(lb)) = (stores[a].list(*node), stores[b].list(*node)) else {
                            continue;
                        };
                        if needed[b].get(node) == Some(fp) || layout.broadcast.contains(node) {
                            prop_assert!(Arc::ptr_eq(la, lb), "tasks {} and {}, node {}", a, b, node);
                        }
                    }
                }
            }
        }
    }
}
