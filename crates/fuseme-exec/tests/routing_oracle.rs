//! Consolidation routing against its slow oracle.
//!
//! Production routing builds each task's store from closed-form footprints
//! (`fuseme_exec::kernel::footprints`). The oracle below is the per-block
//! walk it replaced: recurse the plan from every output block of the task,
//! over the task's k-slice for the main multiplication and the full common
//! dimension for nested ones, and collect every external block touched. On
//! random query DAGs and random layouts (cuboid `(P,Q,R)`, striped task
//! counts, BFO broadcast sides, RFO), every task's routed store must hold
//! exactly the oracle's `(node, coord)` keys, each pointing at the input's
//! own block.

use std::collections::{BTreeSet, HashSet};
use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;

mod common;

use common::{bindings, random_dag};
use fuseme_exec::fused_op::{route, task_layout, ValueMap};
use fuseme_exec::{ExecConfig, MatmulStrategy, Strategy};
use fuseme_fusion::cfg::Cfg;
use fuseme_fusion::optimizer::Pqr;
use fuseme_fusion::plan::{ExecUnit, PartialPlan};
use fuseme_matrix::gen;
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

/// Plans to route: every fused unit CFG picks, every single operator as a
/// singleton plan, and the whole query when it is one legal plan.
fn plans(dag: &QueryDag, cluster: &Cluster) -> Vec<PartialPlan> {
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

/// Values for a plan's external inputs: the bindings for input leaves, a
/// seeded sparse matrix of the node's shape for intermediates (routing only
/// looks at which blocks exist).
fn values_for(dag: &QueryDag, plan: &PartialPlan, seed: u64) -> ValueMap {
    let binds = bindings(seed);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

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
        for plan in plans(&dag, &cluster) {
            let values = values_for(&dag, &plan, seed);
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
                    for (n, (bi, bj)) in got {
                        let routed = store.get(n, (bi, bj)).unwrap();
                        let source = values[&n].block(bi, bj).unwrap();
                        prop_assert!(Arc::ptr_eq(routed, source));
                    }
                }
            }
        }
    }
}
