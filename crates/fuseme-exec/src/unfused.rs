//! Unfused execution notes.
//!
//! Single operators execute through the same machinery as fused plans: the
//! driver wraps each [`fuseme_plan::NodeId`] into a singleton
//! [`fuseme_fusion::PartialPlan`] and hands it to
//! [`crate::fused_op::execute_fused`]:
//!
//! * a singleton matrix multiplication under the CFO strategy *is*
//!   DistME's CuboidMM (cuboid partitioning of one `ba(×)`);
//! * under the broadcast strategy it is Spark's map-side ("mapmm")
//!   broadcast join, and under replication the classic replicated matrix
//!   multiply ("rmm") — what SystemDS picks between;
//! * element-wise, transpose, and aggregation singletons run as one-node
//!   Cell plans: output blocks striped over the cluster, inputs routed once.
//!
//! The driver builds those singleton plans itself; this module only hosts
//! two convenience wrappers for running one operator directly (its own
//! tests are the callers).

use std::sync::Arc;

use fuseme_fusion::cost::CostModel;
use fuseme_fusion::optimizer::{optimize, Pqr};
use fuseme_fusion::plan::PartialPlan;
use fuseme_fusion::space::SpaceTree;
use fuseme_matrix::BlockedMatrix;
use fuseme_plan::{NodeId, QueryDag};
use fuseme_sim::{Cluster, SimError};

use crate::fused_op::{execute_fused, Strategy, ValueMap};

/// Executes one operator unfused with an explicit strategy.
pub fn execute_single(
    cluster: &Cluster,
    dag: &QueryDag,
    op: NodeId,
    values: &ValueMap,
    strategy: &Strategy,
) -> Result<Arc<BlockedMatrix>, SimError> {
    let plan = PartialPlan::new([op].into_iter().collect(), op);
    execute_fused(cluster, dag, &plan, values, strategy)
}

/// DistME's CuboidMM: a singleton multiplication with cost-optimized
/// `(P,Q,R)`.
pub fn cuboid_mm(
    cluster: &Cluster,
    dag: &QueryDag,
    mm: NodeId,
    values: &ValueMap,
    model: &CostModel,
) -> Result<(Arc<BlockedMatrix>, Pqr), SimError> {
    debug_assert!(dag.node(mm).kind.is_matmul());
    let plan = PartialPlan::new([mm].into_iter().collect(), mm);
    let tree = SpaceTree::build(dag, &plan);
    let opt = optimize(dag, &plan, &tree, model);
    let out = execute_fused(
        cluster,
        dag,
        &plan,
        values,
        &Strategy::Cuboid { pqr: opt.pqr },
    )?;
    Ok((out, opt.pqr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{gen, AggOp, BinOp, UnaryOp};
    use fuseme_plan::DagBuilder;
    use fuseme_sim::ClusterConfig;
    use std::collections::HashMap;

    fn model(cluster: &Cluster) -> CostModel {
        let c = cluster.config();
        CostModel {
            nodes: c.nodes,
            tasks_per_node: c.tasks_per_node,
            mem_per_task: c.mem_per_task,
            net_bandwidth: c.net_bandwidth,
            compute_bandwidth: c.compute_bandwidth,
        }
    }

    #[test]
    fn cuboid_mm_matches_reference() {
        let bs = 5;
        let a = gen::dense_uniform(30, 20, bs, -1.0, 1.0, 1).unwrap();
        let b_m = gen::sparse_uniform(20, 25, bs, 0.3, -1.0, 1.0, 2).unwrap();
        let expected = a.matmul(&b_m).unwrap();
        let mut b = DagBuilder::new();
        let ae = b.input("A", *a.meta());
        let be = b.input("B", *b_m.meta());
        let mm = b.matmul(ae, be);
        let dag = b.finish(vec![mm]);
        let values: ValueMap = HashMap::from([(ae.id(), Arc::new(a)), (be.id(), Arc::new(b_m))]);
        let cluster = Cluster::new(ClusterConfig::test_small());
        let m = model(&cluster);
        let (out, pqr) = cuboid_mm(&cluster, &dag, mm.id(), &values, &m).unwrap();
        assert!(out.approx_eq(&expected, 1e-9));
        assert!(pqr.tasks() >= 1);
    }

    #[test]
    fn single_transpose_and_agg() {
        let bs = 4;
        let x = gen::dense_uniform(12, 8, bs, -2.0, 2.0, 3).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let t = b.transpose(xe);
        let cs = b.col_agg(xe, AggOp::Max);
        let dag = b.finish(vec![t, cs]);
        let values: ValueMap = HashMap::from([(xe.id(), Arc::new(x.clone()))]);
        let cluster = Cluster::new(ClusterConfig::test_small());
        let one = Strategy::Cuboid {
            pqr: Pqr { p: 1, q: 1, r: 1 },
        };
        let tr = execute_single(&cluster, &dag, t.id(), &values, &one).unwrap();
        assert!(tr.approx_eq(&x.transpose().unwrap(), 1e-12));
        let mx = execute_single(&cluster, &dag, cs.id(), &values, &one).unwrap();
        assert!(mx.approx_eq(&x.col_agg(AggOp::Max).unwrap(), 1e-12));
    }

    #[test]
    fn single_elementwise_chain_unfused_matches() {
        let bs = 4;
        let x = gen::dense_uniform(8, 8, bs, 0.5, 1.5, 9).unwrap();
        let y = gen::dense_uniform(8, 8, bs, 0.5, 1.5, 10).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ye = b.input("Y", *y.meta());
        let mul = b.binary(xe, ye, BinOp::Mul);
        let sq = b.unary(mul, UnaryOp::Sqrt);
        let dag = b.finish(vec![sq]);
        let cluster = Cluster::new(ClusterConfig::test_small());
        let one = Strategy::Cuboid {
            pqr: Pqr { p: 1, q: 1, r: 1 },
        };
        let mut values: ValueMap = HashMap::from([
            (xe.id(), Arc::new(x.clone())),
            (ye.id(), Arc::new(y.clone())),
        ]);
        let mid = execute_single(&cluster, &dag, mul.id(), &values, &one).unwrap();
        values.insert(mul.id(), mid);
        let out = execute_single(&cluster, &dag, sq.id(), &values, &one).unwrap();
        let expected = x.zip(&y, BinOp::Mul).unwrap().map(UnaryOp::Sqrt).unwrap();
        assert!(out.approx_eq(&expected, 1e-12));
        // Unfused execution moved the intermediate across the wire.
        assert!(cluster.comm().consolidation_bytes > x.actual_size_bytes());
    }
}
