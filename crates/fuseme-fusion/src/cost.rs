//! The CFO cost model: `MemEst`, `NetEst`, `ComEst` (Algorithm 1 and
//! Eqs. 3–5) and the combined objective `Cost` (Eq. 2).
//!
//! All three estimates are one walk over the plan's [`SpaceTree`]:
//!
//! * **Memory** per task sums, for every materialized node `v` of a region,
//!   `size(v) / divisor`, where the divisor is the product of the region's
//!   local cuboid dimensions (`P·R` for `L`-space, `Q·R` for `R`-space,
//!   `P·Q` for `O`-space, compounding at nested levels). The plan's output
//!   counts toward memory but not network.
//! * **Network** sums `replication · size(v)` over materialized inputs,
//!   where replication is `Q` for `L`-space, `P` for `R`-space, `R` for
//!   `O`-space, compounding multiplicatively at nested levels (Fig. 11's
//!   `Q·R = 6` for the doubly-nested `v2`).
//! * **Computation** sums `replication · numOp(v)` over member operators;
//!   the main multiplication is counted exactly once (Eq. 5's `v_mm` row).

use std::collections::BTreeSet;

use fuseme_matrix::MatrixMeta;
use fuseme_plan::{NodeId, OpKind, QueryDag};
use serde::{Deserialize, Serialize};

use crate::plan::PartialPlan;
use crate::space::SpaceTree;

/// Cluster-level constants the objective needs (a subset of the simulator's
/// `ClusterConfig`, duplicated here so the fusion crate does not depend on
/// the runtime).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Number of worker nodes `N`.
    pub nodes: usize,
    /// Task slots per node `T_c`.
    pub tasks_per_node: usize,
    /// Memory budget per task θ_t, bytes.
    pub mem_per_task: u64,
    /// Peak per-node network bandwidth B̂n, bytes/sec.
    pub net_bandwidth: f64,
    /// Peak per-node compute bandwidth B̂c, flops/sec.
    pub compute_bandwidth: f64,
}

impl CostModel {
    /// Total task slots `T = N·T_c`.
    pub fn total_tasks(&self) -> usize {
        self.nodes * self.tasks_per_node
    }

    /// The combined objective of Eq. 2:
    /// `max(NetEst / (N·B̂n), ComEst / (N·B̂c))` — communication and
    /// computation overlap, so the slower resource dominates.
    pub fn cost(&self, est: &Estimates) -> f64 {
        let n = self.nodes as f64;
        let net = est.net_bytes as f64 / (n * self.net_bandwidth);
        let com = est.com_flops as f64 / (n * self.compute_bandwidth);
        net.max(com)
    }
}

/// The three raw estimates for one `(P,Q,R)` choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Estimates {
    /// Estimated peak memory per task, bytes (`MemEst`).
    pub mem_bytes: u64,
    /// Estimated network traffic across the cluster, bytes (`NetEst`).
    pub net_bytes: u64,
    /// Estimated floating-point work across the cluster, flops (`ComEst`).
    pub com_flops: u64,
}

/// Computes all three estimates for plan `F` under parameters `(p, q, r)`.
///
/// `tree` must be `SpaceTree::build(dag, plan)`; callers doing parameter
/// sweeps build it once and reuse it.
pub fn estimate(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    p: usize,
    q: usize,
    r: usize,
) -> Estimates {
    estimate_with_cache(dag, plan, tree, p, q, r, &BTreeSet::new())
}

/// The cache-aware `NetEst` variant: identical to [`estimate`] except that
/// external inputs in `cached` — inputs whose cuboid replicas are known to
/// be cluster-resident at exactly this `(p, q, r)` from a previous
/// iteration — contribute **zero** network bytes (their consolidation
/// shuffle is skipped at execution). Memory and computation are unchanged:
/// a cached replica still occupies the same per-task memory and feeds the
/// same flops.
pub fn estimate_with_cache(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    p: usize,
    q: usize,
    r: usize,
    cached: &BTreeSet<NodeId>,
) -> Estimates {
    let mut est = Estimates::default();
    match tree {
        SpaceTree::Flat {
            ops, ext_inputs, ..
        } => {
            // A plan without matmul: executed as one Cell-style fused
            // operator over T tasks; inputs move once, no replication.
            for &v in ext_inputs {
                let sz = size_bytes(dag, v);
                est.mem_bytes += sz / plan_parallelism(dag, plan) as u64;
                if !cached.contains(&v) {
                    est.net_bytes += sz;
                }
            }
            let out_sz = size_bytes(dag, plan.root);
            est.mem_bytes += out_sz / plan_parallelism(dag, plan) as u64;
            for &op in ops {
                est.com_flops += num_ops(dag, op);
            }
        }
        SpaceTree::Mm { .. } => {
            let main = tree.main_matmul().expect("Mm tree has a main matmul");
            // Sparsity exploitation (paper Fig. 1(a)): when the plan's
            // output is sparser than the main multiplication's raw result —
            // a zero-dominant gate in O-space, e.g. `X * log(U×Vᵀ)` with
            // sparse X — the fused kernel only computes gated cells, so the
            // multiplication's effective flops shrink by the density ratio.
            // A plan rooted at the multiplication itself (DistME's CuboidMM)
            // has ratio 1: no exploitation, exactly as DistME behaves.
            let root_node = dag.node(plan.root);
            let compute_density = if root_node.kind.is_unary_agg() {
                dag.node(root_node.inputs[0]).meta.density
            } else {
                root_node.meta.density
            };
            let mm_density = dag.node(main).meta.density.max(f64::MIN_POSITIVE);
            let gate = (compute_density / mm_density).clamp(0.0, 1.0);
            // Two visitor closures both accumulate; Cells avoid aliasing
            // &mut borrows of `est`.
            let mem = std::cell::Cell::new(0u64);
            let net = std::cell::Cell::new(0u64);
            let com = std::cell::Cell::new(0u64);
            tree.walk(
                p,
                q,
                r,
                &mut |ops, ext, holds_output, divisor, repl, o_side| {
                    for &v in ext {
                        let sz = size_bytes(dag, v);
                        mem.set(mem.get() + sz / divisor.max(1));
                        if !cached.contains(&v) {
                            net.set(net.get() + repl * sz);
                        }
                    }
                    if holds_output {
                        mem.set(mem.get() + size_bytes(dag, plan.root) / divisor.max(1));
                    }
                    for &op in ops {
                        // O-side element-wise work only runs for gated
                        // cells: scale an op's flops by the ratio of the
                        // plan output's density to the op's own.
                        let flops = if o_side {
                            let op_density = dag.node(op).meta.density.max(f64::MIN_POSITIVE);
                            let g = (compute_density / op_density).clamp(0.0, 1.0);
                            (num_ops(dag, op) as f64 * g).max(1.0) as u64
                        } else {
                            num_ops(dag, op)
                        };
                        com.set(com.get() + repl * flops);
                    }
                },
                &mut |mm, repl| {
                    // The *main* multiplication is computed once across the
                    // cluster (Eq. 5) and benefits from the O-space sparsity
                    // gate; nested multiplications repeat with their
                    // region's replication.
                    let flops = if mm == main {
                        (num_ops(dag, mm) as f64 * gate).max(1.0) as u64
                    } else {
                        repl * num_ops(dag, mm)
                    };
                    com.set(com.get() + flops);
                },
            );
            est.mem_bytes = mem.get();
            est.net_bytes = net.get();
            est.com_flops = com.get();
            // k-axis aggregation: with R > 1 each (p,q) group's R partial
            // results of the main multiplication shuffle to a reducer —
            // (R-1) gated copies of the multiplication output cross the
            // network, and each task holds its partial. The paper's Eq. (4)
            // omits this term (noting only that the optimizer "tends to
            // determine R as small as possible"); modeling it explicitly is
            // what produces that tendency.
            if r > 1 {
                let mm_bytes = (size_bytes(dag, main) as f64 * gate) as u64;
                est.net_bytes += (r as u64 - 1) * mm_bytes;
                est.mem_bytes += mm_bytes / ((p * q).max(1)) as u64;
            }
        }
    }
    est
}

/// Parallelism available to a plan with no matrix multiplication: bounded by
/// its output's block count.
fn plan_parallelism(dag: &QueryDag, plan: &PartialPlan) -> usize {
    (dag.node(plan.root).meta.grid().num_blocks() as usize).max(1)
}

/// `size(v)` of Eqs. 3–4: estimated bytes of a node's (materialized) value.
///
/// Matmul nodes are priced with [`MatrixMeta::matmul_out_size_bytes`] — the
/// executor's format threshold applied to the structural nnz upper bound,
/// where the kernels apply it to each product block's actual nnz
/// (`Block::compact`) — rather than with the node's own expected-value
/// density, so `MemEst`/`NetEst` never price fewer bytes than the kernels
/// materialize.
pub fn size_bytes(dag: &QueryDag, v: NodeId) -> u64 {
    let node = dag.node(v);
    match &node.kind {
        OpKind::Scalar(_) => 8,
        OpKind::MatMul => {
            let l = dag.node(node.inputs[0]).meta;
            let r = dag.node(node.inputs[1]).meta;
            l.matmul_out_size_bytes(&r)
        }
        _ => node.meta.size_bytes(),
    }
}

/// `numOp(v)` of Eq. 5: floating-point operations to evaluate operator `v`
/// once, given its inputs' metadata.
pub fn num_ops(dag: &QueryDag, v: NodeId) -> u64 {
    let node = dag.node(v);
    let out_elems = |m: &MatrixMeta| m.shape.elements();
    match &node.kind {
        OpKind::Input { .. } | OpKind::Scalar(_) => 0,
        // Element-wise ops touch the non-zeros that survive; estimate with
        // the output's expected non-zeros (sparsity exploitation means a
        // fused b(*) over sparse X touches only nnz cells).
        OpKind::Unary(_) | OpKind::Binary(_) => node.meta.nnz_estimate().max(1),
        OpKind::Transpose => dag.node(node.inputs[0]).meta.nnz_estimate().max(1),
        OpKind::MatMul => {
            let l = dag.node(node.inputs[0]).meta;
            let r = dag.node(node.inputs[1]).meta;
            l.matmul_flops(&r).max(1)
        }
        OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
            out_elems(&dag.node(node.inputs[0]).meta).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{BinOp, UnaryOp};
    use fuseme_plan::DagBuilder;
    use std::collections::BTreeSet;

    /// The paper's running query O = X * log(U × Vᵀ + eps) with symbolic
    /// sizes: X is I×J blocks, U is I×K, V is J×K (block edge 10).
    fn nmf(i: usize, j: usize, k: usize, bs: usize, x_density: f64) -> (QueryDag, PartialPlan) {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(i * bs, j * bs, bs, x_density));
        let u = b.input("U", MatrixMeta::dense(i * bs, k * bs, bs));
        let v = b.input("V", MatrixMeta::dense(j * bs, k * bs, bs));
        let vt = b.transpose(v);
        let mm = b.matmul(u, vt);
        let eps = b.scalar(1e-8);
        let add = b.binary(mm, eps, BinOp::Add);
        let lg = b.unary(add, UnaryOp::Log);
        let out = b.binary(x, lg, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let ops = BTreeSet::from([vt.id(), mm.id(), add.id(), lg.id(), out.id()]);
        let plan = PartialPlan::new(ops, out.id());
        (dag, plan)
    }

    fn sizes(dag: &QueryDag) -> (u64, u64, u64) {
        let by_name = |name: &str| {
            dag.nodes()
                .iter()
                .find(|n| matches!(&n.kind, OpKind::Input { name: nm } if nm == name))
                .map(|n| n.meta.size_bytes())
                .unwrap()
        };
        (by_name("X"), by_name("U"), by_name("V"))
    }

    #[test]
    fn net_matches_table1_formula() {
        // NetEst must equal R·|X| + Q·|U| + P·|V| (+ 8·R for the eps
        // scalar), plus the k-aggregation term (R−1)·gate·|MM| when R > 1.
        let (dag, plan) = nmf(6, 6, 2, 10, 0.4);
        let tree = SpaceTree::build(&dag, &plan);
        let (xs, us, vs) = sizes(&dag);
        let mm = plan.main_matmul(&dag).unwrap();
        let mm_gated =
            (dag.node(mm).meta.size_bytes() as f64 * dag.node(plan.root).meta.density) as u64;
        for (p, q, r) in [(1, 1, 1), (2, 3, 1), (3, 2, 2), (6, 6, 2)] {
            let est = estimate(&dag, &plan, &tree, p, q, r);
            let expected = r as u64 * xs
                + q as u64 * us
                + p as u64 * vs
                + r as u64 * 8
                + (r as u64 - 1) * mm_gated;
            assert_eq!(est.net_bytes, expected, "at ({p},{q},{r})");
        }
    }

    #[test]
    fn mem_matches_table1_formula() {
        // MemEst = |U|/(P·R) + |V|/(Q·R) + (|X| + |O| + 8)/(P·Q).
        let (dag, plan) = nmf(6, 6, 2, 10, 0.4);
        let tree = SpaceTree::build(&dag, &plan);
        let (xs, us, vs) = sizes(&dag);
        let os = dag.node(plan.root).meta.size_bytes();
        let mm = plan.main_matmul(&dag).unwrap();
        let mm_gated =
            (dag.node(mm).meta.size_bytes() as f64 * dag.node(plan.root).meta.density) as u64;
        for (p, q, r) in [(2, 3, 2), (1, 1, 1), (6, 6, 2)] {
            let est = estimate(&dag, &plan, &tree, p, q, r);
            let agg = if r > 1 {
                mm_gated / (p as u64 * q as u64)
            } else {
                0
            };
            let expected = us / (p as u64 * r as u64)
                + vs / (q as u64 * r as u64)
                + (xs + 8) / (p as u64 * q as u64)
                + os / (p as u64 * q as u64)
                + agg;
            // Integer division happens per node, so allow off-by-rounding.
            let diff = est.mem_bytes.abs_diff(expected);
            assert!(
                diff <= 8,
                "at ({p},{q},{r}): {} vs {expected}",
                est.mem_bytes
            );
        }
    }

    #[test]
    fn mem_decreases_with_partitioning_net_increases() {
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let base = estimate(&dag, &plan, &tree, 1, 1, 1);
        let cut = estimate(&dag, &plan, &tree, 4, 4, 2);
        assert!(cut.mem_bytes < base.mem_bytes);
        assert!(cut.net_bytes > base.net_bytes);
    }

    #[test]
    fn bfo_rfo_as_degenerate_parameters() {
        // BFO ≈ (T, T, 1): each of T tasks holds full U and V. RFO ≈ (I, J, 1).
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let (xs, us, vs) = sizes(&dag);
        let t = 4usize;
        let bfo = estimate(&dag, &plan, &tree, t, t, 1);
        assert_eq!(bfo.net_bytes, xs + t as u64 * (us + vs) + 8);
        let rfo = estimate(&dag, &plan, &tree, 8, 8, 1);
        assert_eq!(rfo.net_bytes, xs + 8 * us + 8 * vs + 8);
        // RFO's communication exceeds BFO's here (J > T), while its memory
        // per task is lower.
        assert!(rfo.net_bytes > bfo.net_bytes);
        assert!(rfo.mem_bytes < bfo.mem_bytes);
    }

    #[test]
    fn com_counts_main_mm_once() {
        let (dag, plan) = nmf(4, 4, 2, 10, 1.0);
        let tree = SpaceTree::build(&dag, &plan);
        let mm = plan.main_matmul(&dag).unwrap();
        let mm_flops = num_ops(&dag, mm);
        let e1 = estimate(&dag, &plan, &tree, 1, 1, 1);
        let e2 = estimate(&dag, &plan, &tree, 4, 4, 2);
        // Matmul dominates; its contribution must not scale with (P,Q,R).
        assert!(e1.com_flops >= mm_flops && e2.com_flops >= mm_flops);
        let growth = e2.com_flops - e1.com_flops;
        // Growth comes only from replicated side operators, far below the
        // matmul itself for these shapes.
        assert!(growth < mm_flops, "growth {growth} vs mm {mm_flops}");
    }

    #[test]
    fn cost_objective_takes_max() {
        let model = CostModel {
            nodes: 2,
            tasks_per_node: 2,
            mem_per_task: u64::MAX,
            net_bandwidth: 100.0,
            compute_bandwidth: 1000.0,
        };
        let net_bound = Estimates {
            mem_bytes: 0,
            net_bytes: 2000,
            com_flops: 10,
        };
        assert!((model.cost(&net_bound) - 10.0).abs() < 1e-12);
        let com_bound = Estimates {
            mem_bytes: 0,
            net_bytes: 10,
            com_flops: 20_000,
        };
        assert!((model.cost(&com_bound) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_x_cheapens_output_ops() {
        // Sparsity exploitation: with sparse X the fused element-wise ops
        // cost ~nnz, not I·J elements.
        let (dag_sparse, plan_s) = nmf(6, 6, 2, 10, 0.01);
        let (dag_dense, plan_d) = nmf(6, 6, 2, 10, 1.0);
        let ts = SpaceTree::build(&dag_sparse, &plan_s);
        let td = SpaceTree::build(&dag_dense, &plan_d);
        let es = estimate(&dag_sparse, &plan_s, &ts, 2, 2, 1);
        let ed = estimate(&dag_dense, &plan_d, &td, 2, 2, 1);
        assert!(es.net_bytes < ed.net_bytes);
    }

    #[test]
    fn cached_inputs_are_free_on_the_network() {
        // Caching X's replicas must drop NetEst by exactly R·|X| and leave
        // memory and computation untouched.
        let (dag, plan) = nmf(6, 6, 2, 10, 0.4);
        let tree = SpaceTree::build(&dag, &plan);
        let x = dag
            .nodes()
            .iter()
            .find(|n| matches!(&n.kind, OpKind::Input { name } if name == "X"))
            .map(|n| n.id)
            .unwrap();
        let (xs, _, _) = sizes(&dag);
        for (p, q, r) in [(1, 1, 1), (2, 3, 1), (3, 2, 2)] {
            let plain = estimate(&dag, &plan, &tree, p, q, r);
            let cached = estimate_with_cache(&dag, &plan, &tree, p, q, r, &BTreeSet::from([x]));
            assert_eq!(plain.net_bytes - cached.net_bytes, r as u64 * xs);
            assert_eq!(plain.mem_bytes, cached.mem_bytes);
            assert_eq!(plain.com_flops, cached.com_flops);
        }
    }

    #[test]
    fn matmul_nodes_priced_with_executor_nnz_upper_bound() {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(1000, 1000, 100, 0.001));
        let v = b.input("V", MatrixMeta::sparse(1000, 100, 100, 0.001));
        let mm = b.matmul(x, v);
        let dag = b.finish(vec![mm]);
        let node = dag.node(mm.id());
        let l = dag.node(node.inputs[0]).meta;
        let r = dag.node(node.inputs[1]).meta;
        assert_eq!(size_bytes(&dag, mm.id()), l.matmul_out_size_bytes(&r));
        // ub = 0.001·0.001·1000 = 0.001 ⇒ priced in CSR, far below dense.
        assert!(size_bytes(&dag, mm.id()) < 1000 * 100 * 8);
    }

    #[test]
    fn flat_plan_estimates() {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::dense(40, 40, 10));
        let u = b.input("U", MatrixMeta::dense(40, 40, 10));
        let m = b.binary(x, u, BinOp::Mul);
        let s = b.unary(m, UnaryOp::Sqrt);
        let dag = b.finish(vec![s]);
        let plan = PartialPlan::new(BTreeSet::from([m.id(), s.id()]), s.id());
        let tree = SpaceTree::build(&dag, &plan);
        let est = estimate(&dag, &plan, &tree, 1, 1, 1);
        // Inputs move once each; flops ≈ 2 ops × 1600 elements.
        assert_eq!(est.net_bytes, 2 * 40 * 40 * 8);
        assert_eq!(est.com_flops, 2 * 1600);
        assert!(est.mem_bytes > 0);
    }
}
