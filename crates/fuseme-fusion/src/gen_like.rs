//! A GEN-style baseline fusion planner emulating SystemDS (paper §1, §4).
//!
//! GEN (the template-based generator of SystemDS) finds Cell, Row, Outer,
//! and Multi-aggregation partial fusion plans, but it *avoids* including
//! large-scale matrix multiplication in a plan unless sparsity exploitation
//! makes it pay — the Outer template. For GNMF it therefore fuses only the
//! two element-wise operators `*` and `÷` (paper Fig. 1(c)); for the
//! weighted-squared-loss query it does fuse the multiplication because the
//! sparse `X` gates the output (Fig. 1(b)).
//!
//! This emulation implements exactly that behaviour:
//!
//! * **Outer fusion** — a multiplication whose single-consumer chain of
//!   element-wise operators multiplies against a sparse matrix (density
//!   at most `SPARSE_THRESHOLD`, 0.1) is fused with that chain,
//!   optionally capped by an aggregation root.
//! * **Cell fusion** — remaining maximal element-wise chains are fused.
//! * All other multiplications execute standalone (SystemDS hands them to
//!   its broadcast/replication matmul operators).

use std::collections::BTreeSet;

use fuseme_plan::{NodeId, OpKind, QueryDag};

use crate::cfg::{cell_fusion_with, is_termination};
use crate::plan::{FusionPlan, PartialPlan};

/// A matrix with density at or below this gates Outer fusion (SystemDS's
/// sparsity-exploitation test).
const SPARSE_THRESHOLD: f64 = 0.1;

/// The GEN-style planner.
#[derive(Debug, Clone, Copy)]
pub struct GenLike;

impl GenLike {
    /// Generates a fusion plan for the query.
    pub fn plan(&self, dag: &QueryDag) -> FusionPlan {
        let mut fused: Vec<PartialPlan> = Vec::new();
        let mut claimed: BTreeSet<NodeId> = BTreeSet::new();

        // Outer fusion around each multiplication.
        for mm in dag.matmuls() {
            if claimed.contains(&mm) {
                continue;
            }
            if let Some(plan) = self.try_outer(dag, mm, &claimed) {
                claimed.extend(plan.ops.iter().copied());
                fused.push(plan);
            }
        }

        // Cell fusion over the rest (element-wise chains only; GEN's Cell
        // template does not span transposes).
        fused.extend(cell_fusion_with(dag, &claimed, |kind| {
            matches!(kind, OpKind::Unary(_) | OpKind::Binary(_))
        }));
        FusionPlan::assemble(dag, fused)
    }

    /// Attempts the Outer template at multiplication `mm`: follow the
    /// single-consumer chain of element-wise operators upward; fuse if some
    /// chain member element-wise-multiplies against a sparse input (the
    /// sparse side gates which output cells exist, so the multiplication's
    /// dense output is never materialized). An aggregation may cap the
    /// chain.
    fn try_outer(
        &self,
        dag: &QueryDag,
        mm: NodeId,
        claimed: &BTreeSet<NodeId>,
    ) -> Option<PartialPlan> {
        if dag.is_materialization_point(mm) {
            return None;
        }
        let mut ops = BTreeSet::from([mm]);
        let mut sparse_gate = false;
        let mut current = mm;
        let mut root = mm;
        loop {
            let consumers = dag.consumers(current);
            if consumers.len() != 1 {
                break;
            }
            let c = consumers[0];
            if claimed.contains(&c) {
                break;
            }
            match &dag.node(c).kind {
                OpKind::Binary(op) => {
                    // Does the other operand gate with sparsity?
                    if op.zero_dominant() {
                        let other = dag.node(c).inputs.iter().copied().find(|&i| i != current);
                        if let Some(other) = other {
                            if dag.node(other).meta.density <= SPARSE_THRESHOLD {
                                sparse_gate = true;
                            }
                        }
                    }
                    ops.insert(c);
                    root = c;
                    if is_termination(dag, c) {
                        break;
                    }
                    current = c;
                }
                OpKind::Unary(_) => {
                    ops.insert(c);
                    root = c;
                    if is_termination(dag, c) {
                        break;
                    }
                    current = c;
                }
                OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
                    // Aggregation caps the template (Fig. 1(b)'s sum).
                    ops.insert(c);
                    root = c;
                    break;
                }
                _ => break,
            }
        }
        if !sparse_gate || ops.len() < 2 {
            return None;
        }
        let plan = PartialPlan::new(ops, root);
        plan.validate(dag).ok()?;
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{AggOp, BinOp, MatrixMeta, UnaryOp};
    use fuseme_plan::DagBuilder;

    /// Weighted squared loss: sum((X ≠ 0) * (X − U×V)²), X sparse.
    fn wsl(x_density: f64) -> (QueryDag, NodeId, NodeId) {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(40, 40, 10, x_density));
        let u = b.input("U", MatrixMeta::dense(40, 4, 10));
        let v = b.input("V", MatrixMeta::dense(4, 40, 10));
        let nz = b.unary(x, UnaryOp::NotZero);
        let uv = b.matmul(u, v);
        let diff = b.binary(x, uv, BinOp::Sub);
        let sq = b.unary(diff, UnaryOp::Square);
        let w = b.binary(nz, sq, BinOp::Mul);
        let loss = b.full_agg(w, AggOp::Sum);
        let dag = b.finish(vec![loss]);
        (dag, uv.id(), loss.id())
    }

    #[test]
    fn outer_fusion_fires_on_sparse_loss() {
        let (dag, mm, loss) = wsl(0.01);
        let plan = GenLike.plan(&dag);
        plan.validate(&dag).unwrap();
        // The multiplication must be inside a fused unit rooted at the sum.
        let fused_with_mm = plan.units.iter().find_map(|u| match u {
            crate::plan::ExecUnit::Fused(p) if p.ops.contains(&mm) => Some(p),
            _ => None,
        });
        let p = fused_with_mm.expect("matmul fused by Outer template");
        assert_eq!(p.root, loss);
    }

    #[test]
    fn outer_fusion_skipped_when_dense() {
        let (dag, mm, _) = wsl(0.9);
        let plan = GenLike.plan(&dag);
        plan.validate(&dag).unwrap();
        // Without a sparse gate, GEN leaves the multiplication standalone.
        for unit in &plan.units {
            if let crate::plan::ExecUnit::Fused(p) = unit {
                assert!(!p.ops.contains(&mm), "dense matmul must not fuse");
            }
        }
    }

    /// GNMF-shaped query: GEN fuses only the element-wise `*` and `÷`.
    #[test]
    fn gnmf_fuses_only_elementwise() {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(40, 40, 10, 0.02));
        let u = b.input("U", MatrixMeta::dense(40, 4, 10));
        let v = b.input("V", MatrixMeta::dense(40, 4, 10));
        let xv = b.matmul(x, v);
        let num = b.binary(u, xv, BinOp::Mul);
        let vt = b.transpose(v);
        let vtv = b.matmul(vt, v);
        let den = b.matmul(u, vtv);
        let out = b.binary(num, den, BinOp::Div);
        let dag = b.finish(vec![out]);
        let plan = GenLike.plan(&dag);
        plan.validate(&dag).unwrap();
        // No matmul inside any fused unit; * and ÷ fused together.
        let mut fused_ops = 0;
        for unit in &plan.units {
            if let crate::plan::ExecUnit::Fused(p) = unit {
                fused_ops += p.len();
                for &id in &p.ops {
                    assert!(!dag.node(id).kind.is_matmul());
                }
            }
        }
        assert_eq!(fused_ops, 2, "GEN fuses exactly b(*) and b(÷) here");
        let _ = (xv, vtv, den, vt, out, x, u);
    }

    #[test]
    fn multi_consumer_matmul_not_fused() {
        let mut b = DagBuilder::new();
        let u = b.input("U", MatrixMeta::dense(20, 20, 10));
        let v = b.input("V", MatrixMeta::dense(20, 20, 10));
        let x = b.input("X", MatrixMeta::sparse(20, 20, 10, 0.01));
        let mm = b.matmul(u, v);
        let gated = b.binary(mm, x, BinOp::Mul);
        let also = b.unary(mm, UnaryOp::Sqrt); // second consumer of mm
        let out = b.binary(gated, also, BinOp::Add);
        let dag = b.finish(vec![out]);
        let plan = GenLike.plan(&dag);
        plan.validate(&dag).unwrap();
        for unit in &plan.units {
            if let crate::plan::ExecUnit::Fused(p) = unit {
                assert!(!p.ops.contains(&mm.id()));
            }
        }
    }
}
