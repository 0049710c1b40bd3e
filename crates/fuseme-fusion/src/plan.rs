//! Partial fusion plans and whole-query fusion plans.

use std::borrow::Cow;
use std::collections::BTreeSet;

use fuseme_plan::{NodeId, QueryDag};
use serde::{Deserialize, Serialize};

/// A sub-DAG executed as one fused operator (the paper's *partial fusion
/// plan*). Membership is a set of operator node ids; the `root` is the
/// plan's single output operator (a termination operator may appear only
/// there, §4.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialPlan {
    /// Operator nodes fused into this plan.
    pub ops: BTreeSet<NodeId>,
    /// The output operator of the plan.
    pub root: NodeId,
}

impl PartialPlan {
    /// Creates a plan, verifying the root is a member.
    pub fn new(ops: BTreeSet<NodeId>, root: NodeId) -> Self {
        debug_assert!(ops.contains(&root), "root must be a member");
        PartialPlan { ops, root }
    }

    /// Number of fused operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the plan is empty (never produced by the planners).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ids of matrix-multiplication members, ascending.
    pub fn matmuls(&self, dag: &QueryDag) -> Vec<NodeId> {
        self.ops
            .iter()
            .copied()
            .filter(|&id| dag.node(id).kind.is_matmul())
            .collect()
    }

    /// The *main* matrix multiplication: the member `ba(×)` with the largest
    /// block-voxel count `I·J·K` (Algorithm 3, line 3) **among those whose
    /// output reaches the plan root without passing through another member
    /// multiplication**. Anchoring the model space on a multiplication that
    /// feeds another one would decouple the cost model from the execution
    /// tiling (the downstream multiplication's inputs cannot be partitioned
    /// along the anchor's axes); restricting eligibility keeps them
    /// consistent — the paper's Fig. 11 anchor `v1` satisfies this. Some
    /// member always qualifies, since reachability over a DAG is acyclic.
    /// Ties prefer the highest node id (nearest the output). `None` when
    /// the plan has no multiplication.
    pub fn main_matmul(&self, dag: &QueryDag) -> Option<NodeId> {
        let mms = self.matmuls(dag);
        mms.iter()
            .copied()
            .filter(|&m| {
                !mms.iter()
                    .any(|&other| other != m && reaches_via_consumers(dag, &self.ops, m, other))
            })
            .max_by_key(|&id| (voxels(dag, id), id))
    }

    /// External inputs: nodes outside the plan (input leaves, scalar
    /// literals, or other operators whose output is materialized) that feed
    /// a member operator. Ascending, deduplicated.
    pub fn external_inputs(&self, dag: &QueryDag) -> Vec<NodeId> {
        let mut out = BTreeSet::new();
        for &id in &self.ops {
            for &input in &dag.node(id).inputs {
                if !self.ops.contains(&input) {
                    out.insert(input);
                }
            }
        }
        out.into_iter().collect()
    }

    /// Validates internal consistency: members form a connected sub-DAG whose
    /// only member consumed from outside (or by the user) is `root`, and no
    /// non-root member's output escapes the plan.
    pub fn validate(&self, dag: &QueryDag) -> Result<(), String> {
        if !self.ops.contains(&self.root) {
            return Err(format!("root {} not a member", self.root));
        }
        for &id in &self.ops {
            if dag.node(id).kind.is_leaf() {
                return Err(format!("leaf {id} cannot be fused"));
            }
            if id != self.root {
                // Every consumer of a non-root member must be inside the
                // plan, otherwise its output would need materialization —
                // and it must have at least one (a consumer-less member is
                // dead code that no single-rooted fused operator contains).
                if dag.consumers(id).is_empty() {
                    return Err(format!("member {id} has no consumers but is not the root"));
                }
                for &c in dag.consumers(id) {
                    if !self.ops.contains(&c) {
                        return Err(format!("member {id} is consumed by {c} outside the plan"));
                    }
                }
                if dag.roots().contains(&id) {
                    return Err(format!("member {id} is a query root but not the plan root"));
                }
            }
        }
        Ok(())
    }
}

/// Number of block-level voxels `I·J·K` of a matrix multiplication node:
/// the size of its 3-D model space (§2.3).
pub fn voxels(dag: &QueryDag, mm: NodeId) -> u64 {
    let node = dag.node(mm);
    debug_assert!(node.kind.is_matmul());
    let left = dag.node(node.inputs[0]).meta;
    let right = dag.node(node.inputs[1]).meta;
    let i = left.grid().block_rows as u64;
    let k = left.grid().block_cols as u64;
    let j = right.grid().block_cols as u64;
    i * j * k
}

/// `true` if `to` is reachable from `from` following consumer edges while
/// staying inside `within`.
pub fn reaches_via_consumers(
    dag: &QueryDag,
    within: &BTreeSet<NodeId>,
    from: NodeId,
    to: NodeId,
) -> bool {
    let mut stack = vec![from];
    let mut seen = BTreeSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        for &c in dag.consumers(id) {
            if c == to {
                return true;
            }
            if within.contains(&c) {
                stack.push(c);
            }
        }
    }
    false
}

/// `true` when a plan's structure allows splitting the k-axis (`R > 1`):
/// the main multiplication's output must reach the plan root without
/// passing through another member multiplication. That holds for every
/// plan with a main multiplication, because [`PartialPlan::main_matmul`]
/// only anchors on a multiplication that reaches no other member
/// multiplication through in-plan consumers. Only the benchmark's per-layer
/// replay calls this, to pick the `R` cap it hands
/// [`crate::optimizer::optimize_bounded`].
pub fn k_splittable(dag: &QueryDag, plan: &PartialPlan) -> bool {
    plan.main_matmul(dag).is_some()
}

/// Block-grid extents `(I, J, K)` of a matmul's model space.
pub fn mm_dims(dag: &QueryDag, mm: NodeId) -> (usize, usize, usize) {
    let node = dag.node(mm);
    debug_assert!(node.kind.is_matmul());
    let left = dag.node(node.inputs[0]).meta;
    let right = dag.node(node.inputs[1]).meta;
    (
        left.grid().block_rows,
        right.grid().block_cols,
        left.grid().block_cols,
    )
}

/// One schedulable unit of a fusion plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecUnit {
    /// A fused sub-DAG executed by one distributed fused operator.
    Fused(PartialPlan),
    /// A single operator executed unfused (intermediates materialized).
    Single(NodeId),
}

impl ExecUnit {
    /// The node whose value this unit materializes.
    pub fn output(&self) -> NodeId {
        match self {
            ExecUnit::Fused(p) => p.root,
            ExecUnit::Single(id) => *id,
        }
    }

    /// The unit as a partial plan; a single operator is a one-member plan.
    pub fn plan(&self) -> Cow<'_, PartialPlan> {
        match self {
            ExecUnit::Fused(p) => Cow::Borrowed(p),
            ExecUnit::Single(id) => Cow::Owned(PartialPlan::new(BTreeSet::from([*id]), *id)),
        }
    }

    /// Member operators of the unit.
    pub fn members(&self) -> Vec<NodeId> {
        match self {
            ExecUnit::Fused(p) => p.ops.iter().copied().collect(),
            ExecUnit::Single(id) => vec![*id],
        }
    }
}

/// A whole-query fusion plan: every operator of the DAG assigned to exactly
/// one unit, units topologically ordered (a unit only consumes outputs of
/// earlier units, leaves, or scalars).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionPlan {
    /// Execution units in dependency order.
    pub units: Vec<ExecUnit>,
}

impl FusionPlan {
    /// Builds a plan from fused partial plans, wrapping every remaining
    /// operator of the DAG in a [`ExecUnit::Single`] and ordering all units
    /// topologically.
    pub fn assemble(dag: &QueryDag, fused: Vec<PartialPlan>) -> FusionPlan {
        let mut assigned: BTreeSet<NodeId> = BTreeSet::new();
        for p in &fused {
            assigned.extend(p.ops.iter().copied());
        }
        let mut units: Vec<ExecUnit> = fused.into_iter().map(ExecUnit::Fused).collect();
        for node in dag.nodes() {
            if !node.kind.is_leaf() && !assigned.contains(&node.id) {
                units.push(ExecUnit::Single(node.id));
            }
        }
        // Topological order by maximum member id works because node ids are
        // topological and a unit's internal nodes are contiguous in
        // dependency terms; to be safe we sort by the root's id, which is
        // the unit's last-computed node.
        units.sort_by_key(|u| u.output());
        FusionPlan { units }
    }

    /// Total number of fused operators across all units.
    pub fn fused_op_count(&self) -> usize {
        self.units
            .iter()
            .filter_map(|u| match u {
                ExecUnit::Fused(p) => Some(p.len()),
                ExecUnit::Single(_) => None,
            })
            .sum()
    }

    /// Number of units that are fused plans.
    pub fn fused_unit_count(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u, ExecUnit::Fused(_)))
            .count()
    }

    /// Validates that units partition the DAG's operators and are ordered.
    pub fn validate(&self, dag: &QueryDag) -> Result<(), String> {
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for unit in &self.units {
            for m in unit.members() {
                if !seen.insert(m) {
                    return Err(format!("operator {m} assigned to two units"));
                }
            }
            if let ExecUnit::Fused(p) = unit {
                p.validate(dag)?;
                // All external inputs must already be materialized.
                for input in p.external_inputs(dag) {
                    if !dag.node(input).kind.is_leaf() && !seen_contains_output(&seen, input, p) {
                        return Err(format!(
                            "unit rooted at {} consumes {input} before it is produced",
                            p.root
                        ));
                    }
                }
            }
        }
        let ops: usize = dag.nodes().iter().filter(|n| !n.kind.is_leaf()).count();
        if seen.len() != ops {
            return Err(format!(
                "plan covers {} operators, DAG has {ops}",
                seen.len()
            ));
        }
        Ok(())
    }
}

fn seen_contains_output(seen: &BTreeSet<NodeId>, input: NodeId, current: &PartialPlan) -> bool {
    seen.contains(&input) && !current.ops.contains(&input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{BinOp, MatrixMeta};
    use fuseme_plan::DagBuilder;

    /// X * log-free simple chain with one matmul: O = (U × V) * X.
    fn outer_query() -> (QueryDag, NodeId, NodeId) {
        let mut b = DagBuilder::new();
        let u = b.input("U", MatrixMeta::dense(40, 20, 10));
        let v = b.input("V", MatrixMeta::dense(20, 30, 10));
        let x = b.input("X", MatrixMeta::sparse(40, 30, 10, 0.05));
        let mm = b.matmul(u, v);
        let out = b.binary(mm, x, BinOp::Mul);
        let dag = b.finish(vec![out]);
        (dag, mm.id(), out.id())
    }

    #[test]
    fn voxels_and_dims() {
        let (dag, mm, _) = outer_query();
        assert_eq!(mm_dims(&dag, mm), (4, 3, 2));
        assert_eq!(voxels(&dag, mm), 24);
    }

    #[test]
    fn partial_plan_queries() {
        let (dag, mm, out) = outer_query();
        let p = PartialPlan::new(BTreeSet::from([mm, out]), out);
        p.validate(&dag).unwrap();
        assert_eq!(p.matmuls(&dag), vec![mm]);
        assert_eq!(p.main_matmul(&dag), Some(mm));
        // External inputs are the three leaves.
        assert_eq!(p.external_inputs(&dag).len(), 3);
    }

    #[test]
    fn validate_rejects_escaping_member() {
        let (dag, mm, out) = outer_query();
        // Plan containing only the matmul but rooted elsewhere is invalid if
        // root not member; and a plan {mm} rooted at mm is fine (consumer is
        // outside? out consumes mm → invalid as interior member... mm IS the
        // root here, so escape is allowed).
        let ok = PartialPlan::new(BTreeSet::from([mm]), mm);
        ok.validate(&dag).unwrap();
        // Plan {mm, out} rooted at mm: `out` is a non-root member that is a
        // query root → invalid.
        let bad = PartialPlan {
            ops: BTreeSet::from([mm, out]),
            root: mm,
        };
        assert!(bad.validate(&dag).is_err());
    }

    #[test]
    fn assemble_covers_all_operators() {
        let (dag, mm, out) = outer_query();
        let fused = vec![PartialPlan::new(BTreeSet::from([mm, out]), out)];
        let plan = FusionPlan::assemble(&dag, fused);
        plan.validate(&dag).unwrap();
        assert_eq!(plan.units.len(), 1);
        assert_eq!(plan.fused_op_count(), 2);

        // Without fused plans every operator becomes a single unit.
        let plain = FusionPlan::assemble(&dag, vec![]);
        plain.validate(&dag).unwrap();
        assert_eq!(plain.units.len(), 2);
        assert_eq!(plain.fused_unit_count(), 0);
    }

    #[test]
    fn assemble_orders_units() {
        let (dag, _, _) = outer_query();
        let plan = FusionPlan::assemble(&dag, vec![]);
        let outputs: Vec<NodeId> = plan.units.iter().map(|u| u.output()).collect();
        let mut sorted = outputs.clone();
        sorted.sort_unstable();
        assert_eq!(outputs, sorted);
    }

    #[test]
    fn main_matmul_prefers_largest_root_reachable() {
        // `big` feeds `small` (another multiplication), so despite its
        // larger voxel count it is ineligible: anchoring on it would leave
        // `small`'s inputs unpartitionable along the anchor's axes.
        let mut b = DagBuilder::new();
        let big_l = b.input("A", MatrixMeta::dense(100, 100, 10));
        let big_r = b.input("B", MatrixMeta::dense(100, 100, 10));
        let small_r = b.input("C", MatrixMeta::dense(100, 10, 10));
        let big = b.matmul(big_l, big_r);
        let small = b.matmul(big, small_r);
        let dag = b.finish(vec![small]);
        let p = PartialPlan::new(BTreeSet::from([big.id(), small.id()]), small.id());
        assert_eq!(p.main_matmul(&dag), Some(small.id()));
        // Two parallel multiplications joined element-wise: the larger wins.
        let mut b = DagBuilder::new();
        let a = b.input("A", MatrixMeta::dense(100, 100, 10));
        let c = b.input("C", MatrixMeta::dense(100, 100, 10));
        let mm1 = b.matmul(a, c);
        let mm2 = b.matmul(c, a);
        let join = b.binary(mm1, mm2, fuseme_matrix::BinOp::Add);
        let dag = b.finish(vec![join]);
        let p = PartialPlan::new(BTreeSet::from([mm1.id(), mm2.id(), join.id()]), join.id());
        assert_eq!(p.main_matmul(&dag), Some(mm2.id()), "tie → higher id");
    }
}
