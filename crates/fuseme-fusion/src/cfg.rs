//! The Cuboid-based Fusion plan Generator (paper §4).
//!
//! CFG runs in two phases. The **exploration phase** (Algorithm 2) seeds a
//! candidate partial fusion plan at each unclaimed matrix multiplication and
//! greedily grows it along adjacent operators. Growth stops at *termination
//! operators* — (1) materialization points (output consumed more than once)
//! and (2) unary aggregations that need a shuffle — which may join a plan
//! only as its top (root) operator. The **exploitation phase** (Algorithm 3)
//! then refines each candidate: it finds the optimal `(P,Q,R)` and cost for
//! the whole plan, and for every non-main multiplication (most distant from
//! the main first) checks whether splitting it off — together with its
//! in-plan descendants — lowers total cost; profitable splits are applied
//! and the split-off part re-enters the worklist.
//!
//! Because the CFO gives FuseME a control knob for memory (`(P,Q,R)`), CFG
//! can keep large multiplications inside fusion plans where GEN-style
//! planners must bail out.

use std::collections::BTreeSet;

use fuseme_plan::{NodeId, OpKind, QueryDag};

use crate::cost::CostModel;
use crate::optimizer::search;
use crate::plan::{FusionPlan, PartialPlan};
use crate::space::SpaceTree;

/// The CFG planner, parameterized by the cost model used in the
/// exploitation phase.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Cluster constants for `(P,Q,R)` optimization and split decisions.
    pub model: CostModel,
    /// Whether to also group leftover element-wise chains (Cell fusion)
    /// after matmul-anchored planning. FuseME enables this; disabling it
    /// isolates the effect of cuboid fusion in ablations.
    pub fuse_residual_cells: bool,
}

impl Cfg {
    /// Creates a CFG planner with residual Cell fusion enabled.
    pub fn new(model: CostModel) -> Self {
        Cfg {
            model,
            fuse_residual_cells: true,
        }
    }

    /// Generates the fusion plan for a query.
    pub fn plan(&self, dag: &QueryDag) -> FusionPlan {
        let candidates = explore(dag);
        let refined = self.exploit(dag, candidates);
        let mut fused = refined;
        if self.fuse_residual_cells {
            let claimed: BTreeSet<NodeId> =
                fused.iter().flat_map(|p| p.ops.iter().copied()).collect();
            fused.extend(residual_cell_fusion(dag, &claimed));
        }
        FusionPlan::assemble(dag, fused)
    }

    /// Algorithm 3: refine candidates by cost-based splitting.
    fn exploit(&self, dag: &QueryDag, candidates: Vec<PartialPlan>) -> Vec<PartialPlan> {
        let mut queue: std::collections::VecDeque<PartialPlan> = candidates.into();
        let mut done = Vec::new();
        while let Some(mut plan) = queue.pop_front() {
            if plan.main_matmul(dag).is_none() {
                done.push(plan);
                continue;
            }
            let tree = SpaceTree::build(dag, &plan);
            let mut cost = search(dag, &plan, &tree, &self.model, &[]).cost;
            for vi in split_candidates(dag, &plan) {
                if !plan.ops.contains(&vi) {
                    continue; // already split off with an earlier vi
                }
                let Some((fm, fi)) = split(dag, &plan, vi) else {
                    continue;
                };
                let tree_m = SpaceTree::build(dag, &fm);
                let tree_i = SpaceTree::build(dag, &fi);
                let cost_m = search(dag, &fm, &tree_m, &self.model, &[]).cost;
                let cost_i = search(dag, &fi, &tree_i, &self.model, &[]).cost;
                if cost > cost_m + cost_i {
                    queue.push_back(fi);
                    plan = fm;
                    cost = cost_m;
                }
            }
            done.push(plan);
        }
        done.retain(|p| p.len() > 1 || infeasible_alone_is_fine(dag, p));
        done
    }
}

/// A single-op "plan" adds no fusion value; keep it only if it is a matmul
/// (the CFO still beats unfused execution for a lone multiplication via
/// cuboid partitioning, which is exactly DistME's CuboidMM).
fn infeasible_alone_is_fine(dag: &QueryDag, p: &PartialPlan) -> bool {
    dag.node(p.root).kind.is_matmul()
}

/// Algorithm 2: exploration. Deterministic: matmul seeds are taken in
/// ascending id order, adjacency is scanned in ascending id order.
pub fn explore(dag: &QueryDag) -> Vec<PartialPlan> {
    let mut workload: BTreeSet<NodeId> = dag
        .nodes()
        .iter()
        .filter(|n| !n.kind.is_leaf())
        .map(|n| n.id)
        .collect();
    let mut candidates = Vec::new();
    while let Some(seed) = workload
        .iter()
        .copied()
        .find(|&id| dag.node(id).kind.is_matmul())
    {
        workload.remove(&seed);
        let mut ops = BTreeSet::from([seed]);
        let mut top = false;
        loop {
            let adj: Vec<NodeId> = dag
                .adjacent_of_set(&ops, top)
                .into_iter()
                .filter(|id| workload.contains(id))
                .collect();
            if adj.is_empty() {
                break;
            }
            for vi in adj {
                if !is_termination(dag, vi) {
                    ops.insert(vi);
                } else if !top && is_outgoing(dag, &ops, vi) {
                    // A termination operator may cap the plan as its root —
                    // at most one per plan, so the cap stays the top
                    // (adding a second consumer the same round would bury
                    // the first one as an interior member).
                    ops.insert(vi);
                    top = true;
                }
                // Processed adjacents leave the workload unconditionally
                // (Algorithm 2 line 17) — excluded termination operators
                // simply run standalone.
                workload.remove(&vi);
            }
        }
        candidates.extend(normalize_candidate(dag, ops));
    }
    candidates
}

/// Splits a grown operator set into single-rooted partial plans.
///
/// Growth can leave members whose outputs *escape* the set — consumed by an
/// operator outside it, by the user (query roots), or by nothing at all
/// (multiple tops from consumer chains that never re-merged). An escaping
/// member can only ever be a plan root, so each one anchors a plan holding
/// the members only it reaches; members reachable from several anchors feed
/// more than one plan, must materialize, and recurse into plans of their
/// own.
fn normalize_candidate(dag: &QueryDag, ops: BTreeSet<NodeId>) -> Vec<PartialPlan> {
    if ops.is_empty() {
        return Vec::new();
    }
    let escapes = |id: NodeId| -> bool {
        dag.roots().contains(&id)
            || dag.consumers(id).is_empty()
            || dag.consumers(id).iter().any(|c| !ops.contains(c))
    };
    let anchors: Vec<NodeId> = ops.iter().copied().filter(|&id| escapes(id)).collect();
    debug_assert!(
        !anchors.is_empty(),
        "a non-empty region has an escaping member"
    );
    if anchors.len() == 1 && ops.iter().all(|&id| id == anchors[0] || !escapes(id)) {
        return vec![PartialPlan::new(ops, anchors[0])];
    }
    // Members each anchor reaches through input edges, without descending
    // through other anchors (those own their regions).
    let mut owners: std::collections::HashMap<NodeId, Vec<NodeId>> = Default::default();
    for &a in &anchors {
        let mut stack = vec![a];
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            owners.entry(id).or_default().push(a);
            for &input in &dag.node(id).inputs {
                if ops.contains(&input) && !anchors.contains(&input) {
                    stack.push(input);
                }
            }
        }
    }
    let mut plans = Vec::new();
    let mut shared: BTreeSet<NodeId> = BTreeSet::new();
    for (&id, reached_by) in &owners {
        if reached_by.len() > 1 && !anchors.contains(&id) {
            shared.insert(id);
        }
    }
    // Shared members and everything below them leave the anchors' plans.
    for &a in &anchors {
        let mut members: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack = vec![a];
        while let Some(id) = stack.pop() {
            if shared.contains(&id) || (!members.insert(id)) {
                continue;
            }
            for &input in &dag.node(id).inputs {
                if ops.contains(&input) && !anchors.contains(&input) && !shared.contains(&input) {
                    stack.push(input);
                }
            }
        }
        plans.push(PartialPlan::new(members, a));
    }
    if !shared.is_empty() {
        plans.extend(normalize_candidate(dag, shared));
    }
    plans
}

/// Termination operators (§4.1): materialization points (fan-out > 1) and
/// unary aggregations whose input spans more than one block (those need a
/// shuffle to combine per-task partials).
pub fn is_termination(dag: &QueryDag, id: NodeId) -> bool {
    if dag.is_materialization_point(id) {
        return true;
    }
    let node = dag.node(id);
    if node.kind.is_unary_agg() {
        let input_blocks = dag.node(node.inputs[0]).meta.grid().num_blocks();
        return input_blocks > 1;
    }
    false
}

/// `true` when `id` consumes the output of some member of `ops` (it sits on
/// the outgoing/parent side of the plan).
fn is_outgoing(dag: &QueryDag, ops: &BTreeSet<NodeId>, id: NodeId) -> bool {
    dag.node(id).inputs.iter().any(|i| ops.contains(i))
}

/// Candidate split points of a plan, most profitable first: every member
/// multiplication except the main, ordered most distant from the main first
/// (they compound the most replication, §4.2). This is the worklist order
/// Algorithm 3's exploitation phase uses; the driver's memory-pressure
/// ladder reuses it to pick which piece to carve off an OOM-ing unit.
pub fn split_candidates(dag: &QueryDag, plan: &PartialPlan) -> Vec<NodeId> {
    let Some(vm) = plan.main_matmul(dag) else {
        return Vec::new();
    };
    let mut sp: Vec<NodeId> = plan.matmuls(dag).into_iter().filter(|&v| v != vm).collect();
    sp.sort_by_key(|&v| std::cmp::Reverse((dag.distance(v, vm).unwrap_or(0), v)));
    sp
}

/// Splits `plan` at `vi`: `F_i` takes `vi` and its in-plan descendants
/// (operators it transitively consumes), `F_m` keeps the rest. Returns
/// `None` when the split would orphan the main plan (never happens for
/// non-root `vi`).
pub fn split(dag: &QueryDag, plan: &PartialPlan, vi: NodeId) -> Option<(PartialPlan, PartialPlan)> {
    if vi == plan.root {
        return None;
    }
    let fi_ops = dag.descendants_within(vi, &plan.ops);
    let fm_ops: BTreeSet<NodeId> = plan.ops.difference(&fi_ops).copied().collect();
    if fm_ops.is_empty() || !fm_ops.contains(&plan.root) {
        return None;
    }
    // The split must not strand members of F_m that fed F_i below vi: any
    // F_i member other than vi that something in F_m consumes would need
    // materialization of a non-root. Reject such splits.
    for &id in &fi_ops {
        if id != vi && dag.consumers(id).iter().any(|c| fm_ops.contains(c)) {
            return None;
        }
    }
    Some((
        PartialPlan::new(fm_ops, plan.root),
        PartialPlan::new(fi_ops, vi),
    ))
}

/// Cell fusion over operators no matmul-anchored plan claimed: groups
/// maximal chains of element-wise unary/binary/transpose operators
/// (intermediates with fan-out 1), so e.g. a pure `X*U/V` query still runs
/// fused (paper Fig. 2(a)).
pub fn residual_cell_fusion(dag: &QueryDag, claimed: &BTreeSet<NodeId>) -> Vec<PartialPlan> {
    cell_fusion_with(dag, claimed, |kind| {
        matches!(
            kind,
            OpKind::Unary(_) | OpKind::Binary(_) | OpKind::Transpose
        )
    })
}

/// Cell fusion restricted to operator kinds accepted by `allow`. The
/// MatFast-style folded planner uses a narrower predicate (element-wise
/// only, no transpose).
pub fn cell_fusion_with(
    dag: &QueryDag,
    claimed: &BTreeSet<NodeId>,
    allow: impl Fn(&OpKind) -> bool,
) -> Vec<PartialPlan> {
    let fusable = |id: NodeId| -> bool { !claimed.contains(&id) && allow(&dag.node(id).kind) };
    let mut assigned: BTreeSet<NodeId> = BTreeSet::new();
    let mut plans = Vec::new();
    // Scan top-down (descending id) so each chain is rooted at its highest
    // operator.
    for node in dag.nodes().iter().rev() {
        let root = node.id;
        if !fusable(root) || assigned.contains(&root) {
            continue;
        }
        // Only root a plan at an operator whose output escapes (root of the
        // query, multi-consumer, or consumed by a non-fusable/claimed op).
        let escapes = dag.consumers(root).is_empty()
            || dag.fanout(root) != 1
            || dag
                .consumers(root)
                .iter()
                .any(|&c| !fusable(c) || assigned.contains(&c));
        if !escapes {
            continue;
        }
        let mut ops = BTreeSet::from([root]);
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for &input in &dag.node(id).inputs {
                if fusable(input)
                    && !assigned.contains(&input)
                    && dag.fanout(input) == 1
                    && !ops.contains(&input)
                {
                    ops.insert(input);
                    stack.push(input);
                }
            }
        }
        if ops.len() > 1 {
            assigned.extend(ops.iter().copied());
            plans.push(PartialPlan::new(ops, root));
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{AggOp, BinOp, MatrixMeta, UnaryOp};
    use fuseme_plan::DagBuilder;

    fn model() -> CostModel {
        CostModel {
            nodes: 2,
            tasks_per_node: 2,
            mem_per_task: 1 << 20,
            net_bandwidth: 1e8,
            compute_bandwidth: 1e9,
        }
    }

    /// The GNMF U-update DAG (Eq. 6, one half):
    /// out = (U * (Xᵀᵀ… simplified)) — concretely:
    ///   num = U ∘ (X × V)          (40×4)
    ///   den = (U × (Vᵀ × V)) … shaped as U(40×4) × [Vᵀ(4×40) × V(40×4)]
    ///   out = num ÷ den
    fn gnmf_half(bs: usize) -> (QueryDag, Vec<NodeId>) {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(40 * bs, 40 * bs, bs, 0.02));
        let u = b.input("U", MatrixMeta::dense(40 * bs, 4 * bs, bs));
        let v = b.input("V", MatrixMeta::dense(40 * bs, 4 * bs, bs));
        let xv = b.matmul(x, v); // v1: 40×4 via K=40
        let num = b.binary(u, xv, BinOp::Mul);
        let vt = b.transpose(v);
        let vtv = b.matmul(vt, v); // v2: 4×4
        let den = b.matmul(u, vtv); // v4: 40×4
        let out = b.binary(num, den, BinOp::Div);
        let dag = b.finish(vec![out]);
        let ids = vec![xv.id(), vtv.id(), den.id(), out.id(), num.id(), vt.id()];
        (dag, ids)
    }

    #[test]
    fn exploration_fuses_whole_gnmf_half() {
        let (dag, ids) = gnmf_half(1);
        let candidates = explore(&dag);
        // All operators hang together: one candidate containing everything.
        assert_eq!(candidates.len(), 1, "{candidates:?}");
        let plan = &candidates[0];
        plan.validate(&dag).unwrap();
        assert_eq!(plan.root, ids[3]); // out
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.matmuls(&dag).len(), 3);
    }

    #[test]
    fn exploration_respects_materialization_points() {
        // X feeds two separate consumers through a shared intermediate:
        // s = X², a = sum-like chain… construct: s consumed by two ops.
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::dense(20, 20, 10));
        let y = b.input("Y", MatrixMeta::dense(20, 20, 10));
        let s = b.unary(x, UnaryOp::Square); // will have fanout 2
        let mm = b.matmul(s, y);
        let add = b.binary(s, mm, BinOp::Add);
        let dag = b.finish(vec![add]);
        let candidates = explore(&dag);
        assert_eq!(candidates.len(), 1);
        let plan = &candidates[0];
        // s is a materialization point: not an interior member.
        assert!(!plan.ops.contains(&s.id()));
        assert!(plan.ops.contains(&mm.id()));
        assert!(plan.ops.contains(&add.id()));
        plan.validate(&dag).unwrap();
    }

    #[test]
    fn termination_agg_can_top_a_plan() {
        // sum((U×V) * X): the full aggregation tops the fused plan.
        let mut b = DagBuilder::new();
        let u = b.input("U", MatrixMeta::dense(40, 20, 10));
        let v = b.input("V", MatrixMeta::dense(20, 40, 10));
        let x = b.input("X", MatrixMeta::sparse(40, 40, 10, 0.05));
        let mm = b.matmul(u, v);
        let prod = b.binary(mm, x, BinOp::Mul);
        let total = b.full_agg(prod, AggOp::Sum);
        let dag = b.finish(vec![total]);
        assert!(is_termination(&dag, total.id()));
        let candidates = explore(&dag);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].root, total.id());
        assert_eq!(candidates[0].len(), 3);
        candidates[0].validate(&dag).unwrap();
    }

    #[test]
    fn small_agg_is_not_termination() {
        // colSum over a single-block input needs no shuffle.
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::dense(8, 8, 10)); // 1 block
        let cs = b.col_agg(x, AggOp::Sum);
        let dag = b.finish(vec![cs]);
        assert!(!is_termination(&dag, cs.id()));
    }

    #[test]
    fn exploitation_splits_when_profitable() {
        // Force a split by making the distant matmul huge relative to the
        // memory budget so keeping it fused compounds replication cost.
        let (dag, _) = gnmf_half(2);
        let cfg = Cfg::new(CostModel {
            mem_per_task: 200_000,
            ..model()
        });
        let candidates = explore(&dag);
        let refined = cfg.exploit(&dag, candidates.clone());
        // Whether or not a split fires depends on costs; the result must
        // still be a valid partition with every original op covered.
        let all_before: BTreeSet<NodeId> = candidates
            .iter()
            .flat_map(|p| p.ops.iter().copied())
            .collect();
        let all_after: BTreeSet<NodeId> =
            refined.iter().flat_map(|p| p.ops.iter().copied()).collect();
        assert_eq!(all_before, all_after);
        for p in &refined {
            p.validate(&dag).unwrap();
        }
    }

    #[test]
    fn full_plan_covers_dag() {
        let (dag, _) = gnmf_half(1);
        let cfg = Cfg::new(model());
        let plan = cfg.plan(&dag);
        plan.validate(&dag).unwrap();
        assert!(plan.fused_unit_count() >= 1);
    }

    #[test]
    fn residual_cell_fusion_groups_chains() {
        // Pure element-wise query X*U/V (paper Fig. 2(a)).
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(20, 20, 10, 0.1));
        let u = b.input("U", MatrixMeta::dense(20, 20, 10));
        let v = b.input("V", MatrixMeta::dense(20, 20, 10));
        let xu = b.binary(x, u, BinOp::Mul);
        let out = b.binary(xu, v, BinOp::Div);
        let dag = b.finish(vec![out]);
        let plans = residual_cell_fusion(&dag, &BTreeSet::new());
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].len(), 2);
        assert_eq!(plans[0].root, out.id());
        plans[0].validate(&dag).unwrap();
        // And through the full CFG entry point:
        let cfg = Cfg::new(model());
        let full = cfg.plan(&dag);
        full.validate(&dag).unwrap();
        assert_eq!(full.fused_unit_count(), 1);
    }

    #[test]
    fn residual_fusion_stops_at_fanout() {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::dense(20, 20, 10));
        let sq = b.unary(x, UnaryOp::Square); // consumed twice
        let a = b.unary(sq, UnaryOp::Sqrt);
        let c = b.unary(sq, UnaryOp::Abs);
        let out = b.binary(a, c, BinOp::Add);
        let dag = b.finish(vec![out]);
        let plans = residual_cell_fusion(&dag, &BTreeSet::new());
        for p in &plans {
            p.validate(&dag).unwrap();
            assert!(!p.ops.contains(&sq.id()) || p.root == sq.id());
        }
    }

    #[test]
    fn explore_is_deterministic() {
        let (dag, _) = gnmf_half(1);
        let a = explore(&dag);
        let b = explore(&dag);
        assert_eq!(a, b);
    }

    #[test]
    fn two_halves_give_two_plans() {
        // Full GNMF (both factor updates) has two independent sub-DAGs when
        // built over shared inputs; CFG finds one candidate per half.
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(40, 40, 10, 0.02));
        let u = b.input("U", MatrixMeta::dense(40, 4, 10));
        let v = b.input("V", MatrixMeta::dense(40, 4, 10));
        // Half 1.
        let xv = b.matmul(x, v);
        let num1 = b.binary(u, xv, BinOp::Mul);
        // Half 2.
        let xt = b.transpose(x);
        let xu = b.matmul(xt, u);
        let num2 = b.binary(v, xu, BinOp::Mul);
        let dag = b.finish(vec![num1, num2]);
        let candidates = explore(&dag);
        assert_eq!(candidates.len(), 2);
        for c in &candidates {
            c.validate(&dag).unwrap();
        }
    }
}
