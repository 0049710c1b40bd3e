//! The 3-D model space of a fused operator (paper §3.1).
//!
//! A partial fusion plan containing matrix multiplication decomposes around
//! its main `ba(×)` into four subspaces: `MM`-space (the multiplication's
//! `I×J×K` voxel space), `L`-space (operators producing its left input),
//! `R`-space (right input), and `O`-space (operators consuming its output).
//! A `(P,Q,R)` cuboid partitioning of `MM`-space induces `(P,1,R)`,
//! `(1,Q,R)` and `(P,Q,1)` partitionings of `L`/`R`/`O`-space respectively.
//! A subspace that itself contains a multiplication recurses into its own
//! nested model space (the paper's Fig. 11).
//!
//! [`SpaceTree`] captures this decomposition as data. The cost model walks
//! it with two running quantities:
//!
//! * a **divisor** — how many pieces a node's data is cut into inside one
//!   task (Eq. 3's `P·R`, `Q·R`, `P·Q` at the top level, shrinking further
//!   at nested levels), and
//! * a **replication factor** — how many tasks receive each piece (Eq. 4's
//!   `Q`, `P`, `R`, multiplying at nested levels; the paper's Fig. 11
//!   walkthrough has `v2`'s inputs replicated `Q·R = 6` times).

use std::collections::BTreeSet;

use fuseme_plan::{NodeId, QueryDag};
use serde::{Deserialize, Serialize};

use crate::plan::{reaches_via_consumers, PartialPlan};

/// Which subspace a region occupies relative to its parent multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpaceKind {
    /// Left input side (`ik`-plane neighbours).
    L,
    /// Right input side (`kj`-plane neighbours).
    R,
    /// Output side (`ij`-plane neighbours).
    O,
}

/// A region of the model space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpaceTree {
    /// A region with no matrix multiplication: a flat set of element-wise /
    /// reorganization / aggregation operators plus the external inputs that
    /// feed them.
    Flat {
        /// Operators inside the region (possibly empty for pass-through
        /// regions whose only content is an external input).
        ops: Vec<NodeId>,
        /// External (outside-plan) nodes feeding this region, deduplicated.
        ext_inputs: Vec<NodeId>,
        /// Whether this region materializes the plan's output.
        holds_output: bool,
    },
    /// A region organized around a matrix multiplication.
    Mm {
        /// The multiplication at the centre of this (sub-)space.
        mm: NodeId,
        /// The `L`-space region.
        l: Box<SpaceTree>,
        /// The `R`-space region.
        r: Box<SpaceTree>,
        /// The `O`-space region.
        o: Box<SpaceTree>,
    },
}

impl SpaceTree {
    /// Decomposes a partial fusion plan into its model space, rooted at the
    /// plan's main matrix multiplication. Returns a [`SpaceTree::Flat`] for
    /// plans without multiplication.
    pub fn build(dag: &QueryDag, plan: &PartialPlan) -> SpaceTree {
        let region: BTreeSet<NodeId> = plan.ops.iter().copied().collect();
        build_region(dag, &region, plan.root, true, plan)
    }

    /// All matrix multiplications in the tree, outermost first.
    pub fn matmuls(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_matmuls(&mut out);
        out
    }

    fn collect_matmuls(&self, out: &mut Vec<NodeId>) {
        if let SpaceTree::Mm { mm, l, r, o } = self {
            out.push(*mm);
            l.collect_matmuls(out);
            r.collect_matmuls(out);
            o.collect_matmuls(out);
        }
    }

    /// The outermost multiplication (the plan's main `v_mm`), if any.
    pub fn main_matmul(&self) -> Option<NodeId> {
        match self {
            SpaceTree::Mm { mm, .. } => Some(*mm),
            SpaceTree::Flat { .. } => None,
        }
    }

    /// Visits every region with its space-derived `divisor` and
    /// `replication` factors under cuboid parameters `(p, q, r)`. The flat
    /// visitor receives `(ops, ext_inputs, holds_output, divisor,
    /// replication, o_side)`, where `o_side` marks regions downstream of
    /// the *main* multiplication (their computation is gated by the plan
    /// output's sparsity); for [`SpaceTree::Mm`] regions the centre `mm`
    /// node itself is reported through `on_mm(mm, replication)`.
    ///
    /// Top-level call: `divisor = p*q*r` conceptually belongs to `MM`-space,
    /// but only the subspaces hold materialized data, so the walk starts by
    /// descending into them with the factors given in the module docs.
    pub fn walk<FR, FM>(&self, p: usize, q: usize, r: usize, on_flat: &mut FR, on_mm: &mut FM)
    where
        FR: FnMut(&[NodeId], &[NodeId], bool, u64, u64, bool),
        FM: FnMut(NodeId, u64),
    {
        self.walk_inner(p as u64, q as u64, r as u64, 1, false, on_flat, on_mm);
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_inner<FR, FM>(
        &self,
        p: u64,
        q: u64,
        r: u64,
        repl: u64,
        o_side: bool,
        on_flat: &mut FR,
        on_mm: &mut FM,
    ) where
        FR: FnMut(&[NodeId], &[NodeId], bool, u64, u64, bool),
        FM: FnMut(NodeId, u64),
    {
        match self {
            SpaceTree::Flat {
                ops,
                ext_inputs,
                holds_output,
            } => {
                let divisor = (p * q * r).max(1);
                on_flat(ops, ext_inputs, *holds_output, divisor, repl, o_side);
            }
            SpaceTree::Mm { mm, l, r: rr, o } => {
                on_mm(*mm, repl);
                // L-space: local params (P,1,R), replicated Q more times.
                l.walk_inner(p, 1, r, repl * q.max(1), false, on_flat, on_mm);
                // R-space: local params (1,Q,R), replicated P more times.
                rr.walk_inner(1, q, r, repl * p.max(1), false, on_flat, on_mm);
                // O-space: local params (P,Q,1), replicated R more times.
                o.walk_inner(p, q, 1, repl * r.max(1), true, on_flat, on_mm);
            }
        }
    }
}

/// Structural axis code of every external input of the tree: the path of
/// the region holding the input within the model space, independent of the
/// `(P,Q,R)` values. The root region has code 1; descending into an
/// [`SpaceTree::Mm`] region's `L`/`R`/`O` subspace maps a code `c` to
/// `4c+1` / `4c+2` / `4c+3`. Two plans that place an input at the same
/// structural position (and therefore partition-and-replicate it the same
/// way at equal `(P,Q,R)`) produce the same code — the property the
/// iteration-aware replica cache keys on.
pub fn input_axes(tree: &SpaceTree) -> Vec<(NodeId, u64)> {
    let mut out = Vec::new();
    collect_axes(tree, 1, &mut out);
    out
}

fn collect_axes(tree: &SpaceTree, code: u64, out: &mut Vec<(NodeId, u64)>) {
    match tree {
        SpaceTree::Flat { ext_inputs, .. } => {
            for &v in ext_inputs {
                out.push((v, code));
            }
        }
        SpaceTree::Mm { l, r, o, .. } => {
            collect_axes(l, code * 4 + 1, out);
            collect_axes(r, code * 4 + 2, out);
            collect_axes(o, code * 4 + 3, out);
        }
    }
}

/// Recursively decomposes `region` (a subset of the plan's operators) with
/// output node `root`. `holds_output` marks the region chain that ends at
/// the plan's materialized output.
fn build_region(
    dag: &QueryDag,
    region: &BTreeSet<NodeId>,
    root: NodeId,
    holds_output: bool,
    plan: &PartialPlan,
) -> SpaceTree {
    // Pick the region's centre multiplication. At the top level this is the
    // plan's *main* matmul — the largest `I·J·K` (Algorithm 3, line 3;
    // Fig. 11 anchors F1 on v1 even though v4 is downstream). Nested regions
    // anchor on their *topmost* matmul (no member matmul downstream of it),
    // so structure follows dataflow: in Fig. 11 the O-space of v1 centres on
    // v4, with v2 falling into v4's L-space.
    let matmuls: Vec<NodeId> = region
        .iter()
        .copied()
        .filter(|&id| dag.node(id).kind.is_matmul())
        .collect();
    if matmuls.is_empty() {
        return flat(dag, region, holds_output, plan);
    }
    let main = plan.main_matmul(dag);
    let centre = match main {
        Some(m) if region.contains(&m) => m,
        _ => {
            let topmost: Vec<NodeId> = matmuls
                .iter()
                .copied()
                .filter(|&m| {
                    // No other matmul in the region is reachable from m via
                    // consumer edges inside the region.
                    !matmuls
                        .iter()
                        .any(|&other| other != m && reaches_via_consumers(dag, region, m, other))
                })
                .collect();
            topmost
                .into_iter()
                .max_by_key(|&m| (crate::plan::voxels(dag, m), std::cmp::Reverse(m)))
                .expect("non-empty matmul set has a topmost element")
        }
    };

    let node = dag.node(centre);
    let left_region = upstream_within(dag, region, node.inputs[0]);
    let right_region: BTreeSet<NodeId> = upstream_within(dag, region, node.inputs[1])
        .difference(&left_region)
        .copied()
        .collect();
    let o_region: BTreeSet<NodeId> = region
        .iter()
        .copied()
        .filter(|id| *id != centre && !left_region.contains(id) && !right_region.contains(id))
        .collect();

    // Pass-through subspaces: a side with no in-region operators still needs
    // its external input represented (e.g. plain U feeding the matmul).
    let l = if left_region.is_empty() {
        Box::new(passthrough(node.inputs[0], plan))
    } else {
        Box::new(build_region(dag, &left_region, node.inputs[0], false, plan))
    };
    let r = if right_region.is_empty() {
        Box::new(passthrough(node.inputs[1], plan))
    } else {
        Box::new(build_region(
            dag,
            &right_region,
            node.inputs[1],
            false,
            plan,
        ))
    };
    let o = if o_region.is_empty() {
        // The matmul is the region root: output materializes straight from
        // MM-space. Model as an empty O-space region holding the output.
        Box::new(SpaceTree::Flat {
            ops: Vec::new(),
            ext_inputs: Vec::new(),
            holds_output,
        })
    } else {
        debug_assert!(o_region.contains(&root));
        Box::new(build_region(dag, &o_region, root, holds_output, plan))
    };
    SpaceTree::Mm {
        mm: centre,
        l,
        r,
        o,
    }
}

/// A flat region for the given member operators.
fn flat(
    dag: &QueryDag,
    region: &BTreeSet<NodeId>,
    holds_output: bool,
    plan: &PartialPlan,
) -> SpaceTree {
    let mut ext = BTreeSet::new();
    for &id in region {
        for &input in &dag.node(id).inputs {
            if !plan.ops.contains(&input) {
                ext.insert(input);
            }
        }
    }
    SpaceTree::Flat {
        ops: region.iter().copied().collect(),
        ext_inputs: ext.into_iter().collect(),
        holds_output,
    }
}

/// A pass-through region: no member operators. When the side is fed by a
/// plan member (e.g. the output of the main MM-space flowing into a nested
/// multiplication), nothing is materialized and the region is empty;
/// otherwise it carries the single external input.
fn passthrough(input: NodeId, plan: &PartialPlan) -> SpaceTree {
    let ext_inputs = if plan.ops.contains(&input) {
        Vec::new()
    } else {
        vec![input]
    };
    SpaceTree::Flat {
        ops: Vec::new(),
        ext_inputs,
        holds_output: false,
    }
}

/// Member operators upstream of (and including) `from`, staying inside the
/// region.
fn upstream_within(dag: &QueryDag, region: &BTreeSet<NodeId>, from: NodeId) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(id) = stack.pop() {
        if !region.contains(&id) || !out.insert(id) {
            continue;
        }
        for &input in &dag.node(id).inputs {
            stack.push(input);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{BinOp, MatrixMeta, UnaryOp};
    use fuseme_plan::DagBuilder;

    /// O = X * log(U × Vᵀ + eps): MM-space U×Vᵀ, L pass-through U, R holds
    /// the transpose, O holds {+, log, *} with external input X.
    fn nmf_query() -> (QueryDag, PartialPlan) {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(30, 30, 10, 0.1));
        let u = b.input("U", MatrixMeta::dense(30, 20, 10));
        let v = b.input("V", MatrixMeta::dense(30, 20, 10));
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

    #[test]
    fn nmf_decomposition_shape() {
        let (dag, plan) = nmf_query();
        let tree = SpaceTree::build(&dag, &plan);
        let SpaceTree::Mm { mm, l, r, o } = &tree else {
            panic!("expected Mm root, got {tree:?}");
        };
        assert_eq!(*mm, plan.matmuls(&dag)[0]);
        // L-space: pass-through U.
        let SpaceTree::Flat {
            ops, ext_inputs, ..
        } = l.as_ref()
        else {
            panic!("L must be flat");
        };
        assert!(ops.is_empty());
        assert_eq!(ext_inputs.len(), 1);
        // R-space: the transpose with external input V.
        let SpaceTree::Flat {
            ops, ext_inputs, ..
        } = r.as_ref()
        else {
            panic!("R must be flat");
        };
        assert_eq!(ops.len(), 1);
        assert_eq!(ext_inputs.len(), 1);
        // O-space: {add, log, mul} with external inputs {X, eps}.
        let SpaceTree::Flat {
            ops,
            ext_inputs,
            holds_output,
        } = o.as_ref()
        else {
            panic!("O must be flat");
        };
        assert_eq!(ops.len(), 3);
        assert_eq!(ext_inputs.len(), 2);
        assert!(holds_output);
    }

    #[test]
    fn walk_factors_match_paper_table1() {
        // For the NMF query the consolidation multipliers must be
        // L-ext × Q, R-ext × P, O-ext × R (Table 1's Q·|U| + P·|V| + R·|X|).
        let (dag, plan) = nmf_query();
        let tree = SpaceTree::build(&dag, &plan);
        let (p, q, r) = (4, 3, 2);
        let mut seen = Vec::new();
        tree.walk(
            p,
            q,
            r,
            &mut |_ops, ext, _out, _div, repl, _o| {
                for &e in ext {
                    seen.push((e, repl));
                }
            },
            &mut |_mm, _repl| {},
        );
        // Three flat regions, in L, R, O order.
        let repls: Vec<u64> = seen.iter().map(|&(_, r)| r).collect();
        assert!(repls.contains(&(q as u64)), "L input replicated Q times");
        assert!(repls.contains(&(p as u64)), "R input replicated P times");
        assert!(
            repls.iter().filter(|&&x| x == r as u64).count() >= 1,
            "O inputs replicated R times"
        );
    }

    #[test]
    fn walk_divisors_match_eq3() {
        let (dag, plan) = nmf_query();
        let tree = SpaceTree::build(&dag, &plan);
        let (p, q, r) = (4, 3, 2);
        let mut divisors = Vec::new();
        tree.walk(
            p,
            q,
            r,
            &mut |_ops, _ext, _out, div, _repl, _o| divisors.push(div),
            &mut |_mm, _repl| {},
        );
        // L: P·R = 8, R: Q·R = 6, O: P·Q = 12.
        assert_eq!(divisors, vec![8, 6, 12]);
    }

    /// A GNMF-F1-like plan with nested matmuls (the paper's Fig. 11): the
    /// main matmul's O-space itself contains a matmul chain v2 → v4.
    fn nested_plan() -> (QueryDag, PartialPlan, [NodeId; 3]) {
        let mut b = DagBuilder::new();
        // Shapes chosen so everything composes:
        // v1 = A (10x40) × X (40x40)      → 10x40   (main, most voxels)
        // v2 = A (10x40) × B (40x10)      → 10x10   (nested, in O via v4)
        // v4 = v2 (10x10) × v1 (10x40)    → 10x40
        // out = v4 / v1   … but v1 would then have fanout 2 (fine: v1 is
        // inside the plan; both consumers inside too).
        let a = b.input("A", MatrixMeta::dense(10, 40, 10));
        let x = b.input("X", MatrixMeta::sparse(40, 40, 10, 0.05));
        let bb = b.input("B", MatrixMeta::dense(40, 10, 10));
        let v1 = b.matmul(a, x);
        let v2 = b.matmul(a, bb);
        let v4 = b.matmul(v2, v1);
        let out = b.binary(v4, v1, BinOp::Div);
        let dag = b.finish(vec![out]);
        let ops = BTreeSet::from([v1.id(), v2.id(), v4.id(), out.id()]);
        let plan = PartialPlan::new(ops, out.id());
        (dag, plan, [v1.id(), v2.id(), v4.id()])
    }

    #[test]
    fn nested_matmuls_recurse() {
        let (dag, plan, [v1, v2, v4]) = nested_plan();
        let tree = SpaceTree::build(&dag, &plan);
        let mms = tree.matmuls();
        assert_eq!(mms.len(), 3);
        // v1 feeds v4 and v2 feeds v4, so only v4's path to the root is
        // multiplication-free: v4 anchors the top level, with v2 and v1
        // nesting inside its L- and R-spaces.
        assert_eq!(tree.main_matmul(), Some(v4));
        assert!(mms.contains(&v1) && mms.contains(&v2));
        let SpaceTree::Mm { l, r, .. } = &tree else {
            panic!()
        };
        assert_eq!(l.main_matmul(), Some(v2));
        assert_eq!(r.main_matmul(), Some(v1));
    }

    #[test]
    fn replication_compounds_multiplicatively() {
        let (dag, plan, _) = nested_plan();
        let tree = SpaceTree::build(&dag, &plan);
        let mut max_repl = 0u64;
        tree.walk(
            2,
            3,
            2,
            &mut |_o2, _e, _h, _d, repl, _os| max_repl = max_repl.max(repl),
            &mut |_m, _r| {},
        );
        // Nested regions must see replication > any single factor.
        assert!(max_repl >= 4, "nested replication {max_repl}");
    }

    #[test]
    fn input_axes_are_stable_and_distinct() {
        let (dag, plan) = nmf_query();
        let tree = SpaceTree::build(&dag, &plan);
        let axes = input_axes(&tree);
        // Four external inputs: U (L), V (R), X and eps (O).
        assert_eq!(axes.len(), 4);
        let code_of = |name: &str| {
            let id = dag
                .nodes()
                .iter()
                .find(|n| matches!(&n.kind, fuseme_plan::OpKind::Input { name: nm } if nm == name))
                .map(|n| n.id)
                .unwrap();
            axes.iter()
                .find(|&&(v, _)| v == id)
                .map(|&(_, c)| c)
                .unwrap()
        };
        // L/R/O of the root (code 1) are 5, 6, 7.
        assert_eq!(code_of("U"), 5);
        assert_eq!(code_of("V"), 6);
        assert_eq!(code_of("X"), 7);
        // Rebuilding the same plan yields identical codes.
        assert_eq!(axes, input_axes(&SpaceTree::build(&dag, &plan)));
        // A nested tree assigns deeper (distinct) codes.
        let (ndag, nplan, _) = nested_plan();
        let ntree = SpaceTree::build(&ndag, &nplan);
        let ncodes: Vec<u64> = input_axes(&ntree).iter().map(|&(_, c)| c).collect();
        assert!(
            ncodes.iter().any(|&c| c > 7),
            "nested codes go deeper: {ncodes:?}"
        );
    }

    #[test]
    fn plan_without_matmul_is_flat() {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::dense(20, 20, 10));
        let u = b.input("U", MatrixMeta::dense(20, 20, 10));
        let m = b.binary(x, u, BinOp::Mul);
        let s = b.unary(m, UnaryOp::Sqrt);
        let dag = b.finish(vec![s]);
        let plan = PartialPlan::new(BTreeSet::from([m.id(), s.id()]), s.id());
        let tree = SpaceTree::build(&dag, &plan);
        assert!(matches!(tree, SpaceTree::Flat { .. }));
        assert!(tree.main_matmul().is_none());
    }
}
