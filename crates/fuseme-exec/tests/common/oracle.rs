//! The reference kernel: the plan interpreted recursively per block, and
//! the task bodies built on it. Block programs must reproduce it bit for
//! bit.
//!
//! [`KernelCtx::eval`] computes a plan node at a block coordinate with
//! [`Block`]'s own operators, memoizing every value per task;
//! [`KernelCtx::has_support`] decides whether an output block can be
//! non-zero at all, probing the store through the zero-propagation rules.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use fuseme_exec::fused_op::{Layout, TaskOut, TaskSlice};
use fuseme_exec::LocalStore;
use fuseme_fusion::plan::PartialPlan;
use fuseme_matrix::{AggOp, Block, DenseBlock};
use fuseme_plan::{NodeId, OpKind, QueryDag};
use fuseme_sim::SimError;

/// Evaluation context for one task's kernels.
pub struct KernelCtx<'a> {
    dag: &'a QueryDag,
    /// Operators belonging to the fused plan (kernel recursion stays inside;
    /// everything else must come from the store).
    ops: &'a BTreeSet<NodeId>,
    /// The plan's main matrix multiplication, if any.
    main_mm: Option<NodeId>,
    /// The task's k-slice for the main multiplication (block indices).
    k_range: Range<usize>,
    store: &'a LocalStore,
    memo: HashMap<(NodeId, usize, usize), Arc<Block>>,
}

impl<'a> KernelCtx<'a> {
    /// Creates a context over the task's k-slice of the main
    /// multiplication.
    pub fn new(
        dag: &'a QueryDag,
        ops: &'a BTreeSet<NodeId>,
        main_mm: Option<NodeId>,
        k_range: Range<usize>,
        store: &'a LocalStore,
    ) -> Self {
        KernelCtx {
            dag,
            ops,
            main_mm,
            k_range,
            store,
            memo: HashMap::new(),
        }
    }

    fn block_dims(&self, node: NodeId, bi: usize, bj: usize) -> (usize, usize) {
        self.dag.node(node).meta.block_dims(bi, bj)
    }

    /// Evaluates plan node `node` at block coordinate `(bi, bj)`; absent
    /// inputs read as zero blocks.
    pub fn eval(&mut self, node: NodeId, bi: usize, bj: usize) -> Result<Arc<Block>, SimError> {
        if let Some(hit) = self.memo.get(&(node, bi, bj)) {
            return Ok(Arc::clone(hit));
        }
        let value = self.eval_uncached(node, bi, bj)?;
        self.memo.insert((node, bi, bj), Arc::clone(&value));
        Ok(value)
    }

    fn fetch_external(&self, node: NodeId, bi: usize, bj: usize) -> Arc<Block> {
        match self.store.get(node, (bi, bj)) {
            Some(b) => Arc::clone(b),
            None => {
                let (r, c) = self.block_dims(node, bi, bj);
                Arc::new(Block::zero(r, c))
            }
        }
    }

    fn eval_uncached(
        &mut self,
        node: NodeId,
        bi: usize,
        bj: usize,
    ) -> Result<Arc<Block>, SimError> {
        if !self.ops.contains(&node) {
            return Ok(self.fetch_external(node, bi, bj));
        }
        let n = self.dag.node(node);
        let value: Block = match &n.kind {
            OpKind::Input { .. } | OpKind::Scalar(_) => {
                unreachable!("leaves are never plan members")
            }
            OpKind::Unary(op) => {
                let x = self.eval(n.inputs[0], bi, bj)?;
                x.map(*op)
            }
            OpKind::Binary(op) => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                match (self.scalar_of(l_id), self.scalar_of(r_id)) {
                    (Some(s), None) => {
                        let x = self.eval(r_id, bi, bj)?;
                        x.scalar_zip(s, *op)
                    }
                    (None, Some(s)) => {
                        let x = self.eval(l_id, bi, bj)?;
                        x.zip_scalar(s, *op)
                    }
                    (None, None) => {
                        let l = self.eval(l_id, bi, bj)?;
                        let r = self.eval(r_id, bi, bj)?;
                        l.zip(&r, *op)?
                    }
                    (Some(_), Some(_)) => {
                        return Err(SimError::Task(
                            "binary over two scalars inside a kernel".into(),
                        ))
                    }
                }
            }
            OpKind::Transpose => {
                let x = self.eval(n.inputs[0], bj, bi)?;
                x.transpose()
            }
            OpKind::MatMul => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                let ks = self.mm_k_range(node);
                let (rows, cols) = self.block_dims(node, bi, bj);
                let mut acc = DenseBlock::zeros(rows, cols);
                let mut any = false;
                for k in ks {
                    if !self.has_support(l_id, bi, k) || !self.has_support(r_id, k, bj) {
                        continue;
                    }
                    let (l, r) = (self.eval(l_id, bi, k)?, self.eval(r_id, k, bj)?);
                    l.gemm_acc(&r, &mut acc)?;
                    any = true;
                }
                if any {
                    Block::Dense(acc).compact()
                } else {
                    Block::zero(rows, cols)
                }
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
                return Err(SimError::Task(
                    "aggregation nodes are folded by the operator driver, not eval()".into(),
                ))
            }
        };
        Ok(Arc::new(value))
    }

    fn mm_k_range(&self, mm: NodeId) -> Range<usize> {
        if Some(mm) == self.main_mm {
            self.k_range.clone()
        } else {
            let left = self.dag.node(self.dag.node(mm).inputs[0]).meta;
            0..left.grid().block_cols
        }
    }

    fn scalar_of(&self, node: NodeId) -> Option<f64> {
        match self.dag.node(node).kind {
            OpKind::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// `true` if the value of `node` at `(bi, bj)` can have non-zeros:
    /// `true` unless provably all-zero from absent input blocks and
    /// zero-propagation rules.
    pub fn has_support(&self, node: NodeId, bi: usize, bj: usize) -> bool {
        if !self.ops.contains(&node) {
            return self.store.get(node, (bi, bj)).is_some();
        }
        let n = self.dag.node(node);
        match &n.kind {
            OpKind::Input { .. } | OpKind::Scalar(_) => unreachable!("leaves not members"),
            OpKind::Unary(op) => {
                if op.preserves_zero() {
                    self.has_support(n.inputs[0], bi, bj)
                } else {
                    true
                }
            }
            OpKind::Binary(op) => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                match (self.scalar_of(l_id), self.scalar_of(r_id)) {
                    (Some(s), None) => op.apply(s, 0.0) != 0.0 || self.has_support(r_id, bi, bj),
                    (None, Some(s)) => op.apply(0.0, s) != 0.0 || self.has_support(l_id, bi, bj),
                    (None, None) => {
                        let l = self.has_support(l_id, bi, bj);
                        let r = self.has_support(r_id, bi, bj);
                        if op.zero_dominant() {
                            l && r
                        } else {
                            l || r
                        }
                    }
                    (Some(_), Some(_)) => true,
                }
            }
            OpKind::Transpose => self.has_support(n.inputs[0], bj, bi),
            OpKind::MatMul => {
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                self.mm_k_range(node)
                    .any(|k| self.has_support(l_id, bi, k) && self.has_support(r_id, k, bj))
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => true,
        }
    }
}

/// The plan's aggregation root, if any, and the node the tasks compute.
fn target(dag: &QueryDag, plan: &PartialPlan) -> (Option<(AggOp, u8)>, NodeId) {
    let root = dag.node(plan.root);
    match &root.kind {
        OpKind::FullAgg(op) => (Some((*op, 0)), root.inputs[0]),
        OpKind::RowAgg(op) => (Some((*op, 1)), root.inputs[0]),
        OpKind::ColAgg(op) => (Some((*op, 2)), root.inputs[0]),
        _ => (None, plan.root),
    }
}

/// A stage-1 task, interpreted.
pub fn stage1(
    dag: &QueryDag,
    plan: &PartialPlan,
    layout: &Layout,
    task: &TaskSlice,
    store: &LocalStore,
) -> Result<TaskOut, SimError> {
    let (agg, compute_node) = target(dag, plan);
    let mut ctx = KernelCtx::new(dag, &plan.ops, layout.main_mm, task.k_range.clone(), store);
    if layout.r <= 1 {
        return full_kernels(&mut ctx, dag, plan, compute_node, &task.out, agg);
    }
    let mm = layout
        .main_mm
        .expect("two-stage layouts have a multiplication");
    let mut wanted: Vec<(usize, usize)> = task
        .out
        .coords()
        .filter(|&(bi, bj)| ctx.has_support(compute_node, bi, bj))
        .map(|(bi, bj)| if layout.parity { (bj, bi) } else { (bi, bj) })
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut out = Vec::new();
    for (bi, bj) in wanted {
        if ctx.has_support(mm, bi, bj) {
            out.push(((bi, bj), ctx.eval(mm, bi, bj)?));
        }
    }
    Ok(out)
}

/// The operators stage 2 runs: the plan without its main multiplication,
/// whose aggregated blocks the reducer's store holds.
pub fn stage2_ops(plan: &PartialPlan, mm: NodeId) -> BTreeSet<NodeId> {
    let mut ops = plan.ops.clone();
    ops.remove(&mm);
    ops
}

/// A stage-2 reducer, interpreted over a store that holds the group's
/// aggregated product as the main multiplication's node.
pub fn stage2(
    dag: &QueryDag,
    plan: &PartialPlan,
    layout: &Layout,
    task: &TaskSlice,
    store: &LocalStore,
) -> Result<TaskOut, SimError> {
    let (agg, compute_node) = target(dag, plan);
    let mm = layout
        .main_mm
        .expect("two-stage layouts have a multiplication");
    let ops = stage2_ops(plan, mm);
    let mut ctx = KernelCtx::new(dag, &ops, layout.main_mm, 0..0, store);
    full_kernels(&mut ctx, dag, plan, compute_node, &task.out, agg)
}

fn full_kernels(
    ctx: &mut KernelCtx<'_>,
    dag: &QueryDag,
    plan: &PartialPlan,
    compute_node: NodeId,
    tile: &fuseme_exec::kernel::Footprint,
    agg: Option<(AggOp, u8)>,
) -> Result<TaskOut, SimError> {
    let Some((op, shape)) = agg else {
        let mut out = Vec::new();
        for (bi, bj) in tile.coords() {
            if ctx.has_support(compute_node, bi, bj) {
                let b = ctx.eval(compute_node, bi, bj)?;
                if b.nnz() > 0 {
                    out.push(((bi, bj), b));
                }
            }
        }
        return Ok(out);
    };
    let meta = dag.node(compute_node).meta;
    let root_meta = dag.node(plan.root).meta;
    let mut partials: HashMap<(usize, usize), DenseBlock> = HashMap::new();
    let combine = |acc: &mut DenseBlock, part: &DenseBlock| {
        for (a, &p) in acc.data_mut().iter_mut().zip(part.data()) {
            *a = op.combine(*a, p);
        }
    };
    for (bi, bj) in tile.coords() {
        let value = if ctx.has_support(compute_node, bi, bj) {
            ctx.eval(compute_node, bi, bj)?
        } else {
            let (r, c) = meta.block_dims(bi, bj);
            Arc::new(Block::zero(r, c))
        };
        match shape {
            0 => {
                let v = value.agg(op);
                let slot = partials
                    .entry((0, 0))
                    .or_insert_with(|| DenseBlock::filled(1, 1, op.identity()));
                let cur = slot.get(0, 0);
                slot.set(0, 0, op.combine(cur, v));
            }
            1 => {
                let part = value.row_agg(op);
                let slot = partials.entry((bi, 0)).or_insert_with(|| {
                    let (r, _) = root_meta.block_dims(bi, 0);
                    DenseBlock::filled(r, 1, op.identity())
                });
                combine(slot, &part);
            }
            _ => {
                let part = value.col_agg(op);
                let slot = partials.entry((0, bj)).or_insert_with(|| {
                    let (_, c) = root_meta.block_dims(0, bj);
                    DenseBlock::filled(1, c, op.identity())
                });
                combine(slot, &part);
            }
        }
    }
    let mut out: Vec<_> = partials
        .into_iter()
        .map(|(coord, b)| (coord, Arc::new(Block::Dense(b))))
        .collect();
    out.sort_by_key(|(c, _)| *c);
    Ok(out)
}

/// `true` when two blocks have the same format, shape, pattern and value
/// bits (so `-0.0 ≠ 0.0` and NaN payloads count).
pub fn same_bits(a: &Block, b: &Block) -> bool {
    if (a.rows(), a.cols(), a.is_sparse()) != (b.rows(), b.cols(), b.is_sparse()) {
        return false;
    }
    match (a, b) {
        (Block::Dense(x), Block::Dense(y)) => x
            .data()
            .iter()
            .zip(y.data())
            .all(|(p, q)| p.to_bits() == q.to_bits()),
        (Block::Sparse(x), Block::Sparse(y)) => (0..x.rows()).all(|r| {
            let ((xc, xv), (yc, yv)) = (x.row_entries(r), y.row_entries(r));
            xc == yc && xv.iter().zip(yv).all(|(p, q)| p.to_bits() == q.to_bits())
        }),
        _ => false,
    }
}

/// Why two task outputs differ, if they do.
pub fn diff(got: &TaskOut, want: &TaskOut) -> Option<String> {
    let coords = |v: &TaskOut| v.iter().map(|(c, _)| *c).collect::<Vec<_>>();
    if coords(got) != coords(want) {
        return Some(format!(
            "blocks at {:?}, want {:?}",
            coords(got),
            coords(want)
        ));
    }
    got.iter()
        .zip(want)
        .find(|((_, a), (_, b))| !same_bits(a, b))
        .map(|((c, a), (_, b))| format!("block {c:?}: {a:?} vs {b:?}"))
}
