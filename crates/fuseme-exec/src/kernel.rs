//! The fused-kernel interpreter and its routing mirror.
//!
//! A *kernel* (paper Fig. 8) is the fused computation of one output block:
//! it pulls the input blocks it touches from the task's local store and
//! evaluates the plan's operator DAG at block granularity, materializing
//! only per-block scratch. Two entry points recurse per block:
//!
//! * [`KernelCtx::eval`] — compute the value of a plan node at a block
//!   coordinate;
//! * [`KernelCtx::has_support`] — decide whether an output block can be
//!   non-zero at all; empty-gated blocks are skipped entirely, which is the
//!   block-level form of the paper's sparsity exploitation.
//!
//! Routing does not recurse per block. [`footprints`] applies the same
//! access rules — element-wise operators read their own coordinates, a
//! transpose swaps them, a multiplication reads its row band of the left
//! input and column band of the right over its k-slice — once per plan
//! node to a whole task's output tile, and yields each input's needed
//! blocks as a few row × column products or exact lists. It is deliberately
//! *not* sparsity-pruned: consolidation ships whole cuboid slices, matching
//! the paper's partition-granular communication.
//!
//! The main matrix multiplication sums over the task's `k`-slice only; with
//! `R > 1` that produces a *partial* result which the aggregation stage
//! combines before the `O`-space operators run (see `fused_op`). Nested
//! multiplications always see their full common dimension locally — their
//! subspaces are confined, so the needed blocks were all routed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use fuseme_matrix::{Block, DenseBlock};
use fuseme_plan::{NodeId, OpKind, QueryDag};
use fuseme_sim::SimError;

/// A task's local collection of input blocks, keyed by the plan node that
/// produced them (input leaf or materialized intermediate) and grid
/// coordinate.
#[derive(Debug, Default, Clone)]
pub struct LocalStore {
    blocks: HashMap<(NodeId, (usize, usize)), Arc<Block>>,
    /// Bytes held per node, kept current by [`LocalStore::insert`].
    node_bytes: BTreeMap<NodeId, u64>,
}

impl LocalStore {
    /// An empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// Installs a block for `(node, coord)`, replacing any block already
    /// there.
    pub fn insert(&mut self, node: NodeId, coord: (usize, usize), block: Arc<Block>) {
        let added = block.size_bytes();
        let replaced = self
            .blocks
            .insert((node, coord), block)
            .map_or(0, |old| old.size_bytes());
        let total = self.node_bytes.entry(node).or_default();
        *total = *total - replaced + added;
    }

    /// The block at `(node, coord)`, if present (absent = all-zero).
    pub fn get(&self, node: NodeId, coord: (usize, usize)) -> Option<&Arc<Block>> {
        self.blocks.get(&(node, coord))
    }

    /// Every `(node, coord)` held, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = (NodeId, (usize, usize))> + '_ {
        self.blocks.keys().copied()
    }

    /// Total bytes held (= what consolidation shipped to this task).
    pub fn total_bytes(&self) -> u64 {
        self.node_bytes.values().sum()
    }

    /// Bytes held for one input node (= that input's share of the task's
    /// consolidation traffic; what a replica-cache hit avoids re-shipping).
    pub fn node_bytes(&self, node: NodeId) -> u64 {
        self.node_bytes.get(&node).copied().unwrap_or(0)
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when no blocks are held.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

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
    /// Stage-2 override: fully aggregated main-multiplication blocks.
    mm_override: Option<&'a HashMap<(usize, usize), Arc<Block>>>,
    memo: HashMap<(NodeId, usize, usize), Arc<Block>>,
}

impl<'a> KernelCtx<'a> {
    /// Creates a context. `k_range` is the slice of block indices of the
    /// main multiplication's common dimension assigned to this task (pass
    /// the full range when `R = 1` or there is no multiplication).
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
            mm_override: None,
            memo: HashMap::new(),
        }
    }

    /// Installs aggregated main-multiplication results (stage 2): `eval` on
    /// the main multiplication reads these instead of recomputing.
    pub fn with_mm_override(mut self, values: &'a HashMap<(usize, usize), Arc<Block>>) -> Self {
        self.mm_override = Some(values);
        self
    }

    fn block_dims(&self, node: NodeId, bi: usize, bj: usize) -> (usize, usize) {
        self.dag.node(node).meta.block_dims(bi, bj)
    }

    /// Evaluates plan node `node` at block coordinate `(bi, bj)`.
    ///
    /// Returns the block value; absent sparse inputs read as zero blocks.
    /// Results are memoized per task, so diamond-shaped plans (a node
    /// consumed twice inside the fusion) compute once — the paper's Row
    /// template "scan X once, use twice" falls out of this.
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
        // Values produced outside the plan come from the local store.
        if !self.ops.contains(&node) {
            return Ok(self.fetch_external(node, bi, bj));
        }
        // Stage-2: the main multiplication's aggregated value is injected.
        if Some(node) == self.main_mm {
            if let Some(vals) = self.mm_override {
                return Ok(match vals.get(&(bi, bj)) {
                    Some(b) => Arc::clone(b),
                    None => {
                        let (r, c) = self.block_dims(node, bi, bj);
                        Arc::new(Block::zero(r, c))
                    }
                });
            }
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
                // Collect the k-terms with support on both sides (absent
                // sparse blocks contribute nothing).
                let mut terms = Vec::new();
                for k in ks {
                    if !self.has_support(l_id, bi, k) || !self.has_support(r_id, k, bj) {
                        continue;
                    }
                    terms.push((self.eval(l_id, bi, k)?, self.eval(r_id, k, bj)?));
                }
                match terms.as_slice() {
                    [] => Block::zero(rows, cols),
                    // A single-term product goes through the format-aware
                    // Gustavson kernel, which can build a sparse output
                    // directly instead of densifying and re-compacting.
                    [(l, r)] => l.gemm_auto(r)?,
                    // Multi-term sums keep the single dense accumulator so
                    // the summation order (and thus bit pattern) matches
                    // the reference path exactly.
                    _ => {
                        let mut acc = DenseBlock::zeros(rows, cols);
                        for (l, r) in &terms {
                            l.gemm_acc(r, &mut acc)?;
                        }
                        Block::Dense(acc).compact()
                    }
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
        mm_k_range(self.dag, self.main_mm, &self.k_range, mm)
    }

    fn scalar_of(&self, node: NodeId) -> Option<f64> {
        scalar_of(self.dag, node)
    }

    /// `true` if the value of `node` at `(bi, bj)` can have non-zeros.
    /// Conservative: `true` unless provably all-zero from absent input
    /// blocks and zero-propagation rules. This powers block-level sparsity
    /// exploitation — kernels for unsupported output blocks never run.
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
                if self.mm_override.is_some() && Some(node) == self.main_mm {
                    return true;
                }
                let (l_id, r_id) = (n.inputs[0], n.inputs[1]);
                self.mm_k_range(node)
                    .any(|k| self.has_support(l_id, bi, k) && self.has_support(r_id, k, bj))
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => true,
        }
    }
}

/// The k-slice a multiplication sums over: the task slice for the main
/// multiplication, the full common dimension for nested ones.
fn mm_k_range(
    dag: &QueryDag,
    main_mm: Option<NodeId>,
    k_range: &Range<usize>,
    mm: NodeId,
) -> Range<usize> {
    if Some(mm) == main_mm {
        k_range.clone()
    } else {
        let left = dag.node(dag.node(mm).inputs[0]).meta;
        0..left.grid().block_cols
    }
}

fn scalar_of(dag: &QueryDag, node: NodeId) -> Option<f64> {
    match dag.node(node).kind {
        OpKind::Scalar(v) => Some(v),
        _ => None,
    }
}

/// A set of block coordinates of one node, kept as a short union of terms
/// rather than enumerated: what a task computes of a node, or needs of an
/// input. Terms may overlap; [`Footprint::coords`] then repeats
/// coordinates.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    terms: Vec<Term>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    /// Exactly these coordinates.
    Blocks(Vec<(usize, usize)>),
    /// Every coordinate of `rows × cols`; both sides sorted, distinct and
    /// non-empty.
    Product(Vec<usize>, Vec<usize>),
}

impl Term {
    /// The distinct rows and columns the term touches.
    fn axes(&self) -> (Vec<usize>, Vec<usize>) {
        match self {
            Term::Blocks(b) => (
                distinct(b.iter().map(|c| c.0)),
                distinct(b.iter().map(|c| c.1)),
            ),
            Term::Product(r, c) => (r.clone(), c.clone()),
        }
    }
}

fn distinct(it: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut v: Vec<usize> = it.collect();
    v.sort_unstable();
    v.dedup();
    v
}

impl Footprint {
    /// Exactly the given coordinates (a striped task's round-robin share).
    pub fn blocks(coords: Vec<(usize, usize)>) -> Self {
        let mut fp = Footprint::default();
        if !coords.is_empty() {
            fp.terms.push(Term::Blocks(coords));
        }
        fp
    }

    /// Every coordinate of `rows × cols` (a cuboid tile).
    pub fn product(rows: Range<usize>, cols: Range<usize>) -> Self {
        Self::product_of(rows.collect(), cols.collect())
    }

    fn product_of(rows: Vec<usize>, cols: Vec<usize>) -> Self {
        let mut fp = Footprint::default();
        if !rows.is_empty() && !cols.is_empty() {
            fp.terms.push(Term::Product(rows, cols));
        }
        fp
    }

    /// Every coordinate, term by term; a product runs row-major.
    pub fn coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.terms.iter().flat_map(|t| {
            let (listed, product): (&[(usize, usize)], _) = match t {
                Term::Blocks(b) => (b, None),
                Term::Product(r, c) => (&[], Some((r, c))),
            };
            listed.iter().copied().chain(
                product
                    .into_iter()
                    .flat_map(|(r, c)| r.iter().flat_map(move |&i| c.iter().map(move |&j| (i, j)))),
            )
        })
    }

    /// Adds `other`'s terms, skipping exact repeats (a diamond in the plan
    /// hands a node the same term along both paths).
    fn union(&mut self, other: Footprint) {
        for t in other.terms {
            if !self.terms.contains(&t) {
                self.terms.push(t);
            }
        }
    }

    fn transposed(&self) -> Footprint {
        let terms = self
            .terms
            .iter()
            .map(|t| match t {
                Term::Blocks(b) => Term::Blocks(b.iter().map(|&(i, j)| (j, i)).collect()),
                Term::Product(r, c) => Term::Product(c.clone(), r.clone()),
            })
            .collect();
        Footprint { terms }
    }

    /// What a multiplication computing `self` over the k-slice `ks` reads:
    /// `rows × ks` of its left input and `ks × cols` of its right, term by
    /// term.
    fn matmul_inputs(&self, ks: &[usize]) -> (Footprint, Footprint) {
        let (mut left, mut right) = (Footprint::default(), Footprint::default());
        for t in &self.terms {
            let (rows, cols) = t.axes();
            left.union(Footprint::product_of(rows, ks.to_vec()));
            right.union(Footprint::product_of(ks.to_vec(), cols));
        }
        (left, right)
    }
}

/// The blocks of each external input that a task computing `out` of
/// `compute_node` reads: the closed form of the kernel's access pattern,
/// computed once per plan node instead of per output block.
///
/// Members are visited consumers-first (descending id; ids are
/// topological). Element-wise operators hand their footprint to their
/// non-scalar inputs, a transpose swaps rows and columns, and a
/// multiplication reads `rows × K` of its left input and `K × cols` of its
/// right, where `K` is `k_range` for the main multiplication and the full
/// common dimension for nested ones. Structural, like the paper's cost
/// model: no sparsity pruning, so consolidation ships whole slices.
pub fn footprints(
    dag: &QueryDag,
    ops: &BTreeSet<NodeId>,
    main_mm: Option<NodeId>,
    k_range: Range<usize>,
    compute_node: NodeId,
    out: Footprint,
) -> BTreeMap<NodeId, Footprint> {
    let mut fps: BTreeMap<NodeId, Footprint> = BTreeMap::new();
    fps.insert(compute_node, out);
    for &node in ops.iter().rev() {
        let Some(fp) = fps.remove(&node) else {
            continue;
        };
        let n = dag.node(node);
        let mut feed = |input: NodeId, f: Footprint| {
            if scalar_of(dag, input).is_none() {
                fps.entry(input).or_default().union(f);
            }
        };
        match &n.kind {
            OpKind::Input { .. } | OpKind::Scalar(_) => unreachable!("leaves not members"),
            OpKind::Unary(_) | OpKind::Binary(_) => {
                for &input in &n.inputs {
                    feed(input, fp.clone());
                }
            }
            OpKind::Transpose => feed(n.inputs[0], fp.transposed()),
            OpKind::MatMul => {
                let ks: Vec<usize> = mm_k_range(dag, main_mm, &k_range, node).collect();
                let (left, right) = fp.matmul_inputs(&ks);
                feed(n.inputs[0], left);
                feed(n.inputs[1], right);
            }
            OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
                unreachable!("aggregation roots expand over their input grid in the driver")
            }
        }
    }
    fps
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{gen, BinOp, BlockedMatrix, UnaryOp};
    use fuseme_plan::DagBuilder;

    /// Builds the NMF query O = X * log(U×Vᵀ + eps) with all blocks of all
    /// inputs in the store, and returns (dag, ops, root, main_mm, store,
    /// reference output).
    fn setup() -> (
        QueryDag,
        BTreeSet<NodeId>,
        NodeId,
        NodeId,
        LocalStore,
        BlockedMatrix,
    ) {
        let bs = 5;
        let x = gen::sparse_uniform(20, 20, bs, 0.3, 1.0, 2.0, 1).unwrap();
        let u = gen::dense_uniform(20, 10, bs, 0.1, 1.0, 2).unwrap();
        let v = gen::dense_uniform(20, 10, bs, 0.1, 1.0, 3).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let vt = b.transpose(ve);
        let mm = b.matmul(ue, vt);
        let eps = b.scalar(0.5);
        let add = b.binary(mm, eps, BinOp::Add);
        let lg = b.unary(add, UnaryOp::Log);
        let out = b.binary(xe, lg, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let ops = BTreeSet::from([vt.id(), mm.id(), add.id(), lg.id(), out.id()]);

        let mut store = LocalStore::new();
        for (m, id) in [(&x, xe.id()), (&u, ue.id()), (&v, ve.id())] {
            for (bi, bj, blk) in m.iter_blocks() {
                store.insert(id, (bi, bj), Arc::clone(blk));
            }
        }
        let expected = {
            let uvt = u.matmul(&v.transpose().unwrap()).unwrap();
            let lg = uvt
                .zip_scalar(0.5, BinOp::Add)
                .unwrap()
                .map(UnaryOp::Log)
                .unwrap();
            x.zip(&lg, BinOp::Mul).unwrap()
        };
        (dag, ops, out.id(), mm.id(), store, expected)
    }

    #[test]
    fn kernel_matches_reference_per_block() {
        let (dag, ops, root, mm, store, expected) = setup();
        let mut ctx = KernelCtx::new(&dag, &ops, Some(mm), 0..2, &store);
        for bi in 0..4 {
            for bj in 0..4 {
                let got = ctx.eval(root, bi, bj).unwrap();
                let want = expected.block_or_zero(bi, bj);
                let g = got.to_dense();
                let w = want.to_dense();
                for (a, b) in g.data().iter().zip(w.data()) {
                    assert!((a - b).abs() < 1e-9, "block ({bi},{bj})");
                }
            }
        }
    }

    #[test]
    fn support_skips_empty_gated_blocks() {
        let (dag, ops, root, mm, store, _) = setup();
        // Remove all X blocks: every output block loses support.
        let x_id = dag
            .nodes()
            .iter()
            .find(|n| matches!(&n.kind, OpKind::Input { name } if name == "X"))
            .unwrap()
            .id;
        let keys: Vec<_> = (0..4).flat_map(|i| (0..4).map(move |j| (i, j))).collect();
        // Build a store without X at all.
        let mut emptied = LocalStore::new();
        for node in dag.nodes() {
            if let OpKind::Input { .. } = &node.kind {
                if node.id != x_id {
                    for &c in &keys {
                        if let Some(b) = store.get(node.id, c) {
                            emptied.insert(node.id, c, Arc::clone(b));
                        }
                    }
                }
            }
        }
        let ctx = KernelCtx::new(&dag, &ops, Some(mm), 0..2, &emptied);
        for &(bi, bj) in &keys {
            assert!(!ctx.has_support(root, bi, bj));
        }
    }

    #[test]
    fn partial_k_slices_sum_to_full() {
        let (dag, ops, _root, mm, store, _) = setup();
        // Evaluate the matmul on two k-slices; their sum must equal the
        // full-range evaluation.
        let mut full = KernelCtx::new(&dag, &ops, Some(mm), 0..2, &store);
        let mut lo = KernelCtx::new(&dag, &ops, Some(mm), 0..1, &store);
        let mut hi = KernelCtx::new(&dag, &ops, Some(mm), 1..2, &store);
        for bi in 0..4 {
            for bj in 0..4 {
                let f = full.eval(mm, bi, bj).unwrap().to_dense();
                let a = lo.eval(mm, bi, bj).unwrap().to_dense();
                let b = hi.eval(mm, bi, bj).unwrap().to_dense();
                for ((x, y), z) in f.data().iter().zip(a.data()).zip(b.data()) {
                    assert!((x - (y + z)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn mm_override_used_in_stage_two() {
        let (dag, ops, root, mm, store, expected) = setup();
        // Precompute full mm blocks, then hand them to a stage-2 context
        // with an empty k-range: results must still be correct.
        let mut pre = KernelCtx::new(&dag, &ops, Some(mm), 0..2, &store);
        let mut agg: HashMap<(usize, usize), Arc<Block>> = HashMap::new();
        for bi in 0..4 {
            for bj in 0..4 {
                agg.insert((bi, bj), pre.eval(mm, bi, bj).unwrap());
            }
        }
        let mut stage2 = KernelCtx::new(&dag, &ops, Some(mm), 0..0, &store).with_mm_override(&agg);
        for bi in 0..4 {
            for bj in 0..4 {
                let got = stage2.eval(root, bi, bj).unwrap().to_dense();
                let want = expected.block_or_zero(bi, bj).to_dense();
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    /// The `(node, coord)` keys a task computing `out` of `root` reads.
    fn needed(
        dag: &QueryDag,
        ops: &BTreeSet<NodeId>,
        mm: NodeId,
        k_range: Range<usize>,
        root: NodeId,
        out: Footprint,
    ) -> BTreeSet<(NodeId, (usize, usize))> {
        footprints(dag, ops, Some(mm), k_range, root, out)
            .into_iter()
            .flat_map(|(n, fp)| fp.coords().map(move |c| (n, c)).collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn needs_covers_structural_inputs() {
        let (dag, ops, root, mm, _, _) = setup();
        let out = needed(&dag, &ops, mm, 0..2, root, Footprint::blocks(vec![(1, 2)]));
        // For output block (1,2): X(1,2); U(1, 0..2); V(2, 0..2) via the
        // transpose.
        let coords: Vec<_> = out.iter().collect();
        assert_eq!(coords.len(), 1 + 2 + 2, "{coords:?}");
        let ks: BTreeSet<usize> = out
            .iter()
            .filter(|(n, _)| matches!(&dag.node(*n).kind, OpKind::Input { name } if name == "U"))
            .map(|&(_, (_, k))| k)
            .collect();
        assert_eq!(ks, BTreeSet::from([0, 1]));
    }

    #[test]
    fn needs_respects_k_slice() {
        let (dag, ops, root, mm, _, _) = setup();
        let out = needed(&dag, &ops, mm, 1..2, root, Footprint::product(0..1, 0..1));
        for (n, (bi, bj)) in &out {
            if let OpKind::Input { name } = &dag.node(*n).kind {
                if name == "U" {
                    assert_eq!((*bi, *bj), (0, 1), "only the k=1 slice of U");
                }
                if name == "V" {
                    assert_eq!((*bi, *bj), (0, 1), "V(j=0, k=1)");
                }
            }
        }
    }

    #[test]
    fn memoization_reuses_diamond_values() {
        // (X×S)ᵀ×X-style reuse: X read twice, evaluated once per block.
        let bs = 4;
        let x = gen::dense_uniform(8, 8, bs, 0.0, 1.0, 7).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let sq = b.unary(xe, UnaryOp::Square);
        let dbl = b.binary(sq, sq, BinOp::Add); // diamond on sq
        let dag = b.finish(vec![dbl]);
        let ops = BTreeSet::from([sq.id(), dbl.id()]);
        let mut store = LocalStore::new();
        for (bi, bj, blk) in x.iter_blocks() {
            store.insert(xe.id(), (bi, bj), Arc::clone(blk));
        }
        let mut ctx = KernelCtx::new(&dag, &ops, None, 0..0, &store);
        let v = ctx.eval(dbl.id(), 0, 0).unwrap();
        let direct = x.block_or_zero(0, 0).map(UnaryOp::Square);
        let expect = direct.zip(&direct, BinOp::Add).unwrap();
        assert_eq!(v.to_dense(), expect.to_dense());
        // Memo holds sq at (0,0) exactly once.
        assert!(ctx.memo.contains_key(&(sq.id(), 0, 0)));
    }
}
