//! Fused kernels as compiled block programs, and their routing mirror.
//!
//! A *kernel* (paper Fig. 8) is the fused computation of one output block:
//! it pulls the input blocks it touches from the task's [`LocalStore`] and
//! evaluates the plan's operator DAG at block granularity, materializing
//! only per-block scratch. [`BlockProgram::compile`] lowers a plan once per
//! exec unit into two halves that every task of the unit shares:
//!
//! * a **value program**: the plan's operators in topological order over
//!   reusable slots, one instruction per `(node, transpose parity)`. A
//!   multiplication's operands that are themselves plan members get a
//!   sub-program of their own whose results are memoized per task by block
//!   coordinate, so `L`- and `R`-space values the whole tile reuses are
//!   computed once. Element-wise operators run in place on blocks nobody
//!   else reads (the multiplication's accumulator among them), and an
//!   element-wise chain behind a zero-dominant gate runs only at the sparse
//!   gate block's stored positions — the cells the paper's fused operator
//!   computes (Fig. 1(a)).
//!
//!   *Gated multiplication*: when a multiplication's only reader is such
//!   a chain, or the gate itself (`X * (A %*% B)`), the product is held
//!   back too and computed at the gate's stored cells only: for each one,
//!   a dot product from `+0.0` over the `k`s the support rule yields,
//!   ascending. [`DenseBlock::sampled_dot_acc`] computes them one term at
//!   a time, four cells side by side as independent chains, reading the
//!   operand blocks in place; the cell list and the dots live in the
//!   task's scratch, so a gated block allocates only its sparse output.
//!   The path needs a *certificate*, computed once per operand block per
//!   task: every operand block is dense with every entry `> 0`, and for
//!   each term the product of the two blocks' least entries is `> 0`. Then
//!   every product cell is positive and the product would reach the chain
//!   as a dense block, so the gated block is the one the dense product
//!   would give. The certificate is also the kernel's precondition: the
//!   kernel skips no zero left entries, which `gemm_acc` does, and with
//!   none to skip the two accumulate exactly the same terms in the same
//!   order. Without it, or without a sparse gate of the same shape, the
//!   multiplication runs in full (dense accumulator, `compact()`) and the
//!   zip takes its general path: `compact()` may make the product sparse,
//!   which meets the gate differently.
//!
//!   An absent block, and a product without terms, reads as the empty
//!   block of its shape that the compiled program holds, one per shape.
//! * a **support rule**: the zero-propagation logic that decides whether a
//!   block can be non-zero at all, compiled to a small tree over "block
//!   present in the store" facts. A task enumerates its supported output
//!   blocks from the blocks present in its store when a sparse input gates
//!   the output, and a multiplication walks the `k`s present on both sides,
//!   in increasing `k`, from the operand with fewer present blocks in its
//!   k-slice (two binary searches tell). Over a cuboid tile the rule is
//!   otherwise evaluated a block row at a time: a store node's blocks come
//!   off one walk of its row, and a multiplication whose left operand
//!   bounds its `k`s ORs its right operand's rows over those `k`s.
//!
//! Tasks evaluate their supported output blocks a **run** at a time: a
//! maximal stretch of adjacent blocks in one block row. A run of two or
//! more blocks goes through the value program in one **row pass** when
//! every slot of every block would be `Block::Dense` on the per-block path,
//! or is a stored product. That is read off facts at hand:
//!
//! * the program has no transpose, swapped instruction or deferred chain
//!   (a multiplication's operands are programs of their own);
//! * every load's blocks in the run are dense, except for a load whose only
//!   reader is a non-zero-dominant `Zip` opposite a computed value: its
//!   sparse and absent blocks read as zero-filled, which is what
//!   `Block::zip` makes of them against a dense block;
//! * no left operand block of a multiplication is sparse with a stored
//!   `±0.0`;
//! * after the product, no block of the run holds so few non-zeros that
//!   `compact()` would store it sparse, unless the product is the root and
//!   the run is stored: then each block is compacted on its own.
//!
//! Any other run, and every run of one block, goes block by block. In the
//! pass only the products are panels, the run's blocks side by side. The
//! left operand's block at each `k` with a supported one is read once per
//! run into a dense slot of the task: from the store or the operand's memo,
//! or, for a transposed load (`t(A)` of an external `A`), straight from
//! `A`'s store block, transposed as it is read, with no memo entry. A sparse
//! block is scattered over zeros: with no `±0.0` stored, the zeros it
//! leaves are skipped as its unstored entries are, and every stored entry is
//! multiplied. Then:
//!
//! * when every right operand block at those `k`s and the run's columns is
//!   supported and dense, every block of the run sums over the same `k`s,
//!   and the product is one [`DenseBlock::gemm_panel`]: the slots side by
//!   side times the right operand's blocks stacked (kept for the tile's
//!   next run with the same columns and `k`s). Each element accumulates
//!   from `+0.0` over the concatenated inner index in ascending order,
//!   skipping zero left entries;
//! * otherwise (a sparse right block, or blocks that sum over different
//!   `k`s) the product is built **term-major**: for each `k` ascending,
//!   every right operand block present at `(k, j)` adds its term, the
//!   slot times that block, into block `j`'s columns, with the per-element
//!   operation `Block::gemm_acc` performs for the block's format: zero left
//!   entries skipped, a sparse block's stored entries read in storage
//!   order.
//!
//! Either way each element sees what `gemm_acc` chained over its own
//! block's `k`s from `+0.0` gives. The products' zeros are counted for the
//! compaction rule before anything else is computed. Then, element row by
//! element row, the other instructions run over one row of scratch per
//! slot, loads reading their blocks' rows in place (a sparse block's stored
//! entries over zeros), and the root's row goes to one of two sinks:
//!
//! * **store** ([`TaskProgram::eval_run`]): each block's chunk of the row
//!   is appended to that block's elements, and the blocks are handed back
//!   as `Block::Dense`, or as `compact()` of it when the root is the
//!   product: what the per-block path's dense accumulator compacts to;
//! * **fold** ([`TaskProgram::fold_run`]), for an aggregation root: every
//!   block's accumulators take the chunk's values in column order. So each
//!   accumulator is fed, from the identity, exactly the values, in exactly
//!   the order, that `Block::agg`, `row_agg` or `col_agg` fold of the
//!   dense block. `fused_op` then combines the blocks' folds in tile
//!   order, with unsupported blocks folded as zero blocks.
//!
//! A task's [`LocalStore`] keeps one [`BlockList`] per plan node, the same
//! sorted list a `BlockedMatrix` keeps its blocks in, so a multiplication's
//! `k` walks are that list's row and column walks. The list is shared
//! (`Arc`) among the tasks that received the same slice of the node.
//!
//! [`BlockProgram::bind`] attaches a compiled program to one task's store
//! and k-slice. Results are bit-identical to evaluating the plan recursively
//! per block with [`Block`]'s own operators: every element sees the same
//! operations in the same order, and every block takes the same dense or
//! sparse format.
//!
//! Routing does not recurse per block either. [`footprints`] applies the
//! same access rules — element-wise operators read their own coordinates, a
//! transpose swaps them, a multiplication reads its row band of the left
//! input and column band of the right over its k-slice — once per plan
//! node to a whole task's output tile, and yields each input's needed
//! blocks as a few row × column products or exact lists, which
//! [`Footprint::present`] resolves against the input's block list. It is
//! deliberately *not* sparsity-pruned: consolidation ships whole cuboid
//! slices (every present block in them), matching the paper's
//! partition-granular communication. Footprints compare and hash by their
//! terms, so `fused_op::route` builds one list per distinct `(node,
//! footprint)` slice of a unit and hands it to every task that needs it.
//! Each store still counts the bytes of every list it holds, so the ledger
//! charges each task's replica as if it were a copy of its own.
//!
//! The main matrix multiplication sums over the task's `k`-slice only; with
//! `R > 1` that produces a *partial* result which the aggregation stage
//! combines before the `O`-space operators run (see `fused_op`). Stage 2 is
//! the plan without its main multiplication, over a store holding the
//! aggregated product: the product is an ordinary external node there,
//! loaded and supported like any other input. Nested multiplications always
//! see their full common dimension locally — their subspaces are confined,
//! so the needed blocks were all routed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use fuseme_matrix::{
    compacts_to_sparse, AggOp, BinOp, Block, BlockList, Coord, DenseBlock, MatrixMeta, SparseBlock,
    UnaryOp,
};
use fuseme_plan::{NodeId, OpKind, QueryDag};
use fuseme_sim::SimError;

fn swap_if(swap: bool, (i, j): Coord) -> Coord {
    if swap {
        (j, i)
    } else {
        (i, j)
    }
}

/// A task's local collection of input blocks, keyed by the plan node that
/// produced them (input leaf or materialized intermediate) and then by grid
/// coordinate. Each node keeps one [`BlockList`], the same sorted list a
/// matrix stores its blocks in, so the store holds memory in proportion to
/// the blocks present and looks blocks up without hashing.
///
/// The list is shared: tasks that receive the same slice of a node (the
/// `Q` tasks of one cuboid row band, say) hold one list between them. Each
/// store still reports the bytes of every list it holds, so what a task
/// is charged for receiving and holding does not depend on the sharing.
#[derive(Debug, Default, Clone)]
pub struct LocalStore {
    /// Sorted by node id.
    nodes: Vec<(NodeId, Arc<BlockList>)>,
}

impl LocalStore {
    /// An empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// Installs `blocks` as everything held for `node`, replacing what was
    /// held; an empty list holds nothing, so it drops what was held.
    pub fn insert(&mut self, node: NodeId, blocks: impl Into<Arc<BlockList>>) {
        let blocks = blocks.into();
        let at = self.nodes.partition_point(|(n, _)| *n < node);
        if self.nodes.get(at).is_some_and(|(n, _)| *n == node) {
            self.nodes.remove(at);
        }
        if !blocks.is_empty() {
            self.nodes.insert(at, (node, blocks));
        }
    }

    /// The blocks held for `node`, if any.
    pub(crate) fn node(&self, node: NodeId) -> Option<&BlockList> {
        self.list(node).map(|list| &**list)
    }

    /// The shared list held for `node`, if any: tasks that received the
    /// same slice of `node` hold the same list.
    pub fn list(&self, node: NodeId) -> Option<&Arc<BlockList>> {
        let at = self.nodes.binary_search_by_key(&node, |(n, _)| *n).ok()?;
        Some(&self.nodes[at].1)
    }

    /// The block at `(node, coord)`, if present (absent = all-zero).
    pub fn get(&self, node: NodeId, coord: Coord) -> Option<&Arc<Block>> {
        self.node(node)?.get(coord)
    }

    /// Every `(node, coord)` held, by node and then row-major.
    pub fn keys(&self) -> impl Iterator<Item = (NodeId, Coord)> + '_ {
        self.nodes
            .iter()
            .flat_map(|(n, nb)| nb.coords().iter().map(move |&c| (*n, c)))
    }

    /// Total bytes held (= what consolidation shipped to this task).
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|(_, nb)| nb.size_bytes()).sum()
    }

    /// Bytes held for one input node (= that input's share of the task's
    /// consolidation traffic; what a replica-cache hit avoids re-shipping).
    pub fn node_bytes(&self, node: NodeId) -> u64 {
        self.node(node).map_or(0, BlockList::size_bytes)
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

// ----- support rules -----------------------------------------------------------

/// When a node's block can be non-zero. Conservative: true unless provably
/// all-zero from absent input blocks and zero-propagation rules.
#[derive(Debug)]
enum Sup {
    All,
    /// An external node's block is in the store, at swapped coordinates
    /// when `swap`.
    Present {
        load: usize,
        swap: bool,
    },
    And(Box<Sup>, Box<Sup>),
    Or(Box<Sup>, Box<Sup>),
    MatMul(Box<MmSup>),
}

/// A multiplication's support: some `k` with both operands supported.
#[derive(Debug)]
struct MmSup {
    /// The multiplication's coordinates are the program's swapped.
    swap: bool,
    /// The plan's main multiplication: sums over the task's k-slice.
    main: bool,
    /// Common dimension in blocks, for nested multiplications.
    k_full: usize,
    left: Sup,
    right: Sup,
}

impl Sup {
    fn and(a: Sup, b: Sup) -> Sup {
        match (a, b) {
            (Sup::All, x) | (x, Sup::All) => x,
            (a, b) => Sup::And(Box::new(a), Box::new(b)),
        }
    }

    fn or(a: Sup, b: Sup) -> Sup {
        match (a, b) {
            (Sup::All, _) | (_, Sup::All) => Sup::All,
            (a, b) => Sup::Or(Box::new(a), Box::new(b)),
        }
    }

    fn holds(&self, t: &Bound<'_>, c: Coord) -> bool {
        match self {
            Sup::All => true,
            Sup::Present { load, swap } => t.block(*load, swap_if(*swap, c)).is_some(),
            Sup::And(a, b) => a.holds(t, c) && b.holds(t, c),
            Sup::Or(a, b) => a.holds(t, c) || b.holds(t, c),
            Sup::MatMul(m) => m.any_term(t, swap_if(m.swap, c)),
        }
    }

    /// [`Sup::holds`] at `(i, j)` for every `j` of `cols`, into `out`
    /// (`out[x]` for `j = cols.start + x`), a block row at a time: a
    /// store node's blocks are read off one walk of its row, and a
    /// multiplication whose left operand bounds its `k`s ORs its right
    /// operand's rows over those `k`s.
    fn row(&self, t: &Bound<'_>, i: usize, cols: &Range<usize>, out: &mut [bool]) {
        match self {
            Sup::All => out.fill(true),
            Sup::Present { load, swap: false } => {
                out.fill(false);
                let present = t.loads[*load]
                    .into_iter()
                    .flat_map(|nb| nb.range((i, cols.start), (i, cols.end)));
                for ((_, j), _) in present {
                    out[j - cols.start] = true;
                }
            }
            Sup::And(a, b) | Sup::Or(a, b) => {
                let and = matches!(self, Sup::And(..));
                let mut other = vec![false; out.len()];
                a.row(t, i, cols, out);
                b.row(t, i, cols, &mut other);
                for (o, x) in out.iter_mut().zip(other) {
                    *o = if and { *o && x } else { *o || x };
                }
            }
            Sup::MatMul(m) if !m.swap && m.left.driver().is_some() => {
                out.fill(false);
                let mut other = vec![false; out.len()];
                m.terms(t, i, None, |k| {
                    m.right.row(t, k, cols, &mut other);
                    for (o, x) in out.iter_mut().zip(&other) {
                        *o |= x;
                    }
                    !out.iter().all(|&o| o)
                });
            }
            _ => {
                for (x, o) in out.iter_mut().enumerate() {
                    *o = self.holds(t, (i, cols.start + x));
                }
            }
        }
    }

    /// An input whose present blocks bound this support from above.
    fn driver(&self) -> Option<(usize, bool)> {
        match self {
            Sup::Present { load, swap } => Some((*load, *swap)),
            Sup::And(a, b) => a.driver().or_else(|| b.driver()),
            _ => None,
        }
    }
}

impl MmSup {
    fn ks(&self, t: &Bound<'_>) -> Range<usize> {
        if self.main {
            t.k_range.clone()
        } else {
            0..self.k_full
        }
    }

    fn any_term(&self, t: &Bound<'_>, (i, j): Coord) -> bool {
        let mut any = false;
        self.terms(t, i, Some(j), |_| {
            any = true;
            false
        });
        any
    }

    /// Calls `f` with every `k` of the slice, ascending, at which both
    /// operands are supported, until `f` returns `false`; without `j`, at
    /// which the left operand is. Candidates come from an operand's present
    /// blocks (a row or a column of a store node) where one bounds the
    /// support, else from the whole slice. Where both do, the right
    /// operand's are walked when they are fewer than the left's and the
    /// left has more than one: counting costs binary searches, which a
    /// walk of at most one candidate does not repay.
    fn terms(&self, t: &Bound<'_>, i: usize, j: Option<usize>, f: impl FnMut(usize) -> bool) {
        let ks = self.ks(t);
        let len = |w: Walk| t.loads[w.load].map_or(0, |nb| w.len(nb, &ks));
        let walk = match self.walks(i, j) {
            (Some(l), Some(r)) if ks.len() > 1 => {
                let n = len(l);
                Some(if n > 1 && len(r) < n { r } else { l })
            }
            (l, r) => l.or(r),
        };
        self.terms_from(t, i, j, walk, f);
    }

    /// The walks over a store node's present blocks that bound the left
    /// operand at `(i, k)` and, given `j`, the right operand at `(k, j)`.
    /// The left operand at (i, k) is its store node's row i, or column i
    /// when transposed; the right operand at (k, j) the other way.
    fn walks(&self, i: usize, j: Option<usize>) -> (Option<Walk>, Option<Walk>) {
        let left = self.left.driver().map(|(load, swap)| Walk {
            load,
            by_row: !swap,
            fixed: i,
        });
        let right = (self.right.driver().zip(j)).map(|((load, swap), j)| Walk {
            load,
            by_row: swap,
            fixed: j,
        });
        (left, right)
    }

    /// [`MmSup::terms`] with candidates from `walk`, or from the whole
    /// slice without one.
    fn terms_from(
        &self,
        t: &Bound<'_>,
        i: usize,
        j: Option<usize>,
        walk: Option<Walk>,
        mut f: impl FnMut(usize) -> bool,
    ) {
        let ks = self.ks(t);
        let both =
            |k: usize| self.left.holds(t, (i, k)) && j.is_none_or(|j| self.right.holds(t, (k, j)));
        let mut visit = |cands: &mut dyn Iterator<Item = usize>| {
            for k in cands {
                if both(k) && !f(k) {
                    return;
                }
            }
        };
        match walk {
            Some(w) => {
                let Some(nb) = t.loads[w.load] else { return };
                if w.by_row {
                    visit(&mut nb.row(w.fixed, &ks));
                } else {
                    visit(&mut nb.col(w.fixed, &ks));
                }
            }
            None => visit(&mut ks.clone()),
        }
    }
}

/// A store node's row or column `fixed`, whose present blocks bound a
/// multiplication operand's `k`s.
#[derive(Debug, Clone, Copy)]
struct Walk {
    load: usize,
    by_row: bool,
    fixed: usize,
}

impl Walk {
    /// The number of `k ∈ ks` the walk yields.
    fn len(self, nb: &BlockList, ks: &Range<usize>) -> usize {
        if self.by_row {
            nb.row_len(self.fixed, ks)
        } else {
            nb.col_len(self.fixed, ks)
        }
    }
}

// ----- value programs ------------------------------------------------------------

/// An element-wise operator with at most one block operand.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Unary(UnaryOp),
    /// `x op s`.
    Right(BinOp, f64),
    /// `s op x`.
    Left(BinOp, f64),
}

impl Cell {
    fn apply(self, x: f64) -> f64 {
        match self {
            Cell::Unary(op) => op.apply(x),
            Cell::Right(op, s) => op.apply(x, s),
            Cell::Left(op, s) => op.apply(s, x),
        }
    }

    fn on(self, b: &Block) -> Block {
        match self {
            Cell::Unary(op) => b.map(op),
            Cell::Right(op, s) => b.zip_scalar(s, op),
            Cell::Left(op, s) => b.scalar_zip(s, op),
        }
    }

    /// `out[x] = apply(a[x])`. A scalar operand's common operators get a
    /// loop of their own, so the operator is not dispatched per element.
    fn apply_row(self, out: &mut [f64], a: &[f64]) {
        macro_rules! each {
            (|$x:ident| $f:expr) => {
                for (o, &$x) in out.iter_mut().zip(a) {
                    *o = $f;
                }
            };
        }
        match self {
            Cell::Right(BinOp::Add, s) => each!(|x| BinOp::Add.apply(x, s)),
            Cell::Right(BinOp::Sub, s) => each!(|x| BinOp::Sub.apply(x, s)),
            Cell::Right(BinOp::Mul, s) => each!(|x| BinOp::Mul.apply(x, s)),
            Cell::Right(BinOp::Div, s) => each!(|x| BinOp::Div.apply(x, s)),
            Cell::Unary(UnaryOp::Square) => each!(|x| UnaryOp::Square.apply(x)),
            cell => each!(|x| cell.apply(x)),
        }
    }

    /// [`Cell::on`] for a block nobody else reads: dense blocks are
    /// updated in place, element by element exactly as `on` would.
    fn on_owned(self, b: Block) -> Block {
        match b {
            Block::Dense(mut d) => {
                for v in d.data_mut() {
                    *v = self.apply(*v);
                }
                Block::Dense(d)
            }
            sparse => self.on(&sparse),
        }
    }
}

/// Element-wise steps feeding one side of a zero-dominant [`Op::Zip`],
/// held back until the other side's format is known. When the base is a
/// multiplication nobody else reads, that is held back too (it is then
/// `deferred`), and the chain may have no cells: `X * (A %*% B)`.
#[derive(Debug)]
struct Chain {
    base: usize,
    /// The chain's operators, base side first.
    cells: Vec<Cell>,
}

impl Chain {
    fn apply(&self, x: f64) -> f64 {
        self.cells.iter().fold(x, |x, c| c.apply(x))
    }
}

#[derive(Debug)]
enum Op {
    /// An external node's block from the store (zero when absent).
    Load(usize),
    Cell(Cell, usize),
    Zip {
        op: BinOp,
        l: usize,
        r: usize,
        /// Deferred element-wise chains on the left and right.
        chains: [Option<Chain>; 2],
    },
    Transpose(usize),
    MatMul(Box<MatMulOp>),
    /// Evaluation fails with this message.
    Fail(&'static str),
}

#[derive(Debug)]
struct MatMulOp {
    sup: MmSup,
    left: Operand,
    right: Operand,
    /// Index of this multiplication's runtime state in its region.
    state: usize,
}

/// Where a multiplication operand's blocks come from.
#[derive(Debug)]
enum Operand {
    /// Straight from the store.
    Load(usize),
    /// A plan member computed by its own sub-program and memoized per task.
    Program(Region),
}

impl Operand {
    /// The load whose store blocks are this operand's, transposed when
    /// `true`: a load, or a program that only transposes one (`t(A)` of an
    /// external `A`: `A`'s block at the swapped coordinate, transposed),
    /// which the row pass reads in place.
    fn in_store(&self) -> Option<(usize, bool)> {
        match self {
            Operand::Load(load) => Some((*load, false)),
            Operand::Program(sub) => match sub.instrs.as_slice() {
                [Instr {
                    op: Op::Load(load),
                    swap: true,
                    ..
                }, Instr {
                    op: Op::Transpose(0),
                    swap: false,
                    ..
                }] => Some((*load, true)),
                _ => None,
            },
        }
    }
}

#[derive(Debug)]
struct Instr {
    meta: MatrixMeta,
    /// The instruction works at the region coordinate swapped.
    swap: bool,
    op: Op,
    /// Readers of this slot; the region's caller counts as one for the
    /// root.
    uses: u32,
    /// Part of a [`Chain`]: run by the consuming `Zip`, not in order.
    deferred: bool,
    /// A load whose only reader is a non-zero-dominant `Zip` with a
    /// computed other side: in the row pass its sparse and absent blocks
    /// read as zero-filled dense ones, which is what `Block::zip` makes of
    /// them against a dense block.
    zero_fill: bool,
}

/// A topologically ordered program computing one node at one coordinate.
#[derive(Debug)]
struct Region {
    instrs: Vec<Instr>,
    sup: Sup,
    matmuls: usize,
    /// Runs of blocks may go through the row pass: no transpose, swapped
    /// instruction, deferred chain or failing instruction.
    panels: bool,
    /// One empty block per block shape of every load and multiplication:
    /// what an absent block or a product without terms reads as.
    zeros: Vec<Arc<Block>>,
}

impl Region {
    /// The empty block of `meta`'s block shape at `(bi, bj)`.
    fn zero(&self, meta: &MatrixMeta, (bi, bj): Coord) -> Result<&Arc<Block>, SimError> {
        let shape = meta.block_dims(bi, bj);
        self.zeros
            .iter()
            .find(|z| (z.rows(), z.cols()) == shape)
            .ok_or_else(|| SimError::Task(format!("no zero block of shape {shape:?}")))
    }
}

/// Lowering state: the plan, and the external nodes read so far.
struct Lower<'a> {
    dag: &'a QueryDag,
    ops: &'a BTreeSet<NodeId>,
    main_mm: Option<NodeId>,
    loads: Vec<NodeId>,
}

impl Lower<'_> {
    fn load(&mut self, node: NodeId) -> usize {
        match self.loads.iter().position(|&n| n == node) {
            Some(at) => at,
            None => {
                self.loads.push(node);
                self.loads.len() - 1
            }
        }
    }

    /// The support rule of `node` at swapped coordinates when `swap`.
    fn sup(&mut self, node: NodeId, swap: bool) -> Sup {
        if !self.ops.contains(&node) {
            return Sup::Present {
                load: self.load(node),
                swap,
            };
        }
        let dag = self.dag;
        let n = dag.node(node);
        match &n.kind {
            OpKind::Unary(op) if op.preserves_zero() => self.sup(n.inputs[0], swap),
            OpKind::Binary(op) => {
                let (l, r) = (n.inputs[0], n.inputs[1]);
                match (scalar_of(dag, l), scalar_of(dag, r)) {
                    (Some(s), None) if op.apply(s, 0.0) == 0.0 => self.sup(r, swap),
                    (None, Some(s)) if op.apply(0.0, s) == 0.0 => self.sup(l, swap),
                    (None, None) => {
                        let (a, b) = (self.sup(l, swap), self.sup(r, swap));
                        if op.zero_dominant() {
                            Sup::and(a, b)
                        } else {
                            Sup::or(a, b)
                        }
                    }
                    _ => Sup::All,
                }
            }
            OpKind::Transpose => self.sup(n.inputs[0], !swap),
            OpKind::MatMul => Sup::MatMul(Box::new(self.mm_sup(node, swap))),
            _ => Sup::All,
        }
    }

    fn mm_sup(&mut self, node: NodeId, swap: bool) -> MmSup {
        let dag = self.dag;
        let n = dag.node(node);
        MmSup {
            swap,
            main: Some(node) == self.main_mm,
            k_full: mm_k_range(self.dag, None, &(0..0), node).end,
            left: self.sup(n.inputs[0], false),
            right: self.sup(n.inputs[1], false),
        }
    }

    fn region(&mut self, root: NodeId) -> Region {
        let mut r = Region {
            instrs: Vec::new(),
            sup: self.sup(root, false),
            matmuls: 0,
            panels: false,
            zeros: Vec::new(),
        };
        let mut seen = HashMap::new();
        self.value(&mut r, &mut seen, root, false);
        defer_chains(&mut r.instrs);
        mark_zero_fill(&mut r.instrs);
        r.panels = r.instrs.iter().all(|ins| {
            !ins.swap
                && matches!(
                    ins.op,
                    Op::Load(_)
                        | Op::Cell(..)
                        | Op::MatMul(_)
                        | Op::Zip {
                            chains: [None, None],
                            ..
                        }
                )
        });
        for ins in &r.instrs {
            if matches!(ins.op, Op::Load(_) | Op::MatMul(_)) {
                for (rows, cols) in block_shapes(&ins.meta) {
                    if !r.zeros.iter().any(|z| (z.rows(), z.cols()) == (rows, cols)) {
                        r.zeros.push(Arc::new(Block::zero(rows, cols)));
                    }
                }
            }
        }
        r
    }

    /// Appends the instructions computing `node` (children first, left
    /// before right) unless present, and returns its slot, counting the
    /// caller as one more reader.
    fn value(
        &mut self,
        r: &mut Region,
        seen: &mut HashMap<(NodeId, bool), usize>,
        node: NodeId,
        swap: bool,
    ) -> usize {
        if let Some(&slot) = seen.get(&(node, swap)) {
            r.instrs[slot].uses += 1;
            return slot;
        }
        let dag = self.dag;
        let n = dag.node(node);
        let op = if !self.ops.contains(&node) {
            Op::Load(self.load(node))
        } else {
            match &n.kind {
                OpKind::Unary(op) => {
                    Op::Cell(Cell::Unary(*op), self.value(r, seen, n.inputs[0], swap))
                }
                OpKind::Binary(op) => {
                    let (l, rr) = (n.inputs[0], n.inputs[1]);
                    match (scalar_of(dag, l), scalar_of(dag, rr)) {
                        (Some(s), None) => {
                            Op::Cell(Cell::Left(*op, s), self.value(r, seen, rr, swap))
                        }
                        (None, Some(s)) => {
                            Op::Cell(Cell::Right(*op, s), self.value(r, seen, l, swap))
                        }
                        (None, None) => Op::Zip {
                            op: *op,
                            l: self.value(r, seen, l, swap),
                            r: self.value(r, seen, rr, swap),
                            chains: [None, None],
                        },
                        (Some(_), Some(_)) => Op::Fail("binary over two scalars inside a kernel"),
                    }
                }
                OpKind::Transpose => Op::Transpose(self.value(r, seen, n.inputs[0], !swap)),
                OpKind::MatMul => {
                    let sup = self.mm_sup(node, swap);
                    let left = self.operand(n.inputs[0]);
                    let right = self.operand(n.inputs[1]);
                    r.matmuls += 1;
                    Op::MatMul(Box::new(MatMulOp {
                        sup,
                        left,
                        right,
                        state: r.matmuls - 1,
                    }))
                }
                OpKind::Input { .. } | OpKind::Scalar(_) => {
                    Op::Fail("leaves are never plan members")
                }
                OpKind::FullAgg(_) | OpKind::RowAgg(_) | OpKind::ColAgg(_) => {
                    Op::Fail("aggregation nodes are folded by the operator driver, not eval()")
                }
            }
        };
        r.instrs.push(Instr {
            meta: n.meta,
            swap,
            op,
            uses: 1,
            deferred: false,
            zero_fill: false,
        });
        let slot = r.instrs.len() - 1;
        seen.insert((node, swap), slot);
        slot
    }

    fn operand(&mut self, node: NodeId) -> Operand {
        if self.ops.contains(&node) {
            Operand::Program(self.region(node))
        } else {
            Operand::Load(self.load(node))
        }
    }
}

/// Marks, for every zero-dominant `Zip`, the single-reader element-wise
/// steps beneath each side as a deferred [`Chain`], together with a
/// single-reader multiplication at its base.
fn defer_chains(instrs: &mut [Instr]) {
    for z in 0..instrs.len() {
        let Op::Zip { op, l, r, .. } = instrs[z].op else {
            continue;
        };
        if !op.zero_dominant() || l == r {
            continue;
        }
        for (side, top) in [l, r].into_iter().enumerate() {
            let mut steps = Vec::new();
            let mut cells = Vec::new();
            let mut cur = top;
            while let (Op::Cell(cell, src), 1) = (&instrs[cur].op, instrs[cur].uses) {
                steps.push(cur);
                cells.push(*cell);
                cur = *src;
            }
            if matches!(instrs[cur].op, Op::MatMul(_)) && instrs[cur].uses == 1 {
                steps.push(cur);
            } else if steps.is_empty() {
                continue;
            }
            cells.reverse();
            for s in steps {
                instrs[s].deferred = true;
            }
            if let Op::Zip { chains, .. } = &mut instrs[z].op {
                chains[side] = Some(Chain { base: cur, cells });
            }
        }
    }
}

/// Marks the loads a non-zero-dominant `Zip` alone reads, opposite a
/// computed value (see [`Instr::zero_fill`]).
fn mark_zero_fill(instrs: &mut [Instr]) {
    for z in 0..instrs.len() {
        let Op::Zip { op, l, r, .. } = instrs[z].op else {
            continue;
        };
        if op.zero_dominant() {
            continue;
        }
        for (side, other) in [(l, r), (r, l)] {
            let load = |x: usize| matches!(instrs[x].op, Op::Load(_));
            if load(side) && instrs[side].uses == 1 && !load(other) {
                instrs[side].zero_fill = true;
            }
        }
    }
}

/// The distinct block shapes of a matrix: interior, last block row, last
/// block column, and corner.
fn block_shapes(meta: &MatrixMeta) -> Vec<(usize, usize)> {
    let grid = meta.grid();
    if grid.block_rows == 0 || grid.block_cols == 0 {
        return Vec::new();
    }
    let (r, c) = (grid.block_rows - 1, grid.block_cols - 1);
    [(0, 0), (r, 0), (0, c), (r, c)]
        .into_iter()
        .map(|(bi, bj)| meta.block_dims(bi, bj))
        .collect()
}

/// A fused plan lowered once per exec unit: the value program and support
/// rule of one node, shared by every task of the unit.
#[derive(Debug)]
pub struct BlockProgram {
    region: Region,
    /// External nodes read, indexed by the program's load ids.
    loads: Vec<NodeId>,
}

impl BlockProgram {
    /// Lowers the computation of `root` inside the plan `ops`. `main_mm`
    /// is the plan's main multiplication, which sums over each task's
    /// k-slice; nested multiplications sum over their full common
    /// dimension.
    pub fn compile(
        dag: &QueryDag,
        ops: &BTreeSet<NodeId>,
        main_mm: Option<NodeId>,
        root: NodeId,
    ) -> BlockProgram {
        let mut lower = Lower {
            dag,
            ops,
            main_mm,
            loads: Vec::new(),
        };
        let region = lower.region(root);
        BlockProgram {
            region,
            loads: lower.loads,
        }
    }

    /// Stage 1 of a two-stage layout: the plan's main multiplication
    /// `main_mm`, supported only where `compute_node` can be non-zero too,
    /// its support read at the multiplication's coordinates, swapped when
    /// `parity`. [`TaskProgram::supported`] then yields the partials a
    /// task must compute in one pass of the one rule. When the
    /// multiplication is the compute node, its own rule is the whole rule.
    pub fn compile_partials(
        dag: &QueryDag,
        ops: &BTreeSet<NodeId>,
        main_mm: NodeId,
        compute_node: NodeId,
        parity: bool,
    ) -> BlockProgram {
        let mut lower = Lower {
            dag,
            ops,
            main_mm: Some(main_mm),
            loads: Vec::new(),
        };
        let mut region = lower.region(main_mm);
        if compute_node != main_mm {
            let gate = lower.sup(compute_node, parity);
            region.sup = Sup::and(gate, std::mem::replace(&mut region.sup, Sup::All));
        }
        BlockProgram {
            region,
            loads: lower.loads,
        }
    }

    /// Binds the program to one task: its store and its k-slice of the
    /// main multiplication (the full range when `R = 1`).
    pub fn bind<'s>(&'s self, store: &'s LocalStore, k_range: Range<usize>) -> TaskProgram<'s> {
        TaskProgram {
            program: self,
            bound: Bound {
                loads: self.loads.iter().map(|&n| store.node(n)).collect(),
                k_range,
            },
            state: RegionState::new(&self.region),
        }
    }
}

/// What a program reads at run time.
struct Bound<'s> {
    loads: Vec<Option<&'s BlockList>>,
    k_range: Range<usize>,
}

impl<'s> Bound<'s> {
    fn block(&self, load: usize, c: Coord) -> Option<&'s Arc<Block>> {
        self.loads[load]?.get(c)
    }
}

/// A slot's value.
#[derive(Default)]
enum Val<'s> {
    #[default]
    Empty,
    Ref(&'s Arc<Block>),
    Own(Block),
}

impl Val<'_> {
    fn block(&self) -> Result<&Block, SimError> {
        match self {
            Val::Ref(b) => Ok(b.as_ref()),
            Val::Own(b) => Ok(b),
            Val::Empty => Err(empty_slot()),
        }
    }

    fn into_arc(self) -> Result<Arc<Block>, SimError> {
        match self {
            Val::Ref(b) => Ok(Arc::clone(b)),
            Val::Own(b) => Ok(Arc::new(b)),
            Val::Empty => Err(empty_slot()),
        }
    }
}

fn empty_slot() -> SimError {
    SimError::Task("block program read an empty slot".into())
}

/// Per-task scratch of one region: its slots and its multiplications'.
struct RegionState<'s> {
    slots: Vec<Val<'s>>,
    matmuls: Vec<MatMulState<'s>>,
    scratch: RowScratch<'s>,
}

struct MatMulState<'s> {
    /// The `k`s of the block being evaluated, or of the run's left operand
    /// blocks.
    ks: Vec<usize>,
    left: Option<Memo<'s>>,
    right: Option<Memo<'s>>,
    /// The certificate's fact about each operand block read, left and
    /// right, by coordinate: the block's least entry when it is dense with
    /// every entry `> 0`, else `None`.
    floors: [BTreeMap<Coord, Option<f64>>; 2],
    /// A gated block's stored cells, and the certified product at them.
    cells: Vec<(usize, usize)>,
    dots: Vec<f64>,
    /// The right operand's row panel last stacked for a run: every run of
    /// a tile with the same columns and `k`s reads the same one.
    stacked: Option<Stacked>,
    /// A run's left operand blocks, one per `k`, read dense (see
    /// [`read_left`]); reused run after run.
    lefts: Vec<DenseBlock>,
}

/// The right operand's blocks at `ks` (top to bottom) and `cols` (left to
/// right) as one dense panel.
struct Stacked {
    ks: Vec<usize>,
    cols: Vec<usize>,
    panel: DenseBlock,
}

/// A computed operand's blocks, by coordinate, for the whole task.
struct Memo<'s> {
    state: RegionState<'s>,
    values: BTreeMap<Coord, Arc<Block>>,
}

impl<'s> RegionState<'s> {
    fn new(region: &Region) -> RegionState<'s> {
        let mut matmuls = Vec::with_capacity(region.matmuls);
        for ins in &region.instrs {
            if let Op::MatMul(mm) = &ins.op {
                let memo = |o: &Operand| match o {
                    Operand::Load(_) => None,
                    Operand::Program(sub) => Some(Memo {
                        state: RegionState::new(sub),
                        values: BTreeMap::new(),
                    }),
                };
                matmuls.push(MatMulState {
                    ks: Vec::new(),
                    left: memo(&mm.left),
                    right: memo(&mm.right),
                    floors: [BTreeMap::new(), BTreeMap::new()],
                    cells: Vec::new(),
                    dots: Vec::new(),
                    stacked: None,
                    lefts: Vec::new(),
                });
            }
        }
        RegionState {
            slots: (0..region.instrs.len()).map(|_| Val::Empty).collect(),
            matmuls,
            scratch: RowScratch::default(),
        }
    }
}

/// Takes a slot's value for its last reader, or borrows it.
fn cell_input<'a, 's>(slots: &'a mut [Val<'s>], instrs: &[Instr], src: usize) -> Input<'a, 's> {
    if instrs[src].uses == 1 {
        Input::Taken(std::mem::take(&mut slots[src]))
    } else {
        Input::Shared(&slots[src])
    }
}

enum Input<'a, 's> {
    Taken(Val<'s>),
    Shared(&'a Val<'s>),
}

impl Input<'_, '_> {
    /// Runs `cells` in order, in place when the value is ours.
    fn run(self, cells: &[Cell]) -> Result<Block, SimError> {
        let Some((first, rest)) = cells.split_first() else {
            return Err(empty_slot());
        };
        let mut b = match self {
            Input::Taken(Val::Own(b)) => first.on_owned(b),
            Input::Taken(v) => first.on(v.block()?),
            Input::Shared(v) => first.on(v.block()?),
        };
        for c in rest {
            b = c.on_owned(b);
        }
        Ok(b)
    }
}

fn eval_region<'s>(
    region: &'s Region,
    st: &mut RegionState<'s>,
    t: &Bound<'s>,
    c: Coord,
) -> Result<Val<'s>, SimError> {
    let instrs = &region.instrs;
    for (x, ins) in instrs.iter().enumerate() {
        if ins.deferred {
            continue;
        }
        let at = swap_if(ins.swap, c);
        let value = match &ins.op {
            Op::Load(load) => Val::Ref(match t.block(*load, at) {
                Some(b) => b,
                None => region.zero(&ins.meta, at)?,
            }),
            Op::Cell(cell, src) => {
                Val::Own(cell_input(&mut st.slots, instrs, *src).run(std::slice::from_ref(cell))?)
            }
            Op::Zip { op, l, r, chains } => Val::Own(zip(region, st, t, c, *op, [*l, *r], chains)?),
            Op::Transpose(src) => Val::Own(st.slots[*src].block()?.transpose()),
            Op::MatMul(mm) => {
                let ms = &mut st.matmuls[mm.state];
                ms.gather(mm, t, at)?;
                ms.product(mm, &ins.meta, t, at, region)?
            }
            Op::Fail(msg) => return Err(SimError::Task((*msg).into())),
        };
        st.slots[x] = value;
    }
    Ok(std::mem::take(&mut st.slots[instrs.len() - 1]))
}

/// A zero-dominant product of a sparse block and a deferred chain over a
/// dense base, computed at the sparse block's stored positions only —
/// exactly what `Block::zip` stores for `sparse * dense` (the pattern of
/// the sparse side, values `sparse · dense`), without the dense side ever
/// existing. `base(r, c)` is the base's value at a stored cell; it is
/// called once per cell, in storage order.
fn gate(sparse: &SparseBlock, chain: &Chain, mut base: impl FnMut(usize, usize) -> f64) -> Block {
    Block::Sparse(sparse.map_stored(|r, c, v| v * chain.apply(base(r, c))))
}

fn zip<'s>(
    region: &'s Region,
    st: &mut RegionState<'s>,
    t: &Bound<'s>,
    c: Coord,
    op: BinOp,
    sides: [usize; 2],
    chains: &'s [Option<Chain>; 2],
) -> Result<Block, SimError> {
    let instrs = &region.instrs;
    let mut chain = [chains[0].as_ref(), chains[1].as_ref()];
    // A deferred multiplication is held, with its coordinate, while its
    // certificate shows it would reach the chain dense; otherwise it runs
    // now.
    let mut held = [None; 2];
    for s in 0..2 {
        let Some(ch) = chain[s] else { continue };
        let base = &instrs[ch.base];
        let (Op::MatMul(mm), true) = (&base.op, base.deferred) else {
            continue;
        };
        let at = swap_if(base.swap, c);
        let ms = &mut st.matmuls[mm.state];
        ms.gather(mm, t, at)?;
        if ms.certify(mm, t, at)? {
            held[s] = Some((mm, at));
        } else {
            st.slots[ch.base] = ms.product(mm, &base.meta, t, at, region)?;
        }
    }
    // Chains over a non-dense base run now: their format depends on the
    // values. Chains over a dense base stay dense whatever they compute. A
    // chain with no cells over a product that ran is no chain at all.
    let mut ready: [Option<Block>; 2] = [None, None];
    for s in 0..2 {
        let Some(ch) = chain[s].filter(|_| held[s].is_none()) else {
            continue;
        };
        if ch.cells.is_empty() {
            chain[s] = None;
        } else if st.slots[ch.base].block()?.is_sparse() {
            ready[s] = Some(cell_input(&mut st.slots, instrs, ch.base).run(&ch.cells)?);
        }
    }
    for (g, d) in [(0, 1), (1, 0)] {
        let Some(ch) = chain[d].filter(|_| ready[d].is_none()) else {
            continue;
        };
        let gate_val = match (&ready[g], chain[g].is_some()) {
            (Some(b), _) => b,
            (None, false) => st.slots[sides[g]].block()?,
            (None, true) => continue,
        };
        let Block::Sparse(s) = gate_val else {
            continue;
        };
        if let Some((mm, at)) = held[d] {
            if (s.rows(), s.cols()) == instrs[ch.base].meta.block_dims(at.0, at.1) {
                let ms = &mut st.matmuls[mm.state];
                ms.sample(mm, t, at, s)?;
                let (dots, mut n) = (&ms.dots, 0);
                return Ok(gate(s, ch, |_, _| {
                    n += 1;
                    dots[n - 1]
                }));
            }
        } else if let Block::Dense(b) = st.slots[ch.base].block()? {
            if (s.rows(), s.cols()) == (b.rows(), b.cols()) {
                return Ok(gate(s, ch, |r, c| b.get(r, c)));
            }
        }
    }
    for s in 0..2 {
        let Some(ch) = chain[s] else { continue };
        if let Some((mm, at)) = held[s] {
            let meta = &instrs[ch.base].meta;
            st.slots[ch.base] = st.matmuls[mm.state].product(mm, meta, t, at, region)?;
            if ch.cells.is_empty() {
                continue;
            }
        }
        if ready[s].is_none() {
            ready[s] = Some(cell_input(&mut st.slots, instrs, ch.base).run(&ch.cells)?);
        }
    }
    let slots = &st.slots;
    let side = |s: usize| -> Result<&Block, SimError> {
        match &ready[s] {
            Some(b) => Ok(b),
            None => slots[sides[s]].block(),
        }
    };
    Ok(side(0)?.zip(side(1)?, op)?)
}

/// A multiplication operand's block at `c`: from the store, or from the
/// operand's memo.
fn operand<'a>(
    o: &Operand,
    memo: &'a Option<Memo<'_>>,
    t: &Bound<'a>,
    c: Coord,
) -> Result<&'a Arc<Block>, SimError> {
    let b = match (o, memo) {
        (Operand::Load(load), _) => t.block(*load, c),
        (Operand::Program(_), Some(m)) => m.values.get(&c),
        (Operand::Program(_), None) => None,
    };
    b.ok_or_else(empty_slot)
}

/// The certificate's fact about one operand block: its least entry when it
/// is dense with every entry `> 0` (so neither zero, negative nor NaN).
///
/// Four lanes scan the entries without an early exit, each keeping its own
/// least entry and whether all its entries are `> 0`. The least of
/// positive, non-NaN values does not depend on the order they are taken
/// in, so the lanes' least is the block's. (`lesser` is a plain compare,
/// cheaper than `f64::min`'s NaN handling, which a NaN entry's `positive`
/// makes moot.)
fn floor(b: &Block) -> Option<f64> {
    let Block::Dense(d) = b else { return None };
    let lesser = |a: f64, b: f64| if b < a { b } else { a };
    let data = d.data();
    let mut least = [f64::INFINITY; 4];
    let mut positive = [true; 4];
    let mut quads = data.chunks_exact(4);
    for quad in &mut quads {
        for l in 0..4 {
            positive[l] &= quad[l] > 0.0;
            least[l] = lesser(least[l], quad[l]);
        }
    }
    for &v in quads.remainder() {
        positive[0] &= v > 0.0;
        least[0] = lesser(least[0], v);
    }
    (!data.is_empty() && positive.iter().all(|&p| p))
        .then(|| least.into_iter().fold(f64::INFINITY, f64::min))
}

impl<'s> MatMulState<'s> {
    /// Lists in `ks` the `k`s the product at `(i, j)` sums over, and
    /// computes the memoized operand blocks they read.
    fn gather(&mut self, mm: &'s MatMulOp, t: &Bound<'s>, (i, j): Coord) -> Result<(), SimError> {
        let ks = &mut self.ks;
        ks.clear();
        mm.sup.terms(t, i, Some(j), |k| {
            ks.push(k);
            true
        });
        for &k in &self.ks {
            fill(&mm.left, &mut self.left, t, (i, k))?;
            fill(&mm.right, &mut self.right, t, (k, j))?;
        }
        Ok(())
    }

    /// The gathered product: `compact()` of a dense accumulator that
    /// `gemm_acc` chains the terms into from `+0.0`, `k` ascending; without
    /// terms, `region`'s empty block.
    fn product(
        &self,
        mm: &MatMulOp,
        meta: &MatrixMeta,
        t: &Bound<'_>,
        (i, j): Coord,
        region: &'s Region,
    ) -> Result<Val<'s>, SimError> {
        if self.ks.is_empty() {
            return Ok(Val::Ref(region.zero(meta, (i, j))?));
        }
        let (rows, cols) = meta.block_dims(i, j);
        let mut acc = DenseBlock::zeros(rows, cols);
        for &k in &self.ks {
            let l = operand(&mm.left, &self.left, t, (i, k))?;
            let r = operand(&mm.right, &self.right, t, (k, j))?;
            l.gemm_acc(r, &mut acc)?;
        }
        Ok(Val::Own(Block::Dense(acc).compact()))
    }

    /// Whether the gathered product is certified to come out of
    /// [`MatMulState::product`] as a dense block: every operand block is
    /// dense with every entry `> 0`, and for every term the product of the
    /// two blocks' least entries is `> 0`. Rounding is monotone, so no term
    /// of any cell underflows to zero; every cell is a sum of positive
    /// terms, hence positive, and `compact` keeps the block dense. It is
    /// also [`DenseBlock::sampled_dot_acc`]'s precondition: no left entry
    /// is zero, so [`MatMulState::sample`] gives `gemm_acc`'s bits. A
    /// product with no terms is an empty sparse block, so it is never
    /// certified.
    fn certify(&mut self, mm: &MatMulOp, t: &Bound<'s>, (i, j): Coord) -> Result<bool, SimError> {
        if self.ks.is_empty() {
            return Ok(false);
        }
        for &k in &self.ks {
            let l = operand(&mm.left, &self.left, t, (i, k))?;
            let r = operand(&mm.right, &self.right, t, (k, j))?;
            let fl = *self.floors[0].entry((i, k)).or_insert_with(|| floor(l));
            let fr = *self.floors[1].entry((k, j)).or_insert_with(|| floor(r));
            if !matches!((fl, fr), (Some(a), Some(b)) if a * b > 0.0) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The certified product at the stored cells of `gate`, in storage
    /// order, into `dots`: per cell a dot from `+0.0` over the terms in
    /// ascending `k`, element for element what `gemm_acc` accumulates into
    /// the dense product.
    fn sample(
        &mut self,
        mm: &MatMulOp,
        t: &Bound<'s>,
        (i, j): Coord,
        gate: &SparseBlock,
    ) -> Result<(), SimError> {
        let MatMulState {
            ks,
            left,
            right,
            cells,
            dots,
            ..
        } = self;
        cells.clear();
        for r in 0..gate.rows() {
            cells.extend(gate.row_entries(r).0.iter().map(|&c| (r, c as usize)));
        }
        dots.clear();
        dots.resize(cells.len(), 0.0);
        for &k in ks.iter() {
            let l = operand(&mm.left, left, t, (i, k))?;
            let r = operand(&mm.right, right, t, (k, j))?;
            let (Block::Dense(l), Block::Dense(r)) = (&**l, &**r) else {
                unreachable!("certified operands are dense");
            };
            l.sampled_dot_acc(r, cells, dots);
        }
        Ok(())
    }

    /// The product at the run's blocks as one row panel, or `None` when
    /// the run must go block by block: a left operand block stores a
    /// `±0.0`, or an operand block's shape does not line up.
    ///
    /// Each `k` with a supported left operand block at the run's row is
    /// read once into a slot of its own ([`read_left`]). When every right
    /// operand block at those `k`s and the run's columns is supported and
    /// dense, every block of the run sums over those `k`s, and the product
    /// is one [`DenseBlock::gemm_panel`] against the right operand's blocks
    /// stacked (kept for the tile's next run with the same columns and
    /// `k`s). Otherwise it is built term-major ([`term_major`]).
    fn panel(
        &mut self,
        mm: &'s MatMulOp,
        t: &Bound<'s>,
        run: &Run<'_>,
    ) -> Result<Option<DenseBlock>, SimError> {
        let i = run.row;
        let MatMulState {
            ks,
            left,
            right,
            stacked,
            lefts,
            ..
        } = self;
        ks.clear();
        let fits = match mm.left.in_store() {
            // The operand's `k`s are its store node's blocks present in
            // row `i` (column `i` when transposed): walk them.
            Some((load, swap)) => {
                let kr = mm.sup.ks(t);
                let mut each = |k: usize, b: &Block| {
                    ks.push(k);
                    read_left(b, swap, slot(lefts, ks.len() - 1))
                };
                match t.loads[load] {
                    None => true,
                    Some(nb) if swap => nb.col_blocks(i, &kr).all(|(k, b)| each(k, b)),
                    Some(nb) => {
                        (nb.range((i, kr.start), (i, kr.end))).all(|((_, k), b)| each(k, b))
                    }
                }
            }
            None => {
                mm.sup.terms(t, i, None, |k| {
                    ks.push(k);
                    true
                });
                let mut fits = true;
                for (n, &k) in ks.iter().enumerate() {
                    fill(&mm.left, left, t, (i, k))?;
                    let b = operand(&mm.left, left, t, (i, k))?;
                    fits = read_left(b, false, slot(lefts, n));
                    if !fits {
                        break;
                    }
                }
                fits
            }
        };
        if !fits || ks.is_empty() {
            return Ok(None);
        }
        let lefts = &lefts[..ks.len()];
        let cols = run.coords.iter().map(|c| c.1);
        let right = match stacked {
            Some(s) if s.ks == *ks && s.cols.iter().copied().eq(cols.clone()) => s,
            _ => {
                if !right_dense(mm, t, run, ks, lefts, right)? {
                    return term_major(mm, t, run, ks, lefts, right);
                }
                stacked.insert(Stacked {
                    ks: ks.clone(),
                    cols: cols.collect(),
                    panel: stack_right(mm, t, run, ks, lefts, right),
                })
            }
        };
        let lefts: Vec<&DenseBlock> = lefts.iter().collect();
        Ok(Some(DenseBlock::gemm_panel(&lefts, &right.panel)?))
    }
}

/// The `n`-th of a run's left operand slots, made on first use.
fn slot(lefts: &mut Vec<DenseBlock>, n: usize) -> &mut DenseBlock {
    if lefts.len() <= n {
        lefts.resize_with(n + 1, || DenseBlock::zeros(0, 0));
    }
    &mut lefts[n]
}

/// Reads a left operand block, transposed when `swap`, into `slot` as a
/// dense block. A sparse block is scattered over zeros. It then reads in a
/// product as its stored entries do, as long as none of them is `±0.0`:
/// `Block::gemm_acc` skips a zero left entry of a dense block but
/// multiplies a stored one. `false` when the block stores a `±0.0`.
fn read_left(block: &Block, swap: bool, slot: &mut DenseBlock) -> bool {
    let shape = swap_if(swap, (block.rows(), block.cols()));
    if (slot.rows(), slot.cols()) != shape {
        *slot = DenseBlock::zeros(shape.0, shape.1);
    }
    match block {
        Block::Dense(d) if !swap => slot.data_mut().copy_from_slice(d.data()),
        Block::Dense(d) => {
            for r in 0..d.rows() {
                for (c, &v) in d.row(r).iter().enumerate() {
                    slot.set(c, r, v);
                }
            }
        }
        Block::Sparse(s) => {
            if s.iter().any(|(_, _, v)| v == 0.0) {
                return false;
            }
            slot.data_mut().fill(0.0);
            for (r, c, v) in s.iter() {
                let (r, c) = swap_if(swap, (r, c));
                slot.set(r, c, v);
            }
        }
    }
    true
}

/// Hands `f` each right operand block present at row `k` and the run's
/// columns, in column order, with its block's index in the run, until `f`
/// returns `false`; whether it never did. A computed operand's blocks come
/// from its memo, which holds exactly the supported blocks computed so
/// far.
fn right_row(
    mm: &MatMulOp,
    memo: &Option<Memo<'_>>,
    t: &Bound<'_>,
    k: usize,
    run: &Run<'_>,
    mut f: impl FnMut(usize, &Block) -> bool,
) -> bool {
    let (first, last) = (run.coords[0].1, run.coords[run.coords.len() - 1].1);
    let mut each = |j: usize, b: &Block| run.index(j).is_none_or(|n| f(n, b));
    match (&mm.right, memo) {
        (Operand::Load(load), _) => (t.loads[*load].into_iter())
            .flat_map(|nb| nb.range((k, first), (k, last + 1)))
            .all(|((_, j), b)| each(j, b)),
        (Operand::Program(_), Some(m)) => {
            (m.values.range((k, first)..=(k, last))).all(|(&(_, j), b)| each(j, b))
        }
        (Operand::Program(_), None) => false,
    }
}

/// Computes a computed right operand's supported blocks at the run's
/// columns and row `k`, so [`right_row`] finds them.
fn fill_right_row<'s>(
    mm: &'s MatMulOp,
    memo: &mut Option<Memo<'s>>,
    t: &Bound<'s>,
    k: usize,
    run: &Run<'_>,
) -> Result<(), SimError> {
    if let Operand::Program(_) = mm.right {
        for &(_, j) in run.coords {
            if mm.sup.right.holds(t, (k, j)) {
                fill(&mm.right, memo, t, (k, j))?;
            }
        }
    }
    Ok(())
}

/// Whether every right operand block at `ks` and the run's columns is
/// supported, and dense with as many rows as the left operand's block at
/// its `k` has columns.
fn right_dense<'s>(
    mm: &'s MatMulOp,
    t: &Bound<'s>,
    run: &Run<'_>,
    ks: &[usize],
    lefts: &[DenseBlock],
    memo: &mut Option<Memo<'s>>,
) -> Result<bool, SimError> {
    for (&k, l) in ks.iter().zip(lefts) {
        fill_right_row(mm, memo, t, k, run)?;
        let mut present = 0;
        let dense = right_row(mm, memo, t, k, run, |n, b| {
            present += 1;
            matches!(b, Block::Dense(b) if (b.rows(), b.cols()) == (l.cols(), run.spans[n].len()))
        });
        if !dense || present < run.coords.len() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The right operand's blocks at `ks` (top to bottom) over the run's
/// columns as one dense panel, once [`right_dense`] has found them all
/// dense.
fn stack_right(
    mm: &MatMulOp,
    t: &Bound<'_>,
    run: &Run<'_>,
    ks: &[usize],
    lefts: &[DenseBlock],
    memo: &Option<Memo<'_>>,
) -> DenseBlock {
    let mut stacked = DenseBlock::zeros(lefts.iter().map(DenseBlock::cols).sum(), run.width());
    let mut k0 = 0;
    for (&k, l) in ks.iter().zip(lefts) {
        right_row(mm, memo, t, k, run, |n, b| {
            if let Block::Dense(b) = b {
                for r in 0..b.rows() {
                    stacked.row_mut(k0 + r)[run.spans[n].clone()].copy_from_slice(b.row(r));
                }
            }
            true
        });
        k0 += l.cols();
    }
    stacked
}

/// The run's product built term-major: for each `k` ascending, every right
/// operand block supported at `(k, j)` adds its term, the left operand's
/// slot at `k` times that block, into block `j`'s columns. Each addition is
/// the per-element operation `Block::gemm_acc` performs for the right
/// block's format ([`DenseBlock::gemm_acc_at`],
/// [`SparseBlock::gemm_from_dense_acc_at`]), so every element sees what
/// chaining `gemm_acc` over its own block's `k`s from `+0.0` gives. `None`
/// when a block's shape does not line up.
fn term_major<'s>(
    mm: &'s MatMulOp,
    t: &Bound<'s>,
    run: &Run<'_>,
    ks: &[usize],
    lefts: &[DenseBlock],
    memo: &mut Option<Memo<'s>>,
) -> Result<Option<DenseBlock>, SimError> {
    let mut out = DenseBlock::zeros(run.rows, run.width());
    for (&k, l) in ks.iter().zip(lefts) {
        fill_right_row(mm, memo, t, k, run)?;
        let added = right_row(mm, memo, t, k, run, |n, b| {
            let (at, width) = (run.spans[n].start, run.spans[n].len());
            match b {
                b if b.cols() != width => false,
                Block::Dense(b) => l.gemm_acc_at(b, &mut out, at).is_ok(),
                Block::Sparse(b) => b.gemm_from_dense_acc_at(l, &mut out, at).is_ok(),
            }
        });
        if !added {
            return Ok(None);
        }
    }
    Ok(Some(out))
}

/// Whether a load's block of `shape` reads as dense in the row pass: it
/// is dense, or the load is [`Instr::zero_fill`] and the block sparse or
/// absent.
fn reads_dense(ins: &Instr, block: Option<&Arc<Block>>, shape: (usize, usize)) -> bool {
    match block.map(|b| &**b) {
        Some(Block::Dense(d)) => (d.rows(), d.cols()) == shape,
        Some(Block::Sparse(s)) => ins.zero_fill && (s.rows(), s.cols()) == shape,
        None => ins.zero_fill,
    }
}

/// The blocks of `list` in row `row` at the run's columns, in run order.
fn row_blocks<'a, 'l: 'a>(
    list: Option<&'l BlockList>,
    row: usize,
    run: &'a Run<'_>,
) -> impl Iterator<Item = Option<&'l Arc<Block>>> + 'a {
    let (first, last) = (run.coords[0].1, run.coords[run.coords.len() - 1].1);
    let mut present = list
        .into_iter()
        .flat_map(move |nb| nb.range((row, first), (row, last + 1)))
        .peekable();
    run.coords.iter().map(move |&(_, j)| {
        while present.next_if(|&((_, at), _)| at < j).is_some() {}
        present.next_if(|&((_, at), _)| at == j).map(|(_, b)| b)
    })
}

/// How an aggregation root folds each block of the node it aggregates:
/// into one value, one per row, or one per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggShape {
    /// `sum`, `min`, `max`: one value per block.
    Full,
    /// `rowSums` and the like: one value per row of the block.
    Row,
    /// `colSums` and the like: one value per column of the block.
    Col,
}

impl AggShape {
    /// The number of values a `rows × cols` block folds into.
    fn len(self, rows: usize, cols: usize) -> usize {
        match self {
            AggShape::Full => 1,
            AggShape::Row => rows,
            AggShape::Col => cols,
        }
    }

    /// Appends `b`'s fold as `Block::agg`, `row_agg` or `col_agg` gives it.
    pub fn fold_block(self, op: AggOp, b: &Block, out: &mut Vec<f64>) {
        match self {
            AggShape::Full => out.push(b.agg(op)),
            AggShape::Row => out.extend_from_slice(b.row_agg(op).data()),
            AggShape::Col => out.extend_from_slice(b.col_agg(op).data()),
        }
    }
}

/// Where [`row_pass`] sends the root's rows.
#[derive(Debug, Clone, Copy)]
enum Sink {
    /// Each block's elements into `RowScratch::outs`.
    Store,
    /// Each block's fold by `op` into `RowScratch::accs`.
    Fold(AggOp, AggShape),
}

/// Per-task scratch of [`row_pass`], reused run after run.
#[derive(Default)]
struct RowScratch<'s> {
    /// One element row of every slot: slot `x` at `x * width..`.
    rows: Vec<f64>,
    /// Every load's blocks at the run, load after load.
    blocks: Vec<Option<&'s Arc<Block>>>,
    /// Every multiplication's product panel.
    products: Vec<DenseBlock>,
    /// The fold sink's values, block after block: one, one per row, or
    /// one per column.
    accs: Vec<f64>,
    /// The store sink's blocks, each its elements row-major, in run order.
    outs: Vec<Vec<f64>>,
}

/// Evaluates `region` at a run of blocks in one pass and sends the root's
/// rows to `sink` (the module doc tells how). Returns `false` when some
/// block of the run would not be `Block::Dense` on the per-block path,
/// before the sink is touched.
fn row_pass<'s>(
    region: &'s Region,
    st: &mut RegionState<'s>,
    t: &Bound<'s>,
    run: &Run<'_>,
    sink: Sink,
) -> Result<bool, SimError> {
    let instrs = &region.instrs;
    let RegionState {
        matmuls,
        scratch: sc,
        ..
    } = st;
    let (n, width) = (run.coords.len(), run.width());
    // Every block of the run is `bs` columns wide but the last, which may
    // be narrower: the blocks of a row are its chunks of `bs`.
    let bs = run.spans[0].len();
    sc.blocks.clear();
    sc.products.clear();
    for (x, ins) in instrs.iter().enumerate() {
        match &ins.op {
            Op::Load(load) => {
                for (b, span) in row_blocks(t.loads[*load], run.row, run).zip(&run.spans) {
                    if !reads_dense(ins, b, (run.rows, span.len())) {
                        return Ok(false);
                    }
                    sc.blocks.push(b);
                }
            }
            Op::MatMul(mm) => {
                let Some(product) = matmuls[mm.state].panel(mm, t, run)? else {
                    return Ok(false);
                };
                // The compaction rule: no block of the product may hold so
                // few non-zeros that `compact()` would store it sparse. A
                // stored root is exempt: `eval_run` compacts its blocks one
                // by one.
                let stored_root = x == instrs.len() - 1 && matches!(sink, Sink::Store);
                let zeros = |span: &Range<usize>| -> usize {
                    (0..run.rows)
                        .map(|r| product.row(r)[span.clone()].iter().filter(|&&v| v == 0.0))
                        .map(Iterator::count)
                        .sum()
                };
                let compacts = !stored_root
                    && product.data().contains(&0.0)
                    && run.spans.iter().any(|span| {
                        let elems = run.rows * span.len();
                        compacts_to_sparse(elems - zeros(span), elems)
                    });
                if compacts {
                    return Ok(false);
                }
                sc.products.push(product);
            }
            Op::Cell(..) | Op::Zip { .. } => {}
            Op::Transpose(_) | Op::Fail(_) => return Ok(false),
        }
    }
    sc.rows.resize(instrs.len() * width, 0.0);
    match sink {
        Sink::Store => {
            sc.outs.clear();
            for span in &run.spans {
                sc.outs.push(Vec::with_capacity(run.rows * span.len()));
            }
        }
        Sink::Fold(op, shape) => {
            sc.accs.clear();
            let accs = match shape {
                AggShape::Full => n,
                AggShape::Row => n * run.rows,
                AggShape::Col => width,
            };
            sc.accs.resize(accs, op.identity());
        }
    }
    for r in 0..run.rows {
        let mut loads = sc.blocks.chunks(n);
        for (x, ins) in instrs.iter().enumerate() {
            let (done, rest) = sc.rows.split_at_mut(x * width);
            let (done, out) = (&*done, &mut rest[..width]);
            let products = &sc.products;
            // A product's row is read from its panel; any other slot's
            // from the rows computed before it.
            let slot = |y: usize| match &instrs[y].op {
                Op::MatMul(mm) => products[mm.state].row(r),
                _ => &done[y * width..(y + 1) * width],
            };
            match &ins.op {
                Op::Load(_) => {
                    let blocks = loads.next().ok_or_else(empty_slot)?;
                    if ins.zero_fill {
                        out.fill(0.0);
                    }
                    for (b, part) in blocks.iter().zip(out.chunks_mut(bs)) {
                        match b.map(|b| &**b) {
                            Some(Block::Dense(d)) => part.copy_from_slice(d.row(r)),
                            Some(Block::Sparse(s)) => {
                                let (cols, values) = s.row_entries(r);
                                for (&c, &v) in cols.iter().zip(values) {
                                    part[c as usize] = v;
                                }
                            }
                            None => {}
                        }
                    }
                }
                Op::MatMul(_) => {}
                Op::Cell(cell, src) => cell.apply_row(out, slot(*src)),
                Op::Zip {
                    op, l, r: right, ..
                } => zip_row(*op, out, slot(*l), slot(*right)),
                Op::Transpose(_) | Op::Fail(_) => unreachable!("rejected above"),
            }
        }
        let root = match &instrs[instrs.len() - 1].op {
            Op::MatMul(mm) => sc.products[mm.state].row(r),
            _ => &sc.rows[(instrs.len() - 1) * width..],
        };
        let blocks = root.chunks(bs);
        match sink {
            Sink::Store => {
                for (out, block) in sc.outs.iter_mut().zip(blocks) {
                    out.extend_from_slice(block);
                }
            }
            Sink::Fold(op, AggShape::Full) => {
                for (acc, block) in sc.accs.iter_mut().zip(blocks) {
                    *acc = fold_from(op, *acc, block);
                }
            }
            Sink::Fold(op, AggShape::Row) => {
                for (acc, block) in sc.accs[r..].iter_mut().step_by(run.rows).zip(blocks) {
                    *acc = fold_from(op, op.identity(), block);
                }
            }
            Sink::Fold(op, AggShape::Col) => {
                for (acc, &v) in sc.accs.iter_mut().zip(root) {
                    *acc = op.combine(*acc, v);
                }
            }
        }
    }
    Ok(true)
}

/// `acc` combined with every value in order, as `AggOp::fold` combines
/// from the identity. `sum` gets a loop of its own, so the operator is not
/// dispatched per element.
fn fold_from(op: AggOp, acc: f64, values: &[f64]) -> f64 {
    match op {
        AggOp::Sum => values.iter().fold(acc, |a, &v| AggOp::Sum.combine(a, v)),
        op => values.iter().fold(acc, |a, &v| op.combine(a, v)),
    }
}

/// `out[x] = a[x] op b[x]`. The common operators get a loop of their
/// own, so the operator is not dispatched per element.
fn zip_row(op: BinOp, out: &mut [f64], a: &[f64], b: &[f64]) {
    macro_rules! each {
        ($op:expr) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = $op.apply(x, y);
            }
        };
    }
    match op {
        BinOp::Add => each!(BinOp::Add),
        BinOp::Sub => each!(BinOp::Sub),
        BinOp::Mul => each!(BinOp::Mul),
        BinOp::Div => each!(BinOp::Div),
        op => each!(op),
    }
}

/// A run of blocks in one block row, laid out side by side in a row panel.
struct Run<'a> {
    row: usize,
    coords: &'a [Coord],
    /// Element rows of the panel.
    rows: usize,
    /// Each block's columns in the panel.
    spans: Vec<Range<usize>>,
}

impl<'a> Run<'a> {
    /// The layout of `coords`, blocks of `meta`'s grid in one block row,
    /// columns ascending.
    fn new(meta: &MatrixMeta, coords: &'a [Coord]) -> Run<'a> {
        let row = coords[0].0;
        // Only the last block column can be narrower than the block size.
        let last = meta.grid().block_cols - 1;
        let (rows, narrow) = meta.block_dims(row, last);
        let mut at = 0;
        let spans = coords
            .iter()
            .map(|&(_, j)| {
                let cols = if j == last { narrow } else { meta.block_size };
                at += cols;
                at - cols..at
            })
            .collect();
        debug_assert!(coords.windows(2).all(|w| w[1].0 == row && w[0].1 < w[1].1));
        Run {
            row,
            coords,
            rows,
            spans,
        }
    }

    /// Element columns of the panel.
    fn width(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end)
    }

    /// The index in the run of its block at column `j`, if any.
    fn index(&self, j: usize) -> Option<usize> {
        let n = j.wrapping_sub(self.coords[0].1);
        match self.coords.get(n) {
            Some(&(_, at)) if at == j => Some(n),
            _ => self.coords.binary_search_by_key(&j, |c| c.1).ok(),
        }
    }
}

/// Computes a memoized operand's block at `c` unless the task has it.
fn fill<'s>(
    operand: &'s Operand,
    memo: &mut Option<Memo<'s>>,
    t: &Bound<'s>,
    c: Coord,
) -> Result<(), SimError> {
    if let (Operand::Program(region), Some(m)) = (operand, memo) {
        if !m.values.contains_key(&c) {
            let v = eval_region(region, &mut m.state, t, c)?.into_arc()?;
            m.values.insert(c, v);
        }
    }
    Ok(())
}

/// A [`BlockProgram`] bound to one task's store and k-slice.
pub struct TaskProgram<'s> {
    program: &'s BlockProgram,
    bound: Bound<'s>,
    state: RegionState<'s>,
}

impl<'s> TaskProgram<'s> {
    /// The coordinates of `tile` at which the node can be non-zero, in
    /// tile order. When a sparse input gates the node, candidates are that
    /// input's blocks present in the store rather than every coordinate of
    /// the tile.
    pub fn supported(&self, tile: &Footprint) -> Vec<Coord> {
        let sup = &self.program.region.sup;
        if let (Some((load, swap)), true) = (sup.driver(), tile.is_row_major()) {
            let Some(nb) = self.bound.loads[load] else {
                return Vec::new();
            };
            if nb.len() < tile.len() {
                let mut out: Vec<Coord> = nb
                    .coords()
                    .iter()
                    .map(|&c| swap_if(swap, c))
                    .filter(|&c| tile.contains(c) && sup.holds(&self.bound, c))
                    .collect();
                if swap {
                    out.sort_unstable();
                }
                return out;
            }
        }
        if let [Term::Product(rows, cols)] = tile.terms.as_slice() {
            let span = cols[0]..cols[cols.len() - 1] + 1;
            let mut holds = vec![false; span.len()];
            let mut out = Vec::new();
            for &i in rows {
                sup.row(&self.bound, i, &span, &mut holds);
                out.extend(
                    cols.iter()
                        .filter(|&&j| holds[j - span.start])
                        .map(|&j| (i, j)),
                );
            }
            return out;
        }
        tile.coords()
            .filter(|&c| sup.holds(&self.bound, c))
            .collect()
    }

    /// The node's block at `c`.
    pub fn eval(&mut self, c: Coord) -> Result<Arc<Block>, SimError> {
        eval_region(&self.program.region, &mut self.state, &self.bound, c)?.into_arc()
    }

    /// The node's blocks at `run`, coordinates in one block row with
    /// columns ascending, handed to `f` in order: the blocks
    /// [`TaskProgram::eval`] returns, with the same bits and formats. A run
    /// of two or more blocks is stored by the row pass when every block of
    /// it would be dense on the way, or the node is the multiplication
    /// whose blocks are compacted one by one; otherwise it goes block by
    /// block.
    pub fn eval_run(
        &mut self,
        run: &[Coord],
        mut f: impl FnMut(Coord, Arc<Block>) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let Some(layout) = self.pass_or_each(run, Sink::Store, &mut f)? else {
            return Ok(());
        };
        // A product block is what `MatMulState::product` makes of the same
        // elements: `compact()` of the dense accumulator.
        let product = matches!(
            self.program.region.instrs.last(),
            Some(Instr {
                op: Op::MatMul(_),
                ..
            })
        );
        let outs = self.state.scratch.outs.drain(..);
        for ((&c, span), data) in run.iter().zip(&layout.spans).zip(outs) {
            let block = Block::Dense(DenseBlock::from_vec(layout.rows, span.len(), data)?);
            f(c, Arc::new(if product { block.compact() } else { block }))?;
        }
        Ok(())
    }

    /// The fold of the node's blocks at `run` for an aggregation root `op`
    /// of `shape`, handed to `f` block by block in order: the values
    /// [`AggShape::fold_block`] gives for the block [`TaskProgram::eval`]
    /// returns, with the same bits. A run of two or more blocks is folded
    /// by the row pass when every block of it would be dense on the way;
    /// otherwise block by block.
    pub fn fold_run(
        &mut self,
        run: &[Coord],
        op: AggOp,
        shape: AggShape,
        mut f: impl FnMut(Coord, &[f64]),
    ) -> Result<(), SimError> {
        let mut values = Vec::new();
        let each = |c, b: Arc<Block>| {
            values.clear();
            shape.fold_block(op, &b, &mut values);
            f(c, &values);
            Ok(())
        };
        let Some(layout) = self.pass_or_each(run, Sink::Fold(op, shape), each)? else {
            return Ok(());
        };
        let mut at = 0;
        for (&c, span) in run.iter().zip(&layout.spans) {
            let len = shape.len(layout.rows, span.len());
            f(c, &self.state.scratch.accs[at..at + len]);
            at += len;
        }
        Ok(())
    }

    /// Runs `run` through the row pass into `sink` when the run qualifies,
    /// returning its layout; otherwise hands `each` every block as
    /// [`TaskProgram::eval`] returns it, and returns `None`.
    fn pass_or_each<'r>(
        &mut self,
        run: &'r [Coord],
        sink: Sink,
        mut each: impl FnMut(Coord, Arc<Block>) -> Result<(), SimError>,
    ) -> Result<Option<Run<'r>>, SimError> {
        let region = &self.program.region;
        if let Some(root) = (region.instrs.last()).filter(|_| run.len() > 1 && region.panels) {
            let layout = Run::new(&root.meta, run);
            if row_pass(region, &mut self.state, &self.bound, &layout, sink)? {
                return Ok(Some(layout));
            }
        }
        for &c in run {
            each(c, self.eval(c)?)?;
        }
        Ok(None)
    }
}

// ----- footprints ----------------------------------------------------------------

/// A set of block coordinates of one node, kept as a short union of terms
/// rather than enumerated: what a task computes of a node, or needs of an
/// input. Terms may overlap; [`Footprint::coords`] then repeats
/// coordinates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Footprint {
    terms: Vec<Term>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Term {
    /// Exactly these coordinates, sorted row-major and distinct.
    Blocks(Vec<Coord>),
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
    /// Exactly the given coordinates (a striped task's round-robin share),
    /// kept sorted row-major.
    pub fn blocks(mut coords: Vec<Coord>) -> Self {
        coords.sort_unstable();
        coords.dedup();
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
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.terms.iter().flat_map(|t| {
            let (listed, product): (&[Coord], _) = match t {
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

    /// The blocks of `list` at the footprint's coordinates, term by term: a
    /// product walks each row's present blocks over the term's column span,
    /// an exact list looks each coordinate up. Overlapping terms repeat
    /// blocks.
    pub fn present<'a>(
        &'a self,
        list: &'a BlockList,
    ) -> impl Iterator<Item = (Coord, &'a Arc<Block>)> {
        self.terms
            .iter()
            .flat_map(move |t| -> Box<dyn Iterator<Item = _>> {
                match t {
                    Term::Blocks(b) => Box::new(
                        b.iter()
                            .filter_map(move |&at| list.get(at).map(|x| (at, x))),
                    ),
                    Term::Product(rows, cols) => Box::new(rows.iter().flat_map(move |&i| {
                        list.range((i, cols[0]), (i, cols[cols.len() - 1] + 1))
                            .filter(move |((_, j), _)| cols.binary_search(j).is_ok())
                    })),
                }
            })
    }

    /// Number of coordinates [`Footprint::coords`] yields.
    fn len(&self) -> usize {
        self.terms
            .iter()
            .map(|t| match t {
                Term::Blocks(b) => b.len(),
                Term::Product(r, c) => r.len() * c.len(),
            })
            .sum()
    }

    /// `true` when [`Footprint::coords`] yields distinct coordinates in
    /// row-major order: at most one term (every task tile).
    fn is_row_major(&self) -> bool {
        self.terms.len() <= 1
    }

    fn contains(&self, c: Coord) -> bool {
        self.terms.iter().any(|t| match t {
            Term::Blocks(b) => b.binary_search(&c).is_ok(),
            Term::Product(r, cols) => {
                r.binary_search(&c.0).is_ok() && cols.binary_search(&c.1).is_ok()
            }
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

    /// The footprint with rows and columns swapped.
    pub(crate) fn transposed(&self) -> Footprint {
        let terms = self
            .terms
            .iter()
            .map(|t| match t {
                Term::Blocks(b) => {
                    let mut b: Vec<Coord> = b.iter().map(|&(i, j)| (j, i)).collect();
                    b.sort_unstable();
                    Term::Blocks(b)
                }
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
    use fuseme_matrix::{gen, BlockedMatrix};
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
            store.insert(id, m.blocks().clone());
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

    fn assert_close(got: &Block, want: &Block) {
        let (g, w) = (got.to_dense(), want.to_dense());
        assert_eq!((g.rows(), g.cols()), (w.rows(), w.cols()));
        for (a, b) in g.data().iter().zip(w.data()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn kernel_matches_reference_per_block() {
        let (dag, ops, root, mm, store, expected) = setup();
        let program = BlockProgram::compile(&dag, &ops, Some(mm), root);
        let mut task = program.bind(&store, 0..2);
        for bi in 0..4 {
            for bj in 0..4 {
                let got = task.eval((bi, bj)).unwrap();
                assert_close(&got, &expected.block_or_zero(bi, bj));
                // X gates the output: the result keeps X's sparse pattern.
                if let Some(x) = expected.block(bi, bj) {
                    assert_eq!(got.is_sparse(), x.is_sparse(), "block ({bi},{bj})");
                }
            }
        }
    }

    #[test]
    fn support_skips_empty_gated_blocks() {
        let (dag, ops, root, mm, store, _) = setup();
        // Build a store without X at all: every output block loses support.
        let x_id = dag
            .nodes()
            .iter()
            .find(|n| matches!(&n.kind, OpKind::Input { name } if name == "X"))
            .unwrap()
            .id;
        let mut emptied = LocalStore::new();
        for (node, _) in store.keys().filter(|(n, _)| *n != x_id) {
            emptied.insert(node, store.node(node).unwrap().clone());
        }
        let program = BlockProgram::compile(&dag, &ops, Some(mm), root);
        let task = program.bind(&emptied, 0..2);
        let tile = Footprint::product(0..4, 0..4);
        assert!(task.supported(&tile).is_empty());
        // With X present, the supported blocks are exactly X's.
        let full = program.bind(&store, 0..2);
        let x_blocks: Vec<Coord> = store
            .keys()
            .filter(|(n, _)| *n == x_id)
            .map(|k| k.1)
            .collect();
        assert_eq!(full.supported(&tile), x_blocks);
    }

    #[test]
    fn partial_k_slices_sum_to_full() {
        let (dag, ops, _root, mm, store, _) = setup();
        // Evaluate the matmul on two k-slices; their sum must equal the
        // full-range evaluation.
        let program = BlockProgram::compile(&dag, &ops, Some(mm), mm);
        let mut full = program.bind(&store, 0..2);
        let mut lo = program.bind(&store, 0..1);
        let mut hi = program.bind(&store, 1..2);
        for bi in 0..4 {
            for bj in 0..4 {
                let f = full.eval((bi, bj)).unwrap().to_dense();
                let a = lo.eval((bi, bj)).unwrap().to_dense();
                let b = hi.eval((bi, bj)).unwrap().to_dense();
                for ((x, y), z) in f.data().iter().zip(a.data()).zip(b.data()) {
                    assert!((x - (y + z)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn stage_two_reads_the_product_from_the_store() {
        // Stage 2 of X * (U × Vᵀ) is the plan without its multiplication,
        // over a store holding the aggregated product as that node. A
        // product block the group never produced gates its output block
        // away: it is skipped, not evaluated.
        let x = gen::sparse_uniform(20, 20, 5, 0.3, 1.0, 2.0, 1).unwrap();
        let u = gen::dense_uniform(20, 10, 5, 0.1, 1.0, 2).unwrap();
        let v = gen::dense_uniform(20, 10, 5, 0.1, 1.0, 3).unwrap();
        let product = u.matmul(&v.transpose().unwrap()).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let vt = b.transpose(ve);
        let mm = b.matmul(ue, vt);
        let out = b.binary(xe, mm, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let gap = x.blocks().coords()[0];
        let mut store = LocalStore::new();
        store.insert(xe.id(), x.blocks().clone());
        let held = product.blocks().iter().filter(|&(c, _)| c != gap);
        let held: BlockList = held.map(|(c, b)| (c, Arc::clone(b))).collect();
        store.insert(mm.id(), held);
        let rest = BTreeSet::from([vt.id(), out.id()]);
        let program = BlockProgram::compile(&dag, &rest, Some(mm.id()), out.id());
        let mut stage2 = program.bind(&store, 0..0);
        let want: Vec<Coord> = x
            .blocks()
            .coords()
            .iter()
            .copied()
            .filter(|&c| c != gap)
            .collect();
        assert_eq!(stage2.supported(&Footprint::product(0..4, 0..4)), want);
        let expected = x.zip(&product, BinOp::Mul).unwrap();
        for (bi, bj) in want {
            assert_close(
                &stage2.eval((bi, bj)).unwrap(),
                &expected.block_or_zero(bi, bj),
            );
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
    ) -> BTreeSet<(NodeId, Coord)> {
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
        // A node read twice inside the plan is one instruction: computed
        // once per block.
        let bs = 4;
        let x = gen::dense_uniform(8, 8, bs, 0.0, 1.0, 7).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let sq = b.unary(xe, UnaryOp::Square);
        let dbl = b.binary(sq, sq, BinOp::Add); // diamond on sq
        let dag = b.finish(vec![dbl]);
        let ops = BTreeSet::from([sq.id(), dbl.id()]);
        let mut store = LocalStore::new();
        store.insert(xe.id(), x.blocks().clone());
        let program = BlockProgram::compile(&dag, &ops, None, dbl.id());
        let mut task = program.bind(&store, 0..0);
        let v = task.eval((0, 0)).unwrap();
        let direct = x.block_or_zero(0, 0).map(UnaryOp::Square);
        let expect = direct.zip(&direct, BinOp::Add).unwrap();
        assert_eq!(v.to_dense(), expect.to_dense());
        // Load X, square, add: sq has one slot with two readers.
        let instrs = &program.region.instrs;
        assert_eq!(instrs.len(), 3);
        assert_eq!(instrs[1].uses, 2);
    }

    #[test]
    fn gated_chain_is_deferred_and_transposes_are_memoized() {
        let (dag, ops, root, mm, _, _) = setup();
        let program = BlockProgram::compile(&dag, &ops, Some(mm), root);
        // X, the multiplication, +eps and log; the multiplication and the
        // chain above it wait for X.
        let instrs = &program.region.instrs;
        let deferred = instrs.iter().filter(|i| i.deferred).count();
        assert_eq!((instrs.len(), deferred), (5, 3));
        // t(V) is a multiplication operand with a program of its own; U
        // comes straight from the store.
        let Some(Op::MatMul(m)) = instrs
            .iter()
            .map(|i| &i.op)
            .find(|o| matches!(o, Op::MatMul(_)))
        else {
            panic!("no multiplication");
        };
        assert!(matches!(m.left, Operand::Load(_)));
        assert!(matches!(m.right, Operand::Program(_)));
    }

    /// The lane-wise `floor` against its serial definition, an early-exit
    /// fold of `f64::min` over the entries, on random blocks: dense blocks
    /// of positive entries (subnormals and `+inf` among them) with or
    /// without a sprinkling of NaN, `±0.0`, negatives and `-inf`, sparse
    /// blocks, and blocks with no entries.
    #[test]
    fn floor_matches_its_serial_definition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let serial = |b: &Block| match b {
            Block::Dense(d) if !d.data().is_empty() => d
                .data()
                .iter()
                .try_fold(f64::INFINITY, |m, &v| (v > 0.0).then(|| m.min(v))),
            _ => None,
        };
        let positive = [
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
        ];
        let hazards = [f64::NAN, 0.0, -0.0, -1.5, -5e-324, f64::NEG_INFINITY];
        let mut rng = StdRng::seed_from_u64(11);
        let (mut some, mut none) = (0, 0);
        for _ in 0..2000 {
            let (rows, cols) = (rng.gen_range(0..10), rng.gen_range(0..10));
            let hazard_rate = if rng.gen_bool(0.5) { 0.0 } else { 0.05 };
            let data = (0..rows * cols)
                .map(|_| {
                    if rng.gen_bool(hazard_rate) {
                        hazards[rng.gen_range(0..hazards.len())]
                    } else if rng.gen_bool(0.1) {
                        positive[rng.gen_range(0..positive.len())]
                    } else {
                        rng.gen_range(1e-3..1e3)
                    }
                })
                .collect();
            let dense = DenseBlock::from_vec(rows, cols, data).unwrap();
            let block = if rng.gen_bool(0.2) {
                Block::Sparse(SparseBlock::from_dense(&dense))
            } else {
                Block::Dense(dense)
            };
            let want = serial(&block);
            assert_eq!(
                floor(&block).map(f64::to_bits),
                want.map(f64::to_bits),
                "{block:?}"
            );
            if want.is_some() {
                some += 1;
            } else {
                none += 1;
            }
        }
        assert!(some > 500 && none > 500, "{some} certified, {none} not");
    }

    #[test]
    fn absent_blocks_share_one_zero_block_per_shape() {
        // A 10 × 10 matrix in 4 × 4 blocks has four block shapes. Only
        // block (0, 0) of X and Y is present, so a load elsewhere and the
        // product X × Y outside (0, 0) read the program's zero blocks.
        let meta = MatrixMeta::dense(10, 10, 4);
        let one = Block::Dense(DenseBlock::filled(4, 4, 1.0));
        let x = BlockedMatrix::from_blocks(meta, [((0, 0), one)]).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", meta);
        let ye = b.input("Y", meta);
        let mm = b.matmul(xe, ye);
        let dag = b.finish(vec![mm]);
        let mut store = LocalStore::new();
        store.insert(xe.id(), x.blocks().clone());
        store.insert(ye.id(), x.blocks().clone());
        let load = BlockProgram::compile(&dag, &BTreeSet::new(), None, xe.id());
        let product = BlockProgram::compile(&dag, &BTreeSet::from([mm.id()]), None, mm.id());
        for program in [&load, &product] {
            let mut task = program.bind(&store, 0..3);
            let (a, b) = (task.eval((1, 1)).unwrap(), task.eval((0, 1)).unwrap());
            assert!(Arc::ptr_eq(&a, &b), "same shape, same block");
            assert_eq!((a.nnz(), a.is_sparse()), (0, true));
            let edge = task.eval((2, 1)).unwrap();
            assert_eq!((edge.rows(), edge.cols()), (2, 4));
            assert!(Arc::ptr_eq(&edge, &task.eval((2, 0)).unwrap()));
        }
    }

    /// `terms` lists the same `k`s whichever candidates it walks: the left
    /// operand's present blocks, the right's, or the whole slice, on random
    /// stores. Operands are store nodes, transposed or not, alone or ANDed
    /// with a third node, and a node may be missing from the store. With
    /// `j` every walk must give the slice filtered by both supports; without
    /// it the left walk must give the slice filtered by the left support,
    /// also when `f` stops early as `Sup::row` does.
    #[test]
    fn terms_agree_whichever_operand_they_walk() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let one = Arc::new(Block::Dense(DenseBlock::filled(1, 1, 1.0)));
        let grid = 9;
        let mut rng = StdRng::seed_from_u64(7);
        let mut walked_right = 0;
        for _ in 0..300 {
            let mut lists = Vec::new();
            for _ in 0..3 {
                let density = rng.gen_range(0.05..0.9);
                let mut list = BlockList::default();
                for i in 0..grid {
                    for j in 0..grid {
                        if rng.gen_bool(density) {
                            list.insert((i, j), Arc::clone(&one));
                        }
                    }
                }
                lists.push(list);
            }
            let operand = |load: usize, rng: &mut StdRng| {
                let present = Sup::Present {
                    load,
                    swap: rng.gen_bool(0.5),
                };
                match rng.gen_bool(0.3) {
                    true => Sup::and(
                        Sup::Present {
                            load: 2,
                            swap: false,
                        },
                        present,
                    ),
                    false => present,
                }
            };
            let m = MmSup {
                swap: false,
                main: rng.gen_bool(0.5),
                k_full: grid,
                left: operand(0, &mut rng),
                right: operand(1, &mut rng),
            };
            let start = rng.gen_range(0..grid);
            let missing = rng.gen_range(0..6);
            let t = Bound {
                loads: (0..3).map(|l| (l != missing).then(|| &lists[l])).collect(),
                k_range: start..rng.gen_range(start..=grid),
            };
            let listed = |i, j, walk, stop: usize| {
                let mut ks = Vec::new();
                m.terms_from(&t, i, j, walk, |k| {
                    ks.push(k);
                    ks.len() < stop
                });
                ks
            };
            for i in 0..grid {
                for j in (0..grid).map(Some).chain([None]) {
                    let want: Vec<usize> = (m.ks(&t))
                        .filter(|&k| m.left.holds(&t, (i, k)))
                        .filter(|&k| j.is_none_or(|j| m.right.holds(&t, (k, j))))
                        .collect();
                    let (left, right) = m.walks(i, j);
                    assert!(left.is_some() && right.is_some() == j.is_some());
                    let stop = if j.is_some() {
                        usize::MAX
                    } else {
                        rng.gen_range(1..4)
                    };
                    let want = &want[..want.len().min(stop)];
                    for walk in [left, right, None] {
                        assert_eq!(listed(i, j, walk, stop), want, "{walk:?} at ({i}, {j:?})");
                    }
                    let mut auto = Vec::new();
                    m.terms(&t, i, j, |k| {
                        auto.push(k);
                        auto.len() < stop
                    });
                    assert_eq!(auto, want, "({i}, {j:?})");
                    let len = |w: Walk| t.loads[w.load].map_or(0, |nb| w.len(nb, &m.ks(&t)));
                    if let (Some(l), Some(r)) = (left, right) {
                        walked_right += usize::from(len(r) < len(l));
                    }
                }
            }
        }
        assert!(
            walked_right > 1000,
            "the right operand was walked {walked_right} times"
        );
    }

    #[test]
    fn store_keeps_blocks_sorted_per_node() {
        let blk = |v: f64| Arc::new(Block::Dense(DenseBlock::filled(1, 1, v)));
        let mut s = LocalStore::new();
        let list = |entries: &[(Coord, Arc<Block>)]| entries.iter().cloned().collect::<BlockList>();
        s.insert(3, list(&[((1, 0), blk(1.0)), ((0, 2), blk(3.0))]));
        s.insert(1, list(&[((0, 1), blk(2.0))]));
        s.insert(
            3,
            list(&[((1, 0), blk(1.0)), ((0, 2), blk(3.0)), ((1, 0), blk(4.0))]),
        );
        s.insert(2, BlockList::default());
        let keys: Vec<_> = s.keys().collect();
        assert_eq!(keys, vec![(1, (0, 1)), (3, (0, 2)), (3, (1, 0))]);
        assert_eq!(s.get(3, (1, 0)).unwrap().get(0, 0), 4.0);
        assert_eq!((s.total_bytes(), s.node_bytes(3)), (24, 16));
        let nb = s.node(3).unwrap();
        assert_eq!(nb.row(1, &(0..5)).collect::<Vec<_>>(), vec![0]);
        assert_eq!(nb.col(2, &(0..5)).collect::<Vec<_>>(), vec![0]);
        assert_eq!(nb.col(2, &(1..5)).count(), 0);
        assert_eq!((nb.row_len(1, &(0..5)), nb.row_len(1, &(1..5))), (1, 0));
        assert_eq!((nb.col_len(2, &(0..5)), nb.col_len(2, &(1..5))), (1, 0));
    }

    #[test]
    fn inserting_an_empty_list_drops_what_was_held() {
        let blk = Arc::new(Block::Dense(DenseBlock::filled(1, 1, 1.0)));
        let mut s = LocalStore::new();
        s.insert(1, BlockList::from_iter([((0, 0), Arc::clone(&blk))]));
        s.insert(2, BlockList::from_iter([((0, 1), blk)]));
        s.insert(1, BlockList::default());
        assert!(s.node(1).is_none() && s.get(1, (0, 0)).is_none());
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![(2, (0, 1))]);
        assert_eq!((s.total_bytes(), s.node_bytes(1)), (8, 0));
    }
}
