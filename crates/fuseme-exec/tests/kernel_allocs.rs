//! Allocations per output block of the fused kernels.
//!
//! A counting global allocator (installed in this test binary only) pins
//! what the kernels allocate.
//!
//! * The NMF chain `X * log(U %*% t(V) + eps)`, once the task's memoized
//!   `t(V)` blocks exist and its gated-cell scratch (the cell list and the
//!   dots) has grown, both in the first pass, per task. Gated, the
//!   multiplication runs only at `X`'s stored cells, reading `U`'s and
//!   `t(V)`'s blocks in place, so a block allocates its sparse output (row
//!   pointers, column indices, values) and the `Arc` handed back — four
//!   allocations. A product whose certificate fails (an operand entry that
//!   is not `> 0`) takes the dense accumulator first — five. A
//!   per-operator intermediate `Block` (`+ eps`, `log`) or a
//!   per-(node, block) map entry would add to either.
//! * GNMF's loss `sum((X - V %*% U)^2)`, folded a run of blocks at a
//!   time. A run on the row pass allocates per run, not per block: the
//!   run's layout, the left operand blocks and the product panel. The
//!   fold runs in the same pass from the task's scratch, so no other panel
//!   exists: `X` is read from its blocks, and the difference and its
//!   square from one element row.
//! * The stage-1 partial product of GNMF's update, `t(Y) %*% X`, a run of
//!   blocks at a time: the left operand's blocks are read transposed
//!   straight from the store into the task's slots, and each term is added
//!   into the run's product panel where `X` has a block. A run allocates
//!   its layout and its product panel, and each block its elements and the
//!   `Arc` handed back, however many terms it sums.
//! * The same compute node `(X - V %*% U)^2` as a stored output,
//!   evaluated a run of blocks at a time by the same pass: the same three
//!   allocations per run, and per block only its elements and the `Arc`
//!   handed back. A row whose product compacts to sparse goes block by
//!   block, as many times as before, after the three allocations of the
//!   abandoned pass; its output blocks are never allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use fuseme_exec::kernel::{AggShape, BlockProgram, Footprint};
use fuseme_exec::LocalStore;
use fuseme_matrix::{gen, AggOp, BinOp, Block, UnaryOp};
use fuseme_plan::{DagBuilder, NodeId, QueryDag};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Evaluates every supported output block of `X * log(U %*% t(V) + eps)`
/// twice — the first pass memoizes `t(V)` and sizes the task's scratch —
/// and returns each block of the second pass with its coordinate and the
/// allocations it took. `U`'s entry `(0, 0)` is set to `u00` when given.
fn nmf_chain_allocations(u00: Option<f64>) -> Vec<((usize, usize), Arc<Block>, u64)> {
    let bs = 4;
    let x = gen::sparse_uniform(64, 64, bs, 0.05, 1.0, 2.0, 1).unwrap();
    let mut u = gen::dense_uniform(64, 12, bs, 0.1, 1.0, 2).unwrap();
    let v = gen::dense_uniform(64, 12, bs, 0.1, 1.0, 3).unwrap();
    if let Some(value) = u00 {
        let mut first = u.block(0, 0).unwrap().to_dense();
        first.set(0, 0, value);
        u.set_block(0, 0, Block::Dense(first)).unwrap();
    }
    let mut b = DagBuilder::new();
    let xe = b.input("X", *x.meta());
    let ue = b.input("U", *u.meta());
    let ve = b.input("V", *v.meta());
    let vt = b.transpose(ve);
    let mm = b.matmul(ue, vt);
    let eps = b.scalar(1e-8);
    let add = b.binary(mm, eps, BinOp::Add);
    let lg = b.unary(add, UnaryOp::Log);
    let out = b.binary(xe, lg, BinOp::Mul);
    let dag = b.finish(vec![out]);
    let ops = BTreeSet::from([vt.id(), mm.id(), add.id(), lg.id(), out.id()]);
    let mut store = LocalStore::new();
    for (m, id) in [(&x, xe.id()), (&u, ue.id()), (&v, ve.id())] {
        store.insert(id, m.blocks().clone());
    }

    let program = BlockProgram::compile(&dag, &ops, Some(mm.id()), out.id());
    let mut task = program.bind(&store, 0..3);
    let supported = task.supported(&Footprint::product(0..16, 0..16));
    assert!(supported.len() > 20, "{} supported blocks", supported.len());
    for &c in &supported {
        task.eval(c).unwrap();
    }
    let mut blocks = Vec::with_capacity(supported.len());
    for &c in &supported {
        let before = allocs();
        let block = task.eval(c).unwrap();
        blocks.push((c, block, allocs() - before));
    }
    blocks
}

#[test]
fn gated_nmf_chain_allocates_four_times_per_output_block() {
    let blocks = nmf_chain_allocations(None);
    let per_block: Vec<u64> = blocks.iter().map(|b| b.2).collect();
    assert!(per_block.iter().all(|&n| n == 4), "{per_block:?}");
    assert!(blocks.iter().all(|b| b.1.is_sparse()));
}

#[test]
fn uncertified_products_fall_back_to_the_dense_accumulator() {
    // A zero in U's block (0, 0) voids the certificate for the products of
    // block row 0, which take the accumulator again; the rest stay gated.
    let blocks = nmf_chain_allocations(Some(0.0));
    assert!(blocks.iter().any(|b| b.0 .0 == 0) && blocks.iter().any(|b| b.0 .0 > 0));
    for ((bi, bj), block, n) in &blocks {
        let want = if *bi == 0 { 5 } else { 4 };
        assert_eq!(*n, want, "block ({bi}, {bj})");
        assert!(block.is_sparse(), "block ({bi}, {bj})");
    }
}

/// The loss's compute node `(X - V %*% U)^2` over 4 block rows and 32
/// block columns, with its multiplication and root, and the store holding
/// its inputs. `X` is sparse with absent blocks; `V` and `U` are dense,
/// except that `V`'s block row 1 keeps one non-zero row of four, so its
/// products compact to sparse.
fn loss_fixture() -> (QueryDag, BTreeSet<NodeId>, NodeId, NodeId, LocalStore) {
    let bs = 4;
    let x = gen::sparse_uniform(16, 128, bs, 0.05, 1.0, 2.0, 1).unwrap();
    let mut v = gen::dense_uniform(16, 12, bs, 0.1, 1.0, 2).unwrap();
    let u = gen::dense_uniform(12, 128, bs, 0.1, 1.0, 3).unwrap();
    for bk in 0..3 {
        let mut thin = v.block(1, bk).unwrap().to_dense();
        for r in 1..bs {
            for c in 0..bs {
                thin.set(r, c, 0.0);
            }
        }
        v.set_block(1, bk, Block::Dense(thin)).unwrap();
    }
    let mut b = DagBuilder::new();
    let xe = b.input("X", *x.meta());
    let ve = b.input("V", *v.meta());
    let ue = b.input("U", *u.meta());
    let mm = b.matmul(ve, ue);
    let diff = b.binary(xe, mm, BinOp::Sub);
    let sq = b.unary(diff, UnaryOp::Square);
    let dag = b.finish(vec![sq]);
    let ops = BTreeSet::from([mm.id(), diff.id(), sq.id()]);
    let mut store = LocalStore::new();
    for (m, id) in [(&x, xe.id()), (&v, ve.id()), (&u, ue.id())] {
        store.insert(id, m.blocks().clone());
    }
    assert!(x.present_blocks() < 4 * 32, "some X blocks are absent");
    (dag, ops, mm.id(), sq.id(), store)
}

/// Block row `i` of the fixture's 32 block columns.
fn run(i: usize) -> Vec<(usize, usize)> {
    (0..32).map(|j| (i, j)).collect()
}

/// What evaluating row `row` of the loss's compute node as one run, after
/// row `row + 1` (which sizes the task's scratch and stacks `U`'s panel)
/// and one block of that row alone (whose `k` walk builds the column index
/// of `U`'s list, once per list), allocates and hands back, and what
/// evaluating the same blocks one by one afterwards does.
struct Stored {
    run_allocs: u64,
    run: Vec<Arc<Block>>,
    each_allocs: u64,
    each: Vec<Arc<Block>>,
}

fn loss_run_allocations(row: usize) -> Stored {
    let (dag, ops, mm, sq, store) = loss_fixture();
    let program = BlockProgram::compile(&dag, &ops, Some(mm), sq);
    let mut task = program.bind(&store, 0..3);
    task.eval_run(&run(row + 1), |_, _| Ok(())).unwrap();
    task.eval((row + 1, 0)).unwrap();
    let (coords, mut run) = (run(row), Vec::with_capacity(32));
    let before = allocs();
    task.eval_run(&coords, |_, b| {
        run.push(b);
        Ok(())
    })
    .unwrap();
    let run_allocs = allocs() - before;
    let mut each = Vec::with_capacity(32);
    let before = allocs();
    for &c in &coords {
        each.push(task.eval(c).unwrap());
    }
    Stored {
        run_allocs,
        run,
        each_allocs: allocs() - before,
        each,
    }
}

/// The two lists hold the same blocks, bit for bit and format for format.
fn assert_same_blocks(got: &[Arc<Block>], want: &[Arc<Block>]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.is_sparse(), w.is_sparse());
        let bits =
            |b: &Block| -> Vec<u64> { b.to_dense().data().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(g), bits(w));
    }
}

#[test]
fn loss_runs_allocate_three_times_per_run_on_the_fused_fold() {
    // Row 2 folds as `sum` does, after row 3 sized the scratch; each
    // block's fold has the bits of the block's own `agg`.
    let (dag, ops, mm, sq, store) = loss_fixture();
    let program = BlockProgram::compile(&dag, &ops, Some(mm), sq);
    let mut task = program.bind(&store, 0..3);
    let mut sum = |run: &[(usize, usize)], folds: &mut Vec<f64>| {
        task.fold_run(run, AggOp::Sum, AggShape::Full, |_, v| folds.extend(v))
            .unwrap();
    };
    sum(&run(3), &mut Vec::with_capacity(32));
    let (row, mut folds) = (run(2), Vec::with_capacity(32));
    let before = allocs();
    sum(&row, &mut folds);
    let n = allocs() - before;
    assert_eq!((n, folds.len()), (3, 32));
    for (&c, fold) in row.iter().zip(&folds) {
        let want = task.eval(c).unwrap().agg(AggOp::Sum);
        assert_eq!(fold.to_bits(), want.to_bits(), "block {c:?}");
    }
}

#[test]
fn stored_loss_runs_allocate_three_times_per_run_and_twice_per_block() {
    // Row 2's products are dense: the row pass stores it, each block's
    // elements appended row by row to one buffer and wrapped in an `Arc`.
    let stored = loss_run_allocations(2);
    assert_eq!(stored.run_allocs, 3 + 2 * 32);
    assert!(stored.run.iter().all(|b| !b.is_sparse()));
    assert_same_blocks(&stored.run, &stored.each);
}

#[test]
fn loss_rows_that_compact_to_sparse_go_block_by_block() {
    // The pass is abandoned once the product is known, before any output
    // block exists: its three allocations are spent, then every block
    // allocates as `eval` does.
    let stored = loss_run_allocations(1);
    assert!(stored.run.iter().any(|b| b.is_sparse()));
    assert_eq!(stored.run_allocs, stored.each_allocs + 3);
    assert!(
        stored.each_allocs >= stored.run.len() as u64,
        "{} for {} blocks",
        stored.each_allocs,
        stored.run.len()
    );
    assert_same_blocks(&stored.run, &stored.each);
}

/// `t(Y) %*% X`, with `Y` dense and positive, 64 × 8, and `X` sparse,
/// 64 × 64 at density 0.3, both in 4 × 4 blocks, as the main
/// multiplication of a stage-1 task whose k-slice is `ks`: what evaluating
/// block row 0 as one run, after row 1, allocates and hands back, and what
/// evaluating its blocks one by one afterwards hands back.
fn update_run(ks: std::ops::Range<usize>) -> (u64, Vec<Arc<Block>>, Vec<Arc<Block>>) {
    let bs = 4;
    let x = gen::sparse_uniform(64, 64, bs, 0.3, 1.0, 2.0, 1).unwrap();
    let y = gen::dense_uniform(64, 8, bs, 0.1, 1.0, 2).unwrap();
    let mut b = DagBuilder::new();
    let xe = b.input("X", *x.meta());
    let ye = b.input("Y", *y.meta());
    let yt = b.transpose(ye);
    let mm = b.matmul(yt, xe);
    let dag = b.finish(vec![mm]);
    let mut store = LocalStore::new();
    store.insert(xe.id(), x.blocks().clone());
    store.insert(ye.id(), y.blocks().clone());
    let program = BlockProgram::compile(
        &dag,
        &BTreeSet::from([yt.id(), mm.id()]),
        Some(mm.id()),
        mm.id(),
    );
    let mut task = program.bind(&store, ks);
    // Row 1 sizes the slots and the scratch.
    task.eval_run(&row_of(1), |_, _| Ok(())).unwrap();
    let coords = row_of(0);
    let mut run = Vec::with_capacity(coords.len());
    let before = allocs();
    task.eval_run(&coords, |_, b| {
        run.push(b);
        Ok(())
    })
    .unwrap();
    let n = allocs() - before;
    let each = coords.iter().map(|&c| task.eval(c).unwrap()).collect();
    (n, run, each)
}

/// Block row `i` of a 16-column grid.
fn row_of(i: usize) -> Vec<(usize, usize)> {
    (0..16).map(|j| (i, j)).collect()
}

#[test]
fn transposed_sparse_runs_allocate_per_run_and_per_block_not_per_term() {
    // Three terms per block, then sixteen: the same allocations.
    for ks in [0..3, 0..16] {
        let (n, run, each) = update_run(ks.clone());
        assert!(run.iter().all(|b| !b.is_sparse()), "k-slice {ks:?}");
        assert_eq!(n, 2 + 2 * 16, "k-slice {ks:?}");
        assert_same_blocks(&run, &each);
    }
}
