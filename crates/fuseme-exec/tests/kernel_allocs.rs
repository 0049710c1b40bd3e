//! Allocations per output block of the NMF chain `X * log(U %*% t(V) + eps)`.
//!
//! A counting global allocator (installed in this test binary only) pins
//! what one block of the fused kernel allocates once the task's memoized
//! `t(V)` blocks exist. Gated, the multiplication runs only at `X`'s stored
//! cells, so a block allocates its sparse output (row pointers, column
//! indices, values) and the `Arc` handed back — four allocations. A product
//! whose certificate fails (an operand entry that is not `> 0`) takes the
//! dense accumulator first — five. A per-operator intermediate `Block`
//! (`+ eps`, `log`) or a per-(node, block) map entry would add to either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use fuseme_exec::kernel::{BlockProgram, Footprint};
use fuseme_exec::LocalStore;
use fuseme_matrix::{gen, BinOp, Block, UnaryOp};
use fuseme_plan::DagBuilder;

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
