//! Allocations per output block of the NMF chain `X * log(U %*% t(V) + eps)`.
//!
//! A counting global allocator (installed in this test binary only) pins
//! what one block of the fused kernel allocates once the task's memoized
//! `t(V)` blocks exist: the multiplication's dense accumulator, the gated
//! sparse output (row pointers, column indices, values) and the `Arc`
//! handed back — five allocations. A per-operator intermediate `Block`
//! (`+ eps`, `log`) or a per-(node, block) map entry would add to that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use fuseme_exec::kernel::{BlockProgram, Footprint};
use fuseme_exec::LocalStore;
use fuseme_matrix::{gen, BinOp, UnaryOp};
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

#[test]
fn nmf_chain_allocates_five_times_per_output_block() {
    let bs = 4;
    let x = gen::sparse_uniform(64, 64, bs, 0.05, 1.0, 2.0, 1).unwrap();
    let u = gen::dense_uniform(64, 12, bs, 0.1, 1.0, 2).unwrap();
    let v = gen::dense_uniform(64, 12, bs, 0.1, 1.0, 3).unwrap();
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
    // The first pass memoizes t(V) and sizes the task's scratch.
    for &c in &supported {
        task.eval(c).unwrap();
    }
    let mut blocks = Vec::with_capacity(supported.len());
    let mut per_block = Vec::with_capacity(supported.len());
    for &c in &supported {
        let before = allocs();
        blocks.push(task.eval(c).unwrap());
        per_block.push(allocs() - before);
    }
    assert!(per_block.iter().all(|&n| n == 5), "{per_block:?}");
    assert!(blocks.iter().all(|b| b.is_sparse()));
}
