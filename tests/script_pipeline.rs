//! End-to-end pipeline tests through the user surface: generate data, save
//! and reload it, compile DML-like scripts, run them, and check property-
//! style invariants across the whole stack.

use std::sync::Arc;

use fuseme::prelude::*;
use fuseme::session::Session;
use fuseme_matrix::io::{read_matrix, write_matrix};
use proptest::prelude::*;

fn session() -> Session {
    let mut cc = ClusterConfig::test_small();
    cc.mem_per_task = 256 << 20;
    Session::new(Engine::fuseme(cc))
}

#[test]
fn save_load_run_roundtrip() {
    let m = gen::sparse_uniform(64, 64, 16, 0.1, 1.0, 2.0, 9).unwrap();
    let mut buf = Vec::new();
    write_matrix(&mut buf, &m).unwrap();
    let loaded = read_matrix(&mut buf.as_slice()).unwrap();
    assert_eq!(m.to_dense_vec(), loaded.to_dense_vec());

    let mut s = session();
    s.bind("X", loaded);
    let report = s.run_script("o = rowSums(X * X)").unwrap();
    let direct: f64 = m.to_dense_vec().iter().map(|v| v * v).sum();
    let total: f64 = report.outputs[0].to_dense_vec().iter().sum();
    assert!((total - direct).abs() < 1e-9 * direct.max(1.0));
}

#[test]
fn compile_errors_are_user_readable() {
    let s = session();
    for (script, needle) in [
        ("o = X %*%", "expected an expression"),
        ("o = foo(X)", "unknown"),
        ("o = Y + 1", "Y"),
        ("= 3", "statement"),
        ("o = 2 + 3", "scalar"),
    ] {
        let err = s.compile_script(script).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.to_lowercase().contains(&needle.to_lowercase()),
            "script `{script}`: message `{msg}` missing `{needle}`"
        );
    }
}

#[test]
fn algebraic_identities_hold_end_to_end() {
    let mut s = session();
    s.gen_dense("A", 40, 24, 8, 1).unwrap();
    s.gen_dense("B", 24, 32, 8, 2).unwrap();

    // (A B)ᵀ == Bᵀ Aᵀ
    let lhs = s.run_script("o = t(A %*% B)").unwrap();
    let rhs = s.run_script("o = t(B) %*% t(A)").unwrap();
    assert!(lhs.outputs[0].approx_eq(&rhs.outputs[0], 1e-9));

    // sum(A) == sum(rowSums(A)) == sum(colSums(A))
    let a = s.run_script("o = sum(A)").unwrap().outputs[0]
        .get(0, 0)
        .unwrap();
    let b = s.run_script("o = sum(rowSums(A))").unwrap().outputs[0]
        .get(0, 0)
        .unwrap();
    let c = s.run_script("o = sum(colSums(A))").unwrap().outputs[0]
        .get(0, 0)
        .unwrap();
    assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
    assert!((a - c).abs() < 1e-9 * a.abs().max(1.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Distributed execution equals the reference interpreter for random
    /// shapes, densities, and seeds — the whole stack, property-tested.
    #[test]
    fn distributed_equals_reference(
        rows in 1usize..40,
        cols in 1usize..40,
        k in 1usize..24,
        bs in 2usize..9,
        density in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let x = gen::sparse_uniform(rows, cols, bs, density, 0.5, 2.0, seed).unwrap();
        let u = gen::dense_uniform(rows, k, bs, 0.1, 1.0, seed + 1).unwrap();
        let v = gen::dense_uniform(cols, k, bs, 0.1, 1.0, seed + 2).unwrap();
        let mut s = session();
        s.bind("X", x);
        s.bind("U", u);
        s.bind("V", v);
        let script = "o = X * log(U %*% t(V) + 0.5)";
        let dag = s.compile_script(script).unwrap();
        let reference = fuseme_plan::evaluate(&dag, &s.bindings()).unwrap();
        let report = s.run_script(script).unwrap();
        prop_assert!(report.outputs[0].approx_eq(reference[0].as_matrix().unwrap(), 1e-9));
    }

    /// The (P,Q,R) optimizer never returns parameters that blow the memory
    /// budget when a feasible point exists, for random query sizes.
    #[test]
    fn optimizer_respects_budget(
        i in 2usize..20,
        j in 2usize..20,
        k in 1usize..8,
        mem_kb in 64u64..4096,
    ) {
        use fuseme_fusion::cost::CostModel;
        use fuseme_fusion::optimizer::search;
        use fuseme_fusion::space::SpaceTree;
        let bs = 8;
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(i * bs, j * bs, bs, 0.05));
        let u = b.input("U", MatrixMeta::dense(i * bs, k * bs, bs));
        let v = b.input("V", MatrixMeta::dense(j * bs, k * bs, bs));
        let vt = b.transpose(v);
        let mm = b.matmul(u, vt);
        let o = b.binary(x, mm, BinOp::Mul);
        let dag = b.finish(vec![o]);
        let plan = fuseme_fusion::plan::PartialPlan::new(
            [vt.id(), mm.id(), o.id()].into_iter().collect(),
            o.id(),
        );
        let tree = SpaceTree::build(&dag, &plan);
        let model = CostModel {
            nodes: 2,
            tasks_per_node: 2,
            mem_per_task: mem_kb << 10,
            net_bandwidth: 1e8,
            compute_bandwidth: 1e9,
        };
        let res = search(&dag, &plan, &tree, &model, &[]);
        if res.feasible {
            prop_assert!(res.est.mem_bytes <= model.mem_per_task);
            prop_assert!(res.pqr.p <= i && res.pqr.q <= j && res.pqr.r <= k);
        }
    }

    /// Session outputs stay finite under iterated rebinding for any seed.
    #[test]
    fn rebinding_stays_finite(seed in 0u64..500) {
        let mut s = session();
        s.gen_dense("X", 24, 24, 8, seed).unwrap();
        for _ in 0..3 {
            s.run_and_rebind("Xn = (X + t(X)) * 0.5 + 0.1", &[("X", 0)]).unwrap();
        }
        let v = Arc::clone(s.matrix("X").unwrap());
        prop_assert!(v.to_dense_vec().iter().all(|x| x.is_finite()));
    }
}
