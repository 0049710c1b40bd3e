//! The paper's qualitative claims, asserted as tests at laptop scale.
//!
//! These run small versions of the §6 experiments and check the *shape* of
//! the results — who wins, who fails, what the optimizer prefers — rather
//! than absolute numbers. They are the repository's regression harness for
//! "does this still reproduce the paper".

use fuseme::prelude::*;
use fuseme::session::Session;
use fuseme_bench::Scale;
use fuseme_workloads::gnmf::Gnmf;
use fuseme_workloads::nmf::SimpleNmf;

/// A small paper-shaped cluster (s = 1000: block edge 1, grids = paper's).
fn scale() -> Scale {
    Scale::new(1000).unwrap()
}

fn measure_engine(kind: EngineKind, workload: &SimpleNmf, seed: u64) -> RunSummary {
    let cc = scale().paper_cluster();
    let engine = fuseme_bench::build_engine(kind, cc, cc.partition_bytes);
    let dag = workload.dag();
    let binds = workload.generate(seed).unwrap();
    fuseme_bench::measure("paper_claims", &engine, &dag, &binds)
}

/// §6.2 / Fig. 12: the CFO beats SystemDS's operator choice on both time
/// and traffic for the NMF query, and keeps working at sizes where the
/// baselines fail.
#[test]
fn cfo_beats_bfo_rfo_and_survives_larger_inputs() {
    let s = scale();
    // n = 100K point of Fig. 12(a).
    let small = SimpleNmf {
        rows: s.dim(100_000),
        cols: s.dim(100_000),
        k: s.dim(2_000),
        block_size: s.block_size(),
        density: 0.001,
    };
    let fuseme = measure_engine(EngineKind::FuseMe, &small, 1);
    let systemds = measure_engine(EngineKind::SystemDsLike, &small, 1);
    assert_eq!(fuseme.status, RunStatus::Completed);
    assert_eq!(systemds.status, RunStatus::Completed);
    assert!(
        fuseme.sim_secs < systemds.sim_secs,
        "FuseME {:.1}s vs SystemDS {:.1}s",
        fuseme.sim_secs,
        systemds.sim_secs
    );

    // n = 750K point: SystemDS fails, FuseME completes (paper Fig. 12(a)).
    let large = SimpleNmf {
        rows: s.dim(750_000),
        cols: s.dim(750_000),
        k: s.dim(2_000),
        block_size: s.block_size(),
        density: 0.001,
    };
    let fuseme = measure_engine(EngineKind::FuseMe, &large, 2);
    let systemds = measure_engine(EngineKind::SystemDsLike, &large, 2);
    assert_eq!(fuseme.status, RunStatus::Completed, "CFO must survive 750K");
    assert_ne!(
        systemds.status,
        RunStatus::Completed,
        "SystemDS must fail at 750K as in the paper"
    );
}

/// §6.3 / Fig. 13(d): the pruning search returns the exhaustive answer with
/// orders of magnitude fewer evaluations.
#[test]
fn pruning_search_matches_exhaustive_cheaply() {
    use fuseme_fusion::cost::CostModel;
    use fuseme_fusion::optimizer::{optimize_exhaustive, search};
    use fuseme_fusion::space::SpaceTree;

    let s = scale();
    let w = SimpleNmf {
        rows: s.dim(500_000),
        cols: s.dim(200_000),
        k: s.dim(5_000),
        block_size: s.block_size(),
        density: 0.01,
    };
    let cc = s.paper_cluster();
    let model = CostModel {
        nodes: cc.nodes,
        tasks_per_node: cc.tasks_per_node,
        mem_per_task: cc.mem_per_task,
        net_bandwidth: cc.net_bandwidth,
        compute_bandwidth: cc.compute_bandwidth,
    };
    let dag = w.dag();
    let plan = {
        let full = Cfg::new(model).plan(&dag);
        full.units
            .iter()
            .find_map(|u| match u {
                ExecUnit::Fused(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap()
    };
    let tree = SpaceTree::build(&dag, &plan);
    let ex = optimize_exhaustive(&dag, &plan, &tree, &model);
    let pr = search(&dag, &plan, &tree, &model, &[]);
    assert_eq!(ex.pqr, pr.pqr);
    assert!(
        pr.stats.evaluated * 20 < ex.stats.evaluated,
        "pruning {} vs exhaustive {}",
        pr.stats.evaluated,
        ex.stats.evaluated
    );
}

/// §6.3 / Table 3 shape: R grows with the common dimension and collapses to
/// 1 at high density.
#[test]
fn optimizer_r_tracks_common_dimension_and_density() {
    let s = scale();
    let r_for = |k_full: usize, density: f64| -> usize {
        let w = SimpleNmf {
            rows: s.dim(100_000),
            cols: s.dim(100_000),
            k: s.dim(k_full),
            block_size: s.block_size(),
            density,
        };
        let run = measure_engine(EngineKind::FuseMe, &w, 3);
        assert_eq!(run.status, RunStatus::Completed);
        run.pqr[0].3
    };
    let r_small_k = r_for(2_000, 0.2);
    let r_large_k = r_for(50_000, 0.2);
    assert!(
        r_large_k > r_small_k,
        "R must grow with the common dimension: {r_small_k} -> {r_large_k}"
    );
    let r_dense = r_for(2_000, 1.0);
    assert_eq!(r_dense, 1, "dense X makes k-replication unattractive");
}

/// §6.4 / Fig. 14: on GNMF, FuseME fuses more than everyone, communicates
/// less than SystemDS, and is fastest.
#[test]
fn gnmf_fusion_plan_comparison() {
    let g = Gnmf {
        users: 240,
        items: 120,
        factor: 12,
        block_size: 4,
        density: 0.1,
    };
    let cc = {
        let mut cc = ClusterConfig::paper_testbed();
        cc.mem_per_task = 8 << 20;
        cc.stage_overhead_secs = 0.01;
        // Partition size proportional to the toy matrices, so SystemDS's
        // BFO fans out the way it does at the paper's scale instead of
        // degenerating into a single serial (and trivially comm-free) task.
        cc.partition_bytes = 2 << 10;
        cc
    };
    let mut results = Vec::new();
    for engine in [
        Engine::fuseme(cc),
        Engine::systemds_like(cc).with_partition_bytes(2 << 10),
        Engine::distme_like(cc),
        Engine::matfast_like(cc),
    ] {
        let name = engine.kind().name().to_string();
        let mut s = Session::new(engine);
        g.bind_inputs(&mut s, 21).unwrap();
        let report = g.iterate(&mut s).unwrap();
        results.push((name, report.stats));
    }
    let fuseme = &results[0].1;
    let systemds = &results[1].1;
    let distme = &results[2].1;
    assert!(fuseme.fused_units > 0);
    assert_eq!(distme.fused_units, 0, "DistME never fuses");
    assert!(
        fuseme.single_units < systemds.single_units,
        "FuseME leaves fewer operators unfused than SystemDS"
    );
    assert!(
        fuseme.comm.total() <= systemds.comm.total(),
        "FuseME {} vs SystemDS {} bytes",
        fuseme.comm.total(),
        systemds.comm.total()
    );
    assert!(
        fuseme.sim_secs <= results[3].1.sim_secs,
        "FuseME must not lose to MatFast"
    );
}

/// §3.2 / Table 1: measured CFO consolidation equals the model's
/// R·|X| + Q·|U| + P·|V| exactly (communication accounting is exact, not
/// estimated).
#[test]
fn measured_comm_matches_cost_model() {
    use fuseme_exec::fused_op::{execute_fused, ValueMap};
    use fuseme_fusion::cost::estimate;
    use fuseme_fusion::space::SpaceTree;
    use std::sync::Arc;

    let w = SimpleNmf {
        rows: 240,
        cols: 240,
        k: 40,
        block_size: 4,
        density: 1.0, // dense: slice sizes are exactly uniform
    };
    let cc = ClusterConfig::test_small();
    let dag = w.dag();
    let binds = w.generate(5).unwrap();
    // The whole query as one fused plan, constructed explicitly so CFG's
    // cost-based splitting cannot change what this test measures.
    let plan = fuseme_fusion::plan::PartialPlan::new(
        dag.nodes()
            .iter()
            .filter(|n| !n.kind.is_leaf())
            .map(|n| n.id)
            .collect(),
        dag.roots()[0],
    );
    let tree = SpaceTree::build(&dag, &plan);
    let values: ValueMap = dag
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            fuseme_plan::OpKind::Input { name } => Some((n.id, Arc::clone(&binds[name]))),
            _ => None,
        })
        .collect();
    for (p, q, r) in [(2, 3, 1), (3, 2, 2), (6, 6, 1)] {
        let cluster = Cluster::new(cc);
        execute_fused(
            &cluster,
            &dag,
            &plan,
            &values,
            &fuseme_exec::Strategy::Cuboid {
                pqr: Pqr { p, q, r },
            },
        )
        .unwrap();
        let est = estimate(&dag, &plan, &tree, p, q, r);
        let measured = cluster.comm().consolidation_bytes;
        // The scalar leaf costs 8·R bytes in the model but rides along with
        // task metadata in execution; everything else must match exactly.
        let modeled = est.net_bytes
            - 8 * r as u64
            - if r > 1 {
                // k-aggregation term is charged to the aggregation phase.
                est.net_bytes
                    - (r as u64 * bytes_of(&binds, "X")
                        + q as u64 * bytes_of(&binds, "U")
                        + p as u64 * bytes_of(&binds, "V")
                        + 8 * r as u64)
            } else {
                0
            };
        assert_eq!(measured, modeled, "consolidation mismatch at ({p},{q},{r})");
    }
}

fn bytes_of(binds: &Bindings, name: &str) -> u64 {
    binds[name].actual_size_bytes()
}

/// Eqs. 3–5, pinned: hand-computed `MemEst`/`NetEst`/`ComEst` constants for
/// the paper's running query `O = X * log(U × Vᵀ + eps)` at two fixed
/// `(P,Q,R)` grids. Unlike the formula tests in `fuseme-fusion`, these
/// assert literal numbers derived on paper, so any drift in size or flop
/// accounting — not just in the estimate's structure — fails loudly.
///
/// Fixture: X sparse 60×60 at density 0.5, U and V dense 60×20, block
/// edge 10. Derivation:
///
/// * |X| = |O| = 1800·12 + 60·8 = 22080 B (CSR-ish: nnz·12 + rows·8;
///   O = X ⊙ log(...) inherits min-density 0.5 ⇒ same layout),
/// * |U| = |V| = 1200·8 = 9600 B, |MM| = 3600·8 = 28800 B dense,
/// * gate = density(O)/density(MM) = 0.5 ⇒ gated |MM| = 14400 B,
/// * NetEst = R·|X| + Q·|U| + P·|V| + 8·R + (R−1)·gate·|MM|   (Eq. 4)
/// * MemEst = |U|/(P·R) + |V|/(Q·R) + (|X|+8+|O|)/(P·Q)
///   [+ gate·|MM|/(P·Q) when R>1], floor division per node (Eq. 3)
/// * ComEst = P·numOp(Vᵀ) + R·Σ gated O-ops + gate·numOp(MM)    (Eq. 5)
///   with numOp(Vᵀ) = nnz(V) = 1200; O-ops add/log gated 3600→1800 each,
///   the ⊙ gate 1800 at ratio 1; numOp(MM) = 2·1200·60 = 144000 ⇒ 72000.
#[test]
fn cost_model_matches_hand_computed_goldens() {
    use fuseme_fusion::cost::{estimate, estimate_with_cache, Estimates};
    use fuseme_fusion::space::SpaceTree;
    use std::collections::BTreeSet;

    let mut b = DagBuilder::new();
    let x = b.input("X", MatrixMeta::sparse(60, 60, 10, 0.5));
    let u = b.input("U", MatrixMeta::dense(60, 20, 10));
    let v = b.input("V", MatrixMeta::dense(60, 20, 10));
    let vt = b.transpose(v);
    let mm = b.matmul(u, vt);
    let eps = b.scalar(1e-8);
    let add = b.binary(mm, eps, BinOp::Add);
    let lg = b.unary(add, UnaryOp::Log);
    let out = b.binary(x, lg, BinOp::Mul);
    let dag = b.finish(vec![out]);
    let plan = PartialPlan::new(
        std::collections::BTreeSet::from([vt.id(), mm.id(), add.id(), lg.id(), out.id()]),
        out.id(),
    );
    let tree = SpaceTree::build(&dag, &plan);

    // (P,Q,R) = (2,3,1): no k-axis split, so no aggregation terms.
    //   Net = 22080 + 3·9600 + 2·9600 + 8            = 70088
    //   Mem = 9600/2 + 9600/3 + 22080/6 + 8/6 + 22080/6 = 15361
    //   Com = 2·1200 + 1·(1800+1800+1800) + 72000    = 79800
    assert_eq!(
        estimate(&dag, &plan, &tree, 2, 3, 1),
        Estimates {
            mem_bytes: 15361,
            net_bytes: 70088,
            com_flops: 79800,
        }
    );

    // (P,Q,R) = (3,2,2): R=2 adds (R−1)·14400 net and 14400/6 mem for the
    // k-axis aggregation of the gated main-matmul partials.
    //   Net = 2·22080 + 2·9600 + 3·9600 + 16 + 14400      = 106576
    //   Mem = 9600/6 + 9600/4 + 22080/6 + 8/6 + 22080/6 + 14400/6 = 13761
    //   Com = 3·1200 + 2·(1800+1800+1800) + 72000         = 86400
    assert_eq!(
        estimate(&dag, &plan, &tree, 3, 2, 2),
        Estimates {
            mem_bytes: 13761,
            net_bytes: 106576,
            com_flops: 86400,
        }
    );

    // Cache-aware NetEst: with X's replicas resident, its R·|X| shuffle
    // term vanishes; memory and computation are untouched.
    let cached = BTreeSet::from([x.id()]);
    let warm = estimate_with_cache(&dag, &plan, &tree, 2, 3, 1, &cached);
    assert_eq!(warm.net_bytes, 70088 - 22080);
    assert_eq!(warm.mem_bytes, 15361);
    assert_eq!(warm.com_flops, 79800);
}
