//! Fig. 13: `(P,Q,R)` parameter optimization on 1M × 5K × 1M —
//! (a) modeled `Cost()`, (b) measured transferred bytes, and (c) simulated
//! elapsed time across a `(P,R)` sweep at `Q = 4`, plus (d) the pruning vs
//! exhaustive search latency over growing voxel spaces.

use std::path::Path;
use std::sync::Arc;

use fuseme::prelude::*;
use fuseme_exec::fused_op::{execute_fused, ValueMap};
use fuseme_fusion::cost::{estimate, CostModel};
use fuseme_fusion::optimizer::{optimize_exhaustive, search};
use fuseme_fusion::space::SpaceTree;
use fuseme_workloads::nmf::SimpleNmf;

use crate::{gb, measure_with, write_json, Measurement, Scale, Table};

/// Which part of Fig. 13 to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// (a)–(c): the `(P,R)` sweep.
    Sweep,
    /// (d): search-latency comparison.
    Pruning,
    /// Both.
    All,
}

fn cost_model(cc: &ClusterConfig) -> CostModel {
    CostModel {
        nodes: cc.nodes,
        tasks_per_node: cc.tasks_per_node,
        mem_per_task: cc.mem_per_task,
        net_bandwidth: cc.net_bandwidth,
        compute_bandwidth: cc.compute_bandwidth,
    }
}

/// Regenerates Fig. 13.
pub fn run(scale: Scale, out_dir: &Path, part: Part) -> Vec<Measurement> {
    let mut out = Vec::new();
    if matches!(part, Part::Sweep | Part::All) {
        out.extend(sweep(scale, out_dir));
    }
    if matches!(part, Part::Pruning | Part::All) {
        out.extend(pruning(scale, out_dir));
    }
    out
}

/// (a)–(c): the paper sweeps (P,R) ∈ {(11,5),(9,5),(7,5),(5,5),(7,4),(9,3),
/// (11,3)} at Q = 4 on 1M × 5K × 1M and shows that the optimizer's pick
/// minimizes all three of modeled cost, transferred data, and elapsed time.
fn sweep(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    // Density chosen so |X| ≪ |U|,|V| as in the paper's setup: its sweep
    // has R = 5 on the cheap side, which requires X's replication (R·|X|)
    // to cost less than the factor matrices' (Q·|U| + P·|V|).
    let workload = SimpleNmf {
        rows: scale.dim(1_000_000),
        cols: scale.dim(1_000_000),
        k: scale.dim(5_000),
        block_size: scale.block_size(),
        density: 0.0002,
    };
    let cc = scale.paper_cluster();
    let model = cost_model(&cc);
    let dag = workload.dag();
    let binds = workload.generate(31).unwrap();
    let plan = {
        let full = Cfg::new(model).plan(&dag);
        full.units
            .iter()
            .find_map(|u| match u {
                ExecUnit::Fused(p) => Some(p.clone()),
                _ => None,
            })
            .expect("NMF fuses into one plan")
    };
    let tree = SpaceTree::build(&dag, &plan);
    let opt = search(&dag, &plan, &tree, &model, &[]);
    let values: ValueMap = dag
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            fuseme_plan::OpKind::Input { name } => Some((n.id, Arc::clone(&binds[name]))),
            _ => None,
        })
        .collect();

    let mut table = Table::new(
        &format!(
            "Fig. 13(a–c) — (P,R) sweep at Q=4 on 1M×5K×1M; optimizer picked {}",
            opt.pqr
        ),
        &["(P,R)", "Cost()", "data GB", "elapsed s", "status"],
    );
    let mut measurements = Vec::new();
    let q = 4;
    for (p, r) in [(11, 5), (9, 5), (7, 5), (5, 5), (7, 4), (9, 3), (11, 3)] {
        let pqr = Pqr { p, q, r };
        let est = estimate(&dag, &plan, &tree, p, q, r);
        let cost = model.cost(&est);
        let run = measure_with("fig13abc", || {
            let cluster = Cluster::new(cc);
            let result = execute_fused(
                &cluster,
                &dag,
                &plan,
                &values,
                &fuseme_exec::Strategy::Cuboid { pqr },
            );
            let mut run = RunSummary::completed("CFO", &Default::default());
            match result {
                Ok(_) => {
                    run.sim_secs = cluster.elapsed_secs();
                    run.consolidation_bytes = cluster.comm().total();
                }
                Err(e) => {
                    run.status = RunStatus::from_error(&e);
                    run.sim_secs = f64::NAN;
                }
            }
            run
        });
        table.row(vec![
            format!("({p},{r})").into(),
            format!("{cost:.3}").into(),
            format!("{:.3}", gb(run.consolidation_bytes)).into(),
            format!("{:.1}", run.sim_secs).into(),
            run.status.label().into(),
        ]);
        measurements.push(Measurement {
            experiment: "fig13abc".into(),
            label: format!("({p},{r})"),
            engine: format!("CFO Q={q}"),
            run,
        });
    }
    table.print();
    println!(
        "  (the optimizer's (P*,Q*,R*) = {} must sit at or below the sweep's minimum)",
        opt.pqr
    );
    write_json(out_dir, "fig13abc", &measurements).expect("write results");
    measurements
}

/// (d): exhaustive vs pruning optimizer latency while the voxel space grows
/// from 20K to 2M.
fn pruning(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    let bs = scale.block_size();
    let mut table = Table::new(
        "Fig. 13(d) — optimizer search latency (µs)",
        &[
            "voxels",
            "exhaustive µs",
            "evals",
            "pruning µs",
            "evals",
            "same answer",
        ],
    );
    let cc = scale.paper_cluster();
    let model = cost_model(&cc);
    let mut measurements = Vec::new();
    for (label, i_blocks) in [
        ("20K", 100usize),
        ("100K", 500),
        ("125K", 625),
        ("250K", 1250),
        ("500K", 2500),
        ("1M", 5000),
        ("2M", 10000),
    ] {
        // A voxel space of i_blocks × 40 × 5 blocks; metadata-only DAG.
        let (j_blocks, k_blocks) = (40usize, 5usize);
        let mut b = DagBuilder::new();
        let x = b.input(
            "X",
            MatrixMeta::sparse(i_blocks * bs, j_blocks * bs, bs, 0.01),
        );
        let u = b.input("U", MatrixMeta::dense(i_blocks * bs, k_blocks * bs, bs));
        let v = b.input("V", MatrixMeta::dense(j_blocks * bs, k_blocks * bs, bs));
        let vt = b.transpose(v);
        let mm = b.matmul(u, vt);
        let lg = b.unary(mm, UnaryOp::Log);
        let o = b.binary(x, lg, BinOp::Mul);
        let dag = b.finish(vec![o]);
        let plan = PartialPlan::new(
            [vt.id(), mm.id(), lg.id(), o.id()].into_iter().collect(),
            o.id(),
        );
        let tree = SpaceTree::build(&dag, &plan);
        let ex = optimize_exhaustive(&dag, &plan, &tree, &model);
        let pr = search(&dag, &plan, &tree, &model, &[]);
        let agree = ex.pqr == pr.pqr || (!ex.feasible && !pr.feasible);
        table.row(vec![
            label.into(),
            format!("{:.1}", ex.stats.elapsed_secs * 1e6).into(),
            ex.stats.evaluated.into(),
            format!("{:.1}", pr.stats.elapsed_secs * 1e6).into(),
            pr.stats.evaluated.into(),
            agree.into(),
        ]);
        for (name, res) in [("exhaustive", &ex), ("pruning", &pr)] {
            let mut run = RunSummary::completed(name, &Default::default());
            run.wall_secs = res.stats.elapsed_secs;
            run.pqr = vec![(0, res.pqr.p, res.pqr.q, res.pqr.r)];
            measurements.push(Measurement {
                experiment: "fig13d".into(),
                label: label.into(),
                engine: name.into(),
                run,
            });
        }
        assert!(agree, "pruning must match exhaustive at {label}");
    }
    table.print();
    write_json(out_dir, "fig13d", &measurements).expect("write results");
    measurements
}
