//! Ablation study: how much does each FuseME mechanism contribute?
//!
//! Not a paper artifact, but DESIGN.md's per-mechanism accounting for the
//! design choices the paper motivates qualitatively:
//!
//! * **full** — CFG (matmul-anchored fusion + splits + residual Cell
//!   fusion) executed by cost-optimized CFOs;
//! * **no-cell** — CFG without residual Cell fusion (isolates the value of
//!   fusing leftover element-wise chains);
//! * **no-fusion** — no operator fusion at all, CuboidMM per
//!   multiplication (≙ DistME; isolates cuboid partitioning);
//! * **no-cuboid** — CFG fusion plans, but multiplications forced onto the
//!   replication operator (isolates the `(P,Q,R)` knob).

use std::path::Path;

use fuseme::prelude::*;
use fuseme_exec::driver::{execute_plan, ExecConfig, MatmulStrategy};
use fuseme_fusion::plan::FusionPlan;
use fuseme_workloads::gnmf::Gnmf;
use fuseme_workloads::nmf::SimpleNmf;

use crate::{gb, measure_with, time_cell, write_json, Measurement, Scale, Table};

/// Runs the ablation over the NMF operator query and one GNMF iteration.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    let mut measurements = Vec::new();
    let mut table = Table::new(
        "Ablation — contribution of each FuseME mechanism",
        &[
            "workload",
            "variant",
            "elapsed s",
            "comm GB (full-scale)",
            "fused units",
        ],
    );
    let byte_div = (scale.divisor * scale.divisor) as f64;

    // --- NMF operator query (the §6.2 workload) ----------------------------
    let nmf = SimpleNmf {
        rows: scale.dim(100_000),
        cols: scale.dim(100_000),
        k: scale.dim(2_000),
        block_size: scale.block_size(),
        density: 0.05,
    };
    let dag = nmf.dag();
    let binds = nmf.generate(3).unwrap();
    for (variant, matmul, plan_kind) in variants() {
        let cc = scale.paper_cluster();
        let cluster = Cluster::new(cc);
        let config = ExecConfig::for_cluster(&cluster, matmul);
        let plan = build_plan(plan_kind, &dag, &config);
        let run = measure_with("ablation_nmf", || {
            match execute_plan(&cluster, &dag, &plan, &binds, &config) {
                Ok((_, stats)) => RunSummary::completed(variant, &stats),
                Err(e) => RunSummary::failed(variant, &e),
            }
        });
        table.row(vec![
            "NMF".into(),
            variant.into(),
            time_cell(&run).into(),
            format!("{:.1}", gb(run.comm_total()) * byte_div).into(),
            run.fused_units.into(),
        ]);
        measurements.push(Measurement {
            experiment: "ablation_nmf".into(),
            label: variant.into(),
            engine: variant.into(),
            run,
        });
    }

    // --- one GNMF iteration (the §6.4 workload) -----------------------------
    let g = Gnmf {
        users: scale.dim(480_189),
        items: scale.dim(17_770),
        factor: scale.factor(200),
        block_size: scale.block_size(),
        density: 0.0118,
    };
    for (variant, matmul, plan_kind) in variants() {
        let cc = scale.factor_cluster(8);
        let cluster = Cluster::new(cc);
        let config = ExecConfig::for_cluster(&cluster, matmul);
        let mut session = fuseme::session::Session::new(match plan_kind {
            PlanKind::NoFusion => Engine::distme_like(cc),
            _ => Engine::fuseme(cc),
        });
        g.bind_inputs(&mut session, 13).unwrap();
        let dag = session.compile_script(Gnmf::update_script()).unwrap();
        let plan = build_plan(plan_kind, &dag, &config);
        let binds = session.bindings();
        let run = measure_with("ablation_gnmf", || {
            match execute_plan(&cluster, &dag, &plan, &binds, &config) {
                Ok((_, stats)) => RunSummary::completed(variant, &stats),
                Err(e) => RunSummary::failed(variant, &e),
            }
        });
        table.row(vec![
            "GNMF iter".into(),
            variant.into(),
            time_cell(&run).into(),
            format!("{:.1}", gb(run.comm_total()) * byte_div / 16.0).into(),
            run.fused_units.into(),
        ]);
        measurements.push(Measurement {
            experiment: "ablation_gnmf".into(),
            label: variant.into(),
            engine: variant.into(),
            run,
        });
    }

    table.print();
    println!(
        "  (full ≤ no-cell ≤ no-fusion on time; no-cuboid isolates the (P,Q,R) knob — \
         expect it to lose the most communication)"
    );
    write_json(out_dir, "ablation", &measurements).expect("write results");
    measurements
}

#[derive(Clone, Copy, PartialEq)]
enum PlanKind {
    Cfg,
    CfgNoCells,
    NoFusion,
}

fn variants() -> [(&'static str, MatmulStrategy, PlanKind); 4] {
    [
        ("full", MatmulStrategy::Cfo, PlanKind::Cfg),
        ("no-cell-fusion", MatmulStrategy::Cfo, PlanKind::CfgNoCells),
        (
            "no-fusion (DistME)",
            MatmulStrategy::Cfo,
            PlanKind::NoFusion,
        ),
        ("no-cuboid (RFO)", MatmulStrategy::Rfo, PlanKind::Cfg),
    ]
}

fn build_plan(kind: PlanKind, dag: &fuseme_plan::QueryDag, config: &ExecConfig) -> FusionPlan {
    match kind {
        PlanKind::Cfg => Cfg::new(config.model).plan(dag),
        PlanKind::CfgNoCells => {
            let mut cfg = Cfg::new(config.model);
            cfg.fuse_residual_cells = false;
            cfg.plan(dag)
        }
        PlanKind::NoFusion => FusionPlan::assemble(dag, vec![]),
    }
}
