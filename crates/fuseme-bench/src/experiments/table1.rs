//! Table 1: analytic comparison of BFO, RFO, and CFO for
//! `O = X * log(U × Vᵀ + eps)` — communication cost, memory per task, and
//! maximum parallelism — plus a measured validation column showing that the
//! executed operators transfer exactly what the model predicts.

use std::path::Path;

use fuseme::prelude::*;
use fuseme_fusion::cost::{estimate, CostModel};
use fuseme_fusion::optimizer::search;
use fuseme_fusion::space::SpaceTree;
use fuseme_workloads::nmf::SimpleNmf;

use crate::{gb, measure_with, write_json, Measurement, Scale, Table};

/// Regenerates Table 1.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    // A mid-sized instance of the query: n = 100K × 2K × 100K, density 0.05.
    let case = SimpleNmf {
        rows: scale.dim(100_000),
        cols: scale.dim(100_000),
        k: scale.dim(2_000),
        block_size: scale.block_size(),
        density: 0.05,
    };
    let cc = scale.paper_cluster();
    let model = CostModel {
        nodes: cc.nodes,
        tasks_per_node: cc.tasks_per_node,
        mem_per_task: cc.mem_per_task,
        net_bandwidth: cc.net_bandwidth,
        compute_bandwidth: cc.compute_bandwidth,
    };
    let dag = case.dag();
    let binds = case.generate(1).unwrap();

    // The fused plan covering the whole query (CFG finds exactly one).
    let plan = {
        let cfg = Cfg::new(model);
        let full = cfg.plan(&dag);
        full.units
            .iter()
            .find_map(|u| match u {
                ExecUnit::Fused(p) => Some(p.clone()),
                _ => None,
            })
            .expect("the NMF query fuses into one plan")
    };
    let tree = SpaceTree::build(&dag, &plan);
    let t = model.total_tasks();
    let grid_i = dag.node(plan.root).meta.grid().block_rows;
    let grid_j = dag.node(plan.root).meta.grid().block_cols;
    let opt = search(&dag, &plan, &tree, &model, &[]);

    // Analytic rows: BFO ≡ (T,T,1), RFO ≡ (I,J,1), CFO at (P*,Q*,R*).
    let mut table = Table::new(
        &format!(
            "Table 1 — cost model for O = X*log(U×Vᵀ+eps) at {}x{}x{} blocks (density 0.05)",
            grid_i,
            grid_j,
            case.k / case.block_size
        ),
        &[
            "method",
            "(P,Q,R)",
            "NetEst GB",
            "measured GB",
            "MemEst/task MB",
            "max tasks",
            "status",
        ],
    );
    let mut measurements = Vec::new();

    let rows: Vec<(&str, Pqr)> = vec![
        (
            "BFO",
            Pqr {
                p: t.min(grid_i),
                q: t.min(grid_j),
                r: 1,
            },
        ),
        (
            "RFO",
            Pqr {
                p: grid_i,
                q: grid_j,
                r: 1,
            },
        ),
        ("CFO", opt.pqr),
    ];
    let values: fuseme_exec::fused_op::ValueMap = dag
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            fuseme_plan::OpKind::Input { name } => {
                Some((n.id, std::sync::Arc::clone(&binds[name])))
            }
            _ => None,
        })
        .collect();
    for (name, pqr) in rows {
        let est = estimate(&dag, &plan, &tree, pqr.p, pqr.q, pqr.r);
        // Measured: force the exact operator through the exec layer.
        let strategy = match name {
            "BFO" => fuseme_exec::Strategy::Broadcast {
                partition_bytes: scale.partition_bytes(),
            },
            "RFO" => fuseme_exec::Strategy::Replication,
            _ => fuseme_exec::Strategy::Cuboid { pqr },
        };
        let run = measure_with("table1", || {
            let cluster = Cluster::new(cc);
            let result =
                fuseme_exec::fused_op::execute_fused(&cluster, &dag, &plan, &values, &strategy);
            let mut run = RunSummary::completed(name, &Default::default());
            match result {
                Ok(_) => run.consolidation_bytes = cluster.comm().total(),
                Err(e) => run.status = RunStatus::from_error(&e),
            }
            run
        });
        let (measured, status) = (run.consolidation_bytes, run.status);
        let max_tasks: u64 = match name {
            "BFO" | "RFO" => (grid_i * grid_j) as u64,
            _ => (grid_i * grid_j) as u64 * (case.k / case.block_size).max(1) as u64,
        };
        table.row(vec![
            name.into(),
            format!("{pqr}").into(),
            format!("{:.3}", gb(est.net_bytes)).into(),
            (if status == RunStatus::Completed {
                format!("{:.3}", gb(measured))
            } else {
                status.label().to_string()
            })
            .into(),
            format!("{:.2}", est.mem_bytes as f64 / 1e6).into(),
            max_tasks.into(),
            status.label().into(),
        ]);
        measurements.push(Measurement {
            experiment: "table1".into(),
            label: format!("{pqr}"),
            engine: name.into(),
            run,
        });
    }
    table.print();
    println!(
        "  (paper: BFO comm |X|+T(|U|+|V|), RFO |X|+J|U|+I|V|, CFO R|X|+Q|U|+P|V|; \
         CFO must be lowest and fit θ_t = {:.2} MB)",
        model.mem_per_task as f64 / 1e6
    );
    write_json(out_dir, "table1", &measurements).expect("write results");
    measurements
}
