//! Table 3: the `(P*, Q*, R*)` parameters the optimizer chooses for each
//! synthetic dataset, next to the values the paper reports for its
//! full-scale cluster.

use std::path::Path;

use fuseme::prelude::*;
use fuseme_fusion::cost::CostModel;
use fuseme_fusion::optimizer::search;
use fuseme_fusion::space::SpaceTree;
use fuseme_workloads::datasets::{
    vary_common_dim, vary_density, vary_two_large_dims, SyntheticCase,
};
use fuseme_workloads::nmf::SimpleNmf;

use crate::{write_json, Measurement, Scale, Table};

/// Paper-reported parameters per family, in case order.
const PAPER: [[&str; 4]; 3] = [
    ["(8,6,2)", "(8,6,2)", "(8,6,2)", "(8,6,2)"],
    ["(12,8,1)", "(8,6,2)", "(6,4,4)", "(4,3,8)"],
    ["(8,6,2)", "(8,6,2)", "(12,8,1)", "(12,8,1)"],
];

/// Regenerates Table 3.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    let cc = scale.paper_cluster();
    let model = CostModel {
        nodes: cc.nodes,
        tasks_per_node: cc.tasks_per_node,
        mem_per_task: cc.mem_per_task,
        net_bandwidth: cc.net_bandwidth,
        compute_bandwidth: cc.compute_bandwidth,
    };
    let mut table = Table::new(
        "Table 3 — optimizer-chosen (P*,Q*,R*) per synthetic dataset",
        &["family", "case", "density", "(P*,Q*,R*)", "paper", "evals"],
    );
    let mut measurements = Vec::new();
    let families: [(&str, Vec<SyntheticCase>); 3] = [
        ("two large dims", vary_two_large_dims()),
        ("common dim", vary_common_dim()),
        ("density", vary_density()),
    ];
    for (f_idx, (family, cases)) in families.into_iter().enumerate() {
        for (c_idx, case) in cases.iter().enumerate() {
            let workload = SimpleNmf::from_case(case, scale.divisor, scale.block_size());
            let dag = workload.dag();
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
            table.row(vec![
                family.into(),
                case.label.into(),
                case.density.into(),
                format!("{}", opt.pqr).into(),
                PAPER[f_idx][c_idx].into(),
                opt.stats.evaluated.into(),
            ]);
            let mut run = RunSummary::completed("FuseME", &Default::default());
            run.pqr = vec![(0, opt.pqr.p, opt.pqr.q, opt.pqr.r)];
            measurements.push(Measurement {
                experiment: "table3".into(),
                label: format!("{family}/{}", case.label),
                engine: "FuseME".into(),
                run,
            });
        }
    }
    table.print();
    println!(
        "  (exact matches are not expected — the paper's picks reflect its cluster's \
         bandwidth ratio; the shape to check is R growing as the common dimension \
         grows, and R collapsing to 1 as density rises)"
    );
    write_json(out_dir, "table3", &measurements).expect("write results");
    measurements
}
