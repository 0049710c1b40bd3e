//! Fig. 12: distributed fused-operator comparison on the NMF query
//! `O = X * log(U × Vᵀ + eps)` — elapsed time (a–d) and communication
//! cost (e–h) for SystemDS (BFO/RFO by its rule), DistME, and FuseME (CFO),
//! over the three synthetic dataset families of Table 3 plus a node sweep.

use std::path::Path;

use fuseme::prelude::*;
use fuseme_workloads::datasets::{
    vary_common_dim, vary_density, vary_two_large_dims, SyntheticCase,
};
use fuseme_workloads::nmf::SimpleNmf;

use crate::{
    build_engine, comm_cell_full, measure, time_cell, write_json, Measurement, Scale, Table,
};

const ENGINES: [EngineKind; 3] = [
    EngineKind::SystemDsLike,
    EngineKind::DistMeLike,
    EngineKind::FuseMe,
];

/// Which part of Fig. 12 to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// (a)/(e): vary two large dimensions.
    TwoLargeDims,
    /// (b)/(f): vary the common dimension.
    CommonDim,
    /// (c)/(g): vary density.
    Density,
    /// (d)/(h): vary the number of nodes.
    Nodes,
    /// Everything.
    All,
}

/// Regenerates the requested parts of Fig. 12.
pub fn run(scale: Scale, out_dir: &Path, part: Part) -> Vec<Measurement> {
    let mut all = Vec::new();
    if matches!(part, Part::TwoLargeDims | Part::All) {
        all.extend(family(
            scale,
            out_dir,
            "fig12a_e",
            "Fig. 12(a)/(e) — varying two large dimensions (n × 2K × n, density 0.001)",
            &vary_two_large_dims(),
        ));
    }
    if matches!(part, Part::CommonDim | Part::All) {
        all.extend(family(
            scale,
            out_dir,
            "fig12b_f",
            "Fig. 12(b)/(f) — varying the common dimension (100K × n × 100K, density 0.2)",
            &vary_common_dim(),
        ));
    }
    if matches!(part, Part::Density | Part::All) {
        all.extend(family(
            scale,
            out_dir,
            "fig12c_g",
            "Fig. 12(c)/(g) — varying density (100K × 2K × 100K)",
            &vary_density(),
        ));
    }
    if matches!(part, Part::Nodes | Part::All) {
        all.extend(nodes_sweep(scale, out_dir));
    }
    all
}

fn family(
    scale: Scale,
    out_dir: &Path,
    id: &str,
    title: &str,
    cases: &[SyntheticCase],
) -> Vec<Measurement> {
    let mut time_table = Table::new(
        &format!("{title} — simulated elapsed time (sec)"),
        &["n", "SystemDS", "DistME", "FuseME", "FuseME (P*,Q*,R*)"],
    );
    let mut comm_table = Table::new(
        &format!("{title} — communication (full-scale-equivalent GB)"),
        &["n", "SystemDS", "DistME", "FuseME"],
    );
    let mut measurements = Vec::new();
    for case in cases {
        let workload = SimpleNmf::from_case(case, scale.divisor, scale.block_size());
        let binds = workload.generate(17).unwrap();
        let dag = workload.dag();
        let mut times = Vec::new();
        let mut comms = Vec::new();
        let mut pqr = String::new();
        for kind in ENGINES {
            let engine = build_engine(kind, scale.paper_cluster(), scale.partition_bytes());
            let run = measure(id, &engine, &dag, &binds);
            if kind == EngineKind::FuseMe {
                pqr = run
                    .pqr
                    .first()
                    .map(|&(_, p, q, r)| format!("({p},{q},{r})"))
                    .unwrap_or_default();
            }
            times.push(time_cell(&run));
            comms.push(comm_cell_full(&run, scale));
            measurements.push(Measurement {
                experiment: id.into(),
                label: case.label.into(),
                engine: kind.name().into(),
                run,
            });
        }
        time_table.row(vec![
            case.label.into(),
            times[0].clone().into(),
            times[1].clone().into(),
            times[2].clone().into(),
            pqr.into(),
        ]);
        comm_table.row(vec![
            case.label.into(),
            comms[0].clone().into(),
            comms[1].clone().into(),
            comms[2].clone().into(),
        ]);
    }
    time_table.print();
    comm_table.print();
    write_json(out_dir, id, &measurements).expect("write results");
    measurements
}

fn nodes_sweep(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    let mut measurements = Vec::new();
    for (suffix, density) in [("d", 0.1), ("h", 0.2)] {
        let case = SyntheticCase {
            label: if density < 0.15 { "0.1" } else { "0.2" },
            rows: 100_000,
            cols: 100_000,
            k: 2_000,
            density,
        };
        let workload = SimpleNmf::from_case(&case, scale.divisor, scale.block_size());
        let binds = workload.generate(23).unwrap();
        let dag = workload.dag();
        let mut table = Table::new(
            &format!("Fig. 12({suffix}) — varying nodes (100K × 2K × 100K, density {density})"),
            &["nodes", "SystemDS", "FuseME"],
        );
        for nodes in [2usize, 4, 8] {
            let mut cells: Vec<crate::ReportCell> = vec![nodes.into()];
            for kind in [EngineKind::SystemDsLike, EngineKind::FuseMe] {
                let engine = build_engine(kind, scale.cluster(nodes), scale.partition_bytes());
                let run = measure(&format!("fig12{suffix}"), &engine, &dag, &binds);
                cells.push(time_cell(&run).into());
                measurements.push(Measurement {
                    experiment: format!("fig12{suffix}"),
                    label: nodes.to_string(),
                    engine: kind.name().into(),
                    run,
                });
            }
            table.row(cells);
        }
        table.print();
    }
    write_json(out_dir, "fig12d_h", &measurements).expect("write results");
    measurements
}
