//! Fig. 14: GNMF fusion-plan comparison — accumulated elapsed time over ten
//! iterations and per-iteration shuffled bytes, for MatFast, SystemDS,
//! DistME, and FuseME on the three rating datasets at factor dimensions
//! k = 200 and k = 1000 (scaled).

use std::path::Path;

use fuseme::prelude::*;
use fuseme_workloads::datasets::{RatingDataset, MOVIELENS, NETFLIX, YAHOO_MUSIC};
use fuseme_workloads::gnmf::Gnmf;

use crate::{
    build_engine, comm_cell_full_div, gb, measure_with, session_summary, time_cell, write_json,
    Measurement, Scale, Table,
};

const ENGINES: [EngineKind; 4] = [
    EngineKind::MatFastLike,
    EngineKind::SystemDsLike,
    EngineKind::DistMeLike,
    EngineKind::FuseMe,
];

/// Regenerates Fig. 14 with `iters` GNMF iterations per configuration.
pub fn run(scale: Scale, out_dir: &Path, iters: usize) -> Vec<Measurement> {
    let mut measurements = Vec::new();
    for (suffix, k_full) in [("a-d", 200usize), ("e-h", 1000)] {
        let k = scale.factor(k_full);
        let mut time_table = Table::new(
            &format!(
                "Fig. 14({suffix}) — GNMF accumulated time over {iters} iters, k={k_full} (scaled k={k})"
            ),
            &["dataset", "MatFast", "SystemDS", "DistME", "FuseME"],
        );
        let mut comm_table = Table::new(
            &format!(
                "Fig. 14 — per-iteration shuffled data (full-scale-equivalent GB), k={k_full}"
            ),
            &["dataset", "MatFast", "SystemDS", "DistME", "FuseME"],
        );
        for dataset in [MOVIELENS, NETFLIX, YAHOO_MUSIC] {
            let mut time_cells: Vec<crate::ReportCell> = vec![dataset.name.into()];
            let mut comm_cells: Vec<crate::ReportCell> = vec![dataset.name.into()];
            for kind in ENGINES {
                let run = run_gnmf(scale, dataset, k, kind, iters);
                time_cells.push(time_cell(&run).into());
                let byte_div = (scale.divisor * scale.divisor) as f64 / 16.0;
                comm_cells.push(comm_cell_full_div(&run, byte_div).into());
                measurements.push(Measurement {
                    experiment: format!("fig14_k{k_full}"),
                    label: dataset.name.into(),
                    engine: kind.name().into(),
                    run,
                });
            }
            time_table.row(time_cells);
            comm_table.row(comm_cells);
        }
        time_table.print();
        comm_table.print();
    }
    println!(
        "  (expected order per the paper: FuseME < DistME < SystemDS < MatFast; \
         MatFast runs out of memory on the largest configuration)"
    );
    write_json(out_dir, "fig14", &measurements).expect("write results");
    measurements
}

/// Runs `iters` GNMF iterations on one engine; the summary's `sim_secs` is
/// the accumulated time and `comm` the *per-iteration* shuffle (Fig. 14(d)).
fn run_gnmf(
    scale: Scale,
    dataset: RatingDataset,
    k: usize,
    kind: EngineKind,
    iters: usize,
) -> RunSummary {
    let cc = scale.factor_cluster(8);
    let mut session = Session::new(build_engine(kind, cc, cc.partition_bytes));
    let (users, items) = dataset.scaled_dims(scale.divisor, scale.block_size());
    let gnmf = Gnmf {
        users,
        items,
        factor: k,
        block_size: scale.block_size(),
        density: dataset.density(),
    };
    measure_with("fig14", || {
        let result = gnmf
            .bind_inputs(&mut session, 77)
            .and_then(|()| gnmf.run(&mut session, iters));
        let mut summary = session_summary(&session, result.as_ref().err());
        if let Ok(per_iter) = &result {
            let total: f64 = per_iter.iter().map(|s| s.sim_secs).sum();
            let avg_comm =
                per_iter.iter().map(|s| s.comm_bytes).sum::<u64>() / per_iter.len().max(1) as u64;
            summary.sim_secs = total;
            summary.consolidation_bytes = avg_comm;
            summary.aggregation_bytes = 0;
            println!(
                "    {:>9} {:<11} k={k}: {total:>8.1}s accumulated, {:.3} GB/iter",
                summary.engine,
                dataset.name,
                gb(avg_comm)
            );
        }
        summary
    })
}
