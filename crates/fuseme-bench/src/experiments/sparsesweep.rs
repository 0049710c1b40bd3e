//! Sparsesweep experiment: end-to-end sparse execution vs forced-dense.
//!
//! Not a paper artifact — it validates the engine's sparse execution path.
//! FuseME's cost model prices sparsity (Eq. 4/5 scale by nnz estimates),
//! and with the Gustavson SpGEMM kernels the executor can cash that in:
//! sparse rating matrices stay in CSR through consolidation, local
//! operation, and the re-compaction at the consolidation boundary, so the
//! shuffled bytes follow the actual nnz instead of the dense footprint.
//!
//! The sweep runs GNMF updates and the ALS loss over a grid of rating
//! densities, each twice:
//!
//! * **sparse** — the normal path: `X` bound as generated (CSR blocks,
//!   sparse metadata), the planner and kernels free to exploit it;
//! * **dense** — the same values with `X` densified block by block and its
//!   metadata marked fully dense, forcing dense planning and kernels.
//!
//! Both paths must produce element-wise equal results (the sparse path
//! changes representation and plan choice, never arithmetic meaning), and
//! at density ≤ 0.05 the sparse path must move *strictly fewer* shuffled
//! bytes — the acceptance headline for the sparse execution path.

use std::path::Path;

use fuseme::prelude::*;
use fuseme_workloads::als::AlsLoss;
use fuseme_workloads::gnmf::Gnmf;

use crate::{gb, measure_with, session_summary, write_json, Measurement, Scale, Table};

/// Iterations per measured run; two is enough to exercise re-binding the
/// factors between iterations on both paths.
const ITERS: usize = 2;

/// Densities at or below this must ship strictly fewer bytes sparsely.
const HEADLINE_DENSITY: f64 = 0.05;

/// Element-wise tolerance between the two paths. The paths may fuse and
/// partition differently (different summation association), so equality is
/// to differential-test precision, not bitwise.
const TOL: f64 = 1e-9;

/// Which representation the rating matrix `X` is bound in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XPath {
    Sparse,
    Dense,
}

impl XPath {
    fn label(self) -> &'static str {
        match self {
            XPath::Sparse => "sparse",
            XPath::Dense => "dense",
        }
    }
}

/// One measured run: accounting summary plus the final outputs for the
/// element-wise diff.
struct SweepRun {
    summary: RunSummary,
    outputs: Vec<Vec<f64>>,
}

/// A densified copy of a matrix: same values, dense blocks everywhere, and
/// metadata that declares full density so the planner prices it densely.
fn densify(m: &BlockedMatrix) -> BlockedMatrix {
    let shape = m.shape();
    let meta = MatrixMeta::dense(shape.rows, shape.cols, m.meta().block_size);
    BlockedMatrix::from_fn(meta, |bi, bj| {
        Some(Block::Dense(m.block_or_zero(bi, bj).to_dense()))
    })
    .expect("densify preserves geometry")
}

/// Runs one workload on a fresh session, optionally forcing `X` dense after
/// binding, and collects the accounting plus the named output matrices.
fn sweep_run(
    cc: ClusterConfig,
    path: XPath,
    bind: impl FnOnce(&mut Session) -> Result<(), SessionError>,
    mut step: impl FnMut(&mut Session) -> Result<RunReport, SessionError>,
    outputs_of: impl Fn(&Session, &RunReport) -> Vec<Vec<f64>>,
) -> SweepRun {
    let mut session = Session::new(Engine::fuseme(cc));
    bind(&mut session).expect("generate inputs");
    if path == XPath::Dense {
        let x = session.matrix("X").expect("workloads bind X");
        let dense = densify(x);
        session.bind("X", dense);
    }
    let mut outputs = Vec::new();
    let summary = measure_with("sparsesweep", || {
        let mut last = None;
        for _ in 0..ITERS {
            last = Some(step(&mut session).expect("sparsesweep runs must complete"));
        }
        outputs = outputs_of(&session, &last.expect("at least one iteration"));
        session_summary(&session, None)
    });
    SweepRun { summary, outputs }
}

/// Largest element-wise divergence between the two paths' outputs.
fn max_divergence(a: &SweepRun, b: &SweepRun) -> f64 {
    assert_eq!(a.outputs.len(), b.outputs.len(), "output arity differs");
    let mut worst = 0.0f64;
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(x.len(), y.len(), "output shape differs");
        for (p, q) in x.iter().zip(y) {
            worst = worst.max((p - q).abs());
        }
    }
    worst
}

/// Runs the density sweep, printing the table and persisting
/// `sparsesweep.json`. `smoke` shrinks the workloads to CI-sized fixtures
/// (same paths, same invariants).
pub fn run(scale: Scale, out_dir: &Path, smoke: bool) -> Vec<Measurement> {
    let (gnmf, als, cc, densities): (Gnmf, AlsLoss, ClusterConfig, &[f64]) = if smoke {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 256 << 20;
        (
            Gnmf {
                users: 80,
                items: 80,
                factor: 5,
                block_size: 10,
                density: 0.0, // overwritten per sweep point
            },
            AlsLoss {
                rows: 40,
                cols: 40,
                k: 8,
                block_size: 8,
                density: 0.0,
            },
            cc,
            &[0.02, 0.05, 0.2],
        )
    } else {
        let users = scale.dim(480_189);
        let items = scale.dim(17_770);
        let factor = scale.factor(200);
        (
            Gnmf {
                users,
                items,
                factor,
                block_size: scale.block_size(),
                density: 0.0,
            },
            AlsLoss {
                rows: users,
                cols: items,
                k: factor,
                block_size: scale.block_size(),
                density: 0.0,
            },
            scale.factor_cluster(8),
            &[0.01, 0.05, 0.2],
        )
    };

    let mut measurements = Vec::new();
    let mut table = Table::new(
        &format!(
            "Sparsesweep — {ITERS} iterations, X bound sparse vs forced dense \
             (sparse path must ship strictly fewer bytes at density ≤ {HEADLINE_DENSITY})"
        ),
        &[
            "workload", "density", "path", "comm GB", "sim s", "wall s", "max |Δ|",
        ],
    );

    for &density in densities {
        let g = Gnmf { density, ..gnmf };
        let a = AlsLoss { density, ..als };
        let runs: Vec<(&str, XPath, SweepRun)> = [XPath::Sparse, XPath::Dense]
            .iter()
            .flat_map(|&path| {
                let gr = sweep_run(
                    cc,
                    path,
                    |s| g.bind_inputs(s, 13),
                    |s| g.iterate(s),
                    |s, _| {
                        vec![
                            s.matrix("U").expect("GNMF keeps U bound").to_dense_vec(),
                            s.matrix("V").expect("GNMF keeps V bound").to_dense_vec(),
                        ]
                    },
                );
                let ar = sweep_run(
                    cc,
                    path,
                    |s| a.bind_inputs(s, 13),
                    |s| s.run_script(AlsLoss::loss_script()),
                    |_, report| report.outputs.iter().map(|m| m.to_dense_vec()).collect(),
                );
                [("GNMF", path, gr), ("ALS loss", path, ar)]
            })
            .collect();

        for name in ["GNMF", "ALS loss"] {
            let sparse = runs
                .iter()
                .find(|(n, p, _)| *n == name && *p == XPath::Sparse)
                .expect("sparse run present");
            let dense = runs
                .iter()
                .find(|(n, p, _)| *n == name && *p == XPath::Dense)
                .expect("dense run present");
            let worst = max_divergence(&sparse.2, &dense.2);
            assert!(
                worst <= TOL,
                "{name} d={density}: paths diverge by {worst:e} (tol {TOL:e})"
            );
            let (sc, dc) = (sparse.2.summary.comm_total(), dense.2.summary.comm_total());
            if density <= HEADLINE_DENSITY {
                assert!(
                    sc < dc,
                    "{name} d={density}: sparse path must ship strictly fewer bytes \
                     (sparse {sc} B vs dense {dc} B)"
                );
            }
            for (path, run, diff) in [(XPath::Sparse, sparse, worst), (XPath::Dense, dense, worst)]
            {
                table.row(vec![
                    name.into(),
                    format!("{density}").into(),
                    path.label().into(),
                    format!("{:.4}", gb(run.2.summary.comm_total())).into(),
                    format!("{:.1}", run.2.summary.sim_secs).into(),
                    format!("{:.2}", run.2.summary.wall_secs).into(),
                    format!("{diff:.1e}").into(),
                ]);
                measurements.push(Measurement {
                    experiment: "sparsesweep".into(),
                    label: format!("{name} d={density}"),
                    engine: format!("FuseME x-{}", path.label()),
                    run: run.2.summary.clone(),
                });
            }
        }
    }

    table.print();
    println!(
        "  (both paths compute identical results; the sparse path's savings come from \
         CSR consolidation shuffles and products compacted to CSR, not from skipped work)"
    );
    write_json(out_dir, "sparsesweep", &measurements).expect("write results");
    measurements
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_sparse_path_ships_fewer_bytes() {
        let dir = std::env::temp_dir().join(format!("fuseme-sparsesweep-{}", std::process::id()));
        let measurements = run(Scale::default_scale(), &dir, true);
        // Three densities × two workloads × two paths.
        assert_eq!(measurements.len(), 12);
        // The headline assertion already ran inside run(); spot-check the
        // lowest-density GNMF pair here too.
        let comm = |engine: &str| {
            measurements
                .iter()
                .find(|m| m.label == "GNMF d=0.02" && m.engine == engine)
                .map(|m| m.run.comm_total())
                .unwrap()
        };
        assert!(comm("FuseME x-sparse") < comm("FuseME x-dense"));
        assert!(dir.join("sparsesweep.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
