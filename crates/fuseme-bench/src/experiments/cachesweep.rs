//! Cachesweep experiment: cuboid replica caching over iterative workloads.
//!
//! Not a paper artifact — FuseME re-shuffles every input of every fused
//! unit on every iteration. This experiment arms the engine's cuboid
//! replica cache and measures how much consolidation traffic iterative
//! workloads save when their loop-invariant inputs (GNMF's rating matrix
//! `X`; every input of the ALS loss) keep their `(P,Q,R)` replica sets
//! resident across iterations.
//!
//! Three postures per workload:
//!
//! * **off** — the seed engine, cache disarmed: every iteration pays the
//!   full consolidation shuffle;
//! * **on** — cache armed with a cluster-memory-sized budget: iterations
//!   after the first serve loop-invariant inputs from resident replicas;
//! * **tight** — cache armed with a single-θ_t budget: large replica sets
//!   bypass or evict each other, exercising the LRU under pressure.
//!
//! Accounting invariant, asserted whenever the on/off rows executed the
//! same `(P,Q,R)` sequence: `comm_off == comm_on + saved_bytes` — a cache
//! hit is *exactly* a shuffle that was not charged, never a discount. The
//! sweep also asserts the headline claim: five GNMF iterations with the
//! cache on ship at least 30% fewer bytes than with the cache off.

use std::path::Path;

use fuseme::prelude::*;
use fuseme_workloads::als::AlsLoss;
use fuseme_workloads::gnmf::Gnmf;

use crate::{gb, measure_with, pqr_list, session_summary, write_json, Measurement, Scale, Table};

/// Iterations per measured run (the headline claim is over five).
const ITERS: usize = 5;

/// Cache postures swept per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Posture {
    Off,
    On,
    Tight,
}

impl Posture {
    fn label(self) -> &'static str {
        match self {
            Posture::Off => "off",
            Posture::On => "on",
            Posture::Tight => "tight",
        }
    }

    /// The cache budget for this posture on the given cluster: `On` gets
    /// the whole cluster's memory (replica sets are cluster-resident
    /// aggregates), `Tight` a single task's θ_t.
    fn budget(self, cc: &ClusterConfig) -> Option<u64> {
        match self {
            Posture::Off => None,
            Posture::On => Some(cc.mem_per_task * cc.total_tasks() as u64),
            Posture::Tight => Some(cc.mem_per_task),
        }
    }
}

/// One measured run: the summary plus the `(P,Q,R)` choices of every
/// iteration (needed to decide when the byte invariant must hold exactly).
struct CacheRun {
    summary: RunSummary,
    pqr: Vec<(usize, usize, usize, usize)>,
}

/// A named workload runner in the sweep's posture × workload grid.
type Workload<'a> = (&'a str, Box<dyn Fn(Posture) -> CacheRun + 'a>);

/// Runs `iters` repetitions of `step` on a fresh session with the given
/// cache posture, collecting the accumulated summary.
fn cache_run(
    cc: ClusterConfig,
    posture: Posture,
    bind: impl FnOnce(&mut Session) -> Result<(), SessionError>,
    mut step: impl FnMut(&mut Session) -> Result<RunReport, SessionError>,
    iters: usize,
) -> CacheRun {
    let mut session = Session::new(Engine::fuseme(cc));
    session.set_replica_cache(posture.budget(&cc));
    bind(&mut session).expect("generate inputs");
    let mut pqr = Vec::new();
    let summary = measure_with("cachesweep", || {
        for _ in 0..iters {
            let report = step(&mut session).expect("cachesweep runs must complete");
            pqr.extend(pqr_list(&report.stats));
        }
        session_summary(&session, None)
    });
    CacheRun { summary, pqr }
}

/// Asserts the sweep's accounting invariants for one workload's rows.
fn check_invariants(name: &str, off: &CacheRun, on: &CacheRun, min_reduction: Option<f64>) {
    assert_eq!(off.summary.status, RunStatus::Completed);
    assert_eq!(on.summary.status, RunStatus::Completed);
    let saved = on.summary.cache.map(|c| c.saved_bytes).unwrap_or(0);
    if off.pqr == on.pqr {
        // Same partitionings ⇒ a hit is exactly a shuffle not charged.
        assert_eq!(
            off.summary.comm_total(),
            on.summary.comm_total() + saved,
            "{name}: comm_off must equal comm_on + saved_bytes"
        );
    }
    if let Some(min) = min_reduction {
        let reduction =
            1.0 - on.summary.comm_total() as f64 / off.summary.comm_total().max(1) as f64;
        assert!(
            reduction >= min,
            "{name}: cache-on must ship ≥{:.0}% fewer bytes, got {:.1}% \
             (off {} B, on {} B)",
            min * 100.0,
            reduction * 100.0,
            off.summary.comm_total(),
            on.summary.comm_total(),
        );
    }
}

/// Runs the replica-cache sweep, printing the table and persisting
/// `cachesweep.json`. `smoke` shrinks the workloads to CI-sized fixtures
/// (same postures, same invariants, seconds instead of minutes).
pub fn run(scale: Scale, out_dir: &Path, smoke: bool) -> Vec<Measurement> {
    let (gnmf, als, cc) = if smoke {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 256 << 20;
        (
            Gnmf {
                users: 80,
                items: 80,
                factor: 5,
                block_size: 10,
                density: 0.5,
            },
            AlsLoss {
                rows: 40,
                cols: 40,
                k: 8,
                block_size: 8,
                density: 0.1,
            },
            cc,
        )
    } else {
        let users = scale.dim(480_189);
        let items = scale.dim(17_770);
        let factor = scale.factor(200);
        // At full scale Netflix's X (≈100.7M non-zeros, 16 B each) is
        // ≈2.1× the bytes of V (480189×200 doubles). The harness scales
        // factor dimensions more gently than element dimensions, which
        // would shrink X far below V; restore the paper's X:V byte ratio
        // by deriving the density from the scaled shapes instead.
        let density = (1.05 * factor as f64 / items as f64).min(1.0);
        (
            Gnmf {
                users,
                items,
                factor,
                block_size: scale.block_size(),
                density,
            },
            AlsLoss {
                rows: users,
                cols: items,
                k: factor,
                block_size: scale.block_size(),
                density,
            },
            scale.factor_cluster(8),
        )
    };

    let mut measurements = Vec::new();
    let mut table = Table::new(
        &format!(
            "Cachesweep — {ITERS} iterations, replica cache off/on/tight \
             (hits skip the consolidation shuffle of loop-invariant inputs)"
        ),
        &[
            "workload", "cache", "comm GB", "saved GB", "hits", "misses", "evict", "inval",
            "sim s", "wall s",
        ],
    );

    let postures = [Posture::Off, Posture::On, Posture::Tight];
    let workloads: [Workload; 2] = [
        (
            "GNMF",
            Box::new(|p| {
                cache_run(
                    cc,
                    p,
                    |s| gnmf.bind_inputs(s, 13),
                    |s| gnmf.iterate(s),
                    ITERS,
                )
            }),
        ),
        (
            "ALS loss",
            Box::new(|p| {
                cache_run(
                    cc,
                    p,
                    |s| als.bind_inputs(s, 13),
                    |s| s.run_script(AlsLoss::loss_script()),
                    ITERS,
                )
            }),
        ),
    ];

    for (name, runner) in &workloads {
        let runs: Vec<(Posture, CacheRun)> = postures.iter().map(|&p| (p, runner(p))).collect();
        // GNMF's rating matrix dominates its iteration traffic; the paper's
        // headline posture must save ≥30%. The ALS loss has *only*
        // loop-invariant inputs, so the byte invariant alone is checked
        // (its reduction is far larger, but asserting one headline keeps
        // the experiment honest about what it claims).
        let min_reduction = (*name == "GNMF").then_some(0.30);
        check_invariants(name, &runs[0].1, &runs[1].1, min_reduction);

        for (posture, r) in &runs {
            let c = r.summary.cache.unwrap_or_default();
            table.row(vec![
                (*name).into(),
                posture.label().into(),
                format!("{:.3}", gb(r.summary.comm_total())).into(),
                format!("{:.3}", gb(c.saved_bytes)).into(),
                c.hits.into(),
                c.misses.into(),
                c.evictions.into(),
                c.invalidations.into(),
                format!("{:.1}", r.summary.sim_secs).into(),
                format!("{:.2}", r.summary.wall_secs).into(),
            ]);
            measurements.push(Measurement {
                experiment: "cachesweep".into(),
                label: (*name).to_string(),
                engine: format!("FuseME cache-{}", posture.label()),
                run: r.summary.clone(),
            });
        }
    }

    table.print();
    println!(
        "  (a hit is exactly a shuffle not charged: whenever the off/on rows executed \
         the same (P,Q,R) sequence, comm_off == comm_on + saved_bytes holds to the byte)"
    );
    write_json(out_dir, "cachesweep", &measurements).expect("write results");
    measurements
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_saves_bytes_and_reconciles() {
        let dir = std::env::temp_dir().join(format!("fuseme-cachesweep-{}", std::process::id()));
        let measurements = run(Scale::default_scale(), &dir, true);
        // Two workloads × three postures.
        assert_eq!(measurements.len(), 6);
        let gnmf_on = measurements
            .iter()
            .find(|m| m.label == "GNMF" && m.engine.ends_with("cache-on"))
            .unwrap();
        let c = gnmf_on.run.cache.expect("cache stats attached");
        assert!(c.hits > 0);
        assert!(c.saved_bytes > 0);
        // Cache-off rows carry no cache stats at all.
        let gnmf_off = measurements
            .iter()
            .find(|m| m.label == "GNMF" && m.engine.ends_with("cache-off"))
            .unwrap();
        assert!(gnmf_off.run.cache.is_none());
        assert!(dir.join("cachesweep.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
