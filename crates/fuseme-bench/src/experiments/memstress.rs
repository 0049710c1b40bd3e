//! Memstress experiment: graceful degradation under memory pressure.
//!
//! Not a paper artifact — the paper reports hard "O.O.M." bars whenever a
//! configuration exceeds θ_t. This experiment sweeps θ_t downward over GNMF
//! under a deterministic estimate-skew fault ([`FaultKind::MemSkew`]
//! inflates the first stage's task-0 actual peak 4× above its declared
//! `MemEst`) and compares three postures per budget:
//!
//! * **oracle** — no skew, recovery armed (free without faults): the clean
//!   baseline traffic;
//! * **seed** — skew, recovery off: the pre-ladder engine, which turns the
//!   first runtime OOM into a terminal "O.O.M." row;
//! * **ladder** — skew, memory recovery on: the driver walks the recovery
//!   ladder (tightened re-plan → plan split → unfused execution) and books
//!   every failed attempt as wasted work.
//!
//! Completed ladder rows that re-land on the oracle's `(P,Q,R)` satisfy the
//! chaos experiment's invariant exactly: `comm == oracle + wasted`. The
//! sweep asserts at least one θ_t where the seed posture fails OutOfMemory
//! but the ladder completes.

use std::path::Path;

use fuseme::prelude::*;
use fuseme_workloads::gnmf::Gnmf;

use crate::{gb, measure_with, pqr_list, session_summary, write_json, Measurement, Scale, Table};

/// GNMF iterations per measured run.
const ITERS: usize = 2;
/// Seed of every fault plan (deterministic).
const SEED: u64 = 0x3E57;
/// How far the injected skew inflates actual peak memory over `MemEst`.
const SKEW_FACTOR: f64 = 4.0;
/// θ_t divisors swept downward from the scale's baseline budget.
const THETA_DIVISORS: [u64; 6] = [1, 4, 16, 64, 256, 1024];

/// A run's summary plus the `(P,Q,R)` choices of every completed iteration
/// (needed to decide when the ledger invariant must hold exactly).
struct MemRun {
    summary: RunSummary,
    pqr: Vec<(usize, usize, usize, usize)>,
}

/// One measured run: fresh engine + session, `ITERS` GNMF iterations under
/// the given skew/recovery posture.
fn mem_run(cc: ClusterConfig, g: &Gnmf, skew: bool, recovery: bool) -> MemRun {
    let mut session = Session::new(Engine::fuseme(cc));
    if skew {
        session.set_fault_plan(Some(FaultPlan::new(SEED).with_mem_skew_at(
            0,
            0,
            SKEW_FACTOR,
        )));
    }
    if recovery {
        session.set_fault_tolerance(FaultToleranceConfig::resilient());
    }
    g.bind_inputs(&mut session, 13).expect("generate inputs");
    let mut pqr = Vec::new();
    let summary = measure_with("memstress", || {
        let result = (0..ITERS).try_for_each(|_| {
            pqr.extend(pqr_list(&g.iterate(&mut session)?.stats));
            Ok(())
        });
        session_summary(&session, result.err().as_ref())
    });
    MemRun { summary, pqr }
}

/// Runs the memory-pressure sweep, printing the table and persisting
/// `memstress.json`.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    let g = Gnmf {
        users: scale.dim(480_189),
        items: scale.dim(17_770),
        factor: scale.factor(200),
        block_size: scale.block_size(),
        density: 0.0118,
    };
    let base = scale.factor_cluster(8);

    let mut measurements = Vec::new();
    let mut table = Table::new(
        &format!(
            "Memstress — GNMF ({ITERS} iterations) under shrinking θ_t, \
             {SKEW_FACTOR}× estimate skew on the first stage"
        ),
        &[
            "theta_t MB",
            "posture",
            "status",
            "comm GB",
            "wasted GB",
            "rejects",
            "replans",
            "splits",
            "unfused",
        ],
    );

    let mut demonstrated = false;
    for div in THETA_DIVISORS {
        let mut cc = base;
        cc.mem_per_task = (base.mem_per_task / div).max(1);
        let theta_mb = cc.mem_per_task as f64 / 1e6;

        let oracle = mem_run(cc, &g, false, true);
        let seed = mem_run(cc, &g, true, false);
        let ladder = mem_run(cc, &g, true, true);

        if seed.summary.status == RunStatus::OutOfMemory
            && ladder.summary.status == RunStatus::Completed
        {
            demonstrated = true;
        }
        if oracle.summary.status == RunStatus::Completed
            && ladder.summary.status == RunStatus::Completed
            && ladder.pqr == oracle.pqr
        {
            // Recovery re-landed on the oracle's partitioning, so the extra
            // traffic must be exactly the booked wasted work.
            let f = ladder.summary.faults.unwrap_or_default();
            assert_eq!(
                ladder.summary.comm_total(),
                oracle.summary.comm_total() + f.wasted_bytes,
                "traffic must equal oracle + wasted (theta_t {theta_mb:.3} MB)"
            );
        }

        for (posture, r) in [("oracle", &oracle), ("seed", &seed), ("ladder", &ladder)] {
            let f = r.summary.faults.unwrap_or_default();
            table.row(vec![
                format!("{theta_mb:.3}").into(),
                posture.into(),
                r.summary.status.label().into(),
                match r.summary.status {
                    RunStatus::Completed => format!("{:.3}", gb(r.summary.comm_total())),
                    _ => "-".into(),
                }
                .into(),
                format!("{:.3}", gb(f.wasted_bytes)).into(),
                f.mem_admission_rejects.into(),
                f.replans.into(),
                f.plan_splits.into(),
                f.unfused_fallbacks.into(),
            ]);
            measurements.push(Measurement {
                experiment: "memstress".into(),
                label: format!("theta {theta_mb:.3} MB"),
                engine: format!("FuseME {posture}"),
                run: r.summary.clone(),
            });
        }
    }
    assert!(
        demonstrated,
        "the sweep must contain a theta_t where the seed posture fails \
         OutOfMemory but the recovery ladder completes"
    );

    table.print();
    println!(
        "  (skew inflates the first stage's task-0 peak {SKEW_FACTOR}× over its declared \
         MemEst; completed ladder rows that re-land on the oracle's (P,Q,R) satisfy \
         comm == oracle + wasted exactly)"
    );
    write_json(out_dir, "memstress", &measurements).expect("write results");
    measurements
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Gnmf {
        Gnmf {
            users: 60,
            items: 40,
            factor: 10,
            block_size: 10,
            density: 0.2,
        }
    }

    fn tiny_config() -> ClusterConfig {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 256 << 20;
        cc
    }

    /// An extreme targeted skew guarantees a runtime OOM at any budget, so
    /// the recovery-off/on contrast is deterministic even on the tiny
    /// fixture (the sweep itself uses the realistic 4× factor).
    fn extreme_skew() -> FaultPlan {
        FaultPlan::new(SEED).with_mem_skew_at(0, 0, 1e12)
    }

    #[test]
    fn runtime_oom_without_recovery_is_a_failed_summary() {
        let g = tiny();
        let mut s = Session::new(Engine::fuseme(tiny_config()));
        s.set_fault_plan(Some(extreme_skew()));
        g.bind_inputs(&mut s, 42).unwrap();
        let err = g.run(&mut s, 2).unwrap_err();
        let SessionError::Exec(sim_err) = &err else {
            panic!("expected an execution error, got {err:?}");
        };
        assert!(
            matches!(
                sim_err,
                SimError::OutOfMemory {
                    site: fuseme_sim::OomSite::Runtime,
                    ..
                }
            ),
            "{err:?}"
        );
        let summary = RunSummary::failed("FuseME", sim_err);
        assert_eq!(summary.status, RunStatus::OutOfMemory);
        assert!(summary.faults.is_none());
    }

    #[test]
    fn runtime_oom_with_recovery_completes_and_reconciles() {
        let g = tiny();

        let oracle = mem_run(tiny_config(), &g, false, false);
        assert_eq!(oracle.summary.status, RunStatus::Completed);

        // Rebuild with the extreme skew (mem_run's sweep factor is too
        // gentle for the tiny fixture's generous budget).
        let mut s = Session::new(Engine::fuseme(tiny_config()));
        s.set_fault_plan(Some(extreme_skew()));
        s.set_fault_tolerance(FaultToleranceConfig::resilient());
        g.bind_inputs(&mut s, 13).unwrap();
        let mut pqr = Vec::new();
        for _ in 0..ITERS {
            let report = g.iterate(&mut s).expect("ladder must recover");
            pqr.extend(pqr_list(&report.stats));
        }
        let fs = s.fault_stats();
        assert!(fs.replans >= 1, "{fs:?}");
        assert!(fs.wasted_bytes > 0);
        // The generous budget makes the tightened re-plan re-land on the
        // oracle's (P,Q,R), so the ledger reconciles exactly.
        assert_eq!(pqr, oracle.pqr);
        assert_eq!(
            s.engine().cluster().comm().total(),
            oracle.summary.comm_total() + fs.wasted_bytes
        );
    }

    #[test]
    fn fault_free_postures_are_byte_identical() {
        // A skew plan that never fires and an armed recovery ladder change
        // nothing: the serialized summaries match the bare run exactly.
        let g = tiny();
        let bare = mem_run(tiny_config(), &g, false, false);
        let armed = mem_run(tiny_config(), &g, false, true);
        let mut a = bare.summary;
        let mut b = armed.summary;
        a.wall_secs = 0.0;
        b.wall_secs = 0.0;
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(bare.pqr, armed.pqr);
    }
}
