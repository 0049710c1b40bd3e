//! Chaos experiment: fault injection and recovery overhead on GNMF.
//!
//! Not a paper artifact — the paper runs on Spark and inherits its fault
//! tolerance silently. This experiment makes the cost of surviving failures
//! visible: GNMF iterations run under a seeded [`FaultPlan`] that crashes
//! task attempts, slows tasks down, and kills executors at a swept rate,
//! once with recovery armed (task retry, speculation, stage re-runs)
//! and once with recovery off (any fault is terminal, like the seed
//! engine). Rows report completion time, total traffic, and *wasted work* —
//! bytes/FLOPs an oracle (fault-free) run would not have spent — which
//! reconciles exactly: `traffic == oracle traffic + wasted bytes` for every
//! completed run.

use std::path::Path;

use fuseme::prelude::*;
use fuseme_workloads::gnmf::Gnmf;

use crate::{gb, measure_with, session_summary, write_json, Measurement, Scale, Table};

/// GNMF iterations per measured run.
const ITERS: usize = 2;
/// Straggler slowdown injected alongside crashes.
const SLOWDOWN: f64 = 4.0;
/// Seed of every fault plan (deterministic: rerunning the experiment
/// perturbs the same tasks).
const SEED: u64 = 0xC4A05;

/// Swept per-attempt fault rates (crash and straggler).
const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// Stage whose executor dies in every faulty configuration — early enough
/// that any GNMF iteration reaches it, exercising the driver's stage
/// re-run path deterministically (rate-based losses are too rare per
/// stage to show up reliably in a short run).
const LOST_EXECUTOR_STAGE: u64 = 3;

/// The recovery posture under test: Spark-like, with a retry budget deep
/// enough that even the highest swept rate cannot realistically exhaust it
/// (terminal loss needs `rate^(retries+1)` per task).
fn recovery() -> FaultToleranceConfig {
    FaultToleranceConfig::Armed {
        max_task_retries: 6,
    }
}

/// Builds the fault plan for one swept rate (`None` at rate zero).
fn plan_for(rate: f64) -> Option<FaultPlan> {
    (rate > 0.0).then(|| {
        FaultPlan::new(SEED)
            .with_crash_rate(rate)
            .with_straggler_rate(rate, SLOWDOWN)
            .with_executor_loss_at(LOST_EXECUTOR_STAGE)
    })
}

/// One measured run: fresh engine + session, `ITERS` GNMF iterations.
fn chaos_run(scale: Scale, g: &Gnmf, rate: f64, ft: Option<FaultToleranceConfig>) -> RunSummary {
    let mut session = Session::new(Engine::fuseme(scale.factor_cluster(8)));
    session.set_fault_plan(plan_for(rate));
    if let Some(ft) = ft {
        session.set_fault_tolerance(ft);
    }
    g.bind_inputs(&mut session, 13).expect("generate inputs");
    measure_with("chaos", || {
        let error = g.run(&mut session, ITERS).err();
        session_summary(&session, error.as_ref())
    })
}

/// Runs the chaos sweep, printing the table and persisting `chaos.json`.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Measurement> {
    let g = Gnmf {
        users: scale.dim(480_189),
        items: scale.dim(17_770),
        factor: scale.factor(200),
        block_size: scale.block_size(),
        density: 0.0118,
    };

    let mut measurements = Vec::new();
    let mut table = Table::new(
        &format!("Chaos — GNMF ({ITERS} iterations) under injected faults"),
        &[
            "fault rate",
            "recovery",
            "status",
            "elapsed s",
            "comm GB",
            "wasted GB",
            "retries",
            "spec",
            "re-runs",
        ],
    );

    // Oracle: fault-free, recovery armed (recovery is free without faults).
    let oracle = chaos_run(scale, &g, 0.0, Some(recovery()));
    let oracle_comm = oracle.comm_total();

    for rate in RATES {
        for (posture, ft) in [("on", Some(recovery())), ("off", None)] {
            let run = chaos_run(scale, &g, rate, ft);
            let f = run.faults.unwrap_or_default();
            table.row(vec![
                format!("{rate:.2}").into(),
                posture.into(),
                run.status.label().into(),
                match run.status {
                    RunStatus::Completed => format!("{:.1}", run.sim_secs),
                    other => other.label().to_string(),
                }
                .into(),
                match run.status {
                    RunStatus::Completed => format!("{:.3}", gb(run.comm_total())),
                    _ => "-".into(),
                }
                .into(),
                format!("{:.3}", gb(f.wasted_bytes)).into(),
                f.retries.into(),
                f.speculative_launches.into(),
                f.stage_reruns.into(),
            ]);
            if run.status == RunStatus::Completed {
                // The wasted-work invariant every completed chaos run obeys.
                assert_eq!(
                    run.comm_total(),
                    oracle_comm + f.wasted_bytes,
                    "traffic must equal oracle + wasted (rate {rate}, recovery {posture})"
                );
            }
            measurements.push(Measurement {
                experiment: "chaos".into(),
                label: format!("rate {rate:.2}"),
                engine: format!("FuseME recovery {posture}"),
                run,
            });
        }
    }

    table.print();
    println!(
        "  (oracle: {:.1} simulated s, {:.3} GB; every completed row satisfies \
         comm == oracle + wasted; with recovery off any injected fault is terminal)",
        oracle.sim_secs,
        gb(oracle_comm)
    );
    write_json(out_dir, "chaos", &measurements).expect("write results");
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

    fn tiny_session() -> Session {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 256 << 20;
        Session::new(Engine::fuseme(cc))
    }

    fn tiny_plan() -> FaultPlan {
        FaultPlan::new(SEED)
            .with_crash_rate(0.05)
            .with_straggler_rate(0.05, SLOWDOWN)
    }

    #[test]
    fn chaos_completes_with_recovery_and_fails_without() {
        let g = tiny();

        // Oracle: no faults.
        let mut oracle = tiny_session();
        g.bind_inputs(&mut oracle, 42).unwrap();
        g.run(&mut oracle, 2).unwrap();
        let oracle_comm = oracle.engine().cluster().comm().total();

        // Recovery on: completes despite the injected crashes, and the
        // extra traffic is exactly the booked wasted work.
        let mut resilient = tiny_session();
        resilient.set_fault_plan(Some(tiny_plan()));
        resilient.set_fault_tolerance(recovery());
        g.bind_inputs(&mut resilient, 42).unwrap();
        g.run(&mut resilient, 2).unwrap();
        let fs = resilient.fault_stats();
        assert!(fs.retries > 0, "5% crash rate must hit something");
        assert!(fs.wasted_bytes > 0);
        assert_eq!(
            resilient.engine().cluster().comm().total(),
            oracle_comm + fs.wasted_bytes
        );

        // Same plan, recovery off: terminal.
        let mut fragile = tiny_session();
        fragile.set_fault_plan(Some(tiny_plan()));
        g.bind_inputs(&mut fragile, 42).unwrap();
        let err = g.run(&mut fragile, 2).unwrap_err();
        let SessionError::Exec(sim_err) = &err else {
            panic!("expected an execution error, got {err:?}");
        };
        assert!(matches!(sim_err, SimError::TaskLost { .. }), "{err:?}");
        // …and it propagates as a failed RunSummary, the way the sweep
        // records it.
        let summary = RunSummary::failed("FuseME", sim_err);
        assert_eq!(summary.status, RunStatus::Failed);
        assert!(summary.faults.is_none());
    }

    #[test]
    fn fault_free_summary_identical_with_and_without_recovery() {
        // Satellite (d): with no faults injected, arming fault tolerance
        // changes nothing — the serialized RunSummary is byte-identical to
        // a run on a session that never touched the fault API.
        let g = tiny();
        let run = |arm: bool| -> String {
            let mut s = tiny_session();
            if arm {
                s.set_fault_plan(None);
                s.set_fault_tolerance(recovery());
            }
            g.bind_inputs(&mut s, 42).unwrap();
            g.run(&mut s, 2).unwrap();
            // Without the measurement door, wall time stays pinned at zero.
            serde_json::to_string(&session_summary(&s, None)).unwrap()
        };
        assert_eq!(run(false), run(true));
    }
}
