//! Deterministic distributed-runtime simulator.
//!
//! FuseME proper runs on Apache Spark over a physical cluster (one
//! coordinator and eight workers, 1 Gbps Ethernet, 12 tasks per node, a
//! 10 GB memory budget per task). This crate substitutes that runtime with
//! a simulator that keeps every property the paper's evaluation depends on:
//!
//! * **Real computation** — task closures execute actual block kernels on a
//!   local thread pool, so results are exact and verifiable.
//! * **Exact communication accounting** — every block that crosses the
//!   simulated network is charged to a [`CommLedger`] by its true byte size,
//!   split into the paper's two phases (matrix consolidation and matrix
//!   aggregation).
//! * **Memory enforcement** — each task declares its peak memory before
//!   running; exceeding the per-task budget θ_t aborts the stage with
//!   [`SimError::OutOfMemory`], reproducing the paper's O.O.M. bars.
//! * **Simulated elapsed time** — tasks are scheduled in waves of `N·T_c`
//!   slots; a wave costs `max(bytes/B̂n_task, flops/B̂c_task)` over its tasks
//!   (communication and computation overlap, paper §3.3), and a configurable
//!   cap reproduces the paper's 12-hour time-outs.
//!
//! * **Fault injection and recovery** — a seeded [`FaultPlan`] perturbs
//!   tasks deterministically (crashes, stragglers, executor loss); a
//!   [`FaultToleranceConfig`] arms Spark-style recovery — per-task retry
//!   with capped exponential backoff and wave-level speculative execution
//!   here, stage re-runs and the memory-pressure ladder in the driver —
//!   whose recomputation is charged to the ledger and clock like any other
//!   work (see [`fault`]).
//!
//! Determinism: stages, waves, ledger charges, and fault draws are ordered
//! by task id; thread scheduling never affects observable results.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod executor;
pub mod fault;
pub mod ledger;
pub mod replica_cache;
pub mod time;

pub use cluster::{Cluster, ClusterConfig};
pub use executor::{StageOutcome, TaskWork};
pub use fault::FaultToleranceConfig;
pub use fault::{FaultKind, FaultLedger, FaultPlan, FaultScope, FaultSpec, FaultStats};
pub use ledger::{CommLedger, CommStats, Phase};
pub use replica_cache::{CacheOutcome, CacheStats, ReplicaCache, ReplicaKey};
pub use time::{pack_waves, SimClock, WaveSlot};

/// Where an out-of-memory failure was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OomSite {
    /// Caught by memory admission before any traffic or time was charged
    /// (the declared `MemEst` already exceeded θ_t).
    Admission,
    /// Hit mid-flight, after the stage's work was charged (the *actual*
    /// peak exceeded the declared estimate — see
    /// [`fault::FaultKind::MemSkew`]).
    Runtime,
}

impl std::fmt::Display for OomSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OomSite::Admission => write!(f, "admission"),
            OomSite::Runtime => write!(f, "runtime"),
        }
    }
}

/// One rung of the driver's memory-pressure recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LadderRung {
    /// Re-ran the bounded search against a tightened budget
    /// `θ_t · headroom`.
    Replan {
        /// The effective safety factor this attempt planned against.
        headroom: f64,
    },
    /// Split the fused plan in two (Algorithm 3's exploitation-phase
    /// `v_mm` split) and executed the pieces.
    Split,
    /// Fell back to unfused per-operator execution.
    Unfused,
}

impl std::fmt::Display for LadderRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LadderRung::Replan { headroom } => write!(f, "replan(headroom {headroom:.3})"),
            LadderRung::Split => write!(f, "split"),
            LadderRung::Unfused => write!(f, "unfused"),
        }
    }
}

/// Structured post-mortem of an exec unit the memory-pressure ladder could
/// not save: every rung was attempted and each still exceeded θ_t.
#[derive(Debug, Clone, PartialEq)]
pub struct OomReport {
    /// Root node of the offending exec unit.
    pub root: usize,
    /// Peak memory the unit's chosen plan declared (`MemEst`).
    pub declared_bytes: u64,
    /// Actual peak of the failing attempt (equals the declared estimate
    /// for admission failures; larger under memory skew).
    pub actual_bytes: u64,
    /// The per-task budget θ_t the unit was admitted against.
    pub budget: u64,
    /// Minimum θ_t under which the bounded search finds a feasible
    /// partitioning for this unit (the finest `(P,Q,R)`'s `MemEst`
    /// divided by the optimizer's safety factor).
    pub min_feasible_theta: u64,
    /// Ladder rungs attempted, in order.
    pub rungs: Vec<LadderRung>,
}

impl std::fmt::Display for OomReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unit root {} out of memory: declared {} bytes, actual {} bytes, budget {}; \
             minimum feasible theta_t {}; ladder [",
            self.root, self.declared_bytes, self.actual_bytes, self.budget, self.min_feasible_theta
        )?;
        for (i, r) in self.rungs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "] exhausted")
    }
}

/// Errors surfaced by the simulated runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A task's peak memory exceeded the per-task budget θ_t.
    OutOfMemory {
        /// Offending task id.
        task: usize,
        /// Bytes the task needed.
        needed: u64,
        /// Budget per task, in bytes.
        budget: u64,
        /// Root node of the exec unit the stage belonged to, when known
        /// (the simulator reports `None`; the driver fills it in).
        root: Option<usize>,
        /// The `(P, Q, R)` partitioning the unit ran under, when known.
        pqr: Option<(usize, usize, usize)>,
        /// Whether admission control or mid-flight execution detected it.
        site: OomSite,
    },
    /// The memory-pressure recovery ladder was exhausted: re-planning,
    /// splitting, and unfused execution all still exceeded θ_t.
    OomExhausted(Box<OomReport>),
    /// Simulated elapsed time exceeded the configured cap (the paper's
    /// "T.O." — longer than 12 hours).
    Timeout {
        /// Simulated seconds elapsed when the cap was hit.
        elapsed: f64,
        /// The cap, in simulated seconds.
        cap: f64,
    },
    /// A kernel failed inside a task.
    Task(String),
    /// An injected crash exhausted the task's retry budget (with fault
    /// tolerance off, the first crash is terminal).
    TaskLost {
        /// Stage the task belonged to.
        stage: u64,
        /// Offending task id.
        task: usize,
        /// Attempts consumed (1 = no retries were allowed).
        attempts: u32,
    },
    /// The stage's executor died; recoverable by a driver-side stage
    /// re-run when the [`FaultToleranceConfig`] is armed.
    ExecutorLost {
        /// Stage whose executor was lost.
        stage: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfMemory {
                task,
                needed,
                budget,
                root,
                pqr,
                site,
            } => {
                write!(
                    f,
                    "task {task} out of memory at {site}: needs {needed} bytes, budget {budget}"
                )?;
                if let Some(root) = root {
                    write!(f, ", unit root {root}")?;
                }
                if let Some((p, q, r)) = pqr {
                    write!(f, ", pqr ({p},{q},{r})")?;
                }
                Ok(())
            }
            SimError::OomExhausted(report) => write!(f, "{report}"),
            SimError::Timeout { elapsed, cap } => {
                write!(f, "timed out: {elapsed:.1}s simulated > cap {cap:.1}s")
            }
            SimError::Task(msg) => write!(f, "task failure: {msg}"),
            SimError::TaskLost {
                stage,
                task,
                attempts,
            } => write!(
                f,
                "task {task} of stage {stage} lost after {attempts} attempt(s)"
            ),
            SimError::ExecutorLost { stage } => {
                write!(f, "executor lost during stage {stage}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<fuseme_matrix::Error> for SimError {
    fn from(e: fuseme_matrix::Error) -> Self {
        SimError::Task(e.to_string())
    }
}
