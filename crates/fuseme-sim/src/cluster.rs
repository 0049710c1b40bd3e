//! Cluster configuration and the stateful cluster handle.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::fault::{FaultLedger, FaultPlan, FaultStats, FaultToleranceConfig};
use crate::ledger::{CommLedger, CommStats};
use crate::replica_cache::{CacheStats, ReplicaCache};
use crate::time::SimClock;

/// Static description of the simulated cluster.
///
/// Defaults mirror the paper's testbed (§6.1): 8 worker nodes, 12 tasks per
/// node, 1 Gbps Ethernet, ~546 GFLOPS compute per node, 10 GB of memory per
/// task, and a 12-hour timeout. Scaled experiments shrink `mem_per_task`
/// and the bandwidths together with the matrices (see the bench crate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes, the paper's `N`.
    pub nodes: usize,
    /// Task slots per node, the paper's `T_c`.
    pub tasks_per_node: usize,
    /// Memory budget per task θ_t, in bytes.
    pub mem_per_task: u64,
    /// Peak network bandwidth per node B̂n, in bytes/second.
    pub net_bandwidth: f64,
    /// Peak computation bandwidth per node B̂c, in flops/second.
    pub compute_bandwidth: f64,
    /// Simulated-time cap; exceeding it raises [`crate::SimError::Timeout`].
    pub timeout_secs: f64,
    /// Fixed per-stage scheduling overhead in simulated seconds (Spark job
    /// launch, task serialization). Small but keeps tiny stages from being
    /// free.
    pub stage_overhead_secs: f64,
    /// Bytes of data per Spark-style partition. Operators that stripe a
    /// matrix over tasks spawn at least one task per partition, bounding
    /// per-task memory by partition size rather than `|data| / slots`.
    pub partition_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_testbed()
    }
}

impl ClusterConfig {
    /// The paper's 8-node testbed at full scale.
    pub fn paper_testbed() -> Self {
        ClusterConfig {
            nodes: 8,
            tasks_per_node: 12,
            mem_per_task: 10 * (1 << 30), // 10 GB
            net_bandwidth: 125_000_000.0, // 1 Gbps
            compute_bandwidth: 546e9,     // 546 GFLOPS (§6.3)
            timeout_secs: 12.0 * 3600.0,  // "T.O." threshold
            stage_overhead_secs: 0.5,
            partition_bytes: 128 << 20, // Spark default block
        }
    }

    /// A laptop-scale configuration for tests: tiny budgets, no overhead.
    pub fn test_small() -> Self {
        ClusterConfig {
            nodes: 2,
            tasks_per_node: 2,
            mem_per_task: 16 << 20, // 16 MiB
            net_bandwidth: 1e8,
            compute_bandwidth: 1e9,
            timeout_secs: f64::INFINITY,
            stage_overhead_secs: 0.0,
            partition_bytes: 1 << 20,
        }
    }

    /// Total task slots `T = N * T_c`.
    pub fn total_tasks(&self) -> usize {
        self.nodes * self.tasks_per_node
    }

    /// Effective per-task network bandwidth (node bandwidth shared by the
    /// node's task slots).
    pub fn task_net_bandwidth(&self) -> f64 {
        self.net_bandwidth / self.tasks_per_node as f64
    }

    /// Effective per-task compute bandwidth.
    pub fn task_compute_bandwidth(&self) -> f64 {
        self.compute_bandwidth / self.tasks_per_node as f64
    }

    /// Returns a copy with a different per-task memory budget.
    pub fn with_mem_per_task(mut self, bytes: u64) -> Self {
        self.mem_per_task = bytes;
        self
    }
}

/// A running simulated cluster: configuration, communication ledger, and
/// simulated clock. Physical operators execute stages against this handle
/// (see [`crate::executor`]).
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    ledger: CommLedger,
    clock: Mutex<SimClock>,
    next_stage: AtomicU64,
    fault_plan: Option<FaultPlan>,
    fault_tolerance: FaultToleranceConfig,
    faults: FaultLedger,
    replica_cache: Option<ReplicaCache>,
}

impl Cluster {
    /// Creates a cluster with zeroed ledger and clock, no fault injection,
    /// and fault tolerance off.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster {
            config,
            ledger: CommLedger::new(),
            clock: Mutex::new(SimClock::new()),
            next_stage: AtomicU64::new(0),
            fault_plan: None,
            fault_tolerance: FaultToleranceConfig::default(),
            faults: FaultLedger::new(),
            replica_cache: None,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The communication ledger.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Snapshot of communication totals.
    pub fn comm(&self) -> CommStats {
        self.ledger.snapshot()
    }

    /// Simulated seconds elapsed so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.clock.lock().elapsed_secs()
    }

    /// Mutable access to the clock (used by the executor).
    pub(crate) fn clock(&self) -> &Mutex<SimClock> {
        &self.clock
    }

    /// Allocates a cluster-unique stage id, used to attribute ledger
    /// charges and trace spans to the same stage.
    pub fn next_stage_id(&self) -> u64 {
        self.next_stage.fetch_add(1, Ordering::Relaxed)
    }

    /// Installs (or clears) the fault-injection schedule.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The installed fault-injection schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Sets the recovery policy: off, or armed with a task-retry budget.
    pub fn set_fault_tolerance(&mut self, cfg: FaultToleranceConfig) {
        self.fault_tolerance = cfg;
    }

    /// The active recovery policy.
    pub fn fault_tolerance(&self) -> FaultToleranceConfig {
        self.fault_tolerance
    }

    /// The recovery-activity / wasted-work ledger.
    pub fn fault_ledger(&self) -> &FaultLedger {
        &self.faults
    }

    /// Snapshot of recovery-activity counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.snapshot()
    }

    /// Enables the cuboid replica cache with the given byte budget (or
    /// disables it when `budget_bytes` is `None`). Replaces any existing
    /// cache, starting cold.
    pub fn set_replica_cache(&mut self, budget_bytes: Option<u64>) {
        self.replica_cache = budget_bytes.map(ReplicaCache::new);
    }

    /// The replica cache, if enabled.
    pub fn replica_cache(&self) -> Option<&ReplicaCache> {
        self.replica_cache.as_ref()
    }

    /// Snapshot of replica-cache activity, if the cache is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.replica_cache.as_ref().map(ReplicaCache::stats)
    }

    /// Resets ledger, clock, stage-id counter, and fault counters for a
    /// fresh measurement run. The fault plan and tolerance config persist;
    /// the replica cache stays enabled but is emptied (a fresh run starts
    /// cold).
    pub fn reset(&self) {
        self.ledger.reset();
        *self.clock.lock() = SimClock::new();
        self.next_stage.store(0, Ordering::Relaxed);
        self.faults.reset();
        if let Some(cache) = &self.replica_cache {
            cache.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_numbers() {
        let c = ClusterConfig::paper_testbed();
        assert_eq!(c.total_tasks(), 96);
        assert_eq!(c.mem_per_task, 10 * 1024 * 1024 * 1024);
        assert!((c.net_bandwidth - 1.25e8).abs() < 1.0);
    }

    #[test]
    fn per_task_bandwidth_shares_node() {
        let c = ClusterConfig::paper_testbed();
        assert!((c.task_net_bandwidth() * 12.0 - c.net_bandwidth).abs() < 1e-6);
    }

    #[test]
    fn cluster_reset_clears_state() {
        let cl = Cluster::new(ClusterConfig::test_small());
        cl.ledger().charge(crate::Phase::Consolidation, 42);
        cl.clock().lock().advance(1.0);
        assert!(cl.comm().total() > 0);
        cl.reset();
        assert_eq!(cl.comm().total(), 0);
        assert_eq!(cl.elapsed_secs(), 0.0);
    }
}
