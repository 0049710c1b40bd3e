//! Deterministic fault injection and fault-tolerance policy.
//!
//! FuseME proper inherits Spark's failure model: tasks crash and are
//! retried from lineage, stragglers are raced by speculative copies, and a
//! lost executor forces the driver to re-run the stages whose outputs it
//! held. The simulator reproduces that model with a *seeded* [`FaultPlan`]:
//! every injection decision is a pure function of `(seed, stage, task,
//! attempt)`, so a chaos run is exactly reproducible — rerunning the same
//! plan with the same seed perturbs the same tasks in the same way
//! regardless of thread scheduling.
//!
//! Recovery is governed by a [`FaultToleranceConfig`]: either off (the
//! default) or armed with a per-task retry budget, in which case task
//! retry, speculation, stage re-runs and the memory-pressure ladder all
//! run. Off, a single injected crash is terminal
//! ([`crate::SimError::TaskLost`]), exactly like the seed engine treated
//! every failure. Recovery is never free — retried and speculative work is
//! charged to the [`crate::CommLedger`] again and extends simulated time,
//! and the extra traffic is tracked as *wasted work* in a [`FaultLedger`]
//! so experiments can report the overhead of surviving failures.
//!
//! Memory pressure is a fault class of its own: a [`FaultKind::MemSkew`]
//! spec models estimate error — a task's actual peak exceeding its
//! declared `MemEst` — producing *runtime* out-of-memory failures that the
//! driver's memory-pressure recovery ladder (re-plan → split → unfused)
//! can absorb when recovery is armed.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// What kind of perturbation a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The task attempt fails after running; surfaced as
    /// [`crate::SimError::TaskLost`] once retries are exhausted. Targeted
    /// crashes hit only the first attempt (a retry lands on a healthy
    /// slot); rate-based crashes sample every attempt independently.
    TaskCrash,
    /// The task runs, but `slowdown`× slower than its declared cost (a slow
    /// disk, a noisy neighbour). Countered by speculative execution.
    Straggler {
        /// Multiplier ≥ 1 applied to the task's simulated duration.
        slowdown: f64,
    },
    /// The whole stage's executor dies after the stage ran but before its
    /// outputs are consumed; surfaced as [`crate::SimError::ExecutorLost`]
    /// and recovered by a driver-side stage re-run.
    ExecutorLoss,
    /// The task's *actual* peak memory is `factor`× its declared `MemEst`
    /// (estimate error on sparse inputs: a denser-than-predicted block, an
    /// underestimated intermediate). Surfaces as a runtime
    /// [`crate::SimError::OutOfMemory`] — after the stage's traffic was
    /// charged — whenever the inflated peak exceeds θ_t; recovered by the
    /// driver's memory-pressure ladder.
    MemSkew {
        /// Multiplier ≥ 1 applied to the task's declared peak memory.
        factor: f64,
    },
}

/// Which tasks a [`FaultSpec`] applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultScope {
    /// Independent per-(stage, task, attempt) probability in `[0, 1]`.
    Rate(f64),
    /// Exactly one (stage, task) coordinate. For [`FaultKind::ExecutorLoss`]
    /// the task index is ignored — the loss is per stage.
    Targeted {
        /// Cluster-unique stage id (see [`crate::Cluster::next_stage_id`]).
        stage: u64,
        /// Dense task index within the stage.
        task: usize,
    },
}

/// One injection rule: a fault kind plus the scope it applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The perturbation to inject.
    pub kind: FaultKind,
    /// Which tasks it hits.
    pub scope: FaultScope,
}

/// A deterministic, seedable schedule of faults for one run.
///
/// Decisions are derived by hashing `(seed, spec index, stage, task,
/// attempt)` with splitmix64 — no shared RNG state, so concurrent stages
/// and retried attempts sample independently and reproducibly.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

/// splitmix64 finalizer; the same generator the vendored `rand` uses.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a hash of the given coordinates.
fn draw(seed: u64, spec: usize, stage: u64, task: u64, attempt: u64) -> f64 {
    let mut h = mix(seed ^ 0xA076_1D64_78BD_642F);
    h = mix(h ^ spec as u64);
    h = mix(h ^ stage);
    h = mix(h ^ task);
    h = mix(h ^ attempt);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds a spec, builder-style.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Crashes every task attempt independently with probability `rate`.
    pub fn with_crash_rate(self, rate: f64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::TaskCrash,
            scope: FaultScope::Rate(rate),
        })
    }

    /// Crashes the first attempt of exactly one (stage, task).
    pub fn with_crash_at(self, stage: u64, task: usize) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::TaskCrash,
            scope: FaultScope::Targeted { stage, task },
        })
    }

    /// Slows every task down by `slowdown`× with probability `rate`.
    pub fn with_straggler_rate(self, rate: f64, slowdown: f64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::Straggler { slowdown },
            scope: FaultScope::Rate(rate),
        })
    }

    /// Slows exactly one (stage, task) down by `slowdown`×.
    pub fn with_straggler_at(self, stage: u64, task: usize, slowdown: f64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::Straggler { slowdown },
            scope: FaultScope::Targeted { stage, task },
        })
    }

    /// Kills the executor of exactly one stage.
    pub fn with_executor_loss_at(self, stage: u64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::ExecutorLoss,
            scope: FaultScope::Targeted { stage, task: 0 },
        })
    }

    /// Inflates every task's actual peak memory to `factor`× its declared
    /// estimate, independently with probability `rate`.
    pub fn with_mem_skew_rate(self, rate: f64, factor: f64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::MemSkew { factor },
            scope: FaultScope::Rate(rate),
        })
    }

    /// Inflates exactly one (stage, task)'s actual peak memory by `factor`×.
    pub fn with_mem_skew_at(self, stage: u64, task: usize, factor: f64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::MemSkew { factor },
            scope: FaultScope::Targeted { stage, task },
        })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether attempt `attempt` (0-based) of `(stage, task)` crashes.
    pub fn crashes(&self, stage: u64, task: usize, attempt: u32) -> bool {
        self.specs.iter().enumerate().any(|(i, s)| {
            matches!(s.kind, FaultKind::TaskCrash)
                && match s.scope {
                    FaultScope::Targeted { stage: st, task: t } => {
                        st == stage && t == task && attempt == 0
                    }
                    FaultScope::Rate(p) => {
                        draw(self.seed, i, stage, task as u64, attempt as u64) < p
                    }
                }
        })
    }

    /// The straggler multiplier for `(stage, task)` — `1.0` when healthy;
    /// overlapping specs compound by taking the worst.
    pub fn slowdown(&self, stage: u64, task: usize) -> f64 {
        let mut worst = 1.0f64;
        for (i, s) in self.specs.iter().enumerate() {
            let FaultKind::Straggler { slowdown } = s.kind else {
                continue;
            };
            let hit = match s.scope {
                FaultScope::Targeted { stage: st, task: t } => st == stage && t == task,
                // Salt the attempt slot so straggler draws are independent
                // of crash draws at the same coordinate.
                FaultScope::Rate(p) => draw(self.seed, i, stage, task as u64, u64::MAX) < p,
            };
            if hit {
                worst = worst.max(slowdown.max(1.0));
            }
        }
        worst
    }

    /// The memory-skew multiplier for `(stage, task)` — `1.0` when the
    /// declared estimate holds; overlapping specs take the worst. Skew is
    /// per (stage, task), not per attempt: re-running the same work hits
    /// the same data, so the same skew — only a *re-planned* stage (a
    /// fresh stage id) escapes a rate-scoped skew, and a targeted skew
    /// never re-fires on re-planned stages at all.
    pub fn mem_skew(&self, stage: u64, task: usize) -> f64 {
        let mut worst = 1.0f64;
        for (i, s) in self.specs.iter().enumerate() {
            let FaultKind::MemSkew { factor } = s.kind else {
                continue;
            };
            let hit = match s.scope {
                FaultScope::Targeted { stage: st, task: t } => st == stage && t == task,
                // Salt the attempt slot (like stragglers) so skew draws are
                // independent of crash draws at the same coordinate; the
                // spec index decorrelates skew from straggler specs.
                FaultScope::Rate(p) => draw(self.seed, i, stage, task as u64, u64::MAX) < p,
            };
            if hit {
                worst = worst.max(factor.max(1.0));
            }
        }
        worst
    }

    /// Whether `stage`'s executor is lost.
    pub fn executor_loss(&self, stage: u64) -> bool {
        self.specs.iter().enumerate().any(|(i, s)| {
            matches!(s.kind, FaultKind::ExecutorLoss)
                && match s.scope {
                    FaultScope::Targeted { stage: st, .. } => st == stage,
                    FaultScope::Rate(p) => draw(self.seed, i, stage, u64::MAX, u64::MAX) < p,
                }
        })
    }
}

/// Recovery policy, Spark-flavoured. The default is **off**, so a cluster
/// without an explicit policy behaves exactly like the
/// pre-fault-tolerance engine (and any injected fault is terminal).
///
/// Arming recovery turns every mechanism on together: task retry with
/// capped exponential backoff and speculative copies of stragglers inside
/// a stage (`executor.rs`), stage re-runs on executor loss and the
/// memory-pressure recovery ladder in the driver. Only the task-retry
/// budget differs between armed callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultToleranceConfig {
    /// No recovery: the first injected fault is terminal.
    #[default]
    Off,
    /// Every recovery mechanism armed.
    Armed {
        /// Extra attempts per task after the first (Spark's
        /// `spark.task.maxFailures - 1`).
        max_task_retries: u32,
    },
}

impl FaultToleranceConfig {
    /// A Spark-like production posture: recovery armed with 3 task
    /// retries.
    pub fn resilient() -> Self {
        FaultToleranceConfig::Armed {
            max_task_retries: 3,
        }
    }

    /// Whether recovery is armed.
    pub fn is_armed(&self) -> bool {
        matches!(self, FaultToleranceConfig::Armed { .. })
    }

    /// Extra attempts per task after the first; `0` when recovery is off.
    pub fn max_task_retries(&self) -> u32 {
        match *self {
            FaultToleranceConfig::Off => 0,
            FaultToleranceConfig::Armed { max_task_retries } => max_task_retries,
        }
    }
}

/// Thread-safe counters of recovery activity and wasted work.
///
/// *Wasted* bytes/FLOPs are charges an oracle (fault-free) run would not
/// have made: re-consolidation for retried attempts, the losing copy of a
/// speculative race, and the charges of a unit attempt thrown away by an
/// executor loss. Wasted bytes also flow into the [`crate::CommLedger`]
/// (recovery traffic is real traffic), so for a completed run
/// `ledger total == oracle total + wasted_bytes`.
#[derive(Debug, Default)]
pub struct FaultLedger {
    retries: AtomicU64,
    speculative_launches: AtomicU64,
    executor_losses: AtomicU64,
    stage_reruns: AtomicU64,
    mem_admission_rejects: AtomicU64,
    replans: AtomicU64,
    plan_splits: AtomicU64,
    unfused_fallbacks: AtomicU64,
    wasted_bytes: AtomicU64,
    wasted_flops: AtomicU64,
}

/// A point-in-time copy of [`FaultLedger`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Task attempts that failed and were retried.
    pub retries: u64,
    /// Speculative copies launched.
    pub speculative_launches: u64,
    /// Executors lost.
    pub executor_losses: u64,
    /// Driver-side unit re-runs after executor loss.
    pub stage_reruns: u64,
    /// Stages (or fused-unit pre-checks) rejected by memory admission.
    pub mem_admission_rejects: u64,
    /// Tightened-budget re-plans attempted by the memory-pressure ladder.
    pub replans: u64,
    /// Fused plans split in two by the memory-pressure ladder.
    pub plan_splits: u64,
    /// Fused units degraded to unfused per-operator execution.
    pub unfused_fallbacks: u64,
    /// Bytes charged that an oracle run would not have charged.
    pub wasted_bytes: u64,
    /// FLOPs executed that an oracle run would not have executed.
    pub wasted_flops: u64,
}

impl FaultStats {
    /// Whether any recovery activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            retries: self.retries - earlier.retries,
            speculative_launches: self.speculative_launches - earlier.speculative_launches,
            executor_losses: self.executor_losses - earlier.executor_losses,
            stage_reruns: self.stage_reruns - earlier.stage_reruns,
            mem_admission_rejects: self.mem_admission_rejects - earlier.mem_admission_rejects,
            replans: self.replans - earlier.replans,
            plan_splits: self.plan_splits - earlier.plan_splits,
            unfused_fallbacks: self.unfused_fallbacks - earlier.unfused_fallbacks,
            wasted_bytes: self.wasted_bytes - earlier.wasted_bytes,
            wasted_flops: self.wasted_flops - earlier.wasted_flops,
        }
    }
}

impl FaultLedger {
    /// Creates a zeroed ledger.
    pub fn new() -> Self {
        FaultLedger::default()
    }

    /// Records `n` failed-and-retried task attempts.
    pub fn record_retries(&self, n: u64) {
        self.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one speculative copy launch.
    pub fn record_speculative_launch(&self) {
        self.speculative_launches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executor loss.
    pub fn record_executor_loss(&self) {
        self.executor_losses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one driver-side stage re-run.
    pub fn record_stage_rerun(&self) {
        self.stage_reruns.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one memory-admission rejection.
    pub fn record_mem_admission_reject(&self) {
        self.mem_admission_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one tightened-budget re-plan.
    pub fn record_replan(&self) {
        self.replans.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fused-plan split.
    pub fn record_plan_split(&self) {
        self.plan_splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fused-to-unfused fallback.
    pub fn record_unfused_fallback(&self) {
        self.unfused_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds wasted bytes and FLOPs.
    pub fn add_wasted(&self, bytes: u64, flops: u64) {
        self.wasted_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.wasted_flops.fetch_add(flops, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            retries: self.retries.load(Ordering::Relaxed),
            speculative_launches: self.speculative_launches.load(Ordering::Relaxed),
            executor_losses: self.executor_losses.load(Ordering::Relaxed),
            stage_reruns: self.stage_reruns.load(Ordering::Relaxed),
            mem_admission_rejects: self.mem_admission_rejects.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            plan_splits: self.plan_splits.load(Ordering::Relaxed),
            unfused_fallbacks: self.unfused_fallbacks.load(Ordering::Relaxed),
            wasted_bytes: self.wasted_bytes.load(Ordering::Relaxed),
            wasted_flops: self.wasted_flops.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.retries.store(0, Ordering::Relaxed);
        self.speculative_launches.store(0, Ordering::Relaxed);
        self.executor_losses.store(0, Ordering::Relaxed);
        self.stage_reruns.store(0, Ordering::Relaxed);
        self.mem_admission_rejects.store(0, Ordering::Relaxed);
        self.replans.store(0, Ordering::Relaxed);
        self.plan_splits.store(0, Ordering::Relaxed);
        self.unfused_fallbacks.store(0, Ordering::Relaxed);
        self.wasted_bytes.store(0, Ordering::Relaxed);
        self.wasted_flops.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::new(7);
        for stage in 0..8 {
            for task in 0..8 {
                assert!(!p.crashes(stage, task, 0));
                assert_eq!(p.slowdown(stage, task), 1.0);
            }
            assert!(!p.executor_loss(stage));
        }
    }

    #[test]
    fn targeted_crash_hits_first_attempt_only() {
        let p = FaultPlan::new(1).with_crash_at(3, 2);
        assert!(p.crashes(3, 2, 0));
        assert!(!p.crashes(3, 2, 1));
        assert!(!p.crashes(3, 1, 0));
        assert!(!p.crashes(2, 2, 0));
    }

    #[test]
    fn rate_draws_are_deterministic_and_calibrated() {
        let p = FaultPlan::new(99).with_crash_rate(0.25);
        let q = FaultPlan::new(99).with_crash_rate(0.25);
        let mut hits = 0;
        let total = 4000;
        for task in 0..total {
            let a = p.crashes(0, task, 0);
            assert_eq!(a, q.crashes(0, task, 0), "same seed, same outcome");
            if a {
                hits += 1;
            }
        }
        let rate = hits as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.03, "empirical rate {rate}");
        // Different attempts sample independently.
        assert!((0..total).any(|t| p.crashes(0, t, 0) != p.crashes(0, t, 1)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).with_crash_rate(0.5);
        let b = FaultPlan::new(2).with_crash_rate(0.5);
        assert!((0..256).any(|t| a.crashes(0, t, 0) != b.crashes(0, t, 0)));
    }

    #[test]
    fn straggler_takes_worst_and_floors_at_one() {
        let p = FaultPlan::new(5)
            .with_straggler_at(1, 0, 4.0)
            .with_straggler_at(1, 0, 2.0)
            .with_straggler_at(1, 1, 0.5); // nonsense slowdown clamps to 1
        assert_eq!(p.slowdown(1, 0), 4.0);
        assert_eq!(p.slowdown(1, 1), 1.0);
        assert_eq!(p.slowdown(0, 0), 1.0);
    }

    #[test]
    fn executor_loss_targets_stage() {
        let p = FaultPlan::new(3).with_executor_loss_at(9);
        assert!(p.executor_loss(9));
        assert!(!p.executor_loss(8));
    }

    #[test]
    fn default_config_is_fully_off() {
        let ft = FaultToleranceConfig::default();
        assert!(!ft.is_armed());
        assert_eq!(ft.max_task_retries(), 0);
        let resilient = FaultToleranceConfig::resilient();
        assert!(resilient.is_armed());
        assert_eq!(resilient.max_task_retries(), 3);
    }

    #[test]
    fn mem_skew_targets_and_floors_at_one() {
        let p = FaultPlan::new(5)
            .with_mem_skew_at(2, 1, 3.0)
            .with_mem_skew_at(2, 1, 2.0)
            .with_mem_skew_at(2, 0, 0.5); // nonsense skew clamps to 1
        assert_eq!(p.mem_skew(2, 1), 3.0);
        assert_eq!(p.mem_skew(2, 0), 1.0);
        assert_eq!(p.mem_skew(1, 1), 1.0);
        // A fresh (re-planned) stage id escapes the targeted skew.
        assert_eq!(p.mem_skew(3, 1), 1.0);
    }

    #[test]
    fn mem_skew_rate_is_deterministic_and_calibrated() {
        let p = FaultPlan::new(77).with_mem_skew_rate(0.25, 4.0);
        let q = FaultPlan::new(77).with_mem_skew_rate(0.25, 4.0);
        let mut hits = 0;
        let total = 4000;
        for task in 0..total {
            let a = p.mem_skew(0, task);
            assert_eq!(a, q.mem_skew(0, task), "same seed, same outcome");
            if a > 1.0 {
                assert_eq!(a, 4.0);
                hits += 1;
            }
        }
        let rate = hits as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.03, "empirical rate {rate}");
        // Different stage ids redraw, so a re-planned stage can escape.
        assert!((0..total).any(|t| (p.mem_skew(0, t) > 1.0) != (p.mem_skew(1, t) > 1.0)));
    }

    #[test]
    fn ledger_counts_and_resets() {
        let l = FaultLedger::new();
        l.record_retries(2);
        l.record_speculative_launch();
        l.record_executor_loss();
        l.record_stage_rerun();
        l.record_mem_admission_reject();
        l.record_replan();
        l.record_replan();
        l.record_plan_split();
        l.record_unfused_fallback();
        l.add_wasted(100, 2000);
        let s = l.snapshot();
        assert!(s.any());
        assert_eq!(s.retries, 2);
        assert_eq!(s.speculative_launches, 1);
        assert_eq!(s.executor_losses, 1);
        assert_eq!(s.stage_reruns, 1);
        assert_eq!(s.mem_admission_rejects, 1);
        assert_eq!(s.replans, 2);
        assert_eq!(s.plan_splits, 1);
        assert_eq!(s.unfused_fallbacks, 1);
        assert_eq!(s.wasted_bytes, 100);
        assert_eq!(s.wasted_flops, 2000);
        let earlier = FaultStats {
            retries: 1,
            ..FaultStats::default()
        };
        assert_eq!(s.since(&earlier).retries, 1);
        l.reset();
        assert!(!l.snapshot().any());
    }

    #[test]
    fn fault_stats_serialize_roundtrip() {
        let s = FaultStats {
            retries: 3,
            speculative_launches: 1,
            executor_losses: 0,
            stage_reruns: 2,
            mem_admission_rejects: 1,
            replans: 2,
            plan_splits: 1,
            unfused_fallbacks: 1,
            wasted_bytes: 4096,
            wasted_flops: 1 << 20,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
