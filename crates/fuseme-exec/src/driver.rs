//! Executes a whole fusion plan over the simulated cluster.
//!
//! The driver walks a [`FusionPlan`]'s units in dependency order,
//! materializes each unit's output, and dispatches each unit to a physical
//! strategy according to the engine's matrix-multiplication policy:
//!
//! * [`MatmulStrategy::Cfo`] — FuseME/DistME: per-plan `(P*,Q*,R*)` from
//!   the cost-based optimizer;
//! * [`MatmulStrategy::SystemDsRule`] — SystemDS: BFO when the main matrix
//!   repartitions into fewer partitions than `I` or `J` (typically sparse
//!   inputs), RFO otherwise (paper §6.2);
//! * [`MatmulStrategy::Bfo`] / [`MatmulStrategy::Rfo`] — forced, for the
//!   §6.2 operator comparison.
//!
//! When the cluster's [`fuseme_sim::FaultToleranceConfig`] is armed, the
//! driver also recovers whole units: a unit whose executor is lost re-runs
//! from lineage (at most twice), and a unit that runs out of memory walks
//! the memory-pressure ladder — re-plan against `0.8·θ_t`, halving the
//! headroom after each further OOM for at most two re-plans, then split,
//! then unfused. Those figures are constants of this module, not settings.

use std::collections::HashMap;
use std::sync::Arc;

use fuseme_fusion::cfg::{split, split_candidates};
use fuseme_fusion::cost::CostModel;
use fuseme_fusion::optimizer::{min_feasible_theta, search, CachedInput, OptResult, Pqr};
use fuseme_fusion::plan::{mm_dims, ExecUnit, FusionPlan, PartialPlan};
use fuseme_fusion::space::{input_axes, SpaceTree};
use fuseme_matrix::BlockedMatrix;
use fuseme_obs::{events, keys, SpanGuard, SpanKind};
use fuseme_plan::{Bindings, NodeId, OpKind, QueryDag};
use fuseme_sim::{CacheStats, Cluster, CommStats, FaultStats, LadderRung, OomReport, SimError};

use crate::fused_op::{execute_fused, main_input, Strategy, ValueMap};

/// Engine policy for executing (fused plans containing) matrix
/// multiplication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatmulStrategy {
    /// Cost-optimized cuboid partitioning (FuseME; DistME for singleton
    /// multiplications).
    Cfo,
    /// SystemDS's selection rule between BFO and RFO.
    SystemDsRule {
        /// Bytes per Spark-style partition of the main matrix.
        partition_bytes: u64,
    },
    /// Always broadcast (BFO).
    Bfo {
        /// Bytes per Spark-style partition of the main matrix.
        partition_bytes: u64,
    },
    /// Always replicate (RFO).
    Rfo,
}

/// Execution configuration: strategy policy plus the analytic cost model
/// (mirroring the cluster's constants). The recovery policy is the
/// cluster's own ([`Cluster::fault_tolerance`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Matrix-multiplication policy.
    pub matmul: MatmulStrategy,
    /// Cost model for the optimizer and time estimates.
    pub model: CostModel,
}

impl ExecConfig {
    /// Builds a config whose cost model mirrors the cluster's
    /// configuration.
    pub fn for_cluster(cluster: &Cluster, matmul: MatmulStrategy) -> Self {
        let c = cluster.config();
        ExecConfig {
            matmul,
            model: CostModel {
                nodes: c.nodes,
                tasks_per_node: c.tasks_per_node,
                mem_per_task: c.mem_per_task,
                net_bandwidth: c.net_bandwidth,
                compute_bandwidth: c.compute_bandwidth,
            },
        }
    }
}

/// What the cuboid search concluded for one unit. Recorded on the
/// unit's span (`opt_outcome`) so an infeasible search that fell back to
/// the finest partitioning is visible in traces rather than silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptOutcome {
    /// The search found a partitioning within the effective budget.
    Feasible,
    /// No point fit the budget: the finest partitioning was chosen so that
    /// admission control (or the memory-pressure recovery ladder) reports
    /// the failure honestly instead of the planner hiding it.
    InfeasibleFellBack,
}

impl OptOutcome {
    /// Stable trace-attribute value for this outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            OptOutcome::Feasible => "feasible",
            OptOutcome::InfeasibleFellBack => "infeasible-fell-back",
        }
    }
}

/// Statistics of one plan execution.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Communication this run added, by phase.
    pub comm: CommStats,
    /// Simulated seconds this run added.
    pub sim_secs: f64,
    /// Real wall-clock seconds spent computing.
    pub wall_secs: f64,
    /// Number of fused units executed.
    pub fused_units: usize,
    /// Number of single-operator units executed.
    pub single_units: usize,
    /// `(plan root, chosen parameters)` for every cuboid-strategy unit.
    pub pqr_choices: Vec<(NodeId, Pqr)>,
    /// Recovery activity (retries, speculation, re-runs) and wasted work
    /// this run added.
    pub faults: FaultStats,
    /// Replica-cache activity this run added (`None` when the cluster's
    /// cache is disarmed).
    pub cache: Option<CacheStats>,
}

/// Executes `plan` over `inputs`, returning the root values (in the DAG's
/// root order) and run statistics.
pub fn execute_plan(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &FusionPlan,
    inputs: &Bindings,
    config: &ExecConfig,
) -> Result<(Vec<Arc<BlockedMatrix>>, EngineStats), SimError> {
    let comm_before = cluster.comm();
    let sim_before = cluster.elapsed_secs();
    let faults_before = cluster.fault_stats();
    let cache_before = cluster.cache_stats();
    let wall_start = std::time::Instant::now();
    let mut stats = EngineStats::default();

    let obs = fuseme_obs::handle();
    let plan_span = obs.scope_span(SpanKind::Plan, || format!("plan-{}", plan.units.len()));

    // Bind input leaves.
    let mut values: ValueMap = HashMap::new();
    for node in dag.nodes() {
        if let OpKind::Input { name } = &node.kind {
            let m = inputs
                .get(name)
                .ok_or_else(|| SimError::Task(format!("no binding for input matrix {name}")))?;
            values.insert(node.id, Arc::clone(m));
        }
    }

    for (u_idx, unit) in plan.units.iter().enumerate() {
        let span = obs.scope_span(SpanKind::ExecUnit, || format!("unit-{u_idx}"));
        let unit_sim = cluster.elapsed_secs();
        let p = &*unit.plan();
        let (strategy, opt) = choose_strategy(cluster, dag, p, &values, config, &mut stats)?;
        annotate_unit(&span, p.root, &strategy, opt.as_ref());
        let out = run_unit_recovering(
            cluster,
            dag,
            p,
            &mut values,
            &strategy,
            opt.as_ref(),
            config,
            &mut stats,
            &span,
        )?;
        span.set_sim(unit_sim, cluster.elapsed_secs() - unit_sim);
        values.insert(p.root, out);
        match unit {
            ExecUnit::Fused(_) => stats.fused_units += 1,
            ExecUnit::Single(_) => stats.single_units += 1,
        }
    }

    let roots = dag
        .roots()
        .iter()
        .map(|r| {
            values
                .get(r)
                .cloned()
                .ok_or_else(|| SimError::Task(format!("root {r} not materialized")))
        })
        .collect::<Result<Vec<_>, _>>()?;

    stats.comm = cluster.comm().since(&comm_before);
    stats.sim_secs = cluster.elapsed_secs() - sim_before;
    stats.faults = cluster.fault_stats().since(&faults_before);
    stats.cache = cluster
        .cache_stats()
        .map(|after| after.since(&cache_before.unwrap_or_default()));
    stats.wall_secs = wall_start.elapsed().as_secs_f64();
    plan_span.set_sim(sim_before, stats.sim_secs);
    Ok((roots, stats))
}

/// Driver-side re-runs of a unit whose executor died, when recovery is
/// armed.
const MAX_STAGE_RERUNS: u32 = 2;

/// Executes one (possibly singleton) fused unit, re-running it from lineage
/// when its executor is lost and the recovery policy allows it.
///
/// A re-run restarts the whole unit — inputs are re-consolidated from the
/// driver's materialized values, exactly like Spark recomputing a stage's
/// parents from lineage. The abandoned attempt's ledger charges (minus any
/// retry/speculation waste it already booked itself, to avoid
/// double-counting) become wasted work.
fn run_unit(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &ValueMap,
    strategy: &Strategy,
) -> Result<Arc<BlockedMatrix>, SimError> {
    let max_reruns = if cluster.fault_tolerance().is_armed() {
        MAX_STAGE_RERUNS
    } else {
        0
    };
    let mut reruns = 0u32;
    let mut mark = WasteMark::take(cluster);
    loop {
        match execute_fused(cluster, dag, plan, values, strategy) {
            Ok(out) => return Ok(out),
            Err(SimError::ExecutorLost { stage }) if reruns < max_reruns => {
                reruns += 1;
                // The attempt's in-stage waste (retries, speculation) is
                // already booked by the stage spans; only the rest of the
                // abandoned attempt is new waste.
                let (rerun_bytes, rerun_flops) = mark.book(cluster);
                cluster.fault_ledger().record_stage_rerun();
                fuseme_obs::handle().event(events::STAGE_RERUN, || {
                    vec![
                        (keys::STAGE_ID, stage.into()),
                        (keys::ATTEMPTS, u64::from(reruns + 1).into()),
                        (keys::WASTED_BYTES, rerun_bytes.into()),
                        (keys::WASTED_FLOPS, rerun_flops.into()),
                    ]
                });
            }
            Err(e) => return Err(e),
        }
    }
}

/// One attempt's ledger snapshot, for booking a failed attempt's charges as
/// wasted work without double-counting waste the attempt already booked
/// itself (task retries, speculation, stage re-runs).
struct WasteMark {
    comm: CommStats,
    flops: u64,
    faults: FaultStats,
}

impl WasteMark {
    fn take(cluster: &Cluster) -> Self {
        WasteMark {
            comm: cluster.comm(),
            flops: cluster.ledger().flops_total(),
            faults: cluster.fault_stats(),
        }
    }

    /// Books everything charged since the mark as wasted work and re-arms
    /// the mark. Returns the `(bytes, flops)` newly booked.
    fn book(&mut self, cluster: &Cluster) -> (u64, u64) {
        let attempt = cluster.fault_stats().since(&self.faults);
        let bytes = cluster
            .comm()
            .since(&self.comm)
            .total()
            .saturating_sub(attempt.wasted_bytes);
        let flops =
            (cluster.ledger().flops_total() - self.flops).saturating_sub(attempt.wasted_flops);
        cluster.fault_ledger().add_wasted(bytes, flops);
        *self = WasteMark::take(cluster);
        (bytes, flops)
    }
}

/// Runs one unit with the memory-pressure recovery ladder armed: when the
/// unit fails admission or hits a runtime OOM and the cluster's
/// [`fuseme_sim::FaultToleranceConfig`] is armed, the driver
/// walks the ladder — tightened re-planning, plan splitting, unfused
/// execution — before giving up with a structured [`OomReport`]. With
/// recovery off the original error propagates untouched.
#[allow(clippy::too_many_arguments)]
fn run_unit_recovering(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &mut ValueMap,
    strategy: &Strategy,
    opt: Option<&OptResult>,
    config: &ExecConfig,
    stats: &mut EngineStats,
    span: &SpanGuard,
) -> Result<Arc<BlockedMatrix>, SimError> {
    let mut mark = WasteMark::take(cluster);
    match run_unit(cluster, dag, plan, values, strategy) {
        Ok(out) => Ok(out),
        Err(e @ SimError::OutOfMemory { .. }) if cluster.fault_tolerance().is_armed() => {
            recover_from_oom(
                cluster, dag, plan, values, opt, config, stats, span, e, &mut mark,
            )
        }
        Err(e) => Err(e),
    }
}

/// Effective-budget safety factor for the ladder's first re-plan: the
/// optimizer searches against `θ_t · MEM_HEADROOM` instead of θ_t.
const MEM_HEADROOM: f64 = 0.8;
/// Multiplier applied to the headroom on each further re-plan (each rung
/// plans against a yet-tighter budget).
const MEM_HEADROOM_DECAY: f64 = 0.5;
/// Tightened-budget re-plans per exec unit before the ladder escalates to
/// plan splitting.
const MAX_REPLANS: u32 = 2;

/// The memory-pressure recovery ladder (rungs in order):
///
/// 1. **Re-plan** — re-run the cuboid search with the per-task
///    budget θ_t discounted by `MEM_HEADROOM` (shrinking by
///    `MEM_HEADROOM_DECAY` per OOM, at most `MAX_REPLANS` times), steering the search toward a finer
///    `(P,Q,R)` than the one that blew up. Re-running also escapes
///    transient estimate skew: the fresh attempt draws new stage ids.
/// 2. **Split** — carve a multiplication off the fused plan with
///    Algorithm 3's exploitation-phase split (most distant from `v_mm`
///    first, the candidate compounding the most replication) and run the
///    halves as separate units.
/// 3. **Unfused** — abandon fusion: run every member operator as its own
///    unit in dependency order.
/// 4. **Report** — fail with [`SimError::OomExhausted`] carrying the unit
///    root, declared vs actual peak, the minimum feasible θ_t, and every
///    rung attempted.
///
/// Each failed attempt's ledger charges are booked as wasted work, so the
/// run-level invariant `ledger == oracle + wasted` keeps holding through
/// recovery.
#[allow(clippy::too_many_arguments)]
fn recover_from_oom(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &mut ValueMap,
    opt: Option<&OptResult>,
    config: &ExecConfig,
    stats: &mut EngineStats,
    span: &SpanGuard,
    first: SimError,
    mark: &mut WasteMark,
) -> Result<Arc<BlockedMatrix>, SimError> {
    let obs = fuseme_obs::handle();
    let mut rungs: Vec<LadderRung> = Vec::new();
    let mut last = first;

    // Rung 1 — re-plan under a tightened budget (CFO only: the other
    // policies have no parameters a search could tighten).
    if matches!(config.matmul, MatmulStrategy::Cfo) && plan.main_matmul(dag).is_some() {
        let tree = SpaceTree::build(dag, plan);
        let cached = cached_inputs(cluster, dag, &tree, values);
        let mut headroom = MEM_HEADROOM;
        for _ in 0..MAX_REPLANS {
            let tightened = CostModel {
                mem_per_task: (config.model.mem_per_task as f64 * headroom) as u64,
                ..config.model
            };
            let replanned = search(dag, plan, &tree, &tightened, &cached);
            if !replanned.feasible {
                break; // tightening further cannot help
            }
            let (wb, wf) = mark.book(cluster);
            cluster.fault_ledger().record_replan();
            rungs.push(LadderRung::Replan { headroom });
            obs.event(events::REPLAN, || {
                vec![
                    (keys::ROOT, (plan.root as u64).into()),
                    (keys::HEADROOM, headroom.into()),
                    (keys::WASTED_BYTES, wb.into()),
                    (keys::WASTED_FLOPS, wf.into()),
                ]
            });
            record_pqr(stats, plan.root, replanned.pqr);
            let retry = Strategy::Cuboid { pqr: replanned.pqr };
            match run_unit(cluster, dag, plan, values, &retry) {
                Ok(out) => return Ok(out),
                Err(e @ SimError::OutOfMemory { .. }) => {
                    last = e;
                    headroom *= MEM_HEADROOM_DECAY;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // Rung 2 — split the fused plan and run the halves separately.
    for vi in split_candidates(dag, plan) {
        let Some((fm, fi)) = split(dag, plan, vi) else {
            continue;
        };
        let (wb, wf) = mark.book(cluster);
        cluster.fault_ledger().record_plan_split();
        rungs.push(LadderRung::Split);
        obs.event(events::PLAN_SPLIT, || {
            vec![
                (keys::ROOT, (plan.root as u64).into()),
                (keys::WASTED_BYTES, wb.into()),
                (keys::WASTED_FLOPS, wf.into()),
            ]
        });
        match run_subplans(cluster, dag, &[fi, fm], values, config, stats) {
            Ok(out) => return Ok(out),
            Err(e @ SimError::OutOfMemory { .. }) => last = e,
            Err(e) => return Err(e),
        }
    }

    // Rung 3 — abandon fusion: every member operator as its own unit.
    if plan.ops.len() > 1 {
        let (wb, wf) = mark.book(cluster);
        cluster.fault_ledger().record_unfused_fallback();
        rungs.push(LadderRung::Unfused);
        obs.event(events::UNFUSED_FALLBACK, || {
            vec![
                (keys::ROOT, (plan.root as u64).into()),
                (keys::WASTED_BYTES, wb.into()),
                (keys::WASTED_FLOPS, wf.into()),
            ]
        });
        let singletons: Vec<PartialPlan> = plan
            .ops
            .iter()
            .map(|&op| PartialPlan::new([op].into_iter().collect(), op))
            .collect();
        match run_subplans(cluster, dag, &singletons, values, config, stats) {
            Ok(out) => return Ok(out),
            Err(e @ SimError::OutOfMemory { .. }) => last = e,
            Err(e) => return Err(e),
        }
    }

    // Rung 4 — exhausted: report what the unit actually needs.
    mark.book(cluster);
    let (actual, budget) = match &last {
        SimError::OutOfMemory { needed, budget, .. } => (*needed, *budget),
        _ => (0, config.model.mem_per_task),
    };
    let tree = SpaceTree::build(dag, plan);
    let report = OomReport {
        root: plan.root,
        declared_bytes: opt.map(|o| o.est.mem_bytes).unwrap_or(actual),
        actual_bytes: actual,
        budget,
        min_feasible_theta: min_feasible_theta(dag, plan, &tree),
        rungs,
    };
    span.set(keys::MIN_THETA, report.min_feasible_theta);
    Err(SimError::OomExhausted(Box::new(report)))
}

/// Runs a sequence of sub-plans as separate units in order (callers pass
/// them dependency-sorted), materializing each root into `values`; returns
/// the last root's value. Used by the recovery ladder's split and unfused
/// rungs.
fn run_subplans(
    cluster: &Cluster,
    dag: &QueryDag,
    plans: &[PartialPlan],
    values: &mut ValueMap,
    config: &ExecConfig,
    stats: &mut EngineStats,
) -> Result<Arc<BlockedMatrix>, SimError> {
    let mut out = None;
    for sub in plans {
        let (strategy, _) = choose_strategy(cluster, dag, sub, values, config, stats)?;
        let o = run_unit(cluster, dag, sub, values, &strategy)?;
        values.insert(sub.root, Arc::clone(&o));
        out = Some(o);
    }
    out.ok_or_else(|| SimError::Task("empty sub-plan sequence".into()))
}

/// Records an exec-unit span's strategy and (when a cost-based search ran)
/// the optimizer's predicted `NetEst`/`MemEst`/`ComEst`, which the trace
/// summary later pairs with the simulated actuals.
fn annotate_unit(span: &SpanGuard, root: NodeId, strategy: &Strategy, opt: Option<&OptResult>) {
    if !span.enabled() {
        return;
    }
    span.set(keys::ROOT, root as u64);
    match strategy {
        Strategy::Cuboid { pqr } => {
            span.set(keys::STRATEGY, "CFO");
            span.set(keys::P, pqr.p as u64);
            span.set(keys::Q, pqr.q as u64);
            span.set(keys::R, pqr.r as u64);
        }
        Strategy::Broadcast { .. } => span.set(keys::STRATEGY, "BFO"),
        Strategy::Replication => span.set(keys::STRATEGY, "RFO"),
    }
    if let Some(opt) = opt {
        span.set(keys::PRED_NET, opt.est.net_bytes);
        span.set(keys::PRED_MEM, opt.est.mem_bytes);
        span.set(keys::PRED_COM, opt.est.com_flops);
        span.set(keys::PRED_COST, opt.cost);
        span.set(keys::PRED_EVALUATED, opt.stats.evaluated);
        span.set(keys::PRED_FEASIBLE, opt.feasible);
        let outcome = if opt.feasible {
            OptOutcome::Feasible
        } else {
            OptOutcome::InfeasibleFellBack
        };
        span.set(keys::OPT_OUTCOME, outcome.as_str());
    }
}

/// Records (or replaces) the chosen `(P,Q,R)` for a unit root. Recovery
/// re-plans overwrite the original choice so `pqr_choices` reflects what
/// actually executed, not the attempt that blew up.
fn record_pqr(stats: &mut EngineStats, root: NodeId, pqr: Pqr) {
    match stats.pqr_choices.iter_mut().find(|(r, _)| *r == root) {
        Some(slot) => slot.1 = pqr,
        None => stats.pqr_choices.push((root, pqr)),
    }
}

/// Collects, for each of a unit's loop-invariant external inputs, the
/// `(P,Q,R)` layouts whose replica sets are already resident in the
/// cluster's replica cache. [`search`] costs those layouts first, with a
/// `NetEst` that drops the cached inputs' shuffle term, and the best seeds
/// its incumbent. Empty when the cache is disarmed or cold for this unit.
fn cached_inputs(
    cluster: &Cluster,
    dag: &QueryDag,
    tree: &SpaceTree,
    values: &ValueMap,
) -> Vec<CachedInput> {
    let Some(cache) = cluster.replica_cache() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (node, axis) in input_axes(tree) {
        if !matches!(dag.node(node).kind, OpKind::Input { .. }) {
            continue;
        }
        let Some(value) = values.get(&node) else {
            continue;
        };
        let pqrs = cache.replica_pqrs(value.uid(), axis);
        if !pqrs.is_empty() {
            out.push(CachedInput { node, pqrs });
        }
    }
    out
}

/// Picks the physical strategy for one (possibly singleton) fused plan,
/// returning the optimizer's result when a cost-based search ran.
fn choose_strategy(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &ValueMap,
    config: &ExecConfig,
    stats: &mut EngineStats,
) -> Result<(Strategy, Option<OptResult>), SimError> {
    let Some(mm) = plan.main_matmul(dag) else {
        return Ok((
            Strategy::Cuboid {
                pqr: Pqr { p: 1, q: 1, r: 1 },
            },
            None,
        ));
    };
    match config.matmul {
        MatmulStrategy::Cfo => {
            let tree = SpaceTree::build(dag, plan);
            let cached = cached_inputs(cluster, dag, &tree, values);
            let opt = search(dag, plan, &tree, &config.model, &cached);
            // On infeasible searches Algorithm 3 falls back to the finest
            // partitioning and lets admission control (or the recovery
            // ladder) report the failure honestly; the outcome is recorded
            // on the unit span by `annotate_unit` so the fallback is
            // explicit in traces rather than silent.
            record_pqr(stats, plan.root, opt.pqr);
            Ok((Strategy::Cuboid { pqr: opt.pqr }, Some(opt)))
        }
        MatmulStrategy::Bfo { partition_bytes } => {
            Ok((Strategy::Broadcast { partition_bytes }, None))
        }
        MatmulStrategy::Rfo => Ok((Strategy::Replication, None)),
        MatmulStrategy::SystemDsRule { partition_bytes } => {
            // BFO when the main matrix repartitions into fewer partitions
            // than the multiplication's I or J extent; RFO otherwise.
            let main_bytes = main_input(dag, plan, values).map_or(1, |(_, bytes)| bytes);
            let partitions = main_bytes.div_ceil(partition_bytes.max(1));
            let (i, j, _) = mm_dims(dag, mm);
            if partitions < i as u64 || partitions < j as u64 {
                Ok((Strategy::Broadcast { partition_bytes }, None))
            } else {
                Ok((Strategy::Replication, None))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_fusion::cfg::Cfg;
    use fuseme_fusion::folded::Folded;
    use fuseme_fusion::gen_like::GenLike;
    use fuseme_matrix::{gen, BinOp};
    use fuseme_plan::{evaluate, DagBuilder};
    use fuseme_sim::ClusterConfig;

    /// GNMF's U-update numerator/denominator over real data.
    fn gnmf_fixture() -> (QueryDag, Bindings, BlockedMatrix) {
        let bs = 5;
        let x = gen::sparse_uniform(40, 40, bs, 0.1, 1.0, 5.0, 1).unwrap();
        let u = gen::dense_uniform(40, 10, bs, 0.1, 1.0, 2).unwrap();
        let v = gen::dense_uniform(40, 10, bs, 0.1, 1.0, 3).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let xv = b.matmul(xe, ve);
        let num = b.binary(ue, xv, BinOp::Mul);
        let vt = b.transpose(ve);
        let vtv = b.matmul(vt, ve);
        let den = b.matmul(ue, vtv);
        let out = b.binary(num, den, BinOp::Div);
        let dag = b.finish(vec![out]);
        let bindings: Bindings = [
            ("X".to_string(), Arc::new(x)),
            ("U".to_string(), Arc::new(u)),
            ("V".to_string(), Arc::new(v)),
        ]
        .into_iter()
        .collect();
        let expected = evaluate(&dag, &bindings).unwrap()[0]
            .as_matrix()
            .unwrap()
            .as_ref()
            .clone();
        (dag, bindings, expected)
    }

    fn cluster() -> Cluster {
        let mut cfg = ClusterConfig::test_small();
        cfg.mem_per_task = 64 << 20;
        Cluster::new(cfg)
    }

    #[test]
    fn fuseme_plan_end_to_end() {
        let (dag, bindings, expected) = gnmf_fixture();
        let cl = cluster();
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let cfg = Cfg::new(config.model);
        let plan = cfg.plan(&dag);
        let (roots, stats) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
        if !roots[0].approx_eq(&expected, 1e-9) {
            let g = roots[0].to_dense_vec();
            let w = expected.to_dense_vec();
            let bad: Vec<_> = g
                .iter()
                .zip(&w)
                .enumerate()
                .filter(|(_, (a, b))| (*a - *b).abs() > 1e-9)
                .take(5)
                .collect();
            panic!(
                "mismatch plan={plan:?} pqr={:?} bad={bad:?}",
                stats.pqr_choices
            );
        }
        assert!(stats.fused_units >= 1);
        assert!(!stats.pqr_choices.is_empty());
        assert!(stats.comm.total() > 0);
        assert!(stats.sim_secs > 0.0);
    }

    #[test]
    fn systemds_like_plan_end_to_end() {
        let (dag, bindings, expected) = gnmf_fixture();
        let cl = cluster();
        let config = ExecConfig::for_cluster(
            &cl,
            MatmulStrategy::SystemDsRule {
                partition_bytes: 1 << 13,
            },
        );
        let plan = GenLike.plan(&dag);
        let (roots, stats) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
        assert!(roots[0].approx_eq(&expected, 1e-9));
        // GEN leaves the matmuls unfused on GNMF.
        assert!(stats.single_units >= 3);
    }

    #[test]
    fn matfast_like_plan_end_to_end() {
        let (dag, bindings, expected) = gnmf_fixture();
        let cl = cluster();
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Rfo);
        let plan = Folded.plan(&dag);
        let (roots, _) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
        assert!(roots[0].approx_eq(&expected, 1e-9));
    }

    #[test]
    fn distme_like_unfused_end_to_end() {
        let (dag, bindings, expected) = gnmf_fixture();
        let cl = cluster();
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        // DistME: no fusion at all — every operator a unit, matmuls cuboid.
        let plan = FusionPlan::assemble(&dag, vec![]);
        let (roots, stats) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
        assert!(roots[0].approx_eq(&expected, 1e-9));
        assert_eq!(stats.fused_units, 0);
        assert!(stats.single_units >= 6);
    }

    #[test]
    fn fuseme_beats_baselines_on_comm() {
        let (dag, bindings, _) = gnmf_fixture();

        let run = |matmul: MatmulStrategy, plan: &FusionPlan| -> u64 {
            let cl = cluster();
            let config = ExecConfig::for_cluster(&cl, matmul);
            let (_, stats) = execute_plan(&cl, &dag, plan, &bindings, &config).unwrap();
            stats.comm.total()
        };

        // Small partitions so BFO actually fans out (a single-partition
        // broadcast is serial and trivially comm-minimal — the paper's
        // BFO pathology is memory/parallelism, not traffic).
        let model = ExecConfig::for_cluster(&cluster(), MatmulStrategy::Cfo).model;
        let fuseme = run(MatmulStrategy::Cfo, &Cfg::new(model).plan(&dag));
        let distme = run(MatmulStrategy::Cfo, &FusionPlan::assemble(&dag, vec![]));
        let systemds = run(
            MatmulStrategy::SystemDsRule {
                partition_bytes: 256,
            },
            &GenLike.plan(&dag),
        );
        let matfast = run(MatmulStrategy::Rfo, &Folded.plan(&dag));
        assert!(
            fuseme <= distme && fuseme < systemds && fuseme < matfast,
            "fuseme={fuseme} distme={distme} systemds={systemds} matfast={matfast}"
        );
    }

    #[test]
    fn traced_run_reconciles_bytes_and_predictions() {
        let (dag, bindings, expected) = gnmf_fixture();
        let cl = cluster();
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let plan = Cfg::new(config.model).plan(&dag);

        let rec = fuseme_obs::Recorder::new();
        fuseme_obs::install(&rec);
        let (roots, stats) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
        fuseme_obs::uninstall();
        assert!(roots[0].approx_eq(&expected, 1e-9));

        let summary = fuseme_obs::summarize(&rec);
        // Per-stage byte sums reconcile exactly with the run's comm totals.
        assert_eq!(summary.consolidation_bytes, stats.comm.consolidation_bytes);
        assert_eq!(summary.aggregation_bytes, stats.comm.aggregation_bytes);
        assert!(summary.total_bytes() > 0);
        // Every executed unit produced a span; cuboid units carry the
        // optimizer's predictions and the chosen (P,Q,R).
        assert_eq!(summary.units.len(), stats.fused_units + stats.single_units);
        let predicted: Vec<_> = summary
            .units
            .iter()
            .filter(|u| u.predicted.is_some())
            .collect();
        assert_eq!(predicted.len(), stats.pqr_choices.len());
        for u in &predicted {
            assert_eq!(u.strategy, "CFO");
            assert!(u.pqr.is_some());
            assert!(u.predicted.as_ref().unwrap().evaluated > 0);
        }
        // The report renders without panicking and names every unit.
        let pva = fuseme_obs::predicted_vs_actual(&summary);
        for u in &summary.units {
            assert!(pva.contains(&u.name));
        }
    }

    #[test]
    fn executor_loss_recovered_by_stage_rerun() {
        let (dag, bindings, expected) = gnmf_fixture();
        let plan = {
            let cl = cluster();
            let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
            Cfg::new(config.model).plan(&dag)
        };
        // Oracle: the same plan on a healthy cluster.
        let oracle = {
            let cl = cluster();
            let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
            let (_, s) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
            s.comm.total()
        };
        let mut cl = cluster();
        cl.set_fault_plan(Some(fuseme_sim::FaultPlan::new(4).with_executor_loss_at(0)));
        cl.set_fault_tolerance(fuseme_sim::FaultToleranceConfig::resilient());
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let (roots, stats) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
        // The re-run recomputed the correct result…
        assert!(roots[0].approx_eq(&expected, 1e-9));
        assert_eq!(stats.faults.executor_losses, 1);
        assert_eq!(stats.faults.stage_reruns, 1);
        // …and the abandoned attempt's traffic reconciles exactly:
        // ledger total == oracle total + wasted bytes.
        assert!(stats.faults.wasted_bytes > 0);
        assert_eq!(stats.comm.total(), oracle + stats.faults.wasted_bytes);
    }

    #[test]
    fn executor_loss_terminal_when_reruns_disabled() {
        let (dag, bindings, _) = gnmf_fixture();
        let mut cl = cluster();
        cl.set_fault_plan(Some(fuseme_sim::FaultPlan::new(4).with_executor_loss_at(0)));
        // Recovery off (the default): the loss propagates.
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let plan = Cfg::new(config.model).plan(&dag);
        let err = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap_err();
        assert!(
            matches!(err, SimError::ExecutorLost { stage: 0 }),
            "{err:?}"
        );
    }

    /// A chain of matrix multiplications, fused into one unit. With `n = 2`
    /// (`(A×B)×C`) the per-task footprint is dominated by the nested
    /// multiplication's unsplittable inner axis, so the fused unit needs
    /// ~8 KB per task while its split halves fit in ~2.4 KB — the shape the
    /// recovery ladder's split and unfused rungs are made for.
    fn mm_chain_fixture(n: usize) -> (QueryDag, Bindings, BlockedMatrix, PartialPlan) {
        let bs = 10;
        let mut b = DagBuilder::new();
        let mut mats = vec![gen::dense_uniform(40, 40, bs, 0.1, 1.0, 7).unwrap()];
        for i in 0..n {
            let cols = if i + 1 == n { 10 } else { 40 };
            mats.push(gen::dense_uniform(40, cols, bs, 0.1, 1.0, 8 + i as u64).unwrap());
        }
        let leaves: Vec<_> = mats
            .iter()
            .enumerate()
            .map(|(i, m)| b.input(&format!("M{i}"), *m.meta()))
            .collect();
        let mut cur = b.matmul(leaves[0], leaves[1]);
        let mut mms = vec![cur.id()];
        for leaf in &leaves[2..] {
            cur = b.matmul(cur, *leaf);
            mms.push(cur.id());
        }
        let dag = b.finish(vec![cur]);
        let plan = PartialPlan::new(mms.into_iter().collect(), cur.id());
        let bindings: Bindings = mats
            .into_iter()
            .enumerate()
            .map(|(i, m)| (format!("M{i}"), Arc::new(m)))
            .collect();
        let expected = evaluate(&dag, &bindings).unwrap()[0]
            .as_matrix()
            .unwrap()
            .as_ref()
            .clone();
        (dag, bindings, expected, plan)
    }

    fn chain_cluster(mem_per_task: u64) -> Cluster {
        let mut cfg = ClusterConfig::test_small();
        cfg.mem_per_task = mem_per_task;
        let mut cl = Cluster::new(cfg);
        cl.set_fault_tolerance(fuseme_sim::FaultToleranceConfig::resilient());
        cl
    }

    #[test]
    fn runtime_oom_fails_without_memory_recovery() {
        let (dag, bindings, _) = gnmf_fixture();
        let mut cl = cluster();
        // Deterministic estimate skew: the first stage's task 0 actually
        // peaks far above its declared MemEst.
        cl.set_fault_plan(Some(
            fuseme_sim::FaultPlan::new(9).with_mem_skew_at(0, 0, 1e12),
        ));
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let plan = Cfg::new(config.model).plan(&dag);
        let err = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::OutOfMemory {
                    site: fuseme_sim::OomSite::Runtime,
                    root: Some(_),
                    pqr: Some(_),
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn runtime_oom_recovered_by_replan() {
        let (dag, bindings, expected) = gnmf_fixture();
        let plan = {
            let cl = cluster();
            let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
            Cfg::new(config.model).plan(&dag)
        };
        let (oracle_comm, oracle_pqr) = {
            let cl = cluster();
            let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
            let (_, s) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
            (s.comm.total(), s.pqr_choices)
        };
        let mut cl = cluster();
        cl.set_fault_plan(Some(
            fuseme_sim::FaultPlan::new(9).with_mem_skew_at(0, 0, 1e12),
        ));
        cl.set_fault_tolerance(fuseme_sim::FaultToleranceConfig::resilient());
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let (roots, stats) = execute_plan(&cl, &dag, &plan, &bindings, &config).unwrap();
        assert!(roots[0].approx_eq(&expected, 1e-9));
        assert!(stats.faults.replans >= 1, "{:?}", stats.faults);
        assert!(stats.faults.wasted_bytes > 0);
        // The generous budget makes the tightened search re-land on the
        // oracle's (P,Q,R); the re-run escapes the targeted skew (fresh
        // stage ids), so the ledger reconciles exactly.
        assert_eq!(stats.pqr_choices, oracle_pqr);
        assert_eq!(stats.comm.total(), oracle_comm + stats.faults.wasted_bytes);
    }

    #[test]
    fn admission_oom_recovered_by_plan_split() {
        let (dag, bindings, expected, plan) = mm_chain_fixture(2);
        let cl = chain_cluster(4096);
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let fplan = FusionPlan::assemble(&dag, vec![plan]);
        let (roots, stats) = execute_plan(&cl, &dag, &fplan, &bindings, &config).unwrap();
        assert!(roots[0].approx_eq(&expected, 1e-9));
        assert!(stats.faults.plan_splits >= 1, "{:?}", stats.faults);
        assert!(stats.faults.mem_admission_rejects >= 1);
    }

    #[test]
    fn admission_oom_recovered_by_unfused_fallback() {
        let (dag, bindings, expected, plan) = mm_chain_fixture(3);
        let cl = chain_cluster(4096);
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let fplan = FusionPlan::assemble(&dag, vec![plan]);
        let (roots, stats) = execute_plan(&cl, &dag, &fplan, &bindings, &config).unwrap();
        assert!(roots[0].approx_eq(&expected, 1e-9));
        // Both split candidates still hold a two-multiplication half that
        // cannot fit, so the ladder had to abandon fusion entirely.
        assert!(stats.faults.plan_splits >= 1, "{:?}", stats.faults);
        assert_eq!(stats.faults.unfused_fallbacks, 1);
    }

    #[test]
    fn ladder_exhaustion_reports_structured_oom() {
        let (dag, bindings, _, plan) = mm_chain_fixture(2);
        let root = plan.root;
        let cl = chain_cluster(512);
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let fplan = FusionPlan::assemble(&dag, vec![plan]);
        let err = execute_plan(&cl, &dag, &fplan, &bindings, &config).unwrap_err();
        let SimError::OomExhausted(report) = err else {
            panic!("expected OomExhausted, got {err:?}");
        };
        assert_eq!(report.root, root);
        assert_eq!(report.budget, 512);
        assert!(report.min_feasible_theta > 512);
        assert!(!report.rungs.is_empty());
        assert!(report.to_string().contains("out of memory"));
    }

    #[test]
    fn missing_binding_is_reported() {
        let (dag, _, _) = gnmf_fixture();
        let cl = cluster();
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let plan = FusionPlan::assemble(&dag, vec![]);
        let err = execute_plan(&cl, &dag, &plan, &Bindings::new(), &config).unwrap_err();
        assert!(matches!(err, SimError::Task(_)));
    }
}
