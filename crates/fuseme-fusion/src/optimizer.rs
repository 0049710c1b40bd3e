//! Search for the optimal cuboid parameters `(P*, Q*, R*)` (paper §3.3).
//!
//! The objective: minimize `Cost(c, F)` (Eq. 2) subject to
//! `MemEst(c, F) ≤ θ_t` and full cluster utilization `P·Q·R ≥ N·T_c`
//! (when the voxel space is large enough to allow it). Two searches are
//! provided:
//!
//! * [`optimize_exhaustive`] — evaluates the full `I×J×K` space (DistME's
//!   approach; the paper's Fig. 13(d) baseline and the tests' oracle);
//! * [`search`] — the paper's pruning search. Both `NetEst` and `ComEst`
//!   are monotone non-decreasing and `MemEst` monotone non-increasing in
//!   each of `P`, `Q`, `R`, so for a fixed `(Q, R)` the smallest feasible
//!   `P` is optimal, found by binary search; `Cost(1, Q, R)` lower-bounds
//!   the whole `(·, Q, R)` family, and since it never decreases in `Q` or
//!   `R`, the first family that loses ends its `Q` row, and a losing
//!   `Q = 1` family ends the search. Cluster-resident replica layouts are
//!   costed cache-aware first and seed the incumbent.
//!
//! Both searches return bit-identical results (tested); only the number of
//! cost evaluations differs.

use std::collections::BTreeSet;

use fuseme_plan::{NodeId, QueryDag};
use serde::{Deserialize, Serialize};

use crate::cost::{estimate, estimate_with_cache, CostModel, Estimates};
use crate::plan::{mm_dims, PartialPlan};
use crate::space::SpaceTree;

/// Fraction of θ_t the searches actually target. Real engines reserve
/// headroom for serialization buffers and estimate error — SystemDS budgets
/// ~70% of the JVM heap, and we adopt the same fraction so borderline plans
/// cannot pass the analytic check and then fail exact admission.
pub const MEM_SAFETY: f64 = 0.7;

/// The effective memory budget a search enforces.
fn budget(model: &CostModel) -> u64 {
    (model.mem_per_task as f64 * MEM_SAFETY) as u64
}

/// A cuboid parameter triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pqr {
    /// Partitions along the i-axis.
    pub p: usize,
    /// Partitions along the j-axis.
    pub q: usize,
    /// Partitions along the k-axis.
    pub r: usize,
}

impl Pqr {
    /// `P·Q·R`, the number of cuboid partitions (= tasks used).
    pub fn tasks(&self) -> usize {
        self.p * self.q * self.r
    }
}

impl std::fmt::Display for Pqr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{},{})", self.p, self.q, self.r)
    }
}

/// Instrumentation of one search run (Fig. 13(d) compares these).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of `(P,Q,R)` candidates whose estimates were computed.
    pub evaluated: u64,
    /// Wall-clock duration of the search, in seconds.
    pub elapsed_secs: f64,
}

/// Outcome of a parameter search.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OptResult {
    /// Chosen parameters. When `feasible` is false these are `(I, J, K)` —
    /// the finest partitioning — per Algorithm 3's fallback.
    pub pqr: Pqr,
    /// Objective value (Eq. 2); `f64::INFINITY` when infeasible.
    pub cost: f64,
    /// Estimates at `pqr`.
    pub est: Estimates,
    /// Whether the memory constraint could be satisfied at all.
    pub feasible: bool,
    /// Search instrumentation.
    pub stats: SearchStats,
}

/// A plan input with known cluster-resident cuboid replicas: `node` is the
/// external input's DAG id, `pqrs` the `(P,Q,R)` layouts at which a replica
/// set from a previous iteration is still valid (same matrix version, same
/// model-space axis). Built by the driver from the runtime's replica cache;
/// the fusion crate deliberately knows nothing about the cache itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedInput {
    /// External input node of the plan.
    pub node: NodeId,
    /// Cuboid layouts with a valid resident replica set.
    pub pqrs: Vec<(usize, usize, usize)>,
}

/// A ranked candidate: cost, parameters, estimates.
type Candidate = (f64, Pqr, Estimates);

/// Context shared by both searches.
struct Search<'a> {
    dag: &'a QueryDag,
    plan: &'a PartialPlan,
    tree: &'a SpaceTree,
    model: &'a CostModel,
    evaluated: u64,
    best: Option<Candidate>,
}

impl Search<'_> {
    fn estimate(&mut self, p: usize, q: usize, r: usize) -> Estimates {
        self.evaluated += 1;
        estimate(self.dag, self.plan, self.tree, p, q, r)
    }

    /// Offers a candidate: over-budget ones are dropped, the rest replace
    /// the incumbent when [`better`].
    fn offer(&mut self, pqr: Pqr, est: Estimates) {
        if est.mem_bytes > budget(self.model) {
            return;
        }
        let cand = (self.model.cost(&est), pqr, est);
        if better(&cand, &self.best) {
            self.best = Some(cand);
        }
    }
}

/// Dimensions and parallelism floor of the search for a plan.
fn search_dims(
    dag: &QueryDag,
    plan: &PartialPlan,
    model: &CostModel,
) -> Option<(usize, usize, usize, usize)> {
    let main = plan.main_matmul(dag)?;
    let (i, j, k) = mm_dims(dag, main);
    let slots = model.total_tasks();
    // Required parallelism: use every slot unless the voxel space is smaller.
    let required = slots.min(i * j * k);
    Some((i, j, k, required))
}

/// Exhaustive `I×J×K` search (baseline for Fig. 13(d)).
pub fn optimize_exhaustive(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    model: &CostModel,
) -> OptResult {
    let start = std::time::Instant::now();
    let Some((i, j, k, required)) = search_dims(dag, plan, model) else {
        return flat_result(dag, plan, tree, model, start);
    };
    let mut search = Search {
        dag,
        plan,
        tree,
        model,
        evaluated: 0,
        best: None,
    };
    for r in 1..=k {
        for q in 1..=j {
            for p in 1..=i {
                let est = search.estimate(p, q, r);
                if p * q * r >= required {
                    search.offer(Pqr { p, q, r }, est);
                }
            }
        }
    }
    let result = finish(search.best, i, j, k, search.evaluated, start);
    record_search("exhaustive", (i * j * k) as u64, &result);
    result
}

/// The paper's pruning search. Layouts in `cached` — where some inputs
/// already have cluster-resident replicas, so their consolidation ships
/// nothing — are costed first with [`estimate_with_cache`]; the best
/// feasible one seeds the incumbent. The pruning loop then runs once with
/// the cache-oblivious [`estimate`]. The result equals a sweep of the whole
/// space under the cache-aware estimate, with far fewer evaluations: away
/// from a cached layout both estimates agree, and a cached layout costs at
/// most its oblivious cost. Pass `&[]` when nothing is cached.
pub fn search(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    model: &CostModel,
    cached: &[CachedInput],
) -> OptResult {
    pruned(dag, plan, tree, model, cached, usize::MAX)
}

/// [`search`] with no cached layouts and `R` capped at `max_r`. Only the
/// benchmark's per-layer replay calls this; the engine never bounds `R`,
/// since every plan with a main multiplication can split its k-axis.
pub fn optimize_bounded(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    model: &CostModel,
    max_r: usize,
) -> OptResult {
    pruned(dag, plan, tree, model, &[], max_r)
}

fn pruned(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    model: &CostModel,
    cached: &[CachedInput],
    max_r: usize,
) -> OptResult {
    let start = std::time::Instant::now();
    let Some((i, j, k, required)) = search_dims(dag, plan, model) else {
        return flat_result(dag, plan, tree, model, start);
    };
    let k = k.min(max_r.max(1));
    let mut search = Search {
        dag,
        plan,
        tree,
        model,
        evaluated: 0,
        best: None,
    };
    let layouts: BTreeSet<(usize, usize, usize)> =
        cached.iter().flat_map(|c| c.pqrs.iter().copied()).collect();
    for (p, q, r) in layouts {
        if p == 0 || q == 0 || r == 0 || p > i || q > j || r > k || p * q * r < required {
            continue;
        }
        let free: BTreeSet<NodeId> = cached
            .iter()
            .filter(|c| c.pqrs.contains(&(p, q, r)))
            .map(|c| c.node)
            .collect();
        search.evaluated += 1;
        let est = estimate_with_cache(dag, plan, tree, p, q, r, &free);
        search.offer(Pqr { p, q, r }, est);
    }
    'r: for r in 1..=k {
        for q in 1..=j {
            // Lower bound for the whole (·, q, r) family: cost at p = 1
            // (cost is monotone non-decreasing in p). It never decreases in
            // q or r either, so once it loses to the incumbent every later
            // family in this row loses too, and when the row's first family
            // loses, so does every later row.
            let lb = model.cost(&search.estimate(1, q, r));
            if search.best.is_some_and(|(best_cost, _, _)| lb > best_cost) {
                if q == 1 {
                    break 'r;
                }
                break;
            }
            // Feasibility floor from parallelism: p ≥ required / (q·r).
            let p_par = required.div_ceil(q * r).max(1);
            if p_par > i {
                continue;
            }
            // Feasibility floor from memory: MemEst is monotone
            // non-increasing in p, so binary-search the smallest feasible p.
            let Some(p_mem) = smallest_feasible_p(&mut search, q, r, i) else {
                continue; // even p = I blows the budget
            };
            let p = p_par.max(p_mem);
            let est = search.estimate(p, q, r);
            search.offer(Pqr { p, q, r }, est);
        }
    }
    let result = finish(search.best, i, j, k, search.evaluated, start);
    record_search("pruned", (i * j * k) as u64, &result);
    result
}

/// The minimum per-task budget θ_t under which the search admits some
/// partitioning of `plan`. `MemEst` is monotone non-increasing in `P` and
/// `Q` (and in `R` within the two-stage regime `r ≥ 2`), so the space's
/// minimum peak memory lies at `(I, J, K)` or at the single-stage corner
/// `(I, J, 1)`; the returned θ_t is the smallest whose
/// [`MEM_SAFETY`]-discounted effective budget still covers that minimum.
/// Used by the driver's `OomReport` to tell the user how much memory the
/// failing unit actually needs.
pub fn min_feasible_theta(dag: &QueryDag, plan: &PartialPlan, tree: &SpaceTree) -> u64 {
    let mem = match plan.main_matmul(dag) {
        Some(main) => {
            let (i, j, k) = mm_dims(dag, main);
            let finest = estimate(dag, plan, tree, i, j, k).mem_bytes;
            // Within r ≥ 2 memory is monotone non-increasing in r, but the
            // two-stage aggregation term makes r = 1 a separate family
            // whose minimum (at (I, J, 1)) can undercut the finest point
            // when the main multiplication's output dominates the inputs.
            let single = estimate(dag, plan, tree, i, j, 1).mem_bytes;
            finest.min(single)
        }
        None => estimate(dag, plan, tree, 1, 1, 1).mem_bytes,
    };
    let mut theta = (mem as f64 / MEM_SAFETY).ceil() as u64;
    while theta > 0 && (theta.saturating_sub(1) as f64 * MEM_SAFETY) as u64 >= mem {
        theta -= 1;
    }
    while (((theta as f64) * MEM_SAFETY) as u64) < mem {
        theta += 1;
    }
    theta
}

/// Emits a "cuboid-search" trace event recording the searched space, how
/// much of it was actually evaluated, and the winning cuboid.
fn record_search(mode: &'static str, space: u64, result: &OptResult) {
    fuseme_obs::handle().event("cuboid-search", || {
        vec![
            ("mode", mode.into()),
            ("space", space.into()),
            ("evaluated", result.stats.evaluated.into()),
            ("p", (result.pqr.p as u64).into()),
            ("q", (result.pqr.q as u64).into()),
            ("r", (result.pqr.r as u64).into()),
            ("cost", result.cost.into()),
            ("feasible", result.feasible.into()),
        ]
    });
}

/// Binary search for the smallest `p` in `1..=max_p` with
/// `MemEst(p, q, r) ≤ θ_t`, relying on monotonicity.
fn smallest_feasible_p(search: &mut Search<'_>, q: usize, r: usize, max_p: usize) -> Option<usize> {
    let limit = budget(search.model);
    let fits = |search: &mut Search<'_>, p: usize| search.estimate(p, q, r).mem_bytes <= limit;
    if !fits(search, max_p) {
        return None;
    }
    let (mut lo, mut hi) = (1usize, max_p);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(search, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Deterministic candidate ordering: lower cost wins; ties prefer smaller
/// `R` (the paper: the optimizer "tends to determine R as a value as small
/// as possible"), then fewer tasks, then lexicographically smaller `(p,q)`.
fn better(cand: &Candidate, best: &Option<Candidate>) -> bool {
    match best {
        None => true,
        Some((bc, bp, _)) => {
            let (cc, cp, _) = cand;
            (*cc, cp.r, cp.tasks(), cp.p, cp.q) < (*bc, bp.r, bp.tasks(), bp.p, bp.q)
        }
    }
}

fn finish(
    best: Option<Candidate>,
    i: usize,
    j: usize,
    k: usize,
    evaluated: u64,
    start: std::time::Instant,
) -> OptResult {
    let stats = SearchStats {
        evaluated,
        elapsed_secs: start.elapsed().as_secs_f64(),
    };
    match best {
        Some((cost, pqr, est)) => OptResult {
            pqr,
            cost,
            est,
            feasible: true,
            stats,
        },
        None => OptResult {
            pqr: Pqr { p: i, q: j, r: k },
            cost: f64::INFINITY,
            est: Estimates::default(),
            feasible: false,
            stats,
        },
    }
}

/// Result for a plan without matrix multiplication: `(1,1,1)` with its flat
/// estimates (such plans shard by output blocks; no cuboid choice exists).
fn flat_result(
    dag: &QueryDag,
    plan: &PartialPlan,
    tree: &SpaceTree,
    model: &CostModel,
    start: std::time::Instant,
) -> OptResult {
    let est = estimate(dag, plan, tree, 1, 1, 1);
    let feasible = est.mem_bytes <= budget(model);
    OptResult {
        pqr: Pqr { p: 1, q: 1, r: 1 },
        cost: if feasible {
            model.cost(&est)
        } else {
            f64::INFINITY
        },
        est,
        feasible,
        stats: SearchStats {
            evaluated: 1,
            elapsed_secs: start.elapsed().as_secs_f64(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{BinOp, MatrixMeta, UnaryOp};
    use fuseme_plan::DagBuilder;
    use std::collections::BTreeSet;

    fn nmf(i: usize, j: usize, k: usize, bs: usize, density: f64) -> (QueryDag, PartialPlan) {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(i * bs, j * bs, bs, density));
        let u = b.input("U", MatrixMeta::dense(i * bs, k * bs, bs));
        let v = b.input("V", MatrixMeta::dense(j * bs, k * bs, bs));
        let vt = b.transpose(v);
        let mm = b.matmul(u, vt);
        let eps = b.scalar(1e-8);
        let add = b.binary(mm, eps, BinOp::Add);
        let lg = b.unary(add, UnaryOp::Log);
        let out = b.binary(x, lg, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let ops = BTreeSet::from([vt.id(), mm.id(), add.id(), lg.id(), out.id()]);
        (dag, PartialPlan::new(ops, out.id()))
    }

    fn model(mem: u64) -> CostModel {
        CostModel {
            nodes: 2,
            tasks_per_node: 2,
            mem_per_task: mem,
            net_bandwidth: 1e8,
            compute_bandwidth: 1e9,
        }
    }

    #[test]
    fn pruning_matches_exhaustive() {
        for (dims, mem) in [
            ((8usize, 8usize, 2usize), 200_000u64),
            ((8, 8, 2), 50_000),
            ((12, 6, 3), 100_000),
            ((4, 4, 4), 1_000_000),
        ] {
            let (i, j, k) = dims;
            let (dag, plan) = nmf(i, j, k, 10, 0.2);
            let tree = SpaceTree::build(&dag, &plan);
            let m = model(mem);
            let a = search(&dag, &plan, &tree, &m, &[]);
            let b = optimize_exhaustive(&dag, &plan, &tree, &m);
            assert_eq!(a.feasible, b.feasible, "dims {dims:?} mem {mem}");
            if a.feasible {
                assert_eq!(a.pqr, b.pqr, "dims {dims:?} mem {mem}");
                assert!((a.cost - b.cost).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pruning_evaluates_fewer() {
        let (dag, plan) = nmf(16, 16, 4, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(100_000);
        let a = search(&dag, &plan, &tree, &m, &[]);
        let b = optimize_exhaustive(&dag, &plan, &tree, &m);
        assert!(
            a.stats.evaluated * 4 < b.stats.evaluated,
            "pruning {} vs exhaustive {}",
            a.stats.evaluated,
            b.stats.evaluated
        );
    }

    #[test]
    fn respects_memory_budget() {
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(60_000);
        let res = search(&dag, &plan, &tree, &m, &[]);
        assert!(res.feasible);
        assert!(res.est.mem_bytes <= m.mem_per_task);
    }

    #[test]
    fn infeasible_when_budget_tiny() {
        let (dag, plan) = nmf(4, 4, 2, 10, 0.5);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(16); // 16 bytes per task: hopeless
        let res = search(&dag, &plan, &tree, &m, &[]);
        assert!(!res.feasible);
        assert_eq!(res.pqr, Pqr { p: 4, q: 4, r: 2 });
        assert!(res.cost.is_infinite());
        let ex = optimize_exhaustive(&dag, &plan, &tree, &m);
        assert!(!ex.feasible);
    }

    #[test]
    fn exploits_parallelism_floor() {
        let (dag, plan) = nmf(8, 8, 4, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(u64::MAX);
        let res = search(&dag, &plan, &tree, &m, &[]);
        assert!(res.pqr.tasks() >= m.total_tasks());
    }

    #[test]
    fn small_space_uses_all_voxels() {
        // I·J·K = 2 < 4 slots: required parallelism caps at 2.
        let (dag, plan) = nmf(1, 2, 1, 10, 1.0);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(u64::MAX);
        let res = search(&dag, &plan, &tree, &m, &[]);
        assert!(res.feasible);
        assert_eq!(res.pqr.tasks(), 2);
    }

    #[test]
    fn tight_memory_forces_more_partitions() {
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let loose = search(&dag, &plan, &tree, &model(10_000_000), &[]);
        let tight = search(&dag, &plan, &tree, &model(40_000), &[]);
        assert!(loose.feasible && tight.feasible);
        assert!(
            tight.pqr.tasks() >= loose.pqr.tasks(),
            "tight {} vs loose {}",
            tight.pqr,
            loose.pqr
        );
        assert!(tight.est.mem_bytes <= 40_000);
    }

    #[test]
    fn min_feasible_theta_is_tight() {
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let theta = min_feasible_theta(&dag, &plan, &tree);
        assert!(theta > 0);
        assert!(
            search(&dag, &plan, &tree, &model(theta), &[]).feasible,
            "theta {theta} must admit the finest partitioning"
        );
        assert!(
            !search(&dag, &plan, &tree, &model(theta - 1), &[]).feasible,
            "theta - 1 must reject every partitioning"
        );
    }

    #[test]
    fn cached_layout_can_beat_oblivious_optimum() {
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(10_000_000);
        let base = search(&dag, &plan, &tree, &m, &[]);
        assert!(base.feasible);
        // Pretend every external input already has replicas resident at
        // some feasible layout other than the oblivious optimum.
        let alt = (base.pqr.p, base.pqr.q.max(2), base.pqr.r);
        let cached: Vec<CachedInput> = dag
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, fuseme_plan::OpKind::Input { .. }))
            .map(|n| CachedInput {
                node: n.id,
                pqrs: vec![alt],
            })
            .collect();
        let aware = search(&dag, &plan, &tree, &m, &cached);
        assert!(aware.feasible);
        // All inputs free at `alt` ⇒ its NetEst collapses to the scalar +
        // aggregation terms, so the cached layout must win (or tie via the
        // oblivious optimum also being cached — not the case here).
        assert_eq!(
            (aware.pqr.p, aware.pqr.q, aware.pqr.r),
            alt,
            "cache-aware search must pick the resident layout"
        );
        assert!(aware.cost <= base.cost);
        assert!(aware.est.net_bytes < base.est.net_bytes);
    }

    #[test]
    fn cache_aware_with_no_cached_inputs_is_identity() {
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(10_000_000);
        let base = search(&dag, &plan, &tree, &m, &[]);
        // A degenerate layout and two outside the 8×8×2 space.
        let cached = [CachedInput {
            node: dag.nodes()[0].id,
            pqrs: vec![(0, 1, 1), (9, 1, 1), (1, 1, 3)],
        }];
        let aware = search(&dag, &plan, &tree, &m, &cached);
        assert_eq!(aware.pqr, base.pqr);
        assert_eq!(aware.est, base.est);
    }

    #[test]
    fn cached_layout_rejected_when_infeasible() {
        let (dag, plan) = nmf(8, 8, 2, 10, 0.2);
        let tree = SpaceTree::build(&dag, &plan);
        let m = model(40_000); // tight: coarse layouts blow the budget
        let base = search(&dag, &plan, &tree, &m, &[]);
        assert!(base.feasible);
        // A cached replica at the coarsest layout must not tempt the search
        // into an over-budget (or under-parallel) plan.
        let cached = [CachedInput {
            node: dag.nodes()[0].id,
            pqrs: vec![(1, 1, 1)],
        }];
        let aware = search(&dag, &plan, &tree, &m, &cached);
        assert_eq!(aware.pqr, base.pqr);
        assert!(aware.est.mem_bytes <= 40_000);
    }

    #[test]
    fn flat_plan_optimization() {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::dense(40, 40, 10));
        let s = b.unary(x, UnaryOp::Sqrt);
        let dag = b.finish(vec![s]);
        let plan = PartialPlan::new(BTreeSet::from([s.id()]), s.id());
        let tree = SpaceTree::build(&dag, &plan);
        let res = search(&dag, &plan, &tree, &model(u64::MAX), &[]);
        assert!(res.feasible);
        assert_eq!(res.pqr, Pqr { p: 1, q: 1, r: 1 });
    }
}
