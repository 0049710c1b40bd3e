//! Engine facade: one constructor per system the paper evaluates.

use std::sync::Arc;

use fuseme_exec::driver::{execute_plan, EngineStats, ExecConfig, MatmulStrategy};
use fuseme_fusion::cfg::Cfg;
use fuseme_fusion::folded::Folded;
use fuseme_fusion::gen_like::GenLike;
use fuseme_fusion::plan::FusionPlan;
use fuseme_matrix::BlockedMatrix;
use fuseme_plan::{Bindings, QueryDag};
use fuseme_sim::{Cluster, ClusterConfig, FaultPlan, FaultStats, FaultToleranceConfig, SimError};

/// Which system's planner + physical operators an [`Engine`] emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's system: CFG fusion plans executed by CFOs.
    FuseMe,
    /// SystemDS: GEN-style fusion (Cell/Outer), BFO/RFO by selection rule.
    SystemDsLike,
    /// MatFast: folded element-wise operators, replicated matmul.
    MatFastLike,
    /// DistME: no operator fusion; CuboidMM per multiplication.
    DistMeLike,
    /// A single-node TensorFlow/XLA-style runtime for the deep-learning
    /// comparison (Fig. 15): element-wise fusion, in-memory "network".
    TensorFlowLike,
}

impl EngineKind {
    /// Stable display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::FuseMe => "FuseME",
            EngineKind::SystemDsLike => "SystemDS",
            EngineKind::MatFastLike => "MatFast",
            EngineKind::DistMeLike => "DistME",
            EngineKind::TensorFlowLike => "TensorFlow",
        }
    }
}

/// Bytes of main-matrix data per Spark-style partition; used by the
/// SystemDS BFO/RFO selection rule and by BFO's parallelism bound. The real
/// systems use 128 MB; our scaled experiments shrink matrices by roughly
/// three orders of magnitude, so the default shrinks alike.
pub const DEFAULT_PARTITION_BYTES: u64 = 128 << 10;

/// A configured engine: a simulated cluster plus a planner/operator policy.
#[derive(Debug)]
pub struct Engine {
    kind: EngineKind,
    cluster: Cluster,
    exec: ExecConfig,
}

/// Result of one query execution.
#[derive(Debug)]
pub struct RunOutcome {
    /// Materialized query roots, in DAG root order.
    pub outputs: Vec<Arc<BlockedMatrix>>,
    /// Execution statistics (communication, simulated time, fusion counts,
    /// `(P,Q,R)` choices).
    pub stats: EngineStats,
}

impl Engine {
    fn build(kind: EngineKind, cc: ClusterConfig, partition_bytes: u64) -> Self {
        let cluster = Cluster::new(cc);
        let matmul = match kind {
            EngineKind::FuseMe | EngineKind::DistMeLike => MatmulStrategy::Cfo,
            EngineKind::SystemDsLike => MatmulStrategy::SystemDsRule { partition_bytes },
            EngineKind::MatFastLike => MatmulStrategy::Rfo,
            // Single node: broadcast degenerates to local sharing.
            EngineKind::TensorFlowLike => MatmulStrategy::Bfo { partition_bytes },
        };
        let exec = ExecConfig::for_cluster(&cluster, matmul);
        Engine {
            kind,
            cluster,
            exec,
        }
    }

    /// FuseME: CFG + CFO.
    pub fn fuseme(cc: ClusterConfig) -> Self {
        Engine::build(EngineKind::FuseMe, cc, DEFAULT_PARTITION_BYTES)
    }

    /// SystemDS-like: GEN planning, BFO/RFO operators.
    pub fn systemds_like(cc: ClusterConfig) -> Self {
        Engine::build(EngineKind::SystemDsLike, cc, DEFAULT_PARTITION_BYTES)
    }

    /// MatFast-like: folded element-wise operators only.
    pub fn matfast_like(cc: ClusterConfig) -> Self {
        Engine::build(EngineKind::MatFastLike, cc, DEFAULT_PARTITION_BYTES)
    }

    /// DistME-like: CuboidMM, no operator fusion.
    pub fn distme_like(cc: ClusterConfig) -> Self {
        Engine::build(EngineKind::DistMeLike, cc, DEFAULT_PARTITION_BYTES)
    }

    /// TensorFlow-like runtime (§6.5's comparison): XLA-style element-wise
    /// fusion with data-parallel instances — weights broadcast to every
    /// instance, exactly a BFO-shaped matmul. Runs on the same cluster as
    /// the other engines (the paper runs TF with 12 instances per node).
    pub fn tf_like(cc: ClusterConfig) -> Self {
        Engine::build(EngineKind::TensorFlowLike, cc, DEFAULT_PARTITION_BYTES)
    }

    /// Overrides the Spark-style partition size used by BFO and the
    /// SystemDS selection rule.
    pub fn with_partition_bytes(mut self, bytes: u64) -> Self {
        let matmul = match self.kind {
            EngineKind::SystemDsLike => MatmulStrategy::SystemDsRule {
                partition_bytes: bytes,
            },
            EngineKind::TensorFlowLike => MatmulStrategy::Bfo {
                partition_bytes: bytes,
            },
            _ => return self,
        };
        self.exec.matmul = matmul;
        self
    }

    /// Installs (or clears) a deterministic fault-injection schedule on
    /// the simulated cluster.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.cluster.set_fault_plan(plan);
    }

    /// Sets the cluster's recovery policy. Armed, it turns on task retry
    /// and speculation inside stages, and the driver's stage re-runs on
    /// executor loss and memory-pressure recovery between them.
    pub fn set_fault_tolerance(&mut self, cfg: FaultToleranceConfig) {
        self.cluster.set_fault_tolerance(cfg);
    }

    /// Recovery-activity counters accumulated since the last reset.
    pub fn fault_stats(&self) -> FaultStats {
        self.cluster.fault_stats()
    }

    /// Arms (or disarms) the cuboid replica cache on the simulated cluster
    /// with the given byte budget. While armed, fused units whose
    /// loop-invariant inputs were already partitioned at the chosen
    /// `(P,Q,R)` skip the consolidation shuffle for those inputs, and the
    /// plan search weighs cached layouts against the cache-oblivious
    /// optimum.
    pub fn set_replica_cache(&mut self, budget_bytes: Option<u64>) {
        self.cluster.set_replica_cache(budget_bytes);
    }

    /// Cumulative replica-cache counters, when the cache is armed.
    pub fn cache_stats(&self) -> Option<fuseme_sim::CacheStats> {
        self.cluster.cache_stats()
    }

    /// The engine's kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The underlying simulated cluster (ledger, clock).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The execution configuration (cost model, matmul policy).
    pub fn exec_config(&self) -> &ExecConfig {
        &self.exec
    }

    /// Generates this engine's fusion plan for a query.
    pub fn plan(&self, dag: &QueryDag) -> FusionPlan {
        match self.kind {
            EngineKind::FuseMe => Cfg::new(self.exec.model).plan(dag),
            EngineKind::SystemDsLike => GenLike.plan(dag),
            EngineKind::MatFastLike => Folded.plan(dag),
            EngineKind::DistMeLike => FusionPlan::assemble(dag, vec![]),
            // XLA fuses element-wise regions; matmuls stay library calls.
            EngineKind::TensorFlowLike => Folded.plan(dag),
        }
    }

    /// Renders a human-readable EXPLAIN of the fusion plan this engine
    /// would execute: one line per unit with its operators and the
    /// physical strategy of any unit with a main multiplication — under
    /// the cost-based policy the chosen `(P*,Q*,R*)` and the model's
    /// estimates there (omitted for infeasible units, which have none),
    /// otherwise the policy's name.
    pub fn explain(&self, dag: &QueryDag) -> String {
        use fuseme_fusion::optimizer::search;
        use fuseme_fusion::plan::ExecUnit;
        use fuseme_fusion::space::SpaceTree;
        use std::fmt::Write as _;

        let plan = self.plan(dag);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} plan: {} unit(s), {} operator(s) fused",
            self.kind.name(),
            plan.units.len(),
            plan.fused_op_count()
        );
        for (i, unit) in plan.units.iter().enumerate() {
            let p = unit.plan();
            let labels = p
                .ops
                .iter()
                .map(|&id| dag.node(id).kind.label())
                .collect::<Vec<_>>()
                .join(", ");
            let line = match (p.main_matmul(dag), self.exec.matmul) {
                (None, _) if matches!(unit, ExecUnit::Single(_)) => format!("single {labels}"),
                (None, _) => format!("cell-fused [{labels}]"),
                (Some(_), MatmulStrategy::Cfo) => {
                    let opt = search(dag, &p, &SpaceTree::build(dag, &p), &self.exec.model, &[]);
                    let est = if opt.feasible {
                        format!(
                            " net≈{:.2}MB mem/task≈{:.2}MB",
                            opt.est.net_bytes as f64 / 1e6,
                            opt.est.mem_bytes as f64 / 1e6,
                        )
                    } else {
                        "  (INFEASIBLE)".to_string()
                    };
                    format!("CFO {} [{labels}]{est}", opt.pqr)
                }
                (Some(_), MatmulStrategy::SystemDsRule { .. }) => {
                    format!("SystemDS rule [{labels}]")
                }
                (Some(_), MatmulStrategy::Bfo { .. }) => format!("BFO [{labels}]"),
                (Some(_), MatmulStrategy::Rfo) => format!("RFO [{labels}]"),
            };
            let _ = writeln!(out, "  {i}: {line}");
        }
        out
    }

    /// Plans and executes a query over named inputs.
    pub fn run(&self, dag: &QueryDag, inputs: &Bindings) -> Result<RunOutcome, SimError> {
        let plan_start = std::time::Instant::now();
        let plan = self.plan(dag);
        fuseme_obs::handle().event("fusion-plan", || {
            vec![
                ("engine", self.kind.name().into()),
                ("units", (plan.units.len() as u64).into()),
                ("fused_ops", (plan.fused_op_count() as u64).into()),
                ("plan_secs", plan_start.elapsed().as_secs_f64().into()),
            ]
        });
        let (outputs, stats) = execute_plan(&self.cluster, dag, &plan, inputs, &self.exec)?;
        Ok(RunOutcome { outputs, stats })
    }

    /// Executes a pre-generated plan (benchmarks reuse plans across
    /// iterations, as iterative workloads would).
    pub fn run_plan(
        &self,
        dag: &QueryDag,
        plan: &FusionPlan,
        inputs: &Bindings,
    ) -> Result<RunOutcome, SimError> {
        let (outputs, stats) = execute_plan(&self.cluster, dag, plan, inputs, &self.exec)?;
        Ok(RunOutcome { outputs, stats })
    }

    /// Resets the cluster's ledger and clock (fresh measurement window).
    pub fn reset_metrics(&self) {
        self.cluster.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{gen, BinOp, UnaryOp};
    use fuseme_plan::DagBuilder;

    fn cc() -> ClusterConfig {
        let mut c = ClusterConfig::test_small();
        c.mem_per_task = 64 << 20;
        c
    }

    fn nmf_query() -> (QueryDag, Bindings) {
        nmf_query_at(30, 10, 5, 0.2)
    }

    /// `X * log(U %*% t(V) + 1e-8)` with `X` `n×n` at `density` and dense
    /// `n×k` factors in `bs`-edge blocks.
    fn nmf_query_at(n: usize, k: usize, bs: usize, density: f64) -> (QueryDag, Bindings) {
        let x = gen::sparse_uniform(n, n, bs, density, 1.0, 2.0, 1).unwrap();
        let u = gen::dense_uniform(n, k, bs, 0.1, 1.0, 2).unwrap();
        let v = gen::dense_uniform(n, k, bs, 0.1, 1.0, 3).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let vt = b.transpose(ve);
        let mm = b.matmul(ue, vt);
        let eps = b.scalar(1e-8);
        let add = b.binary(mm, eps, BinOp::Add);
        let lg = b.unary(add, UnaryOp::Log);
        let out = b.binary(xe, lg, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let binds: Bindings = [
            ("X".to_string(), Arc::new(x)),
            ("U".to_string(), Arc::new(u)),
            ("V".to_string(), Arc::new(v)),
        ]
        .into_iter()
        .collect();
        (dag, binds)
    }

    #[test]
    fn all_engines_agree_on_results() {
        let (dag, binds) = nmf_query();
        let reference = fuseme_plan::evaluate(&dag, &binds).unwrap()[0]
            .as_matrix()
            .unwrap()
            .clone();
        for engine in [
            Engine::fuseme(cc()),
            Engine::systemds_like(cc()),
            Engine::matfast_like(cc()),
            Engine::distme_like(cc()),
            Engine::tf_like(cc()),
        ] {
            let out = engine.run(&dag, &binds).unwrap();
            assert!(
                out.outputs[0].approx_eq(&reference, 1e-9),
                "{:?} diverges",
                engine.kind()
            );
        }
    }

    #[test]
    fn fuseme_fuses_more_than_systemds() {
        let (dag, binds) = nmf_query();
        let fm = Engine::fuseme(cc());
        let sd = Engine::systemds_like(cc());
        let f = fm.run(&dag, &binds).unwrap();
        let s = sd.run(&dag, &binds).unwrap();
        // For the NMF query FuseME fuses the whole expression; SystemDS
        // needs its sparse gate, which holds here, so both fuse — but
        // FuseME must never fuse less.
        assert!(f.stats.fused_units >= s.stats.fused_units);
        assert!(f.stats.single_units <= s.stats.single_units);
    }

    #[test]
    fn explain_renders_plan() {
        let (dag, binds) = nmf_query();
        let fm = Engine::fuseme(cc());
        let text = fm.explain(&dag);
        assert!(text.contains("FuseME plan"), "{text}");
        assert!(text.contains("CFO ("), "{text}");
        assert!(text.contains("ba(×)"), "{text}");
        // The printed (P,Q,R) is the one execution picks.
        let ran = fm.run(&dag, &binds).unwrap();
        let [(_, pqr)] = ran.stats.pqr_choices[..] else {
            panic!("one cuboid unit expected: {:?}", ran.stats.pqr_choices);
        };
        assert!(text.contains(&format!("CFO {pqr} [")), "{text} vs {pqr}");
        let sd = Engine::systemds_like(cc());
        let text = sd.explain(&dag);
        assert!(text.contains("SystemDS plan"));

        // The quickstart query at a fifth of its size: X is sparse enough
        // for SystemDS to fuse the multiplication, which it then runs under
        // its own rule, while DistME searches (P,Q,R) for the
        // multiplication's single unit.
        let (dag, binds) = nmf_query_at(400, 40, 20, 0.005);
        let mut qc = ClusterConfig::paper_testbed();
        qc.mem_per_task = 8 << 20;
        let sd = Engine::systemds_like(qc);
        let text = sd.explain(&dag);
        assert!(
            text.contains(": SystemDS rule [") && text.contains("ba(×)"),
            "{text}"
        );
        assert!(!text.contains("CFO"), "{text}");
        assert!(sd.run(&dag, &binds).unwrap().stats.pqr_choices.is_empty());
        let dm = Engine::distme_like(qc);
        let text = dm.explain(&dag);
        let ran = dm.run(&dag, &binds).unwrap();
        let [(_, pqr)] = ran.stats.pqr_choices[..] else {
            panic!("one cuboid unit expected: {:?}", ran.stats.pqr_choices);
        };
        assert!(
            text.contains(&format!(": CFO {pqr} [ba(×)]")),
            "{text} vs {pqr}"
        );
    }

    #[test]
    fn engine_names() {
        assert_eq!(Engine::fuseme(cc()).kind().name(), "FuseME");
        assert_eq!(Engine::tf_like(cc()).kind().name(), "TensorFlow");
    }

    #[test]
    fn reset_metrics_clears_ledger() {
        let (dag, binds) = nmf_query();
        let e = Engine::fuseme(cc());
        e.run(&dag, &binds).unwrap();
        assert!(e.cluster().comm().total() > 0);
        e.reset_metrics();
        assert_eq!(e.cluster().comm().total(), 0);
    }

    #[test]
    fn tf_like_uses_folded_plans_and_broadcast() {
        let e = Engine::tf_like(cc());
        assert_eq!(e.cluster().config().nodes, cc().nodes);
        assert!(matches!(e.exec_config().matmul, MatmulStrategy::Bfo { .. }));
    }
}
