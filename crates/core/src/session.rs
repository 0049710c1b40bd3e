//! User-facing sessions: named datasets + script or DAG execution.

use std::collections::HashMap;
use std::sync::Arc;

use fuseme_exec::driver::EngineStats;
use fuseme_lang::compile;
use fuseme_matrix::{gen, BlockedMatrix, MatrixMeta};
use fuseme_obs::{Recorder, SpanGuard, SpanKind, TraceSummary};
use fuseme_plan::{Bindings, QueryDag};
use fuseme_sim::{FaultPlan, FaultStats, FaultToleranceConfig, SimError};

use crate::engine::Engine;

/// Live tracing state of a session: the recorder installed on this thread
/// plus the open session-level span every run nests under.
#[derive(Debug)]
struct TraceCtx {
    recorder: Arc<Recorder>,
    span: SpanGuard,
    sim_start: f64,
}

/// A session holds an engine plus named matrices, and runs scripts or DAGs
/// against them — the equivalent of FuseME's Scala/DML user surface.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    data: HashMap<String, Arc<BlockedMatrix>>,
    trace: Option<TraceCtx>,
}

/// Everything a run returns.
#[derive(Debug)]
pub struct RunReport {
    /// Materialized outputs, in the script's output order.
    pub outputs: Vec<Arc<BlockedMatrix>>,
    /// Execution statistics.
    pub stats: EngineStats,
}

/// Session-level failures.
#[derive(Debug)]
pub enum SessionError {
    /// The script failed to compile.
    Compile(fuseme_lang::CompileError),
    /// Execution failed (OOM, timeout, kernel error).
    Exec(SimError),
    /// Data generation / binding problem.
    Data(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Compile(e) => write!(f, "{e}"),
            SessionError::Exec(e) => write!(f, "{e}"),
            SessionError::Data(msg) => write!(f, "session data error: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Exec(e)
    }
}

impl Session {
    /// Wraps an engine with an empty dataset table.
    pub fn new(engine: Engine) -> Self {
        Session {
            engine,
            data: HashMap::new(),
            trace: None,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Installs (or clears) a deterministic fault-injection schedule for
    /// subsequent runs.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.engine.set_fault_plan(plan);
    }

    /// Sets the recovery policy for subsequent runs: off (the default) or
    /// armed with a task-retry budget.
    pub fn set_fault_tolerance(&mut self, cfg: FaultToleranceConfig) {
        self.engine.set_fault_tolerance(cfg);
    }

    /// Recovery-activity counters accumulated by this session's engine.
    pub fn fault_stats(&self) -> FaultStats {
        self.engine.fault_stats()
    }

    /// Turns on structured tracing for this session (on this thread). Every
    /// subsequent run records plan/exec-unit/stage/wave/task spans under one
    /// session span, until [`end_tracing`](Session::end_tracing). Returns
    /// the recorder; calling again while tracing is active returns the
    /// existing one.
    pub fn enable_tracing(&mut self) -> Arc<Recorder> {
        if let Some(t) = &self.trace {
            return Arc::clone(&t.recorder);
        }
        let recorder = Recorder::new();
        fuseme_obs::install(&recorder);
        let span = fuseme_obs::handle().scope_span(SpanKind::Session, || {
            format!("session-{}", self.engine.kind().name())
        });
        let sim_start = self.engine.cluster().elapsed_secs();
        self.trace = Some(TraceCtx {
            recorder: Arc::clone(&recorder),
            span,
            sim_start,
        });
        recorder
    }

    /// Ends tracing: closes the session span, uninstalls the recorder from
    /// this thread, and returns it for export. Returns `None` when tracing
    /// was not active.
    pub fn end_tracing(&mut self) -> Option<Arc<Recorder>> {
        let ctx = self.trace.take()?;
        ctx.span.set_sim(
            ctx.sim_start,
            self.engine.cluster().elapsed_secs() - ctx.sim_start,
        );
        drop(ctx.span);
        fuseme_obs::uninstall();
        Some(ctx.recorder)
    }

    /// Summary of everything recorded so far, when tracing is active.
    pub fn trace_summary(&self) -> Option<TraceSummary> {
        self.trace
            .as_ref()
            .map(|t| fuseme_obs::summarize(&t.recorder))
    }

    /// The active recorder, when tracing is on.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.trace.as_ref().map(|t| &t.recorder)
    }

    /// Arms (or disarms) the engine's cuboid replica cache with the given
    /// byte budget. Rebinding a name to a different matrix value afterwards
    /// invalidates the old value's cached replica sets (a driver write
    /// bumps the matrix version), so stale layouts can never serve a hit.
    pub fn set_replica_cache(&mut self, budget_bytes: Option<u64>) {
        self.engine.set_replica_cache(budget_bytes);
    }

    /// Cumulative replica-cache counters, when the cache is armed.
    pub fn cache_stats(&self) -> Option<fuseme_sim::CacheStats> {
        self.engine.cache_stats()
    }

    /// Inserts `value` under `name`, bumping the replaced value's version
    /// in the replica cache when the name held a different matrix — the
    /// session-level equivalent of a driver write invalidating cluster
    /// replicas.
    fn rebind_value(&mut self, name: &str, value: Arc<BlockedMatrix>) {
        if let (Some(old), Some(cache)) =
            (self.data.get(name), self.engine.cluster().replica_cache())
        {
            let old_uid = old.uid();
            if old_uid != value.uid() {
                cache.bump_version(old_uid);
                fuseme_obs::handle().event(fuseme_obs::events::CACHE_INVALIDATE, || {
                    vec![(fuseme_obs::keys::MATRIX_UID, old_uid.into())]
                });
            }
        }
        self.data.insert(name.to_string(), value);
    }

    /// Binds an existing matrix under a name.
    pub fn bind(&mut self, name: &str, matrix: BlockedMatrix) {
        self.rebind_value(name, Arc::new(matrix));
    }

    /// Binds a shared matrix under a name.
    pub fn bind_shared(&mut self, name: &str, matrix: Arc<BlockedMatrix>) {
        self.rebind_value(name, matrix);
    }

    /// Generates and binds a dense uniform matrix in `(0, 1)`.
    pub fn gen_dense(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        block_size: usize,
        seed: u64,
    ) -> Result<(), SessionError> {
        let m = gen::dense_uniform(rows, cols, block_size, 0.0, 1.0, seed)
            .map_err(|e| SessionError::Data(e.to_string()))?;
        self.bind(name, m);
        Ok(())
    }

    /// Generates and binds a sparse uniform matrix in `(0, 1)`.
    pub fn gen_sparse(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        block_size: usize,
        density: f64,
        seed: u64,
    ) -> Result<(), SessionError> {
        let m = gen::sparse_uniform(rows, cols, block_size, density, 0.0, 1.0, seed)
            .map_err(|e| SessionError::Data(e.to_string()))?;
        self.bind(name, m);
        Ok(())
    }

    /// A bound matrix, if present.
    pub fn matrix(&self, name: &str) -> Option<&Arc<BlockedMatrix>> {
        self.data.get(name)
    }

    /// Metadata of every bound matrix (what scripts compile against).
    pub fn input_metas(&self) -> HashMap<String, MatrixMeta> {
        self.data
            .iter()
            .map(|(n, m)| (n.clone(), *m.meta()))
            .collect()
    }

    /// Bindings view of the bound matrices.
    pub fn bindings(&self) -> Bindings {
        self.data
            .iter()
            .map(|(n, m)| (n.clone(), Arc::clone(m)))
            .collect()
    }

    /// Compiles a DML-like script against the bound matrices.
    pub fn compile_script(&self, source: &str) -> Result<QueryDag, SessionError> {
        compile(source, &self.input_metas()).map_err(SessionError::Compile)
    }

    /// Compiles and runs a script.
    pub fn run_script(&mut self, source: &str) -> Result<RunReport, SessionError> {
        let dag = self.compile_script(source)?;
        self.run_dag(&dag)
    }

    /// Runs a pre-built DAG over the bound matrices.
    pub fn run_dag(&mut self, dag: &QueryDag) -> Result<RunReport, SessionError> {
        let outcome = self.engine.run(dag, &self.bindings())?;
        Ok(RunReport {
            outputs: outcome.outputs,
            stats: outcome.stats,
        })
    }

    /// Runs a script and rebinds each output under the given names — the
    /// building block for iterative algorithms (GNMF's factor updates
    /// rebind `U` and `V` every iteration).
    pub fn run_and_rebind(
        &mut self,
        source: &str,
        rebind: &[(&str, usize)],
    ) -> Result<RunReport, SessionError> {
        let report = self.run_script(source)?;
        for &(name, idx) in rebind {
            let out = report
                .outputs
                .get(idx)
                .ok_or_else(|| SessionError::Data(format!("no output #{idx} to rebind")))?;
            self.rebind_value(name, Arc::clone(out));
        }
        Ok(report)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A dropped session must not leave its recorder installed on the
        // thread: the span guard closes first, then the handle uninstalls.
        if self.trace.take().is_some() {
            fuseme_obs::uninstall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use fuseme_sim::ClusterConfig;

    fn session() -> Session {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 64 << 20;
        Session::new(Engine::fuseme(cc))
    }

    #[test]
    fn script_run_produces_output() {
        let mut s = session();
        s.gen_sparse("X", 40, 40, 8, 0.2, 1).unwrap();
        s.gen_dense("U", 40, 8, 8, 2).unwrap();
        s.gen_dense("V", 40, 8, 8, 3).unwrap();
        let report = s
            .run_script("out = X * log(U %*% t(V) + 0.00000001)")
            .unwrap();
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.outputs[0].shape().rows, 40);
        assert!(report.stats.comm.total() > 0);
    }

    #[test]
    fn compile_error_reported() {
        let s = session();
        let err = s.compile_script("out = Missing * 2").unwrap_err();
        assert!(matches!(err, SessionError::Compile(_)));
        assert!(err.to_string().contains("Missing"));
    }

    #[test]
    fn run_and_rebind_supports_iteration() {
        let mut s = session();
        s.gen_sparse("X", 30, 30, 10, 0.3, 4).unwrap();
        s.gen_dense("U", 30, 10, 10, 5).unwrap();
        s.gen_dense("V", 30, 10, 10, 6).unwrap();
        // One multiplicative GNMF-flavoured V update, twice.
        let update = "Vn = V * (X %*% U) / (V %*% (t(U) %*% U) + 0.000001)";
        let before = s.matrix("V").unwrap().to_dense_vec();
        s.run_and_rebind(update, &[("V", 0)]).unwrap();
        let mid = s.matrix("V").unwrap().to_dense_vec();
        assert_ne!(before, mid);
        s.run_and_rebind(update, &[("V", 0)]).unwrap();
        let after = s.matrix("V").unwrap().to_dense_vec();
        assert_ne!(mid, after);
    }

    #[test]
    fn replica_cache_accelerates_iteration() {
        let mut s = session();
        s.set_replica_cache(Some(64 << 20));
        s.gen_sparse("X", 30, 30, 10, 0.3, 4).unwrap();
        s.gen_dense("U", 30, 10, 10, 5).unwrap();
        s.gen_dense("V", 30, 10, 10, 6).unwrap();
        let update = "Vn = V * (X %*% U) / (V %*% (t(U) %*% U) + 0.000001)";
        let first = s.run_and_rebind(update, &[("V", 0)]).unwrap();
        let second = s.run_and_rebind(update, &[("V", 0)]).unwrap();
        // X and U are loop-invariant, so the second iteration serves their
        // consolidation from cached replicas…
        let cold = first.stats.cache.expect("cache armed");
        let warm = second.stats.cache.expect("cache armed");
        assert_eq!(cold.hits, 0, "{cold:?}");
        assert!(warm.hits > 0, "{warm:?}");
        assert!(warm.saved_bytes > 0);
        // …and ships strictly fewer bytes than the cold iteration. The
        // rebound V (fresh uid each iteration) was invalidated, so its
        // stale replicas can never have served a hit.
        assert!(second.stats.comm.total() < first.stats.comm.total());
        let total = s.cache_stats().unwrap();
        assert!(total.invalidations > 0, "{total:?}");
    }

    #[test]
    fn traced_session_reconciles_with_comm_stats() {
        let mut s = session();
        s.gen_sparse("X", 40, 40, 8, 0.2, 1).unwrap();
        s.gen_dense("U", 40, 8, 8, 2).unwrap();
        s.gen_dense("V", 40, 8, 8, 3).unwrap();
        let rec = s.enable_tracing();
        let report = s
            .run_script("out = X * log(U %*% t(V) + 0.00000001)")
            .unwrap();
        let summary = s.trace_summary().unwrap();
        assert_eq!(
            summary.consolidation_bytes,
            report.stats.comm.consolidation_bytes
        );
        assert_eq!(
            summary.aggregation_bytes,
            report.stats.comm.aggregation_bytes
        );
        assert!(!summary.units.is_empty());
        // The span tree nests session → plan → exec-unit → stage.
        let spans = rec.spans();
        let session_span = spans
            .iter()
            .find(|sp| sp.kind == fuseme_obs::SpanKind::Session)
            .unwrap();
        let plan_span = spans
            .iter()
            .find(|sp| sp.kind == fuseme_obs::SpanKind::Plan)
            .unwrap();
        assert_eq!(plan_span.parent, session_span.id);
        let ended = s.end_tracing().unwrap();
        assert!(Arc::ptr_eq(&ended, &rec));
        assert!(s.end_tracing().is_none());
        // Chrome export of a real run parses back as JSON.
        let trace = fuseme_obs::chrome_trace_json(&rec);
        assert!(trace.starts_with('['));
        assert!(trace.contains("\"cat\":\"stage\""));
    }

    #[test]
    fn enable_tracing_is_idempotent() {
        let mut s = session();
        let a = s.enable_tracing();
        let b = s.enable_tracing();
        assert!(Arc::ptr_eq(&a, &b));
        s.end_tracing();
    }

    #[test]
    fn results_match_reference_interpreter() {
        let mut s = session();
        s.gen_dense("A", 24, 16, 8, 7).unwrap();
        s.gen_dense("B", 16, 24, 8, 8).unwrap();
        let report = s.run_script("out = (A %*% B) ^ 2").unwrap();
        let dag = s.compile_script("out = (A %*% B) ^ 2").unwrap();
        let reference = fuseme_plan::evaluate(&dag, &s.bindings()).unwrap();
        assert!(report.outputs[0].approx_eq(reference[0].as_matrix().unwrap(), 1e-9));
    }
}
