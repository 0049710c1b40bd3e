//! Shared machinery for the experiment harness.
//!
//! # Scaling model
//!
//! The paper's testbed is 8 nodes × 12 tasks, 1 Gbps Ethernet, θ_t = 10 GB,
//! 1000×1000 blocks, and matrices up to millions of rows. The harness
//! shrinks every *element* dimension by a scale divisor `s` and the block
//! edge to `1000 / s`, so the **block-grid shapes `(I, J, K)` match the
//! paper exactly** — and those grids are what every fusion/partitioning
//! decision operates on. Cluster constants scale with the data:
//!
//! * θ_t and network bandwidth scale by `s²` (matrix bytes scale by `s²`),
//! * compute bandwidth scales by `s³` (matmul flops scale by `s³`),
//!
//! so simulated elapsed times, O.O.M. thresholds, and the 12-hour timeout
//! remain directly comparable to the paper's reported numbers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fuseme::obs::{self, SpanKind};
use fuseme::prelude::*;
use fuseme_exec::driver::EngineStats;
use serde::{Deserialize, Serialize};

pub mod experiments;
pub mod report;

pub use report::{Cell as ReportCell, Table};

/// Scale divisor and derived constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Element-dimension divisor `s`; must divide 1000 so that the block
    /// edge `1000 / s` is integral.
    pub divisor: usize,
}

impl Scale {
    /// Creates a scale, validating the divisor.
    pub fn new(divisor: usize) -> Result<Scale, String> {
        if divisor == 0 || 1000 % divisor != 0 {
            return Err(format!(
                "scale divisor {divisor} must be a divisor of 1000 (e.g. 100, 125, 200, 250, 500)"
            ));
        }
        Ok(Scale { divisor })
    }

    /// Default harness scale: `s = 250` (block edge 4) keeps every
    /// experiment's real computation in laptop range while preserving the
    /// paper's block-grid shapes exactly.
    pub fn default_scale() -> Scale {
        Scale { divisor: 250 }
    }

    /// The scaled block edge `1000 / s`.
    pub fn block_size(&self) -> usize {
        1000 / self.divisor
    }

    /// Scales an element dimension (at least one block).
    pub fn dim(&self, full: usize) -> usize {
        (full / self.divisor).max(self.block_size())
    }

    /// Scales a factor/hidden dimension by `s/16` — factor dimensions (the
    /// paper's `k = 200/1000`, autoencoder widths) are model hyper-
    /// parameters, so they shrink more gently to stay non-degenerate while
    /// preserving the paper's ratios.
    pub fn factor(&self, full: usize) -> usize {
        (full * 16 / self.divisor).max(self.block_size()).max(2)
    }

    /// Spark-style partition bytes (128 MB at full scale).
    pub fn partition_bytes(&self) -> u64 {
        ((128u64 << 20) / (self.divisor as u64 * self.divisor as u64)).max(1024)
    }

    /// The paper's cluster with explicit byte/flop divisors (memory and
    /// bandwidth scale with the data volume, compute with the flop volume).
    pub fn cluster_with(&self, nodes: usize, byte_div: f64, flop_div: f64) -> ClusterConfig {
        ClusterConfig {
            nodes,
            tasks_per_node: 12,
            mem_per_task: ((10u64 << 30) as f64 / byte_div) as u64,
            net_bandwidth: 125e6 / byte_div,
            compute_bandwidth: 546e9 / flop_div,
            timeout_secs: 12.0 * 3600.0,
            stage_overhead_secs: 0.5,
            partition_bytes: (((128u64 << 20) as f64 / byte_div) as u64).max(1024),
        }
    }

    /// The paper's cluster at this scale, with `nodes` worker nodes. Both
    /// axes of every matrix scale by `s`, so bytes scale by `s²` and matmul
    /// flops by `s³`.
    pub fn cluster(&self, nodes: usize) -> ClusterConfig {
        let s = self.divisor as f64;
        self.cluster_with(nodes, s * s, s * s * s)
    }

    /// The paper's default 8-node cluster at this scale.
    pub fn paper_cluster(&self) -> ClusterConfig {
        self.cluster(8)
    }

    /// Cluster for workloads whose memory pressure comes from *factor*
    /// matrices (`users × k`, GNMF's Fig. 14): one axis scales by `s`, the
    /// factor axis by `s/16`, so bytes scale by `s²/16`. GNMF's flop volume
    /// is a mix of `users·items·k` terms (scale `s³/16`) and `users·k²`
    /// terms (scale `s³/256`); the compute divisor uses their geometric
    /// mean `s³/64` so neither family is grossly over- or under-weighted.
    pub fn factor_cluster(&self, nodes: usize) -> ClusterConfig {
        let s = self.divisor as f64;
        self.cluster_with(nodes, s * s / 16.0, s * s * s / 64.0)
    }

    /// Cluster for workloads where *every* dimension scales gently by
    /// `s/16` (the autoencoder of Fig. 15): bytes scale by `(s/16)²`,
    /// flops by `(s/16)³`.
    pub fn uniform_factor_cluster(&self, nodes: usize) -> ClusterConfig {
        let l = self.divisor as f64 / 16.0;
        self.cluster_with(nodes, l * l, l * l * l)
    }
}

/// One measured data point for the result tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Experiment id (e.g. "fig12a").
    pub experiment: String,
    /// X-axis label (e.g. "500K").
    pub label: String,
    /// Engine / series name.
    pub engine: String,
    /// The measured run.
    pub run: RunSummary,
}

/// Builds an engine of each kind the §6.2/§6.4 comparisons need.
pub fn build_engine(kind: EngineKind, cc: ClusterConfig, partition_bytes: u64) -> Engine {
    match kind {
        EngineKind::FuseMe => Engine::fuseme(cc),
        EngineKind::SystemDsLike => Engine::systemds_like(cc).with_partition_bytes(partition_bytes),
        EngineKind::MatFastLike => Engine::matfast_like(cc),
        EngineKind::DistMeLike => Engine::distme_like(cc),
        EngineKind::TensorFlowLike => Engine::tf_like(cc).with_partition_bytes(partition_bytes),
    }
}

/// Runs one query on a fresh engine through [`measure_with`], classifying
/// failures like the paper's bars ("O.O.M.", "T.O.").
pub fn measure(experiment: &str, engine: &Engine, dag: &QueryDag, binds: &Bindings) -> RunSummary {
    measure_with(experiment, || run_query(engine, dag, binds))
}

/// The body of [`measure`]: resets the engine's clock and ledger, then
/// runs the query.
fn run_query(engine: &Engine, dag: &QueryDag, binds: &Bindings) -> RunSummary {
    engine.reset_metrics();
    match engine.run(dag, binds) {
        Ok(outcome) => RunSummary::completed(engine.kind().name(), &outcome.stats),
        Err(e) => RunSummary::failed(engine.kind().name(), &e),
    }
}

/// The harness's one measurement door: runs `body` (one measured run on a
/// fresh cluster) and writes its wall time into the summary when the run
/// completed.
///
/// When the `FUSEME_TRACE_DIR` environment variable is set, the run is
/// also recorded under one session span, the [`TraceSummary`] is attached
/// to the returned summary, and three files are exported there, named
/// `<experiment>-<NNNN>-<engine>`: `NNNN` is a process-wide sequence
/// number, and characters of the engine name other than letters, digits
/// and `-` become `_`. The files are `.trace.json` (chrome://tracing),
/// `.summary.json` (the summary as JSON) and `.pva.txt` (the
/// predicted-vs-actual report). Export failures are reported to stderr,
/// never panicking a sweep.
pub fn measure_with(experiment: &str, body: impl FnOnce() -> RunSummary) -> RunSummary {
    let dir = std::env::var_os("FUSEME_TRACE_DIR").map(PathBuf::from);
    measure_in(dir.as_deref(), experiment, body)
}

/// [`measure_with`] with the trace directory passed explicitly (`None`
/// records nothing).
fn measure_in(
    trace_dir: Option<&Path>,
    experiment: &str,
    body: impl FnOnce() -> RunSummary,
) -> RunSummary {
    let Some(dir) = trace_dir else {
        return timed(body);
    };
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let rec = Recorder::new();
    obs::install(&rec);
    let span = obs::handle().scope_span(SpanKind::Session, || format!("{experiment}-{seq:04}"));
    let run = timed(body);
    // Every body starts on a fresh cluster clock, so the session covers
    // simulated time from zero to the end of the last recorded span.
    let sim_end = rec
        .spans()
        .iter()
        .map(|s| s.sim_start_secs + s.sim_dur_secs)
        .fold(0.0, f64::max);
    span.set_sim(0.0, sim_end);
    drop(span);
    obs::uninstall();

    let engine: Vec<&str> = run
        .engine
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| !word.is_empty())
        .collect();
    let name = format!("{experiment}-{seq:04}-{}", engine.join("_"));
    let summary = summarize(&rec);
    let write = |suffix: &str, contents: String| {
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{name}.{suffix}")), contents))
        {
            eprintln!("warning: could not write trace {name}.{suffix}: {e}");
        }
    };
    write("trace.json", chrome_trace_json(&rec));
    write(
        "summary.json",
        serde_json::to_string_pretty(&summary).unwrap_or_default(),
    );
    write(
        "pva.txt",
        format!(
            "{}\n{}",
            summary_table(&summary),
            predicted_vs_actual(&summary)
        ),
    );
    run.with_trace(summary)
}

/// Runs `body`, writing its wall time into the summary if it completed.
fn timed(body: impl FnOnce() -> RunSummary) -> RunSummary {
    let wall = Instant::now();
    let mut run = body();
    if run.status == RunStatus::Completed {
        run.wall_secs = wall.elapsed().as_secs_f64();
    }
    run
}

/// Summarizes everything a session has run so far: without an `error`,
/// its cluster's cumulative traffic and simulated clock plus the session's
/// fault and cache counters; with one, the error's failure class. Wall
/// time is left to [`measure_with`].
pub fn session_summary(session: &Session, error: Option<&SessionError>) -> RunSummary {
    let engine = session.engine().kind().name();
    match error {
        None => {
            let cluster = session.engine().cluster();
            let stats = EngineStats {
                comm: cluster.comm(),
                sim_secs: cluster.elapsed_secs(),
                faults: session.fault_stats(),
                cache: session.cache_stats(),
                ..EngineStats::default()
            };
            RunSummary::completed(engine, &stats)
        }
        Some(SessionError::Exec(e)) => RunSummary::failed(engine, e),
        Some(other) => RunSummary::failed(engine, &SimError::Task(other.to_string())),
    }
}

/// The `(root, P, Q, R)` choices of one run, as [`RunSummary::pqr`] lists
/// them.
pub fn pqr_list(stats: &EngineStats) -> Vec<(usize, usize, usize, usize)> {
    stats
        .pqr_choices
        .iter()
        .map(|(root, p)| (*root, p.p, p.q, p.r))
        .collect()
}

/// Formats bytes as the paper's GB figures (decimal).
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

/// Renders a `RunSummary` cell: elapsed seconds, or a failure label.
pub fn time_cell(run: &RunSummary) -> String {
    match run.status {
        RunStatus::Completed => format!("{:.1}", run.sim_secs),
        other => other.label().to_string(),
    }
}

/// Renders a communication cell scaled back to *full-scale-equivalent* GB
/// (measured bytes × the byte divisor, directly comparable to the paper's
/// figures). `byte_div` is the divisor the experiment's cluster used.
pub fn comm_cell_full_div(run: &RunSummary, byte_div: f64) -> String {
    match run.status {
        RunStatus::Completed => format!("{:.1}", gb(run.comm_total()) * byte_div),
        other => other.label().to_string(),
    }
}

/// [`comm_cell_full_div`] with the default `s²` divisor.
pub fn comm_cell_full(run: &RunSummary, scale: Scale) -> String {
    comm_cell_full_div(run, (scale.divisor * scale.divisor) as f64)
}

/// Writes measurements as pretty JSON to `dir/<name>.json`.
pub fn write_json(
    dir: &std::path::Path,
    name: &str,
    measurements: &[Measurement],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(measurements)?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_workloads::gnmf::Gnmf;
    use std::sync::Arc;

    #[test]
    fn scale_validation() {
        assert!(Scale::new(0).is_err());
        assert!(Scale::new(3).is_err());
        assert!(Scale::new(125).is_ok());
        assert_eq!(Scale::new(250).unwrap().block_size(), 4);
    }

    #[test]
    fn grid_shapes_match_paper() {
        let s = Scale::default_scale();
        // n = 750K at block 1000 → I = 750 blocks; ours must match.
        let n = s.dim(750_000);
        assert_eq!(n / s.block_size(), 750);
    }

    #[test]
    fn cluster_constants_scale_consistently() {
        let s = Scale::new(250).unwrap();
        let cc = s.paper_cluster();
        assert_eq!(cc.total_tasks(), 96);
        // θ_t = 10 GiB / s².
        assert_eq!(cc.mem_per_task, (10u64 << 30) / 62_500);
        assert!((cc.net_bandwidth - 125e6 / 62_500.0).abs() < 1.0);
    }

    #[test]
    fn factor_scaling_preserves_ratio() {
        let s = Scale::new(250).unwrap();
        let k200 = s.factor(200);
        let k1000 = s.factor(1000);
        assert_eq!(k1000 / k200, 5);
    }

    /// The files one traced run exported under `dir`, asserting there is
    /// exactly one trace set there; returns the chrome trace's contents.
    fn exported_trace(dir: &Path) -> String {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names.len(), 3, "{names:?}");
        for (name, suffix) in names.iter().zip(["pva.txt", "summary.json", "trace.json"]) {
            assert!(name.ends_with(suffix), "{names:?}");
        }
        std::fs::read_to_string(dir.join(&names[2])).unwrap()
    }

    fn trace_dir(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fuseme-{test}-{}", std::process::id()))
    }

    #[test]
    fn measure_traced_exports_and_reconciles() {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 64 << 20;
        let engine = Engine::fuseme(cc);
        let a = gen::dense_uniform(24, 16, 8, 0.0, 1.0, 1).unwrap();
        let b = gen::dense_uniform(16, 24, 8, 0.0, 1.0, 2).unwrap();
        let mut db = DagBuilder::new();
        let ae = db.input("A", *a.meta());
        let be = db.input("B", *b.meta());
        let mm = db.matmul(ae, be);
        let dag = db.finish(vec![mm]);
        let binds: Bindings = [
            ("A".to_string(), Arc::new(a)),
            ("B".to_string(), Arc::new(b)),
        ]
        .into_iter()
        .collect();

        let dir = trace_dir("trace");
        let run = measure_in(Some(&dir), "t", || run_query(&engine, &dag, &binds));
        assert_eq!(run.status, RunStatus::Completed);
        let trace = run.trace.as_ref().expect("trace attached");
        assert_eq!(trace.total_bytes(), run.comm_total());
        // The chrome trace is non-trivial JSON.
        let chrome = exported_trace(&dir);
        assert!(chrome.starts_with('['));
        assert!(chrome.contains("\"cat\":\"stage\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tiny_gnmf() -> Gnmf {
        Gnmf {
            users: 60,
            items: 40,
            factor: 10,
            block_size: 10,
            density: 0.2,
        }
    }

    fn gnmf_session(mem_per_task: u64) -> Session {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = mem_per_task;
        let mut session = Session::new(Engine::fuseme(cc));
        tiny_gnmf().bind_inputs(&mut session, 42).unwrap();
        session
    }

    #[test]
    fn traced_session_run_exports_and_reconciles() {
        let mut session = gnmf_session(256 << 20);
        let dir = trace_dir("session-trace");
        let run = measure_in(Some(&dir), "gnmf", || {
            let error = tiny_gnmf().run(&mut session, 2).err();
            session_summary(&session, error.as_ref())
        });
        assert_eq!(run.status, RunStatus::Completed);
        assert!(run.wall_secs > 0.0);
        let trace = run.trace.as_ref().expect("trace attached");
        // Both iterations' traffic is in the trace and in the summary.
        assert_eq!(trace.total_bytes(), run.comm_total());
        assert!(!trace.units.is_empty());
        exported_trace(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_failures_become_failed_summaries() {
        // A 1-byte θ_t fails memory admission.
        let mut session = gnmf_session(1);
        let oom = measure_in(None, "oom", || {
            let error = tiny_gnmf().iterate(&mut session).err();
            session_summary(&session, error.as_ref())
        });
        assert_eq!(oom.status, RunStatus::OutOfMemory);
        assert!(oom.wall_secs.is_nan());

        let mut session = gnmf_session(256 << 20);
        let bad = measure_in(None, "bad", || {
            let error = session.run_script("O = missing %*% X\noutput O").err();
            session_summary(&session, error.as_ref())
        });
        assert_eq!(bad.status, RunStatus::Failed);
        assert!(bad.wall_secs.is_nan());
    }

    #[test]
    fn cells_render_failures() {
        let run = RunSummary::failed(
            "SystemDS",
            &SimError::Timeout {
                elapsed: 1e9,
                cap: 1.0,
            },
        );
        assert_eq!(time_cell(&run), "T.O.");
    }
}
