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

use fuseme::prelude::*;
use fuseme_plan::QueryDag;
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

/// Runs one query on a fresh engine, classifying failures like the paper's
/// bars ("O.O.M.", "T.O.").
///
/// When the `FUSEME_TRACE_DIR` environment variable is set, every
/// measurement also records a structured trace and exports it there (see
/// [`measure_traced`]); file names are sequenced `run-NNNN-<engine>`.
pub fn measure(engine: &Engine, dag: &QueryDag, binds: &Bindings) -> RunSummary {
    if let Some(dir) = std::env::var_os("FUSEME_TRACE_DIR") {
        static TRACE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TRACE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("run-{seq:04}-{}", engine.kind().name());
        return measure_traced(engine, dag, binds, std::path::Path::new(&dir), &name);
    }
    measure_inner(engine, dag, binds)
}

fn measure_inner(engine: &Engine, dag: &QueryDag, binds: &Bindings) -> RunSummary {
    engine.reset_metrics();
    match engine.run(dag, binds) {
        Ok(outcome) => RunSummary::completed(engine.kind().name(), &outcome.stats),
        Err(e) => RunSummary::failed(engine.kind().name(), &e),
    }
}

/// [`measure`] with structured tracing: records the run, attaches the
/// [`TraceSummary`] to the returned [`RunSummary`], and exports three files
/// under `dir` — `<name>.trace.json` (chrome://tracing), `<name>.summary.json`
/// (the summary as JSON), and `<name>.pva.txt` (the predicted-vs-actual
/// report). Export failures are reported to stderr, never panicking a
/// benchmark sweep.
pub fn measure_traced(
    engine: &Engine,
    dag: &QueryDag,
    binds: &Bindings,
    dir: &std::path::Path,
    name: &str,
) -> RunSummary {
    let rec = Recorder::new();
    fuseme::obs::install(&rec);
    let span =
        fuseme::obs::handle().scope_span(fuseme::obs::SpanKind::Session, || name.to_string());
    let run = measure_inner(engine, dag, binds);
    // `measure_inner` resets the clock first, so the session span covers
    // simulated time from zero.
    span.set_sim(0.0, engine.cluster().elapsed_secs());
    drop(span);
    fuseme::obs::uninstall();

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

/// Renders a communication cell in GB, or a failure label.
pub fn comm_cell(run: &RunSummary) -> String {
    match run.status {
        RunStatus::Completed => format!("{:.3}", gb(run.comm_total())),
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

        let dir = std::env::temp_dir().join(format!("fuseme-trace-{}", std::process::id()));
        let run = measure_traced(&engine, &dag, &binds, &dir, "t");
        assert_eq!(run.status, RunStatus::Completed);
        let trace = run.trace.as_ref().expect("trace attached");
        assert_eq!(trace.total_bytes(), run.comm_total());
        for suffix in ["trace.json", "summary.json", "pva.txt"] {
            let path = dir.join(format!("t.{suffix}"));
            assert!(path.exists(), "missing {}", path.display());
        }
        // The chrome trace is non-trivial JSON.
        let chrome = std::fs::read_to_string(dir.join("t.trace.json")).unwrap();
        assert!(chrome.starts_with('['));
        assert!(chrome.contains("\"cat\":\"stage\""));
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(comm_cell(&run), "T.O.");
    }
}
