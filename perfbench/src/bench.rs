//! The benchmark protocol for one workload, and the metrics it reports.
//!
//! A run sets the workload up once, runs one untimed warm-up episode, then
//! episodes for `seconds` (the second half traced when `trace` is set), and
//! last re-runs the warm-up's queries on the reference interpreter. The
//! untraced window also times the other [`SETUP_REPS`] − 1 set-ups, spread
//! over it. Every later episode must reproduce the warm-up's output digests
//! bit for bit and its ledger exactly.

use std::time::Instant;

use fuseme::prelude::Recorder;

use crate::layers;
use crate::workload::{Episode, Prepared, Spec};

/// Set-ups timed per run; `setup_s` is their median. The host's speed
/// drifts over seconds, so they are spread over the untraced window rather
/// than run back to back.
pub const SETUP_REPS: usize = 15;

/// Tolerance of the reference check, absolute or relative.
pub const REFERENCE_TOL: f64 = 1e-9;

/// How one run is made.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured seconds; a traced run gives half to untraced and half to
    /// traced episodes.
    pub seconds: f64,
    /// Whether to run traced episodes and report the per-layer metrics.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    pub(crate) fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failed operation or broken accounting law.
    pub problems: Vec<String>,
    /// Output digest of each warm-up operation.
    pub digests: Vec<u64>,
    /// Untraced operations behind `wall_s`.
    pub timed_ops: usize,
    /// Traced operations behind the per-layer metrics.
    pub traced_ops: usize,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Per operation index, the operations that reproduced the warm-up's
    /// digest and so share its reference-check verdict.
    matched: Vec<u64>,
}

impl Report {
    /// Failed operations ÷ attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every operation passed and every accounting law held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Books one episode. Each operation must produce finite outputs and,
    /// given the warm-up episode as `reference`, reproduce its digest bit
    /// for bit; the episode must reproduce its ledger exactly.
    pub fn record(&mut self, ep: &Episode, reference: Option<&Episode>) {
        self.attempted += ep.ops.len() as u64;
        if self.matched.len() < ep.ops.len() {
            self.matched.resize(ep.ops.len(), 0);
        }
        for (j, op) in ep.ops.iter().enumerate() {
            let expected = reference.map_or(op.digest, |r| r.ops[j].digest);
            if !op.finite {
                self.fail(format!("operation {j} produced a non-finite value"));
            } else if op.digest != expected {
                self.fail(format!(
                    "operation {j} digest {:016x} differs from the warm-up's {expected:016x}",
                    op.digest
                ));
            } else {
                self.matched[j] += 1;
            }
        }
        if let Some(r) = reference.filter(|r| r.ledger != ep.ledger) {
            self.problems.push(format!(
                "ledger {:?} differs from the warm-up's {:?}",
                ep.ledger, r.ledger
            ));
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Runs `spec` under the benchmark protocol. Fails only when set-up fails;
/// everything else that goes wrong is booked on the report.
pub fn run(spec: &Spec, opts: &Options) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let prepared = timed_setup(spec, opts.seed, &mut setup_s)?;

    let mut report = Report::default();
    // A process's first operation runs slower, so the warm-up is untimed.
    let Some(first) = attempt(&mut report, &prepared, None) else {
        return Ok(report);
    };
    report.digests = first.ops.iter().map(|op| op.digest).collect();
    // Every episode repeats the warm-up, so the mark now is that of set-up
    // and one episode. It is read before the set-ups spread over the window
    // below add a second copy of the inputs.
    let peak_rss_mb = peak_rss_mb();

    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < window {
        let Some(ep) = attempt(&mut report, &prepared, Some(&first)) else {
            break;
        };
        walls.extend(ep.ops.iter().map(|op| op.wall_s));
        let share = start.elapsed().as_secs_f64() / window;
        let due = (SETUP_REPS as f64 * share).ceil() as usize;
        while setup_s.len() < due.min(SETUP_REPS) {
            drop(timed_setup(spec, opts.seed, &mut setup_s)?);
        }
    }
    while setup_s.len() < SETUP_REPS {
        drop(timed_setup(spec, opts.seed, &mut setup_s)?);
    }
    report.timed_ops = walls.len();
    let wall_s = median(&walls);

    if opts.trace {
        let mut samples = Vec::new();
        let mut traced_walls = Vec::new();
        let start = Instant::now();
        while traced_walls.is_empty() || start.elapsed().as_secs_f64() < window {
            let recorder = Recorder::new();
            fuseme_obs::install(&recorder);
            let ep = attempt(&mut report, &prepared, Some(&first));
            fuseme_obs::uninstall();
            let Some(ep) = ep else {
                break;
            };
            let (sample, problems) = layers::attribute(&recorder, &ep);
            report.problems.extend(problems);
            traced_walls.extend(ep.ops.iter().map(|op| op.wall_s));
            samples.push(sample);
        }
        report.traced_ops = traced_walls.len();
        if let Some((head, rest)) = samples.split_first() {
            for s in rest.iter().filter(|s| s.counts != head.counts) {
                report.problems.push(format!(
                    "traced counts {:?} differ from the first traced episode's {:?}",
                    s.counts, head.counts
                ));
            }
        }
        report.per_layer = layers::metrics(&samples, median(&traced_walls) / wall_s);
    }

    for (j, op) in first.ops.iter().enumerate() {
        let verdict = op
            .queries
            .iter()
            .try_for_each(|q| q.check_reference(REFERENCE_TOL));
        if let Err(e) = verdict {
            // Every operation that reproduced this digest shares the verdict.
            report.failed += report.matched[j];
            report.problems.push(format!("operation {j}: {e}"));
        }
    }

    report.end_to_end = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("sim_s", first.ledger.sim_s, "s"),
        Metric::new("shuffle_bytes", first.ledger.bytes as f64, "B"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let not_finite: Vec<String> = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is not finite", m.name))
        .collect();
    report.problems.extend(not_finite);
    Ok(report)
}

/// Sets `spec` up and books the seconds it took on `times`.
fn timed_setup(spec: &Spec, seed: u64, times: &mut Vec<f64>) -> Result<Prepared, String> {
    let start = Instant::now();
    let prepared = spec.setup(seed)?;
    times.push(start.elapsed().as_secs_f64());
    Ok(prepared)
}

/// Runs and books one episode; an episode that returns an error counts as
/// one failed operation.
fn attempt(
    report: &mut Report,
    prepared: &Prepared,
    reference: Option<&Episode>,
) -> Option<Episode> {
    match prepared.episode() {
        Ok(ep) => {
            report.record(&ep, reference);
            Some(ep)
        }
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("operation failed: {e}"));
            None
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
