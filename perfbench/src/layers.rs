//! Per-layer attribution of traced episodes.
//!
//! Wall time comes from two sources. The benchmark's own timers around the
//! public calls (`Session::compile_script`, `Engine::plan`,
//! `Engine::run_plan`) ride on each [`Op`]. Inside `run_plan`, the
//! exec-unit, stage and task spans that `fuseme-obs` records split the
//! time further. The driver runs the cuboid search inside the exec-unit
//! span, so the search is replayed on its own, outside the recording, to
//! time it; the candidates it evaluated are the driver's own count, read
//! from the exec-unit spans.

use std::collections::HashMap;
use std::time::Instant;

use fuseme::prelude::{ExecUnit, FusionPlan, PartialPlan, QueryDag, Recorder};
use fuseme_fusion::optimizer::optimize_bounded;
use fuseme_fusion::plan::k_splittable;
use fuseme_fusion::{CostModel, SpaceTree};
use fuseme_obs::{keys, SpanKind, SpanRecord};

use crate::bench::Metric;
use crate::workload::{Episode, Op};

/// The deterministic numbers of one traced episode. Every traced episode of
/// a run must repeat them exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Counts {
    units: u64,
    stages: u64,
    tasks: u64,
    search_evals: u64,
    flops: u64,
    peak_task_mem_bytes: u64,
    net_fidelity: f64,
    mem_fidelity: f64,
    cache_hit_ratio: f64,
}

/// One traced episode: seconds per layer summed over its operations, and
/// its counts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    ops: usize,
    wall_s: f64,
    compile_s: f64,
    plan_s: f64,
    search_s: f64,
    run_s: f64,
    unit_self_s: f64,
    stage1_s: f64,
    stage2_s: f64,
    task_busy_s: f64,
    pub(crate) counts: Counts,
}

/// Attributes one traced episode. Also checks the accounting laws: the
/// stage spans carry exactly the ledger's bytes and FLOPs, the span counts
/// match the ledger's stages and the units run, and no exec unit has
/// negative self time. Each broken law comes back as one line.
pub(crate) fn attribute(recorder: &Recorder, ep: &Episode) -> (Sample, Vec<String>) {
    let spans = recorder.spans();
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id.raw(), s)).collect();
    let mut stages_in_unit: HashMap<u64, u64> = HashMap::new();
    let (mut stage1_us, mut stage2_us, mut busy_us) = (0, 0, 0);
    let (mut stages, mut tasks) = (0, 0);
    for span in &spans {
        match span.kind {
            SpanKind::Stage => {
                stages += 1;
                if span.attr(keys::PHASE).and_then(|v| v.as_str()) == Some("aggregation") {
                    stage2_us += span.dur_us;
                } else {
                    stage1_us += span.dur_us;
                }
                if let Some(unit) = enclosing_unit(&by_id, span) {
                    *stages_in_unit.entry(unit).or_default() += span.dur_us;
                }
            }
            SpanKind::Task => {
                tasks += 1;
                busy_us += span.dur_us;
            }
            _ => {}
        }
    }

    let mut problems = Vec::new();
    let (mut units, mut unit_self_us) = (0, 0);
    for unit in spans.iter().filter(|s| s.kind == SpanKind::ExecUnit) {
        units += 1;
        let inner = stages_in_unit.get(&unit.id.raw()).copied().unwrap_or(0);
        match unit.dur_us.checked_sub(inner) {
            Some(own) => unit_self_us += own,
            None => problems.push(format!(
                "{} has negative self time: {inner} µs of stages in {} µs",
                unit.name, unit.dur_us
            )),
        }
    }

    let summary = fuseme_obs::summarize(recorder);
    let ledger = &ep.ledger;
    let laws = [
        (
            "stage-span bytes",
            summary.total_bytes(),
            "ledger bytes",
            ledger.bytes,
        ),
        (
            "stage-span FLOPs",
            summary.flops,
            "ledger FLOPs",
            ledger.flops,
        ),
        ("stage spans", stages, "ledger stages", ledger.stages),
        ("exec-unit spans", units, "units run", ledger.units),
    ];
    for (lhs, l, rhs, r) in laws {
        if l != r {
            problems.push(format!("{lhs} {l} != {rhs} {r}"));
        }
    }

    let search_s = ep
        .ops
        .iter()
        .flat_map(|op| &op.queries)
        .map(|query| replay_search(&query.dag, &query.plan, &ep.model))
        .sum();

    let ratio = |predicted: u64, actual: u64| predicted as f64 / actual as f64;
    let lookups = ledger.cache_hits + ledger.cache_misses;
    let counts = Counts {
        units,
        stages,
        tasks,
        search_evals: summary
            .units
            .iter()
            .filter_map(|u| u.predicted)
            .map(|p| p.evaluated)
            .sum(),
        flops: summary.flops,
        peak_task_mem_bytes: summary.peak_mem_bytes,
        net_fidelity: geo_mean(summary.units.iter().filter_map(|u| {
            u.predicted
                .map(|p| ratio(p.net_bytes, u.actual.total_bytes()))
        })),
        mem_fidelity: geo_mean(summary.units.iter().filter_map(|u| {
            u.predicted
                .map(|p| ratio(p.mem_bytes, u.actual.peak_mem_bytes))
        })),
        cache_hit_ratio: if lookups == 0 {
            0.0
        } else {
            ledger.cache_hits as f64 / lookups as f64
        },
    };
    let total = |f: fn(&Op) -> f64| ep.ops.iter().map(f).sum::<f64>();
    let sample = Sample {
        ops: ep.ops.len(),
        wall_s: total(|op| op.wall_s),
        compile_s: total(|op| op.compile_s),
        plan_s: total(|op| op.plan_s),
        search_s,
        run_s: total(|op| op.run_s),
        unit_self_s: seconds(unit_self_us),
        stage1_s: seconds(stage1_us),
        stage2_s: seconds(stage2_us),
        task_busy_s: seconds(busy_us),
        counts,
    };
    (sample, problems)
}

/// The per-layer metrics of a run's traced episodes: seconds per
/// operation, counts per episode. Empty when no traced episode completed.
pub(crate) fn metrics(samples: &[Sample], trace_overhead: f64) -> Vec<Metric> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    let c = first.counts;
    let sum = |f: fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>();
    let ops = sum(|s| s.ops as f64);
    let per_op = |f: fn(&Sample) -> f64| sum(f) / ops;
    let busy = sum(|s| s.task_busy_s);
    let stage_wall = sum(|s| s.stage1_s + s.stage2_s);
    let flops = sum(|s| s.counts.flops as f64);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let metric = Metric::new;
    vec![
        metric("lang.compile_s", per_op(|s| s.compile_s), "s"),
        metric("fusion.plan_s", per_op(|s| s.plan_s), "s"),
        metric("fusion.search_s", per_op(|s| s.search_s), "s"),
        metric("fusion.search_evals", c.search_evals as f64, "count"),
        metric("fusion.net_fidelity", c.net_fidelity, "ratio"),
        metric("fusion.mem_fidelity", c.mem_fidelity, "ratio"),
        metric("exec.run_s", per_op(|s| s.run_s), "s"),
        metric("exec.units", c.units as f64, "count"),
        metric("exec.unit_self_s", per_op(|s| s.unit_self_s), "s"),
        metric("sim.stage1_s", per_op(|s| s.stage1_s), "s"),
        metric("sim.stage2_s", per_op(|s| s.stage2_s), "s"),
        metric("sim.stages", c.stages as f64, "count"),
        metric("sim.tasks", c.tasks as f64, "count"),
        metric("sim.task_busy_s", per_op(|s| s.task_busy_s), "s"),
        metric("sim.pool_util", busy / (workers * stage_wall), "ratio"),
        metric("sim.peak_task_mem_bytes", c.peak_task_mem_bytes as f64, "B"),
        metric("sim.cache_hit_ratio", c.cache_hit_ratio, "ratio"),
        metric("sim.flops", c.flops as f64, "FLOP"),
        metric("matrix.gflops", flops / busy / 1e9, "GFLOP/s"),
        metric(
            "other_s",
            per_op(|s| s.wall_s - s.compile_s - s.plan_s - s.run_s),
            "s",
        ),
        metric("trace_overhead", trace_overhead, "ratio"),
    ]
}

/// The nearest exec-unit span enclosing `span`.
fn enclosing_unit(by_id: &HashMap<u64, &SpanRecord>, span: &SpanRecord) -> Option<u64> {
    let mut parent = *by_id.get(&span.parent.raw())?;
    while parent.kind != SpanKind::ExecUnit {
        parent = *by_id.get(&parent.parent.raw())?;
    }
    Some(parent.id.raw())
}

/// Replays the driver's cuboid search, `SpaceTree::build` plus
/// `optimize_bounded`, on every unit of `plan` with a main multiplication,
/// and returns its seconds. The replay cannot see the replica cache, so it
/// leaves out the driver's cache-aware pass.
fn replay_search(dag: &QueryDag, plan: &FusionPlan, model: &CostModel) -> f64 {
    let mut secs = 0.0;
    for unit in &plan.units {
        let single;
        let partial = match unit {
            ExecUnit::Fused(p) => p,
            ExecUnit::Single(op) => {
                single = PartialPlan::new([*op].into_iter().collect(), *op);
                &single
            }
        };
        if partial.main_matmul(dag).is_none() {
            continue;
        }
        let start = Instant::now();
        let tree = SpaceTree::build(dag, partial);
        let max_r = if k_splittable(dag, partial) {
            usize::MAX
        } else {
            1
        };
        std::hint::black_box(optimize_bounded(dag, partial, &tree, model, max_r));
        secs += start.elapsed().as_secs_f64();
    }
    secs
}

/// Geometric mean of the finite, positive ratios; 0 when there are none.
fn geo_mean(ratios: impl Iterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = ratios
        .filter(|r| r.is_finite() && *r > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

fn seconds(us: u64) -> f64 {
    us as f64 / 1e6
}
