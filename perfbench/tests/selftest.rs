//! Self-tests of the benchmark on smoke-sized fixtures of each workload.

use fuseme::prelude::AggOp;
use perfbench::bench::{self, Metric, Options, Report};
use perfbench::workload::{Kind, Spec};

/// Every end-to-end metric with its unit, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("shuffle_bytes", "B"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, in report order.
const PER_LAYER: [(&str, &str); 21] = [
    ("lang.compile_s", "s"),
    ("fusion.plan_s", "s"),
    ("fusion.search_s", "s"),
    ("fusion.search_evals", "count"),
    ("fusion.net_fidelity", "ratio"),
    ("fusion.mem_fidelity", "ratio"),
    ("exec.run_s", "s"),
    ("exec.units", "count"),
    ("exec.unit_self_s", "s"),
    ("sim.stage1_s", "s"),
    ("sim.stage2_s", "s"),
    ("sim.stages", "count"),
    ("sim.tasks", "count"),
    ("sim.task_busy_s", "s"),
    ("sim.pool_util", "ratio"),
    ("sim.peak_task_mem_bytes", "B"),
    ("sim.cache_hit_ratio", "ratio"),
    ("sim.flops", "FLOP"),
    ("matrix.gflops", "GFLOP/s"),
    ("other_s", "s"),
    ("trace_overhead", "ratio"),
];

/// The metrics that must repeat exactly for one seed.
const DETERMINISTIC: [&str; 11] = [
    "sim_s",
    "shuffle_bytes",
    "sim.flops",
    "exec.units",
    "sim.stages",
    "sim.tasks",
    "fusion.search_evals",
    "sim.cache_hit_ratio",
    "sim.peak_task_mem_bytes",
    "fusion.net_fidelity",
    "fusion.mem_fidelity",
];

fn smoke_run(kind: Kind, trace: bool) -> Report {
    let opts = Options {
        seed: 7,
        seconds: 0.01,
        trace,
    };
    bench::run(&Spec::smoke(kind), &opts).expect("smoke set-up")
}

fn names(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn bits(report: &Report, name: &str) -> u64 {
    report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not reported"))
        .value
        .to_bits()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let listed = include_str!("../../BENCHMARK.json");
    for kind in Kind::ALL {
        let traced = smoke_run(kind, true);
        assert!(traced.correct(), "{}: {:?}", kind.name(), traced.problems);
        assert_eq!(names(&traced.end_to_end), END_TO_END);
        assert_eq!(names(&traced.per_layer), PER_LAYER);
        for m in traced.end_to_end.iter().chain(&traced.per_layer) {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                kind.name(),
                m.name,
                m.value
            );
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(listed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let untraced = smoke_run(kind, false);
        assert!(
            untraced.correct(),
            "{}: {:?}",
            kind.name(),
            untraced.problems
        );
        assert_eq!(names(&untraced.end_to_end), END_TO_END);
        assert!(untraced.per_layer.is_empty());
    }
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    for kind in Kind::ALL {
        let (a, b) = (smoke_run(kind, true), smoke_run(kind, true));
        assert_eq!(a.digests, b.digests, "{}", kind.name());
        for name in DETERMINISTIC {
            assert_eq!(bits(&a, name), bits(&b, name), "{}: {name}", kind.name());
        }
    }
}

#[test]
fn a_corrupted_digest_raises_the_error_rate() {
    let prepared = Spec::smoke(Kind::NmfCuboid).setup(7).expect("set-up");
    let first = prepared.episode().expect("episode");
    let mut again = prepared.episode().expect("episode");
    let mut report = Report::default();
    report.record(&first, None);
    report.record(&again, Some(&first));
    assert!(report.correct());
    again.ops[0].digest ^= 1;
    report.record(&again, Some(&first));
    assert!(report.error_rate() > 0.0);
    assert!(!report.correct());
}

#[test]
fn guarded_gnmf_stays_finite_for_users_without_ratings() {
    let prepared = Spec::smoke(Kind::GnmfLoop).setup(7).expect("set-up");
    let (_, x) = prepared
        .inputs()
        .iter()
        .find(|(name, _)| name == "X")
        .expect("X is bound");
    let ratings = x.row_agg(AggOp::Sum).expect("row sums").to_dense_vec();
    assert!(
        ratings.contains(&0.0),
        "the fixture needs a user without ratings"
    );
    let episode = prepared.episode().expect("episode");
    assert!(episode.ops.len() >= 2);
    assert!(episode.ops.iter().all(|op| op.finite));
}
