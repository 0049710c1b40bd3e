//! Wave-based parallel stage executor.

use crossbeam::channel;
use fuseme_obs::{events, keys, SpanKind};

use crate::cluster::Cluster;
use crate::ledger::Phase;
use crate::time::{pack_waves, SimClock, TaskCost, WaveSlot};
use crate::SimError;

/// Base backoff before a task's first retry, in simulated seconds; doubles
/// per subsequent retry.
const RETRY_BACKOFF_SECS: f64 = 1.0;
/// Upper bound on a single retry backoff, in simulated seconds.
const RETRY_BACKOFF_CAP_SECS: f64 = 60.0;
/// A task is a straggler when it exceeds this multiple of its wave's
/// median duration (Spark's `spark.speculation.multiplier`).
const SPECULATION_MULTIPLE: f64 = 1.5;

/// Backoff before retry number `retry` (1-based): capped exponential.
fn backoff_secs(retry: u32) -> f64 {
    let doubled = RETRY_BACKOFF_SECS * 2f64.powi(retry.saturating_sub(1) as i32);
    doubled.min(RETRY_BACKOFF_CAP_SECS)
}

/// Trace label for a ledger phase.
pub fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::Consolidation => "consolidation",
        Phase::Aggregation => "aggregation",
    }
}

/// One simulated task: declared resource usage plus the real computation to
/// run. `task_id` orders tasks into scheduling waves; ids are dense within a
/// stage.
pub struct TaskWork<'a, T> {
    /// Dense task index within the stage.
    pub task_id: usize,
    /// Bytes this task receives over the simulated network (charged to the
    /// stage's ledger phase and used for simulated time).
    pub recv_bytes: u64,
    /// Declared peak memory of the task (inputs + outputs + scratch);
    /// checked against the cluster budget θ_t *before* anything runs.
    pub mem_bytes: u64,
    /// Floating-point operations the task will execute (analytic estimate;
    /// used for simulated time).
    pub flops: u64,
    /// The actual computation.
    pub job: Box<dyn FnOnce() -> Result<T, SimError> + Send + 'a>,
}

/// Result of a stage: task outputs in task order plus the stage's simulated
/// duration.
#[derive(Debug)]
pub struct StageOutcome<T> {
    /// Output of each task, indexed by `task_id`.
    pub outputs: Vec<T>,
    /// Simulated seconds this stage took.
    pub sim_secs: f64,
}

/// Runs one stage of tasks against the cluster.
///
/// Order of effects matches a real run's failure modes:
/// 1. memory admission — any task over θ_t aborts with `OutOfMemory`
///    *before* traffic or time is charged (Spark would fail at task start);
/// 2. fault resolution — the cluster's [`crate::FaultPlan`] (if any)
///    decides deterministically which tasks crash (and how many retries
///    they burn) and which straggle; a task whose crashes exhaust the
///    retry budget aborts the stage with [`SimError::TaskLost`] before any
///    accounting, mirroring the admission fail-fast;
/// 3. ledger charge for all `recv_bytes` under `phase`, plus a recharge
///    for every retried attempt and speculative copy (recomputation is not
///    free), with the extra traffic also tracked as wasted work;
/// 4. simulated-time accounting in waves of `N·T_c` slots — straggler
///    slowdowns, retry backoffs, and speculative-copy completions adjust
///    per-task durations — then the timeout check; a timed-out stage never
///    executes its kernels, keeping simulations of hopeless configurations
///    cheap. An injected executor loss surfaces here as
///    [`SimError::ExecutorLost`] *after* charging (the stage's work
///    happened, then died with its executor), and an injected memory skew
///    whose inflated actual peak breaks θ_t surfaces as a *runtime*
///    [`SimError::OutOfMemory`] in the same post-charge position;
/// 5. real execution on a thread pool; outputs are reassembled in task
///    order, so downstream code is deterministic.
pub fn run_stage<'a, T: Send + 'a>(
    cluster: &Cluster,
    phase: Phase,
    mut tasks: Vec<TaskWork<'a, T>>,
) -> Result<StageOutcome<T>, SimError> {
    let config = *cluster.config();
    tasks.sort_by_key(|t| t.task_id);

    let obs = fuseme_obs::handle();
    let stage_id = cluster.next_stage_id();
    let span = obs.scope_span(SpanKind::Stage, || format!("stage-{stage_id}"));
    span.set(keys::STAGE_ID, stage_id);
    span.set(keys::PHASE, phase_label(phase));
    span.set(keys::TASKS, tasks.len() as u64);
    span.set(
        keys::PEAK_MEM,
        tasks.iter().map(|t| t.mem_bytes).max().unwrap_or(0),
    );

    // 1. Memory admission.
    for t in &tasks {
        if t.mem_bytes > config.mem_per_task {
            cluster.fault_ledger().record_mem_admission_reject();
            obs.event(events::MEM_ADMISSION_REJECT, || {
                vec![
                    (keys::STAGE_ID, stage_id.into()),
                    (keys::TASK_ID, (t.task_id as u64).into()),
                    (keys::PEAK_MEM, t.mem_bytes.into()),
                ]
            });
            return Err(SimError::OutOfMemory {
                task: t.task_id,
                needed: t.mem_bytes,
                budget: config.mem_per_task,
                root: None,
                pqr: None,
                site: crate::OomSite::Admission,
            });
        }
    }

    // 2. Fault resolution: crash/retry counts and straggler slowdowns per
    // task, decided deterministically before any accounting.
    let ft = cluster.fault_tolerance();
    let max_retries = ft.max_task_retries();
    let fault_plan = cluster.fault_plan();
    let executor_lost = fault_plan.is_some_and(|p| p.executor_loss(stage_id));
    let (crashes, slowdowns): (Vec<u32>, Vec<f64>) = match fault_plan {
        None => (vec![0; tasks.len()], vec![1.0; tasks.len()]),
        Some(p) => tasks
            .iter()
            .map(|t| {
                let mut c = 0u32;
                while c <= max_retries && p.crashes(stage_id, t.task_id, c) {
                    c += 1;
                }
                (c, p.slowdown(stage_id, t.task_id))
            })
            .unzip(),
    };
    // A task whose crashes exceeded the retry budget is lost — terminal
    // for the stage, fail-fast before charges like an admission failure.
    for (t, &c) in tasks.iter().zip(&crashes) {
        if c > max_retries {
            return Err(SimError::TaskLost {
                stage: stage_id,
                task: t.task_id,
                attempts: c,
            });
        }
    }

    // 3a. Per-task durations: the declared cost under Eq. 2's overlap
    // model, times the straggler slowdown, plus every failed attempt and
    // its capped-exponential backoff serialized on the task's slot.
    let costs: Vec<TaskCost> = tasks
        .iter()
        .map(|t| TaskCost {
            recv_bytes: t.recv_bytes,
            flops: t.flops,
        })
        .collect();
    let net_bps = config.task_net_bandwidth();
    let flops_ps = config.task_compute_bandwidth();
    let base_secs: Vec<f64> = costs
        .iter()
        .map(|c| SimClock::task_secs(c, net_bps, flops_ps))
        .collect();
    let mut task_secs: Vec<f64> = (0..costs.len())
        .map(|i| {
            let eff = base_secs[i] * slowdowns[i];
            let mut total = eff * (crashes[i] as f64 + 1.0);
            for retry in 1..=crashes[i] {
                total += backoff_secs(retry);
            }
            total
        })
        .collect();

    // 3b. Longest-first wave packing of the adjusted durations.
    let waves = pack_waves(&task_secs, config.total_tasks());

    // 3c. Recovery accounting. Retried attempts re-consolidate their
    // inputs and redo their compute; with recovery armed, any task
    // exceeding `SPECULATION_MULTIPLE`× its wave's median gets a copy
    // launched at that threshold, restarting from scratch at declared
    // (un-slowed) speed — the copy is only launched when it finishes
    // before the straggler would, and the superseded original's work is
    // wasted either way.
    let mut extra_bytes = 0u64;
    let mut extra_flops = 0u64;
    let mut wasted_bytes = 0u64;
    let mut wasted_flops = 0u64;
    let mut total_retries = 0u64;
    let mut spec_launches: Vec<usize> = Vec::new();
    for i in 0..costs.len() {
        if crashes[i] > 0 {
            let b = costs[i].recv_bytes * crashes[i] as u64;
            let fl = costs[i].flops * crashes[i] as u64;
            extra_bytes += b;
            extra_flops += fl;
            wasted_bytes += b;
            wasted_flops += fl;
            total_retries += crashes[i] as u64;
        }
    }
    if ft.is_armed() {
        for wave in &waves {
            let mut wave_times: Vec<f64> = wave.iter().map(|&i| task_secs[i]).collect();
            wave_times.sort_by(|a, b| a.total_cmp(b));
            let median = wave_times[wave_times.len() / 2];
            let threshold = median * SPECULATION_MULTIPLE;
            if threshold <= 0.0 {
                continue;
            }
            for &i in wave {
                let spec_finish = threshold + base_secs[i];
                if task_secs[i] > threshold && spec_finish < task_secs[i] {
                    extra_bytes += costs[i].recv_bytes;
                    extra_flops += costs[i].flops;
                    wasted_bytes += costs[i].recv_bytes;
                    wasted_flops += costs[i].flops;
                    task_secs[i] = spec_finish;
                    spec_launches.push(i);
                }
            }
        }
    }

    // 3d. Network + work charges, attributed to this stage so the trace's
    // per-stage byte sums reconcile exactly with the ledger totals —
    // recovery traffic included.
    let total_bytes: u64 = costs.iter().map(|c| c.recv_bytes).sum::<u64>() + extra_bytes;
    let total_flops: u64 = costs.iter().map(|c| c.flops).sum::<u64>() + extra_flops;
    cluster
        .ledger()
        .charge_labeled(phase, stage_id, total_bytes);
    cluster.ledger().charge_flops(total_flops);
    span.set(keys::BYTES, total_bytes);
    span.set(keys::FLOPS, total_flops);
    if total_retries > 0 || !spec_launches.is_empty() {
        let faults = cluster.fault_ledger();
        faults.record_retries(total_retries);
        faults.add_wasted(wasted_bytes, wasted_flops);
        span.set(keys::RETRIES, total_retries);
        span.set(keys::SPECULATIVE, spec_launches.len() as u64);
        span.set(keys::WASTED_BYTES, wasted_bytes);
        span.set(keys::WASTED_FLOPS, wasted_flops);
        for (i, &c) in crashes.iter().enumerate() {
            if c > 0 {
                obs.event(events::TASK_RETRY, || {
                    vec![
                        (keys::STAGE_ID, stage_id.into()),
                        (keys::TASK_ID, (tasks[i].task_id as u64).into()),
                        (keys::ATTEMPTS, (c as u64 + 1).into()),
                        (keys::WASTED_BYTES, (costs[i].recv_bytes * c as u64).into()),
                        (keys::WASTED_FLOPS, (costs[i].flops * c as u64).into()),
                    ]
                });
            }
        }
        for &i in &spec_launches {
            faults.record_speculative_launch();
            obs.event(events::SPECULATIVE_LAUNCH, || {
                vec![
                    (keys::STAGE_ID, stage_id.into()),
                    (keys::TASK_ID, (tasks[i].task_id as u64).into()),
                    (keys::WINNER, "speculative".into()),
                ]
            });
        }
    }

    // 3e. Simulated time + timeout: a wave costs its slowest (adjusted)
    // task; the stage costs the sum of its waves plus the fixed overhead.
    let sim_secs = {
        let mut clock = cluster.clock().lock();
        let sim_before = clock.elapsed_secs();
        clock.advance(config.stage_overhead_secs);
        let waves: Vec<WaveSlot> = waves.iter().map(|w| WaveSlot::new(w, &task_secs)).collect();
        let total_secs: f64 = waves.iter().map(|w| w.secs).sum();
        clock.advance(total_secs);
        let elapsed = clock.elapsed_secs();
        if elapsed > config.timeout_secs {
            return Err(SimError::Timeout {
                elapsed,
                cap: config.timeout_secs,
            });
        }
        let sim_secs = total_secs + config.stage_overhead_secs;
        span.set_sim(sim_before, sim_secs);
        if span.enabled() {
            span.set(keys::WAVES, waves.len() as u64);
            let mut wave_start = sim_before + config.stage_overhead_secs;
            for (w, slot) in waves.iter().enumerate() {
                let wspan = obs.child_span(SpanKind::Wave, span.id(), || format!("wave-{w}"));
                wspan.set(keys::TASKS, slot.tasks as u64);
                wspan.set_sim(wave_start, slot.secs);
                wave_start += slot.secs;
            }
        }
        sim_secs
    };

    // The executor died after the stage's work (charged above) completed
    // but before its outputs could be consumed; the driver may re-run.
    if executor_lost {
        cluster.fault_ledger().record_executor_loss();
        obs.event(events::EXECUTOR_LOST, || {
            vec![(keys::STAGE_ID, stage_id.into())]
        });
        return Err(SimError::ExecutorLost { stage: stage_id });
    }

    // 4. Runtime memory check: an injected skew inflates a task's actual
    // peak above its declared estimate; if the inflated peak breaks θ_t
    // the stage dies *after* its traffic and time were charged — exactly
    // the failure the admission check cannot catch. The driver's
    // memory-pressure ladder may recover by re-planning.
    if let Some(p) = fault_plan {
        for t in &tasks {
            let skew = p.mem_skew(stage_id, t.task_id);
            if skew <= 1.0 {
                continue;
            }
            let actual = (t.mem_bytes as f64 * skew) as u64;
            if actual > config.mem_per_task {
                return Err(SimError::OutOfMemory {
                    task: t.task_id,
                    needed: actual,
                    budget: config.mem_per_task,
                    root: None,
                    pqr: None,
                    site: crate::OomSite::Runtime,
                });
            }
        }
    }

    // 5. Real execution.
    let n = tasks.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    let (job_tx, job_rx) = channel::unbounded();
    let traced = span.enabled();
    let stage_span = span.id();
    for (idx, t) in tasks.into_iter().enumerate() {
        // Workers can't see this thread's scope stack, so task spans get
        // their parent passed explicitly — and only when tracing is on.
        let job = if traced {
            let obs = obs.clone();
            let task_id = t.task_id;
            let inner = t.job;
            Box::new(move || {
                let tspan =
                    obs.child_span(SpanKind::Task, stage_span, || format!("task-{task_id}"));
                tspan.set(keys::TASK_ID, task_id as u64);
                inner()
            }) as Box<dyn FnOnce() -> Result<T, SimError> + Send + 'a>
        } else {
            t.job
        };
        if job_tx.send((idx, job)).is_err() {
            return Err(SimError::Task("stage task queue disconnected".into()));
        }
    }
    drop(job_tx);

    let mut outputs: Vec<Option<T>> = Vec::with_capacity(n);
    outputs.resize_with(n, || None);
    // Keyed by task index, not arrival order: with several failing tasks,
    // worker scheduling must not leak into which error the stage reports —
    // repeated runs with an identical seeded fault plan surface the same
    // failure summary byte for byte.
    let mut first_err: Option<(usize, SimError)> = None;
    crossbeam::thread::scope(|s| {
        let (res_tx, res_rx) = channel::unbounded();
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            s.spawn(move |_| {
                while let Ok((idx, job)) = job_rx.recv() {
                    let result = job();
                    if res_tx.send((idx, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
        while let Ok((idx, result)) = res_rx.recv() {
            match result {
                Ok(v) => outputs[idx] = Some(v),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(i, _)| idx < *i) {
                        first_err = Some((idx, e));
                    }
                }
            }
        }
    })
    .map_err(|_| SimError::Task("worker thread panicked".into()))?;

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let outputs = outputs
        .into_iter()
        .map(|o| o.ok_or_else(|| SimError::Task("task produced no output".into())))
        .collect::<Result<Vec<T>, SimError>>()?;
    Ok(StageOutcome { outputs, sim_secs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn work(id: usize, bytes: u64, mem: u64, out: i32) -> TaskWork<'static, i32> {
        TaskWork {
            task_id: id,
            recv_bytes: bytes,
            mem_bytes: mem,
            flops: 0,
            job: Box::new(move || Ok(out)),
        }
    }

    #[test]
    fn outputs_in_task_order() {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let tasks = (0..16).rev().map(|i| work(i, 1, 1, i as i32)).collect();
        let out = run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
        assert_eq!(out.outputs, (0..16).collect::<Vec<i32>>());
    }

    #[test]
    fn ledger_charged_total() {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let tasks = (0..4).map(|i| work(i, 100, 1, 0)).collect();
        run_stage(&cluster, Phase::Aggregation, tasks).unwrap();
        assert_eq!(cluster.comm().aggregation_bytes, 400);
        assert_eq!(cluster.comm().consolidation_bytes, 0);
    }

    #[test]
    fn oom_rejected_before_execution() {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let budget = cluster.config().mem_per_task;
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&ran);
        let tasks = vec![TaskWork::<i32> {
            task_id: 0,
            recv_bytes: 5,
            mem_bytes: budget + 1,
            flops: 0,
            job: Box::new(move || {
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
                Ok(0)
            }),
        }];
        let err = run_stage(&cluster, Phase::Consolidation, tasks).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { needed, .. } if needed == budget + 1));
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst));
        // No traffic charged for an admission-failed stage.
        assert_eq!(cluster.comm().total(), 0);
    }

    #[test]
    fn timeout_detected() {
        let mut cfg = ClusterConfig::test_small();
        cfg.timeout_secs = 1.0;
        cfg.net_bandwidth = 1.0; // 1 byte/sec per node
        let cluster = Cluster::new(cfg);
        let err = run_stage(&cluster, Phase::Consolidation, vec![work(0, 1000, 1, 0)]).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }));
    }

    #[test]
    fn two_failure_stage_reports_lowest_task_deterministically() {
        // Two failing tasks with distinct messages; the lower-index failure
        // sleeps so its error *arrives* last. Whatever the worker
        // scheduling, every run must surface the same (lowest-index)
        // failure summary, byte for byte.
        let run_once = || {
            let cluster = Cluster::new(ClusterConfig::test_small());
            let tasks: Vec<TaskWork<'static, i32>> = (0..8)
                .map(|i| TaskWork {
                    task_id: i,
                    recv_bytes: 1,
                    mem_bytes: 1,
                    flops: 0,
                    job: Box::new(move || match i {
                        1 => {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Err(SimError::Task("task 1 exploded".into()))
                        }
                        6 => Err(SimError::Task("task 6 exploded".into())),
                        _ => Ok(i as i32),
                    }),
                })
                .collect();
            let err = run_stage(&cluster, Phase::Consolidation, tasks).unwrap_err();
            format!("{err:?}")
        };
        let summaries: std::collections::BTreeSet<String> = (0..6).map(|_| run_once()).collect();
        assert_eq!(
            summaries.len(),
            1,
            "failure summary varies across runs: {summaries:?}"
        );
        let summary = summaries.into_iter().next().unwrap();
        assert!(
            summary.contains("task 1"),
            "must report the lowest task index's error, got {summary}"
        );
    }

    #[test]
    fn task_error_propagates() {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let tasks = vec![
            work(0, 0, 0, 1),
            TaskWork {
                task_id: 1,
                recv_bytes: 0,
                mem_bytes: 0,
                flops: 0,
                job: Box::new(|| Err(SimError::Task("kernel exploded".into()))),
            },
        ];
        let err = run_stage(&cluster, Phase::Consolidation, tasks).unwrap_err();
        assert!(matches!(err, SimError::Task(_)));
    }

    #[test]
    fn sim_time_advances_with_waves() {
        let mut cfg = ClusterConfig::test_small();
        cfg.nodes = 1;
        cfg.tasks_per_node = 2; // 2 slots
        cfg.net_bandwidth = 100.0;
        cfg.compute_bandwidth = 1e12;
        let cluster = Cluster::new(cfg);
        // 4 tasks, 100 bytes each, per-task bw = 50 B/s → each task 2s;
        // 2 waves → 4s.
        let tasks = (0..4).map(|i| work(i, 100, 1, 0)).collect();
        let out = run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
        assert!((out.sim_secs - 4.0).abs() < 1e-9);
        assert!((cluster.elapsed_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stage_spans_reconcile_with_ledger() {
        let mut cfg = ClusterConfig::test_small();
        cfg.nodes = 1;
        cfg.tasks_per_node = 2;
        let cluster = Cluster::new(cfg);
        let rec = fuseme_obs::Recorder::new();
        fuseme_obs::install(&rec);
        let tasks = (0..4).map(|i| work(i, 100, 1, 0)).collect();
        run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
        let tasks = (0..2).map(|i| work(i, 25, 1, 0)).collect();
        run_stage(&cluster, Phase::Aggregation, tasks).unwrap();
        fuseme_obs::uninstall();

        let summary = fuseme_obs::summarize(&rec);
        let comm = cluster.comm();
        assert_eq!(summary.consolidation_bytes, comm.consolidation_bytes);
        assert_eq!(summary.aggregation_bytes, comm.aggregation_bytes);
        assert_eq!(summary.total_bytes(), 450);

        let spans = rec.spans();
        let stages: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Stage).collect();
        assert_eq!(stages.len(), 2);
        // Waves and tasks hang off their stage spans.
        let waves = spans.iter().filter(|s| s.kind == SpanKind::Wave).count();
        assert_eq!(waves, 2 + 1); // 4 tasks / 2 slots, then 2 tasks / 2 slots
        let task_spans: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Task).collect();
        assert_eq!(task_spans.len(), 6);
        for t in task_spans {
            assert!(stages.iter().any(|s| s.id == t.parent));
        }
        // The per-stage ledger breakdown matches the span attribution.
        let by_stage = cluster.ledger().stage_breakdown();
        for s in stages {
            let id = s.attr(keys::STAGE_ID).and_then(|v| v.as_u64()).unwrap();
            let bytes = s.attr(keys::BYTES).and_then(|v| v.as_u64()).unwrap();
            assert_eq!(by_stage[&id].total(), bytes);
        }
    }

    #[test]
    fn untraced_stage_records_nothing() {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let tasks = (0..2).map(|i| work(i, 10, 1, 0)).collect();
        run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
        // No recorder installed: totals still accumulate, including the
        // per-stage breakdown used for reconciliation.
        assert_eq!(cluster.comm().consolidation_bytes, 20);
        assert_eq!(cluster.ledger().stage_breakdown().len(), 1);
    }

    #[test]
    fn crashed_task_succeeds_on_retry_and_charges_twice() {
        let mut cluster = Cluster::new(ClusterConfig::test_small());
        cluster.set_fault_plan(Some(crate::FaultPlan::new(1).with_crash_at(0, 0)));
        cluster.set_fault_tolerance(crate::FaultToleranceConfig::Armed {
            max_task_retries: 1,
        });
        let tasks = vec![work(0, 100, 1, 7)];
        let out = run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
        // The retry recomputed the real kernel result…
        assert_eq!(out.outputs, vec![7]);
        // …recharged the ledger (consolidation happens again)…
        assert_eq!(cluster.comm().consolidation_bytes, 200);
        // …extended simulated time by the backoff plus the redone attempt…
        assert!(out.sim_secs > 1.0, "backoff must show up: {}", out.sim_secs);
        // …and booked the failed attempt as wasted work.
        let fs = cluster.fault_stats();
        assert_eq!(fs.retries, 1);
        assert_eq!(fs.wasted_bytes, 100);
    }

    #[test]
    fn retries_exhausted_is_task_lost_before_charges() {
        let mut cluster = Cluster::new(ClusterConfig::test_small());
        cluster.set_fault_plan(Some(crate::FaultPlan::new(1).with_crash_at(0, 0)));
        // Fault tolerance off: the first crash is terminal.
        let err = run_stage(&cluster, Phase::Consolidation, vec![work(0, 100, 1, 0)]).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::TaskLost {
                    stage: 0,
                    task: 0,
                    attempts: 1
                }
            ),
            "{err:?}"
        );
        assert_eq!(cluster.comm().total(), 0);
    }

    #[test]
    fn rate_crashes_with_retry_budget_still_complete() {
        let mut cluster = Cluster::new(ClusterConfig::test_small());
        cluster.set_fault_plan(Some(crate::FaultPlan::new(42).with_crash_rate(0.3)));
        cluster.set_fault_tolerance(crate::FaultToleranceConfig::Armed {
            max_task_retries: 8,
        });
        let tasks = (0..64).map(|i| work(i, 10, 1, i as i32)).collect();
        let out = run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
        assert_eq!(out.outputs, (0..64).collect::<Vec<i32>>());
        let fs = cluster.fault_stats();
        assert!(fs.retries > 0, "a 30% crash rate must hit some of 64 tasks");
        // Every retry and every speculative copy (armed recovery races
        // tasks that retries slowed down) recharged exactly one task's
        // bytes.
        let recharged = fs.retries + fs.speculative_launches;
        assert_eq!(cluster.comm().total(), 640 + 10 * recharged);
        assert_eq!(fs.wasted_bytes, 10 * recharged);
    }

    #[test]
    fn speculative_copy_beats_straggler_and_shrinks_sim_time() {
        let mut cfg = ClusterConfig::test_small();
        cfg.nodes = 1;
        cfg.tasks_per_node = 4;
        cfg.net_bandwidth = 100.0; // per-task 25 B/s → 100-byte task = 4 s
        cfg.compute_bandwidth = 1e12;
        let straggle = |ft: crate::FaultToleranceConfig| {
            let mut cluster = Cluster::new(cfg);
            cluster.set_fault_plan(Some(crate::FaultPlan::new(9).with_straggler_at(0, 3, 10.0)));
            cluster.set_fault_tolerance(ft);
            let tasks = (0..4).map(|i| work(i, 100, 1, 0)).collect();
            let out = run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
            (out.sim_secs, cluster.comm().total(), cluster.fault_stats())
        };
        let (slow_secs, slow_bytes, slow_fs) = straggle(crate::FaultToleranceConfig::Off);
        let (spec_secs, spec_bytes, spec_fs) = straggle(crate::FaultToleranceConfig::resilient());
        // Unmitigated straggler: the wave costs the 10×-slowed task.
        assert!((slow_secs - 40.0).abs() < 1e-9, "{slow_secs}");
        assert_eq!(slow_fs.speculative_launches, 0);
        assert_eq!(slow_bytes, 400);
        // Speculation: copy launches at 1.5× the 4 s median and finishes at
        // 6 + 4 = 10 s, well before the straggler's 40 s.
        assert!((spec_secs - 10.0).abs() < 1e-9, "{spec_secs}");
        assert!(spec_secs < slow_secs);
        assert_eq!(spec_fs.speculative_launches, 1);
        // The copy's consolidation is real traffic and the superseded
        // original is wasted work.
        assert_eq!(spec_bytes, 500);
        assert_eq!(spec_fs.wasted_bytes, 100);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        assert_eq!(backoff_secs(1), 1.0);
        assert_eq!(backoff_secs(2), 2.0);
        assert_eq!(backoff_secs(6), 32.0);
        assert_eq!(backoff_secs(7), 60.0); // capped
        assert_eq!(backoff_secs(10), 60.0);
    }

    #[test]
    fn admission_reject_is_counted() {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let budget = cluster.config().mem_per_task;
        let err = run_stage(
            &cluster,
            Phase::Consolidation,
            vec![work(0, 5, budget + 1, 0)],
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::OutOfMemory {
                    site: crate::OomSite::Admission,
                    root: None,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(cluster.fault_stats().mem_admission_rejects, 1);
    }

    #[test]
    fn mem_skew_surfaces_runtime_oom_after_charges() {
        let mut cluster = Cluster::new(ClusterConfig::test_small());
        let budget = cluster.config().mem_per_task;
        cluster.set_fault_plan(Some(crate::FaultPlan::new(4).with_mem_skew_at(0, 0, 4.0)));
        // Declared peak passes admission; the 4× actual peak does not.
        let err = run_stage(
            &cluster,
            Phase::Consolidation,
            vec![work(0, 100, budget / 2, 0)],
        )
        .unwrap_err();
        match err {
            SimError::OutOfMemory {
                task,
                needed,
                budget: b,
                site,
                ..
            } => {
                assert_eq!(task, 0);
                assert_eq!(site, crate::OomSite::Runtime);
                assert_eq!(needed, budget * 2);
                assert_eq!(b, budget);
            }
            other => panic!("expected runtime OOM, got {other:?}"),
        }
        // The stage's traffic was charged before the task blew up.
        assert_eq!(cluster.comm().total(), 100);
        assert_eq!(cluster.fault_stats().mem_admission_rejects, 0);
        // A fresh (re-planned) stage id escapes the targeted skew.
        let out = run_stage(
            &cluster,
            Phase::Consolidation,
            vec![work(0, 100, budget / 2, 5)],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![5]);
    }

    #[test]
    fn mem_skew_within_budget_is_harmless() {
        let mut cluster = Cluster::new(ClusterConfig::test_small());
        let budget = cluster.config().mem_per_task;
        cluster.set_fault_plan(Some(crate::FaultPlan::new(4).with_mem_skew_at(0, 0, 2.0)));
        // 2× a quarter-budget peak still fits under θ_t.
        let out = run_stage(
            &cluster,
            Phase::Consolidation,
            vec![work(0, 100, budget / 4, 9)],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![9]);
    }

    #[test]
    fn executor_loss_surfaces_after_charges() {
        let mut cluster = Cluster::new(ClusterConfig::test_small());
        cluster.set_fault_plan(Some(crate::FaultPlan::new(2).with_executor_loss_at(0)));
        let err = run_stage(&cluster, Phase::Consolidation, vec![work(0, 100, 1, 0)]).unwrap_err();
        assert!(
            matches!(err, SimError::ExecutorLost { stage: 0 }),
            "{err:?}"
        );
        // The stage's work happened before the executor died.
        assert_eq!(cluster.comm().total(), 100);
        assert_eq!(cluster.fault_stats().executor_losses, 1);
        // The next stage id is fresh, so a targeted loss never re-fires.
        let out = run_stage(&cluster, Phase::Consolidation, vec![work(0, 100, 1, 5)]).unwrap();
        assert_eq!(out.outputs, vec![5]);
    }

    #[test]
    fn fault_free_cluster_behaves_like_seed_scheduler() {
        // Same scenario as `sim_time_advances_with_waves`, but with a
        // fault plan installed that targets a different stage and the
        // resilient recovery posture on: durations, charges, and wave
        // decomposition must be identical to the fault-free run.
        let mut cfg = ClusterConfig::test_small();
        cfg.nodes = 1;
        cfg.tasks_per_node = 2;
        cfg.net_bandwidth = 100.0;
        cfg.compute_bandwidth = 1e12;
        let plain = Cluster::new(cfg);
        let plain_out = run_stage(
            &plain,
            Phase::Consolidation,
            (0..4).map(|i| work(i, 100, 1, 0)).collect(),
        )
        .unwrap();
        let mut faulty = Cluster::new(cfg);
        faulty.set_fault_plan(Some(crate::FaultPlan::new(3).with_crash_at(999, 0)));
        faulty.set_fault_tolerance(crate::FaultToleranceConfig::resilient());
        let faulty_out = run_stage(
            &faulty,
            Phase::Consolidation,
            (0..4).map(|i| work(i, 100, 1, 0)).collect(),
        )
        .unwrap();
        assert_eq!(plain_out.sim_secs, faulty_out.sim_secs);
        assert_eq!(plain.comm(), faulty.comm());
        assert!(!faulty.fault_stats().any());
    }

    #[test]
    fn real_parallel_execution_happens() {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let tasks: Vec<TaskWork<usize>> = (0..32)
            .map(|i| {
                let c = std::sync::Arc::clone(&counter);
                TaskWork {
                    task_id: i,
                    recv_bytes: 0,
                    mem_bytes: 0,
                    flops: 0,
                    job: Box::new(move || Ok(c.fetch_add(1, std::sync::atomic::Ordering::SeqCst))),
                }
            })
            .collect();
        run_stage(&cluster, Phase::Consolidation, tasks).unwrap();
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 32);
    }
}
