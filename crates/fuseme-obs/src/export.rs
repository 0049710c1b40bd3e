//! Trace exporters: chrome://tracing JSON and the per-run summary.
//!
//! # Chrome trace format
//!
//! [`chrome_trace_json`] emits the JSON-array form of the Trace Event
//! Format, loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//! Two process tracks are written:
//!
//! * **pid 1 — wall clock**: every span except waves, with real measured
//!   timestamps/durations in microseconds; task spans get their own
//!   thread lanes so overlapping workers render side by side;
//! * **pid 2 — simulated clock**: session/plan/exec-unit/stage/wave spans
//!   positioned on the simulator's clock (1 simulated second = 1 second of
//!   trace time), which is where wave scheduling is visible.
//!
//! Recorder events appear as instant events on the wall track. Span
//! attributes are exported under `args`.
//!
//! # Summary
//!
//! [`summarize`] folds a recording into a [`TraceSummary`]: per-kind span
//! statistics, per-phase byte totals (summed from stage spans, so they
//! reconcile exactly with the ledger's `CommStats` when every charge is
//! stage-attributed), and one [`UnitTrace`] per exec-unit combining the
//! optimizer's predictions with the simulated actuals of the unit's stages.
//! [`predicted_vs_actual`] renders that comparison as a text table.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{keys, Recorder, SpanKind, SpanRecord, Value};

/// Aggregate statistics for one span kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KindStat {
    /// Span kind label ("stage", "wave", …).
    pub kind: String,
    /// Number of spans recorded.
    pub count: usize,
    /// Total wall-clock microseconds (parents include children).
    pub wall_us: u64,
    /// Total simulated seconds (parents include children).
    pub sim_secs: f64,
}

/// The optimizer's predicted costs for one exec-unit.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Prediction {
    /// `NetEst` in bytes.
    pub net_bytes: u64,
    /// `MemEst` in bytes.
    pub mem_bytes: u64,
    /// `ComEst` in FLOPs.
    pub com_flops: u64,
    /// Objective value (Eq. 2) at the chosen point.
    pub cost: f64,
    /// `(P,Q,R)` candidates evaluated by the search.
    pub evaluated: u64,
    /// Whether the search found a feasible point.
    pub feasible: bool,
}

/// Simulated actuals of one exec-unit, aggregated over its stages.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ActualCost {
    /// Bytes charged to the consolidation phase.
    pub consolidation_bytes: u64,
    /// Bytes charged to the aggregation phase.
    pub aggregation_bytes: u64,
    /// Declared FLOPs across stages.
    pub flops: u64,
    /// Peak declared per-task memory, in bytes.
    pub peak_mem_bytes: u64,
    /// Simulated seconds (including stage overheads).
    pub sim_secs: f64,
    /// Wall-clock microseconds.
    pub wall_us: u64,
}

impl ActualCost {
    /// Total bytes across both phases.
    pub fn total_bytes(&self) -> u64 {
        self.consolidation_bytes + self.aggregation_bytes
    }
}

/// Predicted-vs-actual record for one executed exec-unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitTrace {
    /// Span name ("unit-0", …).
    pub name: String,
    /// Root DAG node of the unit.
    pub root: u64,
    /// Physical strategy label (CFO / BFO / RFO / cell).
    pub strategy: String,
    /// Chosen `(P,Q,R)` for cuboid units.
    pub pqr: Option<(u64, u64, u64)>,
    /// Optimizer predictions, when a search ran for this unit.
    pub predicted: Option<Prediction>,
    /// Simulated actuals.
    pub actual: ActualCost,
}

/// Recovery activity visible in a trace: retry/speculation counters summed
/// over stage spans plus stage re-runs and executor losses counted from
/// their point events. Wasted totals include both in-stage waste (retries,
/// losing speculative copies) and the abandoned attempts behind stage
/// re-runs, so they reconcile with the simulator's `FaultStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTrace {
    /// Task attempts that failed and were retried.
    pub retries: u64,
    /// Speculative copies launched.
    pub speculative_launches: u64,
    /// Executors lost.
    pub executor_losses: u64,
    /// Driver-side unit re-runs after executor loss.
    pub stage_reruns: u64,
    /// Stages (or fused-unit pre-checks) rejected by memory admission.
    pub mem_admission_rejects: u64,
    /// Tightened-budget re-plans attempted by the memory-pressure ladder.
    pub replans: u64,
    /// Fused plans split in two by the memory-pressure ladder.
    pub plan_splits: u64,
    /// Fused units degraded to unfused per-operator execution.
    pub unfused_fallbacks: u64,
    /// Bytes charged that a fault-free run would not have charged.
    pub wasted_bytes: u64,
    /// FLOPs executed that a fault-free run would not have executed.
    pub wasted_flops: u64,
}

impl FaultTrace {
    /// Whether any recovery activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultTrace::default()
    }
}

/// Replica-cache activity visible in a trace, counted from the executor's
/// cache point events. `saved_bytes` is the consolidation traffic the hits
/// avoided; it reconciles with the simulator's `CacheStats::saved_bytes`
/// when one recording covers the cache's whole lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheTrace {
    /// Consolidation shuffles skipped because valid replicas were resident.
    pub hits: u64,
    /// Consolidation shuffles charged (and the replica set admitted).
    pub misses: u64,
    /// Replica sets dropped by the LRU to fit the byte budget.
    pub evictions: u64,
    /// Replica sets dropped by a matrix version bump (driver write).
    pub invalidations: u64,
    /// Network bytes the hits avoided charging.
    pub saved_bytes: u64,
}

impl CacheTrace {
    /// Whether any cache activity was recorded.
    pub fn any(&self) -> bool {
        *self != CacheTrace::default()
    }
}

/// Compact per-run summary of a recording.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Span statistics per kind (kinds with zero spans are omitted).
    pub by_kind: Vec<KindStat>,
    /// Consolidation bytes summed over stage spans.
    pub consolidation_bytes: u64,
    /// Aggregation bytes summed over stage spans.
    pub aggregation_bytes: u64,
    /// Declared FLOPs summed over stage spans.
    pub flops: u64,
    /// Peak declared per-task memory over all stage spans, in bytes.
    pub peak_mem_bytes: u64,
    /// Per-exec-unit predicted-vs-actual records.
    pub units: Vec<UnitTrace>,
    /// Number of recorded point events.
    pub events: usize,
    /// Recovery activity, when the recording saw any. Absent — and
    /// omitted-tolerant on deserialize — for fault-free recordings, so
    /// pre-fault-tolerance summaries still parse.
    pub faults: Option<FaultTrace>,
    /// Replica-cache activity, when the recording saw any. Absent — and
    /// omitted-tolerant on deserialize — for cache-off (or cache-idle)
    /// recordings, so pre-cache summaries still parse.
    pub cache: Option<CacheTrace>,
}

impl TraceSummary {
    /// Total bytes across both phases (reconciles with `CommStats::total`).
    pub fn total_bytes(&self) -> u64 {
        self.consolidation_bytes + self.aggregation_bytes
    }
}

fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attr(key).and_then(|v| v.as_u64())
}

fn attr_f64(span: &SpanRecord, key: &str) -> Option<f64> {
    span.attr(key).and_then(|v| v.as_f64())
}

fn attr_str<'s>(span: &'s SpanRecord, key: &str) -> Option<&'s str> {
    span.attr(key).and_then(|v| v.as_str())
}

/// Folds a recording into its per-run summary.
pub fn summarize(rec: &Recorder) -> TraceSummary {
    let spans = rec.spans();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (idx, s) in spans.iter().enumerate() {
        children.entry(s.parent.raw()).or_default().push(idx);
    }

    let mut by_kind = Vec::new();
    for kind in SpanKind::ALL {
        let of_kind: Vec<&SpanRecord> = spans.iter().filter(|s| s.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        by_kind.push(KindStat {
            kind: kind.label().to_string(),
            count: of_kind.len(),
            wall_us: of_kind.iter().map(|s| s.dur_us).sum(),
            sim_secs: of_kind.iter().map(|s| s.sim_dur_secs).sum(),
        });
    }

    let stage_cost = |stage: &SpanRecord| -> ActualCost {
        let bytes = attr_u64(stage, keys::BYTES).unwrap_or(0);
        let aggregation = attr_str(stage, keys::PHASE) == Some("aggregation");
        ActualCost {
            consolidation_bytes: if aggregation { 0 } else { bytes },
            aggregation_bytes: if aggregation { bytes } else { 0 },
            flops: attr_u64(stage, keys::FLOPS).unwrap_or(0),
            peak_mem_bytes: attr_u64(stage, keys::PEAK_MEM).unwrap_or(0),
            sim_secs: stage.sim_dur_secs,
            wall_us: stage.dur_us,
        }
    };
    let fold = |acc: &mut ActualCost, c: ActualCost| {
        acc.consolidation_bytes += c.consolidation_bytes;
        acc.aggregation_bytes += c.aggregation_bytes;
        acc.flops += c.flops;
        acc.peak_mem_bytes = acc.peak_mem_bytes.max(c.peak_mem_bytes);
        acc.sim_secs += c.sim_secs;
        acc.wall_us += c.wall_us;
    };

    let mut totals = ActualCost::default();
    let mut faults = FaultTrace::default();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Stage) {
        fold(&mut totals, stage_cost(s));
        faults.retries += attr_u64(s, keys::RETRIES).unwrap_or(0);
        faults.speculative_launches += attr_u64(s, keys::SPECULATIVE).unwrap_or(0);
        faults.wasted_bytes += attr_u64(s, keys::WASTED_BYTES).unwrap_or(0);
        faults.wasted_flops += attr_u64(s, keys::WASTED_FLOPS).unwrap_or(0);
    }
    let event_attr = |ev: &crate::EventRecord, key: &str| -> u64 {
        ev.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    };
    let recorded_events = rec.events();
    let mut cache = CacheTrace::default();
    for ev in &recorded_events {
        match ev.name.as_str() {
            crate::events::CACHE_HIT => {
                cache.hits += 1;
                cache.saved_bytes += event_attr(ev, keys::SAVED_BYTES);
            }
            crate::events::CACHE_MISS => cache.misses += 1,
            crate::events::CACHE_EVICT => {
                cache.evictions += event_attr(ev, keys::EVICTIONS).max(1);
            }
            crate::events::CACHE_INVALIDATE => cache.invalidations += 1,
            _ => {}
        }
        match ev.name.as_str() {
            crate::events::EXECUTOR_LOST => faults.executor_losses += 1,
            crate::events::STAGE_RERUN => {
                faults.stage_reruns += 1;
                // The abandoned attempt's charges, reported on the re-run
                // event by the driver (already net of in-stage waste the
                // stage spans above carry).
                faults.wasted_bytes += event_attr(ev, keys::WASTED_BYTES);
                faults.wasted_flops += event_attr(ev, keys::WASTED_FLOPS);
            }
            crate::events::MEM_ADMISSION_REJECT => faults.mem_admission_rejects += 1,
            // Ladder events carry the failed attempt's (net) waste, same
            // convention as stage re-runs.
            crate::events::REPLAN => {
                faults.replans += 1;
                faults.wasted_bytes += event_attr(ev, keys::WASTED_BYTES);
                faults.wasted_flops += event_attr(ev, keys::WASTED_FLOPS);
            }
            crate::events::PLAN_SPLIT => {
                faults.plan_splits += 1;
                faults.wasted_bytes += event_attr(ev, keys::WASTED_BYTES);
                faults.wasted_flops += event_attr(ev, keys::WASTED_FLOPS);
            }
            crate::events::UNFUSED_FALLBACK => {
                faults.unfused_fallbacks += 1;
                faults.wasted_bytes += event_attr(ev, keys::WASTED_BYTES);
                faults.wasted_flops += event_attr(ev, keys::WASTED_FLOPS);
            }
            _ => {}
        }
    }

    // Per-unit actuals: every stage span in the unit's subtree.
    let descendant_stages = |unit_idx: usize| -> ActualCost {
        let mut acc = ActualCost::default();
        let mut stack = vec![spans[unit_idx].id.raw()];
        while let Some(id) = stack.pop() {
            for &child in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                let s = &spans[child];
                if s.kind == SpanKind::Stage {
                    fold(&mut acc, stage_cost(s));
                }
                stack.push(s.id.raw());
            }
        }
        acc
    };

    let mut units = Vec::new();
    for (idx, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::ExecUnit {
            continue;
        }
        let pqr = match (
            attr_u64(s, keys::P),
            attr_u64(s, keys::Q),
            attr_u64(s, keys::R),
        ) {
            (Some(p), Some(q), Some(r)) => Some((p, q, r)),
            _ => None,
        };
        let predicted = attr_u64(s, keys::PRED_NET).map(|net_bytes| Prediction {
            net_bytes,
            mem_bytes: attr_u64(s, keys::PRED_MEM).unwrap_or(0),
            com_flops: attr_u64(s, keys::PRED_COM).unwrap_or(0),
            cost: attr_f64(s, keys::PRED_COST).unwrap_or(f64::NAN),
            evaluated: attr_u64(s, keys::PRED_EVALUATED).unwrap_or(0),
            feasible: s
                .attr(keys::PRED_FEASIBLE)
                .and_then(|v| v.as_bool())
                .unwrap_or(true),
        });
        let mut actual = descendant_stages(idx);
        actual.sim_secs = s.sim_dur_secs.max(actual.sim_secs);
        actual.wall_us = s.dur_us;
        units.push(UnitTrace {
            name: s.name.clone(),
            root: attr_u64(s, keys::ROOT).unwrap_or(0),
            strategy: attr_str(s, keys::STRATEGY).unwrap_or("?").to_string(),
            pqr,
            predicted,
            actual,
        });
    }

    TraceSummary {
        by_kind,
        consolidation_bytes: totals.consolidation_bytes,
        aggregation_bytes: totals.aggregation_bytes,
        flops: totals.flops,
        peak_mem_bytes: totals.peak_mem_bytes,
        units,
        events: recorded_events.len(),
        faults: faults.any().then_some(faults),
        cache: cache.any().then_some(cache),
    }
}

#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: BTreeMap<String, Value>,
}

/// Renders a recording as chrome://tracing JSON (the JSON-array form of the
/// Trace Event Format).
pub fn chrome_trace_json(rec: &Recorder) -> String {
    let mut out: Vec<ChromeEvent> = Vec::new();
    for (pid, label) in [(1u64, "wall clock"), (2, "simulated clock")] {
        out.push(ChromeEvent {
            name: "process_name".into(),
            cat: "__metadata".into(),
            ph: "M".into(),
            ts: 0,
            dur: 0,
            pid,
            tid: 0,
            args: [("name".to_string(), Value::Str(label.into()))]
                .into_iter()
                .collect(),
        });
    }

    for span in rec.spans() {
        let mut args: BTreeMap<String, Value> = span.attrs.iter().cloned().collect();
        args.insert("parent".into(), Value::U64(span.parent.raw()));
        if span.sim_dur_secs > 0.0 {
            args.insert("sim_start_secs".into(), Value::F64(span.sim_start_secs));
            args.insert("sim_dur_secs".into(), Value::F64(span.sim_dur_secs));
        }

        // Wall track: everything except waves (which only exist in
        // simulated time). Tasks run concurrently on worker threads, so
        // each gets its own lane.
        if span.kind != SpanKind::Wave {
            let tid = match span.kind {
                SpanKind::Task => {
                    2 + span
                        .attr(keys::TASK_ID)
                        .and_then(|v| v.as_u64())
                        .unwrap_or(span.id.raw())
                        % 64
                }
                _ => 1,
            };
            out.push(ChromeEvent {
                name: span.name.clone(),
                cat: span.kind.label().into(),
                ph: "X".into(),
                ts: span.start_us,
                dur: span.dur_us.max(1),
                pid: 1,
                tid,
                args: args.clone(),
            });
        }

        // Simulated track: spans with a simulated extent, nested on one
        // lane (tasks excluded — they overlap within a wave).
        if span.kind != SpanKind::Task && span.sim_dur_secs > 0.0 {
            out.push(ChromeEvent {
                name: span.name.clone(),
                cat: span.kind.label().into(),
                ph: "X".into(),
                ts: (span.sim_start_secs * 1e6) as u64,
                dur: ((span.sim_dur_secs * 1e6) as u64).max(1),
                pid: 2,
                tid: 1,
                args,
            });
        }
    }

    for ev in rec.events() {
        let mut args: BTreeMap<String, Value> = ev
            .attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        args.insert("parent".into(), Value::U64(ev.parent.raw()));
        out.push(ChromeEvent {
            name: ev.name.clone(),
            cat: "event".into(),
            ph: "i".into(),
            ts: ev.ts_us,
            dur: 0,
            pid: 1,
            tid: 1,
            args,
        });
    }

    serde_json::to_string(&out).unwrap_or_else(|_| "[]".to_string())
}

fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Renders the per-kind span table and phase totals as text.
pub fn summary_table(summary: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str("span kind    count    wall ms      sim s\n");
    for k in &summary.by_kind {
        out.push_str(&format!(
            "{:<10} {:>7} {:>10.1} {:>10.3}\n",
            k.kind,
            k.count,
            k.wall_us as f64 / 1e3,
            k.sim_secs
        ));
    }
    out.push_str(&format!(
        "bytes: consolidation {} MB + aggregation {} MB = {} MB; \
         flops {:.3e}; peak task mem {} MB; events {}\n",
        mb(summary.consolidation_bytes),
        mb(summary.aggregation_bytes),
        mb(summary.total_bytes()),
        summary.flops as f64,
        mb(summary.peak_mem_bytes),
        summary.events
    ));
    if let Some(f) = &summary.faults {
        out.push_str(&format!(
            "faults: {} retries, {} speculative, {} executor losses, \
             {} stage re-runs; wasted {} MB / {:.3e} FLOP\n",
            f.retries,
            f.speculative_launches,
            f.executor_losses,
            f.stage_reruns,
            mb(f.wasted_bytes),
            f.wasted_flops as f64
        ));
        if f.mem_admission_rejects + f.replans + f.plan_splits + f.unfused_fallbacks > 0 {
            out.push_str(&format!(
                "memory pressure: {} admission rejects, {} re-plans, \
                 {} plan splits, {} unfused fallbacks\n",
                f.mem_admission_rejects, f.replans, f.plan_splits, f.unfused_fallbacks
            ));
        }
    }
    if let Some(c) = &summary.cache {
        out.push_str(&format!(
            "replica cache: {} hits, {} misses, {} evictions, \
             {} invalidations; saved {} MB\n",
            c.hits,
            c.misses,
            c.evictions,
            c.invalidations,
            mb(c.saved_bytes)
        ));
    }
    out
}

/// Renders the optimizer's predictions next to the simulated actuals for
/// every executed exec-unit — the report the bench harness persists to spot
/// cost-model drift.
pub fn predicted_vs_actual(summary: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str(
        "unit       root  strategy  (P,Q,R)      net pred MB  net actual MB  \
         mem pred MB  mem peak MB     com pred FLOP  actual FLOP       sim s\n",
    );
    for u in &summary.units {
        let pqr = match u.pqr {
            Some((p, q, r)) => format!("({p},{q},{r})"),
            None => "-".to_string(),
        };
        let (net_p, mem_p, com_p) = match &u.predicted {
            Some(p) => (
                mb(p.net_bytes),
                mb(p.mem_bytes),
                format!("{:.3e}", p.com_flops as f64),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{:<10} {:>4}  {:<8}  {:<12} {:>11} {:>14} {:>12} {:>12} {:>17} {:>12} {:>11.3}\n",
            u.name,
            u.root,
            u.strategy,
            pqr,
            net_p,
            mb(u.actual.total_bytes()),
            mem_p,
            mb(u.actual.peak_mem_bytes),
            com_p,
            format!("{:.3e}", u.actual.flops as f64),
            u.actual.sim_secs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{handle, install, uninstall};

    fn sample_recorder() -> std::sync::Arc<Recorder> {
        let rec = Recorder::new();
        install(&rec);
        {
            let plan = handle().scope_span(SpanKind::Plan, || "plan".into());
            plan.set_sim(0.0, 3.0);
            {
                let unit = handle().scope_span(SpanKind::ExecUnit, || "unit-0".into());
                unit.set(keys::ROOT, 8u64);
                unit.set(keys::STRATEGY, "CFO");
                unit.set(keys::P, 2u64);
                unit.set(keys::Q, 3u64);
                unit.set(keys::R, 1u64);
                unit.set(keys::PRED_NET, 1000u64);
                unit.set(keys::PRED_MEM, 500u64);
                unit.set(keys::PRED_COM, 2000u64);
                unit.set(keys::PRED_COST, 0.25f64);
                unit.set(keys::PRED_EVALUATED, 12u64);
                unit.set(keys::PRED_FEASIBLE, true);
                unit.set_sim(0.0, 3.0);
                {
                    let st = handle().scope_span(SpanKind::Stage, || "stage-0".into());
                    st.set(keys::PHASE, "consolidation");
                    st.set(keys::BYTES, 900u64);
                    st.set(keys::FLOPS, 1800u64);
                    st.set(keys::PEAK_MEM, 450u64);
                    st.set_sim(0.0, 2.0);
                    let w = handle().scope_span(SpanKind::Wave, || "wave-0".into());
                    w.set_sim(0.0, 2.0);
                }
                let st2 = handle().scope_span(SpanKind::Stage, || "stage-1".into());
                st2.set(keys::PHASE, "aggregation");
                st2.set(keys::BYTES, 100u64);
                st2.set_sim(2.0, 1.0);
            }
        }
        uninstall();
        rec
    }

    #[test]
    fn summary_reconciles_phase_bytes() {
        let rec = sample_recorder();
        let s = summarize(&rec);
        assert_eq!(s.consolidation_bytes, 900);
        assert_eq!(s.aggregation_bytes, 100);
        assert_eq!(s.total_bytes(), 1000);
        assert_eq!(s.flops, 1800);
        assert_eq!(s.peak_mem_bytes, 450);
        assert_eq!(s.units.len(), 1);
        let u = &s.units[0];
        assert_eq!(u.root, 8);
        assert_eq!(u.pqr, Some((2, 3, 1)));
        assert_eq!(u.actual.total_bytes(), 1000);
        let p = u.predicted.as_ref().unwrap();
        assert_eq!(p.net_bytes, 1000);
        assert_eq!(p.evaluated, 12);
        assert!(p.feasible);
    }

    #[test]
    fn summary_serializes() {
        let rec = sample_recorder();
        let s = summarize(&rec);
        let json = serde_json::to_string(&s).unwrap();
        let back: TraceSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total_bytes(), s.total_bytes());
        assert_eq!(back.units.len(), 1);
        assert_eq!(back.units[0].pqr, Some((2, 3, 1)));
    }

    /// Captures the raw parsed [`serde::Content`] tree.
    struct Raw(serde::Content);

    impl serde::Deserialize for Raw {
        fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
            Ok(Raw(c.clone()))
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_nesting() {
        let rec = sample_recorder();
        let json = chrome_trace_json(&rec);
        let doc: Raw = serde_json::from_str(&json).unwrap();
        let events = doc.0.as_seq().expect("array of events");
        assert!(events.len() >= 6);
        // Wave spans appear only on the simulated track (pid 2).
        let mut saw_wave = false;
        for ev in events {
            let cat = ev.get("cat").and_then(|c| match c {
                serde::Content::Str(s) => Some(s.as_str()),
                _ => None,
            });
            if cat == Some("wave") {
                saw_wave = true;
                assert_eq!(ev.get("pid").and_then(|p| p.as_u64()), Some(2));
            }
        }
        assert!(saw_wave);
        // The stage span's wall event carries its byte attribution.
        assert!(json.contains("\"bytes\":900"));
        assert!(json.contains("\"cat\":\"exec-unit\""));
    }

    #[test]
    fn summary_aggregates_fault_activity() {
        let rec = Recorder::new();
        install(&rec);
        {
            let st = handle().scope_span(SpanKind::Stage, || "stage-0".into());
            st.set(keys::PHASE, "consolidation");
            st.set(keys::BYTES, 300u64);
            st.set(keys::RETRIES, 2u64);
            st.set(keys::SPECULATIVE, 1u64);
            st.set(keys::WASTED_BYTES, 120u64);
            st.set(keys::WASTED_FLOPS, 50u64);
        }
        handle().event(crate::events::EXECUTOR_LOST, || {
            vec![(keys::STAGE_ID, 0u64.into())]
        });
        handle().event(crate::events::STAGE_RERUN, || {
            vec![
                (keys::STAGE_ID, 0u64.into()),
                (keys::WASTED_BYTES, 180u64.into()),
                (keys::WASTED_FLOPS, 70u64.into()),
            ]
        });
        uninstall();
        let s = summarize(&rec);
        let f = s.faults.unwrap();
        assert_eq!(f.retries, 2);
        assert_eq!(f.speculative_launches, 1);
        assert_eq!(f.executor_losses, 1);
        assert_eq!(f.stage_reruns, 1);
        // Stage-span waste plus the re-run event's (net) waste.
        assert_eq!(f.wasted_bytes, 300);
        assert_eq!(f.wasted_flops, 120);
        let table = summary_table(&s);
        assert!(table.contains("stage re-runs"), "{table}");
        // Fault-free recordings omit the block entirely — and such
        // summaries round-trip with `faults` still absent.
        let clean = summarize(&sample_recorder());
        assert!(clean.faults.is_none());
        let json = serde_json::to_string(&clean).unwrap();
        let back: TraceSummary = serde_json::from_str(&json).unwrap();
        assert!(back.faults.is_none());
    }

    #[test]
    fn summary_aggregates_memory_pressure_events() {
        let rec = Recorder::new();
        install(&rec);
        handle().event(crate::events::MEM_ADMISSION_REJECT, || {
            vec![(keys::STAGE_ID, 0u64.into())]
        });
        handle().event(crate::events::REPLAN, || {
            vec![
                (keys::ROOT, 5u64.into()),
                (keys::WASTED_BYTES, 40u64.into()),
                (keys::WASTED_FLOPS, 10u64.into()),
            ]
        });
        handle().event(crate::events::PLAN_SPLIT, || {
            vec![(keys::ROOT, 5u64.into())]
        });
        handle().event(crate::events::UNFUSED_FALLBACK, || {
            vec![
                (keys::ROOT, 5u64.into()),
                (keys::WASTED_BYTES, 60u64.into()),
                (keys::WASTED_FLOPS, 20u64.into()),
            ]
        });
        uninstall();
        let s = summarize(&rec);
        let f = s.faults.unwrap();
        assert_eq!(f.mem_admission_rejects, 1);
        assert_eq!(f.replans, 1);
        assert_eq!(f.plan_splits, 1);
        assert_eq!(f.unfused_fallbacks, 1);
        assert_eq!(f.wasted_bytes, 100);
        assert_eq!(f.wasted_flops, 30);
        let table = summary_table(&s);
        assert!(table.contains("memory pressure"), "{table}");
    }

    #[test]
    fn summary_aggregates_cache_activity() {
        let rec = Recorder::new();
        install(&rec);
        handle().event(crate::events::CACHE_HIT, || {
            vec![
                (keys::MATRIX_UID, 7u64.into()),
                (keys::SAVED_BYTES, 640u64.into()),
            ]
        });
        handle().event(crate::events::CACHE_MISS, || {
            vec![
                (keys::MATRIX_UID, 7u64.into()),
                (keys::BYTES, 640u64.into()),
            ]
        });
        handle().event(crate::events::CACHE_EVICT, || {
            vec![(keys::EVICTIONS, 3u64.into())]
        });
        handle().event(crate::events::CACHE_INVALIDATE, || {
            vec![(keys::MATRIX_UID, 7u64.into())]
        });
        uninstall();
        let s = summarize(&rec);
        let c = s.cache.unwrap();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.evictions, 3);
        assert_eq!(c.invalidations, 1);
        assert_eq!(c.saved_bytes, 640);
        let table = summary_table(&s);
        assert!(table.contains("replica cache"), "{table}");
        // Cache-idle recordings omit the block, and such summaries
        // round-trip with `cache` still absent.
        let clean = summarize(&sample_recorder());
        assert!(clean.cache.is_none());
        let json = serde_json::to_string(&clean).unwrap();
        let back: TraceSummary = serde_json::from_str(&json).unwrap();
        assert!(back.cache.is_none());
    }

    #[test]
    fn reports_render() {
        let rec = sample_recorder();
        let s = summarize(&rec);
        let table = summary_table(&s);
        assert!(table.contains("stage"));
        let pva = predicted_vs_actual(&s);
        assert!(pva.contains("unit-0"));
        assert!(pva.contains("(2,3,1)"));
    }
}
