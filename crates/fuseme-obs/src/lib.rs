//! Structured tracing and metrics for the FuseME engine.
//!
//! The execution path is instrumented with a six-level span hierarchy —
//! `session → plan → exec-unit → stage → wave → task` — each span carrying
//! wall time, simulated time, and a set of typed attributes (bytes charged
//! per ledger phase, FLOPs, peak declared memory, the chosen `(P,Q,R)` and
//! the optimizer's predicted estimates). Two exporters turn a recording
//! into artifacts: a `chrome://tracing`-compatible JSON trace (see
//! [`export::chrome_trace_json`]) and a compact per-run summary
//! ([`export::TraceSummary`], with [`export::predicted_vs_actual`] for the
//! optimizer-drift report).
//!
//! # Recording model
//!
//! Nothing is recorded unless a [`Recorder`] is installed on the current
//! thread via [`install`]. The default [`Handle`] is a no-op: every call
//! checks one `Option` and returns, so instrumented hot paths cost nothing
//! measurable when tracing is off. Recording is scoped per thread
//! (parallel tests with independent recorders do not interfere); spans for
//! worker threads are created against an explicit parent with
//! [`Handle::child_span`], which is thread-safe.
//!
//! ```
//! use fuseme_obs::{install, uninstall, handle, Recorder, SpanKind};
//!
//! let rec = Recorder::new();
//! install(&rec);
//! {
//!     let span = handle().scope_span(SpanKind::Session, || "session".into());
//!     span.set("answer", 42u64);
//! }
//! uninstall();
//! assert_eq!(rec.spans().len(), 1);
//! ```

pub mod export;

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Content, DeError, Deserialize, Serialize};

pub use export::{
    chrome_trace_json, predicted_vs_actual, summarize, summary_table, ActualCost, CacheTrace,
    FaultTrace, KindStat, Prediction, TraceSummary, UnitTrace,
};

/// Well-known attribute keys shared between the instrumentation sites and
/// the exporters. Using the constants keeps producers and consumers in sync.
pub mod keys {
    /// Ledger phase of a stage: `"consolidation"` or `"aggregation"`.
    pub const PHASE: &str = "phase";
    /// Bytes charged to the ledger by a stage.
    pub const BYTES: &str = "bytes";
    /// Total analytic FLOPs declared by a stage's tasks.
    pub const FLOPS: &str = "flops";
    /// Maximum declared per-task memory of a stage, in bytes.
    pub const PEAK_MEM: &str = "peak_mem_bytes";
    /// Cluster-unique stage id (matches the ledger's per-stage breakdown).
    pub const STAGE_ID: &str = "stage_id";
    /// Number of tasks in a stage or wave.
    pub const TASKS: &str = "tasks";
    /// Number of scheduling waves in a stage.
    pub const WAVES: &str = "waves";
    /// Dense task index within a stage.
    pub const TASK_ID: &str = "task_id";
    /// Root DAG node of an exec-unit.
    pub const ROOT: &str = "root";
    /// Physical strategy label of an exec-unit: CFO / BFO / RFO / cell.
    pub const STRATEGY: &str = "strategy";
    /// Chosen cuboid parameters.
    pub const P: &str = "p";
    /// Chosen cuboid parameters.
    pub const Q: &str = "q";
    /// Chosen cuboid parameters.
    pub const R: &str = "r";
    /// Optimizer-predicted `NetEst` in bytes.
    pub const PRED_NET: &str = "pred_net_bytes";
    /// Optimizer-predicted `MemEst` in bytes.
    pub const PRED_MEM: &str = "pred_mem_bytes";
    /// Optimizer-predicted `ComEst` in FLOPs.
    pub const PRED_COM: &str = "pred_com_flops";
    /// Optimizer objective value at the chosen `(P,Q,R)`.
    pub const PRED_COST: &str = "pred_cost";
    /// Number of candidates the search evaluated.
    pub const PRED_EVALUATED: &str = "pred_evaluated";
    /// Whether the search found a feasible point.
    pub const PRED_FEASIBLE: &str = "pred_feasible";
    /// Task attempts that failed and were retried within a stage.
    pub const RETRIES: &str = "retries";
    /// Speculative copies launched within a stage.
    pub const SPECULATIVE: &str = "speculative_launches";
    /// Bytes charged that an oracle (fault-free) run would not have
    /// charged.
    pub const WASTED_BYTES: &str = "wasted_bytes";
    /// FLOPs executed that an oracle (fault-free) run would not have
    /// executed.
    pub const WASTED_FLOPS: &str = "wasted_flops";
    /// Attempts a task consumed (1 = first attempt succeeded).
    pub const ATTEMPTS: &str = "attempts";
    /// Bounded-search outcome for an exec unit: `"feasible"` or
    /// `"infeasible-fell-back"` (finest partitioning despite exceeding
    /// the effective budget).
    pub const OPT_OUTCOME: &str = "opt_outcome";
    /// Effective safety factor a memory-pressure re-plan searched under.
    pub const HEADROOM: &str = "headroom";
    /// Minimum per-task budget θ_t under which a unit has a feasible
    /// partitioning.
    pub const MIN_THETA: &str = "min_theta_bytes";
    /// Winner of a speculative race: `"speculative"` or `"original"`.
    pub const WINNER: &str = "winner";
    /// Process-unique matrix identity involved in a replica-cache event.
    pub const MATRIX_UID: &str = "matrix_uid";
    /// Structural model-space axis code of a cached input.
    pub const AXIS: &str = "axis";
    /// Consolidation bytes a replica-cache hit avoided shipping.
    pub const SAVED_BYTES: &str = "saved_bytes";
    /// Replica-cache hits observed by a fused unit's consolidation.
    pub const CACHE_HITS: &str = "cache_hits";
    /// Replica-cache misses observed by a fused unit's consolidation.
    pub const CACHE_MISSES: &str = "cache_misses";
    /// Replica sets evicted by the cache's LRU in one event's window.
    pub const EVICTIONS: &str = "evictions";
}

/// Well-known event names emitted by the fault-tolerance layer.
pub mod events {
    /// A task attempt crashed and was retried (attrs: stage/task ids,
    /// attempt count, wasted bytes/FLOPs).
    pub const TASK_RETRY: &str = "task-retry";
    /// A speculative copy of a straggling task launched (attrs: stage/task
    /// ids, winner).
    pub const SPECULATIVE_LAUNCH: &str = "speculative-launch";
    /// The driver re-ran an exec unit after an executor loss (attrs: lost
    /// stage id, re-run attempt, wasted bytes/FLOPs of the failed attempt).
    pub const STAGE_RERUN: &str = "stage-rerun";
    /// A stage's executor died (attrs: stage id).
    pub const EXECUTOR_LOST: &str = "executor-lost";
    /// Memory admission rejected a stage or fused-unit pre-check (attrs:
    /// stage id, task id, declared peak memory).
    pub const MEM_ADMISSION_REJECT: &str = "mem-admission-reject";
    /// The memory-pressure ladder re-ran the bounded search against a
    /// tightened budget (attrs: unit root, headroom factor, wasted
    /// bytes/FLOPs of the failed attempt).
    pub const REPLAN: &str = "replan";
    /// The memory-pressure ladder split a fused plan in two (attrs: unit
    /// root, wasted bytes/FLOPs of the failed attempt).
    pub const PLAN_SPLIT: &str = "plan-split";
    /// The memory-pressure ladder degraded a fused unit to unfused
    /// per-operator execution (attrs: unit root, wasted bytes/FLOPs of
    /// the failed attempt).
    pub const UNFUSED_FALLBACK: &str = "unfused-fallback";
    /// A fused unit's input had valid cuboid replicas resident: the
    /// consolidation shuffle was skipped (attrs: matrix uid, axis, p/q/r,
    /// saved bytes).
    pub const CACHE_HIT: &str = "cache-hit";
    /// A fused unit's input had no valid resident replicas: the shuffle was
    /// charged and the replica set admitted (attrs: matrix uid, axis,
    /// p/q/r, bytes).
    pub const CACHE_MISS: &str = "cache-miss";
    /// The replica cache evicted entries to fit its byte budget (attrs:
    /// eviction count delta).
    pub const CACHE_EVICT: &str = "cache-evict";
    /// A driver write bumped a matrix version, invalidating its resident
    /// replicas (attrs: matrix uid).
    pub const CACHE_INVALIDATE: &str = "cache-invalidate";
}

/// Identifier of a recorded span; `SpanId::NONE` marks "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span (root parent).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to an actual span.
    pub fn is_some(&self) -> bool {
        self.0 != 0
    }

    /// Raw id value (for display; 0 means none).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Level of a span in the execution hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One user session (outermost).
    Session,
    /// One planned query execution.
    Plan,
    /// One execution unit of a fusion plan (fused or single operator).
    ExecUnit,
    /// One simulator stage (a `run_stage` call, or a driver-side assembly
    /// shuffle).
    Stage,
    /// One scheduling wave of `N·T_c` task slots within a stage.
    Wave,
    /// One task of a stage.
    Task,
}

impl SpanKind {
    /// Every kind, outermost first.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Session,
        SpanKind::Plan,
        SpanKind::ExecUnit,
        SpanKind::Stage,
        SpanKind::Wave,
        SpanKind::Task,
    ];

    /// Stable lowercase label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Plan => "plan",
            SpanKind::ExecUnit => "exec-unit",
            SpanKind::Stage => "stage",
            SpanKind::Wave => "wave",
            SpanKind::Task => "task",
        }
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter (bytes, flops, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point measure (seconds, cost).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form label.
    Str(String),
}

impl Value {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

// Serialized untagged (the raw JSON value), so chrome-trace `args` maps and
// summaries read naturally.
impl Serialize for Value {
    fn to_content(&self) -> Content {
        match self {
            Value::U64(v) => Content::UInt(*v),
            Value::I64(v) => Content::Int(*v),
            Value::F64(v) => Content::Float(*v),
            Value::Bool(b) => Content::Bool(*b),
            Value::Str(s) => Content::Str(s.clone()),
        }
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::UInt(v) => Ok(Value::U64(*v)),
            Content::Int(v) => Ok(Value::I64(*v)),
            Content::Float(v) => Ok(Value::F64(*v)),
            Content::Bool(b) => Ok(Value::Bool(*b)),
            Content::Str(s) => Ok(Value::Str(s.clone())),
            other => Err(DeError::expected("scalar attribute value", other)),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span (`SpanId::NONE` at the root).
    pub parent: SpanId,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Display name.
    pub name: String,
    /// Wall-clock start, microseconds since the recorder was created.
    pub start_us: u64,
    /// Wall-clock duration in microseconds (so-far for open spans).
    pub dur_us: u64,
    /// Whether the span was explicitly ended.
    pub closed: bool,
    /// Simulated-clock start in seconds, when known.
    pub sim_start_secs: f64,
    /// Simulated-clock duration in seconds, when known.
    pub sim_dur_secs: f64,
    /// Typed attributes (last write per key wins at export).
    pub attrs: Vec<(String, Value)>,
}

impl SpanRecord {
    /// Last-written value of an attribute.
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// One recorded point event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Enclosing span (`SpanId::NONE` when none was active).
    pub parent: SpanId,
    /// Event name.
    pub name: String,
    /// Wall-clock timestamp, microseconds since the recorder was created.
    pub ts_us: u64,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, Value)>,
}

struct RecorderState {
    next_id: u64,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

/// Thread-safe in-memory span/event recorder.
///
/// All mutation goes through one mutex; the instrumented code paths record
/// a handful of spans per simulator stage, so contention is negligible next
/// to the matrix kernels the spans measure.
pub struct Recorder {
    origin: Instant,
    state: Mutex<RecorderState>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Recorder")
            .field("spans", &st.spans.len())
            .field("events", &st.events.len())
            .finish()
    }
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            state: Mutex::new(RecorderState {
                next_id: 1,
                spans: Vec::new(),
                events: Vec::new(),
            }),
        })
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn start_span(&self, kind: SpanKind, name: String, parent: SpanId) -> SpanId {
        let now = self.now_us();
        let mut st = self.lock();
        let id = SpanId(st.next_id);
        st.next_id += 1;
        st.spans.push(SpanRecord {
            id,
            parent,
            kind,
            name,
            start_us: now,
            dur_us: 0,
            closed: false,
            sim_start_secs: 0.0,
            sim_dur_secs: 0.0,
            attrs: Vec::new(),
        });
        id
    }

    fn with_span(&self, id: SpanId, f: impl FnOnce(&mut SpanRecord)) {
        if !id.is_some() {
            return;
        }
        let mut st = self.lock();
        let idx = (id.0 - 1) as usize;
        if let Some(span) = st.spans.get_mut(idx) {
            f(span);
        }
    }

    fn end_span(&self, id: SpanId) {
        let now = self.now_us();
        self.with_span(id, |s| {
            if !s.closed {
                s.dur_us = now.saturating_sub(s.start_us);
                s.closed = true;
            }
        });
    }

    fn add_event(&self, parent: SpanId, name: String, attrs: Vec<(&'static str, Value)>) {
        let ts_us = self.now_us();
        self.lock().events.push(EventRecord {
            parent,
            name,
            ts_us,
            attrs,
        });
    }

    /// Snapshot of every recorded span (open spans report duration so far).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let now = self.now_us();
        let mut spans = self.lock().spans.clone();
        for s in &mut spans {
            if !s.closed {
                s.dur_us = now.saturating_sub(s.start_us);
            }
        }
        spans
    }

    /// Snapshot of every recorded event.
    pub fn events(&self) -> Vec<EventRecord> {
        self.lock().events.clone()
    }

    /// Builds the per-run summary (see [`export::summarize`]).
    pub fn summary(&self) -> TraceSummary {
        export::summarize(self)
    }
}

thread_local! {
    static CURRENT: RefCell<(Handle, Vec<SpanId>)> =
        RefCell::new((Handle::default(), Vec::new()));
}

/// Installs a recorder on the current thread; subsequent [`handle`] calls
/// return an enabled handle. Call [`uninstall`] when the measured region
/// ends.
pub fn install(rec: &Arc<Recorder>) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        cur.0 = Handle {
            rec: Some(Arc::clone(rec)),
        };
        cur.1.clear();
    });
}

/// Removes the current thread's recorder; [`handle`] returns a no-op again.
pub fn uninstall() {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        cur.0 = Handle::default();
        cur.1.clear();
    });
}

/// The current thread's recording handle (no-op when nothing is installed).
pub fn handle() -> Handle {
    CURRENT.with(|c| c.borrow().0.clone())
}

/// The innermost open scoped span on this thread.
pub fn current_span() -> SpanId {
    CURRENT.with(|c| c.borrow().1.last().copied().unwrap_or(SpanId::NONE))
}

fn push_current(id: SpanId) {
    CURRENT.with(|c| c.borrow_mut().1.push(id));
}

fn pop_current(id: SpanId) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        if cur.1.last() == Some(&id) {
            cur.1.pop();
        }
    });
}

/// Cheap cloneable recording handle; the default is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Handle {
    rec: Option<Arc<Recorder>>,
}

impl Handle {
    /// Whether a recorder is attached (false = every call is a no-op).
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Opens a span nested under the thread's current scoped span, and
    /// makes it the current scope until the guard drops. The name closure
    /// only runs when recording is enabled.
    pub fn scope_span(&self, kind: SpanKind, name: impl FnOnce() -> String) -> SpanGuard {
        match &self.rec {
            None => SpanGuard::noop(),
            Some(rec) => {
                let id = rec.start_span(kind, name(), current_span());
                push_current(id);
                SpanGuard {
                    rec: Some(Arc::clone(rec)),
                    id,
                    scoped: true,
                }
            }
        }
    }

    /// Opens a span under an explicit parent without touching the thread's
    /// scope stack — safe to call from worker threads.
    pub fn child_span(
        &self,
        kind: SpanKind,
        parent: SpanId,
        name: impl FnOnce() -> String,
    ) -> SpanGuard {
        match &self.rec {
            None => SpanGuard::noop(),
            Some(rec) => {
                let id = rec.start_span(kind, name(), parent);
                SpanGuard {
                    rec: Some(Arc::clone(rec)),
                    id,
                    scoped: false,
                }
            }
        }
    }

    /// Records a point event under the current scoped span. The attribute
    /// closure only runs when recording is enabled.
    pub fn event(&self, name: &str, attrs: impl FnOnce() -> Vec<(&'static str, Value)>) {
        if let Some(rec) = &self.rec {
            rec.add_event(current_span(), name.to_string(), attrs());
        }
    }
}

/// RAII guard for an open span; ends the span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Option<Arc<Recorder>>,
    id: SpanId,
    scoped: bool,
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        SpanGuard {
            rec: None,
            id: SpanId::NONE,
            scoped: false,
        }
    }

    /// The span's id (`SpanId::NONE` for a no-op guard).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Whether this guard records anything.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Sets an attribute on the span.
    pub fn set(&self, key: &str, value: impl Into<Value>) {
        if let Some(rec) = &self.rec {
            let value = value.into();
            rec.with_span(self.id, |s| s.attrs.push((key.to_string(), value)));
        }
    }

    /// Records the span's position on the simulated clock.
    pub fn set_sim(&self, start_secs: f64, dur_secs: f64) {
        if let Some(rec) = &self.rec {
            rec.with_span(self.id, |s| {
                s.sim_start_secs = start_secs;
                s.sim_dur_secs = dur_secs;
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(rec) = &self.rec {
            rec.end_span(self.id);
            if self.scoped {
                pop_current(self.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let h = Handle::default();
        assert!(!h.enabled());
        let g = h.scope_span(SpanKind::Stage, || panic!("name closure must not run"));
        assert_eq!(g.id(), SpanId::NONE);
        g.set("bytes", 1u64);
        h.event("e", || panic!("attr closure must not run"));
        drop(g);
    }

    #[test]
    fn scoped_spans_nest() {
        let rec = Recorder::new();
        install(&rec);
        {
            let outer = handle().scope_span(SpanKind::Plan, || "plan".into());
            assert_eq!(current_span(), outer.id());
            {
                let inner = handle().scope_span(SpanKind::Stage, || "stage".into());
                assert_eq!(current_span(), inner.id());
                inner.set(keys::BYTES, 100u64);
            }
            assert_eq!(current_span(), outer.id());
        }
        uninstall();
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.closed));
        assert_eq!(
            spans[1].attr(keys::BYTES).and_then(|v| v.as_u64()),
            Some(100)
        );
    }

    #[test]
    fn child_spans_work_across_threads() {
        let rec = Recorder::new();
        install(&rec);
        let root = handle().scope_span(SpanKind::Stage, || "stage".into());
        let h = handle();
        let parent = root.id();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    let g = h.child_span(SpanKind::Task, parent, || format!("task-{t}"));
                    g.set(keys::TASK_ID, t as u64);
                });
            }
        });
        drop(root);
        uninstall();
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans.iter().filter(|s| s.parent == parent).count(), 4);
    }

    #[test]
    fn events_and_counters() {
        let rec = Recorder::new();
        install(&rec);
        let span = handle().scope_span(SpanKind::Plan, || "p".into());
        handle().event("search", || vec![("evaluated", Value::U64(17))]);
        let expected_parent = span.id();
        drop(span);
        uninstall();
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].parent, expected_parent);
    }

    #[test]
    fn install_is_per_thread() {
        let rec = Recorder::new();
        install(&rec);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!handle().enabled());
            });
        });
        assert!(handle().enabled());
        uninstall();
        assert!(!handle().enabled());
    }
}
