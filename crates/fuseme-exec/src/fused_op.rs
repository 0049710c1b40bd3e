//! Distributed fused operators: CFO (cuboid), BFO (broadcast), RFO
//! (replication), and the degenerate Cell operator for plans without
//! matrix multiplication.
//!
//! All four share the same skeleton (paper §2.2):
//!
//! 1. **Matrix consolidation** — decide which task computes which output
//!    blocks ([`task_layout`]), route the input blocks each task needs into
//!    its [`LocalStore`] ([`route`], from per-task footprints), and charge
//!    the ledger for every routed byte. The strategies differ only here:
//!    CFO routes cuboid slices (side matrices replicated `Q`/`P`/`R`
//!    times), BFO routes the main matrix by need and *broadcasts* every side
//!    matrix whole, RFO routes everything by need at output-block
//!    granularity (sides replicated up to `I`/`J` times). In this process
//!    the replicas of a slice are one list, built once per unit and shared
//!    by the tasks that receive it; the ledger still charges every task's
//!    replica.
//! 2. **Local operation** — each task runs the unit's [`UnitKernel`], the
//!    plan lowered once into block programs, over the output blocks of its
//!    tile that the plan's sparsity gate lets through, a run of adjacent
//!    blocks in one block row at a time (no intermediate matrices).
//! 3. **Matrix aggregation** — with cuboid `R > 1` the main
//!    multiplication's partial results are summed per `(p,q)` group into
//!    the group reducer's store, and the `O`-space operators run in a
//!    second stage: the plan without its main multiplication, over a store
//!    holding the aggregated product. Aggregation-rooted plans additionally
//!    combine per-task aggregation partials.
//!
//! Single operators execute through the same machinery: the driver wraps
//! each [`NodeId`] outside a fused unit into a singleton [`PartialPlan`]
//! and hands it to [`execute_fused`].
//!
//! * A singleton matrix multiplication under the CFO strategy *is*
//!   DistME's CuboidMM (cuboid partitioning of one `ba(×)`).
//! * Under the broadcast strategy it is Spark's map-side ("mapmm")
//!   broadcast join, and under replication the classic replicated matrix
//!   multiply ("rmm") — what SystemDS picks between.
//! * Element-wise, transpose, and aggregation singletons run as one-node
//!   Cell plans: output blocks striped over the cluster, inputs routed once.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use fuseme_fusion::cost::estimate;
use fuseme_fusion::optimizer::Pqr;
use fuseme_fusion::plan::{mm_dims, PartialPlan};
use fuseme_fusion::space::SpaceTree;
use fuseme_matrix::{AggOp, BinOp, Block, BlockList, BlockedMatrix, Coord, DenseBlock};
use fuseme_plan::{NodeId, OpKind, QueryDag};
use fuseme_sim::executor::run_stage;
use fuseme_sim::{Cluster, Phase, SimError, TaskWork};

use crate::kernel::{footprints, AggShape, BlockProgram, Footprint, LocalStore, TaskProgram};

/// Materialized values available to an operator: input leaves plus outputs
/// of earlier execution units.
pub type ValueMap = HashMap<NodeId, Arc<BlockedMatrix>>;

/// Physical strategy for a fused operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// The paper's CFO with explicit `(P,Q,R)`. DistME's CuboidMM is this
    /// strategy on a single-multiplication plan.
    Cuboid {
        /// Cuboid partitioning parameters.
        pqr: Pqr,
    },
    /// BFO: side matrices broadcast to every task. `partition_bytes` sets
    /// how much main-matrix data one Spark-style partition holds, which
    /// bounds the operator's parallelism (sparse mains under-utilize the
    /// cluster exactly as in the paper's Fig. 12(a)).
    Broadcast {
        /// Bytes of main-matrix data per task partition.
        partition_bytes: u64,
    },
    /// RFO: every input routed at output-block granularity; side-matrix
    /// blocks are replicated up to `I`/`J` times.
    Replication,
}

/// What a task hands back, in coordinate order: output blocks, aggregation
/// partials when the plan is rooted at an aggregation, or in stage 1 of a
/// two-stage layout partial main-multiplication blocks over the task's
/// k-slice.
pub type TaskOut = Vec<(Coord, Arc<Block>)>;

/// Task layout produced by a strategy: which task computes which output
/// blocks over which k-slice, and which inputs every task receives whole.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Stage-1 tasks, in task-id order.
    pub tasks: Vec<TaskSlice>,
    /// The node whose blocks the tasks compute: the plan root, or the input
    /// of an aggregation root.
    pub compute_node: NodeId,
    /// Inputs routed whole to every task instead of by footprint: BFO's
    /// side matrices.
    pub broadcast: BTreeSet<NodeId>,
    /// The plan's main multiplication, if any.
    pub main_mm: Option<NodeId>,
    /// k-axis partitions (R); `> 1` means two-stage execution.
    pub r: usize,
    /// Whether output coordinates are transposed relative to the main
    /// multiplication's `(i, j)` grid.
    pub parity: bool,
}

/// One stage-1 task of a [`Layout`].
#[derive(Debug, Clone)]
pub struct TaskSlice {
    /// Task id: the task's position in [`Layout::tasks`].
    pub id: usize,
    /// The blocks of [`Layout::compute_node`] the task computes: a cuboid
    /// tile or a stripe. Routing starts here. Kernels visit them in
    /// [`Footprint::coords`] order, which is also the order in which
    /// aggregation-rooted plans fold their partials.
    pub out: Footprint,
    /// The task's k-slice of the main multiplication's common dimension.
    pub k_range: Range<usize>,
    /// `(p,q)` group for two-stage aggregation; equals `id` single-stage.
    pub group: usize,
    /// The group member that runs the stage-2 reduction.
    pub is_reducer: bool,
}

/// A fused plan lowered once per exec unit: the block programs every task
/// of the unit runs.
#[derive(Debug)]
pub struct UnitKernel {
    /// The compute node's program, whose blocks tasks hand back: over the
    /// plan, or in a two-stage layout (stage 2) over the plan without its
    /// main multiplication, which the reducer's store then holds.
    output: BlockProgram,
    /// Stage 1 of a two-stage layout: the compute node's program over the
    /// whole plan, whose support gates which partials are computed, and
    /// the main multiplication's program.
    partials: Option<(BlockProgram, BlockProgram)>,
    parity: bool,
    agg: Option<(AggOp, AggShape)>,
    compute_meta: fuseme_matrix::MatrixMeta,
    root_meta: fuseme_matrix::MatrixMeta,
}

impl UnitKernel {
    /// Lowers `plan` for the tasks of `layout`.
    pub fn compile(dag: &QueryDag, plan: &PartialPlan, layout: &Layout) -> UnitKernel {
        let (agg, _) = compute_target(dag, plan);
        let compile = |ops, node| BlockProgram::compile(dag, ops, layout.main_mm, node);
        let split = layout.main_mm.filter(|_| layout.r > 1);
        let mut rest = plan.ops.clone();
        rest.retain(|&n| Some(n) != split);
        let whole = |node| compile(&plan.ops, node);
        UnitKernel {
            output: compile(&rest, layout.compute_node),
            partials: split.map(|mm| (whole(layout.compute_node), whole(mm))),
            parity: layout.parity,
            agg,
            compute_meta: dag.node(layout.compute_node).meta,
            root_meta: dag.node(plan.root).meta,
        }
    }

    /// A stage-1 task: its output blocks, or in a two-stage layout its
    /// partial main-multiplication blocks at the output blocks the plan's
    /// sparsity gate lets through.
    pub fn stage1(&self, task: &TaskSlice, store: &LocalStore) -> Result<TaskOut, SimError> {
        let Some((whole, mm)) = &self.partials else {
            return self.full(self.output.bind(store, task.k_range.clone()), &task.out);
        };
        let compute = whole.bind(store, task.k_range.clone());
        let mut mm = mm.bind(store, task.k_range.clone());
        // Only output blocks the plan's sparsity gate lets through need
        // multiplication partials — skipping the rest is what keeps the
        // never-materialized intermediate from existing (paper Fig. 1(a)'s
        // dotted cells).
        let mut wanted: Vec<(usize, usize)> = compute
            .supported(&task.out)
            .into_iter()
            .map(|(bi, bj)| if self.parity { (bj, bi) } else { (bi, bj) })
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        wanted.retain(|&c| mm.has_support(c));
        let mut out = Vec::with_capacity(wanted.len());
        for run in runs(&wanted) {
            mm.eval_run(run, |c, b| {
                out.push((c, b));
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// A stage-2 reducer: the task's output blocks, read from a store that
    /// holds its group's aggregated product, if the group produced any, as
    /// the main multiplication's node.
    pub fn stage2(&self, task: &TaskSlice, store: &LocalStore) -> Result<TaskOut, SimError> {
        self.full(self.output.bind(store, 0..0), &task.out)
    }

    /// Runs full kernels for a tile's supported blocks, run by run; folds
    /// aggregation roots into partial aggregation blocks.
    fn full(&self, mut program: TaskProgram<'_>, tile: &Footprint) -> Result<TaskOut, SimError> {
        let supported = program.supported(tile);
        let Some((op, shape)) = self.agg else {
            let mut out = Vec::with_capacity(supported.len());
            for run in runs(&supported) {
                program.eval_run(run, |c, b| {
                    if b.nnz() > 0 {
                        out.push((c, b));
                    }
                    Ok(())
                })?;
            }
            return Ok(out);
        };
        // Every tile block folds in, in tile order: runs of supported blocks
        // as they are evaluated, unsupported blocks as zero blocks (folded
        // once per distinct block shape).
        let mut zeros: Vec<((usize, usize), Vec<f64>)> = Vec::new();
        let mut partials: BTreeMap<(usize, usize), DenseBlock> = BTreeMap::new();
        let mut fold = |c: Coord, values: &[f64]| {
            fold_partial(&mut partials, values, c, op, shape, &self.root_meta);
        };
        // `supported[start..at]` is the run being gathered.
        let (mut start, mut at) = (0, 0);
        for (bi, bj) in tile.coords() {
            if supported.get(at) == Some(&(bi, bj)) {
                if at > start && !adjacent(supported[at - 1], (bi, bj)) {
                    program.fold_run(&supported[start..at], op, shape, &mut fold)?;
                    start = at;
                }
                at += 1;
                continue;
            }
            program.fold_run(&supported[start..at], op, shape, &mut fold)?;
            start = at;
            let dims = self.compute_meta.block_dims(bi, bj);
            let zero = match zeros.iter().position(|z| z.0 == dims) {
                Some(z) => z,
                None => {
                    let mut values = Vec::new();
                    shape.fold_block(op, &Block::zero(dims.0, dims.1), &mut values);
                    zeros.push((dims, values));
                    zeros.len() - 1
                }
            };
            fold((bi, bj), &zeros[zero].1);
        }
        program.fold_run(&supported[start..at], op, shape, &mut fold)?;
        Ok(partials
            .into_iter()
            .map(|(coord, b)| (coord, Arc::new(Block::Dense(b))))
            .collect())
    }
}

/// `b` is the block right of `a`.
fn adjacent(a: Coord, b: Coord) -> bool {
    a.0 == b.0 && a.1 + 1 == b.1
}

/// Coordinates in order, cut into runs: maximal stretches of adjacent
/// blocks in one block row.
fn runs(coords: &[Coord]) -> impl Iterator<Item = &[Coord]> {
    coords.chunk_by(|&a, &b| adjacent(a, b))
}

/// Folds one compute block's fold (see [`AggShape::fold_block`]) into the
/// task's aggregation partials.
fn fold_partial(
    partials: &mut BTreeMap<(usize, usize), DenseBlock>,
    values: &[f64],
    (bi, bj): (usize, usize),
    op: AggOp,
    shape: AggShape,
    root_meta: &fuseme_matrix::MatrixMeta,
) {
    let slot = match shape {
        AggShape::Full => partials
            .entry((0, 0))
            .or_insert_with(|| DenseBlock::filled(1, 1, op.identity())),
        AggShape::Row => partials.entry((bi, 0)).or_insert_with(|| {
            let (r, _) = root_meta.block_dims(bi, 0);
            DenseBlock::filled(r, 1, op.identity())
        }),
        AggShape::Col => partials.entry((0, bj)).or_insert_with(|| {
            let (_, c) = root_meta.block_dims(0, bj);
            DenseBlock::filled(1, c, op.identity())
        }),
    };
    for (x, &v) in values.iter().enumerate() {
        let (r, c) = if shape == AggShape::Col {
            (0, x)
        } else {
            (x, 0)
        };
        slot.set(r, c, op.combine(slot.get(r, c), v));
    }
}

/// Executes one fused plan on the cluster and returns its materialized
/// output.
pub fn execute_fused(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &ValueMap,
    strategy: &Strategy,
) -> Result<Arc<BlockedMatrix>, SimError> {
    let (agg_kind, _) = compute_target(dag, plan);
    let layout = task_layout(cluster, dag, plan, values, strategy);
    let (compute_node, main_mm) = (layout.compute_node, layout.main_mm);
    let two_stage = layout.r > 1;

    // ----- analytic pre-checks ----------------------------------------------
    // Routing below physically materializes per-task block stores, which for
    // hopeless configurations (the paper's O.O.M. and 12-hour T.O. bars) can
    // itself be enormous. The analytic estimates mirror what admission
    // control and the clock would conclude, so fail fast — exactly the
    // compile-time memory estimation SystemDS applies before picking BFO.
    let tree = SpaceTree::build(dag, plan);
    let eq = equivalent_pqr(dag, plan, strategy, &layout);
    let est = estimate(dag, plan, &tree, eq.p, eq.q, eq.r);
    {
        let cfg = cluster.config();
        if est.mem_bytes > cfg.mem_per_task.saturating_mul(4) {
            cluster.fault_ledger().record_mem_admission_reject();
            fuseme_obs::handle().event(fuseme_obs::events::MEM_ADMISSION_REJECT, || {
                vec![
                    (fuseme_obs::keys::ROOT, (plan.root as u64).into()),
                    (fuseme_obs::keys::PEAK_MEM, est.mem_bytes.into()),
                ]
            });
            return Err(SimError::OutOfMemory {
                task: 0,
                needed: est.mem_bytes,
                budget: cfg.mem_per_task,
                root: Some(plan.root),
                pqr: Some((eq.p, eq.q, eq.r)),
                site: fuseme_sim::OomSite::Admission,
            });
        }
        let projected = cluster.elapsed_secs()
            + est.net_bytes as f64 / (cfg.nodes as f64 * cfg.net_bandwidth)
            + est.com_flops as f64 / (cfg.nodes as f64 * cfg.compute_bandwidth);
        if projected > cfg.timeout_secs {
            return Err(SimError::Timeout {
                elapsed: projected,
                cap: cfg.timeout_secs,
            });
        }
    }

    // ----- consolidation: route blocks, build stores ------------------------
    let mut stores = route(dag, plan, values, &layout);

    // ----- replica cache: skip re-shipping cached loop-invariant inputs -----
    // Routing above is in-process either way (results are byte-identical
    // cache-on and cache-off); what the cache changes is the *accounting*:
    // an input whose cuboid replicas are still resident from a previous
    // iteration — same matrix value, same model-space axis, same (P,Q,R) —
    // contributes nothing to the consolidation charge. Only session-bound
    // `OpKind::Input` leaves participate: intermediates get a fresh matrix
    // identity every run and would only churn the LRU.
    let cached_free: BTreeSet<NodeId> = match (cluster.replica_cache(), strategy) {
        (Some(cache), Strategy::Cuboid { pqr }) => {
            let axes: HashMap<NodeId, u64> = fuseme_fusion::space::input_axes(&tree)
                .into_iter()
                .collect();
            let evictions_before = cache.stats().evictions;
            let mut skip = BTreeSet::new();
            for node in plan.external_inputs(dag) {
                if !matches!(dag.node(node).kind, OpKind::Input { .. }) {
                    continue;
                }
                let (Some(&axis), Some(value)) = (axes.get(&node), values.get(&node)) else {
                    continue;
                };
                let bytes: u64 = stores.iter().map(|s| s.node_bytes(node)).sum();
                if bytes == 0 {
                    continue;
                }
                let uid = value.uid();
                let triple = (pqr.p, pqr.q, pqr.r);
                let hit = cache.admit(uid, axis, triple, bytes).is_hit();
                let obs = fuseme_obs::handle();
                let name = if hit {
                    skip.insert(node);
                    fuseme_obs::events::CACHE_HIT
                } else {
                    fuseme_obs::events::CACHE_MISS
                };
                obs.event(name, || {
                    vec![
                        (fuseme_obs::keys::ROOT, (plan.root as u64).into()),
                        (fuseme_obs::keys::MATRIX_UID, uid.into()),
                        (fuseme_obs::keys::AXIS, axis.into()),
                        (fuseme_obs::keys::P, (pqr.p as u64).into()),
                        (fuseme_obs::keys::Q, (pqr.q as u64).into()),
                        (fuseme_obs::keys::R, (pqr.r as u64).into()),
                        (
                            if hit {
                                fuseme_obs::keys::SAVED_BYTES
                            } else {
                                fuseme_obs::keys::BYTES
                            },
                            bytes.into(),
                        ),
                    ]
                });
            }
            let evicted = cache.stats().evictions - evictions_before;
            if evicted > 0 {
                fuseme_obs::handle().event(fuseme_obs::events::CACHE_EVICT, || {
                    vec![(fuseme_obs::keys::EVICTIONS, evicted.into())]
                });
            }
            skip
        }
        _ => BTreeSet::new(),
    };

    // ----- resource estimates ------------------------------------------------
    let ntasks = layout.tasks.len().max(1) as u64;
    let flops_per_task = est.com_flops / ntasks;
    let out_share = fuseme_fusion::cost::size_bytes(dag, plan.root) / ntasks;
    let groups = layout.tasks.iter().filter(|t| t.is_reducer).count().max(1) as u64;
    // Stage-1 partials only materialize for output blocks the sparsity gate
    // lets through (the fused kernel skips the rest), so the per-task
    // partial footprint shrinks by the density ratio.
    let gate = main_mm
        .map(|mm| {
            let mm_density = dag.node(mm).meta.density.max(f64::MIN_POSITIVE);
            (dag.node(compute_node).meta.density / mm_density).clamp(0.0, 1.0)
        })
        .unwrap_or(1.0);
    let partial_share = main_mm
        .map(|mm| (fuseme_fusion::cost::size_bytes(dag, mm) as f64 * gate) as u64 / groups)
        .unwrap_or(0);

    // ----- stage 1 -------------------------------------------------------------
    let kernel = &UnitKernel::compile(dag, plan, &layout);
    let mut work: Vec<TaskWork<'_, TaskOut>> = Vec::new();
    for (task, store) in layout.tasks.iter().zip(stores.iter()) {
        // Replica-cache hits ship nothing: their share of the store arrived
        // in a previous iteration. Memory is unaffected — the replicas are
        // resident either way.
        let free: u64 = cached_free.iter().map(|&n| store.node_bytes(n)).sum();
        let held = store.total_bytes();
        let recv = held.saturating_sub(free);
        // Stage-1 tasks of a two-stage run hold their partials but never
        // the final output; single-stage tasks hold their output share.
        // Memory counts everything *held*, including cached replicas that
        // shipped in an earlier iteration.
        let mem = if two_stage {
            held + partial_share
        } else {
            held + out_share
        };
        work.push(TaskWork {
            task_id: task.id,
            recv_bytes: recv,
            mem_bytes: mem,
            flops: flops_per_task,
            job: Box::new(move || kernel.stage1(task, store)),
        });
    }
    let stage1 =
        run_stage(cluster, Phase::Consolidation, work).map_err(|e| enrich_oom(e, plan.root, eq))?;

    // ----- stage 2 (cuboid aggregation across the k-axis) ----------------------
    let outputs: Vec<TaskOut> = match main_mm.filter(|_| two_stage) {
        Some(mm) => {
            let (mut grouped, agg_bytes) = group_partials(&layout, stage1.outputs)?;
            // For a multiplication-rooted plan the output *is* the
            // aggregated partial — counting both would double-charge.
            let out_extra = if compute_node == mm { 0 } else { out_share };
            let mut reducers = Vec::new();
            for task in layout.tasks.iter().filter(|t| t.is_reducer) {
                let mut store = std::mem::take(&mut stores[task.id]);
                // Incoming partials merge block-by-block (streaming), so
                // they add one block of scratch, not a full replica; the
                // declared memory is the store's before the product joins.
                let mem_bytes = store.total_bytes() + partial_share + out_extra;
                if let Some(product) = grouped.remove(&task.group) {
                    store.insert(mm, product);
                }
                reducers.push(TaskWork {
                    task_id: task.group,
                    recv_bytes: agg_bytes.get(&task.group).copied().unwrap_or(0),
                    mem_bytes,
                    flops: flops_per_task,
                    job: Box::new(move || kernel.stage2(task, &store)),
                });
            }
            run_stage(cluster, Phase::Aggregation, reducers)
                .map_err(|e| enrich_oom(e, plan.root, eq))?
                .outputs
        }
        None => stage1.outputs,
    };

    // ----- assemble the result -------------------------------------------------
    assemble(cluster, dag, plan, agg_kind, outputs)
}

/// The plan's aggregation root, if any, and the node whose blocks the tasks
/// compute: the root itself, or the input an aggregation root folds.
fn compute_target(dag: &QueryDag, plan: &PartialPlan) -> (Option<(AggOp, AggShape)>, NodeId) {
    let root = dag.node(plan.root);
    match &root.kind {
        OpKind::FullAgg(op) => (Some((*op, AggShape::Full)), root.inputs[0]),
        OpKind::RowAgg(op) => (Some((*op, AggShape::Row)), root.inputs[0]),
        OpKind::ColAgg(op) => (Some((*op, AggShape::Col)), root.inputs[0]),
        _ => (None, plan.root),
    }
}

/// Carves a fused plan's computation into stage-1 tasks under `strategy`:
/// cuboid tiles for a CFO with a main multiplication, round-robin stripes
/// otherwise.
pub fn task_layout(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &ValueMap,
    strategy: &Strategy,
) -> Layout {
    let (_, compute_node) = compute_target(dag, plan);
    let grid = dag.node(compute_node).meta.grid();
    let main_mm = plan.main_matmul(dag);
    let (main, main_bytes) = match strategy {
        Strategy::Broadcast { .. } => main_input(dag, plan, values),
        _ => None,
    }
    .unzip();
    let (tasks, r, parity) = match (strategy, main_mm) {
        (Strategy::Cuboid { pqr }, Some(mm)) => cuboid_layout(dag, plan, mm, *pqr, compute_node),
        _ => {
            let cfg = cluster.config();
            let slots = cfg.total_tasks();
            let nblocks = (grid.num_blocks() as usize).max(1);
            let ntasks = match strategy {
                Strategy::Broadcast { partition_bytes } => {
                    // BFO's parallelism is bounded by the main matrix's
                    // partition count (paper §6.2: a sparse main under-
                    // utilizes the cluster); more partitions than slots
                    // simply wave-schedule.
                    let main_bytes = main_bytes.unwrap_or(1);
                    (main_bytes.div_ceil((*partition_bytes).max(1)) as usize).clamp(1, nblocks)
                }
                _ => {
                    // Striped operators spawn at least one task per input
                    // partition so per-task memory is bounded by partition
                    // size, as Spark's execution model guarantees.
                    let input_bytes: u64 = plan
                        .external_inputs(dag)
                        .iter()
                        .filter_map(|id| values.get(id))
                        .map(|m| m.actual_size_bytes())
                        .sum();
                    let by_partition = input_bytes.div_ceil(cfg.partition_bytes.max(1)) as usize;
                    slots.min(nblocks).max(by_partition).min(nblocks)
                }
            };
            let tasks = striped_layout(
                grid.block_rows,
                grid.block_cols,
                ntasks,
                full_k(dag, main_mm),
            );
            (tasks, 1, false)
        }
    };
    let broadcast = match strategy {
        Strategy::Broadcast { .. } => plan
            .external_inputs(dag)
            .into_iter()
            .filter(|id| Some(*id) != main && !matches!(dag.node(*id).kind, OpKind::Scalar(_)))
            .collect(),
        _ => BTreeSet::new(),
    };
    Layout {
        tasks,
        compute_node,
        broadcast,
        main_mm,
        r,
        parity,
    }
}

/// Consolidation routing: builds each task's [`LocalStore`] from its
/// [`footprints`] — the paper's cuboid slices (Eq. 4: `L`-space inputs as
/// `(P,1,R)`, `R`-space as `(1,Q,R)`, `O`-space as `(P,Q,1)`) for cuboid
/// tiles, exact block lists through element-wise paths for stripes. Only
/// blocks present in the input are routed, found by walking each input's
/// block list ([`Footprint::present`]) rather than probing every footprint
/// coordinate; broadcast inputs go whole to every task.
///
/// Each distinct `(node, footprint)` slice is built once per unit and its
/// list shared by every task that needs it, and each broadcast input
/// becomes one list for all tasks. On a cluster every task would receive
/// a copy of its own; each store still counts the bytes of every list it
/// holds, so the ledger charges each task's replica all the same.
pub fn route(
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &ValueMap,
    layout: &Layout,
) -> Vec<LocalStore> {
    let mut slices: HashMap<(NodeId, Footprint), Arc<BlockList>> = HashMap::new();
    let broadcast: Vec<(NodeId, Arc<BlockList>)> = layout
        .broadcast
        .iter()
        .filter_map(|&side| Some((side, Arc::new(values.get(&side)?.blocks().clone()))))
        .collect();
    let mut stores = Vec::with_capacity(layout.tasks.len());
    for task in &layout.tasks {
        let needed = footprints(
            dag,
            &plan.ops,
            layout.main_mm,
            task.k_range.clone(),
            layout.compute_node,
            task.out.clone(),
        );
        let mut store = LocalStore::new();
        for (node, fp) in needed {
            if layout.broadcast.contains(&node) {
                continue; // routed whole below
            }
            if let Some(m) = values.get(&node) {
                let list = slices.entry((node, fp)).or_insert_with_key(|(_, fp)| {
                    let blocks = fp.present(m.blocks()).map(|(at, b)| (at, Arc::clone(b)));
                    Arc::new(blocks.collect())
                });
                store.insert(node, Arc::clone(list));
            }
        }
        for (side, list) in &broadcast {
            store.insert(*side, Arc::clone(list));
        }
        stores.push(store);
    }
    stores
}

/// Fills an OOM error's unit provenance — the exec-unit root and the chosen
/// `(P,Q,R)` — which the stage-level executor cannot know.
fn enrich_oom(e: SimError, root: NodeId, eq: Pqr) -> SimError {
    match e {
        SimError::OutOfMemory {
            task,
            needed,
            budget,
            root: None,
            pqr: None,
            site,
        } => SimError::OutOfMemory {
            task,
            needed,
            budget,
            root: Some(root),
            pqr: Some((eq.p, eq.q, eq.r)),
            site,
        },
        other => other,
    }
}

/// Splits `n` block indices into `parts` contiguous chunks (ceil-sized; the
/// tail chunks may be empty).
fn chunks(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let size = n.div_ceil(parts).max(1);
    (0..parts)
        .map(|t| {
            let lo = (t * size).min(n);
            let hi = ((t + 1) * size).min(n);
            lo..hi
        })
        .collect()
}

fn full_k(dag: &QueryDag, main_mm: Option<NodeId>) -> Range<usize> {
    match main_mm {
        Some(mm) => 0..mm_dims(dag, mm).2,
        None => 0..0,
    }
}

/// Cuboid layout: `P·Q·R` tasks tiled over the main multiplication's grid.
/// Returns the tasks, `R` and the coordinate parity.
fn cuboid_layout(
    dag: &QueryDag,
    plan: &PartialPlan,
    mm: NodeId,
    pqr: Pqr,
    compute_node: NodeId,
) -> (Vec<TaskSlice>, usize, bool) {
    let (i, j, k) = mm_dims(dag, mm);
    let parity = coordinate_parity(dag, plan, mm, compute_node);
    let grid = dag.node(compute_node).meta.grid();
    let (rows, cols) = if parity { (j, i) } else { (i, j) };
    debug_assert_eq!((rows, cols), (grid.block_rows, grid.block_cols));
    let (p_chunks, q_chunks, k_chunks) = (chunks(i, pqr.p), chunks(j, pqr.q), chunks(k, pqr.r));

    let mut tasks = Vec::new();
    for (p, pc) in p_chunks.iter().enumerate().take(pqr.p) {
        for (q, qc) in q_chunks.iter().enumerate().take(pqr.q) {
            // The tile's compute blocks are the product of its chunk
            // ranges in mm coordinates, swapped under parity.
            let out = if parity {
                Footprint::product(qc.clone(), pc.clone())
            } else {
                Footprint::product(pc.clone(), qc.clone())
            };
            for (r, kr) in k_chunks.iter().enumerate() {
                tasks.push(TaskSlice {
                    id: tasks.len(),
                    out: out.clone(),
                    k_range: kr.clone(),
                    group: p * pqr.q + q,
                    is_reducer: r == 0,
                });
            }
        }
    }
    (tasks, pqr.r, parity)
}

/// Single-stage layout: stripe the compute grid's blocks over `ntasks`.
fn striped_layout(rows: usize, cols: usize, ntasks: usize, k: Range<usize>) -> Vec<TaskSlice> {
    let ntasks = ntasks.max(1);
    let mut stripes = vec![Vec::new(); ntasks];
    for bi in 0..rows {
        for bj in 0..cols {
            stripes[(bi * cols + bj) % ntasks].push((bi, bj));
        }
    }
    stripes
        .into_iter()
        .enumerate()
        .map(|(id, stripe)| TaskSlice {
            id,
            out: Footprint::blocks(stripe),
            k_range: k.clone(),
            group: id,
            is_reducer: true,
        })
        .collect()
}

/// Walks from the main multiplication up to the compute root, tracking
/// whether coordinates flip (transpose parity). No other multiplication lies
/// on the walk: [`PartialPlan::main_matmul`] only anchors on a
/// multiplication that reaches no other member multiplication through
/// in-plan consumers.
fn coordinate_parity(dag: &QueryDag, plan: &PartialPlan, mm: NodeId, compute_node: NodeId) -> bool {
    let mut current = mm;
    let mut parity = false;
    while current != compute_node {
        let Some(c) = dag
            .consumers(current)
            .iter()
            .copied()
            .find(|c| plan.ops.contains(c))
        else {
            break;
        };
        if matches!(dag.node(c).kind, OpKind::Transpose) {
            parity = !parity;
        }
        current = c;
    }
    parity
}

/// BFO's "main" matrix and its bytes: the non-scalar plan input with the
/// largest materialized footprint (the last of equals), which is
/// repartitioned rather than broadcast. Every external input is in
/// `values` when a unit runs.
pub(crate) fn main_input(
    dag: &QueryDag,
    plan: &PartialPlan,
    values: &ValueMap,
) -> Option<(NodeId, u64)> {
    plan.external_inputs(dag)
        .into_iter()
        .filter(|id| !matches!(dag.node(*id).kind, OpKind::Scalar(_)))
        .filter_map(|id| values.get(&id).map(|m| (id, m.actual_size_bytes())))
        .max_by_key(|&(_, bytes)| bytes)
}

/// The `(P,Q,R)` a strategy is equivalent to in the paper's cost model
/// (Table 1 / Fig. 9): BFO ≈ `(T',T',1)`, RFO ≈ `(I,J,1)`.
fn equivalent_pqr(dag: &QueryDag, plan: &PartialPlan, strategy: &Strategy, layout: &Layout) -> Pqr {
    let one = Pqr { p: 1, q: 1, r: 1 };
    match strategy {
        Strategy::Cuboid { pqr } => *pqr,
        Strategy::Broadcast { .. } => match plan.main_matmul(dag) {
            Some(mm) => {
                let t = layout.tasks.len().max(1);
                let (i, j, _) = mm_dims(dag, mm);
                Pqr {
                    p: t.min(i),
                    q: t.min(j),
                    r: 1,
                }
            }
            None => one,
        },
        Strategy::Replication => match plan.main_matmul(dag) {
            Some(mm) => {
                let (i, j, _) = mm_dims(dag, mm);
                Pqr { p: i, q: j, r: 1 }
            }
            None => one,
        },
    }
}

/// Values per `(p,q)` group of a two-stage layout.
pub type ByGroup<T> = HashMap<usize, T>;

/// Sums stage-1 partials per `(p,q)` group, in task order, into the
/// group's aggregated product. Also returns the bytes each group's reducer
/// receives: every partial of a non-reducer member.
pub fn group_partials(
    layout: &Layout,
    outputs: Vec<TaskOut>,
) -> Result<(ByGroup<BlockList>, ByGroup<u64>), SimError> {
    let mut grouped: ByGroup<BlockList> = HashMap::new();
    let mut agg_bytes: ByGroup<u64> = HashMap::new();
    for (task, parts) in layout.tasks.iter().zip(outputs) {
        let sum = grouped.entry(task.group).or_default();
        for (coord, block) in parts {
            if !task.is_reducer {
                *agg_bytes.entry(task.group).or_default() += block.size_bytes();
            }
            // A dense partial adds into a dense accumulator of its shape in
            // place when the accumulator is not shared: the same
            // `acc + part` per element that `Block::zip` computes.
            if let (Block::Dense(part), Some((shape, acc))) = (&*block, sum.get_mut(coord)) {
                if shape == (part.rows(), part.cols()) {
                    for (a, &b) in acc.iter_mut().zip(part.data()) {
                        *a = BinOp::Add.apply(*a, b);
                    }
                    continue;
                }
            }
            let block = match sum.get(coord) {
                Some(acc) => Arc::new(acc.zip(&block, BinOp::Add)?),
                None => block,
            };
            sum.insert(coord, block);
        }
    }
    Ok((grouped, agg_bytes))
}

/// Collects task outputs into the plan root's matrix, whose block list is
/// built once from every output block. Aggregation partials from different
/// tasks combine with the aggregation operator; every partial except the
/// combiner-local first contribution per slot is charged to the
/// aggregation phase.
fn assemble(
    cluster: &Cluster,
    dag: &QueryDag,
    plan: &PartialPlan,
    agg_kind: Option<(AggOp, AggShape)>,
    outputs: Vec<TaskOut>,
) -> Result<Arc<BlockedMatrix>, SimError> {
    let mut result = Vec::new();
    let mut agg_slots: HashMap<(usize, usize), Arc<Block>> = HashMap::new();
    let mut shuffled = 0u64;
    for blocks in outputs {
        for ((bi, bj), block) in blocks {
            match agg_kind {
                None => {
                    // Consolidation boundary: re-compact so the next unit's
                    // shuffled replica bytes reflect the block's actual nnz.
                    // A block nothing else holds is taken, not copied.
                    result.push(((bi, bj), Arc::new(Arc::unwrap_or_clone(block).compact())));
                }
                Some((op, _)) => match agg_slots.remove(&(bi, bj)) {
                    None => {
                        agg_slots.insert((bi, bj), block);
                    }
                    Some(existing) => {
                        shuffled += block.size_bytes();
                        let combined = existing.zip(&block, agg_binop(op))?;
                        agg_slots.insert((bi, bj), Arc::new(combined));
                    }
                },
            }
        }
    }
    if agg_kind.is_some() {
        // This shuffle happens driver-side rather than through run_stage, so
        // it gets its own stage id (and, when tracing, a synthetic stage
        // span) to keep per-stage byte sums reconciled with the ledger.
        let stage_id = cluster.next_stage_id();
        cluster
            .ledger()
            .charge_labeled(Phase::Aggregation, stage_id, shuffled);
        let obs = fuseme_obs::handle();
        if obs.enabled() {
            let span = obs.scope_span(fuseme_obs::SpanKind::Stage, || {
                format!("assemble-{stage_id}")
            });
            span.set(fuseme_obs::keys::STAGE_ID, stage_id);
            span.set(fuseme_obs::keys::PHASE, "aggregation");
            span.set(fuseme_obs::keys::BYTES, shuffled);
            span.set(fuseme_obs::keys::TASKS, 0u64);
        }
        result.extend(
            agg_slots
                .into_iter()
                .map(|(at, block)| (at, Arc::new(Arc::unwrap_or_clone(block).compact()))),
        );
    }
    let mut result = BlockedMatrix::from_blocks(dag.node(plan.root).meta, result)
        .map_err(|e| SimError::Task(e.to_string()))?;
    result.refresh_density();
    Ok(Arc::new(result))
}

/// Aggregation combine expressed as an element-wise operator (partials
/// combine pointwise).
fn agg_binop(op: AggOp) -> BinOp {
    match op {
        AggOp::Sum => BinOp::Add,
        AggOp::Min => BinOp::Min,
        AggOp::Max => BinOp::Max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseme_matrix::{gen, UnaryOp};
    use fuseme_plan::{evaluate, Bindings, DagBuilder};
    use fuseme_sim::ClusterConfig;

    /// Builds the NMF query with concrete data; returns everything needed to
    /// execute and verify.
    struct Fixture {
        dag: QueryDag,
        plan: PartialPlan,
        values: ValueMap,
        expected: BlockedMatrix,
    }

    fn nmf_fixture(seed: u64) -> Fixture {
        let bs = 5;
        let x = gen::sparse_uniform(30, 30, bs, 0.25, 1.0, 2.0, seed).unwrap();
        let u = gen::dense_uniform(30, 15, bs, 0.1, 1.0, seed + 1).unwrap();
        let v = gen::dense_uniform(30, 15, bs, 0.1, 1.0, seed + 2).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let vt = b.transpose(ve);
        let mm = b.matmul(ue, vt);
        let eps = b.scalar(0.5);
        let add = b.binary(mm, eps, BinOp::Add);
        let lg = b.unary(add, UnaryOp::Log);
        let out = b.binary(xe, lg, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let plan = PartialPlan::new(
            BTreeSet::from([vt.id(), mm.id(), add.id(), lg.id(), out.id()]),
            out.id(),
        );
        let bindings: Bindings = [
            ("X".to_string(), Arc::new(x.clone())),
            ("U".to_string(), Arc::new(u.clone())),
            ("V".to_string(), Arc::new(v.clone())),
        ]
        .into_iter()
        .collect();
        let expected = evaluate(&dag, &bindings).unwrap()[0]
            .as_matrix()
            .unwrap()
            .as_ref()
            .clone();
        let values: ValueMap = [
            (xe.id(), Arc::new(x)),
            (ue.id(), Arc::new(u)),
            (ve.id(), Arc::new(v)),
        ]
        .into_iter()
        .collect();
        Fixture {
            dag,
            plan,
            values,
            expected,
        }
    }

    fn run(strategy: Strategy, fixture: &Fixture) -> Result<Arc<BlockedMatrix>, SimError> {
        let cluster = Cluster::new(ClusterConfig::test_small());
        execute_fused(
            &cluster,
            &fixture.dag,
            &fixture.plan,
            &fixture.values,
            &strategy,
        )
    }

    #[test]
    fn cfo_r1_matches_reference() {
        let f = nmf_fixture(10);
        let out = run(
            Strategy::Cuboid {
                pqr: Pqr { p: 2, q: 3, r: 1 },
            },
            &f,
        )
        .unwrap();
        assert!(out.approx_eq(&f.expected, 1e-9));
    }

    #[test]
    fn cfo_r2_two_stage_matches_reference() {
        let f = nmf_fixture(11);
        let out = run(
            Strategy::Cuboid {
                pqr: Pqr { p: 2, q: 2, r: 2 },
            },
            &f,
        )
        .unwrap();
        assert!(out.approx_eq(&f.expected, 1e-9));
    }

    #[test]
    fn bfo_matches_reference() {
        let f = nmf_fixture(12);
        let out = run(
            Strategy::Broadcast {
                partition_bytes: 1 << 12,
            },
            &f,
        )
        .unwrap();
        assert!(out.approx_eq(&f.expected, 1e-9));
    }

    #[test]
    fn rfo_matches_reference() {
        let f = nmf_fixture(13);
        let out = run(Strategy::Replication, &f).unwrap();
        assert!(out.approx_eq(&f.expected, 1e-9));
    }

    #[test]
    fn all_strategies_agree() {
        let f = nmf_fixture(14);
        let a = run(
            Strategy::Cuboid {
                pqr: Pqr { p: 3, q: 2, r: 2 },
            },
            &f,
        )
        .unwrap();
        let b = run(
            Strategy::Broadcast {
                partition_bytes: 1 << 14,
            },
            &f,
        )
        .unwrap();
        let c = run(Strategy::Replication, &f).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        assert!(b.approx_eq(&c, 1e-9));
    }

    #[test]
    fn cfo_cheaper_comm_than_rfo() {
        let f = nmf_fixture(15);
        let cl_cfo = Cluster::new(ClusterConfig::test_small());
        let cl_rfo = Cluster::new(ClusterConfig::test_small());
        execute_fused(
            &cl_cfo,
            &f.dag,
            &f.plan,
            &f.values,
            &Strategy::Cuboid {
                pqr: Pqr { p: 2, q: 2, r: 1 },
            },
        )
        .unwrap();
        execute_fused(&cl_rfo, &f.dag, &f.plan, &f.values, &Strategy::Replication).unwrap();
        assert!(
            cl_cfo.comm().total() < cl_rfo.comm().total(),
            "CFO {} vs RFO {}",
            cl_cfo.comm().total(),
            cl_rfo.comm().total()
        );
    }

    #[test]
    fn bfo_ooms_on_tight_budget() {
        let f = nmf_fixture(16);
        let mut cfg = ClusterConfig::test_small();
        // Budget below the broadcast footprint (both side matrices whole).
        cfg.mem_per_task = 6_000;
        let cluster = Cluster::new(cfg);
        let err = execute_fused(
            &cluster,
            &f.dag,
            &f.plan,
            &f.values,
            &Strategy::Broadcast {
                partition_bytes: 1 << 12,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        // The CFO squeezes under the same budget by partitioning finer.
        let cluster2 = Cluster::new(cfg);
        let out = execute_fused(
            &cluster2,
            &f.dag,
            &f.plan,
            &f.values,
            &Strategy::Cuboid {
                pqr: Pqr { p: 6, q: 6, r: 3 },
            },
        )
        .unwrap();
        assert!(out.approx_eq(&f.expected, 1e-9));
    }

    #[test]
    fn agg_root_full_sum() {
        // sum((U×V) * X) fused with an aggregation root, vs the interpreter.
        let bs = 4;
        let u = gen::dense_uniform(16, 8, bs, 0.0, 1.0, 20).unwrap();
        let v = gen::dense_uniform(8, 16, bs, 0.0, 1.0, 21).unwrap();
        let x = gen::sparse_uniform(16, 16, bs, 0.3, 1.0, 2.0, 22).unwrap();
        let mut b = DagBuilder::new();
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let xe = b.input("X", *x.meta());
        let mm = b.matmul(ue, ve);
        let prod = b.binary(mm, xe, BinOp::Mul);
        let total = b.full_agg(prod, AggOp::Sum);
        let dag = b.finish(vec![total]);
        let plan = PartialPlan::new(BTreeSet::from([mm.id(), prod.id(), total.id()]), total.id());
        let bindings: Bindings = [
            ("U".to_string(), Arc::new(u.clone())),
            ("V".to_string(), Arc::new(v.clone())),
            ("X".to_string(), Arc::new(x.clone())),
        ]
        .into_iter()
        .collect();
        let expected = evaluate(&dag, &bindings).unwrap()[0].as_scalar().unwrap();
        let values: ValueMap = [
            (ue.id(), Arc::new(u)),
            (ve.id(), Arc::new(v)),
            (xe.id(), Arc::new(x)),
        ]
        .into_iter()
        .collect();
        let cluster = Cluster::new(ClusterConfig::test_small());
        for strategy in [
            Strategy::Cuboid {
                pqr: Pqr { p: 2, q: 2, r: 2 },
            },
            Strategy::Replication,
        ] {
            let out = execute_fused(&cluster, &dag, &plan, &values, &strategy).unwrap();
            let got = out.get(0, 0).unwrap();
            assert!(
                (got - expected).abs() < 1e-9 * expected.abs().max(1.0),
                "{strategy:?}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn two_stage_skips_coordinates_without_a_product() {
        // X * (A %*% B) at (2,2,2), element-wise and under rowSums. A lacks
        // block row 1 and B block column 2, so those product blocks have no
        // k term in any slice though X has a block there; product column 3
        // has terms in the second k-slice only.
        let thinned = |seed, keep: fn(Coord) -> bool| {
            let m = gen::dense_uniform(16, 16, 4, -1.0, 1.0, seed).unwrap();
            let kept = m.blocks().iter().filter(|&(c, _)| keep(c));
            let kept: Vec<_> = kept.map(|(c, b)| (c, Arc::clone(b))).collect();
            Arc::new(BlockedMatrix::from_blocks(*m.meta(), kept).unwrap())
        };
        let mats = [
            thinned(80, |_| true),
            thinned(81, |(i, _)| i != 1),
            thinned(82, |(k, j)| j != 2 && (j != 3 || k >= 2)),
        ];
        let names = ["X", "A", "B"];
        let cluster = Cluster::new(ClusterConfig::test_small());
        let strategy = Strategy::Cuboid {
            pqr: Pqr { p: 2, q: 2, r: 2 },
        };
        for row_sums in [false, true] {
            let mut b = DagBuilder::new();
            let leaves = names.map(|n| b.input(n, *mats[0].meta()));
            let mm = b.matmul(leaves[1], leaves[2]);
            let prod = b.binary(leaves[0], mm, BinOp::Mul);
            let root = if row_sums {
                b.row_agg(prod, AggOp::Sum)
            } else {
                prod
            };
            let dag = b.finish(vec![root]);
            let plan = PartialPlan::new(BTreeSet::from([mm.id(), prod.id(), root.id()]), root.id());
            let bindings: Bindings = names
                .iter()
                .zip(&mats)
                .map(|(n, m)| (n.to_string(), Arc::clone(m)))
                .collect();
            let values: ValueMap = leaves
                .iter()
                .zip(&mats)
                .map(|(e, m)| (e.id(), Arc::clone(m)))
                .collect();
            let expected = evaluate(&dag, &bindings).unwrap()[0]
                .as_matrix()
                .unwrap()
                .as_ref()
                .clone();
            assert_eq!(task_layout(&cluster, &dag, &plan, &values, &strategy).r, 2);
            let out = execute_fused(&cluster, &dag, &plan, &values, &strategy).unwrap();
            assert!(out.approx_eq(&expected, 1e-9), "rowSums: {row_sums}");
            for t in (0..4).filter(|_| !row_sums) {
                assert!(out.block(1, t).is_none() && out.block(t, 2).is_none());
                assert_eq!(out.block(t, 3).is_some(), t != 1);
            }
        }
    }

    #[test]
    fn agg_root_row_and_col() {
        let bs = 4;
        let u = gen::dense_uniform(12, 8, bs, 0.0, 1.0, 30).unwrap();
        let v = gen::dense_uniform(8, 12, bs, 0.0, 1.0, 31).unwrap();
        let mut b = DagBuilder::new();
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let mm = b.matmul(ue, ve);
        let rows = b.row_agg(mm, AggOp::Sum);
        let dag = b.finish(vec![rows]);
        let plan = PartialPlan::new(BTreeSet::from([mm.id(), rows.id()]), rows.id());
        let bindings: Bindings = [
            ("U".to_string(), Arc::new(u.clone())),
            ("V".to_string(), Arc::new(v.clone())),
        ]
        .into_iter()
        .collect();
        let expected = evaluate(&dag, &bindings).unwrap()[0]
            .as_matrix()
            .unwrap()
            .as_ref()
            .clone();
        let values: ValueMap = [(ue.id(), Arc::new(u)), (ve.id(), Arc::new(v))]
            .into_iter()
            .collect();
        let cluster = Cluster::new(ClusterConfig::test_small());
        let out = execute_fused(
            &cluster,
            &dag,
            &plan,
            &values,
            &Strategy::Cuboid {
                pqr: Pqr { p: 3, q: 2, r: 2 },
            },
        )
        .unwrap();
        assert!(out.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn cell_plan_without_matmul() {
        let bs = 4;
        let x = gen::sparse_uniform(16, 16, bs, 0.2, 1.0, 2.0, 40).unwrap();
        let u = gen::dense_uniform(16, 16, bs, 0.5, 1.5, 41).unwrap();
        let v = gen::dense_uniform(16, 16, bs, 0.5, 1.5, 42).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ue = b.input("U", *u.meta());
        let ve = b.input("V", *v.meta());
        let m1 = b.binary(xe, ue, BinOp::Mul);
        let out = b.binary(m1, ve, BinOp::Div);
        let dag = b.finish(vec![out]);
        let plan = PartialPlan::new(BTreeSet::from([m1.id(), out.id()]), out.id());
        let bindings: Bindings = [
            ("X".to_string(), Arc::new(x.clone())),
            ("U".to_string(), Arc::new(u.clone())),
            ("V".to_string(), Arc::new(v.clone())),
        ]
        .into_iter()
        .collect();
        let expected = evaluate(&dag, &bindings).unwrap()[0]
            .as_matrix()
            .unwrap()
            .as_ref()
            .clone();
        let values: ValueMap = [
            (xe.id(), Arc::new(x)),
            (ue.id(), Arc::new(u)),
            (ve.id(), Arc::new(v)),
        ]
        .into_iter()
        .collect();
        let cluster = Cluster::new(ClusterConfig::test_small());
        let out = execute_fused(
            &cluster,
            &dag,
            &plan,
            &values,
            &Strategy::Cuboid {
                pqr: Pqr { p: 1, q: 1, r: 1 },
            },
        )
        .unwrap();
        assert!(out.approx_eq(&expected, 1e-9));
        // Communication: each input shipped exactly once (co-partitioned).
        let total: u64 = values.values().map(|m| m.actual_size_bytes()).sum();
        assert_eq!(cluster.comm().consolidation_bytes, total);
    }

    #[test]
    fn comm_scales_with_replication_factors() {
        // Measured consolidation bytes for the CFO must track the model's
        // R·|X| + Q·|U| + P·|V| shape: raising Q raises U traffic.
        let f = nmf_fixture(50);
        let cl_q1 = Cluster::new(ClusterConfig::test_small());
        let cl_q3 = Cluster::new(ClusterConfig::test_small());
        execute_fused(
            &cl_q1,
            &f.dag,
            &f.plan,
            &f.values,
            &Strategy::Cuboid {
                pqr: Pqr { p: 2, q: 1, r: 1 },
            },
        )
        .unwrap();
        execute_fused(
            &cl_q3,
            &f.dag,
            &f.plan,
            &f.values,
            &Strategy::Cuboid {
                pqr: Pqr { p: 2, q: 3, r: 1 },
            },
        )
        .unwrap();
        assert!(cl_q3.comm().consolidation_bytes > cl_q1.comm().consolidation_bytes);
    }

    #[test]
    fn replica_cache_skips_invariant_shuffles() {
        let f = nmf_fixture(70);
        let mut cluster = Cluster::new(ClusterConfig::test_small());
        cluster.set_replica_cache(Some(64 << 20));
        let strat = Strategy::Cuboid {
            pqr: Pqr { p: 2, q: 3, r: 1 },
        };
        let run = |cl: &Cluster| execute_fused(cl, &f.dag, &f.plan, &f.values, &strat).unwrap();
        let out1 = run(&cluster);
        let after1 = cluster.comm().consolidation_bytes;
        assert!(after1 > 0);
        let out2 = run(&cluster);
        let after2 = cluster.comm().consolidation_bytes;
        // Same inputs at the same layout: every shuffle is skipped and the
        // result is unchanged.
        assert_eq!(after2, after1, "second run must charge no consolidation");
        assert!(out1.approx_eq(&out2, 0.0));
        let stats = cluster.cache_stats().unwrap();
        assert_eq!(stats.misses, 3, "X, U, V admitted on the cold run");
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.saved_bytes, after1);
        // A different (P,Q,R) is a different replica set: misses again.
        execute_fused(
            &cluster,
            &f.dag,
            &f.plan,
            &f.values,
            &Strategy::Cuboid {
                pqr: Pqr { p: 3, q: 2, r: 1 },
            },
        )
        .unwrap();
        let stats = cluster.cache_stats().unwrap();
        assert_eq!(stats.misses, 6);
        assert!(cluster.comm().consolidation_bytes > after2);
        // Invalidation: bumping U's version drops its replica sets at both
        // layouts and forces exactly one re-shuffle at the original one.
        let u_uid = f.values.values().map(|m| m.uid()).max().unwrap_or_default();
        cluster.replica_cache().unwrap().bump_version(u_uid);
        run(&cluster);
        let stats = cluster.cache_stats().unwrap();
        assert_eq!(stats.invalidations, 2);
        assert_eq!(stats.misses, 7);
        assert_eq!(stats.hits, 5);
    }

    #[test]
    fn cuboid_routing_builds_one_list_per_slice() {
        // NMF at (4,5,5): U's slices are (P,1,R), t(V)'s (1,Q,R) and X's
        // (P,Q,1), so 65 lists serve the 300 task inputs.
        let bs = 5;
        let x = gen::sparse_uniform(40, 50, bs, 0.25, 1.0, 2.0, 3).unwrap();
        let u = gen::dense_uniform(40, 25, bs, 0.1, 1.0, 4).unwrap();
        let v = gen::dense_uniform(50, 25, bs, 0.1, 1.0, 5).unwrap();
        let mut b = DagBuilder::new();
        let (xe, ue, ve) = (
            b.input("X", *x.meta()),
            b.input("U", *u.meta()),
            b.input("V", *v.meta()),
        );
        let vt = b.transpose(ve);
        let mm = b.matmul(ue, vt);
        let out = b.binary(xe, mm, BinOp::Mul);
        let dag = b.finish(vec![out]);
        let plan = PartialPlan::new(BTreeSet::from([vt.id(), mm.id(), out.id()]), out.id());
        let values: ValueMap = [(xe.id(), x), (ue.id(), u), (ve.id(), v)]
            .into_iter()
            .map(|(id, m)| (id, Arc::new(m)))
            .collect();
        let cluster = Cluster::new(ClusterConfig::test_small());
        let pqr = Pqr { p: 4, q: 5, r: 5 };
        let layout = task_layout(&cluster, &dag, &plan, &values, &Strategy::Cuboid { pqr });
        let stores = route(&dag, &plan, &values, &layout);
        assert_eq!(stores.len(), 100);
        let distinct = |node: NodeId| {
            let mut lists: Vec<*const BlockList> = stores
                .iter()
                .map(|s| Arc::as_ptr(s.list(node).unwrap()))
                .collect();
            lists.sort_unstable();
            lists.dedup();
            lists.len()
        };
        assert_eq!(distinct(ue.id()), 4 * 5, "U: P·R");
        assert_eq!(distinct(ve.id()), 5 * 5, "t(V): Q·R");
        assert_eq!(distinct(xe.id()), 4 * 5, "X: P·Q");
    }

    #[test]
    fn partials_sum_in_place_as_zip_sums() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.5,
            -2.0,
        ];
        let dense = |shift: usize| {
            let data = (0..specials.len() * specials.len())
                .map(|x| specials[(x / specials.len() + shift * x) % specials.len()])
                .collect();
            Arc::new(Block::Dense(
                DenseBlock::from_vec(specials.len(), specials.len(), data).unwrap(),
            ))
        };
        let (first, second, third) = (dense(0), dense(1), dense(3));
        let zipped = first
            .zip(&second, BinOp::Add)
            .unwrap()
            .zip(&third, BinOp::Add)
            .unwrap();
        let task = |id, is_reducer| TaskSlice {
            id,
            out: Footprint::default(),
            k_range: 0..0,
            group: 0,
            is_reducer,
        };
        let layout = Layout {
            tasks: vec![task(0, true), task(1, false), task(2, false)],
            compute_node: 0,
            broadcast: BTreeSet::new(),
            main_mm: None,
            r: 3,
            parity: false,
        };
        let bits =
            |b: &Block| -> Vec<u64> { b.to_dense().data().iter().map(|v| v.to_bits()).collect() };
        // A unique accumulator is summed in place, a shared one through
        // `zip`, which leaves the other holder's block as it was.
        for shared in [false, true] {
            let acc = Arc::new((*first).clone());
            let held = shared.then(|| Arc::clone(&acc));
            let outputs = vec![
                vec![((0, 0), acc)],
                vec![((0, 0), Arc::clone(&second))],
                vec![((0, 0), Arc::clone(&third))],
            ];
            let (grouped, agg_bytes) = group_partials(&layout, outputs).unwrap();
            let sum = grouped[&0].get((0, 0)).unwrap();
            assert_eq!(bits(sum), bits(&zipped), "shared: {shared}");
            assert_eq!(agg_bytes[&0], second.size_bytes() + third.size_bytes());
            if let Some(held) = held {
                assert_eq!(bits(&held), bits(&first));
            }
        }
    }

    /// Tiles as the grid pass before footprints built them: every compute
    /// block, in row-major order, joins the tile whose chunks hold its
    /// main-multiplication coordinates.
    fn tiles_by_grid_pass(
        rows: usize,
        cols: usize,
        parity: bool,
        p_chunks: &[Range<usize>],
        q_chunks: &[Range<usize>],
    ) -> HashMap<(usize, usize), Vec<(usize, usize)>> {
        let mut tiles: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for bi in 0..rows {
            for bj in 0..cols {
                let (mi, mj) = if parity { (bj, bi) } else { (bi, bj) };
                let p = p_chunks.iter().position(|c| c.contains(&mi));
                let q = q_chunks.iter().position(|c| c.contains(&mj));
                if let (Some(p), Some(q)) = (p, q) {
                    tiles.entry((p, q)).or_default().push((bi, bj));
                }
            }
        }
        tiles
    }

    #[test]
    fn cuboid_tiles_match_grid_pass() {
        // A 7×3 by 3×5 block multiplication: every P, Q in 1..=8 gives
        // uneven chunks, some of them empty.
        for parity in [false, true] {
            let mut b = DagBuilder::new();
            let u = b.input("U", fuseme_matrix::MatrixMeta::dense(7, 3, 1));
            let v = b.input("V", fuseme_matrix::MatrixMeta::dense(3, 5, 1));
            let mm = b.matmul(u, v);
            let top = if parity {
                b.transpose(mm)
            } else {
                b.unary(mm, UnaryOp::Abs)
            };
            let dag = b.finish(vec![top]);
            let plan = PartialPlan::new(BTreeSet::from([mm.id(), top.id()]), top.id());
            let grid = dag.node(top.id()).meta.grid();
            for p in 1..=8 {
                for q in 1..=8 {
                    let pqr = Pqr { p, q, r: 2 };
                    let (tasks, r, got_parity) = cuboid_layout(&dag, &plan, mm.id(), pqr, top.id());
                    assert_eq!((r, got_parity), (2, parity));
                    assert_eq!(tasks.len(), p * q * 2);
                    let old = tiles_by_grid_pass(
                        grid.block_rows,
                        grid.block_cols,
                        parity,
                        &chunks(7, p),
                        &chunks(5, q),
                    );
                    for t in &tasks {
                        let want = old.get(&(t.group / q, t.group % q)).cloned();
                        let got: Vec<_> = t.out.coords().collect();
                        assert_eq!(got, want.unwrap_or_default(), "({p},{q}) {t:?}");
                    }
                }
            }
        }
    }

    /// A singleton plan around one operator, as the driver builds for
    /// nodes outside any fused unit.
    fn singleton(op: NodeId) -> PartialPlan {
        PartialPlan::new(BTreeSet::from([op]), op)
    }

    #[test]
    fn cuboid_mm_matches_reference() {
        let bs = 5;
        let a = gen::dense_uniform(30, 20, bs, -1.0, 1.0, 1).unwrap();
        let b_m = gen::sparse_uniform(20, 25, bs, 0.3, -1.0, 1.0, 2).unwrap();
        let expected = a.matmul(&b_m).unwrap();
        let mut b = DagBuilder::new();
        let ae = b.input("A", *a.meta());
        let be = b.input("B", *b_m.meta());
        let mm = b.matmul(ae, be);
        let dag = b.finish(vec![mm]);
        let values: ValueMap = HashMap::from([(ae.id(), Arc::new(a)), (be.id(), Arc::new(b_m))]);
        let cluster = Cluster::new(ClusterConfig::test_small());
        let model =
            crate::driver::ExecConfig::for_cluster(&cluster, crate::MatmulStrategy::Cfo).model;
        let plan = singleton(mm.id());
        let tree = SpaceTree::build(&dag, &plan);
        let pqr = fuseme_fusion::optimizer::search(&dag, &plan, &tree, &model, &[]).pqr;
        let out = execute_fused(&cluster, &dag, &plan, &values, &Strategy::Cuboid { pqr }).unwrap();
        assert!(out.approx_eq(&expected, 1e-9));
        assert!(pqr.tasks() >= 1);
    }

    #[test]
    fn single_transpose_and_agg() {
        let bs = 4;
        let x = gen::dense_uniform(12, 8, bs, -2.0, 2.0, 3).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let t = b.transpose(xe);
        let cs = b.col_agg(xe, AggOp::Max);
        let dag = b.finish(vec![t, cs]);
        let values: ValueMap = HashMap::from([(xe.id(), Arc::new(x.clone()))]);
        let cluster = Cluster::new(ClusterConfig::test_small());
        let one = Strategy::Cuboid {
            pqr: Pqr { p: 1, q: 1, r: 1 },
        };
        let tr = execute_fused(&cluster, &dag, &singleton(t.id()), &values, &one).unwrap();
        assert!(tr.approx_eq(&x.transpose().unwrap(), 1e-12));
        let mx = execute_fused(&cluster, &dag, &singleton(cs.id()), &values, &one).unwrap();
        assert!(mx.approx_eq(&x.col_agg(AggOp::Max).unwrap(), 1e-12));
    }

    #[test]
    fn single_elementwise_chain_unfused_matches() {
        let bs = 4;
        let x = gen::dense_uniform(8, 8, bs, 0.5, 1.5, 9).unwrap();
        let y = gen::dense_uniform(8, 8, bs, 0.5, 1.5, 10).unwrap();
        let mut b = DagBuilder::new();
        let xe = b.input("X", *x.meta());
        let ye = b.input("Y", *y.meta());
        let mul = b.binary(xe, ye, BinOp::Mul);
        let sq = b.unary(mul, UnaryOp::Sqrt);
        let dag = b.finish(vec![sq]);
        let cluster = Cluster::new(ClusterConfig::test_small());
        let one = Strategy::Cuboid {
            pqr: Pqr { p: 1, q: 1, r: 1 },
        };
        let mut values: ValueMap = HashMap::from([
            (xe.id(), Arc::new(x.clone())),
            (ye.id(), Arc::new(y.clone())),
        ]);
        let mid = execute_fused(&cluster, &dag, &singleton(mul.id()), &values, &one).unwrap();
        values.insert(mul.id(), mid);
        let out = execute_fused(&cluster, &dag, &singleton(sq.id()), &values, &one).unwrap();
        let expected = x.zip(&y, BinOp::Mul).unwrap().map(UnaryOp::Sqrt).unwrap();
        assert!(out.approx_eq(&expected, 1e-12));
        // Unfused execution moved the intermediate across the wire.
        assert!(cluster.comm().consolidation_bytes > x.actual_size_bytes());
    }
}
