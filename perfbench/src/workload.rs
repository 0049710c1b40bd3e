//! The three workloads: seeded inputs, one episode of operations through
//! the public `Session`/`Engine` API, and the checks on what it produced.

use std::sync::Arc;
use std::time::Instant;

use fuseme::prelude::{
    Bindings, Block, BlockedMatrix, ClusterConfig, Engine, FusionPlan, QueryDag, Session,
};
use fuseme_bench::Scale;
use fuseme_fusion::CostModel;
use fuseme_workloads::gnmf::Gnmf;
use fuseme_workloads::nmf::SimpleNmf;
use fuseme_workloads::YAHOO_MUSIC;

/// GNMF's multiplicative update with `+ 1e-9` on both denominators.
///
/// The stock `Gnmf::update_script()` turns `U` and `V` into NaN from the
/// second iteration on at YahooMusic shape: about a fifth of the users have
/// no ratings, the first `V` update sets their rows to 0, and the next one
/// divides 0 by 0 for them.
pub const GNMF_UPDATE: &str = "Un = U * (t(V) %*% X) / ((t(V) %*% V) %*% U + 1e-9)\n\
                               Vn = V * (X %*% t(Un)) / (V %*% (Un %*% t(Un)) + 1e-9)\n\
                               output Un, Vn";

/// GNMF's loss `‖X − V·U‖²`, queried after every update.
pub const GNMF_LOSS: &str = "err = sum((X - V %*% U) ^ 2)";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 13's NMF query, split along k: consolidation routing dominates.
    NmfCuboid,
    /// Fig. 14's GNMF iterations with the replica cache armed.
    GnmfLoop,
    /// The NMF query at Fig. 12(c)'s shape: block kernels dominate.
    DenseGemm,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::NmfCuboid, Kind::GnmfLoop, Kind::DenseGemm];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NmfCuboid => "nmf-cuboid",
            Kind::GnmfLoop => "gnmf-loop",
            Kind::DenseGemm => "dense-gemm",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The queries a workload runs, with their shapes.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// `O = X * log(U × Vᵀ + 1e-8)` once per operation.
    Nmf(SimpleNmf),
    /// One GNMF update, then the loss query, per operation.
    Gnmf(Gnmf),
}

/// One script of an operation, and the outputs it rebinds by name.
struct Step {
    script: &'static str,
    rebind: &'static [(&'static str, usize)],
}

impl Family {
    fn steps(&self) -> Vec<Step> {
        match self {
            Family::Nmf(_) => vec![Step {
                script: SimpleNmf::script(),
                rebind: &[],
            }],
            Family::Gnmf(_) => vec![
                Step {
                    script: GNMF_UPDATE,
                    rebind: &[("U", 0), ("V", 1)],
                },
                Step {
                    script: GNMF_LOSS,
                    rebind: &[],
                },
            ],
        }
    }
}

/// Everything that defines one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Queries and shapes.
    pub family: Family,
    /// The simulated cluster.
    pub cluster: ClusterConfig,
    /// Replica-cache budget in bytes, when the cache is armed.
    pub cache_budget: Option<u64>,
    /// Operations per episode. Each episode starts from a fresh session, so
    /// its `j`-th operation repeats bit for bit in every episode.
    pub ops_per_episode: usize,
}

fn scale(divisor: usize) -> Scale {
    Scale::new(divisor).expect("the benchmark's scale divisors divide 1000")
}

/// Cachesweep's "on" budget: the task memory of the whole cluster.
fn cluster_memory(cluster: &ClusterConfig) -> u64 {
    cluster.mem_per_task * cluster.total_tasks() as u64
}

impl Spec {
    /// The workload at the size the benchmark measures.
    pub fn full(kind: Kind) -> Spec {
        match kind {
            Kind::NmfCuboid => {
                // Fig. 13's 1M × 5K × 1M at scale 250: 4000 × 4000, k = 20,
                // 4 × 4 blocks.
                let s = scale(250);
                let query = SimpleNmf {
                    rows: s.dim(1_000_000),
                    cols: s.dim(1_000_000),
                    k: s.dim(5_000),
                    block_size: s.block_size(),
                    density: 0.0002,
                };
                Spec::nmf(query, s.paper_cluster())
            }
            Kind::GnmfLoop => {
                // Fig. 14's YahooMusic at scale 250: 7292 × 546, k = 12.
                let s = scale(250);
                let (users, items) = YAHOO_MUSIC.scaled_dims(250, s.block_size());
                let cluster = s.factor_cluster(8);
                Spec {
                    family: Family::Gnmf(Gnmf {
                        users,
                        items,
                        factor: s.factor(200),
                        block_size: s.block_size(),
                        density: YAHOO_MUSIC.density(),
                    }),
                    cluster,
                    cache_budget: Some(cluster_memory(&cluster)),
                    ops_per_episode: 3,
                }
            }
            Kind::DenseGemm => {
                // Fig. 12(c)'s 100K × 2K × 100K at density 0.05, scale 20:
                // 5000 × 5000, k = 100, 50 × 50 blocks.
                let s = scale(20);
                let query = SimpleNmf {
                    rows: s.dim(100_000),
                    cols: s.dim(100_000),
                    k: s.dim(2_000),
                    block_size: s.block_size(),
                    density: 0.05,
                };
                Spec::nmf(query, s.paper_cluster())
            }
        }
    }

    /// A fixture of the same workload small enough for the self-tests: the
    /// same scripts, episode length and cache posture, on a small cluster.
    pub fn smoke(kind: Kind) -> Spec {
        let cluster = ClusterConfig::test_small().with_mem_per_task(256 << 20);
        let family = match kind {
            Kind::NmfCuboid => Family::Nmf(SimpleNmf {
                rows: 48,
                cols: 40,
                k: 8,
                block_size: 4,
                density: 0.05,
            }),
            // Sparse enough that some users have no ratings, so the
            // update's guard is exercised.
            Kind::GnmfLoop => Family::Gnmf(Gnmf {
                users: 48,
                items: 24,
                factor: 4,
                block_size: 4,
                density: 0.08,
            }),
            Kind::DenseGemm => Family::Nmf(SimpleNmf {
                rows: 40,
                cols: 40,
                k: 20,
                block_size: 10,
                density: 0.3,
            }),
        };
        let full = Spec::full(kind);
        Spec {
            family,
            cluster,
            cache_budget: full.cache_budget.map(|_| cluster_memory(&cluster)),
            ..full
        }
    }

    fn nmf(query: SimpleNmf, cluster: ClusterConfig) -> Spec {
        Spec {
            family: Family::Nmf(query),
            cluster,
            cache_budget: None,
            ops_per_episode: 1,
        }
    }

    fn session(&self) -> Session {
        let mut session = Session::new(Engine::fuseme(self.cluster));
        session.set_replica_cache(self.cache_budget);
        session
    }

    /// Generates the seeded inputs and binds them into a fresh session: the
    /// work `setup_s` times.
    pub fn setup(&self, seed: u64) -> Result<Prepared, String> {
        let mut session = self.session();
        match self.family {
            Family::Nmf(query) => {
                for (name, matrix) in query.generate(seed).map_err(|e| e.to_string())? {
                    session.bind_shared(&name, matrix);
                }
            }
            Family::Gnmf(gnmf) => gnmf
                .bind_inputs(&mut session, seed)
                .map_err(|e| e.to_string())?,
        }
        let mut inputs: Vec<_> = session.bindings().into_iter().collect();
        inputs.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Prepared {
            spec: *self,
            inputs,
        })
    }
}

/// A workload after set-up: its spec and its seeded inputs.
pub struct Prepared {
    spec: Spec,
    inputs: Vec<(String, Arc<BlockedMatrix>)>,
}

impl Prepared {
    /// The seeded inputs, by name.
    pub fn inputs(&self) -> &[(String, Arc<BlockedMatrix>)] {
        &self.inputs
    }

    /// Runs one episode: a fresh session bound to the set-up's inputs, then
    /// `ops_per_episode` operations.
    pub fn episode(&self) -> Result<Episode, String> {
        let mut session = self.spec.session();
        for (name, matrix) in &self.inputs {
            session.bind_shared(name, Arc::clone(matrix));
        }
        let steps = self.spec.family.steps();
        let ops = (0..self.spec.ops_per_episode)
            .map(|_| run_op(&mut session, &steps))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = session.engine();
        let cluster = engine.cluster();
        let (cache_hits, cache_misses) =
            session.cache_stats().map_or((0, 0), |c| (c.hits, c.misses));
        let ledger = Ledger {
            sim_s: cluster.elapsed_secs(),
            bytes: cluster.comm().total(),
            flops: cluster.ledger().flops_total(),
            stages: cluster.ledger().stage_breakdown().len() as u64,
            units: ops.iter().map(|op| op.units).sum(),
            cache_hits,
            cache_misses,
        };
        Ok(Episode {
            model: engine.exec_config().model,
            ledger,
            ops,
        })
    }
}

/// Runs one operation's scripts on `session`, timing each public call.
fn run_op(session: &mut Session, steps: &[Step]) -> Result<Op, String> {
    let start = Instant::now();
    let mut op = Op::default();
    for step in steps {
        let t = Instant::now();
        let dag = session
            .compile_script(step.script)
            .map_err(|e| e.to_string())?;
        op.compile_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let plan = session.engine().plan(&dag);
        op.plan_s += t.elapsed().as_secs_f64();
        let inputs = session.bindings();
        let t = Instant::now();
        let out = session
            .engine()
            .run_plan(&dag, &plan, &inputs)
            .map_err(|e| e.to_string())?;
        op.run_s += t.elapsed().as_secs_f64();
        for &(name, idx) in step.rebind {
            let value = out
                .outputs
                .get(idx)
                .ok_or_else(|| format!("no output #{idx} to rebind"))?;
            session.bind_shared(name, Arc::clone(value));
        }
        op.units += (out.stats.fused_units + out.stats.single_units) as u64;
        op.queries.push(Executed {
            dag,
            plan,
            inputs,
            outputs: out.outputs,
        });
    }
    op.wall_s = start.elapsed().as_secs_f64();
    (op.digest, op.finite) = digest(op.queries.iter().flat_map(|q| &q.outputs));
    Ok(op)
}

/// One operation, with a timer around each public call.
#[derive(Default)]
pub struct Op {
    /// Wall seconds of the whole operation.
    pub wall_s: f64,
    /// Seconds in `Session::compile_script`.
    pub compile_s: f64,
    /// Seconds in `Engine::plan`.
    pub plan_s: f64,
    /// Seconds in `Engine::run_plan`.
    pub run_s: f64,
    /// Exec units the driver ran.
    pub units: u64,
    /// [`digest`] of every output.
    pub digest: u64,
    /// Whether every output value is finite.
    pub finite: bool,
    /// The queries run, with their inputs and outputs.
    pub queries: Vec<Executed>,
}

/// One query as executed: enough to replay its cuboid search and to re-run
/// it on the reference interpreter.
pub struct Executed {
    /// The compiled query.
    pub dag: QueryDag,
    /// The fusion plan it ran with.
    pub plan: FusionPlan,
    /// The bindings it ran on.
    pub inputs: Bindings,
    /// Its outputs, in root order.
    pub outputs: Vec<Arc<BlockedMatrix>>,
}

impl Executed {
    /// Re-runs the query on the reference interpreter and compares each
    /// output within `tol`, absolute or relative.
    pub fn check_reference(&self, tol: f64) -> Result<(), String> {
        let reference =
            fuseme_plan::evaluate(&self.dag, &self.inputs).map_err(|e| e.to_string())?;
        if reference.len() != self.outputs.len() {
            return Err(format!(
                "{} outputs, the reference interpreter gave {}",
                self.outputs.len(),
                reference.len()
            ));
        }
        for (i, (want, got)) in reference.iter().zip(&self.outputs).enumerate() {
            let want = want.as_matrix().map_err(|e| e.to_string())?;
            if !got.approx_eq(want, tol) {
                return Err(format!(
                    "output {i} differs from the reference interpreter beyond {tol:e}"
                ));
            }
        }
        Ok(())
    }
}

/// Digest of the exact output values, independent of block format and of
/// entry order: per output, a wrapping sum of one hash per non-zero
/// `(row, column, bits)`, with every NaN hashed as one bit pattern and -0.0
/// counted as zero. Also reports whether every value is finite.
pub fn digest<'a>(outputs: impl IntoIterator<Item = &'a Arc<BlockedMatrix>>) -> (u64, bool) {
    let mut digest = 0u64;
    let mut finite = true;
    for (i, m) in outputs.into_iter().enumerate() {
        let shape = m.shape();
        let bs = m.meta().block_size;
        let mut sum = 0u64;
        let mut add = |r: usize, c: usize, v: f64| {
            if v != 0.0 {
                finite &= v.is_finite();
                let bits = if v.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    v.to_bits()
                };
                sum = sum.wrapping_add(mix(mix((r * shape.cols + c) as u64) ^ bits));
            }
        };
        for (bi, bj, block) in m.iter_blocks() {
            let (r0, c0) = (bi * bs, bj * bs);
            match block.as_ref() {
                Block::Dense(d) => {
                    for (k, &v) in d.data().iter().enumerate() {
                        add(r0 + k / d.cols(), c0 + k % d.cols(), v);
                    }
                }
                Block::Sparse(s) => {
                    for (r, c, v) in s.iter() {
                        add(r0 + r, c0 + c, v);
                    }
                }
            }
        }
        let dims = ((shape.rows as u64) << 32) | shape.cols as u64;
        digest = mix(digest ^ mix(i as u64) ^ mix(dims) ^ sum);
    }
    (digest, finite)
}

/// SplitMix64's output function.
fn mix(x: u64) -> u64 {
    let x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the simulated cluster recorded over one episode. Every field is
/// deterministic: the episodes of one set-up agree exactly, traced or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    /// Simulated elapsed seconds.
    pub sim_s: f64,
    /// Consolidation plus aggregation bytes.
    pub bytes: u64,
    /// Declared FLOPs.
    pub flops: u64,
    /// Stages charged to the ledger.
    pub stages: u64,
    /// Exec units the driver ran.
    pub units: u64,
    /// Replica-cache hits.
    pub cache_hits: u64,
    /// Replica-cache misses.
    pub cache_misses: u64,
}

/// One episode's operations and what the simulated cluster recorded.
pub struct Episode {
    /// The operations, in order.
    pub ops: Vec<Op>,
    /// The cluster's ledger at the end of the episode.
    pub ledger: Ledger,
    /// The engine's cost model, which the cuboid-search replay needs.
    pub model: CostModel,
}
