//! Physical distributed operators for FuseME and its baselines.
//!
//! Everything executes on the `fuseme-sim` simulated cluster and reuses one
//! shared machinery:
//!
//! * [`kernel`] — fused kernels as block programs. Each exec unit lowers
//!   its partial fusion plan once into a topologically ordered program over
//!   reusable slots plus a compiled support rule; each task then computes
//!   its output blocks *without materializing intermediate matrices*,
//!   visiting only the blocks a sparse gate lets through, found from the
//!   blocks present in its local store. Its routing mirror computes the
//!   input blocks a whole task needs in closed form, once per plan node.
//! * [`fused_op`] — the three distributed fused operators: the paper's CFO
//!   (cuboid `(P,Q,R)` partitioning, two-stage execution when `R > 1`), and
//!   the baseline BFO (broadcast) and RFO (replication). DistME's CuboidMM
//!   is the CFO applied to a single-multiplication plan, and plan nodes
//!   outside any fused unit run as singleton plans through the same path.
//! * [`driver`] — executes a whole [`fuseme_fusion::FusionPlan`] over named
//!   inputs, materializing unit outputs and collecting run statistics.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod driver;
pub mod fused_op;
pub mod kernel;

pub use driver::{execute_plan, EngineStats, ExecConfig, MatmulStrategy, OptOutcome};
pub use fused_op::Strategy;
pub use kernel::{BlockProgram, LocalStore};
