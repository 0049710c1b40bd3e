//! Physical distributed operators for FuseME and its baselines.
//!
//! Everything executes on the `fuseme-sim` simulated cluster and reuses one
//! shared machinery:
//!
//! * [`kernel`] — the fused-kernel interpreter. Given a task's local block
//!   store it evaluates a partial fusion plan per output block *without
//!   materializing intermediate matrices*, exploits sparsity by skipping
//!   output blocks whose gate is empty; its routing mirror computes the
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
pub use kernel::{KernelCtx, LocalStore};
