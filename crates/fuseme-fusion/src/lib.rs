//! Cuboid-based fusion: the paper's core contribution (§3–§4).
//!
//! * [`plan`] — partial fusion plans and whole-query fusion plans,
//! * [`space`] — the 3-D model space: a plan containing matrix
//!   multiplication decomposes into `MM`/`L`/`R`/`O` subspaces, recursively
//!   for nested multiplications,
//! * [`cost`] — `MemEst` / `NetEst` / `ComEst` (Algorithm 1, Eqs. 3–5) and
//!   the combined `Cost` objective (Eq. 2),
//! * [`optimizer`] — exhaustive and pruning searches for the optimal
//!   `(P*, Q*, R*)` cuboid parameters,
//! * [`mod@cfg`] — the Cuboid-based Fusion plan Generator: exploration
//!   (Algorithm 2) and exploitation (Algorithm 3) phases,
//! * [`gen_like`] — a GEN-style baseline planner (SystemDS): Cell/Outer
//!   templates, avoids fusing large matrix multiplications,
//! * [`folded`] — a MatFast-style baseline fusing only consecutive
//!   element-wise operators.

pub mod cfg;
pub mod cost;
pub mod folded;
pub mod gen_like;
pub mod optimizer;
pub mod plan;
pub mod space;

pub use cfg::{split, split_candidates, Cfg};
pub use cost::{estimate_with_cache, CostModel, Estimates};
pub use optimizer::{
    min_feasible_theta, optimize_exhaustive, search, CachedInput, Pqr, SearchStats,
};
pub use plan::{ExecUnit, FusionPlan, PartialPlan};
pub use space::{input_axes, SpaceTree};
