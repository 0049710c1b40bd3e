//! Logical query plans for FuseME.
//!
//! A matrix query is a DAG (paper §2.1) whose leaves are input matrices or
//! scalar literals and whose internal vertices are the five basic operator
//! types: unary, binary, unary aggregation, binary aggregation (matrix
//! multiplication), and reorganization (transpose). This crate provides:
//!
//! * [`ir`] — the node/operator vocabulary,
//! * [`dag`] — the immutable [`QueryDag`] with structural queries the fusion
//!   planner needs (consumers, topological order, reachability),
//! * [`builder`] — an ergonomic expression API that infers shapes and
//!   sparsity while the DAG is constructed,
//! * [`interp`] — a single-node reference interpreter defining the semantics
//!   every distributed engine must reproduce.

pub mod builder;
pub mod dag;
pub mod interp;
pub mod ir;

pub use builder::{DagBuilder, Expr};
pub use dag::QueryDag;
pub use interp::{evaluate, Bindings, Value};
pub use ir::{Node, NodeId, OpKind};
