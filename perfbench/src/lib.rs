//! Seeded end-to-end and per-layer benchmark of the FuseME engine.
//!
//! Three workloads ([`workload::Kind`]) run through the public `Session`
//! and `Engine` API of the `fuseme` crate. [`bench::run`] measures one of
//! them: repeated set-up, an untimed warm-up episode, an untraced timing
//! window, optionally a traced window that attributes wall time to layers,
//! and a closing check against the reference interpreter. `README.md` in
//! this directory lists every metric with the layer and workload it
//! targets.

pub mod bench;
mod layers;
pub mod workload;
