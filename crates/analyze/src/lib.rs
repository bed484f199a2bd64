//! `autolearn-analyze`: workspace static analysis.
//!
//! Two subsystems, both dependency-free:
//!
//! * [`lint`] — a source lint engine over the workspace's `.rs` files
//!   with a pluggable [`lint::rules::Rule`] trait, an allowlist
//!   (`crates/analyze/allow.toml` + inline `analyze::allow(...)`
//!   comments) and human / JSON reports. Run it with
//!   `cargo run -p autolearn-analyze -- --workspace` or
//!   `scripts/analyze.sh`.
//! * [`graph`] — a static model-graph validator that propagates shapes
//!   symbolically through a [`graph::ModelSpec`] without allocating
//!   tensors. `autolearn-nn`'s trainer and `autolearn-core`'s pipeline
//!   call [`validate_model`] before any training step runs.
//! * [`contract`] — a static pipeline contract pass over the whole
//!   continuum chain: stage ordering, artifact flow, units of reported
//!   quantities and the tub→model tensor handoff are all checked by
//!   [`contract::validate_pipeline`] before any simulated time is spent.
//!   `autolearn-core`'s `Pipeline::preflight` runs it on every config.
//!
//! This crate must stay at the bottom of the workspace dependency graph
//! (everything may depend on it; it depends on nothing), so keep it free
//! of even the vendored shims.

/// Static pipeline contract pass (stages, artifacts, units, shapes).
pub mod contract;
/// Static model-graph validator (symbolic shape propagation).
pub mod graph;
/// Workspace source lint engine.
pub mod lint;

pub use contract::{validate_pipeline, ContractError, ContractReport, StageSpec};
pub use graph::{validate_model, GraphError, GraphReport, LayerSpec, ModelSpec};
pub use lint::{LintOutcome, Linter};
