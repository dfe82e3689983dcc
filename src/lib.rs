//! Workspace umbrella crate: re-exports the TACO reproduction crates so the
//! examples and integration tests can use a single dependency root.
pub use taco_core as core;
pub use taco_engine as engine;
pub use taco_formula as formula;
pub use taco_grid as grid;
pub use taco_obs as obs;
pub use taco_rtree as rtree;
pub use taco_service as service;
pub use taco_store as store;
pub use taco_workload as workload;
