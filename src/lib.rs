//! Umbrella crate for the UTCQ reproduction.
//!
//! Re-exports all workspace crates under one roof so examples and
//! integration tests can use a single dependency. The public API lives
//! in [`utcq_core`] (the owned, `Send + Sync` [`utcq_core::Store`] of
//! N ≥ 1 partitions behind the [`utcq_core::QueryTarget`] surface, plus
//! the [`utcq_core::serve`] TCP query service); see the
//! repository `README.md` and `docs/ARCHITECTURE.md` for the tour.
pub use utcq_audit as audit;
pub use utcq_bitio as bitio;
pub use utcq_core as core;
pub use utcq_datagen as datagen;
pub use utcq_matcher as matcher;
pub use utcq_network as network;
pub use utcq_ted as ted;
pub use utcq_traj as traj;
