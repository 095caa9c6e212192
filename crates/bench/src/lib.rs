//! Experiment harness reproducing the paper's evaluation (§6).
//!
//! One runner per table/figure (see `src/bin/`), built on shared
//! utilities: calibrated dataset construction ([`datasets`]), wall-clock
//! and modeled-memory measurement ([`measure`]), query workload
//! generation ([`workload`]), and table/JSON reporting ([`report`]).
//! [`multiorder`] models the paper's §8 multiple-order representation
//! for the experiment of the same name; the shipped format is
//! single-order.
//!
//! Scale: the paper's datasets hold 0.27–1.9 M trajectories; the default
//! harness scale is laptop-sized (hundreds of trajectories per dataset)
//! and controlled by the `UTCQ_TRAJS` environment variable. Compression
//! *ratios* are scale-independent (paper Fig. 12a), so the shapes carry.

pub mod datasets;
pub mod measure;
pub mod multiorder;
pub mod report;
pub mod workload;

pub use datasets::{build, BuiltDataset};
pub use measure::timed;
pub use report::Table;
