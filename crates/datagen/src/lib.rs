//! Synthetic NCUT dataset generation for the UTCQ reproduction.
//!
//! The paper's Denmark / Chengdu / Hangzhou taxi datasets are proprietary;
//! this crate generates statistically equivalent stand-ins. Each
//! [`profile::DatasetProfile`] pins the distributions the paper's
//! algorithms are sensitive to — default sample interval and its deviation
//! mix (Fig. 4a), instances per trajectory and edges per instance
//! (Table 5), and intra-trajectory path similarity (Fig. 4b) — and
//! [`generate::generate`] produces a road network plus a valid dataset
//! from them, deterministically per seed.
//!
//! [`transform`] hosts the sweeps the evaluation needs (instance-count,
//! length, and data-size fractions), and [`raw`] synthesizes noisy GPS
//! observations for the map-matching pipeline.
//!
//! # Corpus size and generation cost
//!
//! Per profile, a corpus of 80,000 trajectories at seed 7 (release build,
//! codegen-units 1, best of 3 runs on a 2-vCPU x86-64 box). "Before" is
//! the generator with a Dijkstra that allocated its arrays per call, a
//! hashed dedup signature per candidate and per-step sets in the walk;
//! "after" is this one, which returns the same trajectories bit for bit:
//!
//! | profile | network (vertices / edges) | instances × edges | raw size per trajectory | µs per trajectory, before → after | raw MB/s, before → after |
//! |---|---|---|---|---|---|
//! | `dk` | 2,304 / 5,906 | 8.7 × 15.3 | 20.7 kB | 76.7 → 28.1 | 270 → 737 |
//! | `cd` | 1,600 / 5,184 | 3.0 × 11.4 | 0.78 kB | 8.07 → 4.19 | 97 → 187 |
//! | `hz` | 1,296 / 4,138 | 13.4 × 13.9 | 2.30 kB | 32.8 → 18.1 | 70 → 127 |
//! | `tiny` | 64 / 196 | 3.9 × 8.9 | 0.81 kB | 7.22 → 3.81 | 112 → 212 |
//!
//! The output is pinned: `tests/golden.rs` folds every field of
//! `generate(profile, 2_000, 7)` (ids, times, probability bits, paths,
//! sample indices and relative-distance bits) into one FNV-1a digest per
//! profile, so a change that moves one RNG draw or float bit fails it.

pub mod generate;
pub mod instances;
pub mod profile;
pub mod raw;
pub mod route;
pub mod times;
pub mod transform;

pub use generate::{generate, generate_network, generate_on_network, GenOptions};
pub use profile::DatasetProfile;
