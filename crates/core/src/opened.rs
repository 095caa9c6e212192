//! [`Opened`] — open *a file*, get the live handle.
//!
//! Every front end (the CLI, the [`crate::serve`] server, benchmarks)
//! wants to open a container and use it as a live handle. [`Opened`] is
//! a [`Store`] opened from a file, tagged with the kind of store it
//! holds (with or without a routing policy), and derefs to that
//! [`Store`], so a `&Opened` *is* the query, ingest and durability
//! surface. Older containers open only after `utcq migrate`.
//!
//! The module also owns the **shared presentation layer**:
//! [`InfoReport`] is the one description of a container both the CLI's
//! `utcq info` text output and the serve protocol's `info` response are
//! derived from — the numbers cannot drift between the two because both
//! render the same struct (`tests/serve.rs` additionally diffs the
//! online and offline outputs byte for byte).

use std::path::Path;
use std::sync::Arc;

use utcq_traj::size::SizeBreakdown;

use crate::compress::{CompressedDataset, Ratios};
use crate::error::Error;
use crate::query::QueryTarget;
use crate::shard::ShardSpec;
use crate::snapshot::{Partition, Snapshot};
use crate::storage::{Sections, FRAMING};
use crate::store::Store;
use crate::wal::WalConfig;

/// A container opened as a live handle. Both variants hold the one
/// [`Store`] type; the variant records only whether it has a routing
/// policy.
///
/// Boxed: a `Store` is a few hundred bytes of inline headers.
///
/// ```no_run
/// use utcq_core::opened::Opened;
/// use utcq_core::query::{PageRequest, QueryTarget};
///
/// # fn main() -> Result<(), utcq_core::Error> {
/// // self-contained and sharded containers open through the same call …
/// let opened = Opened::open("data.utcq")?;
/// // … and answer through the same query surface.
/// let page = opened.where_query(7, 71_582, 0.25, PageRequest::first(64))?;
/// println!("{} hits", page.items.len());
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub enum Opened {
    /// A store without a routing policy (v7 container).
    Single(Box<Store>),
    /// A store with a routing policy (v3 container).
    Sharded(Box<Store>),
}

impl Opened {
    /// Opens a self-contained or sharded container with
    /// [`Store::open`], as [`Opened::Sharded`] if the store has a routing
    /// policy. An older container fails with the error that names
    /// `utcq migrate` ([`crate::storage::StorageError::NeedsMigrate`]).
    ///
    /// ```no_run
    /// use utcq_core::QueryTarget;
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// let opened = utcq_core::Opened::open("data.utcq")?;
    /// println!("{} trajectories ({})", opened.len(), opened.info().shape());
    /// # Ok(()) }
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let store = Box::new(Store::open(path)?);
        Ok(if store.has_policy() {
            Opened::Sharded(store)
        } else {
            Opened::Single(store)
        })
    }

    /// Opens a container of either shape with a write-ahead log
    /// sidecar: any batches in the log are replayed on top of the
    /// container (byte-identical to having ingested them live), a torn
    /// final record is truncated away, and subsequent
    /// [`Store::ingest`] calls append to the log before publishing.
    /// The container path becomes the checkpoint target unless `cfg`
    /// names another.
    pub fn open_durable(path: impl AsRef<Path>, mut cfg: WalConfig) -> Result<Self, Error> {
        let opened = Self::open(&path)?;
        if cfg.checkpoint_to.is_none() {
            cfg.checkpoint_to = Some(path.as_ref().to_path_buf());
        }
        opened.attach_wal(cfg)?;
        Ok(opened)
    }

    /// The read surface of the opened store. `Opened` also derefs to the
    /// [`Store`] itself — queries, ingest, durability and `info`.
    pub fn target(&self) -> &(dyn QueryTarget + 'static) {
        &**self
    }
}

impl std::ops::Deref for Opened {
    type Target = Store;

    fn deref(&self) -> &Store {
        let (Opened::Single(store) | Opened::Sharded(store)) = self;
        store
    }
}

/// Raw and compressed footprints summed across partitions.
pub(crate) fn summed_sizes(parts: &[Arc<Partition>]) -> (SizeBreakdown, SizeBreakdown) {
    let mut raw = SizeBreakdown::default();
    let mut compressed = SizeBreakdown::default();
    for part in parts {
        raw.add(&part.compressed().raw);
        compressed.add(&part.compressed().compressed);
    }
    (raw, compressed)
}

/// The human-readable label of a recorded shard policy — `utcq info`'s
/// `policy` field and the serve `info` response both use it.
pub fn policy_label(spec: Option<ShardSpec>) -> String {
    match spec {
        Some(ShardSpec::ByTime { interval_s }) => format!("time(interval_s={interval_s})"),
        Some(ShardSpec::ByRegion { grid_n }) => format!("region(grid_n={grid_n})"),
        None => "custom".to_string(),
    }
}

/// The "format" line `utcq info` prints under the report: the version
/// byte(s) the file holds ([`crate::storage::versions`]: the container's,
/// then each shard blob's).
pub fn render_format(versions: &[u8]) -> String {
    let Some((outer, shards)) = versions.split_first() else {
        return String::new();
    };
    let mut out = format!("  format:           v{outer}");
    if !shards.is_empty() {
        let shards = shards.iter().map(|v| format!("v{v}"));
        out += &format!(" directory, shards {}", Vec::from_iter(shards).join(" "));
    }
    out + "\n"
}

/// The "container sections" table `utcq info` prints under the report:
/// bytes and bytes per trajectory of each part of the container these
/// partitions save as, summed over them (a v3 file adds only its
/// directory), the dataset framing field by field. Each partition is
/// written into a sink and the writer's own counters are read, so the
/// table cannot drift from the format.
pub fn render_sections(partitions: &[Arc<Partition>]) -> Result<String, Error> {
    let count = |part: &Arc<Partition>| part.write_counted(&mut std::io::sink());
    let counted = partitions
        .iter()
        .map(count)
        .collect::<Result<Vec<Sections>, _>>()?;
    let trajectories: usize = partitions.iter().map(|part| part.len()).sum();
    let sum = |part: &dyn Fn(&Sections) -> u64| counted.iter().map(part).sum::<u64>();
    let mut rows = vec![
        ("network", sum(&|s| s.network)),
        ("payload bits", sum(&|s| s.payload)),
    ];
    for (k, label) in FRAMING.into_iter().enumerate() {
        // bounds: `framing` has a slot per field of FRAMING
        rows.push((label, sum(&|s| s.framing[k])));
    }
    rows.extend([
        ("temporal", sum(&|s| s.temporal)),
        ("ref tuples", sum(&|s| s.ref_tuples)),
        ("nref tuples", sum(&|s| s.nref_tuples)),
    ]);
    let rows = rows
        .into_iter()
        .map(|(label, bits)| (label, bits as f64 / 8.0));
    let rows = Vec::from_iter(rows);
    let title = "container sections (as written)";
    Ok(render_table(title, &rows, trajectories))
}

/// The "resident" table `utcq info` prints under the sections: heap
/// bytes and bytes per trajectory of each part a store keeps in memory
/// once opened, its partitions' summed and its id map once
/// ([`Snapshot::resident`]; the road network and the decode cache are
/// not counted).
pub fn render_resident(snap: &Snapshot) -> String {
    let rows = snap.resident().0.into_iter();
    let rows = Vec::from_iter(rows.map(|(part, bytes)| (part, bytes as f64)));
    render_table("resident (heap, once opened)", &rows, snap.len())
}

/// `title`, one line per `(label, bytes)` row, and their total.
fn render_table(title: &str, rows: &[(&str, f64)], trajectories: usize) -> String {
    use std::fmt::Write as _;
    let total = rows.iter().map(|(_, bytes)| bytes).sum();
    let mut out = format!("{title}:\n");
    for (label, bytes) in rows.iter().copied().chain([("total", total)]) {
        let _ = writeln!(
            out,
            "  {:<19} {bytes:>12.0} B {:>9.1} B/trajectory",
            format!("{label}:"),
            bytes / trajectories.max(1) as f64
        );
    }
    out
}

/// Per-shard occupancy line of an [`InfoReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// Trajectories owned by this shard.
    pub trajectories: usize,
    /// The shard's total compression ratio.
    pub ratio: f64,
}

/// The sharding section of an [`InfoReport`] — present only for v3
/// containers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingInfo {
    /// Routing policy label (see [`policy_label`]).
    pub policy: String,
    /// Per-shard occupancy, in directory order.
    pub shards: Vec<ShardInfo>,
}

/// Everything `utcq info` prints and the serve `info` response carries —
/// derived once from the container, rendered two ways.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InfoReport {
    /// Dataset label recorded in the container.
    pub name: String,
    /// Total trajectories (across shards, for a sharded container).
    pub trajectories: usize,
    /// Total instances across all trajectories.
    pub instances: usize,
    /// Error bound `ηD`.
    pub eta_d: f64,
    /// Error bound `ηp`.
    pub eta_p: f64,
    /// Pivot count used at compression time.
    pub n_pivots: usize,
    /// Uncompressed footprint in KiB.
    pub raw_kib: u64,
    /// Compressed footprint in KiB.
    pub compressed_kib: u64,
    /// Total compression ratio.
    pub ratio: f64,
    /// The sharding section; `None` for single-store containers.
    pub sharding: Option<ShardingInfo>,
}

fn instance_count(cds: &CompressedDataset) -> usize {
    cds.trajectories.iter().map(|t| t.instance_count()).sum()
}

impl InfoReport {
    /// A report over one compressed dataset (a single-store container, or
    /// one partition of a store, to which [`InfoReport::over`] adds the
    /// rest).
    fn from_dataset(cds: &CompressedDataset) -> Self {
        InfoReport {
            name: cds.name.clone(),
            trajectories: cds.trajectories.len(),
            instances: instance_count(cds),
            eta_d: cds.params.eta_d,
            eta_p: cds.params.eta_p,
            n_pivots: cds.params.n_pivots,
            raw_kib: cds.raw.total() / 8 / 1024,
            compressed_kib: cds.compressed.total() / 8 / 1024,
            ratio: cds.ratios().total,
            sharding: None,
        }
    }

    /// A report over every partition of a store; `policy` is the
    /// routing-policy label of a sharded one. Parameters and the dataset
    /// label are every partition's, totals span all of them.
    pub fn over(parts: &[Arc<Partition>], policy: Option<String>) -> Self {
        let Some((first, rest)) = parts.split_first() else {
            return InfoReport::default();
        };
        let mut report = InfoReport::from_dataset(first.compressed());
        for part in rest {
            let cds = part.compressed();
            report.trajectories += cds.trajectories.len();
            report.instances += instance_count(cds);
        }
        let (raw, compressed) = summed_sizes(parts);
        report.raw_kib = raw.total() / 8 / 1024;
        report.compressed_kib = compressed.total() / 8 / 1024;
        report.ratio = Ratios::from_sizes(&raw, &compressed).total;
        report.sharding = policy.map(|policy| ShardingInfo {
            policy,
            shards: parts
                .iter()
                .map(|part| ShardInfo {
                    trajectories: part.len(),
                    ratio: part.compressed().ratios().total,
                })
                .collect(),
        });
        report
    }

    /// The exact text `utcq info` prints. Kept here — next to the
    /// struct the serve response serializes — so the two presentations
    /// cannot drift apart.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "container: dataset '{}' ({})", self.name, self.shape());
        let _ = writeln!(out, "  trajectories:     {}", self.trajectories);
        let _ = writeln!(out, "  instances:        {}", self.instances);
        let _ = writeln!(
            out,
            "  ηD = {}, ηp = {}, pivots = {}",
            self.eta_d, self.eta_p, self.n_pivots
        );
        let _ = writeln!(out, "  raw:              {} KiB", self.raw_kib);
        let _ = writeln!(out, "  compressed:       {} KiB", self.compressed_kib);
        let _ = writeln!(out, "  ratio:            {:.2}", self.ratio);
        if let Some(sh) = &self.sharding {
            let _ = writeln!(
                out,
                "  shards:           {} (policy {})",
                sh.shards.len(),
                sh.policy
            );
            for (i, s) in sh.shards.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  shard {i}: {} trajectories, ratio {:.2}",
                    s.trajectories, s.ratio
                );
            }
        }
        out
    }

    /// `"single"` or `"sharded"` (the store has a routing policy) — the
    /// label `utcq info` and the serve protocol's `info` response print.
    pub fn shape(&self) -> &'static str {
        if self.sharding.is_some() {
            "sharded"
        } else {
            "single"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressParams;
    use crate::shard::ByTime;
    use crate::stiu::StiuParams;
    use crate::storage::StorageError;
    use crate::store::StoreBuilder;
    use utcq_network::RoadNetwork;
    use utcq_traj::{paper_fixture, Dataset};

    fn paper_parts() -> (Arc<RoadNetwork>, Dataset) {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        (Arc::new(fx.example.net.clone()), ds)
    }

    #[test]
    fn opened_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Opened>();
    }

    #[test]
    fn info_report_matches_shapes() {
        let (net, ds) = paper_parts();
        let params = CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL);
        let single = Store::build(Arc::clone(&net), &ds, params, StiuParams::default()).unwrap();
        let sharded = StoreBuilder::new(Arc::clone(&net), params)
            .shard_by(Arc::new(ByTime::default()), 2)
            .unwrap()
            .ingest(&ds)
            .unwrap()
            .finish()
            .unwrap();
        let a = Opened::Single(Box::new(single));
        let b = Opened::Sharded(Box::new(sharded));
        let (ia, ib) = (a.info(), b.info());
        assert_eq!(ia.shape(), "single");
        assert_eq!(ib.shape(), "sharded");
        assert_eq!(ia.trajectories, ib.trajectories);
        assert_eq!(ia.instances, ib.instances);
        assert_eq!(ib.sharding.as_ref().unwrap().shards.len(), 2);
        assert!(ib
            .sharding
            .as_ref()
            .unwrap()
            .policy
            .starts_with("time(interval_s="));
        let text = ib.render();
        assert!(text.contains("sharded"), "{text}");
        assert!(text.contains("shard 0:"), "{text}");
    }

    #[test]
    fn opened_roundtrips_both_container_shapes() {
        let (net, ds) = paper_parts();
        let params = CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL);
        let dir = std::env::temp_dir();
        let v2 = dir.join("utcq-opened-v2.utcq");
        let v3 = dir.join("utcq-opened-v3.utcq");
        Store::build(Arc::clone(&net), &ds, params, StiuParams::default())
            .unwrap()
            .save(&v2)
            .unwrap();
        StoreBuilder::new(Arc::clone(&net), params)
            .shard_by(Arc::new(ByTime::default()), 3)
            .unwrap()
            .ingest(&ds)
            .unwrap()
            .finish()
            .unwrap()
            .save(&v3)
            .unwrap();
        let a = Opened::open(&v2).unwrap();
        let b = Opened::open(&v3).unwrap();
        assert!(matches!(a, Opened::Single(_)));
        assert!(matches!(b, Opened::Sharded(_)));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.snapshots().len(), 1);
        assert_eq!(b.snapshots().len(), 3);
        // An older file gets the migrate error from the version
        // dispatch, not a shape-specific one.
        let old = dir.join("utcq-opened-v6.utcq");
        let mut bytes = std::fs::read(&v2).unwrap();
        bytes[4] = 6;
        std::fs::write(&old, bytes).unwrap();
        assert!(matches!(
            Opened::open(&old),
            Err(Error::Storage(StorageError::NeedsMigrate {
                version: 6,
                ..
            }))
        ));
        std::fs::remove_file(&old).ok();
        std::fs::remove_file(&v2).ok();
        std::fs::remove_file(&v3).ok();
    }

    #[test]
    fn policy_labels() {
        assert_eq!(
            policy_label(Some(ShardSpec::ByTime { interval_s: 120 })),
            "time(interval_s=120)"
        );
        assert_eq!(
            policy_label(Some(ShardSpec::ByRegion { grid_n: 8 })),
            "region(grid_n=8)"
        );
        assert_eq!(policy_label(None), "custom");
    }
}
