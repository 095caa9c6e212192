//! [`Opened`] — open *a file*, get the live handle.
//!
//! Every front end (the CLI, the [`crate::serve`] server, benchmarks)
//! wants to open a container and use it as a live handle. [`Opened`] is
//! a [`Store`] opened from a file, tagged with the kind of store it
//! holds (with or without a routing policy), and derefs to that
//! [`Store`], so a `&Opened` *is* the query, ingest and durability
//! surface. Legacy v1 containers (no embedded network) open through
//! [`Opened::open_v1`] with the network supplied out of band, exactly
//! like [`Store::open_v1`].
//!
//! The module also owns the **shared presentation layer**:
//! [`InfoReport`] is the one description of a container both the CLI's
//! `utcq info` text output and the serve protocol's `info` response are
//! derived from — the numbers cannot drift between the two because both
//! render the same struct (`tests/serve.rs` additionally diffs the
//! online and offline outputs byte for byte).

use std::path::Path;
use std::sync::Arc;

use utcq_network::RoadNetwork;
use utcq_traj::size::SizeBreakdown;

use crate::compress::{CompressedDataset, Ratios};
use crate::error::Error;
use crate::query::QueryTarget;
use crate::segment::Resident;
use crate::shard::ShardSpec;
use crate::snapshot::Snapshot;
use crate::stiu::StiuParams;
use crate::storage::{Sections, VERSION_V3, VERSION_V6};
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
    /// A store without a routing policy (v6, v5, v4 or v2 container, or
    /// v1 via [`Opened::open_v1`]).
    Single(Box<Store>),
    /// A store with a routing policy (v3 container).
    Sharded(Box<Store>),
}

impl Opened {
    /// Opens a self-contained or sharded container with
    /// [`Store::open`], as [`Opened::Sharded`] if the store has a routing
    /// policy. A legacy v1 container fails with
    /// [`Error::NeedsNetwork`] — open those with [`Opened::open_v1`],
    /// which takes the network out of band.
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

    /// Opens a legacy v1 container against an externally supplied
    /// network — the [`Store::open_v1`] compatibility path behind the
    /// facade.
    pub fn open_v1(
        path: impl AsRef<Path>,
        net: Arc<RoadNetwork>,
        stiu_params: StiuParams,
    ) -> Result<Self, Error> {
        Store::open_v1(path, net, stiu_params).map(|s| Opened::Single(Box::new(s)))
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
pub(crate) fn summed_sizes(snaps: &[Arc<Snapshot>]) -> (SizeBreakdown, SizeBreakdown) {
    let mut raw = SizeBreakdown::default();
    let mut compressed = SizeBreakdown::default();
    for snap in snaps {
        raw.add(&snap.compressed().raw);
        compressed.add(&snap.compressed().compressed);
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
/// then each shard blob's) and, when any is older than what stores
/// write, that the next save rewrites it.
pub fn render_format(versions: &[u8]) -> String {
    let Some((outer, shards)) = versions.split_first() else {
        return String::new();
    };
    let mut out = format!("  format:           v{outer}");
    if !shards.is_empty() {
        let shards = shards.iter().map(|v| format!("v{v}"));
        out += &format!(" directory, shards {}", Vec::from_iter(shards).join(" "));
    }
    let old = |v: &u8| *v != VERSION_V3 && *v < VERSION_V6;
    if versions.iter().any(old) {
        out += &format!(" (next save or checkpoint rewrites as v{VERSION_V6})");
    }
    out + "\n"
}

/// The "container sections" table `utcq info` prints under the report:
/// bytes and bytes per trajectory of each part of the container these
/// partitions save as, summed over them (a v3 file adds only its
/// directory). Each snapshot is written into a sink and the writer's
/// own counters are read, so the table cannot drift from the format.
pub fn render_sections(partitions: &[Arc<Snapshot>]) -> Result<String, Error> {
    let count = |snap: &Arc<Snapshot>| snap.write_counted(&mut std::io::sink());
    let counted = partitions
        .iter()
        .map(count)
        .collect::<Result<Vec<Sections>, _>>()?;
    let trajectories: usize = partitions.iter().map(|snap| snap.len()).sum();
    let sum = |part: fn(&Sections) -> u64| counted.iter().map(part).sum::<u64>();
    let rows = [
        ("network", sum(|s| s.network)),
        ("payload bits", sum(|s| s.payload)),
        ("dataset framing", sum(|s| s.framing)),
        ("temporal", sum(|s| s.temporal)),
        ("ref tuples", sum(|s| s.ref_tuples)),
        ("nref tuples", sum(|s| s.nref_tuples)),
    ];
    let rows = rows.map(|(label, bits)| (label, bits as f64 / 8.0));
    let title = "container sections (as written)";
    Ok(render_table(title, &rows, trajectories))
}

/// The "resident" table `utcq info` prints under the sections: heap
/// bytes and bytes per trajectory of each part these partitions keep in
/// memory once opened, summed over them ([`Snapshot::resident`]; the
/// road network and the decode cache are not the partitions').
pub fn render_resident(partitions: &[Arc<Snapshot>]) -> String {
    let mut census = Resident::default();
    for (part, bytes) in partitions.iter().flat_map(|snap| snap.resident().0) {
        census.add(part, bytes);
    }
    let trajectories: usize = partitions.iter().map(|snap| snap.len()).sum();
    let rows = census.0.iter().map(|&(part, bytes)| (part, bytes as f64));
    let rows = Vec::from_iter(rows);
    render_table("resident (heap, once opened)", &rows, trajectories)
}

/// `title`, one line per `(label, bytes)` row, and their total.
fn render_table(title: &str, rows: &[(&str, f64)], trajectories: usize) -> String {
    use std::fmt::Write as _;
    let total = rows.iter().map(|(_, bytes)| bytes).sum();
    let mut out = format!("{title}:\n");
    for (label, bytes) in rows.iter().copied().chain([("total", total)]) {
        let _ = writeln!(
            out,
            "  {:<17} {bytes:>12.0} B {:>9.1} B/trajectory",
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
    /// A report over one compressed dataset (a single-store container, or the
    /// first partition of a store before [`InfoReport::over`] adds the
    /// rest).
    pub fn from_dataset(cds: &CompressedDataset) -> Self {
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

    /// A report over every partition of a store (one snapshot for a
    /// single store); `policy` is the routing-policy label of a sharded
    /// one. Parameters and the dataset label come from the first
    /// partition, totals span all of them.
    pub fn over(snaps: &[Arc<Snapshot>], policy: Option<String>) -> Self {
        let Some((first, rest)) = snaps.split_first() else {
            return InfoReport::default();
        };
        let mut report = InfoReport::from_dataset(first.compressed());
        for snap in rest {
            let cds = snap.compressed();
            report.trajectories += cds.trajectories.len();
            report.instances += instance_count(cds);
        }
        let (raw, compressed) = summed_sizes(snaps);
        report.raw_kib = raw.total() / 8 / 1024;
        report.compressed_kib = compressed.total() / 8 / 1024;
        report.ratio = Ratios::from_sizes(&raw, &compressed).total;
        report.sharding = policy.map(|policy| ShardingInfo {
            policy,
            shards: snaps
                .iter()
                .map(|snap| ShardInfo {
                    trajectories: snap.len(),
                    ratio: snap.ratios().total,
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
    use crate::store::StoreBuilder;
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
        // A v1 file (no embedded network) still gets the dedicated
        // error from the version dispatch, not a shape-specific one.
        let v1 = dir.join("utcq-opened-v1.utcq");
        let mut legacy = Vec::new();
        crate::storage::save(a.snapshots()[0].compressed(), &mut legacy).unwrap();
        std::fs::write(&v1, legacy).unwrap();
        assert!(matches!(Opened::open(&v1), Err(Error::NeedsNetwork)));
        std::fs::remove_file(&v1).ok();
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
