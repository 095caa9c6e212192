//! `utcq migrate`: the readers of every container and log version the
//! core no longer opens, and the one step that rewrites such a file in
//! the current format.
//!
//! The core reads and writes container v7 (one store), the v3 directory
//! of v7 blobs (a sharded one) and write-ahead log v2; an older file
//! fails there with `StorageError::NeedsMigrate`. This crate reads
//! containers v1, v2 and v4 to v6, v3 directories of them
//! ([`container`]) and v1 logs ([`wal`]) as plain parsers: into
//! `CompressedTrajectory` values and index tuple lists, which the core
//! appends with `Trajectories::push` and `Stiu::push_tuples`, then
//! writes with `save_v7` / `save_v3` and `Wal::append`. Nothing here
//! copies the core's segment path.
//!
//! **The stored index is carried, never rebuilt** (v1 stores none, so
//! only v1's is). StIU is built from the original trajectories (§5.2);
//! rebuilding it from the decompressed ones reads the lossy first and
//! last position of each instance, and the cells of those differ: over
//! 2,000 trajectories at seeds 1 and 7 the rebuilt index differs on
//! 7 and 9 nodes (`dk`), 9 and 6 (`cd`) and 16 and 34 (`hz`).
//!
//! Every check the core's readers made on these versions is made here,
//! with the same errors, and the migrated file opens through
//! `Store::read` before it is written, so it passes every check of an
//! open too.

pub mod container;
pub mod wal;

use std::io::{self, Write};
use std::path::Path;

use utcq_core::stiu::StiuParams;
use utcq_core::storage::{self, StorageError, VERSION_V3};
use utcq_core::wal::{Wal, WalConfig, WAL_MAGIC};
use utcq_core::{Error, Store};
use utcq_network::RoadNetwork;

use container::{Parts, VERSION_V1, VERSION_V2, VERSION_V4, VERSION_V6};

/// What [`migrate`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Migrated {
    /// A container of this version, written as v7 (a v3 one as a v3
    /// directory of v7 blobs).
    Container(u8),
    /// A write-ahead log of this version with this many records, written
    /// as v2.
    Log(u32, usize),
}

fn v7_bytes((net, cds, stiu): &Parts) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    storage::save_v7(net, cds, stiu, &mut out)?;
    Ok(out)
}

/// Opens a container of any version as a store. An older one is read
/// here, written with `save_v7` (and `save_v3` for a directory) and
/// read back with `Store::read`; a current one is read by `Store::read`
/// alone. `v1` supplies the network and index parameters of a v1
/// container, which stores neither; it is called for v1 only.
pub fn open(bytes: &[u8], v1: impl FnOnce() -> (RoadNetwork, StiuParams)) -> Result<Store, Error> {
    let mut body = bytes;
    let current = match container::read_header(&mut body)? {
        VERSION_V1 => {
            let (net, params) = v1();
            v7_bytes(&container::read_v1(&mut body, net, params)?)?
        }
        version @ (VERSION_V2 | VERSION_V4..=VERSION_V6) => {
            v7_bytes(&container::read_self_contained(&mut body, version)?)?
        }
        VERSION_V3 => {
            let mut blobs = Vec::new();
            let dir = storage::read_v3(&mut { bytes }, |_, blob| {
                let mut old = Vec::new();
                blob.read_to_end(&mut old).map_err(StorageError::from)?;
                blobs.push(v7_bytes(&container::read_blob(&old)?)?);
                Ok::<(), Error>(())
            })?;
            let dir = dir.ok_or(StorageError::Corrupt("v3 container without a directory"))?;
            let blob = |i: u32, w: &mut dyn Write| {
                let missing =
                    io::Error::new(io::ErrorKind::InvalidInput, "blob past the directory");
                w.write_all(blobs.get(i as usize).ok_or(missing)?)
            };
            let mut out = Vec::new();
            storage::save_v3(dir, blobs.len() as u32, blob, &mut out)?;
            out
        }
        _ => return Store::read(&mut { bytes }),
    };
    Store::read(&mut current.as_slice())
}

/// Rewrites the container or write-ahead log at `input` in the current
/// format at `output`, which must not exist yet: a container as the
/// store [`open`] returns saves itself (`Store::save`, crash-safe), a
/// log by appending its records to a new log with `Wal::append`. `v1`
/// is [`open`]'s.
pub fn migrate(
    input: &Path,
    output: &Path,
    v1: impl FnOnce() -> (RoadNetwork, StiuParams),
) -> Result<Migrated, Error> {
    let bytes = std::fs::read(input)?;
    if output.exists() {
        let what = format!("{} exists; migrate writes a new file", output.display());
        return Err(io::Error::new(io::ErrorKind::AlreadyExists, what).into());
    }
    if bytes.starts_with(WAL_MAGIC) {
        let version = bytes.get(8..12).and_then(|b| b.try_into().ok());
        let version = version.map_or(0, u32::from_le_bytes);
        let records = match version {
            wal::WAL_VERSION_V1 => wal::read_v1(&bytes)?,
            _ => utcq_core::wal::scan(&bytes)?.records,
        };
        let (mut log, _) = Wal::open(&WalConfig::new(output))?;
        for rec in &records {
            log.append(rec)?;
        }
        return Ok(Migrated::Log(version, records.len()));
    }
    open(&bytes, v1)?.save(output)?;
    Ok(Migrated::Container(
        bytes.get(4).copied().unwrap_or_default(),
    ))
}
