//! `utcq migrate`: the readers of every container and log version the
//! core no longer opens, and the one step that rewrites such a file in
//! the current format.
//!
//! The core reads and writes container v8 (one network, then one body
//! per partition) and write-ahead log v2; an older file fails there with
//! `StorageError::NeedsMigrate`. This crate reads containers v1, v2 and
//! v4 to v7, v3 directories of them ([`container`]) and v1 logs
//! ([`wal`]) as plain parsers: into `CompressedTrajectory` values and
//! index tuple lists, which the core appends with `Trajectories::push`
//! and `Stiu::push_tuples`, then writes with `storage::write_head` /
//! `write_body` and `Wal::append`. A v7 file is this crate's network
//! section in front of a v8 body, which core's `storage::read_body`
//! reads: there is one block reader. Nothing here copies the core's
//! segment path.
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

use std::io;
use std::path::Path;

use utcq_core::stiu::StiuParams;
use utcq_core::storage::{self, Head, StorageError};
use utcq_core::wal::{Wal, WalConfig, WAL_MAGIC};
use utcq_core::{Error, Store};
use utcq_network::RoadNetwork;

use container::{Parts, VERSION_V1, VERSION_V2, VERSION_V3, VERSION_V4, VERSION_V7};

/// What [`migrate`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Migrated {
    /// A container of this version, written as v8.
    Container(u8),
    /// A write-ahead log of this version with this many records, written
    /// as v2.
    Log(u32, usize),
}

/// The head of a one-store container.
const SINGLE: Head = Head {
    kind: storage::ROUTING_SINGLE,
    param: 0,
    parts: 1,
};

/// `parts` as a v8 container under `head`: the one network they all
/// embed, then each body. Shards that embed different networks have no
/// v8 form.
fn v8_bytes(head: Head, parts: &[Parts]) -> Result<Vec<u8>, Error> {
    let Some((net, ..)) = parts.first() else {
        return Err(StorageError::Corrupt("no partition").into());
    };
    if parts.iter().any(|(other, ..)| other != net) {
        return Err(Error::CorruptStore("shards embed different networks"));
    }
    let mut out = Vec::new();
    storage::write_head(head, net, &mut out)?;
    for (_, cds, stiu) in parts {
        storage::write_body(net, cds, stiu, &mut out)?;
    }
    Ok(out)
}

/// Opens a container of any version as a store. An older one is read
/// here, written as v8 with core's writers and read back with
/// `Store::read`; a current one is read by `Store::read` alone. `v1`
/// supplies the network and index parameters of a v1 container, which
/// stores neither; it is called for v1 only.
pub fn open(bytes: &[u8], v1: impl FnOnce() -> (RoadNetwork, StiuParams)) -> Result<Store, Error> {
    let mut body = bytes;
    let (head, parts) = match container::read_header(&mut body)? {
        VERSION_V1 => {
            let (net, params) = v1();
            (SINGLE, vec![container::read_v1(&mut body, net, params)?])
        }
        version @ (VERSION_V2 | VERSION_V4..=VERSION_V7) => {
            let parts = container::read_self_contained(&mut body, version)?;
            (SINGLE, vec![parts])
        }
        VERSION_V3 => container::read_v3(&mut body)?,
        _ => return Store::read(&mut { bytes }),
    };
    Store::read(&mut v8_bytes(head, &parts)?.as_slice())
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

#[cfg(test)]
mod tests {
    use super::*;
    use utcq_core::{compress_dataset, stiu, CompressParams};

    /// A v7 container of four `tiny` trajectories on the network and
    /// data of generator seed `seed`.
    fn v7_blob(seed: u64) -> Vec<u8> {
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 4, seed);
        let params = CompressParams::with_interval(ds.default_interval);
        let cds = compress_dataset(&net, &ds, &params).unwrap();
        let index = stiu::build(&net, &ds, &cds, StiuParams::default());
        let mut blob = Vec::new();
        container::save_v7(&net, &cds, &index, &mut blob).unwrap();
        blob
    }

    /// A v3 directory (custom policy) of `blobs`.
    fn v3(blobs: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = b"UTCQ\x03\x00".to_vec();
        bytes.extend(0i64.to_le_bytes());
        bytes.extend((blobs.len() as u32).to_le_bytes());
        for blob in blobs {
            bytes.extend((blob.len() as u64).to_le_bytes());
            bytes.extend(blob);
        }
        bytes
    }

    #[test]
    fn v3_blobs_with_different_networks_are_refused() {
        // A v8 file stores one network, so a directory whose blobs embed
        // two has no v8 form; blobs that embed the same one pass that
        // check and meet the next (here: the id map's).
        let no_v1 = || -> (RoadNetwork, StiuParams) { unreachable!("no v1 file") };
        let (a, b) = (v7_blob(3), v7_blob(4));
        let err = open(&v3(&[a.clone(), b]), no_v1).map(drop).unwrap_err();
        assert!(matches!(
            err,
            Error::CorruptStore("shards embed different networks")
        ));
        let same = open(&v3(&[a.clone(), a]), no_v1).map(|s| s.shard_count());
        assert!(
            matches!(same, Err(Error::DuplicateTrajectory(_))),
            "{same:?}"
        );
    }
}
