//! Write-ahead log for the live store: an append-only sidecar file
//! that records every accepted ingest batch *before* the epoch
//! publish, so a crash loses at most the batches the fsync policy
//! allows.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! header:  8-byte magic "UTCQWAL\0" | u32 version (=1) | u32 extra_len
//!          (extra_len bytes follow the fixed header and are skipped by
//!          readers that do not understand them — forward compat)
//! record:  u32 payload_len | u32 crc32(payload) | payload
//! payload: u64 expected post-publish epoch (relative to the container
//!          the log sidecars — see DURABILITY.md)
//!          u32 name_len | name bytes
//!          i64 default_interval
//!          u32 n_trajectories, then per trajectory:
//!            u64 id
//!            u32 n_times   | n × i64
//!            u32 n_instances, then per instance:
//!              f64 prob
//!              u32 path_len | n × u32 edge ids
//!              u32 n_positions | n × (u32 path_idx, f64 rd)
//! ```
//!
//! Torn-tail semantics: a final record that is incomplete (short frame
//! or short payload) or fails its checksum is treated as a torn write
//! and truncated away on open; the same damage *followed by more
//! bytes* is real corruption and fails the open. [`scan`] is a pure
//! function over the file bytes so the fuzzer can drive the replay
//! path directly.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use utcq_network::EdgeId;
use utcq_traj::{Instance, PathPosition, UncertainTrajectory};

use crate::error::Error;

/// Magic prefix of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"UTCQWAL\0";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Fixed header size: magic + version + extra_len.
const FIXED_HEADER: usize = 16;
/// Default number of recent batches kept in memory for `tail`/dedup.
pub const DEFAULT_TAIL_KEEP: usize = 4096;

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended batch (durable, slowest).
    Always,
    /// `fdatasync` once every N appended batches (bounded loss window).
    EveryN(u32),
    /// Never sync explicitly; the OS flushes when it pleases.
    Never,
}

/// Configuration for a write-ahead log sidecar.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Path of the log file (created if absent).
    pub path: PathBuf,
    /// Flush policy for appended records.
    pub fsync: FsyncPolicy,
    /// How many recent batches stay in memory for the `tail` wire op
    /// and leader-side ingest dedup.
    pub tail_keep: usize,
    /// Where `checkpoint` saves the container; filled in automatically
    /// by the durable open paths.
    pub checkpoint_to: Option<PathBuf>,
}

impl WalConfig {
    /// A config with the default fsync policy (`Always`) and tail size.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalConfig {
            path: path.into(),
            fsync: FsyncPolicy::Always,
            tail_keep: DEFAULT_TAIL_KEEP,
            checkpoint_to: None,
        }
    }

    /// Sets the fsync policy.
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the checkpoint target path.
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_to = Some(path.into());
        self
    }
}

/// One logged ingest batch. `epoch` is the publish epoch the batch
/// produced — relative to the sidecar'd container on disk, live once
/// the record sits in the in-memory tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Expected post-publish epoch.
    pub epoch: u64,
    /// Dataset name carried by the batch (may be empty).
    pub name: String,
    /// Sampling interval of the batch.
    pub default_interval: i64,
    /// The batch payload.
    pub trajectories: Vec<UncertainTrajectory>,
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — table built at compile time so the
// hot append path is a byte loop over a const array.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c; // bounds: the loop condition pins i < 256
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum of `bytes` (IEEE polynomial, as used by zip/png).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        // bounds: index is (c ^ b) & 0xFF, always < 256
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Payload codec.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a record's payload (everything inside the checksummed
/// region).
pub fn encode_payload(rec: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u64(&mut out, rec.epoch);
    put_u32(&mut out, rec.name.len() as u32);
    out.extend_from_slice(rec.name.as_bytes());
    put_i64(&mut out, rec.default_interval);
    put_u32(&mut out, rec.trajectories.len() as u32);
    for tu in &rec.trajectories {
        put_u64(&mut out, tu.id);
        put_u32(&mut out, tu.times.len() as u32);
        for &t in &tu.times {
            put_i64(&mut out, t);
        }
        put_u32(&mut out, tu.instances.len() as u32);
        for inst in &tu.instances {
            put_f64(&mut out, inst.prob);
            put_u32(&mut out, inst.path.len() as u32);
            for e in &inst.path {
                put_u32(&mut out, e.0);
            }
            put_u32(&mut out, inst.positions.len() as u32);
            for p in &inst.positions {
                put_u32(&mut out, p.path_idx);
                put_f64(&mut out, p.rd);
            }
        }
    }
    out
}

/// Encodes a full framed record: length prefix, checksum, payload.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Bounded cursor over a payload; every read is checked so malformed
/// input surfaces as `Err`, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(Error::CorruptStore("wal payload length overflow"))?;
        let Some(s) = self.bytes.get(self.at..end) else {
            return Err(Error::CorruptStore("wal payload truncated"));
        };
        self.at = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }

    fn u32(&mut self) -> Result<u32, Error> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, Error> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `Vec` capacity bound that cannot be tricked into a huge
    /// allocation by a corrupt count: each element needs at least
    /// `min_size` payload bytes, so a count beyond that is bogus.
    fn cap(&self, n: u32, min_size: usize) -> usize {
        (n as usize).min(self.remaining() / min_size.max(1) + 1)
    }
}

/// Decodes one record payload. Pure; returns `Err` on any malformation.
pub fn decode_payload(payload: &[u8]) -> Result<Record, Error> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let epoch = c.u64()?;
    let name_len = c.u32()? as usize;
    let name = std::str::from_utf8(c.take(name_len)?)
        .map_err(|_| Error::CorruptStore("wal record name is not utf-8"))?
        .to_string();
    let default_interval = c.i64()?;
    let n_trajs = c.u32()?;
    let mut trajectories = Vec::with_capacity(c.cap(n_trajs, 20));
    for _ in 0..n_trajs {
        let id = c.u64()?;
        let n_times = c.u32()?;
        let mut times = Vec::with_capacity(c.cap(n_times, 8));
        for _ in 0..n_times {
            times.push(c.i64()?);
        }
        let n_instances = c.u32()?;
        let mut instances = Vec::with_capacity(c.cap(n_instances, 16));
        for _ in 0..n_instances {
            let prob = c.f64()?;
            let path_len = c.u32()?;
            let mut path = Vec::with_capacity(c.cap(path_len, 4));
            for _ in 0..path_len {
                path.push(EdgeId(c.u32()?));
            }
            let n_positions = c.u32()?;
            let mut positions = Vec::with_capacity(c.cap(n_positions, 12));
            for _ in 0..n_positions {
                let path_idx = c.u32()?;
                let rd = c.f64()?;
                positions.push(PathPosition { path_idx, rd });
            }
            instances.push(Instance {
                path,
                positions,
                prob,
            });
        }
        trajectories.push(UncertainTrajectory {
            id,
            times,
            instances,
        });
    }
    if c.remaining() != 0 {
        return Err(Error::CorruptStore("wal record has trailing bytes"));
    }
    Ok(Record {
        epoch,
        name,
        default_interval,
        trajectories,
    })
}

/// Result of scanning a WAL file's bytes.
#[derive(Debug)]
pub struct Scan {
    /// Fully decoded records, in append order.
    pub records: Vec<Record>,
    /// Byte length of the intact prefix (header + whole records); a
    /// torn tail is everything past this offset.
    pub keep_len: u64,
    /// Whether a torn final record was detected (and should be
    /// truncated away by the opener).
    pub torn: bool,
}

/// Scans a complete WAL file image. Header problems and mid-file
/// damage are hard errors; a damaged *final* record is reported as
/// torn. Pure — this is the function the fuzzer drives.
pub fn scan(bytes: &[u8]) -> Result<Scan, Error> {
    let Some(magic) = bytes.get(..8) else {
        return Err(Error::CorruptStore("wal file shorter than its magic"));
    };
    if magic != WAL_MAGIC {
        return Err(Error::CorruptStore("wal magic mismatch"));
    }
    let mut c = Cursor { bytes, at: 8 };
    let version = c
        .u32()
        .map_err(|_| Error::CorruptStore("wal header truncated"))?;
    if version != WAL_VERSION {
        return Err(Error::CorruptStore("wal version unsupported"));
    }
    let extra = c
        .u32()
        .map_err(|_| Error::CorruptStore("wal header truncated"))?;
    c.take(extra as usize)
        .map_err(|_| Error::CorruptStore("wal header truncated"))?;
    let mut records = Vec::new();
    let mut keep = c.at as u64;
    loop {
        let start = c.at;
        if c.remaining() == 0 {
            return Ok(Scan {
                records,
                keep_len: keep,
                torn: false,
            });
        }
        let torn = |records| {
            Ok(Scan {
                records,
                keep_len: start as u64,
                torn: true,
            })
        };
        if c.remaining() < 8 {
            return torn(records);
        }
        let (len, crc) = match (c.u32(), c.u32()) {
            (Ok(l), Ok(x)) => (l, x),
            _ => return torn(records),
        };
        if (len as usize) > c.remaining() {
            return torn(records);
        }
        let payload = c.take(len as usize)?;
        if crc32(payload) != crc {
            if c.remaining() == 0 {
                // Damaged final record: a torn write, not corruption.
                return torn(records);
            }
            return Err(Error::CorruptStore("wal record checksum mismatch"));
        }
        records.push(decode_payload(payload)?);
        keep = c.at as u64;
    }
}

// ---------------------------------------------------------------------
// The log file handle.

/// An open write-ahead log positioned at its end.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    fsync: FsyncPolicy,
    unsynced: u32,
    len: u64,
}

impl Wal {
    /// Opens (or creates) the log at `cfg.path`, replaying any existing
    /// records. A torn final record is truncated away; any other damage
    /// fails the open. Returns the handle plus the replayed records
    /// with their *stored* (container-relative) epochs.
    pub fn open(cfg: &WalConfig) -> Result<(Wal, Vec<Record>), Error> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&cfg.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            let mut header = Vec::with_capacity(FIXED_HEADER);
            header.extend_from_slice(WAL_MAGIC);
            put_u32(&mut header, WAL_VERSION);
            put_u32(&mut header, 0);
            file.write_all(&header)?;
            file.sync_all()?;
            let len = header.len() as u64;
            return Ok((
                Wal {
                    file,
                    path: cfg.path.clone(),
                    fsync: cfg.fsync,
                    unsynced: 0,
                    len,
                },
                Vec::new(),
            ));
        }
        let scanned = scan(&bytes)?;
        if scanned.torn {
            file.set_len(scanned.keep_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(scanned.keep_len))?;
        Ok((
            Wal {
                file,
                path: cfg.path.clone(),
                fsync: cfg.fsync,
                unsynced: 0,
                len: scanned.keep_len,
            },
            scanned.records,
        ))
    }

    /// Appends one record and applies the fsync policy. The frame is
    /// written with a single `write_all` of a prebuilt buffer, so the
    /// only torn states a crash can leave are short tails.
    pub fn append(&mut self, rec: &Record) -> Result<(), Error> {
        let frame = encode_record(rec);
        crate::hooks::point("wal.before_append");
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        crate::hooks::point("wal.appended");
        self.unsynced = self.unsynced.saturating_add(1);
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        crate::hooks::point("wal.synced");
        Ok(())
    }

    /// Discards every record, leaving only the header (used after a
    /// successful checkpoint).
    pub fn truncate(&mut self) -> Result<(), Error> {
        self.file.set_len(FIXED_HEADER as u64)?;
        self.file.seek(SeekFrom::Start(FIXED_HEADER as u64))?;
        self.file.sync_data()?;
        self.len = FIXED_HEADER as u64;
        self.unsynced = 0;
        Ok(())
    }

    /// Current size of the log file in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Crash-safe whole-file writes (checkpoint/save helper).

/// Writes a file atomically: the content goes to a sibling tmp file
/// which is fsynced, renamed over `path`, and the parent directory is
/// fsynced, so a crash at any point leaves either the old file or the
/// new one — never a torn mix.
pub(crate) fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), Error>,
) -> Result<(), Error> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or(Error::CorruptStore("save path has no file name"))?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = dir.join(tmp_name);
    let result = (|| {
        let f = File::create(&tmp)?;
        let mut w = BufWriter::new(f);
        write(&mut w)?;
        let f = w
            .into_inner()
            .map_err(|e| Error::Io(std::io::Error::other(e.to_string())))?;
        f.sync_all()?;
        drop(f);
        crate::hooks::point("save.before_rename");
        fs::rename(&tmp, path)?;
        File::open(&dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------
// Sidecar state: a store's attached log plus the in-memory feed of
// recent batches (live epochs) serving `tail` and ingest dedup.

/// What a `tail` read produced.
#[derive(Debug)]
pub enum TailRead {
    /// `from` predates the in-memory feed; the caller must re-sync
    /// from a fresh container copy.
    Gap {
        /// Earliest epoch the feed can still serve batches *after*.
        base: u64,
    },
    /// Batches with epochs in `(from, from + records.len()]`.
    Records {
        /// The batches, oldest first, with live epochs.
        records: Vec<Record>,
        /// The store's current publish epoch at read time.
        current: u64,
    },
}

/// What one checkpoint did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The publish epoch the saved container captures.
    pub epoch: u64,
    /// Size of the log (bytes, header included) before truncation.
    pub log_bytes: u64,
}

/// A store's durability sidecar: the open log, the checkpoint target,
/// and the bounded in-memory batch feed.
#[derive(Debug)]
pub(crate) struct Sidecar {
    pub wal: Wal,
    pub checkpoint_to: Option<PathBuf>,
    tail_keep: usize,
    /// Live epoch at the last truncation; records are stored in the
    /// file with `epoch - base` so a reopened container (whose epochs
    /// restart at 1) replays to matching numbers.
    base: u64,
    /// Recent batches with live epochs, oldest first.
    tail: VecDeque<Record>,
    /// Live epoch preceding `tail.front()`.
    tail_base: u64,
}

impl Sidecar {
    pub fn new(wal: Wal, cfg: &WalConfig) -> Sidecar {
        Sidecar {
            wal,
            checkpoint_to: cfg.checkpoint_to.clone(),
            tail_keep: cfg.tail_keep.max(1),
            base: 0,
            tail: VecDeque::new(),
            tail_base: 0,
        }
    }

    /// Appends a batch that published at live epoch `rec.epoch`: the
    /// file gets the container-relative number, the feed the live one.
    pub fn append_live(&mut self, mut rec: Record) -> Result<(), Error> {
        let live = rec.epoch;
        rec.epoch = live.saturating_sub(self.base);
        self.wal.append(&rec)?;
        rec.epoch = live;
        self.push_feed(rec);
        Ok(())
    }

    /// Pushes a batch into the feed without touching the file (replay).
    pub fn push_feed(&mut self, rec: Record) {
        if self.tail.is_empty() {
            self.tail_base = rec.epoch.saturating_sub(1);
        }
        self.tail.push_back(rec);
        while self.tail.len() > self.tail_keep {
            if let Some(dropped) = self.tail.pop_front() {
                self.tail_base = dropped.epoch;
            }
        }
    }

    /// Marks a completed checkpoint at live epoch `epoch`: truncates
    /// the file and rebases future stored epochs. The in-memory feed
    /// truncates with it — the feed mirrors the log, so a follower
    /// resuming from before the checkpoint gets an honest `Gap` (it
    /// must re-seed from the fresh container) instead of records the
    /// log no longer holds.
    pub fn checkpointed(&mut self, epoch: u64) -> Result<(), Error> {
        self.wal.truncate()?;
        self.base = epoch;
        self.tail.clear();
        self.tail_base = epoch;
        Ok(())
    }

    /// Batches with live epochs strictly greater than `from`, capped
    /// at `max` per call.
    pub fn records_since(&self, from: u64, max: usize, current: u64) -> TailRead {
        if from < self.tail_base {
            return TailRead::Gap {
                base: self.tail_base,
            };
        }
        let records = self
            .tail
            .iter()
            .filter(|r| r.epoch > from)
            .take(max)
            .cloned()
            .collect();
        TailRead::Records { records, current }
    }

    /// If a feed batch consists of exactly these trajectories
    /// (compared in full, not just by id — a *different* batch reusing
    /// an id must still fail as a duplicate), returns its live epoch
    /// and size — the leader-side dedup that makes client re-sends
    /// after a reconnect idempotent.
    pub fn dedup_epoch(&self, tus: &[UncertainTrajectory]) -> Option<(u64, usize)> {
        if tus.is_empty() {
            return None;
        }
        self.tail
            .iter()
            .rev()
            .find_map(|r| (r.trajectories == tus).then_some((r.epoch, r.trajectories.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64, id: u64) -> Record {
        Record {
            epoch,
            name: "wal-test".to_string(),
            default_interval: 30,
            trajectories: vec![UncertainTrajectory {
                id,
                times: vec![0, 30, 60],
                instances: vec![Instance {
                    path: vec![EdgeId(1), EdgeId(2)],
                    positions: vec![
                        PathPosition {
                            path_idx: 0,
                            rd: 0.25,
                        },
                        PathPosition {
                            path_idx: 1,
                            rd: 0.5,
                        },
                        PathPosition {
                            path_idx: 1,
                            rd: 0.75,
                        },
                    ],
                    prob: 0.625,
                }],
            }],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("utcq-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        dir.join("log.wal")
    }

    #[test]
    fn payload_roundtrips() {
        let rec = sample(7, 42);
        let decoded = decode_payload(&encode_payload(&rec)).expect("decode");
        assert_eq!(decoded, rec);
    }

    #[test]
    fn append_then_open_replays() {
        let cfg = WalConfig::new(tmp("replay"));
        let _ = std::fs::remove_file(&cfg.path);
        let (mut wal, rs) = Wal::open(&cfg).expect("create");
        assert!(rs.is_empty());
        wal.append(&sample(1, 10)).expect("append");
        wal.append(&sample(2, 11)).expect("append");
        drop(wal);
        let (wal, rs) = Wal::open(&cfg).expect("reopen");
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].epoch, 1);
        assert_eq!(rs[1].trajectories[0].id, 11);
        assert_eq!(
            wal.len_bytes(),
            std::fs::metadata(&cfg.path).expect("meta").len()
        );
    }

    #[test]
    fn torn_tail_is_truncated() {
        let cfg = WalConfig::new(tmp("torn"));
        let _ = std::fs::remove_file(&cfg.path);
        let (mut wal, _) = Wal::open(&cfg).expect("create");
        wal.append(&sample(1, 10)).expect("append");
        let keep = wal.len_bytes();
        wal.append(&sample(2, 11)).expect("append");
        drop(wal);
        // Tear the final record mid-payload.
        let bytes = std::fs::read(&cfg.path).expect("read");
        std::fs::write(&cfg.path, &bytes[..bytes.len() - 5]).expect("tear");
        let (wal, rs) = Wal::open(&cfg).expect("reopen");
        assert_eq!(rs.len(), 1, "torn record dropped");
        assert_eq!(wal.len_bytes(), keep);
        // The file was physically truncated back to the intact prefix.
        assert_eq!(std::fs::metadata(&cfg.path).expect("meta").len(), keep);
    }

    #[test]
    fn final_record_crc_damage_is_torn_but_midfile_is_corrupt() {
        let cfg = WalConfig::new(tmp("crc"));
        let _ = std::fs::remove_file(&cfg.path);
        let (mut wal, _) = Wal::open(&cfg).expect("create");
        wal.append(&sample(1, 10)).expect("append");
        let first_end = wal.len_bytes() as usize;
        wal.append(&sample(2, 11)).expect("append");
        drop(wal);
        let pristine = std::fs::read(&cfg.path).expect("read");

        // Flip a payload byte of the FINAL record: torn, truncated.
        let mut tail_flip = pristine.clone();
        tail_flip[first_end + 9] ^= 0xFF;
        let s = scan(&tail_flip).expect("scan");
        assert!(s.torn);
        assert_eq!(s.records.len(), 1);

        // Flip a payload byte of the FIRST record: hard corruption.
        let mut mid_flip = pristine.clone();
        mid_flip[FIXED_HEADER + 9] ^= 0xFF;
        assert!(scan(&mid_flip).is_err());
    }

    #[test]
    fn truncate_resets_to_header() {
        let cfg = WalConfig::new(tmp("trunc"));
        let _ = std::fs::remove_file(&cfg.path);
        let (mut wal, _) = Wal::open(&cfg).expect("create");
        wal.append(&sample(1, 10)).expect("append");
        wal.truncate().expect("truncate");
        assert_eq!(wal.len_bytes(), FIXED_HEADER as u64);
        wal.append(&sample(1, 12)).expect("append after truncate");
        drop(wal);
        let (_, rs) = Wal::open(&cfg).expect("reopen");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].trajectories[0].id, 12);
    }

    #[test]
    fn scan_rejects_bad_headers_without_panicking() {
        assert!(scan(b"").is_err());
        assert!(scan(b"UTCQWAL").is_err());
        assert!(scan(b"NOTAWAL\0\x01\0\0\0\0\0\0\0").is_err());
        let mut wrong_version = Vec::new();
        wrong_version.extend_from_slice(WAL_MAGIC);
        wrong_version.extend_from_slice(&9u32.to_le_bytes());
        wrong_version.extend_from_slice(&0u32.to_le_bytes());
        assert!(scan(&wrong_version).is_err());
    }

    #[test]
    fn sidecar_feed_tail_and_dedup() {
        let cfg = WalConfig {
            tail_keep: 2,
            ..WalConfig::new(tmp("sidecar"))
        };
        let _ = std::fs::remove_file(&cfg.path);
        let (wal, _) = Wal::open(&cfg).expect("create");
        let mut sc = Sidecar::new(wal, &cfg);
        for e in 1..=3u64 {
            sc.append_live(sample(e, 100 + e)).expect("append");
        }
        // Feed capped at 2: epoch 1 fell off → asking from 0 is a gap.
        match sc.records_since(0, 64, 3) {
            TailRead::Gap { base } => assert_eq!(base, 1),
            TailRead::Records { .. } => panic!("expected gap"),
        }
        match sc.records_since(1, 64, 3) {
            TailRead::Records { records, current } => {
                assert_eq!(current, 3);
                assert_eq!(
                    records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
                    vec![2, 3]
                );
            }
            TailRead::Gap { .. } => panic!("expected records"),
        }
        assert_eq!(sc.dedup_epoch(&sample(3, 103).trajectories), Some((3, 1)));
        assert_eq!(sc.dedup_epoch(&sample(9, 999).trajectories), None);
        // Same id, different content: not a re-send, no dedup.
        let mut changed = sample(3, 103).trajectories;
        changed[0].times[0] += 1;
        assert_eq!(sc.dedup_epoch(&changed), None);
    }

    #[test]
    fn checkpoint_rebases_stored_epochs() {
        let cfg = WalConfig::new(tmp("rebase"));
        let _ = std::fs::remove_file(&cfg.path);
        let (wal, _) = Wal::open(&cfg).expect("create");
        let mut sc = Sidecar::new(wal, &cfg);
        sc.append_live(sample(1, 10)).expect("append");
        sc.append_live(sample(2, 11)).expect("append");
        sc.checkpointed(2).expect("checkpoint");
        // The feed truncates with the log: pre-checkpoint epochs are a
        // gap, the next live batch streams normally.
        match sc.records_since(1, 64, 2) {
            TailRead::Gap { base } => assert_eq!(base, 2),
            TailRead::Records { .. } => panic!("expected gap after checkpoint"),
        }
        sc.append_live(sample(3, 12)).expect("append");
        match sc.records_since(2, 64, 3) {
            TailRead::Records { records, .. } => {
                assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![3]);
            }
            TailRead::Gap { .. } => panic!("expected records"),
        }
        drop(sc);
        // On disk the post-checkpoint record is container-relative.
        let (_, rs) = Wal::open(&cfg).expect("reopen");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].epoch, 1);
        assert_eq!(rs[0].trajectories[0].id, 12);
    }
}
