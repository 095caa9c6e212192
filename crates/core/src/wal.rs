//! Write-ahead log for the live store: an append-only sidecar file
//! that records every accepted ingest batch *before* the epoch
//! publish, so a crash loses at most the batches the fsync policy
//! allows.
//!
//! File layout (fixed-width integers little-endian):
//!
//! ```text
//! header:  8-byte magic "UTCQWAL\0" | u32 version (=2) | u32 extra_len
//!          (extra_len bytes follow the fixed header and are skipped by
//!          readers that do not understand them — forward compat)
//! record:  u32 payload_len | u32 crc32(payload) | payload
//! payload: u64 expected post-publish epoch (relative to the container
//!          the log sidecars — see DURABILITY.md)
//!          u32 name_len | name bytes
//!          i64 default_interval
//!          u32 n_trajectories
//!          then one MSB-first bit stream, zero-padded to a byte:
//! ```
//!
//! The body applies the container's two observations to the raw batch,
//! losslessly and without the road network: sample times sit a small
//! deviation from `Ts` (SIAR, §4.1), and an uncertain trajectory's
//! instances nearly repeat its first one, the *reference* (§4.2).
//! `eg(x)` is order-0 Exp-Golomb (`utcq_bitio::golomb`), `zz` zig-zag,
//! `f64` the float code below. Per trajectory:
//!
//! ```text
//! eg(id) eg(n_times) eg(n_instances)
//! times:      eg(zz(t₀)), then per later time SIAR's deviation code of
//!             (tᵢ − tᵢ₋₁) − default_interval
//! reference:  f64(prob) eg(path_len) eg(zz(eᵢ − eᵢ₋₁))…   (e₋₁ = 0)
//!             eg(zz(n_positions − n_times))
//!             per position: eg(zz(idxᵢ − idxᵢ₋₁)) f64(rd)   (idx₋₁ = 0)
//! each other: f64(prob)
//!             eg(ref_len − prefix) eg(suffix) eg(middle_len)
//!               eg(zz(eᵢ − eᵢ₋₁))… over the middle edges
//!             eg(zz(n_positions − n_times))
//!             per position: eg(zz(step − the reference's step here))
//!               then, where the reference has a position here, one bit
//!               "rd has the reference's bits" and f64(rd) only if not;
//!               past the reference's positions, f64(rd)
//! ```
//!
//! The path of a non-reference instance is the reference's first
//! `prefix` edges, the middle edges, then the reference's last `suffix`
//! edges. An `f64` is `eg(zz(1022 − sign_and_exponent))` and the 52
//! mantissa bits: one bit plus the mantissa for a value in [0.5, 1).
//! Every code has an escape for the values it cannot carry (`u64::MAX`
//! and its neighbour, deviations of 2⁶² − 1 or more), so every record
//! round-trips bit for bit, NaN payloads and decreasing times included.
//! Decoding checks every count against the bits left before it
//! allocates.
//!
//! Version 1 (the same frame around a payload of fixed-width fields)
//! fails with [`StorageError::NeedsMigrate`]: `utcq migrate` rewrites a
//! v1 log as v2.
//!
//! Torn-tail semantics: a final record that is incomplete (short frame
//! or short payload) or fails its checksum is treated as a torn write
//! and truncated away on open; the same damage *followed by more
//! bytes* is real corruption and fails the open. [`scan`] is a pure
//! function over the file bytes so the fuzzer can drive the replay
//! path directly. A failed [`Wal::append`] cuts the file back to its
//! last whole record, so it never leaves that damage behind.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use utcq_bitio::{golomb, BitReader, BitSlice, BitWriter, CodecError};
use utcq_network::EdgeId;
use utcq_traj::{Dataset, Instance, PathPosition, UncertainTrajectory};

use crate::error::Error;
use crate::storage::StorageError;

/// Magic prefix of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"UTCQWAL\0";
/// Current WAL format version: the only one written.
pub const WAL_VERSION: u32 = 2;
/// Fixed header size: magic + version + extra_len.
const FIXED_HEADER: usize = 16;
/// How many recent batches the feed keeps the places of, for the `tail`
/// wire op and leader-side ingest dedup.
pub const TAIL_KEEP: usize = 4096;

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
    /// Where `checkpoint` saves the container; filled in automatically
    /// by the durable open paths.
    pub checkpoint_to: Option<PathBuf>,
}

impl WalConfig {
    /// A config with the default fsync policy (`Always`).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalConfig {
            path: path.into(),
            fsync: FsyncPolicy::Always,
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
/// the feed reads the record back for `tail`.
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
// Payload codec (v2).

/// The value [`put_u64`] reserves: order-0 Exp-Golomb reaches
/// `u64::MAX - 1` at most, so the top two values share its code plus a
/// bit.
const U64_ESCAPE: u64 = u64::MAX - 1;
/// SIAR's code stops below 2⁶²; a deviation of this magnitude or more
/// is written as the code of `-DEV_ESCAPE` and the raw 64 bits.
const DEV_ESCAPE: i64 = (1 << 62) - 1;
/// The mantissa bits of an `f64`.
const MANTISSA: u64 = (1 << 52) - 1;
/// Sign-and-exponent bits of [0.5, 1): the centre of the float code.
const EXP_CENTRE: i64 = 1022;
/// Fewest bits a trajectory, an instance and a reference position take
/// — what a decoded count is checked against.
const MIN_TRAJ_BITS: usize = 3;
const MIN_INSTANCE_BITS: usize = 55;
const MIN_REF_POSITION_BITS: usize = 54;
const MIN_POSITION_BITS: usize = 2;

/// The codec hands the writer only values its codes carry: `put_u64`
/// never passes `u64::MAX` to Exp-Golomb, `put_deviation` no magnitude
/// at or past 2⁶², and raw fields are masked to their width.
fn fits(written: Result<(), CodecError>) {
    debug_assert!(written.is_ok(), "wal codec overran a code: {written:?}");
}

fn zz(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzz(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_u64(w: &mut BitWriter, v: u64) {
    fits(golomb::encode_unsigned(w, v.min(U64_ESCAPE)));
    if v >= U64_ESCAPE {
        w.push_bit(v == u64::MAX);
    }
}

fn get_u64(r: &mut BitReader<'_>) -> Result<u64, Error> {
    let v = golomb::decode_unsigned(r)?;
    Ok(if v == U64_ESCAPE && r.read_bit()? {
        u64::MAX
    } else {
        v
    })
}

fn put_i64(w: &mut BitWriter, v: i64) {
    put_u64(w, zz(v));
}

fn get_i64(r: &mut BitReader<'_>) -> Result<i64, Error> {
    get_u64(r).map(unzz)
}

fn put_deviation(w: &mut BitWriter, d: i64) {
    if d.unsigned_abs() < DEV_ESCAPE.unsigned_abs() {
        fits(golomb::encode_deviation(w, d));
    } else {
        fits(golomb::encode_deviation(w, -DEV_ESCAPE));
        fits(w.write_bits(d as u64, 64));
    }
}

fn get_deviation(r: &mut BitReader<'_>) -> Result<i64, Error> {
    match golomb::decode_deviation(r)? {
        d if d == -DEV_ESCAPE => Ok(r.read_bits(64)? as i64),
        d => Ok(d),
    }
}

fn put_f64(w: &mut BitWriter, v: f64) {
    let bits = v.to_bits();
    put_i64(w, EXP_CENTRE - (bits >> 52) as i64);
    fits(w.write_bits(bits & MANTISSA, 52));
}

fn get_f64(r: &mut BitReader<'_>) -> Result<f64, Error> {
    let se = EXP_CENTRE
        .checked_sub(get_i64(r)?)
        .filter(|se| (0..1 << 12).contains(se))
        .ok_or(Error::CorruptStore("wal float exponent out of range"))?;
    Ok(f64::from_bits(((se as u64) << 52) | r.read_bits(52)?))
}

/// Reads a count of elements of at least `min_bits` each, refusing one
/// the bits left cannot hold before anything is allocated for it.
fn get_count(r: &mut BitReader<'_>, min_bits: usize) -> Result<usize, Error> {
    let n = get_u64(r)?;
    checked_count(r, n, min_bits)
}

fn checked_count(r: &BitReader<'_>, n: u64, min_bits: usize) -> Result<usize, Error> {
    if n > (r.remaining() / min_bits) as u64 {
        return Err(Error::CorruptStore("wal count exceeds the record"));
    }
    Ok(n as usize)
}

/// A position count, written against the time count it nearly always
/// equals.
fn put_positions_len(w: &mut BitWriter, n: usize, n_times: usize) {
    put_i64(w, (n as i64).wrapping_sub(n_times as i64));
}

fn get_positions_len(
    r: &mut BitReader<'_>,
    n_times: usize,
    min_bits: usize,
) -> Result<usize, Error> {
    let n = (n_times as i64).wrapping_add(get_i64(r)?);
    checked_count(r, n as u64, min_bits)
}

/// An edge id or path index as its step from `prev`, minus the step
/// the reader expects (zero, or the reference's step at this position).
fn put_step(w: &mut BitWriter, prev: u32, expected: i64, v: u32) {
    put_i64(w, i64::from(v) - i64::from(prev) - expected);
}

fn get_step(r: &mut BitReader<'_>, prev: u32, expected: i64) -> Result<u32, Error> {
    let step = get_i64(r)?;
    (i64::from(prev) + expected)
        .checked_add(step)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(Error::CorruptStore(
            "wal edge id or path index out of range",
        ))
}

/// Lengths of the longest common prefix of `a` and `b`, and of the
/// longest common suffix of what follows that prefix in both.
fn shared_ends(a: &[EdgeId], b: &[EdgeId]) -> (usize, usize) {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let a = a.get(prefix..).unwrap_or_default();
    let b = b.get(prefix..).unwrap_or_default();
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (prefix, suffix)
}

fn put_trajectory(w: &mut BitWriter, tu: &UncertainTrajectory, interval: i64) {
    put_u64(w, tu.id);
    put_u64(w, tu.times.len() as u64);
    put_u64(w, tu.instances.len() as u64);
    if let Some((&first, rest)) = tu.times.split_first() {
        put_i64(w, first);
        let mut prev = first;
        for &t in rest {
            put_deviation(w, t.wrapping_sub(prev).wrapping_sub(interval));
            prev = t;
        }
    }
    let Some((reference, others)) = tu.instances.split_first() else {
        return;
    };
    let n_times = tu.times.len();
    put_f64(w, reference.prob);
    put_u64(w, reference.path.len() as u64);
    let mut prev = 0;
    for &e in &reference.path {
        put_step(w, prev, 0, e.0);
        prev = e.0;
    }
    put_positions_len(w, reference.positions.len(), n_times);
    let mut prev = 0;
    for p in &reference.positions {
        put_step(w, prev, 0, p.path_idx);
        put_f64(w, p.rd);
        prev = p.path_idx;
    }
    for inst in others {
        put_variant(w, inst, reference, n_times);
    }
}

fn put_variant(w: &mut BitWriter, inst: &Instance, reference: &Instance, n_times: usize) {
    put_f64(w, inst.prob);
    let (prefix, suffix) = shared_ends(&inst.path, &reference.path);
    let middle = inst
        .path
        .get(prefix..inst.path.len() - suffix)
        .unwrap_or_default();
    put_u64(w, (reference.path.len() - prefix) as u64);
    put_u64(w, suffix as u64);
    put_u64(w, middle.len() as u64);
    let mut prev = prefix
        .checked_sub(1)
        .and_then(|i| inst.path.get(i))
        .map_or(0, |e| e.0);
    for &e in middle {
        put_step(w, prev, 0, e.0);
        prev = e.0;
    }
    put_positions_len(w, inst.positions.len(), n_times);
    let (mut prev, mut prev_ref) = (0, 0);
    for (i, p) in inst.positions.iter().enumerate() {
        let twin = reference.positions.get(i);
        let expected = twin.map_or(0, |t| i64::from(t.path_idx) - i64::from(prev_ref));
        put_step(w, prev, expected, p.path_idx);
        match twin {
            Some(t) if t.rd.to_bits() == p.rd.to_bits() => w.push_bit(true),
            Some(_) => {
                w.push_bit(false);
                put_f64(w, p.rd);
            }
            None => put_f64(w, p.rd),
        }
        prev = p.path_idx;
        if let Some(t) = twin {
            prev_ref = t.path_idx;
        }
    }
}

fn get_trajectory(r: &mut BitReader<'_>, interval: i64) -> Result<UncertainTrajectory, Error> {
    let id = get_u64(r)?;
    let n_times = get_count(r, 1)?;
    let n_instances = get_count(r, MIN_INSTANCE_BITS)?;
    let mut times = Vec::with_capacity(n_times);
    if n_times > 0 {
        let mut t = get_i64(r)?;
        times.push(t);
        for _ in 1..n_times {
            t = t.wrapping_add(interval).wrapping_add(get_deviation(r)?);
            times.push(t);
        }
    }
    let mut instances = Vec::with_capacity(n_instances);
    if n_instances > 0 {
        let reference = get_reference(r, n_times)?;
        for _ in 1..n_instances {
            instances.push(get_variant(r, &reference, n_times)?);
        }
        instances.insert(0, reference);
    }
    Ok(UncertainTrajectory {
        id,
        times,
        instances,
    })
}

fn get_reference(r: &mut BitReader<'_>, n_times: usize) -> Result<Instance, Error> {
    let prob = get_f64(r)?;
    let n_edges = get_count(r, 1)?;
    let mut path = Vec::with_capacity(n_edges);
    let mut prev = 0;
    for _ in 0..n_edges {
        prev = get_step(r, prev, 0)?;
        path.push(EdgeId(prev));
    }
    let n_positions = get_positions_len(r, n_times, MIN_REF_POSITION_BITS)?;
    let mut positions = Vec::with_capacity(n_positions);
    let mut prev = 0;
    for _ in 0..n_positions {
        let path_idx = get_step(r, prev, 0)?;
        positions.push(PathPosition {
            path_idx,
            rd: get_f64(r)?,
        });
        prev = path_idx;
    }
    Ok(Instance {
        path,
        positions,
        prob,
    })
}

fn get_variant(
    r: &mut BitReader<'_>,
    reference: &Instance,
    n_times: usize,
) -> Result<Instance, Error> {
    let prob = get_f64(r)?;
    let ref_path = &reference.path;
    // Prefix and suffix arrive as counts back from the reference's end.
    let from_end = |r: &mut BitReader<'_>, floor: usize| -> Result<usize, Error> {
        usize::try_from(get_u64(r)?)
            .ok()
            .and_then(|n| ref_path.len().checked_sub(n))
            .filter(|&at| at >= floor)
            .ok_or(Error::CorruptStore(
                "wal instance shares more path than its reference has",
            ))
    };
    let prefix = from_end(r, 0)?;
    let suffix_at = from_end(r, prefix)?;
    let n_middle = get_count(r, 1)?;
    let head = ref_path.get(..prefix).unwrap_or_default();
    let tail = ref_path.get(suffix_at..).unwrap_or_default();
    let mut path = Vec::with_capacity(head.len() + n_middle + tail.len());
    path.extend_from_slice(head);
    let mut prev = head.last().map_or(0, |e| e.0);
    for _ in 0..n_middle {
        prev = get_step(r, prev, 0)?;
        path.push(EdgeId(prev));
    }
    path.extend_from_slice(tail);
    let n_positions = get_positions_len(r, n_times, MIN_POSITION_BITS)?;
    let mut positions = Vec::with_capacity(n_positions);
    let (mut prev, mut prev_ref) = (0, 0);
    for i in 0..n_positions {
        let twin = reference.positions.get(i);
        let expected = twin.map_or(0, |t| i64::from(t.path_idx) - i64::from(prev_ref));
        let path_idx = get_step(r, prev, expected)?;
        let rd = match twin {
            Some(t) if r.read_bit()? => t.rd,
            _ => get_f64(r)?,
        };
        positions.push(PathPosition { path_idx, rd });
        prev = path_idx;
        if let Some(t) = twin {
            prev_ref = t.path_idx;
        }
    }
    Ok(Instance {
        path,
        positions,
        prob,
    })
}

/// Encodes one batch as a v2 payload: the byte-aligned record header,
/// then the bit-packed trajectories.
pub fn encode_batch(
    epoch: u64,
    name: &str,
    default_interval: i64,
    trajectories: &[UncertainTrajectory],
) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(trajectories.len() * 2048);
    for tu in trajectories {
        put_trajectory(&mut w, tu, default_interval);
    }
    let body = w.finish();
    let mut out = Vec::with_capacity(24 + name.len() + body.len_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&default_interval.to_le_bytes());
    out.extend_from_slice(&(trajectories.len() as u32).to_le_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Encodes a record's payload (everything inside the checksummed
/// region).
pub fn encode_payload(rec: &Record) -> Vec<u8> {
    encode_batch(
        rec.epoch,
        &rec.name,
        rec.default_interval,
        &rec.trajectories,
    )
}

/// Frames a payload: length prefix, checksum, payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a full framed record: length prefix, checksum, payload.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    frame(&encode_payload(rec))
}

/// A v2 payload opened past its record header; the trajectories decode
/// one at a time.
struct Body<'a> {
    r: BitReader<'a>,
    interval: i64,
    left: usize,
}

impl Body<'_> {
    fn next_trajectory(&mut self) -> Result<Option<UncertainTrajectory>, Error> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        get_trajectory(&mut self.r, self.interval).map(Some)
    }

    /// Checks that only the zero padding of the last byte is left.
    fn finish(mut self) -> Result<(), Error> {
        let left = self.r.remaining();
        if left >= 8 || self.r.read_bits(left as u32)? != 0 {
            return Err(Error::CorruptStore("wal record has trailing bytes"));
        }
        Ok(())
    }
}

/// Reads a v2 payload's record header: the record without its
/// trajectories, and the body that decodes them.
fn open_payload(payload: &[u8]) -> Result<(Record, Body<'_>), Error> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let (epoch, name, default_interval) = c.record_header()?;
    let n_trajectories = c.u32()?;
    let bytes = c.take(c.remaining())?;
    let r = BitSlice::from_bytes(bytes, bytes.len() * 8)
        .ok_or(Error::CorruptStore("wal record body is malformed"))?
        .reader();
    let left = checked_count(&r, u64::from(n_trajectories), MIN_TRAJ_BITS)?;
    let rec = Record {
        epoch,
        name,
        default_interval,
        trajectories: Vec::new(),
    };
    Ok((
        rec,
        Body {
            r,
            interval: default_interval,
            left,
        },
    ))
}

/// Decodes one v2 record payload. Pure; returns `Err` on any
/// malformation.
pub fn decode_payload(payload: &[u8]) -> Result<Record, Error> {
    let (mut rec, mut body) = open_payload(payload)?;
    rec.trajectories.reserve_exact(body.left);
    while let Some(tu) = body.next_trajectory()? {
        rec.trajectories.push(tu);
    }
    body.finish()?;
    Ok(rec)
}

/// Whether a v2 payload holds exactly `tus` (compared with `==`);
/// decodes only up to the first trajectory that differs.
fn holds_exactly(payload: &[u8], tus: &[UncertainTrajectory]) -> bool {
    let Ok((_, mut body)) = open_payload(payload) else {
        return false;
    };
    body.left == tus.len()
        && tus
            .iter()
            .all(|tu| matches!(body.next_trajectory(), Ok(Some(t)) if t == *tu))
}

// ---------------------------------------------------------------------
// The byte cursor (frames and record headers).

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

    /// Epoch, name and interval.
    fn record_header(&mut self) -> Result<(u64, String, i64), Error> {
        let epoch = self.u64()?;
        let name_len = self.u32()? as usize;
        let name = std::str::from_utf8(self.take(name_len)?)
            .map_err(|_| Error::CorruptStore("wal record name is not utf-8"))?
            .to_string();
        Ok((epoch, name, self.i64()?))
    }
}

// ---------------------------------------------------------------------
// Scanning a file image.

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

/// Where an intact record's payload lies in a log: its offset past the
/// 8-byte frame header, and its length.
pub(crate) type Span = (u64, u32);

/// The checksummed payloads of a file image, not yet decoded.
struct Frames {
    /// Header length, extra bytes included.
    header_len: u64,
    payloads: Vec<Span>,
    keep_len: u64,
    torn: bool,
}

fn frames(bytes: &[u8]) -> Result<Frames, Error> {
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
    if version == 1 {
        let what = "write-ahead log";
        return Err(StorageError::NeedsMigrate { what, version }.into());
    }
    if version != WAL_VERSION {
        return Err(Error::CorruptStore("wal version unsupported"));
    }
    let extra = c
        .u32()
        .map_err(|_| Error::CorruptStore("wal header truncated"))?;
    c.take(extra as usize)
        .map_err(|_| Error::CorruptStore("wal header truncated"))?;
    let header_len = c.at as u64;
    let mut payloads = Vec::new();
    let mut keep = header_len;
    loop {
        let start = c.at;
        let done = |payloads, keep_len, torn| {
            Ok(Frames {
                header_len,
                payloads,
                keep_len,
                torn,
            })
        };
        if c.remaining() == 0 {
            return done(payloads, keep, false);
        }
        if c.remaining() < 8 {
            return done(payloads, start as u64, true);
        }
        let (len, crc) = match (c.u32(), c.u32()) {
            (Ok(l), Ok(x)) => (l, x),
            _ => return done(payloads, start as u64, true),
        };
        if (len as usize) > c.remaining() {
            return done(payloads, start as u64, true);
        }
        let at = c.at as u64;
        let payload = c.take(len as usize)?;
        if crc32(payload) != crc {
            if c.remaining() == 0 {
                // Damaged final record: a torn write, not corruption.
                return done(payloads, start as u64, true);
            }
            return Err(Error::CorruptStore("wal record checksum mismatch"));
        }
        payloads.push((at, len));
        keep = c.at as u64;
    }
}

/// Decodes every payload `frames` found in `bytes`, in order.
fn decode_all(bytes: &[u8], payloads: &[Span]) -> Result<Vec<Record>, Error> {
    let payload = |&(at, len): &Span| {
        let at = at as usize;
        bytes
            .get(at..at + len as usize)
            .ok_or(Error::CorruptStore("wal payload truncated"))
    };
    payloads
        .iter()
        .map(|s| decode_payload(payload(s)?))
        .collect()
}

/// Scans a complete WAL file image. Header problems and mid-file damage
/// are hard errors; a damaged *final* record is reported as torn. Pure —
/// this is the function the fuzzer drives.
pub fn scan(bytes: &[u8]) -> Result<Scan, Error> {
    let f = frames(bytes)?;
    Ok(Scan {
        records: decode_all(bytes, &f.payloads)?,
        keep_len: f.keep_len,
        torn: f.torn,
    })
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
    /// Where a truncation cuts: the header, extra bytes included.
    header_len: u64,
    /// A failed append could not be cut back off the file; nothing may
    /// land behind it.
    broken: bool,
}

fn header() -> Vec<u8> {
    let mut header = Vec::with_capacity(FIXED_HEADER);
    header.extend_from_slice(WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header
}

impl Wal {
    /// Opens (or creates) the log at `cfg.path`, replaying any existing
    /// records. A torn final record is truncated away; any other damage
    /// fails the open, and so does a v1 log (`utcq migrate` rewrites it
    /// as v2). Returns the
    /// handle plus the replayed records with their *stored*
    /// (container-relative) epochs.
    pub fn open(cfg: &WalConfig) -> Result<(Wal, Vec<Record>), Error> {
        let (wal, bytes, payloads) = Self::open_image(cfg)?;
        let records = decode_all(&bytes, &payloads)?;
        Ok((wal, records))
    }

    /// [`Wal::open`] without the decoding: where the payloads of the
    /// intact records lie, in order. The file image is dropped before
    /// this returns; [`Wal::read_payload`] reads a payload back.
    pub(crate) fn open_payloads(cfg: &WalConfig) -> Result<(Wal, Vec<Span>), Error> {
        let (wal, _, payloads) = Self::open_image(cfg)?;
        Ok((wal, payloads))
    }

    /// Opens the log, cuts a torn tail off, and returns the handle, the
    /// file image and its intact payloads.
    fn open_image(cfg: &WalConfig) -> Result<(Wal, Vec<u8>, Vec<Span>), Error> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&cfg.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let wal = |file, len, header_len| Wal {
            file,
            path: cfg.path.clone(),
            fsync: cfg.fsync,
            unsynced: 0,
            len,
            header_len,
            broken: false,
        };
        if bytes.is_empty() {
            file.write_all(&header())?;
            file.sync_all()?;
            let len = FIXED_HEADER as u64;
            return Ok((wal(file, len, len), bytes, Vec::new()));
        }
        let f = frames(&bytes)?;
        if f.torn {
            file.set_len(f.keep_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(f.keep_len))?;
        Ok((wal(file, f.keep_len, f.header_len), bytes, f.payloads))
    }

    /// Reads the payload at `span` from the file, leaving the append
    /// position where it is.
    pub(crate) fn read_payload(&self, (at, len): Span, buf: &mut Vec<u8>) -> Result<(), Error> {
        buf.resize(len as usize, 0);
        self.file.read_exact_at(buf, at)?;
        Ok(())
    }

    /// Appends one record and applies the fsync policy. The frame is
    /// written with a single `write_all` of a prebuilt buffer, so the
    /// only torn states a crash can leave are short tails; a failed
    /// write or sync is cut back off the file.
    pub fn append(&mut self, rec: &Record) -> Result<(), Error> {
        self.append_payload(&encode_payload(rec))
    }

    /// [`Wal::append`] of an encoded payload.
    pub(crate) fn append_payload(&mut self, payload: &[u8]) -> Result<(), Error> {
        if self.broken {
            return Err(Error::CorruptStore(
                "wal refuses appends: a failed append could not be rolled back",
            ));
        }
        let frame = frame(payload);
        crate::hooks::point("wal.before_append");
        let unsynced = self.unsynced.saturating_add(1);
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        let start = self.len;
        let written = write_frame(&mut self.file, &frame).and_then(|()| {
            self.len = start + frame.len() as u64;
            crate::hooks::point("wal.appended");
            if due {
                sync_data(&self.file)?;
            }
            Ok(())
        });
        if let Err(e) = written {
            // Cut the partial frame off, so the next append lands right
            // behind the last whole record and the log stays readable.
            self.len = start;
            let rolled_back = self
                .file
                .set_len(start)
                .and_then(|()| self.file.seek(SeekFrom::Start(start)));
            self.broken = rolled_back.is_err();
            return Err(e.into());
        }
        self.unsynced = if due { 0 } else { unsynced };
        crate::hooks::point("wal.synced");
        Ok(())
    }

    /// Discards every record, leaving only the header (used after a
    /// successful checkpoint).
    ///
    /// The handle follows the file as soon as it is cut, whether or not
    /// the sync after it succeeds: a later rollback must cut back to
    /// where the file ends now, not to where it ended before.
    pub fn truncate(&mut self) -> Result<(), Error> {
        self.file.set_len(self.header_len)?;
        (self.len, self.unsynced) = (self.header_len, 0);
        if let Err(e) = self.file.seek(SeekFrom::Start(self.header_len)) {
            // The next write would land at an unknown offset.
            self.broken = true;
            return Err(e.into());
        }
        sync_data(&self.file)?;
        Ok(())
    }

    /// Replaces the log with the header and `logged`'s records, each
    /// payload's epoch set to its entry's, and points each entry at its
    /// record's new place: what finishing an interrupted checkpoint
    /// leaves on disk. The records are copied one at a time into a
    /// sibling file that [`atomic_write`] renames over the log, so a
    /// crash leaves either the old log or the new one, whole.
    pub(crate) fn rewrite(&mut self, logged: &mut [Logged]) -> Result<(), Error> {
        let mut header = vec![0; self.header_len as usize];
        self.file.read_exact_at(&mut header, 0)?;
        let mut len = self.header_len;
        atomic_write(&self.path, |w| {
            w.write_all(&header)?;
            let mut payload = Vec::new();
            for l in logged.iter_mut() {
                self.read_payload((l.at, l.len), &mut payload)?;
                // The epoch is the payload's first eight bytes.
                if let Some(head) = payload.get_mut(..8) {
                    head.copy_from_slice(&l.epoch.to_le_bytes());
                }
                w.write_all(&l.len.to_le_bytes())?;
                w.write_all(&crc32(&payload).to_le_bytes())?;
                w.write_all(&payload)?;
                l.at = len + 8;
                len = l.at + u64::from(l.len);
            }
            Ok(())
        })?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::Start(len))?;
        (self.file, self.len, self.unsynced) = (file, len, 0);
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

/// Writes one frame. Tests can make it fail after a given number of
/// bytes, the way a full disk does.
fn write_frame(file: &mut File, frame: &[u8]) -> std::io::Result<()> {
    #[cfg(test)]
    if let Some(k) = tests::FAIL_AFTER.with(std::cell::Cell::take) {
        file.write_all(frame.get(..k).unwrap_or(frame))?;
        return Err(std::io::Error::other("injected write fault"));
    }
    file.write_all(frame)
}

/// `file.sync_data()`. Tests can make it fail, the way a disk that
/// reports an I/O error on flush does.
fn sync_data(file: &File) -> std::io::Result<()> {
    #[cfg(test)]
    if tests::FAIL_SYNC.with(std::cell::Cell::take) {
        return Err(std::io::Error::other("injected sync fault"));
    }
    file.sync_data()
}

// ---------------------------------------------------------------------
// Crash-safe whole-file writes (checkpoint/save helper).

/// Writes a file atomically: the content goes to a sibling tmp file
/// which is fsynced, renamed over `path`, and the parent directory is
/// fsynced, so a crash at any point leaves either the old file or the
/// new one — never a torn mix. A failure before the rename leaves the
/// old file and no tmp file; one at the directory sync, after the
/// rename, leaves the new file in place.
pub(crate) fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<SaveFile>) -> Result<(), Error>,
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
        let mut w = BufWriter::new(SaveFile::create(&tmp)?);
        write(&mut w)?;
        let f = w.into_inner().map_err(|e| Error::Io(e.into_error()))?.file;
        save_fault("sync")?;
        f.sync_all()?;
        drop(f);
        crate::hooks::point("save.before_rename");
        save_fault("rename")?;
        fs::rename(&tmp, path)?;
        save_fault("dir sync")?;
        File::open(&dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The tmp file of an [`atomic_write`]. Tests can make its writes fail
/// after a given number of bytes, the way a full disk does.
pub(crate) struct SaveFile {
    file: File,
    #[cfg(test)]
    room: Option<usize>,
}

impl SaveFile {
    fn create(path: &Path) -> std::io::Result<Self> {
        Ok(SaveFile {
            file: File::create(path)?,
            #[cfg(test)]
            room: tests::take_write_fault(),
        })
    }
}

impl Write for SaveFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        #[cfg(test)]
        if let Some(room) = &mut self.room {
            if *room == 0 {
                return Err(std::io::ErrorKind::StorageFull.into());
            }
            let n = self.file.write(buf.get(..*room).unwrap_or(buf))?;
            *room -= n;
            return Ok(n);
        }
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// Fails if a test made `step` of the next [`atomic_write`] fail
/// (`"sync"`, `"rename"` or `"dir sync"`), the way a disk that reports
/// an I/O error does.
fn save_fault(step: &'static str) -> std::io::Result<()> {
    #[cfg(test)]
    if tests::FAIL_SAVE.with(std::cell::Cell::get) == Some(tests::SaveFault::At(step)) {
        tests::FAIL_SAVE.with(|f| f.set(None));
        return Err(std::io::Error::other("injected save fault"));
    }
    let _ = step;
    Ok(())
}

// ---------------------------------------------------------------------
// Sidecar state: a store's attached log plus the feed of recent
// batches (live epochs, places in the file) serving `tail` and ingest
// dedup.

/// What a `tail` read produced.
#[derive(Debug)]
pub enum TailRead {
    /// `from` predates the feed; the caller must re-sync
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

/// One batch of the feed: where the file holds its payload, under its
/// live epoch (the payload's own may be container-relative).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Logged {
    pub epoch: u64,
    /// The payload's offset in the file, past its 8-byte frame header.
    pub at: u64,
    pub len: u32,
}

/// A store's durability sidecar: the open log, the checkpoint target,
/// and the bounded feed of recent batches.
#[derive(Debug)]
pub(crate) struct Sidecar {
    pub wal: Wal,
    pub checkpoint_to: Option<PathBuf>,
    /// Live epoch at the last truncation; records are stored in the
    /// file with `epoch - base` so a reopened container (whose epochs
    /// restart at 1) replays to matching numbers.
    base: u64,
    /// Recent batches, oldest first, as places in the file.
    tail: VecDeque<Logged>,
    /// Live epoch preceding `tail.front()`.
    tail_base: u64,
}

impl Sidecar {
    pub fn new(wal: Wal, cfg: &WalConfig) -> Sidecar {
        Sidecar {
            wal,
            checkpoint_to: cfg.checkpoint_to.clone(),
            base: 0,
            tail: VecDeque::new(),
            tail_base: 0,
        }
    }

    /// Appends a batch that publishes at live epoch `epoch`, with the
    /// container-relative number, and feeds where it landed.
    pub fn append_live(&mut self, epoch: u64, batch: &Dataset) -> Result<(), Error> {
        let payload = encode_batch(
            epoch.saturating_sub(self.base),
            &batch.name,
            batch.default_interval,
            &batch.trajectories,
        );
        let at = self.wal.len_bytes() + 8;
        self.wal.append_payload(&payload)?;
        let len = payload.len() as u32;
        self.push_feed(Logged { epoch, at, len });
        Ok(())
    }

    /// Pushes a logged batch into the feed without touching the file
    /// (replay).
    pub fn push_feed(&mut self, logged: Logged) {
        if self.tail.is_empty() {
            self.tail_base = logged.epoch.saturating_sub(1);
        }
        self.tail.push_back(logged);
        while self.tail.len() > TAIL_KEEP {
            if let Some(dropped) = self.tail.pop_front() {
                self.tail_base = dropped.epoch;
            }
        }
    }

    /// Marks a completed checkpoint at live epoch `epoch`: truncates
    /// the file and rebases future stored epochs. The feed truncates
    /// with it — the feed points into the log, so a follower resuming
    /// from before the checkpoint gets an honest `Gap` (it must re-seed
    /// from the fresh container) instead of records the log no longer
    /// holds. A cut whose sync fails has still cut the file, so it
    /// rebases all the same.
    pub fn checkpointed(&mut self, epoch: u64) -> Result<(), Error> {
        let cut = self.wal.truncate();
        if self.wal.len == self.wal.header_len {
            self.base = epoch;
            self.tail.clear();
            self.tail_base = epoch;
        }
        cut
    }

    /// Batches with live epochs strictly greater than `from`, capped
    /// at `max` per call, read back from the file. A payload that no
    /// longer reads or decodes answers as a gap, so a follower re-syncs
    /// instead of skipping a batch.
    pub fn records_since(&self, from: u64, max: usize, current: u64) -> TailRead {
        if from < self.tail_base {
            return TailRead::Gap {
                base: self.tail_base,
            };
        }
        let mut payload = Vec::new();
        let decoded = self
            .tail
            .iter()
            .filter(|l| l.epoch > from)
            .take(max)
            .map(|l| {
                self.wal.read_payload((l.at, l.len), &mut payload)?;
                let mut rec = decode_payload(&payload)?;
                rec.epoch = l.epoch;
                Ok(rec)
            })
            .collect::<Result<_, Error>>();
        match decoded {
            Ok(records) => TailRead::Records { records, current },
            Err(_) => TailRead::Gap { base: current },
        }
    }

    /// If a feed batch consists of exactly these trajectories
    /// (compared in full, not just by id — a *different* batch reusing
    /// an id must still fail as a duplicate), returns its live epoch
    /// and size — the leader-side dedup that makes client re-sends
    /// after a reconnect idempotent. Reads the feed's payloads from the
    /// file, newest first; one that does not read is no match.
    pub fn dedup_epoch(&self, tus: &[UncertainTrajectory]) -> Option<(u64, usize)> {
        if tus.is_empty() {
            return None;
        }
        let mut payload = Vec::new();
        self.tail.iter().rev().find_map(|l| {
            let read = self.wal.read_payload((l.at, l.len), &mut payload);
            (read.is_ok() && holds_exactly(&payload, tus)).then_some((l.epoch, tus.len()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Makes the next frame write fail after this many bytes.
        pub(super) static FAIL_AFTER: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
        /// Makes the next `sync_data` fail.
        pub(super) static FAIL_SYNC: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
        /// Makes one step of the next `atomic_write` fail.
        pub(super) static FAIL_SAVE: std::cell::Cell<Option<SaveFault>> =
            const { std::cell::Cell::new(None) };
    }

    /// Where the next `atomic_write` fails.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum SaveFault {
        /// Its writes, after this many bytes (a full disk).
        WriteAfter(usize),
        /// `"sync"`, `"rename"` or `"dir sync"` (a disk I/O error).
        At(&'static str),
    }

    /// Takes a [`SaveFault::WriteAfter`], leaving any other fault set.
    pub(super) fn take_write_fault() -> Option<usize> {
        let Some(SaveFault::WriteAfter(k)) = FAIL_SAVE.with(std::cell::Cell::get) else {
            return None;
        };
        FAIL_SAVE.with(|f| f.set(None));
        Some(k)
    }

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

    /// Logs `rec` through the sidecar the way `WriterCore::log` does.
    fn log(sc: &mut Sidecar, rec: Record) -> Result<(), Error> {
        let batch = Dataset {
            name: rec.name,
            default_interval: rec.default_interval,
            trajectories: rec.trajectories,
        };
        sc.append_live(rec.epoch, &batch)
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
        let cfg = WalConfig::new(tmp("sidecar")).fsync(FsyncPolicy::Never);
        let _ = std::fs::remove_file(&cfg.path);
        let (wal, _) = Wal::open(&cfg).expect("create");
        let mut sc = Sidecar::new(wal, &cfg);
        let last = TAIL_KEEP as u64 + 2;
        for e in 1..=last {
            log(&mut sc, sample(e, 100 + e)).expect("append");
        }
        // Feed capped at TAIL_KEEP: epochs 1 and 2 fell off → asking
        // from 1 is a gap.
        match sc.records_since(1, 64, last) {
            TailRead::Gap { base } => assert_eq!(base, 2),
            TailRead::Records { .. } => panic!("expected gap"),
        }
        match sc.records_since(last - 2, 64, last) {
            TailRead::Records { records, current } => {
                assert_eq!(current, last);
                assert_eq!(
                    records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
                    vec![last - 1, last]
                );
            }
            TailRead::Gap { .. } => panic!("expected records"),
        }
        match sc.records_since(2, 64, last) {
            TailRead::Records { records, .. } => assert_eq!(records[0].epoch, 3),
            TailRead::Gap { .. } => panic!("epoch 3 is the feed's oldest"),
        }
        assert_eq!(sc.dedup_epoch(&sample(3, 103).trajectories), Some((3, 1)));
        assert_eq!(sc.dedup_epoch(&sample(2, 102).trajectories), None);
        assert_eq!(sc.dedup_epoch(&sample(9, 99).trajectories), None);
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
        log(&mut sc, sample(1, 10)).expect("append");
        log(&mut sc, sample(2, 11)).expect("append");
        sc.checkpointed(2).expect("checkpoint");
        // The feed truncates with the log: pre-checkpoint epochs are a
        // gap, the next live batch streams normally.
        match sc.records_since(1, 64, 2) {
            TailRead::Gap { base } => assert_eq!(base, 2),
            TailRead::Records { .. } => panic!("expected gap after checkpoint"),
        }
        log(&mut sc, sample(3, 12)).expect("append");
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

    /// A record with every float as its bits, so `==` means bit-exact
    /// (NaN payloads and the sign of zero included).
    type Bits = (u64, String, i64, Vec<(u64, Vec<i64>, Vec<InstanceBits>)>);
    type InstanceBits = (u64, Vec<u32>, Vec<(u32, u64)>);

    fn bits(rec: &Record) -> Bits {
        let inst = |i: &Instance| {
            let path = i.path.iter().map(|e| e.0).collect();
            let positions = i.positions.iter().map(|p| (p.path_idx, p.rd.to_bits()));
            (i.prob.to_bits(), path, positions.collect())
        };
        let tus = rec.trajectories.iter();
        let tus = tus.map(|tu| {
            (
                tu.id,
                tu.times.clone(),
                tu.instances.iter().map(inst).collect(),
            )
        });
        (
            rec.epoch,
            rec.name.clone(),
            rec.default_interval,
            tus.collect(),
        )
    }

    fn image(version: u32, frames: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        frames.iter().for_each(|f| bytes.extend_from_slice(f));
        bytes
    }

    fn instance(path: &[u32], positions: &[(u32, f64)], prob: f64) -> Instance {
        Instance {
            path: path.iter().map(|&e| EdgeId(e)).collect(),
            positions: positions
                .iter()
                .map(|&(path_idx, rd)| PathPosition { path_idx, rd })
                .collect(),
            prob,
        }
    }

    #[test]
    fn reference_relative_code_is_small_on_near_copies() {
        // One reference and a variant that repeats it: the variant costs
        // its probability plus a few bits per position, not its floats.
        let positions: Vec<(u32, f64)> = (0..40)
            .map(|i| (i / 2, 0.5 + f64::from(i) / 100.0))
            .collect();
        let reference = instance(&(100..120).collect::<Vec<_>>(), &positions, 0.75);
        let variant = Instance {
            prob: 0.25,
            ..reference.clone()
        };
        let one = |instances| Record {
            epoch: 1,
            name: String::new(),
            default_interval: 30,
            trajectories: vec![UncertainTrajectory {
                id: 1,
                times: (0..40).map(|t| t * 30).collect(),
                instances,
            }],
        };
        let alone = encode_payload(&one(vec![reference.clone()])).len();
        let both = encode_payload(&one(vec![reference, variant])).len();
        // 55 bits of probability, 5 of path and count, 2 per position.
        assert!(
            both - alone <= (55 + 5 + 40 * 2) / 8 + 1,
            "{alone} -> {both}"
        );
    }

    #[test]
    fn counts_past_the_bits_left_fail_before_allocating() {
        // A record header, then a body claiming 2⁴⁰ of something with a
        // few bits behind the claim. Reserving room for 2⁴⁰ instances
        // (or times, edges, positions) would abort the process; each
        // must be refused instead.
        let with_body = |n_trajectories: u32, body: &dyn Fn(&mut BitWriter)| {
            let mut w = BitWriter::new();
            body(&mut w);
            let mut payload = encode_batch(1, "", 30, &[]);
            payload.truncate(payload.len() - 4);
            payload.extend_from_slice(&n_trajectories.to_le_bytes());
            payload.extend_from_slice(w.finish().as_bytes());
            payload
        };
        let huge = 1u64 << 40;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("trajectories", with_body(u32::MAX, &|_| {})),
            (
                "times",
                with_body(1, &|w| [7, huge, 0].iter().for_each(|&v| put_u64(w, v))),
            ),
            (
                "instances",
                with_body(1, &|w| [7, 0, huge].iter().for_each(|&v| put_u64(w, v))),
            ),
            (
                "reference edges",
                with_body(1, &|w| {
                    [7, 0, 1].iter().for_each(|&v| put_u64(w, v));
                    put_f64(w, 1.0);
                    put_u64(w, huge);
                }),
            ),
            (
                "reference positions",
                with_body(1, &|w| {
                    [7, 0, 1].iter().for_each(|&v| put_u64(w, v));
                    put_f64(w, 1.0);
                    put_u64(w, 0);
                    put_i64(w, huge as i64);
                }),
            ),
            (
                "variant prefix",
                with_body(1, &|w| {
                    [7, 0, 2].iter().for_each(|&v| put_u64(w, v));
                    put_f64(w, 1.0);
                    [0, 0].iter().for_each(|&v| put_u64(w, v));
                    put_f64(w, 1.0);
                    put_u64(w, u64::MAX);
                }),
            ),
        ];
        for (what, payload) in cases {
            assert!(decode_payload(&payload).is_err(), "{what}");
        }
        // Trailing bits past the padding are refused too.
        let mut padded = encode_payload(&sample(1, 10));
        padded.push(0);
        assert!(decode_payload(&padded).is_err());
    }

    #[test]
    fn a_failed_append_leaves_no_partial_frame_behind() {
        let good = |id| encode_record(&sample(1, id));
        let failing = good(11);
        // What a write that stops after `k` bytes used to leave behind:
        // the partial frame, then the next append right after it. The
        // partial frame's length reaches into the next record, whose
        // bytes fail its checksum: the whole log no longer opens.
        let k = 8 + failing.len() / 2;
        let parent = [
            good(10),
            failing.get(..k).expect("k < len").to_vec(),
            good(12),
        ];
        let err = scan(&image(WAL_VERSION, &parent)).expect_err("the old image is unreadable");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // Now: every cut point of the frame, the empty and the whole
        // write included, rolls back and the next append lands behind
        // the last whole record.
        for k in [0, 3, 8, 13, k, failing.len() - 1, failing.len()] {
            let cfg = WalConfig::new(tmp(&format!("fault-{k}")));
            let _ = std::fs::remove_file(&cfg.path);
            let (mut wal, _) = Wal::open(&cfg).expect("create");
            wal.append(&sample(1, 10)).expect("append");
            FAIL_AFTER.with(|f| f.set(Some(k)));
            assert!(wal.append(&sample(2, 11)).is_err(), "fault after {k} bytes");
            wal.append(&sample(2, 12))
                .expect("append after a failed one");
            let len = wal.len_bytes();
            drop(wal);
            assert_eq!(std::fs::metadata(&cfg.path).expect("meta").len(), len);
            let (_, rs) = Wal::open(&cfg).expect("the log still opens");
            let ids: Vec<u64> = rs.iter().map(|r| r.trajectories[0].id).collect();
            assert_eq!(ids, vec![10, 12], "fault after {k} bytes");
        }
    }

    #[test]
    fn a_failed_sync_is_cut_back_off_the_file() {
        let cfg = WalConfig::new(tmp("sync-fault"));
        let _ = std::fs::remove_file(&cfg.path);
        let (mut wal, _) = Wal::open(&cfg).expect("create");
        wal.append(&sample(1, 10)).expect("append");
        let len = wal.len_bytes();
        FAIL_SYNC.with(|f| f.set(true));
        assert!(wal.append(&sample(2, 11)).is_err(), "the sync fails");
        assert_eq!(wal.len_bytes(), len);
        wal.append(&sample(2, 12))
            .expect("append after a failed sync");
        drop(wal);
        let (_, rs) = Wal::open(&cfg).expect("the log still opens");
        let ids: Vec<u64> = rs.iter().map(|r| r.trajectories[0].id).collect();
        assert_eq!(ids, vec![10, 12]);
    }

    #[test]
    fn a_truncate_whose_sync_fails_still_rolls_back_to_the_header() {
        let cfg = WalConfig::new(tmp("truncate-sync-fault"));
        let _ = std::fs::remove_file(&cfg.path);
        let (mut wal, _) = Wal::open(&cfg).expect("create");
        wal.append(&sample(1, 10)).expect("append");
        wal.append(&sample(2, 11)).expect("append");
        // The cut lands, its sync fails: the handle must still know
        // that the file now ends at the header.
        FAIL_SYNC.with(|f| f.set(true));
        assert!(wal.truncate().is_err(), "the sync fails");
        assert_eq!(wal.len_bytes(), FIXED_HEADER as u64);
        // A failed append then rolls back to the header, not to the
        // length before the cut (which would zero-fill a gap the next
        // open refuses).
        FAIL_AFTER.with(|f| f.set(Some(13)));
        assert!(wal.append(&sample(1, 12)).is_err());
        wal.append(&sample(1, 13))
            .expect("append after the rollback");
        let len = wal.len_bytes();
        drop(wal);
        assert_eq!(std::fs::metadata(&cfg.path).expect("meta").len(), len);
        let (_, rs) = Wal::open(&cfg).expect("the log still opens");
        let ids: Vec<u64> = rs.iter().map(|r| r.trajectories[0].id).collect();
        assert_eq!(ids, vec![13]);
    }

    /// A tiny dataset in three batches, and a store built from the
    /// first.
    fn three_batches() -> (crate::Store, [Dataset; 3]) {
        use crate::{CompressParams, StoreBuilder};
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 12, 41);
        let batch = |k: usize| Dataset {
            trajectories: ds.trajectories[4 * k..4 * k + 4].to_vec(),
            ..ds.clone()
        };
        let batches = [batch(0), batch(1), batch(2)];
        let params = CompressParams::with_interval(ds.default_interval);
        let builder = StoreBuilder::new(std::sync::Arc::new(net), params);
        let store = builder
            .ingest(&batches[0])
            .expect("ingest")
            .finish()
            .expect("finish");
        (store, batches)
    }

    /// The files in `dir` other than `keep`.
    fn strays(dir: &Path, keep: &[&Path]) -> Vec<PathBuf> {
        let entries = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("entry").path());
        entries.filter(|p| !keep.contains(&p.as_path())).collect()
    }

    #[test]
    fn a_failed_save_leaves_the_previous_container_and_no_tmp_file() {
        let (store, batches) = three_batches();
        let path = tmp("save-fault").with_file_name("c.utcq");
        store.save(&path).expect("save");
        let before = std::fs::read(&path).expect("read");
        store.ingest(&batches[1]).expect("ingest");
        let mut after = Vec::new();
        store.write(&mut after).expect("write");
        let faults = [0, 1, 100, before.len() / 2, after.len() - 1].map(SaveFault::WriteAfter);
        for fault in faults
            .into_iter()
            .chain(["sync", "rename"].map(SaveFault::At))
        {
            FAIL_SAVE.with(|f| f.set(Some(fault)));
            assert!(store.save(&path).is_err(), "{fault:?}");
            assert!(std::fs::read(&path).expect("read") == before, "{fault:?}");
            assert!(
                strays(path.parent().expect("dir"), &[&path]).is_empty(),
                "{fault:?}"
            );
        }
        // Past the rename the new container is in place: the failed
        // directory sync only says it may not be durable yet.
        FAIL_SAVE.with(|f| f.set(Some(SaveFault::At("dir sync"))));
        assert!(store.save(&path).is_err());
        assert!(std::fs::read(&path).expect("read") == after);
        assert!(strays(path.parent().expect("dir"), &[&path]).is_empty());
    }

    #[test]
    fn a_failed_checkpoint_keeps_the_log_and_the_store_live() {
        use crate::{Opened, QueryTarget};
        let faults = [
            SaveFault::WriteAfter(64),
            SaveFault::At("sync"),
            SaveFault::At("rename"),
        ];
        let (offline, batches) = three_batches();
        for b in &batches[1..] {
            offline.ingest(b).expect("ingest");
        }
        let mut want = Vec::new();
        offline.write(&mut want).expect("write");
        let (offline, _) = three_batches();
        for fault in faults.into_iter().chain([SaveFault::At("dir sync")]) {
            let log = tmp(&format!("checkpoint-fault-{fault:?}"));
            let container = log.with_file_name("c.utcq");
            let _ = std::fs::remove_file(&log);
            offline.save(&container).expect("save");
            let saved = std::fs::read(&container).expect("read");
            let store = Opened::open_durable(&container, WalConfig::new(&log)).expect("open");
            store.ingest(&batches[1]).expect("ingest");
            let logged = std::fs::read(&log).expect("read log");
            FAIL_SAVE.with(|f| f.set(Some(fault)));
            assert!(store.checkpoint().is_err(), "{fault:?}");
            // The log is untruncated; the container is the old one,
            // unless the fault came after the rename.
            assert!(
                std::fs::read(&log).expect("read log") == logged,
                "{fault:?}"
            );
            let renamed = std::fs::read(&container).expect("read") != saved;
            assert_eq!(renamed, fault == SaveFault::At("dir sync"), "{fault:?}");
            // The store keeps answering and ingesting.
            assert_eq!(store.len(), 8, "{fault:?}");
            store
                .ingest(&batches[2])
                .expect("ingest after the failed checkpoint");
            drop(store);
            // A reopen replays to the same bytes: all of the log over
            // the old container, or past the rename the records the new
            // container already holds skipped (the interrupted-checkpoint
            // path).
            let reopened = Opened::open_durable(&container, WalConfig::new(&log)).expect("reopen");
            assert_eq!(reopened.epoch(), if renamed { 1 } else { 2 }, "{fault:?}");
            let mut got = Vec::new();
            reopened.write(&mut got).expect("write");
            assert!(got == want, "{fault:?}");
        }
    }

    #[test]
    fn a_checkpoint_whose_cut_fails_to_sync_still_rebases_the_feed() {
        use crate::{Opened, QueryTarget};
        let (store, batches) = three_batches();
        let log = tmp("checkpoint-cut-sync-fault");
        let container = log.with_file_name("c.utcq");
        let _ = std::fs::remove_file(&log);
        store.save(&container).expect("save");
        let cfg = || WalConfig::new(&log).checkpoint_to(&container);
        let store = Opened::open_durable(&container, cfg()).expect("open");
        store.ingest(&batches[1]).expect("ingest");
        // The container is saved and the log cut; only the cut's sync
        // fails. The feed must not point past the cut, and the next
        // record must be numbered from the saved container.
        FAIL_SYNC.with(|f| f.set(true));
        assert!(store.checkpoint().is_err(), "the cut's sync fails");
        assert!(matches!(
            store.wal_tail(0, 8),
            Some(TailRead::Gap { base: 1 })
        ));
        store
            .ingest(&batches[2])
            .expect("ingest after the checkpoint");
        match store.wal_tail(1, 8) {
            Some(TailRead::Records { records, .. }) => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].epoch, 2);
                assert_eq!(records[0].trajectories, batches[2].trajectories);
            }
            other => panic!("expected the batch: {other:?}"),
        }
        let mut want = Vec::new();
        store.write(&mut want).expect("write");
        drop(store);
        let reopened = Opened::open_durable(&container, cfg()).expect("reopen");
        assert_eq!((reopened.epoch(), reopened.len()), (1, 12));
        let mut got = Vec::new();
        reopened.write(&mut got).expect("write");
        assert!(got == want);
    }

    #[test]
    fn a_failed_rollback_refuses_every_later_append() {
        let cfg = WalConfig::new(tmp("broken"));
        let _ = std::fs::remove_file(&cfg.path);
        let (mut wal, _) = Wal::open(&cfg).expect("create");
        wal.append(&sample(1, 10)).expect("append");
        // A handle that can neither write nor truncate: the append fails
        // and so does cutting it back.
        wal.file = File::open(&cfg.path).expect("read-only handle");
        assert!(wal.append(&sample(2, 11)).is_err());
        wal.file = OpenOptions::new()
            .write(true)
            .open(&cfg.path)
            .expect("writable again");
        let refused = wal.append(&sample(2, 12)).expect_err("refused");
        assert!(refused.to_string().contains("refuses appends"), "{refused}");
        drop(wal);
        let (_, rs) = Wal::open(&cfg).expect("what was acknowledged still opens");
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn the_feed_keeps_the_encoded_batch_and_decodes_on_demand() {
        let cfg = WalConfig::new(tmp("feed"));
        let _ = std::fs::remove_file(&cfg.path);
        let (wal, _) = Wal::open(&cfg).expect("create");
        let mut sc = Sidecar::new(wal, &cfg);
        // A batch holding a NaN probability beside a clean trajectory.
        let mut rec = sample(0, 7);
        let clean = rec.trajectories[0].clone();
        let mut nan = UncertainTrajectory {
            id: 8,
            ..clean.clone()
        };
        nan.instances[0].prob = f64::NAN;
        rec.trajectories = vec![nan, clean.clone()];
        log(
            &mut sc,
            Record {
                epoch: 1,
                ..rec.clone()
            },
        )
        .expect("append");
        // The feed holds where the file holds the payload, right behind
        // the header and the frame's length and checksum.
        let file = std::fs::read(&cfg.path).expect("read");
        let fed = *sc.tail.front().expect("one batch");
        assert_eq!(fed.at, FIXED_HEADER as u64 + 8);
        assert_eq!(fed.at + u64::from(fed.len), file.len() as u64);
        match sc.records_since(0, 8, 1) {
            TailRead::Records { records, .. } => {
                assert_eq!(
                    records.iter().map(bits).collect::<Vec<_>>(),
                    vec![bits(&Record {
                        epoch: 1,
                        ..rec.clone()
                    })]
                );
            }
            TailRead::Gap { .. } => panic!("expected records"),
        }
        // NaN != NaN: a batch holding one is never a re-send, as before.
        assert_eq!(sc.dedup_epoch(&rec.trajectories), None);
        let clean = vec![clean];
        log(
            &mut sc,
            Record {
                epoch: 2,
                trajectories: clean.clone(),
                ..rec
            },
        )
        .expect("append");
        assert_eq!(sc.dedup_epoch(&clean), Some((2, 1)));
    }
}
