//! On-disk persistence of compressed datasets.
//!
//! Binary containers under the `UTCQ` magic and a version byte. Two
//! versions are read and written: v7 ([`save_v7`], [`load_full`]) for
//! one store and the v3 directory of v7 blobs ([`save_v3`],
//! [`load_v3`]) for a sharded one. Every older version (v1, v2, v4 to
//! v6, and v3 directories of them) fails with
//! [`StorageError::NeedsMigrate`]: `utcq migrate` (the `utcq_legacy`
//! crate) reads them and writes them as these two.
//! `docs/CONTAINERS.md` has the byte-level layouts.
//!
//! # The record layout (v7)
//!
//! ```text
//! [network]  RoadNetwork (see utcq_network::serialize)
//! [head]     f64 ηD, f64 ηp, u32 n_pivots, u64 default_interval,
//!            u32 w_e (outgoing-edge-number width), u32 name_len + name,
//!            2 × SizeBreakdown (compressed, raw; 6 × u64 each),
//!            u64 trajectory count
//! [dataset]  per trajectory: id, n_times, stream T,
//!     instance count, one role bit per instance in original order,
//!     per ref:  sv, n_entries, streams E, T', D, p_code
//!     per nref: ref_idx, streams Com_E, Com_T, Com_D, p_code
//! [index]    i64 partition_s, u32 grid_n (the grid is rebuilt from the
//!            network), then one node per trajectory:
//!     per ref:  cell count, first cell, gap − 1 to each further cell,
//!               one enters bit per cell
//!     per nref: one membership bit per cell of its group
//! ```
//!
//! Both sections are packed MSB-first into blocks of [`CHUNK`] records:
//! a `u32` byte length, the records, zero padding to a byte. A dataset
//! block opens with a header of a 64-bit base (the block's minimum id,
//! which the id column is an offset from) and one 7-bit width per column
//! (`width_for_max` of the block's maxima); an index block has no
//! column and so no header. Widths the context fixes are not stored:
//! vertex and cell indices, `p_code` (the `ηp` codec width), `ref_idx`
//! (the trajectory's own ref count).
//!
//! **v7 stores no field the rest of the file determines**
//! (`docs/CONTAINERS.md` § v7): every stream delimits itself (by
//! arithmetic, or a walk of its codes that needs counts, never the
//! reference's content), the role bits give each `orig_idx` of the
//! order compression emits (`canonical`), and the temporal tuples are a
//! function of `T` (`stiu::push_temporal`).
//!
//! **The region tuples** are coded against the trajectory, in the
//! canonical order of [`crate::stiu`]: a group's cells ascending as its
//! count and the gaps between them (order-0 Exp-Golomb, the first cell
//! at the cell width), a non-reference as one bit per cell of its group
//! (its cells are a subset of the group's). No tuple names its instance
//! and no region tuple count is stored: the trajectory's reference and
//! non-reference rows say whose tuples come next.
//!
//! **Derived at open:** besides v7's fields, the interval postings
//! (`Stiu::append_node`) and the query plans (`TrajSegment::finish`) —
//! pure functions of stored fields, so a reopened index equals the
//! built one bit for bit.
//!
//! A block and an in-memory segment ([`crate::segment`]) cover the same
//! [`CHUNK`] records: the reader appends each record's fields straight
//! to the segment's tables and its streams to the segment's arena
//! (region cells and membership bits included), and the writer packs
//! from borrowed views, with no per-trajectory object in between.
//!
//! **v3 (sharded)** is a directory (`u8` policy kind, `i64` parameter,
//! `u32` shard count) followed by one `u64`-length-prefixed, complete v7
//! container per shard.

use std::io::{self, Read, Seek, SeekFrom, Write};

use utcq_bitio::{golomb, width_for_max, BitBuf, BitReader, BitSlice, BitWriter, CodecError};
use utcq_network::{CellId, RoadNetwork, VertexId};
use utcq_traj::size::SizeBreakdown;

use crate::compress::CompressedDataset;
use crate::error::Error;
use crate::params::CompressParams;
use crate::segment::{NrefRow, RefRow, TrajSegment, TrajView, CHUNK};
use crate::stiu::{push_temporal, NodeSegment, Stiu, StiuParams, TrajIndex};
use crate::{factor, siar};

const MAGIC: &[u8; 4] = b"UTCQ";
/// Sharded container: a shard directory followed by one embedded
/// self-contained container per shard.
pub const VERSION_V3: u8 = 3;
/// The self-contained container stores write: what the rest of the file
/// determines is not stored (no stream length, no instance order past
/// one role bit per instance, no temporal tuple).
pub const VERSION_V7: u8 = 7;

/// Shard-policy kind recorded in a v3 directory: the routing policy was
/// not one of the built-ins (metadata only — querying never routes).
pub const POLICY_CUSTOM: u8 = 0;
/// Shard-policy kind: time-interval routing (`param` = interval seconds).
pub const POLICY_TIME: u8 = 1;
/// Shard-policy kind: region routing (`param` = routing-grid dimension).
pub const POLICY_REGION: u8 = 2;

/// The fixed-size head of a v3 container: how the trajectories were
/// routed to shards. Pure metadata for reopening — query execution
/// discovers trajectory placement from the shard contents themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDirectory {
    /// One of [`POLICY_CUSTOM`], [`POLICY_TIME`], [`POLICY_REGION`].
    pub kind: u8,
    /// Policy parameter (interval seconds / grid dimension; `0` for
    /// custom policies).
    pub param: i64,
}

/// Errors while reading a container.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a UTCQ container or an unknown version.
    BadHeader,
    /// A container or write-ahead log of a version before the current
    /// one: only `utcq migrate` reads it.
    NeedsMigrate {
        /// `"container"` or `"write-ahead log"`.
        what: &'static str,
        /// The version it declares.
        version: u32,
    },
    /// A sharded v3 container was given to a single-store reader.
    Sharded,
    /// Structurally invalid payload (corrupt lengths or padding).
    Corrupt(&'static str),
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::BadHeader => write!(f, "not a UTCQ container"),
            StorageError::NeedsMigrate { what, version } => write!(
                f,
                "{what} v{version} predates the current format: run `utcq migrate` to rewrite it"
            ),
            StorageError::Sharded => {
                write!(
                    f,
                    "sharded v{VERSION_V3} container where a single-store container is required"
                )
            }
            StorageError::Corrupt(what) => write!(f, "corrupt container: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A bit-packed block whose content contradicts its own header.
impl From<CodecError> for StorageError {
    fn from(_: CodecError) -> Self {
        StorageError::Corrupt("bit-packed block")
    }
}

/// A record the segment tables refuse.
impl From<Error> for StorageError {
    fn from(e: Error) -> Self {
        match e {
            Error::Storage(e) => e,
            Error::Io(e) => StorageError::Io(e),
            Error::Codec(e) => e.into(),
            Error::CorruptStore(what) => StorageError::Corrupt(what),
            _ => StorageError::Corrupt("record refused"),
        }
    }
}

/// Little-endian fixed-width fields: a writer and a reader per type.
macro_rules! le_fields {
    ($($ty:ty: $write:ident, $read:ident;)*) => {$(
        fn $write(w: &mut impl Write, v: $ty) -> io::Result<()> {
            w.write_all(&v.to_le_bytes())
        }

        fn $read(r: &mut impl Read) -> io::Result<$ty> {
            let mut b = [0u8; std::mem::size_of::<$ty>()];
            r.read_exact(&mut b)?;
            Ok(<$ty>::from_le_bytes(b))
        }
    )*};
}

le_fields! {
    u8: write_u8, read_u8;
    u32: write_u32, read_u32;
    u64: write_u64, read_u64;
    i64: write_i64, read_i64;
    f64: write_f64, read_f64;
}

fn write_breakdown(w: &mut impl Write, s: &SizeBreakdown) -> io::Result<()> {
    for v in [s.t, s.e, s.d, s.tflag, s.p, s.sv] {
        write_u64(w, v)?;
    }
    Ok(())
}

fn read_breakdown(r: &mut impl Read) -> io::Result<SizeBreakdown> {
    Ok(SizeBreakdown {
        t: read_u64(r)?,
        e: read_u64(r)?,
        d: read_u64(r)?,
        tflag: read_u64(r)?,
        p: read_u64(r)?,
        sv: read_u64(r)?,
    })
}

/// Writes the dataset head: parameters, name, size accounting and the
/// trajectory count.
fn write_dataset_head(cds: &CompressedDataset, w: &mut impl Write) -> io::Result<()> {
    write_f64(w, cds.params.eta_d)?;
    write_f64(w, cds.params.eta_p)?;
    write_u32(w, cds.params.n_pivots as u32)?;
    write_u64(w, cds.params.default_interval as u64)?;
    write_u32(w, cds.w_e)?;
    let name = cds.name.as_bytes();
    write_u32(w, name.len() as u32)?;
    w.write_all(name)?;
    write_breakdown(w, &cds.compressed)?;
    write_breakdown(w, &cds.raw)?;
    write_u64(w, cds.trajectories.len() as u64)
}

// The columns of a dataset block …
const ID: usize = 0;
const TIMES: usize = 1;
const INST: usize = 2;
const ENTRIES: usize = 3;
// … and the other fields of `Sections::framing`: the head and block
// framing, then the fields whose width the context fixes.
const BLOCKS: usize = 4;
const SV: usize = 5;
const REF_IDX: usize = 6;
const P_CODE: usize = 7;
/// The columns a dataset block header declares, in header order (an
/// index block declares none, and has no header).
const DATASET_COLS: &[usize] = &[ID, TIMES, INST, ENTRIES];
/// Widest value each column may declare: the base-offset column (ids)
/// spans 64 bits, every other field is a `u32`.
const COL_LIMITS: [u32; 4] = [64, 32, 32, 32];

/// `width_for_max(n − 1)`: the width of an index into `n` items.
fn index_width(n: usize) -> u32 {
    width_for_max((n as u64).saturating_sub(1))
}

/// Widths of the bit-packed fields that the container's context fixes
/// rather than a block header, and of an edge entry and a distance
/// code, which size a reference's streams.
#[derive(Clone, Copy, Default)]
struct CtxWidths {
    vertex: u32,
    cell: u32,
    p_code: u32,
    w_e: usize,
    w_d: usize,
}

impl CtxWidths {
    /// `n_cells` is the StIU grid's cell count (the dataset section has
    /// no cell fields: pass 0); `net` the embedded network.
    fn new(net: &RoadNetwork, cds: &CompressedDataset, n_cells: usize) -> Self {
        CtxWidths {
            vertex: index_width(net.vertex_count()),
            cell: index_width(n_cells),
            p_code: cds.params.p_codec().width(),
            w_e: cds.w_e as usize,
            w_d: cds.params.d_codec().width() as usize,
        }
    }
}

/// Where the one record traversal ([`read_trajs`], [`read_nodes`])
/// takes its field values from: the blocks of a section, one in memory
/// at a time with the read position in it, the base that column 0 is an
/// offset from and the widths of the columns its header declares
/// (`cols`).
struct Source<'a, R> {
    r: &'a mut R,
    cols: &'static [usize],
    block: BitBuf,
    pos: usize,
    base: u64,
    widths: [u32; 4],
    ctx: CtxWidths,
}

impl<'a, R: Read> Source<'a, R> {
    /// A source of the section whose blocks declare `cols`.
    fn new(r: &'a mut R, cols: &'static [usize], ctx: CtxWidths) -> Self {
        Source {
            r,
            cols,
            block: BitBuf::empty(),
            pos: 0,
            base: 0,
            widths: [0; 4],
            ctx,
        }
    }

    /// The next `bits`-wide field of the block.
    #[inline(always)]
    fn field(&mut self, bits: u32) -> Result<u64, StorageError> {
        let mut r = self.block.reader_at(self.pos);
        let v = r.read_bits(bits)?;
        self.pos = r.pos();
        Ok(v)
    }

    /// The next value of per-block column `col`.
    #[inline(always)]
    fn col(&mut self, col: usize) -> Result<u64, StorageError> {
        // bounds: col is one of the four column constants
        let base = if col == 0 { self.base } else { 0 };
        Ok(base.wrapping_add(self.field(self.widths[col])?))
    }

    /// The next order-0 Exp-Golomb code.
    #[inline(always)]
    fn golomb(&mut self) -> Result<u64, StorageError> {
        let mut r = self.block.reader_at(self.pos);
        let v = golomb::decode_unsigned(&mut r)?;
        self.pos = r.pos();
        Ok(v)
    }

    /// An index into a list of `n` items.
    #[inline(always)]
    fn index(&mut self, n: usize, what: &'static str) -> Result<u32, StorageError> {
        below(self.field(index_width(n))?, n, what)
    }

    /// Enters the next block of up to [`CHUNK`] records.
    fn begin_block(&mut self) -> Result<(), StorageError> {
        let len = read_u32(self.r)? as usize;
        // Through a `take`, so the allocation grows with the bytes that
        // actually arrive, not with a crafted length field.
        let mut bytes = Vec::new();
        self.r.by_ref().take(len as u64).read_to_end(&mut bytes)?;
        let truncated = StorageError::Corrupt("block truncated");
        (self.block, self.pos) = (BitBuf::from_bytes(bytes, len * 8).ok_or(truncated)?, 0);
        if self.cols.is_empty() {
            return Ok(());
        }
        self.base = self.field(64)?;
        for &col in self.cols {
            let width = self.field(7)? as u32;
            // bounds: col is one of the four column constants
            if width == 0 || width > COL_LIMITS[col] {
                return Err(StorageError::Corrupt("column width out of range"));
            }
            self.widths[col] = width; // bounds: as above
        }
        Ok(())
    }

    /// Leaves a fully parsed block: only the zero padding of its last
    /// byte may be left.
    fn end_block(&mut self) -> Result<(), StorageError> {
        let left = self.block.len_bits().saturating_sub(self.pos);
        if left >= 8 || self.field(left as u32)? != 0 {
            return Err(StorageError::Corrupt("bits left over in block"));
        }
        Ok(())
    }

    /// Appends the next stream to the open trajectory of `seg`. Every
    /// stream delimits itself: `walk` reads it from its first bit to its
    /// end.
    fn stream(
        &mut self,
        seg: &mut TrajSegment,
        walk: impl FnOnce(&mut BitReader<'_>) -> Result<(), CodecError>,
    ) -> Result<(), StorageError> {
        let mut r = self.block.reader_at(self.pos);
        walk(&mut r)?;
        let len = r.pos().saturating_sub(self.pos);
        // Fails, before allocating, on a length past the block's end.
        let mut r = self.block.reader_at(self.pos);
        seg.stream(&mut r, len)?;
        self.pos = r.pos();
        Ok(())
    }

    /// The row of the reference at `orig_idx`, its streams appended to
    /// `seg`: `n_entries` edge entries, the `n_entries − 2` trimmed time
    /// flags and one distance code per sample, so their lengths are
    /// arithmetic.
    fn read_ref(&mut self, seg: &mut TrajSegment, orig_idx: u32) -> Result<RefRow, StorageError> {
        let sv = VertexId(self.field(self.ctx.vertex)? as u32);
        let n_entries = self.col(ENTRIES)?;
        if n_entries < 2 {
            return Err(StorageError::Corrupt(
                "reference with fewer than two entries",
            ));
        }
        let n_times = seg.open_n_times();
        let (w_e, w_d, n) = (self.ctx.w_e, self.ctx.w_d, n_entries as usize);
        for len in [n * w_e, n - 2, n_times * w_d] {
            self.stream(seg, |r| {
                r.seek(r.pos() + len);
                Ok(())
            })?;
        }
        let p_code = self.field(self.ctx.p_code)?;
        let n_entries = n_entries as u32;
        Ok(RefRow {
            p_code,
            orig_idx,
            sv,
            n_entries,
        })
    }

    /// The row of the non-reference at `orig_idx`, its streams appended
    /// to `seg`, whose open trajectory's references are its rows from
    /// `ref0` on: each factor stream is walked knowing only counts of its
    /// reference, never its content.
    fn read_nref(
        &mut self,
        seg: &mut TrajSegment,
        orig_idx: u32,
        ref0: usize,
    ) -> Result<NrefRow, StorageError> {
        let refs = seg.refs.get(ref0..).unwrap_or_default();
        let ref_idx = self.index(refs.len(), "non-reference points past refs")?;
        let ref_entries = refs
            .get(ref_idx as usize)
            .map_or(0, |r| r.n_entries as usize);
        let (w_e, w_d, n_times) = (self.ctx.w_e as u32, self.ctx.w_d as u32, seg.open_n_times());
        let mut n_entries = 0;
        let walk_e = |r: &mut BitReader<'_>| factor::walk_e(r, ref_entries, w_e, |_, _| ());
        self.stream(seg, |r| walk_e(r).map(|n| n_entries = n))?;
        let flags = |n: usize| n.saturating_sub(2);
        let (ref_flags, flags) = (flags(ref_entries), flags(n_entries));
        self.stream(seg, |r| {
            factor::walk_t(r, ref_flags, flags, drop, |_, _| ()).map(drop)
        })?;
        self.stream(seg, |r| factor::walk_d(r, n_times, w_d, drop))?;
        let p_code = self.field(self.ctx.p_code)?;
        Ok(NrefRow {
            p_code,
            orig_idx,
            ref_idx,
        })
    }
}

/// Whether a trajectory's instances are in the order compression emits
/// them: references, then non-references, each ascending in `orig_idx`
/// (which the plan makes a permutation). The only order v7 can hold.
fn canonical(refs: &[RefRow], nrefs: &[NrefRow]) -> bool {
    refs.is_sorted_by_key(|r| r.orig_idx) && nrefs.is_sorted_by_key(|n| n.orig_idx)
}

/// `v` as a `u32` below `n`, or the container is corrupt.
#[inline(always)]
fn below(v: u64, n: usize, what: &'static str) -> Result<u32, StorageError> {
    if v >= n as u64 {
        return Err(StorageError::Corrupt(what));
    }
    Ok(v as u32)
}

/// Reads `n_trajs` trajectory records into `cds`, field by field into
/// its segments. A record holds the instance count, then one role bit
/// per instance in original order (set: a reference), so the rows take
/// their `orig_idx` from their place.
fn read_trajs<R: Read>(
    src: &mut Source<'_, R>,
    n_trajs: usize,
    cds: &mut CompressedDataset,
) -> Result<(), StorageError> {
    let (p_codec, ts) = (cds.params.p_codec(), cds.params.default_interval);
    // The role bits of the open trajectory.
    let mut roles = Vec::new();
    while cds.trajectories.len() < n_trajs {
        src.begin_block()?;
        for _ in 0..CHUNK.min(n_trajs - cds.trajectories.len()) {
            cds.trajectories.append(|seg| {
                let id = src.col(ID)?;
                let n_times = src.col(TIMES)? as u32;
                seg.begin(id, n_times)?;
                src.stream(seg, |r| siar::walk(r, n_times as usize, ts, |_, _, _| ()))?;
                let ref0 = seg.refs.len();
                roles.clear();
                for _ in 0..src.col(INST)? {
                    roles.push(src.field(1)? != 0);
                }
                for (k, _) in (0..).zip(&roles).filter(|(_, &is_ref)| is_ref) {
                    let row = src.read_ref(seg, k)?;
                    seg.refs.push(row);
                }
                for (k, _) in (0..).zip(&roles).filter(|(_, &is_ref)| !is_ref) {
                    let row = src.read_nref(seg, k, ref0)?;
                    seg.nrefs.push(row);
                }
                // The plan permutation check.
                Ok::<(), StorageError>(seg.finish(&p_codec)?)
            })?;
        }
        src.end_block()?;
    }
    Ok(())
}

/// Reads one index node per trajectory of `cds` into `stiu`, tuple by
/// tuple into its segments, deriving the temporal tuples from each time
/// stream and the interval postings.
fn read_nodes<R: Read>(
    src: &mut Source<'_, R>,
    cds: &CompressedDataset,
    stiu: &mut Stiu,
) -> Result<(), StorageError> {
    let n_cells = stiu.grid.cell_count();
    let (ts, partition_s) = (cds.params.default_interval, stiu.params.partition_s);
    // The cell count of each group of the open node.
    let mut groups = Vec::new();
    let mut cts = cds.trajectories.iter().peekable();
    while cts.peek().is_some() {
        src.begin_block()?;
        for ct in cts.by_ref().take(CHUNK) {
            // A crafted count cannot grow a table past the content
            // actually present: each tuple read consumes input.
            stiu.append_node(|node, _| {
                push_temporal(&mut node.temporal, ct.t_bits(), ct.n_times, ts, partition_s)?;
                read_coded_regions(src, node, &ct, n_cells, &mut groups)
            })?;
        }
        src.end_block()?;
    }
    Ok(())
}

/// The region half of a node ([`pack_node`] writes it): per reference
/// of `ct`, its group's cell count, first cell and further cells as
/// ascending gaps, then one `enters` bit per cell; per non-reference,
/// one membership bit per cell of its group. They go straight into the
/// node's region words and membership bits. Each cell and each bit
/// costs at least one bit read, so a crafted count fails on the block's
/// end before it grows a table far.
fn read_coded_regions<R: Read>(
    src: &mut Source<'_, R>,
    node: &mut NodeSegment,
    ct: &TrajView<'_>,
    n_cells: usize,
    groups: &mut Vec<u64>,
) -> Result<(), StorageError> {
    groups.clear();
    for _ in ct.refs {
        let count = src.golomb()?;
        if count > n_cells as u64 {
            return Err(StorageError::Corrupt("region count past the grid"));
        }
        let first = node.open_group();
        let mut prev = None;
        for _ in 0..count {
            let cell = match prev {
                Some(prev) => {
                    let cell = u64::from(prev).saturating_add(1 + src.golomb()?);
                    below(cell, n_cells, "region gap past the last cell")?
                }
                None => below(src.field(src.ctx.cell)?, n_cells, "ref tuple out of range")?,
            };
            node.push_cell(CellId(cell), false)?;
            prev = Some(cell);
        }
        for row in first..first + count as usize {
            if src.field(1)? != 0 {
                node.enter(row);
            }
        }
        groups.push(count);
    }
    for n in ct.nrefs {
        let count = groups.get(n.ref_idx as usize);
        let count = count.ok_or(StorageError::Corrupt("non-reference points past refs"))?;
        for _ in 0..*count {
            node.push_bit(src.field(1)? != 0);
        }
    }
    Ok(())
}

/// Where a written container's bits went, counted by the writer as it
/// writes (in bits; they sum to the container size): `network` is
/// magic, version and the embedded network; `payload` the compressed
/// bit streams themselves; `framing` the rest of the dataset section,
/// by the fields of [`FRAMING`]; `temporal` the rest of the index
/// section (parameters, block lengths, padding: v7 stores no temporal
/// tuple); then the reference and the non-reference region tuples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sections {
    pub network: u64,
    pub payload: u64,
    pub framing: [u64; 8],
    pub temporal: u64,
    pub ref_tuples: u64,
    pub nref_tuples: u64,
}

/// The fields of [`Sections::framing`], in its order: the dataset block
/// columns (the instance count with the role bits), the dataset head
/// with the block lengths, headers and padding, then the fields whose
/// width the context fixes.
pub const FRAMING: [&str; 8] = [
    "framing id",
    "framing n_times",
    "framing roles",
    "framing n_entries",
    "framing blocks",
    "framing sv",
    "framing ref_idx",
    "framing p_code",
];

/// One block under construction. [`write_blocks`] runs the record
/// traversal twice: while `widths` is `None` a column value only raises
/// its column's maximum (column 0: also lowers `base`); [`Packer::start`]
/// then fixes the widths and writes the header, and the second run emits.
#[derive(Default)]
struct Packer {
    ctx: CtxWidths,
    /// The columns the block header declares.
    cols: &'static [usize],
    max: [u64; 4],
    base: u64,
    widths: Option<[u32; 4]>,
    bits: BitWriter,
    payload: u64,
    /// Bits emitted per field of [`FRAMING`] (not the block framing).
    tally: [u64; 8],
}

impl Packer {
    /// Ends the measuring run. Column 0 (ids, start times as unsigned)
    /// is written as the offset from its block minimum. A block with no
    /// column has no header.
    fn start(&mut self) -> io::Result<()> {
        let [max0, ..] = &mut self.max;
        self.base = self.base.min(*max0); // no value at all: 0
        *max0 -= self.base;
        let widths = self.max.map(width_for_max);
        self.widths = Some(widths);
        if self.cols.is_empty() {
            return Ok(());
        }
        self.field(self.base, 64)?;
        // bounds: every column is one of the four column constants
        let cols = self.cols;
        cols.iter()
            .try_for_each(|&col| self.field(widths[col].into(), 7))
    }

    /// A value of per-block column `col`.
    #[inline(always)]
    fn col(&mut self, col: usize, v: u64) -> io::Result<()> {
        let Some(widths) = self.widths else {
            // bounds: col is one of the four column constants
            self.max[col] = self.max[col].max(v);
            if col == 0 {
                self.base = self.base.min(v);
            }
            return Ok(());
        };
        // bounds: as above, and the tally has a slot per column
        self.tally[col] += u64::from(widths[col]);
        let v = if col == 0 { v - self.base } else { v };
        self.field(v, widths[col]) // bounds: as above
    }

    /// A value whose width the context fixes (not a block column).
    #[inline(always)]
    fn field(&mut self, v: u64, width: u32) -> io::Result<()> {
        if self.widths.is_none() {
            return Ok(());
        }
        self.bits.write_bits(v, width).map_err(invalid_data)
    }

    /// [`Packer::field`], counted as framing field `of` ([`SV`],
    /// [`REF_IDX`], [`P_CODE`]).
    fn framing(&mut self, of: usize, v: u64, width: u32) -> io::Result<()> {
        if self.widths.is_some() {
            self.tally[of] += u64::from(width); // bounds: `of` is one of the three
        }
        self.field(v, width)
    }

    /// A value as an order-0 Exp-Golomb code (not a block column).
    #[inline(always)]
    fn golomb(&mut self, v: u64) -> io::Result<()> {
        if self.widths.is_none() {
            return Ok(());
        }
        golomb::encode_unsigned(&mut self.bits, v).map_err(invalid_data)
    }

    /// One bit per flag, in order (up to 64 per write).
    fn flags(&mut self, flags: impl Iterator<Item = bool>) -> io::Result<()> {
        let (mut word, mut n) = (0, 0);
        for flag in flags {
            (word, n) = (word << 1 | u64::from(flag), n + 1);
            if n == 64 {
                self.field(word, 64)?;
                (word, n) = (0, 0);
            }
        }
        if n > 0 {
            self.field(word, n)?;
        }
        Ok(())
    }

    /// A bit stream, with no length: every stream delimits itself.
    fn stream(&mut self, b: BitSlice<'_>) {
        if self.widths.is_some() {
            self.bits.extend_from(b);
            self.payload += b.len_bits() as u64;
        }
    }
}

fn invalid_data(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Writes `records` as blocks of [`CHUNK`]: per block the `u32` byte
/// length, the header, the records (`pack` traverses one), zero padding
/// to a byte. A block with no column needs no measuring run. Returns
/// the bits written: all, those of streams alone, and per framing field.
fn write_blocks<T>(
    ctx: CtxWidths,
    cols: &'static [usize],
    records: impl Iterator<Item = T>,
    mut pack: impl FnMut(&mut Packer, &T) -> io::Result<()>,
    out: &mut impl Write,
) -> io::Result<(u64, u64, [u64; 8])> {
    let mut records = records.peekable();
    let (mut bits, mut payload, mut tally) = (0, 0, [0; 8]);
    while records.peek().is_some() {
        let block: Vec<T> = records.by_ref().take(CHUNK).collect();
        let mut p = Packer::default();
        (p.ctx, p.cols, p.base) = (ctx, cols, u64::MAX);
        if !cols.is_empty() {
            block.iter().try_for_each(|t| pack(&mut p, t))?;
        }
        p.start()?;
        block.iter().try_for_each(|t| pack(&mut p, t))?;
        let buf = p.bits.finish();
        let len = u32::try_from(buf.len_bytes())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "block over 4 GiB"))?;
        write_u32(out, len)?;
        out.write_all(buf.as_bytes())?;
        bits += (4 + u64::from(len)) * 8;
        payload += p.payload;
        tally
            .iter_mut()
            .zip(p.tally)
            .for_each(|(sum, bits)| *sum += bits);
    }
    Ok((bits, payload, tally))
}

/// One dataset record, v7: id, sample count, `T`, the instance count and
/// one role bit per instance in original order (set: a reference), then
/// per reference its start vertex, entry count, `E T' D` and `p_code`,
/// per non-reference its `ref_idx`, `Com_E Com_T' Com_D` and `p_code`.
/// Instances in any order but [`canonical`]'s have no v7 form.
fn pack_traj(p: &mut Packer, ct: &TrajView<'_>) -> io::Result<()> {
    if !canonical(ct.refs, ct.nrefs) {
        let what = "instances out of order";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    }
    p.col(ID, ct.id)?;
    p.col(TIMES, u64::from(ct.n_times))?;
    p.stream(ct.t_bits());
    let n = ct.instance_count() as u32;
    p.col(INST, u64::from(n))?;
    let mut refs = ct.refs.iter().peekable();
    p.flags((0..n).map(|k| refs.next_if(|r| r.orig_idx == k).is_some()))?;
    if p.widths.is_some() {
        p.tally[INST] += u64::from(n); // bounds: INST is a column constant
    }
    for (i, r) in ct.refs.iter().enumerate() {
        p.framing(SV, u64::from(r.sv.0), p.ctx.vertex)?;
        p.col(ENTRIES, u64::from(r.n_entries))?;
        ct.ref_streams(i).into_iter().for_each(|b| p.stream(b));
        p.framing(P_CODE, r.p_code, p.ctx.p_code)?;
    }
    for (i, n) in ct.nrefs.iter().enumerate() {
        p.framing(REF_IDX, u64::from(n.ref_idx), index_width(ct.refs.len()))?;
        ct.nref_streams(i).into_iter().for_each(|b| p.stream(b));
        p.framing(P_CODE, n.p_code, p.ctx.p_code)?;
    }
    Ok(())
}

/// One index record, v7: the region words and membership bits coded
/// against the trajectory ([`read_coded_regions`] reads them); the
/// temporal tuples are derived at open. A node with other than one
/// group per reference, or other than one bit per (non-reference, cell
/// of its group), is refused: it is not the index of `ct`.
fn pack_node(
    p: &mut Packer,
    (node, ct): &(TrajIndex<'_>, TrajView<'_>),
    (ref_bits, nref_bits, starts): &mut (u64, u64, Vec<u32>),
) -> io::Result<()> {
    node.group_starts(starts);
    let group_len = |n: &NrefRow| node.group(starts, n.ref_idx as usize).len();
    let n_bits: usize = ct.nrefs.iter().map(group_len).sum();
    if starts.len() != ct.refs.len() + 1 || node.member_bits().len() != n_bits {
        let what = "index node does not match its trajectory";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    }
    let refs_at = p.bits.len_bits();
    for group in node.groups() {
        p.golomb(group.len() as u64)?;
        let mut prev = None;
        for (cell, _) in group.cells() {
            match prev.replace(cell.0) {
                None => p.field(u64::from(cell.0), p.ctx.cell)?,
                Some(prev) => p.golomb(u64::from(cell.0 - prev - 1))?,
            }
        }
        p.flags(group.cells().map(|(_, enters)| enters))?;
    }
    let nrefs_at = p.bits.len_bits();
    let mut bits = node.member_bits();
    for n in ct.nrefs {
        p.flags(bits.by_ref().take(group_len(n)))?;
    }
    *ref_bits += (nrefs_at - refs_at) as u64;
    *nref_bits += (p.bits.len_bits() - nrefs_at) as u64;
    Ok(())
}

/// Serializes a self-contained v7 container: network + bit-packed
/// dataset + bit-packed index, one block of [`CHUNK`] trajectories in
/// memory at a time. Returns where the bits went.
pub fn save_v7(
    net: &RoadNetwork,
    cds: &CompressedDataset,
    stiu: &Stiu,
    w: &mut impl Write,
) -> io::Result<Sections> {
    if stiu.trajs.len() != cds.trajectories.len() {
        let what = "index/dataset trajectory counts";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    }
    // The small parts go through memory, which also sizes them.
    let mut head = Vec::from(*MAGIC);
    head.push(VERSION_V7);
    net.write_to(&mut head)?;
    let network = head.len() as u64 * 8;
    write_dataset_head(cds, &mut head)?;
    w.write_all(&head)?;
    let ctx = CtxWidths::new(net, cds, stiu.grid.cell_count());
    let trajs = cds.trajectories.iter();
    let (dataset, payload, mut framing) = write_blocks(ctx, DATASET_COLS, trajs, pack_traj, w)?;
    write_i64(w, stiu.params.partition_s)?;
    write_u32(w, stiu.params.grid_n)?;
    let nodes = stiu.trajs.iter().zip(cds.trajectories.iter());
    let mut tuples = (0, 0, Vec::new());
    let pack = |p: &mut Packer, pair: &_| pack_node(p, pair, &mut tuples);
    let (index, ..) = write_blocks(ctx, &[], nodes, pack, w)?;
    let (ref_tuples, nref_tuples, _) = tuples;
    let fields: u64 = framing.iter().sum();
    // bounds: BLOCKS is a slot of the framing array
    framing[BLOCKS] = head.len() as u64 * 8 - network + dataset - payload - fields;
    Ok(Sections {
        network,
        payload,
        framing,
        temporal: 12 * 8 + index - ref_tuples - nref_tuples,
        ref_tuples,
        nref_tuples,
    })
}

/// Serializes a sharded v3 container: the shard directory followed by
/// one length-prefixed, fully self-contained container per shard
/// (each blob parses standalone with [`load_full`], so shards can be
/// extracted, inspected or re-sharded without understanding v3).
pub fn save_v3(dir: ShardDirectory, shards: &[Vec<u8>], w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u8(w, VERSION_V3)?;
    write_u8(w, dir.kind)?;
    write_i64(w, dir.param)?;
    write_u32(w, shards.len() as u32)?;
    for blob in shards {
        write_u64(w, blob.len() as u64)?;
        w.write_all(blob)?;
    }
    Ok(())
}

/// Deserializes a sharded container into its directory and per-shard
/// container bytes. Accepts a plain v7 container too, returned as a
/// single shard with no directory — so a sharded reader opens both
/// shapes transparently. A blob is only checked to be a single-store
/// container: [`load_full`] reads its version.
pub fn load_v3(r: &mut impl Read) -> Result<(Option<ShardDirectory>, Vec<Vec<u8>>), StorageError> {
    if read_header(r)? == VERSION_V7 {
        // Re-frame the rest of the stream as one standalone shard.
        let mut blob = Vec::from(*MAGIC);
        blob.push(VERSION_V7);
        r.read_to_end(&mut blob)?;
        return Ok((None, vec![blob]));
    }
    let kind = read_u8(r)?;
    if kind > POLICY_REGION {
        return Err(StorageError::Corrupt("unknown shard policy kind"));
    }
    let param = read_i64(r)?;
    let n_shards = read_u32(r)? as usize;
    if n_shards == 0 || n_shards > (1 << 16) {
        return Err(StorageError::Corrupt("shard count out of range"));
    }
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let len = read_u64(r)?;
        if !(5..=(1u64 << 40)).contains(&len) {
            return Err(StorageError::Corrupt("shard blob length out of range"));
        }
        // Read through a `take` so the allocation grows with the bytes
        // that actually arrive — a crafted length field must not provoke
        // a giant up-front allocation.
        let mut blob = Vec::new();
        r.by_ref().take(len).read_to_end(&mut blob)?;
        if blob.len() as u64 != len {
            return Err(StorageError::Corrupt("shard blob truncated"));
        }
        // bounds: len >= 5 enforced above, and blob.len() == len
        let single = (1..=VERSION_V7).contains(&blob[4]) && blob[4] != VERSION_V3;
        if &blob[..4] != MAGIC || !single {
            let what = "shard blob is not a self-contained container";
            return Err(StorageError::Corrupt(what));
        }
        shards.push(blob);
    }
    Ok((Some(ShardDirectory { kind, param }), shards))
}

/// Reads the magic and version byte: v3 or v7, or the version of an
/// older container, which only `utcq migrate` reads.
fn read_header(r: &mut impl Read) -> Result<u8, StorageError> {
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    // bounds: magic is a [u8; 5] filled by read_exact
    if &magic[..4] != MAGIC {
        return Err(StorageError::BadHeader);
    }
    // bounds: magic is a [u8; 5], index 4 is in range
    match magic[4] {
        v @ (VERSION_V3 | VERSION_V7) => Ok(v),
        version @ 1..VERSION_V7 => Err(StorageError::NeedsMigrate {
            what: "container",
            version: version.into(),
        }),
        _ => Err(StorageError::BadHeader),
    }
}

/// The version byte of a container, followed for a sharded (v3) one by
/// the version byte of each shard's blob in directory order: what
/// `utcq info` reports. Reads the headers only, seeking over the bodies.
pub fn versions(r: &mut (impl Read + Seek)) -> Result<Vec<u8>, StorageError> {
    let mut versions = vec![read_header(r)?];
    if versions == [VERSION_V3] {
        let (_kind, _param, n_shards) = (read_u8(r)?, read_i64(r)?, read_u32(r)?);
        for _ in 0..n_shards {
            let body = read_u64(r)?
                .checked_sub(5)
                .and_then(|n| i64::try_from(n).ok());
            let body = body.ok_or(StorageError::Corrupt("shard blob length out of range"))?;
            versions.push(read_header(r)?);
            r.seek(SeekFrom::Current(body))?;
        }
    }
    Ok(versions)
}

/// Reads a dataset section (the head, then the records) of a container
/// whose embedded network is `net`.
fn read_dataset(r: &mut impl Read, net: &RoadNetwork) -> Result<CompressedDataset, StorageError> {
    let eta_d = read_f64(r)?;
    let eta_p = read_f64(r)?;
    let n_pivots = read_u32(r)? as usize;
    let default_interval = read_u64(r)? as i64;
    if !(eta_d > 0.0 && eta_d < 1.0 && eta_p > 0.0 && eta_p < 1.0) {
        return Err(StorageError::Corrupt("error bounds out of range"));
    }
    let params = CompressParams {
        eta_d,
        eta_p,
        n_pivots,
        default_interval,
    };
    let w_e = read_u32(r)?;
    if w_e == 0 || w_e > 32 {
        return Err(StorageError::Corrupt("edge width out of range"));
    }
    let name_len = read_u32(r)? as usize;
    if name_len > 4096 {
        return Err(StorageError::Corrupt("name too long"));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| StorageError::Corrupt("name utf8"))?;
    let compressed = read_breakdown(r)?;
    let raw = read_breakdown(r)?;
    let n_trajs = read_u64(r)? as usize;
    if n_trajs > (1 << 32) {
        return Err(StorageError::Corrupt("trajectory count"));
    }
    let mut cds = CompressedDataset {
        name,
        params,
        w_e,
        trajectories: Default::default(),
        compressed,
        raw,
    };
    let ctx = CtxWidths::new(net, &cds, 0);
    read_trajs(&mut Source::new(r, DATASET_COLS, ctx), n_trajs, &mut cds)?;
    Ok(cds)
}

/// Deserializes a v7 container into its network, dataset and index.
pub fn load_full(
    r: &mut impl Read,
) -> Result<(RoadNetwork, CompressedDataset, Stiu), StorageError> {
    if read_header(r)? == VERSION_V3 {
        return Err(StorageError::Sharded);
    }
    let net = RoadNetwork::read_from(r).map_err(|_| StorageError::Corrupt("embedded network"))?;
    let cds = read_dataset(r, &net)?;
    let params = StiuParams {
        partition_s: read_i64(r)?,
        grid_n: read_u32(r)?,
    };
    let mut stiu = Stiu::new(&net, params)?;
    let ctx = CtxWidths::new(&net, &cds, stiu.grid.cell_count());
    read_nodes(&mut Source::new(r, &[], ctx), &cds, &mut stiu)?;
    if net.max_out_degree() > 0 {
        let expect = crate::compressed::edge_number_width(net.max_out_degree());
        if expect != cds.w_e {
            return Err(StorageError::Corrupt("edge width vs embedded network"));
        }
    }
    Ok((net, cds, stiu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_dataset;

    fn sample() -> (RoadNetwork, CompressedDataset, Stiu) {
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 15, 31);
        let params = CompressParams::with_interval(ds.default_interval);
        let cds = compress_dataset(&net, &ds, &params).unwrap();
        let stiu = crate::stiu::build(&net, &ds, &cds, StiuParams::default());
        (net, cds, stiu)
    }

    fn v7_bytes() -> Vec<u8> {
        let (net, cds, stiu) = sample();
        let mut bytes = Vec::new();
        let s = save_v7(&net, &cds, &stiu, &mut bytes).unwrap();
        let counted = s.network
            + s.payload
            + s.framing.iter().sum::<u64>()
            + s.temporal
            + s.ref_tuples
            + s.nref_tuples;
        assert_eq!(counted, bytes.len() as u64 * 8, "sections sum to the file");
        bytes
    }

    fn v3_bytes(kind: u8, param: i64, shards: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        save_v3(ShardDirectory { kind, param }, shards, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn v7_roundtrip_preserves_all_parts() {
        let (net, cds, stiu) = sample();
        let bytes = v7_bytes();
        let (net2, cds2, stiu2) = load_full(&mut bytes.as_slice()).unwrap();
        let dbg = |t: &dyn std::fmt::Debug| format!("{t:?}");
        assert_eq!(net2, net);
        assert_eq!((&cds2.name, cds2.w_e), (&cds.name, cds.w_e));
        assert_eq!((cds2.compressed, cds2.raw), (cds.compressed, cds.raw));
        assert_eq!(dbg(&cds2.trajectories), dbg(&cds.trajectories));
        // The derived bounds included, to the last digit (the derived
        // postings: `tests/store_roundtrip.rs`).
        assert_eq!(stiu2.params, stiu.params);
        assert_eq!(dbg(&stiu2.trajs), dbg(&stiu.trajs));
        // Writing what was read reproduces the bytes.
        let mut again = Vec::new();
        save_v7(&net2, &cds2, &stiu2, &mut again).unwrap();
        assert_eq!(again, bytes);
    }

    /// A 2,000-trajectory Chengdu-profile sample, built once per test
    /// binary.
    fn cd_sample() -> &'static (RoadNetwork, CompressedDataset, Stiu) {
        static SAMPLE: std::sync::OnceLock<(RoadNetwork, CompressedDataset, Stiu)> =
            std::sync::OnceLock::new();
        SAMPLE.get_or_init(|| {
            let p = utcq_datagen::profile::cd();
            let net = utcq_datagen::generate_network(&p, 7);
            let opts = utcq_datagen::GenOptions {
                n_trajectories: 2_000,
                seed: 7,
                ..Default::default()
            };
            let ds = utcq_datagen::generate_on_network(&net, &p, &opts);
            let params = CompressParams::with_interval(ds.default_interval);
            let cds = compress_dataset(&net, &ds, &params).unwrap();
            let stiu = crate::stiu::build(&net, &ds, &cds, StiuParams::default());
            (net, cds, stiu)
        })
    }

    #[test]
    fn region_tuples_cost_what_they_share() {
        // Fixed-width (cell, instance) tuples took 41 B per trajectory;
        // sorted cell gaps per group and one membership bit per
        // non-reference cell take a few.
        let (net, cds, stiu) = cd_sample();
        let mut bytes = Vec::new();
        let s = save_v7(net, cds, stiu, &mut bytes).unwrap();
        let counted = s.network
            + s.payload
            + s.framing.iter().sum::<u64>()
            + s.temporal
            + s.ref_tuples
            + s.nref_tuples;
        assert_eq!(counted, bytes.len() as u64 * 8, "sections sum to the file");
        let per_traj = (s.ref_tuples + s.nref_tuples) as f64 / 8.0 / cds.trajectories.len() as f64;
        assert!(
            per_traj <= 12.0,
            "region tuples: {per_traj:.2} B/trajectory"
        );
        // And they read back to the same index.
        let (_, _, again) = load_full(&mut bytes.as_slice()).unwrap();
        let dbg = |t: &dyn std::fmt::Debug| format!("{t:?}");
        assert_eq!(dbg(&again.trajs), dbg(&stiu.trajs));
    }

    #[test]
    fn v7_stores_only_what_cannot_be_derived() {
        // Stream lengths, instance order and temporal tuples took 21 B of
        // v6's ~100 B per `cd` trajectory; v7 derives them at open. A
        // framing field that grows back fails here.
        let (net, cds, stiu) = cd_sample();
        let mut bytes = Vec::new();
        let s = save_v7(net, cds, stiu, &mut bytes).unwrap();
        let per_traj = |bits: u64| bits as f64 / 8.0 / cds.trajectories.len() as f64;
        let framing = per_traj(s.framing.iter().sum::<u64>());
        let (temporal, stored) = (
            per_traj(s.temporal),
            per_traj(bytes.len() as u64 * 8 - s.network),
        );
        assert!(framing <= 12.0, "framing: {framing:.2} B/trajectory");
        assert!(temporal <= 0.1, "temporal: {temporal:.3} B/trajectory");
        // 76.2 B at 2,000 trajectories.
        assert!(
            stored <= 78.0,
            "stored past the network: {stored:.2} B/trajectory"
        );
    }

    #[test]
    fn region_tables_cost_in_memory_what_they_share() {
        // Held as 24 B reference rows (cell, instance, two f64 bounds)
        // and 8 B non-reference rows they took ~361 B per trajectory;
        // as one word per group cell and one bit per non-reference cell,
        // ~41. Counted on the sealed segment, whose tables hold no spare
        // capacity (the tail's is growth room): all of it but the
        // temporal tuples and the offsets.
        use crate::segment::{Resident, Table, CHUNK};
        let (_, _, stiu) = cd_sample();
        let mut census = Resident::default();
        stiu.trajs.segments().next().unwrap().resident(&mut census);
        let region = census
            .0
            .iter()
            .filter(|(part, _)| !["temporal", "offset tables"].contains(part));
        let per_traj = region.map(|(_, bytes)| bytes).sum::<usize>() as f64 / CHUNK as f64;
        assert!(
            per_traj <= 48.0,
            "resident region tables: {per_traj:.1} B/trajectory"
        );
    }

    #[test]
    fn v7_region_counts_and_gaps_are_checked() {
        // The index block of a v7 container, which has no header and
        // opens with node 0's first group, is replaced by what `craft`
        // writes.
        let (net, cds, stiu) = sample();
        let mut bytes = Vec::new();
        let s = save_v7(&net, &cds, &stiu, &mut bytes).unwrap();
        let block = ((s.network + s.payload + s.framing.iter().sum::<u64>()) / 8) as usize + 12;
        let n_cells = stiu.grid.cell_count() as u64;
        let cell = index_width(n_cells as usize);
        let with_group = |craft: &dyn Fn(&mut BitWriter)| {
            let mut w = BitWriter::new();
            craft(&mut w);
            let block_bits = w.finish();
            let mut crafted = bytes[..block].to_vec();
            crafted.extend((block_bits.len_bytes() as u32).to_le_bytes());
            crafted.extend(block_bits.as_bytes());
            match load_full(&mut crafted.as_slice()) {
                Err(StorageError::Corrupt(what)) => what,
                other => panic!("crafted group opened: {:?}", other.map(|_| ())),
            }
        };
        let count_past_grid = with_group(&|w| golomb::encode_unsigned(w, n_cells + 1).unwrap());
        assert_eq!(count_past_grid, "region count past the grid");
        let gap_past_last_cell = with_group(&|w| {
            golomb::encode_unsigned(w, 2).unwrap();
            w.write_bits(n_cells - 1, cell).unwrap();
            golomb::encode_unsigned(w, 0).unwrap();
        });
        assert_eq!(gap_past_last_cell, "region gap past the last cell");
        // Every cell of the grid announced, one present: the next gap
        // is read past the block's end, before the table grows.
        let past_the_end = with_group(&|w| {
            golomb::encode_unsigned(w, n_cells).unwrap();
            w.write_bits(0, cell).unwrap();
        });
        assert_eq!(past_the_end, "bit-packed block");
    }

    #[test]
    fn a_node_that_is_not_its_trajectorys_index_is_not_written() {
        // Node 0's regions in the place of a trajectory with another
        // reference count: its groups cannot be told apart in v6.
        let (net, cds, mut stiu) = sample();
        let groups = |j: usize| stiu.trajs.get(j).unwrap().groups().count();
        let refs = |j: usize| cds.trajectories.get(j).unwrap().refs.len();
        let j = (1..cds.trajectories.len())
            .find(|&j| refs(j) != groups(0))
            .unwrap();
        let mut nodes = crate::stiu::Nodes::default();
        for k in 0..cds.trajectories.len() {
            let node = stiu.trajs.get(k).unwrap();
            let regions = stiu.trajs.get(if k == j { 0 } else { k }).unwrap();
            nodes.push(node.temporal, regions).unwrap();
        }
        stiu.trajs = nodes;
        let err = save_v7(&net, &cds, &stiu, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn v1_rejected_by_v2_loader() {
        // A valid older file is reported as one `utcq migrate` reads,
        // not as garbage: every version before v7 but the v3 directory.
        for version in [1, 2, 4, 5, 6] {
            let mut bytes = v7_bytes();
            bytes[4] = version;
            for err in [
                load_full(&mut bytes.as_slice()).map(drop).unwrap_err(),
                load_v3(&mut bytes.as_slice()).map(drop).unwrap_err(),
            ] {
                let StorageError::NeedsMigrate { what, version: v } = err else {
                    panic!("v{version}: {err:?}");
                };
                assert_eq!((what, v), ("container", u32::from(version)));
                assert!(err.to_string().contains("run `utcq migrate`"), "{err}");
            }
        }
    }

    #[test]
    fn v3_roundtrip_preserves_directory_and_blobs() {
        let blob = v7_bytes();
        let bytes = v3_bytes(POLICY_TIME, 3600, &[blob.clone(), blob.clone()]);
        let (dir, blobs) = load_v3(&mut bytes.as_slice()).unwrap();
        let (kind, param) = (POLICY_TIME, 3600);
        assert_eq!(dir, Some(ShardDirectory { kind, param }));
        assert_eq!(blobs, [blob.clone(), blob]);
        // Each blob is a standalone container.
        let (_, cds, _) = load_full(&mut blobs[1].as_slice()).unwrap();
        assert!(!cds.trajectories.is_empty());
    }

    #[test]
    fn v3_reader_accepts_plain_v7_as_single_shard() {
        let blob = v7_bytes();
        let (dir, blobs) = load_v3(&mut blob.as_slice()).unwrap();
        assert_eq!(dir, None);
        assert_eq!(blobs, [blob]);
        // An older plain container is left to `utcq migrate`.
        let v2 = include_bytes!("../../../tests/fixtures/tiny_v2.utcq");
        assert!(matches!(
            load_v3(&mut &v2[..]),
            Err(StorageError::NeedsMigrate { version: 2, .. })
        ));
    }

    #[test]
    fn v3_rejected_by_single_store_loaders() {
        let bytes = v3_bytes(POLICY_REGION, 8, &[v7_bytes()]);
        assert!(matches!(
            load_full(&mut bytes.as_slice()),
            Err(StorageError::Sharded)
        ));
        // A v3 of older blobs opens its directory; each blob is refused
        // by the single-store reader, as one `utcq migrate` reads.
        let mut old = v7_bytes();
        old[4] = 6;
        let bytes = v3_bytes(POLICY_REGION, 8, &[old]);
        let (_, blobs) = load_v3(&mut bytes.as_slice()).unwrap();
        assert!(matches!(
            load_full(&mut blobs[0].as_slice()),
            Err(StorageError::NeedsMigrate { version: 6, .. })
        ));
    }

    #[test]
    fn v3_corruption_is_rejected_not_panicking() {
        let bytes = v3_bytes(POLICY_TIME, 3600, &[v7_bytes()]);
        for cut in [6, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(load_v3(&mut bytes[..cut].as_ref()).is_err(), "cut={cut}");
        }
        // Bad policy kind, then zero shards, then a nested directory.
        let mut bad = bytes.clone();
        bad[5] = 9;
        let nested = v3_bytes(POLICY_TIME, 1, std::slice::from_ref(&bytes));
        for bad in [bad, v3_bytes(POLICY_CUSTOM, 0, &[]), nested] {
            assert!(matches!(
                load_v3(&mut bad.as_slice()),
                Err(StorageError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        // A wrong magic and an unknown future version are header errors.
        for (at, byte) in [(0, b'X'), (4, 9), (4, 0)] {
            let mut bytes = v7_bytes();
            bytes[at] = byte;
            assert!(matches!(
                load_full(&mut bytes.as_slice()),
                Err(StorageError::BadHeader)
            ));
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = v7_bytes();
        for cut in (0..bytes.len()).step_by(5) {
            assert!(load_full(&mut bytes[..cut].as_ref()).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bitflips_do_not_panic() {
        // Flip a sample of bits across the container; the loader must
        // return Ok or Err, never panic.
        let bytes = v7_bytes();
        for i in (0..bytes.len()).step_by(11) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            let _ = load_full(&mut corrupt.as_slice());
        }
    }
}
