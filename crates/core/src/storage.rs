//! On-disk persistence of compressed datasets.
//!
//! Binary containers under the `UTCQ` magic and a version byte. One
//! version is read and written: v8, for a store of any partition count
//! ([`write_head`] and [`write_body`], [`read_head`], [`read_network`]
//! and [`read_body`]). Every older version (v1 to v7, and v3
//! directories of them) fails with [`StorageError::NeedsMigrate`]:
//! `utcq migrate` (the `utcq_legacy` crate) reads them and writes them
//! as v8. `docs/CONTAINERS.md` has the byte-level layouts.
//!
//! # The layout (v8)
//!
//! ```text
//! [head]     "UTCQ", u8 8, u8 routing kind, i64 its parameter,
//!            u32 partition count
//! [network]  RoadNetwork, once (see utcq_network::serialize)
//! then per partition, a body:
//! [dataset]  f64 ηD, f64 ηp, u32 n_pivots, u64 default_interval,
//!            u32 w_e (outgoing-edge-number width), u32 name_len + name,
//!            2 × SizeBreakdown (compressed, raw; 6 × u64 each),
//!            u64 trajectory count, then per trajectory: id, n_times,
//!            stream T, instance count, one role bit per instance in
//!            original order,
//!     per ref:  sv, n_entries, streams E, T', D, p_code
//!     per nref: ref_idx, streams Com_E, Com_T, Com_D, p_code
//! [index]    i64 partition_s, u32 grid_n (the grid is rebuilt from the
//!            network), then one node per trajectory:
//!     per ref:  cell count, first cell, gap − 1 to each further cell,
//!               one enters bit per cell
//!     per nref: one membership bit per cell of its group
//! ```
//!
//! A body delimits itself: its trajectory count gives the number of
//! blocks of each section, and each block opens with its length. So a
//! container is written and read in one pass, one partition at a time,
//! and nothing in it is the length of something later.
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
//! **A body stores no field the rest of the file determines**
//! (`docs/CONTAINERS.md` § v7, whose body v8 keeps): every stream
//! delimits itself (by arithmetic, or a walk of its codes that needs
//! counts, never the reference's content), the role bits give each
//! `orig_idx` of the order compression emits (`canonical`), and the
//! node's time span is a function of `T` (`stiu::time_span`).
//!
//! **The region tuples** are coded against the trajectory, in the
//! canonical order of [`crate::stiu`]: a group's cells ascending as its
//! count and the gaps between them (order-0 Exp-Golomb, the first cell
//! at the cell width), a non-reference as one bit per cell of its group
//! (its cells are a subset of the group's). No tuple names its instance
//! and no region tuple count is stored: the trajectory's reference and
//! non-reference rows say whose tuples come next.
//!
//! **Derived at open:** besides the body's fields, the interval postings
//! (`Stiu::append_node`, from each time stream's first and last sample)
//! and the temporal tuple counts — pure functions of stored fields, so a
//! reopened index equals the built one bit for bit.
//!
//! A block and an in-memory segment ([`crate::segment`]) cover the same
//! [`CHUNK`] records: the reader appends each record's fields straight
//! to the segment's framing string (which packs them as the block does,
//! in the same order, at the tail's widths until the segment seals),
//! its streams to the segment's arena and its region cells and
//! membership bits to the index tables, and the writer packs from
//! borrowed views, with no per-trajectory object in between.

use std::io::{self, Read, Write};

use utcq_bitio::{golomb, width_for_max, BitBuf, BitReader, BitSlice, BitWriter, CodecError};
use utcq_network::{CellId, RoadNetwork, VertexId};
use utcq_traj::size::SizeBreakdown;

use crate::compress::CompressedDataset;
use crate::error::Error;
use crate::params::CompressParams;
use crate::segment::{index_width, TrajSegment, TrajView, CHUNK};
use crate::stiu::{time_span, NodeSegment, Stiu, StiuParams, TrajIndex};
use crate::{factor, siar};

const MAGIC: &[u8; 4] = b"UTCQ";
/// The container version core reads and writes: one network, then one
/// body per partition.
pub const VERSION: u8 = 8;

/// Routing kind of a v8 head: a policy that is not one of the built-ins
/// (metadata only — querying never routes).
pub const ROUTING_CUSTOM: u8 = 0;
/// Routing kind: time-interval routing (`param` = interval seconds).
pub const ROUTING_TIME: u8 = 1;
/// Routing kind: region routing (`param` = routing-grid dimension).
pub const ROUTING_REGION: u8 = 2;
/// Routing kind: no policy, one partition (`param` = 0).
pub const ROUTING_SINGLE: u8 = 3;

/// The name of a routing kind, as `utcq info`'s `format:` line prints
/// it; `?` for a kind no `ROUTING_*` constant names.
pub(crate) fn routing_name(kind: u8) -> &'static str {
    match kind {
        ROUTING_CUSTOM => "custom",
        ROUTING_TIME => "time",
        ROUTING_REGION => "region",
        ROUTING_SINGLE => "single",
        _ => "?",
    }
}

/// The fixed-size head of a v8 container: how the trajectories were
/// routed to partitions, and how many there are. Metadata for reopening
/// — query execution finds a trajectory through the id map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// One of the `ROUTING_*` kinds.
    pub kind: u8,
    /// Routing parameter (interval seconds / grid dimension; `0` for
    /// custom and single).
    pub param: i64,
    /// The partition count: one body each.
    pub parts: u32,
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
/// trajectory count. Returns its length in bytes.
fn write_dataset_head(cds: &CompressedDataset, w: &mut impl Write) -> io::Result<u64> {
    let mut head = Vec::new();
    write_f64(&mut head, cds.params.eta_d)?;
    write_f64(&mut head, cds.params.eta_p)?;
    write_u32(&mut head, cds.params.n_pivots as u32)?;
    write_u64(&mut head, cds.params.default_interval as u64)?;
    write_u32(&mut head, cds.w_e)?;
    let name = cds.name.as_bytes();
    write_u32(&mut head, name.len() as u32)?;
    head.extend(name);
    write_breakdown(&mut head, &cds.compressed)?;
    write_breakdown(&mut head, &cds.raw)?;
    write_u64(&mut head, cds.trajectories.len() as u64)?;
    w.write_all(&head)?;
    Ok(head.len() as u64)
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

    /// The next reference of the open trajectory of `seg`, which has
    /// `n_times` samples: its fields and its streams, `n_entries` edge
    /// entries, the `n_entries − 2` trimmed time flags and one distance
    /// code per sample, so their lengths are arithmetic. Returns its
    /// entry count.
    fn read_ref(&mut self, seg: &mut TrajSegment, n_times: usize) -> Result<u32, StorageError> {
        let sv = VertexId(self.field(self.ctx.vertex)? as u32);
        let n_entries = self.col(ENTRIES)?;
        if n_entries < 2 {
            return Err(StorageError::Corrupt(
                "reference with fewer than two entries",
            ));
        }
        seg.reference(sv, n_entries as u32)?;
        let (w_e, w_d, n) = (self.ctx.w_e, self.ctx.w_d, n_entries as usize);
        for len in [n * w_e, n - 2, n_times * w_d] {
            self.stream(seg, |r| {
                r.seek(r.pos() + len);
                Ok(())
            })?;
        }
        seg.p_code(self.field(self.ctx.p_code)?)?;
        Ok(n_entries as u32)
    }

    /// The next non-reference of the open trajectory of `seg`, whose
    /// references have `entries` edge entries each: its fields and its
    /// streams, each factor stream walked knowing only counts of its
    /// reference, never its content.
    fn read_nref(
        &mut self,
        seg: &mut TrajSegment,
        entries: &[u32],
        n_times: usize,
    ) -> Result<(), StorageError> {
        let ref_idx = self.index(entries.len(), "non-reference points past refs")?;
        seg.non_reference(ref_idx, entries.len())?;
        let ref_entries = entries.get(ref_idx as usize).map_or(0, |&n| n as usize);
        let (w_e, w_d) = (self.ctx.w_e as u32, self.ctx.w_d as u32);
        let mut n_entries = 0;
        let walk_e = |r: &mut BitReader<'_>| factor::walk_e(r, ref_entries, w_e, |_, _| ());
        self.stream(seg, |r| walk_e(r).map(|n| n_entries = n))?;
        let flags = |n: usize| n.saturating_sub(2);
        let (ref_flags, flags) = (flags(ref_entries), flags(n_entries));
        self.stream(seg, |r| {
            factor::walk_t(r, ref_flags, flags, drop, |_, _| ()).map(drop)
        })?;
        self.stream(seg, |r| factor::walk_d(r, n_times, w_d, drop))?;
        Ok(seg.p_code(self.field(self.ctx.p_code)?)?)
    }
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
/// its segments: each record's fields to the open trajectory's framing
/// record, its streams to the arena. A record holds the instance count,
/// then one role bit per instance in original order (set: a reference),
/// so the instances take their `orig_idx` from their place.
fn read_trajs<R: Read>(
    src: &mut Source<'_, R>,
    n_trajs: usize,
    cds: &mut CompressedDataset,
) -> Result<(), StorageError> {
    let ts = cds.params.default_interval;
    // The role bits of the open trajectory and its references' entry
    // counts.
    let (mut roles, mut entries) = (Vec::new(), Vec::new());
    while cds.trajectories.len() < n_trajs {
        src.begin_block()?;
        for _ in 0..CHUNK.min(n_trajs - cds.trajectories.len()) {
            cds.trajectories.append(|seg| {
                let id = src.col(ID)?;
                let n_times = src.col(TIMES)? as u32;
                seg.begin(id, n_times)?;
                src.stream(seg, |r| siar::walk(r, n_times as usize, ts, |_, _, _| ()))?;
                roles.clear();
                for _ in 0..src.col(INST)? {
                    roles.push(src.field(1)? != 0);
                }
                seg.roles(roles.iter().copied())?;
                entries.clear();
                for _ in roles.iter().filter(|&&is_ref| is_ref) {
                    entries.push(src.read_ref(seg, n_times as usize)?);
                }
                for _ in roles.iter().filter(|&&is_ref| !is_ref) {
                    src.read_nref(seg, &entries, n_times as usize)?;
                }
                Ok::<(), StorageError>(seg.finish()?)
            })?;
        }
        src.end_block()?;
    }
    Ok(())
}

/// Reads one index node per trajectory of `cds` into `stiu`, tuple by
/// tuple into its segments, deriving each node's time span (its
/// postings and temporal tuple count) from its time stream.
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
                let times = time_span(ct.t_bits(), ct.n_times, ts, partition_s)?;
                read_coded_regions(src, node, &ct, n_cells, &mut groups)?;
                Ok::<_, StorageError>(times)
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
    for _ in 0..ct.ref_count() {
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
    for owner in ct.nref_owners() {
        let count = groups.get(owner as usize);
        let count = count.ok_or(StorageError::Corrupt("non-reference points past refs"))?;
        for _ in 0..*count {
            node.push_bit(src.field(1)? != 0);
        }
    }
    Ok(())
}

/// Where a written container's bits went, counted by the writer as it
/// writes (in bits; they sum to the container size): `network` is the
/// head and the one network section; `payload` the compressed
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

/// The sum of two accounts: a container's head and its bodies.
impl std::ops::AddAssign for Sections {
    fn add_assign(&mut self, o: Self) {
        self.network += o.network;
        self.payload += o.payload;
        self.framing
            .iter_mut()
            .zip(o.framing)
            .for_each(|(a, b)| *a += b);
        self.temporal += o.temporal;
        self.ref_tuples += o.ref_tuples;
        self.nref_tuples += o.nref_tuples;
    }
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

/// Writes the `n` records `record` returns as blocks of [`CHUNK`]: per
/// block the `u32` byte length, the header, the records (`pack`
/// traverses one), zero padding to a byte. A block with no column needs
/// no measuring run. No block's records are held: each run fetches them
/// again. Returns the bits written: all, those of streams alone, and
/// per framing field.
fn write_blocks<T>(
    ctx: CtxWidths,
    cols: &'static [usize],
    n: usize,
    record: impl Fn(usize) -> Option<T>,
    mut pack: impl FnMut(&mut Packer, &T) -> io::Result<()>,
    out: &mut impl Write,
) -> io::Result<(u64, u64, [u64; 8])> {
    let (mut bits, mut payload, mut tally) = (0, 0, [0; 8]);
    for first in (0..n).step_by(CHUNK) {
        let mut run = |p: &mut Packer| {
            (first..n.min(first + CHUNK)).try_for_each(|i| {
                let missing =
                    || io::Error::new(io::ErrorKind::InvalidInput, "record past the table");
                pack(p, &record(i).ok_or_else(missing)?)
            })
        };
        let mut p = Packer::default();
        (p.ctx, p.cols, p.base) = (ctx, cols, u64::MAX);
        if !cols.is_empty() {
            run(&mut p)?;
        }
        p.start()?;
        run(&mut p)?;
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
/// per non-reference its `ref_idx`, `Com_E Com_T' Com_D` and `p_code`:
/// the fields of the trajectory's framing record in its order, with the
/// streams between them.
fn pack_traj(p: &mut Packer, ct: &TrajView<'_>) -> io::Result<()> {
    p.col(ID, ct.id)?;
    p.col(TIMES, u64::from(ct.n_times))?;
    p.stream(ct.t_bits());
    let n = ct.instance_count() as u32;
    p.col(INST, u64::from(n))?;
    p.flags((0..n).map(|k| ct.is_ref(k)))?;
    if p.widths.is_some() {
        p.tally[INST] += u64::from(n); // bounds: INST is a column constant
    }
    for (i, r) in ct.refs().enumerate() {
        p.framing(SV, u64::from(r.sv.0), p.ctx.vertex)?;
        p.col(ENTRIES, u64::from(r.n_entries))?;
        ct.ref_streams(i).into_iter().for_each(|b| p.stream(b));
        p.framing(P_CODE, r.p_code, p.ctx.p_code)?;
    }
    let ref_idx = index_width(ct.ref_count());
    for (i, n) in ct.nrefs().enumerate() {
        p.framing(REF_IDX, u64::from(n.ref_idx), ref_idx)?;
        ct.nref_streams(i).into_iter().for_each(|b| p.stream(b));
        p.framing(P_CODE, n.p_code, p.ctx.p_code)?;
    }
    Ok(())
}

/// One index record, v7: the region words and membership bits coded
/// against the trajectory ([`read_coded_regions`] reads them); the
/// time span is derived at open. A node with other than one
/// group per reference, or other than one bit per (non-reference, cell
/// of its group), is refused: it is not the index of `ct`.
fn pack_node(
    p: &mut Packer,
    (node, ct): &(TrajIndex<'_>, TrajView<'_>),
    (ref_bits, nref_bits, starts): &mut (u64, u64, Vec<u32>),
) -> io::Result<()> {
    node.group_starts(starts);
    let group_len = |owner: u32| node.group(starts, owner as usize).len();
    let n_bits: usize = ct.nref_owners().map(group_len).sum();
    if starts.len() != ct.ref_count() + 1 || node.member_bits().len() != n_bits {
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
    for owner in ct.nref_owners() {
        p.flags(bits.by_ref().take(group_len(owner)))?;
    }
    *ref_bits += (nrefs_at - refs_at) as u64;
    *nref_bits += (p.bits.len_bits() - nrefs_at) as u64;
    Ok(())
}

/// Writes a v8 container's head and its one network section. Returns
/// the bits written (the `network` of [`Sections`]).
pub fn write_head(head: Head, net: &RoadNetwork, w: &mut impl Write) -> io::Result<u64> {
    let mut bytes = MAGIC.to_vec();
    write_u8(&mut bytes, VERSION)?;
    write_u8(&mut bytes, head.kind)?;
    write_i64(&mut bytes, head.param)?;
    write_u32(&mut bytes, head.parts)?;
    net.encode(&mut bytes)?;
    w.write_all(&bytes)?;
    Ok(bytes.len() as u64 * 8)
}

#[cfg(test)]
thread_local! {
    /// The bodies [`write_body`] wrote on this thread: a test counts a
    /// save's.
    pub(crate) static BODIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Writes one partition's body straight to `w`, in one pass: the
/// bit-packed dataset, then the bit-packed index, one block of
/// [`CHUNK`] trajectories in memory at a time. `net` is the container's
/// network. Returns where the bits went (all but `network`).
pub fn write_body(
    net: &RoadNetwork,
    cds: &CompressedDataset,
    stiu: &Stiu,
    w: &mut impl Write,
) -> io::Result<Sections> {
    let n = cds.trajectories.len();
    if stiu.trajs.len() != n {
        let what = "index/dataset trajectory counts";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    }
    #[cfg(test)]
    BODIES.with(|n| n.set(n.get() + 1));
    let head = write_dataset_head(cds, w)? * 8;
    let ctx = CtxWidths::new(net, cds, stiu.grid.cell_count());
    let traj = |i| cds.trajectories.get(i);
    let (dataset, payload, mut framing) = write_blocks(ctx, DATASET_COLS, n, traj, pack_traj, w)?;
    write_i64(w, stiu.params.partition_s)?;
    write_u32(w, stiu.params.grid_n)?;
    let node = |i| stiu.trajs.get(i).zip(cds.trajectories.get(i));
    let mut tuples = (0, 0, Vec::new());
    let pack = |p: &mut Packer, pair: &_| pack_node(p, pair, &mut tuples);
    let (index, ..) = write_blocks(ctx, &[], n, node, pack, w)?;
    let (ref_tuples, nref_tuples, _) = tuples;
    let fields: u64 = framing.iter().sum();
    // bounds: BLOCKS is a slot of the framing array
    framing[BLOCKS] = head + dataset - payload - fields;
    Ok(Sections {
        network: 0,
        payload,
        framing,
        temporal: 12 * 8 + index - ref_tuples - nref_tuples,
        ref_tuples,
        nref_tuples,
    })
}

/// Reads a container's head, up to its network: the magic, the version
/// (v8; an older one only `utcq migrate` reads), the routing and the
/// partition count.
pub fn read_head(r: &mut impl Read) -> Result<Head, StorageError> {
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    let [m0, m1, m2, m3, version] = magic;
    if [m0, m1, m2, m3] != *MAGIC {
        return Err(StorageError::BadHeader);
    }
    match version {
        VERSION => {}
        1..VERSION => {
            let version = version.into();
            return Err(StorageError::NeedsMigrate {
                what: "container",
                version,
            });
        }
        _ => return Err(StorageError::BadHeader),
    }
    let (kind, param, parts) = (read_u8(r)?, read_i64(r)?, read_u32(r)?);
    if kind > ROUTING_SINGLE {
        return Err(StorageError::Corrupt("unknown routing kind"));
    }
    if parts == 0 || parts > (1 << 16) {
        return Err(StorageError::Corrupt("partition count out of range"));
    }
    if kind == ROUTING_SINGLE && (parts, param) != (1, 0) {
        return Err(StorageError::Corrupt(
            "single routing of other than one partition",
        ));
    }
    Ok(Head { kind, param, parts })
}

/// Reads a container's one network section, after its head.
pub fn read_network(r: &mut impl Read) -> Result<RoadNetwork, StorageError> {
    RoadNetwork::decode(r).map_err(|_| StorageError::Corrupt("embedded network"))
}

/// Reads a dataset section (the head, then the records) of a container
/// whose network is `net`.
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

/// Reads one partition's body (see [`write_body`]) of a container whose
/// network is `net` into its dataset and index.
pub fn read_body(
    r: &mut impl Read,
    net: &RoadNetwork,
) -> Result<(CompressedDataset, Stiu), StorageError> {
    let cds = read_dataset(r, net)?;
    let params = StiuParams {
        partition_s: read_i64(r)?,
        grid_n: read_u32(r)?,
    };
    let mut stiu = Stiu::new(net, params)?;
    let ctx = CtxWidths::new(net, &cds, stiu.grid.cell_count());
    read_nodes(&mut Source::new(r, &[], ctx), &cds, &mut stiu)?;
    if net.max_out_degree() > 0 {
        let expect = crate::compressed::edge_number_width(net.max_out_degree());
        if expect != cds.w_e {
            return Err(StorageError::Corrupt("edge width vs embedded network"));
        }
    }
    Ok((cds, stiu))
}

/// Checks that the container ends after its last body.
pub fn read_end(r: &mut impl Read) -> Result<(), StorageError> {
    match r.read(&mut [0u8])? {
        0 => Ok(()),
        _ => Err(StorageError::Corrupt("bytes past the last partition")),
    }
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

    const SINGLE: Head = Head {
        kind: ROUTING_SINGLE,
        param: 0,
        parts: 1,
    };

    /// Writes a container of `head` whose every body is `(cds, stiu)`,
    /// and returns where its bits went.
    fn save_as(
        head: Head,
        (net, cds, stiu): (&RoadNetwork, &CompressedDataset, &Stiu),
        w: &mut impl Write,
    ) -> io::Result<Sections> {
        let mut s = Sections {
            network: write_head(head, net, w)?,
            ..Sections::default()
        };
        for _ in 0..head.parts {
            s += write_body(net, cds, stiu, w)?;
        }
        Ok(s)
    }

    /// A one-partition container of `(net, cds, stiu)`.
    fn save(
        net: &RoadNetwork,
        cds: &CompressedDataset,
        stiu: &Stiu,
        w: &mut impl Write,
    ) -> io::Result<Sections> {
        save_as(SINGLE, (net, cds, stiu), w)
    }

    /// A container as read: its head, its network and every body.
    type Loaded = (Head, RoadNetwork, Vec<(CompressedDataset, Stiu)>);

    /// The head, the network and every body of a container.
    fn load_all(r: &mut impl Read) -> Result<Loaded, StorageError> {
        let head = read_head(r)?;
        let net = read_network(r)?;
        let bodies = (0..head.parts).map(|_| read_body(r, &net));
        let bodies = bodies.collect::<Result<Vec<_>, _>>()?;
        read_end(r)?;
        Ok((head, net, bodies))
    }

    /// A one-partition container's network, dataset and index.
    fn load(r: &mut impl Read) -> Result<(RoadNetwork, CompressedDataset, Stiu), StorageError> {
        let (_, net, mut bodies) = load_all(r)?;
        let (cds, stiu) = bodies.pop().ok_or(StorageError::Corrupt("no body"))?;
        Ok((net, cds, stiu))
    }

    /// The bits an account names: the whole file, if it is the file's.
    fn counted(s: &Sections) -> u64 {
        let fields = s.payload + s.framing.iter().sum::<u64>() + s.temporal;
        s.network + fields + s.ref_tuples + s.nref_tuples
    }

    fn v8_bytes(head: Head) -> Vec<u8> {
        let (net, cds, stiu) = sample();
        let mut bytes = Vec::new();
        let s = save_as(head, (&net, &cds, &stiu), &mut bytes).unwrap();
        assert_eq!(
            counted(&s),
            bytes.len() as u64 * 8,
            "sections sum to the file"
        );
        bytes
    }

    fn single_bytes() -> Vec<u8> {
        v8_bytes(SINGLE)
    }

    #[test]
    fn v7_roundtrip_preserves_all_parts() {
        let (net, cds, stiu) = sample();
        let bytes = single_bytes();
        let (net2, cds2, stiu2) = load(&mut bytes.as_slice()).unwrap();
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
        save(&net2, &cds2, &stiu2, &mut again).unwrap();
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
        let s = save(net, cds, stiu, &mut bytes).unwrap();
        assert_eq!(
            counted(&s),
            bytes.len() as u64 * 8,
            "sections sum to the file"
        );
        let per_traj = (s.ref_tuples + s.nref_tuples) as f64 / 8.0 / cds.trajectories.len() as f64;
        assert!(
            per_traj <= 12.0,
            "region tuples: {per_traj:.2} B/trajectory"
        );
        // And they read back to the same index.
        let (_, _, again) = load(&mut bytes.as_slice()).unwrap();
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
        let s = save(net, cds, stiu, &mut bytes).unwrap();
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
        // capacity (the tail's is growth room): its region words and
        // membership bits.
        use crate::segment::{Resident, Table, CHUNK};
        let (_, _, stiu) = cd_sample();
        let mut census = Resident::default();
        stiu.trajs.segments().next().unwrap().resident(&mut census);
        let region = census
            .0
            .iter()
            .filter(|(part, _)| ["region cells", "member bits"].contains(part));
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
        let s = save(&net, &cds, &stiu, &mut bytes).unwrap();
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
            match load(&mut crafted.as_slice()) {
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
        let refs = |j: usize| cds.trajectories.get(j).unwrap().ref_count();
        let j = (1..cds.trajectories.len())
            .find(|&j| refs(j) != groups(0))
            .unwrap();
        let mut nodes = crate::stiu::Nodes::default();
        for k in 0..cds.trajectories.len() {
            let regions = stiu.trajs.get(if k == j { 0 } else { k }).unwrap();
            nodes.push(regions).unwrap();
        }
        stiu.trajs = nodes;
        let err = save(&net, &cds, &stiu, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn v1_rejected_by_v2_loader() {
        // A valid older file is reported as one `utcq migrate` reads,
        // not as garbage: every version before v8.
        for version in 1..VERSION {
            let mut bytes = single_bytes();
            bytes[4] = version;
            let err = load(&mut bytes.as_slice()).map(drop).unwrap_err();
            let StorageError::NeedsMigrate { what, version: v } = err else {
                panic!("v{version}: {err:?}");
            };
            assert_eq!((what, v), ("container", u32::from(version)));
            assert!(err.to_string().contains("run `utcq migrate`"), "{err}");
        }
    }

    #[test]
    fn v8_roundtrip_preserves_head_and_bodies() {
        // Every body is read given the file's one network.
        let head = Head {
            kind: ROUTING_TIME,
            param: 3600,
            parts: 2,
        };
        let bytes = v8_bytes(head);
        let (read, net, bodies) = load_all(&mut bytes.as_slice()).unwrap();
        assert_eq!((read, &net), (head, &sample().0));
        assert_eq!(bodies.len(), 2);
        let mut again = Vec::new();
        write_head(head, &net, &mut again).unwrap();
        for (cds, stiu) in &bodies {
            write_body(&net, cds, stiu, &mut again).unwrap();
        }
        assert_eq!(again, bytes);
        // The network is stored once: a second body adds only itself.
        let one = single_bytes();
        let body = bytes.len() - one.len();
        assert_eq!(&bytes[bytes.len() - body..], &one[one.len() - body..]);
    }

    #[test]
    fn v8_head_corruption_is_rejected_not_panicking() {
        let head = Head {
            kind: ROUTING_REGION,
            param: 8,
            parts: 2,
        };
        let bytes = v8_bytes(head);
        for cut in [6, 18, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(load_all(&mut &bytes[..cut]).is_err(), "cut={cut}");
        }
        let corrupt = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = bytes.clone();
            edit(&mut bad);
            match load_all(&mut bad.as_slice()) {
                Err(StorageError::Corrupt(what)) => what,
                other => panic!("{:?}", other.map(|(head, ..)| head)),
            }
        };
        assert_eq!(corrupt(&|b| b[5] = 9), "unknown routing kind");
        let no_parts = corrupt(&|b| b[14..18].fill(0));
        assert_eq!(no_parts, "partition count out of range");
        assert_eq!(
            corrupt(&|b| b[5] = ROUTING_SINGLE),
            "single routing of other than one partition"
        );
        assert_eq!(corrupt(&|b| b[18] ^= 0x80), "embedded network");
        // A count past the bodies runs into the end of the file; one
        // short of them leaves a body over, as do trailing bytes.
        let mut past = bytes.clone();
        past[14] = 3;
        let err = load_all(&mut past.as_slice()).map(drop).unwrap_err();
        assert!(matches!(&err, StorageError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof));
        assert_eq!(corrupt(&|b| b[14] = 1), "bytes past the last partition");
        assert_eq!(corrupt(&|b| b.push(0)), "bytes past the last partition");
    }

    #[test]
    fn bad_magic_rejected() {
        // A wrong magic and an unknown future version are header errors.
        for (at, byte) in [(0, b'X'), (4, 9), (4, 0)] {
            let mut bytes = single_bytes();
            bytes[at] = byte;
            assert!(matches!(
                load(&mut bytes.as_slice()),
                Err(StorageError::BadHeader)
            ));
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = single_bytes();
        for cut in (0..bytes.len()).step_by(5) {
            assert!(load(&mut bytes[..cut].as_ref()).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bitflips_do_not_panic() {
        // Flip a sample of bits across the container; the loader must
        // return Ok or Err, never panic.
        let bytes = single_bytes();
        for i in (0..bytes.len()).step_by(11) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            let _ = load(&mut corrupt.as_slice());
        }
    }
}
