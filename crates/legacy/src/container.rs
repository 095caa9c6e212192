//! The readers of containers v1, v2 and v4 to v6: each parses its
//! framing into [`CompressedTrajectory`] values and index tuple lists,
//! which core appends with `Trajectories::push` and
//! [`Stiu::push_tuples`], with every check the readers made while core
//! opened these files (`docs/CONTAINERS.md` has the layouts).
//!
//! ```text
//! [network]  v2, v4..v6: RoadNetwork (see utcq_network::serialize)
//! [head]     f64 ηD, f64 ηp, u32 n_pivots, u64 default_interval,
//!            u32 w_e, u32 name_len + name, 2 × SizeBreakdown,
//!            u64 trajectory count
//! [dataset]  per trajectory: id, n_times, stream T,
//!     ref count,  per ref:  orig_idx, sv, n_entries,
//!                           streams E, T', D, p_code
//!     nref count, per nref: orig_idx, ref_idx,
//!                           streams Com_E, Com_T, Com_D, p_code
//! [index]    v2, v4..v6: i64 partition_s, u32 grid_n, (v2) u64 node
//!            count, then one node per trajectory:
//!     temporal count,   per tuple: start, no, pos
//!     (v2, v4, v5)
//!     ref-tuple count,  per tuple: cell, ref_idx, enters,
//!                                  (v2, v4) the resume fields,
//!                                  (v2 only) p_total, p_max
//!     nref-tuple count, per tuple: cell, nref_idx,
//!                                  (v2, v4) the resume fields
//!     (v6)
//!     per ref:  cell count, first cell, gap − 1 to each further cell,
//!               one enters bit per cell
//!     per nref: one membership bit per cell of its group
//! [postings] v2 only: the interval postings, which must be the ones
//!            the nodes derive
//! ```
//!
//! **v1 and v2** frame it in little-endian fixed-width fields: 8 bytes
//! for id, `p_code`, start and the bounds, 1 for `enters`, 4 for the
//! rest, a stream as a `u32` bit length plus padded bytes. **v4 to v6**
//! pack it MSB-first into blocks of 1,024 records: a `u32` byte length,
//! a header of a 64-bit base (column 0 is an offset from it) and one
//! 7-bit width per column, the records, zero padding to a byte. A
//! stream's length is a dataset column; a v4 index block has a fifth
//! column for the resume fields' entry index.
//!
//! Every stream delimits itself, so a stored length must agree with the
//! walk of its codes; the stored temporal tuples must be the ones the
//! time stream derives, v2's postings the ones the nodes derive, and the
//! instances must be in the order compression emits. The resume fields
//! (v2, v4) and v2's probability bounds are consumed with the checks
//! they always had and dropped.
//!
//! **v1** stores no network and no index: the caller supplies the
//! network and the index parameters, and the index is rebuilt from the
//! decompressed trajectories. That rebuild is not the index of the
//! original data: the first and last positions of each instance, whose
//! cells the index reads, decompress only within `ηD`.

use std::io::{self, Read, Write};

use utcq_bitio::{golomb, width_for_max, BitBuf, BitReader, CodecError};
use utcq_core::compressed::{
    edge_number_width, CompressedNonRef, CompressedRef, CompressedTrajectory,
};
use utcq_core::decompress::DecompressError;
use utcq_core::segment::{self, TrajView, Trajectories};
use utcq_core::stiu::{region_cells, EdgeCells, Stiu, StiuParams};
use utcq_core::storage::{self, Head, StorageError, ROUTING_REGION};
use utcq_core::{decompress_dataset, factor, siar, CompressParams, CompressedDataset, Error};
use utcq_network::{CellId, NetworkBuilder, RoadNetwork, VertexId};
use utcq_traj::size::SizeBreakdown;
use utcq_traj::TedViewError;

/// Dataset-only container: no network, no index.
pub const VERSION_V1: u8 = 1;
/// Self-contained container in fixed-width fields.
pub const VERSION_V2: u8 = 2;
/// Bit-packed blocks whose region tuples carry the resume fields.
pub const VERSION_V4: u8 = 4;
/// Bit-packed blocks with fixed-width region tuples.
pub const VERSION_V5: u8 = 5;
/// Bit-packed blocks whose region tuples are coded against the
/// trajectory.
pub const VERSION_V6: u8 = 6;
/// A directory (policy kind, parameter, shard count) and one
/// length-prefixed self-contained container per shard.
pub const VERSION_V3: u8 = 3;
/// The body of v8 (which core reads) behind this crate's network
/// section: a self-contained container of one store.
pub const VERSION_V7: u8 = 7;

const MAGIC: &[u8; 4] = b"UTCQ";

// Per-block columns: of a dataset block …
const ID: usize = 0;
const TIMES: usize = 1;
const INST: usize = 2;
const ENTRIES: usize = 3;
const LEN: usize = 4;
// … and of an index block.
const START: usize = 0;
const NO: usize = 1;
const COUNT: usize = 2;
const ENTRY: usize = 3;
const POS: usize = 4;
/// The columns a block header declares, in header order.
const DATASET_COLS: &[usize] = &[ID, TIMES, LEN, INST, ENTRIES];
const INDEX_COLS_V5: &[usize] = &[START, NO, COUNT, POS];
const INDEX_COLS_V4: &[usize] = &[START, NO, COUNT, ENTRY, POS];
/// Widest value each column may declare: the base-offset column (ids,
/// start times) spans 64 bits, every other field is a `u32`.
const COL_LIMITS: [u32; 5] = [64, 32, 32, 32, 32];
/// Records per block.
const CHUNK: usize = 1024;

/// A self-contained container's parts: network, dataset, index.
pub(crate) type Parts = (RoadNetwork, CompressedDataset, Stiu);

/// Little-endian fixed-width field readers.
macro_rules! le_fields {
    ($($ty:ty: $read:ident;)*) => {$(
        fn $read(r: &mut impl Read) -> io::Result<$ty> {
            let mut b = [0u8; std::mem::size_of::<$ty>()];
            r.read_exact(&mut b)?;
            Ok(<$ty>::from_le_bytes(b))
        }
    )*};
}

le_fields! {
    u8: read_u8;
    u32: read_u32;
    u64: read_u64;
    i64: read_i64;
    f64: read_f64;
}

/// A v1/v2 stream: a `u32` bit length, then the bits zero-padded to a
/// byte.
fn read_bits(r: &mut impl Read) -> Result<BitBuf, StorageError> {
    let len = read_u32(r)? as usize;
    if len > (1 << 30) {
        return Err(StorageError::Corrupt("bit stream longer than 2^30"));
    }
    // Through a `take`, so the buffer grows with the bytes that arrive,
    // not with a crafted length.
    let mut bytes = Vec::new();
    r.take(len.div_ceil(8) as u64).read_to_end(&mut bytes)?;
    if bytes.len() != len.div_ceil(8) {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    BitBuf::from_bytes(bytes, len).ok_or(StorageError::Corrupt("bit padding"))
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

/// `width_for_max(n − 1)`: the width of an index into `n` items.
fn index_width(n: usize) -> u32 {
    width_for_max((n as u64).saturating_sub(1))
}

/// `v` as a `u32` below `n`, or the container is corrupt.
fn below(v: u64, n: usize, what: &'static str) -> Result<u32, StorageError> {
    if v >= n as u64 {
        return Err(StorageError::Corrupt(what));
    }
    Ok(v as u32)
}

/// Widths of the bit-packed fields that the container's context fixes
/// rather than a block header (unused for v1/v2), and of an edge entry
/// and a distance code, which size a reference's streams.
#[derive(Clone, Copy, Default)]
struct CtxWidths {
    vertex: u32,
    cell: u32,
    p_code: u32,
    w_e: usize,
    w_d: usize,
}

impl CtxWidths {
    /// `n_cells` is the grid's cell count (the dataset section has no
    /// cell fields: pass 0); `net` the embedded network (v1 has none).
    fn new(net: Option<&RoadNetwork>, cds: &CompressedDataset, n_cells: usize) -> Self {
        CtxWidths {
            vertex: net.map_or(0, |net| index_width(net.vertex_count())),
            cell: index_width(n_cells),
            p_code: cds.params.p_codec().width(),
            w_e: cds.w_e as usize,
            w_d: cds.params.d_codec().width() as usize,
        }
    }
}

/// Where the record traversal takes its field values from: the
/// fixed-width little-endian fields of v1/v2 or, if `packed`, the
/// blocks of v4..v6, one in memory at a time with the read position in
/// it, the base that column 0 is an offset from (0 throughout v1/v2) and
/// the widths of the columns its header declares (`cols`).
struct Source<'a, R> {
    r: &'a mut R,
    version: u8,
    packed: bool,
    cols: &'static [usize],
    block: BitBuf,
    pos: usize,
    base: u64,
    widths: [u32; 5],
    ctx: CtxWidths,
}

impl<'a, R: Read> Source<'a, R> {
    fn new(r: &'a mut R, version: u8, cols: &'static [usize], ctx: CtxWidths) -> Self {
        Source {
            r,
            version,
            packed: version >= VERSION_V4,
            cols,
            block: BitBuf::empty(),
            pos: 0,
            base: 0,
            widths: [0; 5],
            ctx,
        }
    }

    /// The next field: `bits` wide in a block, `bytes` wide in v1/v2.
    fn field(&mut self, bits: u32, bytes: usize) -> Result<u64, StorageError> {
        if self.packed {
            let mut r = self.block.reader_at(self.pos);
            let v = r.read_bits(bits)?;
            self.pos = r.pos();
            return Ok(v);
        }
        let mut le = [0u8; 8];
        let field = le.get_mut(..bytes).unwrap_or_default();
        self.r.read_exact(field)?;
        Ok(u64::from_le_bytes(le))
    }

    /// The next value of per-block column `col`; in v1/v2 column 0
    /// (ids, start times) is 8 bytes and every other one a `u32`.
    fn col(&mut self, col: usize) -> Result<u64, StorageError> {
        let (base, bytes) = if col == 0 { (self.base, 8) } else { (0, 4) };
        let width = self.widths.get(col).copied().unwrap_or_default();
        Ok(base.wrapping_add(self.field(width, bytes)?))
    }

    /// The next order-0 Exp-Golomb code (v6).
    fn golomb(&mut self) -> Result<u64, StorageError> {
        let mut r = self.block.reader_at(self.pos);
        let v = golomb::decode_unsigned(&mut r)?;
        self.pos = r.pos();
        Ok(v)
    }

    /// An index into a list of `n` items.
    fn index(&mut self, n: usize, what: &'static str) -> Result<u32, StorageError> {
        below(self.field(index_width(n), 4)?, n, what)
    }

    /// Enters the next block of up to [`CHUNK`] records (v4..v6 only).
    fn begin_block(&mut self) -> Result<(), StorageError> {
        if !self.packed {
            return Ok(());
        }
        let len = read_u32(self.r)? as usize;
        // Through a `take`, so the allocation grows with the bytes that
        // actually arrive, not with a crafted length field.
        let mut bytes = Vec::new();
        self.r.by_ref().take(len as u64).read_to_end(&mut bytes)?;
        let truncated = StorageError::Corrupt("block truncated");
        (self.block, self.pos) = (BitBuf::from_bytes(bytes, len * 8).ok_or(truncated)?, 0);
        self.base = self.field(64, 0)?;
        for &col in self.cols {
            let width = self.field(7, 0)? as u32;
            let limit = COL_LIMITS.get(col).copied().unwrap_or_default();
            if width == 0 || width > limit {
                return Err(StorageError::Corrupt("column width out of range"));
            }
            if let Some(slot) = self.widths.get_mut(col) {
                *slot = width;
            }
        }
        Ok(())
    }

    /// Leaves a fully parsed block: only the zero padding of its last
    /// byte may be left.
    fn end_block(&mut self) -> Result<(), StorageError> {
        let left = self.block.len_bits().saturating_sub(self.pos);
        if self.packed && (left >= 8 || self.field(left as u32, 0)? != 0) {
            return Err(StorageError::Corrupt("bits left over in block"));
        }
        Ok(())
    }

    /// Consumes the resume fields a region tuple carried before v5
    /// (vertex, entry index, stream position) with the checks they
    /// always had (`vertex_below`: the vertex count, where the vertex was
    /// range-checked); nothing reads the values, so they are dropped.
    fn skip_resume(
        &mut self,
        vertex_below: Option<usize>,
        what: &'static str,
    ) -> Result<(), StorageError> {
        let vertex = self.field(self.ctx.vertex, 4)?;
        if let Some(n_vertices) = vertex_below {
            below(vertex, n_vertices, what)?;
        }
        self.col(ENTRY)?;
        self.col(POS)?;
        Ok(())
    }

    /// The next stream. Every stream delimits itself: `walk` reads it
    /// from its first bit to its end, and the stored length must agree.
    fn stream(
        &mut self,
        walk: impl FnOnce(&mut BitReader<'_>) -> Result<(), CodecError>,
    ) -> Result<BitBuf, StorageError> {
        let disagrees = StorageError::Corrupt("stream length vs its codes");
        if !self.packed {
            let stream = read_bits(self.r)?;
            let mut r = stream.reader();
            walk(&mut r)?;
            if r.pos() != stream.len_bits() {
                return Err(disagrees);
            }
            return Ok(stream);
        }
        let stored = self.col(LEN)?;
        let mut r = self.block.reader_at(self.pos);
        walk(&mut r)?;
        if stored != r.pos().saturating_sub(self.pos) as u64 {
            return Err(disagrees);
        }
        // Fails, before allocating, on a length past the block's end.
        let mut r = self.block.reader_at(self.pos);
        let stream = r.read_buf(stored as usize)?;
        self.pos = r.pos();
        Ok(stream)
    }

    /// A reference of a trajectory of `n_times` samples: `n_entries`
    /// edge entries, the `n_entries − 2` trimmed time flags and one
    /// distance code per sample, so its stream lengths are arithmetic.
    fn read_ref(&mut self, n_times: usize) -> Result<CompressedRef, StorageError> {
        let orig_idx = self.col(INST)? as u32;
        let sv = VertexId(self.field(self.ctx.vertex, 4)? as u32);
        let n_entries = self.col(ENTRIES)?;
        if n_entries < 2 {
            return Err(StorageError::Corrupt(
                "reference with fewer than two entries",
            ));
        }
        let (w_e, w_d, n) = (self.ctx.w_e, self.ctx.w_d, n_entries as usize);
        let skip = |len: usize| {
            move |r: &mut BitReader<'_>| {
                r.seek(r.pos() + len);
                Ok(())
            }
        };
        let e_bits = self.stream(skip(n * w_e))?;
        let tflag_bits = self.stream(skip(n - 2))?;
        let d_bits = self.stream(skip(n_times * w_d))?;
        Ok(CompressedRef {
            orig_idx,
            sv,
            n_entries: n_entries as u32,
            e_bits,
            tflag_bits,
            d_bits,
            p_code: self.field(self.ctx.p_code, 8)?,
        })
    }

    /// A non-reference of a trajectory of `n_times` samples whose
    /// references are `refs`: each factor stream is walked knowing only
    /// counts of its reference, never its content.
    fn read_nref(
        &mut self,
        refs: &[CompressedRef],
        n_times: usize,
    ) -> Result<CompressedNonRef, StorageError> {
        let orig_idx = self.col(INST)? as u32;
        let ref_idx = self.index(refs.len(), "non-reference points past refs")?;
        let ref_entries = refs
            .get(ref_idx as usize)
            .map_or(0, |r| r.n_entries as usize);
        let (w_e, w_d) = (self.ctx.w_e as u32, self.ctx.w_d as u32);
        let mut n_entries = 0;
        let e_com =
            self.stream(|r| factor::walk_e(r, ref_entries, w_e, |_, _| ()).map(|n| n_entries = n))?;
        let flags = |n: usize| n.saturating_sub(2);
        let (ref_flags, flags) = (flags(ref_entries), flags(n_entries));
        let t_com =
            self.stream(|r| factor::walk_t(r, ref_flags, flags, drop, |_, _| ()).map(drop))?;
        let d_com = self.stream(|r| factor::walk_d(r, n_times, w_d, drop))?;
        Ok(CompressedNonRef {
            orig_idx,
            ref_idx,
            e_com,
            t_com,
            d_com,
            p_code: self.field(self.ctx.p_code, 8)?,
        })
    }
}

/// Reads `n_trajs` trajectory records into `cds`, each in the order
/// compression emits its instances (references, then non-references,
/// each ascending in `orig_idx`), the only order v7 can hold.
fn read_trajs<R: Read>(
    src: &mut Source<'_, R>,
    n_trajs: usize,
    cds: &mut CompressedDataset,
) -> Result<(), StorageError> {
    let ts = cds.params.default_interval;
    while cds.trajectories.len() < n_trajs {
        src.begin_block()?;
        for _ in 0..CHUNK.min(n_trajs - cds.trajectories.len()) {
            let id = src.col(ID)?;
            let n_times = src.col(TIMES)? as u32;
            let t_bits = src.stream(|r| siar::walk(r, n_times as usize, ts, |_, _, _| ()))?;
            let mut refs = Vec::new();
            for _ in 0..src.col(INST)? {
                refs.push(src.read_ref(n_times as usize)?);
            }
            let mut nrefs = Vec::new();
            for _ in 0..src.col(INST)? {
                nrefs.push(src.read_nref(&refs, n_times as usize)?);
            }
            if !refs.is_sorted_by_key(|r| r.orig_idx) || !nrefs.is_sorted_by_key(|n| n.orig_idx) {
                return Err(StorageError::Corrupt("instances out of order"));
            }
            let ct = CompressedTrajectory {
                id,
                n_times,
                t_bits,
                refs,
                nrefs,
            };
            // The plan permutation check.
            cds.trajectories.push(&ct)?;
        }
        src.end_block()?;
    }
    Ok(())
}

/// Reads one index node per trajectory of `cds` into `stiu`: the stored
/// temporal tuples, which must be the ones the time stream derives, and
/// the region tuples, which [`Stiu::push_tuples`] appends and checks.
fn read_nodes<R: Read>(
    src: &mut Source<'_, R>,
    net: &RoadNetwork,
    cds: &CompressedDataset,
    stiu: &mut Stiu,
) -> Result<(), StorageError> {
    let (n_cells, n_vertices) = (stiu.grid.cell_count(), net.vertex_count());
    let ts = cds.params.default_interval;
    let (resume, coded) = (src.version < VERSION_V5, src.version >= VERSION_V6);
    let (mut stored, mut derived) = (Vec::new(), Vec::new());
    let (mut refs, mut nrefs) = (Vec::new(), Vec::new());
    let mut cts = cds.trajectories.iter().peekable();
    while cts.peek().is_some() {
        src.begin_block()?;
        for ct in cts.by_ref().take(CHUNK) {
            // A crafted count cannot grow a list past the content
            // actually present: each tuple read consumes input.
            stored.clear();
            for _ in 0..src.col(COUNT)? {
                let start = src.col(START)? as i64;
                stored.push((start, src.col(NO)? as u32, src.col(POS)? as u32));
            }
            refs.clear();
            nrefs.clear();
            if coded {
                read_coded_regions(src, &ct, n_cells, &mut refs, &mut nrefs)?;
            } else {
                for _ in 0..src.col(COUNT)? {
                    let what = "ref tuple out of range";
                    let cell = below(src.field(src.ctx.cell, 4)?, n_cells, what)?;
                    let ref_idx = src.index(ct.ref_count(), what)?;
                    let enters = src.field(1, 1)? != 0;
                    // v4 has the resume fields after a set bit only.
                    if resume && (enters || !src.packed) {
                        src.skip_resume(enters.then_some(n_vertices), what)?;
                    }
                    // v2 stores the bounds, which a query derives.
                    if !src.packed {
                        let bounds = [read_f64(src.r)?, read_f64(src.r)?];
                        if !bounds.iter().all(|p| p.is_finite()) {
                            return Err(StorageError::Corrupt("non-finite probability bound"));
                        }
                    }
                    refs.push((ref_idx, CellId(cell), enters));
                }
                for _ in 0..src.col(COUNT)? {
                    let what = "nref tuple out of range";
                    let cell = CellId(below(src.field(src.ctx.cell, 4)?, n_cells, what)?);
                    nrefs.push((src.index(ct.nrefs().len(), what)?, cell));
                    if resume {
                        src.skip_resume(Some(n_vertices), what)?;
                    }
                }
            }
            stiu.push_tuples(&ct, ts, &refs, &mut nrefs)?;
            temporal_tuples(&ct, ts, stiu.params.partition_s, &mut derived)?;
            if derived != stored {
                return Err(StorageError::Corrupt("temporal tuples vs time stream"));
            }
        }
        src.end_block()?;
    }
    Ok(())
}

/// The temporal tuples `(t.start, t.no, t.pos)` a v2 to v6 node stores
/// for `ct`, into `out`: per interval of `partition_s` that holds a
/// sample, the first sample there, its index, and where the next
/// deviation code starts in `T` (its end after the last sample).
fn temporal_tuples(
    ct: &TrajView<'_>,
    ts: i64,
    partition_s: i64,
    out: &mut Vec<(i64, u32, u32)>,
) -> Result<(), CodecError> {
    out.clear();
    let mut last = None;
    let push = |no: usize, start: i64, pos: usize| {
        let interval = Some(start.div_euclid(partition_s));
        if interval != last {
            last = interval;
            out.push((start, no as u32, pos as u32));
        }
    };
    siar::walk(&mut ct.t_bits().reader(), ct.n_times as usize, ts, push)
}

/// The region half of a v6 node as tuple lists: per reference of `ct`,
/// its group's cell count, first cell and further cells as ascending
/// gaps, then one `enters` bit per cell; per non-reference, one
/// membership bit per cell of its group. Each cell and each bit costs
/// at least one bit read, so a crafted count fails on the block's end
/// before it grows a list far.
fn read_coded_regions<R: Read>(
    src: &mut Source<'_, R>,
    ct: &TrajView<'_>,
    n_cells: usize,
    refs: &mut Vec<(u32, CellId, bool)>,
    nrefs: &mut Vec<(u32, CellId)>,
) -> Result<(), StorageError> {
    // Where each group's tuples start in `refs`, and where the last ends.
    let mut groups = vec![0];
    for ref_idx in (0..).take(ct.ref_count()) {
        let count = src.golomb()?;
        if count > n_cells as u64 {
            return Err(StorageError::Corrupt("region count past the grid"));
        }
        let first = refs.len();
        let mut prev = None;
        for _ in 0..count {
            let cell = match prev {
                Some(prev) => {
                    let cell = u64::from(prev).saturating_add(1 + src.golomb()?);
                    below(cell, n_cells, "region gap past the last cell")?
                }
                None => below(
                    src.field(src.ctx.cell, 0)?,
                    n_cells,
                    "ref tuple out of range",
                )?,
            };
            refs.push((ref_idx, CellId(cell), false));
            prev = Some(cell);
        }
        for tuple in refs.get_mut(first..).unwrap_or_default() {
            tuple.2 = src.field(1, 0)? != 0;
        }
        groups.push(refs.len());
    }
    for (m, n) in (0..).zip(ct.nrefs()) {
        let r = n.ref_idx as usize;
        let group = groups.get(r).zip(groups.get(r + 1));
        let (from, to) = group.ok_or(StorageError::Corrupt("non-reference points past refs"))?;
        for &(_, cell, _) in refs.get(*from..*to).unwrap_or_default() {
            if src.field(1, 0)? != 0 {
                nrefs.push((m, cell));
            }
        }
    }
    Ok(())
}

/// Reads a dataset section (the head every version shares, then the
/// records in the framing of `version`); `net` is the embedded network
/// of a self-contained one.
fn read_dataset(
    r: &mut impl Read,
    version: u8,
    net: Option<&RoadNetwork>,
) -> Result<CompressedDataset, StorageError> {
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
    // v1 stores no network: its start vertices are packed at full width
    // until a network is given and the store writes them as v8.
    let n_vertices = net.map_or(1 << 32, RoadNetwork::vertex_count);
    let mut cds = CompressedDataset {
        name,
        params,
        w_e,
        trajectories: Trajectories::new(segment::CtxWidths::new(n_vertices, &params, w_e)),
        compressed,
        raw,
    };
    let ctx = CtxWidths::new(net, &cds, 0);
    read_trajs(
        &mut Source::new(r, version, DATASET_COLS, ctx),
        n_trajs,
        &mut cds,
    )?;
    Ok(cds)
}

/// v2 stores the interval postings after the nodes, keys ascending:
/// they must be the ones just derived from the nodes, so a truncated or
/// edited posting section still fails.
fn check_v2_postings(r: &mut impl Read, stiu: &Stiu) -> Result<(), StorageError> {
    let keys = stiu.intervals();
    let mut same = read_u64(r)? == keys.len() as u64;
    for k in keys {
        // Interval `k`'s first second, or `i64::MIN` inside interval `k`
        // when that second is before it.
        let derived = stiu.trajs_in_interval(k.saturating_mul(stiu.params.partition_s));
        same = same && read_i64(r)? == k && read_u32(r)? as usize == derived.len();
        for j in derived {
            same = same && read_u32(r)? == j;
        }
    }
    if !same {
        return Err(StorageError::Corrupt("interval postings vs nodes"));
    }
    Ok(())
}

/// Reads a v2, v4, v5, v6 or v7 container past its magic and version
/// byte. A v7 body is a v8 body, which core's reader reads.
pub(crate) fn read_self_contained(r: &mut impl Read, version: u8) -> Result<Parts, StorageError> {
    let net = read_network(r)?;
    if version == VERSION_V7 {
        let (cds, stiu) = storage::read_body(r, &net)?;
        return Ok((net, cds, stiu));
    }
    let cds = read_dataset(r, version, Some(&net))?;
    let params = StiuParams {
        partition_s: read_i64(r)?,
        grid_n: read_u32(r)?,
    };
    let mut stiu = Stiu::new(&net, params)?;
    // v2 states its node count before the nodes.
    if version == VERSION_V2 && read_u64(r)? != cds.trajectories.len() as u64 {
        return Err(StorageError::Corrupt("index/dataset trajectory counts"));
    }
    let ctx = CtxWidths::new(Some(&net), &cds, stiu.grid.cell_count());
    let cols = match version {
        VERSION_V4 => INDEX_COLS_V4,
        _ => INDEX_COLS_V5,
    };
    read_nodes(
        &mut Source::new(r, version, cols, ctx),
        &net,
        &cds,
        &mut stiu,
    )?;
    if version == VERSION_V2 {
        check_v2_postings(r, &stiu)?;
    }
    if net.max_out_degree() > 0 && edge_number_width(net.max_out_degree()) != cds.w_e {
        return Err(StorageError::Corrupt("edge width vs embedded network"));
    }
    Ok((net, cds, stiu))
}

/// Reads a v1 container past its magic and version byte, on `net` (v1
/// stores none), and rebuilds its index with `params` from the
/// decompressed trajectories: per reference the ascending union of its
/// members' cells, each marked if the reference enters it, per
/// non-reference the cells it enters.
pub(crate) fn read_v1(
    r: &mut impl Read,
    net: RoadNetwork,
    params: StiuParams,
) -> Result<Parts, Error> {
    let cds = read_dataset(r, VERSION_V1, None)?;
    // v1 stored no network: what it holds of one is checked against the
    // network supplied for it, its edge numbers as they are decoded.
    let mismatch = |check, detail| Error::NetworkMismatch { check, detail };
    let w_e = edge_number_width(net.max_out_degree());
    if cds.w_e != w_e {
        let detail = format!("{} bits in the container, {w_e} for the network", cds.w_e);
        return Err(mismatch("edge-number width", detail));
    }
    let n_vertices = net.vertex_count() as u32;
    let past = |ct: TrajView<'_>| ct.refs().find(|r| r.sv.0 >= n_vertices);
    if let Some(r) = cds.trajectories.iter().find_map(past) {
        let detail = format!("vertex {} past the network's {n_vertices}", r.sv.0);
        return Err(mismatch("start vertex", detail));
    }
    let ds = decompress_dataset(&net, &cds).map_err(|e| match e {
        DecompressError::View(e @ TedViewError::BadEdgeNumber { .. }) => {
            mismatch("edge number", e.to_string())
        }
        e => e.into(),
    })?;
    let mut stiu = Stiu::new(&net, params)?;
    let edges = EdgeCells::new(&net, &stiu.grid);
    let (mut refs, mut nrefs) = (Vec::new(), Vec::new());
    for (tu, ct) in ds.trajectories.iter().zip(cds.trajectories.iter()) {
        let cells = |orig_idx: u32| match tu.instances.get(orig_idx as usize) {
            Some(inst) if !inst.path.is_empty() && !inst.positions.is_empty() => {
                Ok(region_cells(&net, inst, &stiu.grid, &edges))
            }
            _ => Err(StorageError::Corrupt("instance with no sample")),
        };
        refs.clear();
        nrefs.clear();
        for (ref_idx, cref) in (0..).zip(ct.refs()) {
            let own = cells(cref.orig_idx)?;
            let mut group = own.clone();
            for (m, n) in (0..).zip(ct.nrefs()).filter(|(_, n)| n.ref_idx == ref_idx) {
                let member = cells(n.orig_idx)?;
                nrefs.extend(member.iter().map(|&cell| (m, cell)));
                group.extend(member);
            }
            group.sort_unstable();
            group.dedup();
            refs.extend(group.iter().map(|&c| (ref_idx, c, own.contains(&c))));
        }
        nrefs.sort_by_key(|t| t.0);
        stiu.push_tuples(&ct, cds.params.default_interval, &refs, &mut nrefs)?;
    }
    Ok((net, cds, stiu))
}

/// Reads a v3 container past its magic and version byte: its directory
/// as a v8 head, and each shard's blob, a v2 or v4 to v7 container.
pub(crate) fn read_v3(r: &mut &[u8]) -> Result<(Head, Vec<Parts>), StorageError> {
    let kind = read_u8(r)?;
    if kind > ROUTING_REGION {
        return Err(StorageError::Corrupt("unknown shard policy kind"));
    }
    let (param, parts) = (read_i64(r)?, read_u32(r)?);
    if parts == 0 || parts > (1 << 16) {
        return Err(StorageError::Corrupt("shard count out of range"));
    }
    let mut blobs = Vec::new();
    for _ in 0..parts {
        let len = read_u64(r)?;
        if !(5..=(1u64 << 40)).contains(&len) {
            return Err(StorageError::Corrupt("shard blob length out of range"));
        }
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let truncated = StorageError::Corrupt("shard blob truncated");
        let (blob, rest) = r.split_at_checked(len).ok_or(truncated)?;
        *r = rest;
        let mut body = blob;
        let parsed = match read_header(&mut body)? {
            version @ (VERSION_V2 | VERSION_V4..=VERSION_V7) => {
                read_self_contained(&mut body, version)?
            }
            _ => {
                let what = "shard blob is not a self-contained container";
                return Err(StorageError::Corrupt(what));
            }
        };
        blobs.push(parsed);
    }
    Ok((Head { kind, param, parts }, blobs))
}

/// Reads the network section of containers v2 and v4 to v7 (all
/// little-endian):
///
/// ```text
/// u32 vertex_count (V)   u32 edge_count (E)
/// V × (f64 x, f64 y)     vertex coordinates
/// (V+1) × u32            CSR out-edge offsets (offsets[0] = 0, offsets[V] = E)
/// E × u32                edge target vertices
/// E × f64                edge lengths in meters
/// ```
///
/// Every table grows as its bytes arrive, so a crafted count allocates
/// nothing the file does not hold. Any fault, a cut included, is a
/// corrupt network.
pub fn read_network(r: &mut impl Read) -> Result<RoadNetwork, StorageError> {
    read_network_fields(r).ok_or(StorageError::Corrupt("embedded network"))
}

fn read_network_fields(r: &mut impl Read) -> Option<RoadNetwork> {
    let v = read_u32(r).ok()? as usize;
    let e = read_u32(r).ok()? as usize;
    if v > (1 << 28) || e > (1 << 29) {
        return None;
    }
    let mut b = NetworkBuilder::new();
    for _ in 0..v {
        let (x, y) = (read_f64(r).ok()?, read_f64(r).ok()?);
        if !x.is_finite() || !y.is_finite() {
            return None;
        }
        b.add_vertex(x, y);
    }
    let mut offsets = Vec::new();
    for _ in 0..=v {
        offsets.push(read_u32(r).ok()?);
    }
    // bounds: windows(2) yields exactly-2-element slices
    let monotonic = offsets.windows(2).all(|w| w[0] <= w[1]);
    if offsets.first() != Some(&0) || offsets.last() != Some(&(e as u32)) || !monotonic {
        return None;
    }
    let mut targets = Vec::new();
    for _ in 0..e {
        let t = read_u32(r).ok()?;
        targets.push(VertexId(below(t.into(), v, "").ok()?));
    }
    let mut edges = Vec::new();
    for to in targets {
        let l = read_f64(r).ok()?;
        if !l.is_finite() || l < 0.0 {
            return None;
        }
        edges.push((to, l));
    }
    let mut edges = edges.into_iter();
    for (from, o) in (0..).zip(offsets.windows(2)) {
        // bounds: windows(2) yields exactly-2-element slices
        for (to, l) in edges.by_ref().take((o[1] - o[0]) as usize) {
            b.add_edge_with_length(VertexId(from), to, l);
        }
    }
    Some(b.build())
}

/// Writes `net` as [`read_network`] reads it. No store writes it; the
/// tests make older containers with it.
pub fn write_network(net: &RoadNetwork, w: &mut impl Write) -> io::Result<()> {
    w.write_all(&(net.vertex_count() as u32).to_le_bytes())?;
    w.write_all(&(net.edge_count() as u32).to_le_bytes())?;
    for v in net.vertices() {
        let p = net.coord(v);
        w.write_all(&p.x.to_le_bytes())?;
        w.write_all(&p.y.to_le_bytes())?;
    }
    let mut offset = 0u32;
    w.write_all(&offset.to_le_bytes())?;
    for v in net.vertices() {
        offset += net.out_degree(v);
        w.write_all(&offset.to_le_bytes())?;
    }
    for e in net.edges() {
        w.write_all(&net.edge_to(e).0.to_le_bytes())?;
    }
    for e in net.edges() {
        w.write_all(&net.edge_length(e).to_le_bytes())?;
    }
    Ok(())
}

/// Writes a v7 container of one store: this crate's network section,
/// then core's body. No store writes v7; this makes v7 files for the
/// tests that migrate them.
pub fn save_v7(
    net: &RoadNetwork,
    cds: &CompressedDataset,
    stiu: &Stiu,
    w: &mut impl Write,
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION_V7])?;
    write_network(net, w)?;
    storage::write_body(net, cds, stiu, w).map(drop)
}

/// Reads the magic and version byte of a container.
pub(crate) fn read_header(r: &mut impl Read) -> Result<u8, StorageError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(StorageError::BadHeader);
    }
    Ok(read_u8(r)?)
}

/// Writes `cds` as a v1 container: the dataset head and records in
/// fixed-width fields, no network, no index. No store writes v1; this
/// makes v1 files of any dataset for the tests that migrate them.
pub fn save_v1(cds: &CompressedDataset, w: &mut impl Write) -> io::Result<()> {
    let u32s = |w: &mut dyn Write, v: u32| w.write_all(&v.to_le_bytes());
    let u64s = |w: &mut dyn Write, v: u64| w.write_all(&v.to_le_bytes());
    let bits = |w: &mut dyn Write, b: utcq_bitio::BitSlice<'_>| {
        u32s(w, b.len_bits() as u32)?;
        w.write_all(b.to_buf().as_bytes())
    };
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION_V1])?;
    w.write_all(&cds.params.eta_d.to_le_bytes())?;
    w.write_all(&cds.params.eta_p.to_le_bytes())?;
    u32s(w, cds.params.n_pivots as u32)?;
    u64s(w, cds.params.default_interval as u64)?;
    u32s(w, cds.w_e)?;
    u32s(w, cds.name.len() as u32)?;
    w.write_all(cds.name.as_bytes())?;
    for s in [&cds.compressed, &cds.raw] {
        for v in [s.t, s.e, s.d, s.tflag, s.p, s.sv] {
            u64s(w, v)?;
        }
    }
    u64s(w, cds.trajectories.len() as u64)?;
    for ct in &cds.trajectories {
        u64s(w, ct.id)?;
        u32s(w, ct.n_times)?;
        bits(w, ct.t_bits())?;
        u32s(w, ct.ref_count() as u32)?;
        for (i, r) in ct.refs().enumerate() {
            for v in [r.orig_idx, r.sv.0, r.n_entries] {
                u32s(w, v)?;
            }
            ct.ref_streams(i).into_iter().try_for_each(|b| bits(w, b))?;
            u64s(w, r.p_code)?;
        }
        u32s(w, ct.nrefs().len() as u32)?;
        for (i, n) in ct.nrefs().enumerate() {
            u32s(w, n.orig_idx)?;
            u32s(w, n.ref_idx)?;
            ct.nref_streams(i)
                .into_iter()
                .try_for_each(|b| bits(w, b))?;
            u64s(w, n.p_code)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcq_core::compress_dataset;

    fn sample() -> (RoadNetwork, CompressedDataset) {
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 15, 31);
        let params = CompressParams::with_interval(ds.default_interval);
        let cds = compress_dataset(&net, &ds, &params).unwrap();
        (net, cds)
    }

    fn v1_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        save_v1(&sample().1, &mut bytes).unwrap();
        bytes
    }

    /// Reads a whole v1 container on `net`.
    fn read(bytes: &[u8], net: RoadNetwork) -> Result<Parts, Error> {
        let mut r = bytes;
        match read_header(&mut r)? {
            VERSION_V1 => read_v1(&mut r, net, StiuParams::default()),
            _ => Err(StorageError::BadHeader.into()),
        }
    }

    #[test]
    fn roundtrip_through_bytes() {
        let (net, cds) = sample();
        let (_, loaded, _) = read(&v1_bytes(), net.clone()).unwrap();
        assert_eq!((&loaded.name, loaded.w_e), (&cds.name, cds.w_e));
        assert_eq!((loaded.compressed, loaded.raw), (cds.compressed, cds.raw));
        // Decompressing the loaded container matches decompressing the
        // original.
        let a = decompress_dataset(&net, &cds).unwrap();
        let b = decompress_dataset(&net, &loaded).unwrap();
        assert_eq!(a.trajectories, b.trajectories);
    }

    #[test]
    fn v1_truncation_is_refused() {
        let (net, bytes) = (sample().0, v1_bytes());
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(read(&bytes[..cut], net.clone()).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn v1_bitflips_do_not_panic() {
        // Flip a sample of bits across the container; the reader must
        // return Ok or Err, never panic.
        let (net, bytes) = (sample().0, v1_bytes());
        for i in (0..bytes.len()).step_by(37) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            let _ = read(&corrupt, net.clone());
        }
    }
}
