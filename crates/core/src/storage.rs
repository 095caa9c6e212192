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
//! A dataset block and an in-memory segment ([`crate::segment`]) cover
//! the same [`CHUNK`] records, and a sealed segment holds its block's
//! bytes: the writer copies them (and packs the tail once, as it will
//! seal), the reader keeps them and walks them once to check them and
//! find where each record and instance starts. An index block's region
//! cells and membership bits go to the index tables node by node, and
//! the writer packs them from borrowed views.

use std::io::{self, Read, Write};

use utcq_bitio::{golomb, BitReader, BitSlice, BitWriter, CodecError};
use utcq_network::{CellId, RoadNetwork};
use utcq_traj::size::SizeBreakdown;

use crate::compress::CompressedDataset;
use crate::error::Error;
use crate::params::CompressParams;
use crate::segment::{index_width, CtxWidths, TrajView, Trajectories, CHUNK};
use crate::stiu::{time_span, NodeSegment, Stiu, StiuParams, TrajIndex};

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

/// The head and block framing's slot of `Sections::framing`.
const BLOCKS: usize = 4;

/// The bytes of the next block, after its `u32` length.
fn read_block(r: &mut impl Read) -> Result<Vec<u8>, StorageError> {
    let len = read_u32(r)? as usize;
    // Through a `take`, so the allocation grows with the bytes that
    // actually arrive, not with a crafted length field.
    let mut bytes = Vec::new();
    r.take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() != len {
        return Err(StorageError::Corrupt("block truncated"));
    }
    Ok(bytes)
}

/// `v` as a `u32` below `n`, or the container is corrupt.
#[inline(always)]
fn below(v: u64, n: usize, what: &'static str) -> Result<u32, StorageError> {
    if v >= n as u64 {
        return Err(StorageError::Corrupt(what));
    }
    Ok(v as u32)
}

/// Reads one index node per trajectory of `cds` into `stiu`, node by
/// node, deriving each node's time span (its postings and temporal tuple
/// count) from its time stream. Only the zero padding of its last byte
/// may follow a block's last node.
fn read_nodes(
    r: &mut impl Read,
    cds: &CompressedDataset,
    stiu: &mut Stiu,
) -> Result<(), StorageError> {
    let n_cells = stiu.grid.cell_count();
    let (ts, partition_s) = (cds.params.default_interval, stiu.params.partition_s);
    // The cell count of each group of the open node.
    let mut groups = Vec::new();
    let mut cts = cds.trajectories.iter().peekable();
    while cts.peek().is_some() {
        let bytes = read_block(r)?;
        let block = BitSlice::from_bytes(&bytes, bytes.len() * 8).unwrap_or_default();
        let mut src = block.reader();
        for ct in cts.by_ref().take(CHUNK) {
            // A crafted count cannot grow a table past the content
            // actually present: each tuple read consumes input.
            stiu.append_node(|node, _| {
                let times = time_span(ct.t_bits(), ct.n_times, ts, partition_s)?;
                read_coded_regions(&mut src, node, &ct, n_cells, &mut groups)?;
                Ok::<_, StorageError>(times)
            })?;
        }
        let left = src.remaining();
        if left >= 8 || src.read_bits(left as u32)? != 0 {
            return Err(StorageError::Corrupt("bits left over in block"));
        }
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
fn read_coded_regions(
    src: &mut BitReader<'_>,
    node: &mut NodeSegment,
    ct: &TrajView<'_>,
    n_cells: usize,
    groups: &mut Vec<u64>,
) -> Result<(), StorageError> {
    groups.clear();
    for _ in 0..ct.ref_count() {
        let count = golomb::decode_unsigned(src)?;
        if count > n_cells as u64 {
            return Err(StorageError::Corrupt("region count past the grid"));
        }
        let first = node.open_group();
        let mut prev = None;
        for _ in 0..count {
            let cell = match prev {
                Some(prev) => {
                    let gap = golomb::decode_unsigned(src)?;
                    let cell = u64::from(prev).saturating_add(1 + gap);
                    below(cell, n_cells, "region gap past the last cell")?
                }
                None => {
                    let cell = src.read_bits(index_width(n_cells))?;
                    below(cell, n_cells, "ref tuple out of range")?
                }
            };
            node.push_cell(CellId(cell), false)?;
            prev = Some(cell);
        }
        for row in first..first + count as usize {
            if src.read_bit()? {
                node.enter(row);
            }
        }
        groups.push(count);
    }
    for owner in ct.nref_owners() {
        let count = groups.get(owner as usize);
        let count = count.ok_or(StorageError::Corrupt("non-reference points past refs"))?;
        for _ in 0..*count {
            node.push_bit(src.read_bit()?);
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

/// One index block under construction, and the width of a grid cell.
#[derive(Default)]
struct Packer {
    cell: u32,
    bits: BitWriter,
}

impl Packer {
    /// A value of `width` bits.
    #[inline(always)]
    fn field(&mut self, v: u64, width: u32) -> io::Result<()> {
        self.bits.write_bits(v, width).map_err(invalid_data)
    }

    /// A value as an order-0 Exp-Golomb code.
    #[inline(always)]
    fn golomb(&mut self, v: u64) -> io::Result<()> {
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
}

fn invalid_data(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Writes one block: its `u32` byte length and its bytes. Returns the
/// bits written.
fn write_block(bytes: &[u8], out: &mut impl Write) -> io::Result<u64> {
    let len = u32::try_from(bytes.len()).map_err(|_| invalid_data("block over 4 GiB"))?;
    write_u32(out, len)?;
    out.write_all(bytes)?;
    Ok((4 + u64::from(len)) * 8)
}

/// Writes the dataset's records, one block per segment: a sealed
/// segment's bytes as they are, the tail (or a segment packed with other
/// context widths than the container's, `ctx`) repacked as the block it
/// seals into. Returns the bits written, those of streams alone, and
/// per framing field, counted from each block's widths and counts.
fn write_trajs(
    cds: &CompressedDataset,
    ctx: CtxWidths,
    out: &mut impl Write,
) -> io::Result<(u64, u64, [u64; 8])> {
    let (mut bits, mut payload, mut tally) = (0, 0, [0; 8]);
    for seg in cds.trajectories.segments() {
        let packed = seg.resealed(ctx).map_err(invalid_data)?;
        let block = packed.as_ref().unwrap_or(seg);
        bits += write_block(block.as_bytes(), out)?;
        let (fields, streams) = block.framing_bits();
        payload += streams;
        tally.iter_mut().zip(fields).for_each(|(sum, f)| *sum += f);
    }
    Ok((bits, payload, tally))
}

/// Writes the index's nodes as blocks of [`CHUNK`]: per block the `u32`
/// byte length, the records (`pack` writes one), zero padding to a byte.
/// Returns the bits written.
fn write_nodes<T>(
    cell: u32,
    n: usize,
    record: impl Fn(usize) -> Option<T>,
    mut pack: impl FnMut(&mut Packer, &T) -> io::Result<()>,
    out: &mut impl Write,
) -> io::Result<u64> {
    let mut bits = 0;
    for first in (0..n).step_by(CHUNK) {
        let mut p = Packer {
            cell,
            ..Packer::default()
        };
        for i in first..n.min(first + CHUNK) {
            let missing = || io::Error::new(io::ErrorKind::InvalidInput, "record past the table");
            pack(&mut p, &record(i).ok_or_else(missing)?)?;
        }
        bits += write_block(p.bits.finish().as_bytes(), out)?;
    }
    Ok(bits)
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
                None => p.field(u64::from(cell.0), p.cell)?,
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
    let ctx = CtxWidths::new(net.vertex_count(), &cds.params, cds.w_e);
    let (dataset, payload, mut framing) = write_trajs(cds, ctx, w)?;
    write_i64(w, stiu.params.partition_s)?;
    write_u32(w, stiu.params.grid_n)?;
    let node = |i| stiu.trajs.get(i).zip(cds.trajectories.get(i));
    let mut tuples = (0, 0, Vec::new());
    let pack = |p: &mut Packer, pair: &_| pack_node(p, pair, &mut tuples);
    let cell = index_width(stiu.grid.cell_count());
    let index = write_nodes(cell, n, node, pack, w)?;
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
    let ctx = CtxWidths::new(net.vertex_count(), &params, w_e);
    let mut trajectories = Trajectories::new(ctx);
    while trajectories.len() < n_trajs {
        let n = CHUNK.min(n_trajs - trajectories.len());
        trajectories.push_block(read_block(r)?, n, default_interval)?;
    }
    Ok(CompressedDataset {
        name,
        params,
        w_e,
        trajectories,
        compressed,
        raw,
    })
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
    read_nodes(r, &cds, &mut stiu)?;
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
    fn a_sealed_segment_is_its_block() {
        // Saving copies each sealed segment's bytes as its block, and
        // opening keeps a block's bytes as its segment; only the tail is
        // packed on the way out.
        let (net, cds, stiu) = cd_sample();
        let mut body = Vec::new();
        write_body(net, cds, stiu, &mut body).unwrap();
        let head = write_dataset_head(cds, &mut io::sink()).unwrap() as usize;
        let mut blocks = &body[head..];
        let (reopened, _) = read_body(&mut body.as_slice(), net).unwrap();
        let ctx = CtxWidths::new(net.vertex_count(), &cds.params, cds.w_e);
        let built = cds.trajectories.segments();
        let pairs = Vec::from_iter(built.zip(reopened.trajectories.segments()));
        assert_eq!(pairs.len(), 2, "a sealed segment and the tail");
        for (k, (seg, again)) in pairs.into_iter().enumerate() {
            let block = read_block(&mut blocks).unwrap();
            let packed = seg.resealed(ctx).unwrap();
            assert_eq!(packed.is_some(), k == 1, "only the tail is packed");
            assert_eq!(packed.as_ref().unwrap_or(seg).as_bytes(), block);
            if k == 0 {
                assert_eq!(again.as_bytes(), block, "opened: the block's bytes");
            }
        }
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
        let mut nodes = crate::stiu::Nodes::new(());
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
