//! The in-memory form of a store: flat, append-only segments of
//! [`CHUNK`] trajectories behind `Arc`s (`docs/ARCHITECTURE.md` draws
//! them). A container block on disk and a segment cover the same 1,024
//! records, and the dataset half of a sealed segment ([`TrajSegment`])
//! **is** the block: the bytes a container holds for it, in a constant
//! number of allocations — the block, one row and one id per trajectory
//! and one offset per instance. The index half ([`crate::stiu::NodeSegment`])
//! keeps four tables that no container stores in this form: `ends`,
//! region words, membership bits and the nodes' interval postings (a
//! dataset and its index are separate values, so the halves are separate
//! types sealing at the same counts).
//!
//! **A record** is what container v7 packs (`crate::storage`): the id,
//! the sample count, `T`, the instance count, one role bit per instance
//! in original order, then per reference its start vertex, entry count,
//! `E T' D` and probability code, per non-reference its reference,
//! `Com_E Com_T' Com_D` and probability code. A sealed block opens with
//! a header (the id base and the widths of the four columns: id, sample,
//! instance and entry count); the append tail holds the same records
//! with the four columns at full width and no header, and the seal
//! repacks them once at the widths the header declares. The context
//! fixes the other widths ([`CtxWidths`]) from the first append.
//!
//! Beside the bytes a segment keeps only offsets, derived as each record
//! is appended (or walked once at open): per trajectory where its record
//! and its instance count start, per instance where its fields start.
//! So a query finds any instance's streams without walking a stream: a
//! reference's `E`, `T'` and `D` split by arithmetic, a non-reference's
//! three decode in turn from one reader.
//!
//! Readers never see a segment, only borrowed views of one trajectory
//! ([`TrajView`], [`crate::stiu::TrajIndex`], [`TrajPlan`]): fields read
//! from the block and [`BitSlice`]s of it.
//!
//! [`Segments`] is the directory. Cloning it (what a live publish does
//! to a partition it writes) copies one pointer per segment. Sealed
//! segments are never written again and are shared by every epoch that
//! saw them; the last one is the append tail, which the first append
//! after a clone copies, one `memcpy` per table (reported to
//! [`crate::hooks::copied`]); a tail nothing else holds is appended to
//! in place. The layout is a pure function of the
//! trajectory count, so stores built offline, grown live and read from a
//! container hold the same segments.

use std::sync::Arc;

use utcq_bitio::pddp::PddpCodec;
use utcq_bitio::{width_for_max, BitBuf, BitSlice, BitWriter, CodecError};
use utcq_network::VertexId;

pub use crate::chunk::CHUNK;
use crate::compressed::{self, CompressedTrajectory, DecodedRef};
use crate::error::Error;
use crate::params::CompressParams;
use crate::plan::{Slot, TrajPlan};
use crate::{factor, siar};

/// Heap bytes a store keeps resident (allocated capacity, not just the
/// used length), by part in first-seen order: what `utcq info` prints
/// under "resident".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Resident(pub Vec<(&'static str, usize)>);

impl Resident {
    /// Adds `bytes` to the part named `label`.
    pub(crate) fn add(&mut self, label: &'static str, bytes: usize) {
        match self.0.iter_mut().find(|(part, _)| *part == label) {
            Some((_, sum)) => *sum += bytes,
            None => self.0.push((label, bytes)),
        }
    }

    /// Sum over all parts.
    pub fn total(&self) -> usize {
        self.0.iter().map(|(_, bytes)| bytes).sum()
    }
}

/// Heap bytes behind a table.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes of the allocation behind an `Arc<T>` (two counters + `T`).
pub(crate) fn arc_bytes<T>() -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()
}

/// Copies a table of a shared tail segment: the rows by `memcpy`, and
/// the same spare capacity, so a tail that was copied grows exactly like
/// one that never was. Adds the bytes copied to `copied`.
pub(crate) fn copy_vec<T: Copy>(v: &Vec<T>, copied: &mut usize) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend_from_slice(v);
    *copied += std::mem::size_of_val(v.as_slice());
    out
}

/// What a [`Segments`] directory needs of its segment type.
pub trait Table: Sized {
    /// One trajectory of the segment, borrowed.
    type View<'a>: Copy
    where
        Self: 'a;

    /// What every segment of a directory is made with.
    type Ctx: Copy;

    /// An empty segment.
    fn new(ctx: Self::Ctx) -> Self;

    /// The trajectory at position `k` of this segment.
    fn view(&self, k: usize) -> Option<Self::View<'_>>;

    /// A copy with the same spare capacity, and the bytes it copied.
    fn copy(&self) -> (Self, usize);

    /// Readies a segment that is full for being shared and never
    /// written again: packs it as it will stay.
    fn seal(&mut self) -> Result<(), Error>;

    /// Adds the heap bytes of each table to `census`.
    fn resident(&self, census: &mut Resident);
}

/// An append-only sequence of trajectories in `Arc`'d segments of
/// [`CHUNK`]: all full except the last, the append tail.
pub struct Segments<S: Table> {
    segs: Vec<Arc<S>>,
    len: usize,
    ctx: S::Ctx,
}

/// The trajectories of a compressed dataset.
pub type Trajectories = Segments<TrajSegment>;

impl<S: Table> Clone for Segments<S> {
    /// Clones the directory only: one refcount bump per segment.
    fn clone(&self) -> Self {
        let (segs, len, ctx) = (self.segs.clone(), self.len, self.ctx);
        Self { segs, len, ctx }
    }
}

impl<S: Table> Segments<S> {
    /// An empty directory whose segments are made with `ctx`.
    pub fn new(ctx: S::Ctx) -> Self {
        let (segs, len) = (Vec::new(), 0);
        Self { segs, len, ctx }
    }

    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no trajectory is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trajectory at position `i`, if any.
    pub fn get(&self, i: usize) -> Option<S::View<'_>> {
        self.segs.get(i / CHUNK)?.view(i % CHUNK)
    }

    /// Iterates the trajectories in order.
    pub fn iter(&self) -> Iter<'_, S> {
        Iter { of: self, next: 0 }
    }

    /// The segments in order, the tail last.
    pub fn segments(&self) -> impl Iterator<Item = &S> {
        self.segs.iter().map(|seg| &**seg)
    }

    /// Appends one trajectory: `fill` adds exactly one to the tail
    /// segment. A tail shared with another epoch is copied out first
    /// (the per-publish copy-on-write event); sealed segments are never
    /// touched. After an error the directory must be dropped, not read:
    /// the tail may hold part of the refused trajectory.
    pub(crate) fn append<E: From<Error>>(
        &mut self,
        fill: impl FnOnce(&mut S) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.len.is_multiple_of(CHUNK) {
            self.segs.push(Arc::new(S::new(self.ctx)));
        }
        let Some(tail) = self.segs.last_mut() else {
            return Ok(()); // a tail was just ensured above
        };
        if Arc::get_mut(tail).is_none() {
            let (copy, bytes) = tail.copy();
            crate::hooks::copied(bytes);
            *tail = Arc::new(copy);
        }
        if let Some(seg) = Arc::get_mut(tail) {
            fill(seg)?;
            self.len += 1;
            if self.len.is_multiple_of(CHUNK) {
                seg.seal()?;
            }
        }
        Ok(())
    }

    /// Adds the heap bytes of every segment to `census`, the directory
    /// and the segment headers under "rows and plans".
    pub fn resident(&self, census: &mut Resident) {
        let directory = vec_bytes(&self.segs) + self.segs.len() * arc_bytes::<S>();
        census.add("rows and plans", directory);
        self.segments().for_each(|seg| seg.resident(census));
    }
}

/// Iterator over the trajectories of a [`Segments`].
pub struct Iter<'a, S: Table> {
    of: &'a Segments<S>,
    next: usize,
}

impl<'a, S: Table> Iterator for Iter<'a, S> {
    type Item = S::View<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.of.get(self.next)?;
        self.next += 1;
        Some(item)
    }
}

impl<'a, S: Table> IntoIterator for &'a Segments<S> {
    type Item = S::View<'a>;
    type IntoIter = Iter<'a, S>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<S: Table> std::fmt::Debug for Segments<S>
where
    for<'a> S::View<'a>: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The columns a dataset block header declares, in header order: the
/// id (an offset from the block's base), the sample count, the instance
/// count and a reference's entry count.
const ID: usize = 0;
const TIMES: usize = 1;
const INST: usize = 2;
const ENTRIES: usize = 3;

/// The widest each column may be, and its width in the tail: the id
/// spans 64 bits, every other column is a `u32`.
const COL_LIMITS: [u32; 4] = [64, 32, 32, 32];

/// Bits of a block header: the 64-bit id base and a 7-bit width per
/// column.
const HEADER: usize = 64 + 4 * 7;

/// More instances than this in one trajectory are refused.
const MAX_INSTANCES: u64 = 1 << 31;

/// `width_for_max(n − 1)`: the width of an index into `n` items.
pub(crate) fn index_width(n: usize) -> u32 {
    width_for_max((n as u64).saturating_sub(1))
}

/// The widths of the record fields that a container's context fixes
/// rather than a block header — a start vertex, a probability code — and
/// of an edge entry and a distance code, which size a reference's
/// streams. Every segment of a dataset has the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxWidths {
    /// A start vertex: an index into the network's vertices.
    pub vertex: u32,
    /// A probability code (the `ηp` codec's width).
    pub p_code: u32,
    /// An outgoing-edge number.
    pub w_e: u32,
    /// A distance code (the `ηD` codec's width).
    pub w_d: u32,
}

impl CtxWidths {
    /// The widths of a dataset compressed with `params` and edge numbers
    /// `w_e` bits wide on a network of `n_vertices` vertices.
    pub fn new(n_vertices: usize, params: &CompressParams, w_e: u32) -> Self {
        Self {
            vertex: index_width(n_vertices),
            p_code: params.p_codec().width(),
            w_e,
            w_d: params.d_codec().width(),
        }
    }
}

/// The stored fields of a reference instance; its streams are in the
/// block ([`TrajView::ref_streams`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefRow {
    /// PDDP probability code.
    pub p_code: u64,
    /// Position of this instance in the original instance list.
    pub orig_idx: u32,
    /// Start vertex.
    pub sv: VertexId,
    /// Number of `E` entries.
    pub n_entries: u32,
}

/// The stored fields of a non-reference instance; its streams are in
/// the block ([`TrajView::nref_streams`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NrefRow {
    /// PDDP probability code.
    pub p_code: u64,
    /// Position of this instance in the original instance list.
    pub orig_idx: u32,
    /// Index among [`TrajView::refs`] of the owning reference.
    pub ref_idx: u32,
}

/// The fields before an instance's streams in its record.
enum Lead {
    /// A reference's start vertex and entry count.
    Ref(u64, u64),
    /// A non-reference's reference, one of `n_refs`.
    NRef(u64, usize),
}

/// Where one trajectory's record lies in its segment's block.
#[derive(Debug, Clone, Copy)]
struct TrajRow {
    /// The bit at which the record (its id) starts.
    record: u32,
    /// The bit at which its instance count starts, right after `T`.
    count: u32,
    /// Its first instance in the segment's `inst`.
    first: u32,
}

/// The dataset half of a segment: its records as the container block
/// holds them, and where each record and instance starts.
#[derive(Debug)]
pub struct TrajSegment {
    /// The records, back to back. Sealed, the bytes a container holds
    /// for the block after its length: the header, the records and the
    /// zero padding. The tail holds its records alone, with the four
    /// columns at their [`COL_LIMITS`] widths.
    bits: BitWriter,
    ctx: CtxWidths,
    /// Whether the block opens with its header.
    sealed: bool,
    /// The base the id column is an offset from and the width of each
    /// column: 0 and [`COL_LIMITS`] in the tail, the header's once
    /// sealed.
    base: u64,
    cols: [u32; 4],
    /// Per column the largest value, and the smallest id: what the
    /// header of the block these records seal into declares.
    max: [u64; 4],
    min_id: u64,
    rows: Vec<TrajRow>,
    /// Per trajectory its id, also in its record: a range query resolves
    /// the id of every trajectory posted under its interval, and reading
    /// it from the block cost 3 % of a cold range query's time.
    ids: Vec<u64>,
    /// Per instance, in record order (the references, then the
    /// non-references), the bit at which its fields start.
    inst: Vec<u32>,
}

/// `len` as a `u32` row or bit offset, or the segment is over what its
/// offset tables address.
pub(crate) fn offset(len: usize) -> Result<u32, Error> {
    u32::try_from(len).map_err(|_| Error::CorruptStore("segment past its 32-bit offsets"))
}

/// A field past its width: a tail's columns fit every value of their
/// type, and a block's the largest value it seals.
fn too_wide(_: CodecError) -> Error {
    Error::CorruptStore("record field past its width")
}

/// The `width`-bit field at bit `at` of `bits`, 0 past its end.
#[inline]
fn field(bits: BitSlice<'_>, at: usize, width: u32) -> u64 {
    bits.reader_at(at).read_bits(width).unwrap_or_default()
}

/// Refuses instances in any order but the one compression emits:
/// references, then non-references, each ascending in `orig_idx`, which
/// together run `0..instance_count` — the only order role bits hold.
fn canonical(ct: &CompressedTrajectory) -> Result<(), Error> {
    let (mut refs, mut nrefs) = (ct.refs.iter().peekable(), ct.nrefs.iter().peekable());
    let n = ct.instance_count().min(MAX_INSTANCES as usize);
    for k in 0..n as u32 {
        if refs.next_if(|r| r.orig_idx == k).is_none()
            && nrefs.next_if(|m| m.orig_idx == k).is_none()
        {
            return Err(Error::CorruptStore("instances out of order"));
        }
    }
    Ok(())
}

impl TrajSegment {
    /// A segment holding `ct` alone: a trajectory packed apart from any
    /// dataset (and so on any thread), for [`Trajectories::push_packed`].
    pub(crate) fn of(ct: &CompressedTrajectory, ctx: CtxWidths) -> Result<Self, Error> {
        let mut seg = Self::new(ctx);
        seg.push(ct)?;
        Ok(seg)
    }

    /// The id of the trajectory at position `k`, without building its
    /// view.
    fn id(&self, k: usize) -> Option<u64> {
        self.ids.get(k).copied()
    }

    /// The next value of column `col`.
    fn col(&mut self, col: usize, v: u64) -> Result<(), Error> {
        // bounds: col is a column constant, and each table has a slot
        // per column
        self.max[col] = self.max[col].max(v);
        if col == ID {
            self.min_id = self.min_id.min(v);
        }
        let v = if col == ID {
            v.wrapping_sub(self.base)
        } else {
            v
        };
        let width = self.cols[col]; // bounds: as above
        self.bits.write_bits(v, width).map_err(too_wide)
    }

    /// A field whose width the context fixes.
    fn put(&mut self, v: u64, width: u32) -> Result<(), Error> {
        self.bits.write_bits(v, width).map_err(too_wide)
    }

    /// Appends a record: the id, the sample count and `T`, the role bits
    /// of its instances in original order (set: a reference), then per
    /// instance in record order its leading fields, its streams back to
    /// back and its probability code.
    fn append<'b>(
        &mut self,
        (id, n_times, t): (u64, u32, BitSlice<'_>),
        roles: impl ExactSizeIterator<Item = bool>,
        instances: impl Iterator<Item = (Lead, [BitSlice<'b>; 3], u64)>,
    ) -> Result<(), Error> {
        let n_inst = roles.len() as u64;
        if n_inst >= MAX_INSTANCES {
            return Err(Error::CorruptStore("too many instances"));
        }
        let record = offset(self.bits.len_bits())?;
        self.col(ID, id)?;
        self.col(TIMES, n_times.into())?;
        self.bits.extend_from(t);
        let count = offset(self.bits.len_bits())?;
        self.col(INST, n_inst)?;
        roles.for_each(|role| self.bits.push_bit(role));
        let first = offset(self.inst.len())?;
        for (lead, streams, p_code) in instances {
            self.inst.push(offset(self.bits.len_bits())?);
            match lead {
                Lead::Ref(sv, n_entries) => {
                    self.put(sv, self.ctx.vertex)?;
                    self.col(ENTRIES, n_entries)?;
                }
                Lead::NRef(ref_idx, n_refs) => self.put(ref_idx, index_width(n_refs))?,
            }
            streams.into_iter().for_each(|b| self.bits.extend_from(b));
            self.put(p_code, self.ctx.p_code)?;
        }
        self.ids.push(id);
        let row = TrajRow {
            record,
            count,
            first,
        };
        self.rows.push(row);
        Ok(())
    }

    /// Appends `ct` as the next trajectory: the record v7 packs, its
    /// streams between its fields.
    fn push(&mut self, ct: &CompressedTrajectory) -> Result<(), Error> {
        canonical(ct)?;
        let (w_e, w_d, n_refs) = (self.ctx.w_e as usize, self.ctx.w_d as usize, ct.refs.len());
        for r in &ct.refs {
            let n = r.n_entries as usize;
            let lens = [
                r.e_bits.len_bits(),
                r.tflag_bits.len_bits(),
                r.d_bits.len_bits(),
            ];
            if n < 2 || lens != [n * w_e, n - 2, ct.n_times as usize * w_d] {
                return Err(Error::CorruptStore(
                    "reference streams disagree with counts",
                ));
            }
        }
        if ct.nrefs.iter().any(|n| n.ref_idx as usize >= n_refs) {
            return Err(Error::CorruptStore("non-reference points past refs"));
        }
        let mut roles = ct.refs.iter().peekable();
        let n_inst = ct.instance_count().min(MAX_INSTANCES as usize) as u32;
        let roles = (0..n_inst).map(|k| roles.next_if(|r| r.orig_idx == k).is_some());
        let refs = ct.refs.iter().map(|r| {
            let streams = [&r.e_bits, &r.tflag_bits, &r.d_bits].map(BitSlice::from);
            (
                Lead::Ref(r.sv.0.into(), r.n_entries.into()),
                streams,
                r.p_code,
            )
        });
        let nrefs = ct.nrefs.iter().map(|n| {
            let streams = [&n.e_com, &n.t_com, &n.d_com].map(BitSlice::from);
            (Lead::NRef(n.ref_idx.into(), n_refs), streams, n.p_code)
        });
        let head = (ct.id, ct.n_times, ct.t_bits.as_slice());
        self.append(head, roles, refs.chain(nrefs))
    }

    /// Appends the record `v` reads as the next, at this segment's
    /// widths.
    fn copy_record(&mut self, v: &TrajView<'_>) -> Result<(), Error> {
        if (v.ctx.w_e, v.ctx.w_d) != (self.ctx.w_e, self.ctx.w_d) {
            return Err(Error::CorruptStore("streams of other entry or code widths"));
        }
        let (n_refs, none) = (v.ref_count(), BitSlice::default());
        let instances = (0..v.n_inst).map(|i| {
            let r = v.ref_fields(i, 0);
            let lead = match i < v.n_refs {
                true => Lead::Ref(r.sv.0.into(), r.n_entries.into()),
                false => Lead::NRef(v.bits(v.start(i), index_width(n_refs)), n_refs),
            };
            (lead, [v.streams(i), none, none], r.p_code)
        });
        let roles = (0..v.n_inst).map(|k| v.is_ref(k));
        self.append((v.id, v.n_times, v.t_bits()), roles, instances)
    }

    /// Appends the one trajectory of `one`, a tail of the same widths,
    /// as the next: its record copied, its offsets moved past this
    /// segment's.
    fn extend(&mut self, one: &TrajSegment) -> Result<(), Error> {
        if one.sealed || self.sealed || one.ctx != self.ctx {
            return Err(Error::CorruptStore("packed trajectory of another width"));
        }
        let (bits, first) = (offset(self.bits.len_bits())?, offset(self.inst.len())?);
        let moved = |at: u32| {
            at.checked_add(bits)
                .ok_or(Error::CorruptStore("segment past its 32-bit offsets"))
        };
        for row in &one.rows {
            self.rows.push(TrajRow {
                record: moved(row.record)?,
                count: moved(row.count)?,
                first: first + row.first,
            });
        }
        for &at in &one.inst {
            self.inst.push(moved(at)?);
        }
        self.ids.extend_from_slice(&one.ids);
        self.bits.extend_from(one.bits.as_slice());
        for (col, max) in one.max.iter().enumerate() {
            self.max[col] = self.max[col].max(*max); // bounds: a slot per column
        }
        self.min_id = self.min_id.min(one.min_id);
        Ok(())
    }

    /// This segment's records repacked as the block a container holds
    /// for them, with the context widths of `ctx`: a header declaring
    /// the narrowest column widths that fit them, then the records.
    pub(crate) fn sealed(&self, ctx: CtxWidths) -> Result<Self, Error> {
        let mut out = Self::new(ctx);
        let [max_id, times, inst, entries] = self.max;
        out.base = self.min_id.min(max_id); // no record: 0
        let max = [max_id - out.base, times, inst, entries];
        (out.sealed, out.cols) = (true, max.map(width_for_max));
        out.put(out.base, 64)?;
        for width in out.cols {
            out.put(width.into(), 7)?;
        }
        for k in 0..self.rows.len() {
            out.copy_record(&self.record(k)?)?;
        }
        out.bits = BitWriter::from(out.bits.finish());
        out.rows.shrink_to_fit();
        out.ids.shrink_to_fit();
        out.inst.shrink_to_fit();
        Ok(out)
    }

    /// The record at position `k`.
    fn record(&self, k: usize) -> Result<TrajView<'_>, Error> {
        self.view(k)
            .ok_or(Error::CorruptStore("segment row past its records"))
    }

    /// A tail holding the record at position `k` alone.
    fn one(&self, k: usize) -> Result<Self, Error> {
        let mut one = Self::new(self.ctx);
        one.copy_record(&self.record(k)?)?;
        Ok(one)
    }

    /// Reads a sealed block of `n` records (the bytes after its length),
    /// checking it whole: each record is walked once, every stream from
    /// its first bit to its end, which gives where each record and
    /// instance starts. Nothing but the zero padding of its last byte
    /// may follow the last record.
    pub(crate) fn read(bytes: Vec<u8>, n: usize, ctx: CtxWidths, ts: i64) -> Result<Self, Error> {
        let mut seg = Self::new(ctx);
        let block = BitSlice::from_bytes(&bytes, bytes.len() * 8).unwrap_or_default();
        let mut r = block.reader();
        seg.base = r.read_bits(64)?;
        for (width, limit) in seg.cols.iter_mut().zip(COL_LIMITS) {
            *width = r.read_bits(7)? as u32;
            if *width == 0 || *width > limit {
                return Err(Error::CorruptStore("column width out of range"));
            }
        }
        seg.sealed = true;
        let [w_id, w_times, w_inst, w_entries] = seg.cols;
        let (w_e, w_d) = (ctx.w_e as usize, ctx.w_d);
        // The open trajectory's references' entry counts.
        let mut entries = Vec::new();
        for _ in 0..n {
            let record = offset(r.pos())?;
            let id = seg.base.wrapping_add(r.read_bits(w_id)?);
            let n_times = r.read_bits(w_times)?;
            siar::walk(&mut r, n_times as usize, ts, |_, _, _| ())?;
            let count = offset(r.pos())?;
            let n_inst = r.read_bits(w_inst)?;
            if n_inst >= MAX_INSTANCES {
                return Err(Error::CorruptStore("too many instances"));
            }
            let (mut n_refs, mut roles) = (0, n_inst);
            while roles > 0 {
                let word = roles.min(64) as u32;
                n_refs += u64::from(r.read_bits(word)?.count_ones());
                roles -= u64::from(word);
            }
            let first = offset(seg.inst.len())?;
            entries.clear();
            for _ in 0..n_refs {
                seg.inst.push(offset(r.pos())?);
                r.read_bits(ctx.vertex)?;
                let n_entries = r.read_bits(w_entries)?;
                if n_entries < 2 {
                    return Err(Error::CorruptStore("reference with fewer than two entries"));
                }
                entries.push(n_entries as usize);
                // `E`, `T'` and `D` by arithmetic.
                let n = n_entries as usize;
                r.seek(r.pos() + n * w_e + (n - 2) + n_times as usize * w_d as usize);
                r.read_bits(ctx.p_code)?;
            }
            let width = index_width(n_refs as usize);
            for _ in n_refs..n_inst {
                seg.inst.push(offset(r.pos())?);
                let ref_idx = r.read_bits(width)?;
                let missing = Error::CorruptStore("non-reference points past refs");
                let ref_entries = *entries.get(ref_idx as usize).ok_or(missing)?;
                // Each factor stream walked knowing only counts of its
                // reference, never its content.
                let n_entries = factor::walk_e(&mut r, ref_entries, ctx.w_e, |_, _| ())?;
                let flags = |n: usize| n.saturating_sub(2);
                let (ref_flags, flags) = (flags(ref_entries), flags(n_entries));
                factor::walk_t(&mut r, ref_flags, flags, drop, |_, _| ())?;
                factor::walk_d(&mut r, n_times as usize, w_d, drop)?;
                r.read_bits(ctx.p_code)?;
            }
            seg.ids.push(id);
            seg.rows.push(TrajRow {
                record,
                count,
                first,
            });
            let most = entries.iter().max().map_or(0, |&n| n as u64);
            for (max, v) in seg.max.iter_mut().zip([id, n_times, n_inst, most]) {
                *max = v.max(*max);
            }
            seg.min_id = seg.min_id.min(id);
        }
        let end = r.pos();
        let left_over = Error::CorruptStore("bits left over in block");
        seg.bits = BitWriter::from(BitBuf::from_bytes(bytes, end).ok_or(left_over)?);
        seg.rows.shrink_to_fit();
        seg.ids.shrink_to_fit();
        seg.inst.shrink_to_fit();
        Ok(seg)
    }

    /// This segment's records as a new block for a container with the
    /// context widths `ctx`, unless the segment is that block already.
    pub(crate) fn resealed(&self, ctx: CtxWidths) -> Result<Option<Self>, Error> {
        match self.sealed && self.ctx == ctx {
            true => Ok(None),
            false => self.sealed(ctx).map(Some),
        }
    }

    /// The packed bytes: a sealed segment's are its block's.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.bits.as_bytes()
    }

    /// Where a sealed block's record bits go: the fields of
    /// `storage::FRAMING` (the block framing, slot 4, left to the
    /// writer), by the block's widths and counts, and the streams.
    pub(crate) fn framing_bits(&self) -> ([u64; 8], u64) {
        let (trajs, insts) = (self.rows.len() as u64, self.inst.len() as u64);
        let (mut refs, mut ref_idx) = (0, 0);
        for v in (0..self.rows.len()).filter_map(|k| self.view(k)) {
            refs += u64::from(v.n_refs);
            ref_idx += u64::from(v.n_inst - v.n_refs) * u64::from(index_width(v.ref_count()));
        }
        let [id, times, inst, entries] = self.cols.map(u64::from);
        let (vertex, p_code) = (u64::from(self.ctx.vertex), u64::from(self.ctx.p_code));
        let fields = [
            trajs * id,
            trajs * times,
            trajs * inst + insts,
            refs * entries,
            0,
            refs * vertex,
            ref_idx,
            insts * p_code,
        ];
        let records = self.bits.len_bits().saturating_sub(HEADER) as u64;
        (fields, records - fields.iter().sum::<u64>())
    }
}

impl Table for TrajSegment {
    type View<'a> = TrajView<'a>;
    type Ctx = CtxWidths;

    fn new(ctx: CtxWidths) -> Self {
        Self {
            bits: BitWriter::new(),
            ctx,
            sealed: false,
            base: 0,
            cols: COL_LIMITS,
            max: [0; 4],
            min_id: u64::MAX,
            rows: Vec::new(),
            ids: Vec::new(),
            inst: Vec::new(),
        }
    }

    #[inline]
    fn view(&self, k: usize) -> Option<TrajView<'_>> {
        let row = self.rows.get(k)?;
        let next = self.rows.get(k + 1);
        let last = next.map_or(self.inst.len(), |next| next.first as usize);
        let inst = self.inst.get(row.first as usize..last)?;
        let end = next.map_or(self.bits.len_bits(), |next| next.record as usize);
        let (bits, at) = (self.bits.as_slice(), row.record as usize);
        let [w_id, w_times, w_inst, entries] = self.cols;
        let roles = row.count as usize + w_inst as usize;
        let n_inst = inst.len() as u32;
        let head = n_inst.min(64);
        let head_roles = match head {
            0 => 0,
            _ => field(bits, roles, head) << (64 - head),
        };
        let mut view = TrajView {
            id: *self.ids.get(k)?,
            n_times: field(bits, at + w_id as usize, w_times) as u32,
            n_inst,
            n_refs: 0,
            bits,
            t: at + (w_id + w_times) as usize,
            t_end: row.count as usize,
            roles,
            head_roles,
            inst,
            end,
            entries,
            ctx: self.ctx,
        };
        view.n_refs = view.rank(n_inst);
        Some(view)
    }

    fn copy(&self) -> (Self, usize) {
        let mut copied = 0;
        let mut bits = BitWriter::with_capacity(self.bits.capacity() * 8);
        bits.extend_from(self.bits.as_slice());
        copied += self.bits.as_bytes().len();
        let copy = Self {
            bits,
            rows: copy_vec(&self.rows, &mut copied),
            ids: copy_vec(&self.ids, &mut copied),
            inst: copy_vec(&self.inst, &mut copied),
            ..*self
        };
        (copy, copied)
    }

    /// Repacks the records once as the block a container holds for them:
    /// the header, the columns at its widths.
    fn seal(&mut self) -> Result<(), Error> {
        *self = self.sealed(self.ctx)?;
        Ok(())
    }

    fn resident(&self, census: &mut Resident) {
        census.add("blocks", self.bits.capacity());
        census.add("offset tables", vec_bytes(&self.inst));
        census.add(
            "rows and plans",
            vec_bytes(&self.rows) + vec_bytes(&self.ids),
        );
    }
}

impl Trajectories {
    /// The id of the trajectory at position `i`, without building its
    /// view.
    pub(crate) fn id(&self, i: usize) -> Option<u64> {
        self.segs.get(i / CHUNK)?.id(i % CHUNK)
    }

    /// Appends a compressed trajectory.
    pub fn push(&mut self, ct: &CompressedTrajectory) -> Result<(), Error> {
        self.append(|seg| seg.push(ct))
    }

    /// Appends the one trajectory of `one` ([`TrajSegment::of`]): a copy
    /// of its record and offsets.
    pub(crate) fn push_packed(&mut self, one: &TrajSegment) -> Result<(), Error> {
        self.append(|seg| seg.extend(one))
    }

    /// Appends the `n` records of the sealed block `bytes`
    /// ([`TrajSegment::read`]) after a whole number of segments: a full
    /// block as a sealed segment, a shorter one (the last) record by
    /// record to the tail, as a store that grew to them holds them.
    pub(crate) fn push_block(&mut self, bytes: Vec<u8>, n: usize, ts: i64) -> Result<(), Error> {
        if n == 0 || n > CHUNK || !self.len.is_multiple_of(CHUNK) {
            return Err(Error::CorruptStore("block after a partial one"));
        }
        let seg = TrajSegment::read(bytes, n, self.ctx, ts)?;
        if n < CHUNK {
            return (0..n).try_for_each(|k| self.push_packed(&seg.one(k)?));
        }
        self.segs.push(Arc::new(seg));
        self.len += n;
        Ok(())
    }
}

/// One compressed uncertain trajectory, borrowed from its segment: its
/// fields read from the block as asked for, its streams ranges of it.
#[derive(Clone, Copy)]
pub struct TrajView<'a> {
    /// Original trajectory id.
    pub id: u64,
    /// Number of shared timestamps.
    pub n_times: u32,
    n_inst: u32,
    n_refs: u32,
    /// The segment's block.
    bits: BitSlice<'a>,
    /// Where `T` starts and ends.
    t: usize,
    t_end: usize,
    /// Where the role bits start.
    roles: usize,
    /// The first 64 role bits (all if fewer), MSB-aligned.
    head_roles: u64,
    /// Where each instance's fields start, in record order.
    inst: &'a [u32],
    /// Where the record ends.
    end: usize,
    /// The width of the entry-count column.
    entries: u32,
    ctx: CtxWidths,
}

impl<'a> TrajView<'a> {
    /// Total number of instances.
    #[inline]
    pub fn instance_count(&self) -> usize {
        self.n_inst as usize
    }

    /// Number of reference instances.
    #[inline]
    pub fn ref_count(&self) -> usize {
        self.n_refs as usize
    }

    /// The `width`-bit field at bit `at` of the block. The record was
    /// checked whole when it was appended, so a read inside it does not
    /// fail.
    #[inline]
    fn bits(&self, at: usize, width: u32) -> u64 {
        field(self.bits, at, width)
    }

    /// The `len` bits of the block from `at`; empty if the block does
    /// not hold them (which decoding then reports as a truncated
    /// stream).
    #[inline]
    fn slice(&self, at: usize, len: usize) -> BitSlice<'a> {
        self.bits.slice(at, len).unwrap_or_default()
    }

    /// Where instance `i` (in record order) starts.
    #[inline]
    fn start(&self, i: u32) -> usize {
        self.inst
            .get(i as usize)
            .map_or(self.end, |&at| at as usize)
    }

    /// Where the probability code of instance `i` (in record order)
    /// starts: it closes the instance.
    #[inline]
    fn p_code_at(&self, i: u32) -> usize {
        let stop = self.start(i + 1).min(self.end);
        stop.saturating_sub(self.ctx.p_code as usize)
    }

    /// The probability code of instance `i` in record order.
    #[inline]
    fn p_code_of(&self, i: u32) -> u64 {
        self.bits(self.p_code_at(i), self.ctx.p_code)
    }

    /// The bits of the fields before instance `i`'s streams.
    #[inline]
    fn lead(&self, i: u32) -> usize {
        match i < self.n_refs {
            true => (self.ctx.vertex + self.entries) as usize,
            false => index_width(self.n_refs as usize) as usize,
        }
    }

    /// Instance `i`'s streams (record order), back to back.
    #[inline]
    fn streams(&self, i: u32) -> BitSlice<'a> {
        let at = self.start(i) + self.lead(i);
        self.slice(at, self.p_code_at(i).saturating_sub(at))
    }

    /// The `width` (1 to 64) role bits of the instances from `at` on, a
    /// multiple of 64, in the low bits.
    #[inline]
    fn role_bits(&self, at: u32, width: u32) -> u64 {
        match at {
            0 => self.head_roles >> (64 - width),
            _ => self.bits(self.roles + at as usize, width),
        }
    }

    /// Whether instance `k` (by original index) is a reference.
    #[inline]
    pub(crate) fn is_ref(&self, k: u32) -> bool {
        let bit = match k {
            0..64 => self.head_roles << k >> 63,
            _ => self.bits(self.roles + k as usize, 1),
        };
        k < self.n_inst && bit == 1
    }

    /// How many of the first `k` instances are references.
    #[inline]
    pub(crate) fn rank(&self, k: u32) -> u32 {
        let (mut ones, mut at) = (0, 0);
        while at < k {
            let width = (k - at).min(64);
            ones += self.role_bits(at, width).count_ones();
            at += width;
        }
        ones
    }

    /// The original index of the `i`-th instance whose role bit is
    /// `role`.
    #[inline]
    fn select(&self, role: bool, mut i: u32) -> Option<u32> {
        let mut at = 0;
        while at < self.n_inst {
            let width = (self.n_inst - at).min(64);
            // The role bits MSB-aligned, the wanted ones set.
            let mut word = self.role_bits(at, width) << (64 - width);
            if !role {
                word = !word & (u64::MAX << (64 - width));
            }
            if i < word.count_ones() {
                for _ in 0..i {
                    word ^= 1 << (63 - word.leading_zeros());
                }
                return Some(at + word.leading_zeros());
            }
            (i, at) = (i - word.count_ones(), at + width);
        }
        None
    }

    /// The original indices of the instances whose role bit is `role`,
    /// ascending.
    #[inline]
    fn origins(&self, role: bool) -> Origins<'a> {
        let left = if role {
            self.n_refs
        } else {
            self.n_inst - self.n_refs
        };
        Origins {
            view: *self,
            role,
            next: 0,
            left,
        }
    }

    #[inline]
    fn ref_fields(&self, i: u32, orig_idx: u32) -> RefRow {
        let at = self.start(i);
        let vertex = self.ctx.vertex;
        RefRow {
            p_code: self.p_code_of(i),
            orig_idx,
            sv: VertexId(self.bits(at, vertex) as u32),
            n_entries: self.bits(at + vertex as usize, self.entries) as u32,
        }
    }

    #[inline]
    fn nref_fields(&self, m: u32, orig_idx: u32) -> NrefRow {
        let i = self.n_refs + m;
        NrefRow {
            p_code: self.p_code_of(i),
            orig_idx,
            ref_idx: self.bits(self.start(i), index_width(self.n_refs as usize)) as u32,
        }
    }

    /// The probability code of the instance in `slot`.
    #[inline]
    pub(crate) fn p_code(&self, slot: Slot) -> u64 {
        match slot {
            Slot::Ref(i) => self.p_code_of(i),
            Slot::NRef(m) => self.p_code_of(self.n_refs + m),
        }
    }

    /// Reference `i`, if there is one.
    #[inline]
    pub fn ref_row(&self, i: usize) -> Option<RefRow> {
        let i = u32::try_from(i).ok().filter(|&i| i < self.n_refs)?;
        Some(self.ref_fields(i, self.select(true, i)?))
    }

    /// Non-reference `m`, if there is one.
    #[inline]
    pub fn nref_row(&self, m: usize) -> Option<NrefRow> {
        let m = u32::try_from(m).ok()?;
        Some(self.nref_fields(m, self.select(false, m)?))
    }

    /// The reference instances in order.
    #[inline]
    pub fn refs(&self) -> impl ExactSizeIterator<Item = RefRow> + Clone + 'a {
        let view = *self;
        let slots = self.origins(true).zip(0..self.n_refs);
        slots.map(move |(orig_idx, i)| view.ref_fields(i, orig_idx))
    }

    /// The non-reference instances in order.
    #[inline]
    pub fn nrefs(&self) -> impl ExactSizeIterator<Item = NrefRow> + Clone + 'a {
        let view = *self;
        let slots = self.origins(false).zip(0..self.n_inst - self.n_refs);
        slots.map(move |(orig_idx, m)| view.nref_fields(m, orig_idx))
    }

    /// The owning reference of each non-reference, in order: the one
    /// field of a non-reference the index reads.
    #[inline]
    pub fn nref_owners(&self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        let view = *self;
        let width = index_width(self.n_refs as usize);
        (self.n_refs..self.n_inst).map(move |i| view.bits(view.start(i), width) as u32)
    }

    /// The query plan, derived from the role bits and the probability
    /// codes with the dataset's probability codec.
    #[inline]
    pub fn plan(&self, p_codec: &PddpCodec) -> TrajPlan<'a> {
        TrajPlan::new(*self, *p_codec)
    }

    /// The SIAR + improved-Exp-Golomb time stream. (Streams are looked
    /// up when asked for: a query served from the decode cache touches
    /// neither the offsets nor the block.)
    pub fn t_bits(&self) -> BitSlice<'a> {
        self.slice(self.t, self.t_end.saturating_sub(self.t))
    }

    /// The streams of reference `i`: `E` (fixed-width edge entries,
    /// entry `g` at bit `g·w_e`), the trimmed time flags `T'`, and `D`
    /// (PDDP distance codes, code `g` at bit `g·w_d`), split by
    /// arithmetic: `n_entries·w_e`, `n_entries − 2` and `n_times·w_d`
    /// bits.
    pub fn ref_streams(&self, i: usize) -> [BitSlice<'a>; 3] {
        let Some(r) = u32::try_from(i).ok().filter(|&i| i < self.n_refs) else {
            return Default::default();
        };
        let n = self.ref_fields(r, 0).n_entries as usize;
        let at = self.start(r) + self.lead(r);
        let e = n * self.ctx.w_e as usize;
        let d = self.n_times as usize * self.ctx.w_d as usize;
        let tflags = n.saturating_sub(2);
        [
            self.slice(at, e),
            self.slice(at + e, tflags),
            self.slice(at + e + tflags, d),
        ]
    }

    /// The streams of non-reference `i`: `Com_E`, `Com_T'`, `Com_D`, each
    /// walked to its end (a query decodes them in turn from one reader
    /// instead, `TrajView::decode_nref`).
    pub fn nref_streams(&self, i: usize) -> [BitSlice<'a>; 3] {
        let Some(n) = self.nref_row(i) else {
            return Default::default();
        };
        let ref_entries = self
            .ref_row(n.ref_idx as usize)
            .map_or(0, |r| r.n_entries as usize);
        let all = self.streams(self.n_refs + i as u32);
        let mut r = all.reader();
        let flags = |n: usize| n.saturating_sub(2);
        let mut walk = || {
            let n_entries = factor::walk_e(&mut r, ref_entries, self.ctx.w_e, |_, _| ())?;
            let e = r.pos();
            factor::walk_t(
                &mut r,
                flags(ref_entries),
                flags(n_entries),
                drop,
                |_, _| (),
            )?;
            let t = r.pos();
            factor::walk_d(&mut r, self.n_times as usize, self.ctx.w_d, drop)?;
            Ok::<_, CodecError>([e, t, r.pos()])
        };
        let Ok([e, t, d]) = walk() else {
            return Default::default();
        };
        let part = |from: usize, to: usize| all.slice(from, to - from).unwrap_or_default();
        [part(0, e), part(e, t), part(t, d)]
    }

    /// Decodes the streams of reference `i`.
    pub(crate) fn decode_ref(
        &self,
        i: usize,
        d_codec: &PddpCodec,
    ) -> Result<DecodedRef, CodecError> {
        let missing = CodecError::Malformed("reference index out of range");
        let r = u32::try_from(i)
            .ok()
            .filter(|&i| i < self.n_refs)
            .ok_or(missing)?;
        let n_entries = self.ref_fields(r, 0).n_entries as usize;
        let [e_bits, tflag_bits, d_bits] = self.ref_streams(i);
        Ok(DecodedRef {
            entries: compressed::decode_entries(e_bits, n_entries, self.ctx.w_e)?,
            trimmed_flags: tflag_bits.to_bits(),
            d_codes: compressed::decode_d_codes(d_bits, self.n_times as usize, d_codec)?,
        })
    }

    /// Decodes non-reference `i` against its (already decoded)
    /// reference: its three streams in turn, from one reader.
    pub(crate) fn decode_nref(
        &self,
        i: usize,
        dref: &DecodedRef,
        d_codec: &PddpCodec,
    ) -> Result<DecodedRef, CodecError> {
        let missing = CodecError::Malformed("non-reference index out of range");
        let m = u32::try_from(i)
            .ok()
            .filter(|&m| m < self.n_inst - self.n_refs)
            .ok_or(missing)?;
        let mut r = self.streams(self.n_refs + m).reader();
        let entries = factor::decode_e(&mut r, &dref.entries, self.ctx.w_e)?;
        let (ref_flags, flags) = (dref.trimmed_flags.len(), entries.len().saturating_sub(2));
        let tcom = factor::decode_t(&mut r, ref_flags, flags)?;
        let n_locs = self.n_times as usize;
        let patches = factor::decode_d(&mut r, n_locs, d_codec.width())?;
        Ok(DecodedRef {
            entries,
            trimmed_flags: factor::apply_t(&tcom, &dref.trimmed_flags),
            d_codes: factor::apply_d(&patches, &dref.d_codes),
        })
    }
}

/// The original indices of one role's instances, ascending.
#[derive(Clone)]
struct Origins<'a> {
    view: TrajView<'a>,
    role: bool,
    next: u32,
    left: u32,
}

impl Iterator for Origins<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        if self.next < 64 {
            // The next wanted bit among the first 64, by one count.
            let head = self.view.n_inst.min(64);
            let wanted = match self.role {
                true => self.view.head_roles,
                false => !self.view.head_roles & !u64::MAX.checked_shr(head).unwrap_or(0),
            };
            let ahead = wanted << self.next;
            if ahead != 0 {
                let k = self.next + ahead.leading_zeros();
                (self.next, self.left) = (k + 1, self.left - 1);
                return Some(k);
            }
            self.next = 64;
        }
        while self.next < self.view.n_inst {
            let k = self.next;
            self.next += 1;
            if self.view.is_ref(k) == self.role {
                self.left -= 1;
                return Some(k);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Origins<'_> {}

impl std::fmt::Debug for TrajView<'_> {
    /// Every field and stream of the trajectory, none of its
    /// neighbours'.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let refs = self.refs().enumerate();
        let nrefs = self.nrefs().enumerate();
        f.debug_struct("TrajView")
            .field("id", &self.id)
            .field("n_times", &self.n_times)
            .field("t_bits", &self.t_bits())
            .field(
                "refs",
                &Vec::from_iter(refs.map(|(i, r)| (r, self.ref_streams(i)))),
            )
            .field(
                "nrefs",
                &Vec::from_iter(nrefs.map(|(i, n)| (n, self.nref_streams(i)))),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_trajectory;
    use crate::params::CompressParams;

    #[test]
    fn clone_shares_sealed_segments_and_copies_the_tail_once() {
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 12, 5);
        let params = CompressParams::with_interval(ds.default_interval);
        let cts = ds
            .trajectories
            .iter()
            .map(|tu| compress_trajectory(&net, tu, &params));
        let cts: Vec<_> = cts.map(|ct| ct.unwrap().0).collect();
        let mut a = crate::CompressedDataset::empty(&net, "", params).trajectories;
        for ct in cts.iter().cycle().take(CHUNK + 10) {
            a.push(ct).unwrap();
        }
        let b = a.clone();
        let before = crate::hooks::copied_bytes();
        a.push(&cts[0]).unwrap();
        let copied = crate::hooks::copied_bytes() - before;
        assert!(Arc::ptr_eq(&a.segs[0], &b.segs[0]), "sealed: shared");
        assert!(!Arc::ptr_eq(&a.segs[1], &b.segs[1]), "tail: copied out");
        // Other tests of this binary may copy tails too: at least ours.
        let tail = b.segs[1].copy().1;
        assert!(tail > 0 && copied >= tail as u64);
        assert_eq!((b.len(), a.len()), (CHUNK + 10, CHUNK + 11));
        assert!(b.get(CHUNK + 10).is_none(), "the clone is unaffected");
        assert_eq!(
            (a.id(CHUNK + 10).unwrap(), a.get(CHUNK + 10).unwrap().id),
            (cts[0].id, cts[0].id)
        );
        // A refused trajectory is an error, not a panic.
        let mut bad = cts[0].clone();
        bad.refs[0].orig_idx = 99;
        assert!(matches!(a.push(&bad), Err(Error::CorruptStore(_))));
    }
}
