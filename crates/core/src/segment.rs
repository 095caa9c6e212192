//! The in-memory form of a store: flat, append-only segments of
//! [`CHUNK`] trajectories behind `Arc`s (`docs/ARCHITECTURE.md` draws
//! them). A container block on disk and a segment cover the same 1,024
//! records; where the block packs them into bits, the segment keeps them
//! in a **constant number of allocations**: one row per trajectory, one
//! bit-packed framing string, one byte arena for every bit stream and
//! its offset table ([`TrajSegment`], the dataset half) and four index
//! tables: temporal tuples, region words, membership bits and the nodes'
//! interval postings, which no container stores
//! ([`crate::stiu::NodeSegment`], the index half: a dataset and its
//! index are separate values, so the halves are separate types sealing
//! at the same counts).
//!
//! **The framing string** holds each trajectory's instance fields as
//! container v7 packs them (`crate::storage`): the sample count, the
//! instance count, one role bit per instance in original order, then per
//! reference its start vertex, entry count and probability code and per
//! non-reference its reference and probability code. The widths are
//! data: while a segment is the append tail every column is as wide as
//! its type, and the seal repacks the string once at the widths a v7
//! block header would declare for the same records. A trajectory's row
//! is its id, where its record starts and where its streams start; an
//! instance's original index, its slot and the query plan
//! ([`TrajPlan`]) are read off the role bits when asked for.
//!
//! Readers never see a segment, only borrowed views of one trajectory
//! ([`TrajView`], [`crate::stiu::TrajIndex`], [`TrajPlan`]): its row,
//! fields read from the framing string and [`BitSlice`]s of the arena.
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
use utcq_bitio::{width_for_max, BitReader, BitSlice, BitWriter, CodecError};
use utcq_network::VertexId;

pub use crate::chunk::CHUNK;
use crate::compressed::{self, CompressedTrajectory, DecodedRef};
use crate::error::Error;
use crate::factor;
use crate::plan::{Slot, TrajPlan};

/// Heap bytes a store keeps resident (allocated capacity, not just the
/// used length), by part in first-seen order: what `utcq info` prints
/// under "resident".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Resident(pub Vec<(&'static str, usize)>);

impl Resident {
    /// Adds `bytes` to the part named `label`.
    pub fn add(&mut self, label: &'static str, bytes: usize) {
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
pub trait Table: Default {
    /// One trajectory of the segment, borrowed.
    type View<'a>: Copy
    where
        Self: 'a;

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
pub struct Segments<S> {
    segs: Vec<Arc<S>>,
    len: usize,
}

/// The trajectories of a compressed dataset.
pub type Trajectories = Segments<TrajSegment>;

impl<S> Default for Segments<S> {
    fn default() -> Self {
        let (segs, len) = (Vec::new(), 0);
        Self { segs, len }
    }
}

impl<S> Clone for Segments<S> {
    /// Clones the directory only: one refcount bump per segment.
    fn clone(&self) -> Self {
        let (segs, len) = (self.segs.clone(), self.len);
        Self { segs, len }
    }
}

impl<S: Table> Segments<S> {
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
            self.segs.push(Arc::default());
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
pub struct Iter<'a, S> {
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

/// The row of one trajectory: what a range scan reads of it before its
/// framing record.
#[derive(Debug, Clone, Copy)]
struct TrajRow {
    /// Original trajectory id.
    id: u64,
    /// The bit of the segment's framing string at which the trajectory's
    /// record starts.
    framing: u32,
    /// Where the trajectory's `T` stream is in the segment's
    /// `stream_end`.
    first_stream: u32,
}

/// The stored fields of a reference instance, read from its framing
/// record; its streams are in the arena ([`TrajView::ref_streams`]).
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

/// The stored fields of a non-reference instance, read from its framing
/// record; its streams are in the arena ([`TrajView::nref_streams`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NrefRow {
    /// PDDP probability code.
    pub p_code: u64,
    /// Position of this instance in the original instance list.
    pub orig_idx: u32,
    /// Index among [`TrajView::refs`] of the owning reference.
    pub ref_idx: u32,
}

// The columns of a framing record, whose widths a segment declares.
const TIMES: usize = 0;
const INST: usize = 1;
const SV: usize = 2;
const ENTRIES: usize = 3;
const P_CODE: usize = 4;

/// The column widths of a tail segment: the widest each field may be.
/// Every field is a `u32` but `p_code`, whose codec is at most 52 bits
/// wide; at 56 bits it still lands in one 64-bit store.
const TAIL: [u32; 5] = [32, 32, 32, 32, 56];

/// More instances than this in one trajectory are refused.
const MAX_INSTANCES: usize = 1 << 31;

/// `width_for_max(n − 1)`: the width of an index into `n` items.
pub(crate) fn index_width(n: usize) -> u32 {
    width_for_max((n as u64).saturating_sub(1))
}

/// Copies the framing record at bit `at` of `framing` to `out`, each
/// column's field from the first of its pair of widths to the second.
fn repack(
    framing: BitSlice<'_>,
    at: usize,
    widths: [(u32, u32); 5],
    out: &mut BitWriter,
) -> Result<(), CodecError> {
    let mut r = framing.reader_at(at);
    let mut copy = |(from, to)| {
        let v = r.read_bits(from)?;
        out.write_bits(v, to).map(|()| v)
    };
    let [times, inst, sv, entries, p_code] = widths;
    copy(times)?;
    let n = copy(inst)?;
    let (mut n_refs, mut roles) = (0, n);
    while roles > 0 {
        let word = roles.min(64) as u32;
        n_refs += u64::from(copy((word, word))?.count_ones());
        roles -= u64::from(word);
    }
    for _ in 0..n_refs {
        for field in [sv, entries, p_code] {
            copy(field)?;
        }
    }
    let ref_idx = index_width(n_refs as usize);
    for _ in n_refs..n {
        copy((ref_idx, ref_idx))?;
        copy(p_code)?;
    }
    Ok(())
}

/// The dataset half of a segment.
#[derive(Debug)]
pub struct TrajSegment {
    rows: Vec<TrajRow>,
    /// Per trajectory its framing record, back to back: the fields of
    /// its v7 record but the id and the streams, in v7's order — sample
    /// count, instance count, one role bit per instance in original
    /// order (set: a reference), per reference `sv`, `n_entries` and
    /// `p_code`, per non-reference `ref_idx` and `p_code`.
    framing: BitWriter,
    /// The width of each column of `framing`: [`TAIL`] while the segment
    /// is the tail, `width_for_max` of each column's maximum (what a v7
    /// block header declares) once it is sealed.
    widths: [u32; 5],
    /// Per column, the largest value and the number of values written,
    /// which size the sealed string.
    max: [u64; 5],
    count: [usize; 5],
    /// Every bit stream back to back, each from a byte boundary, in
    /// record order: per trajectory `T`, then `E T' D` per reference,
    /// then `Com_E Com_T Com_D` per non-reference.
    arena: Vec<u8>,
    /// Per stream, the bit at which it ends in `arena`.
    stream_end: Vec<u32>,
}

impl Default for TrajSegment {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            framing: BitWriter::new(),
            widths: TAIL,
            max: [0; 5],
            count: [0; 5],
            arena: Vec::new(),
            stream_end: Vec::new(),
        }
    }
}

/// `len` as a `u32` row or bit offset, or the segment is over what its
/// offset tables address.
pub(crate) fn offset(len: usize) -> Result<u32, Error> {
    u32::try_from(len).map_err(|_| Error::CorruptStore("segment past its 32-bit offsets"))
}

/// A framing field past its width: only a tail is written, and its
/// widths fit every value of the field's type.
fn too_wide(_: CodecError) -> Error {
    Error::CorruptStore("framing field past its width")
}

impl TrajSegment {
    /// Opens the next trajectory: its row and sample count. Its `T`
    /// stream ([`TrajSegment::stream`]), role bits
    /// ([`TrajSegment::roles`]), instance fields and streams follow in
    /// record order, and [`TrajSegment::finish`] closes it.
    pub(crate) fn begin(&mut self, id: u64, n_times: u32) -> Result<(), Error> {
        self.rows.push(TrajRow {
            id,
            framing: offset(self.framing.len_bits())?,
            first_stream: offset(self.stream_end.len())?,
        });
        self.put(TIMES, n_times.into())
    }

    /// The next field of column `col`.
    fn put(&mut self, col: usize, v: u64) -> Result<(), Error> {
        // bounds: col is a column constant
        (self.max[col], self.count[col]) = (self.max[col].max(v), self.count[col] + 1);
        let width = self.widths[col]; // bounds: as above
        self.framing.write_bits(v, width).map_err(too_wide)
    }

    /// Appends the next `len` bits of `r` as the open trajectory's next
    /// stream.
    pub(crate) fn stream(&mut self, r: &mut BitReader<'_>, len: usize) -> Result<(), Error> {
        let start = self.arena.len();
        r.read_into(len, &mut self.arena)?;
        self.stream_end.push(offset(start * 8 + len)?);
        Ok(())
    }

    /// The open trajectory's instance count and one role bit per
    /// instance in original order (set: a reference).
    pub(crate) fn roles(
        &mut self,
        roles: impl ExactSizeIterator<Item = bool>,
    ) -> Result<(), Error> {
        if roles.len() >= MAX_INSTANCES {
            return Err(Error::CorruptStore("too many instances"));
        }
        self.put(INST, roles.len() as u64)?;
        roles.for_each(|role| self.framing.push_bit(role));
        Ok(())
    }

    /// The next reference's start vertex and entry count.
    pub(crate) fn reference(&mut self, sv: VertexId, n_entries: u32) -> Result<(), Error> {
        self.put(SV, sv.0.into())?;
        self.put(ENTRIES, n_entries.into())
    }

    /// The next non-reference's reference, one of the open trajectory's
    /// `n_refs`.
    pub(crate) fn non_reference(&mut self, ref_idx: u32, n_refs: usize) -> Result<(), Error> {
        if ref_idx as usize >= n_refs {
            return Err(Error::CorruptStore("non-reference points past refs"));
        }
        let width = index_width(n_refs);
        self.framing
            .write_bits(ref_idx.into(), width)
            .map_err(too_wide)
    }

    /// The probability code of the instance whose fields came last.
    pub(crate) fn p_code(&mut self, p_code: u64) -> Result<(), Error> {
        self.put(P_CODE, p_code)
    }

    /// Closes the open trajectory: checks that its framing record holds
    /// the fields its role bits call for and no more, and that it has
    /// its streams (one `T`, three per instance).
    pub(crate) fn finish(&mut self) -> Result<(), Error> {
        let none = || Error::CorruptStore("no open trajectory");
        let k = self.rows.len().checked_sub(1).ok_or_else(none)?;
        let view = self.view(k).ok_or_else(none)?;
        // Where a record with these role bits ends.
        let end = view.nref_at(view.n_inst - view.n_refs);
        if end != self.framing.len_bits() {
            return Err(Error::CorruptStore("framing record incomplete"));
        }
        if self.stream_end.len() != view.first_stream + 1 + 3 * view.instance_count() {
            return Err(Error::CorruptStore("streams do not match the instances"));
        }
        Ok(())
    }
}

impl Table for TrajSegment {
    type View<'a> = TrajView<'a>;

    #[inline]
    fn view(&self, k: usize) -> Option<TrajView<'_>> {
        let row = self.rows.get(k)?;
        let framing = self.framing.as_slice();
        let at = row.framing as usize;
        let [times, inst, ..] = self.widths;
        let n_times = field(framing, at, times) as u32;
        let n_inst = field(framing, at + times as usize, inst) as u32;
        let roles = at + (times + inst) as usize;
        let head = n_inst.min(64);
        let head_roles = match head {
            0 => 0,
            _ => field(framing, roles, head) << (64 - head),
        };
        let mut view = TrajView {
            id: row.id,
            n_times,
            n_inst,
            n_refs: 0,
            framing,
            roles,
            head_roles,
            widths: self.widths,
            arena: &self.arena,
            stream_end: &self.stream_end,
            first_stream: row.first_stream as usize,
        };
        view.n_refs = view.rank(n_inst);
        Some(view)
    }

    fn copy(&self) -> (Self, usize) {
        let mut copied = 0;
        let mut framing = BitWriter::with_capacity(self.framing.capacity() * 8);
        framing.extend_from(self.framing.as_slice());
        copied += self.framing.as_slice().as_bytes().len();
        let copy = Self {
            rows: copy_vec(&self.rows, &mut copied),
            framing,
            widths: self.widths,
            max: self.max,
            count: self.count,
            arena: copy_vec(&self.arena, &mut copied),
            stream_end: copy_vec(&self.stream_end, &mut copied),
        };
        (copy, copied)
    }

    /// Repacks the framing string once at the widths a v7 block header
    /// would declare for these records, and releases spare capacity.
    fn seal(&mut self) -> Result<(), Error> {
        let old = self.framing.as_slice();
        let widths = self.max.map(width_for_max);
        let narrowed = self.count.iter().zip(self.widths.iter().zip(widths));
        let saved: usize = narrowed
            .map(|(n, (from, to))| n * (from - to) as usize)
            .sum();
        let mut framing = BitWriter::with_capacity(old.len_bits() - saved);
        // bounds: c indexes two arrays of a slot per column
        let pairs = std::array::from_fn(|c| (self.widths[c], widths[c]));
        for row in &mut self.rows {
            let at = std::mem::replace(&mut row.framing, offset(framing.len_bits())?);
            repack(old, at as usize, pairs, &mut framing)?;
        }
        (self.framing, self.widths) = (framing, widths);
        self.rows.shrink_to_fit();
        self.arena.shrink_to_fit();
        self.stream_end.shrink_to_fit();
        Ok(())
    }

    fn resident(&self, census: &mut Resident) {
        census.add("stream arena", vec_bytes(&self.arena));
        census.add("offset tables", vec_bytes(&self.stream_end));
        let rows = vec_bytes(&self.rows) + self.framing.capacity();
        census.add("rows and plans", rows);
    }
}

impl Trajectories {
    /// The id of the trajectory at position `i`, without building its
    /// view.
    pub(crate) fn id(&self, i: usize) -> Option<u64> {
        Some(self.segs.get(i / CHUNK)?.rows.get(i % CHUNK)?.id)
    }

    /// Appends a compressed trajectory.
    pub fn push(&mut self, ct: &CompressedTrajectory) -> Result<(), Error> {
        self.append(|seg| seg.push(ct))
    }

    /// Appends the one trajectory of `one` ([`TrajSegment::of`]): a copy
    /// of its row, framing record and streams.
    pub(crate) fn push_packed(&mut self, one: &TrajSegment) -> Result<(), Error> {
        self.append(|seg| seg.extend(one))
    }
}

/// Refuses instances in any order but the one compression emits:
/// references, then non-references, each ascending in `orig_idx`, which
/// together run `0..instance_count` — the only order role bits hold.
fn canonical(ct: &CompressedTrajectory) -> Result<(), Error> {
    let (mut refs, mut nrefs) = (ct.refs.iter().peekable(), ct.nrefs.iter().peekable());
    let n = ct.instance_count().min(MAX_INSTANCES);
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
    pub(crate) fn of(ct: &CompressedTrajectory) -> Result<Self, Error> {
        let mut seg = Self::default();
        seg.push(ct)?;
        Ok(seg)
    }

    /// Appends `ct` as the next trajectory.
    fn push(&mut self, ct: &CompressedTrajectory) -> Result<(), Error> {
        canonical(ct)?;
        self.begin(ct.id, ct.n_times)?;
        self.stream(&mut ct.t_bits.reader(), ct.t_bits.len_bits())?;
        let mut refs = ct.refs.iter().peekable();
        let n = ct.instance_count().min(MAX_INSTANCES) as u32;
        self.roles((0..n).map(|k| refs.next_if(|r| r.orig_idx == k).is_some()))?;
        for r in &ct.refs {
            self.reference(r.sv, r.n_entries)?;
            for b in [&r.e_bits, &r.tflag_bits, &r.d_bits] {
                self.stream(&mut b.reader(), b.len_bits())?;
            }
            self.p_code(r.p_code)?;
        }
        for n in &ct.nrefs {
            self.non_reference(n.ref_idx, ct.refs.len())?;
            for b in [&n.e_com, &n.t_com, &n.d_com] {
                self.stream(&mut b.reader(), b.len_bits())?;
            }
            self.p_code(n.p_code)?;
        }
        self.finish()
    }

    /// Appends the one trajectory of `one`, a tail too, as the next: its
    /// row, framing record and arena copied, its stream ends moved past
    /// this arena's.
    fn extend(&mut self, one: &TrajSegment) -> Result<(), Error> {
        let row = one
            .rows
            .first()
            .ok_or(Error::CorruptStore("no packed trajectory"))?;
        if one.widths != self.widths {
            return Err(Error::CorruptStore("packed trajectory of another width"));
        }
        let base = offset(self.arena.len() * 8)?;
        self.rows.push(TrajRow {
            framing: offset(self.framing.len_bits())?,
            first_stream: offset(self.stream_end.len())?,
            ..*row
        });
        self.framing.extend_from(one.framing.as_slice());
        for (col, (max, count)) in one.max.iter().zip(one.count).enumerate() {
            // bounds: both tables have a slot per column
            (self.max[col], self.count[col]) = (self.max[col].max(*max), self.count[col] + count);
        }
        self.arena.extend_from_slice(&one.arena);
        for &end in &one.stream_end {
            let moved = end.checked_add(base);
            self.stream_end
                .push(moved.ok_or(Error::CorruptStore("segment past its 32-bit offsets"))?);
        }
        Ok(())
    }
}

/// The `width`-bit field at bit `at` of `framing`, 0 past its end.
#[inline]
fn field(framing: BitSlice<'_>, at: usize, width: u32) -> u64 {
    // One unaligned load for a field that ends within eight bytes of its
    // first byte, as `BitReader::read_bits` does.
    let (first, skip) = (at / 8, at % 8);
    let word = framing
        .as_bytes()
        .get(first..)
        .and_then(|b| b.first_chunk::<8>());
    match word {
        Some(word) if width > 0 && skip + width as usize <= 64 => {
            (u64::from_be_bytes(*word) << skip) >> (64 - width)
        }
        _ => framing.reader_at(at).read_bits(width).unwrap_or_default(),
    }
}

/// One compressed uncertain trajectory, borrowed from its segment: its
/// row, its framing record (read field by field as asked for) and its
/// streams in the arena.
#[derive(Clone, Copy)]
pub struct TrajView<'a> {
    /// Original trajectory id.
    pub id: u64,
    /// Number of shared timestamps.
    pub n_times: u32,
    n_inst: u32,
    n_refs: u32,
    framing: BitSlice<'a>,
    /// Where the role bits start in `framing`.
    roles: usize,
    /// The first 64 role bits (all if fewer), MSB-aligned.
    head_roles: u64,
    widths: [u32; 5],
    arena: &'a [u8],
    stream_end: &'a [u32],
    /// Where the trajectory's `T` stream is in `stream_end`.
    first_stream: usize,
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

    /// The `width`-bit framing field at bit `at`. The record was checked
    /// whole when it was appended ([`TrajSegment::finish`]), so a read
    /// inside it does not fail.
    #[inline]
    fn bits(&self, at: usize, width: u32) -> u64 {
        field(self.framing, at, width)
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

    /// Where reference `i`'s fields start in the framing string.
    #[inline]
    fn ref_at(&self, i: u32) -> usize {
        let [_, _, sv, entries, p_code] = self.widths;
        self.roles + self.n_inst as usize + i as usize * (sv + entries + p_code) as usize
    }

    /// Where non-reference `m`'s fields start in the framing string.
    #[inline]
    fn nref_at(&self, m: u32) -> usize {
        let [.., p_code] = self.widths;
        let width = index_width(self.n_refs as usize) + p_code;
        self.ref_at(self.n_refs) + m as usize * width as usize
    }

    #[inline]
    fn ref_fields(&self, i: u32, orig_idx: u32) -> RefRow {
        let (at, [_, _, sv, entries, p_code]) = (self.ref_at(i), self.widths);
        let (n_entries, p) = (at + sv as usize, at + (sv + entries) as usize);
        RefRow {
            p_code: self.bits(p, p_code),
            orig_idx,
            sv: VertexId(self.bits(at, sv) as u32),
            n_entries: self.bits(n_entries, entries) as u32,
        }
    }

    #[inline]
    fn nref_fields(&self, m: u32, orig_idx: u32) -> NrefRow {
        let (at, width) = (self.nref_at(m), index_width(self.n_refs as usize));
        let [.., p_code] = self.widths;
        NrefRow {
            p_code: self.bits(at + width as usize, p_code),
            orig_idx,
            ref_idx: self.bits(at, width) as u32,
        }
    }

    /// The probability code of the instance in `slot`.
    #[inline]
    pub(crate) fn p_code(&self, slot: Slot) -> u64 {
        let [_, _, sv, entries, p_code] = self.widths;
        match slot {
            Slot::Ref(i) => self.bits(self.ref_at(i) + (sv + entries) as usize, p_code),
            Slot::NRef(m) => {
                let at = self.nref_at(m) + index_width(self.n_refs as usize) as usize;
                self.bits(at, p_code)
            }
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
        let (framing, first) = (self.framing, self.nref_at(0));
        let [.., p_code] = self.widths;
        let width = index_width(self.n_refs as usize);
        let stride = (width + p_code) as usize;
        let at = move |m: u32| first + m as usize * stride;
        (0..self.n_inst - self.n_refs).map(move |m| field(framing, at(m), width) as u32)
    }

    /// The query plan, derived from the role bits and the probability
    /// codes with the dataset's probability codec.
    #[inline]
    pub fn plan(&self, p_codec: &PddpCodec) -> TrajPlan<'a> {
        TrajPlan::new(*self, *p_codec)
    }

    /// The trajectory's `s`-th stream; empty if the tables do not hold
    /// it (which decoding then reports as a truncated stream).
    fn stream(&self, s: usize) -> BitSlice<'a> {
        let i = self.first_stream + s;
        let start = match i.checked_sub(1) {
            Some(prev) => self
                .stream_end
                .get(prev)
                .map(|&end| end.div_ceil(8) as usize),
            None => Some(0),
        };
        let found = start.zip(self.stream_end.get(i)).and_then(|(start, &end)| {
            let bytes = self.arena.get(start..end.div_ceil(8) as usize)?;
            BitSlice::from_bytes(bytes, (end as usize).checked_sub(start * 8)?)
        });
        found.unwrap_or_default()
    }

    /// The SIAR + improved-Exp-Golomb time stream. (Streams are looked
    /// up when asked for: a query served from the decode cache touches
    /// neither the offset table nor the arena.)
    pub fn t_bits(&self) -> BitSlice<'a> {
        self.stream(0)
    }

    /// The streams of reference `i`: `E` (fixed-width edge entries,
    /// entry `g` at bit `g·w_e`), the trimmed time flags `T'`, and `D`
    /// (PDDP distance codes, code `g` at bit `g·w_d`).
    pub fn ref_streams(&self, i: usize) -> [BitSlice<'a>; 3] {
        [1, 2, 3].map(|s| self.stream(3 * i + s))
    }

    /// The streams of non-reference `i`: `Com_E`, `Com_T'`, `Com_D`.
    pub fn nref_streams(&self, i: usize) -> [BitSlice<'a>; 3] {
        self.ref_streams(self.ref_count() + i)
    }

    /// Decodes the streams of reference `i`.
    pub fn decode_ref(
        &self,
        i: usize,
        w_e: u32,
        d_codec: &PddpCodec,
    ) -> Result<DecodedRef, CodecError> {
        let missing = CodecError::Malformed("reference index out of range");
        let i = u32::try_from(i)
            .ok()
            .filter(|&i| i < self.n_refs)
            .ok_or(missing)?;
        let n_entries = self.ref_fields(i, 0).n_entries as usize;
        let [e_bits, tflag_bits, d_bits] = self.ref_streams(i as usize);
        Ok(DecodedRef {
            entries: compressed::decode_entries(e_bits, n_entries, w_e)?,
            trimmed_flags: tflag_bits.to_bits(),
            d_codes: compressed::decode_d_codes(d_bits, self.n_times as usize, d_codec)?,
        })
    }

    /// Decodes non-reference `i` against its (already decoded)
    /// reference.
    pub fn decode_nref(
        &self,
        i: usize,
        dref: &DecodedRef,
        w_e: u32,
        d_codec: &PddpCodec,
    ) -> Result<DecodedRef, CodecError> {
        let [e_com, t_com, d_com] = self.nref_streams(i);
        let entries = factor::decode_e(&mut e_com.reader(), &dref.entries, w_e)?;
        let (ref_flags, flags) = (dref.trimmed_flags.len(), entries.len().saturating_sub(2));
        let tcom = factor::decode_t(&mut t_com.reader(), ref_flags, flags)?;
        let n_locs = self.n_times as usize;
        let patches = factor::decode_d(&mut d_com.reader(), n_locs, d_codec.width())?;
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
        let mut a = Trajectories::default();
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
