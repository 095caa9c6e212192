//! The in-memory form of a store: flat, append-only segments of
//! [`CHUNK`] trajectories behind `Arc`s (`docs/ARCHITECTURE.md` draws
//! them). A container block on disk and a segment cover the same 1,024
//! records; where the block packs them into bits, the segment keeps them
//! in a **constant number of allocations**: row tables, one byte arena
//! for every bit stream, plan columns ([`TrajSegment`], the dataset
//! half) and four index tables: temporal tuples, region words,
//! membership bits and the nodes' interval postings, which no container
//! stores ([`crate::stiu::NodeSegment`], the index half: a dataset and
//! its index are separate values, so the halves are separate types
//! sealing at the same counts).
//!
//! Readers never see a segment, only borrowed views of one trajectory
//! ([`TrajView`], [`crate::stiu::TrajIndex`], [`TrajPlan`]): slices of
//! the tables and [`BitSlice`]s of the arena.
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
use utcq_bitio::{BitReader, BitSlice, CodecError};
use utcq_network::VertexId;

pub use crate::chunk::CHUNK;
use crate::compressed::{self, CompressedTrajectory, DecodedRef};
use crate::error::Error;
use crate::factor;
use crate::plan::{plan_rows, PlanRow, TrajPlan};

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

    /// Releases the spare capacity of a segment that is full.
    fn seal(&mut self);

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
    pub(crate) fn append<E>(
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
                seg.seal();
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

/// The stored row of one trajectory.
#[derive(Debug, Clone, Copy)]
pub struct TrajRow {
    /// Original trajectory id.
    pub id: u64,
    /// Number of shared timestamps.
    pub n_times: u32,
    /// Where the trajectory's rows start in the segment's `refs` and
    /// `nrefs` (they end where the next trajectory's start); its plan
    /// rows start at their sum.
    first_ref: u32,
    first_nref: u32,
    /// See [`TrajPlan::prob_mass`].
    prob_mass: f64,
}

/// The stored row of a reference instance; its streams are in the arena
/// ([`TrajView::ref_streams`]).
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

/// The stored row of a non-reference instance; its streams are in the
/// arena ([`TrajView::nref_streams`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NrefRow {
    /// PDDP probability code.
    pub p_code: u64,
    /// Position of this instance in the original instance list.
    pub orig_idx: u32,
    /// Index into [`TrajView::refs`] of the owning reference.
    pub ref_idx: u32,
}

/// The dataset half of a segment.
#[derive(Debug, Default)]
pub struct TrajSegment {
    rows: Vec<TrajRow>,
    /// Instance rows, a trajectory's side by side. The open trajectory's
    /// are pushed between [`TrajSegment::begin`] and `finish`.
    pub(crate) refs: Vec<RefRow>,
    pub(crate) nrefs: Vec<NrefRow>,
    /// Every bit stream back to back, each from a byte boundary, in
    /// record order: per trajectory `T`, then `E T' D` per reference,
    /// then `Com_E Com_T Com_D` per non-reference.
    arena: Vec<u8>,
    /// Per stream, the bit at which it ends in `arena`.
    stream_end: Vec<u32>,
    /// The query plans ([`crate::plan`]): per trajectory one row per
    /// instance.
    plan: Vec<PlanRow>,
}

/// `len` as a `u32` row or bit offset, or the segment is over what its
/// offset tables address.
pub(crate) fn offset(len: usize) -> Result<u32, Error> {
    u32::try_from(len).map_err(|_| Error::CorruptStore("segment past its 32-bit offsets"))
}

impl TrajSegment {
    /// Opens the next trajectory. Its streams ([`TrajSegment::stream`])
    /// and instance rows follow in record order, and
    /// [`TrajSegment::finish`] closes it.
    pub(crate) fn begin(&mut self, id: u64, n_times: u32) -> Result<(), Error> {
        let (first_ref, first_nref) = (offset(self.refs.len())?, offset(self.nrefs.len())?);
        self.rows.push(TrajRow {
            id,
            n_times,
            first_ref,
            first_nref,
            prob_mass: 0.0,
        });
        Ok(())
    }

    /// Appends the next `len` bits of `r` as the open trajectory's next
    /// stream.
    pub(crate) fn stream(&mut self, r: &mut BitReader<'_>, len: usize) -> Result<(), Error> {
        let start = self.arena.len();
        r.read_into(len, &mut self.arena)?;
        self.stream_end.push(offset(start * 8 + len)?);
        Ok(())
    }

    /// The sample count of the open trajectory.
    pub(crate) fn open_n_times(&self) -> usize {
        self.rows.last().map_or(0, |row| row.n_times as usize)
    }

    /// Closes the open trajectory: checks that every non-reference
    /// names one of its references and builds the query plan, which
    /// checks that the original indices are a permutation.
    pub(crate) fn finish(&mut self, p_codec: &PddpCodec) -> Result<(), Error> {
        let none = Error::CorruptStore("no open trajectory");
        let (first_ref, first_nref) = self
            .rows
            .len()
            .checked_sub(1)
            .and_then(|k| self.first(k))
            .ok_or(none)?;
        let refs = self.refs.get(first_ref..).unwrap_or_default();
        let nrefs = self.nrefs.get(first_nref..).unwrap_or_default();
        if nrefs.iter().any(|n| n.ref_idx as usize >= refs.len()) {
            return Err(Error::CorruptStore("non-reference points past refs"));
        }
        let prob_mass = plan_rows(refs, nrefs, p_codec, &mut self.plan)?;
        if let Some(open) = self.rows.last_mut() {
            open.prob_mass = prob_mass;
        }
        Ok(())
    }

    /// Where trajectory `k`'s rows start in `refs` and `nrefs` (for
    /// `k = len`: where the next trajectory's will).
    fn first(&self, k: usize) -> Option<(usize, usize)> {
        if k == self.rows.len() {
            return Some((self.refs.len(), self.nrefs.len()));
        }
        let row = self.rows.get(k)?;
        Some((row.first_ref as usize, row.first_nref as usize))
    }
}

impl Table for TrajSegment {
    type View<'a> = TrajView<'a>;

    fn view(&self, k: usize) -> Option<TrajView<'_>> {
        let row = self.rows.get(k)?;
        let (ref0, nref0) = (row.first_ref as usize, row.first_nref as usize);
        let (ref1, nref1) = self.first(k + 1)?;
        Some(TrajView {
            id: row.id,
            n_times: row.n_times,
            refs: self.refs.get(ref0..ref1)?,
            nrefs: self.nrefs.get(nref0..nref1)?,
            // One plan row per instance.
            plan: TrajPlan {
                rows: self.plan.get(ref0 + nref0..ref1 + nref1)?,
                prob_mass: row.prob_mass,
            },
            arena: &self.arena,
            stream_end: &self.stream_end,
            // One `T` per earlier trajectory, three streams per earlier
            // instance.
            first_stream: k + 3 * (ref0 + nref0),
        })
    }

    fn copy(&self) -> (Self, usize) {
        let mut copied = 0;
        let copy = Self {
            rows: copy_vec(&self.rows, &mut copied),
            refs: copy_vec(&self.refs, &mut copied),
            nrefs: copy_vec(&self.nrefs, &mut copied),
            arena: copy_vec(&self.arena, &mut copied),
            stream_end: copy_vec(&self.stream_end, &mut copied),
            plan: copy_vec(&self.plan, &mut copied),
        };
        (copy, copied)
    }

    fn seal(&mut self) {
        self.rows.shrink_to_fit();
        self.refs.shrink_to_fit();
        self.nrefs.shrink_to_fit();
        self.arena.shrink_to_fit();
        self.stream_end.shrink_to_fit();
        self.plan.shrink_to_fit();
    }

    fn resident(&self, census: &mut Resident) {
        census.add("stream arena", vec_bytes(&self.arena));
        census.add("offset tables", vec_bytes(&self.stream_end));
        let rows = vec_bytes(&self.rows) + vec_bytes(&self.refs) + vec_bytes(&self.nrefs);
        census.add("rows and plans", rows + vec_bytes(&self.plan));
    }
}

impl Trajectories {
    /// The id of the trajectory at position `i` and its
    /// [`TrajPlan::prob_mass`], without building its view.
    pub(crate) fn id_and_mass(&self, i: usize) -> Option<(u64, f64)> {
        let row = self.segs.get(i / CHUNK)?.rows.get(i % CHUNK)?;
        Some((row.id, row.prob_mass))
    }

    /// Appends a compressed trajectory, building its query plan with
    /// the dataset's probability codec.
    pub fn push(&mut self, ct: &CompressedTrajectory, p_codec: &PddpCodec) -> Result<(), Error> {
        self.append(|seg| seg.push(ct, p_codec))
    }

    /// Appends the one trajectory of `one` ([`TrajSegment::of`]): a copy
    /// of its rows, plan and streams.
    pub(crate) fn push_packed(&mut self, one: &TrajSegment) -> Result<(), Error> {
        self.append(|seg| seg.extend(one))
    }
}

impl TrajSegment {
    /// A segment holding `ct` alone, its query plan built with
    /// `p_codec`: a trajectory packed apart from any dataset (and so on
    /// any thread), for [`Trajectories::push_packed`].
    pub(crate) fn of(ct: &CompressedTrajectory, p_codec: &PddpCodec) -> Result<Self, Error> {
        let mut seg = Self::default();
        seg.push(ct, p_codec)?;
        Ok(seg)
    }

    /// Appends `ct` as the next trajectory.
    fn push(&mut self, ct: &CompressedTrajectory, p_codec: &PddpCodec) -> Result<(), Error> {
        self.begin(ct.id, ct.n_times)?;
        self.stream(&mut ct.t_bits.reader(), ct.t_bits.len_bits())?;
        for r in &ct.refs {
            for b in [&r.e_bits, &r.tflag_bits, &r.d_bits] {
                self.stream(&mut b.reader(), b.len_bits())?;
            }
            self.refs.push(RefRow {
                p_code: r.p_code,
                orig_idx: r.orig_idx,
                sv: r.sv,
                n_entries: r.n_entries,
            });
        }
        for n in &ct.nrefs {
            for b in [&n.e_com, &n.t_com, &n.d_com] {
                self.stream(&mut b.reader(), b.len_bits())?;
            }
            self.nrefs.push(NrefRow {
                p_code: n.p_code,
                orig_idx: n.orig_idx,
                ref_idx: n.ref_idx,
            });
        }
        self.finish(p_codec)
    }

    /// Appends the one trajectory of `one` as the next: its rows, plan
    /// and arena copied, its stream ends moved past this arena's.
    fn extend(&mut self, one: &TrajSegment) -> Result<(), Error> {
        let row = one
            .rows
            .first()
            .ok_or(Error::CorruptStore("no packed trajectory"))?;
        let base = offset(self.arena.len() * 8)?;
        self.begin(row.id, row.n_times)?;
        if let Some(open) = self.rows.last_mut() {
            open.prob_mass = row.prob_mass;
        }
        self.refs.extend_from_slice(&one.refs);
        self.nrefs.extend_from_slice(&one.nrefs);
        self.plan.extend_from_slice(&one.plan);
        self.arena.extend_from_slice(&one.arena);
        for &end in &one.stream_end {
            let moved = end.checked_add(base);
            self.stream_end
                .push(moved.ok_or(Error::CorruptStore("segment past its 32-bit offsets"))?);
        }
        Ok(())
    }
}

impl std::ops::Index<usize> for Trajectories {
    type Output = TrajRow;

    /// The stored row (id, sample count) of the trajectory at `i`;
    /// [`Segments::get`] is the checked accessor of the whole view.
    fn index(&self, i: usize) -> &TrajRow {
        // bounds: same contract as `Vec` indexing, callers index `< len`
        &self.segs[i / CHUNK].rows[i % CHUNK]
    }
}

/// One compressed uncertain trajectory, borrowed from its segment: the
/// fields of a [`CompressedTrajectory`] over slices of the row tables
/// and of the stream arena.
#[derive(Clone, Copy)]
pub struct TrajView<'a> {
    /// Original trajectory id.
    pub id: u64,
    /// Number of shared timestamps.
    pub n_times: u32,
    /// Reference instances.
    pub refs: &'a [RefRow],
    /// Non-reference instances.
    pub nrefs: &'a [NrefRow],
    /// The query plan.
    pub plan: TrajPlan<'a>,
    arena: &'a [u8],
    stream_end: &'a [u32],
    /// Where the trajectory's `T` stream is in `stream_end`.
    first_stream: usize,
}

impl<'a> TrajView<'a> {
    /// Total number of instances.
    pub fn instance_count(&self) -> usize {
        self.refs.len() + self.nrefs.len()
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
        self.ref_streams(self.refs.len() + i)
    }

    /// Decodes the streams of reference `i`.
    pub fn decode_ref(
        &self,
        i: usize,
        w_e: u32,
        d_codec: &PddpCodec,
    ) -> Result<DecodedRef, CodecError> {
        let missing = CodecError::Malformed("reference index out of range");
        let n_entries = self.refs.get(i).ok_or(missing)?.n_entries as usize;
        let [e_bits, tflag_bits, d_bits] = self.ref_streams(i);
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

impl std::fmt::Debug for TrajView<'_> {
    /// Every field and stream of the trajectory, none of its
    /// neighbours'.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let refs = self.refs.iter().enumerate();
        let nrefs = self.nrefs.iter().enumerate();
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
        let p_codec = params.p_codec();
        let mut a = Trajectories::default();
        for ct in cts.iter().cycle().take(CHUNK + 10) {
            a.push(ct, &p_codec).unwrap();
        }
        let b = a.clone();
        let before = crate::hooks::copied_bytes();
        a.push(&cts[0], &p_codec).unwrap();
        let copied = crate::hooks::copied_bytes() - before;
        assert!(Arc::ptr_eq(&a.segs[0], &b.segs[0]), "sealed: shared");
        assert!(!Arc::ptr_eq(&a.segs[1], &b.segs[1]), "tail: copied out");
        // Other tests of this binary may copy tails too: at least ours.
        let tail = b.segs[1].copy().1;
        assert!(tail > 0 && copied >= tail as u64);
        assert_eq!((b.len(), a.len()), (CHUNK + 10, CHUNK + 11));
        assert!(b.get(CHUNK + 10).is_none(), "the clone is unaffected");
        assert_eq!(
            (a[CHUNK + 10].id, a.get(CHUNK + 10).unwrap().id),
            (cts[0].id, cts[0].id)
        );
        // A refused trajectory is an error, not a panic.
        let mut bad = cts[0].clone();
        bad.refs[0].orig_idx = 99;
        assert!(matches!(
            a.push(&bad, &p_codec),
            Err(Error::CorruptStore(_))
        ));
    }
}
