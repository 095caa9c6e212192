//! StIU: the Spatio-temporal Information based Uncertain Trajectory Index
//! (§5.2).
//!
//! Two parts per compressed trajectory:
//!
//! * a **temporal index**: the day is partitioned into equal intervals,
//!   and a trajectory is posted under every interval from its first
//!   sample's to its last's. (The paper also stores, per interval that
//!   holds a sample, a tuple `(t.start, t.no, t.pos)` to resume time
//!   decoding there; see the deviation below.)
//! * a **spatial index**: the plane is partitioned into an `n × n` grid.
//!   Each reference has a **group**: the regions its members (itself and
//!   its non-references) traverse (first traversal), each marked with
//!   whether the reference itself enters it. Each non-reference says
//!   which regions of its group it enters. The probability aggregates
//!   `p_total` / `p_max` that power the filtering lemmas are not held:
//!   [`TrajIndex::bounds`] derives them for the regions a query touches.
//!
//! **Layout.** A node holds what container v7 stores, unpacked only to
//! word and bit level. There is one `u32` **region word** per cell of a
//! group: the cell, plus two top bits, `enters` and "first cell of its
//! group". Groups run in reference order, each group's cells ascending.
//! There is one **membership bit** per (non-reference, cell of its
//! group), non-references in order. A group with no cell is one word
//! naming no cell, so every reference has a group. The shape holds only
//! the canonical index: a non-reference's regions are a subset of its
//! group's, each at most once. Containers before v6 stored (cell,
//! instance) tuples, a non-reference's in traversal order; `utcq
//! migrate` converts them and refuses tuples out of order, a cell
//! repeated or one outside its group ([`Stiu::push_tuples`]).
//!
//! **Deviation from §5.2** (`docs/ARCHITECTURE.md` has the argument
//! and the numbers). The paper's region tuples also hold a *resume
//! point* (`fv, fv.no, d.pos` / `rv, rv.no, ma.pos`) so that
//! decompression can start at the region, and its temporal tuples are
//! resume points into `T`. Nothing here resumes mid-stream: the query
//! engine in `query.rs` decodes whole instances and whole time
//! sequences through the decode cache, and brackets a query time in the
//! decoded sequence. So no resume point is computed, kept or stored;
//! the one bit the filters read of them is [`Group::enters`], and of
//! the temporal tuples a node keeps only their count. Both are a pure
//! function of (network, raw trajectory, streams) at ingest, so a later
//! container version can bring them back with the first query that
//! reads them. [`Stiu::size_bits`] still prices the paper's tuples.
//!
//! In memory the nodes are the index half of [`crate::segment`]: per
//! 1,024 trajectories one [`NodeSegment`] holding every region word and
//! membership bit in two flat tables, and per node where they end and
//! its temporal tuple count. A [`TrajIndex`] is one node borrowed from
//! them. The segment's third table is the time-partition postings of
//! its nodes, `(interval, position)` pairs: a pure function of the
//! nodes, derived as each is appended and never stored.

use std::fmt;
use std::sync::Arc;

use utcq_bitio::pddp::PddpCodec;
use utcq_bitio::BitSlice;
use utcq_network::{CellId, EdgeId, Grid, Point, RoadNetwork};
use utcq_traj::{Dataset, Instance, UncertainTrajectory};

use crate::compress::CompressedDataset;
use crate::error::Error;
use crate::par::par_in_order;
use crate::plan::Slot;
use crate::segment::{copy_vec, offset, vec_bytes, Resident, Segments, Table, TrajView, CHUNK};
use crate::siar;

/// Index construction parameters (the paper's Fig. 9 sweeps both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StiuParams {
    /// Time partition duration in seconds (paper default 15 min in the
    /// examples; Fig. 9 sweeps 10–60 min).
    pub partition_s: i64,
    /// Grid dimension `n` (n² cells; Fig. 9 sweeps 8–128).
    pub grid_n: u32,
}

/// Most time partitions one trajectory may span. The temporal index
/// registers a trajectory under *every* partition between its first and
/// last sample, so an unbounded span is unbounded index memory for one
/// input line; 65,536 partitions is about 1.9 years at the default
/// 15 min, orders of magnitude past any real trip.
pub const MAX_SPAN_PARTITIONS: u64 = 1 << 16;

/// Largest grid dimension `n` an index takes: the cells of an `n × n`
/// grid, and one value past them for a group with no cell, fit in the
/// cell bits of a region word.
pub const MAX_GRID_N: u32 = 1 << 14;

impl StiuParams {
    /// The partitions of `times`' first and last sample (`None` for an
    /// empty sequence).
    pub(crate) fn span(&self, times: &[i64]) -> Option<(i64, i64)> {
        let (first, last) = (times.first()?, times.last()?);
        Some((
            first.div_euclid(self.partition_s),
            last.div_euclid(self.partition_s),
        ))
    }
}

impl Default for StiuParams {
    fn default() -> Self {
        Self {
            partition_s: 900,
            grid_n: 32,
        }
    }
}

/// Bit 31 of a region word: the group's reference itself enters the
/// cell (the paper's `fv ≠ ∞`); otherwise only members of its `Rrs` do.
const ENTERS: u32 = 1 << 31;
/// Bit 30: the word opens its reference's group.
const FIRST: u32 = 1 << 30;
/// Bits 0 to 29: the cell.
const CELL: u32 = FIRST - 1;
/// The cell of the one word of a group with no cell: past every cell of
/// a grid of at most [`MAX_GRID_N`]² cells.
const NO_CELL: u32 = CELL;
const _: () = assert!((MAX_GRID_N as u64).pow(2) <= NO_CELL as u64);

/// One reference's group, borrowed from its node: the cells its members
/// traverse, ascending, as region words.
#[derive(Debug, Clone, Copy, Default)]
pub struct Group<'a>(&'a [u32]);

impl<'a> Group<'a> {
    /// The group whose words are `words` (a lone word naming no cell is
    /// the group with no cell).
    fn of(words: &'a [u32]) -> Self {
        match words {
            [only] if only & CELL == NO_CELL => Group(&[]),
            _ => Group(words),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no member traverses any cell.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The cells, ascending, each with whether the reference itself
    /// enters it.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, bool)> + 'a {
        self.0.iter().map(|&w| (CellId(w & CELL), w & ENTERS != 0))
    }

    /// Where `cell` is among the group's cells.
    pub fn position(&self, cell: CellId) -> Option<usize> {
        self.0.binary_search_by_key(&cell.0, |w| w & CELL).ok()
    }

    /// Whether the reference itself enters the group's `k`-th cell.
    pub fn enters(&self, k: usize) -> bool {
        self.0.get(k).is_some_and(|w| w & ENTERS != 0)
    }
}

/// One per-trajectory index node, borrowed from its [`NodeSegment`].
#[derive(Clone, Copy)]
pub struct TrajIndex<'a> {
    /// The region words (module docs).
    words: &'a [u32],
    /// The segment's membership bits; the node's are `n_bits` of them
    /// from `first_bit` on.
    bits: &'a [u64],
    first_bit: usize,
    n_bits: usize,
}

impl<'a> TrajIndex<'a> {
    /// The groups, one per reference, in reference order.
    pub fn groups(&self) -> impl Iterator<Item = Group<'a>> + 'a {
        self.words
            .chunk_by(|_, next| next & FIRST == 0)
            .map(Group::of)
    }

    /// Fills `starts` with the word at which each group starts, then the
    /// end of the last: what [`TrajIndex::group`], [`TrajIndex::members`]
    /// and [`TrajIndex::bounds`] look groups up in, so a lookup costs one
    /// pass over the words, not one per non-reference.
    pub fn group_starts(&self, starts: &mut Vec<u32>) {
        starts.clear();
        let firsts = (0..).zip(self.words).filter(|(_, w)| *w & FIRST != 0);
        starts.extend(firsts.map(|(i, _)| i));
        starts.push(self.words.len() as u32);
    }

    /// Group `r`, given the node's [`TrajIndex::group_starts`] (empty if
    /// there is no group `r`).
    pub fn group(&self, starts: &[u32], r: usize) -> Group<'a> {
        let words = match starts.get(r..r.saturating_add(2)) {
            Some(&[from, to]) => self.words.get(from as usize..to as usize),
            _ => None,
        };
        Group::of(words.unwrap_or_default())
    }

    /// Whether membership bit `i` of the node is set.
    fn member_bit(&self, i: usize) -> bool {
        let at = self.first_bit + i;
        i < self.n_bits
            && self
                .bits
                .get(at / 64)
                .is_some_and(|w| w >> (at % 64) & 1 == 1)
    }

    /// The node's membership bits, in order.
    pub(crate) fn member_bits(&self) -> impl ExactSizeIterator<Item = bool> + 'a {
        let node = *self;
        (0..self.n_bits).map(move |i| node.member_bit(i))
    }

    /// The non-references of group `r` that traverse its `k`-th cell,
    /// ascending: `owners` are the owning reference of each of the
    /// trajectory's non-references ([`TrajView::nref_owners`]), `starts`
    /// the node's group starts.
    pub fn members<'s>(
        &self,
        starts: &'s [u32],
        owners: impl IntoIterator<Item = u32, IntoIter: 's>,
        r: u32,
        k: usize,
    ) -> impl Iterator<Item = u32> + 's
    where
        'a: 's,
    {
        let node = *self;
        let mut first = 0;
        (0..).zip(owners).filter_map(move |(m, owner)| {
            let (at, len) = (first, node.group(starts, owner as usize).len());
            first += len;
            (owner == r && k < len && node.member_bit(at + k)).then_some(m)
        })
    }

    /// `(p_total, p_max)` of the `k`-th cell of group `r`: the bounds
    /// Lemma 1 and Lemma 4 read. `p_total` sums, from `0.0`, the
    /// probabilities of the members that traverse the cell in member
    /// order: the reference if it enters the cell, then its
    /// non-references in `ct.nrefs` order. `p_max` is the largest over
    /// those non-references (`0.0` if none does).
    ///
    /// The one place the bounds are computed, from the probability codes
    /// as every container stores them, so an index built, reopened or
    /// grown live answers alike to the last bit. A query calls it only
    /// for the cells it touches.
    pub fn bounds(
        &self,
        starts: &[u32],
        ct: &TrajView<'_>,
        p_codec: &PddpCodec,
        r: u32,
        k: usize,
    ) -> (f64, f64) {
        let mut p_total = 0.0;
        let mut p_max = 0.0f64;
        if self.group(starts, r as usize).enters(k) && (r as usize) < ct.ref_count() {
            p_total += p_codec.dequantize(ct.p_code(Slot::Ref(r)));
        }
        for m in self.members(starts, ct.nref_owners(), r, k) {
            let p = p_codec.dequantize(ct.p_code(Slot::NRef(m)));
            p_total += p;
            p_max = p_max.max(p);
        }
        (p_total, p_max)
    }

    /// The reference region tuples `(ref_idx, cell, enters)`: groups in
    /// reference order, each group's cells ascending.
    pub fn ref_tuples(&self) -> impl Iterator<Item = (u32, CellId, bool)> + 'a {
        let groups = (0..).zip(self.groups());
        groups.flat_map(|(r, g)| g.cells().map(move |(cell, enters)| (r, cell, enters)))
    }

    /// The non-reference region tuples `(nref_idx, cell)`: member by
    /// member, each member's cells ascending. `owners` are the owning
    /// reference of each of the trajectory's non-references
    /// ([`TrajView::nref_owners`]).
    pub fn nref_tuples(&self, owners: impl IntoIterator<Item = u32>) -> Vec<(u32, CellId)> {
        let mut starts = Vec::new();
        self.group_starts(&mut starts);
        let (mut bits, mut tuples) = (self.member_bits(), Vec::new());
        for (m, owner) in (0..).zip(owners) {
            for (cell, _) in self.group(&starts, owner as usize).cells() {
                if bits.next() == Some(true) {
                    tuples.push((m, cell));
                }
            }
        }
        tuples
    }

    /// How many reference and non-reference region tuples the node
    /// holds: cells of its groups, and membership bits set.
    pub fn tuple_counts(&self) -> (usize, usize) {
        let refs = self.groups().map(|g| g.len()).sum();
        (refs, self.member_bits().filter(|&set| set).count())
    }
}

impl fmt::Debug for TrajIndex<'_> {
    /// The node's tuples and bits, none of its neighbours'.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let groups = self.groups().map(|g| Vec::from_iter(g.cells()));
        let bits = self.member_bits().map(|set| if set { '1' } else { '0' });
        f.debug_struct("TrajIndex")
            .field("groups", &Vec::from_iter(groups))
            .field("members", &String::from_iter(bits))
            .finish()
    }
}

/// The index half of a segment ([`crate::segment`]): the nodes of up to
/// 1,024 trajectories in two flat tables, and their postings.
#[derive(Debug, Default)]
pub struct NodeSegment {
    /// Per node: the temporal tuples of the nodes up to it, counted
    /// (the paper's, one per interval that holds a sample, which only
    /// [`Stiu::size_bits`] reads), and where its region words and
    /// membership bits end (they start where the previous node's end).
    /// What lies past the last entry belongs to the node being built.
    ends: Vec<[u32; 3]>,
    /// Region words of every node, back to back.
    words: Vec<u32>,
    /// Membership bits of every node, back to back, each 64-bit word
    /// filled from its lowest bit; `n_bits` are in use.
    bits: Vec<u64>,
    n_bits: usize,
    /// `(interval, position)`: each node's position in its dataset under
    /// every interval from its first sample's to its last's. In
    /// arrival order in the tail; sealing sorts them, so a sealed
    /// segment answers an interval by binary search.
    postings: Vec<(i64, u32)>,
}

/// The nodes of an index, one per trajectory.
pub type Nodes = Segments<NodeSegment>;

impl NodeSegment {
    /// The node whose words and bits run from `from` to `to`.
    fn node(&self, from: [usize; 3], to: [usize; 3]) -> Option<TrajIndex<'_>> {
        let ([_, w0, b0], [_, w1, b1]) = (from, to);
        let n_bits = b1.checked_sub(b0).filter(|_| b1 <= self.n_bits)?;
        Some(TrajIndex {
            words: self.words.get(w0..w1)?,
            bits: &self.bits,
            first_bit: b0,
            n_bits,
        })
    }

    /// The positions of this segment's nodes registered under `interval`,
    /// ascending: a binary search in a sealed segment, a scan of the tail.
    fn postings(&self, interval: i64) -> impl Iterator<Item = u32> + '_ {
        let sealed = self.ends.len() == CHUNK;
        let from = match sealed {
            true => self.postings.partition_point(|&(k, _)| k < interval),
            false => 0,
        };
        let run = self.postings.get(from..).unwrap_or_default().iter();
        let run = run.take_while(move |&&(k, _)| !sealed || k == interval);
        run.filter(move |&&(k, _)| k == interval).map(|&(_, j)| j)
    }

    /// Where node `k` ends, or `k + 1` starts.
    fn end(&self, k: usize) -> Option<[usize; 3]> {
        Some(self.ends.get(k)?.map(|row| row as usize))
    }

    /// Where the node being built starts.
    fn open_from(&self) -> [usize; 3] {
        let closed = self.ends.len().checked_sub(1);
        closed.and_then(|k| self.end(k)).unwrap_or_default()
    }

    /// Closes the node being built, which counts `tuples` temporal
    /// tuples.
    fn close(&mut self, tuples: u32) -> Result<(), Error> {
        let [counted, ..] = self.open_from();
        let end = [
            offset(counted + tuples as usize)?,
            offset(self.words.len())?,
            offset(self.n_bits)?,
        ];
        self.ends.push(end);
        Ok(())
    }

    /// The temporal tuples of the segment's nodes, counted.
    fn tuples(&self) -> u64 {
        self.ends
            .last()
            .map_or(0, |&[counted, ..]| u64::from(counted))
    }

    /// Opens the next reference's group in the node being built and
    /// returns the row of its first word. Its cells follow, ascending
    /// ([`NodeSegment::push_cell`]); until the first, it is the group
    /// with no cell.
    pub(crate) fn open_group(&mut self) -> usize {
        self.words.push(FIRST | NO_CELL);
        self.words.len() - 1
    }

    /// Appends `cell` to the open group; refuses a cell that is not past
    /// the group's last one.
    pub(crate) fn push_cell(&mut self, cell: CellId, enters: bool) -> Result<(), Error> {
        if cell.0 >= NO_CELL {
            return Err(Error::CorruptStore("cell past the grid"));
        }
        let word = if enters { cell.0 | ENTERS } else { cell.0 };
        match self.words.last_mut() {
            Some(last) if *last & CELL == NO_CELL => *last = FIRST | word,
            Some(last) if *last & CELL >= cell.0 => {
                return Err(Error::CorruptStore("ref tuples out of order"))
            }
            _ => self.words.push(word),
        }
        Ok(())
    }

    /// Marks the cell at `row` (of the open group, rows from
    /// [`NodeSegment::open_group`]) as one its reference enters.
    pub(crate) fn enter(&mut self, row: usize) {
        if let Some(word) = self.words.get_mut(row) {
            *word |= ENTERS;
        }
    }

    /// Appends the next membership bit of the node being built.
    pub(crate) fn push_bit(&mut self, set: bool) {
        let at = self.n_bits % 64;
        if at == 0 {
            self.bits.push(0);
        }
        if let (true, Some(word)) = (set, self.bits.last_mut()) {
            *word |= 1 << at;
        }
        self.n_bits += 1;
    }

    /// Appends the region half of the node being built from tuples (see
    /// [`Stiu::push_tuples`]).
    fn push_tuples(
        &mut self,
        ct: &TrajView<'_>,
        refs: &[(u32, CellId, bool)],
        mut nrefs: &mut [(u32, CellId)],
    ) -> Result<(), Error> {
        let mut rest = refs.iter().peekable();
        for ref_idx in 0..ct.ref_count() as u32 {
            self.open_group();
            while let Some(&(_, cell, enters)) = rest.next_if(|t| t.0 == ref_idx) {
                self.push_cell(cell, enters)?;
            }
        }
        if rest.next().is_some() {
            return Err(Error::CorruptStore("ref tuples out of order"));
        }
        if !nrefs.is_sorted_by_key(|t| t.0) {
            return Err(Error::CorruptStore("nref tuples out of order"));
        }
        for (m, n) in (0..).zip(ct.nrefs()) {
            let len = nrefs.iter().take_while(|t| t.0 == m).count();
            let (member, tail) = std::mem::take(&mut nrefs).split_at_mut(len);
            nrefs = tail;
            member.sort_unstable_by_key(|t| t.1);
            let mut cells = member.iter().map(|t| t.1).peekable();
            // The reference tuples are sorted by `ref_idx` (checked above).
            let group = refs.partition_point(|t| t.0 < n.ref_idx)
                ..refs.partition_point(|t| t.0 <= n.ref_idx);
            for &(_, cell, _) in refs.get(group).unwrap_or_default() {
                self.push_bit(cells.next_if_eq(&cell).is_some());
            }
            if cells.next().is_some() {
                return Err(Error::CorruptStore("nref tuple outside its group"));
            }
        }
        Ok(())
    }
}

impl Stiu {
    /// Appends the node of trajectory `ct`, the next of the owning
    /// dataset, from its region tuples: `refs` as `(ref_idx, cell,
    /// enters)` and `nrefs` as `(nref_idx, cell)`, a member's cells in
    /// any order (this sorts them). The temporal tuple count and the
    /// postings are derived from `ct`'s time stream (`ts`: the dataset's
    /// default interval), as every node's are. Refuses reference tuples out of
    /// order or repeated, non-reference tuples out of member order, and a
    /// non-reference cell repeated or outside its group: the tuples this
    /// shape cannot hold. What `utcq migrate` rebuilds the index of a
    /// container before v6 from, tuple for tuple.
    pub fn push_tuples(
        &mut self,
        ct: &TrajView<'_>,
        ts: i64,
        refs: &[(u32, CellId, bool)],
        nrefs: &mut [(u32, CellId)],
    ) -> Result<(), Error> {
        let partition_s = self.params.partition_s;
        self.append_node(|node, _| {
            let times = time_span(ct.t_bits(), ct.n_times, ts, partition_s)?;
            node.push_tuples(ct, refs, nrefs)?;
            Ok(times)
        })
    }
}

impl NodeSegment {
    /// Appends the region words and membership bits of `regions` to the
    /// node being built.
    fn extend(&mut self, regions: TrajIndex<'_>) {
        self.words.extend_from_slice(regions.words);
        regions.member_bits().for_each(|set| self.push_bit(set));
    }
}

impl Table for NodeSegment {
    type View<'a> = TrajIndex<'a>;
    type Ctx = ();

    fn new((): ()) -> Self {
        Self::default()
    }

    fn view(&self, k: usize) -> Option<TrajIndex<'_>> {
        let from = match k.checked_sub(1) {
            Some(prev) => self.end(prev)?,
            None => [0; 3],
        };
        self.node(from, self.end(k)?)
    }

    fn copy(&self) -> (Self, usize) {
        let mut copied = 0;
        let copy = Self {
            ends: copy_vec(&self.ends, &mut copied),
            words: copy_vec(&self.words, &mut copied),
            bits: copy_vec(&self.bits, &mut copied),
            n_bits: self.n_bits,
            postings: copy_vec(&self.postings, &mut copied),
        };
        (copy, copied)
    }

    fn seal(&mut self) -> Result<(), Error> {
        self.ends.shrink_to_fit();
        self.words.shrink_to_fit();
        self.bits.shrink_to_fit();
        self.postings.sort_unstable();
        self.postings.shrink_to_fit();
        Ok(())
    }

    fn resident(&self, census: &mut Resident) {
        census.add("offset tables", vec_bytes(&self.ends));
        census.add("region cells", vec_bytes(&self.words));
        census.add("member bits", vec_bytes(&self.bits));
        census.add("postings", vec_bytes(&self.postings));
    }
}

/// The full index.
#[derive(Debug, Clone)]
pub struct Stiu {
    /// Construction parameters.
    pub params: StiuParams,
    /// The spatial grid.
    pub grid: Grid,
    /// The grid cells of every edge of the network: derived, and shared
    /// by every copy of the index.
    pub(crate) edges: Arc<EdgeCells>,
    /// One node per compressed trajectory (same order), with their
    /// interval postings, in segments so a live publish shares the
    /// sealed ones by pointer (see [`crate::segment`]).
    pub trajs: Nodes,
}

impl Stiu {
    /// Index size in bits, split into (spatial, temporal) — the paper's
    /// `s-size` / `t-size` of Fig. 9, a model over tuple *counts*: the
    /// paper's tuples (resume fields included, which this index does not
    /// hold) at the paper's field widths: 17-bit start, 12-bit sample
    /// index, 24-bit stream position, 32-bit vertex id, and `ηp` widths
    /// for the probability aggregates.
    pub fn size_bits(&self, p_width: u32) -> (u64, u64) {
        let tuples: u64 = self.trajs.segments().map(NodeSegment::tuples).sum();
        let t = tuples * (17 + 12 + 24);
        let mut s = 0u64;
        for node in &self.trajs {
            let (refs, nrefs) = node.tuple_counts();
            s += refs as u64 * (32 + 12 + 24 + 2 * u64::from(p_width));
            s += nrefs as u64 * (32 + 12 + 24);
        }
        (s, t)
    }

    /// Trajectories registered under `t`'s interval (any between their
    /// first and last sample), ascending by position: each segment's
    /// postings in segment order.
    pub fn trajs_in_interval(&self, t: i64) -> Vec<u32> {
        let interval = t.div_euclid(self.params.partition_s);
        let segs = self.trajs.segments();
        segs.flat_map(|seg| seg.postings(interval)).collect()
    }

    /// The distinct intervals any trajectory is registered under,
    /// ascending (`trajs_in_interval` of `k * partition_s` lists
    /// interval `k`).
    pub fn intervals(&self) -> Vec<i64> {
        let segs = self.trajs.segments();
        let mut keys: Vec<i64> = segs
            .flat_map(|seg| seg.postings.iter().map(|p| p.0))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// Per edge of a network, the cells of a grid that the whole edge
/// crosses, in order of travel: what [`region_cells`] reads for every
/// edge of a path but the first and the last, which it clips to the
/// samples. Built with the grid ([`Stiu::new`]), never stored.
#[derive(Debug, Default)]
pub struct EdgeCells {
    /// Per edge, where its cells end in `cells`.
    ends: Vec<u32>,
    cells: Vec<CellId>,
}

impl EdgeCells {
    /// The table of every edge of `net` over `grid`.
    pub fn new(net: &RoadNetwork, grid: &Grid) -> Self {
        let (mut table, mut along) = (Self::default(), Vec::new());
        for e in net.edges() {
            let (a, b) = (net.coord(net.edge_from(e)), net.coord(net.edge_to(e)));
            segment_cells(grid, a, b, &mut along);
            table.cells.extend(along.iter().map(|&(_, c)| c));
            table.ends.push(table.cells.len() as u32);
        }
        table
    }

    /// The cells of edge `e`, in order of travel.
    fn of(&self, e: EdgeId) -> &[CellId] {
        let start = e.idx().checked_sub(1).and_then(|prev| self.ends.get(prev));
        let end = self.ends.get(e.idx()).copied().unwrap_or_default();
        let range = start.copied().unwrap_or_default() as usize..end as usize;
        self.cells.get(range).unwrap_or_default()
    }
}

/// Fills `along` with the cells the segment `a → b` crosses, each with
/// the projection of its centre on the direction of travel, in that
/// order.
fn segment_cells(grid: &Grid, a: Point, b: Point, along: &mut Vec<(f64, CellId)>) {
    let bbox = utcq_network::Rect::point(a).union(utcq_network::Rect::point(b));
    along.clear();
    along.extend(
        grid.cells_in(&bbox)
            .filter(|&c| grid.cell_rect(c).intersects_segment(a, b))
            .map(|c| {
                let ctr = grid.cell_rect(c).center();
                let t = (ctr.x - a.x) * (b.x - a.x) + (ctr.y - a.y) * (b.y - a.y);
                (t, c)
            }),
    );
    along.sort_by(|x, y| x.0.total_cmp(&y.0));
}

/// The regions an instance traverses, in order of first traversal. The
/// instance occupies its path only between the first and last sample,
/// so the first and last edge are clipped to them; every other edge's
/// cells come from `edges`. (Its group holds the same cells in
/// ascending order, the order of the module docs.)
pub fn region_cells(
    net: &RoadNetwork,
    inst: &Instance,
    grid: &Grid,
    edges: &EdgeCells,
) -> Vec<CellId> {
    let first = inst.location(net, 0);
    let last = inst.location(net, inst.positions.len() - 1);
    let first_pt = net.point_on_edge(first.edge, first.ndist);
    let last_pt = net.point_on_edge(last.edge, last.ndist);

    let mut visited = Vec::new();
    // An instance crosses few cells: a linear scan beats hashing.
    let mut visit = |c: CellId| {
        if !visited.contains(&c) {
            visited.push(c);
        }
    };
    let mut along = Vec::new();
    let last_j = inst.path.len() - 1;
    for (j, &e) in inst.path.iter().enumerate() {
        if j != 0 && j != last_j {
            edges.of(e).iter().for_each(|&c| visit(c));
            continue;
        }
        let (a, b) = (net.coord(net.edge_from(e)), net.coord(net.edge_to(e)));
        let a = if j == 0 { first_pt } else { a };
        let b = if j == last_j { last_pt } else { b };
        segment_cells(grid, a, b, &mut along);
        along.iter().for_each(|&(_, c)| visit(c));
    }
    visited
}

/// What a trajectory's time stream gives its index node: the times of
/// its first and last sample (`None` without samples), between which
/// the node is posted, and how many intervals of `partition_s` hold a
/// sample — the paper's temporal tuple count, which only Fig. 9's model
/// reads ([`Stiu::size_bits`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TimeSpan {
    pub(crate) samples: Option<(i64, i64)>,
    pub(crate) tuples: u32,
}

/// Walks a trajectory's time stream for its [`TimeSpan`]. A pure
/// function of the stream, so containers store none of it:
/// [`build_node`] and the reader both call this.
pub(crate) fn time_span(
    t_bits: BitSlice<'_>,
    n_times: u32,
    ts: i64,
    partition_s: i64,
) -> Result<TimeSpan, Error> {
    let (mut span, mut last) = (TimeSpan::default(), None);
    let sample = |_, t: i64, _| {
        let interval = Some(t.div_euclid(partition_s));
        if interval != last {
            last = interval;
            span.tuples += 1;
        }
        span.samples = Some((span.samples.map_or(t, |(first, _)| first), t));
    };
    siar::walk(&mut t_bits.reader(), n_times as usize, ts, sample)?;
    Ok(span)
}

/// The node of one trajectory, built apart from any index and so on any
/// thread: a segment holding that one node, and its time span, for
/// [`Stiu::append`]. `index` gives the parameters, grid and edge cells;
/// `ts` is the dataset's default interval.
pub(crate) fn build_node(
    net: &RoadNetwork,
    tu: &UncertainTrajectory,
    ct: &TrajView<'_>,
    index: &Stiu,
    ts: i64,
) -> Result<(NodeSegment, TimeSpan), Error> {
    let mut seg = NodeSegment::default();
    let times = build_traj(&mut seg, net, tu, ct, index, ts)?;
    seg.close(times.tuples)?;
    Ok((seg, times))
}

impl Stiu {
    /// An empty index over a network: the grid is fixed up front (it
    /// depends only on the network bounds and `grid_n`), trajectories are
    /// appended as a store ingests them. Refuses a partition length below one
    /// second and a grid dimension of 0 or past [`MAX_GRID_N`].
    pub fn new(net: &RoadNetwork, params: StiuParams) -> Result<Self, Error> {
        if params.partition_s <= 0 || params.grid_n == 0 || params.grid_n > MAX_GRID_N {
            return Err(Error::CorruptStore("index parameters out of range"));
        }
        Ok(Self::over(net, params))
    }

    /// [`Stiu::new`] for parameters known to be in range.
    pub(crate) fn over(net: &RoadNetwork, params: StiuParams) -> Self {
        let grid = Grid::over_network(net, params.grid_n);
        let edges = Arc::new(EdgeCells::new(net, &grid));
        Stiu {
            params,
            grid,
            edges,
            trajs: Nodes::new(()),
        }
    }

    /// An index with this one's parameters, grid and edge cells and no
    /// node: what a batch is indexed against while this one grows.
    pub(crate) fn blank(&self) -> Self {
        Stiu {
            trajs: Nodes::new(()),
            ..self.clone()
        }
    }

    /// Appends the node [`build_node`] built for the next trajectory, and
    /// its postings — the incremental-ingest path: nothing previously
    /// indexed is touched.
    ///
    /// The trajectory's position must equal `self.trajs.len()` in the
    /// owning [`CompressedDataset`]'s trajectories. After an error the
    /// index must be dropped (`Segments::append`).
    pub(crate) fn append(&mut self, (built, times): &(NodeSegment, TimeSpan)) -> Result<(), Error> {
        let node = built.view(0).ok_or(Error::CorruptStore("no node built"))?;
        let j = offset(self.trajs.len())?;
        let span = times.samples.and_then(|(a, b)| self.params.span(&[a, b]));
        self.trajs.append(|seg| {
            seg.extend(node);
            if let Some((first, last)) = span {
                // One crafted stream must not post the node under an
                // unbounded run of partitions.
                if last.abs_diff(first) >= MAX_SPAN_PARTITIONS {
                    return Err(Error::CorruptStore("temporal span too long"));
                }
                seg.postings
                    .extend((first..=last).map(|interval| (interval, j)));
            }
            seg.close(times.tuples)
        })
    }

    /// Appends one node, whose tuples `fill` (given the grid) pushes onto
    /// a segment of its own before it returns the node's time span, by
    /// [`Stiu::append`]: so the tail grows node by node however its nodes
    /// came to be. The node is posted under every interval between its
    /// first and last sample — including sample-free gap intervals,
    /// which the trajectory may still cross (a span of
    /// [`MAX_SPAN_PARTITIONS`] or more is refused). The postings are a
    /// pure function of the nodes, which is why containers do not store
    /// them.
    pub(crate) fn append_node<E: From<Error>>(
        &mut self,
        fill: impl FnOnce(&mut NodeSegment, &Grid) -> Result<TimeSpan, E>,
    ) -> Result<(), E> {
        let mut one = NodeSegment::default();
        let times = fill(&mut one, &self.grid)?;
        one.close(times.tuples)?;
        Ok(self.append(&(one, times))?)
    }
}

/// Builds the index from the original dataset and its compressed form.
///
/// The paper constructs the index *during* compression; we take both
/// views to keep the phases separable for benchmarking. The nodes are
/// built on the work queue and appended in order, as a store's ingest
/// does; panics where that returns an error.
pub fn build(net: &RoadNetwork, ds: &Dataset, cds: &CompressedDataset, params: StiuParams) -> Stiu {
    try_build(net, ds, cds, params).expect("a dataset the index can hold")
}

/// [`build`], or why the index cannot hold the dataset.
pub(crate) fn try_build(
    net: &RoadNetwork,
    ds: &Dataset,
    cds: &CompressedDataset,
    params: StiuParams,
) -> Result<Stiu, Error> {
    let mut stiu = Stiu::new(net, params)?;
    let blank = stiu.blank();
    let n = ds.trajectories.len().min(cds.trajectories.len());
    let node = |i: usize| {
        let missing = || Error::CorruptStore("trajectory past the dataset");
        let tu = ds.trajectories.get(i).ok_or_else(missing)?;
        let ct = cds.trajectories.get(i).ok_or_else(missing)?;
        build_node(net, tu, &ct, &blank, cds.params.default_interval)
    };
    par_in_order(n, node, |_, built| stiu.append(built))?;
    Ok(stiu)
}

/// Pushes one trajectory's node onto `node`'s tables and returns its
/// time span: per reference its group, the union of its members' cells,
/// ascending, each marked if the reference itself enters it; per
/// non-reference one bit per cell of its group, set where it enters.
fn build_traj(
    node: &mut NodeSegment,
    net: &RoadNetwork,
    tu: &UncertainTrajectory,
    ct: &TrajView<'_>,
    index: &Stiu,
    ts: i64,
) -> Result<TimeSpan, Error> {
    let times = time_span(ct.t_bits(), ct.n_times, ts, index.params.partition_s)?;

    // Per-instance region lists.
    let visits: Vec<Vec<CellId>> = tu
        .instances
        .iter()
        .map(|inst| region_cells(net, inst, &index.grid, &index.edges))
        .collect();
    let visited = |orig_idx: u32| visits.get(orig_idx as usize).map(Vec::as_slice);

    // Group = reference + its non-references.
    let mut groups = Vec::with_capacity(ct.ref_count());
    for (ref_idx, cref) in (0..).zip(ct.refs()) {
        let nrefs = ct.nrefs().filter(|n| n.ref_idx == ref_idx);
        let members = std::iter::once(cref.orig_idx).chain(nrefs.map(|n| n.orig_idx));
        let mut cells: Vec<CellId> = members
            .flat_map(|m| visited(m).unwrap_or_default().iter().copied())
            .collect();
        cells.sort_unstable();
        cells.dedup();
        node.open_group();
        let own = visited(cref.orig_idx).unwrap_or_default();
        for &cell in &cells {
            node.push_cell(cell, own.contains(&cell))?;
        }
        groups.push(cells);
    }

    // Membership bits, non-reference by non-reference.
    for n in ct.nrefs() {
        let own = visited(n.orig_idx).unwrap_or_default();
        let group = groups.get(n.ref_idx as usize).map(Vec::as_slice);
        for cell in group.unwrap_or_default() {
            node.push_bit(own.contains(cell));
        }
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_dataset;
    use crate::params::CompressParams;
    use utcq_traj::paper_fixture;

    impl Nodes {
        /// Appends a node: the region words and membership bits of
        /// `regions` as its own, no temporal tuple and no postings
        /// ([`Stiu::append_node`] posts an index's nodes).
        pub(crate) fn push(&mut self, regions: TrajIndex<'_>) -> Result<(), Error> {
            self.append(|seg| {
                seg.extend(regions);
                seg.close(0)
            })
        }
    }

    fn paper_store() -> (utcq_network::RoadNetwork, Dataset, CompressedDataset) {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu],
        };
        let params = CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL);
        let cds = compress_dataset(&fx.example.net, &ds, &params).unwrap();
        (fx.example.net, ds, cds)
    }

    #[test]
    fn temporal_tuples_partition_correctly() {
        let (net, ds, cds) = paper_store();
        // 15-minute partitions: samples 5:03–5:27 span [5:00,5:15) and
        // [5:15,5:30) → two tuples.
        let stiu = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 900,
                grid_n: 8,
            },
        );
        assert_eq!(stiu.size_bits(9).1, 2 * (17 + 12 + 24));
        let ct = cds.trajectories.get(0).unwrap();
        let times = time_span(ct.t_bits(), ct.n_times, cds.params.default_interval, 900);
        let times_of = &ds.trajectories[0].times;
        let (first, last) = (times_of[0], *times_of.last().unwrap());
        assert_eq!(first, paper_fixture::hms(5, 3, 25));
        let expect = TimeSpan {
            samples: Some((first, last)),
            tuples: 2,
        };
        assert_eq!(times.unwrap(), expect);
        // The node is posted under both intervals, and no other.
        assert_eq!(stiu.intervals(), [first / 900, first / 900 + 1]);
    }

    #[test]
    fn spatial_tuples_cover_visited_cells() {
        let (net, ds, cds) = paper_store();
        let stiu = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 900,
                grid_n: 4,
            },
        );
        let node = stiu.trajs.get(0).unwrap();
        assert!(node.ref_tuples().next().is_some());
        // Every instance's first region contains its first sample.
        let grid = &stiu.grid;
        let inst = &ds.trajectories[0].instances[0];
        let l0 = inst.location(&net, 0);
        let cell0 = grid.cell_of(net.point_on_edge(l0.edge, l0.ndist));
        // p_total in the first cell covers all three instances (they share
        // the first edge).
        let (r, _, _) = node.ref_tuples().find(|t| t.1 == cell0).unwrap();
        let mut starts = Vec::new();
        node.group_starts(&mut starts);
        let k = node.group(&starts, r as usize).position(cell0).unwrap();
        let ct = cds.trajectories.get(0).unwrap();
        let bounds = node.bounds(&starts, &ct, &cds.params.p_codec(), r, k);
        let (p_total, p_max) = bounds;
        assert!((p_total - 1.0).abs() < 0.01, "p_total={p_total}");
        assert!((0.19..0.25).contains(&p_max), "p_max={p_max}");
    }

    #[test]
    fn interval_map_lists_trajectories() {
        let (net, ds, cds) = paper_store();
        let stiu = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 900,
                grid_n: 8,
            },
        );
        assert_eq!(stiu.trajs_in_interval(paper_fixture::hms(5, 5, 0)), &[0]);
        assert_eq!(stiu.trajs_in_interval(paper_fixture::hms(5, 20, 0)), &[0]);
        assert!(stiu
            .trajs_in_interval(paper_fixture::hms(9, 0, 0))
            .is_empty());
    }

    /// Posts a bare node under `first..=last` (its samples'
    /// intervals).
    fn post(stiu: &mut Stiu, (first, last): (i64, i64)) {
        let ps = stiu.params.partition_s;
        let fill = |_: &mut NodeSegment, _: &Grid| {
            Ok::<_, Error>(TimeSpan {
                samples: Some((first * ps, last * ps)),
                tuples: 2,
            })
        };
        stiu.append_node(fill).unwrap();
    }

    /// An index of `n` bare nodes, node `j` posted under `span(j)`.
    fn posted(n: u32, span: impl Fn(u32) -> (i64, i64)) -> Stiu {
        let (net, ..) = paper_store();
        let mut stiu = Stiu::new(&net, StiuParams::default()).unwrap();
        (0..n).for_each(|j| post(&mut stiu, span(j)));
        stiu
    }

    #[test]
    fn interval_postings_merge_across_sealed_segments_and_the_tail() {
        let n = CHUNK as u32 + 50;
        let stiu = posted(n, |j| (i64::from(j % 5), i64::from(j % 5) + 1));
        let mut merged = std::collections::BTreeMap::<i64, Vec<u32>>::new();
        for j in 0..n {
            let k = i64::from(j % 5);
            merged.entry(k).or_default().push(j);
            merged.entry(k + 1).or_default().push(j);
        }
        assert_eq!(stiu.trajs.segments().count(), 2);
        assert_eq!(stiu.intervals(), Vec::from_iter(merged.keys().copied()));
        let ps = stiu.params.partition_s;
        for (&k, v) in &merged {
            assert_eq!(&stiu.trajs_in_interval(k * ps + 1), v, "interval {k}");
        }
        assert!(stiu.trajs_in_interval(999 * ps).is_empty());
    }

    #[test]
    fn interval_union_matches_the_per_key_merge() {
        let n = 2 * CHUNK as u32 + 77;
        let stiu = posted(n, |j| (i64::from(j % 7), i64::from(j % 7) + 2));
        let ps = stiu.params.partition_s;
        for (first, last) in [(0i64, 0i64), (0, 3), (2, 8), (-5, -1), (5, 40)] {
            let crosses = |j: &u32| (first - 2..=last).contains(&i64::from(j % 7));
            let expect = Vec::from_iter((0..n).filter(crosses));
            let mut got =
                Vec::from_iter((first..=last).flat_map(|k| stiu.trajs_in_interval(k * ps)));
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, expect, "union {first}..={last}");
        }
    }

    #[test]
    fn a_clone_shares_sealed_postings_and_copies_the_tail_once() {
        let mut a = posted(CHUNK as u32 + 10, |_| (0, 0));
        let b = a.clone();
        let segs = |s: &Stiu| Vec::from_iter(s.trajs.segments().map(std::ptr::from_ref));
        post(&mut a, (0, 0));
        let tail = segs(&a)[1];
        post(&mut a, (0, 0));
        let (sa, sb) = (segs(&a), segs(&b));
        assert_eq!(sa[0], sb[0], "sealed: shared");
        assert!(sa[1] != sb[1] && sa[1] == tail, "tail: copied once");
        assert_eq!(
            b.trajs_in_interval(0).len(),
            CHUNK + 10,
            "the clone is unaffected"
        );
        assert_eq!(a.trajs_in_interval(0).len(), CHUNK + 12);
    }

    #[test]
    fn index_size_scales_with_partitions() {
        let (net, ds, cds) = paper_store();
        let coarse = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 3600,
                grid_n: 8,
            },
        );
        let fine = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 600,
                grid_n: 8,
            },
        );
        let (s_c, t_c) = coarse.size_bits(9);
        let (s_f, t_f) = fine.size_bits(9);
        assert_eq!(s_c, s_f, "spatial size independent of time partition");
        assert!(t_f >= t_c, "finer partitions add temporal tuples");

        let few = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 900,
                grid_n: 2,
            },
        );
        let many = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 900,
                grid_n: 32,
            },
        );
        let (s_few, _) = few.size_bits(9);
        let (s_many, _) = many.size_bits(9);
        assert!(s_many >= s_few, "finer grids add spatial tuples");
    }

    #[test]
    fn region_tuples_are_the_cell_lists_of_the_instances() {
        let (net, ds, cds) = paper_store();
        let stiu = build(
            &net,
            &ds,
            &cds,
            StiuParams {
                partition_s: 900,
                grid_n: 4,
            },
        );
        let node = stiu.trajs.get(0).unwrap();
        let ct = cds.trajectories.get(0).unwrap();
        let cells = |orig_idx: u32| {
            let inst = &ds.trajectories[0].instances[orig_idx as usize];
            region_cells(&net, inst, &stiu.grid, &stiu.edges)
        };
        // A non-reference's tuples are its cell list, ascending.
        let nref_tuples = node.nref_tuples(ct.nref_owners());
        assert!(!nref_tuples.is_empty());
        for (i, n) in ct.nrefs().enumerate() {
            let tuples = nref_tuples.iter().filter(|t| t.0 == i as u32);
            let listed: Vec<CellId> = tuples.map(|t| t.1).collect();
            let mut own = cells(n.orig_idx);
            own.sort();
            assert_eq!(listed, own, "non-reference {i}");
        }
        // A reference's tuples are its group's cells, ascending; the
        // ones it enters itself are its own cell list.
        for (i, r) in ct.refs().enumerate() {
            let tuples = node.ref_tuples().filter(|t| t.0 == i as u32);
            let entered: Vec<CellId> = tuples.filter(|t| t.2).map(|t| t.1).collect();
            let mut own = cells(r.orig_idx);
            own.sort();
            assert_eq!(entered, own, "reference {i}");
        }
    }

    /// `region_cells` as it was before it reused one buffer per call: a
    /// hash set of the cells seen and a fresh vector per edge — the
    /// reference the rewrite is checked against.
    fn region_cells_reference(net: &RoadNetwork, inst: &Instance, grid: &Grid) -> Vec<CellId> {
        let first = inst.location(net, 0);
        let last = inst.location(net, inst.positions.len() - 1);
        let first_pt = net.point_on_edge(first.edge, first.ndist);
        let last_pt = net.point_on_edge(last.edge, last.ndist);

        let mut seen = std::collections::HashSet::new();
        let mut visited = Vec::new();
        for (j, &e) in inst.path.iter().enumerate() {
            let mut a = net.coord(net.edge_from(e));
            let mut b = net.coord(net.edge_to(e));
            if j == 0 {
                a = first_pt;
            }
            if j == inst.path.len() - 1 {
                b = last_pt;
            }
            let bbox = utcq_network::Rect::point(a).union(utcq_network::Rect::point(b));
            let mut cells: Vec<(f64, CellId)> = grid
                .cells_overlapping(&bbox)
                .into_iter()
                .filter(|&c| grid.cell_rect(c).intersects_segment(a, b))
                .map(|c| {
                    let ctr = grid.cell_rect(c).center();
                    // Order by projection along the direction of travel.
                    let t = (ctr.x - a.x) * (b.x - a.x) + (ctr.y - a.y) * (b.y - a.y);
                    (t, c)
                })
                .collect();
            cells.sort_by(|x, y| x.0.total_cmp(&y.0));
            visited.extend(
                cells
                    .into_iter()
                    .map(|(_, c)| c)
                    .filter(|&c| seen.insert(c)),
            );
        }
        visited
    }

    #[test]
    fn region_cells_equal_the_hash_set_reference() {
        use utcq_datagen::profile;
        for p in [profile::dk(), profile::cd(), profile::hz()] {
            let (net, ds) = utcq_datagen::generate(&p, 300, 7);
            for grid_n in [StiuParams::default().grid_n, 256] {
                let grid = Grid::over_network(&net, grid_n);
                let edges = EdgeCells::new(&net, &grid);
                for inst in ds.trajectories.iter().flat_map(|tu| &tu.instances) {
                    let want = region_cells_reference(&net, inst, &grid);
                    assert_eq!(
                        region_cells(&net, inst, &grid, &edges),
                        want,
                        "{} {grid_n}",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn a_group_with_no_cell_keeps_its_place() {
        // Three groups, the middle one with no cell: its word names no
        // cell, and the members of the groups around it find their bits.
        let mut seg = NodeSegment::default();
        seg.open_group();
        seg.push_cell(CellId(3), true).unwrap();
        seg.push_cell(CellId(7), false).unwrap();
        seg.open_group();
        seg.open_group();
        seg.push_cell(CellId(5), false).unwrap();
        for set in [false, true, true] {
            seg.push_bit(set);
        }
        seg.close(0).unwrap();
        let node = seg.view(0).unwrap();
        let lens: Vec<usize> = node.groups().map(|g| g.len()).collect();
        assert_eq!(lens, [2, 0, 1]);
        let owners = [0, 2];
        assert_eq!(node.nref_tuples(owners), [(0, CellId(7)), (1, CellId(5))]);
        let mut starts = Vec::new();
        node.group_starts(&mut starts);
        let members = |r, k| Vec::from_iter(node.members(&starts, owners, r, k));
        assert_eq!(
            (members(0, 0), members(0, 1), members(2, 0)),
            (vec![], vec![0], vec![1])
        );
        assert_eq!(node.tuple_counts(), (3, 2));
        // Cells run ascending within a group.
        seg.open_group();
        seg.push_cell(CellId(4), false).unwrap();
        assert!(seg.push_cell(CellId(4), false).is_err());
    }

    #[test]
    fn grids_past_the_region_word_are_refused() {
        let (net, ..) = paper_store();
        for (partition_s, grid_n) in [(900, MAX_GRID_N + 1), (900, 0), (0, 8)] {
            let params = StiuParams {
                partition_s,
                grid_n,
            };
            assert!(Stiu::new(&net, params).is_err(), "{params:?}");
        }
        let widest = StiuParams {
            partition_s: 900,
            grid_n: MAX_GRID_N,
        };
        assert!(Stiu::new(&net, widest).is_ok());
    }
}
