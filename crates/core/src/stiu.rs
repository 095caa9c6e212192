//! StIU: the Spatio-temporal Information based Uncertain Trajectory Index
//! (§5.2).
//!
//! Two parts per compressed trajectory:
//!
//! * a **temporal index**: the day is partitioned into equal intervals;
//!   each interval containing at least one timestamp stores a tuple
//!   `(t.start, t.no, t.pos)` — the earliest timestamp in the interval,
//!   its index, and the bit position of the following deviation code in
//!   the compressed time stream, so time decoding can resume mid-stream;
//! * a **spatial index**: the plane is partitioned into an `n × n` grid;
//!   each instance gets one tuple per region it traverses (first
//!   traversal). Reference tuples carry whether the reference itself
//!   enters the region and the probability aggregates `p_total` /
//!   `p_max` over the reference's group that power the filtering lemmas;
//!   a non-reference tuple is the region and the member that enters it.
//!
//! **Canonical order.** A node's reference tuples run reference by
//! reference (`ref_idx` ascending), each group's cells ascending; its
//! non-reference tuples run member by member (`nref_idx` ascending),
//! each member's cells ascending, and every one of them is a cell of
//! its group. Index construction produces that order and the container
//! readers check it (`NodeSegment::canonicalize`), which is what lets
//! container v6 store a group as sorted cell gaps and a member as one
//! bit per cell of its group.
//!
//! **Deviation from §5.2** (`docs/ARCHITECTURE.md` has the argument).
//! The paper's tuples also hold a *resume point* (`fv, fv.no, d.pos` /
//! `rv, rv.no, ma.pos`) so that decompression can start at the region.
//! Nothing here resumes mid-instance (the query engine in `query.rs`
//! decodes whole instances through the decode cache), so those fields
//! had no reader and are neither computed, kept nor stored; the one bit
//! the filters read of them is [`RefRegionTuple::enters`]. They are a
//! pure function of (network, raw trajectory, streams) at ingest, so a
//! later container version can bring them back with the first query
//! that reads them. [`Stiu::size_bits`] still prices the paper's tuple.
//!
//! In memory the nodes are the index half of [`crate::segment`]: per
//! 1,024 trajectories one [`NodeSegment`] holding every temporal,
//! reference and non-reference tuple in three flat tables, and per node
//! the rows at which its tuples end. A [`TrajIndex`] is one node
//! borrowed from them.

use utcq_bitio::pddp::PddpCodec;
use utcq_network::{CellId, Grid, RoadNetwork};
use utcq_traj::{Dataset, Instance, UncertainTrajectory};

use crate::chunk::IntervalMap;
use crate::compress::CompressedDataset;
use crate::error::Error;
use crate::segment::{copy_vec, offset, vec_bytes, Resident, Segments, Table, TrajView};
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

/// Temporal tuple `(t.start, t.no, t.pos)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalTuple {
    /// Earliest timestamp of the trajectory inside the interval.
    pub start: i64,
    /// Index of `start` in the time sequence.
    pub no: u32,
    /// Bit position of the next deviation code in `t_bits` (= end of the
    /// stream for the final sample).
    pub pos: u32,
}

/// Spatial tuple of a reference for one region: 24-byte rows (the
/// reference tuples are the largest table of a store).
#[derive(Debug, Clone, Copy)]
pub struct RefRegionTuple {
    /// The region.
    pub cell: CellId,
    /// `ref_idx` in the low 31 bits, `enters` in the top one.
    ref_enters: u32,
    /// Sum of probabilities of group members traversing the region.
    pub p_total: f64,
    /// Maximum probability among *non-reference* group members
    /// traversing the region (0 when none does) — Lemma 1's filter.
    pub p_max: f64,
}

const ENTERS: u32 = 1 << 31;
const _: () = assert!(std::mem::size_of::<RefRegionTuple>() == 24);

impl RefRegionTuple {
    /// A tuple with both bounds at zero
    /// (`NodeSegment::fill_group_bounds` derives them).
    pub fn new(cell: CellId, ref_idx: u32, enters: bool) -> Result<Self, Error> {
        if ref_idx >= ENTERS {
            return Err(Error::CorruptStore("reference index past 2^31"));
        }
        Ok(RefRegionTuple {
            cell,
            ref_enters: ref_idx | if enters { ENTERS } else { 0 },
            p_total: 0.0,
            p_max: 0.0,
        })
    }

    /// Index into [`TrajView::refs`].
    pub fn ref_idx(&self) -> u32 {
        self.ref_enters & !ENTERS
    }

    /// Whether the reference itself enters the region (the paper's
    /// `fv ≠ ∞`); otherwise only members of its `Rrs` do.
    pub fn enters(&self) -> bool {
        self.ref_enters & ENTERS != 0
    }
}

/// Spatial tuple of a non-reference for one region. A member's tuples
/// are side by side, cells ascending, each a cell of its group (the
/// canonical order of the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NrefRegionTuple {
    /// The region.
    pub cell: CellId,
    /// Index into [`TrajView::nrefs`].
    pub nref_idx: u32,
}

/// One per-trajectory index node, borrowed from its [`NodeSegment`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TrajIndex<'a> {
    /// Temporal tuples sorted by `start`.
    pub temporal: &'a [TemporalTuple],
    /// Reference region tuples.
    pub ref_tuples: &'a [RefRegionTuple],
    /// Non-reference region tuples.
    pub nref_tuples: &'a [NrefRegionTuple],
}

impl<'a> TrajIndex<'a> {
    /// The temporal tuple with the largest `start ≤ t`, if any.
    pub fn temporal_at(&self, t: i64) -> Option<&'a TemporalTuple> {
        let i = self.temporal.partition_point(|tt| tt.start <= t);
        self.temporal.get(i.checked_sub(1)?)
    }

    /// Reference tuples for a region.
    pub fn refs_in(&self, cell: CellId) -> impl Iterator<Item = &'a RefRegionTuple> {
        self.ref_tuples.iter().filter(move |t| t.cell == cell)
    }

    /// Non-reference tuples for a region.
    pub fn nrefs_in(&self, cell: CellId) -> impl Iterator<Item = &'a NrefRegionTuple> {
        self.nref_tuples.iter().filter(move |t| t.cell == cell)
    }

    /// The partitions of the first and last temporal tuple: those of the
    /// trajectory's first and last sample (`None` without samples).
    pub(crate) fn span(&self, params: &StiuParams) -> Option<(i64, i64)> {
        let (first, last) = (self.temporal.first()?, self.temporal.last()?);
        params.span(&[first.start, last.start])
    }
}

/// The index half of a segment ([`crate::segment`]): the nodes of up to
/// 1,024 trajectories in three flat tuple tables.
#[derive(Debug, Default)]
pub struct NodeSegment {
    /// Per node: the rows at which its temporal, reference and
    /// non-reference tuples end (they start where the previous node's
    /// end). Tuples past the last entry belong to the node being built.
    ends: Vec<[u32; 3]>,
    pub(crate) temporal: Vec<TemporalTuple>,
    pub(crate) ref_tuples: Vec<RefRegionTuple>,
    pub(crate) nref_tuples: Vec<NrefRegionTuple>,
}

/// The nodes of an index, one per trajectory.
pub type Nodes = Segments<NodeSegment>;

impl NodeSegment {
    /// The node whose tuples run from the rows `from` to the rows `to`.
    fn node(&self, from: [usize; 3], to: [usize; 3]) -> Option<TrajIndex<'_>> {
        Some(TrajIndex {
            temporal: self.temporal.get(from[0]..to[0])?,
            ref_tuples: self.ref_tuples.get(from[1]..to[1])?,
            nref_tuples: self.nref_tuples.get(from[2]..to[2])?,
        })
    }

    /// The rows at which node `k` ends, or starts for `k + 1`.
    fn end(&self, k: usize) -> Option<[usize; 3]> {
        Some(self.ends.get(k)?.map(|row| row as usize))
    }

    /// The rows at which the node being built starts.
    fn open_from(&self) -> [usize; 3] {
        let closed = self.ends.len().checked_sub(1);
        closed.and_then(|k| self.end(k)).unwrap_or_default()
    }

    /// The node being built: every tuple pushed since the last
    /// [`NodeSegment::close`].
    fn open(&self) -> TrajIndex<'_> {
        let to = [
            self.temporal.len(),
            self.ref_tuples.len(),
            self.nref_tuples.len(),
        ];
        self.node(self.open_from(), to).unwrap_or_default()
    }

    /// Closes the node being built.
    fn close(&mut self) -> Result<(), Error> {
        let end = [
            offset(self.temporal.len())?,
            offset(self.ref_tuples.len())?,
            offset(self.nref_tuples.len())?,
        ];
        self.ends.push(end);
        Ok(())
    }

    /// Fills `p_total` / `p_max` of every reference tuple of the node
    /// being built from the group's probability codes and from which
    /// tuples exist: a reference traverses a region iff its tuple there
    /// says it enters, a non-reference iff it has a tuple there.
    /// `p_total` sums the traversing members in member order (the
    /// reference, then its non-references in `ct.nrefs` order) starting
    /// from `0.0`; `p_max` is the maximum over the traversing
    /// non-references.
    ///
    /// The one place the bounds are computed: index construction calls
    /// it on the node it just built, the container reader on the node it
    /// just parsed (the bounds are not stored), so built and reopened
    /// indexes agree to the last bit. A tuple whose `ref_idx` /
    /// `nref_idx` is out of range for `ct` contributes nothing; the
    /// tuples must be in canonical order (so one pass over them meets
    /// the members in member order, each at most once per cell).
    pub(crate) fn fill_group_bounds(&mut self, ct: &TrajView<'_>, p_codec: &PddpCodec) {
        let [_, refs_from, nrefs_from] = self.open_from();
        let refs = self.ref_tuples.get_mut(refs_from..);
        let nrefs = self.nref_tuples.get(nrefs_from..);
        let (Some(ref_tuples), Some(nref_tuples)) = (refs, nrefs) else {
            return;
        };
        for rt in ref_tuples {
            let mut p_total = 0.0;
            let mut p_max = 0.0f64;
            let ref_idx = rt.ref_idx();
            if let (true, Some(r)) = (rt.enters(), ct.refs.get(ref_idx as usize)) {
                p_total += p_codec.dequantize(r.p_code);
            }
            for t in nref_tuples.iter().filter(|t| t.cell == rt.cell) {
                let Some(n) = ct.nrefs.get(t.nref_idx as usize) else {
                    continue;
                };
                if n.ref_idx == ref_idx {
                    let p = p_codec.dequantize(n.p_code);
                    p_total += p;
                    p_max = p_max.max(p);
                }
            }
            rt.p_total = p_total;
            rt.p_max = p_max;
        }
    }

    /// Brings the region tuples of the node being built, as a container
    /// before v6 stored them, into canonical order: each member's cells
    /// are sorted (those versions stored them in traversal order).
    /// Refuses reference tuples out of order or repeated, non-reference
    /// tuples out of member order, and a non-reference cell repeated or
    /// outside its group. No writer ever produced any of these.
    pub(crate) fn canonicalize(&mut self, ct: &TrajView<'_>) -> Result<(), Error> {
        let [_, refs_from, nrefs_from] = self.open_from();
        let refs = self.ref_tuples.get(refs_from..).unwrap_or_default();
        let key = |t: &RefRegionTuple| (t.ref_idx(), t.cell);
        if refs.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
            return Err(Error::CorruptStore("ref tuples out of order"));
        }
        let nrefs = self.nref_tuples.get_mut(nrefs_from..).unwrap_or_default();
        if nrefs.windows(2).any(|w| w[0].nref_idx > w[1].nref_idx) {
            return Err(Error::CorruptStore("nref tuples out of order"));
        }
        for member in nrefs.chunk_by_mut(|a, b| a.nref_idx == b.nref_idx) {
            member.sort_unstable_by_key(|t| t.cell);
            // bounds: chunk_by_mut yields non-empty chunks
            let group = ct.nrefs.get(member[0].nref_idx as usize).map(|n| n.ref_idx);
            let in_group =
                |cell| group.is_some_and(|r| refs.binary_search_by_key(&(r, cell), key).is_ok());
            let repeated = member.windows(2).any(|w| w[0].cell == w[1].cell);
            if repeated || !member.iter().all(|t| in_group(t.cell)) {
                return Err(Error::CorruptStore("nref tuple outside its group"));
            }
        }
        Ok(())
    }
}

impl Nodes {
    /// Appends an already built node, its tuples given as slices. (An
    /// index registers its nodes' postings too: [`Stiu::push`].)
    pub fn push(
        &mut self,
        temporal: &[TemporalTuple],
        ref_tuples: &[RefRegionTuple],
        nref_tuples: &[NrefRegionTuple],
    ) -> Result<(), Error> {
        self.append(|seg| {
            seg.temporal.extend_from_slice(temporal);
            seg.ref_tuples.extend_from_slice(ref_tuples);
            seg.nref_tuples.extend_from_slice(nref_tuples);
            seg.close()
        })
    }
}

impl Table for NodeSegment {
    type View<'a> = TrajIndex<'a>;

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
            temporal: copy_vec(&self.temporal, &mut copied),
            ref_tuples: copy_vec(&self.ref_tuples, &mut copied),
            nref_tuples: copy_vec(&self.nref_tuples, &mut copied),
        };
        (copy, copied)
    }

    fn seal(&mut self) {
        self.ends.shrink_to_fit();
        self.temporal.shrink_to_fit();
        self.ref_tuples.shrink_to_fit();
        self.nref_tuples.shrink_to_fit();
    }

    fn resident(&self, census: &mut Resident) {
        census.add("offset tables", vec_bytes(&self.ends));
        census.add("temporal", vec_bytes(&self.temporal));
        census.add("ref tuples", vec_bytes(&self.ref_tuples));
        census.add("nref tuples", vec_bytes(&self.nref_tuples));
    }
}

/// The full index.
#[derive(Debug, Clone)]
pub struct Stiu {
    /// Construction parameters.
    pub params: StiuParams,
    /// The spatial grid.
    pub grid: Grid,
    /// One node per compressed trajectory (same order), in segments so
    /// a live publish shares the sealed ones by pointer (see
    /// [`crate::segment`]).
    pub trajs: Nodes,
    /// Interval index → trajectory indices with samples in the
    /// interval, segmented per trajectory chunk so a batch extends the
    /// tail segment without rewriting the postings of untouched
    /// intervals.
    pub interval_trajs: IntervalMap,
}

impl Stiu {
    /// Index size in bits, split into (spatial, temporal) — the paper's
    /// `s-size` / `t-size` of Fig. 9, a model over tuple *counts*: the
    /// paper's tuples (resume fields included, which this index does not
    /// hold) at the paper's field widths: 17-bit start, 12-bit sample
    /// index, 24-bit stream position, 32-bit vertex id, and `ηp` widths
    /// for the probability aggregates.
    pub fn size_bits(&self, p_width: u32) -> (u64, u64) {
        let mut s = 0u64;
        let mut t = 0u64;
        for node in &self.trajs {
            t += node.temporal.len() as u64 * (17 + 12 + 24);
            s += node.ref_tuples.len() as u64 * (32 + 12 + 24 + 2 * u64::from(p_width));
            s += node.nref_tuples.len() as u64 * (32 + 12 + 24);
        }
        (s, t)
    }

    /// Trajectories with a temporal tuple in `t`'s interval, ascending
    /// by position (merged across the interval map's segments).
    pub fn trajs_in_interval(&self, t: i64) -> Vec<u32> {
        self.interval_trajs
            .postings(t.div_euclid(self.params.partition_s))
    }
}

/// The regions an instance traverses, in order of first traversal. The
/// instance occupies its path only between the first and last sample.
/// (Its index tuples hold the same cells in ascending order, the
/// canonical order of the module docs.)
pub fn region_cells(net: &RoadNetwork, inst: &Instance, grid: &Grid) -> Vec<CellId> {
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

impl Stiu {
    /// An empty index over a network: the grid is fixed up front (it
    /// depends only on the network bounds and `grid_n`), trajectories are
    /// appended with [`Stiu::push`].
    pub fn new(net: &RoadNetwork, params: StiuParams) -> Self {
        Stiu {
            params,
            grid: Grid::over_network(net, params.grid_n),
            trajs: Nodes::default(),
            interval_trajs: IntervalMap::new(),
        }
    }

    /// Appends the index node for one newly compressed trajectory and
    /// merges its temporal postings into the interval map in place — the
    /// incremental-ingest path: nothing previously indexed is touched.
    ///
    /// The trajectory's position must equal `self.trajs.len()` in the
    /// owning [`CompressedDataset`]'s trajectories.
    pub fn push(
        &mut self,
        net: &RoadNetwork,
        tu: &UncertainTrajectory,
        ct: &TrajView<'_>,
        cparams: &crate::params::CompressParams,
    ) {
        let (partition_s, p_codec) = (self.params.partition_s, cparams.p_codec());
        self.append_node(|seg, grid| build_traj(seg, net, tu, ct, grid, partition_s, &p_codec))
            .expect("a trajectory within the span and segment bounds");
    }

    /// Appends one node, whose tuples `fill` (given the grid) pushes onto
    /// the tables of the tail segment, and registers it in every interval between its
    /// first and last temporal tuple — including sample-free gap
    /// intervals, which the trajectory may still cross (a span of
    /// [`MAX_SPAN_PARTITIONS`] or more is refused). The interval postings
    /// are a pure function of the nodes, which is why containers do not
    /// store them.
    pub(crate) fn append_node<E: From<Error>>(
        &mut self,
        fill: impl FnOnce(&mut NodeSegment, &Grid) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut span = None;
        self.trajs.append(|seg| {
            fill(seg, &self.grid)?;
            span = seg.open().span(&self.params);
            // One crafted tuple must not register the node under an
            // unbounded run of partitions.
            if span.is_some_and(|(first, last)| last.abs_diff(first) >= MAX_SPAN_PARTITIONS) {
                return Err(Error::CorruptStore("temporal span too long").into());
            }
            seg.close().map_err(E::from)
        })?;
        if let Some((first, last)) = span {
            let j = self.trajs.len() as u32 - 1;
            self.interval_trajs.register(j, first, last);
        }
        Ok(())
    }
}

/// Builds the index from the original dataset and its compressed form.
///
/// The paper constructs the index *during* compression; we take both
/// views to keep the phases separable for benchmarking. Equivalent to
/// [`Stiu::new`] followed by one [`Stiu::push`] per trajectory.
pub fn build(net: &RoadNetwork, ds: &Dataset, cds: &CompressedDataset, params: StiuParams) -> Stiu {
    let mut stiu = Stiu::new(net, params);
    for (tu, ct) in ds.trajectories.iter().zip(&cds.trajectories) {
        stiu.push(net, tu, &ct, &cds.params);
    }
    stiu
}

/// Pushes the tuples of one trajectory's node onto `node`'s tables.
fn build_traj(
    node: &mut NodeSegment,
    net: &RoadNetwork,
    tu: &UncertainTrajectory,
    ct: &TrajView<'_>,
    grid: &Grid,
    partition_s: i64,
    p_codec: &PddpCodec,
) -> Result<(), Error> {
    // Temporal tuples: one per interval containing at least one sample.
    let positions =
        siar::deviation_positions(ct.t_bits(), tu.times.len()).expect("own encoding decodes");
    let mut last_interval = i64::MIN;
    for (i, &t) in tu.times.iter().enumerate() {
        let interval = t.div_euclid(partition_s);
        if interval != last_interval {
            last_interval = interval;
            let pos = positions.get(i).copied().unwrap_or(ct.t_bits().len_bits());
            node.temporal.push(TemporalTuple {
                start: t,
                no: i as u32,
                pos: pos as u32,
            });
        }
    }

    // Per-instance region lists.
    let visits: Vec<Vec<CellId>> = tu
        .instances
        .iter()
        .map(|inst| region_cells(net, inst, grid))
        .collect();

    // Group = reference + its non-references.
    for (ref_idx, cref) in ct.refs.iter().enumerate() {
        let ref_orig = cref.orig_idx as usize;
        let members = std::iter::once(ref_orig).chain(
            ct.nrefs
                .iter()
                .filter(|n| n.ref_idx as usize == ref_idx)
                .map(|n| n.orig_idx as usize),
        );
        // Union of regions visited by the group.
        let mut cells: Vec<CellId> = members.flat_map(|m| visits[m].iter().copied()).collect();
        cells.sort();
        cells.dedup();
        for cell in cells {
            // The probability bounds are filled in once the node is
            // complete (`fill_group_bounds` below).
            let enters = visits[ref_orig].contains(&cell);
            let tuple = RefRegionTuple::new(cell, ref_idx as u32, enters)?;
            node.ref_tuples.push(tuple);
        }
    }

    // Non-reference tuples, each member's cells ascending.
    for (nref_idx, cnref) in ct.nrefs.iter().enumerate() {
        let nref_idx = nref_idx as u32;
        let from = node.nref_tuples.len();
        let cells = visits[cnref.orig_idx as usize].iter();
        node.nref_tuples
            .extend(cells.map(|&cell| NrefRegionTuple { cell, nref_idx }));
        node.nref_tuples[from..].sort_unstable_by_key(|t| t.cell);
    }
    node.fill_group_bounds(ct, p_codec);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_dataset;
    use crate::params::CompressParams;
    use utcq_traj::paper_fixture;

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
        let node = stiu.trajs.get(0).unwrap();
        assert_eq!(node.temporal.len(), 2);
        assert_eq!(node.temporal[0].start, paper_fixture::hms(5, 3, 25));
        assert_eq!(node.temporal[0].no, 0);
        assert_eq!(node.temporal[1].start, paper_fixture::hms(5, 15, 26));
        assert_eq!(node.temporal[1].no, 3);
        // Lookup semantics.
        assert_eq!(
            node.temporal_at(paper_fixture::hms(5, 10, 0)).unwrap().no,
            0
        );
        assert_eq!(
            node.temporal_at(paper_fixture::hms(5, 20, 0)).unwrap().no,
            3
        );
        assert!(node.temporal_at(paper_fixture::hms(4, 0, 0)).is_none());
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
        assert!(!node.ref_tuples.is_empty());
        // Every instance's first region contains its first sample.
        let grid = &stiu.grid;
        let inst = &ds.trajectories[0].instances[0];
        let l0 = inst.location(&net, 0);
        let cell0 = grid.cell_of(net.point_on_edge(l0.edge, l0.ndist));
        assert!(node.ref_tuples.iter().any(|t| t.cell == cell0));
        // p_total in the first cell covers all three instances (they share
        // the first edge).
        let t0 = node.ref_tuples.iter().find(|t| t.cell == cell0).unwrap();
        let (p_total, p_max) = (t0.p_total, t0.p_max);
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
            region_cells(&net, inst, &stiu.grid)
        };
        // A non-reference's tuples are its cell list, ascending.
        assert!(!node.nref_tuples.is_empty());
        for (i, n) in ct.nrefs.iter().enumerate() {
            let tuples = node.nref_tuples.iter().filter(|t| t.nref_idx == i as u32);
            let listed: Vec<CellId> = tuples.map(|t| t.cell).collect();
            let mut own = cells(n.orig_idx);
            own.sort();
            assert_eq!(listed, own, "non-reference {i}");
        }
        // A reference's tuples are its group's cells, ascending; the
        // ones it enters itself are its own cell list.
        for (i, r) in ct.refs.iter().enumerate() {
            let tuples = node.ref_tuples.iter().filter(|t| t.ref_idx() == i as u32);
            let entered: Vec<CellId> = tuples.filter(|t| t.enters()).map(|t| t.cell).collect();
            let mut own = cells(r.orig_idx);
            own.sort();
            assert_eq!(entered, own, "reference {i}");
        }
    }
}
