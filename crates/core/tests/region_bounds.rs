//! The probability bounds a query derives per cell
//! ([`TrajIndex::bounds`]) are, bit for bit, the ones the index stored
//! while it held them. [`fill_group_bounds`] below is that computation as
//! it ran at index construction and at every open; it runs over tuple
//! rows rebuilt from the region tables and must agree with the
//! derivation for every (group, cell) of 500-trajectory `dk`, `cd` and
//! `hz` samples and of every checked-in container from v2 to v7.

use std::sync::Arc;

use utcq_bitio::pddp::PddpCodec;
use utcq_core::segment::TrajView;
use utcq_core::stiu::TrajIndex;
use utcq_core::{CompressParams, Partition, StiuParams, Store};
use utcq_network::CellId;

/// `(p_total, p_max)` of every reference tuple `(ref_idx, cell, enters)`
/// of a node, as the index computed them when it stored them: a
/// reference counts if it enters the cell, a non-reference if it has a
/// tuple there; sums run in tuple order from `0.0`, and a tuple whose
/// instance is out of range for `ct` counts nothing.
fn fill_group_bounds(
    refs: &[(u32, CellId, bool)],
    nrefs: &[(u32, CellId)],
    ct: &TrajView<'_>,
    p_codec: &PddpCodec,
) -> Vec<(f64, f64)> {
    let mut bounds = Vec::new();
    for &(ref_idx, cell, enters) in refs {
        let mut p_total = 0.0;
        let mut p_max = 0.0f64;
        if let (true, Some(r)) = (enters, ct.ref_row(ref_idx as usize)) {
            p_total += p_codec.dequantize(r.p_code);
        }
        for &(nref_idx, _) in nrefs.iter().filter(|t| t.1 == cell) {
            let Some(n) = ct.nref_row(nref_idx as usize) else {
                continue;
            };
            if n.ref_idx == ref_idx {
                let p = p_codec.dequantize(n.p_code);
                p_total += p;
                p_max = p_max.max(p);
            }
        }
        bounds.push((p_total, p_max));
    }
    bounds
}

/// The derivation, group by group, each group's cells in order.
fn derived(node: TrajIndex<'_>, ct: &TrajView<'_>, p_codec: &PddpCodec) -> Vec<(f64, f64)> {
    let mut starts = Vec::new();
    node.group_starts(&mut starts);
    let mut bounds = Vec::new();
    for (r, group) in (0..).zip(node.groups()) {
        for k in 0..group.len() {
            bounds.push(node.bounds(&starts, ct, p_codec, r, k));
        }
    }
    bounds
}

/// Compares both for every node of `snap`; returns the cells compared.
fn check(snap: &Partition, what: &str) -> usize {
    let p_codec = snap.compressed().params.p_codec();
    let bits =
        |b: Vec<(f64, f64)>| Vec::from_iter(b.iter().map(|(t, m)| (t.to_bits(), m.to_bits())));
    let mut cells = 0;
    let nodes = snap.stiu().trajs.iter();
    for (j, (node, ct)) in nodes.zip(snap.compressed().trajectories.iter()).enumerate() {
        let refs = Vec::from_iter(node.ref_tuples());
        let stored = fill_group_bounds(&refs, &node.nref_tuples(ct.nref_owners()), &ct, &p_codec);
        assert_eq!(
            bits(derived(node, &ct, &p_codec)),
            bits(stored),
            "{what}: node {j}"
        );
        cells += refs.len();
    }
    cells
}

#[test]
fn derived_bounds_equal_the_stored_computation_on_every_profile() {
    use utcq_datagen::profile;
    for p in [profile::dk(), profile::cd(), profile::hz()] {
        let (net, ds) = utcq_datagen::generate(&p, 500, 11);
        let params = CompressParams::with_interval(ds.default_interval);
        let store = Store::build(Arc::new(net), &ds, params, StiuParams::default()).unwrap();
        let cells = check(&store.snapshots()[0], p.name);
        assert!(cells > 2_000, "{}: {cells} cells", p.name);
    }
}

#[test]
fn derived_bounds_equal_the_stored_computation_on_every_fixture() {
    let fixtures = [
        "tiny_v2.utcq",
        "tiny_v3.utcq",
        "tiny_v3_packed.utcq",
        "tiny_v3_v5.utcq",
        "tiny_v3_v6.utcq",
        "tiny_v3_v7.utcq",
        "tiny_v4.utcq",
        "tiny_v5.utcq",
        "tiny_v6.utcq",
        "tiny_v7.utcq",
        "tiny_v8.utcq",
        "tiny_v8_sharded.utcq",
    ];
    for name in fixtures {
        let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let no_v1 = || -> (utcq_network::RoadNetwork, StiuParams) { unreachable!("{name}") };
        let opened = utcq_legacy::open(&std::fs::read(&path).unwrap(), no_v1).unwrap();
        let cells: usize = opened.snapshots().iter().map(|s| check(s, name)).sum();
        assert!(cells > 0, "{name}");
    }
}
