//! Ablation study of UTCQ's design choices (DESIGN.md §5):
//!
//! 1. **SIAR + improved Exp-Golomb** vs TED's `(i, t)` pairs for `T`;
//! 2. **FJD-driven greedy reference selection** vs cheaper strategies
//!    (no referential compression, most-probable-as-reference, first
//!    instance as reference);
//! 3. **StIU + lemma filtering** vs full decompression per query;
//! 4. **WAH bitmap compression of `T'`** (the knob TED's authors had and
//!    the paper turned off);
//! 5. **frequency-adaptive distance codes** (canonical Huffman, standing
//!    in for TED's unpublished PDDP-tree dictionary) vs fixed-width PDDP.
//!
//! Run: `cargo run --release -p utcq-bench --bin ablation`

use std::collections::HashMap;

use std::sync::Arc;
use utcq_bench::measure::fmt_duration;
use utcq_bench::report::{f2, Table};
use utcq_bench::{build, datasets, timed, workload};
use utcq_core::compress::compress_trajectory_with_roles;
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::reference::Role;
use utcq_core::siar;
use utcq_core::stiu::StiuParams;
use utcq_core::Store;
use utcq_traj::TedView;

fn main() {
    siar_vs_pairs();
    reference_strategies();
    index_vs_full_decompression();
    wah_ablation();
    pddp_tree_ablation();
}

/// Ablation 1: the `T` stream alone, SIAR vs TED pairs.
fn siar_vs_pairs() {
    let mut table = Table::new(
        "Ablation 1 — time-sequence encoding (bits per timestamp; raw = 32)",
        &[
            "dataset",
            "SIAR+ExpGolomb",
            "TED (i,t) pairs",
            "SIAR advantage",
        ],
    );
    for (i, profile) in datasets::paper_profiles().iter().enumerate() {
        let built = build(profile, 1300 + i as u64);
        let mut siar_bits = 0usize;
        let mut pair_bits = 0usize;
        let mut n = 0usize;
        for tu in &built.ds.trajectories {
            siar_bits += siar::encode(&tu.times, profile.default_interval)
                .unwrap()
                .len_bits();
            pair_bits += utcq_ted::time::encode(&tu.times).unwrap().len_bits();
            n += tu.times.len();
        }
        table.row(vec![
            profile.name.to_string(),
            f2(siar_bits as f64 / n as f64),
            f2(pair_bits as f64 / n as f64),
            format!("{:.2}x", pair_bits as f64 / siar_bits as f64),
        ]);
    }
    table.print();
    table.save_json("ablation1_siar");
}

/// Ablation 2: reference-selection strategies (total compressed bits).
fn reference_strategies() {
    let mut table = Table::new(
        "Ablation 2 — reference selection (total compressed bits, lower is better)",
        &[
            "dataset",
            "FJD greedy (Alg.1)",
            "most-probable ref",
            "first-as-ref",
            "no referential",
        ],
    );
    for (i, profile) in datasets::paper_profiles().iter().enumerate() {
        let built = build(profile, 1400 + i as u64);
        let params = datasets::paper_params(profile);
        let mut totals = [0u64; 4];
        for tu in &built.ds.trajectories {
            let views: Vec<TedView> = tu
                .instances
                .iter()
                .map(|inst| TedView::from_instance(&built.net, inst))
                .collect();
            let svs: Vec<_> = views.iter().map(|v| v.sv).collect();

            // Strategy A: the paper's Algorithm 1 (inside compress).
            let (_, s) = utcq_core::compress_trajectory(&built.net, tu, &params).unwrap();
            totals[0] += s.total();
            // Strategy B: per start vertex, the most probable instance is
            // the reference for all others.
            totals[1] += with_group_leader(&built.net, tu, &params, &svs, |group| {
                group
                    .iter()
                    .copied()
                    .max_by(|&a, &b| tu.instances[a].prob.total_cmp(&tu.instances[b].prob))
                    .unwrap()
            });
            // Strategy C: the first instance of each start-vertex group.
            totals[2] += with_group_leader(&built.net, tu, &params, &svs, |group| group[0]);
            // Strategy D: no referential compression at all.
            let roles = vec![Role::Reference; tu.instances.len()];
            let (_, s) = compress_trajectory_with_roles(&built.net, tu, &params, &roles).unwrap();
            totals[3] += s.total();
        }
        table.row(vec![
            profile.name.to_string(),
            totals[0].to_string(),
            totals[1].to_string(),
            totals[2].to_string(),
            totals[3].to_string(),
        ]);
    }
    table.print();
    table.save_json("ablation2_reference");
}

/// Helper: one reference per start-vertex group, chosen by `pick`.
fn with_group_leader(
    net: &utcq_network::RoadNetwork,
    tu: &utcq_traj::UncertainTrajectory,
    params: &utcq_core::CompressParams,
    svs: &[utcq_network::VertexId],
    pick: impl Fn(&[usize]) -> usize,
) -> u64 {
    let mut groups: HashMap<utcq_network::VertexId, Vec<usize>> = HashMap::new();
    for (i, &sv) in svs.iter().enumerate() {
        groups.entry(sv).or_default().push(i);
    }
    let mut roles = vec![Role::Reference; svs.len()];
    for group in groups.values() {
        let leader = pick(group);
        for &m in group {
            if m != leader {
                roles[m] = Role::NonReference { of: leader };
            }
        }
    }
    let (_, s) = compress_trajectory_with_roles(net, tu, params, &roles).unwrap();
    s.total()
}

/// Ablation 3: StIU-guided queries vs full decompression.
fn index_vs_full_decompression() {
    let mut table = Table::new(
        "Ablation 3 — when-query: StIU + Lemma 1 vs full decompression",
        &["dataset", "with index", "full decompression", "speedup"],
    );
    for (i, profile) in datasets::paper_profiles().iter().enumerate() {
        let built = build(profile, 1500 + i as u64);
        let params = datasets::paper_params(profile);
        let store = Store::build(
            Arc::new(built.net.clone()),
            &built.ds,
            params,
            StiuParams::default(),
        )
        .unwrap();
        let queries = workload::when_queries(&built.ds, 200, 131);
        let (_, indexed) = timed(|| {
            for q in &queries {
                let _ = store
                    .when_query(q.traj_id, q.edge, q.rd, q.alpha, PageRequest::all())
                    .unwrap();
            }
        });
        // Full decompression path: decompress the whole trajectory and
        // run the oracle on it.
        let snap = &store.snapshots()[0]; // a one-partition store
        let idx_of: HashMap<u64, usize> = snap
            .compressed()
            .trajectories
            .iter()
            .enumerate()
            .map(|(j, ct)| (ct.id, j))
            .collect();
        let (_, full) = timed(|| {
            for q in &queries {
                let j = idx_of[&q.traj_id];
                let tu = utcq_core::decompress_trajectory(
                    &built.net,
                    &snap
                        .compressed()
                        .trajectories
                        .get(j)
                        .expect("indexed above"),
                    &params,
                )
                .unwrap();
                let _ = utcq_core::oracle::when_query(&built.net, &tu, q.edge, q.rd, q.alpha);
            }
        });
        table.row(vec![
            profile.name.to_string(),
            fmt_duration(indexed),
            fmt_duration(full),
            format!(
                "{:.2}x",
                full.as_secs_f64() / indexed.as_secs_f64().max(1e-12)
            ),
        ]);
    }
    table.print();
    table.save_json("ablation3_index");
}

/// Ablation 5: a frequency-adaptive distance code (canonical Huffman —
/// the stand-in for TED's unpublished PDDP-tree dictionary) vs the
/// fixed-width PDDP quantizer used everywhere else.
fn pddp_tree_ablation() {
    use utcq_bitio::huffman::Huffman;
    let mut table = Table::new(
        "Ablation 5 — distance codes: fixed-width PDDP vs Huffman over quantized values",
        &[
            "dataset",
            "fixed-width bits",
            "huffman bits (+table)",
            "gain",
        ],
    );
    for (i, profile) in datasets::paper_profiles().iter().enumerate() {
        let built = build(profile, 1800 + i as u64);
        let d_codec = utcq_bitio::pddp::PddpCodec::from_error_bound(1.0 / 128.0);
        let mut freqs: std::collections::HashMap<u64, u64> = HashMap::new();
        let mut count = 0u64;
        for tu in &built.ds.trajectories {
            for inst in &tu.instances {
                for &rd in &inst.rds() {
                    *freqs.entry(d_codec.quantize(rd)).or_insert(0) += 1;
                    count += 1;
                }
            }
        }
        let h = Huffman::build(&freqs).expect("non-empty dataset");
        let huff_bits: u64 = freqs
            .iter()
            .map(|(sym, n)| u64::from(h.code_len(*sym).unwrap()) * n)
            .sum::<u64>()
            + h.table_bits(7);
        let fixed_bits = count * 7;
        table.row(vec![
            profile.name.to_string(),
            fixed_bits.to_string(),
            huff_bits.to_string(),
            format!(
                "{:.1}%",
                100.0 * (fixed_bits as f64 - huff_bits as f64) / fixed_bits as f64
            ),
        ]);
    }
    table.print();
    table.save_json("ablation5_pddp_tree");
}

/// Ablation 4: WAH bitmap compression of `T'` in the TED baseline.
fn wah_ablation() {
    let mut table = Table::new(
        "Ablation 4 — TED T' storage: raw vs WAH (the paper's omitted knob)",
        &[
            "dataset",
            "raw T' bits",
            "WAH T' bits",
            "WAH compress time factor",
        ],
    );
    for (i, profile) in datasets::paper_profiles().iter().enumerate() {
        let built = build(profile, 1600 + i as u64);
        let base = datasets::paper_ted_params(profile);
        let (raw, t_raw) =
            timed(|| utcq_ted::compress_dataset(&built.net, &built.ds, &base).unwrap());
        let wah_params = utcq_ted::TedParams {
            wah_tflag: true,
            ..base
        };
        let (wah, t_wah) =
            timed(|| utcq_ted::compress_dataset(&built.net, &built.ds, &wah_params).unwrap());
        table.row(vec![
            profile.name.to_string(),
            raw.compressed.tflag.to_string(),
            wah.compressed.tflag.to_string(),
            f2(t_wah.as_secs_f64() / t_raw.as_secs_f64().max(1e-12)),
        ]);
    }
    table.print();
    table.save_json("ablation4_wah");
}
