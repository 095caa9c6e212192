//! Future-work experiment: multiple-order referential representation
//! (paper §8). Measures the referential footprint (E + T' + D streams)
//! of depth-1 (the shipped single-order scheme, = Algorithm 1), depth-2,
//! and depth-3 reference forests on all three datasets.
//!
//! Run: `cargo run --release -p utcq_bench --bin multiorder`

use utcq_bench::report::Table;
use utcq_bench::{build, datasets, multiorder};
use utcq_traj::TedView;

fn main() {
    let mut table = Table::new(
        "Future work — multiple-order referential representation (stream bits; order 1 = Algorithm 1)",
        &[
            "dataset", "order 1", "order 2", "order 3", "roots@1", "roots@3", "gain 1→2",
            "gain 1→3",
        ],
    );
    for (i, profile) in datasets::paper_profiles().iter().enumerate() {
        let built = build(profile, 1700 + i as u64);
        let params = datasets::paper_params(profile);
        let d_codec = params.d_codec();
        let w_e = utcq_core::compressed::edge_number_width(built.net.max_out_degree());
        let mut bits = [0u64; 3];
        let mut roots = [0usize; 3];
        for tu in &built.ds.trajectories {
            let views: Vec<TedView> = tu
                .instances
                .iter()
                .map(|inst| TedView::from_instance(&built.net, inst))
                .collect();
            let seqs: Vec<Vec<u32>> = views.iter().map(|v| v.entries.clone()).collect();
            let flags: Vec<Vec<bool>> = views.iter().map(|v| v.trimmed_flags().to_vec()).collect();
            let d_codes: Vec<Vec<u64>> = views
                .iter()
                .map(|v| v.rds.iter().map(|&rd| d_codec.quantize(rd)).collect())
                .collect();
            let svs: Vec<_> = views.iter().map(|v| v.sv).collect();
            let probs: Vec<f64> = views.iter().map(|v| v.prob).collect();
            for (k, order) in [1u32, 2, 3].into_iter().enumerate() {
                let plan = multiorder::plan(&seqs, &svs, &probs, params.n_pivots, order);
                multiorder::verify_lossless(&seqs, &flags, &plan)
                    .expect("chain replay must be lossless");
                bits[k] +=
                    multiorder::evaluate_bits(&seqs, &flags, &d_codes, &plan, w_e, d_codec.width());
                roots[k] += plan.root_count();
            }
        }
        let gain = |k: usize| {
            let saved = bits[0] as f64 - bits[k] as f64;
            format!("{:.2}%", 100.0 * saved / bits[0] as f64)
        };
        table.row(vec![
            profile.name.to_string(),
            bits[0].to_string(),
            bits[1].to_string(),
            bits[2].to_string(),
            roots[0].to_string(),
            roots[2].to_string(),
            gain(1),
            gain(2),
        ]);
    }
    table.print();
    table.save_json("multiorder");
}
