//! Figure 11: effect of the PDDP error bounds on query accuracy —
//! average difference (meters for where, seconds for when) vs `ηD`, and
//! F1 score vs `ηp` (CD & HZ).
//!
//! Run: `cargo run --release -p utcq-bench --bin fig11_error_bound`

use std::collections::HashSet;

use std::sync::Arc;
use utcq_bench::report::{f3, Table};
use utcq_bench::{build, datasets, workload};
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::stiu::StiuParams;
use utcq_core::Store;
use utcq_core::{oracle, CompressParams};

fn main() {
    let n_queries = 150;
    let mut diff_table = Table::new(
        "Fig. 11a — avg difference vs ηD (paper: ≤ ~6 m where, ≤ ~0.45 s when; shrinks with ηD)",
        &["dataset", "ηD", "where avg diff (m)", "when avg diff (s)"],
    );
    let mut f1_table = Table::new(
        "Fig. 11b — F1 vs ηp (paper: ≥ 0.96, ≈1 at tight bounds)",
        &["dataset", "ηp", "where F1", "when F1"],
    );
    for (i, profile) in [utcq_datagen::profile::cd(), utcq_datagen::profile::hz()]
        .iter()
        .enumerate()
    {
        let built = build(profile, 1100 + i as u64);
        let wq = workload::where_queries(&built.ds, n_queries, 111);
        let nq = workload::when_queries(&built.ds, n_queries, 112);
        let by_id: std::collections::HashMap<u64, &utcq_traj::UncertainTrajectory> =
            built.ds.trajectories.iter().map(|t| (t.id, t)).collect();

        // Sweep ηD with ηp at its default.
        for k in [128u32, 64, 32, 16, 8] {
            let params = CompressParams {
                eta_d: 1.0 / f64::from(k),
                ..datasets::paper_params(profile)
            };
            let store = Store::build(
                Arc::new(built.net.clone()),
                &built.ds,
                params,
                StiuParams::default(),
            )
            .unwrap();
            let mut where_err = 0.0f64;
            let mut where_n = 0usize;
            for q in &wq {
                let want = oracle::where_query(&built.net, by_id[&q.traj_id], q.t, q.alpha);
                let got = store
                    .where_query(q.traj_id, q.t, q.alpha, PageRequest::all())
                    .unwrap()
                    .into_items();
                for w in &want {
                    if let Some(g) = got.iter().find(|g| g.instance == w.instance) {
                        let pw = built.net.point_on_edge(w.loc.edge, w.loc.ndist);
                        let pg = built.net.point_on_edge(g.loc.edge, g.loc.ndist);
                        where_err += pw.dist(pg);
                        where_n += 1;
                    }
                }
            }
            let mut when_err = 0.0f64;
            let mut when_n = 0usize;
            for q in &nq {
                let want = oracle::when_query(&built.net, by_id[&q.traj_id], q.edge, q.rd, q.alpha);
                let got = store
                    .when_query(q.traj_id, q.edge, q.rd, q.alpha, PageRequest::all())
                    .unwrap()
                    .into_items();
                for w in &want {
                    // Closest answer of the same instance.
                    if let Some(g) = got
                        .iter()
                        .filter(|g| g.instance == w.instance)
                        .min_by(|a, b| (a.time - w.time).abs().total_cmp(&(b.time - w.time).abs()))
                    {
                        when_err += (g.time - w.time).abs();
                        when_n += 1;
                    }
                }
            }
            diff_table.row(vec![
                profile.name.to_string(),
                format!("1/{k}"),
                f3(where_err / where_n.max(1) as f64),
                f3(when_err / when_n.max(1) as f64),
            ]);
        }

        // Sweep ηp with ηD at its default.
        for k in [2048u32, 1024, 512, 256, 128] {
            let params = CompressParams {
                eta_p: 1.0 / f64::from(k),
                ..datasets::paper_params(profile)
            };
            let store = Store::build(
                Arc::new(built.net.clone()),
                &built.ds,
                params,
                StiuParams::default(),
            )
            .unwrap();
            let f1 = |tp: usize, fp: usize, fn_: usize| -> f64 {
                if tp == 0 {
                    return if fp == 0 && fn_ == 0 { 1.0 } else { 0.0 };
                }
                let p = tp as f64 / (tp + fp) as f64;
                let r = tp as f64 / (tp + fn_) as f64;
                2.0 * p * r / (p + r)
            };
            let (mut wtp, mut wfp, mut wfn) = (0usize, 0usize, 0usize);
            for q in &wq {
                let want: HashSet<u32> =
                    oracle::where_query(&built.net, by_id[&q.traj_id], q.t, q.alpha)
                        .iter()
                        .map(|h| h.instance)
                        .collect();
                let got: HashSet<u32> = store
                    .where_query(q.traj_id, q.t, q.alpha, PageRequest::all())
                    .unwrap()
                    .items
                    .iter()
                    .map(|h| h.instance)
                    .collect();
                wtp += want.intersection(&got).count();
                wfp += got.difference(&want).count();
                wfn += want.difference(&got).count();
            }
            let (mut ntp, mut nfp, mut nfn) = (0usize, 0usize, 0usize);
            for q in &nq {
                let want: HashSet<u32> =
                    oracle::when_query(&built.net, by_id[&q.traj_id], q.edge, q.rd, q.alpha)
                        .iter()
                        .map(|h| h.instance)
                        .collect();
                let got: HashSet<u32> = store
                    .when_query(q.traj_id, q.edge, q.rd, q.alpha, PageRequest::all())
                    .unwrap()
                    .items
                    .iter()
                    .map(|h| h.instance)
                    .collect();
                ntp += want.intersection(&got).count();
                nfp += got.difference(&want).count();
                nfn += want.difference(&got).count();
            }
            f1_table.row(vec![
                profile.name.to_string(),
                format!("1/{k}"),
                f3(f1(wtp, wfp, wfn)),
                f3(f1(ntp, nfp, nfn)),
            ]);
        }
    }
    diff_table.print();
    diff_table.save_json("fig11a_avg_difference");
    f1_table.print();
    f1_table.save_json("fig11b_f1");
}
