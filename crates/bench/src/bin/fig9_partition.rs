//! Figure 9: effect of the spatial and temporal partition granularity on
//! probabilistic range queries — index sizes (UTCQ s-size / t-size, TED)
//! and query time (DK & HZ).
//!
//! `s-size` / `t-size` are the paper's model (`Stiu::size_bits`: the
//! §5.2 tuple, resume fields included, at the paper's field widths over
//! this index's tuple counts). The "stored" column is what a saved
//! container actually holds for the index: the temporal, reference and
//! non-reference tuple sections of the writer's own census, which carry
//! only the fields a query reads, bit-packed. Since container v7 the
//! stored temporal size is 0 (the index keeps no temporal tuple, only
//! their count, derived from the time streams at open; the section
//! holds only its parameters and block lengths), so the paper's Fig. 9c
//! trend, finer partitions making a larger temporal index, is carried
//! by the model t-size column alone.
//!
//! Run: `cargo run --release -p utcq-bench --bin fig9_partition`

use std::time::Duration;

use std::sync::Arc;
use utcq_bench::measure::{fmt_bits, fmt_duration};
use utcq_bench::report::Table;
use utcq_bench::{build, datasets, timed, workload};
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::stiu::StiuParams;
use utcq_core::Store;
use utcq_ted::{TedStore, TedStoreParams};

fn avg(d: Duration, n: usize) -> Duration {
    d / n.max(1) as u32
}

/// Bits of the index sections of the container `store` saves as.
fn stored_index_bits(store: &Store) -> u64 {
    let census = store.snapshot().write(&mut std::io::sink());
    let census = census.expect("writing to a sink cannot fail");
    census.temporal + census.ref_tuples + census.nref_tuples
}

fn main() {
    let n_queries = 150;
    let mut grid_table = Table::new(
        "Fig. 9a/b — vs number of grid cells (paper: UTCQ index smaller than TED; finer grids → faster range queries). s-size/t-size: the paper's tuple at the paper's widths (model); stored: the index sections of the saved container (only the fields a query reads, bit-packed)",
        &["dataset", "grid", "UTCQ s-size", "UTCQ t-size", "UTCQ stored", "TED size", "UTCQ query", "TED query"],
    );
    let mut time_table = Table::new(
        "Fig. 9c/d — vs time partition duration (paper: finer partitions → larger t-size, faster queries). t-size: model; stored: the saved container's whole index (region tuples; temporal tuples are only counted, at open)",
        &["dataset", "partition (min)", "UTCQ t-size", "UTCQ stored", "UTCQ query"],
    );
    for (i, profile) in [utcq_datagen::profile::dk(), utcq_datagen::profile::hz()]
        .iter()
        .enumerate()
    {
        let built = build(profile, 900 + i as u64);
        let params = datasets::paper_params(profile);
        let tparams = datasets::paper_ted_params(profile);
        let queries = workload::range_queries(&built.net, &built.ds, n_queries, 91);

        for grid_n in [8u32, 16, 32, 64, 128] {
            let store = Store::build(
                Arc::new(built.net.clone()),
                &built.ds,
                params,
                StiuParams {
                    partition_s: 1800,
                    grid_n,
                },
            )
            .unwrap();
            let (s_bits, t_bits) = store.snapshots()[0]
                .stiu()
                .size_bits(params.p_codec().width());
            let (_, udur) = timed(|| {
                for q in &queries {
                    let _ = store
                        .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                        .unwrap();
                }
            });
            let tstore = TedStore::build(
                &built.net,
                &built.ds,
                tparams,
                TedStoreParams {
                    partition_s: 1800,
                    grid_n,
                },
            )
            .unwrap();
            let (_, tdur) = timed(|| {
                for q in &queries {
                    let _ = tstore.range_query(&q.re, q.tq, q.alpha).unwrap();
                }
            });
            grid_table.row(vec![
                profile.name.to_string(),
                format!("{grid_n}x{grid_n}"),
                fmt_bits(s_bits),
                fmt_bits(t_bits),
                fmt_bits(stored_index_bits(&store)),
                fmt_bits(tstore.index_size_bits()),
                fmt_duration(avg(udur, n_queries)),
                fmt_duration(avg(tdur, n_queries)),
            ]);
        }

        for minutes in [10i64, 20, 30, 40, 50, 60] {
            let store = Store::build(
                Arc::new(built.net.clone()),
                &built.ds,
                params,
                StiuParams {
                    partition_s: minutes * 60,
                    grid_n: 32,
                },
            )
            .unwrap();
            let (_, t_bits) = store.snapshots()[0]
                .stiu()
                .size_bits(params.p_codec().width());
            let (_, udur) = timed(|| {
                for q in &queries {
                    let _ = store
                        .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                        .unwrap();
                }
            });
            time_table.row(vec![
                profile.name.to_string(),
                minutes.to_string(),
                fmt_bits(t_bits),
                fmt_bits(stored_index_bits(&store)),
                fmt_duration(avg(udur, n_queries)),
            ]);
        }
    }
    grid_table.print();
    grid_table.save_json("fig9ab_grid");
    time_table.print();
    time_table.save_json("fig9cd_partition");
}
