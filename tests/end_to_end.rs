//! Cross-crate integration: the full pipeline from raw GPS through
//! probabilistic map-matching, UTCQ compression, indexing, and querying —
//! plus the TED baseline on the same data.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use utcq::core::params::CompressParams;
use utcq::core::query::{PageRequest, QueryTarget};
use utcq::core::stiu::StiuParams;
use utcq::core::Store;
use utcq::datagen::instances::base_positions;
use utcq::datagen::raw::observe;
use utcq::datagen::route::random_route;
use utcq::matcher::{Matcher, MatcherConfig};
use utcq::network::gen::{grid_city, GridCityConfig};
use utcq::traj::{Dataset, Instance};

#[test]
fn raw_gps_to_compressed_queries() {
    let mut rng = StdRng::seed_from_u64(555);
    let net = grid_city(&GridCityConfig::tiny(), &mut rng);
    let matcher = Matcher::new(&net, 150.0);

    let mut trajectories = Vec::new();
    for id in 0..15u64 {
        let Some(route) = random_route(&net, &mut rng, 10, 30) else {
            continue;
        };
        let n = ((net.path_length(&route) / 150.0).round() as usize).clamp(4, 25);
        let times: Vec<i64> = (0..n as i64).map(|i| 40_000 + i * 15).collect();
        let positions = base_positions(&net, &mut rng, &route, &times);
        let truth = Instance {
            path: route,
            positions,
            prob: 1.0,
        };
        let raw = observe(&net, &truth, &times, 8.0, &mut rng);
        if let Some(mut tu) = matcher.match_trajectory(&raw, &MatcherConfig::default()) {
            tu.id = id;
            trajectories.push(tu);
        }
    }
    assert!(
        trajectories.len() >= 10,
        "matcher produced too few trajectories"
    );
    let ds = Dataset {
        name: "e2e".into(),
        default_interval: 15,
        trajectories,
    };
    ds.validate(&net).expect("matched dataset valid");

    let params = CompressParams::with_interval(15);
    let store = Store::build(Arc::new(net.clone()), &ds, params, StiuParams::default()).unwrap();
    assert!(store.ratios().total > 1.5);

    // Every query type answers consistently with the oracle.
    for tu in &ds.trajectories {
        let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
        let got = store
            .where_query(tu.id, mid, 0.0, PageRequest::all())
            .unwrap()
            .into_items();
        let want = utcq::core::oracle::where_query(&net, tu, mid, 0.0);
        assert_eq!(got.len(), want.len());
    }

    // Full decompression round-trips.
    let back = utcq::core::decompress_dataset(&net, store.snapshots()[0].compressed()).unwrap();
    for (a, b) in ds.trajectories.iter().zip(&back.trajectories) {
        utcq::core::decompress::check_lossy_roundtrip(a, b, params.eta_d, params.eta_p).unwrap();
    }
}

#[test]
fn utcq_beats_ted_on_ratio_everywhere() {
    // The headline claim, verified on all three profiles at small scale.
    for (i, profile) in utcq::datagen::profile::all().iter().enumerate() {
        let (net, ds) = utcq::datagen::generate(profile, 60, 4000 + i as u64);
        let params = CompressParams::with_interval(ds.default_interval);
        let cds = utcq::core::compress_dataset(&net, &ds, &params).unwrap();
        let tds = utcq::ted::compress_dataset(&net, &ds, &utcq::ted::TedParams::default()).unwrap();
        let u = cds.ratios().total;
        let t = tds.ratios().total;
        assert!(
            u > 1.5 * t,
            "{}: UTCQ ratio {u:.2} must clearly beat TED {t:.2}",
            profile.name
        );
        // Both must actually compress.
        assert!(t > 1.0, "{}: TED ratio {t:.2}", profile.name);
    }
}

#[test]
fn ted_and_utcq_agree_on_queries() {
    let profile = utcq::datagen::profile::cd();
    let (net, ds) = utcq::datagen::generate(&profile, 40, 4242);
    let params = CompressParams::with_interval(ds.default_interval);
    let store = Store::build(Arc::new(net.clone()), &ds, params, StiuParams::default()).unwrap();
    let tstore = utcq::ted::TedStore::build(
        &net,
        &ds,
        utcq::ted::TedParams::default(),
        utcq::ted::TedStoreParams::default(),
    )
    .unwrap();
    for tu in ds.trajectories.iter().take(20) {
        let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
        let a = store
            .where_query(tu.id, mid, 0.25, PageRequest::all())
            .unwrap()
            .into_items();
        let b = tstore.where_query(tu.id, mid, 0.25).unwrap();
        assert_eq!(a.len(), b.len(), "traj {}", tu.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.instance, y.instance);
            assert_eq!(x.loc.edge, y.loc.edge);
            assert!((x.loc.ndist - y.loc.ndist).abs() < 1e-6);
        }
    }
}

#[test]
fn compression_is_deterministic() {
    let profile = utcq::datagen::profile::tiny();
    let (net, ds) = utcq::datagen::generate(&profile, 20, 777);
    let params = CompressParams::with_interval(ds.default_interval);
    let a = utcq::core::compress_dataset(&net, &ds, &params).unwrap();
    let b = utcq::core::compress_dataset(&net, &ds, &params).unwrap();
    assert_eq!(a.compressed, b.compressed);
    for (x, y) in a.trajectories.iter().zip(&b.trajectories) {
        assert_eq!(x.t_bits(), y.t_bits());
        assert_eq!(x.refs.len(), y.refs.len());
        assert_eq!(x.nrefs.len(), y.nrefs.len());
    }
}

/// Runs the CLI, which must succeed, and returns what it printed.
fn utcq(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_utcq"))
        .args(args)
        .output()
        .expect("utcq runs");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "utcq {args:?}: {text}");
    text
}

#[test]
fn cli_info_names_the_format_and_counts_the_file() {
    // `info` opens the current formats; an older file is refused with
    // the error that names `migrate`, and what `migrate` writes opens.
    let fixtures = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-info");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let single = "v7\n";
    let sharded = "v3 directory, shards v7 v7 v7\n";
    for (name, format) in [
        ("tiny_v2.utcq", single),
        ("tiny_v4.utcq", single),
        ("tiny_v5.utcq", single),
        ("tiny_v6.utcq", single),
        ("tiny_v7.utcq", single),
        ("tiny_v3.utcq", sharded),
        ("tiny_v3_packed.utcq", sharded),
        ("tiny_v3_v5.utcq", sharded),
        ("tiny_v3_v6.utcq", sharded),
        ("tiny_v3_v7.utcq", sharded),
    ] {
        let mut path = fixtures.join(name);
        if !name.ends_with("v7.utcq") {
            let refused = std::process::Command::new(env!("CARGO_BIN_EXE_utcq"))
                .args(["info", "--in", path.to_str().unwrap()])
                .output()
                .unwrap();
            let said = String::from_utf8_lossy(&refused.stderr);
            assert!(!refused.status.success(), "{name}: info opened an old file");
            assert!(said.contains("run `utcq migrate`"), "{name}: {said}");
            let out = dir.join(name);
            utcq(&[
                "migrate",
                "--in",
                path.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]);
            path = out;
        }
        let said = utcq(&["info", "--in", path.to_str().unwrap()]);
        assert!(
            said.contains(&format!("  format:           {format}")),
            "{name}: {said}"
        );
        // The section table is of the container this store saves as:
        // the file itself (a sharded one adds its 18-byte directory and
        // a u64 length per shard).
        let sections = said.split("container sections").nth(1).expect(name);
        let total = sections.split("total:").nth(1).expect(name);
        let total: u64 = total.split_whitespace().next().unwrap().parse().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        match format {
            "v7\n" => assert_eq!(total, len, "{name}"),
            _ => assert_eq!(total + 18 + 3 * 8, len, "{name}"),
        }
    }
}

#[test]
fn cli_verify_checks_single_and_sharded_containers() {
    // `utcq verify` must accept whatever `utcq compress` wrote: a single
    // store, and a sharded one (whose shard order is not dataset order).
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let dataset = ["--profile", "tiny", "--trajs", "40", "--seed", "3"];
    for shards in [&[][..], &["--shards", "3"]] {
        let path = dir.join(format!("verify-{}.utcq", shards.len()));
        let path = path.to_str().unwrap();
        utcq(&[&["compress", "--out", path], &dataset[..], shards].concat());
        let said = utcq(&[&["verify", "--in", path], &dataset[..]].concat());
        assert!(said.contains("verified: 40 trajectories"), "{said}");
        // A different dataset is told apart, not waved through.
        let other = std::process::Command::new(env!("CARGO_BIN_EXE_utcq"))
            .args(["verify", "--in", path, "--profile", "tiny"])
            .args(["--trajs", "40", "--seed", "4"])
            .output()
            .unwrap();
        assert!(!other.status.success(), "verify accepted the wrong dataset");
    }
}
