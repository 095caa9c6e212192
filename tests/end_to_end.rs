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
        assert_eq!(x.ref_count(), y.ref_count());
        assert_eq!(x.nrefs().len(), y.nrefs().len());
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
    let single = "v8, 1 partition, routing single\n";
    let sharded = "v8, 3 partitions, routing time\n";
    for (name, format) in [
        ("tiny_v2.utcq", single),
        ("tiny_v4.utcq", single),
        ("tiny_v5.utcq", single),
        ("tiny_v6.utcq", single),
        ("tiny_v7.utcq", single),
        ("tiny_v8.utcq", single),
        ("tiny_v3.utcq", sharded),
        ("tiny_v3_packed.utcq", sharded),
        ("tiny_v3_v5.utcq", sharded),
        ("tiny_v3_v6.utcq", sharded),
        ("tiny_v3_v7.utcq", sharded),
        ("tiny_v8_sharded.utcq", sharded),
    ] {
        let mut path = fixtures.join(name);
        if !name.starts_with("tiny_v8") {
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
        // the file itself, at any partition count.
        let sections = said.split("container sections").nth(1).expect(name);
        let total = sections.split("total:").nth(1).expect(name);
        let total: u64 = total.split_whitespace().next().unwrap().parse().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(total, len, "{name}");
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

/// A reader that goes away ends the output: `utcq info … | head -1`
/// exits 0 without a panic. Each printing command runs with stdout on a
/// pipe whose read end is closed before the command starts.
#[test]
fn cli_exits_cleanly_when_stdout_closes() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let fixture =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny_v8.utcq");
    let fixture = fixture.to_str().unwrap();
    let cases: [(&[&str], &str); 4] = [
        (&["info", "--in", fixture], ""),
        (&["query", "--in", fixture, "-n", "5"], ""),
        (
            &["stats", "--profile", "tiny", "--trajs", "5", "--seed", "1"],
            "",
        ),
        (&["client", "--in", fixture], "{\"op\":\"shutdown\"}\n"),
    ];
    for (args, input) in cases {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let mut child = Command::new(env!("CARGO_BIN_EXE_utcq"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .expect("utcq runs");
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(input.as_bytes()).unwrap();
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        let said = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "utcq {args:?}: {said}");
        assert!(!said.contains("panicked"), "utcq {args:?}: {said}");
    }
}

/// A server out of file descriptors waits instead of spinning. Under
/// `ulimit -n 48`, 64 held connections leave `accept` failing with
/// `EMFILE` while the connection it cannot take stays queued, so the
/// listener stays readable. Over a held second the server must spend
/// well under a second of CPU, and once the connections close it must
/// answer a fresh one.
#[test]
fn serve_waits_out_descriptor_exhaustion_without_spinning() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::process::{Child, Command, Stdio};
    use std::time::Duration;

    /// Kills the server if an assertion fails first.
    struct Server(Child);
    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    /// utime + stime of `pid`, in seconds.
    fn cpu_s(pid: u32, ticks_per_s: f64) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .unwrap()
            .1
            .split_whitespace()
            .collect();
        let ticks: f64 = fields[11].parse::<f64>().unwrap() + fields[12].parse::<f64>().unwrap();
        ticks / ticks_per_s
    }

    let fixture =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny_v8.utcq");
    let child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 48; exec \"$0\" serve --in \"$1\" --addr 127.0.0.1:0 --threads 1")
        .arg(env!("CARGO_BIN_EXE_utcq"))
        .arg(&fixture)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("sh runs");
    let mut server = Server(child);
    let pid = server.0.id();
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect(&line)
        .to_string();
    let ticks_per_s = Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8_lossy(&o.stdout).trim().parse().ok())
        .unwrap_or(100.0);

    let held: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_s(pid, ticks_per_s);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_s(pid, ticks_per_s) - before;
    assert!(
        spent < 0.3,
        "server spent {spent:.2} s of CPU in 1 s without descriptors"
    );

    drop(held);
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&stream)
        .write_all(b"{\"id\":1,\"op\":\"ping\"}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), r#"{"id":1,"ok":true,"op":"ping"}"#);
    (&stream).write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    assert!(server.0.wait().unwrap().success());
}

/// Every subcommand, as typed.
const SUBCOMMANDS: [&[&str]; 11] = [
    &["stats"],
    &["compress"],
    &["info"],
    &["migrate"],
    &["verify"],
    &["query"],
    &["serve"],
    &["client"],
    &["audit", "lint"],
    &["audit", "fuzz"],
    &["audit", "sched"],
];

/// A fresh empty directory for one CLI case.
fn empty_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI in `dir` with stdin closed, killing it after 60 s (a
/// command that should have refused its flags and instead serves must
/// not hang the test). Returns success, stdout and stderr.
fn utcq_in(dir: &std::path::Path, args: &[&str]) -> (bool, String, String) {
    use std::io::Read;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_utcq"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("utcq runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let (mut out, mut err) = (String::new(), String::new());
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    (status.is_some_and(|s| s.success()), out, err)
}

fn is_empty(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir).unwrap().next().is_none()
}

/// The `--flag`s (and `-n`) written in `text`.
fn flags_in(text: &str) -> Vec<String> {
    text.split(|c: char| c.is_whitespace() || "[]|".contains(c))
        .filter(|w| w.starts_with("--") || *w == "-n")
        .map(String::from)
        .collect()
}

/// `--help` prints the subcommand's flags and does nothing else: exit 0,
/// no file written, no port bound, no fuzz iteration run. Every flag
/// README.md's `## CLI` block gives a subcommand is in its help.
#[test]
fn cli_help_lists_the_flags_and_does_nothing_else() {
    let readme = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md"),
    )
    .unwrap();
    let block = readme.split("## CLI").nth(1).unwrap();
    let block = block.split("```").nth(1).unwrap();
    // Each `utcq …` line of the block, with the indented lines after it.
    let mut readme_flags: Vec<(String, Vec<String>)> = Vec::new();
    for line in block.lines().skip(1) {
        let line = line.split('#').next().unwrap();
        if let Some(rest) = line.strip_prefix("utcq ") {
            let words = rest
                .split_whitespace()
                .take_while(|w| !w.starts_with(['-', '[']));
            readme_flags.push((words.collect::<Vec<_>>().join(" "), flags_in(rest)));
        } else if let Some((_, flags)) = readme_flags.last_mut() {
            flags.extend(flags_in(line));
        }
    }
    assert!(readme_flags.len() >= SUBCOMMANDS.len(), "{readme_flags:?}");
    for cmd in SUBCOMMANDS {
        let dir = empty_dir(&format!("cli-help-{}", cmd.join("-")));
        let (ok, out, err) = utcq_in(&dir, &[cmd, &["--help"]].concat());
        assert!(ok, "utcq {cmd:?} --help: {err}");
        assert!(
            out.starts_with(&format!("usage: utcq {} ", cmd.join(" "))),
            "{out}"
        );
        assert!(!out.contains("mutated input"), "{out}");
        assert!(is_empty(&dir), "utcq {cmd:?} --help wrote a file");
        let listed = flags_in(&out);
        assert!(!listed.is_empty(), "{out}");
        for (named, flags) in &readme_flags {
            if *named == cmd.join(" ") {
                for flag in flags {
                    assert!(
                        listed.contains(flag),
                        "README gives utcq {named} {flag}: {out}"
                    );
                }
            }
        }
    }
}

/// A flag the table does not list, a stray argument and a value flag
/// with no value each exit 1 naming the token, before any work: no file
/// is written.
#[test]
fn cli_refuses_unknown_flags_stray_arguments_and_missing_values() {
    let value_flag = |cmd: &[&str]| match cmd {
        ["stats"] => "--trajs",
        ["audit", "lint"] => "--root",
        ["audit", "fuzz"] => "--iters",
        ["audit", "sched"] => "--bound",
        _ => "--in",
    };
    for cmd in SUBCOMMANDS {
        for bad in [&["--bogus-flag"][..], &["stray"], &[value_flag(cmd)]] {
            let dir = empty_dir(&format!("cli-refuse-{}", cmd.join("-")));
            let (ok, _, err) = utcq_in(&dir, &[cmd, bad].concat());
            assert!(!ok, "utcq {cmd:?} {bad:?} was accepted");
            assert!(
                err.starts_with(&format!("error: {}: ", bad[0])),
                "{cmd:?}: {err}"
            );
            assert!(is_empty(&dir), "utcq {cmd:?} {bad:?} wrote a file");
        }
    }
}

/// A flag the chosen mode would ignore is refused by name, before the
/// command opens, writes or binds anything.
#[test]
fn cli_refuses_flags_the_chosen_mode_ignores() {
    let fixture =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny_v8.utcq");
    let fixture = fixture.to_str().unwrap();
    let serve = ["serve", "--in", fixture, "--addr", "127.0.0.1:0"];
    let cases: [(&[&str], &str); 11] = [
        (&[&serve[..], &["--fsync", "never"]].concat(), "--fsync"),
        (
            &[&serve[..], &["--checkpoint-bytes", "64"]].concat(),
            "--checkpoint-bytes",
        ),
        (
            &["compress", "--profile", "tiny", "--shard-by", "region"],
            "--shard-by",
        ),
        (
            &[
                "compress",
                "--profile",
                "tiny",
                "--shards",
                "1",
                "--shard-interval",
                "60",
            ],
            "--shard-interval",
        ),
        (
            &["compress", "--profile", "tiny", "--shard-grid", "4"],
            "--shard-grid",
        ),
        (
            &[
                "compress",
                "--profile",
                "tiny",
                "--shards",
                "3",
                "--shard-grid",
                "4",
            ],
            "--shard-grid",
        ),
        (
            &[
                "compress",
                "--profile",
                "tiny",
                "--shards",
                "3",
                "--shard-by",
                "region",
                "--shard-interval",
                "60",
            ],
            "--shard-interval",
        ),
        (
            &["client", "--in", fixture, "--pipeline", "4"],
            "--pipeline",
        ),
        (
            &["client", "--addr", "127.0.0.1:1", "--writable"],
            "--writable",
        ),
        (
            &["client", "--addr", "127.0.0.1:1", "--in", fixture],
            "--in",
        ),
        (&["audit", "fuzz", "--replay", "--iters", "5"], "--iters"),
    ];
    for (args, flag) in cases {
        let dir = empty_dir("cli-mode");
        let (ok, _, err) = utcq_in(&dir, args);
        assert!(!ok, "utcq {args:?} was accepted");
        assert!(
            err.starts_with(&format!("error: {flag} ")),
            "{args:?}: {err}"
        );
        assert!(is_empty(&dir), "utcq {args:?} wrote a file");
    }
}
