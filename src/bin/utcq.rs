//! `utcq` — command-line front end for the UTCQ reproduction.
//!
//! `utcq` alone lists the subcommands, and `utcq <command> --help` a
//! command's flags. Each subcommand declares its flags once, in the
//! `CMDS` table (name, value, default, help line), which drives parsing,
//! defaults and help. An unknown flag, a value flag without its value, a
//! stray argument, or a flag the chosen mode would ignore is an error
//! that names it, raised before any work is done.
//!
//! `compress` writes a self-contained v8 container; `info`, `verify`,
//! `query`, `serve` and `client` need nothing but that file. `serve`
//! answers the wire protocol of `PROTOCOL.md` (durability and
//! replication in `docs/DURABILITY.md`), and `client` runs a session
//! against a server or offline against the container, byte-identically.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use utcq::core::params::CompressParams;
use utcq::core::query::{PageRequest, QueryTarget};
use utcq::core::serve::{reconnect_backoff, Server};
use utcq::core::shard::{ByRegion, ByTime, ShardPolicy};
use utcq::core::stiu::StiuParams;
use utcq::core::store::{render_format, render_resident, render_sections};
use utcq::core::{storage, wire, FsyncPolicy, RangeQuery, Store, StoreBuilder, WalConfig};
use utcq::datagen::DatasetProfile;
use utcq::network::RoadNetwork;
use utcq::traj::Dataset;

/// One flag of a subcommand's table: its name as typed (`--trajs`,
/// `-n`), what its value stands for in help (`N`, `FILE`; empty for a
/// switch, which takes no value), its default (empty for none) and its
/// help line.
struct Flag(&'static str, &'static str, &'static str, &'static str);

/// One subcommand: its name (an `audit` engine's is two words), a
/// summary line, its flags in groups, and the function that runs it.
struct Cmd {
    name: &'static str,
    about: &'static str,
    groups: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<(), String>,
}

impl Cmd {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|g| g.iter())
    }

    /// `utcq <command> --help`: the command's table.
    fn help(&self) -> String {
        let mut out = format!("usage: utcq {} [flags]\n{}\n\n", self.name, self.about);
        for Flag(name, value, default, help) in self.flags() {
            let spec = format!("{name} {value}");
            let default = match *default {
                "" => String::new(),
                d => format!(" (default {d})"),
            };
            out += &format!("  {:<24}{help}{default}\n", spec.trim_end());
        }
        out
    }
}

const CONTAINER: &str = "data.utcq";

const NETWORK: &[Flag] = &[
    Flag("--profile", "NAME", "cd", "dataset profile: dk|cd|hz|tiny"),
    Flag("--seed", "S", "1", "generator seed"),
];
const TRAJS: &[Flag] = &[Flag("--trajs", "N", "200", "trajectories to generate")];
const INPUT: &[Flag] = &[Flag("--in", "FILE", CONTAINER, "the v8 container to open")];
#[rustfmt::skip]
const CACHE: &[Flag] = &[
    Flag("--cache-bytes", "N", "", "decode cache budget in bytes, 0 to disable (default the store's)"),
];
const ROOT: &[Flag] = &[Flag("--root", "DIR", ".", "the repository to check")];

#[rustfmt::skip]
const CMDS: &[Cmd] = &[
    Cmd { name: "stats", about: "print a generated dataset's statistics",
          groups: &[NETWORK, TRAJS], run: cmd_stats },
    Cmd { name: "compress", about: "generate a dataset and write it as a v8 container",
          groups: &[NETWORK, TRAJS, &[
              Flag("--out", "FILE", CONTAINER, "the container to write"),
              Flag("--shards", "N", "1", "partitions; 2 or more route by --shard-by"),
              Flag("--shard-by", "POLICY", "time", "routing policy: time|region"),
              Flag("--shard-interval", "S", "3600", "time bucket width in seconds (--shard-by time)"),
              Flag("--shard-grid", "N", "8", "routing grid side (--shard-by region)"),
          ]], run: cmd_compress },
    Cmd { name: "info", about: "describe a container: format, sections and resident bytes",
          groups: &[INPUT], run: cmd_info },
    Cmd { name: "migrate", about: "rewrite an older container or write-ahead log in the current format",
          groups: &[&[
              Flag("--in", "OLD", "", "the older container or log"),
              Flag("--out", "NEW", "", "where to write it (must not exist)"),
          ], NETWORK], run: cmd_migrate },
    Cmd { name: "verify", about: "check a container against the dataset it was compressed from",
          groups: &[NETWORK, TRAJS, INPUT], run: cmd_verify },
    Cmd { name: "query", about: "run a where, when and range workload drawn from the container",
          groups: &[INPUT, &[
              Flag("-n", "N", "100", "trajectories to probe"),
              Flag("--alpha", "A", "0.25", "probability threshold"),
              Flag("--limit", "L", "1024", "page limit"),
          ], CACHE, &[Flag("--cache-stats", "", "", "print the decode cache's counters after the workload")]],
          run: cmd_query },
    Cmd { name: "serve", about: "answer the PROTOCOL.md wire protocol over TCP",
          groups: &[INPUT, &[
              Flag("--addr", "HOST:PORT", "127.0.0.1:7071", "address to listen on (port 0 picks one)"),
              Flag("--threads", "N", "4", "event loops"),
          ], CACHE, &[
              Flag("--writable", "", "", "accept ingest and checkpoint"),
              Flag("--wal", "FILE", "", "write-ahead log: accepted batches are logged before they publish"),
              Flag("--fsync", "POLICY", "always", "log sync policy: always|never|every:N (needs --wal)"),
              Flag("--checkpoint-bytes", "N", "", "checkpoint once the log grows past N bytes (needs --wal)"),
              Flag("--follow", "HOST:PORT", "", "run a read-only replica of the leader there"),
          ]], run: cmd_serve },
    Cmd { name: "client", about: "send a session from stdin to a server, or run it offline",
          groups: &[&[
              Flag("--addr", "HOST:PORT", "", "the server; without it the session runs offline on --in"),
              Flag("--pipeline", "N", "1", "requests kept in flight (needs --addr)"),
          ], INPUT, &[Flag("--writable", "", "", "accept ingest and checkpoint offline")]],
          run: cmd_client },
    Cmd { name: "audit lint", about: "check the hot-path rules over crates/core and crates/legacy",
          groups: &[ROOT], run: cmd_audit_lint },
    Cmd { name: "audit fuzz", about: "fuzz the container, migrate, wire and log parsers",
          groups: &[ROOT, &[
              Flag("--iters", "N", "10000", "fuzz iterations"),
              Flag("--seed", "S", "0xC0FFEE", "seed, decimal or 0x hex"),
              Flag("--target", "NAME", "", "only this harness: container|migrate|wire|wal"),
              Flag("--replay", "", "", "replay tests/fuzz_regressions instead of fuzzing"),
          ]], run: cmd_audit_fuzz },
    Cmd { name: "audit sched", about: "model-check the concurrency scenarios",
          groups: &[&[Flag("--bound", "N", "4", "preemption bound")]], run: cmd_audit_sched },
];

/// `utcq` alone: every subcommand and its summary.
fn usage() -> String {
    let mut out =
        "usage: utcq <command> [flags]; `utcq <command> --help` lists its flags\n".to_string();
    for c in CMDS {
        out += &format!("  {:<13}{}\n", c.name, c.about);
    }
    out
}

/// The flags given to one subcommand, checked against its table.
struct Args {
    cmd: &'static Cmd,
    given: HashMap<&'static str, String>,
}

impl Args {
    /// Reads `argv` against `cmd`'s table: a value flag takes the next
    /// token, whatever it is (`--alpha -0.5`), and a switch takes none.
    /// `None` when `--help` asks for the table instead.
    fn parse(cmd: &'static Cmd, argv: &[String]) -> Result<Option<Self>, String> {
        let mut given = HashMap::new();
        let mut tokens = argv.iter();
        while let Some(tok) = tokens.next() {
            if tok == "--help" || tok == "-h" {
                return Ok(None);
            }
            let Some(flag) = cmd.flags().find(|f| f.0 == tok) else {
                let what = if tok.starts_with('-') {
                    "unknown flag"
                } else {
                    "unexpected argument"
                };
                return Err(format!("{tok}: {what}; see `utcq {} --help`", cmd.name));
            };
            let value = match flag.1 {
                "" => String::new(),
                v => tokens
                    .next()
                    .ok_or(format!("{tok}: missing its value {v}"))?
                    .clone(),
            };
            if given.insert(flag.0, value).is_some() {
                return Err(format!("{tok}: given twice"));
            }
        }
        Ok(Some(Self { cmd, given }))
    }

    /// `name`'s row. Asking for a flag the table lacks is a bug in this
    /// file, not in the command line.
    fn flag(&self, name: &str) -> &'static Flag {
        let row = self.cmd.flags().find(|f| f.0 == name);
        row.unwrap_or_else(|| panic!("{name} is not in the table of utcq {}", self.cmd.name))
    }

    /// Whether the command line gave `name`.
    fn on(&self, name: &str) -> bool {
        self.flag(name);
        self.given.contains_key(name)
    }

    /// `name`'s value: the one given, else its default.
    fn value(&self, name: &str) -> Option<&str> {
        let default = Some(self.flag(name).2).filter(|d| !d.is_empty());
        self.given.get(name).map(String::as_str).or(default)
    }

    /// [`Args::value`], which a flag with a default always has.
    fn get(&self, name: &str) -> Result<&str, String> {
        self.value(name).ok_or(format!("{name} is required"))
    }

    /// The number given for `name`, else its default, else `None`. A
    /// value that does not parse (`--trajs 10k`, `--seed x1`) is an error
    /// naming the flag and the value.
    fn parse_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("{name}: not a number: '{v}'"))
        };
        self.value(name).map(parse).transpose()
    }

    /// [`Args::parse_opt`] of a flag with a default.
    fn parse_num<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.parse_opt(name)?.ok_or(format!("{name} is required"))
    }

    /// Refuses `name` when it was given and `ignored` holds: the chosen
    /// mode would not read it.
    fn refuse(&self, name: &str, ignored: bool, why: &str) -> Result<(), String> {
        if ignored && self.on(name) {
            Err(format!("{name} {why}"))
        } else {
            Ok(())
        }
    }
}

/// The dataset profile `--profile` names.
fn profile(args: &Args) -> Result<DatasetProfile, String> {
    use utcq::datagen::profile::{cd, dk, hz, tiny};
    let name = args.get("--profile")?;
    match name.to_ascii_lowercase().as_str() {
        "dk" => Ok(dk()),
        "cd" => Ok(cd()),
        "hz" => Ok(hz()),
        "tiny" => Ok(tiny()),
        _ => Err(format!("unknown profile '{name}' (dk|cd|hz|tiny)")),
    }
}

fn build_dataset(args: &Args) -> Result<(DatasetProfile, RoadNetwork, Dataset), String> {
    let profile = profile(args)?;
    let trajs: usize = args.parse_num("--trajs")?;
    let (net, ds) = utcq::datagen::generate(&profile, trajs, args.parse_num("--seed")?);
    Ok((profile, net, ds))
}

fn params_for(profile: &DatasetProfile) -> CompressParams {
    CompressParams {
        eta_p: if profile.name == "HZ" {
            1.0 / 2048.0
        } else {
            1.0 / 512.0
        },
        n_pivots: if profile.name == "DK" { 2 } else { 1 },
        ..CompressParams::with_interval(profile.default_interval)
    }
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let (_, net, ds) = build_dataset(args)?;
    let s = utcq::traj::stats::summarize(&ds);
    let h = utcq::traj::stats::interval_deviations(&ds);
    emit(format_args!(
        "dataset {}\n  trajectories:        {}\n  avg instances:       {:.2}\n  \
         avg edges/instance:  {:.2}\n  avg samples:         {:.2}\n  \
         raw size:            {} KiB\n  intervals within ±1s: {:.1}%\n\
         network: {} vertices, {} edges, max out-degree {}\n",
        ds.name,
        s.trajectories,
        s.avg_instances,
        s.avg_edges,
        s.avg_samples,
        s.raw_bytes / 1024,
        h.within_one() * 100.0,
        net.vertex_count(),
        net.edge_count(),
        net.max_out_degree()
    ))
}

/// Writes to stdout, the one way `stats`, `info`, `query`, `client` and
/// `--help` print. A reader that went away (`utcq info … | head -1`)
/// ends the output: the process exits 0 where `print!` would panic.
fn emit(text: std::fmt::Arguments<'_>) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(text).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

/// The routing `--shard-by` names for `shards` partitions, `None` for
/// one. A shard flag the choice would ignore is an error.
fn shard_policy(args: &Args, shards: u32) -> Result<Option<Arc<dyn ShardPolicy>>, String> {
    let by = args.get("--shard-by")?;
    if !["time", "region"].contains(&by) {
        return Err(format!("unknown shard policy '{by}' (time|region)"));
    }
    for name in ["--shard-by", "--shard-interval", "--shard-grid"] {
        args.refuse(name, shards < 2, "needs --shards of 2 or more")?;
    }
    args.refuse("--shard-interval", by != "time", "needs --shard-by time")?;
    args.refuse("--shard-grid", by != "region", "needs --shard-by region")?;
    if shards < 2 {
        return Ok(None);
    }
    let policy: Arc<dyn ShardPolicy> = match by {
        "time" => Arc::new(ByTime {
            interval_s: args.parse_num("--shard-interval")?,
        }),
        _ => Arc::new(ByRegion {
            grid_n: args.parse_num("--shard-grid")?,
        }),
    };
    Ok(Some(policy))
}

fn cmd_compress(args: &Args) -> Result<(), String> {
    let shards: u32 = args.parse_num("--shards")?;
    let policy = shard_policy(args, shards)?;
    let out = args.get("--out")?;
    let (profile, net, ds) = build_dataset(args)?;
    let params = params_for(&profile);
    let t0 = std::time::Instant::now();
    let mut builder = StoreBuilder::new(Arc::new(net), params);
    if let Some(policy) = policy {
        builder = builder
            .shard_by(policy, shards)
            .map_err(|e| e.to_string())?;
    }
    let store = builder
        .ingest(&ds)
        .and_then(StoreBuilder::finish)
        .map_err(|e| e.to_string())?;
    let (r, dt) = (store.ratios(), t0.elapsed());
    println!(
        "compressed {} trajectories in {dt:?}: ratio {:.2} (T {:.2}, E {:.2}, D {:.2}, T' {:.2}, p {:.2})",
        store.len(), r.total, r.t, r.e, r.d, r.tflag, r.p
    );
    let kind = if shards > 1 {
        let sizes = Vec::from_iter(store.snapshots().iter().map(|s| s.len().to_string()));
        let policy = args.get("--shard-by")?;
        println!(
            "shard occupancy ({shards} shards, {policy}): [{}]",
            sizes.join(", ")
        );
        "v8, sharded"
    } else {
        "v8, single"
    };
    store.save(out).map_err(|e| e.to_string())?;
    println!("wrote {out} ({kind} container)");
    Ok(())
}

/// Opens the v8 container at `--in` as a queryable store.
fn open_store(args: &Args) -> Result<Store, String> {
    let path = args.get("--in")?;
    Store::open(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args.get("--in")?;
    let store = open_store(args)?;
    let mut f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let format = render_format(&storage::read_head(&mut f).map_err(|e| e.to_string())?);
    let sections = render_sections(&store.snapshot()).map_err(|e| e.to_string())?;
    let resident = render_resident(&store.snapshot());
    let report = store.info().render();
    emit(format_args!("{report}{format}{sections}{resident}"))
}

/// `utcq migrate`: rewrites an older container or write-ahead log at
/// `--in` in the current format at `--out` (a new file). A v1 container
/// stores no network: it is regenerated from `--profile` and `--seed`,
/// and the index is built with the default parameters.
fn cmd_migrate(args: &Args) -> Result<(), String> {
    let (input, output) = (args.get("--in")?, args.get("--out")?);
    let profile = profile(args)?;
    let seed = args.parse_num("--seed")?;
    let v1 = || {
        let net = utcq::datagen::generate_network(&profile, seed);
        (net, StiuParams::default())
    };
    let input_path = std::path::Path::new(input);
    let migrated = utcq_legacy::migrate(input_path, std::path::Path::new(output), v1)
        .map_err(|e| format!("{input}: {e}"))?;
    match migrated {
        utcq_legacy::Migrated::Container(v) => println!("wrote {output}: container v{v} as v8"),
        utcq_legacy::Migrated::Log(v, n) => {
            println!("wrote {output}: write-ahead log v{v} as v2 ({n} record(s))")
        }
    }
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let (_, _, ds) = build_dataset(args)?;
    let store = open_store(args)?;
    let mismatch = "container does not match the regenerated dataset";
    if store.len() != ds.trajectories.len() {
        return Err(mismatch.into());
    }
    // Shard order is not dataset order: match trajectories by id.
    let want: HashMap<u64, _> = ds.trajectories.iter().map(|tu| (tu.id, tu)).collect();
    let mut bounds = (0.0, 0.0);
    for snap in store.snapshots() {
        let cds = snap.compressed();
        bounds = (cds.params.eta_d, cds.params.eta_p);
        let back =
            utcq::core::decompress_dataset(store.network(), cds).map_err(|e| e.to_string())?;
        for b in &back.trajectories {
            let a = want.get(&b.id).ok_or(mismatch)?;
            utcq::core::decompress::check_lossy_roundtrip(a, b, bounds.0, bounds.1)?;
        }
    }
    println!(
        "verified: {} trajectories decompress within ηD = {}, ηp = {}",
        ds.trajectories.len(),
        bounds.0,
        bounds.1
    );
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let n: usize = args.parse_num("-n")?;
    let alpha: f64 = args.parse_num("--alpha")?;
    let limit: usize = args.parse_num("--limit")?;
    let cache_bytes = args.parse_opt::<usize>("--cache-bytes")?;
    let store = open_store(args)?;
    if let Some(bytes) = cache_bytes {
        store.set_cache_bytes(bytes);
    }
    // Derive a query workload from the store itself: decompress the
    // instances once to pick probe edges (zero side-channel arguments).
    // A sharded store contributes every partition's trajectories;
    // probing in id order keeps `-n N` selecting the same workload
    // whether the dataset sits in one partition or in many.
    let mut probes = Vec::new();
    for snap in store.snapshots() {
        let back = utcq::core::decompress_dataset(store.network(), snap.compressed())
            .map_err(|e| e.to_string())?;
        probes.extend(back.trajectories);
    }
    probes.sort_by_key(|tu| tu.id);
    let mut answered = 0usize;
    let mut range_hits = 0usize;
    let t0 = std::time::Instant::now();
    let mut ranges = Vec::new();
    for (k, tu) in probes.iter().enumerate().take(n) {
        let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
        answered += store
            .where_query(tu.id, mid, alpha, PageRequest::first(limit))
            .map_err(|e| e.to_string())?
            .items
            .len();
        let edge = tu.top_instance().path[k % tu.top_instance().path.len()];
        answered += store
            .when_query(tu.id, edge, 0.5, alpha, PageRequest::first(limit))
            .map_err(|e| e.to_string())?
            .items
            .len();
        if k % 10 == 0 {
            let b = store.network().bounding_rect();
            let re = utcq::network::Rect::new(
                b.min_x + (k % 4) as f64 * b.width() / 4.0,
                b.min_y,
                b.min_x + ((k % 4) + 1) as f64 * b.width() / 4.0,
                b.max_y,
            );
            ranges.push(RangeQuery { re, tq: mid, alpha });
        }
    }
    // The batched parallel path for the range workload.
    for ids in store.par_range_query(&ranges).map_err(|e| e.to_string())? {
        range_hits += ids.len();
    }
    emit(format_args!(
        "ran {} where+when queries ({} answers, page limit {limit}) and {} parallel range queries ({} hits) in {:?}\n",
        n.min(store.len()) * 2,
        answered,
        ranges.len(),
        range_hits,
        t0.elapsed()
    ))?;
    if args.on("--cache-stats") {
        // The shared formatter — the serve process prints the same line
        // at shutdown, so the two surfaces cannot drift.
        emit(format_args!("{}\n", store.cache_stats().render()))?;
    }
    Ok(())
}

/// Decodes `--fsync always|never|every:N`.
fn parse_fsync(s: &str) -> Result<FsyncPolicy, String> {
    match s {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        other => match other.strip_prefix("every:") {
            Some(n) => n
                .parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .map(FsyncPolicy::EveryN)
                .ok_or_else(|| format!("--fsync: not a batch count: '{n}'")),
            None => Err(format!("--fsync: expected always|never|every:N, got '{s}'")),
        },
    }
}

/// `utcq serve`: keep the container open and answer the `PROTOCOL.md`
/// wire protocol over TCP until a `shutdown` request arrives. Each of
/// the `--threads` event loops owns the connections handed to it and
/// executes their requests itself.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let writable = args.on("--writable");
    args.refuse(
        "--follow",
        writable,
        "runs a read-only replica; drop --writable",
    )?;
    args.refuse("--fsync", !args.on("--wal"), "needs --wal")?;
    args.refuse("--checkpoint-bytes", !args.on("--wal"), "needs --wal")?;
    let fsync = parse_fsync(args.get("--fsync")?)?;
    let checkpoint_bytes = args.parse_opt::<u64>("--checkpoint-bytes")?;
    let cache_bytes = args.parse_opt::<usize>("--cache-bytes")?;
    let threads: usize = args.parse_num("--threads")?;
    let (path, addr) = (args.get("--in")?, args.get("--addr")?);
    let store = Arc::new(open_store(args)?);
    if let Some(bytes) = cache_bytes {
        store.set_cache_bytes(bytes);
    }
    if let Some(wal_path) = args.value("--wal") {
        let cfg = WalConfig::new(wal_path).fsync(fsync).checkpoint_to(path);
        let replayed = store
            .attach_wal(cfg)
            .map_err(|e| format!("--wal {wal_path}: {e}"))?;
        if replayed > 0 {
            eprintln!("replayed {replayed} batch(es) from {wal_path}");
        }
    }
    let server = Server::bind(Arc::clone(&store), addr, threads)
        .map_err(|e| e.to_string())?
        .writable(writable);
    // The bound address goes to stdout (and is flushed) first: scripts
    // bind port 0 and read the real port back from this line.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    eprintln!(
        "serving {path} ({}, {} trajectories, {}) with {threads} event loops",
        store.info().shape(),
        store.len(),
        if writable { "writable" } else { "read-only" },
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut background = Vec::new();

    // Size-triggered checkpoints: poll the log and re-save + truncate
    // past the threshold. Runs next to the acceptor, not on it.
    if let Some(threshold) = checkpoint_bytes {
        let o = Arc::clone(&store);
        let s = Arc::clone(&stop);
        background.push(std::thread::spawn(move || {
            while !s.load(std::sync::atomic::Ordering::SeqCst) {
                if o.wal_bytes().is_some_and(|b| b >= threshold) {
                    match o.checkpoint() {
                        Ok(Some(r)) => eprintln!(
                            "checkpoint: saved epoch {} ({} log bytes truncated)",
                            r.epoch, r.log_bytes
                        ),
                        Ok(None) => {}
                        Err(e) => eprintln!("checkpoint failed: {e}"),
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
        }));
    }

    // The follower loop: stream the leader's accepted batches into this
    // container. A fatal follow error (gap, divergence) also stops the
    // server — a stale replica that cannot catch up should not keep
    // answering as if it were current.
    let follow_result: Arc<std::sync::Mutex<Result<(), String>>> =
        Arc::new(std::sync::Mutex::new(Ok(())));
    if let Some(leader) = args.value("--follow").map(str::to_string) {
        eprintln!("following {leader}");
        let o = Arc::clone(&store);
        let s = Arc::clone(&stop);
        let handle = server.handle();
        let out = Arc::clone(&follow_result);
        background.push(std::thread::spawn(move || {
            if let Err(e) = utcq::core::serve::follow(&o, &leader, &s) {
                if let Ok(mut slot) = out.lock() {
                    *slot = Err(e.to_string());
                }
                handle.shutdown();
            }
        }));
    }

    let run = server.run().map_err(|e| e.to_string());
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for t in background {
        let _ = t.join();
    }
    run?;
    if let Ok(slot) = follow_result.lock() {
        slot.clone()?;
    }
    eprintln!("{}", store.cache_stats().render());
    Ok(())
}

/// Most reconnect attempts `utcq client --addr` makes per request
/// before giving up.
const CLIENT_RETRY_ATTEMPTS: u32 = 5;

/// `utcq client`: execute a newline-delimited JSON session from stdin —
/// against a running server (`--addr`, reconnecting with bounded
/// backoff if the connection drops), or offline against the container
/// itself (`--in`). Both modes run every request through
/// `utcq::core::wire`, so their outputs are byte-identical; the
/// serve-smoke CI job diffs them.
fn cmd_client(args: &Args) -> Result<(), String> {
    let online = args.on("--addr");
    args.refuse("--pipeline", !online, "needs --addr")?;
    args.refuse(
        "--writable",
        online,
        "is offline only; a server takes its own --writable",
    )?;
    args.refuse("--in", online, "runs the session offline; drop --addr")?;
    let stdin = std::io::stdin();
    if let Some(addr) = args.value("--addr") {
        let window: usize = args.parse_num("--pipeline")?;
        if window > 1 {
            return client_pipelined(addr, window);
        }
        let connect = || -> Result<
            (
                BufReader<std::net::TcpStream>,
                BufWriter<std::net::TcpStream>,
            ),
            String,
        > {
            let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
            let read_half = stream.try_clone().map_err(|e| e.to_string())?;
            Ok((BufReader::new(read_half), BufWriter::new(stream)))
        };
        let (mut reader, mut writer) = connect()?;
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.trim().is_empty() {
                continue;
            }
            // One request may survive a dropped connection: send, and on
            // any transport failure reconnect with bounded exponential
            // backoff and re-send the same line. Queries are pure, and
            // ingest re-sends are recognized leader-side (the server
            // answers a WAL-recorded batch with `"deduped":true`), so
            // the retry is idempotent end to end.
            let mut response = String::new();
            let mut attempt: u32 = 0;
            loop {
                let sent = writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                let received = sent.and_then(|()| {
                    response.clear();
                    match reader.read_line(&mut response)? {
                        0 => Err(std::io::Error::other("server closed the connection")),
                        _ => Ok(()),
                    }
                });
                match received {
                    Ok(()) => break,
                    Err(e) => {
                        if attempt >= CLIENT_RETRY_ATTEMPTS {
                            return Err(format!("{addr}: {e} (after {attempt} retries)"));
                        }
                        eprintln!("reconnecting to {addr} (attempt {}): {e}", attempt + 1);
                        std::thread::sleep(reconnect_backoff(attempt));
                        attempt += 1;
                        match connect() {
                            Ok(rw) => (reader, writer) = rw,
                            Err(_) => continue, // next attempt re-dials
                        }
                    }
                }
            }
            emit(format_args!("{response}"))?;
            // A shutdown acknowledgement is the server's last word.
            let was_shutdown = matches!(
                wire::parse_request(&line),
                Ok(p) if matches!(p.request, wire::Request::Shutdown)
            );
            if was_shutdown && response.contains("\"ok\":true") {
                break;
            }
        }
        Ok(())
    } else {
        let store = open_store(args)?;
        let writable = args.on("--writable");
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.trim().is_empty() {
                continue;
            }
            let reply = wire::execute(&store, writable, &line);
            emit(format_args!("{}\n", reply.line))?;
            if reply.shutdown {
                break;
            }
        }
        Ok(())
    }
}

/// `utcq client --addr --pipeline N`: windowed protocol pipelining.
/// Up to `N` requests stay outstanding on one connection; responses
/// stream back in request order (the server's per-connection guarantee,
/// see `PROTOCOL.md`) and print as they arrive, so the output is still
/// byte-identical to the offline executor's. Unlike the serial mode
/// there is no reconnect-and-retry: a torn connection mid-window cannot
/// be replayed safely (some outstanding requests may have executed), so
/// transport failures are fatal.
fn client_pipelined(addr: &str, window: usize) -> Result<(), String> {
    let stdin = std::io::stdin();
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    // One entry per outstanding request: whether it was a `shutdown`
    // (whose acknowledgement is the server's last word).
    let mut outstanding: std::collections::VecDeque<bool> = std::collections::VecDeque::new();
    let mut recv_one =
        |outstanding: &mut std::collections::VecDeque<bool>| -> Result<bool, String> {
            let Some(was_shutdown) = outstanding.pop_front() else {
                return Ok(false);
            };
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(0) => return Err(format!("{addr}: server closed the connection mid-window")),
                Ok(_) => {}
                Err(e) => return Err(format!("{addr}: {e}")),
            }
            emit(format_args!("{response}"))?;
            Ok(was_shutdown && response.contains("\"ok\":true"))
        };

    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("{addr}: {e}"))?;
        let is_shutdown = matches!(
            wire::parse_request(&line),
            Ok(p) if matches!(p.request, wire::Request::Shutdown)
        );
        outstanding.push_back(is_shutdown);
        if is_shutdown {
            // Nothing pipelined behind a shutdown gets an answer; stop
            // sending and drain what is owed.
            break;
        }
        if outstanding.len() >= window {
            writer.flush().map_err(|e| format!("{addr}: {e}"))?;
            if recv_one(&mut outstanding)? {
                return Ok(());
            }
        }
    }
    writer.flush().map_err(|e| format!("{addr}: {e}"))?;
    while !outstanding.is_empty() {
        if recv_one(&mut outstanding)? {
            return Ok(());
        }
    }
    Ok(())
}

// `utcq audit <lint|fuzz|sched>`: the offline correctness tooling of
// `crates/audit` (see `docs/CORRECTNESS.md`). Every engine is
// deterministic: fixed seeds, bounded exploration, checked-in
// allowlists. A finding is a nonzero exit so CI can gate on it.

fn cmd_audit_lint(args: &Args) -> Result<(), String> {
    let root = std::path::Path::new(args.get("--root")?);
    let allow = root.join("crates/audit/lint.allow");
    let report = utcq::audit::lint::run(root, &allow)
        .map_err(|e| format!("lint: under {}: {e}", root.display()))?;
    for d in &report.diags {
        eprintln!("{d}");
    }
    for u in &report.unused_allows {
        eprintln!("unused allowlist entry: {u}");
    }
    if report.is_clean() {
        println!(
            "lint: {} file(s) clean, {} of them hot-path; crates/core/src: {} lines, {} pub declarations",
            report.files.len(),
            report.hot,
            report.core_lines,
            report.core_pub
        );
        Ok(())
    } else {
        Err(format!(
            "lint: {} diagnostic(s), {} unused allowlist entr(y|ies)",
            report.diags.len(),
            report.unused_allows.len()
        ))
    }
}

/// Accepts both decimal and `0x`-prefixed hex (`--seed 0xC0FFEE`).
fn parse_seed(s: &str) -> Result<u64, String> {
    let t = s.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    }
    .map_err(|_| format!("--seed: not a number: '{s}'"))
}

fn cmd_audit_fuzz(args: &Args) -> Result<(), String> {
    use utcq::audit::fuzz;
    for name in ["--iters", "--seed", "--target"] {
        args.refuse(name, args.on("--replay"), "does not apply to --replay")?;
    }
    let target = match args.value("--target") {
        None => None,
        Some(t) if ["container", "migrate", "wire", "wal"].contains(&t) => Some(t.to_string()),
        Some(t) => {
            return Err(format!(
                "--target: expected container|migrate|wire|wal, got '{t}'"
            ))
        }
    };
    let (iters, seed) = (args.parse_num("--iters")?, parse_seed(args.get("--seed")?)?);
    let root = std::path::Path::new(args.get("--root")?);
    let fx = fuzz::Fixtures::load(root)
        .map_err(|e| format!("fuzz: loading fixtures under {}: {e}", root.display()))?;
    let regressions = root.join("tests/fuzz_regressions");
    if args.on("--replay") {
        let failures = fuzz::replay_dir(&fx, &regressions).map_err(|e| e.to_string())?;
        for f in &failures {
            eprintln!("fuzz replay: [{}] {}", f.target, f.message);
        }
        return if failures.is_empty() {
            println!("fuzz replay: all regression inputs handled cleanly");
            Ok(())
        } else {
            Err(format!(
                "fuzz replay: {} regression(s) panic",
                failures.len()
            ))
        };
    }
    let opts = fuzz::FuzzOpts {
        iters,
        seed,
        regressions_dir: Some(regressions),
        target,
        ..fuzz::FuzzOpts::default()
    };
    let report = fuzz::run(&fx, &opts).map_err(|e| e.to_string())?;
    for f in &report.failures {
        eprintln!(
            "fuzz: [{}] iteration {}: {} (minimized to {} bytes{})",
            f.target,
            f.iteration,
            f.message,
            f.minimized_len,
            f.path
                .as_deref()
                .map(|p| format!(", saved to {}", p.display()))
                .unwrap_or_default()
        );
    }
    if report.failures.is_empty() {
        println!(
            "fuzz: {} mutated input(s) from seed {:#x}, zero panics",
            report.iters, opts.seed
        );
        Ok(())
    } else {
        Err(format!(
            "fuzz: {} distinct failure(s)",
            report.failures.len()
        ))
    }
}

fn cmd_audit_sched(args: &Args) -> Result<(), String> {
    use utcq::audit::sched;
    let bound: usize = args.parse_num("--bound")?;
    let scenarios = sched::all_scenarios();
    let mut total = 0usize;
    let mut violations = 0usize;
    for (name, budget, factory) in scenarios {
        let out = sched::explore(
            name,
            sched::SchedOpts {
                preemption_bound: bound,
                max_schedules: budget,
            },
            &factory,
        );
        total += out.schedules;
        println!(
            "sched: {name}: {} schedule(s) at bound {bound}{}",
            out.schedules,
            if out.exhausted {
                ", space exhausted"
            } else {
                ""
            }
        );
        if let Some(v) = out.violation {
            violations += 1;
            eprintln!("sched: {name}: VIOLATION: {}", v.message);
            for step in &v.trace {
                eprintln!("sched:   {step}");
            }
            eprintln!("sched:   replay schedule: {:?}", v.schedule);
        }
    }
    println!("sched: {total} schedule(s) total, {violations} violation(s)");
    if violations == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched: {violations} scenario(s) violated invariants"
        ))
    }
}

/// The subcommand `argv` names (an `audit` engine takes two words) and
/// the arguments after its name.
fn find_cmd(argv: &[String]) -> Option<(&'static Cmd, &[String])> {
    CMDS.iter().find_map(|cmd| {
        let words = cmd.name.split(' ').count();
        let named = argv.get(..words)?.iter().map(String::as_str);
        cmd.name.split(' ').eq(named).then(|| (cmd, &argv[words..]))
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match (find_cmd(&argv), argv.first().map(String::as_str)) {
        (None, None) => {
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        (None, Some("--help" | "-h")) => emit(format_args!("{}", usage())),
        (None, Some(word)) => Err(format!("unknown command '{word}'\n{}", usage().trim_end())),
        (Some((cmd, rest)), _) => match Args::parse(cmd, rest) {
            Ok(Some(args)) => (cmd.run)(&args),
            Ok(None) => emit(format_args!("{}", cmd.help())),
            Err(e) => Err(e),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, words: &[&str]) -> Result<Option<Args>, String> {
        let argv = Vec::from_iter(words.iter().map(|s| s.to_string()));
        let cmd = CMDS.iter().find(|c| c.name == cmd).expect("a command");
        Args::parse(cmd, &argv)
    }

    fn args(cmd: &str, words: &[&str]) -> Args {
        parse(cmd, words).expect("parses").expect("not --help")
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A value flag takes the next token whatever it looks like.
        let args = args("query", &["--alpha", "-0.5", "-n", "-1", "--limit", "-.5"]);
        assert_eq!(args.value("--alpha"), Some("-0.5"));
        assert_eq!(args.parse_num::<i64>("-n"), Ok(-1));
        assert_eq!(args.parse_num::<f64>("--limit"), Ok(-0.5));
    }

    #[test]
    fn malformed_numbers_are_errors_naming_flag_and_value() {
        let verify = args("verify", &["--trajs", "10k", "--seed", "x1"]);
        assert_eq!(
            verify.parse_num::<usize>("--trajs"),
            Err("--trajs: not a number: '10k'".to_string())
        );
        assert_eq!(
            verify.parse_num::<u64>("--seed"),
            Err("--seed: not a number: 'x1'".to_string())
        );
        let query = args("query", &["-n", "1.5"]);
        assert_eq!(
            query.parse_num::<usize>("-n"),
            Err("-n: not a number: '1.5'".to_string())
        );
        // An absent flag takes its table default, or none.
        assert_eq!(query.parse_num::<usize>("--limit"), Ok(1024));
        assert_eq!(query.parse_opt::<usize>("--cache-bytes"), Ok(None));
        assert_eq!(
            parse("query", &["--limit"]).err(),
            Some("--limit: missing its value L".to_string())
        );
    }

    #[test]
    fn flags_without_values_still_parse() {
        let args = args("query", &["--cache-stats", "--in", "x.utcq"]);
        assert!(args.on("--cache-stats") && !args.on("-n"));
        assert_eq!(args.value("--in"), Some("x.utcq"));
        // A switch never takes a value: what follows it is read anew.
        let e = parse("query", &["--cache-stats", "foo"]).err().unwrap();
        assert!(e.starts_with("foo: unexpected argument"), "{e}");
    }

    #[test]
    fn the_table_refuses_what_it_does_not_list() {
        for (words, said) in [
            (&["--shard", "3"][..], "--shard: unknown flag"),
            (&["--trajs", "5", "stray"], "stray: unexpected argument"),
            (&["--trajs", "5", "--trajs", "6"], "--trajs: given twice"),
            (&["--out"], "--out: missing its value FILE"),
        ] {
            let e = parse("compress", words).err().unwrap();
            assert!(e.starts_with(said), "{words:?}: {e}");
        }
        assert!(parse("compress", &["--trajs", "5", "--help"])
            .unwrap()
            .is_none());
    }

    #[test]
    #[should_panic(expected = "--alpha is not in the table of utcq compress")]
    fn reading_a_flag_outside_the_table_panics() {
        args("compress", &[]).value("--alpha");
    }

    #[test]
    fn help_lists_every_flag_once_with_its_default() {
        for cmd in CMDS {
            let help = cmd.help();
            let mut names = Vec::from_iter(cmd.flags().map(|f| f.0));
            for Flag(name, _, default, _) in cmd.flags() {
                assert!(help.contains(&format!("  {name} ")), "{}", cmd.name);
                assert!(default.is_empty() || help.contains(&format!("(default {default})")));
            }
            names.sort_unstable();
            let n = names.len();
            names.dedup();
            assert_eq!(names.len(), n, "utcq {} lists a flag twice", cmd.name);
        }
    }

    #[test]
    fn defaults_agree_with_the_library() {
        let compress = args("compress", &[]);
        let interval: i64 = compress.parse_num("--shard-interval").unwrap();
        assert_eq!(interval, ByTime::default().interval_s);
        let grid: u32 = compress.parse_num("--shard-grid").unwrap();
        assert_eq!(grid, ByRegion::default().grid_n);
        let fuzz = args("audit fuzz", &[]);
        let opts = utcq::audit::fuzz::FuzzOpts::default();
        assert_eq!(fuzz.parse_num::<u64>("--iters"), Ok(opts.iters));
        assert_eq!(parse_seed(fuzz.get("--seed").unwrap()), Ok(opts.seed));
    }
}
