//! `utcq` — command-line front end for the UTCQ reproduction.
//!
//! `compress` writes a **self-contained v8 container** (road network,
//! once, then per partition its compressed dataset and StIU index) —
//! with `--shards N`, of N partitions routed by `--shard-by
//! time|region`. `info`, `verify` and `query` operate on the file alone
//! — no profile/seed side channel. They open v8 containers; `migrate`
//! rewrites an older container (v1 to v7) or write-ahead log (v1) in
//! the current format first:
//!
//! ```text
//! utcq stats      --profile cd --trajs 200 --seed 1
//! utcq compress   --profile cd --trajs 200 --seed 1 --out data.utcq
//!                 [--shards 4] [--shard-by time|region]
//! utcq info       --in data.utcq
//! utcq migrate    --in old.utcq --out new.utcq [--profile cd --seed 1]
//! utcq verify     --profile cd --trajs 200 --seed 1 --in data.utcq
//! utcq query      --in data.utcq -n 100 [--alpha 0.25] [--limit 64]
//!                 [--cache-bytes N] [--cache-stats]
//! utcq serve      --in data.utcq [--addr 127.0.0.1:7071] [--threads 4]
//!                 [--cache-bytes N] [--writable]
//!                 [--wal log.wal] [--fsync always|never|every:N]
//!                 [--checkpoint-bytes N] [--follow HOST:PORT]
//! utcq client     --addr HOST:PORT [--pipeline N] | --in data.utcq [--writable]
//! ```
//!
//! A v1 container stores no network: `migrate` regenerates it from
//! `--profile` and `--seed` and rebuilds the index from the decompressed
//! trajectories (every later version's stored index is carried as is).
//!
//! `query` is written against `utcq::core::QueryTarget`, so the same
//! workload runs unchanged on a store of any partition count.
//! It uses the store's one decode cache (default 64 MiB, shared by all
//! partitions); `--cache-bytes` overrides the budget (`0` disables
//! caching) and `--cache-stats` prints the hit/miss/eviction counters
//! after the workload.
//!
//! `serve` keeps the container open in a long-lived process and answers
//! the newline-delimited JSON protocol of `PROTOCOL.md` over TCP, so
//! the decode cache stays warm across requests instead of being rebuilt
//! per invocation. With `--writable` the server also honors the
//! protocol's `ingest` op: batches append to the live store and publish
//! as new snapshots while queries keep running. `--wal` makes accepted
//! batches durable (append + fsync before publish, replay on restart),
//! `--checkpoint-bytes` bounds the log with crash-safe checkpoints, and
//! `--follow` runs a read-only replica streaming the leader's batches —
//! see `docs/DURABILITY.md`. `client` speaks the protocol from stdin —
//! against a running server (`--addr`, reconnecting with bounded
//! backoff if the connection drops; add `--pipeline N` to keep up to N
//! requests outstanding, responses stream back in request order), or
//! offline against the container itself (`--in`, add `--writable` to
//! replay ingest sessions), producing byte-identical responses; the
//! serve-smoke CI jobs diff the two.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

use utcq::core::opened::{render_format, render_resident, render_sections};
use utcq::core::params::CompressParams;
use utcq::core::query::{PageRequest, QueryTarget};
use utcq::core::serve::{reconnect_backoff, Server, DEFAULT_THREADS};
use utcq::core::shard::{ByRegion, ByTime, ShardPolicy};
use utcq::core::stiu::StiuParams;
use utcq::core::{storage, wire, FsyncPolicy, Opened, RangeQuery, StoreBuilder, WalConfig};
use utcq::datagen::DatasetProfile;
use utcq::network::RoadNetwork;
use utcq::traj::Dataset;

struct Args {
    flags: HashMap<String, String>,
}

/// Is this token a flag (`-n`, `--out`) rather than a negative numeric
/// value (`-33.9`, `-.5`, `-1`)? Flags never start with a digit or dot.
fn is_flag_token(a: &str) -> bool {
    match a.strip_prefix('-') {
        Some(rest) => !rest.starts_with(|c: char| c.is_ascii_digit() || c == '.'),
        None => false,
    }
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if is_flag_token(a) {
                let key = a.trim_start_matches('-');
                if i + 1 < argv.len() && !is_flag_token(&argv[i + 1]) {
                    flags.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string(), String::new());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Self { flags }
    }

    fn get(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// The number given for `key`, `None` when the flag is absent. A
    /// value that does not parse (`--trajs 10k`, `--seed x1`, a flag
    /// with no value) is an error naming the flag and the value.
    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(v) = self.flags.get(key) else {
            return Ok(None);
        };
        let dashes = if key.len() == 1 { "-" } else { "--" };
        v.parse()
            .map(Some)
            .map_err(|_| format!("{dashes}{key}: not a number: '{v}'"))
    }

    /// [`Args::parse_opt`], with `default` for an absent flag.
    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }
}

fn profile_by_name(name: &str) -> Option<DatasetProfile> {
    match name.to_ascii_lowercase().as_str() {
        "dk" => Some(utcq::datagen::profile::dk()),
        "cd" => Some(utcq::datagen::profile::cd()),
        "hz" => Some(utcq::datagen::profile::hz()),
        "tiny" => Some(utcq::datagen::profile::tiny()),
        _ => None,
    }
}

fn build_dataset(args: &Args) -> Result<(DatasetProfile, RoadNetwork, Dataset), String> {
    let pname = args.get("profile", "cd");
    let profile =
        profile_by_name(&pname).ok_or(format!("unknown profile '{pname}' (dk|cd|hz|tiny)"))?;
    let trajs: usize = args.parse_num("trajs", 200)?;
    let seed: u64 = args.parse_num("seed", 1)?;
    let (net, ds) = utcq::datagen::generate(&profile, trajs, seed);
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

/// Writes to stdout, the one way `stats`, `info`, `query` and `client`
/// print. A reader that went away (`utcq info … | head -1`) ends the
/// output: the process exits 0 where `print!` would panic.
fn emit(text: std::fmt::Arguments<'_>) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(text).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

/// The routing policy selected by `--shard-by` (default: time).
fn shard_policy(args: &Args) -> Result<Arc<dyn ShardPolicy>, String> {
    match args.get("shard-by", "time").as_str() {
        "time" => Ok(Arc::new(ByTime {
            interval_s: args.parse_num("shard-interval", ByTime::default().interval_s)?,
        })),
        "region" => Ok(Arc::new(ByRegion {
            grid_n: args.parse_num("shard-grid", ByRegion::default().grid_n)?,
        })),
        other => Err(format!("unknown shard policy '{other}' (time|region)")),
    }
}

fn cmd_compress(args: &Args) -> Result<(), String> {
    let (profile, net, ds) = build_dataset(args)?;
    let out = args.get("out", "data.utcq");
    let params = params_for(&profile);
    let shards: u32 = args.parse_num("shards", 1)?;
    let t0 = std::time::Instant::now();
    let mut builder = StoreBuilder::new(Arc::new(net), params);
    if shards > 1 {
        builder = builder
            .shard_by(shard_policy(args)?, shards)
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
        let policy = args.get("shard-by", "time");
        println!(
            "shard occupancy ({shards} shards, {policy}): [{}]",
            sizes.join(", ")
        );
        "v8, sharded"
    } else {
        "v8, single"
    };
    store.save(&out).map_err(|e| e.to_string())?;
    println!("wrote {out} ({kind} container)");
    Ok(())
}

/// Opens a v8 container as a queryable store through the
/// [`utcq::core::Opened`] facade.
fn open_store(args: &Args) -> Result<Opened, String> {
    let path = args.get("in", "data.utcq");
    Opened::open(&path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args.get("in", "data.utcq");
    let opened = open_store(args)?;
    let mut f = File::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let format = render_format(&storage::read_head(&mut f).map_err(|e| e.to_string())?);
    let sections = render_sections(&opened.snapshot()).map_err(|e| e.to_string())?;
    let resident = render_resident(&opened.snapshot());
    let report = opened.info().render();
    emit(format_args!("{report}{format}{sections}{resident}"))
}

/// `utcq migrate`: rewrites an older container or write-ahead log at
/// `--in` in the current format at `--out` (a new file). A v1 container
/// stores no network: it is regenerated from `--profile` and `--seed`,
/// and the index is built with the default parameters.
fn cmd_migrate(args: &Args) -> Result<(), String> {
    let (input, output) = (args.get("in", ""), args.get("out", ""));
    if input.is_empty() || output.is_empty() {
        return Err("migrate needs --in OLD and --out NEW".to_string());
    }
    let pname = args.get("profile", "cd");
    let profile =
        profile_by_name(&pname).ok_or(format!("unknown profile '{pname}' (dk|cd|hz|tiny)"))?;
    let seed = args.parse_num("seed", 1)?;
    let v1 = || {
        let net = utcq::datagen::generate_network(&profile, seed);
        (net, StiuParams::default())
    };
    let input_path = std::path::Path::new(&input);
    let migrated = utcq_legacy::migrate(input_path, std::path::Path::new(&output), v1)
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
    let opened = open_store(args)?;
    let mismatch = "container does not match the regenerated dataset";
    if opened.len() != ds.trajectories.len() {
        return Err(mismatch.into());
    }
    // Shard order is not dataset order: match trajectories by id.
    let want: HashMap<u64, _> = ds.trajectories.iter().map(|tu| (tu.id, tu)).collect();
    let mut bounds = (0.0, 0.0);
    for snap in opened.snapshots() {
        let cds = snap.compressed();
        bounds = (cds.params.eta_d, cds.params.eta_p);
        let back =
            utcq::core::decompress_dataset(opened.network(), cds).map_err(|e| e.to_string())?;
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
    let opened = open_store(args)?;
    let store = opened.target();
    let n: usize = args.parse_num("n", 100)?;
    let alpha: f64 = args.parse_num("alpha", 0.25)?;
    let limit: usize = args.parse_num("limit", 1024)?;
    if let Some(bytes) = args.parse_opt::<usize>("cache-bytes")? {
        store.set_cache_bytes(bytes);
    }
    // Derive a query workload from the store itself: decompress the
    // instances once to pick probe edges (zero side-channel arguments).
    // A sharded store contributes every partition's trajectories;
    // probing in id order keeps `-n N` selecting the same workload
    // whether the dataset sits in one partition or in many.
    let mut probes = Vec::new();
    for snap in opened.snapshots() {
        let back = utcq::core::decompress_dataset(opened.network(), snap.compressed())
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
    if args.flags.contains_key("cache-stats") {
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
/// wire protocol over TCP until a `shutdown` request arrives.
/// `--threads N` (default 4) runs N event loops; each owns the
/// connections handed to it and executes their requests itself.
///
/// Durability and replication flags (see `docs/DURABILITY.md`):
///
/// * `--wal PATH` attaches a write-ahead log — accepted batches are
///   appended and fsynced (`--fsync always|never|every:N`) before they
///   publish, and replayed on the next open;
/// * `--checkpoint-bytes N` re-saves the container crash-safely and
///   truncates the log whenever it grows past N bytes;
/// * `--follow ADDR` runs a read-only follower that streams accepted
///   batches from the leader at ADDR (mutually exclusive with
///   `--writable`).
fn cmd_serve(args: &Args) -> Result<(), String> {
    let opened = Arc::new(open_store(args)?);
    if let Some(bytes) = args.parse_opt::<usize>("cache-bytes")? {
        opened.set_cache_bytes(bytes);
    }
    let writable = args.flags.contains_key("writable");
    let follow_addr = args.flags.get("follow").cloned();
    if follow_addr.is_some() && writable {
        return Err("--follow runs a read-only replica; drop --writable".to_string());
    }
    if let Some(wal_path) = args.flags.get("wal") {
        let fsync = parse_fsync(&args.get("fsync", "always"))?;
        let cfg = WalConfig::new(wal_path)
            .fsync(fsync)
            .checkpoint_to(args.get("in", "data.utcq"));
        let replayed = opened
            .attach_wal(cfg)
            .map_err(|e| format!("--wal {wal_path}: {e}"))?;
        if replayed > 0 {
            eprintln!("replayed {replayed} batch(es) from {wal_path}");
        }
    }
    let threads: usize = args.parse_num("threads", DEFAULT_THREADS)?;
    let addr = args.get("addr", "127.0.0.1:7071");
    let server = Server::bind(Arc::clone(&opened), &addr, threads)
        .map_err(|e| e.to_string())?
        .writable(writable);
    // The bound address goes to stdout (and is flushed) first: scripts
    // bind port 0 and read the real port back from this line.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    eprintln!(
        "serving {} ({}, {} trajectories, {}) with {threads} event loops",
        args.get("in", "data.utcq"),
        opened.info().shape(),
        opened.len(),
        if writable { "writable" } else { "read-only" },
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut background = Vec::new();

    // Size-triggered checkpoints: poll the log and re-save + truncate
    // past the threshold. Runs next to the acceptor, not on it.
    if let Some(threshold) = args.parse_opt::<u64>("checkpoint-bytes")? {
        if opened.wal_bytes().is_none() {
            return Err("--checkpoint-bytes needs --wal".to_string());
        }
        let o = Arc::clone(&opened);
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
    if let Some(leader) = follow_addr {
        eprintln!("following {leader}");
        let o = Arc::clone(&opened);
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
    eprintln!("{}", opened.cache_stats().render());
    Ok(())
}

/// Most reconnect attempts `utcq client --addr` makes per request
/// before giving up.
const CLIENT_RETRY_ATTEMPTS: u32 = 5;

/// `utcq client`: execute a newline-delimited JSON session from stdin —
/// against a running server (`--addr`), or offline against the
/// container itself (`--in`). Both modes run every request through
/// `utcq::core::wire`, so their outputs are byte-identical; the
/// serve-smoke CI job diffs them.
fn cmd_client(args: &Args) -> Result<(), String> {
    let stdin = std::io::stdin();
    if let Some(addr) = args.flags.get("addr") {
        let window: usize = args.parse_num("pipeline", 1)?;
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
        let opened = open_store(args)?;
        let writable = args.flags.contains_key("writable");
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.trim().is_empty() {
                continue;
            }
            let reply = wire::execute(&opened, writable, &line);
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

/// `utcq audit <lint|fuzz|sched>`: the offline correctness tooling of
/// `crates/audit` behind one subcommand (see `docs/CORRECTNESS.md`).
/// Every engine is deterministic: fixed seeds, bounded exploration,
/// checked-in allowlists. A finding is a nonzero exit so CI can gate
/// on it.
fn cmd_audit(engine: Option<&str>, args: &Args) -> Result<(), String> {
    let root = std::path::PathBuf::from(args.get("root", "."));
    match engine {
        Some("lint") => audit_lint(&root),
        Some("fuzz") => audit_fuzz(&root, args),
        Some("sched") => audit_sched(args),
        _ => Err("usage: utcq audit <lint|fuzz|sched> [--root DIR] \
             [--iters N] [--seed S] [--replay] [--bound N]"
            .to_string()),
    }
}

fn audit_lint(root: &std::path::Path) -> Result<(), String> {
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

fn audit_fuzz(root: &std::path::Path, args: &Args) -> Result<(), String> {
    use utcq::audit::fuzz;
    let fx = fuzz::Fixtures::load(root)
        .map_err(|e| format!("fuzz: loading fixtures under {}: {e}", root.display()))?;
    let regressions = root.join("tests/fuzz_regressions");
    if args.flags.contains_key("replay") {
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
    let target = match args.flags.get("target") {
        None => None,
        Some(t) if ["container", "migrate", "wire", "wal"].contains(&t.as_str()) => Some(t.clone()),
        Some(t) => {
            return Err(format!(
                "--target: expected container|migrate|wire|wal, got '{t}'"
            ))
        }
    };
    let opts = fuzz::FuzzOpts {
        iters: args.parse_num("iters", fuzz::FuzzOpts::default().iters)?,
        seed: match args.flags.get("seed") {
            Some(v) => parse_seed(v)?,
            None => fuzz::FuzzOpts::default().seed,
        },
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

fn audit_sched(args: &Args) -> Result<(), String> {
    use utcq::audit::sched;
    let bound: usize = args.parse_num("bound", 4)?;
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

fn usage() -> String {
    "usage: utcq <stats|compress|info|migrate|verify|query|serve|client|audit> \
     [--profile dk|cd|hz|tiny] \
     [--trajs N] [--seed S] [--in FILE] [--out FILE] [-n N] [--alpha A] [--limit L] \
     [--shards N] [--shard-by time|region] [--shard-interval S] [--shard-grid N] \
     [--cache-bytes N] [--cache-stats] [--addr HOST:PORT] [--writable] [--pipeline N]\n\
     serve: [--threads N] (event loops, default 4) \
     [--wal FILE] [--fsync always|never|every:N] [--checkpoint-bytes N] [--follow HOST:PORT]\n\
     audit: utcq audit <lint|fuzz|sched> [--root DIR] [--iters N] [--seed S] [--replay] \
     [--bound N] [--target container|migrate|wire|wal]"
        .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&argv[1..]);
    let result = match cmd.as_str() {
        "stats" => cmd_stats(&args),
        "compress" => cmd_compress(&args),
        "info" => cmd_info(&args),
        "migrate" => cmd_migrate(&args),
        "verify" => cmd_verify(&args),
        "query" => cmd_query(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "audit" => cmd_audit(
            argv.get(1).map(String::as_str),
            &Args::parse(argv.get(2..).unwrap_or(&[])),
        ),
        _ => Err(usage()),
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

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // The old parser treated any `-…` token as a flag, so a negative
        // value was swallowed and its flag left empty.
        let args = Args::parse(&argv(&["--min-lat", "-33.9", "-n", "-1", "--eps", "-.5"]));
        assert_eq!(args.get("min-lat", ""), "-33.9");
        assert_eq!(args.parse_num::<i64>("n", 0), Ok(-1));
        assert_eq!(args.parse_num::<f64>("eps", 0.0), Ok(-0.5));
    }

    #[test]
    fn malformed_numbers_are_errors_naming_flag_and_value() {
        let args = Args::parse(&argv(&[
            "--trajs", "10k", "--seed", "x1", "-n", "1.5", "--limit",
        ]));
        assert_eq!(
            args.parse_num::<usize>("trajs", 200),
            Err("--trajs: not a number: '10k'".to_string())
        );
        assert_eq!(
            args.parse_num::<u64>("seed", 1),
            Err("--seed: not a number: 'x1'".to_string())
        );
        assert_eq!(
            args.parse_num::<usize>("n", 100),
            Err("-n: not a number: '1.5'".to_string())
        );
        assert_eq!(
            args.parse_opt::<usize>("limit"),
            Err("--limit: not a number: ''".to_string())
        );
        // An absent flag still takes its default.
        assert_eq!(args.parse_num::<usize>("shards", 1), Ok(1));
        assert_eq!(args.parse_opt::<usize>("cache-bytes"), Ok(None));
    }

    #[test]
    fn flags_without_values_still_parse() {
        let args = Args::parse(&argv(&["--verbose", "--out", "x.utcq", "-q"]));
        assert_eq!(args.get("verbose", "missing"), "");
        assert_eq!(args.get("out", ""), "x.utcq");
        assert_eq!(args.get("q", "missing"), "");
    }

    #[test]
    fn flag_heuristic() {
        assert!(is_flag_token("--out"));
        assert!(is_flag_token("-n"));
        assert!(!is_flag_token("-33.9"));
        assert!(!is_flag_token("-.5"));
        assert!(!is_flag_token("-1"));
        assert!(!is_flag_token("value"));
        assert!(!is_flag_token("33"));
    }
}
