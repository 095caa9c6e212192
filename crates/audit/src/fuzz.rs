//! A structure-aware, seeded fuzzer for the parse surfaces that face
//! untrusted bytes: the binary container loaders (`utcq_core::storage`,
//! `Store::read`/`Store::open`), the readers of older containers and
//! logs behind `utcq migrate` (`utcq_legacy`), the serve wire protocol
//! (`wire::handle_line`) and the write-ahead log, read
//! (`utcq_core::wal::scan` / `Wal::open`) and replayed into a store
//! (`Store::open_durable`).
//!
//! No external fuzzing engine (the workspace builds offline): the
//! corpus is the checked-in fixtures under `tests/fixtures/`, the
//! mutation engine is the workspace `rand` shim seeded from the CLI,
//! and the contract under test is simple — **parsers return `Err` (or
//! a protocol error line); they never panic**. Every iteration is
//! reproducible from `(seed, iteration)` alone.
//!
//! Failures are minimized with a ddmin-style reducer and written to
//! `tests/fuzz_regressions/`, where a checked-in test replays them
//! forever after.

use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::prelude::*;
use utcq_core::wal;
use utcq_core::wire::{self, Json};
use utcq_core::{PageRequest, QueryTarget, Store};
use utcq_network::EdgeId;

use crate::quiet::with_quiet_panics;

/// Fuzzer parameters.
#[derive(Clone, Debug)]
pub struct FuzzOpts {
    /// Mutated inputs to execute.
    pub iters: u64,
    /// Master seed; `(seed, iteration)` fully determines each input.
    pub seed: u64,
    /// Where to write minimized failing inputs (skipped when `None`).
    pub regressions_dir: Option<PathBuf>,
    /// Stop after this many distinct failures.
    pub max_failures: usize,
    /// Fuzz only this harness (`container`, `migrate`, `wire` or `wal`);
    /// `None` splits iterations across all of them.
    pub target: Option<String>,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        Self {
            iters: 10_000,
            seed: 0xC0FFEE,
            regressions_dir: None,
            max_failures: 8,
            target: None,
        }
    }
}

/// One input that made a parser panic.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which harness: `container`, `migrate`, `wire` or `wal`.
    pub target: &'static str,
    /// The panic message.
    pub message: String,
    /// Iteration that produced it (with the master seed, replays it).
    pub iteration: u64,
    /// Size of the minimized reproducer.
    pub minimized_len: usize,
    /// Where the reproducer was written, if a directory was given.
    pub path: Option<PathBuf>,
}

/// The result of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Corpus seeds loaded (containers + lines).
    pub corpus: usize,
    /// Panics found (empty on a healthy run).
    pub failures: Vec<Failure>,
}

/// The seed corpus plus the long-lived query target mutated requests
/// are executed against.
pub struct Fixtures {
    containers: Vec<Vec<u8>>,
    /// Every container and log `utcq migrate` reads: the files before v8.
    old: Vec<Vec<u8>>,
    /// The network a v1 container migrates on (`tiny_v8.utcq`'s).
    v1_net: utcq_network::RoadNetwork,
    lines: Vec<String>,
    wals: Vec<Vec<u8>>,
    store: Store,
    /// The container logs replay into (`tiny_v8.utcq`).
    replay_base: Vec<u8>,
    scratch: PathBuf,
    wal_scratch: PathBuf,
    /// Where `migrate` writes.
    migrated: PathBuf,
}

impl Fixtures {
    /// Loads the corpus from `tests/fixtures/` under `repo_root`.
    pub fn load(repo_root: &Path) -> io::Result<Self> {
        let dir = repo_root.join("tests/fixtures");
        let read = |name: &str| fs::read(dir.join(name));
        // What the core reads: v8, of one partition and of three, and
        // crafted v8 files each one check away from opening.
        let single = read("tiny_v8.utcq")?;
        let sharded = read("tiny_v8_sharded.utcq")?;
        let store = Store::open(dir.join("tiny_v8.utcq"))
            .map_err(|e| io::Error::other(format!("open tiny_v8 fixture: {e}")))?;
        let mut containers = v8_seeds(&single, &sharded, store.network());
        containers.extend([single, sharded]);
        // What `utcq migrate` reads, among them every shape of region
        // tuple: v4 (the reader's consume-and-drop path), v5 (fixed-width,
        // sorted), v6 (coded against the trajectory); and the v1 log.
        let mut old = Vec::new();
        for version in [
            "v1",
            "v2",
            "v3",
            "v4",
            "v3_packed",
            "v5",
            "v3_v5",
            "v6",
            "v3_v6",
            "v7",
            "v3_v7",
        ] {
            old.push(read(&format!("tiny_{version}.utcq"))?);
        }
        old.push(read("wal_v1.wal")?);
        let mut lines: Vec<String> = Vec::new();
        for name in ["serve_session.ndjson", "serve_session_writable.ndjson"] {
            let text = fs::read_to_string(dir.join(name))?;
            lines.extend(
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(String::from),
            );
        }
        // A few canonical shapes the sessions may not cover. The first
        // range line is deliberately the *wrong* field shape (a legacy
        // guess) — rejection paths deserve seeds too.
        lines.push(
            r#"{"op":"range","rect":[0,0,1000,1000],"t":70000,"alpha":0.1,"limit":3}"#.into(),
        );
        // Well-formed PROTOCOL.md range requests, so mutations start
        // from the real grammar: the wire shape is min_x/min_y/max_x/
        // max_y + tq, α optional. Boundary and adversarial α values
        // (0, 1, out-of-range, overflowing literal, non-numeric) seed
        // the probability-pruning and error paths directly.
        lines.push(
            r#"{"op":"range","min_x":0,"min_y":0,"max_x":1000,"max_y":1000,"tq":70000,"alpha":0.1,"limit":3}"#.into(),
        );
        lines.push(
            r#"{"id":7,"op":"range","min_x":-4.5,"min_y":-4.5,"max_x":4.5,"max_y":4.5,"tq":19285,"alpha":0,"cursor":"1"}"#.into(),
        );
        lines.push(
            r#"{"op":"range","min_x":0,"min_y":0,"max_x":1,"max_y":1,"tq":0,"alpha":1}"#.into(),
        );
        lines.push(
            r#"{"op":"range","min_x":0,"min_y":0,"max_x":1,"max_y":1,"tq":0,"alpha":-3.5}"#.into(),
        );
        lines.push(
            r#"{"op":"range","min_x":0,"min_y":0,"max_x":1,"max_y":1,"tq":0,"alpha":1e999}"#.into(),
        );
        lines.push(
            r#"{"op":"range","min_x":0,"min_y":0,"max_x":1,"max_y":1,"tq":0,"alpha":"NaN"}"#.into(),
        );
        lines.push(r#"{"op":"when","traj":0,"edge":1,"rd":0.5,"alpha":0}"#.into());
        // An edge past the fixtures' 162: an empty page, not an index.
        lines.push(r#"{"op":"when","traj":0,"edge":162,"rd":0.5,"alpha":0}"#.into());
        // Integer fields at the edge of `f64` exactness: 2^53 - 1 is the
        // last accepted literal, 2^53 + 1 must not address 2^53.
        lines.push(r#"{"op":"where","traj":9007199254740991,"t":-9007199254740991}"#.into());
        lines.push(
            r#"{"op":"where","traj":9007199254740993,"t":0,"limit":18446744073709551615}"#.into(),
        );
        lines.push(r#"{"op":"stats"}"#.into());
        let v1_net = (**store.network()).clone();
        let scratch = std::env::temp_dir().join(format!(
            "utcq-audit-fuzz-{}-{:x}.utcq",
            std::process::id(),
            &containers as *const _ as usize
        ));
        let wal_scratch = scratch.with_extension("wal");
        let migrated = scratch.with_extension("migrated");
        Ok(Self {
            containers,
            old,
            v1_net,
            lines,
            wals: wal_seed_corpus(&dir)?,
            store,
            replay_base: fs::read(dir.join("tiny_v8.utcq"))?,
            scratch,
            wal_scratch,
            migrated,
        })
    }

    fn corpus_len(&self) -> usize {
        self.containers.len() + self.old.len() + self.lines.len() + self.wals.len()
    }
}

impl Drop for Fixtures {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.scratch);
        let _ = fs::remove_file(&self.wal_scratch);
        let _ = fs::remove_file(&self.migrated);
    }
}

/// The seed corpus of the `wal` target: the checked-in v2 log plus
/// well-formed v2 files built in memory —
/// a header alone, then checksummed batch records, among them one
/// trajectory whose instances take every branch of the
/// reference-relative code, and one that fits the replay container
/// (`tiny_v7.utcq`: 10 s interval, 162 edges) but for an edge past its
/// network.
fn wal_seed_corpus(dir: &Path) -> io::Result<Vec<Vec<u8>>> {
    use utcq_network::EdgeId;
    use utcq_traj::{Instance, PathPosition, UncertainTrajectory};
    let instance = |path: &[u32], positions: &[(u32, f64)], prob: f64| Instance {
        path: path.iter().map(|&e| EdgeId(e)).collect(),
        positions: positions
            .iter()
            .map(|&(path_idx, rd)| PathPosition { path_idx, rd })
            .collect(),
        prob,
    };
    let reference = instance(&[0, 1, 2], &[(0, 0.25), (1, 0.5), (2, 0.75)], 0.5);
    let record = |epoch: u64, id: u64, n_times: usize, instances: Vec<Instance>| wal::Record {
        epoch,
        name: format!("fuzz-seed-{id}"),
        default_interval: 30,
        trajectories: vec![UncertainTrajectory {
            id,
            times: (0..n_times as i64).map(|k| k * 30).collect(),
            instances,
        }],
    };
    let header = || {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(wal::WAL_MAGIC);
        bytes.extend_from_slice(&wal::WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no extra header
        bytes
    };
    let mut one = header();
    one.extend_from_slice(&wal::encode_record(&record(
        1,
        10,
        3,
        vec![reference.clone()],
    )));
    let mut three = header();
    for (e, id) in [(1u64, 20u64), (2, 21), (3, 22)] {
        three.extend_from_slice(&wal::encode_record(&record(
            e,
            id,
            5,
            vec![reference.clone()],
        )));
    }
    let variants = vec![
        reference.clone(),
        // A detour over the middle edge.
        instance(&[0, 7, 8, 2], &[(0, 0.25), (2, 0.1), (3, 0.75)], 0.2),
        // The reference's path, one rd jittered.
        instance(&[0, 1, 2], &[(0, 0.25), (1, 0.6), (2, 0.75)], 0.2),
        // A longer tail.
        instance(&[0, 1, 2, 3], &[(0, 0.25), (1, 0.5), (3, 0.4)], 0.1),
    ];
    let mut multi = header();
    multi.extend_from_slice(&wal::encode_record(&record(1, 30, 3, variants)));
    let mut off_network = header();
    off_network.extend_from_slice(&wal::encode_record(&wal::Record {
        default_interval: 10,
        trajectories: vec![UncertainTrajectory {
            id: 1_000,
            times: vec![0, 10],
            instances: vec![instance(&[167], &[(0, 0.25), (0, 0.75)], 1.0)],
        }],
        ..record(1, 1_000, 0, Vec::new())
    }));
    let mut wals = vec![header(), one, three, multi, off_network];
    wals.push(fs::read(dir.join("wal_v2.wal"))?);
    Ok(wals)
}

/// Crafted v8 containers, each one check from opening: of the single
/// fixture (`net` is its network), a degree past its width, a target
/// past the last vertex, a non-finite coordinate and trailing bytes; of
/// the sharded one, a partition count one past and one short of its
/// bodies.
fn v8_seeds(single: &[u8], sharded: &[u8], net: &utcq_network::RoadNetwork) -> Vec<Vec<u8>> {
    // The head is 18 bytes, then V, E and D; then the coordinates.
    let (v, d) = (net.vertex_count(), net.max_out_degree());
    let packed = 8 * (30 + 16 * v);
    let target = packed + v * utcq_bitio::width_for_max(d.into()) as usize;
    let target_width = utcq_bitio::width_for_max(v.saturating_sub(1) as u64) as usize;
    let edit = |from: &[u8], f: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = from.to_vec();
        f(&mut bytes);
        bytes
    };
    let ones = |bytes: &mut Vec<u8>, at: usize, width: usize| {
        for bit in at..at + width {
            if let Some(b) = bytes.get_mut(bit / 8) {
                *b |= 0x80 >> (bit % 8);
            }
        }
    };
    let parts = |bytes: &mut Vec<u8>, delta: i32| {
        if let Some(n) = bytes.get_mut(14) {
            *n = n.wrapping_add_signed(delta as i8);
        }
    };
    vec![
        edit(single, &|b| b[26..30].copy_from_slice(&1u32.to_le_bytes())),
        edit(single, &|b| ones(b, target, target_width)),
        edit(single, &|b| {
            b[30..38].copy_from_slice(&f64::NAN.to_le_bytes())
        }),
        edit(single, &|b| b.extend([0, 1, 2])),
        edit(sharded, &|b| parts(b, 1)),
        edit(sharded, &|b| parts(b, -1)),
    ]
}

// ---------------------------------------------------------------------
// Harnesses: run a candidate input through every parser that should
// reject it gracefully. The contract is "no panic"; return values are
// deliberately ignored.

fn container_harness(fx: &Fixtures, bytes: &[u8]) {
    if let Ok(store) = Store::read(&mut &bytes[..]) {
        query_first(&store);
    }
    // The full open path (header sniffing, snapshot build); a scratch
    // file because `open` takes a path.
    if fs::write(&fx.scratch, bytes).is_ok() {
        let _ = Store::open(&fx.scratch);
    }
}

/// Queries a container that opened, so crafted streams reach the query
/// paths (a `T` whose times do not increase among them): a *where* at
/// the midpoint of the first stored trajectory's decoded span, a *when*
/// at edge 0, and a *range* over the whole network at that time.
fn query_first(store: &Store) {
    let parts = store.snapshots();
    let first = parts
        .iter()
        .find_map(|p| p.compressed().trajectories.get(0));
    let Some(id) = first.map(|ct| ct.id) else {
        return;
    };
    let Ok(Some(times)) = store.decode_times(id) else {
        return;
    };
    let (Some(&a), Some(&b)) = (times.first(), times.last()) else {
        return;
    };
    // The midpoint in i128: a crafted span may not fit an i64 difference.
    let t = ((i128::from(a) + i128::from(b)) / 2) as i64;
    let _ = store.where_query(id, t, 0.0, PageRequest::all());
    let _ = store.when_query(id, EdgeId(0), 0.5, 0.0, PageRequest::all());
    let everywhere = store.network().bounding_rect();
    let _ = store.range_query(&everywhere, t, 0.0, PageRequest::all());
}

fn migrate_harness(fx: &Fixtures, bytes: &[u8]) {
    // The whole of `utcq migrate` — sniffing container from log, the
    // legacy readers, core's writers and the open of what they wrote —
    // on a scratch file; a v1 container migrates on the v7 fixture's
    // network.
    let _ = fs::remove_file(&fx.migrated);
    if fs::write(&fx.scratch, bytes).is_ok() {
        let v1 = || (fx.v1_net.clone(), utcq_core::StiuParams::default());
        let _ = utcq_legacy::migrate(&fx.scratch, &fx.migrated, v1);
    }
}

fn wire_harness(fx: &Fixtures, bytes: &[u8]) {
    let Ok(line) = std::str::from_utf8(bytes) else {
        return; // requests are lines of text by construction
    };
    let _ = Json::parse(line);
    let _ = wire::handle_line(&fx.store, line);
}

fn wal_harness(fx: &Fixtures, bytes: &[u8]) {
    // The pure scanner first (what replay and torn-tail detection run
    // on), then the full open path, which additionally truncates a torn
    // tail on a scratch copy of the file, then the replay of what that
    // left into a scratch copy of a container.
    let _ = wal::scan(bytes);
    if fs::write(&fx.wal_scratch, bytes).is_ok() {
        let cfg = || wal::WalConfig::new(&fx.wal_scratch);
        let _ = wal::Wal::open(&cfg());
        if fs::write(&fx.scratch, &fx.replay_base).is_ok() {
            let _ = Store::open_durable(&fx.scratch, cfg());
        }
    }
}

fn runs_clean(fx: &Fixtures, target: &str, bytes: &[u8]) -> Result<(), String> {
    let r = catch_unwind(AssertUnwindSafe(|| match target {
        "container" => container_harness(fx, bytes),
        "migrate" => migrate_harness(fx, bytes),
        "wal" => wal_harness(fx, bytes),
        _ => wire_harness(fx, bytes),
    }));
    r.map_err(crate::quiet::payload_msg)
}

// ---------------------------------------------------------------------
// Mutation engine.

/// Huge decimal strings that overflow u64/i64/f64-exactness when a
/// field is swapped for one (cursor fields travel as decimal strings).
const HUGE_DECIMALS: &[&str] = &[
    "9223372036854775808",                     // 2^63
    "18446744073709551615",                    // 2^64 - 1
    "18446744073709551616",                    // 2^64
    "340282366920938463463374607431768211456", // 2^128
    "-9223372036854775809",
];

fn mutate_bytes(rng: &mut StdRng, data: &mut Vec<u8>) {
    if data.is_empty() {
        data.extend_from_slice(b"\x00");
        return;
    }
    match rng.gen_range(0u32..7) {
        0 => {
            // Flip one bit.
            let i = rng.gen_range(0..data.len());
            data[i] ^= 1 << rng.gen_range(0u32..8);
        }
        1 => {
            // Overwrite one byte.
            let i = rng.gen_range(0..data.len());
            data[i] = (rng.gen::<u32>() & 0xFF) as u8;
        }
        2 => {
            // Truncate.
            data.truncate(rng.gen_range(0..data.len()));
        }
        3 => {
            // Zero a range.
            let i = rng.gen_range(0..data.len());
            let j = (i + rng.gen_range(1..64usize)).min(data.len());
            for b in &mut data[i..j] {
                *b = 0;
            }
        }
        4 => {
            // Corrupt a little-endian length-looking field: huge or
            // sign-flipped values provoke over-allocation bugs.
            let width = if rng.gen_bool(0.5) { 4 } else { 8 };
            if data.len() > width {
                let i = rng.gen_range(0..data.len() - width);
                let v: u64 = if rng.gen_bool(0.5) {
                    u64::MAX
                } else {
                    rng.gen::<u64>()
                };
                data[i..i + width].copy_from_slice(&v.to_le_bytes()[..width]);
            }
        }
        5 => {
            // Duplicate a chunk (messes with element counts).
            let i = rng.gen_range(0..data.len());
            let j = (i + rng.gen_range(1..32usize)).min(data.len());
            let chunk: Vec<u8> = data[i..j].to_vec();
            let at = rng.gen_range(0..=data.len());
            data.splice(at..at, chunk);
        }
        _ => {
            // Insert random bytes.
            let at = rng.gen_range(0..=data.len());
            let n = rng.gen_range(1..16usize);
            let junk: Vec<u8> = (0..n).map(|_| (rng.gen::<u32>() & 0xFF) as u8).collect();
            data.splice(at..at, junk);
        }
    }
}

fn mutate_line(rng: &mut StdRng, line: &mut String) {
    match rng.gen_range(0u32..6) {
        0 => {
            // Swap a number (or any digit run) for a huge decimal.
            let digits: Vec<(usize, usize)> = digit_runs(line);
            if let Some(&(start, end)) = pick(rng, &digits) {
                let huge = HUGE_DECIMALS[rng.gen_range(0..HUGE_DECIMALS.len())];
                line.replace_range(start..end, huge);
            }
        }
        1 => {
            // Duplicate a top-level-ish "key":value segment.
            let commas: Vec<usize> = line
                .char_indices()
                .filter(|&(_, c)| c == ',')
                .map(|(i, _)| i)
                .collect();
            if let Some(&cut) = pick(rng, &commas) {
                let end = line[cut + 1..]
                    .find([',', '}'])
                    .map_or(line.len(), |e| cut + 1 + e);
                let segment = line[cut..end].to_string();
                line.insert_str(cut, &segment);
            }
        }
        2 => {
            // Rename a key by mangling a letter inside quotes.
            let letters: Vec<usize> = line
                .char_indices()
                .filter(|&(i, c)| c.is_ascii_lowercase() && line[..i].matches('"').count() % 2 == 1)
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = pick(rng, &letters) {
                let c = (b'a' + (rng.gen::<u32>() % 26) as u8) as char;
                line.replace_range(i..i + 1, &c.to_string());
            }
        }
        3 => {
            // Deep nesting around the JSON depth limit.
            let depth = rng.gen_range(100..200usize);
            let mut nested = String::with_capacity(depth * 2 + 32);
            nested.push_str("{\"op\":\"where\",\"traj\":");
            for _ in 0..depth {
                nested.push('[');
            }
            nested.push('1');
            for _ in 0..depth {
                nested.push(']');
            }
            nested.push('}');
            *line = nested;
        }
        4 => {
            // Oversize the line past MAX_REQUEST_BYTES.
            let pad = wire::MAX_REQUEST_BYTES + rng.gen_range(1..4096usize);
            let mut big = line.clone();
            big.reserve(pad);
            while big.len() <= pad {
                big.push(' ');
            }
            *line = big;
        }
        _ => {
            // Fall back to byte-level damage, repaired into UTF-8.
            let mut bytes = line.clone().into_bytes();
            mutate_bytes(rng, &mut bytes);
            *line = String::from_utf8_lossy(&bytes).into_owned();
        }
    }
}

fn digit_runs(s: &str) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, c) in s.char_indices() {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(st)) => {
                runs.push((st, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(st) = start {
        runs.push((st, s.len()));
    }
    runs
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())]) // bounds: non-empty checked
    }
}

/// Builds the input for `(seed, iteration)` — the whole run replays
/// from these two numbers (and the optional forced target).
fn build_input(
    fx: &Fixtures,
    seed: u64,
    iteration: u64,
    forced: Option<&str>,
) -> (&'static str, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let rounds = rng.gen_range(1..=4usize);
    let target = match forced {
        Some("container") => 0,
        Some("wal") => 1,
        Some("migrate") => 2,
        Some(_) => 3,
        None => rng.gen_range(0u32..4),
    };
    let (name, corpus) = match target {
        0 => ("container", &fx.containers),
        1 => ("wal", &fx.wals),
        2 => ("migrate", &fx.old),
        _ => {
            let base = &fx.lines[rng.gen_range(0..fx.lines.len())]; // bounds: fixture sessions are non-empty
            let mut line = base.clone();
            for _ in 0..rounds {
                mutate_line(&mut rng, &mut line);
            }
            return ("wire", line.into_bytes());
        }
    };
    let base = &corpus[rng.gen_range(0..corpus.len())]; // bounds: every corpus loads non-empty
    let mut bytes = base.clone();
    for _ in 0..rounds {
        mutate_bytes(&mut rng, &mut bytes);
    }
    (name, bytes)
}

// ---------------------------------------------------------------------
// Minimization: ddmin-lite. Repeatedly delete chunks (halving the
// chunk size) while the input still panics, bounded by a fixed budget
// of harness executions.

fn minimize(fx: &Fixtures, target: &str, input: &[u8]) -> Vec<u8> {
    let mut cur = input.to_vec();
    let mut budget = 2_000usize;
    let mut chunk = (cur.len() / 2).max(1);
    while chunk >= 1 && budget > 0 {
        let mut i = 0;
        let mut shrunk = false;
        while i < cur.len() && budget > 0 {
            let mut candidate = Vec::with_capacity(cur.len());
            candidate.extend_from_slice(&cur[..i]);
            candidate.extend_from_slice(&cur[(i + chunk).min(cur.len())..]);
            budget -= 1;
            if !candidate.is_empty() && runs_clean(fx, target, &candidate).is_err() {
                cur = candidate;
                shrunk = true;
                // Same offset again: the next chunk slid into place.
            } else {
                i += chunk;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    cur
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the fuzzer. Deterministic for a given `(corpus, opts)`.
pub fn run(fx: &Fixtures, opts: &FuzzOpts) -> io::Result<FuzzReport> {
    let mut report = FuzzReport {
        corpus: fx.corpus_len(),
        ..FuzzReport::default()
    };
    let mut seen_messages: Vec<String> = Vec::new();
    with_quiet_panics(|| {
        for i in 0..opts.iters {
            let (target, input) = build_input(fx, opts.seed, i, opts.target.as_deref());
            report.iters += 1;
            let Err(message) = runs_clean(fx, target, &input) else {
                continue;
            };
            // Dedup by panic message so one bug doesn't flood the run.
            if seen_messages.contains(&message) {
                continue;
            }
            seen_messages.push(message.clone());
            let minimized = minimize(fx, target, &input);
            let path = match &opts.regressions_dir {
                Some(dir) => {
                    fs::create_dir_all(dir)?;
                    let name = format!("{target}-{:016x}.bin", fnv1a(&minimized));
                    let p = dir.join(name);
                    fs::write(&p, &minimized)?;
                    Some(p)
                }
                None => None,
            };
            report.failures.push(Failure {
                target,
                message,
                iteration: i,
                minimized_len: minimized.len(),
                path,
            });
            if report.failures.len() >= opts.max_failures {
                break;
            }
        }
        Ok(())
    })
    .map(|()| report)
}

/// Replays every `*.bin` under `dir` (the regression corpus); returns
/// the inputs that still panic. An empty result is the healthy state.
pub fn replay_dir(fx: &Fixtures, dir: &Path) -> io::Result<Vec<Failure>> {
    let mut failures = Vec::new();
    if !dir.exists() {
        return Ok(failures);
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    entries.sort();
    with_quiet_panics(|| {
        for p in entries {
            let bytes = fs::read(&p)?;
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            let target = if name.starts_with("container-") {
                "container"
            } else if name.starts_with("migrate-") {
                "migrate"
            } else if name.starts_with("wal-") {
                "wal"
            } else {
                "wire"
            };
            if let Err(message) = runs_clean(fx, target, &bytes) {
                failures.push(Failure {
                    target,
                    message,
                    iteration: 0,
                    minimized_len: bytes.len(),
                    path: Some(p),
                });
            }
        }
        Ok(())
    })
    .map(|()| failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> Fixtures {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        Fixtures::load(&root).expect("fixture corpus")
    }

    #[test]
    fn inputs_are_reproducible_from_seed_and_iteration() {
        let fx = fixtures();
        for i in [0, 1, 17, 4096] {
            let a = build_input(&fx, 0xC0FFEE, i, None);
            let b = build_input(&fx, 0xC0FFEE, i, None);
            assert_eq!(a, b);
        }
        let (_, a) = build_input(&fx, 1, 0, None);
        let (_, b) = build_input(&fx, 2, 0, None);
        assert_ne!(a, b, "different seeds must differ");
        for forced in ["container", "migrate", "wal", "wire"] {
            let (t, _) = build_input(&fx, 1, 0, Some(forced));
            assert_eq!(t, forced);
        }
    }

    #[test]
    fn pristine_fixtures_run_clean() {
        let fx = fixtures();
        for (i, c) in fx.containers.clone().iter().enumerate() {
            assert!(runs_clean(&fx, "container", c).is_ok(), "fixture {i}");
        }
        for (i, c) in fx.old.clone().iter().enumerate() {
            assert!(runs_clean(&fx, "migrate", c).is_ok(), "old fixture {i}");
        }
        for l in fx.lines.clone() {
            assert!(runs_clean(&fx, "wire", l.as_bytes()).is_ok(), "{l}");
        }
        for (i, w) in fx.wals.clone().iter().enumerate() {
            assert!(runs_clean(&fx, "wal", w).is_ok(), "wal seed {i}");
        }
    }

    #[test]
    fn smoke_run_is_deterministic_and_panic_free() {
        let fx = fixtures();
        let opts = FuzzOpts {
            iters: 300,
            seed: 0xC0FFEE,
            regressions_dir: None,
            max_failures: 8,
            target: None,
        };
        let r1 = run(&fx, &opts).unwrap();
        assert_eq!(r1.iters, 300);
        if let Some(f) = r1.failures.first() {
            panic!("fuzzer found a panic: [{}] {}", f.target, f.message);
        }
    }
}
