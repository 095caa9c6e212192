//! End-to-end tests of the `utcq serve` query service: a real TCP
//! server over the checked-in container fixtures, scripted client
//! sessions, and byte-for-byte comparison against the offline query
//! path (`utcq_core::wire::handle_line` on a separately store
//! container — the same executor `utcq client --in` uses).
//!
//! Covers the serve acceptance surface: identical answers for v1/v2/v3
//! containers, pagination resume across connections, invalid/foreign
//! cursor rejection, concurrent clients against the sharded fixture,
//! and clean shutdown mid-stream.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use utcq::core::serve::{Server, ServerHandle};
use utcq::core::stiu::StiuParams;
use utcq::core::{wire, QueryTarget, Store};

/// Matches the parameters `tests/container_compat.rs` regenerates the
/// fixtures with (the v1 fixture's index is rebuilt when it migrates).
const STIU: StiuParams = StiuParams {
    partition_s: 900,
    grid_n: 8,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Reads a fixture through `utcq migrate`'s reader. The v1 fixture has
/// no embedded network, so it borrows the v2 fixture's — identical by
/// construction.
fn migrated(name: &str) -> Store {
    let v1_parts = || ((**migrated("tiny_v2.utcq").network()).clone(), STIU);
    let bytes = std::fs::read(fixture_path(name)).expect(name);
    utcq_legacy::open(&bytes, v1_parts).expect(name)
}

/// Opens `tiny_v{version}.utcq` (1, 2 or 3) as `utcq migrate` writes it.
fn open_fixture(version: u8) -> Store {
    migrated(&format!("tiny_v{version}.utcq"))
}

/// Binds an ephemeral port and runs the server on a background thread.
fn start(store: Arc<Store>, threads: usize) -> (SocketAddr, ServerHandle, ServerRunner) {
    let server = Server::bind(store, "127.0.0.1:0", threads).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, ServerRunner(Some(runner)))
}

/// Joins the server thread on drop (after tests shut it down), so a
/// failed assertion can't leak a blocked thread past the test.
struct ServerRunner(Option<std::thread::JoinHandle<()>>);

impl ServerRunner {
    fn join(mut self) {
        self.0.take().unwrap().join().expect("server thread");
    }
}

impl Drop for ServerRunner {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.join().ok();
        }
    }
}

/// One protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }

    /// Sends one request line, returns the response line (trimmed).
    fn roundtrip(&mut self, request: &str) -> String {
        self.send(request);
        self.recv().expect("response line")
    }

    fn send(&mut self, request: &str) {
        self.writer.write_all(request.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_string()),
        }
    }
}

/// A probe workload derived from the container itself: every
/// trajectory's where/when at its mid time, plus paginated range scans
/// over the network bounds.
fn probe_requests(store: &Store) -> Vec<String> {
    let mut requests = Vec::new();
    let bounds = store.network().bounding_rect();
    for snap in store.snapshots() {
        for j in 0..snap.len() as u32 {
            let ct = snap.compressed().trajectories.get(j as usize).unwrap();
            let times = store.decode_times(ct.id).expect("decode times");
            let times = times.expect("a stored id");
            let mid = (times[0] + times[times.len() - 1]) / 2;
            requests.push(format!(
                r#"{{"op":"where","traj":{},"t":{mid},"alpha":0}}"#,
                ct.id
            ));
            requests.push(format!(
                r#"{{"op":"where","traj":{},"t":{mid},"alpha":0,"limit":1}}"#,
                ct.id
            ));
            requests.push(format!(
                r#"{{"id":{},"op":"range","min_x":{},"min_y":{},"max_x":{},"max_y":{},"tq":{mid},"alpha":0.2,"limit":4}}"#,
                ct.id, bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y
            ));
        }
    }
    requests.push(r#"{"op":"info"}"#.to_string());
    requests.push(r#"{"op":"where","traj":424242,"t":0}"#.to_string());
    requests
}

#[test]
fn served_answers_are_byte_identical_to_offline_for_every_container_version() {
    for version in [1u8, 2, 3] {
        // Two independent openings of the same fixture: one behind the
        // server, one driven offline through the same wire executor.
        let served = Arc::new(open_fixture(version));
        let offline = open_fixture(version);
        let (addr, _handle, runner) = start(Arc::clone(&served), 2);
        let mut client = Client::connect(addr);
        for request in probe_requests(&offline) {
            let online = client.roundtrip(&request);
            let expected = wire::handle_line(&offline, &request).line;
            assert_eq!(online, expected, "v{version}: {request}");
        }
        client.roundtrip(r#"{"op":"shutdown"}"#);
        runner.join();
    }
}

/// Extracts the `next_cursor` string from a response line.
fn next_cursor(response: &str) -> Option<String> {
    let tag = "\"next_cursor\":\"";
    let start = response.find(tag)? + tag.len();
    let end = response[start..].find('"')? + start;
    Some(response[start..end].to_string())
}

/// Extracts the `"items":[…]` payload from a response line.
fn items(response: &str) -> &str {
    let tag = "\"items\":[";
    let start = response.find(tag).expect("items field") + tag.len();
    let end = response[start..].find(']').expect("items close") + start;
    &response[start..end]
}

#[test]
fn pagination_resumes_across_connections() {
    let store = Arc::new(open_fixture(3));
    let offline = open_fixture(3);
    let (addr, _handle, runner) = start(Arc::clone(&store), 2);

    // The full answer in one page, as ground truth.
    let full = wire::handle_line(&offline, r#"{"op":"where","traj":0,"t":71582,"alpha":0}"#).line;
    let full_items = items(&full);
    assert!(!full_items.is_empty());

    // Page 1 on connection A; resume on a brand-new connection B with
    // the cursor A minted (cursors are store state, not connection
    // state).
    let mut a = Client::connect(addr);
    let page1 = a.roundtrip(r#"{"op":"where","traj":0,"t":71582,"alpha":0,"limit":1}"#);
    assert!(page1.contains(r#""has_more":true"#), "{page1}");
    let cursor = next_cursor(&page1).expect("page 1 mints a cursor");
    drop(a);

    let mut b = Client::connect(addr);
    let page2 = b.roundtrip(&format!(
        r#"{{"op":"where","traj":0,"t":71582,"alpha":0,"limit":1024,"cursor":"{cursor}"}}"#
    ));
    assert!(page2.contains(r#""has_more":false"#), "{page2}");
    let walked = format!("{},{}", items(&page1), items(&page2));
    assert_eq!(
        walked, full_items,
        "paginated walk must equal the full answer"
    );

    // Keyset range cursors resume across connections too.
    let bounds = offline.network().bounding_rect();
    let range_req = |cursor: &str| {
        format!(
            r#"{{"op":"range","min_x":{},"min_y":{},"max_x":{},"max_y":{},"tq":71582,"alpha":0,"limit":1{}}}"#,
            bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y, cursor
        )
    };
    let r1 = b.roundtrip(&range_req(""));
    if let Some(c) = next_cursor(&r1) {
        let mut c3 = Client::connect(addr);
        let r2 = c3.roundtrip(&range_req(&format!(r#","cursor":"{c}""#)));
        assert!(r2.contains(r#""ok":true"#), "{r2}");
    }

    b.roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

#[test]
fn invalid_and_foreign_cursors_are_rejected() {
    let store = Arc::new(open_fixture(3));
    let (addr, _handle, runner) = start(Arc::clone(&store), 2);
    let mut client = Client::connect(addr);

    // Not a u64 at all.
    let resp = client.roundtrip(r#"{"op":"where","traj":0,"t":71582,"cursor":"xyz"}"#);
    assert!(resp.contains(r#""code":"invalid_cursor""#), "{resp}");

    // A structurally valid cursor minted for the wrong shard: trajectory
    // 0 lives in shard 2 of the v3 fixture, so a shard-0-tagged offset
    // cursor must be rejected, not silently paginate wrong.
    let resp = client.roundtrip(r#"{"op":"where","traj":0,"t":71582,"cursor":"999"}"#);
    assert!(resp.contains(r#""code":"invalid_cursor""#), "{resp}");

    // The connection survives rejected requests.
    let resp = client.roundtrip(r#"{"id":9,"op":"ping"}"#);
    assert_eq!(resp, r#"{"id":9,"ok":true,"op":"ping"}"#);

    client.roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

#[test]
fn concurrent_clients_get_identical_answers_on_the_sharded_fixture() {
    let store = Arc::new(open_fixture(3));
    let offline = open_fixture(3);
    let (addr, _handle, runner) = start(Arc::clone(&store), 4);

    let requests = probe_requests(&offline);
    let expected: Vec<String> = requests
        .iter()
        .map(|r| wire::handle_line(&offline, r).line)
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for (request, want) in requests.iter().zip(expected) {
                    // Skip the stateful cache_stats-style probes; every
                    // query answer must be identical under concurrency.
                    let got = client.roundtrip(request);
                    assert_eq!(&got, want, "{request}");
                }
            });
        }
    });

    Client::connect(addr).roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

#[test]
fn clean_shutdown_mid_stream() {
    let store = Arc::new(open_fixture(3));
    let (addr, _handle, runner) = start(Arc::clone(&store), 2);

    // Connection A is mid-session: it has received one complete page
    // and still holds the connection open.
    let mut a = Client::connect(addr);
    let page = a.roundtrip(r#"{"op":"where","traj":0,"t":71582,"alpha":0,"limit":1}"#);
    assert!(page.contains(r#""ok":true"#), "{page}");

    // Connection B asks for shutdown and gets a complete
    // acknowledgement line — never a truncated response.
    let mut b = Client::connect(addr);
    let ack = b.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(ack, r#"{"ok":true,"op":"shutdown"}"#);

    // The server drains: run() returns, and A's stream ends with EOF
    // (clean close), not a hang.
    runner.join();
    a.send(r#"{"op":"ping"}"#);
    assert_eq!(a.recv(), None, "connection A must see a clean EOF");
}

#[test]
fn oversized_request_is_rejected_and_the_connection_survives() {
    let store = Arc::new(open_fixture(3));
    let (addr, _handle, runner) = start(Arc::clone(&store), 1);
    let mut client = Client::connect(addr);

    // Just past the 1 MiB cap: rejected with the same bad_request the
    // offline executor produces, without buffering the line unbounded.
    let big = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(1 << 20));
    let resp = client.roundtrip(&big);
    assert!(resp.contains(r#""code":"bad_request""#), "{resp}");
    assert!(resp.contains("1 MiB"), "{resp}");

    // The remainder of the over-long line was drained: the connection
    // resynchronizes and keeps answering.
    let resp = client.roundtrip(r#"{"id":1,"op":"ping"}"#);
    assert_eq!(resp, r#"{"id":1,"ok":true,"op":"ping"}"#);

    client.roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

/// The probe trajectory the writable session ingests: trajectory 0 of
/// the fixture dataset, re-identified and time-shifted out of every
/// existing span, probabilities renormalized so the wire-level
/// validation accepts the (lossily) decompressed copy.
fn writable_probe() -> (utcq::traj::UncertainTrajectory, i64) {
    let v2 = migrated("tiny_v2.utcq");
    let part = &v2.snapshots()[0];
    let ds = utcq::core::decompress_dataset(v2.network(), part.compressed())
        .expect("fixture decompresses");
    let mut tu = ds.trajectories[0].clone();
    tu.id = 100;
    for t in &mut tu.times {
        *t += 7200;
    }
    let sum: f64 = tu.instances.iter().map(|i| i.prob).sum();
    for inst in &mut tu.instances {
        inst.prob /= sum;
    }
    let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
    (tu, mid)
}

/// Serializes a trajectory into the `ingest` request shape of
/// `PROTOCOL.md`.
fn trajectory_json(tu: &utcq::traj::UncertainTrajectory) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, r#"{{"id":{},"times":["#, tu.id);
    for (i, t) in tu.times.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{t}");
    }
    out.push_str("],\"instances\":[");
    for (w, inst) in tu.instances.iter().enumerate() {
        if w > 0 {
            out.push(',');
        }
        let _ = write!(out, r#"{{"prob":{},"path":["#, inst.prob);
        for (i, e) in inst.path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", e.0);
        }
        out.push_str("],\"positions\":[");
        for (i, p) in inst.positions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", p.path_idx, p.rd);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The deterministic writable session both the CI writable-serve smoke
/// job and the tests below replay: ingest, query the new trajectory,
/// hit the duplicate error path, shut down.
fn writable_session_lines() -> Vec<String> {
    let (tu, mid) = writable_probe();
    let bounds = migrated("tiny_v2.utcq").network().bounding_rect();
    let tu_json = trajectory_json(&tu);
    vec![
        r#"{"id":1,"op":"ping"}"#.to_string(),
        format!(r#"{{"id":2,"op":"ingest","name":"live","trajectories":[{tu_json}]}}"#),
        format!(r#"{{"id":3,"op":"where","traj":100,"t":{mid},"alpha":0}}"#),
        format!(
            r#"{{"id":4,"op":"range","min_x":{},"min_y":{},"max_x":{},"max_y":{},"tq":{mid},"alpha":0,"limit":16}}"#,
            bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y
        ),
        format!(r#"{{"id":5,"op":"ingest","trajectories":[{tu_json}]}}"#),
        format!(r#"{{"id":6,"op":"where","traj":100,"t":{mid},"alpha":0,"limit":1}}"#),
        r#"{"id":7,"op":"shutdown"}"#.to_string(),
    ]
}

#[test]
fn writable_session_fixture_stays_in_sync() {
    // The CI writable smoke job replays the checked-in file; it must
    // equal what this generator produces from the fixtures.
    let generated = writable_session_lines().join("\n") + "\n";
    let checked_in = std::fs::read_to_string(fixture_path("serve_session_writable.ndjson"))
        .expect("writable session fixture exists");
    assert_eq!(
        checked_in, generated,
        "regenerate with `cargo test --test serve -- --ignored regen_writable_session`"
    );

    // Pin the session's semantics offline (the writable executor).
    let offline = open_fixture(3);
    let replies: Vec<_> = writable_session_lines()
        .iter()
        .map(|l| wire::execute(&offline, true, l))
        .collect();
    assert!(replies[0].line.contains(r#""op":"ping""#));
    assert!(
        replies[1]
            .line
            .contains(r#""op":"ingest","ingested":1,"total":11,"epoch":1"#),
        "{}",
        replies[1].line
    );
    assert!(
        replies[2].line.contains(r#""op":"where","items":[{"#),
        "the ingested trajectory answers: {}",
        replies[2].line
    );
    assert!(
        replies[3].line.contains(r#""op":"range","items":[100]"#),
        "only the ingested trajectory lives at the shifted time: {}",
        replies[3].line
    );
    assert!(
        replies[4].line.contains(r#""code":"duplicate_trajectory""#),
        "{}",
        replies[4].line
    );
    assert!(replies[5].line.contains(r#""has_more":true"#));
    assert!(replies[6].shutdown);
}

#[test]
#[ignore = "writes tests/fixtures; run after intentional protocol/fixture changes"]
fn regen_writable_session() {
    let content = writable_session_lines().join("\n") + "\n";
    std::fs::write(fixture_path("serve_session_writable.ndjson"), content).unwrap();
}

#[test]
fn writable_server_matches_offline_ingest_replay_for_v2_and_v3() {
    for version in [2u8, 3] {
        let served = Arc::new(open_fixture(version));
        let offline = open_fixture(version);
        let server = Server::bind(Arc::clone(&served), "127.0.0.1:0", 2)
            .expect("bind ephemeral port")
            .writable(true);
        let addr = server.local_addr();
        let runner = ServerRunner(Some(std::thread::spawn(move || {
            server.run().expect("server run")
        })));
        let mut client = Client::connect(addr);
        for request in writable_session_lines() {
            let online = client.roundtrip(&request);
            let expected = wire::execute(&offline, true, &request).line;
            assert_eq!(online, expected, "v{version}: {request}");
        }
        // The session ends in shutdown; the server drains on its own.
        runner.join();
        // Both sides applied the ingest.
        assert_eq!(served.len(), 11, "v{version}");
        assert_eq!(offline.len(), 11, "v{version}");
    }
}

/// The minimised regression line: one trajectory whose two samples lie
/// 65,536 partitions apart — one more than the StIU registers. Before
/// the cap existed nothing bounded the span, so a single line could
/// make the interval index allocate without limit under the writer
/// lock.
#[test]
fn over_long_span_ingest_is_refused_on_both_shapes() {
    let line = include_str!("fuzz_regressions/wire-ingest-span.bin").trim_end();
    for version in [2u8, 3] {
        let store = open_fixture(version);
        let before = (store.len(), store.epoch());
        let reply = wire::execute(&store, true, line).line;
        assert!(
            reply.contains(r#""ok":false"#) && reply.contains(r#""code":"span_too_long""#),
            "v{version}: {reply}"
        );
        assert_eq!((store.len(), store.epoch()), before, "v{version}");
        // One partition shorter — exactly the cap — is a valid ingest.
        let at_cap = line.replace("58982400", "58981500");
        let reply = wire::execute(&store, true, &at_cap).line;
        assert!(reply.contains(r#""ingested":1"#), "v{version}: {reply}");
    }
}

/// A `when` on an edge the network does not have (the fixtures have
/// 162) is an empty answer set, like an unknown trajectory id. The
/// engine used to index the network's edge table with it: offline the
/// executor panicked, online the serving worker died and the connection
/// never got a reply.
#[test]
fn when_on_an_unknown_edge_is_an_empty_page_on_both_shapes() {
    let line = include_str!("fuzz_regressions/wire-when-edge.bin").trim_end();
    let empty = r#"{"ok":true,"op":"when","items":[],"next_cursor":null,"has_more":false}"#;
    for version in [2u8, 3] {
        let store = Arc::new(open_fixture(version));
        assert_eq!(store.network().edge_count(), 162, "v{version}");
        assert_eq!(wire::handle_line(&store, line).line, empty, "v{version}");
        let (addr, _handle, runner) = start(Arc::clone(&store), 1);
        let mut client = Client::connect(addr);
        // A ping pipelined behind it on the same connection is answered.
        client.send(line);
        client.send(r#"{"id":1,"op":"ping"}"#);
        assert_eq!(client.recv().as_deref(), Some(empty), "v{version}");
        let pong = r#"{"id":1,"ok":true,"op":"ping"}"#;
        assert_eq!(client.recv().as_deref(), Some(pong), "v{version}");
        client.roundtrip(r#"{"op":"shutdown"}"#);
        runner.join();
    }
}

/// Every integer field of PROTOCOL.md at the edge of what an `f64`
/// holds exactly: a request runs on the integer it spelled or is a
/// `bad_request`, never on a neighbour. 2⁵³ + 1 used to parse as 2⁵³, so
/// a `where` addressed, and an `ingest` stored, the trajectory next door.
#[test]
fn integer_fields_are_exact_or_refused() {
    // Each request with `#` where the literal goes.
    let templates = [
        r#"{"op":"where","traj":#,"t":0}"#,
        r#"{"op":"where","traj":1,"t":#}"#,
        r#"{"op":"where","traj":1,"t":0,"limit":#}"#,
        r#"{"op":"range","min_x":0,"min_y":0,"max_x":1,"max_y":1,"tq":#}"#,
        r#"{"op":"when","traj":1,"edge":#,"rd":0.5}"#,
        r#"{"op":"tail","from":#}"#,
        r#"{"op":"tail","from":0,"max":#}"#,
        r#"{"op":"ingest","trajectories":[{"id":#,"times":[0,9],"instances":[]}]}"#,
        r#"{"op":"ingest","trajectories":[{"id":1,"times":[0,#],"instances":[]}]}"#,
        r#"{"op":"ingest","trajectories":[],"interval":#}"#,
    ];
    let below = (1i128 << 53) - 1;
    for template in templates {
        for spelled in [below, below + 2, i128::from(u64::MAX), -below, -below - 2] {
            let line = template.replace('#', &spelled.to_string());
            match wire::parse_request(&line) {
                // `Debug` prints the integer the request holds.
                Ok(parsed) => {
                    let held = format!("{:?}", parsed.request);
                    assert!(held.contains(&spelled.to_string()), "{line}: {held}");
                }
                Err(e) => {
                    assert_eq!(e.code, "bad_request", "{line}");
                    // Only the 32-bit `edge` is narrower than 2⁵³ − 1.
                    let narrow = spelled < 0 || template.contains("edge");
                    assert!(spelled.abs() > below || narrow, "{line}: {}", e.message);
                }
            }
        }
    }
    // Through the executor, on both shapes: refused, not looked up.
    let line = r#"{"op":"where","traj":9007199254740993,"t":0}"#;
    for version in [2u8, 3] {
        let reply = wire::handle_line(&open_fixture(version), line).line;
        assert!(
            reply.contains(r#""code":"bad_request""#),
            "v{version}: {reply}"
        );
    }
}

#[test]
fn read_only_server_rejects_ingest() {
    let store = Arc::new(open_fixture(3));
    let (addr, _handle, runner) = start(Arc::clone(&store), 2);
    let mut client = Client::connect(addr);
    let (tu, _) = writable_probe();
    let resp = client.roundtrip(&format!(
        r#"{{"id":1,"op":"ingest","trajectories":[{}]}}"#,
        trajectory_json(&tu)
    ));
    assert!(resp.contains(r#""code":"read_only""#), "{resp}");
    assert_eq!(store.len(), 10, "nothing was published");
    client.roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

#[test]
fn queries_never_block_while_a_writable_server_ingests() {
    // Concurrency smoke at the serve layer: one connection streams
    // ingest batches while others query; every query must answer with
    // the same bytes it answered before the ingests started (probing a
    // pre-ingested trajectory — append-only ingest cannot change it).
    // With fewer loops than connections the writer shares a loop with
    // readers, which then wait for its ingest but answer the same.
    for threads in [1, 2, 4] {
        let served = Arc::new(open_fixture(3));
        let server = Server::bind(Arc::clone(&served), "127.0.0.1:0", threads)
            .expect("bind ephemeral port")
            .writable(true);
        let addr = server.local_addr();
        let runner = ServerRunner(Some(std::thread::spawn(move || {
            server.run().expect("server run")
        })));

        let probe = r#"{"op":"where","traj":0,"t":71582,"alpha":0}"#;
        let baseline = Client::connect(addr).roundtrip(probe);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut w = Client::connect(addr);
                let (mut tu, _) = writable_probe();
                for k in 0..4 {
                    tu.id = 200 + k;
                    for t in &mut tu.times {
                        *t += 600;
                    }
                    let resp = w.roundtrip(&format!(
                        r#"{{"op":"ingest","trajectories":[{}]}}"#,
                        trajectory_json(&tu)
                    ));
                    assert!(resp.contains(r#""ok":true"#), "{resp}");
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut c = Client::connect(addr);
                    for _ in 0..20 {
                        assert_eq!(c.roundtrip(probe), baseline);
                    }
                });
            }
        });
        assert_eq!(served.len(), 14);
        Client::connect(addr).roundtrip(r#"{"op":"shutdown"}"#);
        runner.join();
    }
}

#[test]
fn invalid_line_mid_burst_answers_in_order_and_the_connection_survives() {
    // A pipelined burst where the middle lines are garbage: every line
    // still gets exactly one response, in request order, and the
    // connection keeps working afterwards.
    let store = Arc::new(open_fixture(3));
    let (addr, _handle, runner) = start(Arc::clone(&store), 2);
    let mut client = Client::connect(addr);

    let burst = [
        r#"{"id":1,"op":"ping"}"#,
        "this is not json",
        r#"{"id":2,"op":"ping"}"#,
        r#"{"id":3,"op":"frobnicate"}"#,
        r#"{"id":4,"op":"ping"}"#,
    ];
    for line in burst {
        client.writer.write_all(line.as_bytes()).expect("send");
        client.writer.write_all(b"\n").expect("send newline");
    }
    client.writer.flush().expect("flush burst");

    let offline = open_fixture(3);
    for line in burst {
        let online = client.recv().expect("burst response");
        assert_eq!(online, wire::handle_line(&offline, line).line, "{line}");
    }
    let resp = client.roundtrip(r#"{"id":5,"op":"ping"}"#);
    assert_eq!(resp, r#"{"id":5,"ok":true,"op":"ping"}"#);

    client.roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

#[test]
fn pipelined_writable_session_matches_offline_replay() {
    // The whole writable session — ingest, queries that must observe
    // the ingest, the duplicate error, shutdown — sent as ONE pipelined
    // burst before the first response is read. The loop that owns the
    // connection executes its lines in order, which makes the session
    // byte-identical to the sequential offline replay, on one loop or
    // several.
    for threads in [1, 2] {
        let served = Arc::new(open_fixture(3));
        let offline = open_fixture(3);
        let server = Server::bind(Arc::clone(&served), "127.0.0.1:0", threads)
            .expect("bind ephemeral port")
            .writable(true);
        let addr = server.local_addr();
        let runner = ServerRunner(Some(std::thread::spawn(move || {
            server.run().expect("server run")
        })));

        let mut client = Client::connect(addr);
        let lines = writable_session_lines();
        for line in &lines {
            client.writer.write_all(line.as_bytes()).expect("send");
            client.writer.write_all(b"\n").expect("send newline");
        }
        client.writer.flush().expect("flush burst");
        for line in &lines {
            let online = client.recv().expect("burst response");
            assert_eq!(online, wire::execute(&offline, true, line).line, "{line}");
        }
        // The burst ended in shutdown: the server drains and closes.
        assert_eq!(client.recv(), None, "clean EOF after the shutdown ack");
        runner.join();
        assert_eq!(served.len(), 11);
        assert_eq!(offline.len(), 11);
    }
}

#[test]
fn slow_reader_gets_every_response_under_backpressure() {
    // A client that writes far more than the server's write buffer high
    // watermark before reading anything: the server must pause reading
    // that connection instead of buffering unboundedly, then deliver
    // every response in order once the client drains.
    let store = Arc::new(open_fixture(3));
    let (addr, _handle, runner) = start(Arc::clone(&store), 2);

    const N: usize = 20_000;
    let stream = TcpStream::connect(addr).expect("connect");
    let writer_stream = stream.try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || {
        let mut w = BufWriter::new(writer_stream);
        for i in 0..N {
            writeln!(w, r#"{{"id":{i},"op":"ping"}}"#).expect("send ping");
        }
        w.flush().expect("flush pings");
    });
    // Deliberately let the response backlog build past the kernel
    // buffers and the server's high watermark before reading.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for i in 0..N {
        line.clear();
        reader.read_line(&mut line).expect("response");
        assert_eq!(
            line.trim_end(),
            format!(r#"{{"id":{i},"ok":true,"op":"ping"}}"#),
            "response {i} lost or reordered under backpressure"
        );
    }
    writer.join().expect("writer thread");

    // The server is still healthy for other clients.
    let mut c = Client::connect(addr);
    assert_eq!(
        c.roundtrip(r#"{"id":1,"op":"ping"}"#),
        r#"{"id":1,"ok":true,"op":"ping"}"#
    );
    c.roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

/// The decode-cache budget is the store's, whole: a budget that no
/// partition count divides reads back exactly over the wire, online and
/// offline alike.
#[test]
fn cache_budget_reads_back_exactly_on_the_sharded_fixture() {
    let served = Arc::new(open_fixture(3));
    let offline = open_fixture(3);
    assert!(offline.shard_count() > 1);
    for store in [&*served, &offline] {
        store.set_cache_bytes(1_000_003);
    }
    let (addr, _handle, runner) = start(Arc::clone(&served), 1);
    let mut client = Client::connect(addr);
    let request = r#"{"op":"cache_stats"}"#;
    let online = client.roundtrip(request);
    assert!(online.contains(r#""budget_bytes":1000003"#), "{online}");
    assert_eq!(online, wire::handle_line(&offline, request).line);
    client.roundtrip(r#"{"op":"shutdown"}"#);
    runner.join();
}

#[test]
fn checked_in_session_fixture_stays_in_sync() {
    // The serve-smoke CI job replays this exact session against the
    // binary; keep its expectations pinned here so fixture drift fails
    // fast in `cargo test` rather than only in CI.
    let session = std::fs::read_to_string(fixture_path("serve_session.ndjson")).unwrap();
    let offline = open_fixture(3);
    let mut replies = Vec::new();
    for line in session.lines().filter(|l| !l.trim().is_empty()) {
        let reply = wire::handle_line(&offline, line);
        replies.push((line.to_string(), reply));
    }
    assert_eq!(replies.len(), 10);
    assert!(replies[0].1.line.contains(r#""op":"ping""#));
    assert!(replies[1].1.line.contains(r#""shape":"sharded""#));
    assert!(replies[2].1.line.contains(r#""has_more":true"#));
    assert!(replies[3].1.line.contains(r#""has_more":false"#));
    assert!(
        replies[4].1.line.contains(r#""op":"when","items":[{"#),
        "when probe should hit: {}",
        replies[4].1.line
    );
    assert!(replies[5].1.line.contains(r#""op":"range","items":[0"#));
    assert!(replies[6].1.line.contains(r#""code":"invalid_cursor""#));
    assert!(replies[7].1.line.contains(r#""code":"unknown_op""#));
    assert!(replies[8].1.line.contains(r#""op":"cache_stats""#));
    assert!(replies[9].1.shutdown, "session must end with shutdown");
}

/// PROTOCOL.md's request table lists exactly the op table's rows: each
/// op, its required fields and its optional ones (plus `id`, which
/// every request may carry), in the table's order.
#[test]
fn protocol_md_request_table_equals_the_op_table() {
    let doc =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("PROTOCOL.md"))
            .expect("PROTOCOL.md");
    let names = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(String::from)
            .collect()
    };
    let table = doc
        .split("| op | required fields | optional fields |")
        .nth(1)
        .expect("the request table");
    let documented: Vec<(String, Vec<String>, Vec<String>)> = table
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let op = cells[1].trim_matches('`').to_string();
            (op, names(cells[2]), names(cells[3]))
        })
        .collect();
    let table: Vec<(String, Vec<String>, Vec<String>)> = wire::OPS
        .iter()
        .map(|op| {
            let mut optional = Vec::from_iter(op.optional.iter().map(|f| f.to_string()));
            optional.push("id".to_string());
            let required = op.required.iter().map(|f| f.to_string()).collect();
            (op.name.to_string(), required, optional)
        })
        .collect();
    assert_eq!(documented, table);
}

/// Each op's minimal line, built from its table row, decodes; leaving
/// out any required field is a `bad_request` naming that field; a
/// read-only surface refuses exactly the ops that write; and every
/// successful reply names its op.
#[test]
fn every_op_decodes_from_its_table_row() {
    let store = open_fixture(2);
    for op in &wire::OPS {
        let field = |f: &str| {
            let value = if f == "trajectories" { "[]" } else { "0" };
            format!(r#","{f}":{value}"#)
        };
        let line = |skip: Option<&str>| {
            let fields = op.required.iter().filter(|f| Some(**f) != skip);
            format!(
                r#"{{"op":"{}"{}}}"#,
                op.name,
                String::from_iter(fields.map(|f| field(f)))
            )
        };
        assert!(wire::parse_request(&line(None)).is_ok(), "{}", op.name);
        for missing in op.required {
            let e = wire::parse_request(&line(Some(missing))).unwrap_err();
            assert_eq!(e.code, "bad_request", "{}", op.name);
            assert!(e.message.contains(missing), "{}: {}", op.name, e.message);
        }
        let reply = wire::handle_line(&store, &line(None)).line;
        assert_eq!(
            reply.contains(r#""code":"read_only""#),
            op.writes,
            "{reply}"
        );
        let reply = wire::execute(&store, true, &line(None)).line;
        let named = format!(r#"{{"ok":true,"op":"{}""#, op.name);
        assert!(
            reply.starts_with(&named) || reply.contains(r#""ok":false"#),
            "{reply}"
        );
    }
}
